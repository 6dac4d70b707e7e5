//! Q&A robot scenario: TextCNN-69 + LSTM-2365 + DSSM-2389 under a
//! tight 50 ms SLO. Shows the non-uniform batching at work: the
//! per-batchsize completion mix and per-instance configurations the
//! scheduler picked (the paper's Fig. 13 view).
//!
//! ```sh
//! cargo run --release --example qa_robot
//! ```

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};

fn main() {
    let app = Application::qa_robot();
    let duration = SimDuration::from_mins(15);
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .enumerate()
        .map(|(i, _)| FunctionLoad::trace(TracePattern::Bursty, 150.0, duration, 31 + i as u64))
        .collect();
    let workload = Workload::build(&loads, 13);

    let report = System::Infless.run(ClusterSpec::testbed(), app.functions(), &workload, 13);

    println!(
        "Q&A robot, bursty load, {} requests over {} — SLO 50 ms\n",
        workload.len(),
        duration
    );
    println!(
        "overall: completed {}  dropped {}  violations {:.2}%\n",
        report.total_completed(),
        report.total_dropped(),
        report.violation_rate() * 100.0
    );

    for f in &report.functions {
        let lat = &f.latency_ms;
        println!(
            "{} — p50 {:.1} ms, p99 {:.1} ms",
            f.name,
            lat.quantile(0.5).unwrap_or(0.0),
            lat.quantile(0.99).unwrap_or(0.0)
        );
        let mut batches: Vec<(u32, u64)> = f
            .per_batch_completed
            .iter()
            .map(|(b, n)| (*b, *n))
            .collect();
        batches.sort_unstable();
        for (b, n) in batches {
            let share = n as f64 / f.completed.max(1) as f64 * 100.0;
            println!("  batchsize {b:>2}: {n:>7} requests ({share:>5.1}%)");
        }
    }

    println!("\ninstance configurations launched (function, batch, resources -> count):");
    let mut configs: Vec<_> = report.config_launches.iter().collect();
    configs.sort_by_key(|((f, c), _)| (*f, c.batch(), c.resources().cpu_cores()));
    for ((f, cfg), n) in configs {
        println!("  {:<11} {} x{}", report.functions[*f].name, cfg, n);
    }
}
