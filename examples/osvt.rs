//! OSVT scenario: the online second-hand vehicle trading application
//! (SSD + MobileNet + ResNet-50, SLO 200 ms) under the three
//! production-trace patterns of Fig. 10, on INFless.
//!
//! ```sh
//! cargo run --release --example osvt
//! ```

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};

fn main() {
    let app = Application::osvt();
    let duration = SimDuration::from_mins(20);
    let mean_rps = 80.0;

    for pattern in TracePattern::evaluation_set() {
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .enumerate()
            .map(|(i, _)| FunctionLoad::trace(pattern, mean_rps, duration, 100 + i as u64))
            .collect();
        let workload = Workload::build(&loads, 7);
        let report = System::Infless.run(ClusterSpec::testbed(), app.functions(), &workload, 7);

        println!(
            "--- {} trace ({} requests over {}) ---",
            pattern,
            workload.len(),
            duration
        );
        println!(
            "  completed {}  dropped {}  SLO violations {:.2}%  thpt/resource {:.3}",
            report.total_completed(),
            report.total_dropped(),
            report.violation_rate() * 100.0,
            report.throughput_per_resource()
        );
        for f in &report.functions {
            let lat = &f.latency_ms;
            let b = &f.breakdown;
            println!(
                "  {:<11} n={:<6} p50={:>7.1}ms p99={:>7.1}ms queue={:>6.1}ms exec={:>6.1}ms cold-rate={:>4.1}%",
                f.name,
                f.completed,
                lat.quantile(0.50).unwrap_or(0.0),
                lat.quantile(0.99).unwrap_or(0.0),
                b.queueing_ms.mean() + b.batch_wait_ms.mean(),
                b.execution_ms.mean() + b.interference_ms.mean(),
                f.cold_rate() * 100.0,
            );
        }
        println!();
    }
}
