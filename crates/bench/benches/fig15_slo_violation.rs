//! Fig. 15: SLO violations and latency breakdown.
//!
//! (a) SLO violation rates of the three systems across the trace
//!     patterns (paper: INFless ≤ 3.1 % on average, OpenFaaS+ up to 8 %
//!     under sporadic load from cold starts, BATCH similar from batch
//!     queueing timeouts);
//! (b/c) INFless's per-request latency decomposition (cold / queue /
//!     exec) at SLO = 150 ms and 350 ms — queueing is regulated to
//!     roughly the execution-time scale.

use infless_bench::{header, maybe_quick, pattern_workload, record, run_parallel, System};
use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_sim::SimDuration;
use infless_workload::TracePattern;

fn main() {
    let cluster = ClusterSpec::testbed();
    let duration = maybe_quick(SimDuration::from_mins(12));

    header(
        "fig15_slo_violation",
        "Fig. 15(a)",
        "SLO violation rate by system and trace pattern (OSVT)",
    );
    let app = Application::osvt();
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "system", "sporadic", "periodic", "bursty"
    );
    let mut viol_rows = Vec::new();
    let workloads: Vec<_> = TracePattern::evaluation_set()
        .iter()
        .enumerate()
        .map(|(pi, pattern)| {
            pattern_workload(
                app.functions().len(),
                *pattern,
                120.0,
                duration,
                150 + pi as u64,
            )
        })
        .collect();
    let mut jobs = Vec::new();
    for sys in System::trio() {
        for workload in &workloads {
            let functions = app.functions().to_vec();
            jobs.push(move || sys.run(cluster, &functions, workload, 15).violation_rate());
        }
    }
    let results = run_parallel(jobs);
    for (si, sys) in System::trio().iter().enumerate() {
        print!("{:<10}", sys.name());
        let vals: Vec<f64> = (0..workloads.len())
            .map(|pi| results[si * workloads.len() + pi])
            .collect();
        for v in &vals {
            print!("{:>9.2}%", v * 100.0);
        }
        println!();
        viol_rows.push(serde_json::json!({ "system": sys.name(), "violation_rates": vals }));
    }
    println!();

    let mut breakdown_rows = Vec::new();
    for slo_ms in [150u64, 350] {
        header(
            "fig15_slo_violation",
            if slo_ms == 150 {
                "Fig. 15(b)"
            } else {
                "Fig. 15(c)"
            },
            &format!("INFless latency breakdown at SLO = {slo_ms} ms (OSVT, bursty)"),
        );
        let app = Application::osvt_with_slo(SimDuration::from_millis(slo_ms));
        let workload = pattern_workload(
            app.functions().len(),
            TracePattern::Bursty,
            150.0,
            duration,
            160 + slo_ms,
        );
        let r = System::Infless.run(cluster, app.functions(), &workload, 15);
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "model", "queue ms", "batch ms", "cold ms", "exec ms", "interf ms", "p99 ms"
        );
        for f in &r.functions {
            let b = &f.breakdown;
            let parts = [
                b.queueing_ms.mean(),
                b.batch_wait_ms.mean(),
                b.startup_ms.mean(),
                b.execution_ms.mean(),
                b.interference_ms.mean(),
            ];
            println!(
                "{:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.1}",
                f.name,
                parts[0],
                parts[1],
                parts[2],
                parts[3],
                parts[4],
                f.latency_ms.quantile(0.99).unwrap_or(0.0)
            );
            breakdown_rows.push(serde_json::json!({
                "slo_ms": slo_ms,
                "model": f.name,
                "queueing_ms": parts[0],
                "batch_wait_ms": parts[1],
                "startup_ms": parts[2],
                "execution_ms": parts[3],
                "interference_ms": parts[4],
            }));
        }
        println!();
    }

    record(
        "fig15_slo_violation",
        serde_json::json!({ "fig15a": viol_rows, "fig15bc": breakdown_rows }),
    );
}
