//! Hot-path performance harness (`BENCH_hotpath.json`).
//!
//! Measures how fast the *simulator itself* runs — simulated requests
//! processed per wall-clock second — on the fig11-style stress
//! scenarios, plus the dispatch/schedule overhead histograms recorded
//! by the collector. Emits `BENCH_hotpath.json` both at the workspace
//! root (committed, so future PRs have a perf trajectory) and under
//! `target/infless-results/`.
//!
//! With `INFLESS_PERF_GATE=1` the harness compares the measured
//! requests/sec against `crates/bench/perf_baseline.json` and exits
//! nonzero when any scenario regresses by more than 20 %.
//!
//! The macro measurement loop is deliberately simple (best-of-N
//! wall-clock around `System::run`) so numbers stay comparable across
//! PRs; criterion drives the repetition schedule.

use std::time::Instant;

use infless_bench::{constant_workload, header, maybe_quick, quick, record, System};
use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_core::metrics::RunReport;
use infless_sim::SimDuration;
use infless_workload::Workload;

/// One fig11-style stress scenario.
struct Scenario {
    name: &'static str,
    app: Application,
    cluster: ClusterSpec,
    rps: f64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "osvt_testbed",
            app: Application::osvt(),
            cluster: ClusterSpec::testbed(),
            rps: 10_000.0,
        },
        Scenario {
            name: "qa_robot_large2",
            app: Application::qa_robot(),
            cluster: ClusterSpec::large(2),
            rps: 40_000.0,
        },
    ]
}

/// Wall-clock result of one measured run.
struct Measured {
    requests_per_sec: f64,
    wall_seconds: f64,
    arrivals: usize,
    report: RunReport,
}

/// Runs the scenario once and times the simulation loop only (platform
/// construction and workload generation excluded — they are not the
/// hot path under test).
fn run_once(sc: &Scenario, workload: &Workload) -> Measured {
    let t0 = Instant::now();
    let report = System::Infless.run(sc.cluster, sc.app.functions(), workload, 11);
    let wall = t0.elapsed().as_secs_f64();
    Measured {
        requests_per_sec: workload.len() as f64 / wall,
        wall_seconds: wall,
        arrivals: workload.len(),
        report,
    }
}

fn quantiles_json(hist: &infless_telemetry::Log2Histogram) -> serde_json::Value {
    if hist.is_empty() {
        return serde_json::json!(null);
    }
    serde_json::json!({
        "count": hist.count(),
        "mean": hist.mean(),
        "min": hist.min(),
        "max": hist.max(),
        "p50": hist.quantile(0.50),
        "p95": hist.quantile(0.95),
        "p99": hist.quantile(0.99),
    })
}

fn main() {
    header(
        "perf_hotpath",
        "§3.4 scheduling overhead / ROADMAP hot path",
        "Simulator wall-clock throughput on fig11-style stress scenarios",
    );

    // Best-of-N: wall-clock noise only ever slows a run down, so the
    // fastest repetition is the closest estimate of the code's speed.
    let reps = if quick() { 2 } else { 3 };
    let duration = maybe_quick(SimDuration::from_secs(120));

    let mut results = Vec::new();
    for sc in scenarios() {
        let workload = constant_workload(sc.app.functions().len(), sc.rps, duration, 11);
        let mut best: Option<Measured> = None;
        for _ in 0..reps {
            let m = run_once(&sc, &workload);
            if best
                .as_ref()
                .is_none_or(|b| m.wall_seconds < b.wall_seconds)
            {
                best = Some(m);
            }
        }
        let best = best.expect("at least one repetition");
        println!(
            "  {:<16} {:>10.0} req/s of wall-clock  ({} arrivals in {:.2}s)",
            sc.name, best.requests_per_sec, best.arrivals, best.wall_seconds
        );
        results.push((sc, best));
    }

    let payload = serde_json::json!({
        "experiment": "perf_hotpath",
        "quick": quick(),
        "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "duration_s": duration.as_secs_f64(),
        "scenarios": results
            .iter()
            .map(|(sc, m)| {
                serde_json::json!({
                    "name": sc.name,
                    "stress_rps": sc.rps,
                    "arrivals": m.arrivals,
                    "wall_seconds": m.wall_seconds,
                    "requests_per_sec": m.requests_per_sec,
                    "completed": m.report.total_completed(),
                    "dropped": m.report.total_dropped(),
                    "dispatch_overhead_ns": quantiles_json(&m.report.dispatch_overhead_ns),
                    "sched_overhead_us_hist": quantiles_json(&m.report.sched_overhead_hist_us),
                })
            })
            .collect::<Vec<_>>(),
    });
    record("BENCH_hotpath", payload.clone());
    // Committed copy at the workspace root: the perf trajectory.
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let _ = std::fs::write(
        root.join("BENCH_hotpath.json"),
        serde_json::to_string_pretty(&payload).unwrap_or_default(),
    );

    if std::env::var("INFLESS_PERF_GATE").is_ok_and(|v| v == "1") {
        gate(&root, &results);
    }
}

/// Fails (exit 1) when any scenario's requests/sec drops more than 20 %
/// below the committed baseline. Scenarios absent from the baseline are
/// skipped, so adding a scenario does not require regenerating it in
/// the same PR.
fn gate(root: &std::path::Path, results: &[(Scenario, Measured)]) {
    let path = root.join("crates/bench/perf_baseline.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("perf gate: no baseline at {} — skipping", path.display());
        return;
    };
    let baseline: serde_json::Value = serde_json::from_str(&text).expect("valid baseline JSON");
    let mut failed = false;
    for (sc, m) in results {
        let Some(base_rps) = baseline
            .get("scenarios")
            .and_then(|s| s.get(sc.name))
            .and_then(|s| s.get("requests_per_sec"))
            .and_then(|v| v.as_f64())
        else {
            eprintln!("perf gate: scenario {} not in baseline — skipping", sc.name);
            continue;
        };
        let ratio = m.requests_per_sec / base_rps;
        let verdict = if ratio < 0.8 {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  gate {:<16} {:>8.0} vs baseline {:>8.0} req/s  ({:+.1}%)  {}",
            sc.name,
            m.requests_per_sec,
            base_rps,
            (ratio - 1.0) * 100.0,
            verdict
        );
    }
    if failed {
        eprintln!("perf gate: requests/sec regressed more than 20% vs committed baseline");
        std::process::exit(1);
    }
}
