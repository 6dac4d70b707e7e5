//! Reproducibility: identical seeds must give bit-identical results on
//! every platform — the property that makes A/B comparisons on the same
//! workload meaningful (and the paper's simulator methodology sound).

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};

fn workload(seed: u64) -> (Application, Workload) {
    let app = Application::qa_robot();
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .enumerate()
        .map(|(i, _)| {
            FunctionLoad::trace(
                TracePattern::Bursty,
                40.0,
                SimDuration::from_secs(45),
                seed + i as u64,
            )
        })
        .collect();
    let w = Workload::build(&loads, seed);
    (app, w)
}

/// A digest of everything observable about a run.
fn digest(report: &infless::core::RunReport) -> (u64, u64, u64, u64, String) {
    let lat: String = report
        .functions
        .iter()
        .map(|f| format!("{}:{:.6};", f.name, f.latency_ms.mean()))
        .collect();
    (
        report.total_completed(),
        report.total_dropped(),
        report.launches,
        report.cold_launches,
        lat,
    )
}

#[test]
fn workload_generation_is_deterministic() {
    let (_, a) = workload(11);
    let (_, b) = workload(11);
    assert_eq!(a, b);
    let (_, c) = workload(12);
    assert_ne!(a, c);
}

#[test]
fn infless_runs_are_identical_per_seed() {
    let (app, w) = workload(21);
    let run = || System::Infless.run(ClusterSpec::testbed(), app.functions(), &w, 21);
    assert_eq!(digest(&run()), digest(&run()));
}

#[test]
fn openfaas_runs_are_identical_per_seed() {
    let (app, w) = workload(22);
    let run = || System::OpenFaasPlus.run(ClusterSpec::testbed(), app.functions(), &w, 22);
    assert_eq!(digest(&run()), digest(&run()));
}

#[test]
fn batch_runs_are_identical_per_seed() {
    let (app, w) = workload(23);
    let run = || System::Batch.run(ClusterSpec::testbed(), app.functions(), &w, 23);
    assert_eq!(digest(&run()), digest(&run()));
}

#[test]
fn different_seeds_change_noise_not_magnitudes() {
    let (app, w) = workload(31);
    let r1 = System::Infless.run(ClusterSpec::testbed(), app.functions(), &w, 31);
    let r2 = System::Infless.run(ClusterSpec::testbed(), app.functions(), &w, 32);
    // Same workload, different execution noise: totals stay close.
    let a = r1.total_completed() as f64;
    let b = r2.total_completed() as f64;
    assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
}
