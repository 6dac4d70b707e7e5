//! End-to-end comparison invariants: the qualitative claims of §5.2
//! must hold on a full platform run — INFless beats both baselines on
//! throughput per unit of resource while keeping SLO violations low.

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::RunReport;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, Workload};

fn workload(app: &Application, rps: f64, secs: u64, seed: u64) -> Workload {
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
        .collect();
    Workload::build(&loads, seed)
}

/// OpenFaaS+, BATCH and INFless, in that order.
fn run_all(app: &Application, w: &Workload, seed: u64) -> [RunReport; 3] {
    System::trio().map(|s| s.run(ClusterSpec::testbed(), app.functions(), w, seed))
}

#[test]
fn infless_wins_throughput_per_resource_on_osvt() {
    let app = Application::osvt();
    let w = workload(&app, 60.0, 60, 1);
    let [openfaas, batch, infless] = run_all(&app, &w, 1);
    let tpr = |r: &RunReport| r.throughput_per_resource();
    assert!(
        tpr(&infless) > 1.5 * tpr(&batch),
        "INFless {:.3} vs BATCH {:.3}",
        tpr(&infless),
        tpr(&batch)
    );
    assert!(
        tpr(&infless) > 2.0 * tpr(&openfaas),
        "INFless {:.3} vs OpenFaaS+ {:.3}",
        tpr(&infless),
        tpr(&openfaas)
    );
    // And BATCH in turn beats one-to-one OpenFaaS+ (Observation #4/#5).
    assert!(tpr(&batch) > tpr(&openfaas));
}

#[test]
fn all_systems_serve_moderate_load() {
    let app = Application::qa_robot();
    let w = workload(&app, 30.0, 45, 2);
    for report in run_all(&app, &w, 2) {
        let total = report.total_completed() + report.total_dropped();
        assert_eq!(
            total as usize,
            w.len(),
            "{}: lost requests",
            report.platform
        );
        let served = report.total_completed() as f64 / total as f64;
        assert!(
            served > 0.95,
            "{} only served {:.1}%",
            report.platform,
            served * 100.0
        );
    }
}

#[test]
fn infless_violation_rate_is_low() {
    let app = Application::osvt();
    let w = workload(&app, 50.0, 60, 3);
    let [_, _, infless] = run_all(&app, &w, 3);
    assert!(
        infless.violation_rate() < 0.05,
        "INFless violation rate {:.2}%",
        infless.violation_rate() * 100.0
    );
}

#[test]
fn infless_cost_per_request_is_cheapest() {
    use infless::baselines::CostModel;
    let app = Application::osvt();
    let w = workload(&app, 60.0, 60, 4);
    let [openfaas, batch, infless] = run_all(&app, &w, 4);
    let cost = CostModel::default();
    let c_open = cost.summarize(&openfaas).cost_per_request;
    let c_batch = cost.summarize(&batch).cost_per_request;
    let c_inf = cost.summarize(&infless).cost_per_request;
    assert!(c_inf < c_batch, "INFless {c_inf} !< BATCH {c_batch}");
    assert!(c_batch < c_open, "BATCH {c_batch} !< OpenFaaS+ {c_open}");
}

#[test]
fn infless_uses_non_uniform_configs_batch_does_not() {
    let app = Application::osvt();
    let w = workload(&app, 100.0, 45, 5);
    let [_, batch, infless] = run_all(&app, &w, 5);
    // BATCH: at most one configuration per function.
    let mut batch_cfgs_per_fn = std::collections::HashMap::new();
    for (f, cfg) in batch.config_launches.keys() {
        batch_cfgs_per_fn
            .entry(*f)
            .or_insert_with(std::collections::HashSet::new)
            .insert(*cfg);
    }
    for (f, cfgs) in &batch_cfgs_per_fn {
        assert_eq!(cfgs.len(), 1, "BATCH fn {f} used {} configs", cfgs.len());
    }
    // INFless: across the app, more distinct configurations than
    // functions (non-uniform scaling, Fig. 13c).
    let infless_distinct: std::collections::HashSet<_> = infless.config_launches.keys().collect();
    assert!(
        infless_distinct.len() > app.functions().len(),
        "INFless used only {} distinct (fn, config) pairs",
        infless_distinct.len()
    );
}

#[test]
fn engine_accounts_every_request_exactly_once() {
    let app = Application::combined();
    let w = workload(&app, 25.0, 40, 6);
    for report in run_all(&app, &w, 6) {
        let accounted: u64 = report
            .functions
            .iter()
            .map(|f| f.completed + f.dropped)
            .sum();
        assert_eq!(
            accounted as usize,
            w.len(),
            "{}: {} accounted vs {} offered",
            report.platform,
            accounted,
            w.len()
        );
        for f in &report.functions {
            assert_eq!(
                f.latency_ms.len() as u64,
                f.completed,
                "{}: latency samples must match completions",
                f.name
            );
        }
    }
}
