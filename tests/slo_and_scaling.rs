//! SLO guarantees and auto-scaling behaviour across trace patterns —
//! the integration-level counterpart of Figs. 14 and 15.

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::engine::FunctionInfo;
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};

fn run_pattern(pattern: TracePattern, mean_rps: f64, mins: u64) -> infless::core::RunReport {
    let app = Application::osvt();
    let duration = SimDuration::from_mins(mins);
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .enumerate()
        .map(|(i, _)| FunctionLoad::trace(pattern, mean_rps, duration, 70 + i as u64))
        .collect();
    let workload = Workload::build(&loads, 71);
    System::Infless.run(ClusterSpec::testbed(), app.functions(), &workload, 71)
}

#[test]
fn slo_holds_across_trace_patterns() {
    // Fig. 15a: INFless keeps violations ≤ ~3% on every pattern; allow
    // headroom for the tougher patterns at this small scale.
    for pattern in TracePattern::evaluation_set() {
        let report = run_pattern(pattern, 40.0, 8);
        assert!(
            report.violation_rate() < 0.08,
            "{pattern}: violation rate {:.2}%",
            report.violation_rate() * 100.0
        );
    }
}

#[test]
fn queueing_time_stays_within_budget() {
    // Fig. 15b: the dispatcher regulates batch queueing to roughly the
    // execution-time scale; queueing must never dominate the SLO.
    let report = run_pattern(TracePattern::Periodic, 60.0, 8);
    for f in &report.functions {
        if f.completed == 0 {
            continue;
        }
        let b = &f.breakdown;
        let queue = b.queueing_ms.mean() + b.batch_wait_ms.mean();
        assert!(
            queue < f.slo.as_millis_f64() * 0.75,
            "{}: mean queue {queue}ms vs SLO {}",
            f.name,
            f.slo
        );
    }
}

#[test]
fn provisioning_tracks_periodic_load() {
    // Load high enough that the peak needs several instances per
    // function — otherwise one large-batch instance covers the whole
    // swing and there is nothing to scale in.
    let report = run_pattern(TracePattern::Periodic, 300.0, 12);
    let peak = report
        .provisioning
        .iter()
        .map(|(_, u)| *u)
        .fold(0.0f64, f64::max);
    // After the peak, provisioning must come down (Fig. 14 bottom).
    let mut after_peak = false;
    let mut min_after = f64::MAX;
    for (_, u) in &report.provisioning {
        if *u >= peak * 0.999 {
            after_peak = true;
        } else if after_peak {
            min_after = min_after.min(*u);
        }
    }
    assert!(
        min_after < peak * 0.7,
        "provisioning never scaled in: peak {peak}, min after {min_after}"
    );
    assert!(report.retirements > 0);
}

#[test]
fn bursty_load_triggers_scale_out_and_in() {
    let report = run_pattern(TracePattern::Bursty, 50.0, 10);
    assert!(report.launches > 3, "launches {}", report.launches);
    let served = report.total_completed() as f64
        / (report.total_completed() + report.total_dropped()) as f64;
    assert!(served > 0.95, "served only {:.1}%", served * 100.0);
}

#[test]
fn large_model_tight_slo_is_detected_as_infeasible_or_served() {
    // BERT under a 150 ms SLO can only run on generous GPU slices; the
    // platform must either serve within SLO or drop — never hang.
    let functions = vec![FunctionInfo::new(
        ModelId::BertV1.spec(),
        SimDuration::from_millis(150),
    )];
    let loads = vec![FunctionLoad::constant(10.0, SimDuration::from_secs(30))];
    let workload = Workload::build(&loads, 80);
    let report = System::Infless.run(ClusterSpec::testbed(), &functions, &workload, 80);
    let total = report.total_completed() + report.total_dropped();
    assert_eq!(total as usize, workload.len());
    if report.total_completed() > 50 {
        let f = &report.functions[0];
        let warm_ok = f.completed - f.violations;
        assert!(warm_ok > 0, "BERT never met 150 ms even warm");
    }
}

#[test]
fn mixed_application_shares_the_cluster() {
    let app = Application::combined();
    let duration = SimDuration::from_secs(60);
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .map(|_| FunctionLoad::constant(30.0, duration))
        .collect();
    let workload = Workload::build(&loads, 90);
    let report = System::Infless.run(ClusterSpec::testbed(), app.functions(), &workload, 90);
    // Every function makes progress.
    for f in &report.functions {
        assert!(
            f.completed > 1000,
            "{} starved: {} completed",
            f.name,
            f.completed
        );
    }
    assert!(report.violation_rate() < 0.08);
}

#[test]
fn memory_tight_cluster_degrades_gracefully() {
    // Enough CPU/GPU for the load, but memory for only ~3 instances of
    // the model: the platform must serve what fits and drop the rest
    // rather than over-pack or crash.
    let spec = ModelId::ResNet50.spec();
    let per_instance_mb = spec.size_mb() + 150.0;
    let functions = vec![FunctionInfo::new(spec, SimDuration::from_millis(200))];
    let cluster = ClusterSpec {
        servers: 2,
        cores_per_server: 32,
        gpus_per_server: 2,
        mem_per_server_mb: per_instance_mb * 1.6,
        gpu_mem_per_device_mb: 0.0,
    };
    let loads = vec![FunctionLoad::constant(2000.0, SimDuration::from_secs(20))];
    let workload = Workload::build(&loads, 44);
    let report = System::Infless.run(cluster, &functions, &workload, 44);
    let total = report.total_completed() + report.total_dropped();
    assert_eq!(total as usize, workload.len(), "every request accounted");
    assert!(report.total_completed() > 0, "some capacity fits");
    assert!(
        report.total_dropped() > 0,
        "the memory wall must force drops at this load"
    );
    // Never more instances alive than memory allows (1 per server here).
    assert!(report.launches <= 8, "launches {}", report.launches);
}
