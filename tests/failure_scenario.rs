//! End-to-end checks of the fault-injection subsystem: the shipped
//! failure scenario must run on every platform, faults must actually
//! fire, and no request may be lost or double-counted across eviction,
//! retry and shedding.

use infless::descriptor::Scenario;
use infless::RunConfig;
use infless_cluster::ClusterSpec;
use infless_core::driver;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_faults::{FaultPlan, FaultSchedule};
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, Workload};
use proptest::prelude::*;

fn check_failure_invariants(report: &RunReport, offered: u64, label: &str) {
    let f = &report.failures;
    assert_eq!(
        f.requests_displaced,
        f.requests_retried + f.requests_shed,
        "{label}: displaced requests leaked: {f:?}"
    );
    assert_eq!(
        report.total_completed() + report.total_dropped(),
        offered,
        "{label}: conservation broken (completed {} + dropped {} != offered {offered})",
        report.total_completed(),
        report.total_dropped(),
    );
}

/// The shipped `scenarios/failure_sweep.json` runs end to end on every
/// platform with faults firing, and the accounting invariants hold.
#[test]
fn shipped_failure_scenario_runs_with_faults_firing() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("failure_sweep.json");
    Scenario::from_file(&path).expect("shipped scenario parses");
    let json = std::fs::read_to_string(&path).unwrap();
    for platform in ["infless", "openfaas", "batch"] {
        let json = json.replace(
            "\"platform\": \"infless\"",
            &format!("\"platform\": \"{platform}\""),
        );
        let scenario = Scenario::from_json(&json).expect("valid");
        let report = scenario.execute(RunConfig::new()).expect("runs");
        let total = report.total_completed() + report.total_dropped();
        assert!(
            report.failures.any(),
            "{platform}: the failure sweep injected nothing"
        );
        assert!(
            report.failures.server_crashes > 0,
            "{platform}: no server crash fired: {:?}",
            report.failures
        );
        check_failure_invariants(&report, total, platform);
        assert!(
            report.total_completed() > 0,
            "{platform}: nothing completed under faults"
        );
    }
}

/// Reference-seed smoke of the fault report surface: recovery metrics
/// are populated when capacity is lost.
#[test]
fn recovery_metrics_are_reported() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("failure_sweep.json");
    let report = Scenario::from_file(&path)
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    let f = &report.failures;
    assert!(f.server_crashes > 0 || f.instances_killed > 0);
    if f.server_recoveries > 0 {
        assert!(f.server_recoveries <= f.server_crashes);
    }
    if f.requests_displaced > 0 {
        // Some displaced work must have been re-dispatched or shed.
        assert!(f.requests_retried + f.requests_shed > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation across eviction and re-placement: for arbitrary
    /// load levels, fault intensities and seeds, every offered request
    /// ends exactly once (completed or dropped; shed counts as
    /// dropped), and every displaced request is either retried or shed.
    #[test]
    fn prop_workload_conservation_under_faults(
        seed in 0u64..1000,
        rps in 10.0f64..60.0,
        intensity in 0.5f64..4.0,
    ) {
        let cluster = ClusterSpec {
            servers: 3,
            cores_per_server: 16,
            gpus_per_server: 1,
            mem_per_server_mb: 64.0 * 1024.0,
            gpu_mem_per_device_mb: 0.0,
        };
        let functions = vec![
            infless_core::engine::FunctionInfo::new(
                ModelId::MobileNet.spec(),
                SimDuration::from_millis(150),
            ),
            infless_core::engine::FunctionInfo::new(
                ModelId::Mnist.spec(),
                SimDuration::from_millis(60),
            ),
        ];
        let loads: Vec<FunctionLoad> = (0..functions.len())
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(20)))
            .collect();
        let workload = Workload::build(&loads, seed);
        let offered = workload.len() as u64;
        let schedule = FaultSchedule::generate(
            &FaultPlan::sweep(intensity),
            cluster.servers,
            SimDuration::from_secs(20),
            seed,
        );
        let platform = InflessPlatform::new(cluster, functions, InflessConfig::default(), seed);
        let report = driver::run(platform, &workload, &schedule);
        let f = &report.failures;
        prop_assert_eq!(
            f.requests_displaced,
            f.requests_retried + f.requests_shed,
            "displaced leaked: {:?}", f
        );
        prop_assert_eq!(
            report.total_completed() + report.total_dropped(),
            offered,
            "conservation broken: completed {} + dropped {} != offered {}; {:?}",
            report.total_completed(),
            report.total_dropped(),
            offered,
            f
        );
    }
}
