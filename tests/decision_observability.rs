//! Decision-observability invariants: the decision trace must be
//! byte-identical across shard counts, none of the observability
//! channels may perturb the run, the latency decomposition must
//! partition end-to-end latency exactly, and the flight recorder must
//! dump on fault bursts.

use infless::descriptor::Scenario;
use std::sync::{Arc, Mutex};

use infless::telemetry::{DecisionRecord, DecisionTap, DecisionWriter, NullSink};
use infless::RunConfig;
use infless_cluster::ClusterSpec;
use infless_core::driver::{self, Platform};
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_core::sharded::ShardedInfless;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, Workload};
use proptest::prelude::*;

fn shipped_scenario_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("failure_sweep.json");
    std::fs::read_to_string(path).expect("shipped scenario readable")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("infless-obs-{name}-{}", std::process::id()))
}

/// The merged decision trace of a sharded run is byte-identical for
/// every shard count, and so is the canonical report.
#[test]
fn decision_trace_is_byte_identical_across_shard_counts() {
    let json = shipped_scenario_json();
    let p1 = temp_path("ds1.jsonl");
    let p4 = temp_path("ds4.jsonl");
    let r1 = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().shards(1).decisions_out(&p1))
        .unwrap();
    let r4 = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().shards(4).decisions_out(&p4))
        .unwrap();
    assert_eq!(r1.canonical_json(), r4.canonical_json());
    let t1 = std::fs::read(&p1).unwrap();
    let t4 = std::fs::read(&p4).unwrap();
    assert!(!t1.is_empty(), "decision trace came out empty");
    assert_eq!(
        t1, t4,
        "decision traces diverged between 1 and 4 shards — a record \
         carries a shard-local quantity (raw instance/request id?)"
    );
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p4).ok();
}

/// Decision tracing, metrics export and the flight recorder leave the
/// canonical report byte-identical to a bare run, single-core and
/// sharded.
#[test]
fn observability_outputs_do_not_perturb_the_run() {
    let json = shipped_scenario_json();
    let bare = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    let dp = temp_path("obs-d.jsonl");
    let mp = temp_path("obs-m.prom");
    let fp = temp_path("obs-f.jsonl");
    let full = Scenario::from_json(&json)
        .unwrap()
        .execute(
            RunConfig::new()
                .decisions_out(&dp)
                .metrics_out(&mp)
                .flight_out(&fp),
        )
        .unwrap();
    assert_eq!(
        bare.canonical_json(),
        full.canonical_json(),
        "observability outputs perturbed the single-core run"
    );
    let sharded_bare = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().shards(2))
        .unwrap();
    let sdp = temp_path("obs-sd.jsonl");
    let smp = temp_path("obs-sm.prom");
    let sharded_full = Scenario::from_json(&json)
        .unwrap()
        .execute(
            RunConfig::new()
                .shards(2)
                .decisions_out(&sdp)
                .metrics_out(&smp),
        )
        .unwrap();
    assert_eq!(
        sharded_bare.canonical_json(),
        sharded_full.canonical_json(),
        "observability outputs perturbed the sharded run"
    );
    for p in [&dp, &mp, &fp, &sdp, &smp] {
        std::fs::remove_file(p).ok();
    }
}

/// A fault burst flushes the flight-recorder ring: the dump file opens
/// with a burst header followed by the buffered spans, and arming the
/// recorder does not perturb the run.
#[test]
fn flight_recorder_dumps_on_fault_burst() {
    // Crank the kill rate far past the burst threshold (8 fault-tagged
    // spans within 5 simulated seconds).
    let json = shipped_scenario_json()
        .replace(
            "\"instance_kills_per_hour\": 90.0",
            "\"instance_kills_per_hour\": 20000.0",
        )
        .replace(
            "\"server_crashes_per_hour\": 30.0",
            "\"server_crashes_per_hour\": 600.0",
        );
    let bare = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    let fp = temp_path("burst.jsonl");
    std::fs::remove_file(&fp).ok();
    let armed = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().flight_out(&fp))
        .unwrap();
    assert_eq!(bare.canonical_json(), armed.canonical_json());
    let text = std::fs::read_to_string(&fp).expect("fault burst produced no dump");
    let first = text.lines().next().unwrap();
    assert!(
        first.starts_with("{\"burst\":"),
        "dump must open with a burst header, got {first}"
    );
    assert!(
        text.lines().count() > 1,
        "burst header with no spans behind it"
    );
    std::fs::remove_file(&fp).ok();
}

/// The flight recorder is span-channel observability and therefore
/// rejected on sharded runs, like a telemetry sink.
#[test]
fn sharded_flight_recorder_is_rejected() {
    let json = shipped_scenario_json();
    let err = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().shards(2).flight_out(temp_path("no.jsonl")))
        .unwrap_err();
    assert!(
        err.to_string().contains("single-core"),
        "unexpected error: {err}"
    );
}

/// The decision writer holds only the records its clock has not yet
/// passed: on a long constant-load run, eager and at 4 shards, its
/// pending buffer never holds 1% of the records it writes.
#[test]
fn decision_writer_memory_stays_bounded() {
    let functions = vec![
        infless_core::engine::FunctionInfo::new(
            ModelId::Mnist.spec(),
            SimDuration::from_millis(60),
        ),
        infless_core::engine::FunctionInfo::new(
            ModelId::Mnist.spec(),
            SimDuration::from_millis(80),
        ),
    ];
    let loads: Vec<FunctionLoad> = (0..functions.len())
        .map(|_| FunctionLoad::constant(1000.0, SimDuration::from_secs(40)))
        .collect();
    let workload = Workload::build(&loads, 7);
    let cluster = ClusterSpec::testbed();
    let check = |label: &str, written: usize, peak: usize| {
        assert!(written > 70_000, "{label}: only {written} records");
        assert!(
            peak * 100 < written,
            "{label}: pending peaked at {peak} of {written} records written"
        );
    };

    let writer = Arc::new(Mutex::new(DecisionWriter::new(Vec::new())));
    let mut platform =
        InflessPlatform::new(cluster, functions.clone(), InflessConfig::default(), 7);
    platform.engine().set_telemetry(Box::new(DecisionTap::new(
        Box::new(NullSink),
        writer.clone(),
    )));
    driver::run(platform, &workload, &FaultSchedule::empty());
    let mut writer = writer.lock().unwrap();
    writer.finish().unwrap();
    check("eager", writer.output_mut().len(), writer.pending_peak());

    let runner = ShardedInfless::new(cluster, functions, InflessConfig::default(), 7);
    let mut writer = DecisionWriter::new(Vec::new());
    runner.run_into(&workload, 4, Some(&mut writer));
    writer.finish().unwrap();
    check("4 shards", writer.output_mut().len(), writer.pending_peak());
}

fn check_breakdowns(records: &[DecisionRecord], label: &str) -> usize {
    let mut seen = 0;
    for rec in records {
        let DecisionRecord::Breakdown(b) = rec else {
            continue;
        };
        seen += 1;
        let sum = b.queue_ms + b.batch_wait_ms + b.startup_ms + b.exec_ms + b.interference_ms;
        assert!(
            (sum - b.total_ms).abs() <= 1e-6 * b.total_ms.max(1.0),
            "{label}: decomposition does not partition the latency: \
             {sum} != {} for fn {} req {} at t={}",
            b.total_ms,
            b.function,
            b.request,
            b.t_s
        );
        for (name, v) in [
            ("queue", b.queue_ms),
            ("batch_wait", b.batch_wait_ms),
            ("startup", b.startup_ms),
            ("exec", b.exec_ms),
            ("interference", b.interference_ms),
        ] {
            assert!(v >= 0.0, "{label}: negative {name} component: {v}");
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The five decomposition components partition every completed
    /// request's end-to-end latency, for arbitrary load levels, fault
    /// intensities and seeds, on the single-core loop and at 1 and 4
    /// shards.
    #[test]
    fn prop_breakdown_components_sum_to_total(
        seed in 0u64..1000,
        rps in 10.0f64..60.0,
        intensity in 0.0f64..4.0,
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
        let schedule = FaultSchedule::generate(
            &FaultPlan::sweep(intensity),
            cluster.servers,
            SimDuration::from_secs(20),
            seed,
        );
        // Single-core loop: tap the decisions channel into memory.
        let writer = Arc::new(Mutex::new(DecisionWriter::new(Vec::new())));
        let mut platform = InflessPlatform::new(
            cluster,
            functions.clone(),
            InflessConfig::default(),
            seed,
        );
        platform
            .engine()
            .set_telemetry(Box::new(DecisionTap::new(Box::new(NullSink), writer.clone())));
        let report = driver::run(platform, &workload, &schedule);
        let mut writer = writer.lock().unwrap();
        writer.finish().unwrap();
        let single = std::mem::take(writer.output_mut());
        let seen = check_breakdowns(&single, "single-core");
        prop_assert_eq!(
            seen as u64,
            report.total_completed(),
            "one breakdown per completed request"
        );
        // Sharded driver, 1 and 4 shards: the same invariant must hold
        // on the merged traces.
        let runner = ShardedInfless::new(
            cluster,
            functions,
            InflessConfig::default(),
            seed,
        )
        .with_fault_schedule(schedule);
        let (r1, d1) = runner.run_with_decisions(&workload, 1);
        let (r4, d4) = runner.run_with_decisions(&workload, 4);
        prop_assert_eq!(r1.canonical_json(), r4.canonical_json());
        check_breakdowns(&d1, "1 shard");
        check_breakdowns(&d4, "4 shards");
        prop_assert_eq!(d1.len(), d4.len());
    }
}
