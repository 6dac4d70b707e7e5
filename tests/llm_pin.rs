//! Byte-identity pins for the autoregressive (LLM) serving path and
//! for every platform's event loop.
//!
//! Each fixture under `tests/fixtures/llm_pin/` holds every output of
//! one or more runs: the canonical JSON report, the decision trace, and
//! (single-core runs) the span trace and gauge CSV, or (sharded runs)
//! the metrics export, whose KV gauge is read at epoch barriers. The
//! runs cover the decode path's corners:
//!
//! * (a) `scenarios/llm_chat_mix.json`, eager and at four shards;
//! * (b) a chat/summarize mix under the intensity-4 fault sweep, which
//!   kills episodes mid-decode and retries their sequences;
//! * (c) static (run-to-completion) decode batching;
//! * (d) a chat class with a KV arena so small that the queue head is
//!   blocked, and `CacheFull` recorded, on step after step;
//! * (e) both baselines' loops (OpenFaaS+ and BATCH) with spans and
//!   gauges on, so gauge rows read the KV residency mid-decode;
//! * (f) every non-LLM shipped scenario, single-core with all five
//!   outputs on and (INFless scenarios) at one and four shards, the
//!   faulted sweep rewritten to OpenFaaS+ and BATCH, and BATCH+RS
//!   under the intensity-4 fault sweep. Traces too large to commit are
//!   pinned by byte length and FNV-1a-64 digest.
//!
//! Any change to the decode path or to an event loop that moves one
//! reported number, one decision record, one span or one gauge reading
//! fails here.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::engine::FunctionInfo;
use infless::descriptor::{PlatformKind, Scenario};
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::telemetry::FileSink;
use infless::workload::{FunctionLoad, TracePattern, Workload};
use infless::RunConfig;
use infless_bench::System;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};

/// A chat/summarize mix on two servers, parameterised by the chat rate
/// and the decode-batching discipline.
fn llm_mix(rps: f64, batching: &str, platform: &str) -> Scenario {
    let json = format!(
        r#"{{
    "platform": "{platform}",
    "seed": 23,
    "cluster": {{ "servers": 2 }},
    "llm": {{ "enabled": true, "batching": "{batching}" }},
    "functions": [
        {{ "name": "chat", "model": "Bert-v1", "slo_ms": 4000, "llm_class": "chat",
          "load": {{ "kind": "constant", "rps": {rps:.3}, "duration_secs": 12 }} }},
        {{ "name": "summarize", "model": "Bert-v1", "slo_ms": 60000, "llm_class": "summarize",
          "load": {{ "kind": "constant", "rps": 1.5, "duration_secs": 12 }} }}
    ]
}}"#
    );
    Scenario::from_json(&json).expect("valid scenario")
}

fn out_dir(pin: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("infless-llm-pin-{}", std::process::id()))
        .join(pin);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn section(out: &mut String, name: &str, body: &str) {
    out.push_str("=== ");
    out.push_str(name);
    out.push_str(" ===\n");
    out.push_str(body.trim_end_matches('\n'));
    out.push('\n');
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Pins a trace too large to commit by its byte length and FNV-1a-64
/// digest, streaming it, then deletes it. Every requested output is
/// created before the run starts, so a flight recorder that never
/// dumped reads as `0 bytes, fnv1a64 cbf29ce484222325`.
fn digest(path: &Path) -> String {
    let mut file = fs::File::open(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut len, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf).expect("readable trace");
        if n == 0 {
            break;
        }
        len += n as u64;
        for &b in &buf[..n] {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fs::remove_file(path).expect("removable trace");
    format!("{len} bytes, fnv1a64 {hash:016x}")
}

/// Runs `scenario` single-core with every output on: canonical JSON,
/// decision trace, span trace and gauge CSV.
fn eager(pin: &str, label: &str, scenario: &Scenario, config: RunConfig, out: &mut String) {
    let dir = out_dir(pin);
    let (trace, gauges, decisions) = (
        dir.join(format!("{label}.spans.jsonl")),
        dir.join(format!("{label}.gauges.csv")),
        dir.join(format!("{label}.decisions.jsonl")),
    );
    let sink = FileSink::create(Some(&trace), Some(&gauges)).expect("sink");
    let report = scenario
        .execute(config.telemetry(Box::new(sink)).decisions_out(&decisions))
        .expect("runs");
    section(out, &format!("{label} canonical"), &report.canonical_json());
    section(out, &format!("{label} decisions"), &read(&decisions));
    section(out, &format!("{label} spans"), &read(&trace));
    section(out, &format!("{label} gauges"), &read(&gauges));
}

/// Runs `scenario` single-core with all five outputs on: canonical JSON
/// and the metrics export verbatim, the decision, span, gauge and
/// flight-recorder files by digest.
fn eager_digests(pin: &str, label: &str, scenario: &Scenario, out: &mut String) {
    let dir = out_dir(pin);
    let path = |ext: &str| dir.join(format!("{label}.{ext}"));
    let (trace, gauges, decisions, flight, metrics) = (
        path("spans.jsonl"),
        path("gauges.csv"),
        path("decisions.jsonl"),
        path("flight.jsonl"),
        path("metrics.prom"),
    );
    let sink = FileSink::create(Some(&trace), Some(&gauges)).expect("sink");
    let config = RunConfig::new()
        .telemetry(Box::new(sink))
        .decisions_out(&decisions)
        .flight_out(&flight)
        .metrics_out(&metrics);
    let report = scenario.execute(config).expect("runs");
    section(out, &format!("{label} canonical"), &report.canonical_json());
    section(out, &format!("{label} metrics"), &read(&metrics));
    for (name, file) in [
        ("decisions", &decisions),
        ("spans", &trace),
        ("gauges", &gauges),
        ("flight", &flight),
    ] {
        section(out, &format!("{label} {name}"), &digest(file));
    }
}

/// Runs `scenario` on the epoch-barrier driver: canonical JSON, the
/// decision trace (through `artifact`: verbatim or by digest) and the
/// metrics export.
fn sharded(
    pin: &str,
    label: &str,
    scenario: &Scenario,
    shards: usize,
    artifact: fn(&Path) -> String,
    out: &mut String,
) {
    let dir = out_dir(pin);
    let (decisions, metrics) = (
        dir.join(format!("{label}.decisions.jsonl")),
        dir.join(format!("{label}.metrics.prom")),
    );
    let report = scenario
        .execute(
            RunConfig::new()
                .shards(shards)
                .decisions_out(&decisions)
                .metrics_out(&metrics),
        )
        .expect("runs");
    section(out, &format!("{label} canonical"), &report.canonical_json());
    section(out, &format!("{label} decisions"), &artifact(&decisions));
    section(out, &format!("{label} metrics"), &read(&metrics));
}

fn pin_a() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/llm_chat_mix.json");
    let scenario = Scenario::from_file(&path).expect("shipped scenario parses");
    let mut out = String::new();
    eager("a", "eager", &scenario, RunConfig::new(), &mut out);
    sharded("a", "s4", &scenario, 4, read, &mut out);
    out
}

fn pin_b() -> String {
    let scenario = llm_mix(10.0, "continuous", "infless");
    let faults =
        || FaultSchedule::generate(&FaultPlan::sweep(4.0), 2, SimDuration::from_secs(12), 0);
    let mut out = String::new();
    eager(
        "b",
        "eager",
        &scenario,
        RunConfig::new().fault_schedule(faults()),
        &mut out,
    );
    let report = scenario
        .execute(RunConfig::new().shards(4).fault_schedule(faults()))
        .expect("runs");
    section(&mut out, "s4 canonical", &report.canonical_json());
    out
}

fn pin_c() -> String {
    let mut out = String::new();
    eager(
        "c",
        "eager",
        &llm_mix(10.0, "static", "infless"),
        RunConfig::new(),
        &mut out,
    );
    out
}

/// Runs the `(d)` deployment through the library surface, where the
/// class's KV arena can be set.
fn pin_d() -> String {
    let mut class = LlmClass::chat();
    class.kv_arena_mb = 40.0; // 800 tokens: two to three mean chat sequences
    let functions =
        vec![FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4)).with_llm(class)];
    let dur = SimDuration::from_secs(20);
    let w = Workload::build(
        &[FunctionLoad::trace(TracePattern::Bursty, 16.0, dur, 5)],
        5,
    );
    let dir = out_dir("d");
    let (trace, gauges, decisions) = (
        dir.join("spans.jsonl"),
        dir.join("gauges.csv"),
        dir.join("decisions.jsonl"),
    );
    let sink = FileSink::create(Some(&trace), Some(&gauges)).expect("sink");
    let report = System::Infless.execute(
        ClusterSpec::testbed(),
        &functions,
        &w,
        5,
        RunConfig::new()
            .llm(LlmConfig::continuous())
            .telemetry(Box::new(sink))
            .decisions_out(&decisions),
    );
    let mut out = String::new();
    section(&mut out, "canonical", &report.canonical_json());
    section(&mut out, "decisions", &read(&decisions));
    section(&mut out, "spans", &read(&trace));
    section(&mut out, "gauges", &read(&gauges));
    out
}

fn pin_e() -> String {
    let mut out = String::new();
    eager(
        "e",
        "openfaas",
        &llm_mix(6.0, "continuous", "openfaas"),
        RunConfig::new(),
        &mut out,
    );
    eager(
        "e",
        "batch",
        &llm_mix(6.0, "continuous", "batch"),
        RunConfig::new(),
        &mut out,
    );
    out
}

fn shipped(stem: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{stem}.json"))
}

/// Pin (f) for one shipped scenario: eager with every output, plus one
/// and four shards when the platform is INFless (the baselines have no
/// barrier driver).
fn pin_f(stem: &str) -> String {
    let scenario = Scenario::from_file(shipped(stem)).expect("shipped scenario parses");
    let pin = format!("f_{stem}");
    let mut out = String::new();
    eager_digests(&pin, "eager", &scenario, &mut out);
    if scenario.platform == PlatformKind::Infless {
        sharded(&pin, "s1", &scenario, 1, digest, &mut out);
        sharded(&pin, "s4", &scenario, 4, digest, &mut out);
    }
    out
}

/// Pin (f) for the baselines under faults: the shipped fault sweep on
/// OpenFaaS+ and BATCH, and BATCH+RS under the intensity-4 sweep.
fn pin_f_baselines() -> String {
    let json = read(&shipped("failure_sweep"));
    let mut out = String::new();
    for platform in ["openfaas", "batch"] {
        let rewritten = json.replace(
            r#""platform": "infless""#,
            &format!(r#""platform": "{platform}""#),
        );
        let scenario = Scenario::from_json(&rewritten).expect("valid scenario");
        assert_ne!(scenario.platform, PlatformKind::Infless, "rewritten");
        eager_digests("f_baselines", platform, &scenario, &mut out);
    }
    let app = Application::osvt();
    let dur = SimDuration::from_secs(90);
    let loads: Vec<FunctionLoad> = (0..app.functions().len())
        .map(|i| FunctionLoad::trace(TracePattern::Bursty, 60.0, dur, 40 + i as u64))
        .collect();
    let w = Workload::build(&loads, 4);
    let cluster = ClusterSpec::testbed();
    let schedule = FaultSchedule::generate(&FaultPlan::sweep(4.0), cluster.servers, dur, 4);
    let report = System::BatchRs.execute(
        cluster,
        app.functions(),
        &w,
        4,
        RunConfig::new().fault_schedule(schedule),
    );
    section(&mut out, "batch_rs canonical", &report.canonical_json());
    out
}

/// Checks a pin (f) run against its fixture, read at run time.
fn check_f(name: &str, actual: String) {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/llm_pin/f_{name}.txt"));
    check(&format!("f ({name})"), actual, &read(&path));
}

fn check(name: &str, actual: String, pinned: &str) {
    assert_eq!(
        infless::core::engine::live_timer_drops(),
        0,
        "a batch timer that could still start a batch was never pushed"
    );
    if actual.trim_end_matches('\n') != pinned.trim_end_matches('\n') {
        let first = actual
            .lines()
            .zip(pinned.lines())
            .position(|(a, p)| a != p)
            .unwrap_or(actual.lines().count().min(pinned.lines().count()));
        panic!(
            "LLM pin {name} no longer matches its fixture byte for byte \
             (first differing line {})",
            first + 1
        );
    }
}

#[test]
fn llm_chat_mix_matches_its_pin() {
    check(
        "a",
        pin_a(),
        include_str!("fixtures/llm_pin/a_chat_mix.txt"),
    );
}

#[test]
fn faulted_llm_mix_matches_its_pin() {
    check("b", pin_b(), include_str!("fixtures/llm_pin/b_faults.txt"));
}

#[test]
fn static_llm_batching_matches_its_pin() {
    check("c", pin_c(), include_str!("fixtures/llm_pin/c_static.txt"));
}

#[test]
fn kv_blocked_llm_run_matches_its_pin() {
    let pinned = include_str!("fixtures/llm_pin/d_kv_full.txt");
    check("d", pin_d(), pinned);
    // The pin is only worth its bytes if the arena actually blocked.
    assert!(
        !pinned.contains("\"cache_full_events\": 0"),
        "pin (d) must exercise the CacheFull path"
    );
}

#[test]
fn baseline_llm_loops_match_their_pin() {
    check(
        "e",
        pin_e(),
        include_str!("fixtures/llm_pin/e_baselines.txt"),
    );
}

#[test]
fn osvt_scenario_matches_its_pin() {
    check_f("osvt", pin_f("osvt"));
}

#[test]
fn batch_scenario_matches_its_pin() {
    check_f("qa_robot_batch", pin_f("qa_robot_batch"));
}

#[test]
fn resize_scenario_matches_its_pin() {
    check_f("resize_ramp", pin_f("resize_ramp"));
}

#[test]
fn swap_scenario_matches_its_pin() {
    check_f("swap_sweep", pin_f("swap_sweep"));
}

#[test]
fn chain_scenario_matches_its_pin() {
    check_f("vehicle_pipeline", pin_f("vehicle_pipeline"));
}

#[test]
fn failure_scenario_matches_its_pin() {
    check_f("failure_sweep", pin_f("failure_sweep"));
}

#[test]
fn faulted_baseline_loops_match_their_pin() {
    check_f("baselines", pin_f_baselines());
}
