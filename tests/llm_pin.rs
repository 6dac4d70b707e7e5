//! Byte-identity pins for the autoregressive (LLM) serving path.
//!
//! Each fixture under `tests/fixtures/llm_pin/` holds every output of
//! one or two runs: the canonical JSON report, the decision trace, and
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
//!   gauges on, so gauge rows read the KV residency mid-decode.
//!
//! Any change to the decode path that moves one reported number, one
//! decision record, one span or one gauge reading fails here.

use std::fs;
use std::path::{Path, PathBuf};

use infless::cluster::ClusterSpec;
use infless::core::engine::FunctionInfo;
use infless::descriptor::Scenario;
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

/// Runs `scenario` on the epoch-barrier driver: canonical JSON,
/// decision trace and the metrics export.
fn sharded(pin: &str, label: &str, scenario: &Scenario, shards: usize, out: &mut String) {
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
    section(out, &format!("{label} decisions"), &read(&decisions));
    section(out, &format!("{label} metrics"), &read(&metrics));
}

fn pin_a() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/llm_chat_mix.json");
    let scenario = Scenario::from_file(&path).expect("shipped scenario parses");
    let mut out = String::new();
    eager("a", "eager", &scenario, RunConfig::new(), &mut out);
    sharded("a", "s4", &scenario, 4, &mut out);
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
/// class's KV arena can be set: decisions come through the file sink.
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
    let sink = FileSink::create(Some(&trace), Some(&gauges))
        .and_then(|s| s.with_decisions(&decisions))
        .expect("sink");
    let report = System::Infless.execute(
        ClusterSpec::testbed(),
        &functions,
        &w,
        5,
        RunConfig::new()
            .llm(LlmConfig::continuous())
            .telemetry(Box::new(sink)),
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

fn check(name: &str, actual: String, pinned: &str) {
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
