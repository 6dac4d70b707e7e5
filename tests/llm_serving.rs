//! Autoregressive (LLM) serving: cross-layer invariants.
//!
//! Two contracts ride here, and the golden manifest pins a third:
//!
//! 1. **Pre-LLM byte-identity** — a scenario whose `llm` block is
//!    disabled must report byte-identically to the same scenario
//!    without one. The `pre_llm` case of the golden manifest pins the
//!    latter's report, first generated by the pre-LLM binary (commit
//!    `99092cf`) and regenerated once when the report gained its
//!    (always-present) per-function `breakdown` block.
//! 2. **KV-cache conservation** — every byte of KV ever allocated is
//!    either freed or still resident at the horizon, across workload
//!    intensity, fault intensity and shard count.
//! 3. **Shard invariance** — the shipped `llm_chat_mix.json` scenario
//!    writes byte-identical files for every shard count (the manifest's
//!    `llm_chat_mix/s1` and `llm_chat_mix/s4` cases).

use std::collections::HashMap;

use infless::descriptor::Scenario;
use infless::telemetry::{MemorySink, SpanKind};
use infless::RunConfig;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_sim::SimDuration;
use proptest::prelude::*;

/// The scenario the golden manifest's `pre_llm` case pins.
const PRE_LLM: &str = r#"{
    "platform": "infless",
    "seed": 11,
    "cluster": { "servers": 2 },
    "functions": [
        { "name": "a", "model": "MobileNet", "slo_ms": 100,
          "load": { "kind": "constant", "rps": 15.0, "duration_secs": 10 } },
        { "name": "b", "model": "ResNet-50", "slo_ms": 200,
          "load": { "kind": "trace", "pattern": "bursty", "mean_rps": 10.0, "duration_secs": 10 } }
    ]
}"#;

const LLM_MIX: &str = r#"{
    "platform": "infless",
    "seed": 23,
    "cluster": { "servers": 2 },
    "llm": { "enabled": true, "batching": "continuous" },
    "functions": [
        { "name": "chat", "model": "Bert-v1", "slo_ms": 4000, "llm_class": "chat",
          "load": { "kind": "constant", "rps": RPS, "duration_secs": 12 } },
        { "name": "summarize", "model": "Bert-v1", "slo_ms": 60000, "llm_class": "summarize",
          "load": { "kind": "constant", "rps": 1.5, "duration_secs": 12 } }
    ]
}"#;

#[test]
fn disabled_llm_is_byte_identical_to_pre_llm_engine() {
    let run = |json: &str| {
        Scenario::from_json(json)
            .expect("valid")
            .execute(RunConfig::new())
            .expect("runs")
            .canonical_json()
    };
    let disabled = PRE_LLM.replace(
        r#""seed": 11,"#,
        r#""seed": 11, "llm": { "enabled": false, "batching": "continuous" },"#,
    );
    assert_ne!(disabled, PRE_LLM, "the llm block was inserted");
    assert_eq!(
        run(&disabled),
        run(PRE_LLM),
        "a disabled llm block no longer reports like the pre-LLM engine byte for byte"
    );
}

/// A request displaced mid-decode by a fault is retried from scratch,
/// but its time-to-first-token is measured once: on its first token
/// ever. A kill-heavy run must book at most one TTFT sample and one
/// `first_token` span per request.
#[test]
fn retried_llm_requests_record_ttft_once() {
    let json = LLM_MIX.replace("RPS", "10.000");
    let scenario = Scenario::from_json(&json).expect("valid");
    let faults =
        || FaultSchedule::generate(&FaultPlan::sweep(4.0), 2, SimDuration::from_secs(12), 0);
    let sink = MemorySink::new();
    let report = scenario
        .execute(
            RunConfig::new()
                .fault_schedule(faults())
                .telemetry(Box::new(sink.clone())),
        )
        .expect("runs");
    assert!(
        report.failures.requests_displaced > 0,
        "no sequence was displaced"
    );
    // Request ids are arrival ordinals within a function.
    let mut first_tokens: HashMap<(u32, u64), u32> = HashMap::new();
    for span in &sink.store().spans {
        if span.kind == SpanKind::FirstToken {
            *first_tokens
                .entry((span.function, span.request))
                .or_default() += 1;
        }
    }
    assert!(
        first_tokens.values().all(|&n| n == 1),
        "a retried request emitted a second first_token span"
    );
    let sharded = scenario
        .execute(RunConfig::new().shards(4).fault_schedule(faults()))
        .expect("runs");
    for r in [&report, &sharded] {
        let mut ttft_samples = 0;
        for f in &r.functions {
            let llm = f.llm.as_ref().expect("LLM stats");
            assert!(
                llm.ttft_ms.count() <= f.completed + f.dropped,
                "more TTFT samples than distinct requests"
            );
            ttft_samples += llm.ttft_ms.count();
        }
        if std::ptr::eq(r, &report) {
            assert_eq!(ttft_samples, first_tokens.len() as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// KV-cache bytes are conserved — `allocated == freed + resident`
    /// at the horizon — across workload intensity, fault intensity and
    /// shard count. Faults exercise the kill-mid-episode unwind path;
    /// shards exercise the epoch-barrier driver's books.
    #[test]
    fn kv_bytes_are_conserved(
        rps in 2.0f64..20.0,
        intensity in 0.0f64..4.0,
        shards in 1usize..4,
        seed in 0u64..1000,
    ) {
        let json = LLM_MIX.replace("RPS", &format!("{rps:.3}"));
        let scenario = Scenario::from_json(&json).expect("valid");
        let schedule = FaultSchedule::generate(
            &FaultPlan::sweep(intensity),
            2,
            SimDuration::from_secs(12),
            seed,
        );
        let report = scenario
            .execute(
                RunConfig::new()
                    .shards(shards)
                    .fault_schedule(schedule),
            )
            .expect("runs");
        prop_assert!(report.kv_allocated_bytes > 0, "LLM run allocated no KV");
        prop_assert_eq!(
            report.kv_allocated_bytes,
            report.kv_freed_bytes + report.kv_resident_bytes,
            "KV books leak: allocated {} != freed {} + resident {}",
            report.kv_allocated_bytes,
            report.kv_freed_bytes,
            report.kv_resident_bytes
        );
    }
}
