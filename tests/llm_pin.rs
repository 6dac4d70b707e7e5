//! Byte identity of the autoregressive (LLM) serving path and of every
//! platform's event loop, checked against the golden manifest
//! (`tests/manifest/`, `tests/fixtures/golden.tsv`). The runs cover
//! the decode path's corners:
//!
//! * `scenarios/llm_chat_mix.json`, eager and at one and four shards;
//! * a chat/summarize mix under the intensity-4 fault sweep, which
//!   kills episodes mid-decode and retries their sequences;
//! * static (run-to-completion) decode batching;
//! * a chat class with a KV arena so small that the queue head is
//!   blocked, and `CacheFull` recorded, on step after step;
//! * both baselines' loops (OpenFaaS+ and BATCH) with spans and gauges
//!   on, so gauge rows read the KV residency mid-decode;
//! * every non-LLM shipped scenario, single-core with all five outputs
//!   on and (INFless scenarios) at one and four shards, the faulted
//!   sweep rewritten to OpenFaaS+ and BATCH, and BATCH+RS under the
//!   intensity-4 fault sweep.

mod manifest;

#[test]
fn llm_chat_mix_matches_its_pin() {
    manifest::check("llm_chat_mix_matches_its_pin");
}

#[test]
fn faulted_llm_mix_matches_its_pin() {
    manifest::check("faulted_llm_mix_matches_its_pin");
}

#[test]
fn static_llm_batching_matches_its_pin() {
    manifest::check("static_llm_batching_matches_its_pin");
}

#[test]
fn kv_blocked_llm_run_matches_its_pin() {
    manifest::check("kv_blocked_llm_run_matches_its_pin");
}

#[test]
fn baseline_llm_loops_match_their_pin() {
    manifest::check("baseline_llm_loops_match_their_pin");
}

#[test]
fn osvt_scenario_matches_its_pin() {
    manifest::check("osvt_scenario_matches_its_pin");
}

#[test]
fn batch_scenario_matches_its_pin() {
    manifest::check("batch_scenario_matches_its_pin");
}

#[test]
fn resize_scenario_matches_its_pin() {
    manifest::check("resize_scenario_matches_its_pin");
}

#[test]
fn swap_scenario_matches_its_pin() {
    manifest::check("swap_scenario_matches_its_pin");
}

#[test]
fn chain_scenario_matches_its_pin() {
    manifest::check("chain_scenario_matches_its_pin");
}

#[test]
fn failure_scenario_matches_its_pin() {
    manifest::check("failure_scenario_matches_its_pin");
}

#[test]
fn faulted_baseline_loops_match_their_pin() {
    manifest::check("faulted_baseline_loops_match_their_pin");
}
