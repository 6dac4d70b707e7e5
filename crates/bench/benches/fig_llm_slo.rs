//! Extension experiment: autoregressive serving under TTFT/TPOT SLOs.
//!
//! Sweeps the chat arrival rate and reports SLO attainment for two
//! token-level classes on all four systems, each under both decode
//! batching disciplines:
//!
//! * **chat** — short prompts, tight TTFT (300 ms) and TPOT (40 ms)
//!   SLOs. Attainment counts a request only if its first token landed
//!   inside the TTFT budget (dropped requests count as misses).
//! * **summarize** — long prompts, a loose end-to-end SLO. Attainment
//!   is plain e2e SLO compliance.
//!
//! The figure's claim: **continuous batching strictly dominates static
//! run-to-completion batching on chat TTFT attainment at high rates** —
//! a joiner slips into the running batch at the next decode boundary
//! instead of waiting out the whole episode. The bench asserts that at
//! the highest swept rate.
//!
//! The record also carries the sweep's wall-clock (`wall_seconds`, all
//! runs, in parallel) and the host's core count.

use infless_bench::{header, maybe_quick, quick, record, run_parallel, System};
use infless_cluster::ClusterSpec;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::runconfig::RunConfig;
use infless_llm::{LlmBatching, LlmClass, LlmConfig};
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, Workload};
use std::time::Instant;

const CHAT: usize = 0;
const SUMMARIZE: usize = 1;

fn functions() -> Vec<FunctionInfo> {
    vec![
        // Tight e2e SLO on top of the class's TTFT/TPOT budgets.
        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4))
            .with_llm(LlmClass::chat()),
        // Batch summarization: only the loose e2e deadline matters.
        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(60))
            .with_llm(LlmClass::summarize()),
    ]
}

fn workload(chat_rps: f64, duration: SimDuration, seed: u64) -> Workload {
    let loads = vec![
        FunctionLoad::constant(chat_rps, duration),
        FunctionLoad::constant(2.0, duration),
    ];
    Workload::build(&loads, seed)
}

/// Fraction of chat demand whose first token met the TTFT budget.
/// Dropped requests never produced a token, so they count as misses.
fn ttft_attainment(r: &RunReport) -> f64 {
    let f = &r.functions[CHAT];
    let demand = f.completed + f.dropped;
    if demand == 0 {
        return 1.0;
    }
    let Some(llm) = &f.llm else { return 0.0 };
    let ok = llm.ttft_ms.count().saturating_sub(llm.ttft_violations);
    (ok as f64 / demand as f64).min(1.0)
}

/// Fraction of completed chat sequences whose mean TPOT met the budget.
fn tpot_attainment(r: &RunReport) -> f64 {
    let f = &r.functions[CHAT];
    let Some(llm) = &f.llm else { return 0.0 };
    let n = llm.tpot_ms.count();
    if n == 0 {
        return 1.0;
    }
    1.0 - llm.tpot_violations as f64 / n as f64
}

/// Fraction of summarize demand that completed inside the e2e SLO.
fn e2e_attainment(r: &RunReport) -> f64 {
    let f = &r.functions[SUMMARIZE];
    let demand = f.completed + f.dropped;
    if demand == 0 {
        return 1.0;
    }
    (f.completed - f.violations) as f64 / demand as f64
}

fn mode_name(b: LlmBatching) -> &'static str {
    match b {
        LlmBatching::Continuous => "continuous",
        LlmBatching::Static => "static",
    }
}

fn main() {
    let cluster = ClusterSpec::testbed();
    let duration = maybe_quick(SimDuration::from_secs(60));
    let rates: &[f64] = if quick() {
        &[8.0, 32.0]
    } else {
        &[4.0, 8.0, 16.0, 32.0]
    };
    let modes = [LlmBatching::Continuous, LlmBatching::Static];

    header(
        "fig_llm_slo",
        "extension (autoregressive serving)",
        "chat TTFT/TPOT and summarize e2e SLO attainment vs arrival rate, continuous vs static decode batching",
    );

    let mut jobs = Vec::new();
    for &rate in rates {
        for mode in modes {
            for sys in System::all() {
                jobs.push(move || {
                    let llm = LlmConfig {
                        enabled: true,
                        batching: mode,
                    };
                    let w = workload(rate, duration, 42);
                    sys.execute(cluster, &functions(), &w, 42, RunConfig::new().llm(llm))
                });
            }
        }
    }
    let started = Instant::now();
    let reports = run_parallel(jobs);
    let wall_seconds = started.elapsed().as_secs_f64();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "{:<10} {:<12} {:<10} {:>10} {:>10} {:>10} {:>9}",
        "chat rps", "mode", "system", "ttft att", "tpot att", "e2e att", "dropped"
    );
    let mut rows = Vec::new();
    // INFless chat TTFT attainment at the highest rate, per mode.
    let mut infless_top_rate = std::collections::BTreeMap::new();
    let stride = System::all().len();
    for (i, &rate) in rates.iter().enumerate() {
        for (m, &mode) in modes.iter().enumerate() {
            let base = (i * modes.len() + m) * stride;
            for (s, sys) in System::all().iter().enumerate() {
                let r = &reports[base + s];
                let (ttft, tpot, e2e) = (ttft_attainment(r), tpot_attainment(r), e2e_attainment(r));
                println!(
                    "{:<10} {:<12} {:<10} {:>9.1}% {:>9.1}% {:>9.1}% {:>9}",
                    rate,
                    mode_name(mode),
                    sys.name(),
                    ttft * 100.0,
                    tpot * 100.0,
                    e2e * 100.0,
                    r.total_dropped(),
                );
                rows.push(serde_json::json!({
                    "chat_rps": rate,
                    "batching": mode_name(mode),
                    "system": sys.name(),
                    "ttft_attainment": ttft,
                    "tpot_attainment": tpot,
                    "e2e_attainment": e2e,
                    "completed": r.total_completed(),
                    "dropped": r.total_dropped(),
                    "chat_ttft_p99_ms": r.functions[CHAT]
                        .llm
                        .as_ref()
                        .and_then(|l| l.ttft_ms.quantile(0.99)),
                    "chat_tpot_p99_ms": r.functions[CHAT]
                        .llm
                        .as_ref()
                        .and_then(|l| l.tpot_ms.quantile(0.99)),
                    "cache_full_events": r.functions[CHAT]
                        .llm
                        .as_ref()
                        .map_or(0, |l| l.cache_full_events),
                }));
                if *sys == System::Infless && (rate - rates[rates.len() - 1]).abs() < f64::EPSILON {
                    infless_top_rate.insert(mode_name(mode), ttft);
                }
            }
        }
        println!();
    }

    let cont = infless_top_rate["continuous"];
    let stat = infless_top_rate["static"];
    println!(
        "INFless chat TTFT attainment at {} rps: continuous {:.1}% vs static {:.1}%",
        rates[rates.len() - 1],
        cont * 100.0,
        stat * 100.0
    );
    assert!(
        cont > stat,
        "continuous batching must strictly dominate static on chat TTFT attainment \
         at the highest rate (continuous {cont:.4} vs static {stat:.4})"
    );
    println!(
        "{} runs in {wall_seconds:.3} s wall on {host_cores} cores",
        reports.len()
    );

    record(
        "fig_llm_slo",
        serde_json::json!({
            "rates": rates,
            "duration_secs": duration.as_secs_f64(),
            "wall_seconds": wall_seconds,
            "host_cores": host_cores,
            "rows": rows,
            "infless_top_rate_ttft_continuous": cont,
            "infless_top_rate_ttft_static": stat,
        }),
    );
}
