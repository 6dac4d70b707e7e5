//! One round of one workload, run in a child process of its own so
//! that set-up pays for the on-disk COP snapshot and peak RSS covers one
//! set-up and one run.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use infless_core::{CopPredictor, InflessConfig, RunReport};
use infless_models::profile::ConfigGrid;
use infless_models::{CacheOutcome, HardwareModel, ModelSpec, ProfileDatabase};
use infless_telemetry::{
    DecisionKind, DecisionRecord, GaugeRow, Log2Histogram, SpanEvent, TelemetrySink,
};
use serde_json::{json, Map, Value};

use crate::layers::{self, Inputs, Spans};
use crate::reference::Reference;
use crate::workloads::{fnv1a, Built, Drawn};

/// An untraced round: draw the arrivals (untimed); build the workload
/// and run it once with no arrivals (together, the set-up); then pass
/// over its episodes, timing each run and the reference kernel after
/// it, until about `seconds` have passed, at least once. `walls_s[e]`
/// lists episode `e`'s times; `refs_s` the reference's, in run order.
pub fn plain(name: &str, seed: u64, quick: bool, seconds: f64) -> Result<Map, String> {
    let drawn = draw(name, seed, quick)?;
    let t = Instant::now();
    let built = Built::new(drawn);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let probe = built.execute(&built.arrival_free(), built.run_config(0));
    let probe_s = t.elapsed().as_secs_f64();

    let episodes = built.episodes.len();
    let mut reference = Reference::new();
    let mut refs = Vec::new();
    let start = Instant::now();
    let mut walls = vec![Vec::new(); episodes];
    let mut reports = Vec::with_capacity(episodes);
    for (e, times) in walls.iter_mut().enumerate() {
        let t = Instant::now();
        reports.push(built.run(e));
        times.push(t.elapsed().as_secs_f64());
        refs.push(reference.run());
    }
    let rss_mb = peak_rss_mb();
    let canonical: Vec<String> = reports.iter().map(RunReport::canonical_json).collect();
    let mut repeatable = true;
    // Start another pass only if it would end nearer `seconds` than
    // stopping now does.
    let pass_s = start.elapsed().as_secs_f64();
    while start.elapsed().as_secs_f64() + pass_s / 2.0 < seconds {
        for (e, times) in walls.iter_mut().enumerate() {
            let t = Instant::now();
            let again = built.run(e);
            times.push(t.elapsed().as_secs_f64());
            refs.push(reference.run());
            repeatable &= again.canonical_json() == canonical[e];
        }
    }

    let mut sample = describe(&built, &reports, &[("repeatable", repeatable)]);
    sample.insert("walls_s".into(), json!(walls));
    sample.insert("refs_s".into(), json!(refs));
    sample.insert("build_s".into(), json!(build_s));
    sample.insert("setup_s".into(), json!(build_s + probe_s));
    sample.insert(
        "profile_cache".into(),
        json!(cache_name(probe.profile_cache)),
    );
    sample.insert("rss_mb".into(), json!(rss_mb));
    Ok(sample)
}

/// The traced round, on the first episode only: the same calls wrapped
/// in spans, a run with decision records, the sharded S=2 cross-check,
/// and the layer drivers. Returns the sample and the spans.
pub fn traced(name: &str, seed: u64, quick: bool) -> Result<(Map, Spans), String> {
    let drawn = draw(name, seed, quick)?.first();
    let mut spans = Spans::new();
    let hardware = HardwareModel::new(InflessConfig::default().hardware);
    let (built, cop, report, tally, checks, drivers) =
        spans.span("round", None, |spans, root| {
            let built = spans.span("workload.build", Some(root), |_, _| Built::new(drawn));
            let specs: Vec<ModelSpec> = built.functions.iter().map(|f| f.spec().clone()).collect();
            let (db, cop) = spans.span("models.cop", Some(root), |_, _| {
                ProfileDatabase::cached_with_outcome(
                    &hardware,
                    &specs,
                    &ConfigGrid::standard(),
                    built.seed,
                )
            });
            spans.span("setup.probe", Some(root), |_, _| {
                built.execute(&built.arrival_free(), built.run_config(0))
            });
            let report = spans.span("execute", Some(root), |_, _| built.run(0));
            let (decided, tally) = spans.span("execute.decisions", Some(root), |_, _| {
                run_with_decisions(&built)
            });
            let canonical = report.canonical_json();
            let mut checks = vec![(
                "decisions_transparent",
                decided.canonical_json() == canonical,
            )];
            if built.shards() > 0 {
                let s2 = spans.span("execute.s2", Some(root), |_, _| {
                    built.execute(&built.episodes[0].workload, built.run_config(0).shards(2))
                });
                checks.push(("shard_invariant", s2.canonical_json() == canonical));
            }
            let predictor = CopPredictor::new(db, hardware.clone());
            let inputs = Inputs {
                built: &built,
                report: &report,
                hardware: &hardware,
                predictor: &predictor,
            };
            let drivers = spans.span("drivers", Some(root), |spans, id| {
                layers::drive(spans, id, &inputs)
            });
            Ok::<_, String>((built, cop, report, tally, checks, drivers))
        })?;

    let wall_s = spans.self_time_of("execute");
    let mut sample = describe(&built, std::slice::from_ref(&report), &checks);
    sample.insert("walls_s".into(), json!([[wall_s]]));
    sample.insert("profile_cache".into(), json!(cache_name(Some(cop))));
    let driven = |name: &str| {
        drivers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut l = report_layers(&report, &tally, wall_s);
    // The Torpor baseline neither samples its dispatch cost nor runs
    // Algorithm 1: there, the drivers' timings of the same layer calls
    // stand in.
    for (metric, hist, q, fallback) in [
        (
            "engine.dispatch_p50_ns",
            &report.dispatch_overhead_ns,
            0.5,
            "router.least_loaded_p50_ns",
        ),
        (
            "engine.dispatch_p99_ns",
            &report.dispatch_overhead_ns,
            0.99,
            "router.least_loaded_p99_ns",
        ),
        (
            "scheduler.round_p50_us",
            &report.sched_overhead_hist_us,
            0.5,
            "scheduler.schedule_us",
        ),
        (
            "scheduler.round_p99_us",
            &report.sched_overhead_hist_us,
            0.99,
            "scheduler.schedule_p99_us",
        ),
    ] {
        l.push((metric, hist.quantile(q).unwrap_or_else(|| driven(fallback))));
    }
    let s1_over_s2 = if built.shards() > 0 {
        wall_s / spans.self_time_of("execute.s2")
    } else {
        0.0
    };
    l.extend([
        (
            "telemetry.decisions_overhead",
            spans.self_time_of("execute.decisions") / wall_s,
        ),
        ("sharded.s1_over_s2_wall", s1_over_s2),
        ("workload.build_s", spans.self_time_of("workload.build")),
        ("models.cop_load_s", spans.self_time_of("models.cop")),
        ("setup.construct_s", spans.self_time_of("setup.probe")),
    ]);
    l.extend(drivers.iter().copied());
    sample.insert(
        "layers".into(),
        Value::Object(l.into_iter().map(|(k, v)| (k.into(), json!(v))).collect()),
    );
    Ok((sample, spans))
}

fn draw(name: &str, seed: u64, quick: bool) -> Result<Drawn, String> {
    Drawn::new(name, seed, quick).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Runs the first episode with decision records on and tallies them.
/// An eager run streams them into a counting sink: buffering every
/// per-request breakdown record of a long run would cost more memory
/// than the run itself.
fn run_with_decisions(built: &Built) -> (RunReport, Counts) {
    if built.shards() > 0 {
        let (report, records) = built.run_with_decisions(0, built.shards());
        let mut counts = Counts::default();
        for r in &records {
            counts.add(r);
        }
        return (report, counts);
    }
    let tally = Tally::default();
    let report = built.execute(
        &built.episodes[0].workload,
        built.run_config(0).telemetry(Box::new(tally.clone())),
    );
    let counts = *tally.0.lock().expect("tally lock poisoned");
    (report, counts)
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    records: u64,
    candidates: u64,
    rejects: u64,
    commits: u64,
    rollbacks: u64,
    evictions: u64,
}

impl Counts {
    fn add(&mut self, record: &DecisionRecord) {
        self.records += 1;
        if let DecisionRecord::Decision(d) = record {
            match d.kind {
                DecisionKind::Candidate => self.candidates += 1,
                DecisionKind::Reject => self.rejects += 1,
                DecisionKind::ConsolidateCommit => self.commits += 1,
                DecisionKind::ConsolidateRollback => self.rollbacks += 1,
                DecisionKind::Evict => self.evictions += 1,
                _ => {}
            }
        }
    }
}

/// A decisions-only sink that counts what it is sent.
#[derive(Debug, Clone, Default)]
struct Tally(Arc<Mutex<Counts>>);

impl TelemetrySink for Tally {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: SpanEvent) {}

    fn sample(&mut self, _row: &GaugeRow) {}

    fn decisions_enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, record: &DecisionRecord) {
        self.0.lock().expect("tally lock poisoned").add(record);
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Merges one histogram of every function of every report.
fn merged<'a>(
    reports: impl IntoIterator<Item = &'a RunReport>,
    pick: impl Fn(&infless_core::FunctionReport) -> &Log2Histogram,
) -> Log2Histogram {
    let mut all = Log2Histogram::new();
    for f in reports.into_iter().flat_map(|r| &r.functions) {
        all.merge(pick(f));
    }
    all
}

/// The first autoregressive function: the chat function of `llm_chat`.
fn chat(report: &RunReport) -> Option<&infless_core::LlmFunctionStats> {
    report.functions.iter().find_map(|f| f.llm.as_ref())
}

/// Per-layer values read off the plain run's report and its decisions.
fn report_layers(report: &RunReport, d: &Counts, wall_s: f64) -> Vec<(&'static str, f64)> {
    let q = |h: &Log2Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
    let decoded: u64 = report
        .functions
        .iter()
        .filter_map(|f| f.llm.as_ref())
        .map(|l| l.decoded_tokens)
        .sum();
    let cache_full: u64 = report
        .functions
        .iter()
        .filter_map(|f| f.llm.as_ref())
        .map(|l| l.cache_full_events)
        .sum();
    let f = &report.failures;
    vec![
        (
            "batching.batch_size_mean",
            merged([report], |f| &f.batch_sizes).mean(),
        ),
        (
            "batching.batch_wait_p99_ms",
            q(&merged([report], |f| &f.breakdown.batch_wait_ms), 0.99),
        ),
        (
            "batching.queue_wait_p99_ms",
            q(&merged([report], |f| &f.breakdown.queueing_ms), 0.99),
        ),
        (
            "scheduler.rounds",
            report.sched_overhead_hist_us.count() as f64,
        ),
        ("scheduler.candidates", d.candidates as f64),
        (
            "scheduler.reject_share",
            share(d.rejects, d.candidates + d.rejects),
        ),
        ("cluster.launches", report.launches as f64),
        ("cluster.retirements", report.retirements as f64),
        (
            "cluster.consolidation_commit_share",
            share(d.commits, d.commits + d.rollbacks),
        ),
        ("coldstart.cold_launches", report.cold_launches as f64),
        (
            "coldstart.prewarmed_launches",
            report.prewarmed_launches as f64,
        ),
        ("coldstart.swap_launches", report.swap_launches as f64),
        ("coldstart.evictions", d.evictions as f64),
        ("coldstart.cold_request_rate", report.cold_request_rate()),
        ("coldstart.cold_wait_mean_ms", cold_wait_mean_ms(report)),
        ("faults.crashes", f.server_crashes as f64),
        ("faults.kills", f.instances_killed as f64),
        ("faults.displaced", f.requests_displaced as f64),
        ("faults.shed", f.requests_shed as f64),
        (
            "faults.recapacity_mean_ms",
            f.mean_time_to_recapacity_ms().unwrap_or(0.0),
        ),
        ("llm.decoded_tokens", decoded as f64),
        ("llm.cache_full", cache_full as f64),
        ("llm.tokens_per_wall_s", decoded as f64 / wall_s),
        (
            "llm.ttft_p99_ms",
            chat(report).map_or(0.0, |l| q(&l.ttft_ms, 0.99)),
        ),
        (
            "llm.tpot_p99_ms",
            chat(report).map_or(0.0, |l| q(&l.tpot_ms, 0.99)),
        ),
        ("telemetry.decision_records", d.records as f64),
    ]
}

/// Mean start-up wait of the requests that waited for a start-up.
fn cold_wait_mean_ms(report: &RunReport) -> f64 {
    let startup = merged([report], |f| &f.breakdown.startup_ms);
    let cold: u64 = report.functions.iter().map(|f| f.cold_requests).sum();
    if cold == 0 {
        0.0
    } else {
        startup.mean() * startup.count() as f64 / cold as f64
    }
}

/// What every round reports about its timed runs, from one report per
/// episode: counts and quality over all episodes, each episode's
/// canonical digest, and the conservation checks.
fn describe(built: &Built, reports: &[RunReport], extra: &[(&str, bool)]) -> Map {
    let arrivals = built.arrivals();
    let sum = |count: fn(&RunReport) -> u64| -> u64 { reports.iter().map(count).sum() };
    let completed = sum(RunReport::total_completed);
    let dropped = sum(RunReport::total_dropped);
    let functions = || reports.iter().flat_map(|r| &r.functions);
    let missed: u64 = functions().map(|f| f.violations + f.dropped).sum();
    let resource_s: f64 = reports.iter().map(|r| r.weighted_resource_seconds).sum();
    let latency = merged(reports, |f| &f.latency_ms);
    let q = |h: &Log2Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
    let quality = json!({
        "slo_attainment": 1.0 - share(missed, completed + dropped),
        "completed_share": share(completed, arrivals),
        "latency_p99_ms": q(&latency, 0.99),
        "latency_samples": latency.count(),
        "quality.latency_p50_ms": q(&latency, 0.5),
        "quality.latency_p999_ms": q(&latency, 0.999),
        "quality.thpt_per_resource": if resource_s > 0.0 { completed as f64 / resource_s } else { 0.0 },
    });
    let accounted = reports
        .iter()
        .zip(&built.episodes)
        .all(|(r, e)| r.total_completed() + r.total_dropped() == e.workload.len() as u64);
    let kv = reports
        .iter()
        .all(|r| r.kv_allocated_bytes == r.kv_freed_bytes + r.kv_resident_bytes);
    let mut checks = Map::new();
    checks.insert("accounting".into(), json!(accounted));
    checks.insert("kv_conservation".into(), json!(kv));
    for (name, ok) in extra {
        checks.insert(name.to_string(), json!(ok));
    }
    let digests: Vec<String> = reports
        .iter()
        .map(|r| format!("{:016x}", fnv1a(&r.canonical_json())))
        .collect();
    let mut m = Map::new();
    m.insert("arrivals".into(), json!(arrivals));
    m.insert("completed".into(), json!(completed));
    m.insert("dropped".into(), json!(dropped));
    m.insert("digests".into(), json!(digests));
    m.insert("quality".into(), quality);
    m.insert("checks".into(), Value::Object(checks));
    m
}

/// How a COP database lookup was satisfied, as printed per round.
pub fn cache_name(outcome: Option<CacheOutcome>) -> &'static str {
    match outcome {
        Some(CacheOutcome::MemoryHit) => "memory_hit",
        Some(CacheOutcome::DiskHit) => "disk_hit",
        Some(CacheOutcome::Built) => "built",
        None => "none",
    }
}

/// This process's peak resident set (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
