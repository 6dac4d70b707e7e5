//! Run-level measurement: everything the paper's figures need.
//!
//! A [`Collector`] records events while a platform runs; calling
//! [`Collector::finish`] freezes it into a [`RunReport`] with the
//! derived metrics (SLO violation rate, throughput per unit of
//! resource, cold-start rate, fragment statistics, …).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use infless_cluster::InstanceConfig;
use infless_models::CacheOutcome;
use infless_sim::stats::TimeWeighted;
use infless_sim::{SimDuration, SimTime};
use infless_telemetry::{Log2Histogram, TimeseriesSummary, TICKS_PER_UNIT};
use serde::{Deserialize, Serialize};

/// How an instance came up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StartupKind {
    /// Full cold start: container boot + model load.
    Cold,
    /// The image was pre-warmed (or already resident): fast attach.
    PreWarmed,
    /// The model was host-cached and swapped onto a GPU (Torpor-style
    /// pipelined upload): much faster than a boot, slower than attach.
    SwapIn,
}

/// Token-level results of one autoregressive function (PR 8). Present
/// only on functions that declared an LLM class; `None` keeps one-shot
/// functions (and pre-LLM reports) untouched.
#[derive(Debug, Clone, Default)]
pub struct LlmFunctionStats {
    /// Time-to-first-token of every admitted sequence, milliseconds
    /// (arrival → end of its prefill).
    pub ttft_ms: Log2Histogram,
    /// Mean time-per-output-token of completed sequences with more
    /// than one output token, milliseconds.
    pub tpot_ms: Log2Histogram,
    /// Sequences whose TTFT exceeded the class's `ttft_slo`.
    pub ttft_violations: u64,
    /// Completed sequences whose mean TPOT exceeded `tpot_slo`.
    pub tpot_violations: u64,
    /// Admission attempts blocked by a full KV arena (the request
    /// stayed queued or was shed by the platform's policy).
    pub cache_full_events: u64,
    /// Output tokens decoded by completed sequences.
    pub decoded_tokens: u64,
}

/// The five-way SLO latency decomposition of one completed request.
/// The components partition the end-to-end latency exactly:
/// `queueing + batch_wait + startup + execution + interference` equals
/// the latency the report records for the request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyParts {
    /// Arrival → final instance enqueue (gateway dispatch delay,
    /// pending backlog, fault-retry delay).
    pub queueing: SimDuration,
    /// Enqueue → batch start, net of the startup overlap: waiting for
    /// the batch to fill or time out.
    pub batch_wait: SimDuration,
    /// Cold-start / swap-in time the request observed.
    pub startup: SimDuration,
    /// Execution at the profiled (noise-adjusted) speed.
    pub execution: SimDuration,
    /// Execution stretch from MPS co-residence and stragglers.
    pub interference: SimDuration,
}

impl LatencyParts {
    /// Partitions a request's `wait`/`exec` phases by clamped cascade:
    /// `enqueue_delay` (the request's own `enqueued − arrival`, stamped
    /// by its latest successful instance enqueue) is credited to
    /// queueing, the startup overlap to startup, and the remainder of
    /// the wait to batch-wait; `exec_base` (the pre-interference
    /// execution estimate) splits the exec phase into execution and
    /// interference. Each component is clamped so the five always sum
    /// to exactly `wait + exec` whatever the inputs.
    pub fn derive(
        wait: SimDuration,
        exec: SimDuration,
        cold: SimDuration,
        enqueue_delay: SimDuration,
        exec_base: SimDuration,
    ) -> LatencyParts {
        let queueing = enqueue_delay.min(wait);
        let startup = cold.min(wait - queueing);
        let batch_wait = wait - queueing - startup;
        let (execution, interference) = Self::split_exec(exec, exec_base);
        LatencyParts {
            queueing,
            batch_wait,
            startup,
            execution,
            interference,
        }
    }

    /// The execution/interference split of an exec phase. Both depend
    /// only on the batch, so every request of one batch shares them.
    fn split_exec(exec: SimDuration, exec_base: SimDuration) -> (SimDuration, SimDuration) {
        let execution = exec_base.min(exec);
        (execution, exec - execution)
    }
}

/// Per-function [`Log2Histogram`]s of the decomposition components.
#[derive(Debug, Clone, Default)]
pub struct BreakdownHists {
    /// Queueing component, ms.
    pub queueing_ms: Log2Histogram,
    /// Batch-wait component, ms.
    pub batch_wait_ms: Log2Histogram,
    /// Startup component, ms.
    pub startup_ms: Log2Histogram,
    /// Execution component, ms.
    pub execution_ms: Log2Histogram,
    /// Interference component, ms.
    pub interference_ms: Log2Histogram,
}

/// Per-function results.
#[derive(Debug, Clone, Default)]
pub struct FunctionReport {
    /// Function display name (model name in the evaluation apps).
    pub name: String,
    /// The latency SLO.
    pub slo: SimDuration,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped (no instance could accept them).
    pub dropped: u64,
    /// Completed requests whose end-to-end latency exceeded the SLO.
    pub violations: u64,
    /// Completed requests that experienced a cold-start wait.
    pub cold_requests: u64,
    /// End-to-end latency of completed requests, milliseconds, recorded
    /// in ns ticks (quantile error ≤ 2⁻⁸ relative, exact at the
    /// extremes and in the sum — see [`Log2Histogram`]).
    pub latency_ms: Log2Histogram,
    /// Serving batchsize of completed requests as a histogram (the
    /// distribution view of `per_batch_completed`).
    pub batch_sizes: Log2Histogram,
    /// Completed requests per serving-instance batchsize (Fig. 13a/b),
    /// in ascending batchsize order.
    pub per_batch_completed: BTreeMap<u32, u64>,
    /// SLO latency decomposition histograms (always maintained, so
    /// the report carries them with or without a telemetry sink).
    pub breakdown: BreakdownHists,
    /// Token-level stats when this function is autoregressive.
    pub llm: Option<LlmFunctionStats>,
}

impl FunctionReport {
    /// SLO violation rate counting drops as violations, in `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        let total = self.completed + self.dropped;
        if total == 0 {
            0.0
        } else {
            (self.violations + self.dropped) as f64 / total as f64
        }
    }

    /// Fraction of completed requests that experienced a cold start.
    pub fn cold_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cold_requests as f64 / self.completed as f64
        }
    }
}

/// Failure-injection and recovery accounting for one run (PR 3).
///
/// All-zero when the run had no fault schedule. Serialized behind
/// `#[serde(default)]` so reports written before the fault model
/// existed still deserialize (and a default section serializes to
/// plain zeros that old readers can ignore).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FailureReport {
    /// Whole-server crashes injected (and applied).
    pub server_crashes: u64,
    /// Servers that completed the Down → Recovering → Up cycle.
    pub server_recoveries: u64,
    /// Instances killed by any fault (crash, kill, cold-start failure).
    pub instances_killed: u64,
    /// Instance deaths that struck while the victim was still starting.
    pub coldstart_failures: u64,
    /// Straggler episodes injected.
    pub stragglers: u64,
    /// Batches that ran slowed-down under a straggler episode.
    pub straggled_batches: u64,
    /// Requests displaced from killed instances (queued or in-flight).
    pub requests_displaced: u64,
    /// Displaced requests successfully re-dispatched within SLO budget.
    pub requests_retried: u64,
    /// Displaced requests shed (deadline already blown or no capacity).
    /// Shed requests are also counted in the per-function `dropped`
    /// tallies, so `violation_rate` reflects them.
    pub requests_shed: u64,
    /// Time from each capacity-losing fault until replacement capacity
    /// was ready, milliseconds.
    pub recapacity_ms: Vec<f64>,
}

impl FailureReport {
    /// `true` when the run experienced any fault.
    pub fn any(&self) -> bool {
        self.server_crashes > 0
            || self.instances_killed > 0
            || self.stragglers > 0
            || self.requests_displaced > 0
    }

    /// Mean time-to-recapacity in milliseconds, or `None` when no
    /// capacity-losing fault was (yet) compensated.
    pub fn mean_time_to_recapacity_ms(&self) -> Option<f64> {
        if self.recapacity_ms.is_empty() {
            return None;
        }
        Some(self.recapacity_ms.iter().sum::<f64>() / self.recapacity_ms.len() as f64)
    }
}

/// The frozen result of one platform run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Platform name ("INFless", "OpenFaaS+", "BATCH", …).
    pub platform: String,
    /// Per-function results.
    pub functions: Vec<FunctionReport>,
    /// Simulated span of the run.
    pub duration: SimDuration,
    /// Instances launched in total.
    pub launches: u64,
    /// Launches that paid a full cold start.
    pub cold_launches: u64,
    /// Launches served from a pre-warmed image.
    pub prewarmed_launches: u64,
    /// Launches served by swapping a host-cached model onto a GPU.
    pub swap_launches: u64,
    /// Instances retired.
    pub retirements: u64,
    /// ∫ (β·cpu + gpu) allocated dt, in weighted-resource · seconds.
    pub weighted_resource_seconds: f64,
    /// ∫ over instances that were allocated but not executing.
    pub weighted_idle_seconds: f64,
    /// ∫ CPU cores allocated dt (core·s).
    pub cpu_core_seconds: f64,
    /// ∫ GPU SM-percent allocated dt (pct·s).
    pub gpu_pct_seconds: f64,
    /// Fragment ratios sampled at scaler ticks (Fig. 17b), in ppm ticks.
    pub fragment_samples: Log2Histogram,
    /// Wall-clock scheduling overhead per `Schedule()` call, µs
    /// (Fig. 17a), as a histogram of ps ticks, so
    /// `BENCH_hotpath.json` can report tail quantiles without keeping
    /// raw samples.
    pub sched_overhead_hist_us: Log2Histogram,
    /// Wall-clock cost of sampled per-request dispatch decisions,
    /// nanoseconds. Routers sample (e.g. every 64th dispatch) so the
    /// timing stays off the hot path; wall-clock readings never
    /// influence simulated state, so sampling cannot perturb a run.
    /// Empty for platforms that do not instrument their router.
    pub dispatch_overhead_ns: Log2Histogram,
    /// `(t seconds, weighted resources allocated)` timeline (Fig. 14).
    pub provisioning: Vec<(f64, f64)>,
    /// Instances launched per (function, config) — Fig. 13c.
    pub config_launches: HashMap<(usize, InstanceConfig), u64>,
    /// End-to-end results per declared function chain (empty unless the
    /// platform was built with chains).
    pub chains: Vec<crate::chains::ChainReport>,
    /// Wall-clock time from platform construction to report freeze —
    /// what the parallel bench harness reports per run.
    pub wall_clock_seconds: f64,
    /// How this run's COP profile database was obtained, when the
    /// platform uses one (`None` for profile-free baselines).
    pub profile_cache: Option<CacheOutcome>,
    /// Fault-injection and recovery accounting (all-zero without a
    /// fault schedule).
    pub failures: FailureReport,
    /// Digest of the tick-sampled gauge stream (peak/mean instance
    /// count, peak occupancy, max queue depth). All-zero when the
    /// platform never called `Engine::sample_telemetry`. Serialized
    /// behind `#[serde(default)]` on its own type, so JSON snapshots
    /// written before the telemetry subsystem keep deserializing.
    pub timeseries_summary: TimeseriesSummary,
    /// KV-cache bytes booked over the run (prompt KV at admission plus
    /// one token's worth per decode). All-zero without LLM functions.
    pub kv_allocated_bytes: u64,
    /// KV-cache bytes released (sequence completion or displacement).
    pub kv_freed_bytes: u64,
    /// KV-cache bytes still resident in live episodes at the horizon.
    /// Conservation invariant: `allocated == freed + resident`.
    pub kv_resident_bytes: u64,
}

impl RunReport {
    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        self.functions.iter().map(|f| f.completed).sum()
    }

    /// Total dropped requests.
    pub fn total_dropped(&self) -> u64 {
        self.functions.iter().map(|f| f.dropped).sum()
    }

    /// Overall SLO violation rate (drops count as violations).
    pub fn violation_rate(&self) -> f64 {
        let total: u64 = self.functions.iter().map(|f| f.completed + f.dropped).sum();
        if total == 0 {
            return 0.0;
        }
        let bad: u64 = self
            .functions
            .iter()
            .map(|f| f.violations + f.dropped)
            .sum();
        bad as f64 / total as f64
    }

    /// Completed requests that met their SLO, per second of simulated
    /// time (the "maximum RPS achieved" of Fig. 11).
    pub fn goodput_rps(&self) -> f64 {
        let good: u64 = self
            .functions
            .iter()
            .map(|f| f.completed - f.violations)
            .sum();
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            good as f64 / secs
        }
    }

    /// Completed requests per weighted-resource-second — the
    /// "throughput per unit of resource" of Figs. 12 and 18.
    pub fn throughput_per_resource(&self) -> f64 {
        if self.weighted_resource_seconds == 0.0 {
            0.0
        } else {
            self.total_completed() as f64 / self.weighted_resource_seconds
        }
    }

    /// Fraction of completed requests that experienced a cold start.
    pub fn cold_request_rate(&self) -> f64 {
        let completed = self.total_completed();
        if completed == 0 {
            return 0.0;
        }
        let cold: u64 = self.functions.iter().map(|f| f.cold_requests).sum();
        cold as f64 / completed as f64
    }

    /// Fraction of launches that paid a full cold start.
    pub fn cold_launch_rate(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.cold_launches as f64 / self.launches as f64
        }
    }

    /// Average CPU cores held per 100 completed RPS (Table 4).
    pub fn cpus_per_100rps(&self) -> f64 {
        let rps = self.total_completed() as f64 / self.duration.as_secs_f64().max(1e-9);
        if rps == 0.0 {
            return 0.0;
        }
        (self.cpu_core_seconds / self.duration.as_secs_f64().max(1e-9)) / rps * 100.0
    }

    /// Average full GPUs held per 100 completed RPS (Table 4).
    pub fn gpus_per_100rps(&self) -> f64 {
        let rps = self.total_completed() as f64 / self.duration.as_secs_f64().max(1e-9);
        if rps == 0.0 {
            return 0.0;
        }
        (self.gpu_pct_seconds / 100.0 / self.duration.as_secs_f64().max(1e-9)) / rps * 100.0
    }

    /// Deterministic JSON rendering of the simulation-visible results.
    ///
    /// Excludes every wall-clock-derived field (`wall_clock_seconds`,
    /// `sched_overhead_hist_us`, `dispatch_overhead_ns`) and
    /// `profile_cache` (a host-cache artifact), and renders all maps in
    /// sorted key order, so the output is **byte-identical** across
    /// hosts, runs and shard counts for the same `(workload, seed,
    /// config)`. The golden manifest pins it on every shipped scenario
    /// and asserts it equal between one and four shards.
    pub fn canonical_json(&self) -> String {
        let functions: Vec<serde_json::Value> = self
            .functions
            .iter()
            .map(|f| {
                let per_batch: Vec<_> = f.per_batch_completed.iter().collect();
                let mut v = serde_json::json!({
                    "name": f.name,
                    "slo_ms": f.slo.as_millis_f64(),
                    "completed": f.completed,
                    "dropped": f.dropped,
                    "violations": f.violations,
                    "cold_requests": f.cold_requests,
                    "latency_p50_ms": f.latency_ms.quantile(0.50).unwrap_or(0.0),
                    "latency_p95_ms": f.latency_ms.quantile(0.95).unwrap_or(0.0),
                    "latency_p99_ms": f.latency_ms.quantile(0.99).unwrap_or(0.0),
                    "latency_count": f.latency_ms.count(),
                    "batch_size_mean": f.batch_sizes.mean(),
                    "per_batch_completed": per_batch,
                });
                // The llm key only exists for autoregressive functions,
                // appended after the base keys (the map is
                // insertion-ordered), so pre-LLM reports stay
                // byte-identical.
                if let Some(llm) = &f.llm {
                    if let serde_json::Value::Object(m) = &mut v {
                        m.insert(
                            "llm".to_string(),
                            serde_json::json!({
                                "first_tokens": llm.ttft_ms.count(),
                                "ttft_p50_ms": llm.ttft_ms.quantile(0.50).unwrap_or(0.0),
                                "ttft_p99_ms": llm.ttft_ms.quantile(0.99).unwrap_or(0.0),
                                "ttft_violations": llm.ttft_violations,
                                "tpot_p50_ms": llm.tpot_ms.quantile(0.50).unwrap_or(0.0),
                                "tpot_p99_ms": llm.tpot_ms.quantile(0.99).unwrap_or(0.0),
                                "tpot_violations": llm.tpot_violations,
                                "cache_full_events": llm.cache_full_events,
                                "decoded_tokens": llm.decoded_tokens,
                            }),
                        );
                    }
                }
                // The five-way SLO decomposition is always maintained
                // (and derived from shard-invariant quantities), so it
                // is unconditionally part of the determinism-gated
                // surface.
                if let serde_json::Value::Object(m) = &mut v {
                    let b = &f.breakdown;
                    m.insert(
                        "breakdown".to_string(),
                        serde_json::json!({
                            "count": b.queueing_ms.count(),
                            "queueing_ms_mean": b.queueing_ms.mean(),
                            "batch_wait_ms_mean": b.batch_wait_ms.mean(),
                            "startup_ms_mean": b.startup_ms.mean(),
                            "execution_ms_mean": b.execution_ms.mean(),
                            "interference_ms_mean": b.interference_ms.mean(),
                        }),
                    );
                }
                v
            })
            .collect();
        let chains: Vec<serde_json::Value> = self
            .chains
            .iter()
            .map(|c| {
                serde_json::json!({
                    "name": c.name,
                    "completed": c.completed,
                    "violations": c.violations,
                    "lost": c.lost,
                    "e2e_p50_ms": c.e2e_ms.quantile(0.5),
                    "e2e_p99_ms": c.e2e_ms.quantile(0.99),
                })
            })
            .collect();
        let mut config_launches: Vec<(usize, u32, u32, u32, u64)> = self
            .config_launches
            .iter()
            .map(|((f, cfg), n)| {
                (
                    *f,
                    cfg.batch(),
                    cfg.resources().cpu_cores(),
                    cfg.resources().gpu_pct(),
                    *n,
                )
            })
            .collect();
        config_launches.sort_unstable();
        let mut out = serde_json::json!({
            "platform": self.platform,
            "duration_s": self.duration.as_secs_f64(),
            "completed": self.total_completed(),
            "dropped": self.total_dropped(),
            "violation_rate": self.violation_rate(),
            "launches": self.launches,
            "cold_launches": self.cold_launches,
            "prewarmed_launches": self.prewarmed_launches,
            "swap_launches": self.swap_launches,
            "retirements": self.retirements,
            "weighted_resource_seconds": self.weighted_resource_seconds,
            "weighted_idle_seconds": self.weighted_idle_seconds,
            "cpu_core_seconds": self.cpu_core_seconds,
            "gpu_pct_seconds": self.gpu_pct_seconds,
            "fragment_mean": (!self.fragment_samples.is_empty())
                .then(|| self.fragment_samples.mean()),
            "fragment_count": self.fragment_samples.len(),
            "provisioning": self.provisioning,
            "config_launches": config_launches,
            "functions": functions,
            "chains": chains,
            "failures": self.failures,
            "timeseries_summary": self.timeseries_summary,
        });
        // Like the per-function llm key: kv_cache appears only when the
        // run actually served an autoregressive function.
        if self.functions.iter().any(|f| f.llm.is_some()) || self.kv_allocated_bytes > 0 {
            if let serde_json::Value::Object(m) = &mut out {
                m.insert(
                    "kv_cache".to_string(),
                    serde_json::json!({
                        "allocated_bytes": self.kv_allocated_bytes,
                        "freed_bytes": self.kv_freed_bytes,
                        "resident_bytes": self.kv_resident_bytes,
                    }),
                );
            }
        }
        serde_json::to_string_pretty(&out).expect("report serializes")
    }
}

/// Per-function time-weighted resource step functions.
///
/// Kept per function (not as run-wide accumulators) so each function's
/// f64 accumulation order depends only on that function's own event
/// sequence: a sharded run sums the per-function values in
/// function-major order at freeze time and lands on bit-identical
/// totals regardless of how functions were partitioned across shards.
#[derive(Debug, Clone, Copy, Default)]
struct ResourceUsage {
    weighted_usage: TimeWeighted,
    weighted_busy: TimeWeighted,
    cpu_usage: TimeWeighted,
    gpu_usage: TimeWeighted,
}

/// `d` in the ticks of a `_ms` histogram: ns, 10⁶ a millisecond.
pub(crate) fn ms_ticks(d: SimDuration) -> u64 {
    d.as_micros().saturating_mul(TICKS_PER_UNIT / 1_000)
}

/// A wall-clock `d` in the ticks of a histogram whose unit is `unit_ns`
/// nanoseconds (1 for `_ns`, 1 000 for `_us`).
pub(crate) fn wall_ticks(d: Duration, unit_ns: u64) -> u64 {
    let ticks = d.as_nanos() * u128::from(TICKS_PER_UNIT) / u128::from(unit_ns);
    u64::try_from(ticks).unwrap_or(u64::MAX)
}

/// The mutable recorder a running platform writes into.
///
/// It builds the [`RunReport`] it returns: callers write counters and
/// streams straight into `report`, and the methods below hold only the
/// recordings that take logic. [`finish`](Self::finish) fills in what
/// it computes from the step functions and the wall clock.
#[derive(Debug)]
pub struct Collector {
    /// The report under construction.
    pub report: RunReport,
    usage: Vec<ResourceUsage>,
    /// Wall-clock origin of `wall_clock_seconds`. Platforms backdate it
    /// so the reported time covers profiling done before the engine
    /// (and this collector) existed.
    pub started: Instant,
}

impl Collector {
    /// Creates a collector for `platform` covering the given functions
    /// (`(name, slo)` pairs).
    pub fn new(platform: impl Into<String>, functions: &[(String, SimDuration)]) -> Self {
        Collector {
            report: RunReport {
                platform: platform.into(),
                functions: functions
                    .iter()
                    .map(|(name, slo)| FunctionReport {
                        name: name.clone(),
                        slo: *slo,
                        ..FunctionReport::default()
                    })
                    .collect(),
                ..RunReport::default()
            },
            usage: vec![ResourceUsage::default(); functions.len()],
            started: Instant::now(),
        }
    }

    /// Records a completed request with its five-way latency
    /// decomposition: the per-request part, then the per-batch part for
    /// a batch of one. The LLM sequence path calls this; one-shot
    /// batches call the two parts themselves.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_with_parts(
        &mut self,
        function: usize,
        queue: SimDuration,
        exec: SimDuration,
        cold: SimDuration,
        batch_setting: u32,
        parts: LatencyParts,
    ) {
        self.complete_request(function, queue, exec, cold, parts);
        // `parts.execution` is at most `exec`, so as the base estimate
        // it splits `exec` back into the same two components.
        self.complete_batch(function, exec, parts.execution, batch_setting, 1);
    }

    /// The per-request part of recording a completion: everything that
    /// varies between the requests of one batch. Ignores
    /// `parts.execution` and `parts.interference`, which
    /// [`complete_batch`](Self::complete_batch) records.
    pub(crate) fn complete_request(
        &mut self,
        function: usize,
        queue: SimDuration,
        exec: SimDuration,
        cold: SimDuration,
        parts: LatencyParts,
    ) {
        let f = &mut self.report.functions[function];
        let latency = queue + exec;
        f.completed += 1;
        f.latency_ms.record(ms_ticks(latency));
        let b = &mut f.breakdown;
        b.queueing_ms.record(ms_ticks(parts.queueing));
        b.batch_wait_ms.record(ms_ticks(parts.batch_wait));
        b.startup_ms.record(ms_ticks(parts.startup));
        if latency > f.slo {
            f.violations += 1;
        }
        if !cold.is_zero() {
            f.cold_requests += 1;
        }
    }

    /// The per-batch part of recording `n` completions that share one
    /// exec phase (`exec`, of which `exec_base` is the pre-interference
    /// estimate) and one batch setting. The report is the same as after
    /// `n` single-request records; each histogram takes the `n` in O(1).
    pub(crate) fn complete_batch(
        &mut self,
        function: usize,
        exec: SimDuration,
        exec_base: SimDuration,
        batch_setting: u32,
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        let f = &mut self.report.functions[function];
        let (execution, interference) = LatencyParts::split_exec(exec, exec_base);
        f.breakdown.execution_ms.record_n(ms_ticks(execution), n);
        f.breakdown
            .interference_ms
            .record_n(ms_ticks(interference), n);
        f.batch_sizes
            .record_n(u64::from(batch_setting) * TICKS_PER_UNIT, n);
        *f.per_batch_completed.entry(batch_setting).or_insert(0) += n;
    }

    /// Records an instance launch.
    pub fn launch(&mut self, function: usize, config: InstanceConfig, kind: StartupKind) {
        let r = &mut self.report;
        r.launches += 1;
        match kind {
            StartupKind::Cold => r.cold_launches += 1,
            StartupKind::PreWarmed => r.prewarmed_launches += 1,
            StartupKind::SwapIn => r.swap_launches += 1,
        }
        *r.config_launches.entry((function, config)).or_insert(0) += 1;
    }

    /// Adjusts `function`'s allocated-resource step functions at time
    /// `t`.
    pub fn usage_delta(&mut self, function: usize, t: SimTime, weighted: f64, cpu: f64, gpu: f64) {
        let u = &mut self.usage[function];
        u.weighted_usage.add(t, weighted);
        u.cpu_usage.add(t, cpu);
        u.gpu_usage.add(t, gpu);
    }

    /// Adjusts `function`'s busy-resource step function at time `t`
    /// (instances actively executing a batch).
    pub fn busy_delta(&mut self, function: usize, t: SimTime, weighted: f64) {
        self.usage[function].weighted_busy.add(t, weighted);
    }

    /// Records an instance killed by a fault. `was_starting` marks a
    /// cold-start failure (the victim had not finished booting).
    pub fn instance_killed(&mut self, was_starting: bool) {
        let f = &mut self.report.failures;
        f.instances_killed += 1;
        if was_starting {
            f.coldstart_failures += 1;
        }
    }

    /// Records a displaced request shed. Also tallies it as dropped for
    /// `function`, so SLO violation rates account for shed load.
    pub fn shed(&mut self, function: usize) {
        self.report.failures.requests_shed += 1;
        self.report.functions[function].dropped += 1;
    }

    fn llm_stats(&mut self, function: usize) -> &mut LlmFunctionStats {
        self.report.functions[function]
            .llm
            .get_or_insert_with(LlmFunctionStats::default)
    }

    /// Records a sequence's first token (end of its prefill): the TTFT
    /// sample and, when it blew `slo`, a TTFT violation.
    pub fn llm_first_token(&mut self, function: usize, ttft: SimDuration, slo: SimDuration) {
        let s = self.llm_stats(function);
        s.ttft_ms.record(ms_ticks(ttft));
        if ttft > slo {
            s.ttft_violations += 1;
        }
    }

    /// Records a completed sequence's token-level outcome. `tpot` is
    /// `None` for single-output-token sequences (no decode interval to
    /// average).
    pub fn llm_complete(
        &mut self,
        function: usize,
        tpot: Option<SimDuration>,
        slo: SimDuration,
        decoded: u64,
    ) {
        let s = self.llm_stats(function);
        s.decoded_tokens += decoded;
        if let Some(t) = tpot {
            s.tpot_ms.record(ms_ticks(t));
            if t > slo {
                s.tpot_violations += 1;
            }
        }
    }

    /// Records an admission attempt blocked by a full KV arena.
    pub fn llm_cache_full(&mut self, function: usize) {
        self.llm_stats(function).cache_full_events += 1;
    }

    /// Folds a shard's collector into this one (the coordinator's, by
    /// convention shard 0's).
    ///
    /// `owned` lists the function indices the shard owned: their
    /// per-function reports and resource accumulators are moved over
    /// wholesale (a function runs on exactly one shard, so this
    /// collector's entries for them are untouched defaults). Scalar
    /// counters, failure tallies, per-config launch counts and the
    /// overhead recordings are summed or merged. Every report field is
    /// named, so a field added later does not compile until its merge
    /// rule is written here. Fields bound to `_` are the ones
    /// [`finish`](Self::finish) computes, the platform-wide constants,
    /// and the coordinator-owned streams (fragment samples,
    /// provisioning timeline, time-series gauges, chains), which only
    /// the coordinator's collector ever writes.
    pub fn absorb(&mut self, other: Collector, owned: &[usize]) {
        let RunReport {
            platform: _,
            mut functions,
            duration: _,
            launches,
            cold_launches,
            prewarmed_launches,
            swap_launches,
            retirements,
            weighted_resource_seconds: _,
            weighted_idle_seconds: _,
            cpu_core_seconds: _,
            gpu_pct_seconds: _,
            fragment_samples: _,
            sched_overhead_hist_us,
            dispatch_overhead_ns,
            provisioning: _,
            config_launches,
            chains: _,
            wall_clock_seconds: _,
            profile_cache: _,
            failures,
            timeseries_summary: _,
            kv_allocated_bytes,
            kv_freed_bytes,
            kv_resident_bytes,
        } = other.report;
        let r = &mut self.report;
        debug_assert_eq!(r.functions.len(), functions.len());
        for &f in owned {
            debug_assert_eq!(r.functions[f].completed, 0);
            std::mem::swap(&mut r.functions[f], &mut functions[f]);
            self.usage[f] = other.usage[f];
        }
        r.launches += launches;
        r.cold_launches += cold_launches;
        r.prewarmed_launches += prewarmed_launches;
        r.swap_launches += swap_launches;
        r.retirements += retirements;
        r.sched_overhead_hist_us.merge(&sched_overhead_hist_us);
        r.dispatch_overhead_ns.merge(&dispatch_overhead_ns);
        for (key, n) in config_launches {
            *r.config_launches.entry(key).or_insert(0) += n;
        }
        let FailureReport {
            server_crashes,
            server_recoveries,
            instances_killed,
            coldstart_failures,
            stragglers,
            straggled_batches,
            requests_displaced,
            requests_retried,
            requests_shed,
            recapacity_ms,
        } = failures;
        let f = &mut r.failures;
        f.server_crashes += server_crashes;
        f.server_recoveries += server_recoveries;
        f.instances_killed += instances_killed;
        f.coldstart_failures += coldstart_failures;
        f.stragglers += stragglers;
        f.straggled_batches += straggled_batches;
        f.requests_displaced += requests_displaced;
        f.requests_retried += requests_retried;
        f.requests_shed += requests_shed;
        f.recapacity_ms.extend(recapacity_ms);
        r.kv_allocated_bytes += kv_allocated_bytes;
        r.kv_freed_bytes += kv_freed_bytes;
        r.kv_resident_bytes += kv_resident_bytes;
    }

    /// Freezes the collector into a report covering `[0, end]`: fills
    /// in the span, the four resource integrals and the wall clock.
    pub fn finish(mut self, end: SimTime) -> RunReport {
        // Function-major sums keep the f64 accumulation order a pure
        // function of the function list, not of shard layout.
        let integral = |g: fn(&ResourceUsage) -> &TimeWeighted| -> f64 {
            self.usage.iter().map(|u| g(u).integral_until(end)).sum()
        };
        let usage = integral(|u| &u.weighted_usage);
        let busy = integral(|u| &u.weighted_busy);
        let r = &mut self.report;
        r.duration = end - SimTime::ZERO;
        r.weighted_resource_seconds = usage;
        r.weighted_idle_seconds = (usage - busy).max(0.0);
        r.cpu_core_seconds = integral(|u| &u.cpu_usage);
        r.gpu_pct_seconds = integral(|u| &u.gpu_usage);
        r.wall_clock_seconds = self.started.elapsed().as_secs_f64();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_models::ResourceConfig;

    /// Records a completion with no gateway delay and no interference:
    /// the whole wait before `cold` is batch-wait. Times in ms.
    fn record_completion(c: &mut Collector, function: usize, ms: [u64; 3], batch_setting: u32) {
        let [queue, exec, cold] = ms.map(SimDuration::from_millis);
        let parts = LatencyParts::derive(queue, exec, cold, SimDuration::ZERO, exec);
        c.complete_with_parts(function, queue, exec, cold, batch_setting, parts);
    }

    fn collector() -> Collector {
        Collector::new(
            "test",
            &[
                ("a".to_string(), SimDuration::from_millis(100)),
                ("b".to_string(), SimDuration::from_millis(50)),
            ],
        )
    }

    #[test]
    fn completion_classifies_violations() {
        let mut c = collector();
        record_completion(&mut c, 0, [30, 40, 0], 4); // 70ms <= 100ms: ok
        record_completion(&mut c, 0, [90, 40, 50], 4); // 130ms > 100ms: violation, cold
        let r = c.finish(SimTime::from_secs(10));
        let f = &r.functions[0];
        assert_eq!(f.completed, 2);
        assert_eq!(f.violations, 1);
        assert_eq!(f.cold_requests, 1);
        assert_eq!(f.violation_rate(), 0.5);
        assert_eq!(f.cold_rate(), 0.5);
        assert_eq!(f.per_batch_completed[&4], 2);
    }

    #[test]
    fn drops_count_as_violations() {
        let mut c = collector();
        record_completion(&mut c, 1, [10, 10, 0], 1);
        c.report.functions[1].dropped += 1;
        let r = c.finish(SimTime::from_secs(1));
        assert_eq!(r.total_dropped(), 1);
        assert_eq!(r.violation_rate(), 0.5);
    }

    #[test]
    fn resource_integrals_and_throughput() {
        let mut c = collector();
        c.usage_delta(0, SimTime::ZERO, 10.0, 2.0, 20.0);
        c.usage_delta(0, SimTime::from_secs(5), -10.0, -2.0, -20.0);
        for _ in 0..50 {
            record_completion(&mut c, 0, [1, 1, 0], 1);
        }
        let r = c.finish(SimTime::from_secs(10));
        assert_eq!(r.weighted_resource_seconds, 50.0);
        assert_eq!(r.cpu_core_seconds, 10.0);
        assert_eq!(r.gpu_pct_seconds, 100.0);
        assert_eq!(r.throughput_per_resource(), 1.0);
        assert_eq!(r.goodput_rps(), 5.0);
    }

    #[test]
    fn idle_is_usage_minus_busy() {
        let mut c = collector();
        c.usage_delta(0, SimTime::ZERO, 4.0, 0.0, 0.0);
        c.busy_delta(1, SimTime::from_secs(2), 4.0);
        c.busy_delta(1, SimTime::from_secs(4), -4.0);
        let r = c.finish(SimTime::from_secs(10));
        assert_eq!(r.weighted_resource_seconds, 40.0);
        assert_eq!(r.weighted_idle_seconds, 32.0);
    }

    #[test]
    fn launch_kinds_are_tallied() {
        let mut c = collector();
        let cfg = InstanceConfig::new(4, ResourceConfig::new(1, 10));
        c.launch(0, cfg, StartupKind::Cold);
        c.launch(0, cfg, StartupKind::PreWarmed);
        c.launch(1, cfg, StartupKind::Cold);
        c.launch(1, cfg, StartupKind::SwapIn);
        c.report.retirements += 1;
        let r = c.finish(SimTime::from_secs(1));
        assert_eq!(r.launches, 4);
        assert_eq!(r.cold_launches, 2);
        assert_eq!(r.prewarmed_launches, 1);
        assert_eq!(r.swap_launches, 1);
        assert_eq!(r.retirements, 1);
        assert!((r.cold_launch_rate() - 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(r.config_launches[&(0, cfg)], 2);
    }

    #[test]
    fn table4_unit_math() {
        // 10 cores and 1.5 GPUs held for the whole run at 50 completed RPS.
        let mut c = collector();
        c.usage_delta(0, SimTime::ZERO, 0.0, 10.0, 150.0);
        for _ in 0..500 {
            record_completion(&mut c, 0, [0, 1, 0], 1);
        }
        let r = c.finish(SimTime::from_secs(10));
        assert!((r.cpus_per_100rps() - 20.0).abs() < 1e-9);
        assert!((r.gpus_per_100rps() - 3.0).abs() < 1e-9);
    }

    /// Sharded runs fold per-shard collectors into the coordinator's:
    /// per-function state moves wholesale, and every field `absorb`
    /// sums or merges reaches the report from the shard side.
    #[test]
    fn absorb_merges_shard_collectors() {
        let cfg = InstanceConfig::new(2, ResourceConfig::new(1, 10));
        // Shard 0 owns function 0; shard 1 owns function 1.
        let mut c0 = collector();
        c0.usage_delta(0, SimTime::ZERO, 2.0, 1.0, 10.0);
        c0.launch(0, cfg, StartupKind::Cold);
        record_completion(&mut c0, 0, [10, 10, 0], 2);
        c0.report.sched_overhead_hist_us.add(3.0);
        c0.report.failures.server_crashes += 1;
        let mut c1 = collector();
        c1.usage_delta(1, SimTime::ZERO, 3.0, 2.0, 0.0);
        c1.launch(1, cfg, StartupKind::PreWarmed);
        c1.launch(1, cfg, StartupKind::SwapIn);
        record_completion(&mut c1, 1, [100, 10, 0], 1);
        c1.shed(1);
        c1.instance_killed(true);
        let s = &mut c1.report;
        s.retirements += 1;
        s.sched_overhead_hist_us.add(5.0);
        s.dispatch_overhead_ns.add(700.0);
        s.kv_allocated_bytes += 96;
        s.kv_freed_bytes += 64;
        s.kv_resident_bytes += 32;
        let f = &mut s.failures;
        f.server_crashes += 1;
        f.server_recoveries += 1;
        f.stragglers += 1;
        f.straggled_batches += 2;
        f.requests_displaced += 3;
        f.requests_retried += 2;
        f.recapacity_ms.push(40.0);
        c0.absorb(c1, &[1]);
        let r = c0.finish(SimTime::from_secs(10));
        assert_eq!(r.launches, 3);
        assert_eq!(r.cold_launches, 1);
        assert_eq!(r.prewarmed_launches, 1);
        assert_eq!(r.swap_launches, 1);
        assert_eq!(r.retirements, 1);
        assert_eq!(r.total_completed(), 2);
        assert_eq!(r.functions[1].completed, 1);
        assert_eq!(r.functions[1].violations, 1);
        assert_eq!(r.functions[1].dropped, 1);
        assert_eq!(r.weighted_resource_seconds, 50.0);
        assert_eq!(r.cpu_core_seconds, 30.0);
        assert_eq!(r.gpu_pct_seconds, 100.0);
        let expected = FailureReport {
            server_crashes: 2,
            server_recoveries: 1,
            instances_killed: 1,
            coldstart_failures: 1,
            stragglers: 1,
            straggled_batches: 2,
            requests_displaced: 3,
            requests_retried: 2,
            requests_shed: 1,
            recapacity_ms: vec![40.0],
        };
        assert_eq!(r.failures, expected);
        assert_eq!(
            (r.kv_allocated_bytes, r.kv_freed_bytes, r.kv_resident_bytes),
            (96, 64, 32)
        );
        assert_eq!(r.config_launches[&(0, cfg)], 1);
        assert_eq!(r.config_launches[&(1, cfg)], 2);
        assert_eq!(r.sched_overhead_hist_us.len(), 2);
        assert_eq!(r.sched_overhead_hist_us.max(), Some(5.0));
        assert_eq!(r.dispatch_overhead_ns.len(), 1);
        assert_eq!(r.dispatch_overhead_ns.max(), Some(700.0));
    }

    #[test]
    fn failure_counters_feed_the_report() {
        let mut c = collector();
        c.instance_killed(false);
        c.instance_killed(true);
        c.shed(0);
        let f = &mut c.report.failures;
        f.server_crashes += 1;
        f.stragglers += 1;
        f.straggled_batches += 1;
        f.requests_displaced += 3;
        f.requests_retried += 2;
        f.recapacity_ms.extend([120.0, 80.0]);
        f.server_recoveries += 1;
        let r = c.finish(SimTime::from_secs(1));
        let f = &r.failures;
        assert!(f.any());
        assert_eq!(f.server_crashes, 1);
        assert_eq!(f.server_recoveries, 1);
        assert_eq!(f.instances_killed, 2);
        assert_eq!(f.coldstart_failures, 1);
        assert_eq!(f.stragglers, 1);
        assert_eq!(f.straggled_batches, 1);
        assert_eq!(f.requests_displaced, 3);
        assert_eq!(f.requests_retried, 2);
        assert_eq!(f.requests_shed, 1);
        assert_eq!(f.mean_time_to_recapacity_ms(), Some(100.0));
        // Shed requests count as drops, so they bite the violation rate.
        assert_eq!(r.total_dropped(), 1);
        assert_eq!(r.violation_rate(), 1.0);
    }

    /// Satellite 6: old serialized reports (no failure section) must
    /// keep deserializing, and a fault-free section is all defaults.
    #[test]
    fn failure_report_deserializes_from_empty_object() {
        let f: FailureReport = serde_json::from_str("{}").unwrap();
        assert_eq!(f, FailureReport::default());
        assert!(!f.any());
        assert_eq!(f.mean_time_to_recapacity_ms(), None);
        let partial: FailureReport =
            serde_json::from_str("{\"requests_shed\": 7, \"recapacity_ms\": [5.0]}").unwrap();
        assert_eq!(partial.requests_shed, 7);
        assert_eq!(partial.mean_time_to_recapacity_ms(), Some(5.0));
        // Round-trip.
        let json = serde_json::to_string(&partial).unwrap();
        let back: FailureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, partial);
    }

    /// Headline percentiles read from the latency histogram stay
    /// within its documented 2⁻⁸ relative error bound.
    #[test]
    fn latency_percentiles_hold_the_histogram_bound() {
        let mut c = collector();
        for i in 1..=100u64 {
            record_completion(&mut c, 0, [i, 0, 0], 1);
        }
        let r = c.finish(SimTime::from_secs(10));
        let f = &r.functions[0];
        for q in [50.0, 95.0, 99.0] {
            let got = f.latency_ms.quantile(q / 100.0).unwrap();
            assert!((got - q).abs() / q <= 1.0 / 256.0, "p{q}: {got}");
        }
        assert_eq!(f.latency_ms.len() as u64, f.completed);
        // The batch-size histogram mirrors per_batch_completed.
        assert_eq!(f.batch_sizes.len(), 100);
        assert_eq!(f.batch_sizes.quantile(1.0), Some(1.0));
    }

    /// Satellite: old serialized reports (no time-series section) must
    /// keep deserializing, mirroring the FailureReport pattern above.
    #[test]
    fn timeseries_summary_deserializes_from_empty_object() {
        let t: TimeseriesSummary = serde_json::from_str("{}").unwrap();
        assert_eq!(t, TimeseriesSummary::default());
        assert!(!t.any());
        let partial: TimeseriesSummary =
            serde_json::from_str("{\"samples\": 3, \"peak_instances\": 9}").unwrap();
        assert_eq!(partial.samples, 3);
        assert_eq!(partial.peak_instances, 9);
        assert_eq!(partial.max_queue_depth, 0);
        let json = serde_json::to_string(&partial).unwrap();
        let back: TimeseriesSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, partial);
    }

    #[test]
    fn observed_gauges_reach_the_report() {
        let mut c = collector();
        c.report.timeseries_summary.observe(4, 0.5, 0.25, 7, 2);
        c.report.timeseries_summary.observe(6, 0.75, 0.5, 3, 1);
        let r = c.finish(SimTime::from_secs(1));
        let t = &r.timeseries_summary;
        assert!(t.any());
        assert_eq!(t.samples, 2);
        assert_eq!(t.peak_instances, 6);
        assert_eq!(t.max_queue_depth, 7);
        assert!((t.mean_instances - 5.0).abs() < 1e-12);
        assert!((t.peak_cpu_occupancy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = collector().finish(SimTime::from_secs(1));
        assert_eq!(r.total_completed(), 0);
        assert_eq!(r.violation_rate(), 0.0);
        assert_eq!(r.goodput_rps(), 0.0);
        assert_eq!(r.throughput_per_resource(), 0.0);
        assert_eq!(r.cold_request_rate(), 0.0);
        assert_eq!(r.cold_launch_rate(), 0.0);
        assert!(r.canonical_json().contains("\"fragment_mean\": null"));
    }
}
