//! Shared harness for the figure/table reproduction benches.
//!
//! Every bench target in `benches/` regenerates one figure or table of
//! the paper's evaluation: it prints the same rows/series the paper
//! reports and appends a machine-readable copy to
//! `target/infless-results/<experiment>.json` (consumed when updating
//! EXPERIMENTS.md).
//!
//! Conventions:
//!
//! * `INFLESS_QUICK=1` shrinks sweeps for smoke runs.
//! * All workloads and platforms are seeded; re-running a bench
//!   reproduces its numbers exactly (up to wall-clock overhead
//!   measurements).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use infless_baselines::{
    BatchConfig, BatchPlacement, BatchPlatform, ReactiveConfig, ReactivePlatform,
};
use infless_cluster::ClusterSpec;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_core::runconfig::RunConfig;
use infless_core::sharded::ShardedInfless;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_models::CacheOutcome;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, TracePattern, Workload};

/// `true` when `INFLESS_QUICK=1`: benches shrink their sweeps.
pub fn quick() -> bool {
    std::env::var("INFLESS_QUICK").is_ok_and(|v| v == "1")
}

/// Scales a duration down 4x in quick mode.
pub fn maybe_quick(d: SimDuration) -> SimDuration {
    if quick() {
        d / 4
    } else {
        d
    }
}

/// Prints the standard experiment header.
pub fn header(experiment: &str, paper_ref: &str, what: &str) {
    println!("==============================================================");
    println!("{experiment}  ({paper_ref})");
    println!("{what}");
    println!("==============================================================");
}

/// Appends a JSON record for this experiment under
/// `target/infless-results/`.
pub fn record(experiment: &str, value: serde_json::Value) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    let _ = fs::write(
        path,
        serde_json::to_string_pretty(&value).unwrap_or_default(),
    );
}

fn results_dir() -> PathBuf {
    // target/ relative to the workspace root, regardless of cwd.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.join("target").join("infless-results")
}

/// The platforms under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The one-to-one baseline.
    OpenFaasPlus,
    /// The OTP batching baseline.
    Batch,
    /// BATCH with best-fit placement (Fig. 17b).
    BatchRs,
    /// The paper's system.
    Infless,
    /// The GPU-memory-tier baseline (host-RAM model cache + PCIe
    /// swap-in launches).
    Torpor,
}

impl System {
    /// The Figs. 11/12/15 comparison trio.
    pub fn trio() -> [System; 3] {
        [System::OpenFaasPlus, System::Batch, System::Infless]
    }

    /// The trio plus the Torpor swap baseline — the cold-start and
    /// failure-sweep comparison set.
    pub fn all() -> [System; 4] {
        [
            System::OpenFaasPlus,
            System::Batch,
            System::Torpor,
            System::Infless,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::OpenFaasPlus => "OpenFaaS+",
            System::Batch => "BATCH",
            System::BatchRs => "BATCH+RS",
            System::Infless => "INFless",
            System::Torpor => "Torpor",
        }
    }

    /// Runs this system with default knobs — shorthand for
    /// [`System::execute`] with a default [`RunConfig`].
    pub fn run(
        self,
        cluster: ClusterSpec,
        functions: &[FunctionInfo],
        workload: &Workload,
        seed: u64,
    ) -> RunReport {
        self.execute(cluster, functions, workload, seed, RunConfig::new())
    }

    /// Runs this system under the unified execution API: shards, fault
    /// schedule, telemetry sink and residency knobs all ride in
    /// `config`. A default config is the classic single-core,
    /// fault-free, telemetry-free run, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`RunConfig::validate`], when it asks
    /// for a decision trace, metrics snapshot or flight-recorder dump
    /// (only `Scenario::execute` writes those files), or when a
    /// sharded run (an explicit shard count, even 1) is requested for
    /// a system other than INFless — the baselines have no
    /// epoch-barrier driver.
    pub fn execute(
        self,
        cluster: ClusterSpec,
        functions: &[FunctionInfo],
        workload: &Workload,
        seed: u64,
        config: RunConfig,
    ) -> RunReport {
        if let Err(e) = config.validate() {
            panic!("invalid run config for {}: {e}", self.name());
        }
        if config.decisions_out.is_some()
            || config.metrics_out.is_some()
            || config.flight_out.is_some()
        {
            panic!(
                "invalid run config for {}: decisions_out, metrics_out and flight_out are \
                 written only by Scenario::execute",
                self.name()
            );
        }
        let sharded = config.is_sharded().then(|| config.effective_shards());
        // Empty schedule and NullSink are the platforms' own defaults;
        // attaching them explicitly is bit-identical to not doing so.
        let schedule = config.fault_schedule.unwrap_or_else(FaultSchedule::empty);
        let sink = config
            .telemetry
            .unwrap_or_else(|| Box::new(infless_telemetry::NullSink));
        let llm = config.llm.unwrap_or_default();
        let infless_config = || {
            let mut cfg = InflessConfig::default();
            if let Some(residency) = config.residency {
                cfg.residency = residency;
            }
            cfg.llm = llm;
            if let Some(policy) = config.scale_policy {
                cfg.scale_policy = policy;
            }
            cfg
        };
        if let Some(shards) = sharded {
            assert!(
                self == System::Infless,
                "sharded execution is INFless-only; {} has no epoch-barrier driver",
                self.name()
            );
            return ShardedInfless::new(cluster, functions.to_vec(), infless_config(), seed)
                .with_fault_schedule(schedule)
                .run(workload, shards);
        }
        match self {
            System::OpenFaasPlus | System::Torpor => {
                let reactive = if self == System::Torpor {
                    ReactiveConfig::torpor()
                } else {
                    ReactiveConfig::openfaas()
                };
                ReactivePlatform::new(cluster, functions.to_vec(), reactive, seed)
                    .with_fault_schedule(schedule)
                    .with_telemetry(sink)
                    .with_llm(llm)
                    .run(workload)
            }
            System::Batch | System::BatchRs => {
                let mut batch = BatchConfig::default();
                if self == System::BatchRs {
                    batch.placement = BatchPlacement::BestFit;
                }
                BatchPlatform::with_config(cluster, functions.to_vec(), batch, seed)
                    .with_fault_schedule(schedule)
                    .with_telemetry(sink)
                    .with_llm(llm)
                    .run(workload)
            }
            System::Infless => {
                InflessPlatform::new(cluster, functions.to_vec(), infless_config(), seed)
                    .with_fault_schedule(schedule)
                    .with_telemetry(sink)
                    .run(workload)
            }
        }
    }
}

/// Generates the seeded fault schedule for a `(plan, cluster,
/// workload, seed)` tuple. Every system handed the same arguments
/// faces the *identical* sequence of crashes, kills and stragglers,
/// so report differences are recovery-policy differences, not luck.
pub fn fault_schedule_for(
    plan: &FaultPlan,
    cluster: ClusterSpec,
    workload: &Workload,
    seed: u64,
) -> FaultSchedule {
    let horizon = workload
        .end_time()
        .saturating_since(infless_sim::SimTime::ZERO);
    FaultSchedule::generate(plan, cluster.servers, horizon, seed)
}

/// Builds per-function loads of the same trace pattern (independent
/// streams) over `duration` at `mean_rps` each.
pub fn pattern_workload(
    functions: usize,
    pattern: TracePattern,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
) -> Workload {
    let loads: Vec<FunctionLoad> = (0..functions)
        .map(|i| FunctionLoad::trace(pattern, mean_rps, duration, seed + 1000 + i as u64))
        .collect();
    Workload::build(&loads, seed)
}

/// Builds constant stress loads.
pub fn constant_workload(functions: usize, rps: f64, duration: SimDuration, seed: u64) -> Workload {
    let loads: Vec<FunctionLoad> = (0..functions)
        .map(|_| FunctionLoad::constant(rps, duration))
        .collect();
    Workload::build(&loads, seed)
}

/// Runs independent experiment closures on worker threads and returns
/// their results in input order. Every experiment is seeded, so
/// parallel execution cannot change any number — only the wall-clock
/// time of `cargo bench`.
pub fn run_parallel<F, R>(jobs: Vec<F>) -> Vec<R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}

/// Short provenance tag for a run's COP profile database: built by this
/// run or shared with an earlier run in the same process.
pub fn cache_tag(report: &RunReport) -> &'static str {
    match report.profile_cache {
        Some(CacheOutcome::MemoryHit) => "profile-db cache hit",
        Some(CacheOutcome::DiskHit) => "profile-db disk hit",
        Some(CacheOutcome::Built) => "profile-db built",
        None => "no profile-db",
    }
}

/// One per-run accounting line of the parallel harness: wall-clock time
/// of the run (construction + simulation) and where its profile
/// database came from.
pub fn timing_line(label: &str, report: &RunReport) -> String {
    format!(
        "  {:<14} wall {:>7.2}s  ({})",
        label,
        report.wall_clock_seconds,
        cache_tag(report)
    )
}

/// Prints the per-run wall-clock block for a batch of labelled reports.
pub fn print_timings<'a>(runs: impl IntoIterator<Item = (&'a str, &'a RunReport)>) {
    println!("per-run wall-clock (parallel harness):");
    for (label, report) in runs {
        println!("{}", timing_line(label, report));
    }
}

/// The run's time-series gauge summary as a JSON value, for embedding
/// in `record()` payloads.
pub fn timeseries_json(report: &RunReport) -> serde_json::Value {
    serde_json::to_value(&report.timeseries_summary)
}

/// A compact one-line summary used by several benches.
pub fn summarize_line(report: &RunReport) -> String {
    format!(
        "completed={} dropped={} viol={:.2}% goodput={:.1}rps thpt/res={:.3} cold={:.2}%",
        report.total_completed(),
        report.total_dropped(),
        report.violation_rate() * 100.0,
        report.goodput_rps(),
        report.throughput_per_resource(),
        report.cold_request_rate() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_reads_env() {
        // Not set in the test environment by default.
        assert!(!quick() || std::env::var("INFLESS_QUICK").is_ok());
    }

    #[test]
    fn systems_have_names() {
        assert_eq!(System::Infless.name(), "INFless");
        assert_eq!(System::trio().len(), 3);
    }

    #[test]
    #[should_panic(expected = "written only by Scenario::execute")]
    fn execute_rejects_file_outputs_it_would_drop() {
        let w = constant_workload(1, 10.0, SimDuration::from_secs(1), 1);
        let functions = [FunctionInfo::new(
            infless_models::ModelId::Mnist.spec(),
            SimDuration::from_millis(100),
        )];
        System::Infless.execute(
            ClusterSpec::testbed(),
            &functions,
            &w,
            1,
            RunConfig::new()
                .decisions_out("decisions.jsonl")
                .metrics_out("metrics.prom"),
        );
    }

    #[test]
    fn workload_builders_produce_load() {
        let w = constant_workload(2, 10.0, SimDuration::from_secs(5), 1);
        assert_eq!(w.len(), 100);
        let w = pattern_workload(
            2,
            TracePattern::Periodic,
            10.0,
            SimDuration::from_mins(2),
            1,
        );
        assert!(!w.is_empty());
    }
}
