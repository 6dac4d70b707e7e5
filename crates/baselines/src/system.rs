//! The platform registry and the one run executor.
//!
//! [`System`] names every platform under comparison, and
//! [`System::serve`] is the only code that turns a [`RunConfig`] into a
//! run: it dispatches explicit shard counts to the epoch-barrier
//! driver, applies the config's overrides onto the caller's
//! [`Deployment`], opens every requested output before the first event
//! as one output of the ordered record path, and writes the metrics
//! snapshot at the end.
//! `System::execute` (the bench harness) and `Scenario::execute` (the
//! descriptor pipeline) both build a deployment and call it.

use std::fmt;
use std::fs::File;
use std::path::{Path, PathBuf};

use infless_cluster::ClusterSpec;
use infless_core::chains::ChainSpec;
use infless_core::driver::{self, Platform};
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_core::runconfig::RunConfig;
use infless_core::sharded::ShardedInfless;
use infless_faults::FaultSchedule;
use infless_telemetry::{
    DecisionFile, FlightRecorder, MetricsRegistry, MetricsSink, RecordWriter, TelemetrySink,
};
use infless_workload::Workload;

use crate::{BatchConfig, BatchPlacement, BatchPlatform, LaunchPath, ReactivePlatform};

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

/// What a platform is asked to serve, before a [`RunConfig`] varies
/// it: the cluster, the deployed functions and chains, the platform
/// seed, and the base fault schedule and INFless configuration that
/// the config's overrides apply onto.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The cluster the platform runs on.
    pub cluster: ClusterSpec,
    /// The deployed functions.
    pub functions: Vec<FunctionInfo>,
    /// Function chains (INFless only; empty for the baselines).
    pub chains: Vec<ChainSpec>,
    /// The platform's seed.
    pub seed: u64,
    /// Faults injected unless the config carries its own schedule.
    pub faults: FaultSchedule,
    /// The INFless configuration the config's residency, LLM and
    /// scale-policy overrides apply onto. Its `llm` block is also what
    /// every platform's engine runs with when the config sets none.
    pub infless: InflessConfig,
}

impl Deployment {
    /// A chainless, fault-free deployment on the default INFless
    /// configuration.
    pub fn new(cluster: ClusterSpec, functions: Vec<FunctionInfo>, seed: u64) -> Self {
        Deployment {
            cluster,
            functions,
            chains: Vec::new(),
            seed,
            faults: FaultSchedule::empty(),
            infless: InflessConfig::default(),
        }
    }
}

/// Why [`System::serve`] refused or failed a run.
#[derive(Debug)]
pub enum RunError {
    /// An explicit shard count was requested for a platform without an
    /// epoch-barrier driver (every platform but INFless).
    ShardedBaseline(&'static str),
    /// A requested output file could not be created or written.
    Output {
        /// The output's path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ShardedBaseline(name) => write!(
                f,
                "sharded execution is INFless-only; {name} has no epoch-barrier driver"
            ),
            RunError::Output { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::ShardedBaseline(_) => None,
            RunError::Output { source, .. } => Some(source),
        }
    }
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

    /// Serves `workload` on a [`Deployment::new`] deployment (the
    /// default INFless configuration, no faults of its own) under
    /// `config`. A default config is the classic single-core,
    /// fault-free, telemetry-free run, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when [`System::serve`] fails: a sharded run of a
    /// baseline, or an output file that cannot be written.
    pub fn execute(
        self,
        cluster: ClusterSpec,
        functions: &[FunctionInfo],
        workload: &Workload,
        seed: u64,
        config: RunConfig,
    ) -> RunReport {
        let deployment = Deployment::new(cluster, functions.to_vec(), seed);
        self.serve(deployment, workload, config)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", self.name()))
    }

    /// Refuses an explicit shard count for a platform without an
    /// epoch-barrier driver (every platform but INFless). [`System::serve`]
    /// checks this before it opens any output; a caller that opens an
    /// output itself, such as a telemetry sink, checks it first too, so
    /// a refused run creates and truncates no file.
    ///
    /// # Errors
    ///
    /// [`RunError::ShardedBaseline`] when `config` is sharded and this
    /// system is not INFless.
    pub fn check_shards(self, config: &RunConfig) -> Result<(), RunError> {
        if config.is_sharded() && self != System::Infless {
            return Err(RunError::ShardedBaseline(self.name()));
        }
        Ok(())
    }

    /// The run executor: serves `workload` on `deployment` under
    /// `config`.
    ///
    /// The config's fault schedule replaces the deployment's; its
    /// residency, LLM and scale-policy knobs override the deployment's
    /// INFless configuration. An explicit shard count (even 1) runs the
    /// epoch-barrier [`ShardedInfless`] driver. Every requested output
    /// is created (or truncated) before the first event and becomes one
    /// output of a [`RecordWriter`]: the config's sink, the decision
    /// trace, the flight recorder and the metrics snapshot's gauge
    /// consumer. The sharded driver feeds that writer the same records
    /// in the same order at every shard count, so every output is
    /// byte-identical across shard counts. With no output requested
    /// the engine builds no record.
    ///
    /// # Errors
    ///
    /// [`RunError::ShardedBaseline`] for a sharded run of a baseline
    /// (see [`System::check_shards`]); [`RunError::Output`] when an
    /// output file cannot be created or written.
    pub fn serve(
        self,
        deployment: Deployment,
        workload: &Workload,
        config: RunConfig,
    ) -> Result<RunReport, RunError> {
        self.check_shards(&config)?;
        let shards = config.is_sharded().then(|| config.effective_shards());
        let mut outputs: Vec<Box<dyn TelemetrySink>> = config.telemetry.into_iter().collect();
        if let Some(path) = &config.decisions_out {
            outputs.push(Box::new(
                DecisionFile::create(path).map_err(|e| output_error(path, e))?,
            ));
        }
        if let Some(path) = &config.flight_out {
            outputs.push(Box::new(
                FlightRecorder::create(path).map_err(|e| output_error(path, e))?,
            ));
        }
        let metrics = match &config.metrics_out {
            Some(path) => {
                File::create(path).map_err(|e| output_error(path, e))?;
                let sink = MetricsSink::default();
                outputs.push(Box::new(sink.clone()));
                Some((path, sink))
            }
            None => None,
        };
        let mut writer = (!outputs.is_empty()).then(|| RecordWriter::new(outputs));

        let Deployment {
            cluster,
            functions,
            chains,
            seed,
            faults,
            mut infless,
        } = deployment;
        let schedule = config.fault_schedule.unwrap_or(faults);
        let llm = config.llm.unwrap_or(infless.llm);
        infless.llm = llm;
        if let Some(residency) = config.residency {
            infless.residency = residency;
        }
        if let Some(policy) = config.scale_policy {
            infless.scale_policy = policy;
        }

        let records = writer.as_mut();
        let report = match (self, shards) {
            (System::Infless, Some(shards)) => {
                ShardedInfless::with_chains(cluster, functions, chains, infless, seed)
                    .with_fault_schedule(schedule)
                    .run_into(workload, shards, records)
            }
            (System::Infless, None) => {
                let platform =
                    InflessPlatform::with_chains(cluster, functions, chains, infless, seed);
                driver::run_recorded(platform, workload, &schedule, records)
            }
            (System::OpenFaasPlus | System::Torpor, _) => {
                let launch = if self == System::Torpor {
                    LaunchPath::SwapIn
                } else {
                    LaunchPath::Boot
                };
                let mut platform = ReactivePlatform::new(cluster, functions, launch, seed);
                platform.engine().apply_llm(llm);
                driver::run_recorded(platform, workload, &schedule, records)
            }
            (System::Batch | System::BatchRs, _) => {
                let mut batch = BatchConfig::default();
                if self == System::BatchRs {
                    batch.placement = BatchPlacement::BestFit;
                }
                let mut platform = BatchPlatform::with_config(cluster, functions, batch, seed);
                platform.engine().apply_llm(llm);
                driver::run_recorded(platform, workload, &schedule, records)
            }
        };

        if let Some(writer) = &mut writer {
            writer
                .finish()
                .map_err(|e| output_error(&e.path, e.source))?;
        }
        if let Some((path, sink)) = metrics {
            export_metrics(&report, sink.registry(), path)?;
        }
        Ok(report)
    }
}

fn output_error(path: &Path, source: std::io::Error) -> RunError {
    RunError::Output {
        path: path.to_path_buf(),
        source,
    }
}

/// Folds the finished report's totals into the registry of gauge
/// readings as counter families and writes the Prometheus text
/// snapshot.
fn export_metrics(
    report: &RunReport,
    mut reg: MetricsRegistry,
    path: &Path,
) -> Result<(), RunError> {
    for f in &report.functions {
        for (name, help, value) in [
            (
                "infless_requests_completed_total",
                "Requests completed.",
                f.completed,
            ),
            (
                "infless_requests_dropped_total",
                "Requests dropped at the gateway.",
                f.dropped,
            ),
            (
                "infless_slo_violations_total",
                "Completed requests that exceeded their latency SLO.",
                f.violations,
            ),
            (
                "infless_cold_requests_total",
                "Completed requests that observed a cold start.",
                f.cold_requests,
            ),
        ] {
            reg.counter_add(name, help, &[("function", f.name.as_str())], value as f64);
        }
    }
    for (path_label, count) in [
        ("cold", report.cold_launches),
        ("pre_warmed", report.prewarmed_launches),
        ("swap_in", report.swap_launches),
    ] {
        reg.counter_add(
            "infless_launches_total",
            "Instance launches by startup path.",
            &[("path", path_label)],
            count as f64,
        );
    }
    reg.write_to(path).map_err(|e| output_error(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_models::ModelId;
    use infless_sim::SimDuration;
    use infless_telemetry::{validate_prometheus_text, MemorySink};
    use infless_workload::FunctionLoad;

    #[test]
    fn systems_have_names() {
        assert_eq!(System::Infless.name(), "INFless");
        assert_eq!(System::trio().len(), 3);
    }

    /// `System::execute` writes the decision trace and the metrics
    /// snapshot at every shard count: the sharded traces agree byte for
    /// byte, and the eager trace holds what the config's own sink saw,
    /// in the same order.
    #[test]
    fn execute_honours_every_output() {
        let dir = std::env::temp_dir().join(format!("infless-system-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let functions = [FunctionInfo::new(
            ModelId::Mnist.spec(),
            SimDuration::from_millis(100),
        )];
        let workload = Workload::build(
            &[FunctionLoad::constant(40.0, SimDuration::from_secs(3))],
            1,
        );
        let execute = |label: &str, config: RunConfig| {
            let (decisions, metrics) = (
                dir.join(format!("{label}.decisions.jsonl")),
                dir.join(format!("{label}.metrics.prom")),
            );
            let config = config.decisions_out(&decisions).metrics_out(&metrics);
            System::Infless.execute(ClusterSpec::testbed(), &functions, &workload, 1, config);
            let text = std::fs::read_to_string(&metrics).unwrap();
            validate_prometheus_text(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
            std::fs::read(&decisions).unwrap()
        };

        let s1 = execute("s1", RunConfig::new().shards(1));
        let s4 = execute("s4", RunConfig::new().shards(4));
        assert_eq!(s1, s4, "sharded decision traces diverged");

        let capture = MemorySink::new();
        let eager = execute(
            "eager",
            RunConfig::new().telemetry(Box::new(capture.clone())),
        );
        let store = capture.store();
        assert!(!store.decisions.is_empty(), "the run made no decisions");
        let eager = String::from_utf8(eager).unwrap();
        let mut lines = eager.lines();
        assert!(lines.next().unwrap().starts_with("{\"meta\""));
        let records: Vec<String> = store.decisions.iter().map(|r| r.to_string()).collect();
        assert_eq!(lines.collect::<Vec<_>>(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
