//! Deployment descriptors: the paper's Fig. 5 function template, as a
//! JSON scenario file.
//!
//! INFless accepts inference deployments declaratively — function name,
//! model, latency SLO and batchsize cap (`faas-cli` parses the YAML in
//! the original). This module provides the equivalent for the
//! reproduction: a [`Scenario`] describing the cluster, the platform,
//! the deployed functions with their loads, and optional function
//! chains. `cargo run --bin inflessctl -- scenarios/osvt.json` runs one
//! end to end.
//!
//! # Example
//!
//! ```
//! use infless::descriptor::Scenario;
//! use infless::RunConfig;
//!
//! let json = r#"{
//!   "platform": "infless",
//!   "seed": 7,
//!   "cluster": { "servers": 2 },
//!   "functions": [
//!     { "name": "detector", "model": "SSD", "slo_ms": 200,
//!       "load": { "kind": "constant", "rps": 20.0, "duration_secs": 10 } }
//!   ]
//! }"#;
//! let scenario = Scenario::from_json(json)?;
//! let report = scenario.execute(RunConfig::new())?;
//! assert!(report.total_completed() > 0);
//! # Ok::<(), infless::descriptor::ScenarioError>(())
//! ```
//!
//! Shards, telemetry sinks, fault schedules and residency overrides
//! all ride in the [`RunConfig`] — `RunConfig::new().shards(4)`
//! replays the same scenario through the epoch-barrier sharded engine,
//! byte-identically.

use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::Deserialize;

use infless_baselines::{BatchPlatform, ReactiveConfig, ReactivePlatform};
use infless_cluster::ClusterSpec;
use infless_core::chains::ChainSpec;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{ColdStartConfig, InflessConfig, InflessPlatform, ScalePolicy};
use infless_core::residency::ResidencyConfig;
use infless_core::runconfig::RunConfig;
use infless_core::ShardedInfless;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_telemetry::{
    write_decision_trace, DecisionBufferSink, DecisionRecord, FlightRecorder, GaugeRow,
    MetricsHandle, MetricsRegistry, SpanEvent, TelemetrySink, TraceMeta,
};
use infless_workload::{FunctionLoad, TracePattern, Workload};

/// Which platform serves the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum PlatformKind {
    /// The paper's system.
    Infless,
    /// The one-to-one baseline.
    Openfaas,
    /// The OTP batching baseline.
    Batch,
}

/// Cluster shape (defaults to the Table 2 testbed).
#[derive(Debug, Clone, Copy, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClusterDescriptor {
    /// Number of servers.
    pub servers: usize,
    /// CPU threads per server.
    pub cores_per_server: u32,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Memory per server, MB.
    pub mem_per_server_mb: f64,
    /// Device memory per GPU, MB (0 = hardware default).
    pub gpu_mem_per_device_mb: f64,
}

impl Default for ClusterDescriptor {
    fn default() -> Self {
        let t = ClusterSpec::testbed();
        ClusterDescriptor {
            servers: t.servers,
            cores_per_server: t.cores_per_server,
            gpus_per_server: t.gpus_per_server,
            mem_per_server_mb: t.mem_per_server_mb,
            gpu_mem_per_device_mb: t.gpu_mem_per_device_mb,
        }
    }
}

impl ClusterDescriptor {
    fn to_spec(self) -> ClusterSpec {
        ClusterSpec {
            servers: self.servers,
            cores_per_server: self.cores_per_server,
            gpus_per_server: self.gpus_per_server,
            mem_per_server_mb: self.mem_per_server_mb,
            gpu_mem_per_device_mb: self.gpu_mem_per_device_mb,
        }
    }
}

/// The load offered to one function.
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase", deny_unknown_fields)]
pub enum LoadDescriptor {
    /// Evenly-spaced arrivals.
    Constant {
        /// Requests per second.
        rps: f64,
        /// Load duration in seconds.
        duration_secs: u64,
    },
    /// A synthetic production-trace pattern (Poisson arrivals).
    Trace {
        /// `sporadic` / `periodic` / `bursty` / `diurnal`.
        pattern: String,
        /// Time-average RPS.
        mean_rps: f64,
        /// Load duration in seconds.
        duration_secs: u64,
    },
    /// A row of an Azure-format invocation CSV, replayed as Poisson
    /// arrivals per minute.
    Csv {
        /// Path to the trace file (relative to the working directory).
        path: String,
        /// The row's function identifier.
        function: String,
    },
    /// No external load (chain-interior stages).
    None,
}

/// The autoregressive class of one function, by workload archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum LlmClassKind {
    /// Interactive chat: short prompts/outputs, tight TTFT and TPOT.
    Chat,
    /// Batch summarization: long prompts/outputs, loose per-token
    /// targets (the end-to-end SLO dominates).
    Summarize,
}

impl LlmClassKind {
    fn to_class(self) -> LlmClass {
        match self {
            LlmClassKind::Chat => LlmClass::chat(),
            LlmClassKind::Summarize => LlmClass::summarize(),
        }
    }
}

/// One deployed function (the Fig. 5 template).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FunctionDescriptor {
    /// The function's name (referenced by chains).
    pub name: String,
    /// Model name from the zoo (case/separator-insensitive).
    pub model: String,
    /// Latency SLO in milliseconds.
    pub slo_ms: u64,
    /// Optional batchsize cap (`maxBatchsize`).
    #[serde(default)]
    pub max_batch: Option<u32>,
    /// Optional autoregressive class (`chat` / `summarize`). Requires
    /// the scenario's `llm` block to be enabled; omitted means the
    /// function serves one-shot inference.
    #[serde(default)]
    pub llm_class: Option<LlmClassKind>,
    /// The offered load.
    pub load: LoadDescriptor,
}

/// A function chain (the §7 extension).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChainDescriptor {
    /// The chain's name.
    pub name: String,
    /// Stage function names, in order.
    pub stages: Vec<String>,
    /// End-to-end SLO in milliseconds.
    pub e2e_slo_ms: u64,
}

/// A complete, runnable scenario.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// The platform to run (`infless` / `openfaas` / `batch`).
    pub platform: PlatformKind,
    /// Run seed (all randomness derives from it).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Cluster shape (Table 2 testbed by default).
    #[serde(default)]
    pub cluster: ClusterDescriptor,
    /// The deployed functions.
    pub functions: Vec<FunctionDescriptor>,
    /// Function chains (INFless platform only).
    #[serde(default)]
    pub chains: Vec<ChainDescriptor>,
    /// Optional fault-injection plan (per-hour rates for server
    /// crashes, instance kills, cold-start failures and stragglers).
    /// Omitted or all-zero means a healthy cluster.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// GPU memory-tier knobs (INFless platform only). Omitted means
    /// disabled — the run stays bit-identical to the pre-tier engine.
    #[serde(default)]
    pub residency: ResidencyConfig,
    /// Autoregressive (LLM) serving knobs. Omitted means disabled —
    /// the run stays bit-identical to the pre-LLM engine.
    #[serde(default)]
    pub llm: LlmConfig,
    /// Residual-coverage scaling policy (`horizontal` /
    /// `vertical-first`). Omitted means `horizontal` — launch-only,
    /// bit-identical to the pre-resize engine.
    #[serde(default)]
    pub policy: ScalePolicy,
}

fn default_seed() -> u64 {
    42
}

/// Everything a platform run needs, built once from the descriptor.
struct ScenarioParts {
    functions: Vec<FunctionInfo>,
    workload: Workload,
    chains: Vec<ChainSpec>,
    cluster: ClusterSpec,
    schedule: FaultSchedule,
}

/// Wraps a run's telemetry sink with a decisions tap: every decision
/// record is buffered (for the `--decisions-out` artifact) *and*
/// forwarded to the inner sink. The tap reports `decisions_enabled`
/// itself but delegates `enabled` — wrapping a [`infless_telemetry::NullSink`]
/// turns on decision emission without paying for span construction.
#[derive(Debug)]
struct DecisionTap {
    inner: Box<dyn TelemetrySink>,
    buf: DecisionBufferSink,
    meta: Arc<Mutex<Option<TraceMeta>>>,
}

impl TelemetrySink for DecisionTap {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        *self.meta.lock().expect("trace meta poisoned") = Some(meta.clone());
        self.inner.begin(meta);
    }

    fn record(&mut self, span: SpanEvent) {
        self.inner.record(span);
    }

    fn sample(&mut self, row: &GaugeRow) {
        self.inner.sample(row);
    }

    fn decisions_enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, rec: &DecisionRecord) {
        self.buf.record_decision(rec);
        self.inner.record_decision(rec);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Sorts decision records into their canonical `(t_s, function, seq)`
/// total order — the order the sharded merge uses, so single-core and
/// sharded artifacts are directly comparable.
fn sort_decisions(records: &mut [DecisionRecord]) {
    records.sort_by(|a, b| {
        let (ta, fa, sa) = a.sort_key();
        let (tb, fb, sb) = b.sort_key();
        ta.total_cmp(&tb).then(fa.cmp(&fb)).then(sa.cmp(&sb))
    });
}

/// Folds the finished report's totals into the metrics registry as
/// counter families and writes the Prometheus text snapshot.
fn export_metrics(
    report: &RunReport,
    handle: &MetricsHandle,
    path: &Path,
) -> Result<(), ScenarioError> {
    let mut reg = handle.lock().expect("metrics registry poisoned");
    for f in &report.functions {
        let labels = [("function", f.name.as_str())];
        reg.counter_add(
            "infless_requests_completed_total",
            "Requests completed.",
            &labels,
            f.completed as f64,
        );
        reg.counter_add(
            "infless_requests_dropped_total",
            "Requests dropped at the gateway.",
            &labels,
            f.dropped as f64,
        );
        reg.counter_add(
            "infless_slo_violations_total",
            "Completed requests that exceeded their latency SLO.",
            &labels,
            f.violations as f64,
        );
        reg.counter_add(
            "infless_cold_requests_total",
            "Completed requests that observed a cold start.",
            &labels,
            f.cold_requests as f64,
        );
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
    reg.write_to(path).map_err(ScenarioError::Io)
}

/// Errors building or running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// File could not be read.
    Io(std::io::Error),
    /// JSON was malformed.
    Json(serde_json::Error),
    /// The scenario was semantically invalid.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "failed to read scenario: {e}"),
            ScenarioError::Json(e) => write!(f, "failed to parse scenario: {e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io(e) => Some(e),
            ScenarioError::Json(e) => Some(e),
            ScenarioError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Json(e)
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on semantic problems (unknown model,
    /// unknown chain stage, …).
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let scenario: Scenario = serde_json::from_str(json)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads a scenario from a file.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_json`], plus I/O errors.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        Self::from_json(&fs::read_to_string(path)?)
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.functions.is_empty() {
            return Err(ScenarioError::Invalid("no functions declared".into()));
        }
        let mut expected_arrivals = 0.0;
        for f in &self.functions {
            f.model
                .parse::<ModelId>()
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
            if f.slo_ms == 0 {
                return Err(ScenarioError::Invalid(format!(
                    "function {:?} has a zero SLO",
                    f.name
                )));
            }
            if f.max_batch == Some(0) {
                return Err(ScenarioError::Invalid(format!(
                    "function {:?} has a zero max_batch",
                    f.name
                )));
            }
            match &f.load {
                LoadDescriptor::Constant { rps, duration_secs } => {
                    check_rate(&f.name, "rps", *rps, *duration_secs)?;
                    expected_arrivals += rps * *duration_secs as f64;
                }
                LoadDescriptor::Trace {
                    pattern,
                    mean_rps,
                    duration_secs,
                } => {
                    parse_pattern(pattern)?;
                    check_rate(&f.name, "mean_rps", *mean_rps, *duration_secs)?;
                    expected_arrivals += mean_rps * *duration_secs as f64;
                }
                LoadDescriptor::Csv { .. } | LoadDescriptor::None => {}
            }
            if f.llm_class.is_some() && !self.llm.enabled {
                return Err(ScenarioError::Invalid(format!(
                    "function {:?} declares an llm_class but the scenario's \
                     llm block is disabled",
                    f.name
                )));
            }
        }
        if expected_arrivals > MAX_EXPECTED_ARRIVALS {
            return Err(ScenarioError::Invalid(format!(
                "the loads expect {expected_arrivals:.3e} arrivals; \
                 at most {MAX_EXPECTED_ARRIVALS:.0e} are supported"
            )));
        }
        for c in &self.chains {
            if self.platform != PlatformKind::Infless {
                return Err(ScenarioError::Invalid(
                    "function chains require the INFless platform".into(),
                ));
            }
            for stage in &c.stages {
                if !self.functions.iter().any(|f| &f.name == stage) {
                    return Err(ScenarioError::Invalid(format!(
                        "chain {:?} references unknown function {stage:?}",
                        c.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the function table, chains and workload, runs the chosen
    /// platform to completion under `config`, and returns the report.
    ///
    /// The [`RunConfig`] carries everything that varies a run of the
    /// same descriptor: shard count (an explicit count — even 1 —
    /// drives the INFless platform through the epoch-barrier
    /// [`ShardedInfless`] engine, byte-identically for every shard
    /// count), a telemetry sink
    /// (attaching [`infless_telemetry::NullSink`] is bit-identical to
    /// attaching none), an explicit fault schedule (overrides the
    /// descriptor's `faults` plan when set), and a residency override
    /// (overrides the descriptor's `residency` block when set).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if a CSV load cannot be read or a
    /// referenced row is missing; [`ScenarioError::Invalid`] when
    /// `config` fails [`RunConfig::validate`] or requests a sharded
    /// run for a baseline platform (only the INFless engine is
    /// sharded).
    pub fn execute(&self, config: RunConfig) -> Result<RunReport, ScenarioError> {
        config
            .validate()
            .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let sharded = config.is_sharded().then(|| config.effective_shards());
        let llm = config.llm.unwrap_or(self.llm);
        let mut parts = self.build_parts(llm)?;
        if let Some(schedule) = config.fault_schedule {
            parts.schedule = schedule;
        }
        let decisions_out = config.decisions_out;
        let metrics_out = config.metrics_out;
        let flight_out = config.flight_out;
        let metrics = metrics_out.as_ref().map(|_| MetricsRegistry::handle());
        let policy = config.scale_policy.unwrap_or(self.policy);
        let infless_config = self.infless_config(config.residency, llm, policy);

        if let Some(shards) = sharded {
            if self.platform != PlatformKind::Infless {
                return Err(ScenarioError::Invalid(
                    "sharded execution requires the INFless platform".into(),
                ));
            }
            let meta = TraceMeta {
                platform: "INFless".to_string(),
                functions: parts
                    .functions
                    .iter()
                    .map(|f| f.spec().name().to_string())
                    .collect(),
            };
            let mut runner = ShardedInfless::with_chains(
                parts.cluster,
                parts.functions,
                parts.chains,
                infless_config,
                self.seed,
            )
            .with_fault_schedule(parts.schedule);
            if let Some(handle) = &metrics {
                runner = runner.with_metrics(handle.clone());
            }
            let report = match &decisions_out {
                Some(path) => {
                    let (report, records) = runner.run_with_decisions(&parts.workload, shards);
                    write_decision_trace(path, &meta, &records)?;
                    report
                }
                None => runner.run(&parts.workload, shards),
            };
            if let (Some(handle), Some(path)) = (&metrics, &metrics_out) {
                export_metrics(&report, handle, path)?;
            }
            return Ok(report);
        }

        let inner = config
            .telemetry
            .unwrap_or_else(|| Box::new(infless_telemetry::NullSink));
        // The decisions tap buffers every record alongside whatever the
        // user's sink does with them, so the JSONL artifact can be
        // written in canonical sort order at the end of the run.
        let tap = decisions_out.as_ref().map(|_| {
            (
                DecisionBufferSink::new(),
                Arc::new(Mutex::new(None::<TraceMeta>)),
            )
        });
        let sink: Box<dyn TelemetrySink> = match &tap {
            Some((buf, meta)) => Box::new(DecisionTap {
                inner,
                buf: buf.clone(),
                meta: meta.clone(),
            }),
            None => inner,
        };
        // The flight recorder wraps outermost so its ring sees every
        // span, whatever the user sink keeps.
        let sink: Box<dyn TelemetrySink> = match &flight_out {
            Some(path) => Box::new(FlightRecorder::new(sink, path.clone())),
            None => sink,
        };

        let report = match self.platform {
            PlatformKind::Infless => {
                let mut platform = InflessPlatform::with_chains(
                    parts.cluster,
                    parts.functions,
                    parts.chains,
                    infless_config,
                    self.seed,
                )
                .with_fault_schedule(parts.schedule)
                .with_telemetry(sink);
                if let Some(handle) = &metrics {
                    platform = platform.with_metrics(handle.clone());
                }
                platform.run(&parts.workload)
            }
            PlatformKind::Openfaas => {
                let mut platform = ReactivePlatform::new(
                    parts.cluster,
                    parts.functions,
                    ReactiveConfig::openfaas(),
                    self.seed,
                )
                .with_fault_schedule(parts.schedule)
                .with_telemetry(sink)
                .with_llm(llm);
                if let Some(handle) = &metrics {
                    platform = platform.with_metrics(handle.clone());
                }
                platform.run(&parts.workload)
            }
            PlatformKind::Batch => {
                let mut platform = BatchPlatform::new(parts.cluster, parts.functions, self.seed)
                    .with_fault_schedule(parts.schedule)
                    .with_telemetry(sink)
                    .with_llm(llm);
                if let Some(handle) = &metrics {
                    platform = platform.with_metrics(handle.clone());
                }
                platform.run(&parts.workload)
            }
        };
        if let (Some((buf, meta)), Some(path)) = (&tap, &decisions_out) {
            let mut records = buf.drain();
            sort_decisions(&mut records);
            let meta = meta
                .lock()
                .expect("trace meta poisoned")
                .take()
                .expect("set_telemetry announces the run before it starts");
            write_decision_trace(path, &meta, &records)?;
        }
        if let (Some(handle), Some(path)) = (&metrics, &metrics_out) {
            export_metrics(&report, handle, path)?;
        }
        Ok(report)
    }

    /// The INFless configuration every scenario run uses (LSTH
    /// keep-alive, the descriptor's residency block unless overridden
    /// by the run config) — shared by the single-core and sharded
    /// paths so their reports stay comparable.
    fn infless_config(
        &self,
        residency_override: Option<ResidencyConfig>,
        llm: LlmConfig,
        policy: ScalePolicy,
    ) -> InflessConfig {
        InflessConfig {
            coldstart: ColdStartConfig::Lsth { gamma: 0.5 },
            residency: residency_override.unwrap_or(self.residency),
            llm,
            scale_policy: policy,
            ..InflessConfig::default()
        }
    }

    /// Builds everything a platform needs from the descriptor: the
    /// function table, the workload, the chains, the cluster spec and
    /// the fault schedule.
    fn build_parts(&self, llm: LlmConfig) -> Result<ScenarioParts, ScenarioError> {
        let functions: Vec<FunctionInfo> = self
            .functions
            .iter()
            .map(|f| {
                let id: ModelId = f.model.parse().expect("validated");
                let slo = SimDuration::from_millis(f.slo_ms);
                let info = match f.max_batch {
                    Some(cap) => FunctionInfo::with_max_batch(id.spec(), slo, cap),
                    None => FunctionInfo::new(id.spec(), slo),
                };
                // Classes attach only when the effective llm block is
                // enabled, so a disabled run is the pre-LLM engine.
                match f.llm_class {
                    Some(kind) if llm.enabled => info.with_llm(kind.to_class()),
                    _ => info,
                }
            })
            .collect();

        let loads: Result<Vec<FunctionLoad>, ScenarioError> = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| self.build_load(i, f))
            .collect();
        let workload = Workload::build(&loads?, self.seed);

        let chains: Vec<ChainSpec> = self
            .chains
            .iter()
            .map(|c| {
                let stages = c
                    .stages
                    .iter()
                    .map(|name| {
                        self.functions
                            .iter()
                            .position(|f| &f.name == name)
                            .expect("validated")
                    })
                    .collect();
                ChainSpec::new(
                    c.name.clone(),
                    stages,
                    SimDuration::from_millis(c.e2e_slo_ms),
                )
            })
            .collect();

        let cluster = self.cluster.to_spec();
        // One schedule per scenario: every platform run from the same
        // file faces the identical fault sequence.
        let schedule = match &self.faults {
            Some(plan) => {
                let horizon = workload
                    .end_time()
                    .saturating_since(infless_sim::SimTime::ZERO);
                FaultSchedule::generate(plan, cluster.servers, horizon, self.seed)
            }
            None => FaultSchedule::empty(),
        };
        Ok(ScenarioParts {
            functions,
            workload,
            chains,
            cluster,
            schedule,
        })
    }

    fn build_load(
        &self,
        index: usize,
        f: &FunctionDescriptor,
    ) -> Result<FunctionLoad, ScenarioError> {
        match &f.load {
            LoadDescriptor::Constant { rps, duration_secs } => Ok(FunctionLoad::constant(
                *rps,
                SimDuration::from_secs(*duration_secs),
            )),
            LoadDescriptor::Trace {
                pattern,
                mean_rps,
                duration_secs,
            } => Ok(FunctionLoad::trace(
                parse_pattern(pattern).expect("validated"),
                *mean_rps,
                SimDuration::from_secs(*duration_secs),
                self.seed + index as u64,
            )),
            LoadDescriptor::Csv { path, function } => {
                let file = fs::File::open(path)?;
                let rows = infless_workload::read_csv(file)
                    .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
                let row = rows.iter().find(|r| r.name() == function).ok_or_else(|| {
                    ScenarioError::Invalid(format!("trace {path:?} has no row named {function:?}"))
                })?;
                Ok(row.to_load())
            }
            LoadDescriptor::None => Ok(FunctionLoad::explicit(Vec::new())),
        }
    }
}

/// The most arrivals a scenario's curve-driven loads may expect in
/// total (Σ rate × `duration_secs`): twenty times the 1e8 of
/// `fig_scale`'s full run. Arrival schedules are generated up front, so
/// a scenario far past this aborts on allocation instead of running.
pub const MAX_EXPECTED_ARRIVALS: f64 = 2e9;

/// The longest load in seconds whose microsecond length fits the
/// simulator's `u64` clock.
const MAX_DURATION_SECS: u64 = u64::MAX / 1_000_000;

/// Rejects a curve-driven load the workload generators cannot build: a
/// zero duration or one past the simulator's clock, or a rate that is
/// negative or not finite.
fn check_rate(
    function: &str,
    field: &str,
    rate: f64,
    duration_secs: u64,
) -> Result<(), ScenarioError> {
    if duration_secs == 0 {
        return Err(ScenarioError::Invalid(format!(
            "function {function:?} has a zero duration_secs"
        )));
    }
    if duration_secs > MAX_DURATION_SECS {
        return Err(ScenarioError::Invalid(format!(
            "function {function:?} has duration_secs {duration_secs}; \
             the simulator's microsecond clock holds at most {MAX_DURATION_SECS}"
        )));
    }
    if !(rate.is_finite() && rate >= 0.0) {
        return Err(ScenarioError::Invalid(format!(
            "function {function:?} has {field} {rate}; it must be finite and non-negative"
        )));
    }
    Ok(())
}

fn parse_pattern(name: &str) -> Result<TracePattern, ScenarioError> {
    TracePattern::all()
        .into_iter()
        .find(|p| p.name() == name.to_ascii_lowercase())
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown trace pattern {name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "functions": [
            { "name": "a", "model": "MobileNet", "slo_ms": 100,
              "load": { "kind": "constant", "rps": 15.0, "duration_secs": 10 } }
        ]
    }"#;

    #[test]
    fn minimal_scenario_parses_and_runs() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(s.seed, 42, "seed defaults");
        assert_eq!(s.cluster.cores_per_server, 32, "cluster fields default");
        assert!(!s.residency.enabled, "residency defaults to disabled");
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);
    }

    #[test]
    fn rejects_unknown_model() {
        let bad = MINIMAL.replace("MobileNet", "AlexNet");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn rejects_unknown_chain_stage() {
        let json = r#"{
            "platform": "infless",
            "functions": [
                { "name": "a", "model": "SSD", "slo_ms": 200,
                  "load": { "kind": "none" } },
                { "name": "b", "model": "ResNet-50", "slo_ms": 200,
                  "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "c", "stages": ["a", "nope"], "e2e_slo_ms": 400 } ]
        }"#;
        let err = Scenario::from_json(json).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn rejects_chains_on_baselines() {
        let json = r#"{
            "platform": "batch",
            "functions": [
                { "name": "a", "model": "SSD", "slo_ms": 200, "load": { "kind": "none" } },
                { "name": "b", "model": "ResNet-50", "slo_ms": 200, "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "c", "stages": ["a", "b"], "e2e_slo_ms": 400 } ]
        }"#;
        let err = Scenario::from_json(json).unwrap_err();
        assert!(err.to_string().contains("INFless platform"));
    }

    /// Parses `json`, expecting a clean [`ScenarioError::Invalid`]
    /// naming `needle` rather than a panic further down the pipeline.
    fn assert_invalid(json: &str, needle: &str) {
        match Scenario::from_json(json) {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Invalid({needle:?}), got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_max_batch() {
        let bad = MINIMAL.replace("\"slo_ms\": 100,", "\"slo_ms\": 100, \"max_batch\": 0,");
        assert_invalid(&bad, "zero max_batch");
    }

    #[test]
    fn rejects_zero_duration() {
        assert_invalid(
            &MINIMAL.replace("\"duration_secs\": 10", "\"duration_secs\": 0"),
            "zero duration_secs",
        );
        let trace = MINIMAL.replace(
            r#""kind": "constant", "rps": 15.0, "duration_secs": 10"#,
            r#""kind": "trace", "pattern": "bursty", "mean_rps": 5.0, "duration_secs": 0"#,
        );
        assert_invalid(&trace, "zero duration_secs");
    }

    #[test]
    fn rejects_negative_or_non_finite_rate() {
        for rps in ["-5.0", "1e400"] {
            let bad = MINIMAL.replace("\"rps\": 15.0", &format!("\"rps\": {rps}"));
            assert_invalid(&bad, "finite and non-negative");
        }
        let trace = MINIMAL.replace(
            r#""kind": "constant", "rps": 15.0"#,
            r#""kind": "trace", "pattern": "bursty", "mean_rps": -5.0"#,
        );
        assert_invalid(&trace, "mean_rps -5");
        // A zero rate is a legal idle load.
        assert!(Scenario::from_json(&MINIMAL.replace("\"rps\": 15.0", "\"rps\": 0.0")).is_ok());
    }

    #[test]
    fn rejects_duration_past_the_microsecond_clock() {
        // Zero rate: only the duration is out of range.
        let idle = MINIMAL.replace("\"rps\": 15.0", "\"rps\": 0.0");
        let over = (MAX_DURATION_SECS + 1).to_string();
        assert_invalid(
            &idle.replace(
                "\"duration_secs\": 10",
                &format!("\"duration_secs\": {over}"),
            ),
            "microsecond clock",
        );
        let max = MAX_DURATION_SECS.to_string();
        assert!(Scenario::from_json(&idle.replace(
            "\"duration_secs\": 10",
            &format!("\"duration_secs\": {max}")
        ))
        .is_ok());
    }

    #[test]
    fn rejects_expected_arrivals_past_the_ceiling() {
        assert_invalid(
            &MINIMAL.replace("\"rps\": 15.0", "\"rps\": 1e12"),
            "arrivals",
        );
        // The ceiling bounds the sum over functions, trace loads included.
        let half = MINIMAL.replace(
            r#""kind": "constant", "rps": 15.0, "duration_secs": 10"#,
            r#""kind": "trace", "pattern": "bursty", "mean_rps": 1e8, "duration_secs": 12"#,
        );
        assert!(Scenario::from_json(&half).is_ok());
        let f = r#"{ "name": "a", "model": "MobileNet", "slo_ms": 100,
              "load": { "kind": "trace", "pattern": "bursty", "mean_rps": 1e8, "duration_secs": 12 } }"#;
        let twice = half.replace(f, &format!("{f}, {}", f.replace("\"a\"", "\"b\"")));
        assert_ne!(twice, half);
        assert_invalid(&twice, "arrivals");
    }

    #[test]
    fn rejects_unknown_fields() {
        let json = MINIMAL.replace("\"seed\"", "\"sneed\"");
        let with_extra = json.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"turbo\": true,",
        );
        assert!(Scenario::from_json(&with_extra).is_err());
    }

    #[test]
    fn chain_scenario_runs_end_to_end() {
        let json = r#"{
            "platform": "infless",
            "seed": 3,
            "cluster": { "servers": 4 },
            "functions": [
                { "name": "detect", "model": "SSD", "slo_ms": 200,
                  "load": { "kind": "constant", "rps": 20.0, "duration_secs": 15 } },
                { "name": "classify", "model": "resnet50", "slo_ms": 200, "max_batch": 8,
                  "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "pipeline", "stages": ["detect", "classify"], "e2e_slo_ms": 450 } ]
        }"#;
        let report = Scenario::from_json(json)
            .unwrap()
            .execute(RunConfig::new())
            .unwrap();
        assert_eq!(report.chains.len(), 1);
        assert!(report.chains[0].completed > 100);
        // The max_batch cap holds: classify never batches beyond 8.
        let classify = &report.functions[1];
        assert!(classify.per_batch_completed.keys().all(|b| *b <= 8));
    }

    #[test]
    fn sharded_run_is_shard_count_invariant() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let r1 = s.execute(RunConfig::new().shards(1)).unwrap();
        let r3 = s.execute(RunConfig::new().shards(3)).unwrap();
        assert_eq!(r1.canonical_json(), r3.canonical_json());
    }

    #[test]
    fn sharded_run_rejects_baselines_and_bad_configs() {
        // Explicit zero shards is a uniform RunConfig error (the CLI
        // surfaces it before execute is ever reached).
        assert!(infless_core::runconfig::RunConfig::validate_explicit_shards(0).is_err());
        // Sharded + telemetry is rejected by RunConfig::validate.
        let s = Scenario::from_json(MINIMAL).unwrap();
        let cfg = RunConfig::new()
            .shards(2)
            .telemetry(Box::new(infless_telemetry::NullSink));
        assert!(s.execute(cfg).is_err());
        // Only the INFless engine is sharded.
        let batch = MINIMAL.replace("\"infless\"", "\"batch\"");
        let s = Scenario::from_json(&batch).unwrap();
        assert!(s.execute(RunConfig::new().shards(2)).is_err());
    }

    #[test]
    fn residency_block_round_trips_and_rejects_unknown_fields() {
        let json = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"residency\": { \"enabled\": true },",
        );
        let s = Scenario::from_json(&json).unwrap();
        assert!(s.residency.enabled);
        assert_eq!(
            s.residency.host_cache_mb,
            infless_core::residency::DEFAULT_HOST_CACHE_MB,
            "omitted knobs take their defaults"
        );
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);

        let bad = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"residency\": { \"enabld\": true },",
        );
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn policy_field_round_trips_and_rejects_unknown_values() {
        // Omitted means horizontal — the pre-resize engine.
        let plain = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(plain.policy, ScalePolicy::Horizontal);

        let json = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"policy\": \"vertical-first\",",
        );
        let s = Scenario::from_json(&json).unwrap();
        assert_eq!(s.policy, ScalePolicy::VerticalFirst);
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);

        // A RunConfig override beats the descriptor's field.
        let report = s
            .execute(RunConfig::new().scale_policy(ScalePolicy::Horizontal))
            .unwrap();
        let baseline = plain.execute(RunConfig::new()).unwrap();
        assert_eq!(report.canonical_json(), baseline.canonical_json());

        let bad = json.replace("vertical-first", "diagonal");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown scale policy"), "{err}");
    }

    const LLM_MINIMAL: &str = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "llm": { "enabled": true, "batching": "continuous" },
        "functions": [
            { "name": "chat", "model": "Bert-v1", "slo_ms": 10000, "llm_class": "chat",
              "load": { "kind": "constant", "rps": 5.0, "duration_secs": 10 } }
        ]
    }"#;

    #[test]
    fn llm_block_round_trips_and_rejects_unknown_fields() {
        let s = Scenario::from_json(LLM_MINIMAL).unwrap();
        assert!(s.llm.enabled);
        assert_eq!(s.llm.batching, infless_llm::LlmBatching::Continuous);
        assert_eq!(s.functions[0].llm_class, Some(LlmClassKind::Chat));
        // Omitted block is the disabled default.
        let plain = Scenario::from_json(MINIMAL).unwrap();
        assert!(!plain.llm.enabled);
        assert_eq!(plain.llm.batching, infless_llm::LlmBatching::Static);
        // Unknown fields inside the block are rejected.
        let bad = LLM_MINIMAL.replace("\"enabled\"", "\"enbaled\"");
        assert!(Scenario::from_json(&bad).is_err());
        // Unknown class names are rejected.
        let bad = LLM_MINIMAL.replace("\"chat\",", "\"poetry\",");
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn llm_class_requires_enabled_block() {
        let bad = LLM_MINIMAL.replace(
            "\"llm\": { \"enabled\": true, \"batching\": \"continuous\" },",
            "",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("llm block is disabled"), "{err}");
    }

    #[test]
    fn llm_scenario_reports_token_metrics() {
        let s = Scenario::from_json(LLM_MINIMAL).unwrap();
        let report = s.execute(RunConfig::new()).unwrap();
        assert!(report.total_completed() > 0);
        let llm = report.functions[0]
            .llm
            .as_ref()
            .expect("LLM stats on an autoregressive function");
        assert_eq!(llm.ttft_ms.count(), report.total_completed());
        assert!(llm.decoded_tokens > 0);
        assert_eq!(
            report.kv_allocated_bytes,
            report.kv_freed_bytes + report.kv_resident_bytes
        );
    }

    #[test]
    fn csv_load_replays_a_trace_row() {
        let dir = std::env::temp_dir().join("infless-descriptor-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let rows = vec![infless_workload::TraceRow::new("hot", vec![600; 5])];
        let mut buf = Vec::new();
        infless_workload::write_csv(&rows, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();

        let json = format!(
            r#"{{
                "platform": "infless",
                "cluster": {{ "servers": 2 }},
                "functions": [
                    {{ "name": "f", "model": "MNIST", "slo_ms": 50,
                       "load": {{ "kind": "csv", "path": {path:?}, "function": "hot" }} }}
                ]
            }}"#
        );
        let report = Scenario::from_json(&json)
            .unwrap()
            .execute(RunConfig::new())
            .unwrap();
        // ~10 rps over 5 minutes.
        let total = report.total_completed() + report.total_dropped();
        assert!((2000..4500).contains(&(total as usize)), "total {total}");
    }
}
