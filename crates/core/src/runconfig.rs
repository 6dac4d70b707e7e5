//! The unified execution API: one [`RunConfig`] builder instead of a
//! `run_*` method per feature combination.
//!
//! Every way of running a workload — sharded or single-core, with or
//! without fault injection, telemetry, the GPU memory tier or output
//! files — is a knob on [`RunConfig`]. One executor,
//! `infless_baselines::System::serve`, honours every knob on every
//! platform; the entry points build a deployment and hand it the config
//! by value (the telemetry sink is an owned trait object):
//!
//! ```ignore
//! let report = scenario.execute(RunConfig::new().shards(4))?;
//! let report = System::Torpor.execute(cluster, &functions, &workload, seed,
//!     RunConfig::new().fault_schedule(faults).decisions_out("decisions.jsonl"));
//! ```
//!
//! Leaving every knob at its default runs the classic single-shard,
//! fault-free, telemetry-free, residency-free simulation —
//! bit-identical to the pre-`RunConfig` `run()` path. Every requested
//! output file is created (or truncated) before the first event, so an
//! unwritable path fails the run before it starts.

use std::fmt;
use std::path::PathBuf;

use infless_faults::FaultSchedule;
use infless_llm::LlmConfig;
use infless_telemetry::TelemetrySink;

use crate::platform::ScalePolicy;
use crate::residency::ResidencyConfig;

/// Execution knobs for a single simulation run.
///
/// Not `Clone` (the telemetry sink is an owned trait object); build
/// one per run.
#[derive(Default)]
pub struct RunConfig {
    /// Simulation shards. Zero (the default) means unset: the classic
    /// single-core event loop. Any explicit count — including 1 —
    /// runs the deterministic epoch-barrier sharded driver, whose
    /// report is byte-identical for every shard count (but not to the
    /// single-core loop, which schedules eagerly rather than at epoch
    /// barriers).
    pub shards: usize,
    /// Faults to inject. `None` is bit-identical to an empty schedule.
    pub fault_schedule: Option<FaultSchedule>,
    /// Telemetry sink. `None` is bit-identical to a `NullSink`.
    pub telemetry: Option<Box<dyn TelemetrySink>>,
    /// GPU memory tier knobs. `None` leaves the tier disabled (the
    /// pre-tier engine, bit-identical).
    pub residency: Option<ResidencyConfig>,
    /// Autoregressive (LLM) serving knobs. `None` — or a config with
    /// `enabled: false` — is bit-identical to the pre-LLM engine.
    pub llm: Option<LlmConfig>,
    /// Where to write the decision trace (JSONL). Unlike `telemetry`
    /// this works with sharding: the driver merges every shard's
    /// records deterministically at epoch barriers.
    pub decisions_out: Option<PathBuf>,
    /// Where to write the Prometheus text-format metrics snapshot at
    /// the end of the run. Works at every shard count.
    pub metrics_out: Option<PathBuf>,
    /// Where the flight recorder writes its postmortem dumps: a
    /// bounded ring of recent spans, flushed when a fault burst hits.
    /// The file is truncated at run start, so a run without a burst
    /// leaves it empty. Rides the span channel, so — like `telemetry`
    /// — single-core runs only.
    pub flight_out: Option<PathBuf>,
    /// Residual-coverage policy override. `None` defers to the
    /// scenario descriptor (whose own default is `Horizontal` —
    /// launch-only, bit-identical to the pre-resize engine).
    pub scale_policy: Option<ScalePolicy>,
}

impl fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunConfig")
            .field("shards", &self.effective_shards())
            .field("fault_schedule", &self.fault_schedule)
            .field("telemetry", &self.telemetry.is_some())
            .field("residency", &self.residency)
            .field("llm", &self.llm)
            .field("decisions_out", &self.decisions_out)
            .field("metrics_out", &self.metrics_out)
            .field("flight_out", &self.flight_out)
            .field("scale_policy", &self.scale_policy)
            .finish()
    }
}

/// What [`RunConfig::validate`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunConfigError {
    /// `shards` was set to zero explicitly (the `Default` zero means
    /// "unset" and resolves to 1; this error fires only via
    /// [`RunConfig::shards`]-built configs round-tripped through
    /// descriptor files that say `"shards": 0`).
    ZeroShards,
    /// Telemetry sinks attach to the single-core event loop only; the
    /// sharded driver (any explicit shard count, even 1) has no span
    /// ordering to offer.
    ShardedTelemetry,
}

impl fmt::Display for RunConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            RunConfigError::ShardedTelemetry => {
                write!(
                    f,
                    "telemetry requires the single-core run (leave shards unset)"
                )
            }
        }
    }
}

impl std::error::Error for RunConfigError {}

impl RunConfig {
    /// A default config: single shard, no faults, no telemetry, no
    /// residency tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an explicit shard count, opting into the epoch-barrier
    /// sharded driver — even at 1 shard. Leave unset for the classic
    /// single-core event loop.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Attaches a fault schedule.
    pub fn fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.fault_schedule = Some(faults);
        self
    }

    /// Attaches a telemetry sink (single-shard runs only).
    pub fn telemetry(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Enables the GPU memory tier with the given knobs.
    pub fn residency(mut self, residency: ResidencyConfig) -> Self {
        self.residency = Some(residency);
        self
    }

    /// Sets the autoregressive (LLM) serving knobs.
    pub fn llm(mut self, llm: LlmConfig) -> Self {
        self.llm = Some(llm);
        self
    }

    /// Writes a decision trace (JSONL) to `path`, streamed in bounded
    /// memory. Valid at every shard count, with a byte-identical trace.
    pub fn decisions_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.decisions_out = Some(path.into());
        self
    }

    /// Writes an end-of-run Prometheus text-format metrics snapshot to
    /// `path`. Valid at every shard count.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Writes flight-recorder dumps (a bounded span ring flushed on
    /// fault bursts) to `path`, truncated at run start. Single-core
    /// runs only, like [`telemetry`](Self::telemetry).
    pub fn flight_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_out = Some(path.into());
        self
    }

    /// Overrides the residual-coverage policy (`vertical-first` turns
    /// on in-place instance resizing; `horizontal` is the launch-only
    /// default). Overrides the scenario descriptor's `policy` field.
    pub fn scale_policy(mut self, policy: ScalePolicy) -> Self {
        self.scale_policy = Some(policy);
        self
    }

    /// The shard count to run with: an unset (`Default`) zero means 1.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            1
        } else {
            self.shards
        }
    }

    /// Whether an explicit shard count was set — the opt-in to the
    /// epoch-barrier sharded driver (shard-count-invariant, but not
    /// byte-identical to the eager single-core loop).
    pub fn is_sharded(&self) -> bool {
        self.shards != 0
    }

    /// Checks the knob combination. The run executor calls this first;
    /// callers that want a friendly error before spending simulation
    /// time can call it themselves.
    pub fn validate(&self) -> Result<(), RunConfigError> {
        if self.is_sharded() && (self.telemetry.is_some() || self.flight_out.is_some()) {
            return Err(RunConfigError::ShardedTelemetry);
        }
        Ok(())
    }

    /// Like [`validate`](Self::validate), but for configs deserialized
    /// from descriptor files where an explicit `"shards": 0` is a user
    /// error rather than "unset".
    pub fn validate_explicit_shards(shards: usize) -> Result<(), RunConfigError> {
        if shards == 0 {
            return Err(RunConfigError::ZeroShards);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_telemetry::NullSink;

    #[test]
    fn default_is_single_shard_and_valid() {
        let cfg = RunConfig::new();
        assert_eq!(cfg.effective_shards(), 1);
        assert!(cfg.fault_schedule.is_none());
        assert!(cfg.telemetry.is_none());
        assert!(cfg.residency.is_none());
        assert!(cfg.llm.is_none());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sharded_telemetry_is_rejected() {
        let cfg = RunConfig::new().shards(4).telemetry(Box::new(NullSink));
        assert_eq!(cfg.validate(), Err(RunConfigError::ShardedTelemetry));
        // An explicit shard count — even 1 — opts into the sharded
        // driver, which carries no telemetry.
        let cfg = RunConfig::new().shards(1).telemetry(Box::new(NullSink));
        assert_eq!(cfg.validate(), Err(RunConfigError::ShardedTelemetry));
        // Telemetry on the default single-core loop is fine.
        let cfg = RunConfig::new().telemetry(Box::new(NullSink));
        assert!(cfg.validate().is_ok());
        assert!(!RunConfig::new().is_sharded());
        assert!(RunConfig::new().shards(1).is_sharded());
        // The decisions/metrics channels, by contrast, are merged at
        // epoch barriers and therefore valid at every shard count.
        let cfg = RunConfig::new()
            .shards(4)
            .decisions_out("decisions.jsonl")
            .metrics_out("metrics.prom");
        assert!(cfg.validate().is_ok());
        // The flight recorder rides the span channel, so it shares the
        // single-core-only restriction.
        let cfg = RunConfig::new().shards(4).flight_out("flight.jsonl");
        assert_eq!(cfg.validate(), Err(RunConfigError::ShardedTelemetry));
        assert!(RunConfig::new()
            .flight_out("flight.jsonl")
            .validate()
            .is_ok());
    }

    #[test]
    fn explicit_zero_shards_is_rejected() {
        assert_eq!(
            RunConfig::validate_explicit_shards(0),
            Err(RunConfigError::ZeroShards)
        );
        assert!(RunConfig::validate_explicit_shards(1).is_ok());
    }

    #[test]
    fn builder_round_trip() {
        let cfg = RunConfig::new()
            .shards(4)
            .fault_schedule(FaultSchedule::empty())
            .residency(crate::residency::ResidencyConfig::enabled())
            .llm(infless_llm::LlmConfig::continuous());
        assert_eq!(cfg.effective_shards(), 4);
        assert!(cfg.fault_schedule.is_some());
        assert!(cfg.llm.is_some_and(|l| l.enabled));
        assert!(cfg.residency.is_some_and(|r| r.enabled));
        assert!(RunConfig::new().validate().is_ok());
    }

    #[test]
    fn scale_policy_defaults_unset_and_overrides() {
        assert!(RunConfig::new().scale_policy.is_none());
        let cfg = RunConfig::new().scale_policy(ScalePolicy::VerticalFirst);
        assert_eq!(cfg.scale_policy, Some(ScalePolicy::VerticalFirst));
        assert!(cfg.validate().is_ok());
        assert_eq!(
            ScalePolicy::parse("vertical-first"),
            Some(ScalePolicy::VerticalFirst)
        );
        assert_eq!(
            ScalePolicy::parse("horizontal"),
            Some(ScalePolicy::Horizontal)
        );
        assert_eq!(ScalePolicy::parse("diagonal"), None);
        assert_eq!(ScalePolicy::VerticalFirst.name(), "vertical-first");
        assert_eq!(ScalePolicy::default(), ScalePolicy::Horizontal);
    }
}
