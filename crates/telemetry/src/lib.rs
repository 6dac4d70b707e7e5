//! Run telemetry: what happened *inside* a run, not just after it.
//!
//! The paper's evaluation argues through distributions and trajectories
//! — per-request latency CDFs (Fig. 12), instance counts over time
//! (Fig. 14), batch-size mixes (Fig. 13) — so the simulator needs a way
//! to see a run at request granularity without perturbing it. This
//! crate provides three pieces, threaded through the engine by
//! `infless-core`:
//!
//! * [`SpanEvent`] — per-request lifecycle spans (arrival → enqueued →
//!   batch-formed → exec-start → complete/dropped/shed, plus fault
//!   displacement and retry). A run with no output is bit-identical to
//!   one that never heard of this crate: the engine builds a record
//!   only on a channel some output asked for ([`Channels`]), and
//!   emission never touches the RNG or schedules events.
//! * [`GaugeRow`] / [`TimeseriesSummary`] — tick-driven gauge sampling
//!   (instance counts, CPU/GPU occupancy, queue depth, in-flight
//!   batches) into fixed-interval rows, with a constant-size summary
//!   that is always maintained (it is a handful of max/mean updates per
//!   scaler tick) and folded into the run report.
//! * [`Log2Histogram`] — the log-linear histogram over integer ticks
//!   ([`TICKS_PER_UNIT`] per unit of the field) behind the report's
//!   latency and batch-size percentiles, with an exact sum (quantile
//!   error ≤ 2⁻⁸ relative, documented on the type).
//!
//! Every output reads one ordered record path. The engine emits spans,
//! gauge rows and decisions as [`Record`]s into a plain buffer; the
//! driver hands it to a [`RecordWriter`], which releases records in
//! canonical `(t_s, fn, channel, seq)` order once its watermark passes
//! them — as events go by on the eager loop, at every epoch barrier on
//! the sharded driver — and fans each out to the outputs on its
//! channel. Every output is a [`TelemetrySink`]: the span trace and CSV
//! time-series ([`FileSink`]), the decision trace ([`DecisionFile`]),
//! the [`FlightRecorder`] (a bounded ring of recent spans dumped on
//! fault bursts), the Prometheus snapshot ([`MetricsSink`] plus
//! [`MetricsRegistry`]) and any caller-supplied sink. So every output
//! works the same way, byte-identically, at every shard count.
//! [`summarize`] reads a trace back, validates the schema, and
//! recomputes the fault-conservation invariants
//! (`displaced == retried + shed`) from spans alone.
//!
//! The decision layer ([`DecisionEvent`] / [`BreakdownEvent`]) extends
//! the same machinery below the request lifecycle: *why* the scheduler,
//! consolidator, keep-alive reaper, and KV admission gate acted, plus a
//! per-request SLO latency decomposition, on the decisions channel
//! gated by [`TelemetrySink::decisions_enabled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod decision;
mod flight;
mod hist;
mod record;
mod registry;
mod sink;
mod summary;
mod timeseries;

pub use analyze::{analyze, analyze_file, DecisionAnalysis, FunctionAttribution, STAGES};
pub use decision::{
    BreakdownEvent, DecisionEvent, DecisionFile, DecisionKind, DecisionReason, DecisionRecord,
};
pub use flight::{
    FlightRecorder, FLIGHT_BURST_THRESHOLD, FLIGHT_BURST_WINDOW_S, FLIGHT_MAX_DUMPS,
    FLIGHT_RING_CAPACITY,
};
pub use hist::{Log2Histogram, TICKS_PER_UNIT};
pub use record::{Channels, Record, RecordWriter};
pub use registry::{validate_prometheus_text, MetricsRegistry, MetricsSink};
pub use sink::{
    FaultTag, FileSink, MemorySink, MemoryStore, NullSink, OutputError, SpanEvent, SpanKind,
    TelemetrySink, TraceMeta,
};
pub use summary::{summarize, summarize_file, TraceSummary};
pub use timeseries::{GaugeRow, TimeseriesSummary};
