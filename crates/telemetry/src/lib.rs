//! Run telemetry: what happened *inside* a run, not just after it.
//!
//! The paper's evaluation argues through distributions and trajectories
//! — per-request latency CDFs (Fig. 12), instance counts over time
//! (Fig. 14), batch-size mixes (Fig. 13) — so the simulator needs a way
//! to see a run at request granularity without perturbing it. This
//! crate provides three pieces, threaded through the engine by
//! `infless-core`:
//!
//! * [`SpanEvent`] / [`TelemetrySink`] — per-request lifecycle spans
//!   (arrival → enqueued → batch-formed → exec-start →
//!   complete/dropped/shed, plus fault displacement and retry), pushed
//!   into a pluggable sink. The default [`NullSink`] makes a
//!   telemetry-free run bit-identical to one that never heard of this
//!   crate: span emission is gated on [`TelemetrySink::enabled`], never
//!   touches the RNG, and never schedules events.
//! * [`GaugeRow`] / [`TimeseriesSummary`] — tick-driven gauge sampling
//!   (instance counts, CPU/GPU occupancy, queue depth, in-flight
//!   batches) into fixed-interval rows, with a constant-size summary
//!   that is always maintained (it is a handful of max/mean updates per
//!   scaler tick) and folded into the run report.
//! * [`Log2Histogram`] — the log2-bucketed histogram behind the
//!   report's latency and batch-size percentiles, replacing the
//!   retain-and-sort quantile path (relative error ≤ 2⁻⁷, documented
//!   on the type).
//!
//! File outputs ([`FileSink`]) are a JSONL trace (one span per line,
//! preceded by a metadata record) and a CSV time-series; both are
//! written through reused buffers so the per-event hot path allocates
//! nothing after warm-up. [`summarize`] reads a trace back, validates
//! the schema, and recomputes the fault-conservation invariants
//! (`displaced == retried + shed`) from spans alone.

//!
//! The decision layer ([`DecisionEvent`] / [`BreakdownEvent`]) extends
//! the same machinery below the request lifecycle: *why* the scheduler,
//! consolidator, keep-alive reaper, and KV admission gate acted, plus a
//! per-request SLO latency decomposition, all on a dedicated
//! `--decisions-out` channel gated by
//! [`TelemetrySink::decisions_enabled`]. [`DecisionWriter`] streams
//! that channel to disk in canonical order, holding only the records
//! its clock has not yet passed. [`MetricsRegistry`] renders an
//! exportable Prometheus text surface, and [`FlightRecorder`] keeps a
//! bounded ring of recent spans that dumps to JSONL on fault bursts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod decision;
mod flight;
mod hist;
mod registry;
mod sink;
mod summary;
mod timeseries;

pub use analyze::{analyze, analyze_file, DecisionAnalysis, FunctionAttribution, STAGES};
pub use decision::{
    write_decision_trace, BreakdownEvent, DecisionEvent, DecisionKind, DecisionOut, DecisionReason,
    DecisionRecord, DecisionTap, DecisionWriter,
};
pub use flight::{
    FlightRecorder, FLIGHT_BURST_THRESHOLD, FLIGHT_BURST_WINDOW_S, FLIGHT_MAX_DUMPS,
    FLIGHT_RING_CAPACITY,
};
pub use hist::Log2Histogram;
pub use registry::{validate_prometheus_text, MetricsHandle, MetricsRegistry};
pub use sink::{
    FaultTag, FileSink, MemorySink, MemoryStore, NullSink, SpanEvent, SpanKind, TelemetrySink,
    TraceMeta, SPAN_RING_CAPACITY,
};
pub use summary::{summarize, summarize_file, TraceSummary};
pub use timeseries::{GaugeRow, TimeseriesSummary};
