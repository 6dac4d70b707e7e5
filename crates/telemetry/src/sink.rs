//! Span events and the pluggable telemetry sink.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::decision::DecisionRecord;
use crate::timeseries::GaugeRow;

/// Spans buffered between file flushes. Sized so a flush amortises the
/// syscall without holding a meaningful share of a run's events.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// A stage in a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The request reached the gateway.
    Arrival,
    /// The request was accepted into an instance's batch queue.
    Enqueued,
    /// A batch containing the request was sealed for execution.
    BatchFormed,
    /// The sealed batch began executing (emitted once per batch, keyed
    /// by the batch's first request).
    ExecStart,
    /// The request completed.
    Complete,
    /// The request was dropped at the gateway (no capacity).
    Dropped,
    /// The request was shed by the fault-recovery path.
    Shed,
    /// A fault displaced the request from its instance.
    Displaced,
    /// The displaced request was successfully re-dispatched.
    Retried,
    /// A host-cached model began swapping onto a GPU (instance-scoped:
    /// keyed by a synthetic instance request id, not a real request).
    SwapBegin,
    /// The swap finished and the instance became ready.
    SwapComplete,
    /// An autoregressive sequence was admitted and its prompt prefill
    /// began (for continuous joiners: folded into the next decode step).
    PrefillStart,
    /// The sequence's first output token landed (end of its prefill) —
    /// the TTFT mark.
    FirstToken,
    /// The sequence decoded its last output token. A terminal
    /// [`SpanKind::Complete`] still follows, so span-conservation
    /// invariants hold unchanged for autoregressive requests.
    DecodeComplete,
}

impl SpanKind {
    /// Stable wire name (the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Arrival => "arrival",
            SpanKind::Enqueued => "enqueued",
            SpanKind::BatchFormed => "batch_formed",
            SpanKind::ExecStart => "exec_start",
            SpanKind::Complete => "complete",
            SpanKind::Dropped => "dropped",
            SpanKind::Shed => "shed",
            SpanKind::Displaced => "displaced",
            SpanKind::Retried => "retried",
            SpanKind::SwapBegin => "swap_begin",
            SpanKind::SwapComplete => "swap_complete",
            SpanKind::PrefillStart => "prefill_start",
            SpanKind::FirstToken => "first_token",
            SpanKind::DecodeComplete => "decode_complete",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "arrival" => SpanKind::Arrival,
            "enqueued" => SpanKind::Enqueued,
            "batch_formed" => SpanKind::BatchFormed,
            "exec_start" => SpanKind::ExecStart,
            "complete" => SpanKind::Complete,
            "dropped" => SpanKind::Dropped,
            "shed" => SpanKind::Shed,
            "displaced" => SpanKind::Displaced,
            "retried" => SpanKind::Retried,
            "swap_begin" => SpanKind::SwapBegin,
            "swap_complete" => SpanKind::SwapComplete,
            "prefill_start" => SpanKind::PrefillStart,
            "first_token" => SpanKind::FirstToken,
            "decode_complete" => SpanKind::DecodeComplete,
            _ => return None,
        })
    }
}

/// Which fault displaced a request (annotates [`SpanKind::Displaced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTag {
    /// Not a fault-related span.
    None,
    /// A whole-server crash.
    ServerCrash,
    /// A single-instance kill.
    InstanceKill,
    /// An instance killed while still starting.
    ColdStartFailure,
}

impl FaultTag {
    /// Stable wire name (the JSONL `fault` field).
    pub fn name(self) -> &'static str {
        match self {
            FaultTag::None => "none",
            FaultTag::ServerCrash => "server_crash",
            FaultTag::InstanceKill => "instance_kill",
            FaultTag::ColdStartFailure => "coldstart_failure",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "none" => FaultTag::None,
            "server_crash" => FaultTag::ServerCrash,
            "instance_kill" => FaultTag::InstanceKill,
            "coldstart_failure" => FaultTag::ColdStartFailure,
            _ => return None,
        })
    }
}

/// One lifecycle span. `Copy` and all-numeric by design: recording one
/// is a struct copy into a ring buffer, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Simulated timestamp, seconds.
    pub t_s: f64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Request id.
    pub request: u64,
    /// Function index.
    pub function: u32,
    /// Instance id, or -1 when no instance is involved.
    pub instance: i64,
    /// Server id, or -1 when no server is involved.
    pub server: i64,
    /// Batch size for batch-scoped spans, 0 otherwise.
    pub batch: u32,
    /// Fault annotation ([`FaultTag::None`] outside the fault path).
    pub fault: FaultTag,
}

impl SpanEvent {
    /// Renders the span as one JSONL line (with trailing newline) into
    /// `out`, which is cleared first: the span trace's format and the
    /// flight-recorder dump's alike.
    pub(crate) fn render(&self, out: &mut String) {
        out.clear();
        writeln!(
            out,
            "{{\"t_s\":{},\"kind\":\"{}\",\"req\":{},\"fn\":{},\"inst\":{},\"srv\":{},\
             \"batch\":{},\"fault\":\"{}\"}}",
            self.t_s,
            self.kind.name(),
            self.request,
            self.function,
            self.instance,
            self.server,
            self.batch,
            self.fault.name(),
        )
        .expect("write to String cannot fail");
    }
}

/// Run identification written as the first JSONL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Platform name ("INFless", "OpenFaaS+", "BATCH", …).
    pub platform: String,
    /// Function display names, indexed by function id.
    pub functions: Vec<String>,
}

/// Where the engine sends telemetry.
///
/// The contract that makes a disabled run bit-identical to a
/// telemetry-free one: the engine consults [`enabled`](Self::enabled)
/// before building a [`SpanEvent`] or [`GaugeRow`], and a sink must
/// never influence the simulation (no RNG draws, no event scheduling —
/// the trait gets no access to either).
///
/// Sinks are `Send` because the sharded runner moves each shard's
/// engine (and therefore its sink) onto a worker thread at every epoch.
pub trait TelemetrySink: std::fmt::Debug + Send {
    /// `false` skips span/gauge construction entirely.
    ///
    /// The engine reads this once, when the sink is attached
    /// (`Engine::set_telemetry`), and caches the answer. It must stay
    /// the same for the sink's whole life.
    fn enabled(&self) -> bool;

    /// Called once, before any span, with the run's identity.
    fn begin(&mut self, _meta: &TraceMeta) {}

    /// Records one lifecycle span.
    fn record(&mut self, span: SpanEvent);

    /// Records one time-series gauge row.
    fn sample(&mut self, row: &GaugeRow);

    /// `false` skips decision-event construction entirely. Gated
    /// separately from [`enabled`](Self::enabled) so a decisions-only
    /// sink does not pay for span construction (and vice versa).
    ///
    /// Like [`enabled`](Self::enabled), read once at attach and cached:
    /// the answer must stay the same for the sink's whole life.
    fn decisions_enabled(&self) -> bool {
        false
    }

    /// Records one decision or per-request latency breakdown.
    fn record_decision(&mut self, _rec: &DecisionRecord) {}

    /// Flushes buffered output at the end of the run.
    fn finish(&mut self) {}
}

/// The default sink: telemetry off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: SpanEvent) {}

    fn sample(&mut self, _row: &GaugeRow) {}
}

/// Everything a [`MemorySink`] captured.
#[derive(Debug, Default)]
pub struct MemoryStore {
    /// The run identity, once `begin` has been called.
    pub meta: Option<TraceMeta>,
    /// Every recorded span, in emission order.
    pub spans: Vec<SpanEvent>,
    /// Every sampled gauge row, in emission order.
    pub rows: Vec<GaugeRow>,
    /// Every recorded decision/breakdown, in emission order.
    pub decisions: Vec<DecisionRecord>,
}

/// An in-memory sink for tests: clone the handle, give one clone to the
/// platform, and read the shared store through the other after the run.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    store: Arc<Mutex<MemoryStore>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Read access to everything captured so far.
    ///
    /// # Panics
    ///
    /// Panics if a clone of this sink poisoned the store by panicking
    /// mid-record (the engine never holds the lock across a call
    /// boundary).
    pub fn store(&self) -> MutexGuard<'_, MemoryStore> {
        self.store.lock().expect("telemetry store poisoned")
    }
}

impl TelemetrySink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.store().meta = Some(meta.clone());
    }

    fn record(&mut self, span: SpanEvent) {
        self.store().spans.push(span);
    }

    fn sample(&mut self, row: &GaugeRow) {
        self.store().rows.push(row.clone());
    }

    fn decisions_enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, rec: &DecisionRecord) {
        self.store().decisions.push(*rec);
    }
}

/// A sink writing a JSONL span trace and/or a CSV time-series.
///
/// Formats:
///
/// * Trace (`--trace-out`): one JSON object per line. The first line is
///   `{"meta":{"platform":…,"functions":[…]}}`; every subsequent line
///   has the fixed keys `t_s, kind, req, fn, inst, srv, batch, fault`.
/// * Time-series (`--timeseries-out`): a CSV whose header is
///   `t_s,instances,starting,cpu_occupancy,gpu_occupancy,queue_depth,`
///   `in_flight_batches` followed by one `fn<i>_instances` column per
///   function.
///
/// Hot-path cost: recording a span is a `Copy` into a fixed-capacity
/// ring that is drained through a reused line buffer every
/// [`SPAN_RING_CAPACITY`] events — zero allocations per event after the
/// first flush.
///
/// # Panics
///
/// I/O failures while writing panic (this sink exists to produce the
/// artifact; a silently truncated trace would be worse than a loud
/// abort).
#[derive(Debug)]
pub struct FileSink {
    trace: Option<TraceWriter>,
    timeseries: Option<TimeseriesWriter>,
    functions: Vec<String>,
}

#[derive(Debug)]
struct TraceWriter {
    out: BufWriter<File>,
    ring: Vec<SpanEvent>,
    line: String,
}

#[derive(Debug)]
struct TimeseriesWriter {
    out: BufWriter<File>,
    line: String,
    wrote_header: bool,
}

impl FileSink {
    /// Opens the requested outputs (either may be `None`).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if a file cannot be created.
    pub fn create(
        trace_path: Option<&Path>,
        timeseries_path: Option<&Path>,
    ) -> std::io::Result<FileSink> {
        let trace = match trace_path {
            Some(p) => Some(TraceWriter {
                out: BufWriter::new(File::create(p)?),
                ring: Vec::with_capacity(SPAN_RING_CAPACITY),
                line: String::with_capacity(256),
            }),
            None => None,
        };
        let timeseries = match timeseries_path {
            Some(p) => Some(TimeseriesWriter {
                out: BufWriter::new(File::create(p)?),
                line: String::with_capacity(256),
                wrote_header: false,
            }),
            None => None,
        };
        Ok(FileSink {
            trace,
            timeseries,
            functions: Vec::new(),
        })
    }

    fn flush_ring(trace: &mut TraceWriter) {
        for span in &trace.ring {
            span.render(&mut trace.line);
            trace
                .out
                .write_all(trace.line.as_bytes())
                .expect("write telemetry trace");
        }
        trace.ring.clear();
    }
}

/// Renders the `{"meta":…}` record (with trailing newline) into `out`,
/// which is cleared first. Shared by the span trace and
/// [`crate::write_decision_trace`] so both artifacts open with an
/// identical metadata line.
pub(crate) fn render_meta(meta: &TraceMeta, out: &mut String) {
    out.clear();
    out.push_str("{\"meta\":{\"platform\":\"");
    let mut escaped = String::new();
    escape_json(&meta.platform, &mut escaped);
    out.push_str(&escaped);
    out.push_str("\",\"functions\":[");
    for (i, name) in meta.functions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escaped.clear();
        escape_json(name, &mut escaped);
        out.push_str(&escaped);
        out.push('"');
    }
    out.push_str("]}}\n");
}

/// Minimal JSON string escaping for the metadata record (span lines
/// carry only fixed wire names and numbers, which need none).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// The fixed CSV columns before the per-function instance counts.
const TIMESERIES_HEADER: &str = "t_s,instances,starting,cpu_occupancy,gpu_occupancy,queue_depth,\
                                 in_flight_batches,kv_resident_bytes,host_cache_mb_used";

impl TelemetrySink for FileSink {
    fn enabled(&self) -> bool {
        self.trace.is_some() || self.timeseries.is_some()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.functions = meta.functions.clone();
        if let Some(trace) = &mut self.trace {
            render_meta(meta, &mut trace.line);
            trace
                .out
                .write_all(trace.line.as_bytes())
                .expect("write telemetry trace meta");
        }
        if let Some(ts) = &mut self.timeseries {
            ts.line.clear();
            ts.line.push_str(TIMESERIES_HEADER);
            for i in 0..self.functions.len() {
                write!(ts.line, ",fn{i}_instances").expect("write to String cannot fail");
            }
            ts.line.push('\n');
            ts.out
                .write_all(ts.line.as_bytes())
                .expect("write telemetry timeseries header");
            ts.wrote_header = true;
        }
    }

    fn record(&mut self, span: SpanEvent) {
        if let Some(trace) = &mut self.trace {
            trace.ring.push(span);
            if trace.ring.len() >= SPAN_RING_CAPACITY {
                Self::flush_ring(trace);
            }
        }
    }

    fn sample(&mut self, row: &GaugeRow) {
        if let Some(ts) = &mut self.timeseries {
            if !ts.wrote_header {
                // `begin` was never called (engine without metadata):
                // emit a header sized to the first row.
                ts.line.clear();
                ts.line.push_str(TIMESERIES_HEADER);
                for i in 0..row.per_function_instances.len() {
                    write!(ts.line, ",fn{i}_instances").expect("write to String cannot fail");
                }
                ts.line.push('\n');
                ts.out
                    .write_all(ts.line.as_bytes())
                    .expect("write telemetry timeseries header");
                ts.wrote_header = true;
            }
            ts.line.clear();
            write!(
                ts.line,
                "{},{},{},{:.6},{:.6},{},{},{},{:.3}",
                row.t_s,
                row.instances,
                row.starting,
                row.cpu_occupancy,
                row.gpu_occupancy,
                row.queue_depth,
                row.in_flight_batches,
                row.kv_resident_bytes,
                row.host_cache_mb_used,
            )
            .expect("write to String cannot fail");
            for n in &row.per_function_instances {
                write!(ts.line, ",{n}").expect("write to String cannot fail");
            }
            ts.line.push('\n');
            ts.out
                .write_all(ts.line.as_bytes())
                .expect("write telemetry timeseries");
        }
    }

    fn finish(&mut self) {
        if let Some(trace) = &mut self.trace {
            Self::flush_ring(trace);
            trace.out.flush().expect("flush telemetry trace");
        }
        if let Some(ts) = &mut self.timeseries {
            ts.out.flush().expect("flush telemetry timeseries");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t_s: f64, kind: SpanKind, request: u64) -> SpanEvent {
        SpanEvent {
            t_s,
            kind,
            request,
            function: 0,
            instance: -1,
            server: -1,
            batch: 0,
            fault: FaultTag::None,
        }
    }

    #[test]
    fn wire_names_round_trip() {
        for kind in [
            SpanKind::Arrival,
            SpanKind::Enqueued,
            SpanKind::BatchFormed,
            SpanKind::ExecStart,
            SpanKind::Complete,
            SpanKind::Dropped,
            SpanKind::Shed,
            SpanKind::Displaced,
            SpanKind::Retried,
            SpanKind::SwapBegin,
            SpanKind::SwapComplete,
            SpanKind::PrefillStart,
            SpanKind::FirstToken,
            SpanKind::DecodeComplete,
        ] {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
        }
        for tag in [
            FaultTag::None,
            FaultTag::ServerCrash,
            FaultTag::InstanceKill,
            FaultTag::ColdStartFailure,
        ] {
            assert_eq!(FaultTag::parse(tag.name()), Some(tag));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
        assert_eq!(FaultTag::parse("bogus"), None);
    }

    #[test]
    fn memory_sink_clones_share_the_store() {
        let sink = MemorySink::new();
        let mut handle = sink.clone();
        handle.begin(&TraceMeta {
            platform: "test".into(),
            functions: vec!["f".into()],
        });
        handle.record(span(1.0, SpanKind::Arrival, 0));
        assert_eq!(sink.store().spans.len(), 1);
        assert_eq!(sink.store().meta.as_ref().unwrap().platform, "test");
    }

    /// Satellite: the enabled file path allocates zero per event after
    /// warm-up — the span ring and line buffer are filled, drained, and
    /// refilled without their capacities ever moving.
    #[test]
    fn file_sink_hot_path_reuses_buffers() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("infless-telemetry-alloc-test.jsonl");
        let mut sink = FileSink::create(Some(&trace_path), None).unwrap();
        sink.begin(&TraceMeta {
            platform: "test".into(),
            functions: vec!["f".into()],
        });
        // Warm up: one full ring, which triggers the first flush.
        for i in 0..SPAN_RING_CAPACITY {
            sink.record(span(i as f64, SpanKind::Arrival, i as u64));
        }
        let trace = sink.trace.as_ref().unwrap();
        assert!(trace.ring.is_empty(), "ring drained at capacity");
        let ring_cap = trace.ring.capacity();
        let line_cap = trace.line.capacity();
        assert_eq!(ring_cap, SPAN_RING_CAPACITY);
        // Steady state: several more rings' worth of events must not
        // grow either buffer.
        for i in 0..4 * SPAN_RING_CAPACITY {
            sink.record(span(i as f64, SpanKind::Complete, i as u64));
        }
        let trace = sink.trace.as_ref().unwrap();
        assert_eq!(trace.ring.capacity(), ring_cap, "ring buffer reallocated");
        assert_eq!(trace.line.capacity(), line_cap, "line buffer reallocated");
        sink.finish();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(text.lines().count(), 1 + 5 * SPAN_RING_CAPACITY);
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn meta_strings_are_escaped() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }
}
