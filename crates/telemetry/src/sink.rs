//! Span events and the pluggable telemetry sink.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::decision::DecisionRecord;
use crate::timeseries::GaugeRow;

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
/// is a struct copy into a buffer, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Simulated timestamp, seconds.
    pub t_s: f64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// The request's arrival ordinal within its function. Swap spans,
    /// which no request owns, carry `1 << 63 | ` the instance's launch
    /// ordinal instead.
    pub request: u64,
    /// Function index.
    pub function: u32,
    /// The instance's launch ordinal within its function, or -1 when
    /// no instance is involved.
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

/// An output file that could not be written: its path and the first
/// I/O error it hit.
#[derive(Debug)]
pub struct OutputError {
    /// The output's path.
    pub path: PathBuf,
    /// The first I/O error.
    pub source: io::Error,
}

/// One output of the ordered record path (`crate::RecordWriter`).
///
/// The writer hands every output its records in canonical order, each
/// on the channel the output asked for. The three channel gates are
/// read once, when the writer is built, and must stay the same for the
/// output's whole life. An engine whose writer has no output on a
/// channel builds no record for it, so a sink never influences the
/// simulation: it draws no randomness and schedules no events (the
/// trait gets no access to either).
///
/// Sinks are `Send` so that a run config holding one can move to
/// another thread.
pub trait TelemetrySink: std::fmt::Debug + Send {
    /// Whether the sink wants lifecycle spans (and, unless
    /// [`gauges_enabled`](Self::gauges_enabled) says otherwise, gauge
    /// rows).
    fn enabled(&self) -> bool;

    /// Called once, before any record, with the run's identity.
    fn begin(&mut self, _meta: &TraceMeta) {}

    /// Records one lifecycle span.
    fn record(&mut self, span: SpanEvent);

    /// Records one time-series gauge row.
    fn sample(&mut self, row: &GaugeRow);

    /// Whether the sink wants gauge rows. Defaults to
    /// [`enabled`](Self::enabled); a gauges-only sink answers `true`
    /// here and `false` there, so it costs no span construction.
    fn gauges_enabled(&self) -> bool {
        self.enabled()
    }

    /// Whether the sink wants decision records. Gated separately from
    /// [`enabled`](Self::enabled) so a decisions-only sink does not pay
    /// for span construction (and vice versa).
    fn decisions_enabled(&self) -> bool {
        false
    }

    /// Records one decision or per-request latency breakdown.
    fn record_decision(&mut self, _rec: &DecisionRecord) {}

    /// Flushes buffered output at the end of the run.
    fn finish(&mut self) {}

    /// The first write error of the sink's life, if it writes a file.
    /// Asked once, after [`finish`](Self::finish).
    fn take_error(&mut self) -> Option<OutputError> {
        None
    }
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
    /// Every recorded span, in canonical order.
    pub spans: Vec<SpanEvent>,
    /// Every sampled gauge row, in time order.
    pub rows: Vec<GaugeRow>,
    /// Every recorded decision/breakdown, in canonical order.
    pub decisions: Vec<DecisionRecord>,
}

/// An in-memory sink for tests: clone the handle, give one clone to the
/// run, and read the shared store through the other after the run.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    store: Arc<Mutex<MemoryStore>>,
    decisions_only: bool,
}

impl MemorySink {
    /// A sink on every channel.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A sink on the decisions channel only: a run feeding it builds no
    /// span or gauge row.
    pub fn decisions_only() -> Self {
        MemorySink {
            decisions_only: true,
            ..MemorySink::default()
        }
    }

    /// Read access to everything captured so far.
    ///
    /// # Panics
    ///
    /// Panics if a clone of this sink poisoned the store by panicking
    /// mid-record.
    pub fn store(&self) -> MutexGuard<'_, MemoryStore> {
        self.store.lock().expect("telemetry store poisoned")
    }
}

impl TelemetrySink for MemorySink {
    fn enabled(&self) -> bool {
        !self.decisions_only
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

/// A buffered output file that keeps its first write error: once a
/// write fails, nothing more is written, and the error waits for
/// [`take_error`](Self::take_error).
#[derive(Debug)]
pub(crate) struct FileOut {
    path: PathBuf,
    out: BufWriter<File>,
    error: Option<io::Error>,
}

impl FileOut {
    /// Creates (or truncates) `path`.
    pub(crate) fn create(path: &Path) -> io::Result<FileOut> {
        Ok(FileOut {
            path: path.to_path_buf(),
            out: BufWriter::new(File::create(path)?),
            error: None,
        })
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }

    pub(crate) fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }

    pub(crate) fn take_error(&mut self) -> Option<OutputError> {
        let source = self.error.take()?;
        Some(OutputError {
            path: self.path.clone(),
            source,
        })
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
///   `in_flight_batches,kv_resident_bytes,host_cache_mb_used` followed
///   by one `fn<i>_instances` column per function.
///
/// Each line is formatted into a reused buffer, so recording allocates
/// nothing after warm-up. A failed write is kept for
/// [`TelemetrySink::take_error`] and ends that file's output.
#[derive(Debug)]
pub struct FileSink {
    trace: Option<FileOut>,
    timeseries: Option<FileOut>,
    line: String,
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
    ) -> io::Result<FileSink> {
        Ok(FileSink {
            trace: trace_path.map(FileOut::create).transpose()?,
            timeseries: timeseries_path.map(FileOut::create).transpose()?,
            line: String::with_capacity(256),
        })
    }
}

/// Renders the `{"meta":…}` record (with trailing newline) into `out`,
/// which is cleared first. Shared by the span trace and the decision
/// trace so both artifacts open with an identical metadata line.
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
        self.trace.is_some()
    }

    fn gauges_enabled(&self) -> bool {
        self.timeseries.is_some()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        if let Some(trace) = &mut self.trace {
            render_meta(meta, &mut self.line);
            trace.write(self.line.as_bytes());
        }
        if let Some(ts) = &mut self.timeseries {
            self.line.clear();
            self.line.push_str(TIMESERIES_HEADER);
            for i in 0..meta.functions.len() {
                write!(self.line, ",fn{i}_instances").expect("write to String cannot fail");
            }
            self.line.push('\n');
            ts.write(self.line.as_bytes());
        }
    }

    fn record(&mut self, span: SpanEvent) {
        if let Some(trace) = &mut self.trace {
            span.render(&mut self.line);
            trace.write(self.line.as_bytes());
        }
    }

    fn sample(&mut self, row: &GaugeRow) {
        let Some(ts) = &mut self.timeseries else {
            return;
        };
        self.line.clear();
        write!(
            self.line,
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
            write!(self.line, ",{n}").expect("write to String cannot fail");
        }
        self.line.push('\n');
        ts.write(self.line.as_bytes());
    }

    fn finish(&mut self) {
        for out in [&mut self.trace, &mut self.timeseries]
            .into_iter()
            .flatten()
        {
            out.flush();
        }
    }

    fn take_error(&mut self) -> Option<OutputError> {
        [&mut self.trace, &mut self.timeseries]
            .into_iter()
            .flatten()
            .find_map(FileOut::take_error)
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

    /// The span path formats every line into one reused buffer: after
    /// the first span its capacity never moves.
    #[test]
    fn file_sink_hot_path_reuses_its_line_buffer() {
        let trace_path = std::env::temp_dir().join(format!(
            "infless-telemetry-alloc-test-{}.jsonl",
            std::process::id()
        ));
        let mut sink = FileSink::create(Some(&trace_path), None).unwrap();
        sink.begin(&TraceMeta {
            platform: "test".into(),
            functions: vec!["f".into()],
        });
        sink.record(span(0.0, SpanKind::Arrival, 0));
        let line_cap = sink.line.capacity();
        for i in 1..10_000 {
            sink.record(span(i as f64, SpanKind::Complete, i as u64));
        }
        assert_eq!(sink.line.capacity(), line_cap, "line buffer reallocated");
        sink.finish();
        assert!(sink.take_error().is_none());
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(text.lines().count(), 1 + 10_000);
        std::fs::remove_file(&trace_path).ok();
    }

    /// A failed write is kept, with the file's path, for `take_error`.
    #[test]
    #[cfg(target_os = "linux")]
    fn file_sink_keeps_its_first_write_error() {
        let mut sink = FileSink::create(Some(Path::new("/dev/full")), None).unwrap();
        for i in 0..10_000 {
            sink.record(span(i as f64, SpanKind::Arrival, i as u64));
        }
        sink.finish();
        let err = sink.take_error().expect("/dev/full accepts no bytes");
        assert_eq!(err.path, Path::new("/dev/full"));
        assert!(sink.take_error().is_none(), "the error is taken once");
    }

    #[test]
    fn meta_strings_are_escaped() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }
}
