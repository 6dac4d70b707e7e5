//! Decision-level observability: why the platform did what it did.
//!
//! Lifecycle spans ([`crate::SpanEvent`]) say *what* happened to a
//! request; decision events say *why* the platform acted — which
//! ⟨b,c,g⟩ candidates Algorithm 1 rejected and for what reason, whether
//! a consolidation transaction committed or rolled back, which
//! keep-alive window expired an instance, whether a launch was a cold
//! boot / pre-warmed attach / host-cache swap-in, and why continuous
//! batching turned a joiner away. The same channel carries per-request
//! SLO latency decompositions ([`BreakdownEvent`]), so `trace analyze`
//! can attribute every violation to the stage that consumed the budget.
//!
//! The emission contract is the span contract: gated on
//! [`crate::TelemetrySink::decisions_enabled`], no RNG draws, no event
//! scheduling, `Copy` all-numeric records. Decision values are derived
//! from shard-invariant quantities, so a trace merged at epoch barriers
//! is byte-identical for every shard count.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::sink::{SpanEvent, TelemetrySink, TraceMeta};
use crate::timeseries::GaugeRow;

/// What kind of decision a [`DecisionEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// Algorithm 1 evaluated one ⟨b,c,g⟩ grid candidate for a function
    /// (`value` = efficiency density `r_up / weighted`, `aux` = the
    /// candidate's predicted execution latency in ms). Emitted once per
    /// function, on its first traced scheduling pass.
    Candidate,
    /// A scheduling round chose a config (`value` = its effective
    /// density after the startup-cost discount, `aux` = the discount
    /// factor itself).
    Chosen,
    /// A scheduling round rejected a candidate set or left demand
    /// unplaced; `reason` says why (`value` is reason-specific, e.g.
    /// the residual RPS that stayed unplaced).
    Reject,
    /// One scale-out pass finished (`value` = instances launched,
    /// `aux` = residual RPS the pass was asked to place).
    ScaleOut,
    /// A consolidation transaction opened (`value` = the current
    /// deployment's capacity density it must beat).
    Consolidate,
    /// The consolidation transaction committed (`value` = the fresh
    /// deployment's density, `aux` = weighted-capacity delta).
    ConsolidateCommit,
    /// The consolidation transaction rolled back (`reason` says why;
    /// `value`/`aux` carry the rejected trial's numbers).
    ConsolidateRollback,
    /// A keep-alive window expired an instance (`value` = the LSTH
    /// tail-window keep-alive in seconds that triggered the eviction,
    /// `aux` = how long the instance had idled).
    Evict,
    /// An instance launch chose its startup path (`reason` =
    /// `cold_boot`/`pre_warmed`/`swap_in`, `value` = startup delay s).
    Launch,
    /// Continuous batching admitted a sequence (`value` = KV tokens
    /// reserved, `aux` = arena tokens still free afterwards).
    Admit,
    /// Continuous batching rejected a joiner on KV headroom
    /// (`value` = tokens the sequence needed, `aux` = tokens free).
    CacheFull,
    /// The vertical-first scaler resized an instance in place — or
    /// tried to. Accepts carry the capacity delta `new r_up − old r_up`
    /// as `value` (negative for a downsize) and the resize latency in
    /// seconds as `aux`, with `batch`/`cpu`/`gpu` describing the *new*
    /// configuration. Rejects set `reason` (`memory` when the grow no
    /// longer fits the server, `no_candidate` when the feasible set
    /// holds nothing larger).
    Resize,
}

impl DecisionKind {
    /// Stable wire name (the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Candidate => "candidate",
            DecisionKind::Chosen => "chosen",
            DecisionKind::Reject => "reject",
            DecisionKind::ScaleOut => "scale_out",
            DecisionKind::Consolidate => "consolidate_begin",
            DecisionKind::ConsolidateCommit => "consolidate_commit",
            DecisionKind::ConsolidateRollback => "consolidate_rollback",
            DecisionKind::Evict => "evict",
            DecisionKind::Launch => "launch",
            DecisionKind::Admit => "admit",
            DecisionKind::CacheFull => "cache_full",
            DecisionKind::Resize => "resize",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "candidate" => DecisionKind::Candidate,
            "chosen" => DecisionKind::Chosen,
            "reject" => DecisionKind::Reject,
            "scale_out" => DecisionKind::ScaleOut,
            "consolidate_begin" => DecisionKind::Consolidate,
            "consolidate_commit" => DecisionKind::ConsolidateCommit,
            "consolidate_rollback" => DecisionKind::ConsolidateRollback,
            "evict" => DecisionKind::Evict,
            "launch" => DecisionKind::Launch,
            "admit" => DecisionKind::Admit,
            "cache_full" => DecisionKind::CacheFull,
            "resize" => DecisionKind::Resize,
            _ => return None,
        })
    }
}

/// Why a candidate, trial, or joiner was turned away (or which startup
/// path a launch took). [`DecisionReason::None`] everywhere a decision
/// needs no annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// No annotation.
    None,
    /// The predictor has no profile for the candidate.
    NoProfile,
    /// No feasible RPS window: the candidate cannot meet the latency
    /// SLO at any supported rate.
    Window,
    /// The candidate's prefill latency exceeds the TTFT SLO.
    Ttft,
    /// The candidate's decode-step latency exceeds the TPOT SLO.
    Tpot,
    /// Placement failed: no server could fit the config's cores, SM
    /// share, and memory footprint.
    Memory,
    /// The batched candidate set was skipped because the residual RPS
    /// fell below the set's lower window bound.
    ResidualCap,
    /// Demand stayed unplaced at the end of the pass.
    Unplaced,
    /// Consolidation's trial deployment did not clear the density gain
    /// threshold.
    InsufficientGain,
    /// The launch is a cold boot.
    ColdBoot,
    /// The launch attaches to a pre-warmed container.
    PreWarmed,
    /// The launch swaps model weights in from the host cache.
    SwapIn,
    /// The vertical pass found no feasible candidate strictly larger
    /// (or, for a downsize, cheaper) than the current configuration.
    NoCandidate,
}

impl DecisionReason {
    /// Stable wire name (the JSONL `reason` field).
    pub fn name(self) -> &'static str {
        match self {
            DecisionReason::None => "none",
            DecisionReason::NoProfile => "no_profile",
            DecisionReason::Window => "window",
            DecisionReason::Ttft => "ttft",
            DecisionReason::Tpot => "tpot",
            DecisionReason::Memory => "memory",
            DecisionReason::ResidualCap => "residual_cap",
            DecisionReason::Unplaced => "unplaced",
            DecisionReason::InsufficientGain => "insufficient_gain",
            DecisionReason::ColdBoot => "cold_boot",
            DecisionReason::PreWarmed => "pre_warmed",
            DecisionReason::SwapIn => "swap_in",
            DecisionReason::NoCandidate => "no_candidate",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "none" => DecisionReason::None,
            "no_profile" => DecisionReason::NoProfile,
            "window" => DecisionReason::Window,
            "ttft" => DecisionReason::Ttft,
            "tpot" => DecisionReason::Tpot,
            "memory" => DecisionReason::Memory,
            "residual_cap" => DecisionReason::ResidualCap,
            "unplaced" => DecisionReason::Unplaced,
            "insufficient_gain" => DecisionReason::InsufficientGain,
            "cold_boot" => DecisionReason::ColdBoot,
            "pre_warmed" => DecisionReason::PreWarmed,
            "swap_in" => DecisionReason::SwapIn,
            "no_candidate" => DecisionReason::NoCandidate,
            _ => return None,
        })
    }
}

/// One decision. `Copy` and all-numeric like [`crate::SpanEvent`]:
/// recording one is a struct copy, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// Simulated timestamp, seconds.
    pub t_s: f64,
    /// What was decided.
    pub kind: DecisionKind,
    /// Function index the decision concerns.
    pub function: u32,
    /// Per-function emission sequence number — with `(t_s, function)`
    /// it totally orders a merged multi-shard trace.
    pub seq: u64,
    /// Request id for request-scoped decisions (admit/cache_full), -1
    /// otherwise.
    pub request: i64,
    /// Instance id, or -1 when no instance is involved.
    pub instance: i64,
    /// Server id, or -1 when no server is involved.
    pub server: i64,
    /// Candidate/chosen batch size `b`, 0 when not config-scoped.
    pub batch: u32,
    /// Candidate/chosen CPU cores `c`.
    pub cpu: u32,
    /// Candidate/chosen GPU SM share `g` (percent).
    pub gpu: u32,
    /// Rejection reason or startup path.
    pub reason: DecisionReason,
    /// Kind-specific primary value (see [`DecisionKind`] docs).
    pub value: f64,
    /// Kind-specific secondary value.
    pub aux: f64,
}

impl DecisionEvent {
    /// A blank event of `kind`: all ids -1, numbers zero, reason
    /// [`DecisionReason::None`]. The emitter fills what applies;
    /// `t_s`/`function`/`seq` are stamped by the engine.
    pub fn new(kind: DecisionKind) -> Self {
        DecisionEvent {
            t_s: 0.0,
            kind,
            function: 0,
            seq: 0,
            request: -1,
            instance: -1,
            server: -1,
            batch: 0,
            cpu: 0,
            gpu: 0,
            reason: DecisionReason::None,
            value: 0.0,
            aux: 0.0,
        }
    }
}

/// Per-request SLO latency decomposition, emitted at completion. The
/// five components partition the end-to-end latency exactly:
/// `queue + batch_wait + startup + exec + interference == total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownEvent {
    /// Completion timestamp, seconds.
    pub t_s: f64,
    /// Function index.
    pub function: u32,
    /// Per-function emission sequence number (shared counter with
    /// [`DecisionEvent::seq`]).
    pub seq: u64,
    /// Request id.
    pub request: u64,
    /// The function's latency SLO, ms.
    pub slo_ms: f64,
    /// Arrival → (final) instance enqueue: gateway dispatch, pending
    /// backlog, and fault-retry delay.
    pub queue_ms: f64,
    /// Enqueue → batch start, net of startup overlap: time spent
    /// waiting for the batch to fill or time out.
    pub batch_wait_ms: f64,
    /// Cold-start / swap-in time the request observed.
    pub startup_ms: f64,
    /// Execution at the profiled (noise-adjusted) speed.
    pub exec_ms: f64,
    /// Execution stretch from MPS co-residence and stragglers.
    pub interference_ms: f64,
    /// End-to-end latency — the same number the run report records.
    pub total_ms: f64,
}

/// One record on the decisions channel: a decision or a per-request
/// latency breakdown. Both land in the same JSONL artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionRecord {
    /// A platform decision.
    Decision(DecisionEvent),
    /// A completed request's latency decomposition.
    Breakdown(BreakdownEvent),
}

impl DecisionRecord {
    /// Timestamp, seconds.
    pub fn t_s(&self) -> f64 {
        match self {
            DecisionRecord::Decision(d) => d.t_s,
            DecisionRecord::Breakdown(b) => b.t_s,
        }
    }

    /// Function index.
    pub fn function(&self) -> u32 {
        match self {
            DecisionRecord::Decision(d) => d.function,
            DecisionRecord::Breakdown(b) => b.function,
        }
    }

    /// Per-function emission sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            DecisionRecord::Decision(d) => d.seq,
            DecisionRecord::Breakdown(b) => b.seq,
        }
    }

    /// The canonical order every written trace is sorted by:
    /// `(t_s, function, seq)`. Within one function `seq` is unique, so
    /// the order is total and merge output is byte-identical no matter
    /// which shard buffered which record.
    pub fn canonical_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t_s()
            .total_cmp(&other.t_s())
            .then(self.function().cmp(&other.function()))
            .then(self.seq().cmp(&other.seq()))
    }
}

/// The record's JSONL line, without the trailing newline.
impl fmt::Display for DecisionRecord {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionRecord::Decision(d) => write!(
                out,
                "{{\"t_s\":{},\"kind\":\"{}\",\"fn\":{},\"seq\":{},\"req\":{},\"inst\":{},\
                 \"srv\":{},\"batch\":{},\"cpu\":{},\"gpu\":{},\"reason\":\"{}\",\
                 \"value\":{},\"aux\":{}}}",
                d.t_s,
                d.kind.name(),
                d.function,
                d.seq,
                d.request,
                d.instance,
                d.server,
                d.batch,
                d.cpu,
                d.gpu,
                d.reason.name(),
                d.value,
                d.aux,
            ),
            DecisionRecord::Breakdown(b) => write!(
                out,
                "{{\"t_s\":{},\"kind\":\"breakdown\",\"fn\":{},\"seq\":{},\"req\":{},\
                 \"slo_ms\":{},\"queue_ms\":{},\"batch_wait_ms\":{},\"startup_ms\":{},\
                 \"exec_ms\":{},\"interference_ms\":{},\"total_ms\":{}}}",
                b.t_s,
                b.function,
                b.seq,
                b.request,
                b.slo_ms,
                b.queue_ms,
                b.batch_wait_ms,
                b.startup_ms,
                b.exec_ms,
                b.interference_ms,
                b.total_ms,
            ),
        }
    }
}

/// Where a [`DecisionWriter`] sends records once their order is final.
pub trait DecisionOut {
    /// Starts the output with the run's metadata record.
    fn begin(&mut self, _meta: &TraceMeta) -> io::Result<()> {
        Ok(())
    }

    /// Takes the next record in canonical order.
    fn put(&mut self, rec: &DecisionRecord) -> io::Result<()>;

    /// Flushes buffered output.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects the records in memory.
impl DecisionOut for Vec<DecisionRecord> {
    fn put(&mut self, rec: &DecisionRecord) -> io::Result<()> {
        self.push(*rec);
        Ok(())
    }
}

/// The JSONL trace: the `{"meta":…}` record, then one record per line,
/// formatted straight into the reused buffer.
impl<W: Write> DecisionOut for io::BufWriter<W> {
    fn begin(&mut self, meta: &TraceMeta) -> io::Result<()> {
        let mut line = String::new();
        crate::sink::render_meta(meta, &mut line);
        self.write_all(line.as_bytes())
    }

    fn put(&mut self, rec: &DecisionRecord) -> io::Result<()> {
        writeln!(self, "{rec}")
    }

    fn flush(&mut self) -> io::Result<()> {
        Write::flush(self)
    }
}

/// Writes decision records in [`DecisionRecord::canonical_cmp`] order
/// as soon as no earlier record can still arrive.
///
/// Every record is stamped with its engine's clock, and a clock never
/// goes back. Once the caller's clock has passed `t`,
/// [`flush_below`](Self::flush_below) writes every pending record
/// before `t`. Each written prefix is then a prefix of the whole run's
/// canonical sort, and `pending` holds only records at or after the
/// last watermark. The first I/O error is kept for
/// [`finish`](Self::finish), and nothing is written after it.
#[derive(Debug)]
pub struct DecisionWriter<O> {
    out: O,
    pending: Vec<DecisionRecord>,
    watermark: f64,
    error: Option<io::Error>,
    pending_peak: usize,
}

impl<O: DecisionOut> DecisionWriter<O> {
    /// A writer with nothing pending.
    pub fn new(out: O) -> Self {
        DecisionWriter {
            out,
            pending: Vec::new(),
            watermark: f64::NEG_INFINITY,
            error: None,
            pending_peak: 0,
        }
    }

    /// Writes the metadata record; call before the first record.
    pub fn begin(&mut self, meta: &TraceMeta) {
        self.error = self.out.begin(meta).err();
    }

    /// Holds `rec` until a watermark passes it. A record behind the
    /// last watermark has lost its place: debug builds panic on one.
    pub fn push(&mut self, rec: DecisionRecord) {
        debug_assert!(
            rec.t_s() >= self.watermark,
            "decision record behind the watermark t_s = {}: {rec:?}",
            self.watermark
        );
        self.pending.push(rec);
        self.pending_peak = self.pending_peak.max(self.pending.len());
    }

    /// Writes every pending record with `t_s < t`, in canonical order.
    pub fn flush_below(&mut self, t: f64) {
        self.pending.sort_unstable_by(DecisionRecord::canonical_cmp);
        let n = self.pending.partition_point(|rec| rec.t_s() < t);
        for rec in self.pending.drain(..n) {
            if self.error.is_none() {
                self.error = self.out.put(&rec).err();
            }
        }
        self.watermark = self.watermark.max(t);
    }

    /// Writes what remains and flushes the output.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the writer's life.
    pub fn finish(&mut self) -> io::Result<()> {
        self.flush_below(f64::INFINITY);
        let flushed = self.out.flush();
        self.error.take().map_or(flushed, Err)
    }

    /// What has been written so far.
    pub fn output_mut(&mut self) -> &mut O {
        &mut self.out
    }

    /// The most records `pending` ever held at once.
    #[doc(hidden)]
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }
}

/// Writes a complete decisions trace through a [`DecisionWriter`]: the
/// metadata record, then every record in canonical order.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_decision_trace(
    path: &Path,
    meta: &TraceMeta,
    records: &[DecisionRecord],
) -> io::Result<()> {
    let mut writer = DecisionWriter::new(io::BufWriter::new(std::fs::File::create(path)?));
    writer.begin(meta);
    for rec in records {
        writer.push(*rec);
    }
    writer.finish()
}

/// Taps a sink's decision stream into a shared [`DecisionWriter`] and
/// forwards everything to the inner sink. It delegates `enabled`, so
/// tapping a [`crate::NullSink`] adds no span construction. One engine's
/// clock is the watermark: a record later than the pending ones flushes
/// them first. Whoever holds the writer finishes it after the run.
#[derive(Debug)]
pub struct DecisionTap<O> {
    inner: Box<dyn TelemetrySink>,
    writer: Arc<Mutex<DecisionWriter<O>>>,
}

impl<O> DecisionTap<O> {
    /// Taps `inner` into `writer`.
    pub fn new(inner: Box<dyn TelemetrySink>, writer: Arc<Mutex<DecisionWriter<O>>>) -> Self {
        DecisionTap { inner, writer }
    }
}

impl<O: DecisionOut + std::fmt::Debug + Send> TelemetrySink for DecisionTap<O> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.writer
            .lock()
            .expect("decision writer poisoned")
            .begin(meta);
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
        let mut writer = self.writer.lock().expect("decision writer poisoned");
        if rec.t_s() > writer.watermark {
            writer.flush_below(rec.t_s());
        }
        writer.push(*rec);
        drop(writer);
        self.inner.record_decision(rec);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for kind in [
            DecisionKind::Candidate,
            DecisionKind::Chosen,
            DecisionKind::Reject,
            DecisionKind::ScaleOut,
            DecisionKind::Consolidate,
            DecisionKind::ConsolidateCommit,
            DecisionKind::ConsolidateRollback,
            DecisionKind::Evict,
            DecisionKind::Launch,
            DecisionKind::Admit,
            DecisionKind::CacheFull,
            DecisionKind::Resize,
        ] {
            assert_eq!(DecisionKind::parse(kind.name()), Some(kind));
        }
        for reason in [
            DecisionReason::None,
            DecisionReason::NoProfile,
            DecisionReason::Window,
            DecisionReason::Ttft,
            DecisionReason::Tpot,
            DecisionReason::Memory,
            DecisionReason::ResidualCap,
            DecisionReason::Unplaced,
            DecisionReason::InsufficientGain,
            DecisionReason::ColdBoot,
            DecisionReason::PreWarmed,
            DecisionReason::SwapIn,
            DecisionReason::NoCandidate,
        ] {
            assert_eq!(DecisionReason::parse(reason.name()), Some(reason));
        }
        assert_eq!(DecisionKind::parse("bogus"), None);
        assert_eq!(DecisionReason::parse("bogus"), None);
        // "breakdown" is a record discriminator, not a decision kind.
        assert_eq!(DecisionKind::parse("breakdown"), None);
    }

    #[test]
    fn render_is_fixed_key_json() {
        let mut d = DecisionEvent::new(DecisionKind::Chosen);
        d.t_s = 1.5;
        d.function = 2;
        d.seq = 7;
        d.batch = 8;
        d.cpu = 4;
        d.gpu = 20;
        d.value = 0.25;
        d.aux = 0.9;
        assert_eq!(
            DecisionRecord::Decision(d).to_string(),
            "{\"t_s\":1.5,\"kind\":\"chosen\",\"fn\":2,\"seq\":7,\"req\":-1,\"inst\":-1,\
             \"srv\":-1,\"batch\":8,\"cpu\":4,\"gpu\":20,\"reason\":\"none\",\
             \"value\":0.25,\"aux\":0.9}"
        );
        let b = BreakdownEvent {
            t_s: 2.0,
            function: 0,
            seq: 9,
            request: 41,
            slo_ms: 100.0,
            queue_ms: 1.0,
            batch_wait_ms: 2.0,
            startup_ms: 0.0,
            exec_ms: 20.0,
            interference_ms: 3.0,
            total_ms: 26.0,
        };
        let line = DecisionRecord::Breakdown(b).to_string();
        assert!(line.contains("\"kind\":\"breakdown\""));
        assert!(line.contains("\"total_ms\":26"));
    }

    #[test]
    fn canonical_cmp_orders_merged_records() {
        let mut a = DecisionEvent::new(DecisionKind::Launch);
        a.t_s = 1.0;
        a.function = 1;
        a.seq = 0;
        let mut b = a;
        b.function = 0;
        b.seq = 3;
        let mut records = [DecisionRecord::Decision(a), DecisionRecord::Decision(b)];
        records.sort_by(DecisionRecord::canonical_cmp);
        assert_eq!(records[0].function(), 0);
    }

    fn at(t_s: f64, function: u32, seq: u64) -> DecisionRecord {
        let mut d = DecisionEvent::new(DecisionKind::Launch);
        d.t_s = t_s;
        d.function = function;
        d.seq = seq;
        DecisionRecord::Decision(d)
    }

    fn keys(records: &[DecisionRecord]) -> Vec<(f64, u32, u64)> {
        records
            .iter()
            .map(|r| (r.t_s(), r.function(), r.seq()))
            .collect()
    }

    #[test]
    fn writer_sorts_same_instant_records() {
        let mut writer = DecisionWriter::new(Vec::new());
        for rec in [at(1.0, 1, 0), at(1.0, 0, 5), at(1.0, 0, 2)] {
            writer.push(rec);
        }
        writer.flush_below(2.0);
        assert_eq!(
            keys(writer.output_mut()),
            [(1.0, 0, 2), (1.0, 0, 5), (1.0, 1, 0)]
        );
    }

    #[test]
    fn writer_holds_a_record_at_the_watermark() {
        let mut writer = DecisionWriter::new(Vec::new());
        writer.push(at(2.0, 0, 1));
        writer.push(at(1.0, 0, 0));
        writer.flush_below(2.0);
        assert_eq!(writer.output_mut().len(), 1, "t_s == watermark must wait");
        // Another record at the watermark instant may still arrive and
        // sort ahead of the held one.
        writer.push(at(2.0, 0, 0));
        writer.finish().unwrap();
        assert_eq!(
            keys(writer.output_mut()),
            [(1.0, 0, 0), (2.0, 0, 0), (2.0, 0, 1)]
        );
    }

    #[test]
    fn writer_finish_writes_the_remainder() {
        let meta = TraceMeta {
            platform: "test".into(),
            functions: vec!["f".into()],
        };
        let mut writer = DecisionWriter::new(io::BufWriter::new(Vec::new()));
        writer.begin(&meta);
        writer.push(at(3.0, 0, 1));
        writer.push(at(0.5, 0, 0));
        writer.flush_below(1.0);
        assert_eq!(writer.pending_peak(), 2);
        writer.finish().unwrap();
        let text = String::from_utf8(writer.output_mut().get_ref().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"meta\""));
        assert!(lines[1].starts_with("{\"t_s\":0.5,"));
        assert!(lines[2].starts_with("{\"t_s\":3,"));
    }

    /// A writer whose every write fails.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_keeps_the_first_error_for_finish() {
        let mut writer = DecisionWriter::new(io::BufWriter::with_capacity(0, Broken));
        writer.push(at(0.0, 0, 0));
        writer.flush_below(1.0);
        writer.push(at(1.0, 0, 1));
        let err = writer.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind the watermark")]
    fn writer_rejects_a_record_behind_the_watermark() {
        let mut writer = DecisionWriter::new(Vec::new());
        writer.flush_below(2.0);
        writer.push(at(1.5, 0, 0));
    }
}
