//! The one ordered record path every output consumes.
//!
//! An engine emits spans, gauge rows and decisions as [`Record`]s into
//! a plain buffer. Its driver hands the buffer to a [`RecordWriter`] as
//! the clock advances (the sharded driver merges every shard's first),
//! and the writer releases the records the clock has passed, in
//! canonical `(t_s, fn, channel, seq)` order, to every output on their
//! channel. A function's records are the same at every shard count and
//! the order is total, so every output is byte-identical across shard
//! counts.

use crate::decision::DecisionRecord;
use crate::sink::{OutputError, SpanEvent, TelemetrySink, TraceMeta};
use crate::timeseries::GaugeRow;

/// One record on the ordered path.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A lifecycle span, with its per-function span sequence number.
    Span {
        /// Orders a function's spans of one instant.
        seq: u64,
        /// The span.
        span: SpanEvent,
    },
    /// A gauge row: one per scaler tick, cluster-wide.
    Gauge(GaugeRow),
    /// A decision or a per-request latency breakdown.
    Decision(DecisionRecord),
}

/// `(t_s, function, channel, seq)`, `t_s` mapped onto `u64` in
/// [`f64::total_cmp`] order.
type SortKey = (u64, u32, u8, u64);

impl Record {
    /// Timestamp, seconds.
    pub fn t_s(&self) -> f64 {
        match self {
            Record::Span { span, .. } => span.t_s,
            Record::Gauge(row) => row.t_s,
            Record::Decision(rec) => rec.t_s(),
        }
    }

    /// The record's place in the canonical order. Spans sort before
    /// decisions of the same function and instant, and a gauge row
    /// after both. Within one function and channel `seq` is unique, and
    /// two gauge rows never share an instant, so the order is total.
    fn sort_key(&self) -> SortKey {
        let (t_s, function, channel, seq) = match self {
            Record::Span { seq, span } => (span.t_s, span.function, 0, *seq),
            Record::Decision(DecisionRecord::Decision(d)) => (d.t_s, d.function, 1, d.seq),
            Record::Decision(DecisionRecord::Breakdown(b)) => (b.t_s, b.function, 1, b.seq),
            Record::Gauge(row) => (row.t_s, u32::MAX, 2, 0),
        };
        let bits = t_s.to_bits();
        let t = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        (t, function, channel, seq)
    }
}

/// Which records an engine builds. A closed channel costs nothing: the
/// engine constructs no record for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Channels {
    /// Lifecycle spans.
    pub spans: bool,
    /// Gauge rows.
    pub gauges: bool,
    /// Decisions and latency breakdowns.
    pub decisions: bool,
}

impl Channels {
    fn carries(self, rec: &Record) -> bool {
        match rec {
            Record::Span { .. } => self.spans,
            Record::Gauge(_) => self.gauges,
            Record::Decision(_) => self.decisions,
        }
    }
}

/// Releases records in canonical order once no earlier record can still
/// arrive, and fans each out to the outputs on its channel. A record is
/// stamped with its engine's clock (less a fixed lag, for platforms
/// that backdate arrivals), and a clock never goes back, so each prefix
/// [`flush_below`](Self::flush_below) releases is a prefix of the whole
/// run's canonical sort.
#[derive(Debug)]
pub struct RecordWriter {
    outputs: Vec<(Channels, Box<dyn TelemetrySink>)>,
    channels: Channels,
    /// The released records' keys and indices, reused across flushes:
    /// sorting these moves 32 bytes a record instead of ~100.
    order: Vec<(SortKey, usize)>,
    watermark: f64,
    pending_peak: usize,
}

impl RecordWriter {
    /// A writer feeding `outputs`.
    pub fn new(outputs: Vec<Box<dyn TelemetrySink>>) -> Self {
        let mut channels = Channels::default();
        let outputs = outputs
            .into_iter()
            .map(|sink| {
                let wants = Channels {
                    spans: sink.enabled(),
                    gauges: sink.gauges_enabled(),
                    decisions: sink.decisions_enabled(),
                };
                channels.spans |= wants.spans;
                channels.gauges |= wants.gauges;
                channels.decisions |= wants.decisions;
                (wants, sink)
            })
            .collect();
        RecordWriter {
            outputs,
            channels,
            order: Vec::new(),
            watermark: f64::NEG_INFINITY,
            pending_peak: 0,
        }
    }

    /// The channels some output asked for: what an engine feeding this
    /// writer must build.
    pub fn channels(&self) -> Channels {
        self.channels
    }

    /// Announces the run's identity to every output; call before the
    /// first record.
    pub fn begin(&mut self, meta: &TraceMeta) {
        for (_, sink) in &mut self.outputs {
            sink.begin(meta);
        }
    }

    /// Releases every record of `pending` with `t_s < t`, in canonical
    /// order, and keeps the rest there. A watermark that does not
    /// advance releases nothing. A pending record behind the last
    /// watermark has lost its place: debug builds panic on one.
    pub fn flush_below(&mut self, pending: &mut Vec<Record>, t: f64) {
        if t <= self.watermark {
            return;
        }
        debug_assert!(
            pending.iter().all(|rec| rec.t_s() >= self.watermark),
            "a record behind the watermark t_s = {}",
            self.watermark
        );
        self.watermark = t;
        self.pending_peak = self.pending_peak.max(pending.len());
        self.order.clear();
        for (i, rec) in pending.iter().enumerate() {
            if rec.t_s() < t {
                self.order.push((rec.sort_key(), i));
            }
        }
        // Stable, so runs already in order merge in linear time.
        self.order.sort();
        for &(_, i) in &self.order {
            let rec = &pending[i];
            for (channels, sink) in &mut self.outputs {
                if channels.carries(rec) {
                    match rec {
                        Record::Span { span, .. } => sink.record(*span),
                        Record::Gauge(row) => sink.sample(row),
                        Record::Decision(d) => sink.record_decision(d),
                    }
                }
            }
        }
        if self.order.len() == pending.len() {
            pending.clear();
        } else {
            pending.retain(|rec| rec.t_s() >= t);
        }
    }

    /// Finishes every output (flush below infinity first).
    ///
    /// # Errors
    ///
    /// Returns the first output's first write error, in output order.
    pub fn finish(&mut self) -> Result<(), OutputError> {
        let mut first = None;
        for (_, sink) in &mut self.outputs {
            sink.finish();
            let error = sink.take_error();
            first = first.or(error);
        }
        first.map_or(Ok(()), Err)
    }

    /// The most records a flush ever found pending.
    #[doc(hidden)]
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionEvent, DecisionKind};
    use crate::sink::{FaultTag, MemorySink, NullSink, SpanKind};

    fn at(t_s: f64, function: u32, seq: u64) -> Record {
        let mut d = DecisionEvent::new(DecisionKind::Launch);
        d.t_s = t_s;
        d.function = function;
        d.seq = seq;
        Record::Decision(DecisionRecord::Decision(d))
    }

    fn span_at(t_s: f64, function: u32, seq: u64) -> Record {
        Record::Span {
            seq,
            span: SpanEvent {
                t_s,
                kind: SpanKind::Arrival,
                request: seq,
                function,
                instance: -1,
                server: -1,
                batch: 0,
                fault: FaultTag::None,
            },
        }
    }

    fn keys(records: &[DecisionRecord]) -> Vec<(f64, u32, u64)> {
        records
            .iter()
            .map(|r| (r.t_s(), r.function(), r.seq()))
            .collect()
    }

    fn writer() -> (MemorySink, RecordWriter) {
        let sink = MemorySink::new();
        (sink.clone(), RecordWriter::new(vec![Box::new(sink)]))
    }

    #[test]
    fn writer_sorts_same_instant_records() {
        let (sink, mut writer) = writer();
        let mut pending = vec![at(1.0, 1, 0), at(1.0, 0, 5), at(1.0, 0, 2)];
        writer.flush_below(&mut pending, 2.0);
        assert_eq!(
            keys(&sink.store().decisions),
            [(1.0, 0, 2), (1.0, 0, 5), (1.0, 1, 0)]
        );
    }

    #[test]
    fn writer_holds_a_record_at_the_watermark() {
        let (sink, mut writer) = writer();
        let mut pending = vec![at(2.0, 0, 1), at(1.0, 0, 0)];
        writer.flush_below(&mut pending, 2.0);
        assert_eq!(
            sink.store().decisions.len(),
            1,
            "t_s == watermark must wait"
        );
        // Another record at the watermark instant may still arrive and
        // sort ahead of the held one.
        pending.push(at(2.0, 0, 0));
        writer.flush_below(&mut pending, f64::INFINITY);
        assert!(pending.is_empty());
        assert_eq!(
            keys(&sink.store().decisions),
            [(1.0, 0, 0), (2.0, 0, 0), (2.0, 0, 1)]
        );
    }

    /// Each output sees only its channels, in canonical order.
    #[test]
    fn writer_routes_records_by_channel() {
        let decisions = MemorySink::decisions_only();
        let all = MemorySink::new();
        let mut writer = RecordWriter::new(vec![
            Box::new(NullSink),
            Box::new(decisions.clone()),
            Box::new(all.clone()),
        ]);
        assert_eq!(
            writer.channels(),
            Channels {
                spans: true,
                gauges: true,
                decisions: true
            }
        );
        let mut pending = vec![at(1.0, 0, 0), span_at(1.0, 0, 0), span_at(0.5, 1, 0)];
        writer.flush_below(&mut pending, f64::INFINITY);
        assert!(decisions.store().spans.is_empty());
        assert_eq!(decisions.store().decisions.len(), 1);
        let spans: Vec<(f64, u32)> = all
            .store()
            .spans
            .iter()
            .map(|s| (s.t_s, s.function))
            .collect();
        assert_eq!(spans, [(0.5, 1), (1.0, 0)]);
        assert_eq!(
            RecordWriter::new(vec![Box::new(NullSink)]).channels(),
            Channels::default()
        );
    }

    #[test]
    fn writer_tracks_its_pending_peak() {
        let (_, mut writer) = writer();
        let mut pending = vec![at(3.0, 0, 1), at(0.5, 0, 0)];
        writer.flush_below(&mut pending, 1.0);
        pending.push(at(3.0, 0, 2));
        writer.flush_below(&mut pending, f64::INFINITY);
        assert_eq!(writer.pending_peak(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind the watermark")]
    fn writer_rejects_a_record_behind_the_watermark() {
        let (_, mut writer) = writer();
        writer.flush_below(&mut Vec::new(), 2.0);
        writer.flush_below(&mut vec![at(1.5, 0, 0)], 3.0);
    }
}
