//! Flight recorder: a bounded ring of recent spans, dumped to JSONL
//! when a fault burst hits — the postmortem artifact for runs where the
//! interesting window is the seconds *before* things went wrong.
//!
//! [`FlightRecorder`] wraps any inner sink and forwards every call, so
//! it composes with a [`crate::FileSink`] or [`crate::NullSink`]
//! unchanged. It keeps the last [`FlightRecorder::capacity`] spans in a
//! ring; when at least `burst_threshold` fault-tagged spans land within
//! `burst_window` seconds, the whole ring is appended to the dump file
//! (a burst-header record followed by the spans), and the burst
//! detector re-arms. Dumps are capped so a pathological run cannot
//! fill the disk.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};

use crate::decision::DecisionRecord;
use crate::sink::{FaultTag, SpanEvent, TelemetrySink, TraceMeta};
use crate::timeseries::GaugeRow;

/// Default ring capacity (spans kept for a postmortem dump).
pub const FLIGHT_RING_CAPACITY: usize = 2048;
/// Default burst threshold: fault-tagged spans within the window that
/// trigger a dump.
pub const FLIGHT_BURST_THRESHOLD: usize = 8;
/// Default burst window, simulated seconds.
pub const FLIGHT_BURST_WINDOW_S: f64 = 5.0;
/// Most dumps one run may write.
pub const FLIGHT_MAX_DUMPS: usize = 16;

/// A bounded ring of recent spans, dumped to JSONL when a fault burst
/// hits: it wraps any inner sink and forwards every call, and when at
/// least `burst_threshold` fault-tagged spans land within
/// `burst_window` seconds it appends the whole ring to its dump file.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Box<dyn TelemetrySink>,
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    /// Timestamps of recent fault-tagged spans, oldest first.
    fault_times: VecDeque<f64>,
    burst_threshold: usize,
    burst_window: f64,
    out: File,
    dumps: usize,
    line: String,
}

impl FlightRecorder {
    /// Wraps `inner`, dumping to `out` (an open, writable file) with
    /// the default ring size and burst parameters.
    pub fn new(inner: Box<dyn TelemetrySink>, out: File) -> Self {
        Self::with_params(
            inner,
            out,
            FLIGHT_RING_CAPACITY,
            FLIGHT_BURST_THRESHOLD,
            FLIGHT_BURST_WINDOW_S,
        )
    }

    /// Wraps `inner` with explicit ring capacity and burst parameters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `burst_threshold` is zero, or the window
    /// is not positive.
    pub fn with_params(
        inner: Box<dyn TelemetrySink>,
        out: File,
        capacity: usize,
        burst_threshold: usize,
        burst_window: f64,
    ) -> Self {
        assert!(capacity > 0, "flight ring must hold at least one span");
        assert!(burst_threshold > 0, "burst threshold must be positive");
        assert!(burst_window > 0.0, "burst window must be positive");
        FlightRecorder {
            inner,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            fault_times: VecDeque::new(),
            burst_threshold,
            burst_window,
            out,
            dumps: 0,
            line: String::with_capacity(256),
        }
    }

    /// How many spans the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> usize {
        self.dumps
    }

    fn dump(&mut self, t_s: f64) {
        let mut out = BufWriter::new(&self.out);
        self.line.clear();
        writeln!(
            self.line,
            "{{\"burst\":{{\"t_s\":{t_s},\"faults\":{},\"spans\":{}}}}}",
            self.fault_times.len(),
            self.ring.len(),
        )
        .expect("write to String cannot fail");
        out.write_all(self.line.as_bytes())
            .expect("write flight-recorder dump");
        for span in &self.ring {
            span.render(&mut self.line);
            out.write_all(self.line.as_bytes())
                .expect("write flight-recorder dump");
        }
        out.flush().expect("flush flight-recorder dump");
        self.dumps += 1;
    }
}

impl TelemetrySink for FlightRecorder {
    fn enabled(&self) -> bool {
        // The recorder needs spans even when the inner sink is off.
        true
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.inner.begin(meta);
    }

    fn record(&mut self, span: SpanEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(span);
        if span.fault != FaultTag::None {
            self.fault_times.push_back(span.t_s);
            while let Some(&front) = self.fault_times.front() {
                if span.t_s - front > self.burst_window {
                    self.fault_times.pop_front();
                } else {
                    break;
                }
            }
            if self.fault_times.len() >= self.burst_threshold && self.dumps < FLIGHT_MAX_DUMPS {
                self.dump(span.t_s);
                // Re-arm: a sustained fault storm produces one dump per
                // threshold-worth of new faults, not one per span.
                self.fault_times.clear();
            }
        }
        self.inner.record(span);
    }

    fn sample(&mut self, row: &GaugeRow) {
        self.inner.sample(row);
    }

    fn decisions_enabled(&self) -> bool {
        self.inner.decisions_enabled()
    }

    fn record_decision(&mut self, rec: &DecisionRecord) {
        self.inner.record_decision(rec);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, SpanKind};

    fn span(t_s: f64, fault: FaultTag) -> SpanEvent {
        SpanEvent {
            t_s,
            kind: SpanKind::Displaced,
            request: 0,
            function: 0,
            instance: 0,
            server: 0,
            batch: 0,
            fault,
        }
    }

    #[test]
    fn burst_triggers_one_dump_and_forwards_to_inner() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-test.jsonl");
        let inner = MemorySink::new();
        let out = File::create(&path).unwrap();
        let mut rec = FlightRecorder::with_params(Box::new(inner.clone()), out, 16, 3, 5.0);
        // Background traffic, no faults: no dump.
        for i in 0..10 {
            rec.record(span(i as f64 * 0.1, FaultTag::None));
        }
        assert_eq!(rec.dumps(), 0);
        // Three fault spans inside the window: one dump, ring included.
        rec.record(span(2.0, FaultTag::ServerCrash));
        rec.record(span(2.1, FaultTag::InstanceKill));
        assert_eq!(rec.dumps(), 0);
        rec.record(span(2.2, FaultTag::InstanceKill));
        assert_eq!(rec.dumps(), 1);
        // Detector re-armed: the next lone fault does not dump again.
        rec.record(span(2.3, FaultTag::InstanceKill));
        assert_eq!(rec.dumps(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"burst\""), "got {first}");
        assert!(first.contains("\"faults\":3"));
        // Ring capacity 16 ⇒ the dump holds the 13 spans recorded
        // so far (10 background + 3 faults), plus the header.
        assert_eq!(text.lines().count(), 14);
        // Every span still reached the inner sink.
        assert_eq!(inner.store().spans.len(), 14);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_outside_the_window_do_not_accumulate() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-window-test.jsonl");
        let out = File::create(&path).unwrap();
        let mut rec = FlightRecorder::with_params(Box::new(crate::NullSink), out, 8, 2, 1.0);
        rec.record(span(0.0, FaultTag::ServerCrash));
        // 10 s later: the first fault left the window.
        rec.record(span(10.0, FaultTag::ServerCrash));
        assert_eq!(rec.dumps(), 0);
        rec.record(span(10.5, FaultTag::ServerCrash));
        assert_eq!(rec.dumps(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_is_bounded() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-bound-test.jsonl");
        let out = File::create(&path).unwrap();
        let mut rec = FlightRecorder::with_params(Box::new(crate::NullSink), out, 4, 1, 1.0);
        for i in 0..100 {
            rec.record(span(i as f64, FaultTag::None));
        }
        rec.record(span(100.0, FaultTag::ServerCrash));
        let text = std::fs::read_to_string(&path).unwrap();
        // Header + at most 4 ring spans.
        assert_eq!(text.lines().count(), 5);
        std::fs::remove_file(&path).ok();
    }
}
