//! Flight recorder: a bounded ring of recent spans, dumped to JSONL
//! when a fault burst hits — the postmortem artifact for runs where the
//! interesting window is the seconds *before* things went wrong.
//!
//! [`FlightRecorder`] is one more output of the record path: it sees
//! every span in canonical order and keeps the last
//! [`FlightRecorder::capacity`] of them in a ring. When at least
//! `burst_threshold` fault-tagged spans land within `burst_window`
//! seconds, the whole ring is appended to the dump file (a burst-header
//! record followed by the spans), and the burst detector re-arms.
//! Dumps are capped so a pathological run cannot fill the disk.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::sink::{FaultTag, FileOut, OutputError, SpanEvent, TelemetrySink};
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
/// hits: when at least `burst_threshold` fault-tagged spans land within
/// `burst_window` seconds it appends the whole ring to its dump file.
/// A failed write is kept for [`TelemetrySink::take_error`] and ends
/// the output.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    /// Timestamps of recent fault-tagged spans, oldest first.
    fault_times: VecDeque<f64>,
    burst_threshold: usize,
    burst_window: f64,
    out: FileOut,
    dumps: usize,
    line: String,
}

impl FlightRecorder {
    /// Creates (or truncates) the dump file at `path`, with the default
    /// ring size and burst parameters.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::with_params(
            path,
            FLIGHT_RING_CAPACITY,
            FLIGHT_BURST_THRESHOLD,
            FLIGHT_BURST_WINDOW_S,
        )
    }

    /// Creates the dump file with explicit ring capacity and burst
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `burst_threshold` is zero, or the window
    /// is not positive.
    pub fn with_params(
        path: &Path,
        capacity: usize,
        burst_threshold: usize,
        burst_window: f64,
    ) -> io::Result<Self> {
        assert!(capacity > 0, "flight ring must hold at least one span");
        assert!(burst_threshold > 0, "burst threshold must be positive");
        assert!(burst_window > 0.0, "burst window must be positive");
        Ok(FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            fault_times: VecDeque::new(),
            burst_threshold,
            burst_window,
            out: FileOut::create(path)?,
            dumps: 0,
            line: String::with_capacity(256),
        })
    }

    fn dump(&mut self, t_s: f64) {
        self.line.clear();
        writeln!(
            self.line,
            "{{\"burst\":{{\"t_s\":{t_s},\"faults\":{},\"spans\":{}}}}}",
            self.fault_times.len(),
            self.ring.len(),
        )
        .expect("write to String cannot fail");
        self.out.write(self.line.as_bytes());
        for span in &self.ring {
            span.render(&mut self.line);
            self.out.write(self.line.as_bytes());
        }
        self.dumps += 1;
    }
}

impl TelemetrySink for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn gauges_enabled(&self) -> bool {
        false
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
    }

    fn sample(&mut self, _row: &GaugeRow) {}

    fn finish(&mut self) {
        self.out.flush();
    }

    fn take_error(&mut self) -> Option<OutputError> {
        self.out.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SpanKind;

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
    fn burst_triggers_one_dump() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-test.jsonl");
        let mut rec = FlightRecorder::with_params(&path, 16, 3, 5.0).unwrap();
        // Background traffic, no faults: no dump.
        for i in 0..10 {
            rec.record(span(i as f64 * 0.1, FaultTag::None));
        }
        assert_eq!(rec.dumps, 0);
        // Three fault spans inside the window: one dump, ring included.
        rec.record(span(2.0, FaultTag::ServerCrash));
        rec.record(span(2.1, FaultTag::InstanceKill));
        assert_eq!(rec.dumps, 0);
        rec.record(span(2.2, FaultTag::InstanceKill));
        assert_eq!(rec.dumps, 1);
        // Detector re-armed: the next lone fault does not dump again.
        rec.record(span(2.3, FaultTag::InstanceKill));
        assert_eq!(rec.dumps, 1);
        rec.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"burst\""), "got {first}");
        assert!(first.contains("\"faults\":3"));
        // Ring capacity 16 ⇒ the dump holds the 13 spans recorded
        // so far (10 background + 3 faults), plus the header.
        assert_eq!(text.lines().count(), 14);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_outside_the_window_do_not_accumulate() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-window-test.jsonl");
        let mut rec = FlightRecorder::with_params(&path, 8, 2, 1.0).unwrap();
        rec.record(span(0.0, FaultTag::ServerCrash));
        // 10 s later: the first fault left the window.
        rec.record(span(10.0, FaultTag::ServerCrash));
        assert_eq!(rec.dumps, 0);
        rec.record(span(10.5, FaultTag::ServerCrash));
        assert_eq!(rec.dumps, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_is_bounded() {
        let dir = std::env::temp_dir();
        let path = dir.join("infless-flight-bound-test.jsonl");
        let mut rec = FlightRecorder::with_params(&path, 4, 1, 1.0).unwrap();
        for i in 0..100 {
            rec.record(span(i as f64, FaultTag::None));
        }
        rec.record(span(100.0, FaultTag::ServerCrash));
        rec.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        // Header + at most 4 ring spans.
        assert_eq!(text.lines().count(), 5);
        std::fs::remove_file(&path).ok();
    }
}
