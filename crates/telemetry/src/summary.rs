//! Reading a JSONL span trace back: schema validation and the
//! span-level recomputation of the run's conservation invariants.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::BufRead;
use std::path::Path;

use serde_json::Value;

use crate::hist::{Log2Histogram, TICKS_PER_UNIT};
use crate::sink::{FaultTag, SpanKind, TraceMeta};

/// Per-function tallies recomputed from spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionCounts {
    /// Arrival spans.
    pub arrivals: u64,
    /// Complete spans.
    pub completed: u64,
    /// Dropped spans.
    pub dropped: u64,
    /// Shed spans.
    pub shed: u64,
}

/// Everything `trace summary` derives from a span trace, independent of
/// the run report the trace came from.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Platform name from the metadata record.
    pub platform: String,
    /// Function names from the metadata record.
    pub functions: Vec<String>,
    /// Span lines parsed (excluding the metadata record).
    pub events: u64,
    /// Arrival spans.
    pub arrivals: u64,
    /// Enqueued spans.
    pub enqueued: u64,
    /// Batch-formed spans (one per request in each sealed batch).
    pub batches_formed: u64,
    /// Exec-start spans (one per sealed batch).
    pub exec_starts: u64,
    /// Complete spans.
    pub completed: u64,
    /// Dropped spans.
    pub dropped: u64,
    /// Shed spans.
    pub shed: u64,
    /// Displaced spans.
    pub displaced: u64,
    /// Retried spans.
    pub retried: u64,
    /// Swap-begin spans (instance-scoped, synthetic request ids).
    pub swap_begins: u64,
    /// Swap-complete spans.
    pub swap_completes: u64,
    /// Prefill-start spans (one per admitted autoregressive sequence).
    pub prefill_starts: u64,
    /// First-token spans (one per admitted sequence — TTFT marks).
    pub first_tokens: u64,
    /// Decode-complete spans (one per finished sequence; its terminal
    /// complete span follows separately).
    pub decode_completes: u64,
    /// Displaced spans per fault annotation (wire names).
    pub displaced_by_fault: BTreeMap<&'static str, u64>,
    /// Per-function tallies, indexed like `functions`.
    pub per_function: Vec<FunctionCounts>,
    /// End-to-end latency (ms) of every arrival→complete pair.
    pub latency_ms: Log2Histogram,
    /// Batch size of every exec-start span.
    pub batch_sizes: Log2Histogram,
}

impl TraceSummary {
    /// Span-form of the engine's gateway conservation law: every
    /// arrival terminated in exactly one of complete/dropped/shed.
    /// (`summarize` already rejects traces where an individual request
    /// terminates twice; this checks the totals line up too.)
    pub fn conserved(&self) -> bool {
        self.arrivals == self.completed + self.dropped + self.shed
    }

    /// Span-form of the fault-recovery conservation law
    /// `displaced == retried + shed` — recomputed from spans alone.
    pub fn displacement_balanced(&self) -> bool {
        self.displaced == self.retried + self.shed
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace: {} · {} spans", self.platform, self.events)?;
        writeln!(
            f,
            "lifecycle: {} arrivals → {} enqueued → {} batch-formed ({} batches) → {} completed",
            self.arrivals, self.enqueued, self.batches_formed, self.exec_starts, self.completed
        )?;
        writeln!(
            f,
            "terminal:  {} completed + {} dropped + {} shed (conserved: {})",
            self.completed,
            self.dropped,
            self.shed,
            self.conserved()
        )?;
        writeln!(
            f,
            "faults:    {} displaced = {} retried + {} shed (balanced: {})",
            self.displaced,
            self.retried,
            self.shed,
            self.displacement_balanced()
        )?;
        for (tag, n) in &self.displaced_by_fault {
            writeln!(f, "           displaced by {tag}: {n}")?;
        }
        if self.swap_begins + self.swap_completes > 0 {
            writeln!(
                f,
                "swaps:     {} begun, {} completed",
                self.swap_begins, self.swap_completes
            )?;
        }
        if self.prefill_starts + self.first_tokens + self.decode_completes > 0 {
            writeln!(
                f,
                "tokens:    {} prefills, {} first tokens, {} decode-completes",
                self.prefill_starts, self.first_tokens, self.decode_completes
            )?;
        }
        if !self.latency_ms.is_empty() {
            writeln!(
                f,
                "latency:   p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms  (n = {})",
                self.latency_ms.quantile(0.5).unwrap_or(0.0),
                self.latency_ms.quantile(0.95).unwrap_or(0.0),
                self.latency_ms.quantile(0.99).unwrap_or(0.0),
                self.latency_ms.len()
            )?;
        }
        for (i, counts) in self.per_function.iter().enumerate() {
            let name = self
                .functions
                .get(i)
                .map(String::as_str)
                .unwrap_or("(unnamed)");
            writeln!(
                f,
                "fn {i} {name}: {} arrivals, {} completed, {} dropped, {} shed",
                counts.arrivals, counts.completed, counts.dropped, counts.shed
            )?;
        }
        Ok(())
    }
}

/// Parses the `{"meta":…}` record every trace opens with (line 1).
pub(crate) fn parse_meta(value: &Value) -> Result<TraceMeta, String> {
    let meta = value
        .get("meta")
        .ok_or_else(|| "line 1: expected the {\"meta\":…} record".to_string())?;
    let platform = field_str(meta, "platform", 1)?.to_string();
    let functions = meta
        .get("functions")
        .and_then(Value::as_array)
        .ok_or_else(|| "line 1: meta.functions must be an array".to_string())?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| "line 1: non-string function name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceMeta {
        platform,
        functions,
    })
}

pub(crate) fn field_u64(obj: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing or non-integer \"{key}\""))
}

fn field_i64(obj: &Value, key: &str, line_no: usize) -> Result<i64, String> {
    obj.get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("line {line_no}: missing or non-integer \"{key}\""))
}

pub(crate) fn field_f64(obj: &Value, key: &str, line_no: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line_no}: missing or non-numeric \"{key}\""))
}

pub(crate) fn field_str<'v>(obj: &'v Value, key: &str, line_no: usize) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: missing or non-string \"{key}\""))
}

/// Parses and validates a JSONL span trace.
///
/// Validation is strict — this is what the CI schema check runs: every
/// line must parse as JSON with the fixed key set and types, the first
/// line must be the metadata record, per-request timestamps must be
/// monotone, and no request may terminate (complete/drop/shed) twice.
/// Requests are keyed by `(fn, false, req)` and swapping instances by
/// `(fn, true, inst)`.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn summarize<R: BufRead>(reader: R) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut arrival_at: HashMap<(u64, bool, i64), f64> = HashMap::new();
    let mut terminated: HashMap<(u64, bool, i64), SpanKind> = HashMap::new();
    let mut last_t: HashMap<(u64, bool, i64), f64> = HashMap::new();
    let mut saw_meta = false;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line.map_err(|e| format!("line {line_no}: read error: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(&line)
            .map_err(|e| format!("line {line_no}: invalid JSON: {e}"))?;
        if line_no == 1 {
            let meta = parse_meta(&value)?;
            summary.platform = meta.platform;
            summary.functions = meta.functions;
            summary.per_function = vec![FunctionCounts::default(); summary.functions.len()];
            saw_meta = true;
            continue;
        }
        let t_s = field_f64(&value, "t_s", line_no)?;
        let kind = SpanKind::parse(field_str(&value, "kind", line_no)?)
            .ok_or_else(|| format!("line {line_no}: unknown span kind"))?;
        let req = field_u64(&value, "req", line_no)?;
        let function = field_u64(&value, "fn", line_no)?;
        let inst = field_i64(&value, "inst", line_no)?;
        field_i64(&value, "srv", line_no)?;
        let batch = field_u64(&value, "batch", line_no)?;
        let fault = FaultTag::parse(field_str(&value, "fault", line_no)?)
            .ok_or_else(|| format!("line {line_no}: unknown fault tag"))?;
        let subject = match kind {
            SpanKind::SwapBegin | SpanKind::SwapComplete => (function, true, inst),
            _ => (function, false, req as i64),
        };
        if let Some(&prev) = last_t.get(&subject) {
            if t_s < prev {
                return Err(format!(
                    "line {line_no}: fn {function} request {req} went backwards ({t_s} < {prev})"
                ));
            }
        }
        last_t.insert(subject, t_s);
        let function = function as usize;
        if function >= summary.per_function.len() {
            summary
                .per_function
                .resize(function + 1, FunctionCounts::default());
        }
        summary.events += 1;
        match kind {
            SpanKind::Arrival => {
                summary.arrivals += 1;
                summary.per_function[function].arrivals += 1;
                arrival_at.insert(subject, t_s);
            }
            SpanKind::Enqueued => summary.enqueued += 1,
            SpanKind::BatchFormed => summary.batches_formed += 1,
            SpanKind::ExecStart => {
                summary.exec_starts += 1;
                summary
                    .batch_sizes
                    .record(batch.saturating_mul(TICKS_PER_UNIT));
            }
            SpanKind::Complete | SpanKind::Dropped | SpanKind::Shed => {
                if let Some(first) = terminated.insert(subject, kind) {
                    return Err(format!(
                        "line {line_no}: fn {function} request {req} terminated twice \
                         ({} then {})",
                        first.name(),
                        kind.name()
                    ));
                }
                match kind {
                    SpanKind::Complete => {
                        summary.completed += 1;
                        summary.per_function[function].completed += 1;
                        if let Some(&t0) = arrival_at.get(&subject) {
                            summary.latency_ms.add((t_s - t0) * 1e3);
                        }
                    }
                    SpanKind::Dropped => {
                        summary.dropped += 1;
                        summary.per_function[function].dropped += 1;
                    }
                    _ => {
                        summary.shed += 1;
                        summary.per_function[function].shed += 1;
                    }
                }
            }
            SpanKind::Displaced => {
                summary.displaced += 1;
                *summary.displaced_by_fault.entry(fault.name()).or_insert(0) += 1;
            }
            SpanKind::Retried => summary.retried += 1,
            // Instance-scoped: never terminal, excluded from the
            // gateway conservation law.
            SpanKind::SwapBegin => summary.swap_begins += 1,
            SpanKind::SwapComplete => summary.swap_completes += 1,
            // Token-level marks: non-terminal (the sequence's complete
            // span still closes the gateway conservation law).
            SpanKind::PrefillStart => summary.prefill_starts += 1,
            SpanKind::FirstToken => summary.first_tokens += 1,
            SpanKind::DecodeComplete => summary.decode_completes += 1,
        }
    }
    // An empty or span-less file is a broken artifact, not a quiet
    // success: every real run writes its metadata record and at least
    // one span, so "nothing to summarize" means the producer failed.
    if !saw_meta {
        return Err("empty trace: missing the {\"meta\":…} record".to_string());
    }
    if summary.events == 0 {
        return Err("trace contains no spans after the metadata record".to_string());
    }
    Ok(summary)
}

/// [`summarize`] over a file on disk.
///
/// # Errors
///
/// Returns the I/O error or the first schema violation, as text.
pub fn summarize_file(path: &Path) -> Result<TraceSummary, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    summarize(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"meta\":{\"platform\":\"INFless\",\"functions\":[\"resnet\"]}}\n",
        "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
        "{\"t_s\":0.5,\"kind\":\"enqueued\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":2,\"batch\":0,\"fault\":\"none\"}\n",
        "{\"t_s\":0.6,\"kind\":\"batch_formed\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":2,\"batch\":1,\"fault\":\"none\"}\n",
        "{\"t_s\":0.6,\"kind\":\"exec_start\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":2,\"batch\":1,\"fault\":\"none\"}\n",
        "{\"t_s\":0.7,\"kind\":\"displaced\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":2,\"batch\":0,\"fault\":\"server_crash\"}\n",
        "{\"t_s\":0.7,\"kind\":\"shed\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
        "{\"t_s\":1.0,\"kind\":\"arrival\",\"req\":1,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
        "{\"t_s\":1.2,\"kind\":\"complete\",\"req\":1,\"fn\":0,\"inst\":1,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
    );

    #[test]
    fn good_trace_summarizes_and_conserves() {
        let s = summarize(GOOD.as_bytes()).unwrap();
        assert_eq!(s.platform, "INFless");
        assert_eq!(s.functions, vec!["resnet".to_string()]);
        assert_eq!(s.events, 8);
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.displaced, 1);
        assert_eq!(s.displaced_by_fault.get("server_crash"), Some(&1));
        assert!(s.conserved());
        assert!(s.displacement_balanced());
        // req 1 latency: 1.2 − 1.0 = 200 ms, exact at the extremes.
        let p100 = s.latency_ms.quantile(1.0).unwrap();
        assert!((p100 - 200.0).abs() < 1e-6, "got {p100}");
        // Render the human summary (smoke: no panic, mentions counts).
        let text = s.to_string();
        assert!(text.contains("2 arrivals"));
    }

    /// Swap spans are keyed by their instance, so they never collide
    /// with real requests in the per-request validation, and they stay
    /// out of the gateway conservation law.
    #[test]
    fn swap_spans_are_counted_and_non_terminal() {
        let synth = (1u64 << 63) | 7;
        let trace = format!(
            concat!(
                "{{\"meta\":{{\"platform\":\"Torpor\",\"functions\":[\"f\"]}}}}\n",
                "{{\"t_s\":0.1,\"kind\":\"swap_begin\",\"req\":{synth},\"fn\":0,\"inst\":7,\"srv\":1,\"batch\":0,\"fault\":\"none\"}}\n",
                "{{\"t_s\":0.2,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}}\n",
                "{{\"t_s\":0.4,\"kind\":\"swap_complete\",\"req\":{synth},\"fn\":0,\"inst\":7,\"srv\":1,\"batch\":0,\"fault\":\"none\"}}\n",
                "{{\"t_s\":0.5,\"kind\":\"complete\",\"req\":0,\"fn\":0,\"inst\":7,\"srv\":1,\"batch\":1,\"fault\":\"none\"}}\n",
            ),
            synth = synth
        );
        let s = summarize(trace.as_bytes()).unwrap();
        assert_eq!(s.swap_begins, 1);
        assert_eq!(s.swap_completes, 1);
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.completed, 1);
        assert!(s.conserved());
        assert!(s.to_string().contains("1 begun, 1 completed"));
    }

    /// Token-level spans are non-terminal: the sequence's complete span
    /// still closes the gateway conservation law.
    #[test]
    fn llm_spans_are_counted_and_non_terminal() {
        let trace = concat!(
            "{\"meta\":{\"platform\":\"INFless\",\"functions\":[\"chat\"]}}\n",
            "{\"t_s\":0.1,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.1,\"kind\":\"enqueued\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.2,\"kind\":\"prefill_start\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
            "{\"t_s\":0.3,\"kind\":\"first_token\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
            "{\"t_s\":0.9,\"kind\":\"decode_complete\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
            "{\"t_s\":0.9,\"kind\":\"complete\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
        );
        let s = summarize(trace.as_bytes()).unwrap();
        assert_eq!(s.prefill_starts, 1);
        assert_eq!(s.first_tokens, 1);
        assert_eq!(s.decode_completes, 1);
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.completed, 1);
        assert!(s.conserved());
        assert!(s.to_string().contains("1 prefills"));
    }

    /// Regression: an empty or span-less trace used to summarize as a
    /// quiet success; it is a broken artifact and must hard-error.
    #[test]
    fn empty_and_spanless_traces_are_rejected() {
        assert!(summarize("".as_bytes())
            .unwrap_err()
            .contains("empty trace"));
        assert!(summarize("\n\n".as_bytes())
            .unwrap_err()
            .contains("empty trace"));
        let meta_only = "{\"meta\":{\"platform\":\"x\",\"functions\":[]}}\n";
        assert!(summarize(meta_only.as_bytes())
            .unwrap_err()
            .contains("no spans"));
    }

    #[test]
    fn malformed_json_is_rejected() {
        let trace = "{\"meta\":{\"platform\":\"x\",\"functions\":[]}}\nnot json\n";
        assert!(summarize(trace.as_bytes()).unwrap_err().contains("line 2"));
    }

    #[test]
    fn missing_meta_is_rejected() {
        let trace =
            "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n";
        assert!(summarize(trace.as_bytes()).unwrap_err().contains("meta"));
    }

    #[test]
    fn missing_key_is_rejected() {
        let trace = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[]}}\n",
            "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0}\n",
        );
        assert!(summarize(trace.as_bytes()).unwrap_err().contains("fault"));
    }

    #[test]
    fn double_termination_is_rejected() {
        let trace = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[\"f\"]}}\n",
            "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.6,\"kind\":\"complete\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
            "{\"t_s\":0.7,\"kind\":\"dropped\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
        );
        assert!(summarize(trace.as_bytes())
            .unwrap_err()
            .contains("terminated twice"));
    }

    /// Request ids are per-function ordinals: request 0 of two
    /// functions is two requests, but a second terminal span within one
    /// function is still a double termination.
    #[test]
    fn requests_are_keyed_by_function_and_ordinal() {
        let two = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[\"f\",\"g\"]}}\n",
            "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.5,\"kind\":\"arrival\",\"req\":0,\"fn\":1,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.6,\"kind\":\"complete\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":1,\"fault\":\"none\"}\n",
            "{\"t_s\":0.6,\"kind\":\"dropped\",\"req\":0,\"fn\":1,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
        );
        let s = summarize(two.as_bytes()).unwrap();
        assert_eq!(s.arrivals, 2);
        assert!(s.conserved());
        let twice = format!(
            "{two}{}",
            "{\"t_s\":0.7,\"kind\":\"shed\",\"req\":0,\"fn\":1,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n"
        );
        let err = summarize(twice.as_bytes()).unwrap_err();
        assert!(err.contains("fn 1 request 0 terminated twice"), "{err}");
    }

    #[test]
    fn time_reversal_within_a_request_is_rejected() {
        let trace = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[\"f\"]}}\n",
            "{\"t_s\":1.0,\"kind\":\"arrival\",\"req\":0,\"fn\":0,\"inst\":-1,\"srv\":-1,\"batch\":0,\"fault\":\"none\"}\n",
            "{\"t_s\":0.9,\"kind\":\"enqueued\",\"req\":0,\"fn\":0,\"inst\":0,\"srv\":0,\"batch\":0,\"fault\":\"none\"}\n",
        );
        assert!(summarize(trace.as_bytes())
            .unwrap_err()
            .contains("backwards"));
    }
}
