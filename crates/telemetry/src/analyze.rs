//! Reading a decisions trace back: schema validation, decision
//! tallies, and SLO-violation attribution — the engine behind
//! `inflessctl trace analyze`.
//!
//! Attribution uses the per-request breakdown records: a completed
//! request whose end-to-end latency exceeded its SLO is attributed to
//! the decomposition stage (queueing / batch-wait / startup / execution
//! / interference) that consumed the most of its budget — the stage a
//! fix would have to shrink first.

use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

use serde_json::Value;

use crate::decision::DecisionKind;
use crate::summary::{field_f64, field_str, field_u64, parse_meta};

/// The five decomposition stages, in wire order.
pub const STAGES: [&str; 5] = [
    "queueing",
    "batch_wait",
    "startup",
    "execution",
    "interference",
];

/// Per-function violation attribution.
#[derive(Debug, Clone, Default)]
pub struct FunctionAttribution {
    /// Completed requests with a breakdown record.
    pub completed: u64,
    /// Requests whose end-to-end latency exceeded the SLO.
    pub violations: u64,
    /// Violations attributed to each stage (parallel to [`STAGES`]).
    pub attributed: [u64; 5],
    /// Mean fraction of the SLO the dominant stage consumed, over the
    /// function's violations.
    pub mean_dominant_share: f64,
}

impl FunctionAttribution {
    /// Index into [`STAGES`] of the stage dominating most violations,
    /// or `None` when the function had no violations.
    pub fn dominant_stage(&self) -> Option<usize> {
        if self.violations == 0 {
            return None;
        }
        let mut best = 0;
        for i in 1..5 {
            if self.attributed[i] > self.attributed[best] {
                best = i;
            }
        }
        Some(best)
    }
}

/// Everything `trace analyze` derives from a decisions trace.
#[derive(Debug, Clone, Default)]
pub struct DecisionAnalysis {
    /// Platform name from the metadata record.
    pub platform: String,
    /// Function names from the metadata record.
    pub functions: Vec<String>,
    /// Decision records parsed (excluding breakdowns and the metadata
    /// record).
    pub decisions: u64,
    /// Breakdown records parsed.
    pub breakdowns: u64,
    /// Decision records per kind (wire names).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Rejection reasons seen on `reject` records (wire names).
    pub reject_reasons: BTreeMap<String, u64>,
    /// Per-function violation attribution, indexed like `functions`.
    pub per_function: Vec<FunctionAttribution>,
}

impl DecisionAnalysis {
    /// Total SLO violations across functions.
    pub fn violations(&self) -> u64 {
        self.per_function.iter().map(|f| f.violations).sum()
    }

    /// Violations attributed to each stage, summed over functions.
    pub fn attributed_totals(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for f in &self.per_function {
            for (total, n) in out.iter_mut().zip(f.attributed) {
                *total += n;
            }
        }
        out
    }
}

impl fmt::Display for DecisionAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "decisions: {} · {} decision records, {} breakdowns",
            self.platform, self.decisions, self.breakdowns
        )?;
        for (kind, n) in &self.by_kind {
            writeln!(f, "           {kind}: {n}")?;
        }
        if !self.reject_reasons.is_empty() {
            let reasons: Vec<String> = self
                .reject_reasons
                .iter()
                .map(|(r, n)| format!("{r} ×{n}"))
                .collect();
            writeln!(f, "rejects:   {}", reasons.join(", "))?;
        }
        writeln!(
            f,
            "violations: {} of {} completed requests exceeded their SLO",
            self.violations(),
            self.per_function.iter().map(|x| x.completed).sum::<u64>()
        )?;
        let totals = self.attributed_totals();
        if self.violations() > 0 {
            writeln!(
                f,
                "\ncritical path (violations attributed to their dominant stage):"
            )?;
            writeln!(
                f,
                "{:<14} {:>6} {:>9} {:>11} {:>8} {:>10} {:>13} {:>11}",
                "function",
                "viol",
                "queueing",
                "batch_wait",
                "startup",
                "execution",
                "interference",
                "slo share"
            )?;
            for (i, fa) in self.per_function.iter().enumerate() {
                if fa.violations == 0 {
                    continue;
                }
                let name = self
                    .functions
                    .get(i)
                    .map(String::as_str)
                    .unwrap_or("(unnamed)");
                writeln!(
                    f,
                    "{:<14} {:>6} {:>9} {:>11} {:>8} {:>10} {:>13} {:>10.0}%",
                    name,
                    fa.violations,
                    fa.attributed[0],
                    fa.attributed[1],
                    fa.attributed[2],
                    fa.attributed[3],
                    fa.attributed[4],
                    fa.mean_dominant_share * 100.0
                )?;
            }
            writeln!(
                f,
                "{:<14} {:>6} {:>9} {:>11} {:>8} {:>10} {:>13}",
                "total",
                self.violations(),
                totals[0],
                totals[1],
                totals[2],
                totals[3],
                totals[4]
            )?;
        }
        Ok(())
    }
}

/// Parses and validates a decisions trace.
///
/// Validation is strict, like [`crate::summarize`]: the first line must
/// be the metadata record, every decision line must carry the fixed key
/// set with a known `kind` and `reason`, and every breakdown's five
/// components must sum to its recorded end-to-end latency (within float
/// tolerance). An empty or record-less file is an error.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn analyze<R: BufRead>(reader: R) -> Result<DecisionAnalysis, String> {
    let mut out = DecisionAnalysis::default();
    let mut dominant_share_sums: Vec<f64> = Vec::new();
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
            out.platform = meta.platform;
            out.functions = meta.functions;
            out.per_function = vec![FunctionAttribution::default(); out.functions.len()];
            dominant_share_sums = vec![0.0; out.functions.len()];
            saw_meta = true;
            continue;
        }
        if !saw_meta {
            return Err(format!(
                "line {line_no}: records precede the {{\"meta\":…}} record"
            ));
        }
        let kind = field_str(&value, "kind", line_no)?;
        let function = field_u64(&value, "fn", line_no)? as usize;
        if function >= out.per_function.len() {
            out.per_function
                .resize(function + 1, FunctionAttribution::default());
            dominant_share_sums.resize(function + 1, 0.0);
        }
        if kind == "breakdown" {
            let slo_ms = field_f64(&value, "slo_ms", line_no)?;
            let parts = [
                field_f64(&value, "queue_ms", line_no)?,
                field_f64(&value, "batch_wait_ms", line_no)?,
                field_f64(&value, "startup_ms", line_no)?,
                field_f64(&value, "exec_ms", line_no)?,
                field_f64(&value, "interference_ms", line_no)?,
            ];
            let total = field_f64(&value, "total_ms", line_no)?;
            let sum: f64 = parts.iter().sum();
            let tol = 1e-6 * total.abs().max(1.0);
            if (sum - total).abs() > tol {
                return Err(format!(
                    "line {line_no}: breakdown components sum to {sum} but total_ms is {total}"
                ));
            }
            if parts.iter().any(|p| *p < -tol) {
                return Err(format!("line {line_no}: negative breakdown component"));
            }
            out.breakdowns += 1;
            let fa = &mut out.per_function[function];
            fa.completed += 1;
            if slo_ms > 0.0 && total > slo_ms {
                fa.violations += 1;
                let mut dominant = 0;
                for (s, p) in parts.iter().enumerate() {
                    if *p > parts[dominant] {
                        dominant = s;
                    }
                }
                fa.attributed[dominant] += 1;
                dominant_share_sums[function] += parts[dominant] / slo_ms;
            }
        } else {
            let parsed = DecisionKind::parse(kind)
                .ok_or_else(|| format!("line {line_no}: unknown decision kind {kind:?}"))?;
            let reason = field_str(&value, "reason", line_no)?;
            if crate::decision::DecisionReason::parse(reason).is_none() {
                return Err(format!("line {line_no}: unknown reason {reason:?}"));
            }
            field_f64(&value, "t_s", line_no)?;
            field_f64(&value, "value", line_no)?;
            field_f64(&value, "aux", line_no)?;
            out.decisions += 1;
            *out.by_kind.entry(parsed.name()).or_insert(0) += 1;
            if parsed == DecisionKind::Reject {
                *out.reject_reasons.entry(reason.to_string()).or_insert(0) += 1;
            }
        }
    }
    if !saw_meta {
        return Err("empty decisions trace: missing the {\"meta\":…} record".to_string());
    }
    if out.decisions + out.breakdowns == 0 {
        return Err("decisions trace contains no records after the metadata record".to_string());
    }
    for (i, fa) in out.per_function.iter_mut().enumerate() {
        if fa.violations > 0 {
            fa.mean_dominant_share = dominant_share_sums[i] / fa.violations as f64;
        }
    }
    Ok(out)
}

/// [`analyze`] over a file on disk.
///
/// # Errors
///
/// Returns the I/O error or the first schema violation, as text.
pub fn analyze_file(path: &Path) -> Result<DecisionAnalysis, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    analyze(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"meta\":{\"platform\":\"INFless\",\"functions\":[\"resnet\"]}}\n",
        "{\"t_s\":0.0,\"kind\":\"candidate\",\"fn\":0,\"seq\":0,\"req\":-1,\"inst\":-1,\"srv\":-1,\"batch\":4,\"cpu\":2,\"gpu\":0,\"reason\":\"none\",\"value\":0.5,\"aux\":12.0}\n",
        "{\"t_s\":0.0,\"kind\":\"reject\",\"fn\":0,\"seq\":1,\"req\":-1,\"inst\":-1,\"srv\":-1,\"batch\":32,\"cpu\":1,\"gpu\":0,\"reason\":\"window\",\"value\":0.0,\"aux\":0.0}\n",
        "{\"t_s\":0.1,\"kind\":\"chosen\",\"fn\":0,\"seq\":2,\"req\":-1,\"inst\":-1,\"srv\":-1,\"batch\":4,\"cpu\":2,\"gpu\":0,\"reason\":\"none\",\"value\":0.5,\"aux\":0.97}\n",
        "{\"t_s\":0.2,\"kind\":\"launch\",\"fn\":0,\"seq\":3,\"req\":-1,\"inst\":0,\"srv\":1,\"batch\":0,\"cpu\":0,\"gpu\":0,\"reason\":\"cold_boot\",\"value\":5.0,\"aux\":0.0}\n",
        // Violation dominated by startup: 120 > 100 SLO.
        "{\"t_s\":5.5,\"kind\":\"breakdown\",\"fn\":0,\"seq\":4,\"req\":0,\"slo_ms\":100,\"queue_ms\":5,\"batch_wait_ms\":5,\"startup_ms\":90,\"exec_ms\":18,\"interference_ms\":2,\"total_ms\":120}\n",
        // In-SLO request: not a violation.
        "{\"t_s\":5.6,\"kind\":\"breakdown\",\"fn\":0,\"seq\":5,\"req\":1,\"slo_ms\":100,\"queue_ms\":1,\"batch_wait_ms\":4,\"startup_ms\":0,\"exec_ms\":20,\"interference_ms\":5,\"total_ms\":30}\n",
    );

    #[test]
    fn good_trace_analyzes_and_attributes() {
        let a = analyze(GOOD.as_bytes()).unwrap();
        assert_eq!(a.platform, "INFless");
        assert_eq!(a.decisions, 4);
        assert_eq!(a.breakdowns, 2);
        assert_eq!(a.by_kind.get("candidate"), Some(&1));
        assert_eq!(a.reject_reasons.get("window"), Some(&1));
        assert_eq!(a.violations(), 1);
        let fa = &a.per_function[0];
        assert_eq!(fa.completed, 2);
        // Dominant stage of the one violation is startup (index 2).
        assert_eq!(fa.attributed, [0, 0, 1, 0, 0]);
        assert_eq!(fa.dominant_stage(), Some(2));
        assert!((fa.mean_dominant_share - 0.9).abs() < 1e-9);
        let text = a.to_string();
        assert!(text.contains("critical path"));
        assert!(text.contains("resnet"));
    }

    #[test]
    fn component_sum_mismatch_is_rejected() {
        let trace = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[\"f\"]}}\n",
            "{\"t_s\":1.0,\"kind\":\"breakdown\",\"fn\":0,\"seq\":0,\"req\":0,\"slo_ms\":100,\
             \"queue_ms\":1,\"batch_wait_ms\":1,\"startup_ms\":1,\"exec_ms\":1,\
             \"interference_ms\":1,\"total_ms\":50}\n",
        );
        assert!(analyze(trace.as_bytes()).unwrap_err().contains("sum"));
    }

    #[test]
    fn unknown_kind_and_empty_trace_are_rejected() {
        let bad = concat!(
            "{\"meta\":{\"platform\":\"x\",\"functions\":[]}}\n",
            "{\"t_s\":1.0,\"kind\":\"mystery\",\"fn\":0,\"seq\":0,\"req\":-1,\"inst\":-1,\
             \"srv\":-1,\"batch\":0,\"cpu\":0,\"gpu\":0,\"reason\":\"none\",\"value\":0,\"aux\":0}\n",
        );
        assert!(analyze(bad.as_bytes()).unwrap_err().contains("unknown"));
        assert!(analyze("".as_bytes()).unwrap_err().contains("empty"));
        let meta_only = "{\"meta\":{\"platform\":\"x\",\"functions\":[]}}\n";
        assert!(analyze(meta_only.as_bytes())
            .unwrap_err()
            .contains("no records"));
    }
}
