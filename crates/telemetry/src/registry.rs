//! A small metrics registry: counters, gauges, and fixed-bucket
//! histograms with label sets, rendered in the Prometheus text
//! exposition format.
//!
//! This is the exportable metrics surface behind
//! `inflessctl … --metrics-out metrics.prom` and the feed for a future
//! live `serve` mode. It is deliberately simulation-neutral: the engine
//! feeds it at scaler ticks (values it computes anyway), the run layer
//! adds final counters from the report, and nothing about the registry
//! can perturb a run — it draws no randomness, schedules no events, and
//! never enters the run report.
//!
//! Rendering is deterministic: families sort by name and series by
//! rendered label set (both live in `BTreeMap`s), so the same run
//! produces byte-identical output — the property the CI determinism
//! gate byte-diffs across shard counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What a metric family measures — the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    fn name(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// One series' cumulative histogram state.
#[derive(Debug, Clone, Default)]
struct HistSeries {
    /// Count per bucket, parallel to the family's upper bounds.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: FamilyKind,
    /// Scalar series (counter/gauge), keyed by rendered label set.
    series: BTreeMap<String, f64>,
    /// Histogram series, keyed by rendered label set.
    hists: BTreeMap<String, HistSeries>,
    /// Bucket upper bounds (histograms only), fixed at first observe.
    buckets: Vec<f64>,
}

/// A registry of metric families (counters, gauges and fixed-bucket
/// histograms with label sets), rendered deterministically in the
/// Prometheus text exposition format.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<&'static str, Family>,
}

/// A shared handle to a registry: the engine holds one and feeds it at
/// scaler ticks; the run layer holds another and renders at the end.
pub type MetricsHandle = Arc<Mutex<MetricsRegistry>>;

/// Renders a label set as the `{k="v",…}` selector, keys sorted —
/// identical label sets always produce identical series keys.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{k}=\"").expect("write to String cannot fail");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A fresh shared handle to an empty registry.
    pub fn handle() -> MetricsHandle {
        Arc::new(Mutex::new(MetricsRegistry::new()))
    }

    fn family(&mut self, name: &'static str, help: &'static str, kind: FamilyKind) -> &mut Family {
        let fam = self.families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
            hists: BTreeMap::new(),
            buckets: Vec::new(),
        });
        assert_eq!(
            fam.kind, kind,
            "metric {name} registered twice with different types"
        );
        fam
    }

    /// Adds `v` to the counter series `name{labels}` (created at zero).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type, or
    /// `v` is negative (counters are monotone).
    pub fn counter_add(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        v: f64,
    ) {
        assert!(v >= 0.0, "counter {name} decremented");
        let key = render_labels(labels);
        *self
            .family(name, help, FamilyKind::Counter)
            .series
            .entry(key)
            .or_insert(0.0) += v;
    }

    /// Sets the gauge series `name{labels}` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn gauge_set(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        v: f64,
    ) {
        let key = render_labels(labels);
        self.family(name, help, FamilyKind::Gauge)
            .series
            .insert(key, v);
    }

    /// Observes `v` into the histogram series `name{labels}`. The first
    /// observation of a family fixes its bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type or
    /// with different buckets.
    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        buckets: &[f64],
        v: f64,
    ) {
        let key = render_labels(labels);
        let fam = self.family(name, help, FamilyKind::Histogram);
        if fam.buckets.is_empty() {
            fam.buckets = buckets.to_vec();
        } else {
            assert_eq!(fam.buckets, buckets, "histogram {name} buckets changed");
        }
        let n = fam.buckets.len();
        let hist = fam.hists.entry(key).or_insert_with(|| HistSeries {
            counts: vec![0; n],
            ..HistSeries::default()
        });
        for (i, le) in fam.buckets.iter().enumerate() {
            if v <= *le {
                hist.counts[i] += 1;
            }
        }
        hist.sum += v;
        hist.total += 1;
    }

    /// Renders every family in the Prometheus text exposition format:
    /// `# HELP` and `# TYPE` per family, one line per series, families
    /// and series in sorted order (so no series ever repeats).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            writeln!(out, "# HELP {name} {}", fam.help).expect("write to String cannot fail");
            writeln!(out, "# TYPE {name} {}", fam.kind.name())
                .expect("write to String cannot fail");
            for (labels, v) in &fam.series {
                writeln!(out, "{name}{labels} {v}").expect("write to String cannot fail");
            }
            for (labels, hist) in &fam.hists {
                // Re-render the bucket lines with the `le` label
                // appended inside the selector.
                let inner = labels.strip_suffix('}').map(|s| &s[1..]);
                for (i, le) in fam.buckets.iter().enumerate() {
                    let sel = match inner {
                        Some(rest) if !rest.is_empty() => format!("{{{rest},le=\"{le}\"}}"),
                        _ => format!("{{le=\"{le}\"}}"),
                    };
                    writeln!(out, "{name}_bucket{sel} {}", hist.counts[i])
                        .expect("write to String cannot fail");
                }
                let sel = match inner {
                    Some(rest) if !rest.is_empty() => format!("{{{rest},le=\"+Inf\"}}"),
                    _ => String::from("{le=\"+Inf\"}"),
                };
                writeln!(out, "{name}_bucket{sel} {}", hist.total)
                    .expect("write to String cannot fail");
                writeln!(out, "{name}_sum{labels} {}", hist.sum)
                    .expect("write to String cannot fail");
                writeln!(out, "{name}_count{labels} {}", hist.total)
                    .expect("write to String cannot fail");
            }
        }
        out
    }

    /// Renders to a file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Validates Prometheus text-format output: every series line belongs
/// to a family that declared `# HELP` and `# TYPE` first, no series
/// (name + label set) appears twice, and values parse as numbers.
/// This is the check CI runs over `--metrics-out` artifacts.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("line {line_no}: HELP with no metric name"));
            }
            helped.insert(name.to_string(), true);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {line_no}: unknown metric type {kind:?}"));
            }
            if !helped.contains_key(name) {
                return Err(format!("line {line_no}: TYPE for {name} precedes its HELP"));
            }
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {line_no}: expected \"series value\""))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: non-numeric sample value {value:?}"))?;
        let name = series.split('{').next().unwrap_or(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !typed.contains_key(base) {
            return Err(format!(
                "line {line_no}: series {name} has no # TYPE header"
            ));
        }
        if seen.insert(series.to_string(), ()).is_some() {
            return Err(format!("line {line_no}: duplicate series {series}"));
        }
    }
    if typed.is_empty() {
        return Err("no metric families found".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("sim_requests_total", "requests", &[("function", "f0")], 2.0);
        reg.counter_add("sim_requests_total", "requests", &[("function", "f0")], 3.0);
        reg.gauge_set("sim_instances", "instances", &[], 4.0);
        reg.gauge_set("sim_instances", "instances", &[], 7.0);
        let text = reg.render();
        assert!(text.contains("sim_requests_total{function=\"f0\"} 5"));
        assert!(text.contains("sim_instances 7"));
        assert!(text.contains("# TYPE sim_requests_total counter"));
        assert!(text.contains("# HELP sim_instances instances"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn histogram_renders_buckets_sum_count() {
        let mut reg = MetricsRegistry::new();
        let buckets = [1.0, 10.0, 100.0];
        for v in [0.5, 5.0, 50.0, 500.0] {
            reg.histogram_observe("sim_queue_depth", "queue depth", &[], &buckets, v);
        }
        let text = reg.render();
        assert!(text.contains("sim_queue_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("sim_queue_depth_bucket{le=\"10\"} 2"));
        assert!(text.contains("sim_queue_depth_bucket{le=\"100\"} 3"));
        assert!(text.contains("sim_queue_depth_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("sim_queue_depth_count 4"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn labels_sort_for_stable_series_keys() {
        assert_eq!(
            render_labels(&[("z", "1"), ("a", "2")]),
            "{a=\"2\",z=\"1\"}"
        );
        assert_eq!(render_labels(&[]), "");
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.gauge_set("b_metric", "b", &[("x", "1")], 1.0);
            reg.gauge_set("a_metric", "a", &[], 2.0);
            reg.counter_add("c_total", "c", &[("fn", "f1")], 1.0);
            reg.counter_add("c_total", "c", &[("fn", "f0")], 1.0);
            reg.render()
        };
        assert_eq!(build(), build());
        // Families render in name order regardless of insertion order.
        let text = build();
        let a = text.find("a_metric").unwrap();
        let b = text.find("b_metric").unwrap();
        assert!(a < b);
    }

    #[test]
    fn validator_rejects_duplicates_and_untyped_series() {
        let dup = "# HELP m x\n# TYPE m gauge\nm 1\nm 2\n";
        assert!(validate_prometheus_text(dup)
            .unwrap_err()
            .contains("duplicate"));
        let untyped = "orphan 1\n";
        assert!(validate_prometheus_text(untyped)
            .unwrap_err()
            .contains("no # TYPE"));
        assert!(validate_prometheus_text("")
            .unwrap_err()
            .contains("no metric"));
    }
}
