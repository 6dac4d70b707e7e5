//! A small metrics registry: counters and gauges with label sets,
//! rendered in the Prometheus text exposition format.
//!
//! This is the exportable metrics surface behind
//! `inflessctl … --metrics-out metrics.prom`. It is deliberately
//! simulation-neutral: [`MetricsSink`], an output of the record path,
//! keeps the last gauge row, the run layer adds final counters from the
//! report, and nothing about the registry can perturb a run — it draws
//! no randomness, schedules no events, and never enters the run report.
//!
//! Rendering is deterministic: families sort by name and series by
//! rendered label set (both live in `BTreeMap`s), so the same run
//! produces byte-identical output — the property the CI determinism
//! gate byte-diffs across shard counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::sink::{SpanEvent, TelemetrySink, TraceMeta};
use crate::timeseries::GaugeRow;

/// What a metric family measures — the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    Counter,
    Gauge,
}

impl FamilyKind {
    fn name(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: FamilyKind,
    /// Series values, keyed by rendered label set.
    series: BTreeMap<String, f64>,
}

/// A registry of metric families (counters and gauges with label
/// sets), rendered deterministically in the Prometheus text exposition
/// format.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<&'static str, Family>,
}

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

    fn family(&mut self, name: &'static str, help: &'static str, kind: FamilyKind) -> &mut Family {
        let fam = self.families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
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

/// The gauge families of a [`GaugeRow`]'s readings, in field order.
const GAUGES: [(&str, &str); 8] = [
    ("infless_instances", "Live instances."),
    (
        "infless_instances_starting",
        "Instances still cold-starting.",
    ),
    (
        "infless_cpu_occupancy",
        "Allocated CPU cores over capacity.",
    ),
    (
        "infless_gpu_occupancy",
        "Allocated GPU SM share over capacity.",
    ),
    ("infless_queue_depth", "Requests queued across instances."),
    ("infless_in_flight_batches", "Batches currently executing."),
    (
        "infless_kv_resident_bytes",
        "KV-cache bytes resident in live decode episodes.",
    ),
    (
        "infless_host_cache_mb_used",
        "Host-memory model cache occupancy, MB.",
    ),
];

/// What a [`MetricsSink`] holds: the run's platform and its last
/// gauge row.
#[derive(Debug, Default)]
struct Snapshot {
    platform: String,
    last: Option<GaugeRow>,
}

/// The Prometheus output of the record path: it keeps the last gauge
/// row, and [`registry`](Self::registry) renders it as the gauge
/// families the run layer adds its report counters to. Clone the
/// handle, give one clone to the run and read the other afterwards.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    snapshot: Arc<Mutex<Snapshot>>,
}

impl MetricsSink {
    /// A registry holding the last gauge row's readings, labelled with
    /// the run's platform; empty if no row was sampled.
    ///
    /// # Panics
    ///
    /// Panics if a clone of this sink panicked mid-record.
    pub fn registry(&self) -> MetricsRegistry {
        let snapshot = self.snapshot.lock().expect("metrics snapshot poisoned");
        let mut reg = MetricsRegistry::new();
        let Some(row) = &snapshot.last else {
            return reg;
        };
        let labels = [("platform", snapshot.platform.as_str())];
        let values = [
            row.instances as f64,
            row.starting as f64,
            row.cpu_occupancy,
            row.gpu_occupancy,
            row.queue_depth as f64,
            row.in_flight_batches as f64,
            row.kv_resident_bytes as f64,
            row.host_cache_mb_used,
        ];
        for ((name, help), v) in GAUGES.into_iter().zip(values) {
            reg.gauge_set(name, help, &labels, v);
        }
        reg
    }
}

impl TelemetrySink for MetricsSink {
    fn enabled(&self) -> bool {
        false
    }

    fn gauges_enabled(&self) -> bool {
        true
    }

    fn begin(&mut self, meta: &TraceMeta) {
        let mut snapshot = self.snapshot.lock().expect("metrics snapshot poisoned");
        snapshot.platform.clone_from(&meta.platform);
    }

    fn record(&mut self, _span: SpanEvent) {}

    fn sample(&mut self, row: &GaugeRow) {
        let mut snapshot = self.snapshot.lock().expect("metrics snapshot poisoned");
        match &mut snapshot.last {
            Some(last) => last.clone_from(row),
            None => snapshot.last = Some(row.clone()),
        }
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
            if !matches!(kind, "counter" | "gauge" | "untyped") {
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
        if !typed.contains_key(name) {
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

    /// The sink renders only the last row it saw, labelled with the
    /// run's platform, and nothing before its first row.
    #[test]
    fn metrics_sink_keeps_the_last_gauge_row() {
        let mut sink = MetricsSink::default();
        assert_eq!(sink.registry().render(), "");
        sink.begin(&TraceMeta {
            platform: "INFless".into(),
            functions: vec![],
        });
        let row = |instances| GaugeRow {
            t_s: 1.0,
            instances,
            starting: 0,
            cpu_occupancy: 0.5,
            gpu_occupancy: 0.0,
            queue_depth: 0,
            in_flight_batches: 0,
            kv_resident_bytes: 0,
            host_cache_mb_used: 0.0,
            per_function_instances: vec![instances],
        };
        sink.sample(&row(3));
        sink.sample(&row(5));
        let text = sink.registry().render();
        assert!(text.contains("infless_instances{platform=\"INFless\"} 5"));
        assert!(text.contains("infless_cpu_occupancy{platform=\"INFless\"} 0.5"));
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
