//! The repository benchmark: four fixed workloads run through
//! `infless_bench::System::execute`, reported as completed simulated
//! requests per wall-second, set-up time and peak memory, and guarded
//! by the simulated system's deterministic quality metrics. README.md
//! beside this package describes the protocol.

mod layers;
mod reference;
mod round;
mod workloads;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use infless_core::InflessConfig;
use infless_models::profile::ConfigGrid;
use infless_models::{HardwareModel, ModelSpec, ProfileDatabase};
use serde_json::{json, Map, Value};

use crate::layers::quantile;
use crate::workloads::{NAMES, SIM_SEED};

/// End-to-end metrics: name and unit. `sim_ms` marks simulated time.
/// The first three are measured over rounds and passes, the speed and
/// set-up time scaled to the reference host speed; the rest are read
/// off the deterministic reports.
const END_TO_END: [(&str, &str); 6] = [
    ("completed_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("slo_attainment", "ratio"),
    ("completed_share", "ratio"),
    ("latency_p99_ms", "sim_ms"),
];

/// Per-layer metrics, reported by `--trace 1`: name and unit. The
/// `quality.*` entries are simulated-system metrics whose spread across
/// seeds is too wide for an end-to-end bound.
const PER_LAYER: [(&str, &str); 57] = [
    ("completed_rps_wall", "req/s"),
    ("setup_wall_s", "s"),
    ("host.reference_ms", "ms"),
    ("quality.latency_p50_ms", "sim_ms"),
    ("quality.latency_p999_ms", "sim_ms"),
    ("quality.thpt_per_resource", "req/res-s"),
    ("workload.build_s", "s"),
    ("workload.arrivals", "count"),
    ("workload.offered_rps_wall", "req/s"),
    ("models.cop_load_s", "s"),
    ("models.cop_build_s", "s"),
    ("models.cop_snapshot_kb", "KiB"),
    ("models.predict_ns", "ns"),
    ("setup.construct_s", "s"),
    ("sim.event_ns", "ns"),
    ("engine.dispatch_p50_ns", "ns"),
    ("engine.dispatch_p99_ns", "ns"),
    ("router.dispatch_ns", "ns"),
    ("router.churn_ns", "ns"),
    ("batching.batch_size_mean", "req"),
    ("batching.batch_wait_p99_ms", "sim_ms"),
    ("batching.queue_wait_p99_ms", "sim_ms"),
    ("scheduler.rounds", "count"),
    ("scheduler.round_p50_us", "us"),
    ("scheduler.round_p99_us", "us"),
    ("scheduler.schedule_us", "us"),
    ("scheduler.candidates", "count"),
    ("scheduler.reject_share", "ratio"),
    ("cluster.place_commit_ns", "ns"),
    ("cluster.rollback_ns", "ns"),
    ("cluster.resize_ns", "ns"),
    ("cluster.replay_op_ns", "ns"),
    ("cluster.launches", "count"),
    ("cluster.retirements", "count"),
    ("cluster.consolidation_commit_share", "ratio"),
    ("coldstart.cold_launches", "count"),
    ("coldstart.prewarmed_launches", "count"),
    ("coldstart.swap_launches", "count"),
    ("coldstart.evictions", "count"),
    ("coldstart.cold_request_rate", "ratio"),
    ("coldstart.cold_wait_mean_ms", "sim_ms"),
    ("faults.crashes", "count"),
    ("faults.kills", "count"),
    ("faults.displaced", "count"),
    ("faults.shed", "count"),
    ("faults.recapacity_mean_ms", "sim_ms"),
    ("llm.decoded_tokens", "count"),
    ("llm.cache_full", "count"),
    ("llm.tokens_per_wall_s", "1/s"),
    ("llm.decode_step_ns", "ns"),
    ("llm.ttft_p99_ms", "sim_ms"),
    ("llm.tpot_p99_ms", "sim_ms"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.decision_records", "count"),
    ("telemetry.decisions_overhead", "ratio"),
    ("sharded.s1_over_s2_wall", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The middle of the 18–44 ms the reference kernel's median run ranged
/// over in one day on the host the bounds were calibrated on (2-core
/// Intel Xeon, shared), s. `completed_rps` and `setup_s` are scaled to
/// a host on which the kernel takes this long.
const REFERENCE_NOMINAL_S: f64 = 0.030;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    rounds: usize,
    /// Timed seconds per workload, shared evenly among its rounds; in a
    /// child, the round's own share.
    seconds: f64,
    traced: bool,
    quick: bool,
    /// Internal: run one round of this workload and print its sample.
    child: Option<String>,
}

const USAGE: &str = "usage: benchmark [--workload W]... [--seed N] [--rounds R] \
[--seconds S] [--trace 0|1] [--quick]
workloads: steady_hot fleet_churn llm_chat reactive_swap (default: all)";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        rounds: 3,
        seconds: 20.0,
        traced: false,
        quick: false,
        child: None,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
    }
    let workload = |w: String| {
        if NAMES.contains(&w.as_str()) {
            Ok(w)
        } else {
            Err(format!("unknown workload `{w}`"))
        }
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => o
                .workloads
                .push(workload(value("--workload", args.next())?)?),
            "--child" => o.child = Some(workload(value("--child", args.next())?)?),
            "--seed" => o.seed = value("--seed", args.next())?,
            "--rounds" => o.rounds = value("--rounds", args.next())?,
            "--seconds" => o.seconds = value("--seconds", args.next())?,
            "--trace" => {
                o.traced = match value::<u8>("--trace", args.next())? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace takes 0 or 1, not {n}")),
                }
            }
            "--quick" => o.quick = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if o.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if o.workloads.is_empty() {
        o.workloads = NAMES.iter().map(|w| w.to_string()).collect();
    }
    if o.quick {
        o.rounds = 1;
        o.seconds = 0.0;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    let result = match &opts.child {
        Some(name) => child(name, &opts, &out),
        None => parent(&opts, &out),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `$CARGO_TARGET_DIR/benchmark`, or `target/benchmark`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// Child mode: one round, printed as one JSON line; a traced round also
/// appends its spans to `trace.jsonl`.
fn child(name: &str, opts: &Options, out: &Path) -> Result<ExitCode, String> {
    let sample = if opts.traced {
        let (sample, spans) = round::traced(name, opts.seed, opts.quick)?;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join("trace.jsonl"))
            .map_err(|e| format!("trace.jsonl: {e}"))?;
        file.write_all(spans.jsonl(name).as_bytes())
            .map_err(|e| format!("trace.jsonl: {e}"))?;
        sample
    } else {
        round::plain(name, opts.seed, opts.quick, opts.seconds)?
    };
    let text = serde_json::to_string(&Value::Object(sample)).expect("sample serializes");
    println!("{text}");
    Ok(ExitCode::SUCCESS)
}

/// Runs one round of `name` in a child process and returns its sample.
fn spawn(name: &str, opts: &Options, traced: bool) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    let share = opts.seconds / opts.rounds as f64;
    cmd.args(["--child", name, "--seed", &opts.seed.to_string()]);
    cmd.args(["--seconds", &share.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} round exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    match serde_json::from_str::<Value>(line) {
        Ok(Value::Object(m)) => Ok(m),
        _ => Err(format!("{name} round printed no sample")),
    }
}

/// Writes the COP snapshot of a workload's model set, untimed, so every
/// measured round starts with it on disk.
fn prime(name: &str) -> &'static str {
    let functions = workloads::functions(name).expect("workload names are validated");
    let specs: Vec<ModelSpec> = functions.iter().map(|f| f.spec().clone()).collect();
    let hardware = HardwareModel::new(InflessConfig::default().hardware);
    let (_, outcome) =
        ProfileDatabase::cached_with_outcome(&hardware, &specs, &ConfigGrid::standard(), SIM_SEED);
    round::cache_name(Some(outcome))
}

fn num(m: &Map, key: &str) -> f64 {
    m.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn numbers(v: &Value) -> Vec<f64> {
    v.as_array()
        .map_or_else(Vec::new, |v| v.iter().filter_map(Value::as_f64).collect())
}

/// A round's wall times, s: one list per episode.
fn walls(m: &Map) -> Vec<Vec<f64>> {
    m.get("walls_s")
        .and_then(Value::as_array)
        .map_or_else(Vec::new, |v| v.iter().map(numbers).collect())
}

/// The reference kernel's times in a round, s: one after each run.
fn refs(m: &Map) -> Vec<f64> {
    m.get("refs_s").map_or_else(Vec::new, numbers)
}

/// The time of one pass over every episode, for each pass a round made.
fn passes(walls: &[Vec<f64>]) -> Vec<f64> {
    let n = walls.iter().map(Vec::len).min().unwrap_or(0);
    (0..n).map(|p| walls.iter().map(|w| w[p]).sum()).collect()
}

/// For each pass of each round, the pass's time over the mean time of
/// the reference kernel runs interleaved with it: the pass's length in
/// reference runs, which the host's drift moves far less than the
/// pass's length in seconds.
fn pass_ratios(rounds: &[Map]) -> Vec<f64> {
    let mut ratios = Vec::new();
    for s in rounds {
        let (walls, refs) = (walls(s), refs(s));
        let e = walls.len();
        for (p, t) in passes(&walls).into_iter().enumerate() {
            let pass_refs = &refs[p * e..(p + 1) * e];
            ratios.push(t * e as f64 / pass_refs.iter().sum::<f64>());
        }
    }
    ratios
}

fn parent(opts: &Options, out: &Path) -> Result<ExitCode, String> {
    fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let cop = out.join("cop-cache");
    let _ = fs::remove_dir_all(&cop);
    fs::create_dir_all(&cop).map_err(|e| format!("{}: {e}", cop.display()))?;
    std::env::set_var("COP_CACHE_DIR", &cop);
    if opts.traced {
        let _ = fs::remove_file(out.join("trace.jsonl"));
    }

    let (nproc, cpu) = host();
    println!(
        "host: nproc={nproc} cpu={cpu:?}  seed={} rounds={} seconds={}",
        opts.seed, opts.rounds, opts.seconds
    );
    for name in &opts.workloads {
        println!("prime {name}: profile_cache {}", prime(name));
    }

    let n = opts.workloads.len();
    let mut plain: Vec<Vec<Map>> = vec![Vec::new(); n];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    // Round-robin, the starting workload rotating each round, so a slow
    // stretch on the host touches every workload a little.
    for r in 0..opts.rounds {
        for k in 0..n {
            let i = (r + k) % n;
            let name = &opts.workloads[i];
            attempted += 1;
            match spawn(name, opts, false) {
                Ok(s) => {
                    let passes = passes(&walls(&s));
                    println!(
                        "round {} {name}: setup {:.3} s (profile_cache {}), {} passes of {:.3}-{:.3} s, rss {:.1} MiB",
                        r + 1,
                        num(&s, "setup_s"),
                        s.get("profile_cache").and_then(Value::as_str).unwrap_or("?"),
                        passes.len(),
                        quantile(&passes, 0.0),
                        quantile(&passes, 1.0),
                        num(&s, "rss_mb"),
                    );
                    plain[i].push(s);
                }
                Err(e) => {
                    failed += 1;
                    problems.push(e);
                }
            }
        }
    }
    let mut traced: Vec<Option<Map>> = vec![None; n];
    if opts.traced {
        for (i, name) in opts.workloads.iter().enumerate() {
            attempted += 1;
            match spawn(name, opts, true) {
                Ok(s) => traced[i] = Some(s),
                Err(e) => {
                    failed += 1;
                    problems.push(e);
                }
            }
        }
    }

    let mut metrics = Map::new();
    let mut details = Map::new();
    for (i, name) in opts.workloads.iter().enumerate() {
        let summary = summarize(&plain[i], traced[i].as_ref(), opts.traced);
        problems.extend(summary.problems.iter().map(|p| format!("{name}: {p}")));
        for m in &summary.metrics {
            let stats = match m.spread {
                Some((count, q1, q3)) => format!("  (n={count}, q1={q1}, q3={q3})"),
                None => String::new(),
            };
            println!("{name}/{} {} {}{stats}", m.name, m.value, m.unit);
            let key = if n == 1 {
                m.name.to_string()
            } else {
                format!("{name}/{}", m.name)
            };
            let reported = if opts.traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            if reported.iter().any(|(k, _)| *k == m.name) {
                metrics.insert(key, json!({ "value": m.value, "unit": m.unit }));
            }
        }
        println!(
            "{name}/latency samples {}",
            plain[i]
                .first()
                .and_then(|s| s.get("quality"))
                .and_then(|q| q.get("latency_samples"))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        );
        details.insert(
            name.clone(),
            json!({
                "rounds": plain[i].iter().cloned().map(Value::Object).collect::<Vec<_>>(),
                "traced": traced[i].clone().map(Value::Object),
                "problems": summary.problems,
            }),
        );
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    let correct = problems.is_empty();
    let report = json!({
        "host": json!({ "nproc": nproc, "cpu": cpu }),
        "seed": opts.seed,
        "quick": opts.quick,
        "correct": correct,
        "metrics": metrics.clone(),
        "workloads": details,
    });
    let path = out.join("report.json");
    fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The host's core count and CPU model, printed beside every result.
fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, cpu)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Sample count and quartiles, for metrics taken over rounds.
    spread: Option<(usize, f64, f64)>,
}

struct Summary {
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// One workload's metrics and failed checks, from its plain rounds and
/// (with `traced`) its traced round.
fn summarize(plain: &[Map], traced: Option<&Map>, trace_mode: bool) -> Summary {
    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    let Some(first) = plain.first() else {
        problems.push("no round completed".into());
        return Summary { metrics, problems };
    };
    let all: Vec<&Map> = plain.iter().chain(traced).collect();
    for s in &all {
        if let Some(Value::Object(checks)) = s.get("checks") {
            for (check, ok) in checks {
                if ok.as_bool() != Some(true) {
                    problems.push(format!("{check} check failed"));
                }
            }
        }
    }
    for key in ["digests", "quality"] {
        if plain.iter().any(|s| s.get(key) != first.get(key)) {
            problems.push(format!("{key} differ between rounds"));
        }
    }
    // The traced round runs the first episode only.
    let first_digest = |s: &Map| s.get("digests")?.as_array()?.first().cloned();
    if traced.is_some_and(|t| first_digest(t) != first_digest(first)) {
        problems.push("digests differ between rounds".into());
    }
    problems.sort();
    problems.dedup();

    // `value` with the count and quartiles of the samples behind it.
    let mut over = |name: &'static str, value: f64, samples: &[f64]| {
        let spread = Some((
            samples.len(),
            quantile(samples, 0.25),
            quantile(samples, 0.75),
        ));
        metrics.push(Metric {
            name,
            unit: unit_of(name),
            value,
            spread,
        });
    };
    // Wall-clock values as measured, and scaled to a host on which the
    // reference kernel takes `REFERENCE_NOMINAL_S`: a pass by the
    // reference runs interleaved with it, a set-up by its round's median
    // reference run.
    let completed = num(first, "completed");
    let passes: Vec<f64> = plain.iter().flat_map(|s| passes(&walls(s))).collect();
    for (name, count) in [
        ("completed_rps_wall", completed),
        ("workload.offered_rps_wall", num(first, "arrivals")),
    ] {
        let speeds: Vec<f64> = passes.iter().map(|p| count / p).collect();
        over(name, quantile(&speeds, 0.5), &speeds);
    }
    let scaled: Vec<f64> = pass_ratios(plain)
        .iter()
        .map(|r| completed / (r * REFERENCE_NOMINAL_S))
        .collect();
    over("completed_rps", quantile(&scaled, 0.5), &scaled);
    let setups: Vec<f64> = plain.iter().map(|s| num(s, "setup_s")).collect();
    over("setup_wall_s", quantile(&setups, 0.5), &setups);
    let scaled: Vec<f64> = plain
        .iter()
        .map(|s| num(s, "setup_s") * REFERENCE_NOMINAL_S / quantile(&refs(s), 0.5))
        .collect();
    over("setup_s", quantile(&scaled, 0.5), &scaled);
    let refs: Vec<f64> = plain.iter().flat_map(refs).map(|r| r * 1e3).collect();
    over("host.reference_ms", quantile(&refs, 0.5), &refs);
    let rss: Vec<f64> = plain.iter().map(|s| num(s, "rss_mb")).collect();
    over("peak_rss_mb", quantile(&rss, 0.5), &rss);
    let fixed = |name: &'static str, value: f64| Metric {
        name,
        unit: unit_of(name),
        value,
        spread: None,
    };
    if let Some(Value::Object(quality)) = first.get("quality") {
        for (name, _) in &END_TO_END[3..] {
            metrics.push(fixed(name, num(quality, name)));
        }
    }
    if trace_mode {
        match traced.and_then(|t| t.get("layers")) {
            Some(Value::Object(layers)) => {
                metrics.push(fixed("workload.arrivals", num(first, "arrivals")));
                // The traced run of the first episode against the
                // median untraced one.
                let first_runs = |s: &Map| walls(s).into_iter().next().unwrap_or_default();
                let untraced: Vec<f64> = plain.iter().flat_map(first_runs).collect();
                let traced_wall = traced.map_or(0.0, |t| quantile(&first_runs(t), 0.5));
                metrics.push(fixed(
                    "trace.overhead",
                    traced_wall / quantile(&untraced, 0.5),
                ));
                let quality = first.get("quality");
                for (name, _) in &PER_LAYER {
                    let value = layers.get(name).or_else(|| quality?.get(name));
                    if let Some(v) = value.and_then(Value::as_f64) {
                        metrics.push(fixed(name, v));
                    }
                }
            }
            _ => problems.push("no traced round completed".into()),
        }
    }
    Summary { metrics, problems }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn quick_mode_reports_every_metric_and_passes_its_checks() {
        let cop = out_dir().join("test-cop-cache");
        let _ = fs::remove_dir_all(&cop);
        fs::create_dir_all(&cop).expect("cop cache dir");
        std::env::set_var("COP_CACHE_DIR", &cop);
        for name in NAMES {
            prime(name);
            let plain = round::plain(name, 1, true, 0.0).expect("plain round");
            let (traced, spans) = round::traced(name, 1, true).expect("traced round");
            assert!(spans.jsonl(name).lines().count() > 8, "{name}: spans");
            for (trace_mode, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let summary = summarize(std::slice::from_ref(&plain), Some(&traced), trace_mode);
                assert!(
                    summary.problems.is_empty(),
                    "{name}: {:?}",
                    summary.problems
                );
                for (metric, unit) in table {
                    let m = summary
                        .metrics
                        .iter()
                        .find(|m| m.name == *metric)
                        .unwrap_or_else(|| panic!("{name} does not report {metric}"));
                    assert_eq!(m.unit, *unit);
                    assert!(m.value.is_finite() && m.value >= 0.0, "{name}/{metric}");
                    if !trace_mode {
                        assert!(m.value > 0.0, "{name}/{metric} is zero");
                    }
                }
            }
        }
    }

    fn args(list: &[&str]) -> Result<Options, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let o = args(&[
            "--workload",
            "llm_chat",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(o.workloads, ["llm_chat"]);
        assert_eq!((o.seed, o.seconds, o.traced), (7, 8.0, true));
        assert_eq!(args(&[]).expect("defaults").workloads, NAMES);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--rounds", "0"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
