//! `inflessctl` — run a deployment scenario from a JSON descriptor.
//!
//! ```sh
//! cargo run --release --bin inflessctl -- scenarios/osvt.json
//! cargo run --release --bin inflessctl -- scenarios/osvt.json --seed 7 --json
//! cargo run --release --bin inflessctl -- scenarios/failure_sweep.json \
//!     --trace-out trace.jsonl --timeseries-out gauges.csv
//! cargo run --release --bin inflessctl -- trace summary trace.jsonl
//! ```

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use infless::core::platform::ScalePolicy;
use infless::core::RunReport;
use infless::descriptor::Scenario;
use infless::telemetry::{analyze_file, summarize_file, FileSink};
use infless::RunConfig;

const USAGE: &str = "usage: inflessctl <scenario.json> [--seed N] [--json]
                  [--shards N] [--canonical-json]
                  [--policy <horizontal|vertical-first>]
                  [--trace-out <path.jsonl>] [--timeseries-out <path.csv>]
                  [--decisions-out <path.jsonl>] [--metrics-out <path.prom>]
                  [--flight-out <path.jsonl>]
       inflessctl trace summary <trace.jsonl>
       inflessctl trace analyze <decisions.jsonl>

Runs a deployment scenario (see scenarios/ for examples) and prints the
run report. --seed overrides the scenario's seed; --json emits the
summary as JSON instead of a table.

--shards N runs the INFless platform through the sharded epoch-barrier
engine with N shards (INFless scenarios only: a baseline scenario is
refused before any output file is opened). The report and every
output file are byte-identical for every N.
--canonical-json prints the report's canonical JSON rendering — the
exact string the golden manifest pins and compares between shard counts.

--policy overrides the scenario's residual-coverage policy:
`vertical-first` upgrades live instances in place (a journaled resize
transaction) before launching new ones and downsizes before parking;
`horizontal` is the launch-only default.

--trace-out streams per-request lifecycle spans (arrival, enqueued,
batch_formed, exec_start, complete, dropped, shed, displaced, retried,
plus swap and token marks) to a JSONL file, keyed by each request's
arrival ordinal within its function; --timeseries-out streams per-tick
gauges (instances, occupancy, queue depth, in-flight batches, KV
residency, host cache) to a CSV.

--decisions-out writes the decision trace: every Algorithm 1 candidate
evaluation and rejection reason, chosen configs, scale-out rounds,
consolidation commits/rollbacks, keep-alive evictions, launch startup
paths, continuous-batching admissions, and per-request SLO latency
decompositions. --metrics-out writes an end-of-run Prometheus
text-format snapshot (the last scaler tick's gauges plus final counters
from the report). --flight-out arms the flight recorder: a bounded ring
of recent spans written to the file whenever a fault burst hits; a run
without a burst leaves the file empty. All five outputs read one
ordered record stream, written as the run goes in bounded memory, and
work at every shard count. Every output file is created before the run
starts: an unwritable path fails with an error naming it, before any
simulation, and a write that fails mid-run (a full disk) fails the run
with the same error when it ends.

`trace summary` validates a span trace and prints conservation and
fault-displacement accounting recomputed from the spans alone; `trace
analyze` validates a decision trace and attributes every SLO violation
to the latency stage that consumed the budget. Both exit nonzero on a
malformed trace.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        return trace_command(&argv[1..]);
    }

    let mut args = argv.into_iter();
    let mut path: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut json = false;
    let mut canonical = false;
    let mut shards: Option<usize> = None;
    let mut policy: Option<ScalePolicy> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut timeseries_out: Option<PathBuf> = None;
    let mut decisions_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut flight_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = Some(v),
                _ => return usage("--seed needs an integer"),
            },
            "--json" => json = true,
            "--canonical-json" => canonical = true,
            "--shards" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => match RunConfig::validate_explicit_shards(v) {
                    Ok(()) => shards = Some(v),
                    Err(e) => return usage(&e.to_string()),
                },
                _ => return usage("--shards needs a positive integer"),
            },
            "--policy" => match args.next().as_deref().map(ScalePolicy::parse) {
                Some(Some(p)) => policy = Some(p),
                _ => return usage("--policy must be `horizontal` or `vertical-first`"),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => return usage("--trace-out needs a path"),
            },
            "--timeseries-out" => match args.next() {
                Some(p) => timeseries_out = Some(PathBuf::from(p)),
                None => return usage("--timeseries-out needs a path"),
            },
            "--decisions-out" => match args.next() {
                Some(p) => decisions_out = Some(PathBuf::from(p)),
                None => return usage("--decisions-out needs a path"),
            },
            "--metrics-out" => match args.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => return usage("--metrics-out needs a path"),
            },
            "--flight-out" => match args.next() {
                Some(p) => flight_out = Some(PathBuf::from(p)),
                None => return usage("--flight-out needs a path"),
            },
            "-h" | "--help" => return emit(|out| writeln!(out, "{USAGE}")),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(path) = path else {
        return usage("missing scenario path");
    };

    let mut scenario = match Scenario::from_file(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = seed {
        scenario.seed = seed;
    }
    let mut config = RunConfig::new();
    if let Some(shards) = shards {
        config = config.shards(shards);
    }
    if let Some(policy) = policy {
        config = config.scale_policy(policy);
    }
    // A refused run must not create or truncate the sink's files.
    if let Err(e) = scenario.platform.system().check_shards(&config) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if trace_out.is_some() || timeseries_out.is_some() {
        match FileSink::create(trace_out.as_deref(), timeseries_out.as_deref()) {
            Ok(sink) => config = config.telemetry(Box::new(sink)),
            Err(e) => {
                eprintln!("error: failed to open telemetry output: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = decisions_out {
        config = config.decisions_out(path);
    }
    if let Some(path) = metrics_out {
        config = config.metrics_out(path);
    }
    if let Some(path) = flight_out {
        config = config.flight_out(path);
    }
    // An unwritable output surfaces from execute before the run; a
    // write that fails mid-run, when it ends.
    match scenario.execute(config) {
        Ok(report) => emit(|out| {
            if canonical {
                writeln!(out, "{}", report.canonical_json())
            } else if json {
                print_json(out, &report)
            } else {
                print_table(out, &report)
            }
        }),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `inflessctl trace summary <path.jsonl>` — validate and summarize a
/// span trace.
fn trace_command(args: &[String]) -> ExitCode {
    match args {
        [sub, path] if sub == "summary" => match summarize_file(std::path::Path::new(path)) {
            Ok(summary) => {
                if emit(|out| write!(out, "{summary}")) != ExitCode::SUCCESS {
                    return ExitCode::FAILURE;
                }
                let mut ok = true;
                if !summary.conserved() {
                    eprintln!(
                        "error: span conservation violated: {} arrivals != {} completed + {} dropped + {} shed",
                        summary.arrivals, summary.completed, summary.dropped, summary.shed
                    );
                    ok = false;
                }
                if !summary.displacement_balanced() {
                    eprintln!(
                        "error: displacement accounting violated: {} displaced != {} retried + {} shed",
                        summary.displaced, summary.retried, summary.shed
                    );
                    ok = false;
                }
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        [sub, path] if sub == "analyze" => match analyze_file(std::path::Path::new(path)) {
            Ok(analysis) => emit(|out| write!(out, "{analysis}")),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(
            "trace subcommands are: trace summary <trace.jsonl>, \
             trace analyze <decisions.jsonl>",
        ),
    }
}

/// Writes a command's output to stdout. A reader that closed the pipe
/// early (`inflessctl … | head`) wanted no more, so that exits 0
/// quietly; any other write error is reported and exits 1.
fn emit(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> ExitCode {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn print_table(out: &mut dyn Write, report: &RunReport) -> io::Result<()> {
    writeln!(
        out,
        "{} served {} requests over {} ({} dropped, {:.2}% SLO violations)",
        report.platform,
        report.total_completed(),
        report.duration,
        report.total_dropped(),
        report.violation_rate() * 100.0
    )?;
    writeln!(
        out,
        "throughput/resource {:.3}   cold-start rate {:.3}%   launches {}   retirements {}",
        report.throughput_per_resource(),
        report.cold_request_rate() * 100.0,
        report.launches,
        report.retirements
    )?;
    let f = &report.failures;
    if f.any() {
        writeln!(
            out,
            "faults: {} crashes ({} recovered), {} instances killed, {} cold-start failures, \
             {} stragglers; displaced {} = retried {} + shed {}{}",
            f.server_crashes,
            f.server_recoveries,
            f.instances_killed,
            f.coldstart_failures,
            f.stragglers,
            f.requests_displaced,
            f.requests_retried,
            f.requests_shed,
            f.mean_time_to_recapacity_ms()
                .map_or_else(String::new, |m| format!(
                    "; mean time-to-recapacity {m:.0} ms"
                )),
        )?;
    }
    let ts = &report.timeseries_summary;
    if ts.any() {
        writeln!(
            out,
            "timeseries: {} samples; peak {} instances (mean {:.1}), peak occupancy cpu {:.1}% \
             gpu {:.1}%, max queue depth {}, peak in-flight batches {}",
            ts.samples,
            ts.peak_instances,
            ts.mean_instances,
            ts.peak_cpu_occupancy * 100.0,
            ts.peak_gpu_occupancy * 100.0,
            ts.max_queue_depth,
            ts.peak_in_flight_batches
        )?;
    }
    let disp = &report.dispatch_overhead_ns;
    let sched = &report.sched_overhead_hist_us;
    if !disp.is_empty() || !sched.is_empty() {
        writeln!(
            out,
            "overhead: dispatch p50 {:.0} ns  p99 {:.0} ns ({} sampled)   \
             schedule p50 {:.0} µs  p99 {:.0} µs ({} rounds)",
            disp.quantile(0.5).unwrap_or(0.0),
            disp.quantile(0.99).unwrap_or(0.0),
            disp.count(),
            sched.quantile(0.5).unwrap_or(0.0),
            sched.quantile(0.99).unwrap_or(0.0),
            sched.count(),
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "{:<14} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "function", "completed", "p50 ms", "p99 ms", "viol %", "cold %"
    )?;
    for f in &report.functions {
        let p = |q| f.latency_ms.quantile(q).unwrap_or(0.0);
        writeln!(
            out,
            "{:<14} {:>10} {:>9.1} {:>9.1} {:>9.2} {:>9.2}",
            f.name,
            f.completed,
            p(0.50),
            p(0.99),
            f.violation_rate() * 100.0,
            f.cold_rate() * 100.0
        )?;
    }
    for c in &report.chains {
        let e2e = &c.e2e_ms;
        writeln!(
            out,
            "\nchain {:<10} {:>8} traversals  e2e p50 {:>7.1} ms  p99 {:>7.1} ms  viol {:.2}%",
            c.name,
            c.completed,
            e2e.quantile(0.5).unwrap_or(0.0),
            e2e.quantile(0.99).unwrap_or(0.0),
            c.violation_rate() * 100.0
        )?;
    }
    Ok(())
}

fn print_json(out: &mut dyn Write, report: &RunReport) -> io::Result<()> {
    let functions: Vec<serde_json::Value> = report
        .functions
        .iter()
        .map(|f| {
            let p = |q| f.latency_ms.quantile(q).unwrap_or(0.0);
            serde_json::json!({
                "name": f.name,
                "completed": f.completed,
                "dropped": f.dropped,
                "p50_ms": p(0.50),
                "p95_ms": p(0.95),
                "p99_ms": p(0.99),
                "violation_rate": f.violation_rate(),
                "cold_rate": f.cold_rate(),
            })
        })
        .collect();
    let chains: Vec<serde_json::Value> = report
        .chains
        .iter()
        .map(|c| {
            let e2e = &c.e2e_ms;
            serde_json::json!({
                "name": c.name,
                "completed": c.completed,
                "lost": c.lost,
                "e2e_p50_ms": e2e.quantile(0.5),
                "e2e_p99_ms": e2e.quantile(0.99),
                "violation_rate": c.violation_rate(),
            })
        })
        .collect();
    let json = serde_json::json!({
        "platform": report.platform,
        "duration_s": report.duration.as_secs_f64(),
        "completed": report.total_completed(),
        "dropped": report.total_dropped(),
        "violation_rate": report.violation_rate(),
        "throughput_per_resource": report.throughput_per_resource(),
        "cold_request_rate": report.cold_request_rate(),
        // Wall-clock overhead histograms are deliberately omitted:
        // `--json` output is bit-identical per seed (a verification
        // invariant), and `Instant`-based measurements are not.
        // `BENCH_hotpath.json` carries them machine-readably instead.
        "failures": report.failures,
        "timeseries_summary": report.timeseries_summary,
        "functions": functions,
        "chains": chains,
    });
    writeln!(
        out,
        "{}",
        serde_json::to_string_pretty(&json).expect("valid json")
    )
}
