//! Sharded-engine scaling harness (`BENCH_scale.json`).
//!
//! Runs one large deployment — 10k+ servers, ≥100M arrivals in full
//! mode — through the epoch-barrier sharded engine at shard counts
//! {1, 2, 4, 8} and reports the wall-clock time and simulated-requests
//! per wall-clock second of each. Because the sharded engine is
//! deterministic *by construction*, the harness also byte-compares the
//! canonical report JSON across every shard count and aborts if any
//! pair diverges — a scaling number for a run that computed something
//! different would be meaningless.
//!
//! The speedup column is honest wall-clock: shards execute on scoped
//! worker threads, so S=4 can only beat S=1 when the host actually has
//! cores to run them on. The committed `BENCH_scale.json` records the
//! host's core count next to every number; on a single-core host the
//! expected speedup is ≤1.0x (barrier and replay overhead with no
//! parallelism to pay for it), and the ≥2x target at S=4 requires a
//! host with at least 4 physical cores.
//!
//! `INFLESS_QUICK=1` shrinks the deployment (200 servers, 2M
//! arrivals) for CI smoke runs; quick-mode output is written to
//! `target/infless-results/` only, never committed.
//!
//! Arrivals stream from the workload's per-function sources, and each
//! shard reads only its own functions', so neither set-up time nor
//! memory grows with the arrival count: building the full-mode
//! workload takes microseconds and peak RSS is the simulator's.

use std::time::Instant;

use infless_bench::{constant_workload, header, quick, record};
use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_core::platform::InflessConfig;
use infless_core::ShardedInfless;
use infless_sim::SimDuration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // Full mode: 32 functions x 12,500 rps x 250 s = 100M arrivals on
    // a 10,000-server cluster. Quick mode: 8 functions x 2,500 rps x
    // 100 s = 2M arrivals on 200 servers.
    let (servers, functions, rps_per_fn, secs) = if quick() {
        (200, 8, 2_500.0, 100)
    } else {
        (10_000, 32, 12_500.0, 250)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let app = Application::synthetic(functions);
    let cluster = ClusterSpec::large(servers);
    let workload = constant_workload(functions, rps_per_fn, SimDuration::from_secs(secs), 11);
    let arrivals = workload.len();

    header(
        "fig_scale",
        "sharded epoch-barrier engine",
        &format!(
            "Wall-clock scaling vs shard count: {functions} functions, \
             {servers} servers, {arrivals} arrivals, {cores} host cores"
        ),
    );
    let sharded = ShardedInfless::new(
        cluster,
        app.functions().to_vec(),
        InflessConfig::default(),
        11,
    );

    println!(
        "{:>7} {:>12} {:>16} {:>10}",
        "shards", "wall (s)", "sim req/s wall", "vs S=1"
    );
    let mut rows = Vec::new();
    let mut baseline_wall = None;
    let mut baseline_report: Option<String> = None;
    for s in SHARD_COUNTS {
        let t0 = Instant::now();
        let report = sharded.run(&workload, s);
        let wall = t0.elapsed().as_secs_f64();
        let canonical = report.canonical_json();
        match &baseline_report {
            None => baseline_report = Some(canonical),
            Some(base) => assert_eq!(
                *base, canonical,
                "shard count {s} produced a different report than S=1 — \
                 determinism broken, scaling numbers void"
            ),
        }
        let base_wall = *baseline_wall.get_or_insert(wall);
        let speedup = base_wall / wall;
        println!(
            "{:>7} {:>12.2} {:>16.0} {:>9.2}x",
            s,
            wall,
            arrivals as f64 / wall,
            speedup
        );
        rows.push(serde_json::json!({
            "shards": s,
            "wall_seconds": wall,
            "requests_per_sec": arrivals as f64 / wall,
            "speedup_vs_s1": speedup,
            "completed": report.total_completed(),
            "dropped": report.total_dropped(),
        }));
    }
    println!("reports byte-identical across all shard counts: yes (asserted)");

    let payload = serde_json::json!({
        "experiment": "fig_scale",
        "quick": quick(),
        "host_cores": cores,
        "servers": servers,
        "functions": functions,
        "rps_per_function": rps_per_fn,
        "duration_s": secs,
        "arrivals": arrivals,
        "reports_byte_identical": true,
        "note": "Speedup is honest wall-clock on scoped worker threads; \
                 S=N can only outpace S=1 when the host has >= N cores. \
                 On a 1-core host expect <= 1.0x at every shard count \
                 (barrier + journal-replay overhead, no parallelism). \
                 The >= 2x @ S=4 target requires >= 4 physical cores.",
        "shard_runs": rows,
    });
    record("fig_scale", payload.clone());
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    if quick() {
        // Informational only: wall-clock gating quick-mode CI runs
        // against the committed full-mode numbers (different host,
        // different scale) would flake — the hard gate above is the
        // byte-equality assertion across shard counts.
        if let Ok(text) = std::fs::read_to_string(root.join("BENCH_scale.json")) {
            if let Ok(baseline) = serde_json::from_str::<serde_json::Value>(&text) {
                let cores = baseline.get("host_cores").and_then(|v| v.as_f64());
                let s4 = baseline
                    .get("shard_runs")
                    .and_then(|v| v.as_array())
                    .and_then(|rows| {
                        rows.iter()
                            .find(|r| r.get("shards").and_then(|v| v.as_f64()) == Some(4.0))
                    })
                    .and_then(|r| r.get("speedup_vs_s1"))
                    .and_then(|v| v.as_f64());
                if let (Some(cores), Some(s4)) = (cores, s4) {
                    println!(
                        "committed BENCH_scale.json baseline: {s4:.2}x at S=4 \
                         on a {cores:.0}-core host"
                    );
                }
            }
        }
    } else {
        // Committed copy at the workspace root: the scaling trajectory.
        let _ = std::fs::write(
            root.join("BENCH_scale.json"),
            serde_json::to_string_pretty(&payload).unwrap_or_default(),
        );
    }
}
