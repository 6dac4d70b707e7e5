//! Fig. 17: large-scale simulation — scheduling overhead and resource
//! fragments.
//!
//! Following §5.1's simulation methodology, the real `Schedule()` code
//! runs against a simulated 2 000-server cluster; only scheduling
//! decisions are made (no request execution).
//!
//! (a) wall-clock overhead of `Schedule()` as the number of concurrent
//!     instance placements grows to 10 000 (paper: ~0.5 ms per
//!     instance, < 1 s for 10 000);
//! (b) the resource-fragment ratio of INFless, BATCH, BATCH+RS and
//!     OpenFaaS+ placements at scale (paper: INFless ≈ 15 %, lowest).
//!     The four placements are independent, so the harness drives them
//!     on worker threads; each builds its own predictor, served from
//!     the shared COP profile cache.

use std::time::Instant;

use infless_bench::{header, quick, record, run_parallel};
use infless_cluster::{ClusterSpec, InstanceConfig};
use infless_core::apps::Application;
use infless_core::predictor::CopPredictor;
use infless_core::scheduler::{Scheduler, SchedulerConfig};
use infless_models::{
    profile::ConfigGrid, HardwareModel, ModelSpec, ProfileDatabase, ResourceConfig,
};

fn predictor_for(app: &Application) -> CopPredictor {
    let hw = HardwareModel::default();
    let specs: Vec<ModelSpec> = app.functions().iter().map(|f| f.spec().clone()).collect();
    let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 17);
    CopPredictor::new(db, hw)
}

/// One fig17b measurement: system name, fragment ratio, occupancy
/// (INFless only), and the job's wall-clock seconds.
type FragRow = (&'static str, f64, Option<f64>, f64);

fn main() {
    let servers = if quick() { 500 } else { 2000 };
    let app = Application::synthetic(if quick() { 10 } else { 40 });
    let predictor = predictor_for(&app);
    let mut scheduler = Scheduler::new(SchedulerConfig::default());

    header(
        "fig17_scalability",
        "Fig. 17(a)",
        &format!("Schedule() wall-clock overhead on a {servers}-server cluster"),
    );
    println!(
        "{:>10} {:>14} {:>16}",
        "instances", "total time", "per instance"
    );
    let mut overhead_rows = Vec::new();
    // Sequential on purpose: fig17a *is* a wall-clock measurement, and
    // co-scheduled sibling jobs would distort it.
    for target in [100usize, 1_000, 5_000, 10_000] {
        let target = if quick() { target / 10 } else { target };
        let mut cluster = ClusterSpec::large(servers).build();
        let wall = Instant::now();
        let mut placed = 0usize;
        let mut f = 0usize;
        // Keep scheduling function demand until `target` instances exist.
        while placed < target {
            let function = &app.functions()[f % app.functions().len()];
            let out = scheduler.schedule(&predictor, function, 2_000.0, &mut cluster);
            if out.instances.is_empty() {
                break; // cluster exhausted
            }
            placed += out.instances.len();
            f += 1;
        }
        let elapsed = wall.elapsed();
        let per_instance_us = elapsed.as_secs_f64() * 1e6 / placed.max(1) as f64;
        println!(
            "{:>10} {:>14.3?} {:>13.1}us",
            placed, elapsed, per_instance_us
        );
        overhead_rows.push(serde_json::json!({
            "instances": placed,
            "total_ms": elapsed.as_secs_f64() * 1e3,
            "per_instance_us": per_instance_us,
        }));
    }
    println!("(paper: ~0.5 ms per instance, < 1 s total at 10,000)\n");

    header(
        "fig17_scalability",
        "Fig. 17(b)",
        "Resource-fragment ratio by system at ~60% cluster load",
    );
    // The fragment ratio is measured at a realistic operating point —
    // filling the cluster to the brim would erase placement differences
    // (every strategy ends with full servers). Demand is sized to
    // occupy roughly 60% of the cluster and interleaved across the
    // functions as the simulator's arrival mix would.
    let beta = predictor.beta();
    // Per-function demand sized for ~60% aggregate occupancy.
    let demand_per_fn = if quick() { 3_000.0 } else { 12_000.0 };
    let slices = 6usize;

    // INFless: Algorithm 1, functions round-robin in demand slices so
    // the cluster fills with a realistic arrival mix.
    let infless_job = {
        let app = app.clone();
        move || -> FragRow {
            let wall = Instant::now();
            let predictor = predictor_for(&app);
            let mut scheduler = Scheduler::new(SchedulerConfig::default());
            let mut cluster = ClusterSpec::large(servers).build();
            for _ in 0..slices {
                for function in app.functions() {
                    scheduler.schedule(
                        &predictor,
                        function,
                        demand_per_fn / slices as f64,
                        &mut cluster,
                    );
                }
            }
            let frag = cluster.fragment_ratio(beta);
            let load = cluster.weighted_in_use(beta)
                / (beta * cluster.cpu_capacity() as f64 + cluster.gpu_capacity() as f64);
            ("INFless", frag, Some(load), wall.elapsed().as_secs_f64())
        }
    };

    // BATCH (first-fit uniform) and BATCH+RS (best-fit uniform),
    // interleaving the same demand.
    let batch_job = |name: &'static str, best_fit: bool| {
        let app = app.clone();
        move || -> FragRow {
            let wall = Instant::now();
            let predictor = predictor_for(&app);
            let mut cluster = ClusterSpec::large(servers).build();
            let plans: Vec<Option<(InstanceConfig, f64)>> = app
                .functions()
                .iter()
                .map(|f| {
                    infless_baselines::uniform_plan(&predictor, f, u32::MAX)
                        .map(|p| (p.config, p.window.r_up()))
                })
                .collect();
            for _ in 0..slices {
                for plan in plans.iter().flatten() {
                    let (cfg, r_up) = *plan;
                    let n = (demand_per_fn / slices as f64 / r_up).ceil() as usize;
                    for _ in 0..n {
                        let free_of = |s: &infless_cluster::Server| {
                            beta * f64::from(s.cpu_free()) + f64::from(s.gpu_free_total())
                        };
                        let fitting = cluster.servers().iter().filter(|s| s.fits(cfg.resources()));
                        let server = if best_fit {
                            fitting
                                .min_by(|a, b| free_of(a).partial_cmp(&free_of(b)).expect("finite"))
                                .map(|s| s.id())
                        } else {
                            // Stock BATCH: Kubernetes-style spreading.
                            fitting
                                .max_by(|a, b| free_of(a).partial_cmp(&free_of(b)).expect("finite"))
                                .map(|s| s.id())
                        };
                        if let Some(srv) = server {
                            cluster.allocate_on(srv, cfg.resources()).expect("fits");
                        }
                    }
                }
            }
            (
                name,
                cluster.fragment_ratio(beta),
                None,
                wall.elapsed().as_secs_f64(),
            )
        }
    };

    // OpenFaaS+: the same demand in fixed 2c+10g batch-1 instances.
    let openfaas_job = {
        let app = app.clone();
        move || -> FragRow {
            let wall = Instant::now();
            let predictor = predictor_for(&app);
            let mut cluster = ClusterSpec::large(servers).build();
            let cfg = ResourceConfig::new(2, 10);
            for function in app.functions() {
                let Some(t) = predictor.predict(function.spec(), 1, cfg) else {
                    continue;
                };
                if t > function.slo() {
                    continue;
                }
                let r_up = (1.0 / t.as_secs_f64()).floor().max(1.0);
                let n = (demand_per_fn / r_up).ceil() as usize;
                for _ in 0..n {
                    if cluster.allocate_anywhere(cfg).is_err() {
                        break;
                    }
                }
            }
            (
                "OpenFaaS+",
                cluster.fragment_ratio(beta),
                None,
                wall.elapsed().as_secs_f64(),
            )
        }
    };

    let jobs: Vec<Box<dyn FnOnce() -> FragRow + Send>> = vec![
        Box::new(infless_job),
        Box::new(batch_job("BATCH", false)),
        Box::new(batch_job("BATCH+RS", true)),
        Box::new(openfaas_job),
    ];
    let frag_results = run_parallel(jobs);

    let mut frag_rows = Vec::new();
    for (name, frag, load, _) in &frag_results {
        match load {
            Some(load) => println!(
                "{:<10} fragment ratio {:>6.1}%  (cluster {:>4.1}% occupied)",
                name,
                frag * 100.0,
                load * 100.0
            ),
            None => println!("{:<10} fragment ratio {:>6.1}%", name, frag * 100.0),
        }
        frag_rows.push(serde_json::json!({"system": name, "fragment_ratio": frag}));
    }
    println!("(paper: INFless ≈ 15%, BATCH+RS < BATCH, OpenFaaS+ worst)\n");
    println!("per-run wall-clock (parallel harness):");
    for (name, _, _, wall) in &frag_results {
        println!("  {name:<14} wall {wall:>7.2}s");
    }

    record(
        "fig17_scalability",
        serde_json::json!({ "fig17a": overhead_rows, "fig17b": frag_rows }),
    );
}
