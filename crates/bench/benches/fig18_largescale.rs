//! Fig. 18: throughput in the large-scale simulation.
//!
//! As in §5.3, the real scheduling logic runs against simulated
//! machines and only the *theoretical throughput upper bound* is
//! collected (Σ r_up of the placed instances per unit of weighted
//! resource):
//!
//! (a) across the number of deployed functions (10–40)
//!     (paper: INFless 2.6× BATCH and 4.2× OpenFaaS+);
//! (b) across latency SLOs 150–300 ms at 20 functions
//!     (paper: INFless rises from ~0.7 to ~1.0 as the SLO relaxes).

use infless_bench::{header, quick, record};
use infless_cluster::{ClusterSpec, ClusterState};
use infless_core::apps::Application;
use infless_core::predictor::CopPredictor;
use infless_core::scheduler::{Scheduler, SchedulerConfig};
use infless_models::{
    profile::ConfigGrid, HardwareModel, ModelSpec, ProfileDatabase, ResourceConfig,
};
use infless_sim::SimDuration;

struct Harness {
    predictor: CopPredictor,
    scheduler: Scheduler,
    servers: usize,
}

impl Harness {
    fn new(app: &Application, servers: usize) -> Self {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = app.functions().iter().map(|f| f.spec().clone()).collect();
        let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 18);
        Harness {
            predictor: CopPredictor::new(db, hw),
            scheduler: Scheduler::new(SchedulerConfig::default()),
            servers,
        }
    }

    /// Places capacity for every function with INFless's scheduler and
    /// returns (Σ r_up) / (weighted resources used).
    fn infless_capacity_density(&mut self, app: &Application, rps_per_fn: f64) -> f64 {
        let mut cluster = ClusterSpec::large(self.servers).build();
        let mut capacity = 0.0;
        for function in app.functions() {
            let out = self
                .scheduler
                .schedule(&self.predictor, function, rps_per_fn, &mut cluster);
            capacity += out.instances.iter().map(|i| i.window.r_up()).sum::<f64>();
        }
        capacity / cluster.weighted_in_use(self.predictor.beta()).max(1e-9)
    }

    /// The same for BATCH's uniform plans placed first-fit.
    fn batch_capacity_density(&self, app: &Application, rps_per_fn: f64) -> f64 {
        let mut cluster = ClusterSpec::large(self.servers).build();
        let mut capacity = 0.0;
        for function in app.functions() {
            let Some(plan) = infless_baselines::uniform_plan(&self.predictor, function, u32::MAX)
            else {
                continue;
            };
            let r_up = plan.window.r_up();
            let n = (rps_per_fn / r_up).ceil() as usize;
            for _ in 0..n {
                if cluster.allocate_anywhere(plan.config.resources()).is_err() {
                    break;
                }
                capacity += r_up;
            }
        }
        capacity / cluster.weighted_in_use(self.predictor.beta()).max(1e-9)
    }

    /// OpenFaaS+: fixed 2c+10g, batchsize 1. The one-to-one platform
    /// launches instances for *every* function's demand — functions the
    /// fixed configuration cannot serve within their SLO still consume
    /// resources, they just contribute no within-SLO capacity.
    fn openfaas_capacity_density(&self, app: &Application, rps_per_fn: f64) -> f64 {
        let mut cluster = ClusterSpec::large(self.servers).build();
        let cfg = ResourceConfig::new(2, 10);
        let mut capacity = 0.0;
        for function in app.functions() {
            let Some(t) = self.predictor.predict(function.spec(), 1, cfg) else {
                continue;
            };
            let r_up = (1.0 / t.as_secs_f64()).floor().max(0.2);
            let n = (rps_per_fn / r_up).ceil() as usize;
            let meets_slo = t <= function.slo();
            for _ in 0..n {
                if cluster.allocate_anywhere(cfg).is_err() {
                    break;
                }
                if meets_slo {
                    capacity += r_up;
                }
            }
        }
        capacity / cluster.weighted_in_use(self.predictor.beta()).max(1e-9)
    }
}

fn normalize(rows: &mut [(String, f64)]) {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    if max > 0.0 {
        for (_, v) in rows.iter_mut() {
            *v /= max;
        }
    }
}

fn main() {
    let servers = if quick() { 200 } else { 2000 };
    let _ = ClusterState::new(ClusterSpec::large(1)); // keep the import honest

    header(
        "fig18_largescale",
        "Fig. 18(a)",
        &format!(
            "Normalized throughput upper bound per resource vs #functions ({servers} servers)"
        ),
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "#functions", "OpenFaaS+", "BATCH", "INFless"
    );
    let mut a_rows = Vec::new();
    for n in [10usize, 20, 30, 40] {
        let app = Application::synthetic(n);
        let mut h = Harness::new(&app, servers);
        let rps = 4_000.0;
        let mut row = vec![
            (
                "OpenFaaS+".to_string(),
                h.openfaas_capacity_density(&app, rps),
            ),
            ("BATCH".to_string(), h.batch_capacity_density(&app, rps)),
            ("INFless".to_string(), h.infless_capacity_density(&app, rps)),
        ];
        let raw: Vec<f64> = row.iter().map(|(_, v)| *v).collect();
        normalize(&mut row);
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>12.2}   (INFless {:.1}x BATCH, {:.1}x OpenFaaS+)",
            n,
            row[0].1,
            row[1].1,
            row[2].1,
            raw[2] / raw[1],
            raw[2] / raw[0]
        );
        a_rows.push(serde_json::json!({
            "functions": n,
            "openfaas": raw[0], "batch": raw[1], "infless": raw[2],
        }));
    }
    println!();

    header(
        "fig18_largescale",
        "Fig. 18(b)",
        "INFless throughput upper bound per resource vs SLO (20 functions)",
    );
    println!("{:>8} {:>14}", "SLO", "thpt/resource");
    let mut b_rows = Vec::new();
    let mut base = None;
    for slo_ms in [150u64, 200, 250, 300] {
        // Rebuild the 20-function deployment with a uniform SLO.
        let app = Application::synthetic(20);
        let functions: Vec<_> = app
            .functions()
            .iter()
            .map(|f| {
                infless_core::engine::FunctionInfo::new(
                    f.spec().clone(),
                    SimDuration::from_millis(slo_ms),
                )
            })
            .collect();
        let app = AppShim { functions };
        let mut h = Harness::new_from(&app.functions, servers);
        let density = {
            let mut cluster = ClusterSpec::large(servers).build();
            let mut capacity = 0.0;
            for function in &app.functions {
                let out = h
                    .scheduler
                    .schedule(&h.predictor, function, 4_000.0, &mut cluster);
                capacity += out.instances.iter().map(|i| i.window.r_up()).sum::<f64>();
            }
            capacity / cluster.weighted_in_use(h.predictor.beta()).max(1e-9)
        };
        let base_v = *base.get_or_insert(density);
        println!(
            "{:>6}ms {:>14.2}  ({:.2} normalized)",
            slo_ms,
            density,
            density / base_v
        );
        b_rows.push(serde_json::json!({"slo_ms": slo_ms, "density": density}));
    }
    println!("(paper: throughput per resource rises as the SLO relaxes)");

    record(
        "fig18_largescale",
        serde_json::json!({ "fig18a": a_rows, "fig18b": b_rows }),
    );
}

/// Minimal stand-in so Fig. 18(b) can vary the SLO on the synthetic app.
struct AppShim {
    functions: Vec<infless_core::engine::FunctionInfo>,
}

impl Harness {
    fn new_from(functions: &[infless_core::engine::FunctionInfo], servers: usize) -> Self {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = functions.iter().map(|f| f.spec().clone()).collect();
        let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 18);
        Harness {
            predictor: CopPredictor::new(db, hw),
            scheduler: Scheduler::new(SchedulerConfig::default()),
            servers,
        }
    }
}
