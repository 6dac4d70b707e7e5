//! Fig. 13: flexible batch and resource configurations (ResNet-50).
//!
//! (a/b) the share of throughput contributed by each batchsize for
//!       INFless and BATCH — BATCH concentrates on one or two large
//!       batchsizes, INFless mixes {1, 2, 4, 8, …} as load allows;
//! (c)   the distribution of per-instance ⟨b, c, g⟩ configurations —
//!       INFless is non-uniform, BATCH uses a handful of fixed configs.

use infless_bench::{header, maybe_quick, record, System};
use infless_cluster::ClusterSpec;
use infless_core::engine::FunctionInfo;
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, TracePattern, Workload};

fn main() {
    let cluster = ClusterSpec::testbed();
    let functions = vec![FunctionInfo::new(
        ModelId::ResNet50.spec(),
        SimDuration::from_millis(200),
    )];
    // A load that swings widely so both small and large batches pay off.
    let duration = maybe_quick(SimDuration::from_mins(15));
    let workload = Workload::build(
        &[FunctionLoad::trace(
            TracePattern::Bursty,
            250.0,
            duration,
            133,
        )],
        133,
    );

    let mut json = serde_json::Map::new();
    for sys in [System::Infless, System::Batch] {
        let r = sys.run(cluster, &functions, &workload, 133);
        header(
            "fig13_config_distribution",
            "Fig. 13(a,b)",
            &format!("{} — throughput share by batchsize (ResNet-50)", sys.name()),
        );
        let f = &r.functions[0];
        let mut batch_rows = Vec::new();
        for (b, n) in &f.per_batch_completed {
            let share = *n as f64 / f.completed.max(1) as f64;
            println!("  b={:<3} {:>8} requests ({:>5.1}%)", b, n, share * 100.0);
            batch_rows.push(serde_json::json!({"batch": b, "requests": n, "share": share}));
        }

        header(
            "fig13_config_distribution",
            "Fig. 13(c)",
            &format!(
                "{} — instance (b, c, g) configurations launched",
                sys.name()
            ),
        );
        let mut cfgs: Vec<(String, u64)> = r
            .config_launches
            .iter()
            .map(|((_, cfg), n)| (cfg.to_string(), *n))
            .collect();
        cfgs.sort();
        let mut cfg_rows = Vec::new();
        for (cfg, n) in &cfgs {
            println!("  {cfg} x{n}");
            cfg_rows.push(serde_json::json!({"config": cfg, "launches": n}));
        }
        println!(
            "  => {} distinct configurations ({})\n",
            cfgs.len(),
            if sys == System::Infless {
                "non-uniform scaling"
            } else {
                "uniform scaling"
            }
        );
        json.insert(
            sys.name().to_string(),
            serde_json::json!({
                "batch_shares": batch_rows,
                "configs": cfg_rows,
                "distinct_configs": cfgs.len(),
            }),
        );
    }

    record("fig13_config_distribution", serde_json::Value::Object(json));
}
