//! Fig. 7: operator call counts and execution-time shares.
//!
//! (a) LSTM-2365: MatMul is called ~81 times and (together with the
//!     fused/attention matmuls) dominates execution time;
//! (b) ResNet-50: ~8 distinct operators, >95 % of time in Conv2D.

use infless_bench::{header, record};
use infless_models::{HardwareModel, ModelId, ResourceConfig};

fn table(id: ModelId) -> Vec<serde_json::Value> {
    let spec = id.spec();
    let hw = HardwareModel::default();
    let cfg = ResourceConfig::new(2, 10);
    let lat = |op: &infless_models::Operator| hw.op_latency_s(op, 8, cfg);

    let counts = spec.dag().kind_counts();
    let times = spec.dag().kind_totals(lat);
    let total_time: f64 = times.values().sum();

    let mut rows: Vec<(String, usize, f64)> = counts
        .iter()
        .map(|(k, c)| (k.to_string(), *c, times[k] / total_time))
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));

    println!(
        "{} — {} call sites, {} distinct operators",
        id.name(),
        spec.dag().len(),
        counts.len()
    );
    println!("{:<18} {:>8} {:>12}", "operator", "calls", "time share");
    let mut json = Vec::new();
    for (kind, calls, share) in &rows {
        println!("{:<18} {:>8} {:>11.1}%", kind, calls, share * 100.0);
        json.push(serde_json::json!({
            "operator": kind, "calls": calls, "time_share": share,
        }));
    }
    println!();
    json
}

fn main() {
    header(
        "fig07_operator_stats",
        "Fig. 7(a,b)",
        "Calling frequency and execution-time share of DNN operators",
    );
    let lstm = table(ModelId::Lstm2365);
    let resnet = table(ModelId::ResNet50);

    // Observation #6 aggregate: call sites vs distinct operators across
    // the whole zoo.
    let mut call_sites = 0;
    let mut kinds = std::collections::BTreeSet::new();
    for id in ModelId::all() {
        let spec = id.spec();
        call_sites += spec.dag().len();
        kinds.extend(spec.dag().kind_counts().into_keys());
    }
    println!(
        "zoo-wide: {call_sites} operator call sites, {} distinct operator kinds",
        kinds.len()
    );
    println!("(paper: >1000 call sites, 71 distinct operators)");

    record(
        "fig07_operator_stats",
        serde_json::json!({
            "lstm2365": lstm,
            "resnet50": resnet,
            "zoo_call_sites": call_sites,
            "zoo_distinct_kinds": kinds.len(),
        }),
    );
}
