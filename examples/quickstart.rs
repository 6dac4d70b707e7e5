//! Quickstart: deploy the OSVT application on INFless and both
//! baselines, drive the same constant load, and compare the headline
//! numbers (the paper's §5.2 story in miniature).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use infless::baselines::{BatchPlatform, CostModel, ReactiveConfig, ReactivePlatform};
use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::platform::{InflessConfig, InflessPlatform};
use infless::core::RunReport;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, Workload};

fn main() {
    let app = Application::osvt();
    let rps = 120.0;
    let duration = SimDuration::from_secs(120);
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .map(|_| FunctionLoad::constant(rps, duration))
        .collect();
    let workload = Workload::build(&loads, 42);
    println!(
        "OSVT application ({} functions, SLO 200 ms), {} RPS/function for {}\n",
        app.functions().len(),
        rps,
        duration
    );

    let cluster = ClusterSpec::testbed();
    let reports: Vec<RunReport> = vec![
        ReactivePlatform::new(
            cluster,
            app.functions().to_vec(),
            ReactiveConfig::openfaas(),
            42,
        )
        .run(&workload),
        BatchPlatform::new(cluster, app.functions().to_vec(), 42).run(&workload),
        InflessPlatform::new(
            cluster,
            app.functions().to_vec(),
            InflessConfig::default(),
            42,
        )
        .run(&workload),
    ];

    let cost = CostModel::default();
    println!(
        "{:<10} {:>10} {:>8} {:>10} {:>12} {:>10} {:>12}",
        "system", "completed", "dropped", "SLO-viol", "thpt/res", "cold-rate", "$/request"
    );
    for r in &reports {
        let c = cost.summarize(r);
        println!(
            "{:<10} {:>10} {:>8} {:>9.1}% {:>12.3} {:>9.1}% {:>12.2e}",
            r.platform,
            r.total_completed(),
            r.total_dropped(),
            r.violation_rate() * 100.0,
            r.throughput_per_resource(),
            r.cold_request_rate() * 100.0,
            c.cost_per_request
        );
    }

    let base = reports[0].throughput_per_resource();
    let batch = reports[1].throughput_per_resource();
    let infless = reports[2].throughput_per_resource();
    println!(
        "\nINFless throughput per unit of resource: {:.1}x OpenFaaS+, {:.1}x BATCH",
        infless / base,
        infless / batch
    );
}
