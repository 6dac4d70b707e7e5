//! Azure-trace round trip: export a synthetic multi-function workload
//! in the Azure Functions CSV format, read it back, classify each row
//! into the paper's Fig. 10 pattern classes, and replay it on INFless.
//!
//! Point `INFLESS_TRACE` at a real Azure-format CSV to replay that
//! instead.
//!
//! ```sh
//! cargo run --release --example azure_trace
//! ```

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::engine::FunctionInfo;
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::workload::trace_io::{read_csv, series_to_row, write_csv, TraceRow};
use infless::workload::{TracePattern, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let duration = SimDuration::from_hours(2);
    let rows: Vec<TraceRow> = match std::env::var("INFLESS_TRACE") {
        Ok(path) => {
            println!("replaying trace file {path}\n");
            read_csv(std::fs::File::open(path)?)?
        }
        Err(_) => {
            // Export three generated traces in the Azure format first.
            let rows: Vec<TraceRow> = TracePattern::evaluation_set()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    series_to_row(
                        format!("fn-{}", p.name()),
                        &p.generate(60.0, duration, 90 + i as u64),
                    )
                })
                .collect();
            let path = std::env::temp_dir().join("infless-azure-trace.csv");
            write_csv(&rows, std::fs::File::create(&path)?)?;
            println!(
                "wrote synthetic Azure-format trace to {} — reading it back\n",
                path.display()
            );
            read_csv(std::fs::File::open(&path)?)?
        }
    };

    // Classify and deploy one model per row.
    let zoo = [
        ModelId::Ssd,
        ModelId::MobileNet,
        ModelId::ResNet20,
        ModelId::TextCnn69,
    ];
    let mut functions = Vec::new();
    let mut loads = Vec::new();
    println!("{:<20} {:>12} {:>12}", "function", "invocations", "class");
    for (i, row) in rows.iter().enumerate() {
        println!(
            "{:<20} {:>12} {:>12}",
            row.name(),
            row.total_invocations(),
            row.classify().name()
        );
        functions.push(FunctionInfo::new(
            zoo[i % zoo.len()].spec(),
            SimDuration::from_millis(200),
        ));
        loads.push(row.to_load());
    }

    let workload = Workload::build(&loads, 91);
    let report = System::Infless.run(ClusterSpec::testbed(), &functions, &workload, 91);

    println!(
        "\nreplay: {} completed, {} dropped, {:.2}% SLO violations, thpt/resource {:.3}",
        report.total_completed(),
        report.total_dropped(),
        report.violation_rate() * 100.0,
        report.throughput_per_resource()
    );
    Ok(())
}
