//! Trace replay: a fraud-detection-style function under the Fig. 9a
//! diurnal (LTP + STB) shape for 24 simulated hours. Prints the
//! provisioning timeline next to the offered load — the Fig. 14 view —
//! showing the auto-scaler tracking the load up *and* down.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use infless::baselines::System;
use infless::cluster::ClusterSpec;
use infless::core::engine::FunctionInfo;
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};

fn main() {
    let duration = SimDuration::from_hours(24);
    let functions = vec![FunctionInfo::new(
        ModelId::ResNet50.spec(),
        SimDuration::from_millis(200),
    )];
    let load = FunctionLoad::trace(TracePattern::Diurnal, 60.0, duration, 2024);
    let series = load.series().expect("trace loads are curve-driven").clone();
    let workload = Workload::build(&[load], 2024);

    println!(
        "Replaying a 24 h diurnal trace ({} requests, mean 60 RPS) for ResNet-50\n",
        workload.len()
    );
    let report = System::Infless.run(ClusterSpec::testbed(), &functions, &workload, 2024);

    println!(
        "completed {}  dropped {}  violations {:.2}%  launches {}  retirements {}\n",
        report.total_completed(),
        report.total_dropped(),
        report.violation_rate() * 100.0,
        report.launches,
        report.retirements
    );

    // Downsample the provisioning timeline to one point per half hour.
    println!("{:>6} {:>10} {:>14}", "hour", "load RPS", "provisioned");
    let step = 1800.0;
    let mut next = 0.0;
    for (t, used) in &report.provisioning {
        if *t + 1e-9 < next {
            continue;
        }
        next = t + step;
        let rps = series.rate_at(infless::sim::SimTime::from_secs(*t as u64));
        let bar = "#".repeat((used / 10.0).round() as usize);
        println!("{:>6.1} {:>10.1} {:>14.1}  {}", t / 3600.0, rps, used, bar);
    }
}
