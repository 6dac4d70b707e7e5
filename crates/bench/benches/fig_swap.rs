//! Extension experiment: the GPU memory tier (Torpor-style swapping).
//!
//! Two questions, one figure:
//!
//! * **Startup** — on a churn-heavy sporadic workload, what does a
//!   fresh launch cost each system? Torpor never boots (every launch is
//!   a PCIe swap-in from the host model cache); INFless with the
//!   residency tier enabled swaps in whenever the tiered-LSTH host
//!   window still holds a copy; OpenFaaS+ and plain INFless pay the
//!   full container boot + model load.
//! * **Recovery** — after injected server crashes, how fast does each
//!   system rebuild the lost capacity? Replacement launches on the
//!   swap path should recapture capacity far sooner than boot-path
//!   replacements; mean time-to-recapacity isolates exactly that.
//!
//! All systems face identical seeded workloads and fault schedules, so
//! gaps are memory-tier gaps, not luck.

use infless_bench::{
    fault_schedule_for, header, maybe_quick, pattern_workload, quick, record, run_parallel, System,
};
use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_core::metrics::RunReport;
use infless_core::residency::ResidencyConfig;
use infless_core::runconfig::RunConfig;
use infless_faults::FaultPlan;
use infless_sim::SimDuration;
use infless_workload::TracePattern;

/// Request-weighted mean cold-start penalty across functions, ms.
fn mean_startup_ms(r: &RunReport) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u64);
    for f in &r.functions {
        let startup = &f.breakdown.startup_ms;
        sum += startup.mean() * startup.count() as f64;
        n += startup.count();
    }
    (n > 0).then(|| sum / n as f64)
}

fn startup_row(label: &str, r: &RunReport) -> serde_json::Value {
    serde_json::json!({
        "system": label,
        "launches": r.launches,
        "cold_launches": r.cold_launches,
        "swap_launches": r.swap_launches,
        "prewarmed_launches": r.prewarmed_launches,
        "mean_startup_ms": mean_startup_ms(r),
        "cold_request_rate": r.cold_request_rate(),
        "violation_rate": r.violation_rate(),
    })
}

fn main() {
    let cluster = ClusterSpec::testbed();
    let app = Application::qa_robot();

    header(
        "fig_swap",
        "extension (GPU memory tier)",
        "swap-in vs boot: startup cost under churn, time-to-recapacity under faults",
    );

    // ── Part 1: startup cost under churn ────────────────────────────
    // Sporadic load idles functions long enough for the device tier to
    // retire instances but (for the tiered policies) not long enough to
    // evict the host copy, so relaunches exercise the swap path.
    let churn = pattern_workload(
        app.functions().len(),
        TracePattern::Sporadic,
        12.0,
        maybe_quick(SimDuration::from_mins(12)),
        42,
    );
    let residency_on = || RunConfig::new().residency(ResidencyConfig::enabled());
    let startup_reports = {
        let functions = app.functions().to_vec();
        let churn = &churn;
        let f2 = functions.clone();
        let f3 = functions.clone();
        let f4 = functions.clone();
        let jobs: Vec<Box<dyn FnOnce() -> (&'static str, RunReport) + Send>> = vec![
            Box::new(move || {
                let r = System::OpenFaasPlus.run(cluster, &functions, churn, 42);
                ("OpenFaaS+", r)
            }),
            Box::new(move || {
                let r = System::Torpor.run(cluster, &f2, churn, 42);
                ("Torpor", r)
            }),
            Box::new(move || {
                let r = System::Infless.run(cluster, &f3, churn, 42);
                ("INFless", r)
            }),
            Box::new(move || {
                let r = System::Infless.execute(cluster, &f4, churn, 42, residency_on());
                ("INFless+tier", r)
            }),
        ];
        run_parallel(jobs)
    };

    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>12} {:>8}",
        "system", "launches", "cold", "swap", "prewarm", "startup ms", "viol %"
    );
    let mut startup_rows = Vec::new();
    for (label, r) in &startup_reports {
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>12} {:>7.2}%",
            label,
            r.launches,
            r.cold_launches,
            r.swap_launches,
            r.prewarmed_launches,
            mean_startup_ms(r).map_or_else(|| "-".into(), |m| format!("{m:.0}")),
            r.violation_rate() * 100.0,
        );
        startup_rows.push(startup_row(label, r));
    }
    println!();

    // ── Part 2: time-to-recapacity under faults ─────────────────────
    let recovery_load = pattern_workload(
        app.functions().len(),
        TracePattern::Bursty,
        80.0,
        maybe_quick(SimDuration::from_mins(8)),
        42,
    );
    let intensities: &[f64] = if quick() { &[4.0] } else { &[1.0, 2.0, 4.0] };
    let mut jobs = Vec::new();
    for &intensity in intensities {
        for sys in System::all() {
            let functions = app.functions().to_vec();
            let workload = &recovery_load;
            jobs.push(move || {
                let plan = FaultPlan::sweep(intensity);
                let schedule = fault_schedule_for(&plan, cluster, workload, 42);
                let cfg = match sys {
                    System::Infless => RunConfig::new()
                        .fault_schedule(schedule)
                        .residency(ResidencyConfig::enabled()),
                    _ => RunConfig::new().fault_schedule(schedule),
                };
                sys.execute(cluster, &functions, workload, 42, cfg)
            });
        }
    }
    let reports = run_parallel(jobs);

    println!(
        "{:<10} {:<10} {:>9} {:>9} {:>12} {:>8}",
        "intensity", "system", "crashes", "swaps", "recap ms", "viol %"
    );
    let mut recovery_rows = Vec::new();
    let mut torpor_beats_boot_at = Vec::new();
    for (i, &intensity) in intensities.iter().enumerate() {
        let base = i * System::all().len();
        let mut recap = std::collections::BTreeMap::new();
        for (s, sys) in System::all().iter().enumerate() {
            let r = &reports[base + s];
            let ms = r.failures.mean_time_to_recapacity_ms();
            // No samples despite crashes = the lost capacity was never
            // rebuilt inside the horizon — worse than any finite mean.
            let effective = ms.unwrap_or(if r.failures.server_crashes > 0 {
                f64::INFINITY
            } else {
                0.0
            });
            recap.insert(sys.name(), effective);
            println!(
                "{:<10} {:<10} {:>9} {:>9} {:>12} {:>7.2}%",
                intensity,
                sys.name(),
                r.failures.server_crashes,
                r.swap_launches,
                ms.map_or_else(|| "-".into(), |m| format!("{m:.0}")),
                r.violation_rate() * 100.0,
            );
            recovery_rows.push(serde_json::json!({
                "intensity": intensity,
                "system": sys.name(),
                "server_crashes": r.failures.server_crashes,
                "swap_launches": r.swap_launches,
                "mean_time_to_recapacity_ms": ms,
                "violation_rate": r.violation_rate(),
                "completed": r.total_completed(),
            }));
        }
        if let (Some(&t), Some(&o)) = (recap.get("Torpor"), recap.get("OpenFaaS+")) {
            if t.is_finite() && t < o {
                torpor_beats_boot_at.push(intensity);
            }
        }
        println!();
    }
    println!(
        "swap recovery beats boot recovery (Torpor < OpenFaaS+ mean time-to-recapacity) at \
         intensities {torpor_beats_boot_at:?}"
    );
    assert!(
        !torpor_beats_boot_at.is_empty(),
        "swap recovery never beat boot recovery — the memory tier buys nothing"
    );

    record(
        "fig_swap",
        serde_json::json!({
            "startup": startup_rows,
            "recovery": recovery_rows,
            "torpor_beats_boot_at": torpor_beats_boot_at,
        }),
    );
}
