//! The shipped scenario files must stay valid, and the descriptor
//! pipeline must produce working runs across platforms.

use infless::descriptor::{PlatformKind, Scenario};
use infless::RunConfig;

#[test]
fn shipped_scenarios_parse_and_validate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            Scenario::from_file(&path).unwrap_or_else(|e| panic!("{path:?} failed to parse: {e}"));
            count += 1;
        }
    }
    assert!(
        count >= 3,
        "expected the shipped scenario set, found {count}"
    );
}

#[test]
fn same_descriptor_runs_on_every_platform() {
    let template = |platform: &str| {
        format!(
            r#"{{
                "platform": "{platform}",
                "seed": 5,
                "cluster": {{ "servers": 2 }},
                "functions": [
                    {{ "name": "f", "model": "MobileNet", "slo_ms": 200,
                       "load": {{ "kind": "constant", "rps": 25.0, "duration_secs": 20 }} }}
                ]
            }}"#
        )
    };
    for platform in ["infless", "openfaas", "batch"] {
        let scenario = Scenario::from_json(&template(platform)).expect("valid");
        let report = scenario.execute(RunConfig::new()).expect("runs");
        let total = report.total_completed() + report.total_dropped();
        assert_eq!(total, 500, "{platform}: accounted {total}");
        assert!(
            report.total_completed() > 450,
            "{platform}: completed only {}",
            report.total_completed()
        );
    }
}

#[test]
fn seed_override_changes_nothing_but_noise() {
    let json = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "functions": [
            { "name": "f", "model": "TextCNN-69", "slo_ms": 100,
              "load": { "kind": "trace", "pattern": "periodic", "mean_rps": 30.0, "duration_secs": 60 } }
        ]
    }"#;
    let mut a = Scenario::from_json(json).expect("valid");
    let mut b = Scenario::from_json(json).expect("valid");
    a.seed = 1;
    b.seed = 1;
    let ra = a.execute(RunConfig::new()).expect("runs");
    let rb = b.execute(RunConfig::new()).expect("runs");
    assert_eq!(ra.total_completed(), rb.total_completed());
    assert_eq!(ra.launches, rb.launches);
    assert_eq!(PlatformKind::Infless, PlatformKind::Infless);
}

/// An output that cannot be created fails the run up front with an
/// error naming the path — for every output, eager and sharded, and
/// without the flight recorder panicking mid-run on a scenario whose
/// faults would make it dump.
#[test]
fn unwritable_outputs_are_reported_by_path() {
    let dir = std::env::temp_dir().join(format!("infless-no-such-dir-{}", std::process::id()));
    let shipped = |stem: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(format!("{stem}.json"));
        Scenario::from_file(path).expect("shipped scenario parses")
    };
    let osvt = shipped("osvt");
    let cases = [
        (&osvt, RunConfig::new().decisions_out(dir.join("d.jsonl"))),
        (&osvt, RunConfig::new().metrics_out(dir.join("m.prom"))),
        (
            &osvt,
            RunConfig::new()
                .shards(2)
                .decisions_out(dir.join("d.jsonl")),
        ),
        (
            &shipped("swap_sweep"),
            RunConfig::new().flight_out(dir.join("f.jsonl")),
        ),
    ];
    for (scenario, config) in cases {
        let label = format!("{config:?}");
        let err = scenario
            .execute(config)
            .expect_err("an unwritable output must fail the run")
            .to_string();
        assert!(err.contains("cannot write"), "{label}: {err}");
        assert!(err.contains(&*dir.to_string_lossy()), "{label}: {err}");
        assert!(!err.contains("read scenario"), "{label}: {err}");
    }
}

/// A sharded run of a baseline is refused before any output is opened:
/// files already at the span and gauge paths keep their bytes, and the
/// decision trace is never created.
#[test]
fn a_refused_run_leaves_output_files_alone() {
    let dir = std::env::temp_dir().join(format!("infless-refused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (spans, gauges, decisions) = (dir.join("t.jsonl"), dir.join("g.csv"), dir.join("d.jsonl"));
    std::fs::write(&spans, "spans from an earlier run\n").expect("writable");
    std::fs::write(&gauges, "gauges from an earlier run\n").expect("writable");
    let _ = std::fs::remove_file(&decisions);
    let scenario = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("qa_robot_batch.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_inflessctl"))
        .arg(&scenario)
        .args(["--shards", "2", "--trace-out"])
        .arg(&spans)
        .arg("--timeseries-out")
        .arg(&gauges)
        .arg("--decisions-out")
        .arg(&decisions)
        .output()
        .expect("inflessctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: sharded execution"), "{stderr}");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("file kept");
    assert_eq!(read(&spans), "spans from an earlier run\n");
    assert_eq!(read(&gauges), "gauges from an earlier run\n");
    assert!(
        !decisions.exists(),
        "a refused run creates no decision trace"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
}

/// A disk that fills mid-run fails the run, whichever output hit it:
/// each output keeps its first write error and the run returns it as
/// `RunError::Output`, naming the file, instead of panicking.
#[test]
#[cfg(target_os = "linux")]
fn a_full_disk_fails_every_output() {
    use infless::baselines::RunError;
    use infless::descriptor::ScenarioError;
    use infless::telemetry::FileSink;

    let full = std::path::Path::new("/dev/full");
    let shipped = |stem: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(format!("{stem}.json"));
        Scenario::from_file(path).expect("shipped scenario parses")
    };
    let sink = |trace, timeseries| {
        let sink = FileSink::create(trace, timeseries).expect("/dev/full opens");
        RunConfig::new().telemetry(Box::new(sink))
    };
    let failures = shipped("failure_sweep");
    // Kills far past the flight recorder's burst threshold, so it dumps.
    let json = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/failure_sweep.json"),
    )
    .expect("shipped scenario readable")
    .replace(
        "\"instance_kills_per_hour\": 90.0",
        "\"instance_kills_per_hour\": 20000.0",
    );
    let bursts = Scenario::from_json(&json).expect("valid scenario");
    let cases = [
        ("spans", &failures, sink(Some(full), None)),
        ("gauges", &failures, sink(None, Some(full))),
        ("decisions", &failures, RunConfig::new().decisions_out(full)),
        ("metrics", &failures, RunConfig::new().metrics_out(full)),
        (
            "flight",
            &bursts,
            RunConfig::new().shards(4).flight_out(full),
        ),
    ];
    for (label, scenario, config) in cases {
        match scenario.execute(config) {
            Err(ScenarioError::Run(RunError::Output { path, .. })) => {
                assert_eq!(path, full, "{label}");
            }
            other => panic!("{label}: expected RunError::Output, got {other:?}"),
        }
    }
}

/// A reader that closes the pipe early (`inflessctl … | head`) ends the
/// run quietly: exit 0, no panic, for the table and the JSON report.
#[test]
fn closed_stdout_exits_quietly() {
    let scenario = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("osvt.json");
    for flags in [&[][..], &["--json"][..]] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_inflessctl"))
            .arg(&scenario)
            .args(flags)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("inflessctl starts");
        // Close the read end before the run finishes and prints.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("inflessctl exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {stderr}");
    }
}
