//! Byte identity, checked against one golden manifest.
//!
//! Every case below runs the simulator with some of its outputs on and
//! digests each output file by byte length and streaming FNV-1a-64.
//! `tests/fixtures/golden.tsv` holds the expected digests, one
//! `case  artifact  bytes  fnv1a64` row per file. Any change to an
//! event loop, the decode path, a baseline or an output writer that
//! moves one reported number, one decision record, one span, one gauge
//! reading or one metric fails here, listing every row that moved.
//!
//! * Each case belongs to one test (see [`registry`]); `check(test)`
//!   runs that test's cases. The tests live in `tests/golden.rs`,
//!   `tests/llm_pin.rs` and `tests/reactive_pin.rs`.
//! * Files that match their row are deleted; a mismatching file is kept
//!   under `$CARGO_TARGET_TMPDIR/golden/<case>/` for diffing.
//! * Every run writes the manifest it observed to
//!   `$CARGO_TARGET_TMPDIR/golden/golden.tsv`. After a full
//!   `cargo test`, a deliberate change is re-pinned by copying that file
//!   over `tests/fixtures/golden.tsv`.
//! * For every INFless shipped scenario the `<stem>/s1` and `<stem>/s4`
//!   cases (the epoch-barrier driver at one and four shards) must
//!   produce identical canonical JSON, decision traces and metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::engine::FunctionInfo;
use infless::core::metrics::RunReport;
use infless::descriptor::{PlatformKind, Scenario};
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::telemetry::FileSink;
use infless::workload::{FunctionLoad, TracePattern, Workload};
use infless::RunConfig;
use infless_bench::System;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};

/// An output a case can turn on besides its canonical JSON report.
#[derive(Clone, Copy)]
enum Output {
    Decisions,
    Spans,
    Gauges,
    Flight,
    Metrics,
}

impl Output {
    fn file(self) -> &'static str {
        match self {
            Output::Decisions => "decisions.jsonl",
            Output::Spans => "spans.jsonl",
            Output::Gauges => "gauges.csv",
            Output::Flight => "flight.jsonl",
            Output::Metrics => "metrics.prom",
        }
    }
}

const CANONICAL: &[Output] = &[];
const DECISIONS: &[Output] = &[Output::Decisions];
const TRACED: &[Output] = &[Output::Decisions, Output::Spans, Output::Gauges];
const SHARDED: &[Output] = &[Output::Decisions, Output::Metrics];
const ALL: &[Output] = &[
    Output::Decisions,
    Output::Spans,
    Output::Gauges,
    Output::Flight,
    Output::Metrics,
];

/// The artifacts that must not depend on the shard count.
const SHARD_INVARIANT: [&str; 3] = ["canonical.json", "decisions.jsonl", "metrics.prom"];

type Run = Box<dyn Fn(RunConfig) -> RunReport + Send + Sync>;

/// One run: its outputs are wired into the config it is handed.
struct Case {
    name: String,
    outputs: &'static [Output],
    run: Run,
}

fn case(
    name: impl Into<String>,
    outputs: &'static [Output],
    run: impl Fn(RunConfig) -> RunReport + Send + Sync + 'static,
) -> Case {
    Case {
        name: name.into(),
        outputs,
        run: Box::new(run),
    }
}

/// A descriptor run; `shards: None` is the single-core driver.
fn scenario_case(
    name: impl Into<String>,
    outputs: &'static [Output],
    scenario: Scenario,
    shards: Option<usize>,
) -> Case {
    case(name, outputs, move |config| {
        let config = match shards {
            Some(n) => config.shards(n),
            None => config,
        };
        scenario.execute(config).expect("runs")
    })
}

/// The byte length and FNV-1a-64 digest of one artifact.
type Digest = (u64, u64);

/// Manifest rows, keyed by `(case, artifact)`.
type Rows = BTreeMap<(String, String), Digest>;

fn digest(path: &Path) -> Digest {
    let mut file = fs::File::open(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut len, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf).expect("readable output");
        if n == 0 {
            break;
        }
        len += n as u64;
        // An index loop: tier-1 runs unoptimised, where it hashes the
        // traces a third faster than an iterator.
        let bytes = &buf[..n];
        let mut i = 0;
        while i < n {
            hash = (hash ^ bytes[i] as u64).wrapping_mul(0x0100_0000_01b3);
            i += 1;
        }
    }
    (len, hash)
}

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.tsv")
}

fn out_root() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden")
}

fn parse_manifest(text: &str) -> Rows {
    text.lines()
        .skip(1)
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            let [case, artifact, bytes, hash] = cols[..] else {
                panic!("malformed manifest row {line:?}");
            };
            let bytes = bytes.parse().expect("byte count");
            let hash = u64::from_str_radix(hash, 16).expect("hex digest");
            ((case.to_owned(), artifact.to_owned()), (bytes, hash))
        })
        .collect()
}

fn render_manifest(rows: &Rows) -> String {
    let mut out = String::from("case\tartifact\tbytes\tfnv1a64\n");
    for ((case, artifact), (bytes, hash)) in rows {
        out.push_str(&format!("{case}\t{artifact}\t{bytes}\t{hash:016x}\n"));
    }
    out
}

/// Runs `case` in a fresh directory and digests every output. Files
/// matching their pinned row are deleted; the rest are kept.
fn run_case(case: &Case, pinned: &Rows) -> (Rows, Vec<String>) {
    let dir = out_root().join(&case.name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("output dir");
    let path = |o: &Output| dir.join(o.file());
    let mut config = RunConfig::new();
    let (spans, gauges) = (
        case.outputs.iter().find(|o| matches!(o, Output::Spans)),
        case.outputs.iter().find(|o| matches!(o, Output::Gauges)),
    );
    if spans.is_some() || gauges.is_some() {
        let sink = FileSink::create(spans.map(path).as_deref(), gauges.map(path).as_deref())
            .expect("sink");
        config = config.telemetry(Box::new(sink));
    }
    for o in case.outputs {
        config = match o {
            Output::Decisions => config.decisions_out(path(o)),
            Output::Flight => config.flight_out(path(o)),
            Output::Metrics => config.metrics_out(path(o)),
            Output::Spans | Output::Gauges => config,
        };
    }
    let report = (case.run)(config);
    fs::write(dir.join("canonical.json"), report.canonical_json()).expect("writable report");

    let mut actual = Rows::new();
    let mut mismatches = Vec::new();
    let files = std::iter::once("canonical.json").chain(case.outputs.iter().map(|o| o.file()));
    for file in files {
        let key = (case.name.clone(), file.to_owned());
        let got = digest(&dir.join(file));
        match pinned.get(&key) {
            Some(want) if *want == got => {
                fs::remove_file(dir.join(file)).expect("removable output");
            }
            want => mismatches.push(format!(
                "{} {file}: pinned {}, got {} bytes fnv1a64 {:016x}",
                case.name,
                want.map_or("nothing".to_owned(), |(b, h)| format!(
                    "{b} bytes fnv1a64 {h:016x}"
                )),
                got.0,
                got.1
            )),
        }
        actual.insert(key, got);
    }
    for (c, file) in pinned.keys() {
        if *c == case.name && !actual.contains_key(&(c.clone(), file.clone())) {
            mismatches.push(format!("{c} {file}: pinned but not written"));
        }
    }
    let _ = fs::remove_dir(&dir); // only if every file matched
    (actual, mismatches)
}

/// Case runs in flight across every test of this process, and the
/// condition a finished run signals.
static IN_FLIGHT: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());

/// Held by a four-shard run. Such a run spends most of its wall-clock
/// waiting at epoch barriers, and two of them slow each other down.
static FOUR_SHARDS: Mutex<()> = Mutex::new(());

/// A slot among the `available_parallelism` case runs allowed at once.
struct Slot;

impl Slot {
    fn take() -> Slot {
        let limit = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (count, freed) = &IN_FLIGHT;
        let count = count.lock().unwrap_or_else(PoisonError::into_inner);
        let mut count = freed
            .wait_while(count, |n| *n >= limit)
            .unwrap_or_else(PoisonError::into_inner);
        *count += 1;
        Slot
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let (count, freed) = &IN_FLIGHT;
        *count.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        freed.notify_one();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises the read-merge-write of the observed manifest.
static OBSERVED: Mutex<()> = Mutex::new(());

/// Replaces the rows of every case in `newer` with its rows there.
fn merge(base: &mut Rows, newer: Rows) {
    let cases: BTreeSet<String> = newer.keys().map(|(c, _)| c.clone()).collect();
    base.retain(|(c, _), _| !cases.contains(c));
    base.extend(newer);
}

/// Writes the observed manifest: per registered case, the rows it
/// produced when it last ran, or its pinned rows if it has not run.
fn write_observed(pinned: &Rows, actual: &Rows) {
    let _lock = lock(&OBSERVED);
    let path = out_root().join("golden.tsv");
    let mut observed = pinned.clone();
    if let Ok(text) = fs::read_to_string(&path) {
        merge(&mut observed, parse_manifest(&text));
    }
    merge(&mut observed, actual.clone());
    let registered = case_names();
    observed.retain(|(c, _), _| registered.contains(c));
    fs::write(path, render_manifest(&observed)).expect("writable manifest");
}

/// Runs the cases of `test` on parallel threads and checks them against
/// the manifest.
pub fn check(test: &str) {
    let cases: Vec<Case> = registry()
        .into_iter()
        .filter_map(|(t, case)| (t == test).then_some(case))
        .collect();
    assert!(!cases.is_empty(), "no golden cases belong to {test}");
    let pinned = parse_manifest(&fs::read_to_string(manifest_path()).expect("golden manifest"));
    let results = Mutex::new((Rows::new(), Vec::new()));
    std::thread::scope(|s| {
        for case in &cases {
            let (results, pinned) = (&results, &pinned);
            s.spawn(move || {
                let _lane = case.name.ends_with("/s4").then(|| lock(&FOUR_SHARDS));
                let _slot = Slot::take();
                let (rows, mismatches) = run_case(case, pinned);
                let mut results = lock(results);
                results.0.extend(rows);
                results.1.extend(mismatches);
            });
        }
    });
    let (actual, mut failures) = results.into_inner().expect("no worker panicked");
    for case in &cases {
        if let Some((scenario, _)) = case.name.split_once('/') {
            let _ = fs::remove_dir(out_root().join(scenario)); // only if emptied
        }
    }
    write_observed(&pinned, &actual);

    for case in cases.iter().filter_map(|c| c.name.strip_suffix("/s1")) {
        for file in SHARD_INVARIANT {
            let row = |shards: &str| actual.get(&(format!("{case}/{shards}"), file.to_owned()));
            if row("s4").is_some() && row("s1") != row("s4") {
                failures.push(format!("{case} {file}: S=1 and S=4 differ"));
            }
        }
    }
    assert_eq!(
        infless::core::engine::live_timer_drops(),
        0,
        "a batch timer that could still start a batch was never pushed"
    );
    failures.sort();
    assert!(
        failures.is_empty(),
        "{} golden rows moved (outputs kept under {}; the observed manifest is \
         golden.tsv there):\n{}",
        failures.len(),
        out_root().display(),
        failures.join("\n")
    );
}

/// Every case in the registry, by name.
fn case_names() -> BTreeSet<String> {
    registry().into_iter().map(|(_, case)| case.name).collect()
}

/// The pinned rows no registered case produces: coverage the manifest
/// claims but no test checks.
#[allow(dead_code)] // only `tests/golden.rs` asks
pub fn unclaimed_rows() -> Vec<String> {
    let pinned = parse_manifest(&fs::read_to_string(manifest_path()).expect("golden manifest"));
    let registered = case_names();
    pinned
        .into_keys()
        .filter(|(c, _)| !registered.contains(c))
        .map(|(c, file)| format!("{c} {file}"))
        .collect()
}

fn shipped_path(stem: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{stem}.json"))
}

fn shipped(stem: &str) -> Scenario {
    Scenario::from_file(shipped_path(stem)).expect("shipped scenario parses")
}

/// `stem` rewritten onto another platform.
fn rewritten(stem: &str, platform: &str) -> Scenario {
    let json = fs::read_to_string(shipped_path(stem)).expect("shipped scenario");
    let json = json.replace(
        r#""platform": "infless""#,
        &format!(r#""platform": "{platform}""#),
    );
    let scenario = Scenario::from_json(&json).expect("valid scenario");
    assert_ne!(scenario.platform, PlatformKind::Infless, "rewritten");
    scenario
}

/// A chat/summarize mix on two servers, parameterised by the chat rate
/// and the decode-batching discipline.
fn llm_mix(rps: f64, batching: &str, platform: &str) -> Scenario {
    let json = format!(
        r#"{{
    "platform": "{platform}",
    "seed": 23,
    "cluster": {{ "servers": 2 }},
    "llm": {{ "enabled": true, "batching": "{batching}" }},
    "functions": [
        {{ "name": "chat", "model": "Bert-v1", "slo_ms": 4000, "llm_class": "chat",
          "load": {{ "kind": "constant", "rps": {rps:.3}, "duration_secs": 12 }} }},
        {{ "name": "summarize", "model": "Bert-v1", "slo_ms": 60000, "llm_class": "summarize",
          "load": {{ "kind": "constant", "rps": 1.5, "duration_secs": 12 }} }}
    ]
}}"#
    );
    Scenario::from_json(&json).expect("valid scenario")
}

/// The intensity-4 fault sweep over the LLM mix's two servers.
fn llm_mix_faults() -> FaultSchedule {
    FaultSchedule::generate(&FaultPlan::sweep(4.0), 2, SimDuration::from_secs(12), 0)
}

/// qa_robot under bursty load with the intensity-4 fault sweep: every
/// recovery launches replacement pods.
fn faulted_bursty(system: System, config: RunConfig) -> RunReport {
    let app = Application::qa_robot();
    let dur = SimDuration::from_mins(3);
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .map(|_| FunctionLoad::trace(TracePattern::Bursty, 80.0, dur, 42))
        .collect();
    let w = Workload::build(&loads, 42);
    let cluster = ClusterSpec::testbed();
    let faults = FaultSchedule::generate(&FaultPlan::sweep(4.0), cluster.servers, dur, 9);
    system.execute(
        cluster,
        app.functions(),
        &w,
        5,
        config.fault_schedule(faults),
    )
}

/// A chat LLM function under continuous decode batching.
fn llm_chat(system: System, config: RunConfig) -> RunReport {
    let functions = vec![
        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4))
            .with_llm(LlmClass::chat()),
    ];
    let w = Workload::build(
        &[FunctionLoad::constant(8.0, SimDuration::from_secs(20))],
        7,
    );
    system.execute(
        ClusterSpec::testbed(),
        &functions,
        &w,
        7,
        config.llm(LlmConfig::continuous()),
    )
}

/// A chat class whose KV arena holds two to three mean sequences, so
/// the queue head is blocked, and `CacheFull` recorded, step after step.
fn kv_blocked(config: RunConfig) -> RunReport {
    let mut class = LlmClass::chat();
    class.kv_arena_mb = 40.0; // 800 tokens
    let functions =
        vec![FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4)).with_llm(class)];
    let dur = SimDuration::from_secs(20);
    let w = Workload::build(
        &[FunctionLoad::trace(TracePattern::Bursty, 16.0, dur, 5)],
        5,
    );
    let report = System::Infless.execute(
        ClusterSpec::testbed(),
        &functions,
        &w,
        5,
        config.llm(LlmConfig::continuous()),
    );
    assert!(
        report
            .functions
            .iter()
            .any(|f| f.llm.as_ref().is_some_and(|l| l.cache_full_events > 0)),
        "the KV-blocked run must exercise the CacheFull path"
    );
    report
}

/// BATCH+RS on osvt under bursty load and the intensity-4 fault sweep.
fn batch_rs_faults(config: RunConfig) -> RunReport {
    let app = Application::osvt();
    let dur = SimDuration::from_secs(90);
    let loads: Vec<FunctionLoad> = (0..app.functions().len())
        .map(|i| FunctionLoad::trace(TracePattern::Bursty, 60.0, dur, 40 + i as u64))
        .collect();
    let w = Workload::build(&loads, 4);
    let cluster = ClusterSpec::testbed();
    let schedule = FaultSchedule::generate(&FaultPlan::sweep(4.0), cluster.servers, dur, 4);
    System::BatchRs.execute(
        cluster,
        app.functions(),
        &w,
        4,
        config.fault_schedule(schedule),
    )
}

/// The scenario the pre-LLM engine's report was pinned from.
const PRE_LLM: &str = r#"{
    "platform": "infless",
    "seed": 11,
    "cluster": { "servers": 2 },
    "functions": [
        { "name": "a", "model": "MobileNet", "slo_ms": 100,
          "load": { "kind": "constant", "rps": 15.0, "duration_secs": 10 } },
        { "name": "b", "model": "ResNet-50", "slo_ms": 200,
          "load": { "kind": "trace", "pattern": "bursty", "mean_rps": 10.0, "duration_secs": 10 } }
    ]
}"#;

/// Every case, with the test that runs it.
fn registry() -> Vec<(&'static str, Case)> {
    let mut cases = Vec::new();
    // Every non-LLM shipped scenario with every output on, and the
    // INFless ones at four and one shards.
    for (test, stem) in [
        ("resize_scenario_matches_its_pin", "resize_ramp"),
        ("osvt_scenario_matches_its_pin", "osvt"),
        ("swap_scenario_matches_its_pin", "swap_sweep"),
        ("chain_scenario_matches_its_pin", "vehicle_pipeline"),
        ("batch_scenario_matches_its_pin", "qa_robot_batch"),
        ("failure_scenario_matches_its_pin", "failure_sweep"),
    ] {
        let scenario = shipped(stem);
        let eager = scenario_case(format!("{stem}/eager"), ALL, scenario.clone(), None);
        cases.push((test, eager));
        if scenario.platform == PlatformKind::Infless {
            for shards in [4, 1] {
                let name = format!("{stem}/s{shards}");
                let sharded = scenario_case(name, SHARDED, scenario.clone(), Some(shards));
                cases.push((test, sharded));
            }
        }
    }
    let test = "faulted_baseline_loops_match_their_pin";
    for platform in ["openfaas", "batch"] {
        let scenario = rewritten("failure_sweep", platform);
        let name = format!("failure_sweep_{platform}/eager");
        cases.push((test, scenario_case(name, ALL, scenario, None)));
    }
    cases.push((
        test,
        case("batch_rs_faults/eager", CANONICAL, batch_rs_faults),
    ));

    // The decode path: the shipped LLM mix, a faulted mix that kills
    // episodes mid-decode, static batching, a blocked KV arena, and
    // both baselines' loops with gauges reading KV residency mid-decode.
    let test = "llm_chat_mix_matches_its_pin";
    let chat_mix = shipped("llm_chat_mix");
    let eager = scenario_case("llm_chat_mix/eager", TRACED, chat_mix.clone(), None);
    cases.push((test, eager));
    for shards in [1, 4] {
        let name = format!("llm_chat_mix/s{shards}");
        let sharded = scenario_case(name, SHARDED, chat_mix.clone(), Some(shards));
        cases.push((test, sharded));
    }
    let test = "faulted_llm_mix_matches_its_pin";
    let faulted = llm_mix(10.0, "continuous", "infless");
    let f = faulted.clone();
    let eager = case("llm_faults/eager", TRACED, move |c| {
        f.execute(c.fault_schedule(llm_mix_faults())).expect("runs")
    });
    cases.push((test, eager));
    let sharded = case("llm_faults/s4", SHARDED, move |c| {
        let c = c.shards(4).fault_schedule(llm_mix_faults());
        faulted.execute(c).expect("runs")
    });
    cases.push((test, sharded));
    let static_mix = llm_mix(10.0, "static", "infless");
    cases.push((
        "static_llm_batching_matches_its_pin",
        scenario_case("llm_static/eager", TRACED, static_mix, None),
    ));
    cases.push((
        "kv_blocked_llm_run_matches_its_pin",
        case("llm_kv_blocked/eager", TRACED, kv_blocked),
    ));
    for platform in ["openfaas", "batch"] {
        let scenario = llm_mix(6.0, "continuous", platform);
        let name = format!("llm_{platform}/eager");
        cases.push((
            "baseline_llm_loops_match_their_pin",
            scenario_case(name, TRACED, scenario, None),
        ));
    }

    // The reactive baselines' two launch paths: OpenFaaS+ boots every
    // launch, Torpor swaps every launch in from host RAM.
    for (test, label, system) in [
        ("openfaas_matches_its_pin", "openfaas", System::OpenFaasPlus),
        ("torpor_matches_its_pin", "torpor", System::Torpor),
    ] {
        let faulted = case(format!("{label}_faulted/eager"), CANONICAL, move |c| {
            faulted_bursty(system, c)
        });
        cases.push((test, faulted));
        let chat = case(format!("{label}_llm_chat/eager"), CANONICAL, move |c| {
            llm_chat(system, c)
        });
        cases.push((test, chat));
    }
    let pre_llm = Scenario::from_json(PRE_LLM).expect("valid scenario");
    cases.push((
        "golden",
        scenario_case("pre_llm/eager", CANONICAL, pre_llm, None),
    ));

    // Shipped INFless scenarios rewritten onto OpenFaaS+ and BATCH.
    // `vehicle_pipeline` is left out: baselines reject its chains.
    for stem in ["resize_ramp", "osvt", "swap_sweep", "llm_chat_mix"] {
        for platform in ["openfaas", "batch"] {
            let name = format!("{stem}_{platform}/eager");
            let scenario = rewritten(stem, platform);
            cases.push((
                "golden_extended",
                scenario_case(name, DECISIONS, scenario, None),
            ));
        }
    }
    cases
}
