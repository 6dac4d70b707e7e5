//! Byte-identity pins for the two reactive baselines, OpenFaaS+ (every
//! launch boots) and Torpor (every launch swaps in from host RAM).
//!
//! Each fixture under `tests/fixtures/` holds the canonical JSON of two
//! runs per launch path: a faulted bursty run, where recovery launches
//! replacement pods, and a continuous-batching LLM run on a chat
//! function. Any change to the reactive platform that moves a single
//! reported number fails here.

use infless::cluster::ClusterSpec;
use infless::core::apps::Application;
use infless::core::engine::FunctionInfo;
use infless::models::ModelId;
use infless::sim::SimDuration;
use infless::workload::{FunctionLoad, TracePattern, Workload};
use infless::RunConfig;
use infless_bench::System;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};

/// qa_robot under bursty load with the intensity-4 fault sweep.
fn faulted_bursty(system: System) -> String {
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
    system
        .execute(
            cluster,
            app.functions(),
            &w,
            5,
            RunConfig::new().fault_schedule(faults),
        )
        .canonical_json()
}

/// A chat LLM function under continuous decode batching.
fn llm_chat(system: System) -> String {
    let functions = vec![
        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4))
            .with_llm(LlmClass::chat()),
    ];
    let dur = SimDuration::from_secs(20);
    let w = Workload::build(&[FunctionLoad::constant(8.0, dur)], 7);
    system
        .execute(
            ClusterSpec::testbed(),
            &functions,
            &w,
            7,
            RunConfig::new().llm(LlmConfig::continuous()),
        )
        .canonical_json()
}

fn pinned(system: System) -> String {
    let pinned = format!("[\n{},\n{}\n]", faulted_bursty(system), llm_chat(system));
    assert_eq!(
        infless::core::engine::live_timer_drops(),
        0,
        "a batch timer that could still start a batch was never pushed"
    );
    pinned
}

#[test]
fn openfaas_matches_its_pin() {
    assert_eq!(
        pinned(System::OpenFaasPlus),
        include_str!("fixtures/openfaas_pin.canonical.json").trim_end_matches('\n'),
        "an OpenFaaS+ run no longer matches its pinned report byte for byte"
    );
}

#[test]
fn torpor_matches_its_pin() {
    assert_eq!(
        pinned(System::Torpor),
        include_str!("fixtures/torpor_pin.canonical.json").trim_end_matches('\n'),
        "a Torpor run no longer matches its pinned report byte for byte"
    );
}
