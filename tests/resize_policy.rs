//! The vertical-first scaling policy is not a no-op on the shipped
//! resize scenario. That the scenario replays byte-identically at every
//! shard count (resize transactions replay through the journal) is
//! pinned by the golden manifest's `resize_ramp/s1` and `resize_ramp/s4`
//! cases.

use infless::core::platform::ScalePolicy;
use infless::descriptor::Scenario;
use infless::RunConfig;

fn resize_ramp_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("resize_ramp.json");
    std::fs::read_to_string(path).expect("shipped resize scenario")
}

/// The scenario actually exercises the vertical path: forcing the
/// policy back to launch-only through the run config must change the
/// report, and the declared descriptor policy must match the
/// vertical-first run (the `"policy"` block is honored, not ignored).
#[test]
fn resize_scenario_exercises_the_vertical_path() {
    let json = resize_ramp_json();
    assert!(
        json.contains(r#""policy": "vertical-first""#),
        "scenario shape changed"
    );
    let declared = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    let forced_vertical = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().scale_policy(ScalePolicy::VerticalFirst))
        .unwrap();
    let launch_only = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().scale_policy(ScalePolicy::Horizontal))
        .unwrap();
    assert_eq!(declared.canonical_json(), forced_vertical.canonical_json());
    assert_ne!(
        declared.canonical_json(),
        launch_only.canonical_json(),
        "vertical-first was a no-op on the shipped resize scenario"
    );
}
