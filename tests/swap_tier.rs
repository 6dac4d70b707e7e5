//! The GPU memory tier's load-bearing invariant, end to end: a disabled
//! tier changes nothing (bit for bit). That an enabled tier survives
//! sharded execution byte-identically at every shard count, swaps and
//! crashes included, is pinned by the golden manifest's
//! `swap_sweep/s1` and `swap_sweep/s4` cases.

use infless::descriptor::Scenario;
use infless::{ResidencyConfig, RunConfig};

fn swap_sweep_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("swap_sweep.json");
    std::fs::read_to_string(path).expect("shipped swap scenario")
}

/// With the tier disabled, the engine must be the pre-tier engine:
/// omitting the residency block, writing it disabled, and forcing it
/// off through the run config all produce one byte-identical report
/// with zero swap launches. (The same scenario was byte-diffed against
/// the pre-tier seed binary when the tier landed; this pins the
/// equivalence the repo can check by itself.)
#[test]
fn disabled_residency_is_bit_identical_to_no_residency() {
    let json = swap_sweep_json();
    let enabled_block = r#""residency": { "enabled": true },"#;
    assert!(json.contains(enabled_block), "scenario shape changed");

    let absent = Scenario::from_json(&json.replace(enabled_block, ""))
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    let disabled =
        Scenario::from_json(&json.replace(enabled_block, r#""residency": { "enabled": false },"#))
            .unwrap()
            .execute(RunConfig::new())
            .unwrap();
    let overridden = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new().residency(ResidencyConfig::default()))
        .unwrap();

    assert_eq!(absent.swap_launches, 0, "no tier, no swaps");
    assert_eq!(absent.canonical_json(), disabled.canonical_json());
    assert_eq!(absent.canonical_json(), overridden.canonical_json());

    // And the tier, when it is on, is not a no-op on this workload.
    let enabled = Scenario::from_json(&json)
        .unwrap()
        .execute(RunConfig::new())
        .unwrap();
    assert!(
        enabled.swap_launches > 0,
        "swap scenario exercised no swaps"
    );
    assert_ne!(absent.canonical_json(), enabled.canonical_json());
}
