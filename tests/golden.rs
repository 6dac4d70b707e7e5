//! The golden manifest's own tests. The checker and every case live in
//! `tests/manifest/`; `tests/llm_pin.rs` and `tests/reactive_pin.rs`
//! hold the decode-path, shipped-scenario and reactive-baseline cases.

mod manifest;

/// The pre-LLM engine's report, and no pinned row that no test checks.
#[test]
fn golden() {
    manifest::check("golden");
    let unclaimed = manifest::unclaimed_rows();
    assert!(
        unclaimed.is_empty(),
        "pinned rows that no golden case produces:\n{}",
        unclaimed.join("\n")
    );
}

/// Shipped INFless scenarios rewritten onto OpenFaaS+ and BATCH, and
/// the large ones at one and four shards with every output on.
#[test]
fn golden_extended() {
    manifest::check("golden_extended");
}
