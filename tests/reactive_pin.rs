//! Byte identity of the two reactive baselines, OpenFaaS+ (every launch
//! boots) and Torpor (every launch swaps in from host RAM), checked
//! against the golden manifest (`tests/manifest/`). Each runs a faulted
//! bursty load, where recovery launches replacement pods, and a
//! continuous-batching LLM run on a chat function.

mod manifest;

#[test]
fn openfaas_matches_its_pin() {
    manifest::check("openfaas_matches_its_pin");
}

#[test]
fn torpor_matches_its_pin() {
    manifest::check("torpor_matches_its_pin");
}
