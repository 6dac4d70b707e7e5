//! Inference function chains — the extension the paper names as future
//! work (§7: "we would like to further study and optimize the
//! performance of inference function chains in the serverless
//! platform").
//!
//! A chain is a sequential pipeline of deployed functions (e.g.
//! object detection → crop classification) with an *end-to-end* latency
//! SLO. The platform:
//!
//! 1. **splits** the end-to-end SLO into per-stage SLOs proportional to
//!    each stage's minimum achievable latency (its fastest profiled
//!    single-sample configuration), so every stage receives slack in
//!    proportion to its weight;
//! 2. serves each stage like any other function (batching, Algorithm 1
//!    scaling, LSTH) under its per-stage SLO;
//! 3. **relays** every completed stage request to the next stage as a
//!    fresh arrival, threading the original chain-entry timestamp so
//!    the end-to-end latency of the final stage is measured exactly.

use infless_models::ModelSpec;
use infless_sim::SimDuration;
use infless_telemetry::Log2Histogram;

use crate::predictor::CopPredictor;

/// A declared function chain.
///
/// # Example
///
/// ```
/// use infless_core::chains::ChainSpec;
/// use infless_sim::SimDuration;
///
/// // Stage 0 feeds stage 2 within 300 ms end-to-end.
/// let chain = ChainSpec::new("detect-then-classify", vec![0, 2], SimDuration::from_millis(300));
/// assert_eq!(chain.stages(), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    name: String,
    stages: Vec<usize>,
    e2e_slo: SimDuration,
}

impl ChainSpec {
    /// Declares a chain over function indices `stages` (executed in
    /// order) with an end-to-end SLO.
    ///
    /// # Panics
    ///
    /// Panics if the chain has fewer than two stages, repeats a stage,
    /// or the SLO is zero.
    pub fn new(name: impl Into<String>, stages: Vec<usize>, e2e_slo: SimDuration) -> Self {
        assert!(stages.len() >= 2, "a chain needs at least two stages");
        let mut dedup = stages.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), stages.len(), "chain stages must be distinct");
        assert!(!e2e_slo.is_zero(), "the end-to-end SLO must be positive");
        ChainSpec {
            name: name.into(),
            stages,
            e2e_slo,
        }
    }

    /// The chain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function indices, in execution order.
    pub fn stages(&self) -> &[usize] {
        &self.stages
    }

    /// The end-to-end latency SLO.
    pub fn e2e_slo(&self) -> SimDuration {
        self.e2e_slo
    }
}

/// How a chain's end-to-end SLO is divided across its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainSplit {
    /// Proportional to each stage's minimum achievable latency (the
    /// default; heavy stages get more budget).
    #[default]
    Proportional,
    /// Equal share per stage — the naive baseline the ext_chains
    /// ablation compares against.
    Equal,
}

/// Splits a chain's end-to-end SLO equally across its stages.
pub fn split_slo_equal(chain: &ChainSpec) -> Vec<SimDuration> {
    let n = chain.stages().len() as u64;
    vec![chain.e2e_slo() / n; chain.stages().len()]
}

/// Splits a chain's end-to-end SLO across its stages proportionally to
/// each stage's minimum achievable single-sample latency over the
/// profiled grid.
///
/// Returns one SLO per stage (same order as [`ChainSpec::stages`]), or
/// `None` when some stage's model has no profiled configuration at all.
///
/// # Example
///
/// ```
/// use infless_core::chains::{split_slo, ChainSpec};
/// use infless_core::CopPredictor;
/// use infless_models::{profile::ConfigGrid, HardwareModel, ModelId, ProfileDatabase};
/// use infless_sim::SimDuration;
///
/// let hw = HardwareModel::default();
/// let specs = vec![ModelId::Ssd.spec(), ModelId::ResNet50.spec()];
/// let db = ProfileDatabase::profile(&hw, &specs, &ConfigGrid::standard(), 1);
/// let predictor = CopPredictor::new(db, hw);
///
/// let chain = ChainSpec::new("c", vec![0, 1], SimDuration::from_millis(300));
/// let slos = split_slo(&predictor, &specs, &chain).expect("profiled");
/// assert_eq!(slos.len(), 2);
/// let total: f64 = slos.iter().map(|s| s.as_secs_f64()).sum();
/// assert!((total - 0.3).abs() < 1e-6);
/// ```
pub fn split_slo(
    predictor: &CopPredictor,
    specs: &[ModelSpec],
    chain: &ChainSpec,
) -> Option<Vec<SimDuration>> {
    let mut mins = Vec::with_capacity(chain.stages.len());
    for &stage in &chain.stages {
        let spec = specs.get(stage)?;
        let best = predictor
            .grid()
            .configs()
            .iter()
            .filter_map(|&cfg| predictor.predict(spec, 1, cfg))
            .map(|d| d.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return None;
        }
        mins.push(best);
    }
    let total: f64 = mins.iter().sum();
    if total <= 0.0 {
        return None;
    }
    Some(
        mins.iter()
            .map(|m| chain.e2e_slo.mul_f64(m / total))
            .collect(),
    )
}

/// End-to-end results for one chain.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The chain's name.
    pub name: String,
    /// The end-to-end SLO.
    pub e2e_slo: SimDuration,
    /// Requests that traversed the whole chain.
    pub completed: u64,
    /// Completions whose end-to-end latency exceeded the SLO.
    pub violations: u64,
    /// Requests lost mid-chain (a stage dropped the relayed request).
    pub lost: u64,
    /// End-to-end latency of completed traversals, milliseconds, in ns
    /// ticks (quantile error ≤ 2⁻⁸ relative).
    pub e2e_ms: Log2Histogram,
}

impl ChainReport {
    pub(crate) fn new(spec: &ChainSpec) -> Self {
        ChainReport {
            name: spec.name.clone(),
            e2e_slo: spec.e2e_slo,
            completed: 0,
            violations: 0,
            lost: 0,
            e2e_ms: Log2Histogram::new(),
        }
    }

    /// End-to-end violation rate (losses count as violations).
    pub fn violation_rate(&self) -> f64 {
        let total = self.completed + self.lost;
        if total == 0 {
            0.0
        } else {
            (self.violations + self.lost) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_models::{profile::ConfigGrid, HardwareModel, ModelId, ProfileDatabase};

    fn predictor(specs: &[ModelSpec]) -> CopPredictor {
        let hw = HardwareModel::default();
        let db = ProfileDatabase::cached(&hw, specs, &ConfigGrid::standard(), 4);
        CopPredictor::new(db, hw)
    }

    #[test]
    fn slo_split_is_proportional_and_exhaustive() {
        let specs = vec![
            ModelId::Ssd.spec(),       // heavy
            ModelId::MobileNet.spec(), // light
        ];
        let p = predictor(&specs);
        let chain = ChainSpec::new("c", vec![0, 1], SimDuration::from_millis(400));
        let slos = split_slo(&p, &specs, &chain).unwrap();
        let total: f64 = slos.iter().map(|s| s.as_secs_f64()).sum();
        assert!((total - 0.4).abs() < 1e-6, "split must cover the budget");
        assert!(
            slos[0] > slos[1],
            "the heavier stage receives the larger share: {slos:?}"
        );
    }

    #[test]
    fn slo_split_handles_unknown_stage() {
        let specs = vec![ModelId::Mnist.spec()];
        let p = predictor(&specs);
        let chain = ChainSpec::new("c", vec![0, 7], SimDuration::from_millis(100));
        assert!(split_slo(&p, &specs, &chain).is_none());
    }

    #[test]
    #[should_panic(expected = "two stages")]
    fn single_stage_chain_rejected() {
        ChainSpec::new("c", vec![0], SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_stage_rejected() {
        ChainSpec::new("c", vec![0, 0], SimDuration::from_millis(100));
    }

    #[test]
    fn report_rates() {
        let chain = ChainSpec::new("c", vec![0, 1], SimDuration::from_millis(100));
        let mut r = ChainReport::new(&chain);
        assert_eq!(r.violation_rate(), 0.0);
        r.completed = 8;
        r.violations = 1;
        r.lost = 2;
        assert!((r.violation_rate() - 0.3).abs() < 1e-12);
    }
}
