//! Combined Operator Profiling (COP, §3.3).
//!
//! Offline-profiling every model across every `⟨b, c, g⟩` configuration
//! would be prohibitively expensive when hundreds of models are deployed
//! or updated daily. COP instead profiles *operators* once (the
//! [`ProfileDatabase`]) and predicts a model's batch execution time by
//! combining the profiled operator times along the model's DAG:
//! sequence chains sum, parallel branches take the max — equivalently,
//! the weighted critical path. Known platform constants (framework
//! overhead, PCIe transfer, preprocessing) are added, and the result is
//! inflated by a safety offset (10 % by default, §3.3) to absorb what
//! per-operator profiles cannot see: imperfect branch overlap and
//! profiling noise.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use infless_models::{
    profile::ConfigGrid, HardwareModel, ModelId, ModelSpec, OpSignature, ProfileDatabase,
    ResourceConfig,
};
use infless_sim::{FxHashMap, SimDuration};

/// The default prediction inflation (§3.3: "we choose to increase the
/// prediction offset by 10% to reduce the risk of SLO violations").
pub const DEFAULT_OFFSET: f64 = 1.10;

/// The COP latency predictor.
///
/// # Example
///
/// ```
/// use infless_core::CopPredictor;
/// use infless_models::{profile::ConfigGrid, HardwareModel, ModelId, ProfileDatabase, ResourceConfig};
///
/// let hw = HardwareModel::default();
/// let specs = vec![ModelId::MobileNet.spec()];
/// // `cached` shares one database across every platform built with the
/// // same ⟨calibration, model set, grid, seed⟩; `profile` also works.
/// let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 1);
/// let predictor = CopPredictor::new(db, hw.clone());
///
/// let spec = ModelId::MobileNet.spec();
/// let cfg = ResourceConfig::new(1, 10);
/// let predicted = predictor.predict(&spec, 8, cfg).expect("profiled");
/// let actual = hw.model_latency(&spec, 8, cfg);
/// // Within the paper's error band (and biased safe by the offset).
/// let rel = (predicted.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64();
/// assert!(rel < 0.25);
/// ```
#[derive(Debug)]
pub struct CopPredictor {
    /// Shared with the registry of [`ProfileDatabase::cached`] — many
    /// predictors (one per platform in a parallel sweep) read the same
    /// profiled grid without re-profiling or copying it.
    db: Arc<ProfileDatabase>,
    hardware: HardwareModel,
    offset: f64,
    /// This run's predictions, per `(model, b, config)`: a model's whole
    /// grid is filled in one DAG walk at its first prediction.
    cache: RefCell<FxHashMap<(ModelId, u32, ResourceConfig), Option<SimDuration>>>,
}

impl CopPredictor {
    /// Creates a predictor with the default 10 % safety offset. Accepts
    /// an owned database or an `Arc` from [`ProfileDatabase::cached`].
    pub fn new(db: impl Into<Arc<ProfileDatabase>>, hardware: HardwareModel) -> Self {
        Self::with_offset(db, hardware, DEFAULT_OFFSET)
    }

    /// Creates a predictor with a custom offset multiplier. The
    /// component-ablation experiment (Fig. 11, "OP1.5" / "OP2") passes
    /// 1.5 and 2.0 here.
    ///
    /// # Panics
    ///
    /// Panics if `offset < 1.0` — deflating predictions would defeat
    /// the SLO guarantee.
    pub fn with_offset(
        db: impl Into<Arc<ProfileDatabase>>,
        hardware: HardwareModel,
        offset: f64,
    ) -> Self {
        assert!(offset >= 1.0, "prediction offset must not deflate");
        CopPredictor {
            db: db.into(),
            hardware,
            offset,
            cache: RefCell::new(FxHashMap::default()),
        }
    }

    /// The offset multiplier in use.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The profiled configuration grid.
    pub fn grid(&self) -> &ConfigGrid {
        self.db.grid()
    }

    /// The β CPU↔GPU conversion factor of the underlying hardware.
    pub fn beta(&self) -> f64 {
        self.hardware.beta()
    }

    /// Steady-state memory footprint (MB) of one instance of `spec` —
    /// the third resource dimension the scheduler's fit checks cover.
    pub fn instance_memory_mb(&self, spec: &ModelSpec) -> f64 {
        self.hardware.instance_memory_mb(spec)
    }

    /// Predicts the batch execution time `f(b, c, g)` of `spec`, or
    /// `None` if some operator or the configuration was never profiled.
    ///
    /// Predictions are memoized per `(model, b, config)`. A model's
    /// first prediction predicts its whole grid in one DAG walk (see
    /// [`Self::combine_raw`]), so every later one is a lookup.
    pub fn predict(
        &self,
        spec: &ModelSpec,
        batch: u32,
        cfg: ResourceConfig,
    ) -> Option<SimDuration> {
        let key = (spec.id(), batch, cfg);
        if let Some(hit) = self.cache.borrow().get(&key) {
            return *hit;
        }
        let (b0, cfg0) = self.db.grid().points().next().expect("grids are non-empty");
        if !self.cache.borrow().contains_key(&(spec.id(), b0, cfg0)) {
            self.tabulate(spec);
        }
        // Off the grid: remembered as unpredictable.
        *self.cache.borrow_mut().entry(key).or_insert(None)
    }

    /// Fills the memo with `spec`'s prediction at every grid point.
    fn tabulate(&self, spec: &ModelSpec) {
        let grid = self.db.grid();
        let raw = self.combine_columns(spec, 0..grid.points().count());
        let mut cache = self.cache.borrow_mut();
        for (j, (batch, cfg)) in grid.points().enumerate() {
            let predicted = raw
                .as_ref()
                .map(|raw| SimDuration::from_secs_f64(raw[j] * self.offset));
            cache.insert((spec.id(), batch, cfg), predicted);
        }
    }

    /// Predicted prefill latency of `prompt_tokens` total tokens under
    /// `cfg`, inflated by the safety offset — the TTFT side of the
    /// two-phase cost model.
    pub fn prefill_latency(
        &self,
        spec: &ModelSpec,
        prompt_tokens: u64,
        cfg: ResourceConfig,
    ) -> SimDuration {
        SimDuration::from_secs_f64(
            self.hardware
                .prefill_latency(spec, prompt_tokens, cfg)
                .as_secs_f64()
                * self.offset,
        )
    }

    /// Predicted single-decode-step latency with `seqs` active
    /// sequences and `kv_mb` resident KV-cache, inflated by the safety
    /// offset — the TPOT side of the two-phase cost model.
    pub fn decode_step_latency(
        &self,
        spec: &ModelSpec,
        seqs: u32,
        kv_mb: f64,
        cfg: ResourceConfig,
    ) -> SimDuration {
        SimDuration::from_secs_f64(
            self.hardware
                .decode_step_latency(spec, seqs, kv_mb, cfg)
                .as_secs_f64()
                * self.offset,
        )
    }

    /// The raw (un-inflated) combination of operator profiles, exposed
    /// for the Fig. 8 prediction-error experiment; `None` off the grid
    /// or when some operator was never profiled.
    pub fn combine_raw(&self, spec: &ModelSpec, batch: u32, cfg: ResourceConfig) -> Option<f64> {
        let point = self.db.grid().point_index(batch, cfg)?;
        Some(self.combine_columns(spec, point..point + 1)?[0])
    }

    /// The raw combination at the grid points `columns` (positions in
    /// [`ConfigGrid::points`]), in one walk of `spec`'s DAG over the
    /// operators' dense profile rows; `None` when some operator was
    /// never profiled.
    fn combine_columns(&self, spec: &ModelSpec, columns: Range<usize>) -> Option<Vec<f64>> {
        // Critical path over the profiled per-operator times: a node
        // finishes its own time after the last of its predecessors,
        // folded with `f64::max` from the 0.0 each row starts at.
        let dag = spec.dag();
        let width = columns.len();
        let mut finish = vec![0.0f64; dag.len() * width];
        let mut best = vec![0.0f64; width];
        for (id, op) in dag.iter() {
            let times = &self.db.row(OpSignature::of(op))?[columns.clone()];
            let (done, rest) = finish.split_at_mut(id.index() * width);
            let node = &mut rest[..width];
            for p in dag.predecessors(id) {
                let pred = &done[p.index() * width..][..width];
                for (start, &f) in node.iter_mut().zip(pred) {
                    *start = start.max(f);
                }
            }
            for ((f, &t), best) in node.iter_mut().zip(times).zip(&mut best) {
                *f += t;
                *best = best.max(*f);
            }
        }
        // Known platform constants: framework overhead, transfer,
        // preprocessing (the template instruments these, so the
        // predictor may use them directly).
        let cal = self.hardware.calibration();
        let points = self.db.grid().points().skip(columns.start);
        let totals = best.iter().zip(points).map(|(&best, (batch, cfg))| {
            let mut total =
                best + cal.framework_base_s + cal.framework_per_sample_s * f64::from(batch);
            if !cfg.is_cpu_only() {
                total += f64::from(batch) * spec.input_kb() / cal.pcie_kb_per_s;
                total += f64::from(batch) * cal.preproc_per_sample_s / f64::from(cfg.cpu_cores());
            }
            total
        });
        Some(totals.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_models::profile::ConfigGrid;

    fn predictor() -> (CopPredictor, HardwareModel) {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
        let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 11);
        (CopPredictor::new(db, hw.clone()), hw)
    }

    #[test]
    fn prediction_error_is_within_paper_band() {
        // Fig. 8: COP achieves < 10% average prediction error. Check the
        // same three models the paper plots, over the whole grid.
        let (p, hw) = predictor();
        for id in [ModelId::ResNet50, ModelId::MobileNet, ModelId::Lstm2365] {
            let spec = id.spec();
            let mut total_err = 0.0;
            let mut n = 0;
            for (b, cfg) in ConfigGrid::standard().points() {
                let raw = p.combine_raw(&spec, b, cfg).expect("profiled");
                let actual = hw.model_latency_s(&spec, b, cfg);
                total_err += (raw - actual).abs() / actual;
                n += 1;
            }
            let avg = total_err / f64::from(n);
            assert!(
                avg < 0.15,
                "{id}: average raw prediction error {:.1}% too high",
                avg * 100.0
            );
        }
    }

    #[test]
    fn lstm_error_exceeds_resnet_error() {
        // The paper attributes LSTM-2365's highest error to its
        // overlapping execution paths; our contention model reproduces
        // the ordering.
        let (p, hw) = predictor();
        let avg_err = |id: ModelId| {
            let spec = id.spec();
            let mut total = 0.0;
            let mut n = 0;
            for (b, cfg) in ConfigGrid::standard().points() {
                let raw = p.combine_raw(&spec, b, cfg).unwrap();
                let actual = hw.model_latency_s(&spec, b, cfg);
                total += (raw - actual).abs() / actual;
                n += 1;
            }
            total / f64::from(n)
        };
        assert!(avg_err(ModelId::Lstm2365) > avg_err(ModelId::VggNet));
    }

    #[test]
    fn offset_inflates_predictions() {
        let (p, _) = predictor();
        let spec = ModelId::ResNet50.spec();
        let cfg = ResourceConfig::new(2, 20);
        let raw = p.combine_raw(&spec, 8, cfg).unwrap();
        let inflated = p.predict(&spec, 8, cfg).unwrap().as_secs_f64();
        // SimDuration rounds to whole microseconds, so allow that slack.
        assert!((inflated / raw - DEFAULT_OFFSET).abs() < 1e-3);
    }

    #[test]
    fn predictions_are_safe_upper_bounds_mostly() {
        // With the 10% offset, predictions should rarely underestimate.
        let (p, hw) = predictor();
        let mut under = 0;
        let mut total = 0;
        for id in ModelId::all() {
            let spec = id.spec();
            for (b, cfg) in ConfigGrid::standard().points() {
                let pred = p.predict(&spec, b, cfg).unwrap().as_secs_f64();
                let actual = hw.model_latency_s(&spec, b, cfg);
                if pred < actual {
                    under += 1;
                }
                total += 1;
            }
        }
        let frac = f64::from(under) / f64::from(total);
        assert!(
            frac < 0.20,
            "{:.1}% of predictions underestimate",
            frac * 100.0
        );
    }

    #[test]
    fn unprofiled_config_returns_none() {
        let (p, _) = predictor();
        let spec = ModelId::Mnist.spec();
        assert!(p.predict(&spec, 8, ResourceConfig::cpu(7)).is_none());
        assert!(p.predict(&spec, 3, ResourceConfig::cpu(1)).is_none());
    }

    #[test]
    fn cache_returns_identical_results() {
        let (p, _) = predictor();
        let spec = ModelId::Ssd.spec();
        let cfg = ResourceConfig::new(2, 10);
        let a = p.predict(&spec, 4, cfg);
        let b = p.predict(&spec, 4, cfg);
        assert_eq!(a, b);
    }

    /// The per-point walk `combine_raw` ran before whole-grid
    /// prediction, kept verbatim as the oracle both paths must match.
    fn per_point_oracle(
        db: &ProfileDatabase,
        hw: &HardwareModel,
        spec: &ModelSpec,
        batch: u32,
        cfg: ResourceConfig,
    ) -> Option<f64> {
        let dag = spec.dag();
        let mut finish = vec![0.0f64; dag.len()];
        let mut best = 0.0f64;
        for (id, op) in dag.iter() {
            let t = db.op_time_s(op, batch, cfg)?;
            let start = dag
                .predecessors(id)
                .map(|p| finish[p.index()])
                .fold(0.0f64, f64::max);
            finish[id.index()] = start + t;
            best = best.max(finish[id.index()]);
        }
        let cal = hw.calibration();
        let mut total = best + cal.framework_base_s + cal.framework_per_sample_s * f64::from(batch);
        if !cfg.is_cpu_only() {
            total += f64::from(batch) * spec.input_kb() / cal.pcie_kb_per_s;
            total += f64::from(batch) * cal.preproc_per_sample_s / f64::from(cfg.cpu_cores());
        }
        Some(total)
    }

    /// Whole-grid prediction is bit-identical to the per-point walk:
    /// every zoo model, every standard grid point, three offsets, with
    /// `combine_raw` and `predict` each asked first on fresh predictors.
    #[test]
    fn grid_walk_matches_the_per_point_oracle_bit_for_bit() {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
        let grid = ConfigGrid::standard();
        let db = ProfileDatabase::cached(&hw, &specs, &grid, 11);
        for offset in [DEFAULT_OFFSET, 1.5, 2.0] {
            let raw_first = CopPredictor::with_offset(Arc::clone(&db), hw.clone(), offset);
            let predict_first = CopPredictor::with_offset(Arc::clone(&db), hw.clone(), offset);
            for spec in &specs {
                for (b, cfg) in grid.points() {
                    let oracle = per_point_oracle(&db, &hw, spec, b, cfg).expect("profiled");
                    let expected = SimDuration::from_secs_f64(oracle * offset);
                    let raw = raw_first.combine_raw(spec, b, cfg).expect("profiled");
                    assert_eq!(raw.to_bits(), oracle.to_bits(), "{} b={b} {cfg}", spec.id());
                    assert_eq!(predict_first.predict(spec, b, cfg), Some(expected));
                    assert_eq!(raw_first.predict(spec, b, cfg), Some(expected));
                }
            }
        }
        // A model whose operators were never profiled predicts nothing
        // anywhere, on either path.
        let mnist_only = ProfileDatabase::cached(&hw, &[ModelId::Mnist.spec()], &grid, 11);
        let p = CopPredictor::new(mnist_only, hw.clone());
        let spec = ModelId::ResNet50.spec();
        let cfg = ResourceConfig::new(1, 10);
        assert!(p.combine_raw(&spec, 8, cfg).is_none());
        assert!(p.predict(&spec, 8, cfg).is_none());
    }

    #[test]
    #[should_panic(expected = "deflate")]
    fn deflating_offset_rejected() {
        let hw = HardwareModel::default();
        let db = ProfileDatabase::cached(&hw, &[ModelId::Mnist.spec()], &ConfigGrid::standard(), 0);
        CopPredictor::with_offset(db, hw, 0.9);
    }
}
