//! The operator profile database (❸ in the paper's Fig. 4).
//!
//! INFless profiles *operators*, not whole models: since inference
//! functions share a small operator vocabulary, profiling the ~71
//! distinct operators once is far cheaper than profiling hundreds of
//! models offline (§3.3). A profile entry is the paper's 5-tuple
//! `⟨p, b, c, g, t⟩`; here the input-size `p` dependence is folded into
//! the operator signature (our zoo fixes each model's input shape).
//!
//! Distinct operators are identified by an [`OpSignature`]: the operator
//! kind plus a logarithmically-quantized work bucket. Quantization is
//! deliberate — it is what makes the database *shared* across models
//! (two MatMuls of nearly equal size hit the same entry) and it
//! introduces the small, realistic profiling error that the Combined
//! Operator Profiling evaluation (Fig. 8) measures.
//!
//! Profiling is cheap (the whole zoo's grid takes about 1.5 ms), but
//! every platform construction asks for a database, so it is shared:
//! [`ProfileDatabase::cached`] keys the result by a stable hash of
//! ⟨hardware calibration, config grid, distinct operator set, seed⟩ and
//! profiles each key at most once per process behind a `OnceLock`
//! registry. Nothing is written to disk; a new process re-profiles,
//! which costs less than reading a snapshot back would.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::hardware::{HardwareModel, ResourceConfig, BATCH_SIZES};
use crate::operator::{OpKind, Operator};
use crate::zoo::ModelSpec;

/// Work-bucket resolution: buckets per doubling of GFLOPs. Eight buckets
/// per octave bounds the quantization error at ±4.4 %.
const BUCKETS_PER_OCTAVE: f64 = 8.0;

/// Identity of a distinct operator in the profile database.
///
/// # Example
///
/// ```
/// use infless_models::{OpKind, Operator, OpSignature};
///
/// let a = OpSignature::of(&Operator::new(OpKind::MatMul, 0.100));
/// let b = OpSignature::of(&Operator::new(OpKind::MatMul, 0.0995));
/// let c = OpSignature::of(&Operator::new(OpKind::MatMul, 0.200));
/// assert_eq!(a, b); // near-equal work shares a bucket
/// assert_ne!(a, c); // doubling the work does not
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpSignature {
    kind: OpKind,
    bucket: i32,
}

impl OpSignature {
    /// The signature of an operator call site.
    pub fn of(op: &Operator) -> Self {
        let gf = op.gflops().max(1e-9);
        OpSignature {
            kind: op.kind(),
            bucket: (gf.log2() * BUCKETS_PER_OCTAVE).round() as i32,
        }
    }

    /// The operator kind.
    pub fn kind(self) -> OpKind {
        self.kind
    }

    /// The bucket's representative operator: same kind, work equal to
    /// the bucket's center. Profile measurements run this representative.
    pub fn representative(self) -> Operator {
        Operator::new(self.kind, self.representative_gflops())
    }

    /// The bucket-center work in GFLOPs.
    pub fn representative_gflops(self) -> f64 {
        (f64::from(self.bucket) / BUCKETS_PER_OCTAVE).exp2()
    }
}

/// The discrete configuration grid profiled offline and searched by the
/// scheduler (`AvailableConfig` in Algorithm 1 iterates it).
///
/// # Example
///
/// ```
/// use infless_models::profile::ConfigGrid;
///
/// let grid = ConfigGrid::standard();
/// assert!(grid.configs().len() > 10);
/// assert!(grid.batches().contains(&32));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigGrid {
    configs: Vec<ResourceConfig>,
    batches: Vec<u32>,
}

impl ConfigGrid {
    /// The grid used throughout the evaluation: 1–4 CPU cores crossed
    /// with GPU shares from none to half a device, and power-of-two
    /// batchsizes up to 32.
    pub fn standard() -> Self {
        let mut configs = Vec::new();
        for &cpu in &[1u32, 2, 4] {
            configs.push(ResourceConfig::cpu(cpu));
            for &gpu in &[5u32, 10, 15, 20, 25, 30, 40, 50] {
                configs.push(ResourceConfig::new(cpu, gpu));
            }
        }
        ConfigGrid {
            configs,
            batches: BATCH_SIZES.to_vec(),
        }
    }

    /// A custom grid.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty.
    pub fn new(configs: Vec<ResourceConfig>, batches: Vec<u32>) -> Self {
        assert!(!configs.is_empty(), "grid needs at least one config");
        assert!(!batches.is_empty(), "grid needs at least one batchsize");
        ConfigGrid { configs, batches }
    }

    /// The resource configurations in the grid.
    pub fn configs(&self) -> &[ResourceConfig] {
        &self.configs
    }

    /// The batchsizes in the grid.
    pub fn batches(&self) -> &[u32] {
        &self.batches
    }

    /// Iterates all `(batch, config)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (u32, ResourceConfig)> + '_ {
        self.batches
            .iter()
            .flat_map(move |&b| self.configs.iter().map(move |&c| (b, c)))
    }

    /// The position of `(batch, config)` in [`Self::points`], or `None`
    /// off the grid. A point listed twice answers its last position.
    pub fn point_index(&self, batch: u32, config: ResourceConfig) -> Option<usize> {
        let b = self.batches.iter().rposition(|&x| x == batch)?;
        let c = self.configs.iter().rposition(|&x| x == config)?;
        Some(b * self.configs.len() + c)
    }
}

/// The operator profile database: offline "measurements" of every
/// distinct operator across the configuration grid.
///
/// Measurements are taken by running the bucket representative on the
/// [`HardwareModel`] and perturbing the result with a small profiling
/// noise — the same imperfection a real profiler exhibits run-to-run.
///
/// # Example
///
/// ```
/// use infless_models::{HardwareModel, ModelId, ProfileDatabase};
/// use infless_models::profile::ConfigGrid;
///
/// let hw = HardwareModel::default();
/// let specs = [ModelId::ResNet50.spec()];
/// let db = ProfileDatabase::profile(&hw, &specs, &ConfigGrid::standard(), 42);
/// assert!(db.len() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDatabase {
    /// The profiled operators, sorted.
    signatures: Vec<OpSignature>,
    /// One dense row of measured times (seconds) per signature, in
    /// `signatures` order; a row lists the grid's points in
    /// [`ConfigGrid::points`] order.
    times: Vec<f64>,
    grid: ConfigGrid,
}

impl ProfileDatabase {
    /// Profiling noise sigma (relative): run-to-run variance of offline
    /// operator measurements.
    const PROFILING_NOISE: f64 = 0.02;

    /// Profiles every distinct operator appearing in `specs` across the
    /// whole `grid`. `seed` makes the measurement noise reproducible.
    pub fn profile(
        hardware: &HardwareModel,
        specs: &[ModelSpec],
        grid: &ConfigGrid,
        seed: u64,
    ) -> Self {
        let signatures = Self::distinct_signatures(specs);
        let mut times = Vec::with_capacity(signatures.len() * grid.points().count());
        for &sig in &signatures {
            let rep = sig.representative();
            let mut rng = infless_sim::rng::stream(
                seed,
                &format!("profile/{:?}/{}", sig.kind(), sig.representative_gflops()),
            );
            for (batch, config) in grid.points() {
                let true_t = hardware.op_latency_s(&rep, batch, config);
                let noise = 1.0 + Self::PROFILING_NOISE * gaussian(&mut rng);
                times.push(true_t * noise.max(0.5));
            }
        }
        ProfileDatabase {
            signatures,
            times,
            grid: grid.clone(),
        }
    }

    /// Looks up the measured execution time (seconds) of the operator
    /// `op` at `(batch, config)`, or `None` if the operator or the
    /// configuration was never profiled.
    pub fn op_time_s(&self, op: &Operator, batch: u32, config: ResourceConfig) -> Option<f64> {
        let point = self.grid.point_index(batch, config)?;
        Some(self.row(OpSignature::of(op))?[point])
    }

    /// The measured times (seconds) of operator `signature` at every
    /// grid point, in [`ConfigGrid::points`] order, or `None` if it was
    /// never profiled.
    pub fn row(&self, signature: OpSignature) -> Option<&[f64]> {
        let i = self.signatures.binary_search(&signature).ok()?;
        let width = self.times.len() / self.signatures.len();
        Some(&self.times[i * width..(i + 1) * width])
    }

    /// The configuration grid this database covers.
    pub fn grid(&self) -> &ConfigGrid {
        &self.grid
    }

    /// Number of profile entries: distinct `(operator, batch, config)`
    /// keys.
    pub fn len(&self) -> usize {
        let grid = &self.grid;
        let distinct_points = grid
            .points()
            .enumerate()
            .filter(|&(i, (b, c))| grid.point_index(b, c) == Some(i))
            .count();
        self.signatures.len() * distinct_points
    }

    /// `true` if the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Number of distinct operators profiled.
    pub fn distinct_operators(&self) -> usize {
        self.signatures.len()
    }

    /// The sorted, deduplicated operator signatures of a model set —
    /// exactly what [`ProfileDatabase::profile`] measures, and therefore
    /// exactly what the cache key must cover.
    fn distinct_signatures(specs: &[ModelSpec]) -> Vec<OpSignature> {
        let mut signatures: Vec<OpSignature> = specs
            .iter()
            .flat_map(|s| s.dag().nodes().iter().map(OpSignature::of))
            .collect();
        signatures.sort();
        signatures.dedup();
        signatures
    }

    /// The content hash addressing a profiling run: every input that
    /// [`ProfileDatabase::profile`] reads — the hardware calibration, the
    /// grid, the distinct operator set, and the noise seed — serialized
    /// canonically and FNV-hashed. Two calls agreeing on this key would
    /// profile byte-identical databases.
    pub fn cache_key(
        hardware: &HardwareModel,
        specs: &[ModelSpec],
        grid: &ConfigGrid,
        seed: u64,
    ) -> u64 {
        let doc = serde_json::json!({
            "calibration": hardware.calibration(),
            "grid": grid,
            "signatures": Self::distinct_signatures(specs),
            "seed": seed,
        });
        let text = serde_json::to_string(&doc).expect("cache-key document serializes");
        fnv1a(text.as_bytes())
    }

    /// Content-addressed, process-wide cached profiling.
    ///
    /// Returns the shared database for this ⟨calibration, model set,
    /// grid, seed⟩. Within a process each distinct key is profiled at
    /// most once; concurrent callers of the same key block on the
    /// winner.
    pub fn cached(
        hardware: &HardwareModel,
        specs: &[ModelSpec],
        grid: &ConfigGrid,
        seed: u64,
    ) -> Arc<Self> {
        Self::cached_with_outcome(hardware, specs, grid, seed).0
    }

    /// Like [`ProfileDatabase::cached`], also reporting how the lookup
    /// was satisfied (platforms surface this per run through
    /// `RunReport::profile_cache`).
    pub fn cached_with_outcome(
        hardware: &HardwareModel,
        specs: &[ModelSpec],
        grid: &ConfigGrid,
        seed: u64,
    ) -> (Arc<Self>, CacheOutcome) {
        let key = Self::cache_key(hardware, specs, grid, seed);
        // Per-key slots so concurrent builds of *different* keys proceed
        // in parallel; the global lock is only held to fetch the slot.
        let slot = Arc::clone(lock_registry().slots.entry(key).or_default());
        let mut outcome = CacheOutcome::MemoryHit;
        let db = Arc::clone(slot.get_or_init(|| {
            outcome = CacheOutcome::Built;
            Arc::new(Self::profile(hardware, specs, grid, seed))
        }));
        let mut reg = lock_registry();
        if outcome == CacheOutcome::Built {
            reg.stats.builds += 1;
            *reg.builds_per_key.entry(key).or_insert(0) += 1;
        } else {
            reg.stats.memory_hits += 1;
        }
        (db, outcome)
    }

    /// This process's registry counters.
    pub fn cache_stats() -> CacheStats {
        lock_registry().stats
    }

    /// How many times this process actually profiled (rather than
    /// reused) the database addressed by `key`. The exactly-once
    /// invariant the cache exists for is `builds_for(key) <= 1`.
    pub fn builds_for(key: u64) -> u64 {
        lock_registry()
            .builds_per_key
            .get(&key)
            .copied()
            .unwrap_or(0)
    }
}

/// How a [`ProfileDatabase::cached`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Another lookup in this process already held the database.
    MemoryHit,
    /// Never produced: databases are no longer snapshotted to disk,
    /// since profiling from scratch is faster than reloading. The
    /// variant stays so existing matches on `CacheOutcome` compile.
    DiskHit,
    /// The grid was profiled from scratch.
    Built,
}

/// Counters of the process-wide profile registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-process registry.
    pub memory_hits: u64,
    /// Lookups that profiled from scratch.
    pub builds: u64,
}

impl CacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.memory_hits + self.builds
    }
}

#[derive(Default)]
struct Registry {
    /// One lazily-built slot per cache key. `OnceLock` serializes
    /// same-key builders without holding the registry lock.
    slots: HashMap<u64, Arc<OnceLock<Arc<ProfileDatabase>>>>,
    builds_per_key: HashMap<u64, u64>,
    stats: CacheStats,
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// 64-bit FNV-1a over the canonical key document.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Standard-normal draw via Box-Muller (keeps this crate independent of
/// a distributions crate).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelId;
    use proptest::prelude::*;

    fn db() -> ProfileDatabase {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
        ProfileDatabase::profile(&hw, &specs, &ConfigGrid::standard(), 7)
    }

    #[test]
    fn signature_quantization_groups_neighbours() {
        let a = OpSignature::of(&Operator::new(OpKind::Conv2d, 0.100));
        let b = OpSignature::of(&Operator::new(OpKind::Conv2d, 0.0995));
        assert_eq!(a, b);
        let c = OpSignature::of(&Operator::new(OpKind::Conv2d, 0.150));
        assert_ne!(a, c);
        let d = OpSignature::of(&Operator::new(OpKind::MatMul, 0.100));
        assert_ne!(a, d, "kind is part of the identity");
    }

    #[test]
    fn representative_is_close_to_members() {
        let op = Operator::new(OpKind::MatMul, 0.37);
        let sig = OpSignature::of(&op);
        let rep = sig.representative_gflops();
        assert!((rep / 0.37 - 1.0).abs() < 0.05, "rep {rep} vs 0.37");
    }

    #[test]
    fn database_covers_all_zoo_operators() {
        let db = db();
        let hw = HardwareModel::default();
        let _ = hw;
        for id in ModelId::all() {
            let spec = id.spec();
            for op in spec.dag().nodes() {
                for (b, cfg) in ConfigGrid::standard().points() {
                    assert!(
                        db.op_time_s(op, b, cfg).is_some(),
                        "{id}: missing profile for {op} at b={b} cfg={cfg}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharing_keeps_database_small() {
        // Observation #6: distinct operators are far fewer than call
        // sites. The whole zoo needs well under 100 distinct profiles.
        let db = db();
        let distinct = db.distinct_operators();
        assert!(
            (20..=120).contains(&distinct),
            "distinct operators: {distinct}"
        );
    }

    #[test]
    fn measurements_are_near_truth() {
        let hw = HardwareModel::default();
        let db = db();
        let op = Operator::new(OpKind::Conv2d, 0.070);
        let cfg = ResourceConfig::new(1, 20);
        let measured = db.op_time_s(&op, 8, cfg).unwrap();
        let truth = hw.op_latency_s(&op, 8, cfg);
        assert!(
            (measured / truth - 1.0).abs() < 0.15,
            "measured {measured} vs truth {truth}"
        );
    }

    #[test]
    fn profiling_is_reproducible() {
        let hw = HardwareModel::default();
        let specs = [ModelId::Mnist.spec()];
        let grid = ConfigGrid::standard();
        let a = ProfileDatabase::profile(&hw, &specs, &grid, 3);
        let b = ProfileDatabase::profile(&hw, &specs, &grid, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_config_returns_none() {
        let db = db();
        let op = Operator::new(OpKind::Conv2d, 0.070);
        // 7 cores is not in the standard grid.
        assert!(db.op_time_s(&op, 8, ResourceConfig::cpu(7)).is_none());
    }

    /// The dense rows answer every lookup the keyed map did, and
    /// count entries and operators as it did: distinct `(operator,
    /// batch, config)` keys, a repeated grid point answering with its
    /// last measurement.
    #[test]
    fn dense_rows_count_and_answer_like_the_keyed_map() {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
        let grid = ConfigGrid::standard();
        let db = ProfileDatabase::profile(&hw, &specs, &grid, 7);
        let sigs = ProfileDatabase::distinct_signatures(&specs);
        assert_eq!(db.distinct_operators(), sigs.len());
        assert_eq!(db.len(), sigs.len() * grid.points().count());
        let repeated = ConfigGrid::new(
            vec![
                ResourceConfig::cpu(1),
                ResourceConfig::new(1, 10),
                ResourceConfig::cpu(1),
            ],
            vec![4, 1, 4],
        );
        let db = ProfileDatabase::profile(&hw, &specs[..2], &repeated, 7);
        let mut keyed = HashMap::new();
        for &sig in &ProfileDatabase::distinct_signatures(&specs[..2]) {
            let row = db.row(sig).expect("profiled");
            for ((b, c), &t) in repeated.points().zip(row) {
                keyed.insert((sig, b, c), t);
            }
        }
        assert_eq!(db.len(), keyed.len());
        for spec in &specs[..2] {
            for op in spec.dag().nodes() {
                for (b, c) in repeated.points() {
                    let want = keyed[&(OpSignature::of(op), b, c)];
                    assert_eq!(db.op_time_s(op, b, c), Some(want));
                }
            }
        }
        assert_eq!(repeated.point_index(2, ResourceConfig::cpu(1)), None);
    }

    #[test]
    #[should_panic(expected = "at least one config")]
    fn empty_grid_rejected() {
        ConfigGrid::new(vec![], vec![1]);
    }

    /// A small grid no other test shares, so these cache tests own their
    /// keys outright.
    fn private_grid(gpu: u32) -> ConfigGrid {
        ConfigGrid::new(
            vec![ResourceConfig::new(1, gpu), ResourceConfig::cpu(2)],
            vec![1, 4],
        )
    }

    #[test]
    fn cached_profiles_each_key_at_most_once() {
        let hw = HardwareModel::default();
        let specs = [ModelId::Mnist.spec()];
        let grid = private_grid(35);
        let key = ProfileDatabase::cache_key(&hw, &specs, &grid, 9100);

        let (a, first) = ProfileDatabase::cached_with_outcome(&hw, &specs, &grid, 9100);
        let before = ProfileDatabase::cache_stats();
        let (b, second) = ProfileDatabase::cached_with_outcome(&hw, &specs, &grid, 9100);
        let after = ProfileDatabase::cache_stats();

        assert!(Arc::ptr_eq(&a, &b), "same key must share one database");
        assert_eq!(first, CacheOutcome::Built);
        assert_eq!(second, CacheOutcome::MemoryHit);
        assert!(after.memory_hits > before.memory_hits);
        assert!(ProfileDatabase::builds_for(key) <= 1);
        assert_eq!(a.grid(), &grid);
        assert!(!a.is_empty());
    }

    #[test]
    fn cached_matches_direct_profiling() {
        let hw = HardwareModel::default();
        let specs = [ModelId::Ssd.spec()];
        let grid = private_grid(40);
        let direct = ProfileDatabase::profile(&hw, &specs, &grid, 9200);
        let cached = ProfileDatabase::cached(&hw, &specs, &grid, 9200);
        // The shared database is exactly what profiling the same inputs
        // directly produces.
        assert_eq!(*cached, direct);
    }

    #[test]
    fn cached_under_contention_builds_once() {
        let hw = HardwareModel::default();
        let specs = [ModelId::TextCnn69.spec()];
        let grid = private_grid(45);
        let key = ProfileDatabase::cache_key(&hw, &specs, &grid, 9300);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| ProfileDatabase::cached(&hw, &specs, &grid, 9300));
            }
        });
        assert!(ProfileDatabase::builds_for(key) <= 1);
    }

    #[test]
    fn cache_key_covers_every_profiling_input() {
        let hw = HardwareModel::default();
        let specs = [ModelId::Mnist.spec()];
        let grid = ConfigGrid::standard();
        let base = ProfileDatabase::cache_key(&hw, &specs, &grid, 1);

        assert_eq!(base, ProfileDatabase::cache_key(&hw, &specs, &grid, 1));
        assert_ne!(
            base,
            ProfileDatabase::cache_key(&hw, &specs, &grid, 2),
            "seed"
        );
        let other_grid = private_grid(30);
        assert_ne!(
            base,
            ProfileDatabase::cache_key(&hw, &specs, &other_grid, 1),
            "grid"
        );
        let more_specs = [ModelId::Mnist.spec(), ModelId::ResNet50.spec()];
        assert_ne!(
            base,
            ProfileDatabase::cache_key(&hw, &more_specs, &grid, 1),
            "model set"
        );
        let mut cal = *hw.calibration();
        cal.noise_sigma += 0.001;
        let other_hw = HardwareModel::new(cal);
        assert_ne!(
            base,
            ProfileDatabase::cache_key(&other_hw, &specs, &grid, 1),
            "calibration"
        );
    }

    #[test]
    fn cache_key_ignores_model_duplication() {
        // Two copies of a model profile the same operator set, so they
        // must share the cache entry with one copy.
        let hw = HardwareModel::default();
        let one = [ModelId::VggNet.spec()];
        let two = [ModelId::VggNet.spec(), ModelId::VggNet.spec()];
        let grid = ConfigGrid::standard();
        assert_eq!(
            ProfileDatabase::cache_key(&hw, &one, &grid, 5),
            ProfileDatabase::cache_key(&hw, &two, &grid, 5)
        );
    }

    proptest! {
        /// Signature bucketing is monotone: more work never lands in a
        /// smaller bucket.
        #[test]
        fn prop_buckets_monotone(a in 1e-6f64..100.0, b in 1e-6f64..100.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let sa = OpSignature::of(&Operator::new(OpKind::MatMul, lo));
            let sb = OpSignature::of(&Operator::new(OpKind::MatMul, hi));
            prop_assert!(sa <= sb);
        }

        /// The representative work is always within one bucket width of
        /// the original.
        #[test]
        fn prop_representative_close(gf in 1e-6f64..100.0) {
            let sig = OpSignature::of(&Operator::new(OpKind::MatMul, gf));
            let rel = (sig.representative_gflops() / gf).log2().abs();
            prop_assert!(rel <= 0.5 / BUCKETS_PER_OCTAVE + 1e-9);
        }
    }
}
