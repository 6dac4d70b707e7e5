//! The analytic hardware model: the stand-in for the paper's testbed
//! (2× Xeon Silver-4215, 16× RTX 2080Ti, TensorFlow Serving).
//!
//! Execution time comes from a roofline-style model:
//!
//! * **CPU**: a core sustains [`HardwareCalibration::cpu_core_gflops`]
//!   GFLOPS at peak; multi-core scaling is slightly sublinear
//!   (`c^scaling_exponent`); each operator kind sustains a fraction of
//!   peak given by its arithmetic-intensity class.
//! * **GPU**: SMs are partitioned by percentage (CUDA MPS style). A 1 %
//!   SM slice sustains `gpu_pct_gflops` GFLOPS at peak, but only once
//!   the batch saturates the slice: `util(b) = b / (b + k)` with a
//!   per-operator-kind half-saturation constant `k`. Each launched
//!   kernel also pays a fixed launch overhead, and batches pay PCIe
//!   transfer plus CPU-side preprocessing.
//!
//! Whole-model *ground truth* latency is the critical path over the DAG
//! plus effects the paper's Combined Operator Profiling cannot see from
//! per-operator profiles: imperfect overlap of parallel branches and a
//! framework overhead per batch. Those terms are exactly why COP shows a
//! 5–10 % prediction error (Fig. 8) and why INFless inflates predictions
//! by 10 % (§3.3).

use infless_sim::SimDuration;
use rand::Rng;
use rand_like_lognormal::lognormal_factor;
use serde::{Deserialize, Serialize};

use crate::operator::Operator;
use crate::zoo::ModelSpec;

/// The discrete batchsizes INFless considers (`b ∈ {2^0 … 2^max}`,
/// capped at 32 as in the paper's §5.1 workloads).
pub const BATCH_SIZES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Hybrid resource allocation of one function instance: CPU cores plus a
/// GPU streaming-multiprocessor share in percent (0 = CPU-only).
///
/// # Example
///
/// ```
/// use infless_models::ResourceConfig;
///
/// let cfg = ResourceConfig::new(2, 20);
/// assert_eq!(cfg.cpu_cores(), 2);
/// assert_eq!(cfg.gpu_pct(), 20);
/// assert!(ResourceConfig::cpu(4).is_cpu_only());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ResourceConfig {
    cpu_cores: u32,
    gpu_pct: u32,
}

impl ResourceConfig {
    /// Creates a hybrid allocation.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_cores` is zero (every instance needs a core to
    /// serve requests) or `gpu_pct` exceeds 100.
    pub const fn new(cpu_cores: u32, gpu_pct: u32) -> Self {
        assert!(cpu_cores >= 1, "an instance needs at least one CPU core");
        assert!(gpu_pct <= 100, "a GPU share cannot exceed one device");
        ResourceConfig { cpu_cores, gpu_pct }
    }

    /// A CPU-only allocation.
    pub fn cpu(cpu_cores: u32) -> Self {
        ResourceConfig::new(cpu_cores, 0)
    }

    /// Number of CPU cores bound to the instance (cgroup cpuset).
    pub fn cpu_cores(self) -> u32 {
        self.cpu_cores
    }

    /// GPU SM share in percent of one device (CUDA MPS partition).
    pub fn gpu_pct(self) -> u32 {
        self.gpu_pct
    }

    /// `true` if no GPU share is attached.
    pub fn is_cpu_only(self) -> bool {
        self.gpu_pct == 0
    }
}

impl std::fmt::Display for ResourceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}c+{}g", self.cpu_cores, self.gpu_pct)
    }
}

/// Calibration constants of the analytic hardware model.
///
/// Defaults are tuned so the zoo reproduces the paper's observations:
/// BERT/ResNet-50/VGG exceed 200 ms on CPU-only allocations (Obs. #1)
/// while small models respond within 50 ms, and GPU slices deliver
/// order-of-magnitude speedups that improve with batchsize.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareCalibration {
    /// Peak sustained GFLOPS of one CPU core.
    pub cpu_core_gflops: f64,
    /// Multi-core scaling exponent (`effective cores = c^exp`).
    pub cpu_scaling_exponent: f64,
    /// Peak GFLOPS of a 1 % SM slice of one GPU (2080Ti-class:
    /// 13.45 TFLOPS / 100).
    pub gpu_pct_gflops: f64,
    /// Kernel launch overhead per operator on CPU, seconds.
    pub cpu_launch_s: f64,
    /// Kernel launch overhead per operator on GPU, seconds.
    pub gpu_launch_s: f64,
    /// PCIe effective bandwidth, KB per second.
    pub pcie_kb_per_s: f64,
    /// CPU-side preprocessing per sample, seconds (divided by cores).
    pub preproc_per_sample_s: f64,
    /// Fixed framework overhead per batch invocation, seconds.
    pub framework_base_s: f64,
    /// Per-sample framework overhead (batch assembly), seconds.
    pub framework_per_sample_s: f64,
    /// Fraction of off-critical-path work that leaks into the makespan
    /// (imperfect branch overlap). COP cannot observe this term.
    pub branch_contention: f64,
    /// Log-normal sigma of per-invocation execution noise.
    pub noise_sigma: f64,
    /// Interference between MPS-partitioned instances sharing a
    /// physical GPU: fractional slowdown per 100 percentage points of
    /// co-resident *active* SM share. CUDA MPS partitions compute but
    /// memory bandwidth and L2 stay shared, so perfect isolation is
    /// optimistic (GSLICE measures comparable effects).
    pub mps_interference: f64,
    /// Container + runtime boot time on a cold start, seconds.
    pub coldstart_base_s: f64,
    /// Model-load bandwidth from local SSD, MB per second.
    pub model_load_mb_per_s: f64,
    /// Fixed overhead of swapping a host-cached model onto a GPU,
    /// seconds: CUDA context attach + pinned-buffer setup. Distinctly
    /// above the 200 ms pre-warmed attach (the weights still move), far
    /// below a container boot.
    pub swap_base_s: f64,
    /// Fraction of the host→device weight transfer hidden behind
    /// pipelined layer-by-layer upload (Torpor/FaaSwap overlap the copy
    /// of later layers with the execution of earlier ones).
    pub swap_overlap: f64,
    /// GPU device-memory bandwidth, MB per second (2080Ti-class:
    /// 616 GB/s). A decode step streams the weights plus the resident
    /// KV-cache once, so it is bound by this number, not by FLOPS.
    #[serde(default = "default_gpu_mem_bw_mb_per_s")]
    pub gpu_mem_bw_mb_per_s: f64,
    /// Autoregressive compute cost: GFLOPs per token per MB of model
    /// weights (≈ 2 FLOPs per parameter, fp16 weights).
    #[serde(default = "default_token_gflops_per_mb")]
    pub token_gflops_per_mb: f64,
    /// Fixed per-decode-step overhead, seconds: kernel launches,
    /// sampling, KV bookkeeping.
    #[serde(default = "default_decode_overhead_s")]
    pub decode_overhead_s: f64,
    /// In-flight resize (grow) overhead, seconds: cgroup cpuset update
    /// plus an MPS percentage re-pin. No container boot, no model
    /// load, no PCIe transfer — the weights stay where they are — so
    /// this sits far below even a pre-warmed attach. Shrinks are free
    /// (quota reductions take effect at the next batch boundary).
    #[serde(default = "default_resize_base_s")]
    pub resize_base_s: f64,
}

fn default_gpu_mem_bw_mb_per_s() -> f64 {
    616_000.0
}

fn default_token_gflops_per_mb() -> f64 {
    5e-4
}

fn default_decode_overhead_s() -> f64 {
    1.5e-3
}

fn default_resize_base_s() -> f64 {
    0.15
}

impl Default for HardwareCalibration {
    fn default() -> Self {
        HardwareCalibration {
            cpu_core_gflops: 69.4,
            cpu_scaling_exponent: 0.95,
            gpu_pct_gflops: 134.5,
            cpu_launch_s: 80e-6,
            gpu_launch_s: 30e-6,
            pcie_kb_per_s: 12e6,
            preproc_per_sample_s: 0.05e-3,
            framework_base_s: 0.8e-3,
            framework_per_sample_s: 0.04e-3,
            branch_contention: 0.15,
            noise_sigma: 0.03,
            mps_interference: 0.12,
            coldstart_base_s: 1.2,
            model_load_mb_per_s: 250.0,
            swap_base_s: 0.25,
            swap_overlap: 0.5,
            gpu_mem_bw_mb_per_s: default_gpu_mem_bw_mb_per_s(),
            token_gflops_per_mb: default_token_gflops_per_mb(),
            decode_overhead_s: default_decode_overhead_s(),
            resize_base_s: default_resize_base_s(),
        }
    }
}

/// The analytic hardware model. See the [module docs](self) for the
/// formulas; all methods are pure functions of their arguments, so
/// latency lookups are deterministic and cacheable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HardwareModel {
    calibration: HardwareCalibration,
}

impl HardwareModel {
    /// Creates a model with custom calibration.
    pub fn new(calibration: HardwareCalibration) -> Self {
        HardwareModel { calibration }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &HardwareCalibration {
        &self.calibration
    }

    /// Conversion factor β between CPU cores and GPU percentage points,
    /// derived from their FLOPS ratio as in §3.4: one core is worth
    /// `β` GPU-percent units in the objective `β·C + G`.
    pub fn beta(&self) -> f64 {
        self.calibration.cpu_core_gflops / self.calibration.gpu_pct_gflops
    }

    /// Execution time of one operator at batch `b` under `cfg`,
    /// in seconds. Runs on the GPU slice if one is attached, else on CPU.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn op_latency_s(&self, op: &Operator, batch: u32, cfg: ResourceConfig) -> f64 {
        assert!(batch >= 1, "batch must be at least 1");
        let cal = &self.calibration;
        let work = op.gflops() * f64::from(batch);
        if cfg.is_cpu_only() {
            let rate = cal.cpu_core_gflops
                * f64::from(cfg.cpu_cores()).powf(cal.cpu_scaling_exponent)
                * op.kind().cpu_efficiency();
            cal.cpu_launch_s + work / rate
        } else {
            let k = op.kind().gpu_saturation_batch();
            let util = f64::from(batch) / (f64::from(batch) + k);
            let rate =
                cal.gpu_pct_gflops * f64::from(cfg.gpu_pct()) * op.kind().gpu_efficiency() * util;
            cal.gpu_launch_s + work / rate
        }
    }

    /// Ground-truth latency of a whole model batch: DAG critical path
    /// plus branch contention, framework overhead, preprocessing and
    /// (for GPU configs) PCIe transfer. Deterministic; multiply by a
    /// [`Self::noise_factor`] draw for the per-invocation jitter.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn model_latency(&self, spec: &ModelSpec, batch: u32, cfg: ResourceConfig) -> SimDuration {
        SimDuration::from_secs_f64(self.model_latency_s(spec, batch, cfg))
    }

    /// [`Self::model_latency`] in raw seconds.
    pub fn model_latency_s(&self, spec: &ModelSpec, batch: u32, cfg: ResourceConfig) -> f64 {
        assert!(batch >= 1, "batch must be at least 1");
        let cal = &self.calibration;
        let lat = |op: &Operator| self.op_latency_s(op, batch, cfg);
        let dag = spec.dag();
        let critical = dag.critical_path(lat);
        // `OperatorDag::parallel_slack`, reusing the critical path.
        let contention = cal.branch_contention * (dag.total(lat) - critical).max(0.0);
        let framework = cal.framework_base_s + cal.framework_per_sample_s * f64::from(batch);
        let mut total = critical + contention + framework;
        if !cfg.is_cpu_only() {
            total += f64::from(batch) * spec.input_kb() / cal.pcie_kb_per_s;
            total += f64::from(batch) * cal.preproc_per_sample_s / f64::from(cfg.cpu_cores());
        }
        total
    }

    /// One log-normal noise factor draw (median 1, the calibration's
    /// sigma): the irreducible per-invocation measurement noise a real
    /// testbed exhibits, applied to [`Self::model_latency_s`] once per
    /// batch. Autoregressive episodes draw one factor at prefill and
    /// apply it to every phase, so noise cannot re-order decode steps.
    pub fn noise_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        lognormal_factor(rng, self.calibration.noise_sigma)
    }

    /// Ground-truth latency on a *fractional* CPU allocation — the AWS
    /// Lambda model, where CPU power is proportional to the configured
    /// memory (≈1 vCPU per 1769 MB). Used by the Fig. 2 motivation
    /// experiments; the cluster platforms bind whole cores instead.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `vcpus` is not strictly positive.
    pub fn model_latency_cpu_fractional(&self, spec: &ModelSpec, batch: u32, vcpus: f64) -> f64 {
        assert!(batch >= 1, "batch must be at least 1");
        assert!(vcpus > 0.0 && vcpus.is_finite(), "vCPUs must be positive");
        let cal = &self.calibration;
        let lat = |op: &Operator| {
            let work = op.gflops() * f64::from(batch);
            let rate = cal.cpu_core_gflops
                * vcpus.powf(cal.cpu_scaling_exponent)
                * op.kind().cpu_efficiency();
            cal.cpu_launch_s + work / rate
        };
        let dag = spec.dag();
        let critical = dag.critical_path(lat);
        critical
            + cal.branch_contention * (dag.total(lat) - critical).max(0.0)
            + cal.framework_base_s
            + cal.framework_per_sample_s * f64::from(batch)
    }

    /// Cold-start duration for a model: container boot plus loading the
    /// model artifact from local disk (§3.5 — for inference functions the
    /// cold start often exceeds the query execution time).
    pub fn cold_start(&self, spec: &ModelSpec) -> SimDuration {
        let cal = &self.calibration;
        let secs = cal.coldstart_base_s + spec.size_mb() / cal.model_load_mb_per_s;
        SimDuration::from_secs_f64(secs)
    }

    /// Swap-in duration for a model whose weights are already resident
    /// in host memory: pinned-buffer setup plus the non-overlapped part
    /// of the PCIe host→device transfer. Always cheaper than
    /// [`Self::cold_start`] (no container boot, no disk load), always
    /// dearer than a pre-warmed attach (the weights still cross PCIe).
    pub fn swap_in(&self, spec: &ModelSpec) -> SimDuration {
        let cal = &self.calibration;
        let transfer_s = spec.size_mb() * 1024.0 / cal.pcie_kb_per_s;
        let secs = cal.swap_base_s + transfer_s * (1.0 - cal.swap_overlap);
        SimDuration::from_secs_f64(secs)
    }

    /// In-flight resize latency: how long a live instance is paused
    /// while its CPU/SM quota is re-pinned. A grow pays the fixed
    /// [`HardwareCalibration::resize_base_s`] — far below
    /// [`Self::cold_start`] and [`Self::swap_in`], since no container
    /// boots and no weights move. A shrink is free: quota reductions
    /// apply at the next batch boundary with no pause.
    pub fn resize_latency(&self, grow: bool) -> SimDuration {
        if grow {
            SimDuration::from_secs_f64(self.calibration.resize_base_s)
        } else {
            SimDuration::ZERO
        }
    }

    /// Steady-state memory footprint of a loaded instance in MB
    /// (model artifact plus serving runtime), used for idle-waste
    /// accounting in the cold-start experiments.
    pub fn instance_memory_mb(&self, spec: &ModelSpec) -> f64 {
        spec.size_mb() + 150.0
    }

    /// Prefill latency of an autoregressive batch: one compute-bound
    /// pass over `prompt_tokens` total tokens (summed across the
    /// admitted sequences). Sets the time-to-first-token.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero.
    pub fn prefill_latency(
        &self,
        spec: &ModelSpec,
        prompt_tokens: u64,
        cfg: ResourceConfig,
    ) -> SimDuration {
        SimDuration::from_secs_f64(self.prefill_secs(spec, prompt_tokens, cfg))
    }

    /// [`Self::prefill_latency`] in unrounded seconds.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero.
    pub fn prefill_secs(&self, spec: &ModelSpec, prompt_tokens: u64, cfg: ResourceConfig) -> f64 {
        assert!(prompt_tokens >= 1, "prefill needs at least one token");
        let cal = &self.calibration;
        let work = cal.token_gflops_per_mb * spec.size_mb() * prompt_tokens as f64;
        let rate = if cfg.is_cpu_only() {
            cal.cpu_core_gflops * f64::from(cfg.cpu_cores()).powf(cal.cpu_scaling_exponent)
        } else {
            cal.gpu_pct_gflops * f64::from(cfg.gpu_pct())
        };
        cal.framework_base_s + work / rate
    }

    /// Latency of one decode step: every active sequence produces one
    /// token. On a GPU slice the step is memory-bound — the weights
    /// plus the resident KV-cache stream through device memory once per
    /// step, throttled by the slice's bandwidth share — so it is nearly
    /// flat in `seqs` (that flatness is what makes batching decode
    /// nearly free and continuous batching worthwhile). On CPU it is
    /// compute-bound on `seqs` tokens of work.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is zero.
    pub fn decode_step_latency(
        &self,
        spec: &ModelSpec,
        seqs: u32,
        kv_mb: f64,
        cfg: ResourceConfig,
    ) -> SimDuration {
        SimDuration::from_secs_f64(self.decode_cost(spec, seqs, cfg).step_secs(kv_mb))
    }

    /// The price of one decode step of `seqs` sequences of `spec` on
    /// `cfg`, with everything but the resident KV-cache fixed: price a
    /// span of steps by deriving this once and calling
    /// [`DecodeCost::span_ticks`].
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is zero.
    pub fn decode_cost(&self, spec: &ModelSpec, seqs: u32, cfg: ResourceConfig) -> DecodeCost {
        assert!(seqs >= 1, "a decode step needs at least one sequence");
        let cal = &self.calibration;
        if cfg.is_cpu_only() {
            let work = cal.token_gflops_per_mb * spec.size_mb() * f64::from(seqs);
            let rate =
                cal.cpu_core_gflops * f64::from(cfg.cpu_cores()).powf(cal.cpu_scaling_exponent);
            DecodeCost::Cpu {
                step_s: cal.decode_overhead_s + work / rate,
            }
        } else {
            DecodeCost::Gpu {
                overhead_s: cal.decode_overhead_s,
                weights_mb: spec.size_mb(),
                bw: cal.gpu_mem_bw_mb_per_s * f64::from(cfg.gpu_pct()) / 100.0,
            }
        }
    }
}

/// One decode step's latency as a function of the resident KV-cache
/// alone, for a fixed model, sequence count and resource config (see
/// [`HardwareModel::decode_cost`]).
#[derive(Debug, Clone, Copy)]
pub enum DecodeCost {
    /// CPU-only: compute-bound on the sequences' tokens, so the KV-cache
    /// does not matter and the step costs a fixed duration.
    Cpu {
        /// The step's duration, seconds.
        step_s: f64,
    },
    /// GPU slice: memory-bound, streaming the weights plus the resident
    /// KV-cache once per step at the slice's bandwidth share.
    Gpu {
        /// Fixed per-step framework overhead, seconds.
        overhead_s: f64,
        /// Model weights, MB.
        weights_mb: f64,
        /// The slice's memory bandwidth, MB/s.
        bw: f64,
    },
}

impl DecodeCost {
    /// One step's latency in seconds with `kv_mb` MB of resident
    /// KV-cache (negative counts as none).
    fn step_secs(&self, kv_mb: f64) -> f64 {
        match *self {
            DecodeCost::Cpu { step_s } => step_s,
            DecodeCost::Gpu {
                overhead_s,
                weights_mb,
                bw,
            } => overhead_s + (weights_mb + kv_mb.max(0.0)) / bw,
        }
    }

    /// A span of steps in ticks ([`SimDuration::TICK_SHIFT`]): when the
    /// first step sees `kv_mb` MB of resident KV-cache and each step
    /// adds `kv_step_mb` more, step `i` costs `first + growth · i`
    /// ticks, slowed by `slow`. Returns `(first, growth)`, each rounded
    /// once; on CPU the step does not depend on the KV-cache, so
    /// `growth` is zero.
    #[inline]
    pub fn span_ticks(&self, kv_mb: f64, kv_step_mb: f64, slow: f64) -> (u64, u64) {
        let first = SimDuration::ticks_from_secs_f64(slow * self.step_secs(kv_mb));
        let growth = match *self {
            DecodeCost::Cpu { .. } => 0,
            DecodeCost::Gpu { bw, .. } => SimDuration::ticks_from_secs_f64(slow * kv_step_mb / bw),
        };
        (first, growth)
    }
}

/// Small helper module so the log-normal draw stays dependency-light
/// (avoids pulling a full distribution crate into this crate's API).
mod rand_like_lognormal {
    use rand::Rng;

    /// A log-normal multiplicative factor with median 1 and the given
    /// sigma, via Box-Muller on two uniform draws.
    pub fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelId;
    use infless_sim::rng::stream;
    use proptest::prelude::*;

    fn hw() -> HardwareModel {
        HardwareModel::default()
    }

    #[test]
    fn resource_config_accessors() {
        let cfg = ResourceConfig::new(4, 30);
        assert_eq!(cfg.cpu_cores(), 4);
        assert_eq!(cfg.gpu_pct(), 30);
        assert!(!cfg.is_cpu_only());
        assert_eq!(cfg.to_string(), "4c+30g");
    }

    #[test]
    #[should_panic(expected = "at least one CPU core")]
    fn zero_cores_rejected() {
        ResourceConfig::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "one device")]
    fn oversized_gpu_share_rejected() {
        ResourceConfig::new(1, 101);
    }

    #[test]
    fn more_cores_is_faster() {
        let hw = hw();
        let spec = ModelId::ResNet50.spec();
        let t1 = hw.model_latency(&spec, 1, ResourceConfig::cpu(1));
        let t4 = hw.model_latency(&spec, 1, ResourceConfig::cpu(4));
        let t16 = hw.model_latency(&spec, 1, ResourceConfig::cpu(16));
        assert!(t1 > t4 && t4 > t16);
    }

    #[test]
    fn more_gpu_is_faster() {
        let hw = hw();
        let spec = ModelId::BertV1.spec();
        let g10 = hw.model_latency(&spec, 4, ResourceConfig::new(1, 10));
        let g50 = hw.model_latency(&spec, 4, ResourceConfig::new(1, 50));
        assert!(g50 < g10);
    }

    #[test]
    fn gpu_beats_cpu_for_large_models() {
        let hw = hw();
        for id in [ModelId::BertV1, ModelId::ResNet50, ModelId::VggNet] {
            let spec = id.spec();
            let cpu = hw.model_latency(&spec, 1, ResourceConfig::cpu(16));
            let gpu = hw.model_latency(&spec, 1, ResourceConfig::new(1, 50));
            assert!(gpu < cpu, "{id:?}: gpu {gpu} !< cpu {cpu}");
        }
    }

    #[test]
    fn big_models_miss_200ms_on_cpu() {
        // Paper Observation #1: Bert-v1 / ResNet-50 / VGG exceed 200 ms
        // even at the largest Lambda allocation (~1.7 vCPU).
        let hw = hw();
        for id in [ModelId::BertV1, ModelId::ResNet50, ModelId::VggNet] {
            let t = hw.model_latency(&id.spec(), 1, ResourceConfig::cpu(2));
            assert!(
                t.as_millis_f64() > 150.0,
                "{id:?} unexpectedly fast on 2 cores: {t}"
            );
        }
    }

    #[test]
    fn small_models_meet_50ms_on_cpu() {
        let hw = hw();
        for id in [ModelId::Mnist, ModelId::MobileNet, ModelId::Dssm2365] {
            let t = hw.model_latency(&id.spec(), 1, ResourceConfig::cpu(2));
            assert!(t.as_millis_f64() < 50.0, "{id:?} too slow: {t}");
        }
    }

    #[test]
    fn batching_improves_gpu_throughput() {
        let hw = hw();
        let spec = ModelId::ResNet50.spec();
        let cfg = ResourceConfig::new(1, 20);
        let mut last_thpt = 0.0;
        for b in BATCH_SIZES {
            let t = hw.model_latency(&spec, b, cfg).as_secs_f64();
            let thpt = f64::from(b) / t;
            assert!(
                thpt > last_thpt,
                "throughput should rise with batch, b={b}: {thpt} !> {last_thpt}"
            );
            last_thpt = thpt;
        }
    }

    #[test]
    fn latency_grows_with_batch() {
        let hw = hw();
        let spec = ModelId::TextCnn69.spec();
        for cfg in [ResourceConfig::cpu(2), ResourceConfig::new(1, 10)] {
            let mut last = SimDuration::ZERO;
            for b in BATCH_SIZES {
                let t = hw.model_latency(&spec, b, cfg);
                assert!(t > last);
                last = t;
            }
        }
    }

    #[test]
    fn beta_reflects_flops_ratio() {
        let hw = hw();
        let beta = hw.beta();
        assert!(
            beta > 0.0 && beta < 1.0,
            "a core is worth less than 1% of a 2080Ti: {beta}"
        );
    }

    #[test]
    fn cold_start_scales_with_model_size() {
        let hw = hw();
        let small = hw.cold_start(&ModelId::Mnist.spec());
        let large = hw.cold_start(&ModelId::BertV1.spec());
        assert!(large > small);
        assert!(
            small.as_secs_f64() >= 1.0,
            "cold start includes container boot"
        );
        assert!(
            large.as_secs_f64() < 10.0,
            "cold start stays in the seconds range"
        );
    }

    #[test]
    fn prefill_is_compute_bound_and_decode_is_memory_bound() {
        let hw = hw();
        let spec = ModelId::BertV1.spec();
        let cfg = ResourceConfig::new(2, 40);
        // Prefill grows linearly with prompt tokens.
        let p256 = hw.prefill_latency(&spec, 256, cfg);
        let p512 = hw.prefill_latency(&spec, 512, cfg);
        assert!(p512 > p256);
        // ... sublinearly (the fixed framework term amortizes).
        assert!(p512.as_secs_f64() < 2.0 * p256.as_secs_f64());
        // Decode is nearly flat in the sequence count (memory-bound):
        // quadrupling the batch costs well under 2x per step.
        let d1 = hw.decode_step_latency(&spec, 1, 100.0, cfg);
        let d4 = hw.decode_step_latency(&spec, 4, 100.0, cfg);
        assert!(d4.as_secs_f64() < 2.0 * d1.as_secs_f64());
        // More resident KV means more bytes streamed per step.
        let heavy = hw.decode_step_latency(&spec, 4, 2000.0, cfg);
        assert!(heavy > d4);
        // A bigger GPU slice speeds both phases up.
        let fat = ResourceConfig::new(2, 80);
        assert!(hw.prefill_latency(&spec, 512, fat) < p512);
        assert!(hw.decode_step_latency(&spec, 4, 100.0, fat) < d4);
        // CPU-only decode is compute-bound: it scales with seqs.
        let cpu = ResourceConfig::cpu(4);
        let c1 = hw.decode_step_latency(&spec, 1, 0.0, cpu);
        let c8 = hw.decode_step_latency(&spec, 8, 0.0, cpu);
        assert!(c8 > c1);
    }

    /// The decode step formula in one piece: the reference that
    /// [`DecodeCost`] must reproduce bit for bit.
    fn decode_step_reference(
        hw: &HardwareModel,
        spec: &ModelSpec,
        seqs: u32,
        kv_mb: f64,
        cfg: ResourceConfig,
    ) -> f64 {
        assert!(seqs >= 1, "a decode step needs at least one sequence");
        let cal = &hw.calibration;
        if cfg.is_cpu_only() {
            let work = cal.token_gflops_per_mb * spec.size_mb() * f64::from(seqs);
            let rate =
                cal.cpu_core_gflops * f64::from(cfg.cpu_cores()).powf(cal.cpu_scaling_exponent);
            cal.decode_overhead_s + work / rate
        } else {
            let bw = cal.gpu_mem_bw_mb_per_s * f64::from(cfg.gpu_pct()) / 100.0;
            cal.decode_overhead_s + (spec.size_mb() + kv_mb.max(0.0)) / bw
        }
    }

    /// Every bit of the reference survives the split: above 2^53 µs
    /// (the large `kv_mb`) every float is a whole microsecond, so the
    /// rounded step exposes the last bit of the bandwidth division. A
    /// span's first step is the same value in ticks.
    #[test]
    fn decode_cost_matches_the_step_formula() {
        let calibrated = hw();
        let mut bumped = *calibrated.calibration();
        bumped.gpu_mem_bw_mb_per_s *= 1.37;
        bumped.decode_overhead_s *= 0.61;
        let kvs = [
            f64::NEG_INFINITY,
            -5.0e3,
            -1.0,
            -0.0,
            0.0,
            0.25,
            123.456,
            4_096.0,
            1.0e9,
            1.0e15,
            3.3e16,
            7.7e18,
        ];
        for hw in [calibrated, HardwareModel::new(bumped)] {
            for model in ModelId::all() {
                let spec = model.spec();
                for seqs in 1..=64 {
                    let configs = (1..=100)
                        .map(|pct| ResourceConfig::new(1 + seqs % 8, pct))
                        .chain((1..=16).map(ResourceConfig::cpu));
                    for cfg in configs {
                        let cost = hw.decode_cost(&spec, seqs, cfg);
                        for kv in kvs {
                            let want = decode_step_reference(&hw, &spec, seqs, kv, cfg);
                            assert_eq!(
                                hw.decode_step_latency(&spec, seqs, kv, cfg),
                                SimDuration::from_secs_f64(want),
                                "{model:?} {seqs} {cfg} {kv}"
                            );
                            let (first, _) = cost.span_ticks(kv, 0.0, 1.0);
                            assert_eq!(first, SimDuration::ticks_from_secs_f64(want));
                        }
                    }
                }
            }
        }
    }

    /// A span's steps are affine in the step index: step `i` of a span
    /// costs the step formula at the KV-cache it sees, in ticks, to
    /// within the rounding of the two terms.
    #[test]
    fn span_ticks_are_the_step_formula_affine_in_the_step() {
        let hw = hw();
        let per_tick = 1e6 * (1u64 << SimDuration::TICK_SHIFT) as f64;
        for model in ModelId::all() {
            let spec = model.spec();
            for (seqs, cfg) in [
                (1, ResourceConfig::new(1, 1)),
                (8, ResourceConfig::new(2, 20)),
                (64, ResourceConfig::new(4, 100)),
                (4, ResourceConfig::cpu(3)),
            ] {
                for (kv0, per_seq, slow) in [(0.0, 0.05, 1.0), (51.2, 0.05, 2.9), (7e3, 0.5, 1.3)] {
                    let step = f64::from(seqs) * per_seq;
                    let (first, growth) =
                        hw.decode_cost(&spec, seqs, cfg).span_ticks(kv0, step, slow);
                    for i in [0u32, 1, 2, 99, 1_000, 10_000] {
                        let kv = kv0 + f64::from(i) * step;
                        let exact =
                            slow * decode_step_reference(&hw, &spec, seqs, kv, cfg) * per_tick;
                        let got = first as f64 + growth as f64 * f64::from(i);
                        // Half a tick from each term, plus the floats'
                        // own rounding of the exact value.
                        let slack = 0.5 * f64::from(i + 1) + exact * 1e-14;
                        assert!((got - exact).abs() <= slack, "{model:?} {cfg} {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn noise_is_reproducible_and_small() {
        let hw = hw();
        let spec = ModelId::Ssd.spec();
        let cfg = ResourceConfig::new(2, 10);
        let base = hw.model_latency_s(&spec, 4, cfg);
        let a = base * hw.noise_factor(&mut stream(9, "x"));
        let b = base * hw.noise_factor(&mut stream(9, "x"));
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((a / base - 1.0).abs() < 0.25);
    }

    proptest! {
        /// Latency is positive and monotone in batch for any model/config.
        #[test]
        fn prop_latency_monotone_in_batch(
            model_idx in 0usize..12,
            cores in 1u32..16,
            gpu in prop::sample::select(vec![0u32, 5, 10, 20, 50]),
        ) {
            let hw = HardwareModel::default();
            let spec = ModelId::all()[model_idx].spec();
            let cfg = ResourceConfig::new(cores, gpu);
            let mut last = 0.0;
            for b in BATCH_SIZES {
                let t = hw.model_latency_s(&spec, b, cfg);
                prop_assert!(t > 0.0);
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// More resources never slow a model down.
        #[test]
        fn prop_latency_monotone_in_resources(
            model_idx in 0usize..12,
            b in prop::sample::select(BATCH_SIZES.to_vec()),
            cores in 1u32..8,
            gpu in 1u32..50,
        ) {
            let hw = HardwareModel::default();
            let spec = ModelId::all()[model_idx].spec();
            let lo_cpu = hw.model_latency_s(&spec, b, ResourceConfig::cpu(cores));
            let hi_cpu = hw.model_latency_s(&spec, b, ResourceConfig::cpu(cores * 2));
            prop_assert!(hi_cpu <= lo_cpu);
            let lo_gpu = hw.model_latency_s(&spec, b, ResourceConfig::new(cores, gpu));
            let hi_gpu = hw.model_latency_s(&spec, b, ResourceConfig::new(cores, gpu * 2));
            prop_assert!(hi_gpu <= lo_gpu);
        }
    }
}
