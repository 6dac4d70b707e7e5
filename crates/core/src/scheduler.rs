//! The greedy SLO-aware scheduler — Algorithm 1 of §3.4.
//!
//! Given the residual request rate of a function, the scheduler
//! repeatedly creates one instance at a time: it tries batchsizes in
//! descending order (batching contributes most to throughput), collects
//! every resource configuration whose *predicted* execution time keeps
//! the SLO feasible (`AvailableConfig`), and then jointly picks the
//! configuration and the server maximizing the resource-efficiency
//! metric of Eq. 10:
//!
//! ```text
//! e_ij = (r_up / (β·c + g)) / (1 − (β·c + g) / (β·C_j + G_j))
//! ```
//!
//! — throughput per unit of hybrid resource, divided by the fragment the
//! placement would leave on server `j` (`C_j`, `G_j` are the server's
//! *free* resources). A placement that exactly fills a server leaves no
//! fragment and is preferred unconditionally.

use infless_cluster::{ClusterState, InstanceConfig, Placement, Server, ServerId};
use infless_llm::LlmClass;
use infless_models::{ModelSpec, ResourceConfig};
use infless_sim::{FxHashMap, SimDuration};
use infless_telemetry::{DecisionEvent, DecisionKind, DecisionReason};
use serde::{Deserialize, Serialize};

use crate::batching::RpsWindow;
use crate::engine::FunctionInfo;
use crate::predictor::CopPredictor;

/// How the scheduler chooses the server (and, for the ablations, the
/// configuration) for each new instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// The paper's joint config/server choice by Eq. 10.
    Efficiency,
    /// Ablation (RS off, Fig. 11): pick the configuration with the
    /// highest absolute throughput `r_up`, place it first-fit —
    /// fragmentation-oblivious.
    MaxThroughput,
    /// Ablation: first feasible configuration on the first fitting
    /// server.
    FirstFit,
}

/// Scheduler knobs (§3.4 defaults plus ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Server/config selection strategy.
    pub placement: PlacementStrategy,
    /// Try batchsizes in descending order (the paper's choice). The
    /// greedy-order ablation flips this.
    pub largest_batch_first: bool,
    /// Cap on the batchsizes considered (1 disables batching — the
    /// "BB off" ablation of Fig. 11).
    pub max_batch: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            placement: PlacementStrategy::Efficiency,
            largest_batch_first: true,
            max_batch: u32::MAX,
        }
    }
}

/// One instance the scheduler decided to launch (resources already
/// allocated on the cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledInstance {
    /// Batchsize and resources.
    pub config: InstanceConfig,
    /// The chosen server.
    pub server: ServerId,
    /// The resource allocation made on the cluster (release it when the
    /// instance retires).
    pub placement: Placement,
    /// The feasible arrival-rate window (Eq. 1) under the predicted
    /// execution time.
    pub window: RpsWindow,
    /// The COP-predicted batch execution time.
    pub predicted_exec: SimDuration,
}

/// The result of one scheduling round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduleOutcome {
    /// Instances created, in creation order.
    pub instances: Vec<ScheduledInstance>,
    /// Residual RPS that could not be placed (cluster exhausted or no
    /// feasible configuration) — the paper's simulator reports this as
    /// unserved load.
    pub unplaced_rps: f64,
}

/// The Algorithm 1 scheduler. Each call works against the predictor and
/// mutates the cluster's resource accounting. Decisions depend only on
/// the arguments; the struct's state is a pure memo: the feasible
/// `⟨b, c, g⟩` candidate sets per (model, SLO, batch cap), which the
/// predictor determines once per function rather than once per
/// scheduling round. The memo assumes the predictor handed to
/// `schedule` is stable for a given model — true throughout a platform
/// run, where one `CopPredictor` serves the whole simulation.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    config: SchedulerConfig,
    /// Memoized rk-independent candidates (prediction + Eq. 1 window
    /// feasibility) keyed by (model name, SLO, effective batch cap,
    /// autoregressive-class discriminant). The last component keeps a
    /// chat and a summarization function sharing one model from
    /// aliasing each other's two-phase feasibility sets.
    cache: FxHashMap<(&'static str, SimDuration, u32, Option<LlmKey>), CachedCandidates>,
    /// Per-round scratch: the rk-filtered view of the cached masters,
    /// reused across rounds and calls so the steady state allocates
    /// nothing.
    sets: Vec<Vec<Candidate>>,
}

/// The hashable fingerprint of an [`LlmClass`] for the candidate memo:
/// every field the two-phase feasibility check reads, in integer form.
type LlmKey = (u32, u32, SimDuration, SimDuration, u64);

fn llm_key(llm: &LlmClass) -> LlmKey {
    (
        llm.prompt_tokens_mean,
        llm.output_tokens_mean,
        llm.ttft_slo,
        llm.tpot_slo,
        llm.arena_capacity_tokens(),
    )
}

/// The memoized candidate sets for one (model, SLO, cap) key, in the
/// configured batch preference order.
#[derive(Debug, Clone)]
struct CachedCandidates {
    batches: Vec<u32>,
    masters: Vec<Vec<Candidate>>,
}

/// A feasible ⟨b, c, g⟩ target for an in-place (vertical) resize of a
/// live instance — what [`Scheduler::upgrade_candidate`] and
/// [`Scheduler::downsize_candidate`] return. Carries everything the
/// platform needs to retune the instance's router entry once the
/// resize completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeCandidate {
    /// The target batchsize.
    pub batch: u32,
    /// The target resource configuration.
    pub resources: ResourceConfig,
    /// The Eq. 1 feasible-rate window under the target configuration.
    pub window: RpsWindow,
    /// The COP-predicted batch execution time at the target.
    pub predicted_exec: SimDuration,
}

/// Fills (or returns) the memoized candidate sets for `function`. A
/// free function over the cache field so callers can keep disjoint
/// borrows of the scheduler's other fields.
fn plan_entry<'a>(
    cache: &'a mut FxHashMap<(&'static str, SimDuration, u32, Option<LlmKey>), CachedCandidates>,
    config: SchedulerConfig,
    predictor: &CopPredictor,
    function: &FunctionInfo,
) -> &'a CachedCandidates {
    let spec = function.spec();
    let slo = function.slo();
    let cap = config.max_batch.min(function.max_batch());
    let llm = function.llm();
    cache
        .entry((spec.name(), slo, cap, llm.map(llm_key)))
        .or_insert_with(|| {
            let batches = batch_order(config, predictor, cap);
            let masters = batches
                .iter()
                .map(|&b| {
                    predictor
                        .grid()
                        .configs()
                        .iter()
                        .filter_map(|&cfg| check_candidate(predictor, spec, slo, llm, b, cfg).ok())
                        .collect()
                })
                .collect();
            CachedCandidates { batches, masters }
        })
}

/// The grid's batchsizes up to `cap`, in the configured preference
/// order.
fn batch_order(config: SchedulerConfig, predictor: &CopPredictor, cap: u32) -> Vec<u32> {
    let mut batches: Vec<u32> = predictor
        .grid()
        .batches()
        .iter()
        .copied()
        .filter(|b| *b <= cap)
        .collect();
    batches.sort_unstable();
    if config.largest_batch_first {
        batches.reverse();
    }
    batches
}

impl Scheduler {
    /// Creates a scheduler with the given knobs.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            cache: FxHashMap::default(),
            sets: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// `Schedule(R_k, B, M, t_slo)`: creates instances for `residual_rps`
    /// of `function`, allocating on `cluster`. The batchsize set `B` is
    /// the profiled grid capped by both the scheduler's ablation switch
    /// and the function's own `maxBatchsize` template field.
    ///
    /// Resources for every returned instance are already allocated; the
    /// caller launches them and must release them on retirement.
    pub fn schedule(
        &mut self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        residual_rps: f64,
        cluster: &mut ClusterState,
    ) -> ScheduleOutcome {
        self.schedule_with_cost(
            predictor,
            function,
            residual_rps,
            cluster,
            SimDuration::ZERO,
            0.0,
        )
    }

    /// [`schedule`](Self::schedule) with Algorithm 1's startup-cost
    /// term: `startup_cost` is the launch delay every instance of this
    /// round will pay (cold boot ≫ host-RAM swap-in ≫ pre-warmed
    /// attach), discounting each candidate's *useful* throughput by the
    /// fraction of its serving life spent starting up; `device_mb` is
    /// the GPU device memory a GPU-resident instance books for its
    /// weights. `(ZERO, 0.0)` — what `schedule` passes — is exactly the
    /// pre-tier scheduler, bit for bit.
    pub fn schedule_with_cost(
        &mut self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        residual_rps: f64,
        cluster: &mut ClusterState,
        startup_cost: SimDuration,
        device_mb: f64,
    ) -> ScheduleOutcome {
        self.schedule_with_cost_traced(
            predictor,
            function,
            residual_rps,
            cluster,
            startup_cost,
            device_mb,
            None,
        )
    }

    /// Re-walks the full ⟨b, c, g⟩ grid for `function` and appends one
    /// decision record per candidate: [`DecisionKind::Candidate`] for
    /// survivors of the residual-independent feasibility checks (with
    /// the efficiency density `r_up / (β·c + g)` as `value` and the
    /// predicted execution latency in ms as `aux`), or a
    /// [`DecisionKind::Reject`] carrying the reason the check failed.
    /// Deliberately independent of the candidate memo (which is shared
    /// across functions with equal `(model, SLO)` keys), so the events
    /// a function emits do not depend on which function warmed the
    /// cache — the property that keeps decision traces byte-identical
    /// across shard layouts. The caller stamps `t_s`/`function`/`seq`.
    pub fn trace_candidates(
        &self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        out: &mut Vec<DecisionEvent>,
    ) {
        let (spec, slo, llm) = (function.spec(), function.slo(), function.llm());
        let cap = self.config.max_batch.min(function.max_batch());
        let beta = predictor.beta();
        for b in batch_order(self.config, predictor, cap) {
            for &cfg in predictor.grid().configs() {
                let mut ev = DecisionEvent::new(DecisionKind::Candidate);
                ev.batch = b;
                ev.cpu = cfg.cpu_cores();
                ev.gpu = cfg.gpu_pct();
                match check_candidate(predictor, spec, slo, llm, b, cfg) {
                    Ok(c) => {
                        ev.value = c.window.r_up() / weighted(cfg, beta);
                        ev.aux = c.t_exec.as_millis_f64();
                    }
                    Err((reason, value)) => {
                        ev.kind = DecisionKind::Reject;
                        ev.reason = reason;
                        ev.value = value;
                    }
                }
                out.push(ev);
            }
        }
    }

    /// [`schedule_with_cost`](Self::schedule_with_cost) with an
    /// optional decision trace: per round, the chosen configuration
    /// (effective density and startup discount), batchsizes whose
    /// candidate set the residual-rate saturation bound emptied, sets
    /// that were feasible but placeable nowhere, and the residual that
    /// stayed unplaced at the end. `None` is the exact untraced path.
    /// The caller stamps `t_s`/`function`/`seq` on the appended events.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_with_cost_traced(
        &mut self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        residual_rps: f64,
        cluster: &mut ClusterState,
        startup_cost: SimDuration,
        device_mb: f64,
        mut trace: Option<&mut Vec<DecisionEvent>>,
    ) -> ScheduleOutcome {
        let discount = 1.0 / (1.0 + STARTUP_KAPPA * startup_cost.as_secs_f64());
        let spec = function.spec();
        let config = self.config;
        let plan = plan_entry(&mut self.cache, config, predictor, function);
        let sets = &mut self.sets;
        if sets.len() < plan.batches.len() {
            sets.resize_with(plan.batches.len(), Vec::new);
        }

        let mut out = ScheduleOutcome::default();
        let mut rk = residual_rps;
        let beta = predictor.beta();
        let mem_mb = predictor.instance_memory_mb(spec);
        'outer: while rk > 1e-9 {
            // Candidate sets per batchsize, in the configured preference
            // order — the cached masters narrowed by the one residual-
            // dependent constraint (`AvailableConfig(b, R_k, t_slo)`'s
            // saturation bound: a b > 1 batch must fill before its
            // timeout, i.e. rk >= r_low). The batch-order preference is
            // a heuristic for the Eq. 2 objective (minimize occupied
            // resources), and it can betray that objective: at a
            // residual just past a small batch's r_up, the next
            // batchsize up may be feasible only on near-server-sized
            // configurations (the Eq. 1 saturation bound admits large
            // batches only when t_exec is tiny). Guard against that by
            // skipping any batchsize whose best configuration is
            // drastically less resource-dense than the best available at
            // any other batchsize; a second pass without the guard keeps
            // feasibility intact when only the wasteful batches can
            // still be placed.
            for (i, master) in plan.masters.iter().enumerate() {
                let b = plan.batches[i];
                let set = &mut sets[i];
                set.clear();
                set.extend(
                    master
                        .iter()
                        .filter(|c| !(b > 1 && rk < c.window.r_low()))
                        .copied(),
                );
                if set.is_empty() && !master.is_empty() {
                    if let Some(tr) = trace.as_deref_mut() {
                        let mut ev = DecisionEvent::new(DecisionKind::Reject);
                        ev.reason = DecisionReason::ResidualCap;
                        ev.batch = b;
                        ev.value = rk;
                        ev.aux = master
                            .iter()
                            .map(|c| c.window.r_low())
                            .fold(f64::INFINITY, f64::min);
                        tr.push(ev);
                    }
                }
            }
            let live = &sets[..plan.batches.len()];
            let density_of = |set: &[Candidate]| {
                set.iter()
                    .map(|c| c.density(beta, rk, discount))
                    .fold(0.0f64, f64::max)
            };
            let best_density = live.iter().map(|s| density_of(s)).fold(0.0f64, f64::max);
            if best_density <= 0.0 {
                break;
            }
            for guarded_pass in [true, false] {
                for set in live {
                    if set.is_empty() {
                        continue;
                    }
                    let passes = density_of(set) >= DENSITY_GUARD * best_density;
                    if passes != guarded_pass {
                        continue;
                    }
                    if let Some(placed) =
                        place(config, set, cluster, beta, mem_mb, device_mb, rk, discount)
                    {
                        if let Some(tr) = trace.as_deref_mut() {
                            let mut ev = DecisionEvent::new(DecisionKind::Chosen);
                            ev.server = placed.server.raw() as i64;
                            ev.batch = placed.config.batch();
                            ev.cpu = placed.config.resources().cpu_cores();
                            ev.gpu = placed.config.resources().gpu_pct();
                            ev.value = (placed.window.r_up() * discount).min(rk)
                                / weighted(placed.config.resources(), beta);
                            ev.aux = discount;
                            tr.push(ev);
                        }
                        rk -= placed.window.r_up();
                        out.instances.push(placed);
                        continue 'outer;
                    }
                    // Feasible configs exist but nowhere fits: a smaller
                    // batchsize may still fit (it admits smaller configs).
                    if let Some(tr) = trace.as_deref_mut() {
                        let mut ev = DecisionEvent::new(DecisionKind::Reject);
                        ev.reason = DecisionReason::Memory;
                        ev.batch = set[0].batch;
                        ev.value = rk;
                        tr.push(ev);
                    }
                }
            }
            break; // nothing feasible/placeable remains
        }
        out.unplaced_rps = rk.max(0.0);
        if out.unplaced_rps > 1e-9 {
            if let Some(tr) = trace {
                let mut ev = DecisionEvent::new(DecisionKind::Reject);
                ev.reason = DecisionReason::Unplaced;
                ev.value = out.unplaced_rps;
                tr.push(ev);
            }
        }
        out
    }

    /// The next feasible rung up for an in-place resize: among the
    /// memoized candidates on the same side of the CPU/GPU boundary
    /// (a resize never migrates across devices), the one with the
    /// smallest `r_up` strictly above `current_r_up`. Ties break on
    /// weighted cost, then batch, then ⟨c, g⟩ — fully deterministic,
    /// and independent of which function warmed the shared memo.
    pub fn upgrade_candidate(
        &mut self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        current: ResourceConfig,
        current_r_up: f64,
    ) -> Option<ResizeCandidate> {
        let beta = predictor.beta();
        let gpu_kind = current.gpu_pct() > 0;
        let plan = plan_entry(&mut self.cache, self.config, predictor, function);
        best_resize(plan, beta, |c| {
            (c.cfg.gpu_pct() > 0) == gpu_kind && c.window.r_up() > current_r_up * (1.0 + 1e-9)
        })
    }

    /// The symmetric rung down for downsize-before-park: the cheapest
    /// (by weighted cost) candidate on the same side of the CPU/GPU
    /// boundary that is strictly cheaper than `current` yet still
    /// covers `min_r_up`. Ties break on `r_up`, then batch, then
    /// ⟨c, g⟩.
    pub fn downsize_candidate(
        &mut self,
        predictor: &CopPredictor,
        function: &FunctionInfo,
        current: ResourceConfig,
        min_r_up: f64,
    ) -> Option<ResizeCandidate> {
        let beta = predictor.beta();
        let gpu_kind = current.gpu_pct() > 0;
        let current_weight = weighted(current, beta);
        let plan = plan_entry(&mut self.cache, self.config, predictor, function);
        best_resize(plan, beta, |c| {
            (c.cfg.gpu_pct() > 0) == gpu_kind
                && weighted(c.cfg, beta) < current_weight - 1e-9
                && c.window.r_up() >= min_r_up
        })
    }
}

/// Deterministic argmin over the memoized candidates that survive
/// `keep`: smallest `(r_up, weighted, batch, c, g)` lexicographically.
/// For upgrades that is "the next rung up" (keep already floors
/// `r_up`); for downsizes the weighted-cost filter makes the minimal
/// `r_up` survivor the cheapest adequate config.
fn best_resize(
    plan: &CachedCandidates,
    beta: f64,
    keep: impl Fn(&Candidate) -> bool,
) -> Option<ResizeCandidate> {
    let key = |c: &Candidate| {
        (
            c.window.r_up(),
            weighted(c.cfg, beta),
            c.batch,
            c.cfg.cpu_cores(),
            c.cfg.gpu_pct(),
        )
    };
    let mut best: Option<&Candidate> = None;
    for c in plan.masters.iter().flatten().filter(|c| keep(c)) {
        let better = match best {
            None => true,
            Some(b) => {
                let (ra, wa, ba, ca, ga) = key(c);
                let (rb, wb, bb, cb, gb) = key(b);
                ra.partial_cmp(&rb)
                    .expect("rates are finite")
                    .then(wa.partial_cmp(&wb).expect("weights are finite"))
                    .then(ba.cmp(&bb))
                    .then(ca.cmp(&cb))
                    .then(ga.cmp(&gb))
                    .is_lt()
            }
        };
        if better {
            best = Some(c);
        }
    }
    best.map(|c| ResizeCandidate {
        batch: c.batch,
        resources: c.cfg,
        window: c.window,
        predicted_exec: c.t_exec,
    })
}

/// The residual-independent part of `AvailableConfig(b, R_k, t_slo)`
/// for one `⟨b, cfg⟩` point: the candidate when its predicted
/// execution time keeps the SLO feasible, else the reason of the first
/// check that failed and the value it read (ms; 0 when it read none).
/// The residual-rate saturation bound is applied per round by
/// `schedule`.
///
/// Autoregressive functions are checked in two phases, split along the
/// prefill/decode boundary. A configuration survives only when
///
/// 1. a full batch of mean-length prompts prefills within the TTFT
///    SLO (the compute-bound phase sets time-to-first-token), and
/// 2. one decode step at the arena-capped concurrent-sequence
///    capacity — the worst KV-cache pressure an admitted batch can
///    reach — stays within the TPOT SLO.
///
/// The Eq. 1 window then uses the *effective* batch service time,
/// prefill plus `output_tokens_mean` decode steps, so the arrival-rate
/// bounds reflect the whole episode rather than a single pass.
fn check_candidate(
    predictor: &CopPredictor,
    spec: &ModelSpec,
    slo: SimDuration,
    llm: Option<&LlmClass>,
    b: u32,
    cfg: ResourceConfig,
) -> Result<Candidate, (DecisionReason, f64)> {
    let t_exec = match llm {
        None => predictor
            .predict(spec, b, cfg)
            .ok_or((DecisionReason::NoProfile, 0.0))?,
        Some(llm) => {
            // The KV arena lives in device memory: autoregressive
            // instances are GPU-resident by construction.
            if cfg.gpu_pct() == 0 {
                return Err((DecisionReason::Memory, 0.0));
            }
            let prompt = u64::from(llm.prompt_tokens_mean);
            // Concurrency is capped by both the batch knob and the KV
            // arena.
            let n_cap = b.min(llm.max_concurrent_seqs());
            let kv_mb = (f64::from(n_cap)
                * f64::from(llm.prompt_tokens_mean + llm.output_tokens_mean)
                * llm.kv_mb_per_token)
                .min(llm.kv_arena_mb);
            let prefill = predictor.prefill_latency(spec, prompt.saturating_mul(u64::from(b)), cfg);
            if prefill > llm.ttft_slo {
                return Err((DecisionReason::Ttft, prefill.as_millis_f64()));
            }
            let step = predictor.decode_step_latency(spec, n_cap, kv_mb, cfg);
            if step > llm.tpot_slo {
                return Err((DecisionReason::Tpot, step.as_millis_f64()));
            }
            prefill + step.mul_f64(f64::from(llm.output_tokens_mean))
        }
    };
    let window = RpsWindow::for_instance(t_exec, slo, b)
        .ok_or_else(|| (DecisionReason::Window, t_exec.as_millis_f64()))?;
    Ok(Candidate {
        batch: b,
        cfg,
        window,
        t_exec,
    })
}

#[allow(clippy::too_many_arguments)]
fn place(
    config: SchedulerConfig,
    candidates: &[Candidate],
    cluster: &mut ClusterState,
    beta: f64,
    mem_mb: f64,
    device_mb: f64,
    rk: f64,
    discount: f64,
) -> Option<ScheduledInstance> {
    let chosen: Option<(Candidate, ServerId)> = match config.placement {
        PlacementStrategy::Efficiency => {
            choose_by_efficiency(candidates, cluster, beta, mem_mb, device_mb, rk, discount)
        }
        PlacementStrategy::MaxThroughput => {
            // Highest-throughput config, first server it fits on.
            let mut sorted: Vec<&Candidate> = candidates.iter().collect();
            sorted.sort_by(|a, b| {
                b.window
                    .r_up()
                    .partial_cmp(&a.window.r_up())
                    .expect("rates are finite")
            });
            sorted
                .iter()
                .find_map(|c| first_fit(cluster, c.cfg, mem_mb, device_mb).map(|s| (**c, s)))
        }
        PlacementStrategy::FirstFit => candidates
            .iter()
            .find_map(|c| first_fit(cluster, c.cfg, mem_mb, device_mb).map(|s| (*c, s))),
    };
    let (cand, server) = chosen?;
    let placement = cluster
        .allocate_on_with_split(server, cand.cfg, mem_mb, device_demand(cand.cfg, device_mb))
        .expect("server was checked to fit");
    Some(ScheduledInstance {
        config: InstanceConfig::new(cand.batch, cand.cfg),
        server,
        placement,
        window: cand.window,
        predicted_exec: cand.t_exec,
    })
}

/// The device-memory demand a configuration books: the model's weights
/// occupy device memory only when the instance holds a GPU slice.
fn device_demand(cfg: ResourceConfig, device_mb: f64) -> f64 {
    if cfg.gpu_pct() > 0 {
        device_mb
    } else {
        0.0
    }
}

/// A batchsize is skipped on the first selection pass when its best
/// configuration delivers less than this fraction of the useful
/// throughput per weighted resource achievable at another batchsize.
const DENSITY_GUARD: f64 = 0.5;

/// Amortization constant for the startup-cost term of
/// [`Scheduler::schedule_with_cost`]: a candidate's throughput is
/// discounted by `1 / (1 + κ·startup_secs)`, i.e. the share of a
/// nominal ~60 s serving life the instance spends starting up. A cold
/// boot (seconds) discounts visibly; a host-RAM swap-in (hundreds of
/// ms) barely at all — which is exactly the gap Algorithm 1 must see
/// to prefer swap-capable placements under churn.
const STARTUP_KAPPA: f64 = 1.0 / 60.0;

#[derive(Debug, Clone, Copy)]
struct Candidate {
    batch: u32,
    cfg: ResourceConfig,
    window: RpsWindow,
    t_exec: SimDuration,
}

impl Candidate {
    /// *Useful* throughput per weighted resource unit — the Eq. 2
    /// objective for this scheduling round. Capacity beyond the residual
    /// rate `rk` serves nothing, so it must not inflate a candidate's
    /// efficiency: an over-provisioned GPU slice with a huge `r_up` is
    /// exactly the resource waste Eq. 2 minimizes. The startup
    /// `discount` (1.0 without a cost term) shaves the throughput an
    /// instance loses to its launch delay *before* the cap, so a round
    /// that must boot cold values exactly-sized candidates below
    /// slightly over-provisioned ones.
    fn density(&self, beta: f64, rk: f64, discount: f64) -> f64 {
        (self.window.r_up() * discount).min(rk) / weighted(self.cfg, beta)
    }
}

/// The lowest-id server that fits `cfg`, scanning one representative
/// per server-state class.
fn first_fit(
    cluster: &mut ClusterState,
    cfg: ResourceConfig,
    mem_mb: f64,
    device_mb: f64,
) -> Option<ServerId> {
    first_fit_among(cluster.class_representatives(), cfg, mem_mb, device_mb)
}

fn first_fit_among<'a>(
    mut servers: impl Iterator<Item = &'a Server>,
    cfg: ResourceConfig,
    mem_mb: f64,
    device_mb: f64,
) -> Option<ServerId> {
    servers
        .find(|s| s.fits_with_split(cfg, mem_mb, device_demand(cfg, device_mb)))
        .map(|s| s.id())
}

/// Eq. 10's joint config/server choice, scanning one representative
/// per server-state class. Exactly the choice a scan of every server
/// makes: class members score alike, and the strict `>` below keeps
/// the lowest id of a winning class.
#[allow(clippy::too_many_arguments)]
fn choose_by_efficiency(
    candidates: &[Candidate],
    cluster: &mut ClusterState,
    beta: f64,
    mem_mb: f64,
    device_mb: f64,
    rk: f64,
    discount: f64,
) -> Option<(Candidate, ServerId)> {
    let servers = cluster.class_representatives();
    choose_among(candidates, servers, beta, mem_mb, device_mb, rk, discount)
}

#[allow(clippy::too_many_arguments)]
fn choose_among<'a>(
    candidates: &[Candidate],
    servers: impl Iterator<Item = &'a Server> + Clone,
    beta: f64,
    mem_mb: f64,
    device_mb: f64,
    rk: f64,
    discount: f64,
) -> Option<(Candidate, ServerId)> {
    // Normalizer for the RPS/resource numerator. The numerator counts
    // only *useful* throughput (capped at the residual rate): without
    // the cap, a config with a massively over-provisioned r_up can
    // out-score an adequate one purely through Eq. 10's fragment term.
    let max_density = candidates
        .iter()
        .map(|c| c.density(beta, rk, discount))
        .fold(0.0f64, f64::max);
    if max_density <= 0.0 {
        return None;
    }
    let mut best: Option<(f64, Candidate, ServerId)> = None;
    for c in candidates {
        let density = c.density(beta, rk, discount) / max_density;
        for server in servers.clone() {
            if !server.fits_with_split(c.cfg, mem_mb, device_demand(c.cfg, device_mb)) {
                continue;
            }
            let free = beta * f64::from(server.cpu_free()) + f64::from(server.gpu_free_total());
            let frag = 1.0 - weighted(c.cfg, beta) / free;
            // A perfect fill (frag → 0) gets an effectively infinite
            // score; ties between perfect fills break on density.
            let e = if frag <= 1e-9 {
                1e12 * density
            } else {
                density / frag
            };
            if best.as_ref().is_none_or(|(b, ..)| e > *b) {
                best = Some((e, *c, server.id()));
            }
        }
    }
    best.map(|(_, c, s)| (c, s))
}

fn weighted(cfg: ResourceConfig, beta: f64) -> f64 {
    beta * f64::from(cfg.cpu_cores()) + f64::from(cfg.gpu_pct())
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_cluster::{ClusterSpec, ServerHealth};
    use infless_models::{profile::ConfigGrid, HardwareModel, ModelId, ProfileDatabase};
    use proptest::prelude::*;

    /// The linear first-fit scan the class index replaced: the oracle
    /// for [`first_fit`].
    fn first_fit_linear(
        cluster: &ClusterState,
        cfg: ResourceConfig,
        mem_mb: f64,
        device_mb: f64,
    ) -> Option<ServerId> {
        first_fit_among(cluster.servers().iter(), cfg, mem_mb, device_mb)
    }

    /// The linear Eq. 10 scan the class index replaced: the oracle for
    /// [`choose_by_efficiency`].
    #[allow(clippy::too_many_arguments)]
    fn choose_by_efficiency_linear(
        candidates: &[Candidate],
        cluster: &ClusterState,
        beta: f64,
        mem_mb: f64,
        device_mb: f64,
        rk: f64,
        discount: f64,
    ) -> Option<(Candidate, ServerId)> {
        choose_among(
            candidates,
            cluster.servers().iter(),
            beta,
            mem_mb,
            device_mb,
            rk,
            discount,
        )
    }

    fn predictor() -> CopPredictor {
        let hw = HardwareModel::default();
        let specs: Vec<ModelSpec> = ModelId::all().iter().map(|id| id.spec()).collect();
        let db = ProfileDatabase::cached(&hw, &specs, &ConfigGrid::standard(), 5);
        CopPredictor::new(db, hw)
    }

    fn slo_ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn schedules_enough_capacity_for_residual() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::ResNet50.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            300.0,
            &mut cluster,
        );
        assert_eq!(out.unplaced_rps, 0.0);
        let capacity: f64 = out.instances.iter().map(|i| i.window.r_up()).sum();
        assert!(capacity >= 300.0, "capacity {capacity} < residual 300");
        assert!(!out.instances.is_empty());
    }

    #[test]
    fn every_instance_meets_predicted_slo() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::Ssd.spec();
        let slo = slo_ms(200);
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec, slo),
            500.0,
            &mut cluster,
        );
        for inst in &out.instances {
            if inst.config.batch() > 1 {
                assert!(inst.predicted_exec.as_secs_f64() <= slo.as_secs_f64() / 2.0 + 1e-9);
            } else {
                assert!(inst.predicted_exec <= slo);
            }
        }
    }

    #[test]
    fn prefers_large_batches_under_high_load() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::ResNet50.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            2000.0,
            &mut cluster,
        );
        let max_batch = out
            .instances
            .iter()
            .map(|i| i.config.batch())
            .max()
            .unwrap();
        assert!(
            max_batch >= 8,
            "expected large batches, got max {max_batch}"
        );
    }

    #[test]
    fn low_residual_uses_small_batches() {
        // A residual of 3 RPS cannot saturate big batches within the SLO
        // for a slow model, so small batchsizes must be chosen.
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::BertV1.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            3.0,
            &mut cluster,
        );
        assert!(!out.instances.is_empty());
        for inst in &out.instances {
            assert!(
                inst.config.batch() <= 4,
                "batch {} cannot saturate at 3 RPS",
                inst.config.batch()
            );
        }
    }

    #[test]
    fn moderate_residual_avoids_wasteful_batch_upgrade() {
        // Regression: at a residual just above one b=1 instance's r_up,
        // largest-batch-first used to jump to the next batchsize — for
        // SSD at 200 ms that batch is feasible only on near-server-sized
        // configurations (~50 weighted units for ~14 RPS), ~20× less
        // throughput per resource than two b=1 instances. The density
        // guard must keep the allocation on the efficient configs.
        let p = predictor();
        let beta = p.beta();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::Ssd.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec, slo_ms(200)),
            14.3,
            &mut cluster,
        );
        assert!(out.unplaced_rps <= 1e-9, "14.3 RPS must be placeable");
        let capacity: f64 = out.instances.iter().map(|i| i.window.r_up()).sum();
        let density = capacity / cluster.weighted_in_use(beta);
        assert!(
            density > 5.0,
            "wasteful batch upgrade: {capacity:.1} RPS on {:.1} weighted units",
            cluster.weighted_in_use(beta)
        );
    }

    #[test]
    fn disabling_batching_caps_batch_at_one() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::ResNet50.spec();
        let cfg = SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        let out = Scheduler::new(cfg).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            200.0,
            &mut cluster,
        );
        assert!(out.instances.iter().all(|i| i.config.batch() == 1));
    }

    #[test]
    fn batching_improves_capacity_per_resource() {
        // The BB ablation (Fig. 11): with batching disabled, each unit
        // of hybrid resource provides substantially less serving
        // capacity.
        let p = predictor();
        let spec = ModelId::ResNet50.spec();
        let beta = p.beta();

        let density = |max_batch: u32| {
            let mut cluster = ClusterSpec::testbed().build();
            let out = Scheduler::new(SchedulerConfig {
                max_batch,
                ..SchedulerConfig::default()
            })
            .schedule(
                &p,
                &FunctionInfo::new(spec.clone(), slo_ms(200)),
                400.0,
                &mut cluster,
            );
            let capacity: f64 = out.instances.iter().map(|i| i.window.r_up()).sum();
            capacity / cluster.weighted_in_use(beta)
        };

        let batched = density(u32::MAX);
        let unbatched = density(1);
        assert!(
            batched > unbatched * 1.3,
            "batching should raise capacity density: {batched} vs {unbatched}"
        );
    }

    #[test]
    fn reports_unplaced_when_cluster_exhausted() {
        let p = predictor();
        let mut cluster = ClusterSpec {
            servers: 1,
            cores_per_server: 2,
            gpus_per_server: 0,
            mem_per_server_mb: 128.0 * 1024.0,
            gpu_mem_per_device_mb: 0.0,
        }
        .build();
        let spec = ModelId::BertV1.spec();
        // BERT cannot meet 200ms on <=2 CPU cores at all.
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            100.0,
            &mut cluster,
        );
        assert!(out.unplaced_rps > 0.0);
    }

    #[test]
    fn scheduling_is_deterministic() {
        let p = predictor();
        let spec = ModelId::TextCnn69.spec();
        let run = || {
            let mut cluster = ClusterSpec::testbed().build();
            Scheduler::new(SchedulerConfig::default()).schedule(
                &p,
                &FunctionInfo::new(spec.clone(), slo_ms(50)),
                800.0,
                &mut cluster,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn efficiency_placement_wins_at_saturation() {
        // The RS claim (Figs. 11/17b): when the cluster is driven to
        // saturation across a mixed set of functions, the Eq. 10
        // efficiency placement extracts at least as much total serving
        // capacity from the same hardware as throughput-greedy
        // placement.
        let p = predictor();
        let specs = [
            ModelId::ResNet50.spec(),
            ModelId::Ssd.spec(),
            ModelId::MobileNet.spec(),
            ModelId::VggNet.spec(),
        ];

        let capacity_of = |placement: PlacementStrategy| {
            let mut cluster = ClusterSpec::testbed().build();
            let mut sched = Scheduler::new(SchedulerConfig {
                placement,
                ..SchedulerConfig::default()
            });
            let mut capacity = 0.0;
            for spec in &specs {
                let out = sched.schedule(
                    &p,
                    &FunctionInfo::new(spec.clone(), slo_ms(200)),
                    1e5,
                    &mut cluster,
                );
                capacity += out.instances.iter().map(|i| i.window.r_up()).sum::<f64>();
            }
            capacity
        };

        let eff = capacity_of(PlacementStrategy::Efficiency);
        let naive = capacity_of(PlacementStrategy::MaxThroughput);
        assert!(
            eff >= naive * 0.98,
            "Eq. 10 placement should not lose capacity: {eff} vs {naive}"
        );
    }

    #[test]
    fn zero_residual_schedules_nothing() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::Mnist.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(50)),
            0.0,
            &mut cluster,
        );
        assert!(out.instances.is_empty());
        assert_eq!(out.unplaced_rps, 0.0);
        assert_eq!(cluster.cpu_in_use(), 0);
    }

    #[test]
    fn memory_constrained_cluster_limits_placement() {
        // Same cores/GPUs as the testbed, but only enough memory on the
        // whole cluster for a couple of Bert-v1 instances (~541 MB
        // each): the scheduler must stop at the memory wall instead of
        // over-packing.
        let p = predictor();
        let mem_needed = p.instance_memory_mb(&ModelId::BertV1.spec());
        let mut cluster = ClusterSpec {
            servers: 1,
            cores_per_server: 32,
            gpus_per_server: 2,
            mem_per_server_mb: mem_needed * 2.5,
            gpu_mem_per_device_mb: 0.0,
        }
        .build();
        let spec = ModelId::BertV1.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(350)),
            1e4,
            &mut cluster,
        );
        assert!(
            out.instances.len() <= 2,
            "memory allows at most 2 instances, got {}",
            out.instances.len()
        );
        assert!(out.unplaced_rps > 0.0, "the memory wall must be reported");
        assert!(cluster.mem_in_use_mb() <= cluster.mem_capacity_mb());
    }

    #[test]
    fn zero_cost_schedule_is_bit_identical_to_classic() {
        // `schedule` delegates to `schedule_with_cost(ZERO, 0.0)`; the
        // discount is then exactly 1.0 and no device memory is booked,
        // so both entry points must produce the same placements.
        let p = predictor();
        let spec = ModelId::ResNet50.spec();
        let run = |with_cost: bool| {
            let mut cluster = ClusterSpec::testbed().build();
            let mut sched = Scheduler::new(SchedulerConfig::default());
            let f = FunctionInfo::new(spec.clone(), slo_ms(200));
            let out = if with_cost {
                sched.schedule_with_cost(&p, &f, 300.0, &mut cluster, SimDuration::ZERO, 0.0)
            } else {
                sched.schedule(&p, &f, 300.0, &mut cluster)
            };
            (out, cluster.gpu_mem_in_use_mb())
        };
        let (classic, classic_dev) = run(false);
        let (costed, costed_dev) = run(true);
        assert_eq!(classic, costed);
        assert_eq!(classic_dev, 0.0);
        assert_eq!(costed_dev, 0.0);
    }

    #[test]
    fn device_memory_is_booked_for_gpu_placements() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::ResNet50.spec();
        let device_mb = spec.size_mb();
        let out = Scheduler::new(SchedulerConfig::default()).schedule_with_cost(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            300.0,
            &mut cluster,
            SimDuration::from_millis(250),
            device_mb,
        );
        let gpu_instances = out
            .instances
            .iter()
            .filter(|i| i.config.resources().gpu_pct() > 0)
            .count() as f64;
        assert_eq!(cluster.gpu_mem_in_use_mb(), gpu_instances * device_mb);
        // Releasing every placement returns the device books to zero.
        for inst in &out.instances {
            cluster.release(inst.config.resources(), inst.placement);
        }
        assert_eq!(cluster.gpu_mem_in_use_mb(), 0.0);
    }

    #[test]
    fn startup_cost_discounts_exactly_sized_candidates() {
        // The discount only changes decisions through the rk cap: with
        // a multi-second cold boot the effective throughput of an
        // exactly-sized candidate drops below the residual while an
        // over-provisioned one stays capped — the ranking can flip.
        // Contract here: the cost-aware round still covers the residual
        // and never regresses into unplaced load on an empty testbed.
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::ResNet50.spec();
        let out = Scheduler::new(SchedulerConfig::default()).schedule_with_cost(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(200)),
            300.0,
            &mut cluster,
            SimDuration::from_secs(8),
            0.0,
        );
        assert_eq!(out.unplaced_rps, 0.0);
        let capacity: f64 = out.instances.iter().map(|i| i.window.r_up()).sum();
        assert!(capacity >= 300.0, "cost-aware round under-provisioned");
    }

    #[test]
    fn llm_two_phase_feasibility_gates_configs() {
        // Autoregressive functions route through the two-phase cost
        // model: every chosen configuration must be GPU-resident (the
        // KV arena lives in device memory), prefill a full batch of
        // mean prompts within the TTFT SLO, and hold the decode step
        // under the TPOT SLO at arena-capped concurrency.
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::BertV1.spec();
        let llm = LlmClass::chat();
        let f = FunctionInfo::new(spec.clone(), slo_ms(5_000)).with_llm(llm);
        let out = Scheduler::new(SchedulerConfig::default()).schedule(&p, &f, 50.0, &mut cluster);
        assert!(!out.instances.is_empty(), "chat load must be placeable");
        for inst in &out.instances {
            let cfg = inst.config.resources();
            assert!(cfg.gpu_pct() > 0, "LLM instances must hold a GPU slice");
            let b = inst.config.batch();
            let prefill =
                p.prefill_latency(&spec, u64::from(llm.prompt_tokens_mean) * u64::from(b), cfg);
            assert!(
                prefill <= llm.ttft_slo,
                "prefill {prefill:?} breaches TTFT SLO {:?}",
                llm.ttft_slo
            );
            let n_cap = b.min(llm.max_concurrent_seqs());
            let kv_mb = (f64::from(n_cap)
                * f64::from(llm.prompt_tokens_mean + llm.output_tokens_mean)
                * llm.kv_mb_per_token)
                .min(llm.kv_arena_mb);
            let step = p.decode_step_latency(&spec, n_cap, kv_mb, cfg);
            assert!(
                step <= llm.tpot_slo,
                "decode step {step:?} breaches TPOT SLO {:?}",
                llm.tpot_slo
            );
        }
    }

    #[test]
    fn impossible_tpot_slo_yields_no_instances() {
        // A TPOT target no configuration can meet must surface as
        // unplaced load, not as instances that will melt their SLO.
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::BertV1.spec();
        let mut llm = LlmClass::chat();
        llm.tpot_slo = SimDuration::from_micros(1);
        let f = FunctionInfo::new(spec, slo_ms(5_000)).with_llm(llm);
        let out = Scheduler::new(SchedulerConfig::default()).schedule(&p, &f, 50.0, &mut cluster);
        assert!(out.instances.is_empty());
        assert!(out.unplaced_rps > 0.0);
    }

    #[test]
    fn llm_and_oneshot_candidates_do_not_alias() {
        // Same model, same SLO, same batch cap — one function one-shot,
        // one autoregressive. The memo key's class discriminant must
        // keep their candidate sets apart (the LLM set is GPU-only).
        let p = predictor();
        let spec = ModelId::BertV1.spec();
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let mut cluster = ClusterSpec::testbed().build();
        let oneshot = sched.schedule(
            &p,
            &FunctionInfo::new(spec.clone(), slo_ms(5_000)),
            10.0,
            &mut cluster,
        );
        let llm = sched.schedule(
            &p,
            &FunctionInfo::new(spec, slo_ms(5_000)).with_llm(LlmClass::chat()),
            10.0,
            &mut cluster,
        );
        assert!(!oneshot.instances.is_empty());
        assert!(!llm.instances.is_empty());
        assert!(llm
            .instances
            .iter()
            .all(|i| i.config.resources().gpu_pct() > 0));
    }

    /// A candidate set spanning CPU-only and GPU slices, batchsizes and
    /// execution times, so Eq. 10 scores differ across candidates.
    fn synthetic_candidates(shift: u32) -> Vec<Candidate> {
        let slo = slo_ms(400);
        [
            (1, 0),
            (2, 0),
            (4, 0),
            (1, 10),
            (2, 25),
            (4, 50),
            (8, 100),
            (2, 50),
        ]
        .iter()
        .enumerate()
        .filter_map(|(i, &(cpu, gpu))| {
            let batch = 1 << (i % 3);
            let t_exec = SimDuration::from_millis(20 + u64::from((shift + 7 * i as u32) % 60));
            let window = RpsWindow::for_instance(t_exec, slo, batch)?;
            Some(Candidate {
                batch,
                cfg: ResourceConfig::new(cpu, gpu),
                window,
                t_exec,
            })
        })
        .collect()
    }

    fn pick(chosen: Option<(Candidate, ServerId)>) -> Option<(u32, ResourceConfig, ServerId)> {
        chosen.map(|(c, s)| (c.batch, c.cfg, s))
    }

    proptest! {
        /// Oracle test: over random cluster histories (Eq. 10 and
        /// first-fit placements, targeted placements, releases,
        /// resizes, health changes, committed and rolled-back
        /// transactions, journal replay onto a replica), every placement
        /// scan over the class representatives picks the same
        /// (candidate, server) as the linear scan over every server.
        #[test]
        fn prop_class_scans_match_linear_scans(
            steps in prop::collection::vec((0u8..9, 0u32..64, 0u32..64, 0u32..4), 1..60),
        ) {
            let spec = ClusterSpec {
                servers: 6,
                cores_per_server: 8,
                gpus_per_server: 2,
                mem_per_server_mb: 4096.0,
                gpu_mem_per_device_mb: 2048.0,
            };
            let beta = 0.13;
            let gpu = [0, 10, 25, 50, 100];
            let health = [ServerHealth::Up, ServerHealth::Down, ServerHealth::Recovering];
            let mut c = spec.build();
            c.enable_journal();
            let mut replica = c.clone();
            let mut live: Vec<(ResourceConfig, Placement)> = Vec::new();
            let mut live_at_begin = Vec::new();
            for (op, a, b, m) in steps {
                let cands = synthetic_candidates(a + b);
                let cfg = ResourceConfig::new(1 + a % 4, gpu[(b % 5) as usize]);
                let mem = f64::from(m) * 256.0;
                let dev = f64::from(m) * 512.0;
                let rk = 1.0 + f64::from(a) * 37.0;
                let discount = [1.0, 0.99, 0.9, 0.5][(b % 4) as usize];

                let want = choose_by_efficiency_linear(&cands, &c, beta, mem, dev, rk, discount);
                let got = choose_by_efficiency(&cands, &mut c, beta, mem, dev, rk, discount);
                prop_assert_eq!(pick(got), pick(want));
                prop_assert_eq!(first_fit(&mut c, cfg, mem, dev), first_fit_linear(&c, cfg, mem, dev));
                let want = first_fit_linear(&c, cfg, mem, device_demand(cfg, dev));
                let got = c.clone().allocate_anywhere_with_split(cfg, mem, device_demand(cfg, dev));
                prop_assert_eq!(got.ok().map(|p| p.server()), want);

                let server = ServerId::new((a % 6) as usize);
                match op {
                    0 => {
                        if let Some((cand, s)) = choose_by_efficiency(&cands, &mut c, beta, mem, dev, rk, discount) {
                            let p = c
                                .allocate_on_with_split(s, cand.cfg, mem, device_demand(cand.cfg, dev))
                                .expect("the scan checked the fit");
                            live.push((cand.cfg, p));
                        }
                    }
                    1 => {
                        if let Ok(p) = c.allocate_anywhere_with_split(cfg, mem, device_demand(cfg, dev)) {
                            live.push((cfg, p));
                        }
                    }
                    2 => {
                        if let Ok(p) = c.allocate_on_with_split(server, cfg, mem, device_demand(cfg, dev)) {
                            live.push((cfg, p));
                        }
                    }
                    3 if !live.is_empty() => {
                        let (cfg, p) = live.swap_remove(a as usize % live.len());
                        c.release(cfg, p);
                    }
                    4 if !live.is_empty() => {
                        let i = a as usize % live.len();
                        let (old, p) = live[i];
                        let pct = if old.gpu_pct() > 0 { gpu[1 + (b % 4) as usize] } else { 0 };
                        let new = ResourceConfig::new(1 + b % 4, pct);
                        let delta = if m % 2 == 0 { 128.0 } else { -p.mem_mb().min(128.0) };
                        if let Ok(p2) = c.try_resize(p, old, new, delta) {
                            live[i] = (new, p2);
                        }
                    }
                    5 => c.set_health(server, health[(b % 3) as usize]),
                    6 if c.in_txn() => {
                        c.rollback_txn();
                        live = std::mem::take(&mut live_at_begin);
                    }
                    6 => {
                        c.begin_txn();
                        live_at_begin = live.clone();
                    }
                    7 if c.in_txn() => c.commit_txn(),
                    8 if !c.in_txn() => {
                        replica.apply_ops(&c.take_journal());
                        prop_assert_eq!(&replica, &c);
                        let want = choose_by_efficiency_linear(&cands, &replica, beta, mem, dev, rk, discount);
                        let got = choose_by_efficiency(&cands, &mut replica, beta, mem, dev, rk, discount);
                        prop_assert_eq!(pick(got), pick(want));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn allocations_match_outcome() {
        let p = predictor();
        let mut cluster = ClusterSpec::testbed().build();
        let spec = ModelId::MobileNet.spec();
        let function = FunctionInfo::new(spec.clone(), slo_ms(50));
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let out = sched.schedule(&p, &function, 300.0, &mut cluster);
        assert!(!out.instances.is_empty(), "the demand must be placeable");
        let expected_cpu: u64 = out
            .instances
            .iter()
            .map(|i| u64::from(i.config.resources().cpu_cores()))
            .sum();
        let expected_gpu: u64 = out
            .instances
            .iter()
            .map(|i| u64::from(i.config.resources().gpu_pct()))
            .sum();
        assert_eq!(cluster.cpu_in_use(), expected_cpu);
        assert_eq!(cluster.gpu_in_use(), expected_gpu);
        assert!(
            cluster.mem_in_use_mb() > 0.0,
            "placements hold model memory"
        );

        // Resize one placed instance in place before retirement: the
        // retire must release the *new* booking (committed at resize
        // initiation), on whichever placement the resize returned.
        let mut instances: Vec<_> = out
            .instances
            .iter()
            .map(|i| (i.config.resources(), i.placement))
            .collect();
        let victim = (0..out.instances.len())
            .min_by(|&a, &b| {
                let (ra, rb) = (
                    out.instances[a].window.r_up(),
                    out.instances[b].window.r_up(),
                );
                ra.partial_cmp(&rb).expect("finite rates")
            })
            .expect("non-empty");
        let (old_res, old_placement) = instances[victim];
        // Grow if a bigger rung exists, else shrink — either direction
        // exercises the resized-then-retired release path.
        let cand = sched
            .upgrade_candidate(&p, &function, old_res, out.instances[victim].window.r_up())
            .or_else(|| sched.downsize_candidate(&p, &function, old_res, 0.0))
            .expect("some other candidate rung exists");
        let new_placement = cluster
            .try_resize(old_placement, old_res, cand.resources, 0.0)
            .expect("the grow fits next to its own allocation");
        instances[victim] = (cand.resources, new_placement);

        // Retiring every placed instance must return the cluster to a
        // completely clean slate on all three resource dimensions — a
        // leak here would starve later scale-ups of a long run.
        for (res, placement) in &instances {
            cluster.release(*res, *placement);
        }
        assert_eq!(cluster.cpu_in_use(), 0, "CPU cores leak after retirement");
        assert_eq!(cluster.gpu_in_use(), 0, "GPU share leaks after retirement");
        assert_eq!(
            cluster.mem_in_use_mb(),
            0.0,
            "instance memory leaks after retirement"
        );
    }
}
