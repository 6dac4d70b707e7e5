//! The INFless platform: batch-aware dispatcher, auto-scaling engine
//! and cold-start manager wired together (Fig. 4).
//!
//! Event flow per request: the gateway receives an arrival ❶, the
//! batch-aware dispatcher routes it to the instance whose target rate
//! (three-case controller, §3.2) is least satisfied ❷; the instance's
//! built-in batch queue fills until full or timed out ❸; execution is
//! simulated by the hardware substrate ❹. Every scaler tick the
//! auto-scaling engine re-splits observed RPS across instances, parks
//! or launches capacity via Algorithm 1 ❺, and the LSTH cold-start
//! manager decides how long idle capacity survives ❻.

use std::collections::VecDeque;
use std::time::Instant;

use infless_cluster::{ClusterSpec, FunctionId, InstanceConfig, InstanceId, Request};
use infless_faults::FaultSchedule;
use infless_llm::LlmConfig;
use infless_models::{
    profile::ConfigGrid, HardwareCalibration, HardwareModel, ModelSpec, ProfileDatabase,
};
use infless_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use infless_telemetry::{DecisionEvent, DecisionKind, DecisionReason};
use infless_workload::Workload;
use serde::{Deserialize, Serialize};

use crate::batching::{split_rate, RpsWindow, DEFAULT_ALPHA};
use crate::chains::{split_slo, split_slo_equal, ChainReport, ChainSpec, ChainSplit};
use crate::coldstart::{
    ColdStartPolicy, FixedKeepAlive, HybridHistogram, Lsth, Windows, DEFAULT_GAMMA,
};
use crate::driver::{self, Platform};
use crate::engine::{CompletedBatch, Engine, EngineEvent, FaultOutcome, FunctionInfo};
use crate::metrics::{RunReport, StartupKind};
use crate::predictor::{CopPredictor, DEFAULT_OFFSET};
use crate::residency::ResidencyConfig;
use crate::router::{Admission, DeficitRouter, RouterEntry};
use crate::scheduler::{Scheduler, SchedulerConfig};

/// How the auto-scaler covers residual demand once parked capacity is
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalePolicy {
    /// Launch-only (the paper's policy): every deficit is covered by
    /// fresh instances, every excess by parking. The default — runs
    /// stay bit-identical to the pre-resize engine.
    #[default]
    Horizontal,
    /// Vertical-first hybrid: before launching, upgrade live instances
    /// in place to the next feasible ⟨b, c, g⟩ rung on the same server
    /// (a transactional in-flight resize, far cheaper than a cold
    /// start); before parking, try the symmetric downsize.
    VerticalFirst,
}

impl ScalePolicy {
    /// The wire (descriptor / CLI) name.
    pub fn name(self) -> &'static str {
        match self {
            ScalePolicy::Horizontal => "horizontal",
            ScalePolicy::VerticalFirst => "vertical-first",
        }
    }

    /// Parses a wire name (the inverse of [`Self::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "horizontal" => Some(ScalePolicy::Horizontal),
            "vertical-first" => Some(ScalePolicy::VerticalFirst),
            _ => None,
        }
    }
}

// Kebab-case wire names by hand: the vendored serde_derive only
// supports `rename_all = "lowercase"`.
impl Serialize for ScalePolicy {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl Deserialize for ScalePolicy {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::String(name) = value else {
            return Err(serde::Error::custom("scale policy must be a string"));
        };
        ScalePolicy::parse(name).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown scale policy `{name}` (expected `horizontal` or `vertical-first`)"
            ))
        })
    }
}

/// Which cold-start policy the platform's cold-start manager runs —
/// LSTH by default; HHP and fixed windows for the Fig. 16 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColdStartConfig {
    /// The paper's Long-Short Term Histogram policy.
    Lsth {
        /// Blend weight γ (§3.5, default 0.5).
        gamma: f64,
    },
    /// The hybrid histogram policy baseline (4-hour window).
    Hhp,
    /// A fixed keep-alive window with no pre-warming.
    Fixed(SimDuration),
}

impl ColdStartConfig {
    fn build(self) -> Box<dyn ColdStartPolicy> {
        match self {
            ColdStartConfig::Lsth { gamma } => Box::new(Lsth::new(gamma)),
            ColdStartConfig::Hhp => Box::new(HybridHistogram::new()),
            ColdStartConfig::Fixed(d) => Box::new(FixedKeepAlive::new(d)),
        }
    }
}

/// Sliding window of the per-function RPS monitor.
const MONITOR_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Minimum spacing between emergency (drop-triggered) scale-outs per
/// function.
const EMERGENCY_BACKOFF: SimDuration = SimDuration::from_millis(200);

/// INFless configuration: the §3 defaults plus the ablation switches
/// used by the Fig. 11 component analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflessConfig {
    /// Scale-oscillation damping constant (§3.2, default 0.8).
    pub alpha: f64,
    /// Cold-start manager policy (LSTH with γ = 0.5 by default).
    pub coldstart: ColdStartConfig,
    /// COP prediction inflation (§3.3, default 1.10; the OP ablation
    /// sets 1.5 / 2.0).
    pub cop_offset: f64,
    /// Algorithm 1 knobs (placement strategy, batch cap, greedy order).
    pub scheduler: SchedulerConfig,
    /// Auto-scaler invocation period.
    pub scaler_period: SimDuration,
    /// How chain end-to-end SLOs are divided across stages.
    pub chain_split: ChainSplit,
    /// Hardware calibration override (testbed defaults otherwise) —
    /// used by the interference/sensitivity ablations.
    pub hardware: HardwareCalibration,
    /// GPU memory tier (Torpor-style model swapping). Disabled by
    /// default: runs stay bit-identical to the pre-tier engine.
    pub residency: ResidencyConfig,
    /// Autoregressive (LLM) serving. Disabled by default: runs stay
    /// bit-identical to the pre-LLM engine.
    pub llm: LlmConfig,
    /// Residual-coverage policy (`Horizontal` by default: launch-only,
    /// bit-identical to the pre-resize engine).
    pub scale_policy: ScalePolicy,
}

impl Default for InflessConfig {
    fn default() -> Self {
        InflessConfig {
            alpha: DEFAULT_ALPHA,
            coldstart: ColdStartConfig::Lsth {
                gamma: DEFAULT_GAMMA,
            },
            cop_offset: DEFAULT_OFFSET,
            scheduler: SchedulerConfig::default(),
            scaler_period: SimDuration::from_secs(1),
            chain_split: ChainSplit::default(),
            hardware: HardwareCalibration::default(),
            residency: ResidencyConfig::default(),
            llm: LlmConfig::default(),
            scale_policy: ScalePolicy::default(),
        }
    }
}

/// Chain bookkeeping: per-function stage topology, in-flight chain
/// start times, and per-chain end-to-end reports.
#[derive(Debug, Default)]
struct ChainCtx {
    /// Which chain (index) a function belongs to, if any.
    chain_of_fn: Vec<Option<usize>>,
    /// The next stage's function index, if the function is a non-final
    /// chain stage.
    next_of_fn: Vec<Option<usize>>,
    /// Whether the function is some chain's entry stage.
    entry_of_fn: Vec<Option<usize>>,
    /// Chain-entry timestamps of in-flight stage requests.
    starts: FxHashMap<(FunctionId, u64), SimTime>,
    /// Per-chain end-to-end results.
    reports: Vec<ChainReport>,
}

impl ChainCtx {
    /// # Panics
    ///
    /// Panics if a chain references an unknown function or a function
    /// appears in more than one chain.
    fn new(specs: &[ChainSpec], functions: usize) -> Self {
        let mut ctx = ChainCtx {
            chain_of_fn: vec![None; functions],
            next_of_fn: vec![None; functions],
            entry_of_fn: vec![None; functions],
            starts: FxHashMap::default(),
            reports: specs.iter().map(ChainReport::new).collect(),
        };
        for (ci, chain) in specs.iter().enumerate() {
            for (pos, &stage) in chain.stages().iter().enumerate() {
                assert!(stage < functions, "chain stage {stage} is not deployed");
                assert!(
                    ctx.chain_of_fn[stage].is_none(),
                    "function {stage} appears in more than one chain"
                );
                ctx.chain_of_fn[stage] = Some(ci);
                ctx.next_of_fn[stage] = chain.stages().get(pos + 1).copied();
                if pos == 0 {
                    ctx.entry_of_fn[stage] = Some(ci);
                }
            }
        }
        ctx
    }

    fn chain_of(&self, f: usize) -> Option<usize> {
        self.chain_of_fn.get(f).copied().flatten()
    }

    fn next_of(&self, f: usize) -> Option<usize> {
        self.next_of_fn.get(f).copied().flatten()
    }

    fn entry_of(&self, f: usize) -> Option<usize> {
        self.entry_of_fn.get(f).copied().flatten()
    }
}

/// The router retune an in-flight resize will apply when its
/// [`EngineEvent::ResizeComplete`] lands: the new configuration's rate
/// window and predicted execution time, carried from the scheduler's
/// candidate so completion never re-predicts.
#[derive(Debug, Clone, Copy)]
struct ResizeRetune {
    window: RpsWindow,
    predicted_exec: SimDuration,
}

/// A parked (drained, kept-alive) instance awaiting re-use.
#[derive(Debug, Clone, Copy)]
struct ParkedInstance {
    id: InstanceId,
    window: RpsWindow,
    /// Carried from the scheduler so fault recovery can judge retry
    /// feasibility without re-predicting.
    predicted_exec: SimDuration,
}

/// A request parked in the epoch-mode pending buffer, awaiting the
/// barrier flush. The two origins keep their distinct terminal
/// accounting: a fresh arrival that still cannot be placed is a
/// gateway *drop*, a fault-displaced request is *shed* (preserving the
/// `displaced = retried + shed` invariant).
#[derive(Debug)]
enum PendingRequest {
    /// A gateway/chain-relay arrival no instance could take.
    Fresh(Request),
    /// A fault-displaced request awaiting the rebuilt fleet.
    Displaced(Request),
}

/// What [`InflessPlatform::retry_displaced`] does when a displaced
/// request cannot be re-dispatched right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryMode {
    /// Shed immediately (the eager run: capacity was already rebuilt
    /// by the fault handler).
    Terminal,
    /// Park in the pending buffer until the next epoch barrier (the
    /// sharded path: scale-out is deferred, so the fleet the request
    /// needs may not exist yet).
    Defer,
}

/// Per-function platform state.
#[derive(Debug)]
struct FnState {
    coldstart: Box<dyn ColdStartPolicy>,
    recent_arrivals: VecDeque<SimTime>,
    dispatch: DeficitRouter,
    parked: Vec<ParkedInstance>,
    last_activity: SimTime,
    had_activity: bool,
    last_emergency: SimTime,
    last_consolidation: SimTime,
    cached_windows: Windows,
    windows_refreshed: Option<SimTime>,
    last_idle_recorded: SimTime,
    /// Epoch-mode only: requests waiting for the barrier flush.
    pending: Vec<PendingRequest>,
    /// Epoch-mode only: dispatch throughput lost to kill directives
    /// since the last barrier, recaptured at the next flush.
    pending_lost_rate: f64,
    /// Epoch-mode only: the startup-kind verdict captured when the
    /// first unplaceable request of the epoch was deferred, evaluated
    /// against the *pre-arrival* activity — exactly the evidence the
    /// legacy emergency path uses at scale-out time.
    pending_startup: Option<StartupKind>,
    /// When the model's weights last entered host RAM (any launch),
    /// `None` before the first launch. With the residency tier enabled
    /// the host copy survives past instance retirement for the host
    /// keep-alive window, turning relaunches into swap-ins.
    host_copy_since: Option<SimTime>,
    /// Whether the one-time Algorithm 1 candidate-grid walk has been
    /// emitted on the decisions channel for this function.
    candidates_traced: bool,
    /// Router retunes awaiting their in-flight resizes' completion,
    /// keyed by instance. Entries for instances that die mid-resize
    /// are purged with the routing tables.
    resize_retunes: FxHashMap<InstanceId, ResizeRetune>,
    /// Sub-minute idle gaps swallowed by the 5 s recording rate limit
    /// since the last recorded sample — folded back into the histogram
    /// (count × max) at the next recorded sample so dense traffic
    /// keeps its bin mass.
    suppressed_idle_gaps: u64,
    /// The largest suppressed gap — the conservative stand-in value
    /// the folded samples are recorded at.
    suppressed_idle_max: SimDuration,
}

/// The INFless platform. Create with [`InflessPlatform::new`], then
/// [`InflessPlatform::run`] a workload to get a [`RunReport`] (or
/// [`driver::run`] it under a fault schedule).
#[derive(Debug)]
pub struct InflessPlatform {
    pub(crate) engine: Engine,
    predictor: CopPredictor,
    scheduler: Scheduler,
    pub(crate) config: InflessConfig,
    fns: Vec<FnState>,
    chains: ChainCtx,
    /// Dispatch counter driving the sampled (1-in-64) wall-clock
    /// overhead measurement; deterministic, and the timing itself never
    /// feeds back into simulated state.
    dispatch_tick: u32,
}

impl InflessPlatform {
    /// Builds the platform: profiles the deployed models' operators
    /// offline (the ❸ profile database of Fig. 4) and initializes the
    /// per-function controllers.
    pub fn new(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        config: InflessConfig,
        seed: u64,
    ) -> Self {
        Self::with_chains(cluster, functions, Vec::new(), config, seed)
    }

    /// Builds the platform with declared function chains (the §7
    /// future-work extension; see [`crate::chains`]). Each chain's
    /// end-to-end SLO is split across its stages (overriding the
    /// stages' standalone SLOs) and every completed stage request is
    /// relayed to the next stage automatically.
    ///
    /// # Panics
    ///
    /// Panics if a chain references an unknown function, a function
    /// appears in more than one chain, or some chain stage has no
    /// profiled configuration.
    pub fn with_chains(
        cluster: ClusterSpec,
        mut functions: Vec<FunctionInfo>,
        chain_specs: Vec<ChainSpec>,
        config: InflessConfig,
        seed: u64,
    ) -> Self {
        let construction_started = std::time::Instant::now();
        let hardware = HardwareModel::new(config.hardware);
        let specs: Vec<ModelSpec> = functions.iter().map(|f| f.spec().clone()).collect();
        let (db, cache_outcome) =
            ProfileDatabase::cached_with_outcome(&hardware, &specs, &ConfigGrid::standard(), seed);
        let predictor = CopPredictor::with_offset(db, hardware.clone(), config.cop_offset);
        // Chain setup: split each end-to-end SLO across its stages and
        // override the stage functions' SLOs accordingly.
        let chains = ChainCtx::new(&chain_specs, functions.len());
        for chain in &chain_specs {
            let slos = match config.chain_split {
                ChainSplit::Proportional => split_slo(&predictor, &specs, chain)
                    .expect("every chain stage must be deployed and profiled"),
                ChainSplit::Equal => split_slo_equal(chain),
            };
            for (&stage, slo) in chain.stages().iter().zip(slos) {
                let llm = functions[stage].llm().copied();
                let mut rebuilt = FunctionInfo::with_max_batch(
                    functions[stage].spec().clone(),
                    slo,
                    functions[stage].max_batch(),
                );
                // The SLO override must not strip the stage's
                // autoregressive class.
                if let Some(llm) = llm {
                    rebuilt = rebuilt.with_llm(llm);
                }
                functions[stage] = rebuilt;
            }
        }
        let scheduler = Scheduler::new(config.scheduler);
        let n = functions.len();
        let mut engine = Engine::new("INFless", cluster, hardware, functions, seed);
        if config.residency.enabled {
            engine.enable_device_memory();
        }
        engine.apply_llm(config.llm);
        engine.opened = Some(Vec::new());
        engine.collector.started = construction_started;
        engine.collector.report.profile_cache = Some(cache_outcome);
        let fns = (0..n)
            .map(|_| FnState {
                coldstart: config.coldstart.build(),
                recent_arrivals: VecDeque::new(),
                dispatch: DeficitRouter::new(),
                parked: Vec::new(),
                last_activity: SimTime::ZERO,
                had_activity: false,
                last_emergency: SimTime::ZERO,
                last_consolidation: SimTime::ZERO,
                cached_windows: Windows {
                    pre_warm: SimDuration::ZERO,
                    keep_alive: SimDuration::from_hours(4),
                },
                windows_refreshed: None,
                last_idle_recorded: SimTime::ZERO,
                pending: Vec::new(),
                pending_lost_rate: 0.0,
                pending_startup: None,
                host_copy_since: None,
                candidates_traced: false,
                resize_retunes: FxHashMap::default(),
                suppressed_idle_gaps: 0,
                suppressed_idle_max: SimDuration::ZERO,
            })
            .collect();
        InflessPlatform {
            engine,
            predictor,
            scheduler,
            config,
            fns,
            chains,
            dispatch_tick: 0,
        }
    }

    /// Access to the COP predictor (for the Fig. 8 experiment).
    pub fn predictor(&self) -> &CopPredictor {
        &self.predictor
    }

    /// Runs the workload to completion with no faults injected and
    /// returns the report.
    pub fn run(self, workload: &Workload) -> RunReport {
        driver::run(self, workload, &FaultSchedule::empty())
    }
}

impl Platform for InflessPlatform {
    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn tick_period(&self) -> SimDuration {
        self.config.scaler_period
    }

    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        // A gateway arrival at a chain's entry stage starts that
        // chain's end-to-end clock.
        let chain_start = self.chains.entry_of(f).map(|_| self.engine.now());
        self.deliver(f, chain_start, queue);
    }

    fn on_done(&mut self, done: &CompletedBatch, queue: &mut EventQueue<EngineEvent>) {
        self.fns[done.function].last_activity = self.engine.now();
        self.relay_chain_stages(done, queue);
    }

    fn on_tick(&mut self, queue: &mut EventQueue<EngineEvent>) {
        for f in 0..self.fns.len() {
            self.scaler_pass_fn(f, queue);
        }
        // Read by the gauge sampling the driver runs after the tick.
        let host_mb = self.host_cache_mb_now();
        self.engine.set_host_cache_mb(host_mb);
    }

    /// The INFless recovery policy: forget dead instances, re-run
    /// Algorithm 1 for the throughput they carried, then retry each
    /// displaced request against the rebuilt dispatch set (shedding
    /// only when the SLO budget is already exhausted or no capacity can
    /// take it). In epoch mode the recapture waits for the next barrier
    /// flush, and so do displaced requests no surviving instance can
    /// take.
    fn on_fault(&mut self, outcome: FaultOutcome, queue: &mut EventQueue<EngineEvent>) {
        // Drop dead instances from the routing tables, tallying the
        // dispatch throughput each function lost.
        let mut lost = vec![0.0f64; self.fns.len()];
        for &(f, id) in &outcome.killed {
            let st = &mut self.fns[f];
            if let Some(e) = st.dispatch.remove_by_id(id) {
                lost[f] += e.window.r_up();
            } else {
                st.parked.retain(|p| p.id != id);
            }
        }
        if self.engine.in_epoch_mode() {
            for (st, rate) in self.fns.iter_mut().zip(lost) {
                st.pending_lost_rate += rate;
            }
            for req in outcome.displaced {
                self.retry_displaced(req, RetryMode::Defer, queue);
            }
            return;
        }
        // Recapture the lost throughput with fresh Eq. 10 placements.
        for (f, rate) in lost.iter().enumerate() {
            if *rate > 0.0 {
                let startup = self.startup_kind(f);
                self.scale_out(f, *rate, startup, queue);
            }
        }
        for req in outcome.displaced {
            self.retry_or_shed(req, queue);
        }
    }

    /// Lands a completed in-flight resize: the engine has swapped the
    /// slot's configuration, so the router entry is retuned to the new
    /// configuration's window. Touches no cluster books — those moved
    /// at initiation, inside the journaled [`ClusterState::try_resize`]
    /// — so completions can land mid-epoch in sharded runs.
    ///
    /// [`ClusterState::try_resize`]: infless_cluster::ClusterState::try_resize
    fn on_resized(&mut self, f: usize, id: InstanceId, _queue: &mut EventQueue<EngineEvent>) {
        let Some(rt) = self.fns[f].resize_retunes.remove(&id) else {
            return;
        };
        let mut found = false;
        self.fns[f].dispatch.retune(|entries| {
            for e in entries {
                if e.id == id {
                    e.window = rt.window;
                    e.rate = rt.window.r_up();
                    e.sent = 0;
                    e.predicted_exec = rt.predicted_exec;
                    found = true;
                }
            }
        });
        if !found {
            // Parked (drained) while the resize was in flight: carry
            // the new window so a later unpark dispatches at it.
            for p in &mut self.fns[f].parked {
                if p.id == id {
                    p.window = rt.window;
                    p.predicted_exec = rt.predicted_exec;
                }
            }
        }
    }

    fn finish(self) -> RunReport {
        let mut report = self.engine.finish();
        report.chains = self.chains.reports;
        report
    }
}

impl InflessPlatform {
    // --- epoch (sharded) driver hooks --------------------------------------

    /// The barrier flush for one function: recapture throughput lost to
    /// kill directives, scale out once for any pending (unplaceable)
    /// requests, then give every pending request its terminal retry.
    pub(crate) fn barrier_flush_fn(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        let lost = std::mem::take(&mut self.fns[f].pending_lost_rate);
        let mut needed = lost;
        if !self.fns[f].pending.is_empty() {
            // Same residual estimate the emergency path uses: the burst
            // rate minus what the dispatch set already absorbs.
            let now = self.engine.now();
            let rps = self.instant_rps(f, now).max(1.0);
            let assigned: f64 = self.fns[f].dispatch.iter().map(|e| e.window.r_up()).sum();
            needed += (rps - assigned).max(1.0);
        }
        if needed > 0.0 {
            let startup = match self.fns[f].pending_startup.take() {
                Some(kind) => kind,
                // Pure lost-rate recapture (no deferred arrival): the
                // same live check the legacy fault path runs.
                None => self.startup_kind(f),
            };
            self.scale_out(f, needed, startup, queue);
        } else {
            self.fns[f].pending_startup = None;
        }
        let pending = std::mem::take(&mut self.fns[f].pending);
        for p in pending {
            match p {
                PendingRequest::Fresh(req) => {
                    if self.dispatch(f, req, queue)
                        || (self.unpark_one(f).is_some() && self.dispatch(f, req, queue))
                    {
                        continue;
                    }
                    self.engine.drop_request(&req);
                    if let Some(chain) = self.chains.chain_of(f) {
                        self.chains.starts.remove(&req.key());
                        self.chains.reports[chain].lost += 1;
                    }
                }
                PendingRequest::Displaced(req) => self.retry_or_shed(req, queue),
            }
        }
    }

    /// Hands over the per-chain end-to-end reports (the sharded merge
    /// collects each chain from the shard that owned its stages).
    pub(crate) fn take_chain_reports(&mut self) -> Vec<ChainReport> {
        std::mem::take(&mut self.chains.reports)
    }

    // --- dispatcher (❷) ---------------------------------------------------

    /// Delivers one request to function `f`: updates the monitors,
    /// dispatches (unparking or emergency-scaling if needed), and
    /// registers chain context. Used for gateway arrivals and for
    /// stage-to-stage chain relays alike.
    fn deliver(
        &mut self,
        f: usize,
        chain_start: Option<SimTime>,
        queue: &mut EventQueue<EngineEvent>,
    ) {
        let now = self.engine.now();
        self.observe_idle(f, now);
        let st = &mut self.fns[f];
        let prev_activity = st.last_activity;
        let prev_had_activity = st.had_activity;
        st.recent_arrivals.push_back(now);
        st.last_activity = now;
        st.had_activity = true;

        let req = self.engine.mint_request(f);
        if let (Some(start), Some(_)) = (chain_start, self.chains.chain_of(f)) {
            self.chains.starts.insert(req.key(), start);
        }
        if self.dispatch(f, req, queue) {
            return;
        }
        // No instance could take the request: unpark or scale out.
        if self.unpark_one(f).is_some() && self.dispatch(f, req, queue) {
            return;
        }
        if self.engine.in_epoch_mode() {
            // Epoch mode: no mid-epoch allocation. The request waits in
            // the pending buffer for the barrier flush (which scales
            // out once, deterministically) instead of triggering an
            // emergency launch whose placement would depend on which
            // shard got there first. The startup-kind verdict is frozen
            // now, against the pre-arrival activity, because by flush
            // time this very arrival would count as "recent activity"
            // and turn every first launch spuriously pre-warmed.
            if self.fns[f].pending_startup.is_none() {
                let kind = self.startup_kind_since(f, prev_activity, prev_had_activity);
                self.fns[f].pending_startup = Some(kind);
            }
            self.fns[f].pending.push(PendingRequest::Fresh(req));
            return;
        }
        if self.emergency_scale(f, prev_activity, prev_had_activity, queue)
            && self.dispatch(f, req, queue)
        {
            return;
        }
        self.engine.drop_request(&req);
        if let Some(chain) = self.chains.chain_of(f) {
            self.chains.starts.remove(&req.key());
            self.chains.reports[chain].lost += 1;
        }
    }

    /// Relays every completed request of a chain stage to the next
    /// stage, or closes the chain's end-to-end measurement at the final
    /// stage.
    fn relay_chain_stages(
        &mut self,
        done: &crate::engine::CompletedBatch,
        queue: &mut EventQueue<EngineEvent>,
    ) {
        let Some(chain) = self.chains.chain_of(done.function) else {
            return;
        };
        let next = self.chains.next_of(done.function);
        let now = self.engine.now();
        for req in &done.requests {
            let Some(start) = self.chains.starts.remove(&req.key()) else {
                continue; // not part of a chain traversal (defensive)
            };
            match next {
                Some(next_f) => self.deliver(next_f, Some(start), queue),
                None => {
                    let report = &mut self.chains.reports[chain];
                    let e2e = now - start;
                    report.completed += 1;
                    report.e2e_ms.add(e2e.as_millis_f64());
                    if e2e > report.e2e_slo {
                        report.violations += 1;
                    }
                }
            }
        }
    }

    /// Routes to the dispatch-set instance whose target rate is least
    /// satisfied (deficit routing, via the indexed [`DeficitRouter`]);
    /// returns `false` if every instance's pending batch is full. The
    /// routers first reopen every instance whose full batch gained
    /// room since the last dispatch.
    fn dispatch(&mut self, f: usize, req: Request, queue: &mut EventQueue<EngineEvent>) -> bool {
        self.dispatch_tick = self.dispatch_tick.wrapping_add(1);
        let t0 = self.dispatch_tick.is_multiple_of(64).then(Instant::now);
        let engine = &mut self.engine;
        let opened = engine
            .opened
            .as_mut()
            .expect("INFless logs opened instances");
        for (g, id) in opened.drain(..) {
            self.fns[g].dispatch.reopen(id);
        }
        #[cfg(debug_assertions)]
        for id in self.fns[f].dispatch.closed() {
            assert!(
                engine.instance(id).batch_full(),
                "the router holds {id:?} closed, but its pending batch has room"
            );
        }
        let hit = self.fns[f].dispatch.dispatch(|id| {
            if !engine.enqueue(id, req, queue) {
                Admission::Refused
            } else if engine.instance(id).batch_full() {
                Admission::Filled
            } else {
                Admission::Queued
            }
        });
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos() as f64;
            engine.collector.report.dispatch_overhead_ns.add(nanos);
        }
        hit.is_some()
    }

    /// Moves one parked instance back into the dispatch set, returning
    /// the capacity (its window's `r_up`) it contributes. Returning the
    /// rate directly — rather than letting callers read it back off the
    /// router — matters because the router is free to order entries
    /// however it likes; "the last entry" is not necessarily the one
    /// just pushed.
    fn unpark_one(&mut self, f: usize) -> Option<f64> {
        let st = &mut self.fns[f];
        let p = st.parked.pop()?;
        st.dispatch.push(RouterEntry {
            id: p.id,
            window: p.window,
            rate: p.window.r_up(),
            sent: 0,
            predicted_exec: p.predicted_exec,
        });
        Some(p.window.r_up())
    }

    /// Drop-triggered scale-out between ticks (rate-limited unless the
    /// function has no capacity at all).
    fn emergency_scale(
        &mut self,
        f: usize,
        prev_activity: SimTime,
        prev_had_activity: bool,
        queue: &mut EventQueue<EngineEvent>,
    ) -> bool {
        let now = self.engine.now();
        let st = &self.fns[f];
        let has_capacity = !st.dispatch.is_empty();
        if has_capacity && now.saturating_since(st.last_emergency) < EMERGENCY_BACKOFF {
            return false;
        }
        self.fns[f].last_emergency = now;
        let rps = self.instant_rps(f, now).max(1.0);
        let assigned: f64 = self.fns[f].dispatch.iter().map(|e| e.window.r_up()).sum();
        let residual = (rps - assigned).max(1.0);
        let startup = self.startup_kind_since(f, prev_activity, prev_had_activity);
        self.scale_out(f, residual, startup, queue) > 0
    }

    /// Instantaneous arrival-rate estimate over the last second (or the
    /// elapsed time since the first recent arrival when shorter) — the
    /// burst detector behind emergency scaling.
    fn instant_rps(&self, f: usize, now: SimTime) -> f64 {
        let st = &self.fns[f];
        let horizon = now.saturating_sub(SimDuration::from_secs(1));
        let mut recent = 0u64;
        let mut oldest = now;
        for t in st
            .recent_arrivals
            .iter()
            .rev()
            .take_while(|t| **t >= horizon)
        {
            recent += 1;
            oldest = *t;
        }
        let span = now.saturating_since(oldest).as_secs_f64().clamp(0.1, 1.0);
        recent as f64 / span
    }

    // --- auto-scaling engine (❺) -------------------------------------------

    /// One function's slice of the scaler tick: monitor refresh, §3.2
    /// rate splitting, consolidation and the cold-start manager. The
    /// sharded coordinator calls this per function (function-major) at
    /// scaler barriers; the eager run's tick calls it for every
    /// function in a row — same code, same order.
    pub(crate) fn scaler_pass_fn(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        let now = self.engine.now();
        self.prune_monitor(f, now);
        self.drop_dead_entries(f);
        let rps = self.observed_rps(f, now);

        let windows: Vec<RpsWindow> = self.fns[f].dispatch.iter().map(|e| e.window).collect();
        let plan = split_rate(rps, &windows, self.config.alpha);

        if plan.residual > 0.0 {
            let mut residual = plan.residual;
            while residual > 1e-9 {
                let Some(got) = self.unpark_one(f) else { break };
                residual -= got;
            }
            if residual > 1e-9 && self.config.scale_policy == ScalePolicy::VerticalFirst {
                residual = self.vertical_upgrade_pass(f, residual, queue);
            }
            if residual > 1e-9 {
                let startup = self.startup_kind(f);
                self.scale_out(f, residual, startup, queue);
            }
            // Saturate: every dispatch entry runs at its r_up.
            self.fns[f].dispatch.retune(|entries| {
                for e in entries {
                    e.rate = e.window.r_up();
                    e.sent = 0;
                }
            });
        } else {
            self.fns[f].dispatch.retune(|entries| {
                for (e, rate) in entries.iter_mut().zip(&plan.rates) {
                    e.rate = *rate;
                    e.sent = 0;
                }
            });
            if plan.release_recommended {
                self.park_excess(f, rps, queue);
            }
        }

        self.maybe_consolidate(f, rps, queue);

        // Cold-start manager (❻): refresh windows and reap.
        self.refresh_windows(f, now);
        self.reap(f, now);
    }

    /// Host-RAM model-cache occupancy right now: the summed weight
    /// footprint of functions whose host copy is still inside its
    /// retention window. Behaviour-neutral to sample unconditionally:
    /// the LSTH histogram reads only prune samples that every later
    /// query would prune anyway.
    pub fn host_cache_mb_now(&mut self) -> f64 {
        if !self.config.residency.enabled {
            return 0.0;
        }
        let mut total = 0.0;
        for f in 0..self.engine.functions().len() {
            let last = self.fns[f].last_activity;
            let had = self.fns[f].had_activity;
            if self.host_resident_since(f, last, had) {
                total += self.engine.functions()[f].spec().size_mb();
            }
        }
        total
    }

    /// Runs Algorithm 1 for `residual` RPS and launches the resulting
    /// instances. Returns how many were launched.
    fn scale_out(
        &mut self,
        f: usize,
        residual: f64,
        startup: StartupKind,
        queue: &mut EventQueue<EngineEvent>,
    ) -> usize {
        let slo = self.engine.functions()[f].slo();
        let (startup_cost, device_mb) = self.schedule_cost(f, startup);
        let decisions_on = self.engine.decisions_enabled();
        let mut trace = if decisions_on {
            let mut buf = Vec::new();
            if !self.fns[f].candidates_traced {
                self.fns[f].candidates_traced = true;
                let function = &self.engine.functions()[f];
                self.scheduler
                    .trace_candidates(&self.predictor, function, &mut buf);
            }
            Some(buf)
        } else {
            None
        };
        let wall = Instant::now();
        let (function, cluster) = self.engine.function_and_cluster_mut(f);
        let outcome = self.scheduler.schedule_with_cost_traced(
            &self.predictor,
            function,
            residual,
            cluster,
            startup_cost,
            device_mb,
            trace.as_mut(),
        );
        let elapsed_us = wall.elapsed().as_secs_f64() * 1e6;
        self.engine
            .collector
            .report
            .sched_overhead_hist_us
            .add(elapsed_us);
        let launched = outcome.instances.len();
        if let Some(mut buf) = trace {
            let mut summary = DecisionEvent::new(DecisionKind::ScaleOut);
            summary.value = launched as f64;
            summary.aux = residual;
            buf.push(summary);
            for ev in buf {
                self.engine.record_decision(f, ev);
            }
        }
        for si in outcome.instances {
            let budget = (slo - si.predicted_exec).max(SimDuration::from_millis(1));
            let id =
                self.engine
                    .launch_preallocated(f, si.config, si.placement, startup, budget, queue);
            self.fns[f].dispatch.push(RouterEntry {
                id,
                window: si.window,
                rate: si.window.r_up(),
                sent: 0,
                predicted_exec: si.predicted_exec,
            });
        }
        if launched > 0 && self.config.residency.enabled {
            // The launches pulled the weights through host RAM; the
            // copy now outlives the instances for the host window.
            self.fns[f].host_copy_since = Some(self.engine.now());
        }
        launched
    }

    /// [`ScalePolicy::VerticalFirst`]'s upgrade pass: walk the live
    /// dispatch set and resize instances in place — same server, next
    /// feasible ⟨b, c, g⟩ rung from the scheduler's memoized candidate
    /// sets — until the residual is absorbed or no instance can grow.
    /// Returns the residual left for horizontal scale-out.
    ///
    /// The cluster books move *here*, inside the journaled
    /// [`try_resize`]; the deferred [`EngineEvent::ResizeComplete`]
    /// only swaps engine-local slot state and retunes the router, so
    /// it is safe to land mid-epoch in sharded runs. In-flight batches
    /// formed before the swap complete under the old configuration.
    ///
    /// [`try_resize`]: infless_cluster::ClusterState::try_resize
    fn vertical_upgrade_pass(
        &mut self,
        f: usize,
        mut residual: f64,
        queue: &mut EventQueue<EngineEvent>,
    ) -> f64 {
        // Autoregressive instances pin KV arenas sized at launch;
        // resizing them is out of scope.
        if self.engine.functions()[f].llm().is_some() {
            return residual;
        }
        let slo = self.engine.functions()[f].slo();
        let now = self.engine.now();
        let decisions_on = self.engine.decisions_enabled();
        let entries: Vec<(InstanceId, f64)> = self.fns[f]
            .dispatch
            .iter()
            .map(|e| (e.id, e.window.r_up()))
            .collect();
        for (id, old_r_up) in entries {
            if residual <= 1e-9 {
                break;
            }
            if !self.engine.is_live(id)
                || self.engine.has_pending_resize(id)
                || self.engine.instance(id).is_starting(now)
            {
                continue;
            }
            let old_cfg = self.engine.instance(id).config();
            let placement = self.engine.instance(id).placement();
            let Some(cand) = self.scheduler.upgrade_candidate(
                &self.predictor,
                &self.engine.functions()[f],
                old_cfg.resources(),
                old_r_up,
            ) else {
                if decisions_on {
                    let mut ev = DecisionEvent::new(DecisionKind::Resize);
                    ev.instance = self.engine.launch_ordinal(id);
                    ev.server = placement.server().raw() as i64;
                    ev.batch = old_cfg.batch();
                    ev.cpu = old_cfg.resources().cpu_cores();
                    ev.gpu = old_cfg.resources().gpu_pct();
                    ev.reason = DecisionReason::NoCandidate;
                    self.engine.record_decision(f, ev);
                }
                continue;
            };
            // The weight footprint is configuration-independent, so a
            // grow books no extra device memory (`mem_delta_mb` 0).
            match self.engine.cluster_mut().try_resize(
                placement,
                old_cfg.resources(),
                cand.resources,
                0.0,
            ) {
                Ok(new_placement) => {
                    let budget = (slo - cand.predicted_exec).max(SimDuration::from_millis(1));
                    let delay = self.engine.begin_resize(
                        id,
                        InstanceConfig::new(cand.batch, cand.resources),
                        new_placement,
                        budget,
                        queue,
                    );
                    self.fns[f].resize_retunes.insert(
                        id,
                        ResizeRetune {
                            window: cand.window,
                            predicted_exec: cand.predicted_exec,
                        },
                    );
                    residual -= cand.window.r_up() - old_r_up;
                    if decisions_on {
                        let mut ev = DecisionEvent::new(DecisionKind::Resize);
                        ev.instance = self.engine.launch_ordinal(id);
                        ev.server = new_placement.server().raw() as i64;
                        ev.batch = cand.batch;
                        ev.cpu = cand.resources.cpu_cores();
                        ev.gpu = cand.resources.gpu_pct();
                        ev.value = cand.window.r_up() - old_r_up;
                        ev.aux = delay.as_secs_f64();
                        self.engine.record_decision(f, ev);
                    }
                }
                Err(_) => {
                    if decisions_on {
                        let mut ev = DecisionEvent::new(DecisionKind::Resize);
                        ev.instance = self.engine.launch_ordinal(id);
                        ev.server = placement.server().raw() as i64;
                        ev.batch = cand.batch;
                        ev.cpu = cand.resources.cpu_cores();
                        ev.gpu = cand.resources.gpu_pct();
                        ev.reason = DecisionReason::Memory;
                        self.engine.record_decision(f, ev);
                    }
                }
            }
        }
        residual.max(0.0)
    }

    /// Algorithm 1's startup-cost term: the amortized launch delay and
    /// the device-memory demand the scheduler must book. Both are zero
    /// with the residency tier disabled, which keeps `schedule`'s
    /// decisions bit-identical to the pre-tier scheduler.
    fn schedule_cost(&mut self, f: usize, startup: StartupKind) -> (SimDuration, f64) {
        // Autoregressive instances pin a KV-cache arena on device next
        // to the weights; the scheduler must see that demand or it
        // will over-pack GPUs the engine then refuses to launch on.
        let kv_mb = self.engine.functions()[f]
            .llm()
            .map_or(0.0, |l| l.kv_arena_mb);
        if self.config.residency.enabled {
            (
                self.engine.startup_delay(f, startup),
                self.engine.functions()[f].spec().size_mb() + kv_mb,
            )
        } else if kv_mb > 0.0 {
            (
                SimDuration::ZERO,
                self.engine.functions()[f].spec().size_mb() + kv_mb,
            )
        } else {
            (SimDuration::ZERO, 0.0)
        }
    }

    /// The startup kind a fresh launch of `f` would get right now —
    /// the single residency check shared by the scaler, fault
    /// recovery and consolidation paths.
    fn startup_kind(&mut self, f: usize) -> StartupKind {
        let last = self.fns[f].last_activity;
        let had = self.fns[f].had_activity;
        self.startup_kind_since(f, last, had)
    }

    /// Residency tier check against explicit (pre-arrival) activity
    /// evidence: live instances ⇒ pre-warmed attach, an unexpired
    /// host-RAM copy ⇒ PCIe swap-in, otherwise a full cold boot. The
    /// middle tier exists only with [`ResidencyConfig::enabled`] set.
    fn startup_kind_since(
        &mut self,
        f: usize,
        last_activity: SimTime,
        had_activity: bool,
    ) -> StartupKind {
        if self.image_warm_since(f, last_activity, had_activity) {
            StartupKind::PreWarmed
        } else if self.host_resident_since(f, last_activity, had_activity) {
            StartupKind::SwapIn
        } else {
            StartupKind::Cold
        }
    }

    /// Whether the model still holds a host-RAM copy: launched at
    /// least once, small enough for the host cache, and inside the
    /// tiered-LSTH host keep-alive window since its last load or
    /// activity. Strictly per-function state — the sharded driver
    /// relies on this never consulting other functions' books.
    fn host_resident_since(
        &mut self,
        f: usize,
        last_activity: SimTime,
        had_activity: bool,
    ) -> bool {
        let residency = self.config.residency;
        if !residency.enabled {
            return false;
        }
        let Some(loaded) = self.fns[f].host_copy_since else {
            return false;
        };
        if self.engine.functions()[f].spec().size_mb() > residency.host_cache_mb {
            return false;
        }
        let now = self.engine.now();
        let anchor = if had_activity {
            loaded.max(last_activity)
        } else {
            loaded
        };
        let window = self.fns[f]
            .coldstart
            .host_keep_alive(now)
            .mul_f64(residency.host_retention);
        now.saturating_since(anchor) < window
    }

    // --- fault handling & recovery -----------------------------------------

    /// Re-dispatches a request displaced by a fault if its SLO budget
    /// still has room, otherwise sheds it. Displaced requests are not
    /// re-counted as arrivals: the load monitors already saw them once.
    ///
    /// A retry is *hopeless* when the remaining budget is smaller than
    /// the predicted execution time of every instance that could take
    /// it (dispatched or parked) — such a request is shed immediately
    /// instead of being counted as a doomed `retried`.
    fn retry_or_shed(&mut self, req: Request, queue: &mut EventQueue<EngineEvent>) {
        self.retry_displaced(req, RetryMode::Terminal, queue);
    }

    fn retry_displaced(
        &mut self,
        req: Request,
        mode: RetryMode,
        queue: &mut EventQueue<EngineEvent>,
    ) {
        let f = req.function.raw();
        let now = self.engine.now();
        let slo = self.engine.functions()[f].slo();
        let elapsed = now.saturating_since(req.arrival);
        let feasible = elapsed < slo && {
            let budget = slo - elapsed;
            // Autoregressive requests judge feasibility through the
            // two-phase estimate (re-prefill + remaining decode tokens
            // × per-step cost) — their one-shot `predicted_exec` would
            // wildly undershoot a long-generation retry.
            if let Some(estimate) = self.engine.llm_retry_estimate(&req) {
                budget >= estimate
            } else {
                let st = &self.fns[f];
                let fastest = st
                    .dispatch
                    .iter()
                    .map(|e| e.predicted_exec)
                    .chain(st.parked.iter().map(|p| p.predicted_exec))
                    .min();
                fastest.is_some_and(|exec| budget >= exec)
            }
        };
        if feasible
            && (self.dispatch(f, req, queue)
                || (self.unpark_one(f).is_some() && self.dispatch(f, req, queue)))
        {
            self.engine.record_retry(&req);
            return;
        }
        match mode {
            RetryMode::Terminal => self.shed_displaced(req),
            // Deferred: the barrier flush rebuilds the fleet first and
            // then retries terminally — a request that is hopeless now
            // may fit a fresh large-batch instance launched there.
            RetryMode::Defer => self.fns[f].pending.push(PendingRequest::Displaced(req)),
        }
    }

    /// Sheds a displaced request, mirroring the chain bookkeeping of the
    /// gateway drop path.
    fn shed_displaced(&mut self, req: Request) {
        self.engine.shed_request(&req);
        if let Some(chain) = self.chains.chain_of(req.function.raw()) {
            if self.chains.starts.remove(&req.key()).is_some() {
                self.chains.reports[chain].lost += 1;
            }
        }
    }

    /// Non-uniform re-tuning (§3.1 ❺: the engine "adaptively tunes the
    /// new instance configurations … selecting from the optimized
    /// batch-resource decisions"). Gradual load ramps are absorbed by
    /// many small incremental instances; when a fresh Algorithm 1
    /// solution for the observed rate would be substantially more
    /// resource-efficient than the current dispatch set, replace the
    /// set: launch the optimized instances and park the old ones (they
    /// drain and are reaped by the keep-alive policy).
    fn maybe_consolidate(&mut self, f: usize, rps: f64, queue: &mut EventQueue<EngineEvent>) {
        const MIN_INTERVAL: SimDuration = SimDuration::from_secs(60);
        const MIN_GAIN: f64 = 1.5;
        let now = self.engine.now();
        if rps < 1.0
            || self.fns[f].dispatch.len() < 2
            || now.saturating_since(self.fns[f].last_consolidation) < MIN_INTERVAL
        {
            return;
        }
        let current_weight: f64 = self.fns[f]
            .dispatch
            .iter()
            .map(|e| {
                self.engine
                    .weighted_cost(self.engine.instance(e.id).config())
            })
            .sum();
        let current_capacity: f64 = self.fns[f].dispatch.iter().map(|e| e.window.r_up()).sum();
        if current_weight <= 0.0 {
            return;
        }
        let current_density = current_capacity / current_weight;
        let decisions_on = self.engine.decisions_enabled();
        if decisions_on {
            let mut ev = DecisionEvent::new(DecisionKind::Consolidate);
            ev.value = current_density;
            ev.aux = current_weight;
            self.engine.record_decision(f, ev);
        }

        // Dry-run Algorithm 1 inside a cluster transaction: the trial
        // allocations land on the *real* cluster and are either kept
        // (commit) or rolled back bit-identically — no whole-cluster
        // clone, and no second `schedule()` call whose placements could
        // diverge from the dry run's.
        // With the tier enabled the dry run needs the startup-cost
        // term up front. The residency check refreshes keep-alive
        // windows as a side effect, so the disabled path must not run
        // it here — a *failed* trial would otherwise perturb window
        // refresh timing that the pre-tier engine never touched.
        let (startup_cost, device_mb) = if self.config.residency.enabled {
            let startup = self.startup_kind(f);
            self.schedule_cost(f, startup)
        } else {
            (SimDuration::ZERO, 0.0)
        };
        // Recoverable begin: a leaked open transaction from an earlier
        // pass would corrupt the dry run's rollback mark — fail loudly
        // with the culprit named instead of a bare assert downstream.
        self.engine
            .cluster_mut()
            .try_begin_txn()
            .expect("consolidation dry-run: a previous pass leaked an open cluster transaction");
        let wall = Instant::now();
        let (function, cluster) = self.engine.function_and_cluster_mut(f);
        let trial = self.scheduler.schedule_with_cost(
            &self.predictor,
            function,
            rps,
            cluster,
            startup_cost,
            device_mb,
        );
        let elapsed_us = wall.elapsed().as_secs_f64() * 1e6;
        self.engine
            .collector
            .report
            .sched_overhead_hist_us
            .add(elapsed_us);
        if trial.unplaced_rps > rps * 0.05 || trial.instances.is_empty() {
            self.engine.cluster_mut().rollback_txn();
            if decisions_on {
                let mut ev = DecisionEvent::new(DecisionKind::ConsolidateRollback);
                ev.reason = DecisionReason::Unplaced;
                ev.value = trial.unplaced_rps;
                ev.aux = rps;
                self.engine.record_decision(f, ev);
            }
            return;
        }
        let fresh_weight: f64 = trial
            .instances
            .iter()
            .map(|i| self.engine.weighted_cost(i.config))
            .sum();
        let fresh_capacity: f64 = trial.instances.iter().map(|i| i.window.r_up()).sum();
        if fresh_weight <= 0.0 || fresh_capacity / fresh_weight < MIN_GAIN * current_density {
            self.engine.cluster_mut().rollback_txn();
            if decisions_on {
                let mut ev = DecisionEvent::new(DecisionKind::ConsolidateRollback);
                ev.reason = DecisionReason::InsufficientGain;
                ev.value = if fresh_weight > 0.0 {
                    fresh_capacity / fresh_weight
                } else {
                    0.0
                };
                ev.aux = MIN_GAIN * current_density;
                self.engine.record_decision(f, ev);
            }
            return;
        }

        // Commit: keep the dry run's own allocations (placed capacity
        // therefore equals promised capacity by construction), launch
        // the optimized instances and adopt them as the dispatch set.
        // The startup kind comes from the same residency check as the
        // fault-recovery path — not an unconditional PreWarmed.
        self.engine.cluster_mut().commit_txn();
        if decisions_on {
            let mut ev = DecisionEvent::new(DecisionKind::ConsolidateCommit);
            ev.value = fresh_capacity / fresh_weight;
            ev.aux = fresh_weight - current_weight;
            self.engine.record_decision(f, ev);
        }
        self.fns[f].last_consolidation = now;
        let startup = self.startup_kind(f);
        let slo = self.engine.functions()[f].slo();
        let old = self.fns[f].dispatch.take_entries();
        for si in trial.instances {
            let budget = (slo - si.predicted_exec).max(SimDuration::from_millis(1));
            let id =
                self.engine
                    .launch_preallocated(f, si.config, si.placement, startup, budget, queue);
            self.fns[f].dispatch.push(RouterEntry {
                id,
                window: si.window,
                rate: si.window.r_up(),
                sent: 0,
                predicted_exec: si.predicted_exec,
            });
        }
        if self.config.residency.enabled {
            self.fns[f].host_copy_since = Some(now);
        }
        // Park the old set — but if the new set covers less than the
        // controller's target (the dry run tolerates ≤ 5 % unplaced),
        // keep just enough old instances dispatched to bridge the gap
        // instead of silently shrinking capacity.
        let mut covered = fresh_capacity;
        for e in old {
            if covered + 1e-9 >= rps {
                self.fns[f].parked.push(ParkedInstance {
                    id: e.id,
                    window: e.window,
                    predicted_exec: e.predicted_exec,
                });
            } else {
                covered += e.window.r_up();
                self.fns[f].dispatch.push(e);
            }
        }
    }

    /// Case (iii): parks the least resource-efficient instances until
    /// the controller no longer recommends release. Under
    /// [`ScalePolicy::VerticalFirst`] a victim whose capacity is still
    /// partly needed is *downsized in place* (the upgrade pass's
    /// symmetric shrink — instant, no drain) instead of parked.
    fn park_excess(&mut self, f: usize, rps: f64, queue: &mut EventQueue<EngineEvent>) {
        loop {
            if self.fns[f].dispatch.len() <= 1 && rps > 0.0 {
                break; // keep one instance while traffic flows
            }
            let windows: Vec<RpsWindow> = self.fns[f].dispatch.iter().map(|e| e.window).collect();
            let plan = split_rate(rps, &windows, self.config.alpha);
            if !plan.release_recommended || self.fns[f].dispatch.is_empty() {
                // Final rates for the surviving set.
                self.fns[f].dispatch.retune(|entries| {
                    for (e, rate) in entries.iter_mut().zip(&plan.rates) {
                        e.rate = *rate;
                    }
                });
                break;
            }
            // Least efficient: lowest r_up per weighted resource.
            let idx = self.fns[f]
                .dispatch
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let wa = a.window.r_up()
                        / self
                            .engine
                            .weighted_cost(self.engine.instance(a.id).config());
                    let wb = b.window.r_up()
                        / self
                            .engine
                            .weighted_cost(self.engine.instance(b.id).config());
                    wa.partial_cmp(&wb).expect("finite")
                })
                .map(|(i, _)| i)
                .expect("non-empty dispatch set");
            if self.config.scale_policy == ScalePolicy::VerticalFirst
                && self.try_downsize_victim(f, idx, rps, &windows, queue)
            {
                // The victim shrank in place; its entry keeps the old
                // window until the resize completes, so re-planning now
                // would not converge — let the next tick settle rates.
                break;
            }
            let e = self.fns[f].dispatch.remove_at(idx);
            self.fns[f].parked.push(ParkedInstance {
                id: e.id,
                window: e.window,
                predicted_exec: e.predicted_exec,
            });
            if rps <= 0.0 && self.fns[f].dispatch.is_empty() {
                break;
            }
        }
    }

    /// Tries to shrink the park victim to the cheapest candidate that
    /// still covers the part of its capacity the controller needs
    /// (total windows minus `rps`). Returns `true` if a downsize was
    /// initiated — the caller then stops parking this tick.
    fn try_downsize_victim(
        &mut self,
        f: usize,
        idx: usize,
        rps: f64,
        windows: &[RpsWindow],
        queue: &mut EventQueue<EngineEvent>,
    ) -> bool {
        if self.engine.functions()[f].llm().is_some() {
            return false;
        }
        let (id, victim_r_up) = {
            let e = self.fns[f].dispatch.iter().nth(idx).expect("victim index");
            (e.id, e.window.r_up())
        };
        let total: f64 = windows.iter().map(|w| w.r_up()).sum();
        let excess = (total - rps).max(0.0);
        let needed = victim_r_up - excess;
        // The whole victim is excess (or the instance cannot resize):
        // parking is the right move.
        if needed <= 1e-9
            || !self.engine.is_live(id)
            || self.engine.has_pending_resize(id)
            || self.engine.instance(id).is_starting(self.engine.now())
        {
            return false;
        }
        let old_cfg = self.engine.instance(id).config();
        let placement = self.engine.instance(id).placement();
        let Some(cand) = self.scheduler.downsize_candidate(
            &self.predictor,
            &self.engine.functions()[f],
            old_cfg.resources(),
            needed,
        ) else {
            return false;
        };
        let Ok(new_placement) = self.engine.cluster_mut().try_resize(
            placement,
            old_cfg.resources(),
            cand.resources,
            0.0,
        ) else {
            return false;
        };
        let slo = self.engine.functions()[f].slo();
        let budget = (slo - cand.predicted_exec).max(SimDuration::from_millis(1));
        let delay = self.engine.begin_resize(
            id,
            InstanceConfig::new(cand.batch, cand.resources),
            new_placement,
            budget,
            queue,
        );
        self.fns[f].resize_retunes.insert(
            id,
            ResizeRetune {
                window: cand.window,
                predicted_exec: cand.predicted_exec,
            },
        );
        if self.engine.decisions_enabled() {
            let mut ev = DecisionEvent::new(DecisionKind::Resize);
            ev.instance = self.engine.launch_ordinal(id);
            ev.server = new_placement.server().raw() as i64;
            ev.batch = cand.batch;
            ev.cpu = cand.resources.cpu_cores();
            ev.gpu = cand.resources.gpu_pct();
            ev.value = cand.window.r_up() - victim_r_up;
            ev.aux = delay.as_secs_f64();
            self.engine.record_decision(f, ev);
        }
        true
    }

    /// Retires instances (parked or dispatched) idle past the policy's
    /// window. Pre-warm semantics (Shahrad et al.): with a non-zero
    /// pre-warm window the function is *unloaded* right after it goes
    /// idle (a short grace period for scaling hysteresis) and only the
    /// image comes back at `pre_warm`; with a zero pre-warm window the
    /// instances stay for the whole keep-alive window.
    fn reap(&mut self, f: usize, now: SimTime) {
        let windows = self.fns[f].cached_windows;
        let keep_alive = if windows.pre_warm.is_zero() {
            windows.keep_alive
        } else {
            SimDuration::from_secs(10)
        };
        let expired = |engine: &Engine, id: InstanceId| {
            engine.is_live(id) && engine.instance(id).idle_for(now) > keep_alive
        };
        let dead_parked: Vec<InstanceId> = self.fns[f]
            .parked
            .iter()
            .map(|p| p.id)
            .filter(|id| expired(&self.engine, *id))
            .collect();
        let dead_dispatch: Vec<InstanceId> = self.fns[f]
            .dispatch
            .iter()
            .map(|e| e.id)
            .filter(|id| expired(&self.engine, *id))
            .collect();
        let decisions_on = self.engine.decisions_enabled();
        for id in dead_parked.iter().chain(&dead_dispatch) {
            if decisions_on {
                let inst = self.engine.instance(*id);
                let mut ev = DecisionEvent::new(DecisionKind::Evict);
                ev.instance = self.engine.launch_ordinal(*id);
                ev.server = inst.placement().server().raw() as i64;
                ev.value = keep_alive.as_secs_f64();
                ev.aux = inst.idle_for(now).as_secs_f64();
                self.engine.record_decision(f, ev);
            }
            self.engine.retire(*id);
        }
        self.fns[f].parked.retain(|p| !dead_parked.contains(&p.id));
        self.fns[f]
            .dispatch
            .retain(|e| !dead_dispatch.contains(&e.id));
    }

    // --- monitors & cold-start helpers -------------------------------------

    fn observe_idle(&mut self, f: usize, now: SimTime) {
        let st = &self.fns[f];
        if !st.had_activity {
            return;
        }
        let idle = now.saturating_since(st.last_activity);
        // Dense traffic produces thousands of sub-minute idle gaps
        // per minute, all landing in the histogram's first bin.
        // Rate-limit those to one sample per 5 s of simulated time
        // (preserving the bin-0 mass), but always record long gaps —
        // they are the informative tail. Both checks are cheap and
        // side-effect-free, so they run *before* the O(instances) busy
        // scan: on the hot path (dense traffic) nothing would be
        // recorded and the scan is skipped entirely.
        let rate_limited = now.saturating_since(st.last_idle_recorded) < SimDuration::from_secs(5);
        if idle.is_zero() {
            return;
        }
        if idle < SimDuration::from_secs(60) && rate_limited {
            // Suppressed, not discarded: the gap's sample mass is
            // folded back in (count × max gap) at the next recorded
            // sample, so a burst of sub-minute gaps still shifts the
            // histogram's quantiles instead of silently vanishing.
            let st = &mut self.fns[f];
            st.suppressed_idle_gaps += 1;
            st.suppressed_idle_max = st.suppressed_idle_max.max(idle);
            return;
        }
        // Function-level idleness: no instance has queued or running work.
        let busy = self.engine.instances_of(f).iter().any(|id| {
            let inst = self.engine.instance(*id);
            inst.queue_len() > 0
                || matches!(inst.state(), infless_cluster::InstanceState::Busy { .. })
        });
        if !busy {
            let st = &mut self.fns[f];
            let gaps = std::mem::take(&mut st.suppressed_idle_gaps);
            let max_gap = std::mem::replace(&mut st.suppressed_idle_max, SimDuration::ZERO);
            if gaps > 0 && !max_gap.is_zero() {
                // Conservative fold: the suppressed burst re-enters as
                // one representative sample at its largest gap — the
                // limiter's contract is one sample per 5 s slot, and
                // the slot's representative used to be whichever gap
                // happened to land first, silently dropping the rest.
                // Folding every suppressed gap instead would let dense
                // traffic (hundreds of sub-second gaps per slot) swamp
                // the quantiles the histogram policies key off.
                st.coldstart.record_idle(now, max_gap);
            }
            st.coldstart.record_idle(now, idle);
            st.last_idle_recorded = now;
        }
    }

    /// Recomputes the pre-warm/keep-alive windows at most once per
    /// minute — histogram quantiles drift slowly, and rebuilding them
    /// every scaler tick would dominate long runs.
    fn refresh_windows(&mut self, f: usize, now: SimTime) {
        let stale = self.fns[f]
            .windows_refreshed
            .is_none_or(|t| now.saturating_since(t) >= SimDuration::from_secs(60));
        if stale {
            self.fns[f].cached_windows = self.fns[f].coldstart.windows(now);
            self.fns[f].windows_refreshed = Some(now);
        }
    }

    fn prune_monitor(&mut self, f: usize, now: SimTime) {
        let horizon = now.saturating_sub(MONITOR_WINDOW);
        let st = &mut self.fns[f];
        while let Some(&t) = st.recent_arrivals.front() {
            if t < horizon {
                st.recent_arrivals.pop_front();
            } else {
                break;
            }
        }
    }

    fn observed_rps(&mut self, f: usize, now: SimTime) -> f64 {
        self.prune_monitor(f, now);
        let window = MONITOR_WINDOW
            .min(now.saturating_since(SimTime::ZERO))
            .as_secs_f64()
            .max(1.0);
        self.fns[f].recent_arrivals.len() as f64 / window
    }

    fn drop_dead_entries(&mut self, f: usize) {
        let engine = &self.engine;
        self.fns[f].dispatch.retain(|e| engine.is_live(e.id));
        self.fns[f].parked.retain(|p| engine.is_live(p.id));
        // Retunes for instances that died mid-resize will never land.
        self.fns[f]
            .resize_retunes
            .retain(|id, _| engine.is_live(*id));
    }

    /// `true` when a new instance would start from a warm image: the
    /// function already has live instances (image resident on a node)
    /// or the pre-warm window has loaded it in anticipation.
    fn image_warm_since(&mut self, f: usize, last_activity: SimTime, had_activity: bool) -> bool {
        let now = self.engine.now();
        if !self.engine.instances_of(f).is_empty() {
            return true;
        }
        if !had_activity {
            return false;
        }
        self.refresh_windows(f, now);
        let w = self.fns[f].cached_windows;
        let since = now.saturating_since(last_activity);
        since >= w.pre_warm && since < w.pre_warm + w.keep_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::Application;
    use infless_sim::StagedStream;
    use infless_workload::{FunctionLoad, TracePattern};

    fn run_constant(app: Application, rps: f64, secs: u64) -> RunReport {
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
            .collect();
        let workload = Workload::build(&loads, 17);
        InflessPlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            InflessConfig::default(),
            17,
        )
        .run(&workload)
    }

    /// An epoch drain ends on the barrier: the queue's clock moves to
    /// it, so lazy readers at the barrier count every decode step up to
    /// and including the barrier instant as run, and events scheduled
    /// there tie as scheduled at the barrier.
    #[test]
    fn drain_until_moves_the_queue_clock_to_the_barrier() {
        let app = Application::qa_robot();
        let mut p = InflessPlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            InflessConfig::default(),
            17,
        );
        p.engine.enter_epoch_mode();
        let arrivals = [(SimTime::from_millis(3), 0usize)];
        let mut stream = StagedStream::new(&arrivals);
        let mut queue = EventQueue::new();
        let barrier = SimTime::from_millis(40);
        driver::drain_until(&mut p, &mut stream, &mut queue, barrier);
        assert_eq!(queue.now(), barrier);
        assert_eq!(p.engine.now(), barrier);
        assert!(queue.delivered_before(barrier, SimTime::from_millis(39)));
    }

    /// While every instance holds a full batch (here, during the cold
    /// start, when no batch can begin), each arrival makes no offer and
    /// is dropped, or in epoch mode deferred, as a miss always was. The
    /// first batch starts reopen the instances, and routing resumes.
    #[test]
    fn arrivals_into_a_full_fleet_make_no_offers() {
        for deferred in [false, true] {
            let app = Application::qa_robot();
            let mut p = InflessPlatform::new(
                ClusterSpec::testbed(),
                app.functions().to_vec(),
                InflessConfig::default(),
                17,
            );
            if deferred {
                p.engine.enter_epoch_mode();
            }
            let mut queue = EventQueue::new();
            p.scale_out(0, 30.0, StartupKind::Cold, &mut queue);
            let ids: Vec<InstanceId> = p.fns[0].dispatch.iter().map(|e| e.id).collect();
            let capacity: u32 = ids
                .iter()
                .map(|&id| p.engine.instance(id).config().batch())
                .sum();
            for _ in 0..capacity {
                p.deliver(0, None, &mut queue);
            }
            assert!(ids.iter().all(|&id| p.engine.instance(id).batch_full()));
            assert_eq!(p.engine.collector.report.functions[0].dropped, 0);
            assert_eq!(p.fns[0].dispatch.closed().count(), ids.len());

            let offers = p.fns[0].dispatch.offers;
            for missed in 1..=20 {
                p.deliver(0, None, &mut queue);
                assert_eq!(p.fns[0].dispatch.offers, offers, "a miss made an offer");
                let (dropped, pending) = if deferred { (0, missed) } else { (missed, 0) };
                assert_eq!(
                    p.engine.collector.report.functions[0].dropped,
                    dropped as u64
                );
                assert_eq!(p.fns[0].pending.len(), pending);
            }

            let ready = ids.iter().map(|&id| p.engine.instance(id).ready_at()).max();
            p.engine.advance(ready.expect("instances launched"));
            for &id in &ids {
                p.engine.on_instance_ready(id, &mut queue);
            }
            let dropped = p.engine.collector.report.functions[0].dropped;
            p.deliver(0, None, &mut queue);
            assert_eq!(p.fns[0].dispatch.offers, offers + 1, "the root takes it");
            assert_eq!(p.engine.collector.report.functions[0].dropped, dropped);
            // Every instance reopened; at most the one just filled closed again.
            let closed: Vec<InstanceId> = p.fns[0].dispatch.closed().collect();
            assert!(closed.len() <= 1, "{closed:?} still closed");
            assert!(closed.iter().all(|&id| p.engine.instance(id).batch_full()));
        }
    }

    #[test]
    fn qa_robot_serves_constant_load_within_slo() {
        let report = run_constant(Application::qa_robot(), 50.0, 60);
        assert!(report.total_completed() > 0);
        let served = report.total_completed() as f64
            / (report.total_completed() + report.total_dropped()) as f64;
        assert!(served > 0.9, "served fraction {served}");
        assert!(
            report.violation_rate() < 0.10,
            "violation rate {} too high",
            report.violation_rate()
        );
    }

    #[test]
    fn osvt_serves_constant_load_within_slo() {
        let report = run_constant(Application::osvt(), 40.0, 60);
        assert!(
            report.violation_rate() < 0.10,
            "violation rate {}",
            report.violation_rate()
        );
        // Steady load after warmup: almost everything completes.
        assert!(report.total_completed() > report.total_dropped() * 10);
    }

    #[test]
    fn uses_batching_under_load() {
        let report = run_constant(Application::osvt(), 100.0, 40);
        let resnet = report
            .functions
            .iter()
            .find(|f| f.name == "ResNet-50")
            .unwrap();
        let batched: u64 = resnet
            .per_batch_completed
            .iter()
            .filter(|(b, _)| **b > 1)
            .map(|(_, n)| *n)
            .sum();
        assert!(
            batched > resnet.completed / 2,
            "expected mostly batched execution, got {batched}/{}",
            resnet.completed
        );
    }

    #[test]
    fn scales_in_when_load_vanishes() {
        // Periodic trace: provisioning should follow the load down.
        let app = Application::osvt();
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| {
                FunctionLoad::trace(TracePattern::Periodic, 30.0, SimDuration::from_mins(20), 3)
            })
            .collect();
        let workload = Workload::build(&loads, 3);
        let report = InflessPlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            InflessConfig::default(),
            3,
        )
        .run(&workload);
        assert!(report.retirements > 0, "no instance was ever scaled in");
        let peak = report
            .provisioning
            .iter()
            .map(|(_, u)| *u)
            .fold(0.0, f64::max);
        let min_after_peak = report
            .provisioning
            .iter()
            .skip_while(|(_, u)| *u < peak)
            .map(|(_, u)| *u)
            .fold(f64::MAX, f64::min);
        assert!(
            min_after_peak < peak,
            "provisioning never decreased: peak {peak}, later min {min_after_peak}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_constant(Application::qa_robot(), 30.0, 20);
        let b = run_constant(Application::qa_robot(), 30.0, 20);
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.total_dropped(), b.total_dropped());
        assert_eq!(a.launches, b.launches);
    }

    #[test]
    fn empty_workload_is_a_noop() {
        let app = Application::qa_robot();
        let workload = Workload::build(&[], 0);
        let report = InflessPlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            InflessConfig::default(),
            0,
        )
        .run(&workload);
        assert_eq!(report.total_completed(), 0);
        assert_eq!(report.launches, 0);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::chains::ChainSpec;
    use infless_models::ModelId;
    use infless_workload::{FunctionLoad, Workload};

    fn chain_platform(e2e_ms: u64) -> (InflessPlatform, Workload) {
        // detection -> classification pipeline plus one standalone fn.
        let functions = vec![
            FunctionInfo::new(ModelId::Ssd.spec(), SimDuration::from_millis(200)),
            FunctionInfo::new(ModelId::ResNet50.spec(), SimDuration::from_millis(200)),
            FunctionInfo::new(ModelId::Mnist.spec(), SimDuration::from_millis(50)),
        ];
        let chains = vec![ChainSpec::new(
            "detect-classify",
            vec![0, 1],
            SimDuration::from_millis(e2e_ms),
        )];
        // Load only enters the chain head and the standalone function.
        let loads = vec![
            FunctionLoad::constant(40.0, SimDuration::from_secs(40)),
            FunctionLoad::constant(0.001, SimDuration::from_secs(1)),
            FunctionLoad::constant(20.0, SimDuration::from_secs(40)),
        ];
        let workload = Workload::build(&loads, 77);
        let platform = InflessPlatform::with_chains(
            ClusterSpec::testbed(),
            functions,
            chains,
            InflessConfig::default(),
            77,
        );
        (platform, workload)
    }

    #[test]
    fn chain_relays_and_measures_end_to_end() {
        let (platform, workload) = chain_platform(400);
        let report = platform.run(&workload);
        assert_eq!(report.chains.len(), 1);
        let chain = &report.chains[0];
        assert!(
            chain.completed > 1000,
            "chain completed {}",
            chain.completed
        );
        // Every entry-stage completion must traverse to the second stage:
        // the classifier saw (almost) as many requests as the detector.
        let detector = report.functions[0].completed;
        let classifier = report.functions[1].completed;
        assert!(
            classifier as f64 > detector as f64 * 0.95,
            "relays lost: {detector} -> {classifier}"
        );
        // End-to-end latency exceeds each stage's own latency.
        let e2e = &chain.e2e_ms;
        let e2e_p50 = e2e.quantile(0.5).unwrap();
        let s0 = report.functions[0].latency_ms.clone();
        assert!(e2e_p50 > s0.quantile(0.5).unwrap());
    }

    #[test]
    fn chain_meets_relaxed_e2e_slo() {
        let (platform, workload) = chain_platform(500);
        let report = platform.run(&workload);
        let chain = &report.chains[0];
        assert!(
            chain.violation_rate() < 0.10,
            "chain violation rate {:.2}%",
            chain.violation_rate() * 100.0
        );
    }

    #[test]
    fn stage_slos_are_overridden_by_the_split() {
        let (platform, _) = chain_platform(400);
        let slos: Vec<SimDuration> = platform
            .engine
            .functions()
            .iter()
            .map(|f| f.slo())
            .collect();
        // Stages 0 and 1 now carry split SLOs summing to ~400 ms.
        let total = slos[0].as_millis_f64() + slos[1].as_millis_f64();
        assert!((total - 400.0).abs() < 1.0, "split total {total}");
        // The standalone function keeps its own SLO.
        assert_eq!(slos[2], SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "more than one chain")]
    fn overlapping_chains_rejected() {
        let functions = vec![
            FunctionInfo::new(ModelId::Mnist.spec(), SimDuration::from_millis(100)),
            FunctionInfo::new(ModelId::TextCnn69.spec(), SimDuration::from_millis(100)),
            FunctionInfo::new(ModelId::Dssm2365.spec(), SimDuration::from_millis(100)),
        ];
        let chains = vec![
            ChainSpec::new("a", vec![0, 1], SimDuration::from_millis(100)),
            ChainSpec::new("b", vec![1, 2], SimDuration::from_millis(100)),
        ];
        let _ = InflessPlatform::with_chains(
            ClusterSpec::testbed(),
            functions,
            chains,
            InflessConfig::default(),
            1,
        );
    }
}

#[cfg(test)]
mod autoscaler_tests {
    use super::*;
    use infless_workload::{FunctionLoad, RateSeries, Workload};

    /// A load pulse that rises gradually and falls back — the scenario
    /// where incremental emergency scaling accumulates small instances
    /// on the rise and the consolidation pass must replace them with
    /// large-batch configs (which then drain on the decline).
    fn ramp_workload(peak_rps: f64, mins: usize) -> Workload {
        let rates: Vec<f64> = (0..mins)
            .map(|i| {
                let x = i as f64 / mins as f64;
                (peak_rps * (std::f64::consts::PI * x).sin()).max(1.0)
            })
            .collect();
        let series = RateSeries::new(SimDuration::from_mins(1), rates);
        Workload::build(&[FunctionLoad::poisson(series)], 7)
    }

    fn run_ramp(config: InflessConfig) -> RunReport {
        let functions = vec![FunctionInfo::new(
            infless_models::ModelId::ResNet50.spec(),
            SimDuration::from_millis(200),
        )];
        InflessPlatform::new(ClusterSpec::testbed(), functions, config, 7)
            .run(&ramp_workload(800.0, 14))
    }

    #[test]
    fn consolidation_upgrades_ramp_grown_fleets() {
        let report = run_ramp(InflessConfig::default());
        // After consolidation, large-batch instances must exist…
        let max_batch = report
            .config_launches
            .keys()
            .map(|(_, cfg)| cfg.batch())
            .max()
            .unwrap_or(0);
        assert!(
            max_batch >= 8,
            "no large-batch consolidation: max b={max_batch}"
        );
        // …and the replaced small instances must drain on the decline.
        assert!(
            report.retirements as f64 >= report.launches as f64 * 0.3,
            "old instances were not drained: {} retired of {}",
            report.retirements,
            report.launches
        );
    }

    #[test]
    fn consolidation_reduces_resource_footprint() {
        // The same ramp with consolidation disabled (gain threshold can
        // never be met because the interval never elapses — emulate by
        // comparing against a very large MIN_INTERVAL via short run).
        // Direct comparison: consolidated run must not use more
        // resources than the paper-naive incremental fleet would; we
        // check the absolute density instead of an ablation switch.
        let report = run_ramp(InflessConfig::default());
        let density = report.throughput_per_resource();
        assert!(
            density > 1.0,
            "ramp-grown fleet stayed inefficient: {density:.2} req/unit·s"
        );
    }

    #[test]
    fn parked_instances_are_reused_before_new_launches() {
        // Two identical bursts separated by a lull shorter than the
        // keep-alive: the second burst must reuse parked capacity, not
        // cold-start a fresh fleet.
        let mins = 9;
        let rates: Vec<f64> = (0..mins)
            .map(|i| if !(3..6).contains(&i) { 400.0 } else { 2.0 })
            .collect();
        let workload = Workload::build(
            &[FunctionLoad::poisson(RateSeries::new(
                SimDuration::from_mins(1),
                rates,
            ))],
            8,
        );
        let functions = vec![FunctionInfo::new(
            infless_models::ModelId::Ssd.spec(),
            SimDuration::from_millis(200),
        )];
        let report = InflessPlatform::new(
            ClusterSpec::testbed(),
            functions,
            InflessConfig::default(),
            8,
        )
        .run(&workload);
        // Serving ~150k requests across two bursts should not need a
        // launch count anywhere near "fleet per burst".
        assert!(
            report.cold_launches <= 3,
            "second burst cold-started a fresh fleet: {} cold launches",
            report.cold_launches
        );
        assert!(report.violation_rate() < 0.05);
    }

    #[test]
    fn consolidation_preserves_promised_capacity() {
        // Regression: the committed consolidation set used to be a
        // *second* schedule() run that could place less than the dry-run
        // promised, silently shrinking dispatch capacity below the
        // observed rate. The txn-based rewrite keeps the dry run's own
        // allocations and bridges any gap with kept old instances.
        let functions = vec![FunctionInfo::new(
            infless_models::ModelId::ResNet50.spec(),
            SimDuration::from_millis(200),
        )];
        let mut p = InflessPlatform::new(
            ClusterSpec::testbed(),
            functions,
            InflessConfig::default(),
            7,
        );
        let mut queue = EventQueue::new();
        // A fragmented fleet, as incremental emergency scaling grows it:
        // many tiny-residual rounds instead of one big one — each round
        // can only pick small batches (the saturation bound blocks large
        // ones), so the fleet ends far below the jointly-optimal density.
        for _ in 0..85 {
            p.scale_out(0, 3.0, StartupKind::Cold, &mut queue);
        }
        let rps = 400.0;
        let before: f64 = p.fns[0].dispatch.iter().map(|e| e.window.r_up()).sum();
        assert!(before >= rps, "setup fleet too small: {before} < {rps}");

        p.engine.advance(SimTime::ZERO + SimDuration::from_secs(61));
        p.maybe_consolidate(0, rps, &mut queue);
        assert!(
            p.fns[0].last_consolidation > SimTime::ZERO,
            "consolidation did not trigger on a fragmented fleet"
        );
        assert!(
            !p.engine.cluster().in_txn(),
            "consolidation left a cluster transaction open"
        );
        let after: f64 = p.fns[0].dispatch.iter().map(|e| e.window.r_up()).sum();
        assert!(
            after + 1e-6 >= rps,
            "consolidation lost promised capacity: {after:.1} < {rps:.1}"
        );
    }

    #[test]
    fn startup_kind_tracks_image_warmth() {
        // Regression: consolidation used to launch its optimized set as
        // PreWarmed unconditionally, even for a function whose image was
        // never loaded anywhere. The shared warm check must report Cold
        // for a fresh function and PreWarmed once instances exist.
        let functions = vec![FunctionInfo::new(
            infless_models::ModelId::ResNet50.spec(),
            SimDuration::from_millis(200),
        )];
        let mut p = InflessPlatform::new(
            ClusterSpec::testbed(),
            functions,
            InflessConfig::default(),
            7,
        );
        let mut queue = EventQueue::new();
        assert_eq!(
            p.startup_kind(0),
            StartupKind::Cold,
            "no instance and no activity: the image cannot be warm"
        );
        p.scale_out(0, 20.0, StartupKind::Cold, &mut queue);
        assert_eq!(
            p.startup_kind(0),
            StartupKind::PreWarmed,
            "live instances keep the image resident"
        );
    }
}

#[cfg(test)]
mod resize_tests {
    use super::*;
    use crate::coldstart::Windows;
    use crate::router::RouterEntry;
    use infless_models::ModelId;
    use infless_workload::{FunctionLoad, RateSeries, Workload};

    fn platform(config: InflessConfig) -> InflessPlatform {
        let functions = vec![FunctionInfo::new(
            ModelId::MobileNet.spec(),
            SimDuration::from_millis(50),
        )];
        InflessPlatform::new(ClusterSpec::testbed(), functions, config, 1)
    }

    fn window(batch: u32) -> RpsWindow {
        RpsWindow::for_instance(
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
            batch,
        )
        .expect("feasible window")
    }

    /// Satellite regression: `unpark_one` must report the capacity of
    /// the instance it actually unparked. The old call sites read the
    /// router's *last entry* back after the push — correct only by the
    /// accident that the router appends; any reordering (which
    /// `retune` is free to do) would have mis-credited the residual.
    #[test]
    fn unpark_one_returns_the_unparked_capacity() {
        let mut p = platform(InflessConfig::default());
        // A pre-existing dispatch entry with a distinctly larger window.
        p.fns[0].dispatch.push(RouterEntry {
            id: InstanceId::new(90),
            window: window(8),
            rate: window(8).r_up(),
            sent: 0,
            predicted_exec: SimDuration::from_millis(10),
        });
        for (raw, b) in [(91u64, 1u32), (92, 2)] {
            p.fns[0].parked.push(ParkedInstance {
                id: InstanceId::new(raw),
                window: window(b),
                predicted_exec: SimDuration::from_millis(10),
            });
        }
        // LIFO: the batch-2 instance comes back first.
        let got = p.unpark_one(0).expect("parked instance available");
        assert_eq!(got, window(2).r_up(), "capacity of the unparked entry");
        // The router may order entries however it likes between calls.
        p.fns[0].dispatch.retune(|entries| entries.reverse());
        let got = p.unpark_one(0).expect("second parked instance");
        assert_eq!(got, window(1).r_up());
        assert!(p.unpark_one(0).is_none(), "park list exhausted");
        assert_eq!(p.fns[0].dispatch.len(), 3);
    }

    /// Satellite regression: sub-minute idle gaps swallowed by the 5 s
    /// recording rate limit must fold back into the histogram (as one
    /// representative sample per burst), not vanish. A long trace of
    /// dense short gaps plus one huge gap: with the fold the huge gap
    /// is <1% of the mass and the 99th-percentile keep-alive window
    /// stays short; dropping the suppressed gaps (the old behavior)
    /// leaves it >1% and the window snaps to the huge gap.
    #[test]
    fn suppressed_idle_burst_moves_the_tail_window() {
        let drive = |with_bursts: bool| -> Windows {
            let mut p = platform(InflessConfig {
                coldstart: ColdStartConfig::Hhp,
                ..InflessConfig::default()
            });
            let mut t = SimTime::ZERO;
            for _ in 0..80 {
                t += SimDuration::from_secs(20);
                // One recorded 10 s gap per cycle…
                p.fns[0].had_activity = true;
                p.fns[0].last_activity = t.saturating_sub(SimDuration::from_secs(10));
                p.observe_idle(0, t);
                if with_bursts {
                    // …and one sub-5 s gap the rate limiter suppresses.
                    p.fns[0].last_activity = t + SimDuration::from_secs(1);
                    p.observe_idle(0, t + SimDuration::from_secs(3));
                }
            }
            // The tail event: a two-hour gap.
            p.fns[0].last_activity = t;
            let end = t + SimDuration::from_secs(7200);
            p.observe_idle(0, end);
            assert_eq!(p.fns[0].suppressed_idle_gaps, 0, "folded at the record");
            p.fns[0].coldstart.windows(end)
        };
        let with_fold = drive(true);
        let without = drive(false);
        assert!(
            with_fold.keep_alive < SimDuration::from_secs(300),
            "folded bursts keep the tail window short: {:?}",
            with_fold.keep_alive
        );
        assert!(
            without.keep_alive >= SimDuration::from_secs(3600),
            "without the bursts the huge gap dominates: {:?}",
            without.keep_alive
        );
    }

    fn sawtooth_report(policy: ScalePolicy) -> RunReport {
        // Three rising ramps separated by near-idle valleys: the rises
        // grow the fleet, the valleys park and reap it.
        let mut rates = Vec::new();
        for _ in 0..3 {
            rates.extend((0..6).map(|i| 40.0 + 120.0 * i as f64));
            rates.extend([1.0; 4]);
        }
        let series = RateSeries::new(SimDuration::from_mins(1), rates);
        let workload = Workload::build(&[FunctionLoad::poisson(series)], 11);
        let functions = vec![FunctionInfo::new(
            ModelId::ResNet50.spec(),
            SimDuration::from_millis(200),
        )];
        let config = InflessConfig {
            scale_policy: policy,
            ..InflessConfig::default()
        };
        InflessPlatform::new(ClusterSpec::testbed(), functions, config, 11).run(&workload)
    }

    #[test]
    fn vertical_first_cuts_launches_on_a_rising_ramp() {
        let hz = sawtooth_report(ScalePolicy::Horizontal);
        let vf = sawtooth_report(ScalePolicy::VerticalFirst);
        println!(
            "hz: launches {} cold {} retire {} viol {:.4} completed {}",
            hz.launches,
            hz.cold_launches,
            hz.retirements,
            hz.violation_rate(),
            hz.total_completed()
        );
        println!(
            "vf: launches {} cold {} retire {} viol {:.4} completed {}",
            vf.launches,
            vf.cold_launches,
            vf.retirements,
            vf.violation_rate(),
            vf.total_completed()
        );
        assert!(
            vf.launches < hz.launches,
            "vertical-first should launch fewer instances: {} vs {}",
            vf.launches,
            hz.launches
        );
        assert!(
            vf.violation_rate() <= hz.violation_rate() + 0.02,
            "SLO attainment regressed: {} vs {}",
            vf.violation_rate(),
            hz.violation_rate()
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::apps::Application;
    use infless_faults::FaultPlan;
    use infless_workload::FunctionLoad;

    pub(super) fn constant_workload(app: &Application, rps: f64, secs: u64) -> Workload {
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
            .collect();
        Workload::build(&loads, 17)
    }

    pub(super) fn platform(app: &Application) -> InflessPlatform {
        InflessPlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            InflessConfig::default(),
            17,
        )
    }

    fn faulted_run(seed: u64) -> RunReport {
        let app = Application::qa_robot();
        let workload = constant_workload(&app, 40.0, 40);
        let schedule = FaultSchedule::generate(
            &FaultPlan::sweep(2.0),
            ClusterSpec::testbed().servers,
            SimDuration::from_secs(40),
            seed,
        );
        driver::run(platform(&app), &workload, &schedule)
    }

    /// Deterministic fingerprint of the per-function results.
    pub(super) fn fn_fingerprint(report: &RunReport) -> String {
        report
            .functions
            .iter()
            .map(|f| {
                format!(
                    "{} {:?} {} {} {} {} {:?} {:?} {:?};",
                    f.name,
                    f.slo,
                    f.completed,
                    f.dropped,
                    f.violations,
                    f.cold_requests,
                    f.latency_ms,
                    f.breakdown,
                    f.per_batch_completed
                )
            })
            .collect()
    }

    /// The zero-cost-when-disabled acceptance gate: a zero-intensity
    /// fault plan must leave the run bit-identical to a fault-free one
    /// (deterministic fields only — wall-clock timings naturally differ
    /// between runs).
    #[test]
    fn empty_schedule_is_bit_identical() {
        let app = Application::qa_robot();
        let workload = constant_workload(&app, 30.0, 20);
        let plain = platform(&app).run(&workload);
        let servers = ClusterSpec::testbed().servers;
        let dur = SimDuration::from_secs(20);
        let schedule = FaultSchedule::generate(&FaultPlan::sweep(0.0), servers, dur, 1);
        assert!(schedule.events().is_empty());
        let faultless = driver::run(platform(&app), &workload, &schedule);
        assert_eq!(fn_fingerprint(&plain), fn_fingerprint(&faultless));
        assert_eq!(plain.launches, faultless.launches);
        assert_eq!(plain.cold_launches, faultless.cold_launches);
        assert_eq!(plain.prewarmed_launches, faultless.prewarmed_launches);
        assert_eq!(plain.retirements, faultless.retirements);
        assert_eq!(
            plain.weighted_resource_seconds.to_bits(),
            faultless.weighted_resource_seconds.to_bits()
        );
        assert_eq!(
            format!("{:?}", plain.provisioning),
            format!("{:?}", faultless.provisioning)
        );
        assert_eq!(plain.config_launches, faultless.config_launches);
        assert_eq!(plain.failures, faultless.failures);
        assert!(!plain.failures.any());
    }

    /// Faulted runs are reproducible: same seeds, same report.
    #[test]
    fn faulted_run_is_deterministic() {
        let a = faulted_run(99);
        let b = faulted_run(99);
        assert_eq!(fn_fingerprint(&a), fn_fingerprint(&b));
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.launches, b.launches);
    }

    /// Under an aggressive sweep the platform actually exercises the
    /// recovery path, and every displaced request reaches exactly one
    /// terminal outcome.
    #[test]
    fn recovery_conserves_displaced_requests() {
        let report = faulted_run(99);
        let f = &report.failures;
        assert!(f.any(), "sweep injected nothing");
        assert!(
            f.server_crashes > 0 || f.instances_killed > 0,
            "no capacity-losing fault fired: {f:?}"
        );
        assert_eq!(
            f.requests_displaced,
            f.requests_retried + f.requests_shed,
            "displaced requests leaked: {f:?}"
        );
        // The run still terminates with every request accounted for.
        assert!(report.total_completed() > 0);
    }

    /// Regression: a displaced request whose remaining SLO budget is
    /// smaller than the predicted execution time of *every* instance
    /// that could take it used to be retried anyway — a guaranteed
    /// violation counted as a recovery. It must be shed immediately.
    #[test]
    fn hopeless_displaced_requests_are_shed_not_retried() {
        let app = Application::qa_robot();
        let mut p = platform(&app);
        let mut queue = EventQueue::new();
        p.scale_out(0, 30.0, StartupKind::Cold, &mut queue);
        let fastest = p.fns[0]
            .dispatch
            .iter()
            .map(|e| e.predicted_exec)
            .min()
            .expect("scale-out launched instances");
        let slo = p.engine.functions()[0].slo();
        let req = p.engine.mint_request(0); // arrives at t = 0

        // Advance to where even the fastest instance cannot finish
        // within the SLO (budget = fastest/2), but the SLO itself has
        // not yet expired.
        let elapsed = slo - fastest.mul_f64(0.5);
        p.engine.advance(SimTime::ZERO + elapsed);
        p.engine.collector.report.failures.requests_displaced += 1;
        p.retry_or_shed(req, &mut queue);

        let report = p.engine.finish();
        let f = &report.failures;
        assert_eq!(f.requests_shed, 1, "hopeless retry was not shed: {f:?}");
        assert_eq!(f.requests_retried, 0, "doomed request was retried: {f:?}");
        assert_eq!(f.requests_displaced, f.requests_retried + f.requests_shed);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::fault_tests::{constant_workload, fn_fingerprint};
    use super::*;
    use crate::apps::Application;
    use infless_faults::FaultPlan;
    use infless_telemetry::{
        FaultTag, MemorySink, NullSink, RecordWriter, SpanKind, TelemetrySink,
    };
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Runs `app`'s platform with `sink` as the record path's output.
    fn run_into(
        app: &Application,
        sink: Box<dyn TelemetrySink>,
        workload: &Workload,
        schedule: &FaultSchedule,
    ) -> RunReport {
        let mut writer = RecordWriter::new(vec![sink]);
        let platform = super::fault_tests::platform(app);
        let report = driver::run_recorded(platform, workload, schedule, Some(&mut writer));
        writer.finish().expect("in-memory outputs cannot fail");
        report
    }

    /// The disabled-telemetry acceptance gate, mirroring the
    /// empty-fault-schedule invariant: a run with the default no-op
    /// sink is bit-identical to one that never heard of telemetry —
    /// and, because span emission is purely passive (no RNG draws, no
    /// event scheduling), so is a run with a *recording* sink attached.
    #[test]
    fn telemetry_sinks_are_bit_identical() {
        let app = Application::qa_robot();
        let workload = constant_workload(&app, 30.0, 20);
        let plain = super::fault_tests::platform(&app).run(&workload);
        let none = FaultSchedule::empty();
        let null = run_into(&app, Box::new(NullSink), &workload, &none);
        let sink = MemorySink::new();
        let recorded = run_into(&app, Box::new(sink.clone()), &workload, &none);
        for other in [&null, &recorded] {
            assert_eq!(fn_fingerprint(&plain), fn_fingerprint(other));
            assert_eq!(plain.launches, other.launches);
            assert_eq!(plain.retirements, other.retirements);
            assert_eq!(
                plain.weighted_resource_seconds.to_bits(),
                other.weighted_resource_seconds.to_bits()
            );
            assert_eq!(
                format!("{:?}", plain.provisioning),
                format!("{:?}", other.provisioning)
            );
        }
        // The recording run actually captured the lifecycle.
        let store = sink.store();
        assert!(store.meta.as_ref().is_some_and(|m| m.platform == "INFless"));
        let arrivals = store
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Arrival)
            .count() as u64;
        assert_eq!(arrivals, plain.total_completed() + plain.total_dropped());
        assert!(!store.rows.is_empty(), "no gauge rows sampled");
    }

    /// Under faults, displaced spans carry their fault annotation and
    /// the displacement accounting recomputed from spans alone agrees
    /// with the collector's counters.
    #[test]
    fn displaced_spans_carry_fault_tags() {
        let app = Application::qa_robot();
        let workload = constant_workload(&app, 40.0, 40);
        let schedule = FaultSchedule::generate(
            &FaultPlan::sweep(2.0),
            ClusterSpec::testbed().servers,
            SimDuration::from_secs(40),
            99,
        );
        let sink = MemorySink::new();
        let report = run_into(&app, Box::new(sink.clone()), &workload, &schedule);
        let store = sink.store();
        let count = |k: SpanKind| store.spans.iter().filter(|s| s.kind == k).count() as u64;
        assert!(
            report.failures.requests_displaced > 0,
            "sweep displaced nothing"
        );
        assert_eq!(
            count(SpanKind::Displaced),
            report.failures.requests_displaced
        );
        assert_eq!(count(SpanKind::Retried), report.failures.requests_retried);
        assert_eq!(
            count(SpanKind::Displaced),
            count(SpanKind::Retried) + count(SpanKind::Shed)
        );
        assert!(
            store
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Displaced)
                .all(|s| s.fault != FaultTag::None),
            "a displaced span lost its fault annotation"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Span conservation over workload x fault intensity x seed:
        /// every arrival terminates in exactly one of completed /
        /// dropped / shed, and each request's span timestamps are
        /// monotone.
        #[test]
        fn spans_conserve_every_arrival(
            rps in 5.0f64..40.0,
            intensity in 0.0f64..4.0,
            seed in 0u64..1000,
        ) {
            let app = Application::qa_robot();
            let workload = constant_workload(&app, rps, 15);
            let schedule = FaultSchedule::generate(
                &FaultPlan::sweep(intensity),
                ClusterSpec::testbed().servers,
                SimDuration::from_secs(15),
                seed,
            );
            let sink = MemorySink::new();
            run_into(&app, Box::new(sink.clone()), &workload, &schedule);
            let store = sink.store();
            // Request ids are arrival ordinals within a function.
            let mut arrived: HashMap<(u32, u64), bool> = HashMap::new();
            let mut terminals: HashMap<(u32, u64), u32> = HashMap::new();
            let mut last_t: HashMap<(u32, u64), f64> = HashMap::new();
            for s in &store.spans {
                let req = (s.function, s.request);
                let prev = last_t.entry(req).or_insert(s.t_s);
                prop_assert!(
                    s.t_s >= *prev,
                    "request {:?} went back in time: {} < {}",
                    req, s.t_s, prev
                );
                *prev = s.t_s;
                match s.kind {
                    SpanKind::Arrival => {
                        prop_assert!(
                            arrived.insert(req, true).is_none(),
                            "request {:?} arrived twice",
                            req
                        );
                    }
                    SpanKind::Complete | SpanKind::Dropped | SpanKind::Shed => {
                        *terminals.entry(req).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
            for &req in arrived.keys() {
                prop_assert_eq!(
                    terminals.get(&req).copied().unwrap_or(0), 1,
                    "request {:?} did not terminate exactly once", req
                );
            }
            for &req in terminals.keys() {
                prop_assert!(
                    arrived.contains_key(&req),
                    "request {:?} terminated without arriving", req
                );
            }
        }
    }
}
