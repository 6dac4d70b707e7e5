//! BATCH — the state-of-the-art OTP (on-top-of-platform) baseline
//! (Ali et al., SC'20), re-hosted on our substrate as the paper does
//! ("we redevelop it atop OpenFaaS and extend its memory-only function
//! profiles with CPU and GPU allocations").
//!
//! What makes it *OTP* rather than native:
//!
//! * **Uniform configuration** — one `(batchsize, resources)` pair per
//!   function, chosen offline from its profile (BATCH "always prefers a
//!   larger batch", Fig. 13b); every instance of the function is
//!   identical and scaling is uniform (instance count only).
//! * **Buffer latency** — the external buffer adds a dispatch delay to
//!   every request before the platform sees it.
//! * **Scheduling blindness** — the buffer cannot see queueing inside
//!   the platform nor steer placement; instances land first-fit. The
//!   **BATCH+RS** variant of Fig. 17b routes the same uniform configs
//!   through a fragmentation-aware best-fit placement instead.
//! * **Fixed keep-alive** — no pre-warming, constant keep-alive window.

use infless_cluster::{ClusterSpec, InstanceConfig, InstanceId, Server, ServerId};
use infless_faults::FaultSchedule;
use infless_models::{profile::ConfigGrid, HardwareModel, ModelSpec, ProfileDatabase};
use infless_sim::{EventQueue, SimDuration, SimTime};
use infless_workload::Workload;
use std::collections::VecDeque;

use infless_core::batching::RpsWindow;
use infless_core::driver::{self, Platform};
use infless_core::engine::{CompletedBatch, Engine, EngineEvent, FaultOutcome, FunctionInfo};
use infless_core::metrics::{RunReport, StartupKind};
use infless_core::predictor::CopPredictor;
use infless_core::router::LeastLoadedScratch;

/// How BATCH places new instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlacement {
    /// Stock BATCH: the underlying platform's Kubernetes-style
    /// least-allocated spreading — the OTP layer cannot steer placement
    /// (this is what fragments the cluster, Fig. 17b).
    Spread,
    /// BATCH+RS (Fig. 17b): the same uniform configs handed to a
    /// fragmentation-aware best-fit placement.
    BestFit,
}

/// Extra per-request latency added by the OTP buffer layer.
const OTP_DELAY: SimDuration = SimDuration::from_millis(8);
/// Fixed keep-alive window.
const KEEP_ALIVE: SimDuration = SimDuration::from_secs(300);
/// Scaling/reap tick period.
const TICK: SimDuration = SimDuration::from_secs(1);
/// RPS monitor window.
const MONITOR_WINDOW: SimDuration = SimDuration::from_secs(10);

/// BATCH knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Placement strategy (FirstFit = BATCH, BestFit = BATCH+RS).
    pub placement: BatchPlacement,
    /// Cap on the uniform batchsize BATCH may choose (the paper's
    /// Fig. 3a experiment fixes b = 4).
    pub max_batch: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            placement: BatchPlacement::Spread,
            max_batch: u32::MAX,
        }
    }
}

/// The uniform per-function plan BATCH derives offline.
#[derive(Debug, Clone, Copy)]
pub struct UniformPlan {
    /// The single `(b, c, g)` every instance of the function uses.
    pub config: InstanceConfig,
    /// The feasible window under BATCH's own (conservative) profile.
    pub window: RpsWindow,
    /// The batch queueing budget.
    pub wait_budget: SimDuration,
}

#[derive(Debug)]
struct FnState {
    plan: Option<UniformPlan>,
    recent_arrivals: VecDeque<SimTime>,
    /// The OTP buffer: requests wait here centrally until a platform
    /// instance has queue space. BATCH's buffer is SLO-aware: it admits
    /// only as much backlog as the current fleet can drain in a couple
    /// of batch rounds — holding more would guarantee timeouts.
    buffer: VecDeque<infless_cluster::Request>,
}

/// The BATCH platform.
///
/// # Example
///
/// ```
/// use infless_baselines::BatchPlatform;
/// use infless_cluster::ClusterSpec;
/// use infless_core::apps::Application;
/// use infless_sim::SimDuration;
/// use infless_workload::{FunctionLoad, Workload};
///
/// let app = Application::osvt();
/// let loads: Vec<_> = app.functions().iter()
///     .map(|_| FunctionLoad::constant(20.0, SimDuration::from_secs(10)))
///     .collect();
/// let workload = Workload::build(&loads, 2);
/// let report = BatchPlatform::new(ClusterSpec::testbed(), app.functions().to_vec(), 2)
///     .run(&workload);
/// assert!(report.total_completed() > 0);
/// ```
#[derive(Debug)]
pub struct BatchPlatform {
    engine: Engine,
    config: BatchConfig,
    fns: Vec<FnState>,
    route_scratch: LeastLoadedScratch,
}

impl BatchPlatform {
    /// Builds the platform with default settings.
    pub fn new(cluster: ClusterSpec, functions: Vec<FunctionInfo>, seed: u64) -> Self {
        Self::with_config(cluster, functions, BatchConfig::default(), seed)
    }

    /// Builds the platform with custom settings (e.g. BATCH+RS).
    pub fn with_config(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        config: BatchConfig,
        seed: u64,
    ) -> Self {
        let construction_started = std::time::Instant::now();
        let hardware = HardwareModel::default();
        let specs: Vec<ModelSpec> = functions.iter().map(|f| f.spec().clone()).collect();
        let (db, cache_outcome) =
            ProfileDatabase::cached_with_outcome(&hardware, &specs, &ConfigGrid::standard(), seed);
        let predictor = CopPredictor::new(db, hardware.clone());
        let name = match config.placement {
            BatchPlacement::Spread => "BATCH",
            BatchPlacement::BestFit => "BATCH+RS",
        };
        // Offline uniform profiling: largest feasible batch, then the
        // configuration with the highest absolute throughput.
        let fns: Vec<FnState> = functions
            .iter()
            .map(|f| FnState {
                plan: uniform_plan(&predictor, f, config.max_batch),
                recent_arrivals: VecDeque::new(),
                buffer: VecDeque::new(),
            })
            .collect();
        let mut engine = Engine::new(name, cluster, hardware, functions, seed);
        engine.collector.started = construction_started;
        engine.collector.report.profile_cache = Some(cache_outcome);
        BatchPlatform {
            engine,
            config,
            fns,
            route_scratch: LeastLoadedScratch::default(),
        }
    }

    /// The uniform batchsize chosen for function `f` (None if no
    /// feasible configuration exists).
    pub fn uniform_batch(&self, f: usize) -> Option<u32> {
        self.fns[f].plan.map(|p| p.config.batch())
    }

    /// Runs the workload to completion with no faults injected.
    pub fn run(self, workload: &Workload) -> RunReport {
        driver::run(self, workload, &FaultSchedule::empty())
    }

    /// The SLO-aware admission cap: roughly two batch rounds of backlog
    /// per live instance (plus slack for the cold-start ramp while no
    /// instance exists yet).
    fn buffer_cap(&self, f: usize) -> usize {
        let Some(plan) = self.fns[f].plan else {
            return 0;
        };
        let live = self.engine.instances_of(f).len();
        let b = plan.config.batch() as usize;
        (2 * b * live).max(4 * b)
    }

    /// Moves buffered requests into platform instances with queue
    /// space, least-loaded first. Scaling itself is tick-driven; the
    /// buffer only absorbs what the current fleet cannot.
    fn pump(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        // Order once per pump (least-loaded first, via the shared
        // routing scratch — no fresh Vec per call) and rotate through
        // the fleet; re-sorting per buffered request would cost
        // O(backlog · n log n) for no better balance.
        let engine = &self.engine;
        let ordered = self
            .route_scratch
            .order(engine.instances_of(f), |id| engine.instance(id).queue_len());
        let n = ordered.len();
        if n == 0 {
            return;
        }
        let mut cursor = 0usize;
        while let Some(&req) = self.fns[f].buffer.front() {
            let mut placed = false;
            for _ in 0..n {
                let id = ordered[cursor % n];
                cursor += 1;
                if self.engine.enqueue(id, req, queue) {
                    placed = true;
                    break;
                }
            }
            if placed {
                self.fns[f].buffer.pop_front();
            } else {
                break;
            }
        }
    }

    fn launch(
        &mut self,
        f: usize,
        plan: UniformPlan,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Option<InstanceId> {
        // The OTP buffer cannot pre-warm inside the platform: every
        // launch pays the full cold start.
        let startup = StartupKind::Cold;
        let server = self.pick_server(plan.config)?;
        self.engine
            .launch_on(f, server, plan.config, startup, plan.wait_budget, queue)
            .ok()
    }

    /// The fitting server a launch lands on, by weighted free capacity:
    /// the *most* for stock BATCH (Kubernetes least-allocated
    /// spreading), the *least* for BATCH+RS (tightest fit → fewest
    /// stranded fragments).
    fn pick_server(&self, config: InstanceConfig) -> Option<ServerId> {
        let beta = self.engine.beta();
        let free = |s: &Server| beta * f64::from(s.cpu_free()) + f64::from(s.gpu_free_total());
        let by_free = |a: &&Server, b: &&Server| free(a).partial_cmp(&free(b)).expect("finite");
        let servers = self.engine.cluster().servers().iter();
        let fitting = servers.filter(|s| s.fits(config.resources()));
        match self.config.placement {
            BatchPlacement::Spread => fitting.max_by(by_free),
            BatchPlacement::BestFit => fitting.min_by(by_free),
        }
        .map(|s| s.id())
    }
}

impl Platform for BatchPlatform {
    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn tick_period(&self) -> SimDuration {
        TICK
    }

    /// The OTP buffer forwards each request after its dispatch delay.
    fn arrival_delay(&self) -> SimDuration {
        OTP_DELAY
    }

    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        let now = self.engine.now();
        // True gateway arrival precedes the buffer delay.
        let arrival = now.saturating_sub(OTP_DELAY);
        let req = self.engine.mint_request_arrived(f, arrival);
        self.fns[f].recent_arrivals.push_back(now);
        let cap = self.buffer_cap(f);
        if self.fns[f].plan.is_none() || self.fns[f].buffer.len() >= cap {
            self.engine.drop_request(&req);
            return;
        }
        self.fns[f].buffer.push_back(req);
        self.pump(f, queue);
    }

    fn on_ready(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        if self.engine.is_live(id) {
            let f = self.engine.instance(id).function().raw();
            self.pump(f, queue);
        }
    }

    fn on_done(&mut self, done: &CompletedBatch, queue: &mut EventQueue<EngineEvent>) {
        self.pump(done.function, queue);
    }

    fn on_tick(&mut self, queue: &mut EventQueue<EngineEvent>) {
        let now = self.engine.now();
        for f in 0..self.fns.len() {
            // Monitor.
            let horizon = now.saturating_sub(MONITOR_WINDOW);
            while let Some(&t) = self.fns[f].recent_arrivals.front() {
                if t < horizon {
                    self.fns[f].recent_arrivals.pop_front();
                } else {
                    break;
                }
            }
            let window = MONITOR_WINDOW
                .min(now.saturating_since(SimTime::ZERO))
                .as_secs_f64()
                .max(1.0);
            let rps = self.fns[f].recent_arrivals.len() as f64 / window;

            let Some(plan) = self.fns[f].plan else {
                continue;
            };
            // Uniform scaling: n = ceil(R / r_up), plus one catch-up
            // instance per tick while the buffer holds a backlog.
            let mut desired = (rps / plan.window.r_up()).ceil() as usize;
            if self.fns[f].buffer.len() > plan.config.batch() as usize {
                desired += 1;
            }
            let live = self.engine.instances_of(f).len();
            for _ in live..desired {
                if self.launch(f, plan, queue).is_none() {
                    break;
                }
            }
            self.pump(f, queue);
            // Fixed keep-alive reaping (no proactive scale-in).
            self.engine.retire_idle(f, KEEP_ALIVE);
        }
    }

    /// Displaced requests whose SLO budget survives (and that still fit
    /// the admission cap) re-enter the front of the OTP buffer — they
    /// arrived first — and the affected functions are pumped
    /// immediately; replacement capacity itself only appears at the
    /// next scaling tick, as BATCH's OTP layer cannot react faster than
    /// its control loop.
    fn on_fault(&mut self, outcome: FaultOutcome, queue: &mut EventQueue<EngineEvent>) {
        let now = self.engine.now();
        // Reverse order + push_front keeps the buffer arrival-ordered.
        for req in outcome.displaced.into_iter().rev() {
            let f = req.function.raw();
            let slo = self.engine.functions()[f].slo();
            let within_budget = now.saturating_since(req.arrival) < slo;
            if within_budget
                && self.fns[f].plan.is_some()
                && self.fns[f].buffer.len() < self.buffer_cap(f)
            {
                self.fns[f].buffer.push_front(req);
                self.engine.record_retry(&req);
            } else {
                self.engine.shed_request(&req);
            }
        }
        let mut affected: Vec<usize> = outcome.killed.iter().map(|&(f, _)| f).collect();
        affected.sort_unstable();
        affected.dedup();
        for f in affected {
            self.pump(f, queue);
        }
    }

    fn finish(self) -> RunReport {
        self.engine.finish()
    }
}

/// The relative uncertainty of BATCH's whole-function profiles.
///
/// BATCH profiles *functions* end-to-end (originally memory-only
/// profiles on Lambda, extended here with CPU/GPU dimensions). Those
/// coarse black-box profiles carry substantially more uncertainty than
/// INFless's combined-operator predictions, so BATCH plans against an
/// inflated latency estimate — the same mechanism the paper's OP
/// ablation (Fig. 11) applies to INFless.
pub const BATCH_PROFILE_MARGIN: f64 = 1.3;

/// Chooses BATCH's uniform `(b, c, g)` for a function: the largest
/// batchsize with any SLO-feasible configuration, then the highest
/// absolute throughput configuration at that batchsize.
///
/// The search runs over a *coarse* configuration menu (whole instance
/// sizes, GPU shares in steps of 10 up to 40 %) — an OTP system selects
/// from the platform's preconfigured instance types, it cannot tune
/// arbitrary slices (Fig. 13c shows BATCH using only three ResNet-50
/// configurations) — and against profile estimates inflated by
/// [`BATCH_PROFILE_MARGIN`].
pub fn uniform_plan(
    predictor: &CopPredictor,
    function: &FunctionInfo,
    max_batch: u32,
) -> Option<UniformPlan> {
    let slo = function.slo();
    // The buffer delay eats into the latency budget but BATCH cannot
    // see platform internals, so it plans against the reduced budget.
    let effective_slo = slo - OTP_DELAY;
    let cap = max_batch.min(function.max_batch());
    let mut batches: Vec<u32> = predictor
        .grid()
        .batches()
        .iter()
        .copied()
        .filter(|b| *b <= cap)
        .collect();
    batches.sort_unstable();
    let coarse = |cfg: infless_models::ResourceConfig| {
        (cfg.cpu_cores() == 2 || cfg.cpu_cores() == 4)
            && cfg.gpu_pct().is_multiple_of(10)
            && cfg.gpu_pct() <= 40
    };
    for &b in batches.iter().rev() {
        let mut best: Option<(f64, UniformPlan)> = None;
        for &cfg in predictor.grid().configs() {
            if !coarse(cfg) {
                continue;
            }
            let Some(t_raw) = predictor.predict(function.spec(), b, cfg) else {
                continue;
            };
            let t_exec = t_raw.mul_f64(BATCH_PROFILE_MARGIN);
            let Some(window) = RpsWindow::for_instance(t_exec, effective_slo, b) else {
                continue;
            };
            let wait_budget = (effective_slo - t_exec).max(SimDuration::from_millis(1));
            let plan = UniformPlan {
                config: InstanceConfig::new(b, cfg),
                window,
                wait_budget,
            };
            if best.as_ref().is_none_or(|(r, _)| window.r_up() > *r) {
                best = Some((window.r_up(), plan));
            }
        }
        if let Some((_, plan)) = best {
            return Some(plan);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_core::apps::Application;
    use infless_workload::FunctionLoad;

    fn platform(app: &Application) -> BatchPlatform {
        BatchPlatform::new(ClusterSpec::testbed(), app.functions().to_vec(), 9)
    }

    fn run(app: Application, rps: f64, secs: u64) -> RunReport {
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
            .collect();
        let workload = Workload::build(&loads, 9);
        platform(&app).run(&workload)
    }

    #[test]
    fn prefers_large_uniform_batches() {
        // Fig. 13b: BATCH mainly uses large batchsizes regardless of
        // the actual arrival rate.
        let app = Application::osvt();
        let p = platform(&app);
        for f in 0..app.functions().len() {
            let b = p.uniform_batch(f).expect("feasible");
            assert!(b >= 8, "function {f}: uniform batch {b} too small");
        }
    }

    #[test]
    fn every_function_uses_one_batchsize() {
        let report = run(Application::osvt(), 60.0, 30);
        for f in &report.functions {
            assert!(
                f.per_batch_completed.len() <= 1,
                "{}: BATCH must be uniform, got {:?}",
                f.name,
                f.per_batch_completed
            );
        }
    }

    #[test]
    fn otp_delay_inflates_latency() {
        let report = run(Application::osvt(), 60.0, 30);
        for f in &report.functions {
            if f.completed == 0 {
                continue;
            }
            let lat = &f.latency_ms;
            let min = lat.quantile(0.0).unwrap();
            assert!(
                min >= 8.0,
                "{}: minimum latency {min}ms below the OTP delay",
                f.name
            );
        }
    }

    #[test]
    fn serves_most_requests_under_moderate_load() {
        let report = run(Application::osvt(), 60.0, 40);
        let total = report.total_completed() + report.total_dropped();
        assert!(report.total_completed() as f64 / total as f64 > 0.9);
    }

    #[test]
    fn best_fit_reduces_fragments() {
        let app = Application::combined();
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(80.0, SimDuration::from_secs(30)))
            .collect();
        let workload = Workload::build(&loads, 4);
        let frag = |placement: BatchPlacement| {
            let cfg = BatchConfig {
                placement,
                ..BatchConfig::default()
            };
            let report = BatchPlatform::with_config(
                ClusterSpec::testbed(),
                app.functions().to_vec(),
                cfg,
                4,
            )
            .run(&workload);
            // Within the histogram's 2⁻⁸ relative error of the exact
            // median.
            report.fragment_samples.quantile(0.5).unwrap_or(0.0)
        };
        let first_fit = frag(BatchPlacement::Spread);
        let best_fit = frag(BatchPlacement::BestFit);
        assert!(
            best_fit <= first_fit + 0.05,
            "BATCH+RS should not fragment more: {best_fit} vs {first_fit}"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(Application::qa_robot(), 40.0, 20);
        let b = run(Application::qa_robot(), 40.0, 20);
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.launches, b.launches);
    }
}
