//! The reactive baselines: OpenFaaS+ (§5.1) and Torpor, one platform
//! whose only difference is how a new pod comes up.
//!
//! The paper grants the stock OpenFaaS platform GPU access for a fair
//! comparison, but keeps its serverless semantics: every request maps
//! one-to-one onto an instance (batchsize 1), every instance gets the
//! same fixed allocation (2 CPU cores + 10 % GPU SMs), scaling is
//! purely reactive (a request with no free instance triggers a launch)
//! and rate-limited, and idle instances die after a fixed 300-second
//! keep-alive.
//!
//! Torpor (Yu et al.) is that same platform with a GPU memory tier: it
//! keeps every deployed model's weights pinned in server host RAM and
//! serves a launch by *swapping* the model into device memory over
//! PCIe, pipelined with execution. A "cold" start then never pays the
//! container boot + model load from disk, only the sub-second swap-in.
//! Because nothing else differs, the gap between the two in the failure
//! sweeps is attributable to exactly one mechanism: swap-based recovery
//! versus boot-based recovery.

use infless_cluster::{ClusterSpec, InstanceConfig, InstanceId, InstanceState, Request};
use infless_faults::FaultSchedule;
use infless_models::{HardwareModel, ResourceConfig};
use infless_sim::{EventQueue, SimDuration, SimTime};
use infless_workload::Workload;

use infless_core::driver::{self, Platform};
use infless_core::engine::{Engine, EngineEvent, FaultOutcome, FunctionInfo};
use infless_core::metrics::{RunReport, StartupKind};
use infless_core::router::LeastLoadedScratch;

/// How a reactive platform brings up a new pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchPath {
    /// Container boot + model load from disk (OpenFaaS+).
    Boot,
    /// Pipelined PCIe swap-in from the host-RAM model cache (Torpor).
    SwapIn,
}

impl LaunchPath {
    /// The platform name the engine reports.
    fn platform_name(self) -> &'static str {
        match self {
            LaunchPath::Boot => "OpenFaaS+",
            LaunchPath::SwapIn => "Torpor",
        }
    }

    fn startup(self) -> StartupKind {
        match self {
            LaunchPath::Boot => StartupKind::Cold,
            LaunchPath::SwapIn => StartupKind::SwapIn,
        }
    }
}

/// Reactive-platform knobs. The two presets differ only in
/// [`Self::launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactiveConfig {
    /// The uniform per-instance allocation ("2 CPU cores and 10% GPU
    /// SMs").
    pub instance_resources: ResourceConfig,
    /// The fixed keep-alive window (300 s).
    pub keep_alive: SimDuration,
    /// Idle-reap check period.
    pub reap_period: SimDuration,
    /// Maximum concurrently starting pods per function — real
    /// OpenFaaS/Kubernetes scale in rate-limited steps rather than one
    /// pod per queued request.
    pub max_concurrent_starts: usize,
    /// How every launch brings its pod up.
    pub launch: LaunchPath,
}

impl ReactiveConfig {
    /// OpenFaaS+ with the §5.1 defaults: every launch boots.
    pub fn openfaas() -> Self {
        ReactiveConfig {
            instance_resources: ResourceConfig::new(2, 10),
            keep_alive: SimDuration::from_secs(300),
            reap_period: SimDuration::from_secs(1),
            max_concurrent_starts: 8,
            launch: LaunchPath::Boot,
        }
    }

    /// Torpor: the OpenFaaS+ defaults, served from the host-RAM model
    /// cache, so every launch is a swap-in.
    pub fn torpor() -> Self {
        ReactiveConfig {
            launch: LaunchPath::SwapIn,
            ..Self::openfaas()
        }
    }
}

/// The reactive platform (OpenFaaS+ or Torpor, by launch path).
///
/// # Example
///
/// ```
/// use infless_baselines::{ReactiveConfig, ReactivePlatform};
/// use infless_cluster::ClusterSpec;
/// use infless_core::apps::Application;
/// use infless_sim::SimDuration;
/// use infless_workload::{FunctionLoad, Workload};
///
/// let app = Application::qa_robot();
/// let loads: Vec<_> = app.functions().iter()
///     .map(|_| FunctionLoad::constant(10.0, SimDuration::from_secs(10)))
///     .collect();
/// let workload = Workload::build(&loads, 1);
/// let report = ReactivePlatform::new(
///     ClusterSpec::testbed(),
///     app.functions().to_vec(),
///     ReactiveConfig::torpor(),
///     1,
/// )
/// .run(&workload);
/// assert!(report.total_completed() > 0);
/// assert!(report.swap_launches > 0);
/// ```
#[derive(Debug)]
pub struct ReactivePlatform {
    engine: Engine,
    config: ReactiveConfig,
    route_scratch: LeastLoadedScratch,
}

impl ReactivePlatform {
    /// Builds the platform. On the swap-in path every deployed model is
    /// host-resident from deploy time (Torpor pins weights in server
    /// RAM), so the engine books device memory per GPU placement from
    /// the start.
    pub fn new(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        config: ReactiveConfig,
        seed: u64,
    ) -> Self {
        let mut engine = Engine::new(
            config.launch.platform_name(),
            cluster,
            HardwareModel::default(),
            functions,
            seed,
        );
        if config.launch == LaunchPath::SwapIn {
            engine.enable_device_memory();
        }
        ReactivePlatform {
            engine,
            config,
            route_scratch: LeastLoadedScratch::default(),
        }
    }

    /// Runs the workload to completion with no faults injected.
    pub fn run(self, workload: &Workload) -> RunReport {
        driver::run(self, workload, &FaultSchedule::empty())
    }

    /// Tries to place `req` (an arrival or a fault-displaced retry);
    /// returns `false` when it could not be accepted anywhere.
    fn place(&mut self, f: usize, req: Request, queue: &mut EventQueue<EngineEvent>) -> bool {
        let now = self.engine.now();
        if let Some(id) = self.free_instance(f, now) {
            let accepted = self.engine.enqueue(id, req, queue);
            debug_assert!(accepted, "a free instance always accepts one request");
            return true;
        }
        // Reactive scale-out: one instance per unserved request. There
        // is no pre-warming: every pod pays its full launch path.
        // Scaling is rate-limited, as Kubernetes' is.
        let starting = self
            .engine
            .instances_of(f)
            .iter()
            .filter(|id| self.engine.instance(**id).is_starting(now))
            .count();
        if starting < self.config.max_concurrent_starts {
            let cfg = InstanceConfig::new(1, self.config.instance_resources);
            let startup = self.config.launch.startup();
            if let Ok(id) = self
                .engine
                .launch_anywhere(f, cfg, startup, SimDuration::MAX, queue)
            {
                let accepted = self.engine.enqueue(id, req, queue);
                debug_assert!(accepted);
                return true;
            }
        }
        // Rate-limited (or cluster full): queue one-deep behind any pod
        // with space, else reject.
        let engine = &self.engine;
        let ordered = self
            .route_scratch
            .order(engine.instances_of(f), |id| engine.instance(id).queue_len());
        for &id in ordered {
            if self.engine.enqueue(id, req, queue) {
                return true;
            }
        }
        false
    }

    fn free_instance(&self, f: usize, now: SimTime) -> Option<InstanceId> {
        self.engine.instances_of(f).iter().copied().find(|id| {
            let inst = self.engine.instance(*id);
            inst.queue_len() == 0
                && !inst.is_starting(now)
                && !matches!(inst.state(), InstanceState::Busy { .. })
        })
    }
}

impl Platform for ReactivePlatform {
    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn tick_period(&self) -> SimDuration {
        self.config.reap_period
    }

    /// One-to-one dispatch: a free (idle, empty-queue) instance takes
    /// the request; otherwise a new pod is launched for it — subject to
    /// the platform's scaling rate limit, beyond which the request
    /// queues one-deep behind a busy/starting pod or is rejected.
    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        let req = self.engine.mint_request(f);
        if !self.place(f, req, queue) {
            self.engine.drop_request(&req);
        }
    }

    fn on_tick(&mut self, _queue: &mut EventQueue<EngineEvent>) {
        for f in 0..self.engine.functions().len() {
            self.engine.retire_idle(f, self.config.keep_alive);
        }
    }

    /// Reactive recovery: displaced requests with SLO budget left
    /// re-enter placement (which launches replacement pods exactly as a
    /// fresh arrival would, down the same launch path); the rest are
    /// shed.
    fn on_fault(&mut self, outcome: FaultOutcome, queue: &mut EventQueue<EngineEvent>) {
        for req in outcome.displaced {
            let f = req.function.raw();
            let slo = self.engine.functions()[f].slo();
            let now = self.engine.now();
            if now.saturating_since(req.arrival) < slo && self.place(f, req, queue) {
                self.engine.record_retry(&req);
            } else {
                self.engine.shed_request(&req);
            }
        }
    }

    fn finish(self) -> RunReport {
        self.engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_core::apps::Application;
    use infless_faults::FaultPlan;
    use infless_models::ModelId;
    use infless_workload::{FunctionLoad, TracePattern};
    use proptest::prelude::*;

    const PATHS: [LaunchPath; 2] = [LaunchPath::Boot, LaunchPath::SwapIn];

    fn config(launch: LaunchPath) -> ReactiveConfig {
        ReactiveConfig {
            launch,
            ..ReactiveConfig::openfaas()
        }
    }

    fn workload(rps: f64, secs: u64) -> (Application, Workload) {
        let app = Application::qa_robot();
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
            .collect();
        let w = Workload::build(&loads, 5);
        (app, w)
    }

    fn run(launch: LaunchPath, rps: f64, secs: u64) -> RunReport {
        let (app, w) = workload(rps, secs);
        ReactivePlatform::new(
            ClusterSpec::testbed(),
            app.functions().to_vec(),
            config(launch),
            5,
        )
        .run(&w)
    }

    #[test]
    fn presets_differ_only_in_launch_path() {
        assert_eq!(ReactiveConfig::openfaas().launch, LaunchPath::Boot);
        assert_eq!(ReactiveConfig::torpor(), config(LaunchPath::SwapIn));
    }

    #[test]
    fn serves_requests_one_to_one() {
        for launch in PATHS {
            let report = run(launch, 20.0, 30);
            assert!(report.total_completed() > 0);
            // Everything executes at batchsize 1.
            for f in &report.functions {
                assert!(f.per_batch_completed.keys().all(|b| *b == 1));
            }
        }
    }

    #[test]
    fn launch_path_decides_the_startup_kind() {
        let boot = run(LaunchPath::Boot, 20.0, 30);
        assert_eq!(boot.platform, "OpenFaaS+");
        assert_eq!(boot.swap_launches, 0, "OpenFaaS+ never swaps in");
        let swap = run(LaunchPath::SwapIn, 20.0, 30);
        assert_eq!(swap.platform, "Torpor");
        assert!(swap.swap_launches > 0);
        assert_eq!(swap.cold_launches, 0, "Torpor never boots from disk");
        assert_eq!(swap.swap_launches, swap.launches);
    }

    #[test]
    fn spawns_many_instances() {
        // One-to-one mapping creates far more instances than requests
        // strictly need (Observation #4).
        let report = run(LaunchPath::Boot, 50.0, 30);
        assert!(
            report.launches > 20,
            "expected instance sprawl, got {} launches",
            report.launches
        );
    }

    #[test]
    fn fixed_keepalive_retires_nothing_in_short_runs() {
        let report = run(LaunchPath::Boot, 20.0, 30);
        assert_eq!(
            report.retirements, 0,
            "300s keep-alive cannot expire within a 30s run"
        );
    }

    #[test]
    fn drops_when_cluster_exhausted() {
        let (app, w) = workload(500.0, 10);
        let tiny = ClusterSpec {
            servers: 1,
            cores_per_server: 4,
            gpus_per_server: 1,
            mem_per_server_mb: 128.0 * 1024.0,
            gpu_mem_per_device_mb: 0.0,
        };
        let report = ReactivePlatform::new(
            tiny,
            app.functions().to_vec(),
            ReactiveConfig::openfaas(),
            5,
        )
        .run(&w);
        assert!(report.total_dropped() > 0);
    }

    #[test]
    fn swap_starts_beat_openfaas_cold_starts() {
        let torpor = run(LaunchPath::SwapIn, 20.0, 30);
        let ofp = run(LaunchPath::Boot, 20.0, 30);
        let t = &torpor.functions[0].breakdown.startup_ms;
        let o = &ofp.functions[0].breakdown.startup_ms;
        assert!(t.count() > 0);
        assert!(o.count() > 0);
        let (t_cold, o_cold) = (t.mean(), o.mean());
        assert!(
            t_cold < o_cold / 2.0,
            "swap-in start ({t_cold:.0} ms) should be far below boot ({o_cold:.0} ms)"
        );
    }

    #[test]
    fn swap_recovery_beats_boot_recovery_under_faults() {
        // Bursty load keeps the reactive fleets launching after the
        // sweep's crashes, so the recapacity probes actually credit;
        // identical seeds on both paths make the gap a pure
        // swap-vs-boot recovery gap.
        let app = Application::qa_robot();
        let dur = SimDuration::from_mins(3);
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::trace(TracePattern::Bursty, 80.0, dur, 42))
            .collect();
        let w = Workload::build(&loads, 42);
        let recapacity = |launch| {
            let schedule = FaultSchedule::generate(
                &FaultPlan::sweep(4.0),
                ClusterSpec::testbed().servers,
                dur,
                9,
            );
            let platform = ReactivePlatform::new(
                ClusterSpec::testbed(),
                app.functions().to_vec(),
                config(launch),
                5,
            );
            driver::run(platform, &w, &schedule)
                .failures
                .mean_time_to_recapacity_ms()
        };
        let t = recapacity(LaunchPath::SwapIn);
        let o = recapacity(LaunchPath::Boot);
        assert!(t.is_some(), "no recapacity samples on the Torpor run");
        assert!(
            t.unwrap() < o.unwrap_or(f64::MAX) / 2.0,
            "swap recovery ({t:?} ms) should clearly beat boot recovery ({o:?} ms)"
        );
    }

    #[test]
    fn deterministic() {
        for launch in PATHS {
            let a = run(launch, 15.0, 20);
            let b = run(launch, 15.0, 20);
            assert_eq!(a.total_completed(), b.total_completed());
            assert_eq!(a.launches, b.launches);
            assert_eq!(a.swap_launches, b.swap_launches);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Failure accounting on both launch paths: every displaced
        /// request is retried or shed, and every offered request ends
        /// exactly once (completed or dropped; shed counts as dropped).
        /// A saturated 3-server fleet keeps pods busy when faults land,
        /// and a tight SLO makes some displaced requests too old to
        /// retry, so both the retry and the shed branch fire.
        #[test]
        fn prop_failure_accounting_holds_on_both_launch_paths(
            launch in prop::sample::select(PATHS.to_vec()),
            intensity in 0.0f64..=4.0,
            seed in 0u64..1000,
        ) {
            let functions = vec![
                FunctionInfo::new(ModelId::ResNet50.spec(), SimDuration::from_millis(60)),
            ];
            let dur = SimDuration::from_secs(60);
            let w = Workload::build(&[FunctionLoad::constant(300.0, dur)], seed);
            let cluster = ClusterSpec {
                servers: 3,
                ..ClusterSpec::testbed()
            };
            let schedule =
                FaultSchedule::generate(&FaultPlan::sweep(intensity), cluster.servers, dur, seed);
            let platform = ReactivePlatform::new(cluster, functions, config(launch), seed);
            let report = driver::run(platform, &w, &schedule);
            let f = &report.failures;
            prop_assert_eq!(
                f.requests_displaced,
                f.requests_retried + f.requests_shed,
                "displaced leaked: {:?}", f
            );
            prop_assert_eq!(
                report.total_completed() + report.total_dropped(),
                w.len() as u64,
                "conservation broken: completed {} + dropped {} != offered {}; {:?}",
                report.total_completed(),
                report.total_dropped(),
                w.len(),
                f
            );
        }
    }
}
