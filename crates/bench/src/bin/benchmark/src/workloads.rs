//! The four benchmark workloads: deployments built from `ModelId` specs
//! and open-loop arrival schedules generated here from the seed.
//!
//! Arrivals are drawn by this file's own generator and handed to the
//! program as `FunctionLoad::explicit` lists, so a change to the
//! program's trace generators cannot move the benchmark's inputs.
//!
//! A workload is a set of independent episodes: the same deployment
//! serving separately drawn traffic, each run from an empty cluster.
//! How much work INFless's control plane does for a given trace depends
//! on which deployments it happens to settle on, so one trace's cost
//! can differ from another's by 10% or more; the sum over several
//! episodes varies far less from seed to seed than one long trace does.

use infless_bench::{fault_schedule_for, System};
use infless_cluster::ClusterSpec;
use infless_core::platform::ScalePolicy;
use infless_core::{
    FunctionInfo, InflessConfig, ResidencyConfig, RunConfig, RunReport, ShardedInfless,
};
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};
use infless_models::ModelId;
use infless_sim::{SimDuration, SimTime};
use infless_telemetry::DecisionRecord;
use infless_workload::{FunctionLoad, Workload};

/// The workload names, in their canonical order.
pub const NAMES: [&str; 4] = ["steady_hot", "fleet_churn", "llm_chat", "reactive_swap"];

/// The simulated system's own seed (COP profiling noise, execution
/// noise), fixed so that `--seed` varies the traffic and the faults but
/// not the system: another profiling-noise draw can change the
/// deployment INFless settles on, and with it the cost of every request.
pub const SIM_SEED: u64 = 1;

/// `--quick` runs one episode of each workload at this fraction of its
/// simulated duration.
const QUICK_SCALE: f64 = 0.25;

/// How one function's arrivals are drawn.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Evenly spaced at `rps`, with a seeded phase.
    Constant(f64),
    /// Homogeneous Poisson at `rps`.
    Poisson(f64),
    /// Poisson at a 0.5× base with one 2–4× spike of 2–4 s at a random
    /// offset in every 10-s period, normalised to a mean of `rps`. Every
    /// period has its spike, so the number of spikes, and with it the
    /// scaling work, does not depend on the seed.
    Bursty(f64),
    /// Poisson active in ~15% of 60-s windows, silent otherwise, with
    /// a mean of `rps`: the idle gaps outlast keep-alive windows.
    Sporadic(f64),
}

/// A workload's deployment and run settings, before arrivals are drawn.
struct Spec {
    system: System,
    cluster: ClusterSpec,
    functions: Vec<(FunctionInfo, Arrivals)>,
    /// Episodes per workload.
    episodes: usize,
    /// Simulated length of each episode.
    duration: SimDuration,
    faults: Option<FaultPlan>,
    shards: usize,
    residency: bool,
    llm: Option<LlmConfig>,
    policy: Option<ScalePolicy>,
}

fn spec(name: &str) -> Option<Spec> {
    let ms = SimDuration::from_millis;
    let base = |system, functions, episodes, secs| Spec {
        system,
        cluster: ClusterSpec::testbed(),
        functions,
        episodes,
        duration: SimDuration::from_secs(secs),
        faults: None,
        shards: 0,
        residency: false,
        llm: None,
        policy: None,
    };
    Some(match name {
        // The per-request path at high rate: arrival merge, event heap,
        // deficit router, batching and completion histograms do almost
        // all the work; Algorithm 1 runs rarely.
        "steady_hot" => base(
            System::Infless,
            [ModelId::Ssd, ModelId::MobileNet, ModelId::ResNet50]
                .map(|m| {
                    (
                        FunctionInfo::new(m.spec(), ms(200)),
                        Arrivals::Constant(6000.0),
                    )
                })
                .to_vec(),
            8,
            15,
        ),
        // The control plane: many functions on a large cluster, bursty
        // load, faults, the memory tier and in-place resizing, driven by
        // the sharded barrier driver. Timed runs use one shard: on a
        // 2-core host shared with other tenants, two shards meeting at
        // every barrier run at half speed whenever either core is
        // contended. The traced round checks S=2 against S=1. The fleet
        // cycles four zoo models rather than all twelve: reloading the
        // COP snapshot takes time that grows faster than the model set
        // (~2.6 s for these four, ~5 s for six, ~20 s for the full zoo
        // on a 2-core host), and a run sets up three times. ResNet-50
        // is left out because at these rates its simulated deployment
        // settles into one of two regimes whose per-request cost differs
        // up to tenfold.
        "fleet_churn" => {
            let zoo = [
                ModelId::BertV1,
                ModelId::VggNet,
                ModelId::Lstm2365,
                ModelId::Ssd,
            ];
            let slos = [150, 200, 250, 300, 350];
            let functions = (0..16)
                .map(|i| {
                    let f = FunctionInfo::new(zoo[i % zoo.len()].spec(), ms(slos[i % slos.len()]));
                    (f, Arrivals::Bursty(150.0))
                })
                .collect();
            Spec {
                cluster: ClusterSpec::large(1000),
                faults: Some(FaultPlan::sweep(1.0)),
                shards: 1,
                residency: true,
                policy: Some(ScalePolicy::VerticalFirst),
                ..base(System::Infless, functions, 4, 40)
            }
        }
        // Token-level serving: decode steps, KV arenas and the two-phase
        // feasibility check, with few arrivals. Only autoregressive
        // functions: a one-shot ResNet-50 beside them shows the same
        // seed-dependent regimes as in `fleet_churn`.
        "llm_chat" => Spec {
            llm: Some(LlmConfig::continuous()),
            ..base(
                System::Infless,
                vec![
                    (
                        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4))
                            .with_llm(LlmClass::chat()),
                        Arrivals::Bursty(24.0),
                    ),
                    (
                        FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(60))
                            .with_llm(LlmClass::summarize()),
                        Arrivals::Poisson(2.0),
                    ),
                ],
                8,
                900,
            )
        },
        // The Torpor baseline: reactive scaling where every launch is a
        // swap-in, with no COP database and no Algorithm 1.
        "reactive_swap" => {
            let functions = [
                (ModelId::Ssd, 200),
                (ModelId::MobileNet, 200),
                (ModelId::ResNet50, 200),
                (ModelId::TextCnn69, 50),
                (ModelId::Lstm2365, 50),
                (ModelId::Dssm2389, 50),
            ]
            .map(|(m, slo)| {
                (
                    FunctionInfo::new(m.spec(), ms(slo)),
                    Arrivals::Sporadic(40.0),
                )
            })
            .to_vec();
            Spec {
                faults: Some(FaultPlan::sweep(0.5)),
                ..base(System::Torpor, functions, 4, 300)
            }
        }
        _ => return None,
    })
}

/// The functions workload `name` deploys; `None` for an unknown name.
pub fn functions(name: &str) -> Option<Vec<FunctionInfo>> {
    Some(spec(name)?.functions.into_iter().map(|(f, _)| f).collect())
}

/// A workload's arrival lists, drawn from the seed by the benchmark's
/// own generator. Drawing is not the program's work, so no timed span
/// covers it.
pub struct Drawn {
    spec: Spec,
    /// Per episode, per function.
    arrivals: Vec<Vec<Vec<SimTime>>>,
    seed: u64,
    duration: SimDuration,
}

impl Drawn {
    /// Draws the arrivals of workload `name` from `seed`: every episode
    /// at full length, or with `quick` one episode at [`QUICK_SCALE`] of
    /// it. `None` for an unknown name.
    pub fn new(name: &str, seed: u64, quick: bool) -> Option<Drawn> {
        let spec = spec(name)?;
        let (episodes, duration) = if quick {
            (1, spec.duration.mul_f64(QUICK_SCALE))
        } else {
            (spec.episodes, spec.duration)
        };
        let n = spec.functions.len();
        let arrivals = (0..episodes)
            .map(|e| {
                spec.functions
                    .iter()
                    .enumerate()
                    .map(|(i, (_, arrivals))| {
                        let mut rng = SplitMix::new(seed, name, (e * n + i) as u64);
                        draw(*arrivals, duration, &mut rng)
                    })
                    .collect()
            })
            .collect();
        Some(Drawn {
            spec,
            arrivals,
            seed,
            duration,
        })
    }

    /// Only the first episode.
    pub fn first(mut self) -> Drawn {
        self.arrivals.truncate(1);
        self
    }
}

/// One episode: an arrival schedule and the faults injected into it.
pub struct Episode {
    /// The arrival schedule.
    pub workload: Workload,
    faults: FaultSchedule,
}

/// A workload with its arrivals drawn, ready to execute.
pub struct Built {
    /// The platform under test.
    pub system: System,
    /// The cluster it runs on.
    pub cluster: ClusterSpec,
    /// The deployed functions.
    pub functions: Vec<FunctionInfo>,
    /// The episodes, each run from an empty cluster.
    pub episodes: Vec<Episode>,
    /// The simulated system's seed, [`SIM_SEED`].
    pub seed: u64,
    duration: SimDuration,
    shards: usize,
    residency: bool,
    llm: Option<LlmConfig>,
    policy: Option<ScalePolicy>,
}

impl Built {
    /// Hands drawn arrivals to the program: `FunctionLoad::explicit`,
    /// `Workload::build` and the fault schedule of every episode. All of
    /// it is the program's own work, timed as part of set-up.
    pub fn new(drawn: Drawn) -> Built {
        let Drawn {
            spec,
            arrivals,
            seed,
            duration,
        } = drawn;
        let episodes = arrivals
            .into_iter()
            .enumerate()
            .map(|(e, lists)| {
                let loads: Vec<FunctionLoad> =
                    lists.into_iter().map(FunctionLoad::explicit).collect();
                // Explicit loads ignore the build seed.
                let workload = Workload::build(&loads, 0);
                let faults = spec.faults.map_or_else(FaultSchedule::empty, |plan| {
                    let seed = seed.wrapping_mul(1000).wrapping_add(e as u64);
                    fault_schedule_for(&plan, spec.cluster, &workload, seed)
                });
                Episode { workload, faults }
            })
            .collect();
        Built {
            system: spec.system,
            cluster: spec.cluster,
            functions: spec.functions.into_iter().map(|(f, _)| f).collect(),
            episodes,
            seed: SIM_SEED,
            duration,
            shards: spec.shards,
            residency: spec.residency,
            llm: spec.llm,
            policy: spec.policy,
        }
    }

    /// Episode `e`'s run settings; a fresh config for each run, since
    /// `RunConfig` is not `Clone`.
    pub fn run_config(&self, e: usize) -> RunConfig {
        let mut config = RunConfig::new().fault_schedule(self.episodes[e].faults.clone());
        if self.shards > 0 {
            config = config.shards(self.shards);
        }
        if self.residency {
            config = config.residency(ResidencyConfig::enabled());
        }
        if let Some(llm) = self.llm {
            config = config.llm(llm);
        }
        if let Some(policy) = self.policy {
            config = config.scale_policy(policy);
        }
        config
    }

    /// An episode's length, simulated seconds.
    pub fn horizon_s(&self) -> f64 {
        self.duration.as_secs_f64()
    }

    /// The shard count of the sharded barrier driver; 0 for the eager
    /// single-core loop.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Arrivals over all episodes.
    pub fn arrivals(&self) -> u64 {
        self.episodes.iter().map(|e| e.workload.len() as u64).sum()
    }

    /// The same deployment and settings with no arrivals: executing it
    /// pays platform construction (COP acquisition, cluster build) and
    /// nothing else.
    pub fn arrival_free(&self) -> Workload {
        let empty = vec![FunctionLoad::explicit(Vec::new()); self.functions.len()];
        Workload::build(&empty, 0)
    }

    /// Runs `workload` (an episode's arrivals, or the arrival-free
    /// schedule) once under `config`.
    pub fn execute(&self, workload: &Workload, config: RunConfig) -> RunReport {
        self.system
            .execute(self.cluster, &self.functions, workload, self.seed, config)
    }

    /// Runs episode `e`.
    pub fn run(&self, e: usize) -> RunReport {
        self.execute(&self.episodes[e].workload, self.run_config(e))
    }

    /// Episode `e` on `shards` shards, also returning its merged
    /// decision trace: the sharded driver takes no telemetry sink, so
    /// its decisions come through `ShardedInfless` directly.
    pub fn run_with_decisions(&self, e: usize, shards: usize) -> (RunReport, Vec<DecisionRecord>) {
        let mut config = InflessConfig::default();
        if self.residency {
            config.residency = ResidencyConfig::enabled();
        }
        if let Some(llm) = self.llm {
            config.llm = llm;
        }
        if let Some(policy) = self.policy {
            config.scale_policy = policy;
        }
        let episode = &self.episodes[e];
        ShardedInfless::new(self.cluster, self.functions.clone(), config, self.seed)
            .with_fault_schedule(episode.faults.clone())
            .run_with_decisions(&episode.workload, shards)
    }
}

fn draw(arrivals: Arrivals, duration: SimDuration, rng: &mut SplitMix) -> Vec<SimTime> {
    let secs = duration.as_secs_f64();
    let at = |t: f64| SimTime::ZERO + SimDuration::from_secs_f64(t);
    match arrivals {
        Arrivals::Constant(rps) => {
            let phase = rng.unit() / rps;
            let n = ((secs - phase) * rps).floor().max(0.0) as u64;
            (0..n).map(|i| at(phase + i as f64 / rps)).collect()
        }
        Arrivals::Poisson(rps) => poisson(&[(0.0, secs, rps)], rng, at),
        Arrivals::Bursty(mean) => {
            let mut bins = Vec::new();
            let mut start = 0.0;
            while start < secs {
                let end = (start + 10.0).min(secs);
                let len = 2.0 + 2.0 * rng.unit();
                let from = start + rng.unit() * (10.0 - len);
                let to = from + len;
                let level = 2.0 + 2.0 * rng.unit();
                for (a, b, r) in [(start, from, 0.5), (from, to, level), (to, end, 0.5)] {
                    if a < b.min(end) {
                        bins.push((a, b.min(end), r));
                    }
                }
                start = end;
            }
            poisson(&normalise(bins, mean), rng, at)
        }
        Arrivals::Sporadic(mean) => {
            let bins = modulated(
                secs,
                60.0,
                rng,
                |rng| {
                    if rng.unit() < 0.07 {
                        let len = 1 + (rng.unit() * 4.0) as usize;
                        Some((len, 0.5 + 1.5 * rng.unit()))
                    } else {
                        None
                    }
                },
                0.0,
            );
            poisson(&normalise(bins, mean), rng, at)
        }
    }
}

/// Piecewise-constant relative rates over `[0, secs)` in `bin`-second
/// bins: `floor` everywhere except runs of bins that `active` starts.
fn modulated(
    secs: f64,
    bin: f64,
    rng: &mut SplitMix,
    mut active: impl FnMut(&mut SplitMix) -> Option<(usize, f64)>,
    floor: f64,
) -> Vec<(f64, f64, f64)> {
    let n = (secs / bin).ceil().max(1.0) as usize;
    let mut rates = vec![floor; n];
    let mut i = 0;
    while i < n {
        match active(rng) {
            Some((len, level)) => {
                for r in rates.iter_mut().skip(i).take(len) {
                    *r = level;
                }
                i += len;
            }
            None => i += 1,
        }
    }
    // A silent schedule would leave the function idle for the whole
    // run; give it one active bin instead.
    if rates.iter().all(|r| *r <= 0.0) {
        rates[(rng.unit() * n as f64) as usize % n] = 1.0;
    }
    rates
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as f64 * bin, ((i + 1) as f64 * bin).min(secs), r))
        .collect()
}

/// Scales relative bin rates so their time average is `mean`.
fn normalise(bins: Vec<(f64, f64, f64)>, mean: f64) -> Vec<(f64, f64, f64)> {
    let span: f64 = bins.iter().map(|(a, b, _)| b - a).sum();
    let area: f64 = bins.iter().map(|(a, b, r)| (b - a) * r).sum();
    if area <= 0.0 {
        return Vec::new();
    }
    let k = mean * span / area;
    bins.into_iter().map(|(a, b, r)| (a, b, r * k)).collect()
}

/// Poisson arrivals through piecewise-constant `(start, end, rps)` bins.
fn poisson(
    bins: &[(f64, f64, f64)],
    rng: &mut SplitMix,
    at: impl Fn(f64) -> SimTime,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    for &(start, end, rps) in bins {
        if rps <= 0.0 {
            continue;
        }
        let mut t = start;
        loop {
            t += -(1.0 - rng.unit()).ln() / rps;
            if t >= end {
                break;
            }
            out.push(at(t));
        }
    }
    out
}

/// 64-bit FNV-1a.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: a small, fixed generator, so the inputs depend only on
/// this file and the seed.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, workload: &str, stream: u64) -> Self {
        SplitMix(seed ^ fnv1a(workload) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
