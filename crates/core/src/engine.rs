//! Shared platform mechanics.
//!
//! Every platform in the reproduction — INFless and the baselines —
//! runs on this engine so that comparisons measure *policy*, not
//! simulation plumbing. The engine owns the cluster, the instance map
//! and the metrics collector, and implements the mechanical parts of
//! serving: minting requests, launching/retiring instances, filling
//! batch queues, starting batches when they are full or timed out, and
//! recording the latency breakdown of every completed request.
//!
//! The shared [`driver`](crate::driver) loop delivers every
//! [`EngineEvent`]: the engine's `on_*` methods apply the mechanics,
//! then the platform's policy hooks react (that is where systems
//! differ).

use std::collections::VecDeque;

use infless_cluster::{
    ClusterSpec, ClusterState, FunctionId, Instance, InstanceConfig, InstanceId, Placement,
    PlacementError, Request, ServerHealth, ServerId,
};
use infless_faults::FaultEvent;
use infless_llm::{LlmBatching, LlmClass, LlmConfig};
use infless_models::{HardwareModel, ModelId, ModelSpec, ResourceConfig};
use infless_sim::{EventQueue, FxHashMap, SimDuration, SimTime, Ticket};
use infless_telemetry::{
    BreakdownEvent, Channels, DecisionEvent, DecisionKind, DecisionReason, DecisionRecord,
    FaultTag, GaugeRow, Record, SpanEvent, SpanKind, TraceMeta,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::{Collector, FailureReport, LatencyParts, StartupKind};

/// A deployed inference function: its model and latency SLO (the two
/// fields of the paper's Fig. 5 template that matter to scheduling).
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    spec: ModelSpec,
    slo: SimDuration,
    max_batch: u32,
    llm: Option<LlmClass>,
}

impl FunctionInfo {
    /// Creates a function deployment with no per-function batch cap
    /// beyond the platform grid's (≤ 32).
    pub fn new(spec: ModelSpec, slo: SimDuration) -> Self {
        Self::with_max_batch(spec, slo, u32::MAX)
    }

    /// Creates a function deployment with a per-function batchsize cap —
    /// the `maxBatchsize` field of the paper's Fig. 5 template.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(spec: ModelSpec, slo: SimDuration, max_batch: u32) -> Self {
        assert!(max_batch >= 1, "the batch cap must be at least 1");
        FunctionInfo {
            spec,
            slo,
            max_batch,
            llm: None,
        }
    }

    /// Marks the function autoregressive: requests carry prompt/output
    /// token counts and execute as prefill + decode episodes under the
    /// two-phase (TTFT/TPOT) SLO model.
    pub fn with_llm(mut self, llm: LlmClass) -> Self {
        self.llm = Some(llm);
        self
    }

    /// The model.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The latency SLO.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// The per-function batchsize cap.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// The autoregressive class parameters, if this function is one.
    pub fn llm(&self) -> Option<&LlmClass> {
        self.llm.as_ref()
    }
}

/// Batch buffers an [`Engine`] keeps for reuse: enough for the batches
/// that complete and start within one event, few enough that a run's
/// largest batches do not pin memory.
const SPARE_BATCHES: usize = 16;

/// A finished batch, as reported by [`Engine::on_batch_complete`].
#[derive(Debug, Clone)]
pub struct CompletedBatch {
    /// The function the batch served.
    pub function: usize,
    /// The requests that completed.
    pub requests: Vec<Request>,
}

/// The event vocabulary platforms schedule and consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A request for function index `usize` arrives at the gateway.
    Arrival(usize),
    /// A cold/pre-warmed start finished.
    InstanceReady(InstanceId),
    /// A Torpor-style host→device model swap finished; the instance
    /// becomes ready. Separate from [`EngineEvent::InstanceReady`] so
    /// platforms (and traces) can tell a swap-in from a boot.
    SwapComplete(InstanceId),
    /// A batch queue's wait budget may have expired.
    BatchTimeout(InstanceId),
    /// A running batch finished.
    BatchComplete(InstanceId),
    /// An in-flight resource resize finished: the instance swaps to its
    /// pending configuration. Scheduled by [`Engine::begin_resize`]
    /// after the hardware model's resize latency (≪ cold start; zero
    /// for a shrink). Batches in flight at completion still finish
    /// under the configuration they were formed with.
    ResizeComplete(InstanceId),
    /// The end of a decode span on this instance: the step at which a
    /// sequence finishes or emits its first token, or queued requests
    /// may join the running batch. Every active sequence produced one
    /// token per step of the span. The `u32` is the instance's decode
    /// generation at scheduling time; a span cut short re-schedules
    /// under a new generation, and the replaced event is stale.
    DecodeStep(InstanceId, u32),
    /// Periodic auto-scaler invocation.
    ScalerTick,
    /// An injected fault fires (see [`infless_faults`]).
    Fault(FaultEvent),
    /// Coordinator-resolved fault directive: kill this specific
    /// instance (sharded/epoch path). Unlike [`EngineEvent::Fault`],
    /// the victim was chosen ahead of time from the global registry;
    /// application is tolerant of victims that already died.
    DirectiveKill(InstanceId, FaultTag),
    /// Coordinator-resolved straggler episode on one server
    /// (broadcast to every shard, since any shard may run batches
    /// there).
    DirectiveStraggler {
        /// The straggling server.
        server: ServerId,
        /// Execution slowdown in percent (100 = 2× exec time).
        slowdown_pct: u32,
        /// Episode length.
        duration: SimDuration,
    },
}

/// What a delivered fault did, as reported by [`Engine::on_fault`]. The
/// platform owns the policy response: re-placing lost throughput,
/// retrying the displaced requests within their SLO budget, and
/// shedding what cannot be saved.
#[derive(Debug, Default)]
pub struct FaultOutcome {
    /// Requests displaced from killed instances (in-flight batch first,
    /// then the queued remainder), oldest first.
    pub displaced: Vec<Request>,
    /// `(function, instance)` pairs killed by the fault, in
    /// deterministic (function-major, launch-order) order.
    pub killed: Vec<(usize, InstanceId)>,
}

/// Shared serving mechanics. See the [module docs](self).
#[derive(Debug)]
pub struct Engine {
    hardware: HardwareModel,
    /// Ground-truth base latency (seconds) of a one-shot batch, memoized
    /// per `(model, batch length, resources)` — the key of the COP
    /// predictor's cache. The value is a pure function of the key and
    /// the immutable hardware model, so the memo returns exactly what a
    /// fresh DAG walk would; noise is still drawn once per batch start.
    batch_latency: FxHashMap<(ModelId, u32, ResourceConfig), f64>,
    cluster: ClusterState,
    functions: Vec<FunctionInfo>,
    /// Instance slab, indexed by the raw [`InstanceId`]. Ids are minted
    /// sequentially and never reused, so the slab only ever grows;
    /// retirements leave `None` holes behind. One direct index replaces
    /// the two-to-three hash lookups the request hot path used to pay
    /// per event.
    slots: Vec<Option<Slot>>,
    live_by_function: Vec<Vec<InstanceId>>,
    /// Number of batches currently executing (occupied `in_flight`
    /// entries across the slab), so telemetry sampling needs no scan.
    in_flight_count: usize,
    /// Active (executing) SM share per physical GPU device, for the MPS
    /// interference model. Flat-indexed `server * gpus_per_server + gpu`.
    gpu_busy_pct: Vec<u32>,
    gpus_per_server: usize,
    /// Per-server straggler episodes: `(until, slowdown factor)`.
    /// Batches started on a listed server before `until` run slower.
    straggle: FxHashMap<ServerId, (SimTime, f64)>,
    /// Outstanding capacity-loss probes.
    recapacity: RecapacityProbes,
    next_instance: u64,
    /// The execution-time noise stream outside epoch mode: one for the
    /// whole engine, so the draw order entangles every function.
    noise: StdRng,
    /// Autoregressive decode-batching discipline (LLM functions only;
    /// one-shot functions never consult it).
    llm_batching: LlmBatching,
    /// Number of slots holding a live autoregressive episode, so KV
    /// readers skip the slab scan when no episode runs.
    live_episodes: usize,
    /// Sequences that finished at the current decode step (reused
    /// across steps, so a step allocates nothing).
    finished: Vec<LlmSeq>,
    /// Emptied batch buffers handed back through
    /// [`Self::recycle_batch`]; a batch start fills one instead of
    /// allocating. At most [`SPARE_BATCHES`] are kept.
    spare_batches: Vec<Vec<Request>>,
    /// The latest deadline any batch timer was armed for. A timer the
    /// engine never pushed (see [`Self::arm_batch_timer`]) would still
    /// have held the clock open until then, so the run ends no earlier.
    timer_horizon: SimTime,
    /// Prompt/output token counts per in-system LLM request, keyed by
    /// [`Request::key`]. Minted at arrival, removed at completion/shed.
    token_table: FxHashMap<(FunctionId, u64), TokenInfo>,
    /// Lazily-created per-function token-count streams with
    /// shard-invariant labels (`llm/{platform}/fn{i}`). Empty until an
    /// LLM function mints its first request, so non-LLM runs never
    /// touch them.
    token_streams: Vec<Option<StdRng>>,
    seed: u64,
    /// Epoch-barrier mode's state; `None` in an eager run. See
    /// [`Self::enter_epoch_mode`].
    epoch: Option<EpochState>,
    /// When `true`, GPU instance launches book the model's weights
    /// against the chosen device's memory (the residency tier's
    /// device-memory constraint). Off by default so a tier-disabled
    /// run allocates exactly like the pre-tier engine.
    device_memory: bool,
    /// `(function, instance)` of each instance whose full pending batch
    /// gained room since the owning platform last drained this, so its
    /// router can reopen the instance. `None` (nothing logged) unless
    /// the platform routes with a [`crate::router::DeficitRouter`].
    pub(crate) opened: Option<Vec<(usize, InstanceId)>>,
    beta: f64,
    /// The metrics recorder (public so platforms can add their own
    /// samples, e.g. fragment ratios at scaler ticks).
    pub collector: Collector,
    /// Spans, gauge rows and decisions the driver's ordered writer has
    /// not released yet. Stays empty, unallocated, unless
    /// [`Self::open_channels`] opened a channel: emission draws no
    /// randomness and schedules no events, so a run with every channel
    /// closed is bit-identical to one with outputs.
    records: Vec<Record>,
    /// The span channel's gate, a plain field read on the per-request
    /// path.
    spans_on: bool,
    /// The gauge channel's gate.
    gauges_on: bool,
    /// The decision channel's gate.
    decisions_on: bool,
    /// Per-function monotonic decision sequence numbers — the
    /// tiebreaker that makes a merged multi-shard decision trace
    /// totally ordered (a function is wholly owned by one shard, so
    /// its counter is globally unique).
    decision_seq: Vec<u64>,
    /// Per-function monotonic span sequence numbers, the spans'
    /// analogue of `decision_seq`.
    span_seq: Vec<u64>,
    /// Per-function launch counters, the source of
    /// `InstanceMeta::ordinal`. Raw instance ids are dense engine-local
    /// slot indices and therefore differ across shard counts; launches
    /// within a function happen in the same order at every shard
    /// count, so the ordinal is shard-invariant.
    launches_minted: Vec<u64>,
    /// Per-function arrival counters, the source of
    /// [`Request::ordinal`] — the request analogue of
    /// `launches_minted`.
    requests_minted: Vec<u64>,
    /// Host-cache occupancy gauge (MB), set by the owning platform
    /// just before telemetry sampling.
    host_cache_mb: f64,
    now: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct InstanceMeta {
    wait_budget: SimDuration,
    startup: StartupKind,
    /// Launch ordinal within the function: the decision trace's
    /// shard-invariant instance key.
    ordinal: u64,
}

/// One live instance's slab entry: the instance itself plus the
/// engine-side bookkeeping that used to live in separate side maps.
#[derive(Debug)]
struct Slot {
    inst: Instance,
    meta: InstanceMeta,
    in_flight: Option<InFlight>,
    /// An in-flight resize awaiting its [`EngineEvent::ResizeComplete`].
    /// The *cluster* books already hold the new configuration (the
    /// resize transaction committed at initiation, inside the
    /// barrier-ordered scaler pass); the slot swaps over at completion.
    pending_resize: Option<PendingResize>,
    /// The running autoregressive episode (LLM functions only).
    episode: Option<LlmEpisode>,
    /// Generation of the instance's one live
    /// [`EngineEvent::DecodeStep`]; bumped at every schedule, so a
    /// replaced event is recognisably stale.
    decode_gen: u32,
    /// The instance's batch timers (see [`Engine::arm_batch_timer`]).
    timer: BatchTimer,
}

/// One instance's [`EngineEvent::BatchTimeout`]s: at most one in the
/// event heap, plus at most one reserved behind it and pushed only if
/// its firing could still start something.
#[derive(Debug, Default)]
struct BatchTimer {
    /// When the timer this slot tracks in the heap fires.
    armed: Option<SimTime>,
    /// A timer reserved no earlier than `armed`, with the queue-open
    /// instant it was armed for. With nothing armed it is a leftover
    /// whose queue was consumed, kept only until the next arm or
    /// wait-budget change settles it.
    reserved: Option<(Ticket, SimTime)>,
}

/// Discarded batch timers that could still have started a batch (debug
/// builds only; see [`live_timer_drops`]).
#[cfg(debug_assertions)]
static LIVE_TIMER_DROPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Counts `live` in debug builds: a batch timer discarded although its
/// queue was still open or it fired no earlier than the deadline of the
/// queue that replaced it.
#[inline]
fn note_timer_drop(live: bool) {
    #[cfg(debug_assertions)]
    if live {
        LIVE_TIMER_DROPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(debug_assertions))]
    let _ = live;
}

/// The number of batch timers the engine discarded although their
/// firing might have started a batch, process-wide: one whose queue was
/// still open, or one firing at or after the deadline of the queue that
/// replaced it. Every discard relies on neither holding; a run that
/// reports zero here kept every timer whose firing could matter, so it
/// popped exactly the events an always-schedule engine would have acted
/// on. Always zero in release builds, which do not count.
pub fn live_timer_drops() -> u64 {
    #[cfg(debug_assertions)]
    {
        LIVE_TIMER_DROPS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// The target of an in-flight resize: applied to the slot atomically at
/// [`EngineEvent::ResizeComplete`].
#[derive(Debug, Clone, Copy)]
struct PendingResize {
    new_config: InstanceConfig,
    new_placement: infless_cluster::Placement,
    new_wait_budget: SimDuration,
}

#[derive(Debug)]
struct InFlight {
    started: SimTime,
    exec: SimDuration,
    /// Execution estimate before the MPS-interference and straggler
    /// multipliers — the decomposition's execution/interference split.
    exec_base: SimDuration,
    /// The instance configuration the batch was formed under. Busy
    /// books (weighted-busy, active SM share, batch attribution) unwind
    /// from this, not the instance's *current* config: an in-flight
    /// resize completing mid-batch must not reprice the batch.
    config: InstanceConfig,
    batch: Vec<Request>,
}

/// Prompt/output token counts minted at arrival for a request of an
/// autoregressive function, plus decode progress (updated when a fault
/// displaces the sequence, so retry estimates see the remaining work).
#[derive(Debug, Clone, Copy)]
struct TokenInfo {
    prompt: u32,
    output: u32,
    produced: u32,
    /// The request emitted its first token on some attempt: a retry
    /// after a fault re-decodes from scratch but books no second TTFT.
    first_token_seen: bool,
}

/// One sequence inside a running autoregressive episode.
#[derive(Debug)]
struct LlmSeq {
    req: Request,
    prompt: u32,
    output: u32,
    /// The episode's step count when the sequence joined: it has
    /// produced one token per step since.
    joined: u32,
    /// When the sequence entered the batch (episode start or a
    /// continuous join) — the queue/exec boundary of its breakdown.
    admitted: SimTime,
    first_token: Option<SimTime>,
}

/// A running autoregressive episode on one instance: one prefill pass
/// followed by iteration-level decode steps until every sequence
/// finishes (or, under continuous batching, forever replenished from
/// the instance queue).
#[derive(Debug)]
struct LlmEpisode {
    active: Vec<LlmSeq>,
    /// Decode steps run before the current span.
    steps: u32,
    /// `Σ prompt + produced` over `active` at the span's start: the
    /// tokens resident in the KV arena.
    resident_tokens: u64,
    /// `prompt + output` tokens reserved against the KV arena by the
    /// admission gate (actual residency never exceeds the reservation,
    /// so a step can never overflow the arena mid-episode).
    reserved_tokens: u64,
    /// Prompt tokens of sequences that joined since the last step,
    /// folded into the next step's latency (piggybacked prefill).
    pending_prefill_tokens: u64,
    /// Sequences completed over the episode's lifetime.
    completed: usize,
    /// Episode-scoped slowdown (noise × interference × straggler),
    /// drawn once at episode start so jitter cannot re-order steps.
    slow: f64,
    /// The interference × straggler share of `slow` (noise excluded):
    /// dividing an episode latency by this recovers the
    /// decomposition's pre-interference execution estimate.
    interf: f64,
    /// The current decode span: `span_len` steps from `span_start`. Step
    /// `i` costs `a + b·i` ticks ([`SimDuration::TICK_SHIFT`]) for
    /// `price = [a, b, lead]`, and step 0 also `lead`: the sub-µs
    /// remainder where the last span ended plus the joiners' prefill.
    /// Only the last step is an event ([`EngineEvent::DecodeStep`]): the
    /// others change nothing but token counts.
    span_start: SimTime,
    span_len: u32,
    price: [u64; 3],
}

impl LlmEpisode {
    /// The end of the span's first `k` steps in ticks since time zero:
    /// `span_start + k·a + b·k(k−1)/2 + lead`. The start is below 2^94,
    /// prices below 2^64 and `k` below 2^32, so nothing overflows.
    fn span_ticks(&self, k: u32) -> u128 {
        let start = u128::from(self.span_start.as_micros()) << SimDuration::TICK_SHIFT;
        let ([a, b, lead], k) = (self.price.map(u128::from), u128::from(k));
        start + lead * k.min(1) + k * a + b * (k * k.saturating_sub(1) / 2)
    }

    /// The end of the span's first `k` steps: when step `k − 1` ends,
    /// and so when a per-step event for step `k` would be scheduled.
    fn span_at(&self, k: u32) -> SimTime {
        SimTime::ZERO + SimDuration::from_ticks(self.span_ticks(k))
    }

    /// How many steps of the span have run by the queue's delivery
    /// position: the steps whose per-step events would have been
    /// delivered before the event being handled. The boundary step is
    /// a real event, so it never counts here.
    ///
    /// Both a step's end and the instant its event would have been
    /// scheduled at rise with the step, so the steps delivered before
    /// are a prefix of the span: a binary search finds its end.
    fn steps_run(&self, queue: &EventQueue<EngineEvent>) -> u32 {
        let (mut lo, mut hi) = (0, self.span_len - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if queue.delivered_before(self.span_at(mid + 1), self.span_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Books `m` steps of the span: every active sequence produces one
    /// token per step. Returns the tokens produced.
    fn book_steps(&mut self, m: u32) -> u64 {
        self.steps += m;
        let tokens = u64::from(m) * self.active.len() as u64;
        self.resident_tokens += tokens;
        tokens
    }
}

/// Samples one token count: inverse-CDF exponential with the given
/// mean, rounded and clamped to ≥ 1. A single uniform draw per count
/// keeps the per-function stream shard-invariant.
fn sample_token_count<R: Rng + ?Sized>(rng: &mut R, mean: u32) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let t = -f64::from(mean) * (1.0 - u).ln();
    (t.round() as u32).max(1)
}

/// Weighted capacity lost to faults, awaiting replacement launches:
/// `(since, remaining)` probes for the time-to-recapacity metric,
/// oldest first.
pub(crate) type RecapacityProbes = VecDeque<(SimTime, f64)>;

/// Credits weighted capacity launched ready at `ready_at` to the oldest
/// probes, appending a time-to-recapacity sample (ms) to `samples` for
/// each probe it closes — whichever launches supply the capacity.
pub(crate) fn credit_recapacity(
    probes: &mut RecapacityProbes,
    ready_at: SimTime,
    mut credit: f64,
    samples: &mut Vec<f64>,
) {
    while credit > 0.0 {
        let Some(front) = probes.front_mut() else {
            break;
        };
        let used = credit.min(front.1);
        front.1 -= used;
        credit -= used;
        if front.1 <= 1e-9 {
            let (since, _) = probes.pop_front().expect("probe exists");
            samples.push(ready_at.saturating_since(since).as_millis_f64());
        }
    }
}

/// What an engine holds in epoch-barrier (sharded) mode: the state
/// that makes a shard's run depend on its own functions alone, never on
/// which functions share its shard.
#[derive(Debug)]
struct EpochState {
    /// Per-function execution-time noise streams, keyed by
    /// `engine/{platform}/fn{index}/{model}`: a function's draw sequence
    /// depends only on its own batch history.
    noise: Vec<StdRng>,
    /// Cluster-wide active SM share per device at the last barrier
    /// (flat-indexed like `gpu_busy_pct`), installed by
    /// [`Engine::refresh_interference_snapshot`]. MPS interference reads
    /// it instead of the live books of the functions that happen to
    /// share this shard.
    interference: Vec<u32>,
    /// `(ready_at, weighted capacity)` of each launch since the
    /// coordinator last drained it ([`Engine::take_launch_log`]):
    /// capacity-loss probes are the coordinator's, credited in
    /// function-major barrier order.
    launch_log: Vec<(SimTime, f64)>,
}

/// One fault, resolved by [`Engine::resolve_fault`] before any of it is
/// applied. The eager engine applies it inline; the barrier coordinator
/// turns it into directives for the shards.
#[derive(Debug)]
pub(crate) struct ResolvedFault {
    /// The tag of the spans of the requests the kills displace.
    pub(crate) tag: FaultTag,
    /// `(function, instance)` to kill, function-major then in launch
    /// order.
    pub(crate) victims: Vec<(usize, InstanceId)>,
    /// A server health transition.
    pub(crate) health: Option<(ServerId, ServerHealth)>,
    /// A straggler episode to arm: server, slowdown percent, length.
    pub(crate) straggler: Option<(ServerId, u32, SimDuration)>,
    /// The weighted capacity the victims hold: the recapacity probe the
    /// fault opens when positive.
    pub(crate) lost: f64,
}

impl ResolvedFault {
    /// Books the fault's tallies: a crash, a recovery or a straggler
    /// episode.
    pub(crate) fn tally(&self, failures: &mut FailureReport) {
        match self.health {
            Some((_, ServerHealth::Down)) => failures.server_crashes += 1,
            Some((_, ServerHealth::Up)) => failures.server_recoveries += 1,
            _ => {}
        }
        if self.straggler.is_some() {
            failures.stragglers += 1;
        }
    }
}

impl Engine {
    /// Builds an engine: cluster from `spec`, given hardware model and
    /// function table; `seed` drives execution-time noise.
    pub fn new(
        platform_name: &str,
        cluster: ClusterSpec,
        hardware: HardwareModel,
        functions: Vec<FunctionInfo>,
        seed: u64,
    ) -> Self {
        let beta = hardware.beta();
        let collector = Collector::new(
            platform_name,
            &functions
                .iter()
                .map(|f| (f.spec().name().to_string(), f.slo()))
                .collect::<Vec<_>>(),
        );
        let n = functions.len();
        let gpus_per_server = cluster.gpus_per_server;
        let gpu_devices = cluster.servers * gpus_per_server;
        Engine {
            hardware,
            batch_latency: FxHashMap::default(),
            cluster: cluster.build(),
            functions,
            slots: Vec::new(),
            live_by_function: vec![Vec::new(); n],
            in_flight_count: 0,
            gpu_busy_pct: vec![0; gpu_devices],
            gpus_per_server,
            straggle: FxHashMap::default(),
            recapacity: VecDeque::new(),
            next_instance: 0,
            noise: infless_sim::rng::stream(seed, &format!("engine/{platform_name}")),
            llm_batching: LlmBatching::Static,
            live_episodes: 0,
            finished: Vec::new(),
            spare_batches: Vec::new(),
            timer_horizon: SimTime::ZERO,
            token_table: FxHashMap::default(),
            token_streams: Vec::new(),
            seed,
            epoch: None,
            device_memory: false,
            opened: None,
            beta,
            collector,
            records: Vec::new(),
            spans_on: false,
            gauges_on: false,
            decisions_on: false,
            decision_seq: vec![0; n],
            span_seq: vec![0; n],
            launches_minted: vec![0; n],
            requests_minted: vec![0; n],
            host_cache_mb: 0.0,
            now: SimTime::ZERO,
        }
    }

    /// Opens the record channels some output wants: from then on the
    /// engine builds those records into the buffer that
    /// [`Self::records_mut`] hands the driver. Open before driving the
    /// event loop to capture the whole run.
    pub fn open_channels(&mut self, channels: Channels) {
        self.spans_on = channels.spans;
        self.gauges_on = channels.gauges;
        self.decisions_on = channels.decisions;
    }

    /// The records not yet released, in emission order: the pending
    /// buffer the driver hands its `RecordWriter`.
    pub fn records_mut(&mut self) -> &mut Vec<Record> {
        &mut self.records
    }

    /// The run's identity, as announced to every output.
    pub fn trace_meta(&self) -> TraceMeta {
        TraceMeta {
            platform: self.collector.report.platform.clone(),
            functions: self
                .functions
                .iter()
                .map(|f| f.spec().name().to_string())
                .collect(),
        }
    }

    /// `true` when some output wants decision records. Platforms
    /// gate every [`DecisionEvent`] construction on this, mirroring the
    /// span contract: a decision-less run builds nothing.
    pub fn decisions_enabled(&self) -> bool {
        self.decisions_on
    }

    /// Stamps `ev` with the clock and the function's next sequence
    /// number, then records it. Callers gate on
    /// [`Self::decisions_enabled`].
    pub fn record_decision(&mut self, function: usize, mut ev: DecisionEvent) {
        ev.t_s = self.now.as_secs_f64();
        ev.function = function as u32;
        ev.seq = self.next_decision_seq(function);
        self.records
            .push(Record::Decision(DecisionRecord::Decision(ev)));
    }

    fn next_decision_seq(&mut self, function: usize) -> u64 {
        let seq = self.decision_seq[function];
        self.decision_seq[function] += 1;
        seq
    }

    /// Live instance `id`'s launch ordinal within its function — the
    /// shard-invariant instance key of the decision trace.
    pub fn launch_ordinal(&self, id: InstanceId) -> i64 {
        self.slot(id).meta.ordinal as i64
    }

    /// Records a KV admission decision (`Admit` or `CacheFull`) for
    /// `req` on instance `id`: `need` tokens asked for, `free` left.
    fn record_kv_decision(
        &mut self,
        kind: DecisionKind,
        req: &Request,
        id: InstanceId,
        batch: usize,
        need: u64,
        free: u64,
    ) {
        let mut ev = DecisionEvent::new(kind);
        ev.request = req.ordinal as i64;
        ev.instance = self.launch_ordinal(id);
        ev.server = self.slot(id).inst.placement().server().raw() as i64;
        ev.batch = batch as u32;
        ev.value = need as f64;
        ev.aux = free as f64;
        self.record_decision(req.function.raw(), ev);
    }

    /// Emits one per-request latency decomposition on the decisions
    /// channel, keyed by the request's arrival ordinal. Callers gate on
    /// [`Self::decisions_enabled`].
    fn emit_breakdown(
        &mut self,
        function: usize,
        request: u64,
        parts: LatencyParts,
        total: SimDuration,
    ) {
        let seq = self.next_decision_seq(function);
        self.records
            .push(Record::Decision(DecisionRecord::Breakdown(
                BreakdownEvent {
                    t_s: self.now.as_secs_f64(),
                    function: function as u32,
                    seq,
                    request,
                    slo_ms: self.functions[function].slo().as_millis_f64(),
                    queue_ms: parts.queueing.as_millis_f64(),
                    batch_wait_ms: parts.batch_wait.as_millis_f64(),
                    startup_ms: parts.startup.as_millis_f64(),
                    exec_ms: parts.execution.as_millis_f64(),
                    interference_ms: parts.interference.as_millis_f64(),
                    total_ms: total.as_millis_f64(),
                },
            )));
    }

    /// Sets the host-cache occupancy gauge (MB). The residency-tier
    /// platform refreshes this just before sampling telemetry.
    pub fn set_host_cache_mb(&mut self, mb: f64) {
        self.host_cache_mb = mb;
    }

    /// KV-cache bytes resident across live autoregressive episodes at
    /// the queue's delivery position, counting the decode-span steps
    /// that have run by then: a u64 total over integer token counts.
    pub fn kv_resident_bytes(&self, queue: &EventQueue<EngineEvent>) -> u64 {
        self.resident_kv(|ep| ep.steps_run(queue))
    }

    /// Resident KV bytes with each episode's span run to
    /// `steps_run(episode)` steps.
    fn resident_kv(&self, steps_run: impl Fn(&LlmEpisode) -> u32) -> u64 {
        if self.live_episodes == 0 {
            return 0;
        }
        let mut total = 0u64;
        for slot in self.slots.iter().flatten() {
            if let Some(ep) = &slot.episode {
                let bpt = self.functions[slot.inst.function().raw()]
                    .llm()
                    .expect("episode on a non-LLM function")
                    .kv_bytes_per_token();
                let unbooked = u64::from(steps_run(ep)) * ep.active.len() as u64;
                total += (ep.resident_tokens + unbooked) * bpt;
            }
        }
        total
    }

    /// Enters epoch-barrier (sharded) mode for the rest of the run: the
    /// engine draws noise, reads interference and logs launches through
    /// its `EpochState`, and the owning platform defers every mid-epoch
    /// allocation to the barrier flush. Call before the first batch
    /// starts (the shared noise stream's past draws are not replayed).
    pub(crate) fn enter_epoch_mode(&mut self) {
        let name = &self.collector.report.platform;
        let noise = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let label = format!("engine/{name}/fn{i}/{}", f.spec().name());
                infless_sim::rng::stream(self.seed, &label)
            })
            .collect();
        self.epoch = Some(EpochState {
            noise,
            interference: vec![0; self.gpu_busy_pct.len()],
            launch_log: Vec::new(),
        });
    }

    /// `true` once [`Self::enter_epoch_mode`] ran.
    pub(crate) fn in_epoch_mode(&self) -> bool {
        self.epoch.is_some()
    }

    /// Installs a new interference snapshot (cluster-wide active SM
    /// share per physical device, same flat indexing as
    /// [`Self::gpu_busy_totals`]). Outside epoch mode there is no
    /// snapshot to refresh.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the device count.
    pub(crate) fn refresh_interference_snapshot(&mut self, totals: &[u32]) {
        if let Some(epoch) = &mut self.epoch {
            epoch.interference.copy_from_slice(totals);
        }
    }

    /// Drains the launch log, empty outside epoch mode.
    pub(crate) fn take_launch_log(&mut self) -> Vec<(SimTime, f64)> {
        self.epoch
            .as_mut()
            .map_or_else(Vec::new, |epoch| std::mem::take(&mut epoch.launch_log))
    }

    /// This engine's live per-device active SM share (the books behind
    /// the MPS interference model), flat-indexed
    /// `server * gpus_per_server + gpu`.
    pub fn gpu_busy_totals(&self) -> &[u32] {
        &self.gpu_busy_pct
    }

    /// Turns on device-memory booking: subsequent GPU launches reserve
    /// the model's weight footprint on the chosen device, so placement
    /// respects per-GPU memory capacity. Leave off (the default) to
    /// allocate exactly like the pre-tier engine.
    pub fn enable_device_memory(&mut self) {
        self.device_memory = true;
    }

    /// The per-device GPU-memory demand a launch of `function` with
    /// `config` books: the model's weights — plus the KV-cache arena
    /// for autoregressive functions — for GPU configs when
    /// device-memory booking is on, zero otherwise.
    pub fn device_demand(&self, function: usize, config: InstanceConfig) -> f64 {
        if self.device_memory && config.resources().gpu_pct() > 0 {
            let f = &self.functions[function];
            f.spec().size_mb() + f.llm().map_or(0.0, |l| l.kv_arena_mb)
        } else {
            0.0
        }
    }

    /// Sets the autoregressive decode-batching discipline (default:
    /// run-to-completion static batching).
    pub fn set_llm_batching(&mut self, batching: LlmBatching) {
        self.llm_batching = batching;
    }

    /// Applies the autoregressive serving knobs: the decode-batching
    /// discipline plus device-memory booking, since KV arenas are real
    /// device memory. A disabled config is a no-op (runs stay
    /// bit-identical).
    pub fn apply_llm(&mut self, llm: LlmConfig) {
        if llm.enabled {
            self.set_llm_batching(llm.batching);
            self.enable_device_memory();
        }
    }

    /// The active autoregressive batching discipline.
    pub fn llm_batching(&self) -> LlmBatching {
        self.llm_batching
    }

    /// A best-case lower bound on re-serving `request` from scratch
    /// when its function is autoregressive: prefill of the full prompt
    /// on the richest grid slice plus the *remaining* decode tokens.
    /// `None` for one-shot functions (the ordinary predictor applies)
    /// or when the request's token entry is gone.
    pub fn llm_retry_estimate(&self, request: &Request) -> Option<SimDuration> {
        let function = request.function.raw();
        let llm = self.functions[function].llm()?;
        let info = self.token_table.get(&request.key())?;
        let best = ResourceConfig::new(1, 100);
        let spec = self.functions[function].spec();
        let prefill = self
            .hardware
            .prefill_latency(spec, u64::from(info.prompt.max(1)), best);
        let remaining = info.output.saturating_sub(info.produced).max(1);
        let step = self.hardware.decode_step_latency(
            spec,
            1,
            f64::from(info.prompt) * llm.kv_mb_per_token,
            best,
        );
        Some(prefill + step.mul_f64(f64::from(remaining - 1)))
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The latest deadline any batch timer of this engine was armed
    /// for, pushed to the event heap or not: a barrier loop that runs
    /// while events remain also runs while this lies ahead.
    pub(crate) fn timer_horizon(&self) -> SimTime {
        self.timer_horizon
    }

    /// Advances the clock to a popped event's timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the current instant.
    pub fn advance(&mut self, t: SimTime) {
        assert!(t >= self.now, "time went backwards");
        self.now = t;
    }

    /// The hardware model.
    pub fn hardware(&self) -> &HardwareModel {
        &self.hardware
    }

    /// The CPU↔GPU conversion factor β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The cluster (read access; mutation goes through launch/retire or
    /// [`Self::cluster_mut`] for schedulers that pre-allocate).
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Mutable cluster access for schedulers that allocate during their
    /// search (Algorithm 1 does).
    pub fn cluster_mut(&mut self) -> &mut ClusterState {
        &mut self.cluster
    }

    /// The function table.
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// Function `f` and the mutable cluster together, for a scheduler
    /// that allocates while it reads the function.
    pub fn function_and_cluster_mut(&mut self, f: usize) -> (&FunctionInfo, &mut ClusterState) {
        (&self.functions[f], &mut self.cluster)
    }

    /// Live instance ids of one function.
    pub fn instances_of(&self, function: usize) -> &[InstanceId] {
        &self.live_by_function[function]
    }

    /// A live instance by id.
    ///
    /// # Panics
    ///
    /// Panics if the instance does not exist (retired or never created).
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.slot(id).inst
    }

    /// `true` if the instance is still live.
    pub fn is_live(&self, id: InstanceId) -> bool {
        self.slots
            .get(id.raw() as usize)
            .is_some_and(|s| s.is_some())
    }

    #[inline]
    fn slot(&self, id: InstanceId) -> &Slot {
        self.slots[id.raw() as usize].as_ref().expect(
            "instance retired or killed — callers reachable from stale \
             events must guard with is_live first",
        )
    }

    #[inline]
    fn slot_mut(&mut self, id: InstanceId) -> &mut Slot {
        self.slots[id.raw() as usize].as_mut().expect(
            "instance retired or killed — callers reachable from stale \
             events must guard with is_live first",
        )
    }

    /// Flat index of one physical GPU device in `gpu_busy_pct`.
    #[inline]
    fn device_index(&self, server: ServerId, gpu: usize) -> usize {
        server.raw() * self.gpus_per_server + gpu
    }

    /// Mints a new request for `function` arriving now.
    pub fn mint_request(&mut self, function: usize) -> Request {
        self.mint_request_arrived(function, self.now)
    }

    /// Mints a request whose gateway arrival predates "now" — used by
    /// the BATCH baseline, whose on-top-of-platform buffer adds a
    /// dispatch delay between true arrival and platform delivery.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` lies in the future.
    pub fn mint_request_arrived(&mut self, function: usize, arrival: SimTime) -> Request {
        assert!(arrival <= self.now, "requests cannot arrive in the future");
        let request = Request {
            function: FunctionId::new(function),
            ordinal: self.requests_minted[function],
            arrival,
            enqueued: arrival,
        };
        self.requests_minted[function] += 1;
        if self.functions[function].llm().is_some() {
            let info = self.mint_tokens(function);
            self.token_table.insert(request.key(), info);
        }
        if self.spans_on {
            // Timestamped at the gateway arrival, which the BATCH
            // baseline backdates relative to "now".
            self.emit(SpanKind::Arrival, arrival, &request, -1, -1, 0);
        }
        request
    }

    /// Samples prompt/output token counts for a new LLM request from
    /// the function's dedicated stream (label `llm/{platform}/fn{i}`).
    /// Shard-invariant: a function is wholly owned by one shard and
    /// draws happen in arrival order.
    fn mint_tokens(&mut self, function: usize) -> TokenInfo {
        let llm = *self.functions[function].llm().expect("LLM function");
        if self.token_streams.len() != self.functions.len() {
            self.token_streams
                .resize_with(self.functions.len(), || None);
        }
        if self.token_streams[function].is_none() {
            let label = format!("llm/{}/fn{function}", self.collector.report.platform);
            self.token_streams[function] = Some(infless_sim::rng::stream(self.seed, &label));
        }
        let rng = self.token_streams[function].as_mut().expect("just created");
        TokenInfo {
            prompt: sample_token_count(rng, llm.prompt_tokens_mean),
            output: sample_token_count(rng, llm.output_tokens_mean),
            produced: 0,
            first_token_seen: false,
        }
    }

    /// Builds and records one span of `request` (`instance` is a
    /// launch ordinal, `server` a raw id, or -1). Callers gate on
    /// `spans_on` so the disabled path never constructs a
    /// [`SpanEvent`].
    fn emit(
        &mut self,
        kind: SpanKind,
        t: SimTime,
        request: &Request,
        instance: i64,
        server: i64,
        batch: u32,
    ) {
        self.push_span(SpanEvent {
            t_s: t.as_secs_f64(),
            kind,
            request: request.ordinal,
            function: request.function.raw() as u32,
            instance,
            server,
            batch,
            fault: FaultTag::None,
        });
    }

    /// Records `span` with its function's next span sequence number.
    fn push_span(&mut self, span: SpanEvent) {
        let seq = &mut self.span_seq[span.function as usize];
        self.records.push(Record::Span { seq: *seq, span });
        *seq += 1;
    }

    /// Launches an instance whose resources were already allocated on
    /// the cluster (the Algorithm 1 path). `wait_budget` is the batch
    /// queueing budget (use `SimDuration::MAX` for "no timeout").
    pub fn launch_preallocated(
        &mut self,
        function: usize,
        config: InstanceConfig,
        placement: infless_cluster::Placement,
        startup: StartupKind,
        wait_budget: SimDuration,
        queue: &mut EventQueue<EngineEvent>,
    ) -> InstanceId {
        let delay = self.startup_delay(function, startup);
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        let ready_at = self.now + delay;
        let inst = Instance::new(
            id,
            FunctionId::new(function),
            config,
            placement,
            self.now,
            ready_at,
        );
        debug_assert_eq!(id.raw() as usize, self.slots.len(), "ids are dense");
        let ordinal = self.launches_minted[function];
        self.launches_minted[function] += 1;
        self.slots.push(Some(Slot {
            inst,
            meta: InstanceMeta {
                wait_budget,
                startup,
                ordinal,
            },
            in_flight: None,
            pending_resize: None,
            episode: None,
            decode_gen: 0,
            timer: BatchTimer::default(),
        }));
        self.live_by_function[function].push(id);
        self.collector.launch(function, config, startup);
        let (w, c, g) = self.weights(config);
        self.collector.usage_delta(function, self.now, w, c, g);
        // Credit outstanding capacity-loss probes: time-to-recapacity
        // measures how long until the platform brings up replacement
        // weighted capacity equal to what a fault destroyed, whichever
        // launches supply it.
        if let Some(epoch) = &mut self.epoch {
            epoch.launch_log.push((ready_at, w));
        } else {
            let samples = &mut self.collector.report.failures.recapacity_ms;
            credit_recapacity(&mut self.recapacity, ready_at, w, samples);
        }
        if matches!(startup, StartupKind::SwapIn) {
            if self.spans_on {
                self.emit_swap(SpanKind::SwapBegin, self.now, function, ordinal, placement);
            }
            if ready_at > self.now {
                queue.schedule(ready_at, EngineEvent::SwapComplete(id));
            }
        } else if ready_at > self.now {
            queue.schedule(ready_at, EngineEvent::InstanceReady(id));
        }
        if self.decisions_on {
            let mut ev = DecisionEvent::new(DecisionKind::Launch);
            ev.instance = ordinal as i64;
            ev.server = placement.server().raw() as i64;
            ev.batch = config.batch();
            ev.cpu = config.resources().cpu_cores();
            ev.gpu = config.resources().gpu_pct();
            ev.reason = match startup {
                StartupKind::Cold => DecisionReason::ColdBoot,
                StartupKind::PreWarmed => DecisionReason::PreWarmed,
                StartupKind::SwapIn => DecisionReason::SwapIn,
            };
            ev.value = delay.as_secs_f64();
            self.record_decision(function, ev);
        }
        id
    }

    /// Records one instance-scoped swap span of the instance with
    /// launch ordinal `ordinal`. Its request id is the ordinal with the
    /// high bit set, so it can never collide with a real request.
    fn emit_swap(
        &mut self,
        kind: SpanKind,
        t: SimTime,
        function: usize,
        ordinal: u64,
        placement: infless_cluster::Placement,
    ) {
        self.push_span(SpanEvent {
            t_s: t.as_secs_f64(),
            kind,
            request: (1u64 << 63) | ordinal,
            function: function as u32,
            instance: ordinal as i64,
            server: placement.server().raw() as i64,
            batch: 0,
            fault: FaultTag::None,
        });
    }

    /// Allocates anywhere (first-fit) and launches — the baseline path.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when no server fits the configuration.
    pub fn launch_anywhere(
        &mut self,
        function: usize,
        config: InstanceConfig,
        startup: StartupKind,
        wait_budget: SimDuration,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Result<InstanceId, PlacementError> {
        let mem = self
            .hardware
            .instance_memory_mb(self.functions[function].spec());
        let device_mb = self.device_demand(function, config);
        let placement =
            self.cluster
                .allocate_anywhere_with_split(config.resources(), mem, device_mb)?;
        Ok(self.launch_preallocated(function, config, placement, startup, wait_budget, queue))
    }

    /// Allocates on a specific server and launches.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the server cannot fit the
    /// configuration.
    pub fn launch_on(
        &mut self,
        function: usize,
        server: ServerId,
        config: InstanceConfig,
        startup: StartupKind,
        wait_budget: SimDuration,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Result<InstanceId, PlacementError> {
        let mem = self
            .hardware
            .instance_memory_mb(self.functions[function].spec());
        let device_mb = self.device_demand(function, config);
        let placement =
            self.cluster
                .allocate_on_with_split(server, config.resources(), mem, device_mb)?;
        Ok(self.launch_preallocated(function, config, placement, startup, wait_budget, queue))
    }

    /// Retires an idle instance, releasing its resources.
    ///
    /// # Panics
    ///
    /// Panics if the instance is busy or has queued requests — the
    /// platform must drain before retiring.
    pub fn retire(&mut self, id: InstanceId) {
        let slot = self.slots[id.raw() as usize]
            .take()
            .expect("retire of unknown instance");
        let inst = slot.inst;
        assert!(
            inst.queue_len() == 0
                && !matches!(inst.state(), infless_cluster::InstanceState::Busy { .. }),
            "retired an instance with work pending"
        );
        let function = inst.function().raw();
        self.live_by_function[function].retain(|x| *x != id);
        // A retirement racing an in-flight resize releases what the
        // cluster actually booked (the new config, committed at resize
        // initiation); the collector unwinds what it was told.
        match slot.pending_resize {
            Some(pr) => self
                .cluster
                .release(pr.new_config.resources(), pr.new_placement),
            None => self
                .cluster
                .release(inst.config().resources(), inst.placement()),
        }
        let (w, c, g) = self.weights(inst.config());
        self.collector.usage_delta(function, self.now, -w, -c, -g);
        self.collector.report.retirements += 1;
    }

    /// Retires every instance of `function` idle for longer than
    /// `keep_alive`, in launch order — the baselines' fixed keep-alive
    /// reaping.
    pub fn retire_idle(&mut self, function: usize, keep_alive: SimDuration) {
        let now = self.now;
        let dead: Vec<InstanceId> = self.live_by_function[function]
            .iter()
            .copied()
            .filter(|id| self.instance(*id).idle_for(now) > keep_alive)
            .collect();
        for id in dead {
            self.retire(id);
        }
    }

    /// Tries to enqueue `request` on `id`; returns `false` (request not
    /// consumed) if the pending batch is already full. On success, may
    /// start a batch and/or schedule a timeout.
    pub fn enqueue(
        &mut self,
        id: InstanceId,
        request: Request,
        queue: &mut EventQueue<EngineEvent>,
    ) -> bool {
        let now = self.now;
        let slot = self.slot_mut(id);
        let budget = slot.meta.wait_budget;
        let inst = &mut slot.inst;
        let was_empty = inst.queue_len() == 0;
        if !inst.enqueue(request, now) {
            return false;
        }
        let server = inst.placement().server().raw() as i64;
        let full = inst.batch_full();
        if self.spans_on {
            let ordinal = self.launch_ordinal(id);
            self.emit(SpanKind::Enqueued, now, &request, ordinal, server, 0);
        }
        if was_empty && budget < SimDuration::MAX {
            self.arm_batch_timer(id, now, queue);
        }
        // LLM functions also try on every enqueue: under continuous
        // batching an idle instance starts immediately (TTFT is the
        // point), and `try_start` itself gates the static discipline.
        if full || self.functions[request.function.raw()].llm().is_some() {
            self.try_start(id, queue);
        }
        if self.live_episodes > 0 && self.llm_batching == LlmBatching::Continuous {
            self.cut_span(id, queue);
        }
        true
    }

    /// Ends `id`'s decode span at the step in progress, where the
    /// request just queued may join (or, blocked on KV, be counted): a
    /// continuous-batching boundary that the span, computed on an empty
    /// queue, did not plan. No-op without an episode, on a full batch,
    /// or when the step in progress already is the boundary.
    fn cut_span(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        let slot = self.slot_mut(id);
        let batch = slot.inst.config().batch() as usize;
        let Some(ep) = slot.episode.as_mut() else {
            return;
        };
        if ep.active.len() >= batch {
            return;
        }
        let current = ep.steps_run(queue);
        if current + 1 == ep.span_len {
            return;
        }
        ep.span_len = current + 1;
        let (end, as_of) = (ep.span_at(current + 1), ep.span_at(current));
        slot.inst.extend_busy(end);
        slot.decode_gen = slot.decode_gen.wrapping_add(1);
        queue.schedule_as_of(end, as_of, EngineEvent::DecodeStep(id, slot.decode_gen));
    }

    /// Handles [`EngineEvent::InstanceReady`].
    pub fn on_instance_ready(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        if !self.is_live(id) {
            return;
        }
        // Start immediately if a full batch (or an expired partial one)
        // accumulated during the cold start.
        self.try_start(id, queue);
    }

    /// Handles [`EngineEvent::SwapComplete`]: the host→device transfer
    /// finished — record the span and treat the instance as ready.
    pub fn on_swap_complete(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        if !self.is_live(id) {
            return;
        }
        if self.spans_on {
            let slot = self.slot(id);
            let function = slot.inst.function().raw();
            let (ordinal, placement) = (slot.meta.ordinal, slot.inst.placement());
            self.emit_swap(
                SpanKind::SwapComplete,
                self.now,
                function,
                ordinal,
                placement,
            );
        }
        self.try_start(id, queue);
    }

    /// Handles [`EngineEvent::BatchTimeout`]: starts a batch if the
    /// queue is due, exactly as every timeout always has, then settles
    /// the timer reserved behind this one. The engine keeps one timer
    /// per instance in the event heap and reserves later deadlines
    /// behind it ([`EventQueue::reserve`]). The reserved timer is pushed
    /// when its queue is still open or opened this instant; otherwise
    /// that queue was consumed, the reservation fires before any queue
    /// opened from here on is due, and it is held back unpushed.
    pub fn on_batch_timeout(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        if !self.is_live(id) {
            return;
        }
        self.try_start(id, queue);
        let now = self.now;
        let slot = self.slot_mut(id);
        if slot.timer.armed != Some(now) {
            return;
        }
        slot.timer.armed = None;
        if let Some((ticket, opened)) = slot.timer.reserved {
            if opened == now || slot.inst.queue_opened_at() == Some(opened) {
                queue.schedule_ticket(ticket, EngineEvent::BatchTimeout(id));
                slot.timer = BatchTimer {
                    armed: Some(ticket.time()),
                    reserved: None,
                };
            }
        }
    }

    /// Arms `id`'s batch timer for the queue opened at `opened`,
    /// keeping at most one timer per instance in the event heap. The
    /// pop order of every timer that is ever pushed is the order
    /// scheduling each one here would give: a timer is either scheduled
    /// now or reserved now and pushed later under the same key.
    ///
    /// - Nothing armed, or an armed timer later than the new deadline:
    ///   schedule it. A leftover reservation fires before the new
    ///   queue is due, so it is dropped.
    /// - An armed timer no later than the deadline: reserve the new
    ///   timer behind it, replacing a reservation for a consumed queue
    ///   (which fires before the new queue is due). A re-arm for the
    ///   queue the reservation already covers adds nothing: the
    ///   reservation fires at the same deadline, first.
    ///
    /// A dropped timer could not have started a batch: it fires before
    /// any queue still to come is due, and a full or startable queue is
    /// started by the event that made it so. "Before" holds while the
    /// wait budget stays fixed, so [`Self::on_resize_complete`] pushes
    /// a pending reservation whenever the budget changes.
    fn arm_batch_timer(
        &mut self,
        id: InstanceId,
        opened: SimTime,
        queue: &mut EventQueue<EngineEvent>,
    ) {
        let deadline = opened + self.slot(id).meta.wait_budget;
        self.timer_horizon = self.timer_horizon.max(deadline);
        let slot = self.slot_mut(id);
        let open = slot.inst.queue_opened_at();
        let drop_stale = |(ticket, at): (Ticket, SimTime)| {
            note_timer_drop(ticket.time() >= deadline || open == Some(at));
        };
        let timer = &mut slot.timer;
        match timer.armed {
            Some(armed) if armed <= deadline => match timer.reserved {
                Some((ticket, at)) if at == opened => note_timer_drop(ticket.time() != deadline),
                stale => {
                    if let Some(stale) = stale {
                        drop_stale(stale);
                    }
                    timer.reserved = Some((queue.reserve(deadline), opened));
                }
            },
            armed => {
                if armed.is_none() {
                    if let Some(stale) = timer.reserved.take() {
                        drop_stale(stale);
                    }
                }
                queue.schedule(deadline, EngineEvent::BatchTimeout(id));
                timer.armed = Some(deadline);
            }
        }
    }

    /// Re-arms `id`'s batch timer after its batch or episode ended, if
    /// a partial queue remains and the wait budget allows timeouts.
    fn rearm_batch_timer(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        let slot = self.slot(id);
        if slot.meta.wait_budget < SimDuration::MAX {
            if let Some(opened) = slot.inst.queue_opened_at() {
                self.arm_batch_timer(id, opened, queue);
            }
        }
    }

    /// Handles [`EngineEvent::BatchComplete`]: records the latency
    /// breakdown of every request in the finished batch and starts the
    /// next batch if one is waiting. Returns the served function index
    /// and the completed requests (function-chain platforms relay them
    /// to the next stage), or `None` when the instance no longer exists
    /// — a fault can kill an instance at the very timestamp its batch
    /// would have completed, leaving a stale event behind (the
    /// displaced requests were already handed to the recovery path).
    pub fn on_batch_complete(
        &mut self,
        id: InstanceId,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Option<CompletedBatch> {
        if !self.is_live(id) {
            return None;
        }
        let now = self.now;
        let slot = self.slot_mut(id);
        let fl = slot.in_flight.take().expect(
            "BatchComplete on a live instance with no batch in flight — \
             completions are scheduled once per started batch, so this \
             event cannot outnumber starts",
        );
        let inst = &mut slot.inst;
        inst.complete_batch(now, fl.batch.len());
        let function = inst.function().raw();
        // Unwind under the batch's formation-time config: a resize that
        // completed mid-batch must not reprice the running batch.
        let config = fl.config;
        let placement = inst.placement();
        let batch_setting = config.batch();
        let ready_at = inst.ready_at();
        // Swap-ins attribute their (much shorter) startup wait the same
        // way cold boots do; pre-warmed attaches stay invisible.
        let was_cold = !matches!(slot.meta.startup, StartupKind::PreWarmed);
        let ordinal = slot.meta.ordinal as i64;
        self.end_execution(function, placement, config);
        let spans_on = self.spans_on;
        let decisions_on = self.decisions_on;
        for req in &fl.batch {
            let wait = fl.started - req.arrival;
            let cold = if was_cold && ready_at > req.arrival {
                (ready_at - req.arrival).min(wait)
            } else {
                SimDuration::ZERO
            };
            let enqueue_delay = req.enqueued.saturating_since(req.arrival);
            let parts = LatencyParts::derive(wait, fl.exec, cold, enqueue_delay, fl.exec_base);
            self.collector
                .complete_request(function, wait, fl.exec, cold, parts);
            if decisions_on {
                self.emit_breakdown(function, req.ordinal, parts, wait + fl.exec);
            }
            if spans_on {
                self.emit(
                    SpanKind::Complete,
                    self.now,
                    req,
                    ordinal,
                    placement.server().raw() as i64,
                    fl.batch.len() as u32,
                );
            }
        }
        // Exec time, its split and the batch setting are the same for
        // every request of the batch: record them once for all of them.
        self.collector.complete_batch(
            function,
            fl.exec,
            fl.exec_base,
            batch_setting,
            fl.batch.len() as u64,
        );
        // Leftover requests may already form a startable batch.
        self.try_start(id, queue);
        // If a partial batch remains, re-arm its timeout.
        self.rearm_batch_timer(id, queue);
        Some(CompletedBatch {
            function,
            requests: fl.batch,
        })
    }

    /// Hands a batch's request buffer back for reuse, once its
    /// requests have been read (the driver does so after
    /// [`crate::Platform::on_done`]). Keeps at most 16.
    pub fn recycle_batch(&mut self, mut batch: Vec<Request>) {
        if self.spare_batches.len() < SPARE_BATCHES && batch.capacity() > 0 {
            batch.clear();
            self.spare_batches.push(batch);
        }
    }

    /// An empty request buffer: a recycled one if any is spare.
    fn spare_batch(&mut self) -> Vec<Request> {
        self.spare_batches.pop().unwrap_or_default()
    }

    /// Starts an in-flight resize of `id` toward `new_config` at
    /// `new_placement` (which the caller already committed on the
    /// cluster via [`ClusterState::try_resize`]). The slot swaps over
    /// when the returned delay elapses and
    /// [`EngineEvent::ResizeComplete`] is handled; until then the
    /// instance keeps serving under its old configuration, and batches
    /// in flight at the swap finish under the config they were formed
    /// with. A grow pays the hardware model's resize latency (cgroup +
    /// MPS re-pin, far below any startup path); a shrink is free.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not live. Debug builds also flag a
    /// second resize while one is pending — the policy layer skips
    /// mid-resize instances.
    pub fn begin_resize(
        &mut self,
        id: InstanceId,
        new_config: InstanceConfig,
        new_placement: infless_cluster::Placement,
        new_wait_budget: SimDuration,
        queue: &mut EventQueue<EngineEvent>,
    ) -> SimDuration {
        let old = self.slot(id).inst.config();
        debug_assert!(
            self.slot(id).pending_resize.is_none(),
            "begin_resize while a resize is already pending"
        );
        debug_assert!(
            self.slot(id).episode.is_none(),
            "resize of an instance with a live autoregressive episode"
        );
        let grow = self.weighted_cost(new_config) > self.weighted_cost(old);
        let delay = self.hardware.resize_latency(grow);
        self.slot_mut(id).pending_resize = Some(PendingResize {
            new_config,
            new_placement,
            new_wait_budget,
        });
        queue.schedule(self.now + delay, EngineEvent::ResizeComplete(id));
        delay
    }

    /// Handles [`EngineEvent::ResizeComplete`]: atomically swaps the
    /// slot to its pending configuration/placement/wait-budget, moves
    /// the collector's usage books by the config delta (the cluster
    /// moved at initiation), and starts a batch if the grown queue can
    /// now execute. Returns the function index and the new config so
    /// the platform can retune its router entry, or `None` when the
    /// instance died mid-resize (the kill already unwound everything)
    /// or no resize was pending (a stale event).
    pub fn on_resize_complete(
        &mut self,
        id: InstanceId,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Option<(usize, InstanceConfig)> {
        if !self.is_live(id) {
            return None;
        }
        let slot = self.slot_mut(id);
        let pr = slot.pending_resize.take()?;
        let old_config = slot.inst.config();
        let was_full = slot.inst.batch_full();
        slot.inst.apply_resize(pr.new_config, pr.new_placement);
        if slot.meta.wait_budget != pr.new_wait_budget {
            // A held-back timer was only known not to matter under the
            // old budget: push it if its turn has not passed, and let
            // the next arm start afresh.
            if let Some((ticket, _)) = slot.timer.reserved.take() {
                if queue.is_pending(ticket) {
                    queue.schedule_ticket(ticket, EngineEvent::BatchTimeout(id));
                }
            }
            slot.timer.armed = None;
        }
        slot.meta.wait_budget = pr.new_wait_budget;
        let function = slot.inst.function().raw();
        self.note_room(id, was_full);
        let (w_old, c_old, g_old) = self.weights(old_config);
        let (w_new, c_new, g_new) = self.weights(pr.new_config);
        self.collector.usage_delta(
            function,
            self.now,
            w_new - w_old,
            c_new - c_old,
            g_new - g_old,
        );
        // A queue that was partial under the old batchsize may be full
        // (or past budget) under the new one.
        self.try_start(id, queue);
        Some((function, pr.new_config))
    }

    /// `true` while `id` has a resize awaiting completion. The policy
    /// layer skips such instances in both the upgrade and the
    /// downsize-before-park passes.
    pub fn has_pending_resize(&self, id: InstanceId) -> bool {
        self.slot(id).pending_resize.is_some()
    }

    /// Records a dropped request.
    pub fn drop_request(&mut self, request: &Request) {
        self.token_table.remove(&request.key());
        self.collector.report.functions[request.function.raw()].dropped += 1;
        if self.spans_on {
            self.emit(SpanKind::Dropped, self.now, request, -1, -1, 0);
        }
    }

    /// Records a displaced request shed by the recovery path (deadline
    /// blown or no residual capacity). Counts as a drop for SLO
    /// purposes *and* in the failure section's shed tally.
    pub fn shed_request(&mut self, request: &Request) {
        self.token_table.remove(&request.key());
        self.collector.shed(request.function.raw());
        if self.spans_on {
            self.emit(SpanKind::Shed, self.now, request, -1, -1, 0);
        }
    }

    /// Records a displaced request successfully re-dispatched by the
    /// platform's recovery policy.
    pub fn record_retry(&mut self, request: &Request) {
        self.collector.report.failures.requests_retried += 1;
        if self.spans_on {
            self.emit(SpanKind::Retried, self.now, request, -1, -1, 0);
        }
    }

    /// Handles [`EngineEvent::Fault`]: applies the mechanical effect of
    /// the fault (kills instances, force-releases their allocations,
    /// flips server health, arms straggler slowdowns) and returns the
    /// displaced work for the platform's recovery policy. Events that
    /// no longer apply (crash of an already-down server, kill with no
    /// live instances) are no-ops.
    ///
    /// `queue` is the run's event queue: a killed decode episode books
    /// the span steps that have run by its delivery position.
    pub fn on_fault(&mut self, ev: FaultEvent, queue: &EventQueue<EngineEvent>) -> FaultOutcome {
        let this: &Engine = self;
        let fault = this.resolve_fault(ev, this.now, |_| this, |_, _| false);
        let mut displaced = Vec::new();
        for &(_, id) in &fault.victims {
            displaced.extend(self.kill_instance(id, queue));
        }
        if let Some((server, health)) = fault.health {
            self.cluster.set_health(server, health);
        }
        if let Some((server, slowdown_pct, duration)) = fault.straggler {
            self.arm_straggler(server, slowdown_pct, duration);
        }
        fault.tally(&mut self.collector.report.failures);
        if fault.lost > 0.0 {
            self.recapacity.push_back((self.now, fault.lost));
        }
        self.book_displaced(&displaced, fault.tag);
        FaultOutcome {
            displaced,
            killed: fault.victims,
        }
    }

    /// Resolves fault `ev`, fired at `t`, without applying any of it:
    /// the one place the rules of every [`FaultEvent`] kind live.
    /// - A crash of an Up server kills every instance on it.
    /// - A kill picks `selector % len` over every live instance, a
    ///   cold-start failure over those still starting at `t`.
    /// - Health moves Down → Recovering → Up.
    /// - A straggler starts one episode.
    ///
    /// Candidates are walked function-major, then in launch order:
    /// `holder(f)` is the engine whose instance table holds function
    /// `f`, and instances `excluded(f, id)` are skipped. Server health
    /// is read from this engine's cluster.
    pub(crate) fn resolve_fault<'e>(
        &'e self,
        ev: FaultEvent,
        t: SimTime,
        holder: impl Fn(usize) -> &'e Engine,
        excluded: impl Fn(usize, InstanceId) -> bool,
    ) -> ResolvedFault {
        let candidates = |keep: &dyn Fn(&Instance) -> bool| {
            let mut out: Vec<&'e Instance> = Vec::new();
            for f in 0..self.functions.len() {
                let e = holder(f);
                for &id in &e.live_by_function[f] {
                    let inst = e.instance(id);
                    if !excluded(f, id) && keep(inst) {
                        out.push(inst);
                    }
                }
            }
            out
        };
        let pick = |c: Vec<&'e Instance>, selector: u64| match c.len() {
            0 => c,
            len => vec![c[(selector % len as u64) as usize]],
        };
        let step = |server, from, to| (self.cluster.health(server) == from).then_some((server, to));
        let (tag, victims, health, straggler) = match ev {
            FaultEvent::ServerCrash { server } => {
                let health = step(server, ServerHealth::Up, ServerHealth::Down);
                let victims = if health.is_some() {
                    candidates(&|i| i.placement().server() == server)
                } else {
                    Vec::new()
                };
                (FaultTag::ServerCrash, victims, health, None)
            }
            FaultEvent::ServerRecoveryBegin { server } => {
                let health = step(server, ServerHealth::Down, ServerHealth::Recovering);
                (FaultTag::None, Vec::new(), health, None)
            }
            FaultEvent::ServerUp { server } => {
                let health = step(server, ServerHealth::Recovering, ServerHealth::Up);
                (FaultTag::None, Vec::new(), health, None)
            }
            FaultEvent::InstanceKill { selector } => {
                let victims = pick(candidates(&|_| true), selector);
                (FaultTag::InstanceKill, victims, None, None)
            }
            FaultEvent::ColdStartFailure { selector } => {
                let victims = pick(candidates(&|i| i.is_starting(t)), selector);
                (FaultTag::ColdStartFailure, victims, None, None)
            }
            FaultEvent::StragglerStart {
                server,
                slowdown_pct,
                duration,
            } => {
                let straggler = Some((server, slowdown_pct, duration));
                (FaultTag::None, Vec::new(), None, straggler)
            }
        };
        let mut lost = 0.0;
        for inst in &victims {
            lost += self.weighted_cost(inst.config());
        }
        ResolvedFault {
            tag,
            victims: victims
                .iter()
                .map(|i| (i.function().raw(), i.id()))
                .collect(),
            health,
            straggler,
            lost,
        }
    }

    /// Tallies requests a kill displaced and records their spans.
    fn book_displaced(&mut self, displaced: &[Request], fault: FaultTag) {
        if displaced.is_empty() {
            return;
        }
        self.collector.report.failures.requests_displaced += displaced.len() as u64;
        if self.spans_on {
            for req in displaced {
                self.push_span(SpanEvent {
                    t_s: self.now.as_secs_f64(),
                    kind: SpanKind::Displaced,
                    request: req.ordinal,
                    function: req.function.raw() as u32,
                    instance: -1,
                    server: -1,
                    batch: 0,
                    fault,
                });
            }
        }
    }

    /// Applies a coordinator-resolved kill directive
    /// ([`EngineEvent::DirectiveKill`]): kills the instance and returns
    /// its function plus the displaced requests, or `None` if the
    /// victim already died (an earlier directive or crash at the same
    /// timestamp) — directives tolerate stale victims by design.
    ///
    /// Books no recapacity probe (the coordinator that resolved the
    /// victim owns those) but tallies the kill and displacement like
    /// [`Self::on_fault`] does.
    pub fn apply_kill_directive(
        &mut self,
        id: InstanceId,
        tag: FaultTag,
        queue: &EventQueue<EngineEvent>,
    ) -> Option<(usize, Vec<Request>)> {
        if !self.is_live(id) {
            return None;
        }
        let function = self.instance(id).function().raw();
        let displaced = self.kill_instance(id, queue);
        self.book_displaced(&displaced, tag);
        Some((function, displaced))
    }

    /// Arms a straggler episode on `server` from now: batches started
    /// there before it ends run `1 + slowdown_pct / 100` times slower.
    /// The episode tally is the caller's: a coordinator's directive
    /// reaches every shard but counts once.
    pub(crate) fn arm_straggler(
        &mut self,
        server: ServerId,
        slowdown_pct: u32,
        duration: SimDuration,
    ) {
        let factor = 1.0 + f64::from(slowdown_pct) / 100.0;
        self.straggle.insert(server, (self.now + duration, factor));
    }

    /// Forcibly removes an instance: unwinds any in-flight batch,
    /// drains the queue, releases the allocation, and returns the
    /// displaced requests (in-flight batch first, then the queue).
    /// The dangling `BatchComplete`/`InstanceReady`/`BatchTimeout`
    /// events become no-ops via the platforms' `is_live` guards.
    fn kill_instance(&mut self, id: InstanceId, queue: &EventQueue<EngineEvent>) -> Vec<Request> {
        let slot = self.slots[id.raw() as usize]
            .take()
            .expect("kill of unknown instance");
        let mut inst = slot.inst;
        let function = inst.function().raw();
        self.live_by_function[function].retain(|x| *x != id);
        let was_starting = inst.is_starting(self.now);
        let config = inst.config();
        let placement = inst.placement();
        let mut displaced = Vec::new();
        if let Some(fl) = slot.in_flight {
            // Busy books unwind under the batch's formation-time config
            // (it may predate a completed resize).
            self.end_execution(function, placement, fl.config);
            displaced.extend_from_slice(&fl.batch);
            self.recycle_batch(fl.batch);
        }
        if let Some(mut ep) = slot.episode {
            self.live_episodes -= 1;
            // An autoregressive episode was running: book the span
            // steps that have run, unwind the busy books exactly like
            // an in-flight batch, free the resident KV of every active
            // sequence, and displace them with their decode progress
            // preserved for retry estimates.
            self.end_execution(function, placement, config);
            let bpt = self.functions[function]
                .llm()
                .expect("episode on a non-LLM function")
                .kv_bytes_per_token();
            let tokens = ep.book_steps(ep.steps_run(queue));
            self.collector.report.kv_allocated_bytes += tokens * bpt;
            for seq in ep.active {
                let produced = ep.steps - seq.joined;
                self.collector.report.kv_freed_bytes +=
                    (u64::from(seq.prompt) + u64::from(produced)) * bpt;
                if let Some(info) = self.token_table.get_mut(&seq.req.key()) {
                    info.produced = produced;
                }
                displaced.push(seq.req);
            }
        }
        displaced.extend(inst.take_queue());
        // Mid-resize kills unwind cleanly: the cluster books hold the
        // *new* configuration from resize initiation, while the
        // collector only learned the new one at completion — so the
        // cluster releases whatever it booked and the collector unwinds
        // whatever it was told.
        match slot.pending_resize {
            Some(pr) => self
                .cluster
                .release(pr.new_config.resources(), pr.new_placement),
            None => self.cluster.release(config.resources(), placement),
        }
        let (w, c, g) = self.weights(config);
        self.collector.usage_delta(function, self.now, -w, -c, -g);
        self.collector.instance_killed(was_starting);
        displaced
    }

    /// Weighted resource cost `β·c + g` of a configuration.
    pub fn weighted_cost(&self, config: InstanceConfig) -> f64 {
        self.weights(config).0
    }

    /// The cluster-wide tail of a scaler tick at `now`: one fragment
    /// ratio sample and one provisioning-timeline point.
    pub fn sample_provisioning(&mut self, now: SimTime) {
        let frag = self.cluster.fragment_ratio(self.beta);
        let used = self.cluster.weighted_in_use(self.beta);
        let r = &mut self.collector.report;
        r.fragment_samples.add(frag);
        r.provisioning.push((now.as_secs_f64(), used));
    }

    /// Samples the run's gauges (instance counts, occupancy, queue
    /// depth, in-flight batches). Platforms call this from their
    /// periodic tick. The constant-size [`TimeseriesSummary`] in the
    /// collector is always updated; the full [`GaugeRow`] is built
    /// only with the gauge channel open.
    ///
    /// [`TimeseriesSummary`]: infless_telemetry::TimeseriesSummary
    pub fn sample_telemetry(&mut self, queue: &EventQueue<EngineEvent>) {
        let (instances, starting, queue_depth, in_flight_batches) = self.gauge_counts();
        let per_function = self.per_function_live_counts();
        let kv_resident_bytes = self.kv_resident_bytes(queue);
        let host_cache_mb_used = self.host_cache_mb;
        self.record_gauges(
            instances,
            starting,
            queue_depth,
            in_flight_batches,
            kv_resident_bytes,
            host_cache_mb_used,
            per_function,
        );
    }

    /// This shard's raw gauge readings: `(instances, starting,
    /// queue_depth, in_flight_batches)`. The sharded coordinator sums
    /// these across shards before recording.
    pub fn gauge_counts(&self) -> (u64, u64, u64, u64) {
        let now = self.now;
        let mut instances = 0u64;
        let mut starting = 0u64;
        let mut queue_depth = 0u64;
        for slot in self.slots.iter().flatten() {
            instances += 1;
            if slot.inst.is_starting(now) {
                starting += 1;
            }
            queue_depth += slot.inst.queue_len() as u64;
        }
        (
            instances,
            starting,
            queue_depth,
            self.in_flight_count as u64,
        )
    }

    /// Live instance count per function (zeros for functions this
    /// shard does not own).
    pub fn per_function_live_counts(&self) -> Vec<u64> {
        self.live_by_function
            .iter()
            .map(|ids| ids.len() as u64)
            .collect()
    }

    /// Records one tick's (possibly cluster-wide) gauge readings into
    /// this engine's collector and, with the gauge channel open, its
    /// records. Occupancies come from this engine's cluster view — in
    /// sharded runs every replica agrees at barrier time, when this is
    /// called.
    #[allow(clippy::too_many_arguments)]
    pub fn record_gauges(
        &mut self,
        instances: u64,
        starting: u64,
        queue_depth: u64,
        in_flight_batches: u64,
        kv_resident_bytes: u64,
        host_cache_mb_used: f64,
        per_function_instances: Vec<u64>,
    ) {
        let cpu_cap = self.cluster.cpu_capacity();
        let gpu_cap = self.cluster.gpu_capacity();
        let cpu_occupancy = if cpu_cap == 0 {
            0.0
        } else {
            self.cluster.cpu_in_use() as f64 / cpu_cap as f64
        };
        let gpu_occupancy = if gpu_cap == 0 {
            0.0
        } else {
            self.cluster.gpu_in_use() as f64 / gpu_cap as f64
        };
        self.collector.report.timeseries_summary.observe(
            instances,
            cpu_occupancy,
            gpu_occupancy,
            queue_depth,
            in_flight_batches,
        );
        if self.gauges_on {
            self.records.push(Record::Gauge(GaugeRow {
                t_s: self.now.as_secs_f64(),
                instances,
                starting,
                cpu_occupancy,
                gpu_occupancy,
                queue_depth,
                in_flight_batches,
                kv_resident_bytes,
                host_cache_mb_used,
                per_function_instances,
            }));
        }
    }

    /// Ends the run: freezes metrics at the current instant, or at the
    /// last batch timer's deadline if that is later (an unpushed timer
    /// ends the run where it would have fired, as a no-op).
    pub fn finish(self) -> crate::metrics::RunReport {
        let now = self.now.max(self.timer_horizon);
        self.into_collector().finish(now)
    }

    /// Dismantles the engine without freezing a report: hands back the
    /// collector. The sharded runner uses this to fold worker-shard
    /// collectors into the coordinator's before a single
    /// [`Self::finish`]-equivalent freeze.
    pub fn into_collector(mut self) -> Collector {
        self.book_kv_residents();
        self.collector
    }

    /// Books the KV bytes still resident in live episodes at the
    /// horizon, closing the conservation invariant
    /// `allocated == freed + resident` exactly. The steps of a span
    /// still in progress are booked on neither side.
    fn book_kv_residents(&mut self) {
        if self.live_episodes == 0 {
            return;
        }
        let total = self.resident_kv(|_| 0);
        self.collector.report.kv_resident_bytes += total;
    }

    // --- internals -------------------------------------------------------

    fn weights(&self, config: InstanceConfig) -> (f64, f64, f64) {
        let c = f64::from(config.resources().cpu_cores());
        let g = f64::from(config.resources().gpu_pct());
        (self.beta * c + g, c, g)
    }

    /// The startup latency a launch of `function` pays for a given
    /// startup kind — the cost term Algorithm 1 weighs when it can
    /// choose between a swap-in and a boot.
    pub fn startup_delay(&self, function: usize, startup: StartupKind) -> SimDuration {
        match startup {
            StartupKind::Cold => self.hardware.cold_start(self.functions[function].spec()),
            // Image resident: container attach + runtime init only.
            StartupKind::PreWarmed => SimDuration::from_millis(200),
            // Host-cached weights: pipelined PCIe upload.
            StartupKind::SwapIn => self.hardware.swap_in(self.functions[function].spec()),
        }
    }

    /// Logs `id` in [`Self::opened`] if its pending batch `was_full`
    /// and now has room: a batch took from the queue, or a resize grew
    /// the batchsize.
    fn note_room(&mut self, id: InstanceId, was_full: bool) {
        if !was_full || self.opened.is_none() {
            return;
        }
        let inst = &self.slot(id).inst;
        if inst.batch_full() {
            return;
        }
        let opened = (inst.function().raw(), id);
        if let Some(log) = &mut self.opened {
            log.push(opened);
        }
    }

    /// Books a batch that starts now under `config` on `placement`: its
    /// function's busy share, its active SM share on its GPU device and
    /// the in-flight count. Returns the batch's slowdown factors:
    /// - the execution noise, drawn from the function's stream;
    /// - the MPS interference, `None` off the GPU: co-resident *active*
    ///   SM share on the same physical device slows the batch down
    ///   (shared memory bandwidth / L2 behind the SM partitioning). In
    ///   epoch mode it reads the barrier-time snapshot, not the live
    ///   books;
    /// - the server's straggler episode, if one is running. The map is
    ///   read only when non-empty, so fault-free runs never touch it.
    fn begin_execution(
        &mut self,
        function: usize,
        placement: Placement,
        config: InstanceConfig,
    ) -> (f64, Option<f64>, Option<f64>) {
        let rng = match &mut self.epoch {
            Some(epoch) => &mut epoch.noise[function],
            None => &mut self.noise,
        };
        let noise = self.hardware.noise_factor(rng);
        let mut interference = None;
        if let Some(gpu) = placement.gpu_index() {
            let device = self.device_index(placement.server(), gpu);
            let others = match &self.epoch {
                Some(epoch) => epoch.interference[device],
                None => self.gpu_busy_pct[device],
            };
            let k = self.hardware.calibration().mps_interference;
            interference = Some(1.0 + k * f64::from(others) / 100.0);
            self.gpu_busy_pct[device] += config.resources().gpu_pct();
        }
        let mut straggler = None;
        if !self.straggle.is_empty() {
            let server = placement.server();
            if let Some(&(until_t, factor)) = self.straggle.get(&server) {
                if self.now < until_t {
                    straggler = Some(factor);
                    self.collector.report.failures.straggled_batches += 1;
                } else {
                    self.straggle.remove(&server);
                }
            }
        }
        let (w, _, _) = self.weights(config);
        self.collector.busy_delta(function, self.now, w);
        self.in_flight_count += 1;
        (noise, interference, straggler)
    }

    /// Unwinds what [`Self::begin_execution`] booked for a batch formed
    /// under `config` on `placement`, once it stops executing.
    fn end_execution(&mut self, function: usize, placement: Placement, config: InstanceConfig) {
        self.in_flight_count -= 1;
        let (w, _, _) = self.weights(config);
        self.collector.busy_delta(function, self.now, -w);
        if let Some(gpu) = placement.gpu_index() {
            let device = self.device_index(placement.server(), gpu);
            self.gpu_busy_pct[device] -= config.resources().gpu_pct();
        }
    }

    /// Starts a batch on `id` if the instance is ready and the batch is
    /// full or past its wait budget. Autoregressive functions divert to
    /// [`Self::try_start_llm`].
    fn try_start(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        let now = self.now;
        let probe = self.slot(id);
        if !probe.inst.can_execute(now) {
            return;
        }
        let is_llm = self.functions[probe.inst.function().raw()].llm().is_some();
        if is_llm {
            self.try_start_llm(id, queue);
            return;
        }
        let slot = self.slot(id);
        let budget = slot.meta.wait_budget;
        let inst = &slot.inst;
        let deadline_passed = inst
            .queue_opened_at()
            .map(|t| now >= t + budget)
            .unwrap_or(false);
        let was_full = inst.batch_full();
        if !(was_full || deadline_passed) {
            return;
        }
        let config = inst.config();
        let function = inst.function().raw();
        let placement = inst.placement();
        let len = (inst.queue_len()).min(config.batch() as usize) as u32;
        debug_assert!(len >= 1);
        let spec = self.functions[function].spec();
        let resources = config.resources();
        let hardware = &self.hardware;
        let base = *self
            .batch_latency
            .entry((spec.id(), len, resources))
            .or_insert_with(|| hardware.model_latency_s(spec, len, resources));
        let (noise, interference, straggler) = self.begin_execution(function, placement, config);
        let mut exec = SimDuration::from_secs_f64(base * noise);
        // Pre-interference estimate: the decomposition's
        // execution/interference boundary.
        let exec_base = exec;
        if let Some(factor) = interference {
            exec = exec.mul_f64(factor);
        }
        if let Some(factor) = straggler {
            exec = exec.mul_f64(factor);
        }
        let until = now + exec;
        let mut batch = self.spare_batch();
        self.slot_mut(id).inst.begin_batch(now, until, &mut batch);
        self.note_room(id, was_full);
        if self.spans_on {
            let blen = batch.len() as u32;
            let inst_ordinal = self.launch_ordinal(id);
            let srv = placement.server().raw() as i64;
            for req in &batch {
                self.emit(SpanKind::BatchFormed, now, req, inst_ordinal, srv, blen);
            }
            // One exec-start per batch, keyed by its first request.
            let first = batch[0];
            self.emit(SpanKind::ExecStart, now, &first, inst_ordinal, srv, blen);
        }
        self.slot_mut(id).in_flight = Some(InFlight {
            started: now,
            exec,
            exec_base,
            config,
            batch,
        });
        queue.schedule(until, EngineEvent::BatchComplete(id));
    }

    /// Starts an autoregressive episode on `id`: admits queued
    /// sequences under the KV-arena gate, books their prompt KV, and
    /// schedules the prefill's end as the first decode step (the first
    /// token of every admitted sequence lands there).
    fn try_start_llm(&mut self, id: InstanceId, queue: &mut EventQueue<EngineEvent>) {
        let now = self.now;
        let slot = self.slot(id);
        let budget = slot.meta.wait_budget;
        let inst = &slot.inst;
        debug_assert!(inst.can_execute(now));
        let config = inst.config();
        let function = inst.function().raw();
        let placement = inst.placement();
        let llm = *self.functions[function].llm().expect("LLM function");
        // Static batching forms episodes exactly like one-shot batches
        // (full batch or past the wait budget). Continuous admits
        // greedily: TTFT is the point, and later arrivals join the
        // running batch at decode boundaries anyway.
        if self.llm_batching == LlmBatching::Static {
            let deadline_passed = inst
                .queue_opened_at()
                .map(|t| now >= t + budget)
                .unwrap_or(false);
            if !(inst.batch_full() || deadline_passed) {
                return;
            }
        }
        // KV admission: walk the queue in order, reserving
        // `prompt + output` tokens per sequence against the arena. The
        // head sequence is always admitted, so an oversized request
        // cannot wedge the queue forever.
        let cap = llm.arena_capacity_tokens();
        let max_batch = config.batch() as usize;
        let mut reserved = 0u64;
        let mut infos: Vec<TokenInfo> = Vec::new();
        let mut blocked = None;
        for req in inst.queued() {
            if infos.len() >= max_batch {
                break;
            }
            let info = self.token_table[&req.key()];
            let need = u64::from(info.prompt) + u64::from(info.output);
            if !infos.is_empty() && reserved + need > cap {
                blocked = Some((*req, need));
                break;
            }
            reserved += need;
            infos.push(info);
        }
        if let Some((req, need)) = blocked {
            self.collector.llm_cache_full(function);
            if self.decisions_on {
                let free = cap.saturating_sub(reserved);
                self.record_kv_decision(DecisionKind::CacheFull, &req, id, 0, need, free);
            }
        }
        debug_assert!(!infos.is_empty());
        let prefill_tokens: u64 = infos.iter().map(|i| u64::from(i.prompt)).sum();
        // Episode-scoped slowdown: one noise draw plus the start-time
        // interference and straggler factors, applied to every phase.
        let (noise, interference, straggler) = self.begin_execution(function, placement, config);
        let interf = interference.unwrap_or(1.0) * straggler.unwrap_or(1.0);
        let slow = noise * interf;
        let spec = self.functions[function].spec();
        let secs = self
            .hardware
            .prefill_secs(spec, prefill_tokens, config.resources());
        let prefill = SimDuration::ticks_from_secs_f64(slow * secs);
        let until = now + SimDuration::from_ticks(prefill.into());
        let n = infos.len();
        let mut batch = self.spare_batch();
        let inst = &mut self.slot_mut(id).inst;
        let was_full = inst.batch_full();
        inst.begin_batch_of(n, now, until, &mut batch);
        self.note_room(id, was_full);
        debug_assert_eq!(batch.len(), n);
        let bpt = llm.kv_bytes_per_token();
        let spans_on = self.spans_on;
        let decisions_on = self.decisions_on;
        let inst_ordinal = self.launch_ordinal(id);
        let mut active = Vec::with_capacity(n);
        for (req, info) in batch.drain(..).zip(infos) {
            self.collector.report.kv_allocated_bytes += u64::from(info.prompt) * bpt;
            if spans_on {
                self.emit(
                    SpanKind::PrefillStart,
                    now,
                    &req,
                    inst_ordinal,
                    placement.server().raw() as i64,
                    n as u32,
                );
            }
            if decisions_on {
                let need = u64::from(info.prompt) + u64::from(info.output);
                let free = cap.saturating_sub(reserved);
                self.record_kv_decision(DecisionKind::Admit, &req, id, n, need, free);
            }
            active.push(LlmSeq {
                req,
                prompt: info.prompt,
                output: info.output,
                joined: 0,
                admitted: now,
                first_token: None,
            });
        }
        self.recycle_batch(batch);
        self.live_episodes += 1;
        // The prefill's end is the first boundary: every sequence emits
        // its first token there.
        let slot = self.slot_mut(id);
        slot.episode = Some(LlmEpisode {
            active,
            steps: 0,
            resident_tokens: prefill_tokens,
            reserved_tokens: reserved,
            pending_prefill_tokens: 0,
            completed: 0,
            slow,
            interf,
            span_start: now,
            span_len: 1,
            price: [0, 0, prefill],
        });
        slot.decode_gen = slot.decode_gen.wrapping_add(1);
        queue.schedule(until, EngineEvent::DecodeStep(id, slot.decode_gen));
    }

    /// Handles [`EngineEvent::DecodeStep`], the end of a decode span:
    /// every active sequence produced one token per step of the span
    /// (the first one closes the TTFT clock), completed sequences leave
    /// and free their KV, continuous batching admits queued joiners,
    /// and either the next span is scheduled or the episode ends.
    /// Returns the requests that completed at the episode's final step
    /// when the instance goes idle, `None` otherwise — including for
    /// stale events: on killed instances, or replaced by a cut span
    /// (`gen` is no longer the instance's decode generation).
    pub fn on_decode_step(
        &mut self,
        id: InstanceId,
        gen: u32,
        queue: &mut EventQueue<EngineEvent>,
    ) -> Option<CompletedBatch> {
        if !self.is_live(id) {
            return None;
        }
        let now = self.now;
        let slot = self.slot_mut(id);
        if slot.decode_gen != gen {
            return None;
        }
        let mut ep = slot
            .episode
            .take()
            .expect("DecodeStep on a live instance without an episode");
        let (function, config, placement, ready_at, was_cold) = {
            let slot = self.slot(id);
            (
                slot.inst.function().raw(),
                slot.inst.config(),
                slot.inst.placement(),
                slot.inst.ready_at(),
                !matches!(slot.meta.startup, StartupKind::PreWarmed),
            )
        };
        let llm = *self.functions[function].llm().expect("LLM function");
        let bpt = llm.kv_bytes_per_token();
        let batch_setting = config.batch();
        let spans_on = self.spans_on;
        let decisions_on = self.decisions_on;
        let srv = placement.server().raw() as i64;
        let inst_ordinal = self.launch_ordinal(id);
        let nseq = ep.active.len() as u32;
        debug_assert_eq!(ep.span_at(ep.span_len), now, "a span ends at its boundary");
        // 1. Every step of the span ran; first tokens (which only a
        //    one-step span can carry) close the request's TTFT clock,
        //    once even across fault retries.
        let tokens = ep.book_steps(ep.span_len);
        self.collector.report.kv_allocated_bytes += bpt * tokens;
        for seq in &mut ep.active {
            if seq.first_token.is_none() {
                seq.first_token = Some(now);
                let req = seq.req;
                let info = self
                    .token_table
                    .get_mut(&req.key())
                    .expect("a decoding sequence has a token entry");
                if !std::mem::replace(&mut info.first_token_seen, true) {
                    self.collector
                        .llm_first_token(function, now - req.arrival, llm.ttft_slo);
                    if spans_on {
                        self.emit(SpanKind::FirstToken, now, &req, inst_ordinal, srv, nseq);
                    }
                }
            }
        }
        // 2. Completed sequences leave, freeing their KV.
        let steps = ep.steps;
        let mut finished = std::mem::take(&mut self.finished);
        finished.extend(
            ep.active
                .extract_if(.., |seq| steps - seq.joined >= seq.output),
        );
        for seq in &finished {
            let produced = steps - seq.joined;
            let kv_tokens = u64::from(seq.prompt) + u64::from(produced);
            ep.resident_tokens -= kv_tokens;
            ep.reserved_tokens -= u64::from(seq.prompt) + u64::from(seq.output);
            ep.completed += 1;
            let wait = seq.admitted - seq.req.arrival;
            let exec = now - seq.admitted;
            let cold = if was_cold && ready_at > seq.req.arrival {
                (ready_at - seq.req.arrival).min(wait)
            } else {
                SimDuration::ZERO
            };
            let enqueue_delay = seq.req.enqueued.saturating_since(seq.req.arrival);
            // The episode's interference/straggler multiplier is known,
            // so dividing it out recovers the pre-interference estimate.
            let exec_base = if ep.interf > 1.0 {
                SimDuration::from_secs_f64(exec.as_secs_f64() / ep.interf)
            } else {
                exec
            };
            let parts = LatencyParts::derive(wait, exec, cold, enqueue_delay, exec_base);
            self.collector
                .complete_with_parts(function, wait, exec, cold, batch_setting, parts);
            if decisions_on {
                self.emit_breakdown(function, seq.req.ordinal, parts, wait + exec);
            }
            let tpot = (seq.output > 1).then(|| {
                let first = seq.first_token.expect("finished sequences produced tokens");
                SimDuration::from_secs_f64((now - first).as_secs_f64() / f64::from(seq.output - 1))
            });
            self.collector
                .llm_complete(function, tpot, llm.tpot_slo, u64::from(produced));
            self.collector.report.kv_freed_bytes += kv_tokens * bpt;
            self.token_table.remove(&seq.req.key());
            if spans_on {
                self.emit(
                    SpanKind::DecodeComplete,
                    now,
                    &seq.req,
                    inst_ordinal,
                    srv,
                    nseq,
                );
                self.emit(SpanKind::Complete, now, &seq.req, inst_ordinal, srv, nseq);
            }
        }
        // 3. Continuous batching: queued requests join at the boundary,
        //    their prompt prefill folded into the next step's latency.
        if self.llm_batching == LlmBatching::Continuous && !ep.active.is_empty() {
            let cap = llm.arena_capacity_tokens();
            let max_batch = config.batch() as usize;
            loop {
                if ep.active.len() >= max_batch {
                    break;
                }
                let Some(head) = self.slot(id).inst.queued().next().copied() else {
                    break;
                };
                let info = self.token_table[&head.key()];
                let need = u64::from(info.prompt) + u64::from(info.output);
                if ep.reserved_tokens + need > cap {
                    self.collector.llm_cache_full(function);
                    if decisions_on {
                        let free = cap.saturating_sub(ep.reserved_tokens);
                        self.record_kv_decision(DecisionKind::CacheFull, &head, id, 0, need, free);
                    }
                    break;
                }
                let mut joined = self.spare_batch();
                let inst = &mut self.slot_mut(id).inst;
                let was_full = inst.batch_full();
                inst.drain_queued(1, now, &mut joined);
                self.note_room(id, was_full);
                debug_assert_eq!(joined.len(), 1);
                self.recycle_batch(joined);
                ep.reserved_tokens += need;
                ep.resident_tokens += u64::from(info.prompt);
                ep.pending_prefill_tokens += u64::from(info.prompt);
                self.collector.report.kv_allocated_bytes += u64::from(info.prompt) * bpt;
                if spans_on {
                    self.emit(SpanKind::PrefillStart, now, &head, inst_ordinal, srv, nseq);
                }
                if decisions_on {
                    let (batch, free) =
                        (ep.active.len() + 1, cap.saturating_sub(ep.reserved_tokens));
                    self.record_kv_decision(DecisionKind::Admit, &head, id, batch, need, free);
                }
                ep.active.push(LlmSeq {
                    req: head,
                    prompt: info.prompt,
                    output: info.output,
                    joined: steps,
                    admitted: now,
                    first_token: None,
                });
            }
        }
        if ep.active.is_empty() {
            // Episode over: the instance goes idle and the one-shot
            // completion plumbing (books, timeout re-arm, next start)
            // takes back over.
            let mut completed_now = self.spare_batch();
            completed_now.extend(finished.drain(..).map(|seq| seq.req));
            self.finished = finished;
            self.live_episodes -= 1;
            let n = ep.completed;
            self.slot_mut(id).inst.complete_batch(now, n);
            self.end_execution(function, placement, config);
            self.try_start(id, queue);
            self.rearm_batch_timer(id, queue);
            Some(CompletedBatch {
                function,
                requests: completed_now,
            })
        } else {
            finished.clear();
            self.finished = finished;
            // The next span runs to the next boundary: the earliest
            // completion, or one step when joiners emit their first
            // token there or the queue could join or block on KV.
            let n = ep.active.len() as u32;
            let queue_waits = self.llm_batching == LlmBatching::Continuous
                && (n as usize) < config.batch() as usize
                && self.slot(id).inst.queue_len() > 0;
            let span = if ep.pending_prefill_tokens > 0 || queue_waits {
                1
            } else {
                ep.active
                    .iter()
                    .map(|seq| seq.output - (steps - seq.joined))
                    .min()
                    .expect("a live episode has active sequences")
            };
            // Each step is memory-bound on weights + resident KV, which
            // grows by `n` tokens a step; the first also carries the
            // piggybacked prefill of any joiners.
            let spec = self.functions[function].spec();
            let (r, kv) = (ep.resident_tokens as f64, llm.kv_mb_per_token);
            let cost = self.hardware.decode_cost(spec, n, config.resources());
            let (a, b) = cost.span_ticks(r * kv, f64::from(n) * kv, ep.slow);
            let prefill = match std::mem::take(&mut ep.pending_prefill_tokens) {
                0 => 0.0,
                tokens => self.hardware.prefill_secs(spec, tokens, config.resources()),
            };
            let p = SimDuration::ticks_from_secs_f64(ep.slow * prefill);
            // The next span starts where this one ended, to the tick.
            let carry = (ep.span_ticks(ep.span_len) % (1 << SimDuration::TICK_SHIFT)) as u64;
            (ep.span_start, ep.span_len, ep.price) = (now, span, [a, b, p.saturating_add(carry)]);
            // A one-step span is scheduled now, exactly like a per-step
            // event; a longer one ties as if its last step's event had
            // been scheduled when the step before it ended.
            let (until, as_of) = (ep.span_at(span), ep.span_at(span - 1));
            let slot = self.slot_mut(id);
            slot.inst.extend_busy(until);
            slot.episode = Some(ep);
            slot.decode_gen = slot.decode_gen.wrapping_add(1);
            let event = EngineEvent::DecodeStep(id, slot.decode_gen);
            if span == 1 {
                queue.schedule(until, event);
            } else {
                queue.schedule_as_of(until, as_of, event);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::step;
    use infless_cluster::InstanceState;
    use infless_models::{ModelId, ResourceConfig};

    fn engine() -> (Engine, EventQueue<EngineEvent>) {
        let functions = vec![FunctionInfo::new(
            ModelId::MobileNet.spec(),
            SimDuration::from_millis(50),
        )];
        (
            Engine::new(
                "test",
                ClusterSpec::testbed(),
                HardwareModel::default(),
                functions,
                1,
            ),
            EventQueue::new(),
        )
    }

    fn cfg() -> InstanceConfig {
        InstanceConfig::new(4, ResourceConfig::new(1, 10))
    }

    /// Delivers queued events until none is left, then checks that no
    /// batch timer that could have started a batch went unpushed.
    fn drain(engine: &mut Engine, queue: &mut EventQueue<EngineEvent>) {
        while step(engine, queue) {}
        assert_eq!(live_timer_drops(), 0);
    }

    #[test]
    fn full_batch_executes_immediately() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        // Let the instance become ready (200ms prewarmed start).
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 4);
        assert_eq!(report.functions[0].per_batch_completed[&4], 4);
    }

    #[test]
    fn partial_batch_waits_for_timeout() {
        let (mut engine, mut queue) = engine();
        let budget = SimDuration::from_millis(30);
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::PreWarmed, budget, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let t0 = engine.now();
        let req = engine.mint_request(0);
        engine.enqueue(id, req, &mut queue);
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 1);
        // The lone request waited out the full budget before executing.
        let wait_ms = report.functions[0].breakdown.batch_wait_ms.mean();
        assert!(
            (wait_ms - budget.as_millis_f64()).abs() < 1.0,
            "batch wait {wait_ms}ms vs budget {budget}"
        );
        let _ = t0;
    }

    #[test]
    fn cold_start_is_attributed_to_requests() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::Cold,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        // Request arrives while the instance is still starting.
        let req = engine.mint_request(0);
        engine.enqueue(id, req, &mut queue);
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 1);
        assert_eq!(report.functions[0].cold_requests, 1);
        assert!(
            report.functions[0].breakdown.startup_ms.mean() > 1000.0,
            "cold start is seconds"
        );
        assert_eq!(report.cold_launches, 1);
    }

    #[test]
    fn overflow_requests_are_rejected() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::Cold, SimDuration::MAX, &mut queue)
            .unwrap();
        // Instance is cold: queue fills to one batch, fifth drops.
        for i in 0..5 {
            let req = engine.mint_request(0);
            let accepted = engine.enqueue(id, req, &mut queue);
            assert_eq!(accepted, i < 4, "request {i}");
            if !accepted {
                engine.drop_request(&req);
            }
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 4);
        assert_eq!(report.total_dropped(), 1);
    }

    #[test]
    fn retire_releases_resources() {
        let (mut engine, mut queue) = engine();
        let before = engine.cluster().cpu_in_use();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        assert!(engine.cluster().cpu_in_use() > before);
        drain(&mut engine, &mut queue);
        engine.retire(id);
        assert_eq!(engine.cluster().cpu_in_use(), before);
        assert!(!engine.is_live(id));
        let report = engine.finish();
        assert_eq!(report.retirements, 1);
    }

    #[test]
    #[should_panic(expected = "work pending")]
    fn retiring_with_queued_work_panics() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::Cold, SimDuration::MAX, &mut queue)
            .unwrap();
        let req = engine.mint_request(0);
        engine.enqueue(id, req, &mut queue);
        engine.retire(id);
    }

    #[test]
    fn usage_accounting_tracks_lifetime() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        // Hold for 10 virtual seconds, then retire.
        engine.advance(SimTime::from_secs(10));
        engine.retire(id);
        engine.advance(SimTime::from_secs(20));
        let beta = engine.beta();
        let report = engine.finish();
        let expected = (beta * 1.0 + 10.0) * 10.0;
        assert!(
            (report.weighted_resource_seconds - expected).abs() / expected < 0.05,
            "usage {} vs expected {expected}",
            report.weighted_resource_seconds
        );
    }

    #[test]
    fn colocated_gpu_batches_interfere() {
        // Two instances sharing one physical GPU: a batch started while
        // the neighbour executes runs slower than one started alone.
        let functions = vec![FunctionInfo::new(
            ModelId::ResNet50.spec(),
            SimDuration::from_millis(500),
        )];
        let cluster = ClusterSpec {
            servers: 1,
            cores_per_server: 8,
            gpus_per_server: 1,
            mem_per_server_mb: 128.0 * 1024.0,
            gpu_mem_per_device_mb: 0.0,
        };
        let mut engine = Engine::new("t", cluster, HardwareModel::default(), functions, 2);
        let mut queue = EventQueue::new();
        let cfg = InstanceConfig::new(8, ResourceConfig::new(1, 40));
        let a = engine
            .launch_anywhere(0, cfg, StartupKind::PreWarmed, SimDuration::MAX, &mut queue)
            .unwrap();
        let b = engine
            .launch_anywhere(0, cfg, StartupKind::PreWarmed, SimDuration::MAX, &mut queue)
            .unwrap();
        // Let both become ready.
        while let Some((t, ev)) = queue.pop() {
            engine.advance(t);
            if let EngineEvent::InstanceReady(id) = ev {
                engine.on_instance_ready(id, &mut queue);
            }
        }
        // Fill instance A; it starts immediately (solo on the device).
        for _ in 0..8 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(a, req, &mut queue));
        }
        let (t_a_done, _) = queue.peek_time().map(|t| (t, ())).unwrap();
        let solo_exec = t_a_done - engine.now();
        // Fill instance B while A executes: B starts co-located.
        for _ in 0..8 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(b, req, &mut queue));
        }
        // Find B's completion event time.
        let start = engine.now();
        let mut done = Vec::new();
        while let Some((t, ev)) = queue.pop() {
            engine.advance(t);
            if let EngineEvent::BatchComplete(id) = ev {
                engine.on_batch_complete(id, &mut queue);
                done.push((id, t));
            }
        }
        let b_done = done.iter().find(|(id, _)| *id == b).unwrap().1;
        let colocated_exec = b_done - start;
        assert!(
            colocated_exec.as_secs_f64() > solo_exec.as_secs_f64() * 1.02,
            "co-located batch should run slower: solo {solo_exec} vs {colocated_exec}"
        );
        // And the device book-keeping drains back to zero.
        let req = engine.mint_request(0);
        assert!(engine.enqueue(a, req, &mut queue));
    }

    #[test]
    fn instance_kill_displaces_work_and_releases_resources() {
        let (mut engine, mut queue) = engine();
        let before = engine.cluster().cpu_in_use();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        // Two queued requests (partial batch, timeout pending).
        let r1 = engine.mint_request(0);
        let r2 = engine.mint_request(0);
        assert!(engine.enqueue(id, r1, &mut queue));
        assert!(engine.enqueue(id, r2, &mut queue));
        let outcome = engine.on_fault(FaultEvent::InstanceKill { selector: 7 }, &queue);
        assert_eq!(outcome.killed, vec![(0, id)]);
        assert_eq!(outcome.displaced, vec![r1, r2]);
        assert!(!engine.is_live(id));
        assert_eq!(engine.cluster().cpu_in_use(), before);
        // The pending BatchTimeout for the dead instance is a no-op.
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.failures.instances_killed, 1);
        assert_eq!(report.failures.requests_displaced, 2);
        assert_eq!(report.total_completed(), 0);
    }

    #[test]
    fn kill_unwinds_in_flight_batch_and_gpu_books() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        // The full batch started executing; kill mid-flight.
        let outcome = engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
        assert_eq!(outcome.displaced.len(), 4);
        // Relaunch on the same device: the busy books were unwound, so
        // a fresh batch sees no phantom interference and can start.
        let id2 = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id2, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 4);
        assert_eq!(report.failures.instances_killed, 1);
    }

    #[test]
    fn resize_swaps_config_at_completion_and_in_flight_batches_finish_old() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        // A full batch forms and starts under the old config…
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        // …then a grow is initiated while it is in flight. The cluster
        // books move now; the slot swaps only at completion.
        let old = engine.instance(id).config();
        let new_res = ResourceConfig::new(2, 20);
        let new_cfg = InstanceConfig::new(8, new_res);
        let placement = engine.instance(id).placement();
        let new_placement = engine
            .cluster_mut()
            .try_resize(placement, old.resources(), new_res, 0.0)
            .unwrap();
        let delay = engine.begin_resize(
            id,
            new_cfg,
            new_placement,
            SimDuration::from_millis(30),
            &mut queue,
        );
        assert!(!delay.is_zero(), "a grow pays the resize latency");
        assert!(engine.has_pending_resize(id));
        assert_eq!(
            engine.instance(id).config(),
            old,
            "the slot keeps serving under the old config until completion"
        );
        drain(&mut engine, &mut queue);
        assert!(!engine.has_pending_resize(id));
        assert_eq!(engine.instance(id).config(), new_cfg);
        // The new batchsize is live: eight requests form one batch.
        for _ in 0..8 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 12);
        // The in-flight batch finished under its formation-time config.
        assert_eq!(report.functions[0].per_batch_completed[&4], 4);
        assert_eq!(report.functions[0].per_batch_completed[&8], 8);
    }

    /// An instance is logged in `opened` exactly when its full pending
    /// batch gains room: a grow lands past the queue, or a batch takes
    /// from the full queue. Filling a queue logs nothing.
    #[test]
    fn full_batches_that_gain_room_are_logged() {
        let (mut engine, mut queue) = engine();
        engine.opened = Some(Vec::new());
        // A cold start outlasts the resize, so no batch starts first.
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::Cold, SimDuration::MAX, &mut queue)
            .unwrap();
        let fill = |engine: &mut Engine, queue: &mut EventQueue<_>, n: u32| {
            for _ in 0..n {
                let req = engine.mint_request(0);
                assert!(engine.enqueue(id, req, queue));
            }
            assert!(engine.instance(id).batch_full());
        };
        fill(&mut engine, &mut queue, 4);
        assert_eq!(engine.opened, Some(vec![]));
        let old = engine.instance(id).config();
        let new_res = ResourceConfig::new(2, 20);
        let placement = engine.instance(id).placement();
        let new_placement = engine
            .cluster_mut()
            .try_resize(placement, old.resources(), new_res, 0.0)
            .unwrap();
        let new_cfg = InstanceConfig::new(8, new_res);
        engine.begin_resize(id, new_cfg, new_placement, SimDuration::MAX, &mut queue);
        while engine.instance(id).config() != new_cfg {
            assert!(step(&mut engine, &mut queue), "the resize never landed");
        }
        assert!(engine.instance(id).is_starting(engine.now()));
        assert_eq!(engine.opened.replace(Vec::new()), Some(vec![(0, id)]));
        fill(&mut engine, &mut queue, 4);
        assert_eq!(engine.opened, Some(vec![]));
        drain(&mut engine, &mut queue);
        assert_eq!(engine.opened, Some(vec![(0, id)]));
        assert_eq!(engine.finish().total_completed(), 8);
    }

    /// The batch-latency memo returns exactly what a fresh DAG walk
    /// would: every batch's pre-interference execution is the
    /// ground-truth latency for its own length and formation-time
    /// resources times one noise draw, before and after a resize — so a
    /// key that dropped the length or the resources would fail here.
    #[test]
    fn batch_latency_memo_matches_a_fresh_walk() {
        let (mut engine, mut queue) = engine();
        let mut noise = infless_sim::rng::stream(1, "engine/test");
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let spec = ModelId::MobileNet.spec();
        let mut check = |engine: &mut Engine, queue: &mut EventQueue<_>, len: u32| {
            for _ in 0..len {
                let req = engine.mint_request(0);
                assert!(engine.enqueue(id, req, queue));
            }
            // A short batch starts at its wait-budget timeout.
            while engine.slot(id).in_flight.is_none() {
                assert!(step(engine, queue), "batch of {len} never started");
            }
            let flight = engine.slot(id).in_flight.as_ref().unwrap();
            assert_eq!(flight.batch.len(), len as usize);
            let base = engine
                .hardware()
                .model_latency_s(&spec, len, flight.config.resources());
            let want =
                SimDuration::from_secs_f64(base * engine.hardware().noise_factor(&mut noise));
            assert_eq!(flight.exec_base, want, "batch of {len}");
            // One instance on the device: no interference, no straggler.
            assert_eq!(flight.exec, want, "batch of {len}");
            drain(engine, queue);
        };
        for len in [4, 1, 3, 4, 1] {
            check(&mut engine, &mut queue, len);
        }
        let old = engine.instance(id).config();
        let new_res = ResourceConfig::new(2, 20);
        let placement = engine.instance(id).placement();
        let new_placement = engine
            .cluster_mut()
            .try_resize(placement, old.resources(), new_res, 0.0)
            .unwrap();
        engine.begin_resize(
            id,
            InstanceConfig::new(8, new_res),
            new_placement,
            SimDuration::from_millis(30),
            &mut queue,
        );
        drain(&mut engine, &mut queue);
        assert_eq!(engine.instance(id).config().resources(), new_res);
        // Lengths seen under the old resources, plus new ones.
        for len in [4, 1, 8, 3, 8] {
            check(&mut engine, &mut queue, len);
        }
        assert_eq!(engine.finish().total_completed(), 37);
    }

    #[test]
    fn shrink_is_free_and_kill_mid_resize_releases_new_booking() {
        let (mut engine, mut queue) = engine();
        let cpu0 = engine.cluster().cpu_in_use();
        let gpu0 = engine.cluster().gpu_in_use();
        let big = InstanceConfig::new(4, ResourceConfig::new(2, 20));
        let id = engine
            .launch_anywhere(0, big, StartupKind::PreWarmed, SimDuration::MAX, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let placement = engine.instance(id).placement();
        let small = ResourceConfig::new(1, 10);
        let new_placement = engine
            .cluster_mut()
            .try_resize(placement, big.resources(), small, 0.0)
            .unwrap();
        let delay = engine.begin_resize(
            id,
            InstanceConfig::new(2, small),
            new_placement,
            SimDuration::MAX,
            &mut queue,
        );
        assert!(delay.is_zero(), "a shrink swaps without resize latency");
        // Kill while the swap event is still queued: the cluster must
        // release the *new* booking (committed at initiation), and the
        // stale ResizeComplete must be a no-op.
        let outcome = engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
        assert!(outcome.displaced.is_empty());
        assert_eq!(engine.cluster().cpu_in_use(), cpu0);
        assert_eq!(engine.cluster().gpu_in_use(), gpu0);
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.failures.instances_killed, 1);
    }

    /// Satellite 2 regression: a fault can kill an instance at the
    /// exact timestamp its batch completion (or ready/timeout event)
    /// is pending. The stale events must be no-ops, not panics.
    #[test]
    fn same_timestamp_kill_then_stale_events_do_not_panic() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        // The batch is in flight with a BatchComplete pending. Advance
        // to that very timestamp, then deliver the fault first.
        let t_done = queue.peek_time().unwrap();
        engine.advance(t_done);
        let outcome = engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
        assert_eq!(outcome.displaced.len(), 4);
        // The stale completion (same timestamp) resolves to None.
        let (t, ev) = queue.pop().unwrap();
        assert_eq!(t, t_done);
        assert!(matches!(ev, EngineEvent::BatchComplete(i) if i == id));
        assert!(engine.on_batch_complete(id, &mut queue).is_none());
        // Stale ready/timeout events are equally harmless.
        engine.on_instance_ready(id, &mut queue);
        engine.on_batch_timeout(id, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 0);
        assert_eq!(report.failures.requests_displaced, 4);
    }

    /// Coordinator-resolved kill directives displace work like
    /// `on_fault` kills, and tolerate victims that already died.
    #[test]
    fn kill_directive_displaces_and_tolerates_dead_victims() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let r1 = engine.mint_request(0);
        assert!(engine.enqueue(id, r1, &mut queue));
        let (function, displaced) = engine
            .apply_kill_directive(id, infless_telemetry::FaultTag::InstanceKill, &queue)
            .expect("victim is live");
        assert_eq!(function, 0);
        assert_eq!(displaced, vec![r1]);
        assert!(!engine.is_live(id));
        // Double delivery (e.g. crash + kill at the same timestamp).
        assert!(engine
            .apply_kill_directive(id, infless_telemetry::FaultTag::InstanceKill, &queue)
            .is_none());
        let report = engine.finish();
        assert_eq!(report.failures.instances_killed, 1);
        assert_eq!(report.failures.requests_displaced, 1);
    }

    #[test]
    fn server_crash_kills_residents_and_gates_placement() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let arrival = engine.now();
        let (kept, dropped) = (engine.mint_request(0), engine.mint_request(0));
        let t1 = arrival + SimDuration::from_millis(10);
        engine.advance(t1);
        assert!(engine.enqueue(id, kept, &mut queue) && engine.enqueue(id, dropped, &mut queue));
        let server = engine.instance(id).placement().server();
        let outcome = engine.on_fault(FaultEvent::ServerCrash { server }, &queue);
        assert_eq!(outcome.killed.len(), 1);
        assert!(!engine.is_live(id));
        assert_eq!(engine.cluster().health(server), ServerHealth::Down);
        // Crashing an already-down server is a no-op.
        let again = engine.on_fault(FaultEvent::ServerCrash { server }, &queue);
        assert!(again.killed.is_empty());
        engine.on_fault(FaultEvent::ServerRecoveryBegin { server }, &queue);
        assert_eq!(engine.cluster().health(server), ServerHealth::Recovering);
        engine.on_fault(FaultEvent::ServerUp { server }, &queue);
        assert_eq!(engine.cluster().health(server), ServerHealth::Up);
        // Latest enqueue wins: one displaced request is re-dispatched to
        // a replacement once it is ready (t3 > t1), the other dropped.
        let b = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let t3 = engine.now();
        engine.drop_request(&outcome.displaced[1]);
        assert!(engine.enqueue(b, outcome.displaced[0], &mut queue));
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.failures.server_crashes, 1);
        assert_eq!(report.failures.server_recoveries, 1);
        let f = &report.functions[0];
        assert_eq!((f.completed, f.dropped), (1, 1));
        // The batch starts on its 30 ms timeout, so wait > t3 − arrival
        // and queueing is min(t3 − arrival, wait) = t3 − arrival, not
        // t1 − arrival. The dropped request adds no sample.
        let queueing = &f.breakdown.queueing_ms;
        assert!(t3 > t1);
        assert_eq!(queueing.count(), 1);
        assert_eq!(queueing.min(), Some((t3 - arrival).as_millis_f64()));
    }

    #[test]
    fn recapacity_clock_stops_when_replacement_is_ready() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let t_kill = engine.now();
        engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
        let _ = id;
        // Replacement with the same config: the probe is fully credited
        // at its ready time (prewarmed start = 200 ms).
        engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        let report = engine.finish();
        let mean = report.failures.mean_time_to_recapacity_ms().unwrap();
        let _ = t_kill;
        assert!(
            (mean - 200.0).abs() < 1.0,
            "recapacity should equal the prewarmed startup delay, got {mean}ms"
        );
    }

    /// Tentpole: a swap-in launch is far cheaper than a boot, rides its
    /// own `SwapComplete` event, and attributes its startup wait to the
    /// requests that queued behind it.
    #[test]
    fn swap_in_is_faster_than_boot_and_attributed() {
        let (mut engine, mut queue) = engine();
        let swap = engine.startup_delay(0, StartupKind::SwapIn);
        let cold = engine.startup_delay(0, StartupKind::Cold);
        let warm = engine.startup_delay(0, StartupKind::PreWarmed);
        assert!(warm < swap && swap < cold, "{warm} < {swap} < {cold}");
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::SwapIn,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        // Request arrives while the model is still swapping in.
        let req = engine.mint_request(0);
        engine.enqueue(id, req, &mut queue);
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 1);
        assert_eq!(report.swap_launches, 1);
        assert_eq!(report.cold_launches, 0);
        assert_eq!(report.functions[0].cold_requests, 1);
        let startup_ms = report.functions[0].breakdown.startup_ms.mean();
        assert!(
            (200.0..1000.0).contains(&startup_ms),
            "swap wait is sub-second, got {startup_ms}ms"
        );
    }

    /// Swap-based recovery re-arms capacity faster than boot-based
    /// recovery — the mean time-to-recapacity mechanism `fig_swap`
    /// pins at the bench level.
    #[test]
    fn swap_recovery_beats_boot_on_recapacity() {
        let run = |kind: StartupKind| {
            let (mut engine, mut queue) = engine();
            engine
                .launch_anywhere(
                    0,
                    cfg(),
                    StartupKind::PreWarmed,
                    SimDuration::MAX,
                    &mut queue,
                )
                .unwrap();
            drain(&mut engine, &mut queue);
            engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
            engine
                .launch_anywhere(0, cfg(), kind, SimDuration::MAX, &mut queue)
                .unwrap();
            engine
                .finish()
                .failures
                .mean_time_to_recapacity_ms()
                .unwrap()
        };
        let boot = run(StartupKind::Cold);
        let swap = run(StartupKind::SwapIn);
        assert!(
            swap < boot / 2.0,
            "swap recovery {swap}ms should crush boot recovery {boot}ms"
        );
    }

    #[test]
    fn straggler_slows_batches_only_during_episode() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let server = engine.instance(id).placement().server();
        // Baseline batch.
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        let t0 = engine.now();
        let (done, _) = queue.pop().unwrap();
        engine.advance(done);
        engine.on_batch_complete(id, &mut queue);
        let base = done - t0;
        // Straggling batch: 100% slowdown doubles execution.
        engine.on_fault(
            FaultEvent::StragglerStart {
                server,
                slowdown_pct: 100,
                duration: SimDuration::from_secs(3600),
            },
            &queue,
        );
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        let t1 = engine.now();
        let (done, _) = queue.pop().unwrap();
        engine.advance(done);
        engine.on_batch_complete(id, &mut queue);
        let slow = done - t1;
        // Execution noise is a few percent; a 2x factor dominates it.
        assert!(
            slow.as_secs_f64() > base.as_secs_f64() * 1.5,
            "straggled batch {slow} should be ~2x baseline {base}"
        );
        let report = engine.finish();
        assert_eq!(report.failures.stragglers, 1);
        assert_eq!(report.failures.straggled_batches, 1);
    }

    /// A resize that shrinks the wait budget below the timer already in
    /// the heap: the next queue's earlier deadline still fires on time,
    /// ahead of the armed timer, and the timer reserved behind the armed
    /// one under the old budget is pushed and still fires.
    #[test]
    fn shrunk_wait_budget_fires_before_the_armed_timer() {
        let (mut engine, mut queue) = engine();
        let long = SimDuration::from_millis(500);
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::PreWarmed, long, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let idle = |e: &Engine| matches!(e.instance(id).state(), InstanceState::Idle);
        // Two full batches, one after the other: the first arms a 500 ms
        // timer, the second reserves one behind it.
        let mut opened = Vec::new();
        for _ in 0..2 {
            opened.push(engine.now());
            for _ in 0..4 {
                let req = engine.mint_request(0);
                assert!(engine.enqueue(id, req, &mut queue));
            }
            while !idle(&engine) {
                assert!(step(&mut engine, &mut queue));
            }
        }
        let placement = engine.instance(id).placement();
        let short = SimDuration::from_millis(10);
        let delay = engine.begin_resize(id, cfg(), placement, short, &mut queue);
        assert!(delay.is_zero(), "an equal-cost resize is free");
        assert!(step(&mut engine, &mut queue));
        assert!(!engine.has_pending_resize(id));
        let t1 = engine.now();
        assert!(t1 + short < opened[0] + long);
        let req = engine.mint_request(0);
        assert!(engine.enqueue(id, req, &mut queue));
        assert_eq!(queue.peek_time(), Some(t1 + short));
        assert!(step(&mut engine, &mut queue));
        assert!(
            matches!(engine.instance(id).state(), InstanceState::Busy { .. }),
            "the lone request starts at the shrunk deadline"
        );
        drain(&mut engine, &mut queue);
        assert_eq!(engine.now(), opened[1] + long, "the reserved timer fired");
        assert_eq!(engine.finish().total_completed(), 9);
    }

    /// Back-to-back full batches consume their queues before any
    /// timeout: the heap holds one timer for the instance, not one per
    /// batch, and the run still ends at the last armed deadline.
    #[test]
    fn consumed_queues_leave_one_timer_in_the_heap() {
        let (mut engine, mut queue) = engine();
        let budget = SimDuration::from_millis(500);
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::PreWarmed, budget, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let mut last_open = engine.now();
        for _ in 0..50 {
            last_open = engine.now();
            for _ in 0..4 {
                let req = engine.mint_request(0);
                assert!(engine.enqueue(id, req, &mut queue));
            }
            // The first timer and the running batch's completion.
            assert_eq!(queue.len(), 2);
            assert!(step(&mut engine, &mut queue));
        }
        drain(&mut engine, &mut queue);
        assert_eq!(engine.timer_horizon(), last_open + budget);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 200);
        assert_eq!(report.duration, (last_open + budget) - SimTime::ZERO);
    }

    /// A queue that opens and fills in the very instant the armed timer
    /// fires keeps the timer reserved for it: a queue reopened later in
    /// that instant is due exactly when the reservation fires, and the
    /// reservation, being older, is what starts it.
    #[test]
    fn reservation_for_a_queue_consumed_this_instant_is_kept() {
        let (mut engine, mut queue) = engine();
        let budget = SimDuration::from_millis(30);
        let id = engine
            .launch_anywhere(0, cfg(), StartupKind::PreWarmed, budget, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let enqueue = |engine: &mut Engine, queue: &mut EventQueue<EngineEvent>, n: usize| {
            for _ in 0..n {
                let req = engine.mint_request(0);
                assert!(engine.enqueue(id, req, queue));
            }
        };
        // A full batch arms a timer and starts at once; it completes
        // long before the timer fires.
        enqueue(&mut engine, &mut queue, 4);
        let deadline = engine.now() + budget;
        assert!(step(&mut engine, &mut queue));
        assert!(engine.now() < deadline);
        // At the deadline, just ahead of the timer, another queue opens
        // and fills; the timer then fires, and a third queue opens.
        engine.advance(deadline);
        queue.advance_to(deadline);
        enqueue(&mut engine, &mut queue, 4);
        assert!(step(&mut engine, &mut queue));
        assert_eq!(engine.now(), deadline, "the armed timer fired");
        enqueue(&mut engine, &mut queue, 1);
        // The third queue starts when the second's timer fires.
        while engine.instance(id).queue_len() > 0 {
            assert!(step(&mut engine, &mut queue));
        }
        assert_eq!(engine.now(), deadline + budget);
        drain(&mut engine, &mut queue);
        assert_eq!(engine.finish().total_completed(), 9);
    }

    #[test]
    fn next_batch_starts_after_completion() {
        let (mut engine, mut queue) = engine();
        let id = engine
            .launch_anywhere(
                0,
                cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(5),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        // Two full batches' worth of requests: 4 execute, 4 queue behind.
        for _ in 0..8 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 8);
        assert_eq!(report.functions[0].per_batch_completed[&4], 8);
    }

    // --- autoregressive (LLM) episodes -------------------------------

    use infless_llm::{LlmBatching, LlmClass};

    fn llm_engine(class: LlmClass, batching: LlmBatching) -> (Engine, EventQueue<EngineEvent>) {
        let functions = vec![
            FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(30)).with_llm(class),
        ];
        let mut engine = Engine::new(
            "test",
            ClusterSpec::testbed(),
            HardwareModel::default(),
            functions,
            1,
        );
        engine.set_llm_batching(batching);
        (engine, EventQueue::new())
    }

    fn gpu_cfg() -> InstanceConfig {
        InstanceConfig::new(4, ResourceConfig::new(1, 50))
    }

    #[test]
    fn llm_episode_records_ttft_tpot_and_conserves_kv() {
        let (mut engine, mut queue) = llm_engine(LlmClass::chat(), LlmBatching::Static);
        let id = engine
            .launch_anywhere(
                0,
                gpu_cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 4);
        let llm = report.functions[0].llm.as_ref().expect("LLM stats");
        assert_eq!(llm.ttft_ms.count(), 4, "one first token per sequence");
        assert!(llm.tpot_ms.count() >= 1, "multi-token outputs record TPOT");
        assert!(llm.decoded_tokens >= 4, "every sequence decoded tokens");
        assert!(llm.ttft_ms.mean() > 0.0);
        // Every byte of KV allocated over the run was freed: no
        // sequence is live at the horizon.
        assert!(report.kv_allocated_bytes > 0);
        assert_eq!(report.kv_resident_bytes, 0);
        assert_eq!(report.kv_allocated_bytes, report.kv_freed_bytes);
    }

    #[test]
    fn continuous_joiner_merges_into_running_episode() {
        let (mut engine, mut queue) = llm_engine(LlmClass::chat(), LlmBatching::Continuous);
        let id = engine
            .launch_anywhere(
                0,
                gpu_cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        // First request starts an episode immediately (continuous mode
        // does not wait for a full batch)...
        let r1 = engine.mint_request(0);
        assert!(engine.enqueue(id, r1, &mut queue));
        // ...and a second arrival while the episode runs is admitted at
        // a decode boundary instead of waiting for the instance to
        // drain — with a MAX wait budget, a static second batch would
        // never form, so completion of both proves the merge.
        let r2 = engine.mint_request(0);
        assert!(engine.enqueue(id, r2, &mut queue));
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 2);
        let llm = report.functions[0].llm.as_ref().expect("LLM stats");
        assert_eq!(llm.ttft_ms.count(), 2);
        // Both sequences retired under the instance's batch setting.
        assert_eq!(report.functions[0].per_batch_completed[&4], 2);
        assert_eq!(report.kv_resident_bytes, 0);
        assert_eq!(report.kv_allocated_bytes, report.kv_freed_bytes);
    }

    #[test]
    fn static_mode_waits_for_full_batch() {
        // The same two-request arrival under static batching leaves
        // the partial batch queued forever on a MAX budget: run-to-
        // completion never starts a batch early.
        let (mut engine, mut queue) = llm_engine(LlmClass::chat(), LlmBatching::Static);
        let id = engine
            .launch_anywhere(
                0,
                gpu_cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        let r1 = engine.mint_request(0);
        assert!(engine.enqueue(id, r1, &mut queue));
        let r2 = engine.mint_request(0);
        assert!(engine.enqueue(id, r2, &mut queue));
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 0);
    }

    #[test]
    fn kv_full_arena_blocks_admission_and_is_counted() {
        // An arena sized for roughly one mean sequence cannot admit a
        // 4-deep batch at once: admission must stop at the headroom
        // wall and count the blocked attempts, while the head sequence
        // is always admitted so the queue cannot wedge.
        let mut class = LlmClass::chat();
        class.kv_arena_mb = 32.0; // 640 tokens; a mean chat seq is ~320
        let (mut engine, mut queue) = llm_engine(class, LlmBatching::Static);
        let id = engine
            .launch_anywhere(
                0,
                gpu_cfg(),
                StartupKind::PreWarmed,
                SimDuration::from_millis(30),
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        // Everybody completes eventually (across several episodes)...
        assert_eq!(report.total_completed(), 4);
        let llm = report.functions[0].llm.as_ref().expect("LLM stats");
        // ...but the arena wall was hit on the way.
        assert!(llm.cache_full_events >= 1, "tiny arena must block");
        assert_eq!(report.kv_resident_bytes, 0);
        assert_eq!(report.kv_allocated_bytes, report.kv_freed_bytes);
    }

    #[test]
    fn kill_mid_episode_frees_kv_and_displaces_sequences() {
        let (mut engine, mut queue) = llm_engine(LlmClass::chat(), LlmBatching::Static);
        let id = engine
            .launch_anywhere(
                0,
                gpu_cfg(),
                StartupKind::PreWarmed,
                SimDuration::MAX,
                &mut queue,
            )
            .unwrap();
        drain(&mut engine, &mut queue);
        for _ in 0..4 {
            let req = engine.mint_request(0);
            assert!(engine.enqueue(id, req, &mut queue));
        }
        // The full batch prefilled and is mid-decode; kill the instance.
        let outcome = engine.on_fault(FaultEvent::InstanceKill { selector: 0 }, &queue);
        assert_eq!(outcome.killed.len(), 1);
        assert_eq!(outcome.displaced.len(), 4, "active sequences displace");
        assert!(!engine.is_live(id));
        // Displaced requests keep a token entry so the recovery path
        // can cost their remaining work.
        for req in &outcome.displaced {
            assert!(
                engine.llm_retry_estimate(req).is_some(),
                "retry estimate must survive the kill"
            );
        }
        drain(&mut engine, &mut queue);
        let report = engine.finish();
        assert_eq!(report.total_completed(), 0);
        assert_eq!(report.failures.requests_displaced, 4);
        // The kill freed every byte the prefill had pinned.
        assert!(report.kv_allocated_bytes > 0);
        assert_eq!(report.kv_resident_bytes, 0);
        assert_eq!(report.kv_allocated_bytes, report.kv_freed_bytes);
    }

    /// The fault resolver, on two functions over two servers: launch
    /// order `x` (fn 1, server 0), `y` (fn 0, server 1), then `z` (fn 0,
    /// server 0), which is still starting. Candidates walk
    /// function-major, so the order is `y, z, x`, not the launch order.
    #[test]
    fn fault_resolver_applies_every_rule() {
        let functions = vec![
            FunctionInfo::new(ModelId::MobileNet.spec(), SimDuration::from_millis(50)),
            FunctionInfo::new(ModelId::ResNet50.spec(), SimDuration::from_millis(200)),
        ];
        let spec = ClusterSpec {
            servers: 2,
            ..ClusterSpec::testbed()
        };
        let mut engine = Engine::new("t", spec, HardwareModel::default(), functions, 3);
        let mut queue = EventQueue::new();
        let (s0, s1) = (ServerId::new(0), ServerId::new(1));
        let (cx, cy, cz) = (
            InstanceConfig::new(4, ResourceConfig::new(1, 10)),
            InstanceConfig::new(2, ResourceConfig::new(2, 0)),
            InstanceConfig::new(8, ResourceConfig::new(2, 30)),
        );
        let budget = SimDuration::MAX;
        let mut launch = |e: &mut Engine, f, server, cfg, startup| {
            e.launch_on(f, server, cfg, startup, budget, &mut queue)
                .unwrap()
        };
        let x = launch(&mut engine, 1, s0, cx, StartupKind::PreWarmed);
        let y = launch(&mut engine, 0, s1, cy, StartupKind::PreWarmed);
        let t = SimTime::from_secs(1);
        engine.advance(t);
        let z = launch(&mut engine, 0, s0, cz, StartupKind::Cold);
        assert!(engine.instance(z).is_starting(t) && !engine.instance(x).is_starting(t));
        let cost = |c| engine.weighted_cost(c);
        let resolve = |ev| engine.resolve_fault(ev, t, |_| &engine, |_, _| false);
        let tallies = |fault: &ResolvedFault| {
            let mut failures = FailureReport::default();
            fault.tally(&mut failures);
            (
                failures.server_crashes,
                failures.server_recoveries,
                failures.stragglers,
            )
        };

        // Kills index the function-major walk.
        for (selector, victim, c) in [(0, (0, y), cy), (1, (0, z), cz), (5, (1, x), cx)] {
            let fault = resolve(FaultEvent::InstanceKill { selector });
            assert_eq!(fault.victims, vec![victim], "selector {selector}");
            assert_eq!(fault.tag, FaultTag::InstanceKill);
            assert_eq!((fault.health, fault.straggler), (None, None));
            assert_eq!(fault.lost, cost(c));
            assert_eq!(tallies(&fault), (0, 0, 0));
        }
        // A cold-start failure picks among the starting instances only.
        let fault = resolve(FaultEvent::ColdStartFailure { selector: 2 });
        assert_eq!(fault.victims, vec![(0, z)]);
        assert_eq!(fault.tag, FaultTag::ColdStartFailure);
        assert_eq!(fault.lost, cost(cz));
        // A crash takes every instance on the server, function-major.
        let crash = FaultEvent::ServerCrash { server: s0 };
        let fault = resolve(crash);
        assert_eq!(fault.victims, vec![(0, z), (1, x)]);
        assert_eq!(fault.tag, FaultTag::ServerCrash);
        assert_eq!(fault.health, Some((s0, ServerHealth::Down)));
        assert_eq!(fault.lost, cost(cz) + cost(cx));
        assert_eq!(tallies(&fault), (1, 0, 0));
        // A straggler starts one episode and kills nothing.
        let duration = SimDuration::from_secs(2);
        let fault = resolve(FaultEvent::StragglerStart {
            server: s1,
            slowdown_pct: 50,
            duration,
        });
        assert!(fault.victims.is_empty());
        assert_eq!(fault.tag, FaultTag::None);
        assert_eq!(fault.straggler, Some((s1, 50, duration)));
        assert_eq!((fault.health, fault.lost), (None, 0.0));
        assert_eq!(tallies(&fault), (0, 0, 1));

        // Excluded (tombstoned) instances are skipped; a kill with no
        // candidate left is a no-op.
        let fault = engine.resolve_fault(crash, t, |_| &engine, |f, id| (f, id) == (0, z));
        assert_eq!(fault.victims, vec![(1, x)]);
        assert_eq!(fault.lost, cost(cx));
        let kill = FaultEvent::InstanceKill { selector: 4 };
        let fault = engine.resolve_fault(kill, t, |_| &engine, |_, _| true);
        assert!(fault.victims.is_empty());
        assert_eq!(
            (fault.health, fault.straggler, fault.lost),
            (None, None, 0.0)
        );
        assert_eq!(tallies(&fault), (0, 0, 0));

        // Health moves Down → Recovering → Up, and only that way; a
        // crash of a server that is not Up is a no-op.
        let recover = FaultEvent::ServerRecoveryBegin { server: s0 };
        let up = FaultEvent::ServerUp { server: s0 };
        assert_eq!(resolve(recover).health, None);
        assert_eq!(resolve(up).health, None);
        for (from, ev, to, tally) in [
            (
                ServerHealth::Down,
                recover,
                ServerHealth::Recovering,
                (0, 0, 0),
            ),
            (ServerHealth::Recovering, up, ServerHealth::Up, (0, 1, 0)),
        ] {
            engine.cluster_mut().set_health(s0, from);
            let fault = engine.resolve_fault(ev, t, |_| &engine, |_, _| false);
            assert_eq!(fault.health, Some((s0, to)));
            assert!(fault.victims.is_empty());
            assert_eq!(tallies(&fault), tally);
        }
        for health in [ServerHealth::Down, ServerHealth::Recovering] {
            engine.cluster_mut().set_health(s0, health);
            let fault = engine.resolve_fault(crash, t, |_| &engine, |_, _| false);
            assert!(fault.victims.is_empty() && fault.health.is_none());
            assert_eq!((fault.lost, tallies(&fault)), (0.0, (0, 0, 0)));
        }
    }

    use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    use proptest::prelude::{Just, ProptestConfig};

    /// Ticks per microsecond.
    const TICKS_PER_US: u64 = 1 << SimDuration::TICK_SHIFT;

    /// An episode with no sequences whose span starts at `start`: `len`
    /// steps at `price`.
    fn span(start: SimTime, len: u32, price: [u64; 3]) -> LlmEpisode {
        LlmEpisode {
            active: Vec::new(),
            steps: 0,
            resident_tokens: 0,
            reserved_tokens: 0,
            pending_prefill_tokens: 0,
            completed: 0,
            slow: 1.0,
            interf: 1.0,
            span_start: start,
            span_len: len,
            price,
        }
    }

    /// The end of each of the first `len` steps of `ep`'s span by the
    /// integer per-step loop the closed form replaces: each step adds
    /// its own price to a running tick count. Also returns the count
    /// after the last step, where the next span starts.
    fn per_step_ends(ep: &LlmEpisode, len: u32) -> (Vec<SimTime>, u128) {
        let [a, b, lead] = ep.price.map(u128::from);
        let start = u128::from(ep.span_start.as_micros()) * u128::from(TICKS_PER_US);
        let mut ticks = start + lead;
        let ends = (0..u128::from(len))
            .map(|i| {
                ticks += a + b * i;
                SimTime::ZERO + SimDuration::from_ticks(ticks)
            })
            .collect();
        (ends, ticks)
    }

    /// A span priced by the hardware model, from 7 s with a remainder of
    /// `carry` ticks: `n` sequences of BERT over `resident` tokens on
    /// `cfg`, slowed by `slow`, with `prefill` joiner tokens. Also
    /// returns the exact real-valued microseconds from 7 s to the end of
    /// each step.
    #[allow(clippy::too_many_arguments)]
    fn priced_span(
        hw: &HardwareModel,
        cfg: ResourceConfig,
        n: u32,
        resident: u64,
        len: u32,
        slow: f64,
        prefill: u64,
        carry: u64,
    ) -> (LlmEpisode, Vec<f64>) {
        let spec = ModelId::BertV1.spec();
        let kv = LlmClass::chat().kv_mb_per_token;
        let (a, b) =
            hw.decode_cost(&spec, n, cfg)
                .span_ticks(resident as f64 * kv, f64::from(n) * kv, slow);
        let prefill_s = (prefill > 0).then(|| slow * hw.prefill_secs(&spec, prefill, cfg));
        let p = prefill_s.map_or(0, SimDuration::ticks_from_secs_f64);
        // The step formula itself, in real numbers (f64 sums carry
        // ~1e-4 µs of error over 10⁴ steps).
        let cal = hw.calibration();
        let mut us = carry as f64 / TICKS_PER_US as f64 + prefill_s.unwrap_or(0.0) * 1e6;
        let exact = (0..u64::from(len))
            .map(|i| {
                let step = if cfg.is_cpu_only() {
                    let work = cal.token_gflops_per_mb * spec.size_mb() * f64::from(n);
                    let rate = cal.cpu_core_gflops
                        * f64::from(cfg.cpu_cores()).powf(cal.cpu_scaling_exponent);
                    cal.decode_overhead_s + work / rate
                } else {
                    let bw = cal.gpu_mem_bw_mb_per_s * f64::from(cfg.gpu_pct()) / 100.0;
                    let kv_mb = (resident + i * u64::from(n)) as f64 * kv;
                    cal.decode_overhead_s + (spec.size_mb() + kv_mb) / bw
                };
                us += slow * step * 1e6;
                us
            })
            .collect();
        (span(SimTime::from_secs(7), len, [a, b, carry + p]), exact)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every step end of the closed form equals the per-step integer
        /// loop's bit for bit, and so does the tick the next span starts
        /// at. Each end is within 1 µs of the exact real-valued end, plus
        /// the half tick each of `a`, `b` and the prefill may be off by,
        /// summed over the steps (under 0.03 µs at 10⁴ steps).
        #[test]
        fn closed_form_span_ends_match_the_per_step_loop(
            n in 1u32..=64,
            resident in 0u64..=40_000,
            len in prop_oneof![1u32..=32, 1u32..=10_000],
            slow in 1.0f64..=3.0,
            prefill in prop_oneof![Just(0u64), 1u64..=4_096],
            carry in prop_oneof![Just(0), Just(TICKS_PER_US - 1), 0..TICKS_PER_US],
            cpu in any::<bool>(),
        ) {
            let cfg = if cpu { ResourceConfig::cpu(4) } else { ResourceConfig::new(1, 50) };
            let hw = HardwareModel::default();
            let (ep, exact) = priced_span(&hw, cfg, n, resident, len, slow, prefill, carry);
            let (ends, next) = per_step_ends(&ep, len);
            let start = SimTime::from_secs(7);
            prop_assert_eq!(ep.span_at(0), start);
            for (i, (&end, &exact)) in ends.iter().zip(&exact).enumerate() {
                prop_assert_eq!(ep.span_at(i as u32 + 1), end, "step {}", i);
                let got = (end - start).as_micros() as f64;
                let steps = i as f64 + 1.0;
                let slack = 0.5 * (steps + steps * (steps - 1.0) / 2.0 + 1.0)
                    / TICKS_PER_US as f64
                    + 1e-3;
                prop_assert!(
                    got <= exact + slack && exact < got + 1.0 + slack,
                    "step {} ends at {} µs, exactly {} µs", i, got, exact
                );
            }
            prop_assert_eq!(ep.span_ticks(len), next);
        }
    }

    /// `steps_run`'s binary search agrees with a linear scan wherever a
    /// span is cut: at, just before and just after its first, middle
    /// and last silent step and its boundary, under every delivery
    /// position the queue can be in. Steps shorter than a microsecond
    /// make some end in the same microsecond as the step before. A cut
    /// hands the next span the tick the per-step loop reaches there.
    #[test]
    fn steps_run_search_matches_the_linear_scan() {
        fn linear(ep: &LlmEpisode, queue: &EventQueue<EngineEvent>) -> u32 {
            let silent = ep.span_len - 1;
            let mut i = 0;
            while i < silent && queue.delivered_before(ep.span_at(i + 1), ep.span_at(i)) {
                i += 1;
            }
            i
        }
        let at = SimTime::from_micros;
        let t = TICKS_PER_US;
        let ep = span(at(100), 9, [t / 3, t / 8, t / 2 + 10 * t]);
        let silent = ep.span_len - 1;
        assert!((1..silent).any(|i| ep.span_at(i + 1) == ep.span_at(i)));
        let mut seen = vec![false; silent as usize + 1];
        let mut check = |queue: &EventQueue<EngineEvent>| {
            let want = linear(&ep, queue);
            assert_eq!(ep.steps_run(queue), want, "at {}", queue.now());
            seen[want as usize] = true;
            assert_eq!(ep.span_ticks(want + 1), per_step_ends(&ep, want + 1).1);
        };
        for step in [0, silent / 2, silent - 1, silent] {
            let end = ep.span_at(step + 1).as_micros();
            for t in [end - 1, end, end + 1].map(at) {
                // A staged arrival.
                let arrivals = [(t, 0usize)];
                let mut staged = infless_sim::StagedStream::new(&arrivals[..]);
                let mut queue = EventQueue::new();
                staged.next(&mut queue, EngineEvent::Arrival);
                check(&queue);
                // A popped event, scheduled as of each instant from the
                // span's start to its own.
                for as_of in (100..=t.as_micros()).map(at) {
                    let mut queue = EventQueue::new();
                    queue.schedule_as_of(t, as_of, EngineEvent::Arrival(0));
                    queue.pop();
                    check(&queue);
                }
                // A barrier.
                let mut queue = EventQueue::new();
                queue.advance_to(t);
                check(&queue);
            }
        }
        assert!([0, silent / 2, silent - 1, silent]
            .iter()
            .all(|&i| seen[i as usize]));
    }

    /// Decode timing to the microsecond: one sequence on a warm GPU
    /// slice, no noise, no co-tenant, no faults and no joiners. Its
    /// prefill ends at the whole µs of its ticks; the decode span then
    /// starts from the prefill's sub-µs remainder, and its `output − 1`
    /// steps end at the closed form. TPOT is the decode time over the
    /// `output − 1` intervals. The prompt is the first from 300 whose
    /// remainder moves the completion to a later microsecond, so the
    /// check sees the carry between spans.
    #[test]
    fn a_lone_sequence_decodes_on_the_closed_form() {
        let calibration = infless_models::HardwareCalibration {
            noise_sigma: 0.0,
            ..Default::default()
        };
        let hw = HardwareModel::new(calibration);
        let (spec, class, cfg, output) = (ModelId::BertV1.spec(), LlmClass::chat(), gpu_cfg(), 200);
        let res = cfg.resources();
        // The closed form: TTFT, and the decode span's length with and
        // without the prefill's remainder.
        let predict = |prompt: u32| {
            let prefill =
                SimDuration::ticks_from_secs_f64(hw.prefill_secs(&spec, prompt.into(), res));
            // One sequence over `prompt + 1` resident tokens, growing by
            // one a step.
            let kv = class.kv_mb_per_token;
            let resident = f64::from(prompt + 1) * kv;
            let (a, b) = hw.decode_cost(&spec, 1, res).span_ticks(resident, kv, 1.0);
            let m = u128::from(output - 1);
            let steps = m * u128::from(a) + u128::from(b) * m * (m - 1) / 2;
            let carry = u128::from(prefill % TICKS_PER_US);
            (
                SimDuration::from_ticks(prefill.into()),
                SimDuration::from_ticks(carry + steps),
                SimDuration::from_ticks(steps),
            )
        };
        let prompt = (300..)
            .find(|&p| predict(p).1 != predict(p).2)
            .expect("some remainder carries");
        let (ttft, decode, _) = predict(prompt);
        let tpot = SimDuration::from_secs_f64(decode.as_secs_f64() / f64::from(output - 1));

        let functions = vec![FunctionInfo::new(spec, SimDuration::from_secs(30)).with_llm(class)];
        let mut engine = Engine::new("test", ClusterSpec::testbed(), hw, functions, 1);
        engine.set_llm_batching(LlmBatching::Continuous);
        let mut queue = EventQueue::new();
        let id = engine
            .launch_anywhere(0, cfg, StartupKind::PreWarmed, SimDuration::MAX, &mut queue)
            .unwrap();
        drain(&mut engine, &mut queue);
        let req = engine.mint_request(0);
        let info = TokenInfo {
            prompt,
            output,
            produced: 0,
            first_token_seen: false,
        };
        engine.token_table.insert(req.key(), info);
        assert!(engine.enqueue(id, req, &mut queue));
        let slow = engine.slot(id).episode.as_ref().expect("episode").slow;
        assert_eq!(slow, 1.0, "no noise and no co-tenant");
        drain(&mut engine, &mut queue);

        let report = engine.finish();
        assert_eq!(report.total_completed(), 1);
        let f = &report.functions[0];
        let llm = f.llm.as_ref().expect("LLM stats");
        assert_eq!(llm.ttft_ms.max(), Some(ttft.as_millis_f64()));
        assert_eq!(f.latency_ms.max(), Some((ttft + decode).as_millis_f64()));
        assert_eq!(llm.tpot_ms.max(), Some(tpot.as_millis_f64()));
        assert_eq!(llm.decoded_tokens, u64::from(output));
    }
}
