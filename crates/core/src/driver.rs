//! The one event loop every platform runs on.
//!
//! INFless and the baselines differ only in policy: how an arrival is
//! placed, what a completed batch triggers, what the periodic control
//! tick does and how a fault is recovered from. Everything else — the
//! staged arrival merge, the clock, the [`EngineEvent`] dispatch, the
//! engine-owned event arms, fault injection and the scaler-tick
//! horizon — is written here once, so every system in a comparison
//! sees identical event semantics.
//!
//! A platform implements [`Platform`]'s hooks; [`run`] drives it over a
//! whole workload, and [`drain_until`] drives it up to an epoch barrier
//! (the sharded runner's per-shard step). Both are generic, so each
//! platform gets its own monomorphised loop with no dynamic dispatch
//! per event.

use infless_cluster::InstanceId;
use infless_faults::FaultSchedule;
use infless_sim::{EventQueue, SimDuration, SimTime, Staged, StagedStream};
use infless_telemetry::RecordWriter;
use infless_workload::Workload;

use crate::engine::{CompletedBatch, Engine, EngineEvent, FaultOutcome};
use crate::metrics::RunReport;

/// A platform's policy, as hooks the shared driver calls. Events the
/// engine handles alone (batch timeouts, stragglers) never reach a
/// hook; the rest reach one after the engine has applied its share.
pub trait Platform {
    /// The shared serving engine the platform drives. Set LLM knobs
    /// through it before [`run`].
    fn engine(&mut self) -> &mut Engine;

    /// The period of the platform's [`EngineEvent::ScalerTick`].
    fn tick_period(&self) -> SimDuration;

    /// How long after its gateway arrival the platform sees a request
    /// (BATCH's OTP buffer). Zero by default; [`run`] requires it to be
    /// shorter than [`TICK_MARGIN`].
    fn arrival_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// A request for function `f` reaches the platform.
    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>);

    /// Instance `id` finished booting or swapping in (it may have died
    /// meanwhile; the event is then stale).
    fn on_ready(&mut self, _id: InstanceId, _queue: &mut EventQueue<EngineEvent>) {}

    /// A batch or a decode episode completed its requests. The hook
    /// only reads the batch: the driver hands its buffer back to the
    /// engine afterwards, for the next batch to fill.
    fn on_done(&mut self, _done: &CompletedBatch, _queue: &mut EventQueue<EngineEvent>) {}

    /// The periodic control tick (scaling, reaping). The driver samples
    /// the provisioning timeline and the gauges right after it.
    fn on_tick(&mut self, queue: &mut EventQueue<EngineEvent>);

    /// A fault or a coordinator kill directive killed instances and
    /// displaced requests; the platform recovers.
    fn on_fault(&mut self, outcome: FaultOutcome, queue: &mut EventQueue<EngineEvent>);

    /// An in-flight resize of instance `id` (function `f`) landed.
    fn on_resized(&mut self, _f: usize, _id: InstanceId, _queue: &mut EventQueue<EngineEvent>) {}

    /// Freezes the run's report.
    fn finish(self) -> RunReport;
}

/// Records the eager loop lets pend before releasing them in one pass.
const RECORD_BATCH: usize = 256;

/// Scaler ticks repeat until the first one at or past this long after
/// the last arrival.
pub const TICK_MARGIN: SimDuration = SimDuration::from_secs(5);

/// Runs `platform` over `workload` with `faults` injected and returns
/// its report.
///
/// Arrivals stream from the workload's [`ArrivalSource`], merged a chunk
/// at a time and shifted by the platform's arrival delay, and merge
/// ahead of the heap at pop time; an arrival wins an equal-timestamp
/// tie against any queued event, faults included (the request reaches
/// the gateway an instant before the machine dies). Keeping millions of
/// arrivals out of the heap is a large constant-factor win on the hot
/// path, and no arrival list is ever built.
///
/// The first scaler tick fires one period in, and only for a non-empty
/// workload; ticks then repeat until the first one at or past
/// [`TICK_MARGIN`] after the last arrival.
///
/// # Panics
///
/// Panics if the platform's arrival delay is not shorter than
/// [`TICK_MARGIN`].
///
/// [`ArrivalSource`]: infless_workload::ArrivalSource
pub fn run<P: Platform>(platform: P, workload: &Workload, faults: &FaultSchedule) -> RunReport {
    run_recorded(platform, workload, faults, None)
}

/// [`run`], feeding `records`, if given, every record its outputs ask
/// for. Once a batch is pending, the writer releases after each event
/// the records stamped before the next event's gateway arrival (the
/// platform's arrival delay earlier), and the rest at the end. The
/// caller finishes the writer. Panics as [`run`].
pub fn run_recorded<P: Platform>(
    mut platform: P,
    workload: &Workload,
    faults: &FaultSchedule,
    mut records: Option<&mut RecordWriter>,
) -> RunReport {
    let mut queue = EventQueue::new();
    let delay = platform.arrival_delay();
    assert!(
        delay < TICK_MARGIN,
        "an arrival delay of {delay} is not shorter than the {TICK_MARGIN} tick margin"
    );
    if let Some(writer) = records.as_deref_mut() {
        let engine = platform.engine();
        writer.begin(&engine.trace_meta());
        engine.open_channels(writer.channels());
    }
    let mut arrivals = StagedStream::from_source(workload.source(delay, |_| true));
    let period = platform.tick_period();
    if arrivals.staged_time().is_some() {
        queue.schedule(SimTime::ZERO + period, EngineEvent::ScalerTick);
    }
    for &(t, ev) in faults.events() {
        queue.schedule(t, EngineEvent::Fault(ev));
    }
    while let Some((t, ev)) = arrivals.next(&mut queue, EngineEvent::Arrival) {
        deliver(&mut platform, t, ev, &mut queue);
        // An arrival still staged lies after `t` (arrivals win ties),
        // so, less a delay under the margin, the last arrival lies after
        // `t - TICK_MARGIN`. Once the stream is exhausted, the source
        // knows the last arrival.
        if ev == EngineEvent::ScalerTick
            && (arrivals.staged_time().is_some() || t < arrivals.source().last() + TICK_MARGIN)
        {
            queue.schedule(t + period, EngineEvent::ScalerTick);
        }
        if let Some(writer) = records.as_deref_mut() {
            let pending = platform.engine().records_mut();
            if pending.len() >= RECORD_BATCH {
                let next = arrivals.peek_time(&queue).unwrap_or(SimTime::MAX);
                writer.flush_below(pending, next.saturating_sub(delay).as_secs_f64());
            }
        }
    }
    if let Some(writer) = records {
        writer.flush_below(platform.engine().records_mut(), f64::INFINITY);
    }
    platform.finish()
}

/// Pops and delivers the next queued event, returning `false` once the
/// queue is empty. No arrivals are staged and ticks do not repeat: the
/// engine tests step the policy-free [`Engine`] platform this way.
pub fn step<P: Platform>(platform: &mut P, queue: &mut EventQueue<EngineEvent>) -> bool {
    let Some((t, ev)) = queue.pop() else {
        return false;
    };
    deliver(platform, t, ev, queue);
    true
}

/// Delivers every event (staged arrival or queued) with timestamp
/// `<= until`, then advances the clocks to the barrier. Epoch-mode
/// runs schedule neither scaler ticks nor raw faults: scaling runs at
/// barriers and faults arrive pre-resolved as directives.
pub fn drain_until<P: Platform, S: Staged<Payload = usize>>(
    platform: &mut P,
    arrivals: &mut StagedStream<S>,
    queue: &mut EventQueue<EngineEvent>,
    until: SimTime,
) {
    while let Some((t, ev)) = arrivals.next_until(queue, until, EngineEvent::Arrival) {
        deliver(platform, t, ev, queue);
    }
    platform.engine().advance(until);
    queue.advance_to(until);
}

/// The engine on its own is the platform with no policy: arrivals are
/// dropped, ticks do nothing, and a fault's displaced requests are left
/// where the engine put them.
impl Platform for Engine {
    fn engine(&mut self) -> &mut Engine {
        self
    }

    fn tick_period(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn on_arrival(&mut self, f: usize, _queue: &mut EventQueue<EngineEvent>) {
        let req = self.mint_request(f);
        self.drop_request(&req);
    }

    fn on_tick(&mut self, _queue: &mut EventQueue<EngineEvent>) {}

    fn on_fault(&mut self, _outcome: FaultOutcome, _queue: &mut EventQueue<EngineEvent>) {}

    fn finish(self) -> RunReport {
        Engine::finish(self)
    }
}

/// Advances the clock to `t` and delivers `ev`: the one place an
/// [`EngineEvent`] is dispatched.
#[inline]
fn deliver<P: Platform>(
    p: &mut P,
    t: SimTime,
    ev: EngineEvent,
    queue: &mut EventQueue<EngineEvent>,
) {
    p.engine().advance(t);
    match ev {
        EngineEvent::Arrival(f) => p.on_arrival(f, queue),
        EngineEvent::InstanceReady(id) => {
            p.engine().on_instance_ready(id, queue);
            p.on_ready(id, queue);
        }
        EngineEvent::SwapComplete(id) => {
            p.engine().on_swap_complete(id, queue);
            p.on_ready(id, queue);
        }
        EngineEvent::BatchTimeout(id) => p.engine().on_batch_timeout(id, queue),
        // Stale (None) when a fault killed the instance mid-batch.
        EngineEvent::BatchComplete(id) => {
            if let Some(done) = p.engine().on_batch_complete(id, queue) {
                p.on_done(&done, queue);
                p.engine().recycle_batch(done.requests);
            }
        }
        // Some only when the decode episode drained (instance idle).
        EngineEvent::DecodeStep(id, gen) => {
            if let Some(done) = p.engine().on_decode_step(id, gen, queue) {
                p.on_done(&done, queue);
                p.engine().recycle_batch(done.requests);
            }
        }
        EngineEvent::ScalerTick => {
            p.on_tick(queue);
            p.engine().sample_provisioning(t);
            p.engine().sample_telemetry(queue);
        }
        EngineEvent::Fault(fault) => {
            let outcome = p.engine().on_fault(fault, queue);
            if !outcome.killed.is_empty() || !outcome.displaced.is_empty() {
                p.on_fault(outcome, queue);
            }
        }
        // Directives and resizes come from the sharded coordinator and
        // INFless's vertical scaling; the engine skips stale victims.
        EngineEvent::DirectiveKill(id, tag) => {
            if let Some((f, displaced)) = p.engine().apply_kill_directive(id, tag, queue) {
                let killed = vec![(f, id)];
                p.on_fault(FaultOutcome { displaced, killed }, queue);
            }
        }
        EngineEvent::DirectiveStraggler {
            server,
            slowdown_pct,
            duration,
        } => p.engine().arm_straggler(server, slowdown_pct, duration),
        EngineEvent::ResizeComplete(id) => {
            if let Some((f, _)) = p.engine().on_resize_complete(id, queue) {
                p.on_resized(f, id, queue);
            }
        }
    }
}
