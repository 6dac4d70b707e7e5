//! Function instances: the unit of placement, batching and scaling.

use std::collections::VecDeque;

use infless_models::ResourceConfig;
use infless_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::ids::{FunctionId, InstanceId};
use crate::server::Placement;

/// One inference request, identified by [`Request::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// The function it invokes.
    pub function: FunctionId,
    /// Its arrival ordinal within its function: how many requests for
    /// the function were minted before it. It is the same at every
    /// shard count, so the decision trace keys requests by it.
    pub ordinal: u64,
    /// When it arrived at the platform gateway.
    pub arrival: SimTime,
    /// When it last entered an instance's batch queue; equal to
    /// `arrival` until the first successful [`Instance::enqueue`]. A
    /// displaced request re-dispatched elsewhere is re-stamped, so the
    /// latest enqueue wins.
    pub enqueued: SimTime,
}

impl Request {
    /// The request's identity: its function and its arrival ordinal
    /// there.
    pub fn key(&self) -> (FunctionId, u64) {
        (self.function, self.ordinal)
    }
}

/// The non-uniform per-instance configuration: batchsize plus hybrid
/// resources. Instances *of the same function* may carry different
/// configs — that is INFless's non-uniform scaling (§3.2).
///
/// # Example
///
/// ```
/// use infless_cluster::InstanceConfig;
/// use infless_models::ResourceConfig;
///
/// let cfg = InstanceConfig::new(8, ResourceConfig::new(2, 20));
/// assert_eq!(cfg.batch(), 8);
/// assert_eq!(cfg.resources().gpu_pct(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InstanceConfig {
    batch: u32,
    resources: ResourceConfig,
}

impl InstanceConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero (a batchsize of zero means "never
    /// launched" in the paper's formulation and is not a real config).
    pub fn new(batch: u32, resources: ResourceConfig) -> Self {
        assert!(batch >= 1, "batchsize must be at least 1");
        InstanceConfig { batch, resources }
    }

    /// The instance's batchsize `b`.
    pub fn batch(self) -> u32 {
        self.batch
    }

    /// The instance's resource allocation `⟨c, g⟩`.
    pub fn resources(self) -> ResourceConfig {
        self.resources
    }
}

impl std::fmt::Display for InstanceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(b={}, {})", self.batch, self.resources)
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Cold-starting: container boot + model load in progress.
    Starting {
        /// When the instance becomes able to execute.
        ready_at: SimTime,
    },
    /// Warm and not executing.
    Idle,
    /// Executing a batch.
    Busy {
        /// When the in-flight batch completes.
        until: SimTime,
    },
}

/// A function instance: placement, lifecycle state, and its built-in
/// batch queue.
///
/// The queue holds at most one batch worth of requests (`config.batch`).
/// While a batch executes, the next batch may accumulate; if that
/// pending batch is already full, further requests are *dropped* —
/// exactly the over-submission situation of the paper's Fig. 6a that
/// the `[r_low, r_up]` dispatch window exists to avoid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    id: InstanceId,
    function: FunctionId,
    config: InstanceConfig,
    placement: Placement,
    state: InstanceState,
    queue: VecDeque<Request>,
    queue_opened_at: Option<SimTime>,
    ready_at: SimTime,
    created_at: SimTime,
    last_active: SimTime,
    was_cold_started: bool,
    completed_requests: u64,
    executed_batches: u64,
}

impl Instance {
    /// Creates an instance that begins cold-starting at `now` and
    /// becomes ready at `ready_at`. Use `ready_at = now` for an
    /// instance spawned from a pre-warmed (image already loaded) slot.
    pub fn new(
        id: InstanceId,
        function: FunctionId,
        config: InstanceConfig,
        placement: Placement,
        now: SimTime,
        ready_at: SimTime,
    ) -> Self {
        let cold = ready_at > now;
        Instance {
            id,
            function,
            config,
            placement,
            state: if cold {
                InstanceState::Starting { ready_at }
            } else {
                InstanceState::Idle
            },
            queue: VecDeque::new(),
            queue_opened_at: None,
            ready_at,
            created_at: now,
            last_active: now,
            was_cold_started: cold,
            completed_requests: 0,
            executed_batches: 0,
        }
    }

    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The function this instance serves.
    pub fn function(&self) -> FunctionId {
        self.function
    }

    /// The instance's batch/resource configuration.
    pub fn config(&self) -> InstanceConfig {
        self.config
    }

    /// Where the instance's resources were allocated.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Atomically swaps the instance onto a resized configuration and
    /// its updated placement — the completion half of an in-flight
    /// resize. The queue is preserved; queued requests beyond the new
    /// (smaller) batchsize stay queued and drain over extra batches.
    ///
    /// # Panics
    ///
    /// Panics if the new placement lives on a different server or GPU
    /// device than the old one — a resize never migrates.
    pub fn apply_resize(&mut self, config: InstanceConfig, placement: Placement) {
        assert_eq!(
            placement.server(),
            self.placement.server(),
            "resize must stay on the same server"
        );
        assert_eq!(
            placement.gpu_index(),
            self.placement.gpu_index(),
            "resize must stay on the same GPU device"
        );
        self.config = config;
        self.placement = placement;
    }

    /// Current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// `true` while the cold start is still in progress at `now`.
    pub fn is_starting(&self, now: SimTime) -> bool {
        matches!(self.state, InstanceState::Starting { ready_at } if ready_at > now)
    }

    /// `true` if this instance incurred a cold start when created.
    pub fn was_cold_started(&self) -> bool {
        self.was_cold_started
    }

    /// When the instance was created.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the instance became (or becomes) ready to execute.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// The last instant the instance did useful work (batch completion
    /// or creation time) — the reference point for keep-alive windows.
    pub fn last_active(&self) -> SimTime {
        self.last_active
    }

    /// Requests waiting in the batch queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// When the oldest queued request arrived, if any — the batch
    /// timeout countdown starts there.
    pub fn queue_opened_at(&self) -> Option<SimTime> {
        self.queue_opened_at
    }

    /// Read access to the queued requests, oldest first — admission
    /// controllers (e.g. the KV-cache gate) inspect before draining.
    pub fn queued(&self) -> impl Iterator<Item = &Request> + '_ {
        self.queue.iter()
    }

    /// Total requests completed over the instance's lifetime.
    pub fn completed_requests(&self) -> u64 {
        self.completed_requests
    }

    /// Total batches executed over the instance's lifetime.
    pub fn executed_batches(&self) -> u64 {
        self.executed_batches
    }

    /// Tries to enqueue a request into the batch queue, stamping `now`
    /// into its [`Request::enqueued`]. Returns `false` (dropping the
    /// request, unstamped) when a full batch is already pending.
    pub fn enqueue(&mut self, request: Request, now: SimTime) -> bool {
        if self.queue.len() >= self.config.batch as usize {
            return false;
        }
        if self.queue.is_empty() {
            self.queue_opened_at = Some(now);
        }
        self.queue.push_back(Request {
            enqueued: now,
            ..request
        });
        true
    }

    /// Drains and returns every queued request, closing the batch
    /// window. Used when an instance dies (fault injection): the queue
    /// is displaced to the platform for SLO-budgeted retry.
    pub fn take_queue(&mut self) -> Vec<Request> {
        self.queue_opened_at = None;
        self.queue.drain(..).collect()
    }

    /// `true` if a full batch is waiting.
    pub fn batch_full(&self) -> bool {
        self.queue.len() >= self.config.batch as usize
    }

    /// `true` if the instance can start executing a batch at `now`
    /// (warm, not busy, and has at least one queued request).
    pub fn can_execute(&self, now: SimTime) -> bool {
        !self.queue.is_empty()
            && match self.state {
                InstanceState::Idle => true,
                InstanceState::Starting { ready_at } => ready_at <= now,
                InstanceState::Busy { .. } => false,
            }
    }

    /// Takes the queued requests (up to one batch), appending them to
    /// `batch`, and marks the instance busy until `until`.
    ///
    /// # Panics
    ///
    /// Panics if called when [`Self::can_execute`] is false — executing
    /// on a busy or cold instance is a platform logic error.
    pub fn begin_batch(&mut self, now: SimTime, until: SimTime, batch: &mut Vec<Request>) {
        assert!(self.can_execute(now), "begin_batch on a non-ready instance");
        self.begin_batch_of(self.config.batch as usize, now, until, batch);
    }

    /// Like [`Self::begin_batch`], but takes at most `n` requests —
    /// the autoregressive admission path, where the batch that fits is
    /// bounded by KV-cache headroom rather than the configured
    /// batchsize alone.
    ///
    /// # Panics
    ///
    /// Panics if called when [`Self::can_execute`] is false, or if `n`
    /// is zero.
    pub fn begin_batch_of(
        &mut self,
        n: usize,
        now: SimTime,
        until: SimTime,
        batch: &mut Vec<Request>,
    ) {
        assert!(n >= 1, "begin_batch_of needs at least one request");
        assert!(
            self.can_execute(now),
            "begin_batch_of on a non-ready instance"
        );
        self.take_queued(n.min(self.config.batch as usize), now, batch);
        self.state = InstanceState::Busy { until };
        self.executed_batches += 1;
    }

    /// Drains up to `n` queued requests *while busy*, appending them to
    /// `joined` — continuous batching admits waiting sequences into the
    /// running decode batch at step boundaries without the instance
    /// ever going idle.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy (joining an idle instance's
    /// queue is what [`Self::begin_batch_of`] is for).
    pub fn drain_queued(&mut self, n: usize, now: SimTime, joined: &mut Vec<Request>) {
        assert!(
            matches!(self.state, InstanceState::Busy { .. }),
            "drain_queued on a non-busy instance"
        );
        self.take_queued(n, now, joined);
    }

    /// Moves up to `n` requests from the head of the queue to `into`.
    /// Requests left behind started waiting when they arrived; the
    /// oldest of them reopens the batch window "now".
    fn take_queued(&mut self, n: usize, now: SimTime, into: &mut Vec<Request>) {
        let take = n.min(self.queue.len());
        into.extend(self.queue.drain(..take));
        self.queue_opened_at = if self.queue.is_empty() {
            None
        } else {
            Some(now)
        };
    }

    /// Extends the busy window to `until` — one decode step scheduled
    /// after another without an idle gap in between.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy.
    pub fn extend_busy(&mut self, until: SimTime) {
        assert!(
            matches!(self.state, InstanceState::Busy { .. }),
            "extend_busy on a non-busy instance"
        );
        self.state = InstanceState::Busy { until };
    }

    /// Marks the in-flight batch of `size` requests complete at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy.
    pub fn complete_batch(&mut self, now: SimTime, size: usize) {
        assert!(
            matches!(self.state, InstanceState::Busy { .. }),
            "complete_batch on a non-busy instance"
        );
        self.state = InstanceState::Idle;
        self.last_active = now;
        self.completed_requests += size as u64;
    }

    /// The idle time at `now`: how long since the instance last did
    /// work. Zero while busy or starting.
    pub fn idle_for(&self, now: SimTime) -> infless_sim::SimDuration {
        match self.state {
            InstanceState::Idle if self.queue.is_empty() => now.saturating_since(self.last_active),
            _ => infless_sim::SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::server::Server;
    use infless_sim::SimDuration;

    fn placement() -> Placement {
        let mut s = Server::new(ServerId::new(0), 8, &[100]);
        s.allocate(ResourceConfig::new(1, 10)).unwrap()
    }

    fn request(ordinal: u64, t: SimTime) -> Request {
        Request {
            function: FunctionId::new(0),
            ordinal,
            arrival: t,
            enqueued: t,
        }
    }

    /// The per-function ordinal is a request's identity, so a request
    /// is four words: function, ordinal, arrival and enqueue instants.
    #[test]
    fn request_stays_four_words() {
        assert_eq!(std::mem::size_of::<Request>(), 32);
    }

    fn warm_instance(batch: u32) -> Instance {
        Instance::new(
            InstanceId::new(0),
            FunctionId::new(0),
            InstanceConfig::new(batch, ResourceConfig::new(1, 10)),
            placement(),
            SimTime::ZERO,
            SimTime::ZERO,
        )
    }

    #[test]
    fn cold_instance_waits_for_ready() {
        let inst = Instance::new(
            InstanceId::new(1),
            FunctionId::new(0),
            InstanceConfig::new(4, ResourceConfig::cpu(1)),
            placement(),
            SimTime::ZERO,
            SimTime::from_secs(2),
        );
        assert!(inst.was_cold_started());
        assert!(inst.is_starting(SimTime::from_secs(1)));
        assert!(!inst.is_starting(SimTime::from_secs(2)));
    }

    #[test]
    fn queue_drops_beyond_one_batch() {
        let mut inst = warm_instance(2);
        let t = SimTime::from_millis(1);
        assert!(inst.enqueue(request(0, t), t));
        assert!(inst.enqueue(request(1, t), t));
        assert!(inst.batch_full());
        // Third request: pending batch full, dropped.
        assert!(!inst.enqueue(request(2, t), t));
        assert_eq!(inst.queue_len(), 2);
    }

    #[test]
    fn batch_lifecycle_counters() {
        let mut inst = warm_instance(4);
        let t0 = SimTime::from_millis(5);
        inst.enqueue(request(0, t0), t0);
        inst.enqueue(request(1, t0), t0);
        assert_eq!(inst.queue_opened_at(), Some(t0));
        assert!(inst.can_execute(t0));

        let until = t0 + SimDuration::from_millis(50);
        let mut batch = Vec::new();
        inst.begin_batch(t0, until, &mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(inst.queue_len(), 0);
        assert_eq!(inst.queue_opened_at(), None);
        assert!(!inst.can_execute(t0));
        assert!(matches!(inst.state(), InstanceState::Busy { .. }));

        inst.complete_batch(until, batch.len());
        assert_eq!(inst.completed_requests(), 2);
        assert_eq!(inst.executed_batches(), 1);
        assert_eq!(inst.last_active(), until);
        assert!(matches!(inst.state(), InstanceState::Idle));
    }

    #[test]
    fn next_batch_accumulates_while_busy() {
        let mut inst = warm_instance(2);
        let t0 = SimTime::from_millis(1);
        inst.enqueue(request(0, t0), t0);
        inst.enqueue(request(1, t0), t0);
        let until = t0 + SimDuration::from_millis(10);
        inst.begin_batch(t0, until, &mut Vec::new());
        // While busy, new requests queue for the next batch.
        let t1 = t0 + SimDuration::from_millis(2);
        assert!(inst.enqueue(request(2, t1), t1));
        assert!(inst.enqueue(request(3, t1), t1));
        assert!(
            !inst.enqueue(request(4, t1), t1),
            "second pending batch drops"
        );
        assert!(!inst.can_execute(t1), "busy until t0+10ms");
        inst.complete_batch(until, 2);
        assert!(inst.can_execute(until));
    }

    #[test]
    fn idle_time_tracks_last_activity() {
        let mut inst = warm_instance(1);
        let t0 = SimTime::from_secs(1);
        inst.enqueue(request(0, t0), t0);
        let until = t0 + SimDuration::from_millis(100);
        inst.begin_batch(t0, until, &mut Vec::new());
        inst.complete_batch(until, 1);
        let later = until + SimDuration::from_secs(30);
        assert_eq!(inst.idle_for(later), SimDuration::from_secs(30));
        // Queued work means not idle.
        inst.enqueue(request(1, later), later);
        assert_eq!(inst.idle_for(later), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-ready")]
    fn begin_batch_on_empty_queue_panics() {
        let mut inst = warm_instance(2);
        inst.begin_batch(SimTime::ZERO, SimTime::from_millis(1), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "non-busy")]
    fn complete_without_begin_panics() {
        let mut inst = warm_instance(2);
        inst.complete_batch(SimTime::ZERO, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_config_rejected() {
        InstanceConfig::new(0, ResourceConfig::cpu(1));
    }

    #[test]
    fn continuous_join_and_extend_lifecycle() {
        let mut inst = warm_instance(4);
        let t0 = SimTime::from_millis(1);
        for i in 0..3 {
            inst.enqueue(request(i, t0), t0);
        }
        // KV headroom admits only 2 of the 3 queued requests.
        let until = t0 + SimDuration::from_millis(10);
        // The batch fills a recycled buffer after what it already holds.
        let mut batch = vec![request(9, t0)];
        inst.begin_batch_of(2, t0, until, &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1].ordinal, 0);
        assert_eq!(inst.queue_len(), 1);
        assert_eq!(inst.queue_opened_at(), Some(t0));

        // A decode-step boundary: one joiner drains into the running
        // batch, the busy window rolls forward without going idle.
        let t1 = t0 + SimDuration::from_millis(4);
        let mut joined = Vec::new();
        inst.drain_queued(4, t1, &mut joined);
        assert_eq!(joined.len(), 1);
        assert_eq!(inst.queue_opened_at(), None);
        let until2 = t1 + SimDuration::from_millis(10);
        inst.extend_busy(until2);
        assert!(matches!(
            inst.state(),
            InstanceState::Busy { until } if until == until2
        ));
        inst.complete_batch(until2, 3);
        assert_eq!(inst.completed_requests(), 3);
        assert_eq!(inst.executed_batches(), 1);
    }

    #[test]
    #[should_panic(expected = "non-busy")]
    fn drain_queued_while_idle_panics() {
        let mut inst = warm_instance(2);
        let t = SimTime::ZERO;
        inst.enqueue(request(0, t), t);
        inst.drain_queued(1, t, &mut Vec::new());
    }
}
