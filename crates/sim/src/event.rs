//! A stable, timestamped event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Bits of an event's tie key below the scheduling-instant field: one
/// as-of flag bit over a 39-bit insertion counter.
const TIE_SHIFT: u32 = 40;
/// The as-of flag: set on events scheduled *as of* an instant other than
/// the clock (see [`EventQueue::schedule_as_of`]). Insertion counters
/// stay below it.
const AS_OF: u64 = 1 << (TIE_SHIFT - 1);
/// Scheduling lead times, µs, at or beyond which all events compare as
/// "scheduled earliest" (≈ 16.8 s); ties among them fall to the counter.
const LEAD_CAP: u64 = (1 << (64 - TIE_SHIFT)) - 1;

/// Packs an event's tie key: `(scheduled_at, as-of flag, counter)`,
/// with `scheduled_at` stored as the capped lead time `time −
/// scheduled_at` so the key fits one `u64`. A smaller key is delivered
/// first among events at the same instant.
fn tie_key(time: SimTime, scheduled_at: SimTime, flag: u64, counter: u64) -> u64 {
    let lead = (time - scheduled_at).as_micros().min(LEAD_CAP);
    ((LEAD_CAP - lead) << TIE_SHIFT) | flag | counter
}

/// Same-instant ties between an as-of event and another event scheduled
/// as of the same instant, whose order the key cannot know (debug
/// builds only; see [`as_of_ties`]).
#[cfg(debug_assertions)]
static AS_OF_TIES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(debug_assertions)]
fn note_as_of_tie() {
    AS_OF_TIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// The number of same-instant ties whose order an as-of key could not
/// settle, process-wide: an as-of event and another event that fire in
/// the same microsecond and were scheduled as of the same instant
/// (popped back to back, or compared by
/// [`EventQueue::delivered_before`]). The key orders the as-of event
/// last; a run that reports zero here popped every event exactly as if
/// each had been scheduled at its own instant. Always zero in release
/// builds, which do not count.
pub fn as_of_ties() -> u64 {
    #[cfg(debug_assertions)]
    {
        AS_OF_TIES.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// An event scheduled in an [`EventQueue`].
///
/// Ordering is by time first, then by the instant the event was
/// scheduled at, then by insertion sequence. For events scheduled on
/// the clock this is exactly insertion (FIFO) order among events for
/// the same instant, since the clock never runs backwards. This
/// stability matters: platform behaviour (which batch fills first,
/// which instance a request lands on) must not depend on heap
/// internals.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    time: SimTime,
    /// The packed tie key (see [`tie_key`]).
    seq: u64,
    payload: E,
}

impl<E> ScheduledEvent<E> {
    /// The instant the event fires.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The event payload.
    pub fn payload(&self) -> &E {
        &self.payload
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A reserved place in an [`EventQueue`]'s delivery order: an event's
/// time and tie key, fixed when [`EventQueue::reserve`] was called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    time: SimTime,
    seq: u64,
}

impl Ticket {
    /// The instant the reserved event fires.
    pub fn time(self) -> SimTime {
        self.time
    }
}

/// A future-event list: the heart of the discrete-event simulator.
///
/// Events are arbitrary payloads `E` tagged with a [`SimTime`]. Popping
/// always yields the earliest pending event; ties break in insertion
/// order. The queue keeps its own clock — the time of the last event it
/// delivered, or of a staged arrival or barrier it was told about — and
/// stamps every scheduled event with it; callers advance their own
/// notion of "now" to each popped event's timestamp, which makes it
/// impossible for time to drift or run backwards.
///
/// An event may also be scheduled *as of* another instant
/// ([`Self::schedule_as_of`]): it then ties exactly as if it had been
/// scheduled when the clock read that instant. A decode span uses this
/// to stand in for a chain of per-step events it never schedules.
///
/// A place in the order may be taken before its event exists
/// ([`Self::reserve`]) and filled later ([`Self::schedule_ticket`]),
/// any time before its turn comes. An event whose firing would change
/// nothing can so be reserved and never pushed: the engine keeps at
/// most one live batch timer per instance in the heap this way.
///
/// # Example
///
/// ```
/// use infless_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(3), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(1), "b"); // same instant, FIFO
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    clock: SimTime,
    /// What was delivered at `clock`, for [`Self::delivered_before`].
    cursor: Cursor,
}

/// The delivery position at the queue's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    /// A staged arrival, which precedes every queued event at its instant.
    Staged,
    /// A queued event with this tie key, popped when the insertion
    /// counter stood at the second value.
    Popped(u64, u64),
    /// A barrier, which follows every event at its instant scheduled
    /// before it; the insertion counter stood at this value.
    Barrier(u64),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            clock: SimTime::ZERO,
            cursor: Cursor::Barrier(0),
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the queue's clock) is allowed at
    /// the API level — the event simply fires "now" from the caller's
    /// perspective because it becomes the earliest entry — but it is
    /// almost always a logic error, so debug builds assert against it.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let ticket = self.reserve(time);
        self.schedule_ticket(ticket, payload);
    }

    /// Reserves a place for an event at `time` without scheduling it:
    /// the ticket carries the tie key [`Self::schedule`] would give an
    /// event scheduled right now. Pushing it later with
    /// [`Self::schedule_ticket`] delivers the event exactly where
    /// scheduling it now would have; never pushing it leaves every
    /// other event's order untouched.
    ///
    /// # Panics
    ///
    /// Debug builds assert `time` is not before the clock.
    pub fn reserve(&mut self, time: SimTime) -> Ticket {
        debug_assert!(
            time >= self.clock,
            "scheduled an event at {time} before the simulation clock {}",
            self.clock
        );
        let seq = tie_key(time, self.clock.min(time), 0, self.next_counter());
        Ticket { time, seq }
    }

    /// Schedules `payload` under a ticket from [`Self::reserve`]. The
    /// ticket must still be pending (see [`Self::is_pending`]): an
    /// event pushed after its turn would be delivered out of order.
    ///
    /// # Panics
    ///
    /// Debug builds assert the ticket is pending.
    pub fn schedule_ticket(&mut self, ticket: Ticket, payload: E) {
        debug_assert!(
            self.is_pending(ticket),
            "ticket for {} pushed after its turn (clock {})",
            ticket.time,
            self.clock
        );
        self.heap.push(ScheduledEvent {
            time: ticket.time,
            seq: ticket.seq,
            payload,
        });
    }

    /// `true` if an event under `ticket` would be delivered after the
    /// one being delivered now, so it may still be pushed. A ticket
    /// reserved after the current delivery always is; one reserved
    /// before it at the same instant is if its key orders it later, and
    /// never at a barrier.
    pub fn is_pending(&self, ticket: Ticket) -> bool {
        if ticket.time != self.clock {
            return ticket.time > self.clock;
        }
        let reserved_after = |next_seq: u64| ticket.seq & (AS_OF - 1) >= next_seq;
        match self.cursor {
            Cursor::Staged => true,
            Cursor::Popped(key, next_seq) => ticket.seq > key || reserved_after(next_seq),
            Cursor::Barrier(next_seq) => reserved_after(next_seq),
        }
    }

    /// Schedules `payload` to fire at `time` as if it had been scheduled
    /// when the clock read `as_of` (which may lie ahead of the clock or
    /// behind it): it pops after every event scheduled before `as_of`
    /// and before every event scheduled after it. Against an event
    /// scheduled at `as_of` itself the order is unknown; the as-of
    /// event pops last, and debug builds count the tie (see
    /// [`as_of_ties`]).
    ///
    /// # Panics
    ///
    /// Debug builds assert `as_of <= time` and that `time` is not before
    /// the clock.
    pub fn schedule_as_of(&mut self, time: SimTime, as_of: SimTime, payload: E) {
        debug_assert!(
            as_of <= time && time >= self.clock,
            "as-of event at {time} (as of {as_of}) out of order with the clock {}",
            self.clock
        );
        let seq = tie_key(time, as_of, AS_OF, self.next_counter());
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    fn next_counter(&mut self) -> u64 {
        let counter = self.next_seq;
        assert!(counter < AS_OF, "event counter exhausted");
        self.next_seq += 1;
        counter
    }

    /// Removes and returns the earliest event, or `None` when the run is
    /// complete.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        #[cfg(debug_assertions)]
        if let Some(next) = self.heap.peek() {
            if next.time == ev.time
                && next.seq >> TIE_SHIFT == ev.seq >> TIE_SHIFT
                && (next.seq | ev.seq) & AS_OF != 0
            {
                note_as_of_tie();
            }
        }
        self.clock = ev.time;
        self.cursor = Cursor::Popped(ev.seq, self.next_seq);
        Some((ev.time, ev.payload))
    }

    /// Moves the clock to a barrier at `t`: every event at or before `t`
    /// counts as delivered, and events scheduled from here on are
    /// stamped with `t`.
    ///
    /// # Panics
    ///
    /// Debug builds assert `t` is not before the clock.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.clock,
            "barrier at {t} before the clock {}",
            self.clock
        );
        self.clock = t;
        self.cursor = Cursor::Barrier(self.next_seq);
    }

    /// `true` if an event at `time`, scheduled as of `as_of`, would have
    /// been delivered before the one being handled now. Readers of state
    /// that an as-of event stands in for (the steps of a decode span)
    /// use this to catch up exactly as far as per-step events would
    /// have run. An unknowable tie (see [`Self::schedule_as_of`])
    /// answers `false` and counts in debug builds.
    pub fn delivered_before(&self, time: SimTime, as_of: SimTime) -> bool {
        if time != self.clock {
            return time < self.clock;
        }
        match self.cursor {
            Cursor::Staged => false,
            Cursor::Barrier(_) => true,
            Cursor::Popped(key, _) => {
                let probe = tie_key(time, as_of, AS_OF, 0) >> TIE_SHIFT;
                let current = key >> TIE_SHIFT;
                #[cfg(debug_assertions)]
                if probe == current {
                    note_as_of_tie();
                }
                probe < current
            }
        }
    }

    /// Moves the clock to a staged arrival at `t`, delivered ahead of
    /// every queued event at that instant.
    fn deliver_staged(&mut self, t: SimTime) {
        self.clock = t;
        self.cursor = Cursor::Staged;
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(ScheduledEvent::time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queue's clock: the time of the most recently delivered event
    /// (popped, staged, or a barrier) — the current simulated instant
    /// from the queue's point of view.
    pub fn now(&self) -> SimTime {
        self.clock
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A time-sorted source of staged entries, read a chunk at a time.
///
/// A chunk is time-sorted, and no entry of a later chunk is earlier
/// than any entry of an earlier one. An empty chunk means the source is
/// exhausted.
pub trait Staged {
    /// What each entry carries besides its time.
    type Payload: Copy;

    /// The current chunk.
    fn chunk(&self) -> &[(SimTime, Self::Payload)];

    /// Replaces the current chunk with the next one.
    fn advance(&mut self);
}

/// A sorted slice is a source of one chunk.
impl<P: Copy> Staged for &[(SimTime, P)] {
    type Payload = P;

    fn chunk(&self) -> &[(SimTime, P)] {
        self
    }

    fn advance(&mut self) {
        *self = &[];
    }
}

/// A time-sorted event stream merged *ahead of* an [`EventQueue`].
///
/// Pushing every arrival into the heap up front would make each heap
/// operation pay `O(log total_arrivals)` on a multi-million-entry,
/// cache-hostile structure. A `StagedStream` instead reads its
/// [`Staged`] source's current chunk by cursor and merges it with the
/// live queue at pop time, so the heap only ever holds the (small) set
/// of genuinely dynamic events.
///
/// Tie-breaking matches the convention every platform used when
/// arrivals were pre-scheduled: all arrivals were pushed before any
/// other event, so their sequence numbers were lowest and an arrival
/// always won an equal-timestamp tie. Here the staged entry is
/// delivered whenever its time is `<=` the heap's head, which is the
/// same order — runs are bit-identical to the pre-scheduled form.
///
/// # Example
///
/// ```
/// use infless_sim::{EventQueue, SimTime, StagedStream};
///
/// let arrivals = [(SimTime::from_millis(1), 0usize), (SimTime::from_millis(5), 1)];
/// let mut staged = StagedStream::new(&arrivals);
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(1), "tick");
///
/// // The staged arrival wins the t=1ms tie.
/// let (_, first) = staged.next(&mut q, |f| if f == 0 { "a0" } else { "a1" }).unwrap();
/// assert_eq!(first, "a0");
/// ```
#[derive(Debug, Clone)]
pub struct StagedStream<S> {
    source: S,
    /// Position in the source's current chunk, which is at its end only
    /// once the source is exhausted.
    cursor: usize,
}

impl<'a, P: Copy> StagedStream<&'a [(SimTime, P)]> {
    /// Wraps a time-sorted slice of `(time, payload)` pairs.
    ///
    /// # Panics
    ///
    /// Debug builds assert the slice is sorted by time.
    pub fn new(staged: &'a [(SimTime, P)]) -> Self {
        debug_assert!(
            staged.windows(2).all(|w| w[0].0 <= w[1].0),
            "staged events must be time-sorted"
        );
        Self::from_source(staged)
    }
}

impl<S: Staged> StagedStream<S> {
    /// Reads `source` from its current chunk, which must be non-empty
    /// unless the source is exhausted.
    pub fn from_source(source: S) -> Self {
        StagedStream { source, cursor: 0 }
    }

    /// Pops the earliest event across the staged source and the queue,
    /// wrapping staged payloads with `wrap`. Staged entries win
    /// equal-timestamp ties. Returns `None` when both are exhausted.
    #[inline]
    pub fn next<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        wrap: impl FnOnce(S::Payload) -> E,
    ) -> Option<(SimTime, E)> {
        match self.source.chunk().get(self.cursor) {
            Some(&(t, p)) if queue.peek_time().is_none_or(|h| t <= h) => {
                self.cursor += 1;
                if self.cursor == self.source.chunk().len() {
                    self.source.advance();
                    self.cursor = 0;
                }
                queue.deliver_staged(t);
                Some((t, wrap(p)))
            }
            _ => queue.pop(),
        }
    }

    /// Like [`next`], but only delivers events with `time <= until`.
    ///
    /// This is the epoch-barrier primitive of the sharded runner: each
    /// shard drains its merged stream up to the barrier instant and
    /// stops, leaving strictly-later events (staged or queued) intact
    /// for the next epoch. Tie-breaking is identical to [`next`] —
    /// events *at* the barrier still fire inside the epoch, so a
    /// barrier at `t` is equivalent to pausing a sequential run right
    /// after the last event with `time <= t`.
    ///
    /// [`next`]: StagedStream::next
    pub fn next_until<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        until: SimTime,
        wrap: impl FnOnce(S::Payload) -> E,
    ) -> Option<(SimTime, E)> {
        match self.peek_time(queue) {
            Some(t) if t <= until => self.next(queue, wrap),
            _ => None,
        }
    }

    /// The timestamp of the next event across the staged source and the
    /// queue, without consuming it. `None` when both are exhausted.
    pub fn peek_time<E>(&self, queue: &EventQueue<E>) -> Option<SimTime> {
        match (self.staged_time(), queue.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The timestamp of the next staged entry; `None` once the source
    /// is exhausted.
    pub fn staged_time(&self) -> Option<SimTime> {
        self.source.chunk().get(self.cursor).map(|&(t, _)| t)
    }

    /// The staged source.
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.schedule(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Pins the tie-break contract the fault subsystem depends on:
    /// among equal-timestamp events, delivery order is *insertion*
    /// order — even when popping is interleaved with new same-instant
    /// scheduling, and regardless of heap internals. Recovery
    /// correctness needs this: a crash scheduled before a dispatch at
    /// the same tick must be delivered before that dispatch.
    #[test]
    fn same_instant_fifo_survives_interleaved_scheduling() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "crash");
        q.schedule(t, "dispatch");
        assert_eq!(q.pop(), Some((t, "crash")));
        // Handling the crash schedules more work at the same instant; it
        // must land *behind* the already-pending dispatch.
        q.schedule(t, "rescale");
        q.schedule(t, "retry");
        assert_eq!(q.pop(), Some((t, "dispatch")));
        assert_eq!(q.pop(), Some((t, "rescale")));
        assert_eq!(q.pop(), Some((t, "retry")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    /// `next_until` pauses a merged stream exactly where a sequential
    /// drain would be after the last event at the barrier instant —
    /// inclusive of barrier-time events, exclusive of anything later.
    #[test]
    fn next_until_stops_at_the_barrier_inclusively() {
        let arrivals = [
            (SimTime::from_millis(1), 0usize),
            (SimTime::from_millis(5), 1),
            (SimTime::from_millis(9), 2),
        ];
        let mut staged = StagedStream::new(&arrivals);
        let mut q: EventQueue<usize> = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 10); // loses the t=5 tie
        q.schedule(SimTime::from_millis(7), 11);

        let barrier = SimTime::from_millis(5);
        let mut drained = Vec::new();
        while let Some((t, e)) = staged.next_until(&mut q, barrier, |p| p) {
            drained.push((t, e));
        }
        assert_eq!(
            drained,
            vec![
                (SimTime::from_millis(1), 0),
                (SimTime::from_millis(5), 1),
                (SimTime::from_millis(5), 10),
            ]
        );
        // Later events are untouched for the next epoch.
        assert_eq!(staged.staged_time(), Some(SimTime::from_millis(9)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        // Resuming with the plain `next` drains the rest in order.
        assert_eq!(
            staged.next(&mut q, |p| p),
            Some((SimTime::from_millis(7), 11))
        );
        assert_eq!(
            staged.next(&mut q, |p| p),
            Some((SimTime::from_millis(9), 2))
        );
        assert_eq!(staged.next(&mut q, |p| p), None);
    }

    /// `peek_time` reports the merged head without consuming it.
    #[test]
    fn staged_peek_time_merges_both_sources() {
        let arrivals = [(SimTime::from_millis(4), 0usize)];
        let staged = StagedStream::new(&arrivals);
        let mut q: EventQueue<usize> = EventQueue::new();
        assert_eq!(staged.peek_time(&q), Some(SimTime::from_millis(4)));
        q.schedule(SimTime::from_millis(2), 1);
        assert_eq!(staged.peek_time(&q), Some(SimTime::from_millis(2)));
        assert_eq!(staged.staged_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 1);
    }

    /// A sorted slice served two entries a chunk.
    struct Pairs<'a>(&'a [(SimTime, usize)]);

    impl Staged for Pairs<'_> {
        type Payload = usize;

        fn chunk(&self) -> &[(SimTime, usize)] {
            &self.0[..self.0.len().min(2)]
        }

        fn advance(&mut self) {
            self.0 = &self.0[self.0.len().min(2)..];
        }
    }

    proptest! {
        /// Epoch-chunked draining via `next_until` over arbitrary
        /// barriers, from a source read in chunks, yields the same event
        /// sequence as one sequential drain via `next` over the slice.
        #[test]
        fn prop_epoch_chunked_drain_equals_sequential(
            staged_times in prop::collection::vec(0u64..100, 0..40),
            queued_times in prop::collection::vec(0u64..100, 0..40),
            step in 1u64..30,
        ) {
            let mut staged_times = staged_times;
            staged_times.sort_unstable();
            let arrivals: Vec<(SimTime, usize)> = staged_times
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::from_millis(t), i))
                .collect();

            let build_queue = || -> EventQueue<usize> {
                let mut q = EventQueue::new();
                for (i, &t) in queued_times.iter().enumerate() {
                    q.schedule(SimTime::from_millis(t), 1000 + i);
                }
                q
            };

            let mut seq_stream = StagedStream::new(&arrivals);
            let mut seq_q = build_queue();
            let mut sequential = Vec::new();
            while let Some(ev) = seq_stream.next(&mut seq_q, |p| p) {
                sequential.push(ev);
            }

            // The epoch drain reads the same list two entries a chunk.
            let mut epoch_stream = StagedStream::from_source(Pairs(&arrivals));
            let mut epoch_q = build_queue();
            let mut chunked = Vec::new();
            let mut barrier = SimTime::from_millis(step);
            let horizon = SimTime::from_millis(200);
            while barrier <= horizon {
                while let Some(ev) = epoch_stream.next_until(&mut epoch_q, barrier, |p| p) {
                    chunked.push(ev);
                }
                barrier += SimDuration::from_millis(step);
            }
            prop_assert_eq!(chunked, sequential);
        }
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u8> = (0..5u8)
            .map(|i| (SimTime::from_secs(i as u64), i))
            .collect();
        assert_eq!(q.len(), 5);
    }

    proptest! {
        /// Popped timestamps are non-decreasing regardless of insertion order.
        #[test]
        fn prop_pop_order_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// FIFO among equal timestamps for arbitrary time vectors: for
        /// any pair delivered at the same instant, the one scheduled
        /// first pops first.
        #[test]
        fn prop_equal_time_events_pop_in_insertion_order(
            times in prop::collection::vec(0u64..50, 1..200),
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    if lt == t {
                        prop_assert!(li < i, "seq {li} and {i} swapped at {t}");
                    }
                }
                last = Some((t, i));
            }
        }

        /// Every scheduled event is delivered exactly once.
        #[test]
        fn prop_no_event_lost(times in prop::collection::vec(0u64..10_000, 1..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::ZERO + SimDuration::from_micros(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }

    /// Today's tie contract as a plain model: queued events pop by
    /// `(time, insertion order)`, and a staged arrival wins every tie
    /// with a queued event. Each delivered event schedules its children
    /// at `now + delta`, with deltas from `spawn` indexed by its id, so
    /// the event tree is the same whatever order it is delivered in.
    struct Reference {
        queued: Vec<(u64, u64, u64)>,
        next_seq: u64,
        stamps: Stamps,
    }

    impl Reference {
        fn schedule(&mut self, now: u64, time: u64, id: u64) {
            self.queued.push((time, self.next_seq, id));
            self.stamps.insert(id, (now, time, self.next_seq));
            self.next_seq += 1;
        }

        fn pop_min(&mut self) -> Option<(u64, u64)> {
            let i = (0..self.queued.len()).min_by_key(|&i| (self.queued[i].0, self.queued[i].1))?;
            let (t, _, id) = self.queued.swap_remove(i);
            Some((t, id))
        }
    }

    const HORIZON: u64 = 60;

    /// Ids carry their tree depth above bit 48; the tree stops five
    /// levels down, so zero-delay chains cannot run forever.
    fn children(spawn: &[Vec<u64>], id: u64, now: u64) -> Vec<(u64, u64)> {
        let (depth, local) = (id >> 48, id & ((1 << 48) - 1));
        if depth >= 5 {
            return Vec::new();
        }
        spawn[(local % spawn.len() as u64) as usize]
            .iter()
            .enumerate()
            .map(|(i, d)| (now + d, ((depth + 1) << 48) | (local * 8 + 1 + i as u64)))
            .filter(|&(t, _)| t < HORIZON)
            .collect()
    }

    /// `(scheduled at, time, insertion)` of every non-initial event,
    /// by id.
    type Stamps = std::collections::HashMap<u64, (u64, u64, u64)>;

    /// Delivery order under today's contract. `virtual_event`, if set,
    /// is `(id, time, child time)`: an initial event whose only child is
    /// scheduled when it is delivered. Returns the order and the stamps.
    fn reference_order(
        staged: &[(SimTime, u64)],
        initial: &[u64],
        spawn: &[Vec<u64>],
        virtual_event: Option<(u64, u64, u64)>,
    ) -> (Vec<(u64, u64)>, Stamps) {
        let mut r = Reference {
            queued: Vec::new(),
            next_seq: 0,
            stamps: std::collections::HashMap::new(),
        };
        for (i, &t) in initial.iter().enumerate() {
            r.queued.push((t, r.next_seq, 2 + i as u64));
            r.next_seq += 1;
        }
        if let Some((id, t, _)) = virtual_event {
            r.queued.push((t, r.next_seq, id));
            r.next_seq += 1;
        }
        let mut cursor = 0;
        let mut order = Vec::new();
        loop {
            let head = r.queued.iter().map(|e| e.0).min();
            let (now, id) = match staged.get(cursor) {
                Some(&(t, id)) if head.is_none_or(|h| t.as_micros() <= h) => {
                    cursor += 1;
                    (t.as_micros(), id)
                }
                _ => match r.pop_min() {
                    Some(ev) => ev,
                    None => break,
                },
            };
            order.push((now, id));
            match virtual_event {
                Some((v, _, child_t)) if v == id => r.schedule(now, child_t, 1),
                _ => {
                    for (t, child) in children(spawn, id, now) {
                        r.schedule(now, t, child);
                    }
                }
            }
        }
        (order, r.stamps)
    }

    fn staged_list(times: &[u64]) -> Vec<(SimTime, u64)> {
        let mut times = times.to_vec();
        times.sort_unstable();
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_micros(t), 1_000_000 + i as u64))
            .collect()
    }

    proptest! {
        /// The `(time, scheduled_at, seq)` key pops events in exactly
        /// the `(time, insertion order)` order, across random
        /// schedule/pop/staged-arrival interleavings with many
        /// same-instant ties.
        #[test]
        fn prop_tie_key_keeps_insertion_order(
            staged in prop::collection::vec(0u64..HORIZON, 0..20),
            initial in prop::collection::vec(0u64..HORIZON, 1..10),
            spawn in prop::collection::vec(prop::collection::vec(0u64..6, 0..3), 1..8),
        ) {
            let staged = staged_list(&staged);
            let (expected, _) = reference_order(&staged, &initial, &spawn, None);
            let mut q = EventQueue::new();
            for (i, &t) in initial.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), 2 + i as u64);
            }
            let mut stream = StagedStream::new(&staged);
            let mut order = Vec::new();
            while let Some((t, id)) = stream.next(&mut q, |p| p) {
                order.push((t.as_micros(), id));
                for (ct, child) in children(&spawn, id, t.as_micros()) {
                    q.schedule(SimTime::from_micros(ct), child);
                }
            }
            prop_assert_eq!(order, expected);
        }

        /// An event scheduled as of an earlier instant lands exactly
        /// where a schedule at that instant would have put it, and
        /// `delivered_before` agrees with that position at every
        /// delivery. The one tie the key cannot settle — another event
        /// scheduled at that same instant, *after* the stand-in would
        /// have been, firing in the same microsecond — is not compared
        /// (the key orders the as-of event after every such event);
        /// debug builds count it instead.
        ///
        /// Children are reserved when their parent is delivered and
        /// pushed up to `holds[i]` deliveries later, or sooner if their
        /// turn would come first: the order must equal scheduling each
        /// at its reservation, same-instant ties and the as-of event
        /// included.
        #[test]
        fn prop_as_of_event_lands_where_its_schedule_would(
            staged in prop::collection::vec(0u64..HORIZON, 0..20),
            initial in prop::collection::vec(0u64..HORIZON, 1..10),
            spawn in prop::collection::vec(prop::collection::vec(0u64..6, 0..3), 1..8),
            as_of in 0u64..HORIZON,
            lead in 0u64..8,
            holds in prop::collection::vec(0u8..4, 1..64),
        ) {
            let staged = staged_list(&staged);
            let time = as_of + lead;
            // Event 0 stands for the step the span does not schedule;
            // when delivered, it schedules event 1 (the span's end).
            let (with_virtual, stamps) =
                reference_order(&staged, &initial, &spawn, Some((0, as_of, time)));
            let end = stamps[&1].2;
            let unsettled = stamps
                .values()
                .any(|&(at, t, seq)| (at, t) == (as_of, time) && seq > end);
            let expected: Vec<(u64, u64)> =
                with_virtual.into_iter().filter(|&(_, id)| id != 0).collect();
            let at = |t: u64| SimTime::from_micros(t);
            let ties_before = as_of_ties();
            let mut q = EventQueue::new();
            for (i, &t) in initial.iter().enumerate() {
                q.schedule(at(t), 2 + i as u64);
            }
            q.schedule_as_of(at(time), at(as_of), 1);
            let mut stream = StagedStream::new(&staged);
            let mut order = Vec::new();
            let mut end_seen = false;
            // `(ticket, id, deliveries left to hold it)`.
            let mut held: Vec<(Ticket, u64, u8)> = Vec::new();
            let mut reserved = 0usize;
            loop {
                let head = stream.peek_time(&q);
                held.retain(|&(ticket, child, left)| {
                    let due = head.is_none_or(|h| ticket.time() <= h);
                    if left == 0 || due {
                        assert!(q.is_pending(ticket));
                        q.schedule_ticket(ticket, child);
                    }
                    left > 0 && !due
                });
                let Some((t, id)) = stream.next(&mut q, |p| p) else {
                    break;
                };
                for h in &mut held {
                    h.2 -= 1;
                }
                if id != 1 && !unsettled {
                    prop_assert_eq!(q.delivered_before(at(time), at(as_of)), end_seen);
                }
                end_seen |= id == 1;
                order.push((t.as_micros(), id));
                for (ct, child) in children(&spawn, id, t.as_micros()) {
                    let hold = holds[reserved % holds.len()];
                    reserved += 1;
                    held.push((q.reserve(at(ct)), child, hold));
                }
            }
            prop_assert!(held.is_empty());
            // An unsettled tie either fell the right way or was counted:
            // a run that counts none popped exactly the reference order.
            if !unsettled || (cfg!(debug_assertions) && as_of_ties() == ties_before) {
                prop_assert_eq!(order, expected);
            }
        }
    }

    /// `delivered_before` answers from what is being delivered at the
    /// clock: a staged arrival precedes every queued event at its
    /// instant, a popped event splits same-instant events by when they
    /// were scheduled, and a barrier follows everything at its instant.
    #[test]
    fn delivered_before_reads_the_delivery_position() {
        let at = SimTime::from_micros;
        let arrivals = [(at(10), 0u8)];
        let mut staged = StagedStream::new(&arrivals);
        let mut q = EventQueue::new();
        q.schedule(at(10), 1u8);
        assert_eq!(staged.next(&mut q, |p| p), Some((at(10), 0)));
        assert_eq!(q.now(), at(10));
        assert!(q.delivered_before(at(9), at(0)));
        assert!(!q.delivered_before(at(10), at(0)));
        // The queued event at 10 was scheduled at 0.
        assert_eq!(q.pop(), Some((at(10), 1)));
        assert!(
            !q.delivered_before(at(10), at(0)),
            "unknowable tie answers false"
        );
        assert!(!q.delivered_before(at(10), at(5)));
        q.schedule(at(20), 2);
        q.pop();
        // The event at 20 was scheduled at 10.
        assert!(q.delivered_before(at(20), at(9)));
        assert!(!q.delivered_before(at(20), at(11)));
        q.advance_to(at(30));
        assert_eq!(q.now(), at(30));
        assert!(q.delivered_before(at(30), at(29)));
        assert!(!q.delivered_before(at(31), at(30)));
    }

    /// A ticket pushed late pops exactly where scheduling it at its
    /// reservation would have put it: ahead of same-instant events
    /// scheduled after the reservation, behind those scheduled before.
    #[test]
    fn reserved_event_pops_at_its_reserved_place() {
        let at = SimTime::from_micros;
        let mut q = EventQueue::new();
        q.schedule(at(5), "before");
        let ticket = q.reserve(at(5));
        assert_eq!(ticket.time(), at(5));
        q.schedule(at(5), "after");
        q.schedule(at(3), "early");
        assert_eq!(q.pop(), Some((at(3), "early")));
        assert!(q.is_pending(ticket));
        q.schedule_ticket(ticket, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["before", "reserved", "after"]);
    }

    /// A ticket never pushed leaves every other event where it was.
    #[test]
    fn dropped_ticket_leaves_the_order_untouched() {
        let at = SimTime::from_micros;
        let mut q = EventQueue::new();
        q.schedule(at(5), 1);
        let _unused = q.reserve(at(5));
        q.schedule(at(5), 2);
        q.schedule(at(4), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    /// A ticket stays pending until the delivery position passes it: a
    /// later instant, a same-instant event with a larger key, or a
    /// barrier at its instant reserved before the barrier.
    #[test]
    fn tickets_stop_pending_once_their_turn_passes() {
        let at = SimTime::from_micros;
        let mut q = EventQueue::new();
        let early = q.reserve(at(10));
        q.schedule(at(10), 'x');
        let late = q.reserve(at(10));
        let next = q.reserve(at(11));
        assert_eq!(q.pop(), Some((at(10), 'x')));
        assert!(!q.is_pending(early), "x was scheduled after it");
        assert!(q.is_pending(late));
        assert!(q.is_pending(next));
        q.advance_to(at(11));
        assert!(!q.is_pending(late) && !q.is_pending(next));
        let after_barrier = q.reserve(at(11));
        assert!(q.is_pending(after_barrier), "reserved after the barrier");
        let arrivals = [(at(20), 'a')];
        let mut staged = StagedStream::new(&arrivals);
        let ticket = q.reserve(at(20));
        assert_eq!(staged.next(&mut q, |p| p), Some((at(20), 'a')));
        assert!(
            q.is_pending(ticket),
            "staged arrivals precede queued events"
        );
    }

    /// The tie key packs into the existing `u64`: the heap element of
    /// the engine-sized payloads does not grow.
    #[test]
    fn scheduled_event_stays_two_words_plus_payload() {
        assert_eq!(
            std::mem::size_of::<ScheduledEvent<[u64; 3]>>(),
            2 * 8 + 3 * 8
        );
    }
}
