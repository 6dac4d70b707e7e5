//! Indexed deficit router: the request hot path.
//!
//! The dispatcher (§3.2 ❷) routes every arrival to the dispatch-set
//! instance whose target rate is least satisfied — the instance with
//! the lowest *credit* `sent / rate` — among the instances whose
//! pending batch has room. The original implementation rebuilt and
//! sorted a candidate `Vec` per request, an O(n log n) allocation on
//! the hottest path in the simulator. [`DeficitRouter`] replaces it
//! with a binary min-heap of cached credits over the instances that
//! can take a request:
//!
//! * **One division and one sift-down per dispatch, no allocation.**
//!   Heap slots hold `(credit, entry index)` packed into one integer,
//!   so a comparison is one integer compare and never divides. The
//!   router offers the root. An accepting root is charged in place
//!   (`sent += 1`, key recomputed); a credit only grows, so one
//!   sift-down restores the heap.
//! * **Full instances leave the heap.** An entry is *closed* while its
//!   instance holds a full pending batch. A root whose acceptance
//!   fills the batch ([`Admission::Filled`]) is closed instead of
//!   re-keyed, and a refusal means the instance is full, so the
//!   refused root is closed and the next root offered. Each entry is
//!   closed at most once per fill, so a refusal costs one heap pop,
//!   and a dispatch with every instance full finds an empty heap in
//!   O(1). The owner calls [`DeficitRouter::reopen`] when the batch
//!   drains or grows; the entry goes back under its current key.
//! * **Identical routing.** `(credit, insertion index)` is a strict
//!   total order, the order a stable sort by credit produces. A closed
//!   entry would have refused, and its credit does not change while it
//!   is closed, so the root is exactly the first instance with room in
//!   that order. A cached key comes from the same `sent / rate`
//!   expression as a fresh one, so it is bit-equal to it. Routing
//!   matches the straightforward reference implementation winner for
//!   winner (pinned by a property test over a queue-capacity model).
//!
//! Credit staleness fix: credits are *relative* — an entry added to a
//! set whose veterans carry large `sent` counters would have credit 0
//! and absorb nearly all traffic until it "caught up". The router
//! therefore resets every credit to zero whenever the dispatch-set
//! membership changes (push, removal, restore), so routing always
//! tracks the *current* target rates rather than stale history.

use infless_cluster::InstanceId;
use infless_sim::SimDuration;

use crate::batching::RpsWindow;

/// An instance in the dispatch set with its controller state.
#[derive(Debug, Clone, Copy)]
pub struct RouterEntry {
    /// The engine instance this entry routes to.
    pub id: InstanceId,
    /// The instance's feasible-rate window (Eq. 6).
    pub window: RpsWindow,
    /// Target dispatch rate from the three-case controller; entries
    /// with a non-positive rate are excluded from routing.
    pub rate: f64,
    /// Requests sent since the last credit reset (deficit counter).
    pub sent: u64,
    /// The COP-predicted execution latency of this instance's
    /// configuration — carried so fault recovery can tell a hopeless
    /// retry (budget < fastest instance) from a viable one.
    pub predicted_exec: SimDuration,
}

impl RouterEntry {
    fn credit(&self) -> f64 {
        self.sent as f64 / self.rate
    }
}

/// An instance's answer to one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The pending batch is full; the request was not taken.
    Refused,
    /// Queued, with room left in the pending batch.
    Queued,
    /// Queued, and the pending batch is now full.
    Filled,
}

impl From<bool> for Admission {
    /// `true` (accepted) reads as [`Admission::Queued`]: an answer that
    /// says nothing about fullness leaves the entry open.
    fn from(accepted: bool) -> Self {
        if accepted {
            Admission::Queued
        } else {
            Admission::Refused
        }
    }
}

/// A heap slot: an entry's cached credit bits above its index in
/// `entries`, so integer order is the strict `(credit, index)` order.
type Key = u128;

/// Packs `(credit, index)` into a [`Key`]. A credit is `sent / rate`
/// with `rate > 0`, so it lies in [+0, +∞] (a subnormal rate gives
/// +∞) and is never NaN or negative; on that range `f64::to_bits` is
/// monotone.
fn key(credit: f64, index: u32) -> Key {
    debug_assert!(
        credit.is_sign_positive() && !credit.is_nan(),
        "credits are non-negative numbers"
    );
    (u128::from(credit.to_bits()) << 32) | u128::from(index)
}

/// The entry index a [`Key`] carries.
fn index(key: Key) -> usize {
    key as u32 as usize
}

/// Min-heap of cached dispatch-set credits. See the module docs.
#[derive(Debug, Default)]
pub struct DeficitRouter {
    /// Entries in insertion order (the tie-break order).
    entries: Vec<RouterEntry>,
    /// Indices of the closed entries (their instance holds a full
    /// pending batch), in no order. Closed entries are not in the heap.
    closed: Vec<u32>,
    /// Binary min-heap of packed keys over the open positive-rate
    /// entries.
    heap: Vec<Key>,
    /// When set, the heap is rebuilt lazily before the next dispatch
    /// (membership or rate changes invalidate it wholesale).
    dirty: bool,
    /// Instances offered a request, across every dispatch.
    #[cfg(test)]
    pub(crate) offers: u64,
}

impl DeficitRouter {
    /// An empty router.
    pub fn new() -> Self {
        DeficitRouter::default()
    }

    /// Number of entries in the dispatch set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dispatch set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &RouterEntry> {
        self.entries.iter()
    }

    /// The instances of the closed entries: those that filled or
    /// refused and have not been reopened since.
    pub fn closed(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.closed.iter().map(|&i| self.entries[i as usize].id)
    }

    /// Adds an instance to the dispatch set, open. Membership changed,
    /// so every credit resets — see the module docs.
    pub fn push(&mut self, entry: RouterEntry) {
        self.entries.push(entry);
        self.reset_credits();
    }

    /// Removes and returns the entry at `index` (insertion order).
    /// Remaining credits reset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_at(&mut self, index: usize) -> RouterEntry {
        let e = self.entries.remove(index);
        self.closed.retain(|&i| i as usize != index);
        for i in &mut self.closed {
            if *i as usize > index {
                *i -= 1;
            }
        }
        self.reset_credits();
        e
    }

    /// Removes the entry for `id`, if present. Credits reset on
    /// removal.
    pub fn remove_by_id(&mut self, id: InstanceId) -> Option<RouterEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.remove_at(pos))
    }

    /// Keeps only the entries matching `pred` (insertion order and
    /// closed marks preserved). Credits reset if anything was dropped.
    pub fn retain(&mut self, mut pred: impl FnMut(&RouterEntry) -> bool) {
        let before = self.entries.len();
        let mut kept = 0;
        for i in 0..before {
            // A renamed mark is below `i`, so it is never found again.
            let closed = self.closed.iter().position(|&c| c as usize == i);
            if pred(&self.entries[i]) {
                self.entries[kept] = self.entries[i];
                if let Some(pos) = closed {
                    self.closed[pos] = kept as u32;
                }
                kept += 1;
            } else if let Some(pos) = closed {
                self.closed.swap_remove(pos);
            }
        }
        if kept != before {
            self.entries.truncate(kept);
            self.reset_credits();
        }
    }

    /// Takes the whole dispatch set out (consolidation), leaving the
    /// router empty but with its buffers intact.
    pub fn take_entries(&mut self) -> Vec<RouterEntry> {
        self.closed.clear();
        self.dirty = true;
        std::mem::take(&mut self.entries)
    }

    /// Applies controller re-tuning (rates, credit zeroing) to the
    /// entries in insertion order, then re-indexes. Closed entries stay
    /// closed: a retune does not drain a queue.
    pub fn retune(&mut self, f: impl FnOnce(&mut [RouterEntry])) {
        f(&mut self.entries);
        self.dirty = true;
    }

    /// Zeroes every deficit counter and re-indexes.
    pub fn reset_credits(&mut self) {
        for e in &mut self.entries {
            e.sent = 0;
        }
        self.dirty = true;
    }

    /// Puts `id`'s entry back in the heap under its current key — its
    /// instance's full pending batch gained room. No-op when the router
    /// holds no closed entry for `id`.
    pub fn reopen(&mut self, id: InstanceId) {
        let entries = &self.entries;
        let Some(pos) = self
            .closed
            .iter()
            .position(|&i| entries[i as usize].id == id)
        else {
            return;
        };
        let i = self.closed.swap_remove(pos);
        let e = &self.entries[i as usize];
        if !self.dirty && e.rate > 0.0 {
            self.heap.push(key(e.credit(), i));
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Routes one request: offers the open instance with the least
    /// credit (ties: insertion order) until one takes it, charges that
    /// instance's deficit counter, and returns its id. A refusing
    /// instance, or one the request filled, is closed until
    /// [`Self::reopen`]. Returns `None` when every positive-rate
    /// instance is closed or refuses.
    pub fn dispatch<A: Into<Admission>>(
        &mut self,
        mut try_enqueue: impl FnMut(InstanceId) -> A,
    ) -> Option<InstanceId> {
        if self.dirty {
            self.rebuild();
        }
        loop {
            let i = index(*self.heap.first()?);
            let e = &mut self.entries[i];
            let id = e.id;
            #[cfg(test)]
            {
                self.offers += 1;
            }
            match try_enqueue(id).into() {
                Admission::Queued => {
                    e.sent += 1;
                    self.heap[0] = key(e.credit(), i as u32);
                    self.sift_down(0);
                    return Some(id);
                }
                Admission::Filled => {
                    e.sent += 1;
                    self.close_root();
                    return Some(id);
                }
                Admission::Refused => self.close_root(),
            }
        }
    }

    // --- heap internals ----------------------------------------------------

    /// Recomputes every open positive-rate key and heapifies bottom-up.
    fn rebuild(&mut self) {
        self.heap.clear();
        self.heap.extend(
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.rate > 0.0)
                .map(|(i, e)| key(e.credit(), i as u32)),
        );
        if !self.closed.is_empty() {
            let closed = &self.closed;
            self.heap.retain(|&k| !closed.contains(&(index(k) as u32)));
        }
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
        self.dirty = false;
    }

    /// Takes the root out of the heap and marks its entry closed.
    fn close_root(&mut self) {
        let root = self.heap.swap_remove(0);
        self.closed.push(index(root) as u32);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    /// Moves the key at `slot` down to its place, shifting smaller
    /// children up into the hole instead of swapping.
    fn sift_down(&mut self, mut slot: usize) {
        let heap = &mut self.heap;
        let moving = heap[slot];
        loop {
            let left = 2 * slot + 1;
            if left >= heap.len() {
                break;
            }
            let right = left + 1;
            let best = if right < heap.len() {
                left + usize::from(heap[right] < heap[left])
            } else {
                left
            };
            if heap[best] > moving {
                break;
            }
            heap[slot] = heap[best];
            slot = best;
        }
        heap[slot] = moving;
    }

    /// Moves the key at `slot` up to its place, shifting larger
    /// parents down into the hole.
    fn sift_up(&mut self, mut slot: usize) {
        let heap = &mut self.heap;
        let moving = heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if heap[parent] < moving {
                break;
            }
            heap[slot] = heap[parent];
            slot = parent;
        }
        heap[slot] = moving;
    }

    /// Asserts the heap invariants: the heap property under key order,
    /// every cached key bit-equal to its entry's credit, and exactly
    /// the open positive-rate entries present. A dirty heap is stale
    /// by design (the next dispatch rebuilds it), so it is not checked.
    #[cfg(test)]
    fn check_heap(&self) {
        let mut closed = self.closed.clone();
        closed.sort_unstable();
        closed.dedup();
        assert_eq!(closed.len(), self.closed.len(), "an entry closed twice");
        assert!(closed.iter().all(|&i| (i as usize) < self.entries.len()));
        if self.dirty {
            return;
        }
        for (slot, &k) in self.heap.iter().enumerate() {
            assert!(slot == 0 || k > self.heap[(slot - 1) / 2]);
            let credit = self.entries[index(k)].credit();
            assert_eq!((k >> 32) as u64, credit.to_bits());
            assert!(
                !self.closed.contains(&(index(k) as u32)),
                "a closed entry is in the heap"
            );
        }
        let mut held: Vec<usize> = self.heap.iter().map(|&k| index(k)).collect();
        held.sort_unstable();
        let open = (0..self.entries.len())
            .filter(|&i| self.entries[i].rate > 0.0 && !self.closed.contains(&(i as u32)));
        assert!(
            held.into_iter().eq(open),
            "heap holds the open positive-rate entries"
        );
    }
}

/// Reusable least-loaded ordering scratch for the baseline routers.
///
/// OpenFaaS+ (fallback path) and BATCH both route by ascending queue
/// length; each previously collected and sorted a fresh `Vec` per
/// request/pump. This helper reuses one buffer and keeps the exact
/// stable-sort semantics (ties preserve the input order).
#[derive(Debug, Default)]
pub struct LeastLoadedScratch {
    ids: Vec<InstanceId>,
}

impl LeastLoadedScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        LeastLoadedScratch::default()
    }

    /// Copies `ids` into the scratch, stable-sorts by `load` ascending,
    /// and returns the ordered slice (valid until the next call).
    pub fn order(
        &mut self,
        ids: &[InstanceId],
        mut load: impl FnMut(InstanceId) -> usize,
    ) -> &[InstanceId] {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.ids.sort_by_key(|&id| load(id));
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_sim::SimDuration;
    use proptest::prelude::*;

    fn entry(id: u64, rate: f64) -> RouterEntry {
        RouterEntry {
            id: InstanceId::new(id),
            window: RpsWindow::for_instance(
                SimDuration::from_millis(10),
                SimDuration::from_millis(100),
                1,
            )
            .expect("feasible window"),
            rate,
            sent: 0,
            predicted_exec: SimDuration::from_millis(10),
        }
    }

    /// The straightforward reference: filter positive rates, stable
    /// sort by credit, first acceptor wins.
    fn reference_dispatch(
        entries: &mut [RouterEntry],
        mut try_enqueue: impl FnMut(InstanceId) -> bool,
    ) -> Option<InstanceId> {
        let mut order: Vec<usize> = (0..entries.len())
            .filter(|&i| entries[i].rate > 0.0)
            .collect();
        order.sort_by(|&a, &b| {
            let (ka, kb) = (entries[a].credit(), entries[b].credit());
            ka.partial_cmp(&kb).expect("credits are never NaN")
        });
        let i = order.into_iter().find(|&i| try_enqueue(entries[i].id))?;
        entries[i].sent += 1;
        Some(entries[i].id)
    }

    /// The reference's credit reset on every membership change.
    fn reset(entries: &mut [RouterEntry]) {
        entries.iter_mut().for_each(|e| e.sent = 0);
    }

    /// The engine side of the contract: one instance's pending batch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Queue {
        cap: usize,
        len: usize,
    }

    impl Queue {
        fn full(self) -> bool {
            self.len >= self.cap
        }

        /// The platform's answer to an offer: enqueue unless full, and
        /// say whether that filled the batch.
        fn offer(&mut self) -> Admission {
            if self.full() {
                return Admission::Refused;
            }
            self.len += 1;
            if self.full() {
                Admission::Filled
            } else {
                Admission::Queued
            }
        }
    }

    #[test]
    fn routes_to_lowest_credit_first() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 10.0));
        r.push(entry(1, 10.0));
        // Equal credits: insertion order breaks the tie.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
        // 0 now has credit 1/10; 1 still 0.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(1)));
        // Both at 1/10 — back to insertion order.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    #[test]
    fn rate_proportional_sharing() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 30.0));
        r.push(entry(1, 10.0));
        let mut counts = [0u64; 2];
        for _ in 0..400 {
            let id = r.dispatch(|_| true).unwrap();
            counts[id.raw() as usize] += 1;
        }
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn full_instances_fall_through() {
        let (zero, one) = (InstanceId::new(0), InstanceId::new(1));
        let mut r = DeficitRouter::new();
        r.push(entry(0, 100.0));
        r.push(entry(1, 1.0));
        // Instance 0 (lowest credit) refuses; 1 takes it.
        assert_eq!(r.dispatch(|id| id != zero), Some(one));
        // 0 stays closed: it is not offered again, and 1 fills.
        let fill = |id| {
            assert_ne!(id, zero, "a closed entry was offered");
            Admission::Filled
        };
        assert_eq!(r.dispatch(fill), Some(one));
        // Everyone is closed: a miss offers nothing.
        let offers = r.offers;
        assert_eq!(r.dispatch(|_| true), None);
        assert_eq!(r.offers, offers);
        // 0's batch drained: it routes again, 1 stays closed.
        r.reopen(zero);
        r.check_heap();
        assert_eq!(r.dispatch(|_| true), Some(zero));
        assert_eq!(r.closed().collect::<Vec<_>>(), [one]);
    }

    #[test]
    fn zero_rate_entries_are_skipped() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 0.0));
        assert_eq!(r.dispatch(|_| true), None);
        r.retune(|es| es[0].rate = 5.0);
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    /// Once every instance holds a full batch, a dispatch makes no
    /// offer. Draining reopens instances under their keys, and routing
    /// then carries on exactly as the reference does.
    #[test]
    fn full_fleet_miss_makes_no_offers() {
        let mut r = DeficitRouter::new();
        let mut reference = Vec::new();
        for (id, rate) in [3.0, 5.0, 7.0, 2.0 / 7.0, 11.0, 5.0, 13.0]
            .into_iter()
            .enumerate()
        {
            r.push(entry(id as u64, rate));
            reference.push(entry(id as u64, rate));
        }
        let mut queues = [Queue { cap: 3, len: 0 }; 7];
        let mut mirror = queues;
        let mut route = |r: &mut DeficitRouter, queues: &mut [Queue], mirror: &mut [Queue]| {
            let got = r.dispatch(|id| queues[id.raw() as usize].offer());
            let want = reference_dispatch(&mut reference, |id| {
                mirror[id.raw() as usize].offer() != Admission::Refused
            });
            assert_eq!(got, want);
            got
        };
        for _ in 0..21 {
            assert!(route(&mut r, &mut queues, &mut mirror).is_some());
        }
        assert!(r.heap.is_empty(), "every full instance left the heap");
        let offers = r.offers;
        assert_eq!(route(&mut r, &mut queues, &mut mirror), None);
        assert_eq!(r.offers, offers, "a miss offers nothing");
        // Instances 1 and 4 start a batch of two.
        for id in [1, 4] {
            queues[id].len -= 2;
            mirror[id].len -= 2;
            r.reopen(InstanceId::new(id as u64));
        }
        r.check_heap();
        for _ in 0..4 {
            assert!(route(&mut r, &mut queues, &mut mirror).is_some());
        }
        assert_eq!(route(&mut r, &mut queues, &mut mirror), None);
        assert_eq!(queues, mirror);
    }

    /// Satellite bugfix pin: a newcomer joining veterans with large
    /// deficit counters must NOT absorb a flood of requests while it
    /// "catches up" — membership change resets every credit.
    #[test]
    fn late_instance_is_not_flooded() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 10.0));
        r.push(entry(1, 10.0));
        // Steady load: veterans accumulate large sent counters.
        for _ in 0..10_000 {
            r.dispatch(|_| true).unwrap();
        }
        // A third instance joins late with the same target rate.
        r.push(entry(2, 10.0));
        let mut counts = [0u64; 3];
        for _ in 0..300 {
            let id = r.dispatch(|_| true).unwrap();
            counts[id.raw() as usize] += 1;
        }
        // Fair three-way split from the moment it joined — not ~300
        // requests in a row to the newcomer (the stale-credit bug).
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn least_loaded_scratch_matches_stable_sort() {
        let ids: Vec<InstanceId> = (0..6).map(InstanceId::new).collect();
        let load = |id: InstanceId| [3usize, 1, 2, 1, 0, 1][id.raw() as usize];
        let mut scratch = LeastLoadedScratch::new();
        let got: Vec<u64> = scratch.order(&ids, load).iter().map(|i| i.raw()).collect();
        // Stable: the three load-1 instances keep their input order.
        assert_eq!(got, vec![4, 1, 3, 5, 2, 0]);
    }

    /// One step of the churn the platform puts a dispatch set through.
    /// `which` fields pick an instance by `which % instances minted`.
    #[derive(Debug, Clone)]
    enum Op {
        /// New instances, as `(rate, batch capacity)`.
        Push {
            instances: Vec<(f64, usize)>,
        },
        RemoveAt(usize),
        /// A fault kills the instance (`remove_by_id`).
        Kill(usize),
        /// Drops the entries with `(id + salt) % 5 == 0` (`retain`).
        Retain(u64),
        /// Consolidation: every entry taken out and pushed back.
        Consolidate,
        Retune {
            rates: Vec<f64>,
        },
        ResetCredits,
        DispatchMany(usize),
        /// A batch start takes up to `take` queued requests.
        Drain {
            which: usize,
            take: usize,
        },
        /// An in-flight resize lands with a new batch capacity.
        Resize {
            which: usize,
            cap: usize,
        },
    }

    /// Integer rates give exact credit ties, `r / 7` rates inexact
    /// credits, and the smallest subnormal rate `inf` credits that tie.
    fn rate_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            (1u64..200).prop_map(|r| r as f64),
            (1u64..200).prop_map(|r| r as f64 / 7.0),
            Just(f64::from_bits(1)),
        ]
    }

    /// Pushes come in runs, so up to ~64 entries build heaps 6 levels
    /// deep. Capacities of 1–4 keep most instances near full, so
    /// dispatches close entries and miss often, as under a drop flood.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let retune_rate = prop_oneof![Just(0.0), rate_strategy(), rate_strategy()];
        let instance = (rate_strategy(), 1usize..5);
        prop_oneof![
            prop::collection::vec(instance, 1..6).prop_map(|instances| Op::Push { instances }),
            (0usize..64).prop_map(Op::RemoveAt),
            any::<usize>().prop_map(Op::Kill),
            (0u64..5).prop_map(Op::Retain),
            Just(Op::Consolidate),
            prop::collection::vec(retune_rate, 0..64).prop_map(|rates| Op::Retune { rates }),
            Just(Op::ResetCredits),
            Just(Op::DispatchMany(1)),
            (1usize..200).prop_map(Op::DispatchMany),
            (any::<usize>(), 1usize..5).prop_map(|(which, take)| Op::Drain { which, take }),
            (any::<usize>(), 1usize..5).prop_map(|(which, take)| Op::Drain { which, take }),
            (any::<usize>(), 1usize..6).prop_map(|(which, cap)| Op::Resize { which, cap }),
        ]
    }

    /// Non-negative credits: zero, exact and inexact quotients,
    /// subnormal quotients, +∞ from the smallest subnormal rate, and
    /// arbitrary bit patterns up to +∞.
    fn credit_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (0u64..1000, rate_strategy()).prop_map(|(sent, rate)| sent as f64 / rate),
            (1u64..4).prop_map(|sent| sent as f64 / f64::MAX),
            (0u64..1000).prop_map(|sent| sent as f64 / f64::from_bits(1)),
            (0u64..=f64::INFINITY.to_bits()).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Over random dispatch-set churn against per-instance queues
        /// the indexed router picks the same winner as the reference on
        /// every dispatch and never offers an entry it holds closed;
        /// every closed entry's queue is full; both end in the same
        /// state; and the heap's invariants hold after every op. The
        /// reference offers every positive-rate instance, full or not.
        #[test]
        fn prop_router_matches_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut indexed = DeficitRouter::new();
            let mut reference: Vec<RouterEntry> = Vec::new();
            // Per minted id: the indexed side's queues and the
            // reference side's, which must stay equal.
            let (mut queues, mut mirror): (Vec<Queue>, Vec<Queue>) = (Vec::new(), Vec::new());
            for op in ops {
                match op {
                    Op::Push { instances } => {
                        for (rate, cap) in instances {
                            let id = queues.len() as u64;
                            queues.push(Queue { cap, len: 0 });
                            mirror.push(Queue { cap, len: 0 });
                            indexed.push(entry(id, rate));
                            reference.push(entry(id, rate));
                            reset(&mut reference);
                        }
                    }
                    Op::RemoveAt(i) => {
                        if i < indexed.len() {
                            let a = indexed.remove_at(i);
                            let b = reference.remove(i);
                            reset(&mut reference);
                            prop_assert_eq!(a.id, b.id);
                        }
                    }
                    Op::Kill(which) if !queues.is_empty() => {
                        let id = InstanceId::new((which % queues.len()) as u64);
                        let a = indexed.remove_by_id(id).map(|e| e.id);
                        let b = reference.iter().position(|e| e.id == id).map(|i| reference.remove(i).id);
                        if b.is_some() {
                            reset(&mut reference);
                        }
                        prop_assert_eq!(a, b);
                    }
                    Op::Kill(_) => {}
                    Op::Retain(salt) => {
                        let keep = |e: &RouterEntry| !(e.id.raw() + salt).is_multiple_of(5);
                        indexed.retain(keep);
                        let before = reference.len();
                        reference.retain(keep);
                        if reference.len() != before {
                            reset(&mut reference);
                        }
                    }
                    Op::Consolidate => {
                        for e in indexed.take_entries() {
                            indexed.push(e);
                        }
                        reset(&mut reference);
                    }
                    Op::Retune { rates } => {
                        let apply = |es: &mut [RouterEntry]| {
                            for (e, r) in es.iter_mut().zip(&rates) {
                                e.rate = *r;
                            }
                        };
                        indexed.retune(apply);
                        apply(&mut reference);
                    }
                    Op::ResetCredits => {
                        indexed.reset_credits();
                        reset(&mut reference);
                    }
                    Op::DispatchMany(n) => {
                        let mut offered = Vec::new();
                        for _ in 0..n {
                            let closed: Vec<InstanceId> = indexed.closed().collect();
                            offered.clear();
                            let got = indexed.dispatch(|id| {
                                offered.push(id);
                                queues[id.raw() as usize].offer()
                            });
                            let want = reference_dispatch(&mut reference, |id| {
                                mirror[id.raw() as usize].offer() != Admission::Refused
                            });
                            prop_assert_eq!(got, want);
                            prop_assert!(
                                offered.iter().all(|id| !closed.contains(id)),
                                "offered a closed entry: {:?} of {:?}", offered, closed
                            );
                        }
                    }
                    Op::Drain { which, take } if !queues.is_empty() => {
                        let i = which % queues.len();
                        let was_full = queues[i].full();
                        for q in [&mut queues[i], &mut mirror[i]] {
                            q.len -= take.min(q.len);
                        }
                        if was_full && !queues[i].full() {
                            indexed.reopen(InstanceId::new(i as u64));
                        }
                    }
                    Op::Resize { which, cap } if !queues.is_empty() => {
                        let i = which % queues.len();
                        let was_full = queues[i].full();
                        queues[i].cap = cap;
                        mirror[i].cap = cap;
                        if was_full && !queues[i].full() {
                            indexed.reopen(InstanceId::new(i as u64));
                        }
                    }
                    Op::Drain { .. } | Op::Resize { .. } => {}
                }
                indexed.check_heap();
                for id in indexed.closed() {
                    prop_assert!(queues[id.raw() as usize].full(), "{:?} closed with room", id);
                }
                // State equivalence after every op.
                prop_assert_eq!(&queues, &mirror);
                prop_assert_eq!(indexed.len(), reference.len());
                for (x, y) in indexed.iter().zip(&reference) {
                    prop_assert_eq!(x.id, y.id);
                    prop_assert_eq!(x.sent, y.sent);
                    prop_assert_eq!(x.rate.to_bits(), y.rate.to_bits());
                }
            }
        }
    }

    proptest! {
        /// Packed-key order is the `(credit <, index <)` order on every
        /// credit a dispatch set can hold.
        #[test]
        fn prop_packed_keys_order_as_credit_then_index(
            a in credit_strategy(),
            b in credit_strategy(),
            same in any::<bool>(),
            i in any::<u32>(),
            j in any::<u32>(),
        ) {
            let b = if same { a } else { b };
            prop_assert_eq!(key(a, i) < key(b, j), a < b || (a == b && i < j));
            prop_assert_eq!(key(a, i) == key(b, j), a == b && i == j);
            prop_assert_eq!(index(key(a, i)), i as usize);
        }
    }
}
