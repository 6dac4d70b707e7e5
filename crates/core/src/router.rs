//! Indexed deficit router: the request hot path.
//!
//! The dispatcher (§3.2 ❷) routes every arrival to the dispatch-set
//! instance whose target rate is least satisfied — the instance with
//! the lowest *credit* `sent / rate`. The original implementation
//! rebuilt and sorted a candidate `Vec` per request, an O(n log n)
//! allocation on the hottest path in the simulator. [`DeficitRouter`]
//! replaces it with a binary min-heap of cached credits:
//!
//! * **One division and one sift-down per dispatch, no allocation.**
//!   Heap slots hold `(credit, entry index)` packed into one integer,
//!   so a comparison is one integer compare and never divides. The
//!   router offers slots best-first: the root, then the least key on a
//!   frontier of the refused slots' children. A refusal (pending batch
//!   full) leaves the heap untouched. The accepting slot is charged in
//!   place (`sent += 1`, key recomputed); a credit only grows, so one
//!   sift-down from that slot restores the heap.
//! * **Identical routing order.** `(credit, insertion index)` is a
//!   strict total order, the order a stable sort by credit produces,
//!   and a child's key is never below its parent's, so the walk offers
//!   instances in exactly ascending key order. A cached key comes from
//!   the same `sent / rate` expression as a fresh one, so it is
//!   bit-equal to it. Routing matches the straightforward reference
//!   implementation offer for offer (pinned by a property test).
//!
//! Credit staleness fix: credits are *relative* — an entry added to a
//! set whose veterans carry large `sent` counters would have credit 0
//! and absorb nearly all traffic until it "caught up". The router
//! therefore resets every credit to zero whenever the dispatch-set
//! membership changes (push, removal, restore), so routing always
//! tracks the *current* target rates rather than stale history.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Binary min-heap of packed keys over the positive-rate entries.
    heap: Vec<Key>,
    /// The best-first walk's frontier during a dispatch: `(key, slot)`
    /// of the refused slots' children, least key first. Reused across
    /// calls.
    frontier: BinaryHeap<Reverse<(Key, usize)>>,
    /// When set, the heap is rebuilt lazily before the next dispatch
    /// (membership or rate changes invalidate it wholesale).
    dirty: bool,
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

    /// Adds an instance to the dispatch set. Membership changed, so
    /// every credit resets — see the module docs.
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
        self.reset_credits();
        e
    }

    /// Removes the entry for `id`, if present. Credits reset on
    /// removal.
    pub fn remove_by_id(&mut self, id: InstanceId) -> Option<RouterEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.remove_at(pos))
    }

    /// Keeps only the entries matching `pred` (insertion order
    /// preserved). Credits reset if anything was dropped.
    pub fn retain(&mut self, pred: impl FnMut(&RouterEntry) -> bool) {
        let before = self.entries.len();
        self.entries.retain(pred);
        if self.entries.len() != before {
            self.reset_credits();
        }
    }

    /// Takes the whole dispatch set out (consolidation), leaving the
    /// router empty but with its buffers intact.
    pub fn take_entries(&mut self) -> Vec<RouterEntry> {
        self.dirty = true;
        std::mem::take(&mut self.entries)
    }

    /// Applies controller re-tuning (rates, credit zeroing) to the
    /// entries in insertion order, then re-indexes.
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

    /// Routes one request: offers instances in ascending credit order
    /// (ties: insertion order) until `try_enqueue` accepts one, charges
    /// that instance's deficit counter, and returns its id. Returns
    /// `None` when every positive-rate instance refuses (pending batch
    /// full); the heap is then unchanged.
    pub fn dispatch(
        &mut self,
        mut try_enqueue: impl FnMut(InstanceId) -> bool,
    ) -> Option<InstanceId> {
        if self.dirty {
            self.rebuild();
        }
        self.frontier.clear();
        let mut slot = 0;
        let mut next = *self.heap.first()?;
        loop {
            let i = index(next);
            let e = &mut self.entries[i];
            let id = e.id;
            if try_enqueue(id) {
                e.sent += 1;
                self.heap[slot] = key(e.credit(), i as u32);
                self.sift_down(slot);
                return Some(id);
            }
            for child in [2 * slot + 1, 2 * slot + 2] {
                if let Some(&k) = self.heap.get(child) {
                    self.frontier.push(Reverse((k, child)));
                }
            }
            Reverse((next, slot)) = self.frontier.pop()?;
        }
    }

    // --- heap internals ----------------------------------------------------

    /// Recomputes every positive-rate key and heapifies bottom-up.
    fn rebuild(&mut self) {
        self.heap.clear();
        self.heap.extend(
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.rate > 0.0)
                .map(|(i, e)| key(e.credit(), i as u32)),
        );
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
        self.dirty = false;
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

    /// Asserts the heap invariants: the heap property under key order,
    /// every cached key bit-equal to its entry's credit, and exactly
    /// the positive-rate entries present. A dirty heap is stale by
    /// design (the next dispatch rebuilds it), so it is not checked.
    #[cfg(test)]
    fn check_heap(&self) {
        if self.dirty {
            return;
        }
        for (slot, &k) in self.heap.iter().enumerate() {
            assert!(slot == 0 || k > self.heap[(slot - 1) / 2]);
            let credit = self.entries[index(k)].credit();
            assert_eq!((k >> 32) as u64, credit.to_bits());
        }
        let mut held: Vec<usize> = self.heap.iter().map(|&k| index(k)).collect();
        held.sort_unstable();
        let positive = (0..self.entries.len()).filter(|&i| self.entries[i].rate > 0.0);
        assert!(
            held.into_iter().eq(positive),
            "heap holds the positive-rate entries"
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
        let mut r = DeficitRouter::new();
        r.push(entry(0, 100.0));
        r.push(entry(1, 1.0));
        // Instance 0 (lowest credit) refuses; 1 takes it.
        assert_eq!(
            r.dispatch(|id| id != InstanceId::new(0)),
            Some(InstanceId::new(1))
        );
        // Everyone refuses.
        assert_eq!(r.dispatch(|_| false), None);
        // Refusals left the heap as it was: a normal dispatch still works.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    #[test]
    fn zero_rate_entries_are_skipped() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 0.0));
        assert_eq!(r.dispatch(|_| true), None);
        r.retune(|es| es[0].rate = 5.0);
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    /// A dispatch every instance refuses offers each one once and
    /// leaves every cached key bit-identical; routing then carries on
    /// exactly as the reference does.
    #[test]
    fn full_refusal_leaves_keys_untouched() {
        let mut r = DeficitRouter::new();
        let mut reference = Vec::new();
        for (id, rate) in [3.0, 5.0, 7.0, 2.0 / 7.0, 11.0, 5.0, 13.0]
            .into_iter()
            .enumerate()
        {
            r.push(entry(id as u64, rate));
            reference.push(entry(id as u64, rate));
        }
        for _ in 0..40 {
            assert_eq!(
                r.dispatch(|_| true),
                reference_dispatch(&mut reference, |_| true)
            );
        }
        let keys = r.heap.clone();
        let mut offered = Vec::new();
        let refuse = |id| {
            offered.push(id);
            false
        };
        assert_eq!(r.dispatch(refuse), None);
        assert_eq!(reference_dispatch(&mut reference, |_| false), None);
        assert_eq!(offered.len(), 7);
        assert_eq!(r.heap, keys);
        r.check_heap();
        for _ in 0..40 {
            assert_eq!(
                r.dispatch(|_| true),
                reference_dispatch(&mut reference, |_| true)
            );
        }
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

    #[derive(Debug, Clone)]
    enum Op {
        Push { rates: Vec<f64> },
        RemoveAt(usize),
        Retune { rates: Vec<f64> },
        ResetCredits,
        DispatchMany { n: usize, accept: Accept },
    }

    /// How `try_enqueue` answers within one dispatch: a function of the
    /// offered id and of how many offers came before it, so both routers
    /// give the same answers as long as they offer the same sequence.
    #[derive(Debug, Clone, Copy)]
    enum Accept {
        /// Refuses the ids with `(id + salt) % 4 == 0`.
        MostIds(u64),
        /// Accepts only the ids with `(id + salt) % 4 == 0`: most
        /// dispatches walk deep, as under a drop flood.
        FewIds(u64),
        /// Refuses every offer.
        Nobody,
        /// Accepts only the offer after `n` refusals, so a non-root
        /// slot is charged.
        After(usize),
    }

    impl Accept {
        fn answer(self, id: InstanceId, refused: usize) -> bool {
            match self {
                Accept::MostIds(salt) => !(id.raw() + salt).is_multiple_of(4),
                Accept::FewIds(salt) => (id.raw() + salt).is_multiple_of(4),
                Accept::Nobody => false,
                Accept::After(n) => refused == n,
            }
        }

        /// A `try_enqueue` that answers by `self` and logs each offer
        /// into `offered`, which starts the dispatch empty.
        fn logging(self, offered: &mut Vec<InstanceId>) -> impl FnMut(InstanceId) -> bool + '_ {
            offered.clear();
            move |id| {
                let refused = offered.len();
                offered.push(id);
                self.answer(id, refused)
            }
        }
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
    /// deep.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let retune_rate = prop_oneof![Just(0.0), rate_strategy(), rate_strategy()];
        prop_oneof![
            prop::collection::vec(rate_strategy(), 1..6).prop_map(|rates| Op::Push { rates }),
            (0usize..64).prop_map(Op::RemoveAt),
            prop::collection::vec(retune_rate, 0..64).prop_map(|rates| Op::Retune { rates }),
            Just(Op::ResetCredits),
            accept_strategy().prop_map(|accept| Op::DispatchMany { n: 1, accept }),
            (1usize..200, accept_strategy()).prop_map(|(n, accept)| Op::DispatchMany { n, accept }),
        ]
    }

    fn accept_strategy() -> impl Strategy<Value = Accept> {
        prop_oneof![
            (0u64..20).prop_map(Accept::MostIds),
            (0u64..20).prop_map(Accept::FewIds),
            Just(Accept::Nobody),
            (0usize..70).prop_map(Accept::After),
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

        /// Over random dispatch-set churn the indexed router offers the
        /// same instances in the same order and picks the same winner
        /// as the reference implementation, both end in the same state,
        /// and the heap's invariants hold after every op.
        #[test]
        fn prop_router_matches_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut indexed = DeficitRouter::new();
            let mut reference: Vec<RouterEntry> = Vec::new();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Op::Push { rates } => {
                        for rate in rates {
                            indexed.push(entry(next_id, rate));
                            reference.push(entry(next_id, rate));
                            reset(&mut reference);
                            next_id += 1;
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
                    Op::DispatchMany { n, accept } => {
                        // The engine enqueues in offer order, so the
                        // offered sequence is pinned, not just the winner.
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        for _ in 0..n {
                            let want = reference_dispatch(&mut reference, accept.logging(&mut b));
                            prop_assert_eq!(indexed.dispatch(accept.logging(&mut a)), want);
                            prop_assert_eq!(&a, &b);
                        }
                    }
                }
                indexed.check_heap();
                // State equivalence after every op.
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
