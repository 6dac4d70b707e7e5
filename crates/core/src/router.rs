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
//!   Heap slots hold `(credit, entry index)`, so comparisons never
//!   divide. The accepting root is charged in place (`sent += 1`, key
//!   recomputed); a credit only grows, so it can only sink. Instances
//!   whose pending batch is full wait in a reused scratch buffer and
//!   are reinserted, keys unchanged, after the decision.
//! * **Identical routing order.** `(credit, insertion index)` is a
//!   strict total order, the order a stable sort by credit produces,
//!   so every valid heap yields the same minimum. A cached key comes
//!   from the same `sent / rate` expression as a fresh one, so it is
//!   bit-equal to it. Routing matches the straightforward reference
//!   implementation request for request (pinned by a property test).
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

/// A heap slot: an entry's cached credit and its index in `entries`.
type Key = (f64, u32);

/// The strict `(credit, index)` order. A credit is never NaN: `rate`
/// is positive and `sent` finite (a subnormal rate gives `inf`, which
/// ties with `inf` and falls back to the index).
fn less(a: Key, b: Key) -> bool {
    debug_assert!(!a.0.is_nan() && !b.0.is_nan(), "credits are never NaN");
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Min-heap of cached dispatch-set credits. See the module docs.
#[derive(Debug, Default)]
pub struct DeficitRouter {
    /// Entries in insertion order (the tie-break order).
    entries: Vec<RouterEntry>,
    /// Binary min-heap under [`less`] over the positive-rate entries.
    heap: Vec<Key>,
    /// Entries popped as full during the current dispatch, awaiting
    /// reinsertion. Reused across calls.
    scratch: Vec<Key>,
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
    /// full).
    pub fn dispatch(
        &mut self,
        mut try_enqueue: impl FnMut(InstanceId) -> bool,
    ) -> Option<InstanceId> {
        if self.dirty {
            self.rebuild();
        }
        debug_assert!(self.scratch.is_empty());
        let mut hit = None;
        while let Some(&(_, idx)) = self.heap.first() {
            let e = &mut self.entries[idx as usize];
            if try_enqueue(e.id) {
                e.sent += 1;
                self.heap[0].0 = e.credit();
                hit = Some(e.id);
                self.sift_down(0);
                break;
            }
            self.scratch.push(self.heap.swap_remove(0));
            self.sift_down(0);
        }
        while let Some(key) = self.scratch.pop() {
            self.insert(key);
        }
        hit
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
                .map(|(i, e)| (e.credit(), i as u32)),
        );
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
        self.dirty = false;
    }

    fn insert(&mut self, key: Key) {
        let mut slot = self.heap.len();
        self.heap.push(key);
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if !less(self.heap[slot], self.heap[parent]) {
                break;
            }
            self.heap.swap(slot, parent);
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        let heap = &mut self.heap;
        loop {
            let left = 2 * slot + 1;
            if left >= heap.len() {
                break;
            }
            let right = left + 1;
            let best = if right < heap.len() && less(heap[right], heap[left]) {
                right
            } else {
                left
            };
            if !less(heap[best], heap[slot]) {
                break;
            }
            heap.swap(slot, best);
            slot = best;
        }
    }

    /// Asserts the heap invariants: the heap property under [`less`],
    /// every cached key bit-equal to its entry's credit, and exactly
    /// the positive-rate entries present. A dirty heap is stale by
    /// design (the next dispatch rebuilds it), so it is not checked.
    #[cfg(test)]
    fn check_heap(&self) {
        assert!(self.scratch.is_empty());
        if self.dirty {
            return;
        }
        for (slot, &(key, idx)) in self.heap.iter().enumerate() {
            assert!(slot == 0 || !less((key, idx), self.heap[(slot - 1) / 2]));
            assert_eq!(key.to_bits(), self.entries[idx as usize].credit().to_bits());
        }
        let mut held: Vec<u32> = self.heap.iter().map(|&(_, idx)| idx).collect();
        held.sort_unstable();
        let positive =
            (0..self.entries.len() as u32).filter(|&i| self.entries[i as usize].rate > 0.0);
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
        // Refused entries were reinserted: a normal dispatch still works.
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
        DispatchMany { n: usize, salt: u64 },
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
            (0u64..20).prop_map(|salt| Op::DispatchMany { n: 1, salt }),
            (1usize..200, 0u64..20).prop_map(|(n, salt)| Op::DispatchMany { n, salt }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Tentpole pin: over random dispatch-set churn the indexed
        /// router emits the identical request→instance sequence as the
        /// reference implementation, both end in the same state, and
        /// the heap's invariants hold after every op.
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
                    Op::DispatchMany { n, salt } => {
                        // Acceptance must be a pure function of the
                        // instance id so both routers see the same
                        // "queue full" answers.
                        let accept = |id: InstanceId| !(id.raw() + salt).is_multiple_of(4);
                        for _ in 0..n {
                            let b = reference_dispatch(&mut reference, accept);
                            prop_assert_eq!(indexed.dispatch(accept), b);
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
}
