//! Multi-function workloads: per-function arrival sources, merged as a
//! run reads them.

use std::sync::OnceLock;

use infless_sim::{SimDuration, SimTime, Staged};
use serde::{Deserialize, Serialize};

use crate::arrivals::{constant_at, constant_plan, PoissonBins};
use crate::series::RateSeries;
use crate::traces::TracePattern;

/// The load offered to one function: its rate curve plus how arrivals
/// are drawn from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionLoad {
    kind: LoadKind,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LoadKind {
    /// Poisson arrivals following a rate curve.
    Poisson(RateSeries),
    /// Evenly-spaced arrivals at the curve's mean rate for `duration`,
    /// which the curve's whole one-minute bins may overrun.
    Constant {
        series: RateSeries,
        duration: SimDuration,
    },
    /// An explicit, pre-sorted arrival list (single-shot timers,
    /// replayed production traces).
    Explicit(Vec<SimTime>),
}

impl FunctionLoad {
    /// Poisson arrivals following `series`.
    pub fn poisson(series: RateSeries) -> Self {
        FunctionLoad {
            kind: LoadKind::Poisson(series),
        }
    }

    /// Evenly-spaced arrivals at constant `rps` for `duration`
    /// (stress-test load).
    pub fn constant(rps: f64, duration: SimDuration) -> Self {
        FunctionLoad {
            kind: LoadKind::Constant {
                series: RateSeries::constant(rps, duration),
                duration,
            },
        }
    }

    /// A Poisson load following a synthetic trace pattern.
    pub fn trace(pattern: TracePattern, mean_rps: f64, duration: SimDuration, seed: u64) -> Self {
        FunctionLoad::poisson(pattern.generate(mean_rps, duration, seed))
    }

    /// Exact arrival timestamps — single-shot timer functions and trace
    /// replays. The list is sorted internally.
    pub fn explicit(mut times: Vec<SimTime>) -> Self {
        times.sort_unstable();
        FunctionLoad {
            kind: LoadKind::Explicit(times),
        }
    }

    /// The underlying rate curve, if the load is curve-driven.
    pub fn series(&self) -> Option<&RateSeries> {
        match &self.kind {
            LoadKind::Poisson(s) | LoadKind::Constant { series: s, .. } => Some(s),
            LoadKind::Explicit(_) => None,
        }
    }
}

/// A complete workload: one arrival source per function, described
/// rather than sampled. A run reads it through an [`ArrivalSource`],
/// which merges the functions' arrivals into one sequence of
/// `(time, function index)` pairs — exactly what a platform's gateway
/// consumes — a chunk at a time, so neither set-up nor memory grows
/// with the number of arrivals.
///
/// # Example
///
/// ```
/// use infless_sim::{EventQueue, SimDuration, SimTime, StagedStream};
/// use infless_workload::{FunctionLoad, Workload};
///
/// let w = Workload::build(
///     &[
///         FunctionLoad::constant(10.0, SimDuration::from_secs(2)),
///         FunctionLoad::constant(5.0, SimDuration::from_secs(2)),
///     ],
///     99,
/// );
/// assert_eq!(w.len(), 30);
///
/// let mut stream = StagedStream::from_source(w.source(SimDuration::ZERO, |_| true));
/// let mut queue: EventQueue<usize> = EventQueue::new();
/// let mut last = SimTime::ZERO;
/// let mut n = 0;
/// while let Some((t, _function)) = stream.next(&mut queue, |f| f) {
///     assert!(t >= last);
///     last = t;
///     n += 1;
/// }
/// assert_eq!((n, last), (30, w.end_time()));
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    lanes: Vec<Lane>,
    /// `(arrival count, last arrival time)`, computed on first use.
    totals: OnceLock<(usize, SimTime)>,
    /// The merged list, built by the first call to [`Workload::arrivals`].
    merged: OnceLock<Vec<(SimTime, usize)>>,
}

/// One function's arrivals, as a description.
#[derive(Debug, Clone, PartialEq)]
enum Lane {
    /// A sorted list.
    Explicit(Vec<SimTime>),
    /// `n` arrivals `gap` seconds apart, from time zero.
    Constant { n: u64, gap: f64 },
    /// Poisson arrivals drawn from `series` with `seed`.
    Poisson { series: RateSeries, seed: u64 },
}

impl Lane {
    fn cursor(&self) -> LaneArrivals<'_> {
        let generated = |source| LaneArrivals::Generated {
            source,
            buf: Vec::new(),
            pos: 0,
        };
        match self {
            Lane::Explicit(times) => LaneArrivals::Explicit(times),
            &Lane::Constant { n, gap } => generated(Generator::Constant { next: 0, n, gap }),
            Lane::Poisson { series, seed } => {
                generated(Generator::Poisson(PoissonBins::new(series, *seed)))
            }
        }
    }

    /// The arrival count and the last arrival's time. Only a Poisson
    /// lane has to draw its arrivals to know them.
    fn totals(&self) -> (usize, Option<SimTime>) {
        match self {
            Lane::Explicit(times) => (times.len(), times.last().copied()),
            &Lane::Constant { n, gap } => {
                (n as usize, n.checked_sub(1).map(|i| constant_at(i, gap)))
            }
            Lane::Poisson { series, seed } => {
                let mut bins = PoissonBins::new(series, *seed);
                let mut bin = Vec::new();
                let (mut count, mut last) = (0, None);
                while bins.next_bin(&mut bin) {
                    count += bin.len();
                    last = bin.last().copied().or(last);
                    bin.clear();
                }
                (count, last)
            }
        }
    }
}

/// The remaining arrivals of one lane, read through a window of the
/// next ones.
#[derive(Debug)]
enum LaneArrivals<'a> {
    /// The rest of an explicit list.
    Explicit(&'a [SimTime]),
    /// Arrivals generated a block at a time into `buf`; the window is
    /// `buf[pos..]`.
    Generated {
        source: Generator<'a>,
        buf: Vec<SimTime>,
        pos: usize,
    },
}

/// Where a generated lane's arrivals come from.
#[derive(Debug)]
enum Generator<'a> {
    Constant { next: u64, n: u64, gap: f64 },
    Poisson(PoissonBins<'a>),
}

impl Generator<'_> {
    /// Appends the next arrivals to `buf` ([`BLOCK`] of a constant load,
    /// or one bin, possibly silent, of a Poisson load). Returns `false`,
    /// appending nothing, once the load is exhausted.
    fn extend(&mut self, buf: &mut Vec<SimTime>) -> bool {
        match self {
            Generator::Constant { next, n, gap } => {
                let end = (*next + BLOCK as u64).min(*n);
                buf.extend((*next..end).map(|i| constant_at(i, *gap)));
                let more = end > *next;
                *next = end;
                more
            }
            Generator::Poisson(bins) => bins.next_bin(buf),
        }
    }
}

impl LaneArrivals<'_> {
    /// Reads ahead until the window holds at least `need` arrivals and,
    /// given `past`, one later than it — or the lane is exhausted.
    fn read_ahead(&mut self, need: usize, past: Option<SimTime>) {
        let LaneArrivals::Generated { source, buf, pos } = self else {
            return;
        };
        let ahead =
            |buf: &[SimTime]| buf.len() >= need && past.is_none_or(|p| buf.last() > Some(&p));
        if !ahead(&buf[*pos..]) {
            buf.drain(..*pos);
            *pos = 0;
            while !ahead(buf) && source.extend(buf) {}
        }
    }

    /// The arrivals read ahead, in time order.
    fn window(&self) -> &[SimTime] {
        match self {
            LaneArrivals::Explicit(rest) => rest,
            LaneArrivals::Generated { buf, pos, .. } => &buf[*pos..],
        }
    }

    /// Drops the window's first `n` arrivals.
    fn consume(&mut self, n: usize) {
        match self {
            LaneArrivals::Explicit(rest) => *rest = &rest[n..],
            LaneArrivals::Generated { pos, .. } => *pos += n,
        }
    }
}

impl Workload {
    /// Describes every function's arrivals (independent streams derived
    /// from `seed`). Nothing is sampled here: explicit lists are copied,
    /// constant loads reduce to a count and a spacing, and Poisson loads
    /// keep their rate curve and sub-seed.
    pub fn build(loads: &[FunctionLoad], seed: u64) -> Self {
        let lanes = loads
            .iter()
            .enumerate()
            .map(|(i, load)| match &load.kind {
                LoadKind::Constant { series, duration } if series.mean() > 0.0 => {
                    let (n, gap) = constant_plan(series.mean(), *duration);
                    Lane::Constant { n, gap }
                }
                LoadKind::Constant { .. } => Lane::Explicit(Vec::new()),
                LoadKind::Poisson(series) => Lane::Poisson {
                    series: series.clone(),
                    seed: infless_sim::rng::derive_seed(seed, &format!("workload/fn{i}")),
                },
                LoadKind::Explicit(times) => Lane::Explicit(times.clone()),
            })
            .collect();
        Workload {
            lanes,
            totals: OnceLock::new(),
            merged: OnceLock::new(),
        }
    }

    /// The arrivals of the functions `keep` selects, merged on
    /// `(time, function index)` and delayed by `shift`, read a chunk at
    /// a time.
    pub fn source(&self, shift: SimDuration, keep: impl Fn(usize) -> bool) -> ArrivalSource<'_> {
        let lanes = (self.lanes.iter().enumerate())
            .filter(|&(f, _)| keep(f))
            .map(|(f, lane)| (f, lane.cursor()))
            .collect();
        let mut source = ArrivalSource {
            lanes,
            shift,
            chunk: Vec::new(),
            runs: Vec::new(),
            scratch: Vec::new(),
            last: SimTime::ZERO,
        };
        source.fill();
        source
    }

    /// The merged `(time, function index)` list, sorted by time and
    /// built on first use. Runs read arrivals through
    /// [`source`](Self::source) instead; this list serves tests and
    /// layer drivers that want the whole sequence as a slice.
    pub fn arrivals(&self) -> &[(SimTime, usize)] {
        self.merged.get_or_init(|| {
            let mut source = self.source(SimDuration::ZERO, |_| true);
            let mut all = Vec::new();
            while !source.chunk.is_empty() {
                all.extend_from_slice(&source.chunk);
                source.fill();
            }
            all
        })
    }

    fn totals(&self) -> (usize, SimTime) {
        *self.totals.get_or_init(|| {
            self.lanes
                .iter()
                .map(Lane::totals)
                .fold((0, SimTime::ZERO), |(n, end), (count, last)| {
                    (n + count, last.map_or(end, |t| end.max(t)))
                })
        })
    }

    /// Total number of requests. Explicit and constant loads answer
    /// from their description; a Poisson load draws its arrivals once,
    /// without keeping them.
    pub fn len(&self) -> usize {
        self.totals().0
    }

    /// `true` if the workload contains no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of functions the workload addresses.
    pub fn functions(&self) -> usize {
        self.lanes.len()
    }

    /// The time of the last arrival, or zero for an empty workload;
    /// computed like [`len`](Self::len).
    pub fn end_time(&self) -> SimTime {
        self.totals().1
    }
}

/// Two workloads are equal when they describe the same arrivals.
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.lanes == other.lanes
    }
}

/// How far ahead each lane is read per [`ArrivalSource::fill`]: a
/// chunk holds at least this many arrivals (until the end), and at most
/// this many per lane plus ties. Unit tests use a short block so that
/// small workloads cross chunk boundaries.
const BLOCK: usize = if cfg!(test) { 5 } else { 1024 };

/// A workload's arrivals merged on `(time, function index)` — the order
/// a global sort of every arrival would give — into a reused chunk.
/// Built by [`Workload::source`]; a [`StagedStream`] reads it.
///
/// Each fill reads every lane's window of its next 1,024 arrivals.
/// The earliest window end is the chunk's horizon: every arrival up to
/// and including it, from every lane, goes into the chunk as one sorted
/// run per lane, lane after lane in ascending function order. Merging
/// adjacent runs pairwise on time alone, the left run first on a tie,
/// then yields `(time, function)` order. Whatever is left lies after
/// the horizon.
///
/// [`StagedStream`]: infless_sim::StagedStream
#[derive(Debug)]
pub struct ArrivalSource<'a> {
    /// The selected functions' indices, ascending, with their remaining
    /// arrivals.
    lanes: Vec<(usize, LaneArrivals<'a>)>,
    shift: SimDuration,
    chunk: Vec<(SimTime, usize)>,
    /// Where each run starts in the chunk, then the chunk's length.
    runs: Vec<usize>,
    /// The merge's second buffer.
    scratch: Vec<(SimTime, usize)>,
    last: SimTime,
}

impl ArrivalSource<'_> {
    /// The latest arrival merged so far, before the shift; once the
    /// source is exhausted, the last arrival of its functions (zero if
    /// they have none).
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// Replaces the chunk with every remaining arrival up to the next
    /// horizon.
    fn fill(&mut self) {
        self.chunk.clear();
        self.runs.clear();
        for (_, lane) in &mut self.lanes {
            lane.read_ahead(BLOCK, None);
        }
        let horizon = (self.lanes.iter())
            .filter_map(|(_, lane)| lane.window().get(BLOCK - 1).copied())
            .min()
            .unwrap_or(SimTime::MAX);
        // Arrivals tied at the horizon may lie past a window.
        for (_, lane) in &mut self.lanes {
            lane.read_ahead(0, Some(horizon));
        }
        let due = |window: &[SimTime]| window.partition_point(|&t| t <= horizon);
        let runs: Vec<(usize, &[SimTime])> = (self.lanes.iter())
            .map(|(f, lane)| (*f, &lane.window()[..due(lane.window())]))
            .filter(|(_, run)| !run.is_empty())
            .collect();
        // The first merge pass reads the lanes' windows in place.
        let shift = self.shift;
        for pair in runs.chunks(2) {
            self.runs.push(self.chunk.len());
            match *pair {
                [(f, a), (g, b)] => merge_two(
                    a,
                    b,
                    &mut self.chunk,
                    |&t| t,
                    |t| (t + shift, f),
                    |t| (t + shift, g),
                ),
                [(f, a)] => self.chunk.extend(a.iter().map(|&t| (t + shift, f))),
                _ => unreachable!("chunks of two"),
            }
        }
        for (_, lane) in &mut self.lanes {
            lane.consume(due(lane.window()));
        }
        self.lanes.retain_mut(|(_, lane)| {
            lane.read_ahead(1, None);
            !lane.window().is_empty()
        });
        self.runs.push(self.chunk.len());
        while self.runs.len() > 2 {
            self.merge_pass();
        }
        if let Some(&(t, _)) = self.chunk.last() {
            self.last = t.saturating_sub(self.shift);
        }
    }

    /// Merges the chunk's runs pairwise into the scratch buffer, which
    /// then becomes the chunk.
    fn merge_pass(&mut self) {
        let (chunk, runs, out) = (&self.chunk, &mut self.runs, &mut self.scratch);
        out.clear();
        out.reserve(chunk.len());
        let mut merged = 0;
        for i in (0..runs.len() - 1).step_by(2) {
            let start = runs[i];
            match runs.get(i + 2) {
                Some(&end) => {
                    let (a, b) = chunk[start..end].split_at(runs[i + 1] - start);
                    merge_two(a, b, out, |e| e.0, |e| e, |e| e);
                }
                // An odd run out passes through.
                None => out.extend_from_slice(&chunk[start..]),
            }
            runs[merged] = start;
            merged += 1;
        }
        runs[merged] = chunk.len();
        runs.truncate(merged + 1);
        std::mem::swap(&mut self.chunk, &mut self.scratch);
    }
}

/// Appends the merge of two time-sorted runs to `out`, wrapping each
/// entry by the run it came from; `a`'s entry goes first on a tie.
#[inline]
fn merge_two<T: Copy, U>(
    a: &[T],
    b: &[T],
    out: &mut Vec<U>,
    time: impl Fn(&T) -> SimTime,
    from_a: impl Fn(T) -> U,
    from_b: impl Fn(T) -> U,
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if time(&b[j]) < time(&a[i]) {
            out.push(from_b(b[j]));
            j += 1;
        } else {
            out.push(from_a(a[i]));
            i += 1;
        }
    }
    out.extend(a[i..].iter().map(|&e| from_a(e)));
    out.extend(b[j..].iter().map(|&e| from_b(e)));
}

impl Staged for ArrivalSource<'_> {
    type Payload = usize;

    #[inline]
    fn chunk(&self) -> &[(SimTime, usize)] {
        &self.chunk
    }

    fn advance(&mut self) {
        self.fill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{constant_arrivals, poisson_arrivals};
    use infless_sim::{EventQueue, StagedStream};
    use proptest::prelude::*;

    /// The merged list by definition: every function's arrivals sampled
    /// whole, concatenated and sorted.
    fn reference(loads: &[FunctionLoad], seed: u64) -> Vec<(SimTime, usize)> {
        let mut all = Vec::new();
        for (i, load) in loads.iter().enumerate() {
            let times = match &load.kind {
                LoadKind::Constant { series, duration } if series.mean() > 0.0 => {
                    constant_arrivals(series.mean(), *duration)
                }
                LoadKind::Constant { .. } => Vec::new(),
                LoadKind::Poisson(series) => {
                    let sub_seed = infless_sim::rng::derive_seed(seed, &format!("workload/fn{i}"));
                    poisson_arrivals(series, sub_seed)
                }
                LoadKind::Explicit(times) => times.clone(),
            };
            all.extend(times.into_iter().map(|t| (t, i)));
        }
        all.sort_unstable();
        all
    }

    /// Reads `source` to the end through a [`StagedStream`]; returns
    /// the arrivals and the source's `last()` once exhausted.
    fn drain(source: ArrivalSource<'_>) -> (Vec<(SimTime, usize)>, SimTime) {
        let mut stream = StagedStream::from_source(source);
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut out = Vec::new();
        while let Some(arrival) = stream.next(&mut queue, |f| f) {
            out.push(arrival);
        }
        (out, stream.source().last())
    }

    /// Poisson, constant (tie-prone rates, some empty, and one so fast
    /// that consecutive arrivals share a microsecond) and explicit
    /// (millisecond grid, duplicates, some empty) loads.
    fn load() -> impl Strategy<Value = FunctionLoad> {
        prop_oneof![
            (prop::collection::vec(0.0f64..40.0, 1..5), 1u64..4).prop_map(|(rates, bin)| {
                FunctionLoad::poisson(RateSeries::new(SimDuration::from_secs(bin), rates))
            }),
            (0u32..5, 1u64..6).prop_map(|(k, secs)| {
                FunctionLoad::constant(f64::from(k) * 10.0, SimDuration::from_secs(secs))
            }),
            (1u64..3)
                .prop_map(|ms| { FunctionLoad::constant(1.5e6, SimDuration::from_millis(ms)) }),
            prop::collection::vec(0u64..2_000, 0..60).prop_map(|ms| {
                FunctionLoad::explicit(ms.into_iter().map(SimTime::from_millis).collect())
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merged stream equals a global sort of every arrival,
        /// whatever the mix of loads, the shift and the function
        /// filter; the counts and the end time equal the sorted list's.
        #[test]
        fn prop_stream_equals_global_sort(
            loads in prop::collection::vec(load(), 0..6),
            seed in 0u64..1_000,
            shift_us in prop_oneof![Just(0u64), 1u64..5_000],
            mask in 0u32..64,
        ) {
            let w = Workload::build(&loads, seed);
            let all = reference(&loads, seed);
            prop_assert_eq!(w.arrivals(), &all[..]);
            prop_assert_eq!(w.len(), all.len());
            prop_assert_eq!(w.is_empty(), all.is_empty());
            prop_assert_eq!(w.end_time(), all.last().map_or(SimTime::ZERO, |a| a.0));

            let shift = SimDuration::from_micros(shift_us);
            let keep = |f: usize| mask & (1 << f) != 0;
            let kept: Vec<(SimTime, usize)> = all.iter().filter(|a| keep(a.1)).copied().collect();
            let shifted: Vec<(SimTime, usize)> = kept.iter().map(|&(t, f)| (t + shift, f)).collect();
            let (streamed, last) = drain(w.source(shift, keep));
            prop_assert_eq!(streamed, shifted);
            prop_assert_eq!(last, kept.last().map_or(SimTime::ZERO, |a| a.0));
        }
    }

    #[test]
    fn merge_preserves_all_arrivals() {
        let loads = [
            FunctionLoad::constant(20.0, SimDuration::from_secs(5)),
            FunctionLoad::trace(TracePattern::Periodic, 30.0, SimDuration::from_secs(60), 1),
        ];
        let w = Workload::build(&loads, 42);
        assert_eq!(w.functions(), 2);
        let f0 = w.arrivals().iter().filter(|(_, f)| *f == 0).count();
        assert_eq!(f0, 100);
        assert!(!w.is_empty());
        assert!(w.end_time() > SimTime::ZERO);
    }

    /// A constant load ends at its duration, not at the end of the
    /// rate curve's last whole-minute bin.
    #[test]
    fn constant_load_stops_at_its_duration() {
        for (secs, n, last_ms) in [(90, 900, 89_900), (250, 2_500, 249_900)] {
            let w = Workload::build(
                &[FunctionLoad::constant(10.0, SimDuration::from_secs(secs))],
                0,
            );
            assert_eq!(w.len(), n, "{secs} s");
            assert_eq!(w.end_time(), SimTime::from_millis(last_ms), "{secs} s");
            assert_eq!(w.arrivals().len(), n, "{secs} s");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let loads = [FunctionLoad::trace(
            TracePattern::Bursty,
            50.0,
            SimDuration::from_mins(3),
            7,
        )];
        assert_eq!(Workload::build(&loads, 1), Workload::build(&loads, 1));
        assert_ne!(Workload::build(&loads, 1), Workload::build(&loads, 2));
    }

    #[test]
    fn functions_get_independent_streams() {
        let loads = [
            FunctionLoad::trace(TracePattern::Periodic, 10.0, SimDuration::from_mins(2), 1),
            FunctionLoad::trace(TracePattern::Periodic, 10.0, SimDuration::from_mins(2), 1),
        ];
        let w = Workload::build(&loads, 3);
        let f0: Vec<SimTime> = w
            .arrivals()
            .iter()
            .filter(|(_, f)| *f == 0)
            .map(|(t, _)| *t)
            .collect();
        let f1: Vec<SimTime> = w
            .arrivals()
            .iter()
            .filter(|(_, f)| *f == 1)
            .map(|(t, _)| *t)
            .collect();
        assert_ne!(f0, f1, "same trace config must still sample independently");
    }

    #[test]
    fn explicit_arrivals_pass_through_sorted() {
        let times = vec![
            SimTime::from_secs(9),
            SimTime::from_secs(1),
            SimTime::from_secs(5),
        ];
        let load = FunctionLoad::explicit(times);
        assert!(load.series().is_none());
        let w = Workload::build(&[load], 3);
        let ts: Vec<SimTime> = w.arrivals().iter().map(|(t, _)| *t).collect();
        assert_eq!(
            ts,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimTime::from_secs(9)
            ]
        );
        // Explicit loads ignore the seed entirely.
        assert_eq!(w, Workload::build(&[FunctionLoad::explicit(ts)], 99));
    }

    #[test]
    fn empty_workload() {
        let w = Workload::build(&[], 0);
        assert!(w.is_empty());
        assert_eq!(w.end_time(), SimTime::ZERO);
    }
}
