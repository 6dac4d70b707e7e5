//! Streaming statistics used across the reproduction.
//!
//! * [`Welford`] — numerically stable running mean / variance.
//! * [`Samples`] — exact quantiles over a retained sample set (the
//!   evaluation never stores more than a few million latencies, so exact
//!   quantiles are affordable and simpler to reason about than sketches).
//! * [`BinnedHistogram`] — fixed-width histogram over a bounded range;
//!   this is the structure the HHP/LSTH cold-start policies build over
//!   idle times (Shahrad et al. use 1-minute bins up to a 4-hour cap).
//! * [`TimeWeighted`] — the time integral of a step function, used for
//!   resource-seconds accounting (GB·s, core·s, SM·s).

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// Running mean and variance via Welford's algorithm.
///
/// # Example
///
/// ```
/// use infless_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.add(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (dividing by n), or 0.0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// An exact-quantile accumulator that retains every sample.
///
/// # Example
///
/// ```
/// use infless_sim::stats::Samples;
///
/// let mut s = Samples::new();
/// s.extend((1..=100).map(f64::from));
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// assert_eq!(s.quantile(0.99), Some(99.0));
/// assert_eq!(s.max(), Some(100.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds an observation. Non-finite values are ignored (they would
    /// poison every quantile).
    pub fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.values.push(x);
            self.sorted = false;
        }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (nearest-rank), or `None` when empty.
    ///
    /// `q` is clamped to `[0, 1]`. On a [`Self::sort`]-ed sample set
    /// this is an index lookup; otherwise it selects in O(n) without
    /// mutating the set (reports pre-sort once at freeze time, so
    /// consumers never pay for repeated quantile reads).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.values.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.values.len() - 1);
        if self.sorted {
            return Some(self.values[idx]);
        }
        let mut tmp = self.values.clone();
        let (_, v, _) =
            tmp.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("non-finite sample"));
        Some(*v)
    }

    /// Sorts the retained samples so subsequent [`Self::quantile`]
    /// reads are index lookups.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.max(x),
            })
        })
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.min(x),
            })
        })
    }

    /// Appends every observation of `other`, preserving `other`'s
    /// insertion order after this set's existing samples — the merge
    /// order shard-merging code relies on for determinism.
    pub fn merge_from(&mut self, other: &Samples) {
        if other.values.is_empty() {
            return;
        }
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Fraction of observations strictly greater than `threshold`
    /// (used for SLO-violation rates). Returns 0.0 when empty.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&x| x > threshold).count();
        n as f64 / self.values.len() as f64
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A fixed-width histogram over `[0, bin_width * bins)` with an overflow
/// bucket, the structure HHP and LSTH build over function idle times.
///
/// # Example
///
/// ```
/// use infless_sim::stats::BinnedHistogram;
///
/// // 1-minute bins up to 4 hours, as in the hybrid histogram policy.
/// let mut h = BinnedHistogram::new(60.0, 240);
/// h.add(90.0);   // 1.5 min idle
/// h.add(150.0);  // 2.5 min idle
/// h.add(86_400.0); // a day: lands in the overflow bucket
/// assert_eq!(h.count(), 3);
/// // 5th percentile falls in the first occupied bin => its lower edge.
/// assert_eq!(h.quantile_lower_edge(0.05), Some(60.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedHistogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl BinnedHistogram {
    /// Creates a histogram with `bins` buckets of width `bin_width`
    /// (same unit as the values added, typically seconds).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        BinnedHistogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Adds an observation; negative values clamp into the first bin,
    /// values beyond the range land in the overflow bucket.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if value < 0.0 {
            self.counts[0] += 1;
            return;
        }
        let idx = (value / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total number of observations (including overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of observations that fell past the last bin.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations in the overflow bucket.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }

    /// The *lower edge* of the bin containing the `q`-quantile, or the
    /// histogram's upper bound if the quantile falls in the overflow
    /// bucket. Returns `None` when the histogram is empty.
    ///
    /// HHP uses the head (5th percentile) lower edge as the pre-warm
    /// window and the tail (99th percentile) *upper* edge as the
    /// keep-alive window; see [`Self::quantile_upper_edge`].
    pub fn quantile_lower_edge(&self, q: f64) -> Option<f64> {
        self.quantile_bin(q).map(|b| b as f64 * self.bin_width)
    }

    /// The *upper edge* of the bin containing the `q`-quantile (a
    /// conservative over-estimate), or the histogram's range bound for
    /// overflow. Returns `None` when empty.
    pub fn quantile_upper_edge(&self, q: f64) -> Option<f64> {
        self.quantile_bin(q)
            .map(|b| (b + 1) as f64 * self.bin_width)
    }

    fn quantile_bin(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (self.total as f64 * q).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(i);
            }
        }
        // Quantile falls in the overflow bucket: treat as the last bin.
        Some(self.counts.len() - 1)
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes.
    pub fn merge(&mut self, other: &BinnedHistogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Resets all buckets to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.overflow = 0;
        self.total = 0;
    }

    /// The histogram's representable range upper bound.
    pub fn range_max(&self) -> f64 {
        self.bin_width * self.counts.len() as f64
    }
}

/// Integral of a right-continuous step function over simulated time;
/// used to account resource-seconds (e.g. core·s held by instances).
///
/// # Example
///
/// ```
/// use infless_sim::stats::TimeWeighted;
/// use infless_sim::SimTime;
///
/// let mut tw = TimeWeighted::new();
/// tw.set(SimTime::ZERO, 2.0);          // 2 cores from t=0
/// tw.set(SimTime::from_secs(10), 5.0); // 5 cores from t=10
/// assert_eq!(tw.integral_until(SimTime::from_secs(20)), 2.0 * 10.0 + 5.0 * 10.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Creates an accumulator starting at value 0 at `SimTime::ZERO`.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Records that the tracked value becomes `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an earlier update (time runs forward).
    pub fn set(&mut self, t: SimTime, value: f64) {
        let dt = (t - self.last_time).as_secs_f64();
        self.integral += self.last_value * dt;
        self.last_time = t;
        self.last_value = value;
    }

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(t, v);
    }

    /// The current value of the step function.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The integral up to time `t` (value·seconds).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last update.
    pub fn integral_until(&self, t: SimTime) -> f64 {
        self.integral + self.last_value * (t - self.last_time).as_secs_f64()
    }

    /// The time-average of the value over `[ZERO, t]`, or 0.0 at t=0.
    pub fn average_until(&self, t: SimTime) -> f64 {
        let span = t.as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integral_until(t) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.5, 3.5, 4.0, 100.0, -7.0];
        let mut w = Welford::new();
        xs.iter().for_each(|&x| w.add(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.population_variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn empty_welford_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn samples_quantiles_nearest_rank() {
        let s: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.1), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(5.0));
        assert_eq!(s.quantile(1.0), Some(10.0));
        assert_eq!(s.quantile(2.0), Some(10.0)); // clamped
    }

    #[test]
    fn samples_ignore_non_finite() {
        let mut s = Samples::new();
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fraction_above_counts_strictly() {
        let s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_above(2.0), 0.5);
        assert_eq!(s.fraction_above(100.0), 0.0);
        assert_eq!(Samples::new().fraction_above(0.0), 0.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = BinnedHistogram::new(10.0, 5); // range [0, 50)
        h.add(0.0);
        h.add(9.99);
        h.add(10.0);
        h.add(49.99);
        h.add(50.0); // overflow
        h.add(-3.0); // clamps to first bin
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow_count(), 1);
        assert!((h.overflow_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_edges() {
        let mut h = BinnedHistogram::new(60.0, 240);
        for _ in 0..95 {
            h.add(120.0); // bin 2
        }
        for _ in 0..5 {
            h.add(30.0); // bin 0
        }
        assert_eq!(h.quantile_lower_edge(0.05), Some(0.0));
        assert_eq!(h.quantile_upper_edge(0.99), Some(180.0));
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = BinnedHistogram::new(1.0, 4);
        let mut b = BinnedHistogram::new(1.0, 4);
        a.add(0.5);
        b.add(2.5);
        b.add(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow_count(), 1);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile_lower_edge(0.5), None);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn histogram_merge_shape_mismatch_panics() {
        let mut a = BinnedHistogram::new(1.0, 4);
        let b = BinnedHistogram::new(2.0, 4);
        a.merge(&b);
    }

    #[test]
    fn time_weighted_integral() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_secs(5), 2.0); // value 3 from t=5
        assert_eq!(tw.current(), 3.0);
        assert_eq!(tw.integral_until(SimTime::from_secs(10)), 5.0 + 15.0);
        assert_eq!(tw.average_until(SimTime::from_secs(10)), 2.0);
        assert_eq!(TimeWeighted::new().average_until(SimTime::ZERO), 0.0);
    }

    proptest! {
        /// Quantiles are monotone in q.
        #[test]
        fn prop_sample_quantiles_monotone(
            xs in prop::collection::vec(-1e6f64..1e6, 1..300),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let s: Samples = xs.into_iter().collect();
            let a = s.quantile(lo).unwrap();
            let b = s.quantile(hi).unwrap();
            prop_assert!(a <= b);
        }

        /// Histogram quantile edges are monotone in q and stay in range.
        #[test]
        fn prop_hist_quantiles_monotone(
            xs in prop::collection::vec(0.0f64..500.0, 1..300),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let mut h = BinnedHistogram::new(10.0, 40);
            xs.iter().for_each(|&x| h.add(x));
            let a = h.quantile_lower_edge(lo).unwrap();
            let b = h.quantile_lower_edge(hi).unwrap();
            prop_assert!(a <= b);
            prop_assert!(b <= h.range_max());
        }

        /// The time-weighted integral of a constant function is value * span.
        #[test]
        fn prop_time_weighted_constant(v in -100.0f64..100.0, span in 1u64..10_000) {
            let mut tw = TimeWeighted::new();
            tw.set(SimTime::ZERO, v);
            let t = SimTime::from_secs(span);
            prop_assert!((tw.integral_until(t) - v * span as f64).abs() < 1e-6);
        }
    }
}
