//! Streaming statistics used across the reproduction.
//!
//! The run report's distributions (latencies, the latency breakdown,
//! batch sizes, the fragment ratio) are the telemetry crate's
//! `Log2Histogram`: integer ticks, 10⁶ per unit of each field, in
//! log-linear buckets with an exact sum. This module holds the
//! cold-start policies' idle-time histogram and the resource-seconds
//! integral.
//!
//! * [`BinnedHistogram`] — fixed-width histogram over a bounded range;
//!   this is the structure the HHP/LSTH cold-start policies build over
//!   idle times (Shahrad et al. use 1-minute bins up to a 4-hour cap).
//! * [`TimeWeighted`] — the time integral of a step function, used for
//!   resource-seconds accounting (GB·s, core·s, SM·s).

use serde::{Deserialize, Serialize};

use crate::SimTime;

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
