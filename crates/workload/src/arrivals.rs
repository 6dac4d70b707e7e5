//! Turning rate curves into individual arrival timestamps.

use infless_sim::{rng::stream, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Poisson};

use crate::series::RateSeries;

/// Samples arrival timestamps from a non-homogeneous Poisson process
/// whose intensity follows `series`: within each bin, the count is
/// Poisson(rate · bin) and the timestamps are uniform. The result is
/// sorted. Deterministic in `seed`.
///
/// # Example
///
/// ```
/// use infless_sim::SimDuration;
/// use infless_workload::{poisson_arrivals, RateSeries};
///
/// let series = RateSeries::constant(100.0, SimDuration::from_secs(60));
/// let arrivals = poisson_arrivals(&series, 7);
/// // ~6000 expected arrivals.
/// assert!((arrivals.len() as f64 - 6000.0).abs() < 400.0);
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn poisson_arrivals(series: &RateSeries, seed: u64) -> Vec<SimTime> {
    let mut bins = PoissonBins::new(series, seed);
    let mut out = Vec::with_capacity(series.expected_requests() as usize + 16);
    while bins.next_bin(&mut out) {}
    out
}

/// [`poisson_arrivals`] one bin at a time: the same draws in the same
/// order (the count, then the in-bin uniforms, then a sort), so a
/// consumer holds one bin of arrivals rather than the whole series.
#[derive(Debug)]
pub(crate) struct PoissonBins<'a> {
    series: &'a RateSeries,
    rng: StdRng,
    bin: usize,
}

impl<'a> PoissonBins<'a> {
    pub(crate) fn new(series: &'a RateSeries, seed: u64) -> Self {
        PoissonBins {
            series,
            rng: stream(seed, "arrivals/poisson"),
            bin: 0,
        }
    }

    /// Appends the next bin's arrivals, sorted, to `out` (none for a
    /// silent bin). Returns `false`, appending nothing, once every bin
    /// has been drawn.
    pub(crate) fn next_bin(&mut self, out: &mut Vec<SimTime>) -> bool {
        let Some(&rate) = self.series.rates().get(self.bin) else {
            return false;
        };
        let i = self.bin;
        self.bin += 1;
        let bin = self.series.bin();
        let bin_secs = bin.as_secs_f64();
        let lambda = rate * bin_secs;
        if lambda <= 0.0 {
            return true;
        }
        let count = Poisson::new(lambda)
            .expect("lambda validated positive")
            .sample(&mut self.rng) as usize;
        let bin_start = SimTime::ZERO + bin * i as u64;
        // Clamp inside the bin: the microsecond rounding in
        // `from_secs_f64` could otherwise push a draw taken just under
        // the bin boundary into the next bin (or past the series end).
        let bin_cap = bin - SimDuration::from_micros(1);
        let from = out.len();
        out.extend((0..count).map(|_| {
            bin_start + SimDuration::from_secs_f64(self.rng.gen_range(0.0..bin_secs)).min(bin_cap)
        }));
        out[from..].sort_unstable();
        true
    }
}

/// Evenly-spaced deterministic arrivals at `rps` for `duration` — the
/// constant stress load used by the throughput experiments (Fig. 11).
///
/// # Panics
///
/// Panics if `rps` is not strictly positive.
///
/// # Example
///
/// ```
/// use infless_sim::SimDuration;
/// use infless_workload::constant_arrivals;
///
/// let a = constant_arrivals(10.0, SimDuration::from_secs(1));
/// assert_eq!(a.len(), 10);
/// ```
pub fn constant_arrivals(rps: f64, duration: SimDuration) -> Vec<SimTime> {
    let (n, gap) = constant_plan(rps, duration);
    (0..n).map(|i| constant_at(i, gap)).collect()
}

/// The count and spacing of [`constant_arrivals`].
pub(crate) fn constant_plan(rps: f64, duration: SimDuration) -> (u64, f64) {
    assert!(rps > 0.0 && rps.is_finite(), "RPS must be positive");
    ((duration.as_secs_f64() * rps).floor() as u64, 1.0 / rps)
}

/// Arrival `i` of a constant load with spacing `gap` seconds.
#[inline]
pub(crate) fn constant_at(i: u64, gap: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn poisson_count_close_to_expectation() {
        let series = RateSeries::constant(200.0, SimDuration::from_mins(5));
        let arrivals = poisson_arrivals(&series, 1);
        let expected = series.expected_requests();
        let rel = (arrivals.len() as f64 - expected).abs() / expected;
        assert!(rel < 0.05, "count off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let series = RateSeries::constant(50.0, SimDuration::from_secs(30));
        assert_eq!(poisson_arrivals(&series, 3), poisson_arrivals(&series, 3));
        assert_ne!(poisson_arrivals(&series, 3), poisson_arrivals(&series, 4));
    }

    #[test]
    fn silent_bins_produce_no_arrivals() {
        let series = RateSeries::new(SimDuration::from_secs(10), vec![0.0, 100.0, 0.0]);
        let arrivals = poisson_arrivals(&series, 5);
        assert!(!arrivals.is_empty());
        for t in &arrivals {
            assert!(
                *t >= SimTime::from_secs(10) && *t < SimTime::from_secs(20),
                "arrival outside the active bin: {t}"
            );
        }
    }

    #[test]
    fn constant_arrivals_are_evenly_spaced() {
        let a = constant_arrivals(100.0, SimDuration::from_secs(2));
        assert_eq!(a.len(), 200);
        let gap = a[1] - a[0];
        assert_eq!(gap, SimDuration::from_millis(10));
        assert!(a.windows(2).all(|w| w[1] - w[0] == gap));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rps_rejected() {
        constant_arrivals(0.0, SimDuration::from_secs(1));
    }

    /// A whole-series sampler written out in one pass: the draw order
    /// the per-bin generator must follow.
    fn whole_series_reference(series: &RateSeries, seed: u64) -> Vec<SimTime> {
        let mut rng = stream(seed, "arrivals/poisson");
        let bin_secs = series.bin().as_secs_f64();
        let mut out = Vec::new();
        for (i, &rate) in series.rates().iter().enumerate() {
            let lambda = rate * bin_secs;
            if lambda <= 0.0 {
                continue;
            }
            let count = Poisson::new(lambda)
                .expect("lambda validated positive")
                .sample(&mut rng) as usize;
            let bin_start = SimTime::ZERO + series.bin() * i as u64;
            let bin_cap = series.bin() - SimDuration::from_micros(1);
            let mut times: Vec<SimTime> = (0..count)
                .map(|_| {
                    bin_start
                        + SimDuration::from_secs_f64(rng.gen_range(0.0..bin_secs)).min(bin_cap)
                })
                .collect();
            times.sort_unstable();
            out.extend(times);
        }
        out
    }

    proptest! {
        /// Drawing bin by bin reproduces the whole-series draw exactly.
        #[test]
        fn prop_per_bin_draw_matches_whole_series(
            rates in prop::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..300.0], 1..20),
            bin_ms in 1u64..20_000,
            seed in 0u64..1_000_000,
        ) {
            let series = RateSeries::new(SimDuration::from_millis(bin_ms), rates);
            prop_assert_eq!(poisson_arrivals(&series, seed), whole_series_reference(&series, seed));
        }

        /// Arrivals are sorted and inside the series' time range.
        #[test]
        fn prop_arrivals_sorted_in_range(
            rates in prop::collection::vec(0.0f64..300.0, 1..20),
            seed in 0u64..1000,
        ) {
            let series = RateSeries::new(SimDuration::from_secs(5), rates);
            let arrivals = poisson_arrivals(&series, seed);
            for w in arrivals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            let end = SimTime::ZERO + series.duration();
            for t in &arrivals {
                prop_assert!(*t < end);
            }
        }
    }
}
