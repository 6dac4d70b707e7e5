//! Virtual time for the discrete-event simulator.
//!
//! Both types are thin newtypes over a microsecond count. Microsecond
//! resolution is fine-grained enough for sub-millisecond scheduling
//! overheads (Fig. 17a of the paper reports ~0.5 ms per instance) while a
//! `u64` still covers ~584 000 years of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, measured in microseconds since the
/// start of the run.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Durations
/// are added with `+`, and the distance between two instants is obtained
/// with `-` (which panics if the result would be negative — simulated time
/// never runs backwards).
///
/// # Example
///
/// ```
/// use infless_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 250_000);
/// assert_eq!(t - SimTime::from_millis(100), SimDuration::from_millis(150));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Example
///
/// ```
/// use infless_sim::SimDuration;
///
/// let d = SimDuration::from_secs_f64(0.2);
/// assert_eq!(d.as_millis_f64(), 200.0);
/// assert_eq!(d * 3, SimDuration::from_millis(600));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for deadlines that are disabled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since `earlier`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future. The non-saturating form is the `-` operator.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` before `self`, clamped at [`SimTime::ZERO`].
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration; used as an "effectively forever"
    /// keep-alive window.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond with ties away from zero. Zero, negative, NaN and
    /// infinite inputs give zero; values at or above 2^64 µs saturate to
    /// [`SimDuration::MAX`].
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_scaled(secs, 1e6))
    }

    /// Sub-microsecond ticks as a power of two: a tick is 2⁻³⁰ µs
    /// (~0.93 fs). Decode spans price their steps in ticks, so a sum of
    /// many steps is rounded once, and a tick count becomes whole
    /// microseconds with a shift ([`SimDuration::from_ticks`]).
    pub const TICK_SHIFT: u32 = 30;

    /// Fractional seconds in ticks, rounded like [`Self::from_secs_f64`]:
    /// to the nearest tick with ties away from zero; zero, negative, NaN
    /// and infinite inputs give zero, and values at or above 2^64 ticks
    /// saturate to `u64::MAX`.
    #[inline]
    pub fn ticks_from_secs_f64(secs: f64) -> u64 {
        round_scaled(secs, 1e6 * (1u64 << Self::TICK_SHIFT) as f64)
    }

    /// The whole microseconds in `ticks`, the remainder dropped;
    /// saturates to [`SimDuration::MAX`].
    #[inline]
    pub fn from_ticks(ticks: u128) -> Self {
        SimDuration(u64::try_from(ticks >> Self::TICK_SHIFT).unwrap_or(u64::MAX))
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// `true` if this is the empty duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a float factor, rounding to the nearest microsecond.
    /// Negative or non-finite factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`: elapsed time is never negative.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// Saturating: a longer duration subtracted from a shorter one is zero.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// `secs · scale` rounded to the nearest integer with ties away from
/// zero, without libm: zero for zero, negative, NaN and infinite `secs`,
/// saturating at `u64::MAX`.
#[inline]
fn round_scaled(secs: f64, scale: f64) -> u64 {
    let x = secs * scale;
    // Below 2^52 the whole part and the fraction are both exact (and the
    // whole part fits the signed conversion, which is one instruction),
    // so this is `x.round()` without the libm call.
    if x > 0.0 && x < (1u64 << 52) as f64 {
        let whole = x as i64;
        let frac = x - whole as f64;
        return whole as u64 + u64::from(frac >= 0.5);
    }
    if secs <= 0.0 || !secs.is_finite() {
        return 0;
    }
    // At or above 2^52 every float is whole, and `as` saturates.
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `from_secs_f64` as defined: libm rounding, clamped and saturating.
    fn from_secs_f64_reference(secs: f64) -> SimDuration {
        if secs <= 0.0 || !secs.is_finite() {
            SimDuration::ZERO
        } else {
            SimDuration((secs * 1e6).round() as u64)
        }
    }

    /// Checks `from_secs_f64` against the reference on `secs` and the
    /// four floats either side of it; returns how many of those nine
    /// land exactly on `us` microseconds.
    fn check_around(secs: f64, us: f64) -> usize {
        let mut x = secs;
        for _ in 0..4 {
            x = x.next_down();
        }
        let mut exact = 0;
        for _ in 0..9 {
            assert_eq!(
                SimDuration::from_secs_f64(x),
                from_secs_f64_reference(x),
                "secs = {x:e}"
            );
            exact += usize::from(x * 1e6 == us);
            x = x.next_up();
        }
        exact
    }

    proptest! {
        #[test]
        fn from_secs_f64_matches_its_definition_on_any_bits(bits in any::<u64>()) {
            let secs = f64::from_bits(bits);
            prop_assert_eq!(
                SimDuration::from_secs_f64(secs),
                from_secs_f64_reference(secs)
            );
        }

        #[test]
        fn from_secs_f64_matches_its_definition_below_a_day(secs in 0.0f64..86_400.0) {
            prop_assert_eq!(
                SimDuration::from_secs_f64(secs),
                from_secs_f64_reference(secs)
            );
        }
    }

    #[test]
    fn from_secs_f64_rounds_every_half_microsecond_tie_away_from_zero() {
        let mut exact = 0;
        for k in 0..1_000_000u32 {
            let us = f64::from(k) + 0.5;
            exact += check_around(us / 1e6, us);
        }
        assert!(exact > 500_000, "only {exact} exact ties were hit");
    }

    #[test]
    fn from_secs_f64_at_the_exactness_and_saturation_edges() {
        let two52 = (1u64 << 52) as f64;
        let two64 = 2.0 * (1u64 << 63) as f64;
        for us in [
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52,
            two64 / 2.0,
            two64,
            4.0 * two64,
        ] {
            check_around(us / 1e6, us);
        }
        assert_eq!(SimDuration::from_secs_f64(1.9e13), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::MAX), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(two52 / 1e6),
            SimDuration::from_micros(1 << 52)
        );
    }

    /// `ticks_from_secs_f64` as defined: libm rounding of the scaled
    /// value, clamped and saturating.
    fn ticks_reference(secs: f64) -> u64 {
        if secs <= 0.0 || !secs.is_finite() {
            0
        } else {
            (secs * 1e6 * (1u64 << SimDuration::TICK_SHIFT) as f64).round() as u64
        }
    }

    proptest! {
        #[test]
        fn ticks_from_secs_f64_matches_its_definition_on_any_bits(bits in any::<u64>()) {
            let secs = f64::from_bits(bits);
            prop_assert_eq!(SimDuration::ticks_from_secs_f64(secs), ticks_reference(secs));
        }

        #[test]
        fn ticks_from_secs_f64_matches_its_definition_below_an_hour(secs in 0.0f64..3_600.0) {
            prop_assert_eq!(SimDuration::ticks_from_secs_f64(secs), ticks_reference(secs));
        }
    }

    #[test]
    fn ticks_round_ties_away_and_shift_to_whole_microseconds() {
        let per_sec = 1e6 * (1u64 << SimDuration::TICK_SHIFT) as f64;
        // The floats around each tie `k + 0.5` ticks, up to the fast
        // path's 2^52 edge (above it no tie is a float).
        let mut ties = 0;
        for k in (0..100_000u64).chain((1 << 52) - 1_000..1 << 52) {
            let mut secs = ((k as f64 + 0.5) / per_sec).next_down().next_down();
            for _ in 0..5 {
                let ticks = SimDuration::ticks_from_secs_f64(secs);
                assert_eq!(ticks, ticks_reference(secs), "secs = {secs:e}");
                if secs * per_sec == k as f64 + 0.5 {
                    assert_eq!(ticks, k + 1, "k = {k}");
                    ties += 1;
                }
                secs = secs.next_up();
            }
        }
        assert!(ties > 50_000, "only {ties} exact ties were hit");
        assert_eq!(SimDuration::ticks_from_secs_f64(1.0), 1_000_000 << 30);
        assert_eq!(SimDuration::ticks_from_secs_f64(2e4), u64::MAX);
        for secs in [-1.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(SimDuration::ticks_from_secs_f64(secs), 0, "secs = {secs:e}");
        }
        let us = 1u128 << SimDuration::TICK_SHIFT;
        assert_eq!(SimDuration::from_ticks(0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ticks(us - 1), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ticks(7 * us), SimDuration::from_micros(7));
        assert_eq!(
            SimDuration::from_ticks(u128::from(u64::MAX) * us + us - 1),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::from_ticks(u128::MAX), SimDuration::MAX);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(1_500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t + SimDuration::from_millis(500), SimTime::from_secs(2));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(
            SimDuration::from_secs_f64(0.0005),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn float_constructor_clamps_garbage() {
        for secs in [
            -1.0,
            -f64::MAX,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(
                SimDuration::from_secs_f64(secs),
                SimDuration::ZERO,
                "secs = {secs:e}"
            );
        }
    }

    #[test]
    fn elapsed_time_is_a_duration() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(5);
        assert_eq!(b - a, SimDuration::from_secs(2));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_elapsed_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_subtraction_saturates() {
        let short = SimDuration::from_millis(10);
        let long = SimDuration::from_millis(30);
        assert_eq!(short - long, SimDuration::ZERO);
        assert_eq!(long - short, SimDuration::from_millis(20));
    }

    #[test]
    fn mul_f64_rounds_to_microseconds() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(150));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
