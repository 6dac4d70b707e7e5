//! Log-linear histogram over integer ticks, with an exact sum and a
//! documented relative-error bound.

use serde::{Deserialize, Error, Map, Serialize, Value};

/// Ticks per unit of the field a histogram records. The tick is fixed,
/// with no per-histogram state: a `_ms` histogram counts ns, a `_us`
/// one ps, a `_ns` one fs, and a count or a ratio millionths. Values
/// are exact to 10⁻⁶ of the unit.
pub const TICKS_PER_UNIT: u64 = 1_000_000;

/// [`TICKS_PER_UNIT`] as the divisor that reads a tick back.
const UNIT: f64 = TICKS_PER_UNIT as f64;

/// Sub-bucket bits: each octave `[2^e, 2^(e+1))` from 2⁷ ticks up
/// splits into 2⁷ = 128 equal buckets. A bucket is at most 2⁻⁷ of its
/// lower edge wide, so its midpoint is within 2⁻⁸ ≈ 0.39 % of any
/// member. Eight bits would halve that error but double the dense span,
/// which raised fleet_churn's peak RSS by 14 % (see
/// `memory_is_at_most_128_buckets_an_octave`).
const SUB_BITS: u32 = 7;

/// One past the highest bucket index, which is `u64::MAX`'s.
const BUCKETS: u32 = Log2Histogram::index(u64::MAX) + 1;

/// A log-linear histogram over `u64` ticks, with HdrHistogram's bucket
/// layout (<http://hdrhistogram.org/>).
///
/// A value below 2⁸ ticks has a bucket of its own. Above that, the
/// octave comes from `leading_zeros` and the next 7 bits pick one of
/// its 128 equal sub-buckets, so recording is integer arithmetic with
/// no float, table or libm. Simulated callers record ticks with
/// [`record`](Self::record) and [`record_n`](Self::record_n);
/// [`add`](Self::add) rounds a value in the field's unit to the nearest
/// tick. Every read converts back to the unit (ticks / 10⁶).
///
/// Memory is bounded by the dynamic range, not the request count: the
/// counts are dense, 8 B per bucket across the spanned range, 128
/// buckets an octave (a 1 µs – 100 s latency stream in ns ticks spans
/// 27 octaves, ~3 400 buckets, ~27 KiB). Recording is O(1): one bounds
/// check and one increment. [`quantile`](Self::quantile) is a single
/// cumulative walk.
///
/// Accuracy: count, sum, min and max are exact in ticks, so
/// `quantile(0.0)` and `quantile(1.0)` are the true extremes and
/// [`mean`](Self::mean) rounds only in its final division. An interior
/// quantile is its bucket's midpoint, within 2⁻⁸ relative of the
/// nearest-rank sample. Non-finite values are ignored; negative values
/// clamp to zero.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    /// Dense counts: `counts[i]` is the bucket with index `base + i`.
    /// Spans exactly the lowest to the highest non-zero bucket ever
    /// counted.
    counts: Vec<u64>,
    /// Index of `counts[0]`; unused while `counts` is empty.
    base: u32,
    /// Observations of zero ticks: bucket 0, kept out of the dense span.
    /// A `_ms` histogram's values are 0 or at least 1 000 ns, so a
    /// dense bucket 0 would pin ~500 empty buckets below every span.
    zeros: u64,
    count: u64,
    /// Σ ticks, exact: `u64::MAX` ticks a sample fit 2⁶⁴ samples.
    sum: u128,
    /// Ticks; `u64::MAX` and 0 while empty, so merges need no case.
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: Vec::new(),
            base: 0,
            zeros: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `ticks`: the value itself below 2⁸, otherwise
    /// `shift · 128` plus the top 8 bits, where `shift` drops all but
    /// those 8 bits.
    #[inline]
    const fn index(ticks: u64) -> u32 {
        let shift = (64 - SUB_BITS - 1).saturating_sub(ticks.leading_zeros());
        (shift << SUB_BITS) + (ticks >> shift) as u32
    }

    /// Midpoint of bucket `idx`, in ticks; exact for the one-value
    /// buckets below 2⁸.
    fn midpoint(idx: u32) -> f64 {
        let shift = (idx >> SUB_BITS).saturating_sub(1);
        let lo = u64::from(idx - (shift << SUB_BITS)) << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    /// `v` units in ticks, rounded to nearest (ties to even) without
    /// libm or a conversion: below 2⁵², adding 2⁵² leaves a float whose
    /// ulp is 1, so its mantissa is the rounded value. Zero, negatives
    /// and NaN give 0; at or above 2⁵² every float is whole, and `as`
    /// saturates.
    #[inline]
    fn to_ticks(v: f64) -> u64 {
        const TWO_52: f64 = (1u64 << 52) as f64;
        let x = v * UNIT;
        if x > 0.0 && x < TWO_52 {
            (x + TWO_52).to_bits() - TWO_52.to_bits()
        } else if x > 0.0 {
            x as u64
        } else {
            0
        }
    }

    /// Adds an observation in the field's unit, rounded to the nearest
    /// tick. Non-finite values are ignored; negative values clamp to
    /// zero, and values past `u64::MAX` ticks saturate.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if v.is_finite() {
            self.record(Self::to_ticks(v));
        }
    }

    /// Adds an observation of `ticks` (10⁻⁶ of the field's unit).
    #[inline]
    pub fn record(&mut self, ticks: u64) {
        self.record_n(ticks, 1);
    }

    /// Adds `n` observations of `ticks` in O(1), with the same result as
    /// `n` calls of [`record`](Self::record): the sum is exact, so it
    /// grows by `n · ticks` at once.
    #[inline]
    pub fn record_n(&mut self, ticks: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += u128::from(ticks) * u128::from(n);
        self.min = self.min.min(ticks);
        self.max = self.max.max(ticks);
        if ticks == 0 {
            self.zeros += n;
            return;
        }
        let idx = Self::index(ticks);
        // Below `base` wraps to a huge offset, so it misses like above.
        match self.counts.get_mut(idx.wrapping_sub(self.base) as usize) {
            Some(c) => *c += n,
            None => self.grow(idx, n),
        }
    }

    /// Counts `n` into bucket `idx`, which lies outside the span.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, idx: u32, n: u64) {
        self.cover(idx, idx);
        self.counts[(idx - self.base) as usize] += n;
    }

    /// Widens the span to include buckets `lo..=hi`, reserving exactly:
    /// a histogram's first observations set most of its span, and
    /// doubling would leave up to half of every span unused.
    fn cover(&mut self, lo: u32, hi: u32) {
        let (lo, hi) = match self.counts.len() {
            0 => (lo, hi),
            len => (lo.min(self.base), hi.max(self.base + len as u32 - 1)),
        };
        let len = (hi - lo + 1) as usize;
        if len == self.counts.len() {
            return;
        }
        // Zeros below the old span; none when there was no span.
        let front = if self.counts.is_empty() {
            0
        } else {
            (self.base - lo) as usize
        };
        let mut counts = Vec::with_capacity(len);
        counts.resize(front, 0);
        counts.extend_from_slice(&self.counts);
        counts.resize(len, 0);
        self.counts = counts;
        self.base = lo;
    }

    /// The non-zero buckets, as ascending `(index, count)` pairs.
    fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        std::iter::once((0, self.zeros))
            .chain((self.base..).zip(self.counts.iter().copied()))
            .filter(|&(_, n)| n != 0)
    }

    /// Number of recorded observations.
    #[allow(clippy::len_without_is_empty)] // is_empty is defined below
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Number of recorded observations, as the counter itself.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact sum of every recorded observation, in ticks.
    pub fn sum_ticks(&self) -> u128 {
        self.sum
    }

    /// Mean of the exact sum, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / (self.count as f64 * UNIT)
        }
    }

    /// Exact minimum observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min as f64 / UNIT)
    }

    /// Exact maximum observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max as f64 / UNIT)
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]` (clamped). Exact at `q = 0`
    /// and `q = 1` and whenever min == max; within 2⁻⁸ relative error
    /// elsewhere (see the type docs). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let (min, max) = (self.min as f64, self.max as f64);
        let ticks = if q == 0.0 {
            min
        } else if q == 1.0 {
            max
        } else {
            let target = ((q * self.count as f64).ceil() as u64).max(1);
            let mut cum = 0;
            self.buckets()
                .find_map(|(idx, n)| {
                    cum += n;
                    (target <= cum).then(|| Self::midpoint(idx))
                })
                .map_or(max, |mid| mid.clamp(min, max))
        };
        Some(ticks / UNIT)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.base, other.base + other.counts.len() as u32 - 1);
            let offset = (other.base - self.base) as usize;
            for (c, n) in self.counts[offset..].iter_mut().zip(&other.counts) {
                *c += n;
            }
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Equal when the observations agree: the non-zero buckets and the
/// scalars, whatever order the dense span grew in.
impl PartialEq for Log2Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets().eq(other.buckets())
    }
}

// The wire form: `buckets` is the ascending list of non-zero `[index,
// count]` pairs, and `min`/`max` are ticks, omitted while empty. The
// vendored serde has no `u128`, so `sum` is a decimal string.
impl Serialize for Log2Histogram {
    fn serialize(&self) -> Value {
        let mut map = Map::new();
        let buckets: Vec<(u32, u64)> = self.buckets().collect();
        map.insert("buckets".to_string(), buckets.serialize());
        map.insert("count".to_string(), self.count.serialize());
        map.insert("sum".to_string(), self.sum.to_string().serialize());
        if self.count > 0 {
            map.insert("min".to_string(), self.min.serialize());
            map.insert("max".to_string(), self.max.serialize());
        }
        Value::Object(map)
    }
}

/// Rejects any wire form no recording produces: a bucket index past
/// `u64::MAX`'s, bucket counts that overflow or do not add up to
/// `count`, or extremes outside the lowest and highest buckets.
impl Deserialize for Log2Histogram {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let bad = |what: String| Error::custom(format!("Log2Histogram: {what}"));
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| bad(format!("missing field `{name}`")))
        };
        let count: u64 = Deserialize::deserialize(field("count")?)?;
        let sum: String = Deserialize::deserialize(field("sum")?)?;
        let sum = sum
            .parse()
            .map_err(|_| bad(format!("sum `{sum}` is not a u128")))?;
        let buckets: Vec<(u32, u64)> = Deserialize::deserialize(field("buckets")?)?;
        let mut hist = Log2Histogram {
            count,
            sum,
            ..Log2Histogram::new()
        };
        let nonzero = buckets.iter().filter(|&&(_, n)| n != 0);
        if let Some(&(idx, _)) = nonzero.clone().find(|&&(idx, _)| idx >= BUCKETS) {
            return Err(bad(format!("bucket index {idx} is past u64::MAX's")));
        }
        let mut total = 0u64;
        if let (Some(lo), Some(hi)) = (
            nonzero.clone().map(|&(idx, _)| idx).min(),
            nonzero.clone().map(|&(idx, _)| idx).max(),
        ) {
            let dense = nonzero.clone().map(|&(idx, _)| idx).filter(|&idx| idx != 0);
            if let Some(dense_lo) = dense.min() {
                hist.cover(dense_lo, hi);
            }
            for &(idx, n) in nonzero {
                // No bucket overflows while the total does not.
                total = total
                    .checked_add(n)
                    .ok_or_else(|| bad(format!("bucket {idx} overflows the count")))?;
                match idx {
                    0 => hist.zeros += n,
                    _ => hist.counts[(idx - hist.base) as usize] += n,
                }
            }
            hist.min = Deserialize::deserialize(field("min")?)?;
            hist.max = Deserialize::deserialize(field("max")?)?;
            if hist.min > hist.max || Self::index(hist.min) != lo || Self::index(hist.max) != hi {
                return Err(bad(format!(
                    "min {} and max {} lie outside buckets {lo}..={hi}",
                    hist.min, hist.max
                )));
            }
        }
        if total != count {
            return Err(bad(format!(
                "buckets hold {total} observations, not {count}"
            )));
        }
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The advertised relative-error bound.
    const BOUND: f64 = 1.0 / 256.0; // 2⁻⁸

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    /// Any tick count, spread over every octave rather than the top few.
    fn ticks() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s)
    }

    fn recorded(values: &[u64]) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &t in values {
            h.record(t);
        }
        h
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum_ticks(), 0);
    }

    /// A single-sample histogram reports that sample at *every*
    /// quantile, not a bucket midpoint: a one-completion LLM run's TTFT
    /// p50/p99 are the sample itself. The sample is exact to 10⁻⁶ of
    /// the unit: `add` rounds to the nearest tick.
    #[test]
    fn single_sample_quantiles_are_exact() {
        for (v, read) in [
            (0.0, 0.0),
            (1e-9, 0.0),
            (4e-7, 0.0),
            (6e-7, 1e-6),
            (0.37, 0.37),
            (41.5, 41.5),
            (1e12, 1e12),
        ] {
            let mut h = Log2Histogram::new();
            h.add(v);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), Some(read), "v={v} q={q}");
            }
            assert_eq!(h.mean(), read, "v={v}");
        }
    }

    /// A `_ms` histogram fed `µs · 1000` ns reads back `µs / 10³`, the
    /// value `SimDuration::as_millis_f64` gives, bit for bit.
    #[test]
    fn microsecond_ticks_read_back_as_milliseconds() {
        for us in [0u64, 1, 999, 1_234_567, 86_400_000_000, (1 << 53) / 1000] {
            let mut h = Log2Histogram::new();
            h.record(us * 1000);
            assert_eq!(h.min(), Some(us as f64 / 1e3), "{us} µs");
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [8.25, 120.75, 0.5, 55.5] {
            h.add(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.5));
        assert_eq!(h.quantile(1.0), Some(120.75));
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(120.75));
        assert_eq!(h.sum_ticks(), 185_000_000);
        assert_eq!(h.mean(), 185.0 / 4.0);
    }

    #[test]
    fn zeros_and_negatives_share_the_zero_bucket() {
        let mut h = Log2Histogram::new();
        h.add(0.0);
        h.add(-3.0);
        h.add(4.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.quantile(0.0), Some(0.0));
        // Rank 2 of 3 is still in the zero bucket.
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn non_finite_is_ignored() {
        let mut h = Log2Histogram::new();
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        h.add(f64::NEG_INFINITY);
        assert!(h.is_empty());
    }

    /// Every bucket's midpoint lies inside it, the buckets tile the
    /// whole `u64` range in order, and the last one ends at `u64::MAX`.
    #[test]
    fn buckets_tile_the_tick_range() {
        assert_eq!(BUCKETS, 57 * 128 + 128);
        let mut edge = 0u64;
        for idx in 0..BUCKETS {
            assert_eq!(Log2Histogram::index(edge), idx, "lower edge {edge}");
            let width = 1u64 << (idx >> SUB_BITS).saturating_sub(1);
            let top = edge + (width - 1);
            assert_eq!(Log2Histogram::index(top), idx, "upper edge {top}");
            let mid = Log2Histogram::midpoint(idx);
            assert!(mid >= edge as f64 && mid <= top as f64, "bucket {idx}");
            assert!((mid - edge as f64) <= edge as f64 * BOUND, "bucket {idx}");
            edge = top.wrapping_add(1);
        }
        assert_eq!(edge, 0, "the last bucket ends at u64::MAX");
    }

    /// Sentinel hygiene: merging an empty histogram in (either
    /// direction) must not leak the empty extremes into min/max or the
    /// extreme quantiles — sharding produces empty shard recordings
    /// routinely (a function with no traffic on its shard).
    #[test]
    fn merge_with_empty_side_keeps_exact_extremes() {
        let recorded = recorded(&[3_500_000, 9_100_000, 700_000]);
        let mut lhs = Log2Histogram::new();
        lhs.merge(&recorded);
        assert_eq!(lhs.min(), Some(0.7));
        assert_eq!(lhs.max(), Some(9.1));
        assert_eq!(lhs.quantile(0.0), Some(0.7));
        assert_eq!(lhs.quantile(1.0), Some(9.1));

        let mut rhs = recorded.clone();
        rhs.merge(&Log2Histogram::new());
        assert_eq!(rhs, recorded, "merging an empty rhs must be a no-op");

        let mut both = Log2Histogram::new();
        both.merge(&Log2Histogram::new());
        assert!(both.is_empty());
        assert_eq!(both.min(), None);
        assert_eq!(both.quantile(1.0), None);
    }

    /// The empty histogram round-trips: its wire form omits min/max.
    #[test]
    fn empty_histogram_round_trips_through_serde() {
        let empty = Log2Histogram::new();
        let json = serde_json::to_string(&empty).expect("serializes");
        assert_eq!(json, r#"{"buckets":[],"count":0,"sum":"0"}"#);
        let back: Log2Histogram =
            serde_json::from_str(&json).expect("empty histogram deserializes");
        assert_eq!(back, empty);
        // And it still behaves as empty after the trip.
        let mut h = back;
        h.add(2.0);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(2.0));
    }

    /// The wire form is pinned byte for byte: `buckets` is the ascending
    /// list of non-zero `[index, count]` pairs, whatever the in-memory
    /// layout.
    #[test]
    fn wire_form_is_pinned() {
        let mut h = Log2Histogram::new();
        for v in [0.0, -1.0, 1e-9, 0.37, 41.5, 1e12, 0.37, 41.5, 41.5, 0.0] {
            h.add(v);
        }
        let json = serde_json::to_string(&h).expect("serializes");
        assert_eq!(
            json,
            r#"{"buckets":[[0,4],[1588,2],[2462,3],[6878,1]],"count":10,"sum":"1000000000125240000","min":0,"max":1000000000000000000}"#
        );
        let back: Log2Histogram = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, h);
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }

    /// Wire input no recording produces is an error, not a panic or a
    /// multi-gigabyte span; zero-count pairs are dropped.
    #[test]
    fn deserialize_rejects_what_no_recording_produces() {
        let read = |buckets: &str, count: u64, sum: &str, min: u64, max: u64| {
            let json = format!(
                r#"{{"buckets":{buckets},"count":{count},"sum":"{sum}","min":{min},"max":{max}}}"#
            );
            serde_json::from_str::<Log2Histogram>(&json)
        };
        let ok = read("[[1,1],[500,0],[128,1]]", 2, "129", 1, 128).expect("reads");
        assert_eq!(ok.counts.len(), 128, "the zero-count pair opens no span");
        assert_eq!(ok, recorded(&[1, 128]));
        for (buckets, count, sum, min, max) in [
            ("[[7424,1],[1,1]]", 2, "2", 1, 1),
            ("[[4294967295,1]]", 1, "1", 1, 1),
            ("[[1,18446744073709551615],[2,1]]", 0, "3", 1, 2),
            ("[[1,1],[128,1]]", 3, "129", 1, 128),
            ("[[1,1],[128,1]]", 2, "-1", 1, 128),
            ("[[1,1],[128,1]]", 2, "1e3", 1, 128),
            (
                "[[1,1],[128,1]]",
                2,
                "340282366920938463463374607431768211456",
                1,
                128,
            ),
            ("[[1,1],[128,1]]", 2, "129", 128, 1),
            ("[[1,1],[128,1]]", 2, "129", 0, 128),
            ("[[1,1],[128,1]]", 2, "129", 1, 300),
            ("[[506,2]]", 2, "2003", 1003, 1000),
            ("[[1,1],[1,18446744073709551615]]", 0, "1", 1, 1),
            ("[]", 1, "0", 0, 0),
        ] {
            assert!(
                read(buckets, count, sum, min, max).is_err(),
                "{buckets} count {count} sum {sum} min {min} max {max}"
            );
        }
        let lacks_max = r#"{"buckets":[[1,1]],"count":1,"sum":"1","min":1}"#;
        assert!(serde_json::from_str::<Log2Histogram>(lacks_max).is_err());
        let numeric_sum = r#"{"buckets":[[1,1]],"count":1,"sum":1,"min":1,"max":1}"#;
        assert!(serde_json::from_str::<Log2Histogram>(numeric_sum).is_err());
    }

    /// Equality is over observations, not over how the buckets were
    /// laid out: the same values fed in opposite orders compare equal.
    #[test]
    fn equality_ignores_insertion_order() {
        let values = [500_000, 3_000_000, 96_250_000, 0, 1 << 40, 7_750_000, 3];
        let reversed: Vec<u64> = values.iter().rev().copied().collect();
        assert_eq!(recorded(&values), recorded(&reversed));
    }

    /// The memory guard. Eight sub-bucket bits doubled the dense span
    /// and raised fleet_churn's `peak_rss_mb` by 14 % (15.9 → 18.1 MiB)
    /// and llm_chat's by 9 %, against the benchmark's 5 % bound; seven
    /// bits left it flat. So a 1 µs – 100 s latency stream in ns ticks,
    /// 10⁸ apart (2²⁶ < 10⁸ < 2²⁷), spans at most 128 buckets for each of
    /// its 27 octaves, and its zeros open no span below 1 µs (a dense
    /// bucket 0 raised fleet_churn's by 23 %).
    #[test]
    fn memory_is_at_most_128_buckets_an_octave() {
        let mut h = Log2Histogram::new();
        h.record(0);
        let mut ns = 1_000u64;
        while ns <= 100_000_000_000 {
            h.record(ns);
            ns += ns / 1_000 + 1;
        }
        // The dense span, not just the buckets in use, is the memory.
        assert!(h.counts.len() <= 128 * 27, "got {}", h.counts.len());
        assert!(h.counts.capacity() == h.counts.len(), "reserved exactly");
    }

    proptest! {
        /// `add` rounds to the nearest tick, like `(v · 10⁶).round()`
        /// for any non-negative value but on an exact tie, which it
        /// rounds to even.
        #[test]
        fn add_rounds_to_the_nearest_tick(v in 0.0f64..1.0e13) {
            let mut h = Log2Histogram::new();
            h.add(v);
            let x = v * UNIT;
            let nearest = if x.fract() == 0.5 { 2.0 * (x / 2.0).round() } else { x.round() };
            prop_assert_eq!(h.sum_ticks(), nearest as u128);
        }

        /// Any interior quantile is within 2⁻⁸ of the exact
        /// nearest-rank quantile of the sorted sample.
        #[test]
        fn quantile_error_is_bounded(
            values in proptest::collection::vec(ticks(), 1..200),
            q in 0.0f64..1.0,
        ) {
            let h = recorded(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = exact_nearest_rank(&sorted, q) as f64;
            let approx = h.quantile(q).unwrap() * UNIT;
            // Slack for the f64 reads of 64-bit ticks.
            let bound = exact * (BOUND + 4.0 * f64::EPSILON);
            prop_assert!(
                (approx - exact).abs() <= bound,
                "q={q} exact={exact} approx={approx}"
            );
        }

        /// Folding runs of equal values is the same recording as adding
        /// them one at a time, sum included.
        #[test]
        fn record_n_equals_n_records(
            runs in proptest::collection::vec((ticks(), 0u64..40), 1..30),
        ) {
            let (mut folded, mut each) = (Log2Histogram::new(), Log2Histogram::new());
            for &(t, n) in &runs {
                folded.record_n(t, n);
                for _ in 0..n {
                    each.record(t);
                }
            }
            prop_assert_eq!(folded.sum_ticks(), each.sum_ticks());
            prop_assert_eq!(folded.min(), each.min());
            prop_assert_eq!(folded.max(), each.max());
            prop_assert_eq!(&folded, &each);
        }

        /// The sharded aggregation contract: partitioning a recording
        /// across shard-local histograms and merging them back is the
        /// same recording, sum and quantiles included. Some partitions
        /// are deliberately left empty.
        #[test]
        fn sharded_merge_equals_single_recording(
            values in proptest::collection::vec(ticks(), 1..300),
            assignment in proptest::collection::vec(0usize..8, 300),
            shards in 1usize..8,
        ) {
            let whole = recorded(&values);
            let mut parts = vec![Log2Histogram::new(); shards];
            for (i, &t) in values.iter().enumerate() {
                parts[assignment[i] % shards].record(t);
            }
            let mut merged = Log2Histogram::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
            for i in 0..=10 {
                let q = f64::from(i) / 10.0;
                prop_assert_eq!(merged.quantile(q), whole.quantile(q), "q={}", q);
            }
        }

        /// A serde round trip is the identity, with a sum past
        /// `u64::MAX`.
        #[test]
        fn serde_round_trips_a_sum_past_u64(
            runs in proptest::collection::vec((ticks(), 1u64..1_000), 0..20),
            big in (u64::MAX >> 1)..=u64::MAX,
        ) {
            let mut h = Log2Histogram::new();
            h.record_n(big, 3);
            for &(t, n) in &runs {
                h.record_n(t, n);
            }
            prop_assert!(h.sum_ticks() > u128::from(u64::MAX));
            let json = serde_json::to_string(&h).expect("serializes");
            let back: Log2Histogram = serde_json::from_str(&json).expect("deserializes");
            prop_assert_eq!(back.sum_ticks(), h.sum_ticks());
            prop_assert_eq!(&back, &h);
        }

        /// Garbled or out-of-range wire input returns `Ok` or `Err` and
        /// never panics, and whatever reads back answers every query.
        #[test]
        fn garbled_wire_input_never_panics(
            buckets in proptest::collection::vec((0u32..8_000, 0u64..4), 0..4),
            count in prop_oneof![0u64..6, any::<u64>()],
            sum in (0u64..1_000, 0u32..2).prop_map(|(s, wide)| {
                (u128::from(s) << (64 * wide)).to_string()
            }),
            (min, max) in (0u64..3_000, 0u64..3_000),
            (flip_at, flip_to) in (0usize..120, any::<u8>()),
        ) {
            let buckets: Vec<String> =
                buckets.iter().map(|(i, n)| format!("[{i},{n}]")).collect();
            let json = format!(
                r#"{{"buckets":[{}],"count":{count},"sum":"{sum}","min":{min},"max":{max}}}"#,
                buckets.join(",")
            );
            let mut garbled = json.clone().into_bytes();
            if let Some(b) = garbled.get_mut(flip_at) {
                *b = flip_to;
            }
            for text in [json, String::from_utf8_lossy(&garbled).into_owned()] {
                if let Ok(h) = serde_json::from_str::<Log2Histogram>(&text) {
                    for i in 0..=4 {
                        let _ = h.quantile(f64::from(i) / 4.0);
                    }
                    let _ = (h.mean(), h.min(), h.max());
                    Log2Histogram::new().merge(&h);
                }
            }
        }

        /// Quantiles are monotone in q.
        #[test]
        fn quantiles_are_monotone(
            values in proptest::collection::vec(ticks(), 1..100),
        ) {
            let h = recorded(&values);
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                let v = h.quantile(q).unwrap();
                prop_assert!(v >= prev, "q={q}: {v} < {prev}");
                prev = v;
            }
        }
    }
}
