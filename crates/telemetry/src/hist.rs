//! Log2-bucketed histogram with a documented relative-error bound.

use std::sync::OnceLock;

use serde::{Deserialize, Error, Map, Serialize, Value};

/// Sub-buckets per power of two. With 128 sub-buckets an octave, each
/// bucket spans a `2^(1/128)` ratio, so reporting the geometric
/// midpoint of a bucket is off from any member by at most
/// `2^(1/256) − 1 ≈ 0.27 %` — comfortably inside the advertised `2⁻⁷ ≈
/// 0.78 %` relative bound.
const SUB_BUCKETS: f64 = 128.0;

/// Mantissa cells of the sub-bucket table: one per value of the top 12
/// of the 52 mantissa bits.
const CELL_BITS: u32 = 12;
const CELLS: usize = 1 << CELL_BITS;

/// The lowest and highest index a finite positive value can take: the
/// smallest subnormal `2⁻¹⁰⁷⁴`, and `f64::MAX`, whose `log2` rounds to
/// 1024. Serialized indices outside this range are rejected.
const MIN_INDEX: i32 = -1074 * 128;
const MAX_INDEX: i32 = 1024 * 128;

/// A log2-bucketed histogram over non-negative values.
///
/// Replaces the retain-every-sample-and-sort quantile path in the run
/// report. Memory is bounded by the dynamic range, not the request
/// count: counts are dense, 8 B per bucket across the spanned range
/// (≈ 128 buckets per factor of two, so a run whose latencies span
/// 1 ms – 100 s holds at most ~2 200 buckets, ~17 KiB). Recording is
/// O(1) — one bounds check and one increment, with no `log2` for
/// normal values — and [`quantile`](Self::quantile) is a single
/// cumulative walk.
///
/// Accuracy: quantiles are exact at the extremes (the true minimum and
/// maximum are tracked separately, so `quantile(0.0)` and
/// `quantile(1.0)` carry no bucketing error) and within a relative
/// error of `2^(1/256) − 1 < 2⁻⁷` everywhere else. [`mean`](Self::mean)
/// is exact (running sum). Non-finite values are ignored; negative
/// values clamp to zero and land in a dedicated zero bucket.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    /// Dense counts: `counts[i]` is the bucket with index `base + i`,
    /// which covers `[2^(idx/128), 2^((idx+1)/128))`. Spans exactly the
    /// lowest to the highest bucket ever counted.
    counts: Vec<u64>,
    /// Index of `counts[0]`; unused while `counts` is empty.
    base: i32,
    /// Observations that were exactly zero (or clamped up to it).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

/// The sub-bucket of every mantissa cell that no bucket boundary
/// `2^(k/128)` crosses, or −1 for the cells one does. A cell must clear
/// every boundary by `MARGIN` sub-buckets, four orders of magnitude
/// more than libm's error on `128 · log2 v` for any finite `v`, so a
/// table hit always equals the `log2` expression. 3 967 of the 4 096
/// cells resolve.
#[inline]
fn sub_bucket_table() -> &'static [i8; CELLS] {
    const MARGIN: f64 = 1e-6;
    static TABLE: OnceLock<[i8; CELLS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let edge = |cell: usize| (1.0 + cell as f64 / CELLS as f64).log2() * SUB_BUCKETS;
        let mut table = [-1; CELLS];
        for (cell, sub) in table.iter_mut().enumerate() {
            let (lo, hi) = (edge(cell), edge(cell + 1));
            let k = lo.floor();
            if lo - k >= MARGIN && hi <= k + 1.0 - MARGIN {
                *sub = k as i8;
            }
        }
        table
    })
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: Vec::new(),
            base: 0,
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index of `v`, defined as [`index_log2`](Self::index_log2).
    /// A positive normal reads its octave from the exponent bits and its
    /// sub-bucket from the table; cells a boundary crosses, zero,
    /// subnormals and non-finite values take the `log2` expression.
    #[inline]
    fn index(v: f64) -> i32 {
        let bits = v.to_bits();
        // The sign bit pushes negatives past the non-finite exponent.
        let exp = (bits >> 52) as i32;
        if exp > 0 && exp < 0x7ff {
            let cell = (bits >> (52 - CELL_BITS)) as usize & (CELLS - 1);
            let sub = sub_bucket_table()[cell];
            if sub >= 0 {
                return (exp - 1023) * 128 + i32::from(sub);
            }
        }
        Self::index_log2(v)
    }

    /// The bucket index's definition: `⌊128 · log2 v⌋`.
    fn index_log2(v: f64) -> i32 {
        (v.log2() * SUB_BUCKETS).floor() as i32
    }

    /// Geometric midpoint of bucket `idx`.
    fn representative(idx: i32) -> f64 {
        ((f64::from(idx) + 0.5) / SUB_BUCKETS).exp2()
    }

    /// Adds an observation. Non-finite values are ignored; negative
    /// values clamp to zero.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.add_n(v, 1);
    }

    /// Adds `n` observations of `v`, with the same result as `n` calls
    /// of [`add`](Self::add) bit for bit: the running sum still takes
    /// `n` additions, while the bucket index, the bucket update and
    /// min/max are done once.
    #[inline]
    pub fn add_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        let v = v.max(0.0);
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zero_count += n;
            return;
        }
        let idx = Self::index(v);
        // Below `base` wraps to a huge offset, so it misses like above.
        match self.counts.get_mut(idx.wrapping_sub(self.base) as usize) {
            Some(c) => *c += n,
            None => self.grow(idx, n),
        }
    }

    /// Counts `n` into bucket `idx`, which lies outside the span.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, idx: i32, n: u64) {
        self.cover(idx, idx);
        self.counts[(idx - self.base) as usize] += n;
    }

    /// Widens the span to include buckets `lo..=hi`, reserving exactly:
    /// a histogram's first observations set most of its span, and
    /// doubling would leave up to half of every span unused.
    fn cover(&mut self, lo: i32, hi: i32) {
        let (lo, hi) = match self.counts.len() {
            0 => (lo, hi),
            len => (lo.min(self.base), hi.max(self.base + len as i32 - 1)),
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
    fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.base..)
            .zip(self.counts.iter().copied())
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

    /// Exact mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]` (clamped). Exact at `q = 0`
    /// and `q = 1`; within `2⁻⁷` relative error elsewhere (see the type
    /// docs). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // One sample: every quantile is that exact observation (min ==
        // max). Without this, interior quantiles returned the bucket
        // representative — p50 and p99 disagreed with the sample by up
        // to the bucket's relative error.
        if self.count == 1 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.zero_count;
        if target <= cum {
            return Some(0.0);
        }
        for (idx, n) in self.buckets() {
            cum += n;
            if target <= cum {
                return Some(Self::representative(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.base, other.base + other.counts.len() as i32 - 1);
            let offset = (other.base - self.base) as usize;
            for (c, n) in self.counts[offset..].iter_mut().zip(&other.counts) {
                *c += n;
            }
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of distinct non-zero buckets in use (memory-bound checks).
    pub fn bucket_count(&self) -> usize {
        self.buckets().count()
    }
}

/// Equal when the observations agree: the non-zero buckets and the
/// scalars, whatever order the dense span grew in.
impl PartialEq for Log2Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.zero_count == other.zero_count
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets().eq(other.buckets())
    }
}

// Manual serde: the empty histogram's min/max sentinels (`+inf`/`-inf`)
// are not JSON-representable — the derived impl emitted them as `null`,
// which failed to deserialize and would silently corrupt any merge of a
// round-tripped empty histogram. Sharding makes merge the primary
// aggregation path, so the wire form omits min/max entirely when the
// histogram is empty and the reader restores the exact sentinels.
// `buckets` is the ascending list of non-zero `[index, count]` pairs.
impl Serialize for Log2Histogram {
    fn serialize(&self) -> Value {
        let mut map = Map::new();
        let buckets: Vec<(i32, u64)> = self.buckets().collect();
        map.insert("buckets".to_string(), buckets.serialize());
        map.insert("zero_count".to_string(), self.zero_count.serialize());
        map.insert("count".to_string(), self.count.serialize());
        map.insert("sum".to_string(), self.sum.serialize());
        if self.count > 0 {
            map.insert("min".to_string(), self.min.serialize());
            map.insert("max".to_string(), self.max.serialize());
        }
        Value::Object(map)
    }
}

impl Deserialize for Log2Histogram {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let field = |name: &str| -> Result<&Value, Error> {
            value
                .get(name)
                .ok_or_else(|| Error::custom(format!("Log2Histogram: missing field `{name}`")))
        };
        let count: u64 = Deserialize::deserialize(field("count")?)?;
        let extremum = |name: &str| -> Result<f64, Error> {
            match value.get(name) {
                Some(v) if !matches!(v, Value::Null) => Deserialize::deserialize(v),
                // Absent (new wire form) or `null` (legacy snapshots of
                // an empty histogram): only valid when nothing was
                // recorded, in which case the sentinel is restored by
                // the caller below.
                _ if count == 0 => Ok(f64::NAN),
                _ => Err(Error::custom(format!(
                    "Log2Histogram: non-empty histogram lacks `{name}`"
                ))),
            }
        };
        let min = extremum("min")?;
        let max = extremum("max")?;
        let buckets: Vec<(i32, u64)> = Deserialize::deserialize(field("buckets")?)?;
        if let Some(&(idx, _)) = buckets
            .iter()
            .find(|&&(idx, _)| !(MIN_INDEX..=MAX_INDEX).contains(&idx))
        {
            return Err(Error::custom(format!(
                "Log2Histogram: bucket index {idx} is outside any finite value's range"
            )));
        }
        let mut hist = Log2Histogram {
            zero_count: Deserialize::deserialize(field("zero_count")?)?,
            count,
            sum: Deserialize::deserialize(field("sum")?)?,
            min: if count == 0 { f64::INFINITY } else { min },
            max: if count == 0 { f64::NEG_INFINITY } else { max },
            ..Log2Histogram::new()
        };
        let nonzero = buckets.iter().filter(|&&(_, n)| n != 0);
        if let (Some(lo), Some(hi)) = (
            nonzero.clone().map(|&(idx, _)| idx).min(),
            nonzero.clone().map(|&(idx, _)| idx).max(),
        ) {
            hist.cover(lo, hi);
            for &(idx, n) in nonzero {
                let c = &mut hist.counts[(idx - hist.base) as usize];
                *c = c.checked_add(n).ok_or_else(|| {
                    Error::custom(format!("Log2Histogram: bucket {idx} overflows its count"))
                })?;
            }
        }
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The advertised relative-error bound.
    const BOUND: f64 = 1.0 / 128.0; // 2⁻⁷

    fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    /// Regression: a single-sample histogram must report that exact
    /// sample at *every* quantile, not a bucket representative — a
    /// one-completion LLM run's TTFT p50/p99 are the sample itself.
    #[test]
    fn single_sample_quantiles_are_exact() {
        for v in [0.0, 1e-9, 0.37, 41.5, 1e12] {
            let mut h = Log2Histogram::new();
            h.add(v);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
            }
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [8.3, 120.7, 0.4, 55.5] {
            h.add(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.4));
        assert_eq!(h.quantile(1.0), Some(120.7));
        assert_eq!(h.min(), Some(0.4));
        assert_eq!(h.max(), Some(120.7));
        let mean = (8.3 + 120.7 + 0.4 + 55.5) / 4.0;
        assert!((h.mean() - mean).abs() < 1e-12);
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
        assert!(h.is_empty());
    }

    #[test]
    fn merge_matches_combined_stream() {
        let (mut a, mut b, mut all) = (
            Log2Histogram::new(),
            Log2Histogram::new(),
            Log2Histogram::new(),
        );
        for i in 0..100 {
            let v = 1.0 + f64::from(i) * 3.7;
            if i % 2 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
            all.add(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    /// Sentinel hygiene: merging an empty histogram in (either
    /// direction) must not leak the `±inf` init values into min/max or
    /// the extreme quantiles — sharding produces empty shard recordings
    /// routinely (a function with no traffic on its shard).
    #[test]
    fn merge_with_empty_side_keeps_exact_extremes() {
        let mut recorded = Log2Histogram::new();
        for v in [3.5, 9.1, 0.7] {
            recorded.add(v);
        }
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

    /// `quantile(1.0)` of a merged histogram is the exact global
    /// maximum, whichever side contributed it.
    #[test]
    fn merged_top_quantile_is_exact_global_max() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [1.0, 2.0, 440.25] {
            a.add(v);
        }
        for v in [3.0, 17.5] {
            b.add(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.quantile(1.0), Some(440.25));
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba.quantile(1.0), Some(440.25));
        assert_eq!(ba.quantile(0.0), Some(1.0));
    }

    /// The empty histogram round-trips through serialization: the old
    /// derived impl wrote `min`/`max` as JSON `null` (non-finite f64),
    /// which could not be read back.
    #[test]
    fn empty_histogram_round_trips_through_serde() {
        let empty = Log2Histogram::new();
        let json = serde_json::to_string(&empty).expect("serializes");
        let back: Log2Histogram =
            serde_json::from_str(&json).expect("empty histogram deserializes");
        assert_eq!(back, empty);
        // And it still behaves as empty after the trip.
        let mut h = back;
        h.add(2.0);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(2.0));
    }

    #[test]
    fn populated_histogram_round_trips_through_serde() {
        let mut h = Log2Histogram::new();
        for v in [0.0, 0.25, 6.5, 1e4] {
            h.add(v);
        }
        let json = serde_json::to_string(&h).expect("serializes");
        let back: Log2Histogram = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, h);
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
            r#"{"buckets":[[-3827,1],[-184,2],[688,3],[5102,1]],"zero_count":3,"count":10,"sum":1000000000125.24,"min":0.0,"max":1000000000000.0}"#
        );
        let back: Log2Histogram = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, h);
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }

    /// Snapshots written before the empty-histogram fix carry `null`
    /// min/max; they still read back as the empty histogram.
    #[test]
    fn legacy_null_extremes_still_read() {
        let legacy = r#"{"buckets":[],"zero_count":0,"count":0,"sum":0.0,"min":null,"max":null}"#;
        let back: Log2Histogram = serde_json::from_str(legacy).expect("legacy form reads");
        assert_eq!(back, Log2Histogram::new());
        assert_eq!(back.min(), None);
        assert_eq!(back.max(), None);
    }

    /// A serialized bucket index no finite value can produce is an
    /// error, not a multi-gigabyte span; zero-count pairs are dropped.
    #[test]
    fn deserialize_checks_bucket_indices() {
        let read = |buckets: &str| {
            let json = format!(
                r#"{{"buckets":{buckets},"zero_count":0,"count":2,"sum":3.0,"min":1.0,"max":2.0}}"#
            );
            serde_json::from_str::<Log2Histogram>(&json)
        };
        assert!(read("[[-2147483648,1],[2147483647,1]]").is_err());
        assert!(read("[[0,18446744073709551615],[0,1]]").is_err());
        let h = read("[[128,1],[-500,0],[0,1]]").expect("in-range indices read");
        assert_eq!(h.counts.len(), 129, "the zero-count pair opens no span");
        let mut added = Log2Histogram::new();
        added.add(1.0);
        added.add(2.0);
        assert_eq!(h, added);
    }

    /// Equality is over observations, not over how the buckets were
    /// laid out: the same values fed in opposite orders compare equal.
    /// The values are dyadic, so the running sum is order-independent.
    #[test]
    fn equality_ignores_insertion_order() {
        let values = [0.5, 3.0, 96.25, 0.0, 1024.0, 7.75, 0.015625, 3.0];
        let (mut up, mut down) = (Log2Histogram::new(), Log2Histogram::new());
        for &v in &values {
            up.add(v);
        }
        for &v in values.iter().rev() {
            down.add(v);
        }
        assert_eq!(up, down);
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range() {
        let mut h = Log2Histogram::new();
        // A million values across 1 ms – 100 s: far fewer buckets than
        // samples (≈ 128 per octave, ~17 octaves).
        for i in 0..1_000_000u64 {
            h.add(1.0 + (i % 100_000) as f64);
        }
        // The dense span, not just the buckets in use, is the memory.
        assert!(h.counts.len() < 2_300, "got {}", h.counts.len());
        assert!(h.counts.capacity() == h.counts.len(), "reserved exactly");
    }

    /// ⌊128 · log2 v⌋ as a float expression: the index's definition.
    fn defined_index(v: f64) -> i32 {
        (v.log2() * SUB_BUCKETS).floor() as i32
    }

    /// The bits fast path is the `log2` expression exactly, on the
    /// ±4-ulp neighbours of every bucket boundary `2^e · 2^(k/128)` in
    /// the whole normal range, on the special values, and on the first
    /// and last mantissa of every table cell in every exponent: the
    /// table-resolved values closest to a boundary.
    #[test]
    fn index_equals_the_log2_expression_at_every_boundary() {
        let table = sub_bucket_table();
        let resolved = table.iter().filter(|&&sub| sub >= 0).count();
        assert_eq!(resolved, 3_967);
        let check = |v: f64| {
            assert_eq!(
                Log2Histogram::index(v),
                defined_index(v),
                "v = {v:e} (bits {:#x})",
                v.to_bits()
            );
        };
        for k in 0..128 {
            let boundary = (f64::from(k) / SUB_BUCKETS).exp2();
            for e in -1022..=1023 {
                let b = boundary * f64::from(e).exp2();
                if !b.is_normal() {
                    continue;
                }
                for d in -4i64..=4 {
                    check(f64::from_bits(b.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        for e in -1074..=1023 {
            check(f64::from(e).exp2());
        }
        let cell_width = 1u64 << (52 - CELL_BITS);
        for exp in 1..0x7ffu64 {
            for cell in 0..CELLS as u64 {
                let first = (exp << 52) | (cell * cell_width);
                check(f64::from_bits(first));
                check(f64::from_bits(first + cell_width - 1));
            }
        }
        for v in [
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            1.0,
            0.0,
        ] {
            check(v);
        }
        assert_eq!(Log2Histogram::index(f64::from_bits(1)), MIN_INDEX);
        assert!(Log2Histogram::index(f64::MAX) <= MAX_INDEX);
    }

    /// Adds `v` `n` times, one call each.
    fn add_each(h: &mut Log2Histogram, v: f64, n: u64) {
        for _ in 0..n {
            h.add(v);
        }
    }

    /// Every field agrees, the sum to the bit.
    fn assert_identical(a: &Log2Histogram, b: &Log2Histogram) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.min.to_bits(), b.min.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
        assert_eq!(a.zero_count, b.zero_count);
        assert!(a.buckets().eq(b.buckets()));
        assert_eq!(a, b);
    }

    #[test]
    fn add_n_equals_n_adds() {
        let cases = [
            (0.37, 5),
            (0.0, 3),
            (-2.5, 4),
            (f64::NAN, 2),
            (f64::INFINITY, 2),
            (f64::NEG_INFINITY, 1),
            (41.5, 0),
            (0.1, 23),
            // Opens a new lowest bucket below everything above.
            (1e-6, 7),
            (1e9, 2),
        ];
        let (mut folded, mut each) = (Log2Histogram::new(), Log2Histogram::new());
        for (v, n) in cases {
            folded.add_n(v, n);
            add_each(&mut each, v, n);
            assert_identical(&folded, &each);
        }
        // n = 0 on an empty histogram leaves it empty, sentinels and all.
        let mut empty = Log2Histogram::new();
        empty.add_n(3.0, 0);
        assert_identical(&empty, &Log2Histogram::new());
        assert_eq!(empty.min(), None);
    }

    proptest! {
        /// The index over raw bit patterns: every sign, exponent and
        /// mantissa, NaNs and infinities included.
        #[test]
        fn index_equals_the_log2_expression_on_any_bits(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(Log2Histogram::index(v), defined_index(v));
        }

        /// Folding runs of equal values is the same recording as adding
        /// them one at a time, in any order of runs.
        #[test]
        fn add_n_runs_equal_single_adds(
            runs in proptest::collection::vec((0.0f64..1.0e6, 0u64..40), 1..30),
        ) {
            let (mut folded, mut each) = (Log2Histogram::new(), Log2Histogram::new());
            for &(v, n) in &runs {
                folded.add_n(v, n);
                add_each(&mut each, v, n);
            }
            assert_identical(&folded, &each);
        }
    }

    proptest! {
        /// Any interior quantile of any positive sample set is within
        /// the documented 2⁻⁷ relative bound of the exact nearest-rank
        /// answer.
        #[test]
        fn quantile_error_is_bounded(
            values in proptest::collection::vec(0.001f64..1.0e6, 1..200),
            q in 0.0f64..1.0,
        ) {
            let mut h = Log2Histogram::new();
            for &v in &values {
                h.add(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = exact_nearest_rank(&sorted, q);
            let approx = h.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            prop_assert!(rel <= BOUND, "q={q} exact={exact} approx={approx} rel={rel}");
        }

        /// The sharded aggregation contract: partitioning a recording
        /// across any number of shard-local histograms and merging them
        /// back is equivalent to recording every value into one
        /// histogram — count, min, max, and mean exactly; interior
        /// quantiles within the documented 2⁻⁷ relative bound. Some
        /// partitions are deliberately left empty.
        #[test]
        fn sharded_merge_equals_single_recording(
            values in proptest::collection::vec(0.0f64..1.0e6, 1..300),
            assignment in proptest::collection::vec(0usize..8, 300),
            shards in 1usize..8,
        ) {
            let mut whole = Log2Histogram::new();
            let mut parts = vec![Log2Histogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                whole.add(v);
                parts[assignment[i] % shards].add(v);
            }
            let mut merged = Log2Histogram::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged.count(), values.len() as u64);
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
            prop_assert_eq!(merged.bucket_count(), whole.bucket_count());
            // The running sum is accumulated in a different order when
            // partitioned, so the mean agrees to rounding ulps rather
            // than bit-for-bit (per-function histograms are never split
            // across shards in the simulator, so run reports stay
            // bit-identical regardless).
            prop_assert!(
                (merged.mean() - whole.mean()).abs() <= 1e-12 * whole.mean().abs(),
                "mean drifted: {} vs {}", merged.mean(), whole.mean()
            );
            for i in 0..=10 {
                let q = f64::from(i) / 10.0;
                let (m, w) = (merged.quantile(q).unwrap(), whole.quantile(q).unwrap());
                // Same buckets → identical answers; the bound is the
                // documented contract, the equality is the stronger
                // property this representation actually provides.
                prop_assert_eq!(m, w, "q={}", q);
                if w > 0.0 {
                    prop_assert!((m - w).abs() / w <= BOUND);
                }
            }
        }

        /// Quantiles are monotone in q.
        #[test]
        fn quantiles_are_monotone(
            values in proptest::collection::vec(0.001f64..1.0e6, 1..100),
        ) {
            let mut h = Log2Histogram::new();
            for &v in &values {
                h.add(v);
            }
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
