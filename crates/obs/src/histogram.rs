//! Deterministic log2-bucketed histograms.
//!
//! A [`Histogram`] is the distribution primitive of the profiling layer:
//! every RAII span feeds one per span name (duration nanoseconds), and
//! [`crate::Obs::histogram`] records workload-level values (per-interval
//! Code Concurrency cost, per-struct FLG objective). The design goals, in
//! order:
//!
//! 1. **Bit-reproducible at any `--jobs`.** Bucket counts are exact `u64`
//!    sums and [`Histogram::merge`] is associative and commutative
//!    (saturating `u64` addition equals `min(true sum, u64::MAX)` in any
//!    association), so the order threads record or partial histograms
//!    merge in can never change the result. There is no sampling, no
//!    decay, no floating-point accumulation.
//! 2. **Fixed memory.** 65 buckets (one per bit length, plus a zero
//!    bucket) cover the whole `u64` range; a histogram is a flat array,
//!    never an allocation per observation.
//! 3. **Deterministic quantiles.** [`Histogram::quantile`] resolves a
//!    rank to its bucket's upper bound, clamped to the exact observed
//!    `[min, max]` — a pure function of the counts, so p50/p90/p99 are
//!    comparable across runs and hosts.
//!
//! The relative error of a log2 bucket is at most 2×, which is the right
//! trade for profiling: "p99 regressed from the 1 ms bucket to the 4 ms
//! bucket" is the question `slopt-tool diff` answers; sub-bucket precision
//! would cost unbounded memory or determinism.

use std::fmt;

/// Number of buckets: bucket 0 holds the value 0, bucket `i` (1..=64)
/// holds values with bit length `i`, i.e. `2^(i-1) <= v < 2^i`.
pub const BUCKETS: usize = 65;

/// A fixed log2-bucketed distribution of `u64` values with exact count,
/// sum, min and max. See the module docs for the determinism contract.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets", &self.nonzero_buckets())
            .finish()
    }
}

/// The bucket index a value lands in: 0 for 0, else the bit length.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] = self.counts[bucket_index(value)].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Associative and
    /// commutative: any merge tree over the same observations yields the
    /// same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts (index by [`bucket_index`]).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// The non-empty buckets as `(bucket index, cumulative count)` pairs,
    /// ascending in both — the wire form of the `S` summary trace event,
    /// whose monotonicity trace validation ([`crate::lint_str`]) enforces.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum = cum.saturating_add(c);
                out.push((i, cum));
            }
        }
        out
    }

    /// Rebuilds a histogram from `(bucket index, cumulative count)` pairs
    /// plus its exact min, max and sum, the inverse of
    /// [`Histogram::nonzero_buckets`]. Returns `None` if the pairs are
    /// malformed (index out of range or descending, cumulative counts
    /// non-increasing) or, when non-empty, `min` is not in the first
    /// bucket, `max` not in the last, or `min > max`.
    pub fn from_cumulative_buckets(
        pairs: &[(usize, u64)],
        min: u64,
        max: u64,
        sum: u64,
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        let mut prev_idx: Option<usize> = None;
        let mut prev_cum = 0u64;
        for &(i, cum) in pairs {
            if i >= BUCKETS || prev_idx.is_some_and(|p| p >= i) || cum <= prev_cum {
                return None;
            }
            h.counts[i] = cum - prev_cum;
            prev_idx = Some(i);
            prev_cum = cum;
        }
        h.count = prev_cum;
        if let (Some(&(first, _)), Some(&(last, _))) = (pairs.first(), pairs.last()) {
            if min > max || bucket_index(min) != first || bucket_index(max) != last {
                return None;
            }
            h.min = min;
            h.max = max;
            h.sum = sum;
        }
        Some(h)
    }

    /// The `q`-quantile (`0 < q <= 1`) as the containing bucket's upper
    /// bound, clamped to the observed `[min, max]`. Returns 0 when empty.
    /// Deterministic: a pure function of the counts.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The fixed p50/p90/p99 summary row.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// The fixed quantile summary of one [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v} fits an earlier bucket");
            }
        }
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let s = h.summary();
        // rank ceil(0.5*5)=3 -> third value lives in bucket 2 (values
        // 2,3); upper bound 3.
        assert_eq!(s.p50, 3);
        // rank 5 -> bucket of 1000 (bucket 10, upper 1023) clamped to
        // max 1000.
        assert_eq!(s.p99, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let values = [0u64, 1, 5, 5, 9, 120, 4096, u64::MAX];
        let mut serial = Histogram::new();
        for &v in &values {
            serial.record(v);
        }
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, serial);
        assert_eq!(ba, serial);
    }

    #[test]
    fn cumulative_buckets_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 7, 7, 300] {
            h.record(v);
        }
        let pairs = h.nonzero_buckets();
        assert_eq!(pairs.last().unwrap().1, h.count());
        let back = Histogram::from_cumulative_buckets(&pairs, h.min(), h.max(), h.sum()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_cumulative_rejects_malformed() {
        let rebuild = |pairs: &[(usize, u64)], min, max| {
            Histogram::from_cumulative_buckets(pairs, min, max, 0)
        };
        // Descending indices.
        assert!(rebuild(&[(3, 1), (2, 2)], 4, 3).is_none());
        // Non-increasing cumulative counts.
        assert!(rebuild(&[(1, 2), (2, 2)], 1, 3).is_none());
        // Out-of-range bucket.
        assert!(rebuild(&[(65, 1)], 1, 1).is_none());
        // min/max outside the end buckets, or min above max.
        assert!(rebuild(&[(1, 2), (9, 3)], 0, 300).is_none());
        assert!(rebuild(&[(1, 2), (9, 3)], 1, 9).is_none());
        assert!(rebuild(&[(4, 2)], 12, 9).is_none());
        // Valid sparse form.
        assert!(rebuild(&[(1, 2), (9, 3)], 1, 300).is_some());
    }

    #[test]
    fn saturating_sums_never_wrap() {
        let mut h = Histogram::new();
        h.record_n(u64::MAX, 3);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
        let mut other = h.clone();
        other.merge(&h);
        assert_eq!(other.sum(), u64::MAX);
        assert_eq!(other.count(), 6);
    }
}
