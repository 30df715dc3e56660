//! Property tests for the deterministic histogram: merge is associative
//! and commutative, sharding observations across any worker count yields
//! the bit-identical aggregate (the `--jobs` invariance argument), and
//! the wire round trip rebuilds the identical histogram.

use proptest::prelude::*;
use slopt_obs::Histogram;

fn fold(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Merge is associative and commutative: any merge tree over the same
    /// shards produces the same histogram, field for field.
    #[test]
    fn merge_is_associative_and_commutative(
        xs in prop::collection::vec(any::<u64>(), 0..60),
        ys in prop::collection::vec(any::<u64>(), 0..60),
        zs in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        let (a, b, c) = (fold(&xs), fold(&ys), fold(&zs));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);

        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(&ab, &ba);
    }

    /// Jobs invariance: recording serially equals splitting the stream
    /// round-robin over 1/2/4/7 workers and merging the partials — in any
    /// merge order. This is exactly why `--jobs` cannot change p50/p99.
    #[test]
    fn sharded_merge_equals_serial_fold(
        values in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let serial = fold(&values);
        for jobs in [1usize, 2, 4, 7] {
            let mut shards = vec![Histogram::new(); jobs];
            for (i, &v) in values.iter().enumerate() {
                shards[i % jobs].record(v);
            }
            // Forward merge order.
            let mut fwd = Histogram::new();
            for s in &shards {
                fwd.merge(s);
            }
            // Reverse merge order.
            let mut rev = Histogram::new();
            for s in shards.iter().rev() {
                rev.merge(s);
            }
            prop_assert_eq!(&fwd, &serial, "jobs={}", jobs);
            prop_assert_eq!(&rev, &serial, "jobs={} (reversed)", jobs);
            prop_assert_eq!(fwd.summary(), serial.summary(), "jobs={}", jobs);
        }
    }

    /// Summary invariants: quantiles are ordered, clamped to the observed
    /// range, and each quantile's bucket bound is within 2x of some
    /// observation at or above the rank (log2 bucket error bound).
    #[test]
    fn summary_invariants(values in prop::collection::vec(0u64..1 << 48, 1..150)) {
        let h = fold(&values);
        let s = h.summary();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.min, *values.iter().min().unwrap());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, got) in [(0.50, s.p50), (0.90, s.p90), (0.99, s.p99)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            // The reported quantile is >= the exact order statistic and
            // at most 2x above it (bucket upper bound, clamped to max).
            prop_assert!(got >= exact, "q={q}: {got} < exact {exact}");
            prop_assert!(got <= exact.saturating_mul(2).max(1), "q={q}: {got} > 2x {exact}");
        }
    }

    /// Wire round trip: cumulative bucket pairs + min/max/sum rebuild the
    /// identical histogram, so its quantiles are identical too.
    #[test]
    fn cumulative_round_trip_preserves_quantiles(
        values in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        let h = fold(&values);
        let back =
            Histogram::from_cumulative_buckets(&h.nonzero_buckets(), h.min(), h.max(), h.sum())
                .expect("nonzero_buckets output is always well-formed");
        prop_assert_eq!(&back, &h);
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(back.quantile(q), h.quantile(q));
        }
    }
}
