//! Order statistics over raw sample vectors. No histogram buckets: every
//! value reported is one of the measured samples (nearest rank) or, for
//! quartiles, the interpolation Python's `statistics.quantiles` uses, so
//! the spreads printed here match Python's over the same values.

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` is clamped to `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((p.clamp(f64::MIN_POSITIVE, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median as a nearest-rank percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail statistic the benchmark reports beside each median: the
/// highest whole percentile (50..=99) that still has at least
/// [`TAIL_BEYOND`] samples above its rank, as `(percentile, value)`.
/// With fewer than `2 * TAIL_BEYOND` samples no percentile above the
/// median is supported by the data, and the median is returned: the
/// maximum of a handful of samples measures the noisiest one, not a tail.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let n = samples.len();
    let p = (51..=99u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_BEYOND)
        .unwrap_or(50);
    (p, percentile(samples, f64::from(p)))
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// First and third quartile by Python's default (`exclusive`)
/// `statistics.quantiles(data, n=4)` method. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let data = sorted(samples);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The median as Python's `statistics.median` computes it (mean of the
/// two middle values for an even count), used where the benchmark must
/// agree with an outside recomputation.
pub fn python_median(samples: &[f64]) -> f64 {
    let data = sorted(samples);
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1..=20 shuffled: nearest rank must pick exact samples.
    fn twenty() -> Vec<f64> {
        [
            7, 19, 3, 12, 20, 1, 15, 9, 4, 17, 11, 6, 2, 18, 13, 5, 16, 8, 14, 10,
        ]
        .iter()
        .map(|&v| f64::from(v))
        .collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_samples_and_distinct() {
        let v = twenty();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_ne!(percentile(&v, 50.0), percentile(&v, 95.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // n = 200: p95 has rank 190, exactly ten beyond; p96 has eight.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95, 190.0));
        // n = 100: p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        // n = 34: p70 (rank 24, ten beyond); p71 has rank 25.
        let v: Vec<f64> = (1..=34).map(f64::from).collect();
        assert_eq!(tail(&v), (70, 24.0));
        // n = 20: only the median qualifies.
        assert_eq!(tail(&twenty()), (50, 10.0));
        // Too few samples for any percentile above the median.
        assert_eq!(tail(&[3.0, 9.0, 5.0]), (50, 5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(python_median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
