//! Exact order statistics over raw samples.
//!
//! Every latency is kept, and percentiles are read off the sorted samples
//! (nearest rank), never interpolated inside histogram buckets.

/// How many samples must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Samples needed before percentile `pct` may be reported.
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| n >= rank(n, pct) + MIN_BEYOND)
        .expect("some sample count satisfies the rule")
}

/// The nearest-rank `pct` percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    let r = rank(n, pct);
    if n < r + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// The median of any non-empty sample set (mean of the middle pair for an
/// even count). Used for set-up times and per-op layer figures, which are
/// summaries of a handful of values rather than latency percentiles.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Failed ops as a share of attempted ops (successes plus failures).
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Per-pair differences `a[i] - b[i]` of two measurements taken on the
/// same op. The paired median is robust to drift that moves both halves.
pub fn paired_differences(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "paired samples come in pairs");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the sort inside `percentile` is exercised.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    }

    #[test]
    fn reported_percentile_has_exactly_the_samples_beyond_it() {
        for n in [100, 101, 150, 1234] {
            let samples = ramp(n);
            let p90 = percentile(&samples, 90).expect("enough samples");
            let beyond = samples.iter().filter(|&&v| v > p90).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            let at_or_below = samples.iter().filter(|&&v| v <= p90).count();
            assert!(at_or_below * 100 >= 90 * n, "n={n}");
        }
    }

    #[test]
    fn percentile_is_a_sample_not_a_bucket_midpoint() {
        // Every value inside one decade, where a decade-bucket histogram
        // would report the same midpoint for p50 and p99.
        let samples: Vec<f64> = (0..2000).map(|i| 1.0 + i as f64 * 0.004).collect();
        let p50 = percentile(&samples, 50).expect("p50");
        let p99 = percentile(&samples, 99).expect("p99");
        assert!(samples.contains(&p50) && samples.contains(&p99));
        assert!((p50 - 4.996).abs() < 1e-9, "{p50}");
        assert!(p99 > 8.9, "{p99}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fail_ratio_is_over_attempted_ops() {
        // 3 failures out of 10 attempts (7 successes) is 0.3, not 3/7.
        assert_eq!(fail_ratio(10, 3), 0.3);
        assert_eq!(fail_ratio(10, 0), 0.0);
        assert_eq!(fail_ratio(4, 4), 1.0);
    }

    #[test]
    fn paired_overhead_is_the_median_of_differences() {
        // The cached half is 10 ms slower than its uncached twin in four
        // pairs out of five while the host drifts between pairs; the
        // difference of the two medians would even get the sign wrong.
        let uncached = [70.0, 71.0, 95.0, 96.0, 97.0];
        let cached = [80.0, 81.0, 82.0, 106.0, 107.0];
        let diffs = paired_differences(&cached, &uncached);
        assert_eq!(diffs, vec![10.0, 10.0, -13.0, 10.0, 10.0]);
        assert_eq!(median(&diffs), Some(10.0));
        let unpaired = median(&cached).unwrap() - median(&uncached).unwrap();
        assert_eq!(unpaired, -13.0);
    }
}
