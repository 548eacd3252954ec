//! Uniformly sampled time series with the transformations the paper's
//! temporal analysis needs (normalization to `[0, 1]`, resampling onto a
//! normalized time axis, run averaging).

/// A uniformly sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Sampling period in seconds.
    pub tick_seconds: f64,
    /// Sample values, one per tick.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Build a series from values sampled every `tick_seconds`.
    pub fn new(tick_seconds: f64, values: Vec<f64>) -> Self {
        TimeSeries {
            tick_seconds,
            values,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Series duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.len() as f64 * self.tick_seconds
    }

    /// Arithmetic mean over the finite samples — NaN gaps from dropped
    /// capture ticks are skipped (0 for an empty or all-gap series;
    /// identical to the plain mean for a fully finite series).
    pub fn mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for v in self.values.iter().copied().filter(|v| v.is_finite()) {
            sum += v;
            n += 1;
        }
        if n == 0 {
            return 0.0;
        }
        sum / n as f64
    }

    /// Maximum over the finite samples (0 for an empty or all-gap series).
    pub fn max(&self) -> f64 {
        let m = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Minimum over the finite samples (0 for an empty or all-gap series).
    pub fn min(&self) -> f64 {
        let m = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// `(min(), max())` in one pass: each fold sees the finite samples in
    /// order, as its own pass would.
    pub fn min_max(&self) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &self.values {
            if v.is_finite() {
                lo = f64::min(lo, v);
                hi = f64::max(hi, v);
            }
        }
        let or_zero = |m: f64| if m.is_finite() { m } else { 0.0 };
        (or_zero(lo), or_zero(hi))
    }

    /// Fraction of samples that are finite (1.0 for an empty series).
    pub fn completeness(&self) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        self.values.iter().filter(|v| v.is_finite()).count() as f64 / self.len() as f64
    }

    /// Fill NaN gaps by linear interpolation between the nearest finite
    /// neighbours; leading/trailing gaps are clamped to the nearest finite
    /// value. An all-gap series fills with zeros. A fully finite series is
    /// returned unchanged.
    pub fn interpolate_gaps(&self) -> TimeSeries {
        if self.values.iter().all(|v| v.is_finite()) {
            return self.clone();
        }
        let n = self.len();
        let mut out = self.values.clone();
        let mut prev: Option<(usize, f64)> = None;
        let mut i = 0;
        while i < n {
            if out[i].is_finite() {
                prev = Some((i, out[i]));
                i += 1;
                continue;
            }
            // Find the end of this gap and the next finite sample.
            let gap_start = i;
            while i < n && !out[i].is_finite() {
                i += 1;
            }
            let next = if i < n { Some((i, out[i])) } else { None };
            match (prev, next) {
                (Some((pi, pv)), Some((ni, nv))) => {
                    let span = (ni - pi) as f64;
                    for (j, slot) in out.iter_mut().enumerate().take(ni).skip(gap_start) {
                        let t = (j - pi) as f64 / span;
                        *slot = pv + t * (nv - pv);
                    }
                }
                (Some((_, pv)), None) => {
                    for slot in out.iter_mut().take(n).skip(gap_start) {
                        *slot = pv;
                    }
                }
                (None, Some((ni, nv))) => {
                    for slot in out.iter_mut().take(ni).skip(gap_start) {
                        *slot = nv;
                    }
                }
                (None, None) => {
                    for slot in out.iter_mut() {
                        *slot = 0.0;
                    }
                }
            }
        }
        TimeSeries::new(self.tick_seconds, out)
    }

    /// Normalize values into `[0, 1]` against external bounds — the paper
    /// normalizes each metric against the highest/lowest value recorded
    /// *across all benchmarks*, not per series (§V-B).
    pub fn normalized_against(&self, lo: f64, hi: f64) -> TimeSeries {
        let span = hi - lo;
        let values = if span <= 0.0 {
            vec![0.0; self.len()]
        } else {
            self.values
                .iter()
                .map(|v| ((v - lo) / span).clamp(0.0, 1.0))
                .collect()
        };
        TimeSeries::new(self.tick_seconds, values)
    }

    /// Resample onto `bins` equal slices of normalized execution time by
    /// averaging the finite samples in each slice. Empty series resample to
    /// zeros; a slice containing only gaps resamples to NaN (interpolate
    /// first when gaps are possible).
    pub fn resample(&self, bins: usize) -> TimeSeries {
        assert!(bins > 0, "bins must be positive");
        if self.values.is_empty() {
            return TimeSeries::new(self.tick_seconds, vec![0.0; bins]);
        }
        let n = self.len();
        let mut out = Vec::with_capacity(bins);
        for b in 0..bins {
            let start = b * n / bins;
            let end = (((b + 1) * n).div_ceil(bins)).min(n).max(start + 1);
            let slice = &self.values[start..end.min(n)];
            let mut sum = 0.0;
            let mut count = 0usize;
            for v in slice.iter().copied().filter(|v| v.is_finite()) {
                sum += v;
                count += 1;
            }
            out.push(if count == 0 {
                f64::NAN
            } else {
                sum / count as f64
            });
        }
        TimeSeries::new(self.duration_seconds() / bins as f64, out)
    }

    /// Fraction of finite samples strictly above `threshold` (gaps are
    /// excluded from the denominator; 0 for an empty or all-gap series).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let (mut finite, mut above) = (0usize, 0usize);
        for &v in &self.values {
            finite += usize::from(v.is_finite());
            above += usize::from(v > threshold);
        }
        if finite == 0 {
            return 0.0;
        }
        above as f64 / finite as f64
    }

    /// Element-wise mean of several same-length series (the paper averages
    /// three runs of every benchmark). At each index only finite samples
    /// contribute; an index where every run has a gap stays NaN. Panics on
    /// ragged or empty input.
    pub fn average(series: &[TimeSeries]) -> TimeSeries {
        assert!(!series.is_empty(), "need at least one series");
        let n = series[0].len();
        assert!(
            series.iter().all(|s| s.len() == n),
            "series must have equal length"
        );
        let values = (0..n)
            .map(|i| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for s in series {
                    let v = s.values[i];
                    if v.is_finite() {
                        sum += v;
                        count += 1;
                    }
                }
                if count == 0 {
                    f64::NAN
                } else {
                    sum / count as f64
                }
            })
            .collect();
        TimeSeries::new(series[0].tick_seconds, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(0.1, values)
    }

    #[test]
    fn basic_stats() {
        let s = ts(vec![1.0, 2.0, 3.0]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert!((s.duration_seconds() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_series_stats() {
        let s = ts(vec![]);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn normalize_against_global_bounds() {
        let s = ts(vec![5.0, 10.0, 15.0]);
        let n = s.normalized_against(0.0, 20.0);
        assert_eq!(n.values, vec![0.25, 0.5, 0.75]);
    }

    #[test]
    fn normalize_clamps_out_of_bounds() {
        let s = ts(vec![-5.0, 25.0]);
        let n = s.normalized_against(0.0, 20.0);
        assert_eq!(n.values, vec![0.0, 1.0]);
    }

    #[test]
    fn normalize_zero_span_yields_zeros() {
        let s = ts(vec![3.0, 3.0]);
        assert_eq!(s.normalized_against(3.0, 3.0).values, vec![0.0, 0.0]);
    }

    #[test]
    fn resample_downsamples_by_averaging() {
        let s = ts(vec![1.0, 1.0, 3.0, 3.0]);
        let r = s.resample(2);
        assert_eq!(r.values, vec![1.0, 3.0]);
    }

    #[test]
    fn resample_preserves_mean_for_divisible_bins() {
        let s = ts((0..100).map(|i| i as f64).collect());
        let r = s.resample(10);
        assert!((r.mean() - s.mean()).abs() < 1e-9);
    }

    #[test]
    fn resample_upsampling_repeats() {
        let s = ts(vec![1.0, 2.0]);
        let r = s.resample(4);
        assert_eq!(r.len(), 4);
        assert!((r.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn resample_empty_is_zeros() {
        let r = ts(vec![]).resample(3);
        assert_eq!(r.values, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn fraction_above_threshold() {
        let s = ts(vec![0.2, 0.6, 0.8, 0.4]);
        assert!((s.fraction_above(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(ts(vec![]).fraction_above(0.5), 0.0);
    }

    #[test]
    fn average_of_runs() {
        let a = ts(vec![1.0, 2.0]);
        let b = ts(vec![3.0, 4.0]);
        let avg = TimeSeries::average(&[a, b]);
        assert_eq!(avg.values, vec![2.0, 3.0]);
    }

    #[test]
    fn all_negative_series_max_is_the_largest_sample() {
        // Regression: max() used to seed its fold with 0.0, so a series of
        // all-negative samples reported max = 0.0.
        let s = ts(vec![-3.0, -1.0, -2.0]);
        assert_eq!(s.max(), -1.0);
        assert_eq!(s.min(), -3.0);
        let gappy = ts(vec![-5.0, f64::NAN, -7.0]);
        assert_eq!(gappy.max(), -5.0);
    }

    #[test]
    fn gap_tolerant_stats() {
        let s = ts(vec![1.0, f64::NAN, 3.0, f64::NAN]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert!((s.completeness() - 0.5).abs() < 1e-12);
        assert_eq!(ts(vec![]).completeness(), 1.0);
    }

    #[test]
    fn all_gap_stats_are_zero() {
        let s = ts(vec![f64::NAN, f64::NAN]);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.fraction_above(0.5), 0.0);
        assert_eq!(s.completeness(), 0.0);
    }

    #[test]
    fn interpolate_fills_interior_gap_linearly() {
        let s = ts(vec![1.0, f64::NAN, f64::NAN, 4.0]);
        let i = s.interpolate_gaps();
        assert_eq!(i.values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn interpolate_clamps_edges() {
        let s = ts(vec![f64::NAN, 2.0, f64::NAN]);
        let i = s.interpolate_gaps();
        assert_eq!(i.values, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn interpolate_all_gaps_fills_zero() {
        let s = ts(vec![f64::NAN, f64::NAN]);
        assert_eq!(s.interpolate_gaps().values, vec![0.0, 0.0]);
    }

    #[test]
    fn interpolate_finite_series_is_identity() {
        let s = ts(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.interpolate_gaps(), s);
    }

    #[test]
    fn average_skips_gaps_per_index() {
        let a = ts(vec![1.0, f64::NAN]);
        let b = ts(vec![3.0, 4.0]);
        let avg = TimeSeries::average(&[a, b]);
        assert_eq!(avg.values, vec![2.0, 4.0]);
        let c = ts(vec![f64::NAN, 1.0]);
        let d = ts(vec![f64::NAN, 3.0]);
        let avg2 = TimeSeries::average(&[c, d]);
        assert!(avg2.values[0].is_nan());
        assert_eq!(avg2.values[1], 2.0);
    }

    #[test]
    fn fraction_above_uses_finite_denominator() {
        let s = ts(vec![0.8, f64::NAN, 0.2, f64::NAN]);
        assert!((s.fraction_above(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn average_ragged_panics() {
        TimeSeries::average(&[ts(vec![1.0]), ts(vec![1.0, 2.0])]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn average_empty_panics() {
        TimeSeries::average(&[]);
    }
}
