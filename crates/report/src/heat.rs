//! Quantized heat rows: the text rendering of Figure 3's load-level maps.
//!
//! The paper categorizes normalized CPU-load samples into four levels, each
//! covering 25% of the `[0, 1]` range, and colours the per-cluster
//! timelines by level. Here each level maps to a distinct glyph.

/// Glyphs for the four load levels (0–25%, 25–50%, 50–75%, 75–100%).
pub const LEVEL_GLYPHS: [char; 4] = ['.', '░', '▒', '█'];

/// Quantize one load value in `[0, 1]` to its level index 0–3.
pub fn level_of(value: f64) -> usize {
    let v = value.clamp(0.0, 1.0);
    ((v * 4.0) as usize).min(3)
}

/// Render a load series as a heat row of level glyphs.
pub fn heat_row(values: &[f64]) -> String {
    values.iter().map(|&v| LEVEL_GLYPHS[level_of(v)]).collect()
}

/// Fraction of samples in each of the four levels (the rows of Table V).
///
/// A value's level is the number of quarter marks it reaches, so the
/// counts come from three branch-free comparisons per value. They equal
/// counting [`level_of`] for every input: NaN reaches no mark (level 0),
/// +∞ every mark (level 3) and −∞ none (level 0).
pub fn level_histogram(values: &[f64]) -> [f64; 4] {
    if values.is_empty() {
        return [0.0; 4];
    }
    let mut reached = [0usize; 3];
    for &v in values {
        reached[0] += usize::from(v >= 0.25);
        reached[1] += usize::from(v >= 0.5);
        reached[2] += usize::from(v >= 0.75);
    }
    let counts = [
        values.len() - reached[0],
        reached[0] - reached[1],
        reached[1] - reached[2],
        reached[2],
    ];
    counts.map(|c| c as f64 / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_quantize_quarters() {
        assert_eq!(level_of(0.0), 0);
        assert_eq!(level_of(0.24), 0);
        assert_eq!(level_of(0.25), 1);
        assert_eq!(level_of(0.5), 2);
        assert_eq!(level_of(0.75), 3);
        assert_eq!(level_of(1.0), 3);
    }

    #[test]
    fn out_of_range_clamped() {
        assert_eq!(level_of(-1.0), 0);
        assert_eq!(level_of(2.0), 3);
    }

    #[test]
    fn heat_row_glyphs() {
        assert_eq!(heat_row(&[0.1, 0.3, 0.6, 0.9]), ".░▒█");
    }

    #[test]
    fn histogram_sums_to_one() {
        let values = [0.1, 0.1, 0.3, 0.6, 0.9, 0.95];
        let h = level_histogram(&values);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h[0] - 2.0 / 6.0).abs() < 1e-12);
        assert!((h[3] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zero() {
        assert_eq!(level_histogram(&[]), [0.0; 4]);
    }
}
