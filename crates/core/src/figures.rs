//! Data series behind Figures 1–7.

use mwc_analysis::cluster::{hierarchical, Clustering, Dendrogram, Linkage};
use mwc_analysis::error::AnalysisError;
use mwc_analysis::subset::incremental_distances;
use mwc_analysis::validation::{sweep, ValidationSweep};
use mwc_profiler::timeseries::TimeSeries;

use crate::features::featurize;
use crate::pipeline::Characterization;
use crate::subsets::Subset;

/// Figure 1: the five aggregate metrics per benchmark, with the cluster
/// group each benchmark belongs to, plus each metric's study-wide average
/// (the dashed lines).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Per-unit rows: (name, cluster-label name, [IC, IPC, cache MPKI,
    /// branch MPKI, runtime]).
    pub rows: Vec<(String, &'static str, [f64; 5])>,
    /// Study-wide mean of each metric (the dashed average lines).
    pub averages: [f64; 5],
}

/// Compute the Figure 1 data.
pub fn fig1(study: &Characterization) -> Fig1 {
    let rows: Vec<(String, &'static str, [f64; 5])> = study
        .profiles()
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                p.label.name(),
                [
                    p.metrics.instruction_count,
                    p.metrics.ipc,
                    p.metrics.cache_mpki,
                    p.metrics.branch_mpki,
                    p.metrics.runtime_seconds,
                ],
            )
        })
        .collect();
    let n = rows.len() as f64;
    let mut averages = [0.0f64; 5];
    for (_, _, vals) in &rows {
        for (a, v) in averages.iter_mut().zip(vals.iter()) {
            *a += v;
        }
    }
    for a in &mut averages {
        *a /= n;
    }
    Fig1 { rows, averages }
}

/// The six temporal metrics of Figure 2 / Table IV, in panel order.
pub const FIG2_METRICS: [&str; 6] = [
    "CPU Load",
    "GPU Load",
    "% Shaders Busy",
    "% GPU Bus Busy",
    "AIE Load",
    "Used Memory",
];

/// Figure 2: per benchmark, the six metrics over normalized runtime,
/// normalized to `[0, 1]` against the *study-wide* extrema of each metric
/// and resampled onto a fixed number of bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// Resample resolution (bins of normalized runtime).
    pub bins: usize,
    /// Per-unit rows: (name, six normalized series in [`FIG2_METRICS`]
    /// order).
    pub rows: Vec<(String, [TimeSeries; 6])>,
}

/// Compute the Figure 2 data at the given resample resolution.
pub fn fig2(study: &Characterization, bins: usize) -> Fig2 {
    // Study-wide extrema per metric (the paper normalizes against the
    // highest value recorded across all benchmarks).
    fn extract(p: &crate::pipeline::UnitProfile, m: usize) -> &TimeSeries {
        match m {
            0 => &p.series.cpu_load,
            1 => &p.series.gpu_load,
            2 => &p.series.shaders_busy,
            3 => &p.series.bus_busy,
            4 => &p.series.aie_load,
            _ => &p.series.memory_fraction,
        }
    }
    let mut lo = [f64::INFINITY; 6];
    let mut hi = [f64::NEG_INFINITY; 6];
    for p in study.profiles() {
        for m in 0..6 {
            let (s_lo, s_hi) = extract(p, m).min_max();
            lo[m] = lo[m].min(s_lo);
            hi[m] = hi[m].max(s_hi);
        }
    }
    let rows = study
        .profiles()
        .iter()
        .map(|p| {
            let series = std::array::from_fn(|m| {
                extract(p, m)
                    .normalized_against(lo[m], hi[m])
                    .resample(bins)
            });
            (p.name.clone(), series)
        })
        .collect();
    Fig2 { bins, rows }
}

/// Figure 3: per benchmark, the three per-cluster load series quantized
/// into the four load levels (rendered as heat rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Resample resolution.
    pub bins: usize,
    /// Per-unit rows: (name, [little, mid, big] load series).
    pub rows: Vec<(String, [TimeSeries; 3])>,
}

/// Compute the Figure 3 data at the given resample resolution.
///
/// Loads are normalized per metric against the study-wide maximum, exactly
/// as the paper's "normalized CPU core load metrics".
pub fn fig3(study: &Characterization, bins: usize) -> Fig3 {
    fn extract3(p: &crate::pipeline::UnitProfile, c: usize) -> &TimeSeries {
        match c {
            0 => &p.series.little_load,
            1 => &p.series.mid_load,
            _ => &p.series.big_load,
        }
    }
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in study.profiles() {
        for (c, h) in hi.iter_mut().enumerate() {
            *h = h.max(extract3(p, c).max());
        }
    }
    let rows = study
        .profiles()
        .iter()
        .map(|p| {
            let series = std::array::from_fn(|c| {
                extract3(p, c)
                    .normalized_against(0.0, hi[c].max(1e-9))
                    .resample(bins)
            });
            (p.name.clone(), series)
        })
        .collect();
    Fig3 { bins, rows }
}

/// Figure 4: the validation sweep for all three algorithms and all four
/// measures over k = 2..=6 — the default candidate range of the `clValid`
/// R package whose methodology (internal + stability validation) the paper
/// follows, and a sensible span for 18 observations.
pub fn fig4(study: &Characterization) -> Result<ValidationSweep, AnalysisError> {
    fig4_range(study, 2, 6)
}

/// Figure 4 over a custom cluster-count range (inclusive), swept over
/// the normalized clustering matrix.
pub fn fig4_range(
    study: &Characterization,
    k_min: usize,
    k_max: usize,
) -> Result<ValidationSweep, AnalysisError> {
    let ks: Vec<usize> = (k_min..=k_max).collect();
    sweep(&featurize(study)?.clustering, &ks)
}

/// Figure 5: the hierarchical clustering dendrogram (Ward linkage) over
/// the normalized feature matrix.
pub fn fig5(study: &Characterization) -> Result<Dendrogram, AnalysisError> {
    hierarchical(&featurize(study)?.clustering, Linkage::Ward)
}

/// Figure 6: the k-means clustering at k = 5 (PAM produces the same
/// partition; see the paper's §VI-A).
pub fn fig6(study: &Characterization) -> Result<Clustering, AnalysisError> {
    mwc_analysis::cluster::kmeans(&featurize(study)?.clustering, 5, 42)
}

/// Figure 7: the incremental total-minimum-Euclidean-distance curves for
/// the given subsets (one curve per subset, each of length 18 — subset
/// members first, then the greedy tail). Fails with
/// [`AnalysisError::EmptyStudy`] on a fully degraded study.
pub fn fig7(
    study: &Characterization,
    subsets: &[Subset],
) -> Result<Vec<(String, Vec<f64>)>, AnalysisError> {
    let features = featurize(study)?;
    Ok(subsets
        .iter()
        .map(|s| {
            (
                s.kind.name().to_owned(),
                incremental_distances(&features.representativeness, &s.indices),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsets::select_subset;
    use mwc_soc::config::SocConfig;

    fn study() -> Characterization {
        Characterization::run(SocConfig::snapdragon_888(), 7, 1)
    }

    #[test]
    fn fig1_has_all_units_and_averages() {
        let f = fig1(&study());
        assert_eq!(f.rows.len(), 18);
        assert!(f.averages[0] > 0.0, "mean IC positive");
        assert!(f.averages[4] > 200.0, "mean runtime > 200 s (§V-A)");
    }

    #[test]
    fn fig2_series_are_normalized_and_binned() {
        let f = fig2(&study(), 50);
        assert_eq!(f.rows.len(), 18);
        for (name, series) in &f.rows {
            for s in series {
                assert_eq!(s.len(), 50, "{name}");
                assert!(s.max() <= 1.0 + 1e-9, "{name}");
                assert!(s.min() >= -1e-9, "{name}");
            }
        }
    }

    #[test]
    fn fig3_rows_cover_three_clusters() {
        let f = fig3(&study(), 40);
        assert_eq!(f.rows.len(), 18);
        for (_, series) in &f.rows {
            assert_eq!(series.len(), 3);
        }
    }

    #[test]
    fn fig5_dendrogram_has_17_merges() {
        let d = fig5(&study()).expect("fig5 on a full study");
        assert_eq!(d.merges().len(), 17);
    }

    #[test]
    fn fig6_produces_five_clusters() {
        let c = fig6(&study()).expect("fig6 on a full study");
        assert_eq!(c.k(), 5);
        assert_eq!(c.len(), 18);
    }

    #[test]
    fn fig7_curves_are_monotone_nonincreasing() {
        let s = study();
        let curves = fig7(&s, &[select_subset(&s)]).expect("fig7 on a full study");
        assert_eq!(curves.len(), 1);
        let curve = &curves[0].1;
        assert_eq!(curve.len(), 18);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        assert!(curve.last().expect("non-empty curve").abs() < 1e-9);
    }
}
