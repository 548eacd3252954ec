//! Feature matrices: the Figure-1 metric vectors and the clustering input.
//!
//! Extraction is the *featurize* stage of the study graph: every figure,
//! table and subset evaluation consumes these matrices rather than raw
//! profiles. [`featurize`] bundles them into a [`FeatureSet`], a pure
//! function of the study that costs microseconds, so each analysis calls
//! it afresh instead of keeping it anywhere.

use mwc_analysis::error::AnalysisError;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::stats::{normalize_columns, NormalizeMode};

use crate::pipeline::Characterization;

/// Names of the Figure-1 metrics, in column order of [`fig1_matrix`].
pub const FIG1_METRICS: [&str; 5] = ["IC", "IPC", "Cache MPKI", "Branch MPKI", "Runtime"];

/// Names of the clustering features, in column order of
/// [`clustering_matrix`].
///
/// Following the paper ("we average the metrics across the benchmarks'
/// runtime", §VI-A), the clustering input is the set of *time-averaged*
/// behavioural metrics; the run totals (IC, runtime) feed Figure 1 and the
/// representativeness vectors instead. Two averaged metrics are excluded
/// from the clustering input (but kept in the representativeness vectors):
/// AIE load, which is near zero for 14 of the 18 units (Observation #5)
/// and would otherwise contribute a single-benchmark-dominated axis after
/// max-normalization, and storage-device busy, which is not among the
/// capture tool's counter categories (§IV-A lists CPU, GPU, AIE, memory
/// and temperature). The heavy-tailed MPKI metrics enter as `ln(1 + x)`.
pub const CLUSTERING_FEATURES: [&str; 11] = [
    "IPC",
    "Cache MPKI (log)",
    "Branch MPKI (log)",
    "CPU Load",
    "CPU Little Load",
    "CPU Mid Load",
    "CPU Big Load",
    "GPU Load",
    "% Shaders Busy",
    "% GPU Bus Busy",
    "Used Memory",
];

/// Every feature matrix derived from one study — the output artifact of
/// the featurize stage.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// The raw Figure-1 matrix ([`fig1_matrix`]).
    pub fig1: Matrix,
    /// The raw clustering matrix ([`clustering_matrix_raw`]).
    pub clustering_raw: Matrix,
    /// The max-normalized clustering matrix ([`clustering_matrix`]).
    pub clustering: Matrix,
    /// The representativeness matrix ([`representativeness_matrix`]).
    pub representativeness: Matrix,
}

/// Run the featurize stage: extract every matrix in one pass.
pub fn featurize(study: &Characterization) -> Result<FeatureSet, AnalysisError> {
    Ok(FeatureSet {
        fig1: fig1_matrix(study)?,
        clustering_raw: clustering_matrix_raw(study)?,
        clustering: clustering_matrix(study)?,
        representativeness: representativeness_matrix(study)?,
    })
}

/// Shared guard: a fully degraded study has no rows to build from.
fn require_profiles(study: &Characterization) -> Result<(), AnalysisError> {
    if study.profiles().is_empty() {
        return Err(AnalysisError::EmptyStudy);
    }
    Ok(())
}

/// The raw Figure-1 matrix: one row per unit, columns per
/// [`FIG1_METRICS`]. Fails with [`AnalysisError::EmptyStudy`] when no
/// unit produced a profile.
pub fn fig1_matrix(study: &Characterization) -> Result<Matrix, AnalysisError> {
    require_profiles(study)?;
    let rows: Vec<Vec<f64>> = study
        .profiles()
        .iter()
        .map(|p| {
            vec![
                p.metrics.instruction_count,
                p.metrics.ipc,
                p.metrics.cache_mpki,
                p.metrics.branch_mpki,
                p.metrics.runtime_seconds,
            ]
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// The raw clustering matrix: one row per unit, columns per
/// [`CLUSTERING_FEATURES`].
pub fn clustering_matrix_raw(study: &Characterization) -> Result<Matrix, AnalysisError> {
    require_profiles(study)?;
    let rows: Vec<Vec<f64>> = study
        .profiles()
        .iter()
        .map(|p| {
            vec![
                p.metrics.ipc,
                (1.0 + p.metrics.cache_mpki).ln(),
                (1.0 + p.metrics.branch_mpki).ln(),
                p.metrics.cpu_load,
                p.metrics.cpu_little_load,
                p.metrics.cpu_mid_load,
                p.metrics.cpu_big_load,
                p.metrics.gpu_load,
                p.metrics.gpu_shaders_busy,
                p.metrics.gpu_bus_busy,
                p.metrics.memory_used_fraction,
            ]
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// The max-normalized clustering matrix (each column scaled by its maximum
/// recorded value, as the paper's subsetting methodology prescribes).
pub fn clustering_matrix(study: &Characterization) -> Result<Matrix, AnalysisError> {
    Ok(normalize_columns(
        &clustering_matrix_raw(study)?,
        NormalizeMode::Max,
    ))
}

/// The max-normalized representativeness matrix used for the Yi-et-al.
/// subsetting evaluation: *all* performance metrics of each benchmark
/// (step 1 of the method), i.e. the clustering features plus AIE load,
/// storage busy and the run totals (IC, runtime).
pub fn representativeness_matrix(study: &Characterization) -> Result<Matrix, AnalysisError> {
    require_profiles(study)?;
    let rows: Vec<Vec<f64>> = study
        .profiles()
        .iter()
        .map(|p| {
            vec![
                p.metrics.instruction_count,
                p.metrics.runtime_seconds,
                p.metrics.ipc,
                (1.0 + p.metrics.cache_mpki).ln(),
                (1.0 + p.metrics.branch_mpki).ln(),
                p.metrics.cpu_load,
                p.metrics.cpu_little_load,
                p.metrics.cpu_mid_load,
                p.metrics.cpu_big_load,
                p.metrics.gpu_load,
                p.metrics.gpu_shaders_busy,
                p.metrics.gpu_bus_busy,
                p.metrics.aie_load,
                p.metrics.memory_used_fraction,
                p.metrics.storage_busy,
            ]
        })
        .collect();
    let raw = Matrix::from_rows(&rows)?;
    Ok(normalize_columns(&raw, NormalizeMode::Max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DegradationReport;
    use mwc_soc::config::SocConfig;

    fn study() -> Characterization {
        Characterization::run(SocConfig::snapdragon_888(), 7, 1)
    }

    #[test]
    fn fig1_matrix_shape() {
        let m = fig1_matrix(&study()).expect("18 profiled units");
        assert_eq!(m.rows(), 18);
        assert_eq!(m.cols(), FIG1_METRICS.len());
    }

    #[test]
    fn clustering_matrix_is_normalized() {
        let m = clustering_matrix(&study()).expect("18 profiled units");
        assert_eq!(m.rows(), 18);
        assert_eq!(m.cols(), CLUSTERING_FEATURES.len());
        for c in 0..m.cols() {
            let col = m.col(c);
            let max = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(max <= 1.0 + 1e-12, "column {c} max {max}");
        }
    }

    #[test]
    fn representativeness_matrix_adds_totals() {
        let s = study();
        let m = representativeness_matrix(&s).expect("18 profiled units");
        assert_eq!(m.cols(), CLUSTERING_FEATURES.len() + 4);
        assert_eq!(m.rows(), 18);
    }

    #[test]
    fn empty_study_is_a_typed_error_not_a_panic() {
        let empty = Characterization::new(
            Vec::new(),
            DegradationReport {
                units_requested: 18,
                failed_units: Vec::new(),
            },
        );
        for result in [
            fig1_matrix(&empty),
            clustering_matrix_raw(&empty),
            clustering_matrix(&empty),
            representativeness_matrix(&empty),
        ] {
            assert!(matches!(result, Err(AnalysisError::EmptyStudy)));
        }
        assert!(matches!(featurize(&empty), Err(AnalysisError::EmptyStudy)));
    }

    #[test]
    fn featurize_bundles_every_matrix() {
        let s = study();
        let set = featurize(&s).expect("18 profiled units");
        assert_eq!(set.fig1.digest(), fig1_matrix(&s).expect("fig1").digest());
        assert_eq!(
            set.clustering.digest(),
            clustering_matrix(&s).expect("clustering").digest()
        );
        assert_eq!(
            set.representativeness.digest(),
            representativeness_matrix(&s).expect("repr").digest()
        );
    }
}
