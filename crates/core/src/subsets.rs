//! The reduced benchmark sets of §VI-B and their evaluation.

use mwc_analysis::cluster::Clustering;
use mwc_analysis::error::AnalysisError;
use mwc_analysis::subset::{fastest_per_cluster, runtime_reduction, total_min_euclidean};

use crate::features::featurize;
use crate::pipeline::Characterization;

/// The three reduced sets the paper proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubsetKind {
    /// One benchmark per cluster, chosen by shortest runtime.
    Naive,
    /// Antutu (all four segments — it only runs whole) + GFXBench Special
    /// (highest AIE load) + Geekbench 5 CPU (stresses all CPU clusters,
    /// shorter than Geekbench 6 CPU).
    Select,
    /// Select plus Geekbench 6 Compute, the benchmark with the highest
    /// average GPU load.
    SelectPlusGpu,
}

impl SubsetKind {
    /// All subsets, in the paper's order.
    pub const ALL: [SubsetKind; 3] = [
        SubsetKind::Naive,
        SubsetKind::Select,
        SubsetKind::SelectPlusGpu,
    ];

    /// Display name matching Table VI.
    pub fn name(self) -> &'static str {
        match self {
            SubsetKind::Naive => "Naive Set",
            SubsetKind::Select => "Select Set",
            SubsetKind::SelectPlusGpu => "Select + GPU Set",
        }
    }
}

/// Unit names of the Select subset, in the paper's presentation order
/// (Antutu first — it can only run whole).
pub const SELECT_MEMBERS: [&str; 6] = [
    "Antutu CPU",
    "Antutu GPU",
    "Antutu Mem",
    "Antutu UX",
    "GFXBench Special",
    "Geekbench 5 CPU",
];

/// Unit names of the Select + GPU subset.
pub const SELECT_PLUS_GPU_MEMBERS: [&str; 7] = [
    "Antutu CPU",
    "Antutu GPU",
    "Antutu Mem",
    "Antutu UX",
    "GFXBench Special",
    "Geekbench 5 CPU",
    "Geekbench 6 Compute",
];

/// A materialized subset: member indices into the study's unit order.
#[derive(Debug, Clone, PartialEq)]
pub struct Subset {
    /// Which of the paper's subsets this is.
    pub kind: SubsetKind,
    /// Member indices into `Characterization::profiles()`, in presentation
    /// order.
    pub indices: Vec<usize>,
}

impl Subset {
    /// Member unit names.
    pub fn names<'a>(&self, study: &'a Characterization) -> Vec<&'a str> {
        self.indices
            .iter()
            .map(|&i| study.profiles()[i].name.as_str())
            .collect()
    }

    /// Total running time of the subset in seconds.
    pub fn running_time(&self, study: &Characterization) -> f64 {
        self.indices
            .iter()
            .map(|&i| study.profiles()[i].metrics.runtime_seconds)
            .sum()
    }

    /// Percentage runtime reduction versus running every unit (Table VI).
    pub fn reduction_percent(&self, study: &Characterization) -> f64 {
        runtime_reduction(&study.runtimes(), &self.indices)
    }

    /// Total minimum Euclidean distance of the subset on the
    /// max-normalized representativeness matrix (Figure 7). Fails with
    /// [`AnalysisError::EmptyStudy`] on a fully degraded study.
    pub fn representativeness(&self, study: &Characterization) -> Result<f64, AnalysisError> {
        Ok(total_min_euclidean(
            &featurize(study)?.representativeness,
            &self.indices,
        ))
    }
}

/// Resolve unit names to profile indices. Units absent from the study
/// (excluded by the degradation report of a faulty run) are skipped: the
/// subset degrades alongside the study instead of panicking.
fn indices_of(study: &Characterization, names: &[&str]) -> Vec<usize> {
    names
        .iter()
        .filter_map(|name| study.profiles().iter().position(|p| p.name == *name))
        .collect()
}

/// Build the Naive subset from a clustering: the fastest member of every
/// cluster, presented fastest-first as the paper introduces it.
pub fn naive_subset(study: &Characterization, clustering: &Clustering) -> Subset {
    let mut indices = fastest_per_cluster(clustering, &study.runtimes());
    indices.sort_by(|&a, &b| {
        study.profiles()[a]
            .metrics
            .runtime_seconds
            .total_cmp(&study.profiles()[b].metrics.runtime_seconds)
    });
    Subset {
        kind: SubsetKind::Naive,
        indices,
    }
}

/// The Select subset (fixed membership from §VI-B).
pub fn select_subset(study: &Characterization) -> Subset {
    Subset {
        kind: SubsetKind::Select,
        indices: indices_of(study, &SELECT_MEMBERS),
    }
}

/// The Select + GPU subset (fixed membership from §VI-B).
pub fn select_plus_gpu_subset(study: &Characterization) -> Subset {
    Subset {
        kind: SubsetKind::SelectPlusGpu,
        indices: indices_of(study, &SELECT_PLUS_GPU_MEMBERS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::config::SocConfig;

    fn study() -> Characterization {
        Characterization::run(SocConfig::snapdragon_888(), 7, 1)
    }

    #[test]
    fn select_running_time_matches_table_6() {
        let s = study();
        let select = select_subset(&s);
        // Table VI: Select Set = 865.2 s (80.47% reduction).
        assert!((select.running_time(&s) - 865.2).abs() < 1.0);
        assert!((select.reduction_percent(&s) - 80.47).abs() < 0.2);
    }

    #[test]
    fn select_plus_gpu_matches_table_6() {
        let s = study();
        let sel = select_plus_gpu_subset(&s);
        // Table VI: Select + GPU Set = 1108.36 s (74.98% reduction).
        assert!((sel.running_time(&s) - 1108.36).abs() < 1.0);
        assert!((sel.reduction_percent(&s) - 74.98).abs() < 0.2);
        assert_eq!(sel.indices.len(), 7, "seven benchmarks (§VI-B)");
    }

    #[test]
    fn subsets_grow_monotonically() {
        let s = study();
        let select = select_subset(&s);
        let plus = select_plus_gpu_subset(&s);
        for idx in &select.indices {
            assert!(plus.indices.contains(idx));
        }
        // Adding a member can only improve (lower) representativeness.
        assert!(
            plus.representativeness(&s).expect("full study")
                <= select.representativeness(&s).expect("full study")
        );
    }

    #[test]
    fn naive_subset_from_ground_truth_clustering() {
        let s = study();
        // Ground-truth labels as a clustering.
        let labels: Vec<usize> = s.profiles().iter().map(|p| p.label as usize).collect();
        let clustering = Clustering::new(labels, 5).expect("18 labels, 5 clusters");
        let naive = naive_subset(&s, &clustering);
        let names = naive.names(&s);
        assert_eq!(names.len(), 5);
        for expected in [
            "PCMark Storage",
            "Geekbench 5 CPU",
            "GFXBench Special",
            "3DMark Wild Life",
            "Geekbench 5 Compute",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Table VI: Naive Set = 401.7 s (90.93% reduction).
        assert!((naive.running_time(&s) - 401.7).abs() < 1.0);
        assert!((naive.reduction_percent(&s) - 90.93).abs() < 0.2);
    }

    #[test]
    fn subset_names_resolve() {
        let s = study();
        assert_eq!(select_subset(&s).names(&s).len(), 6);
        assert_eq!(SubsetKind::Naive.name(), "Naive Set");
        assert_eq!(SubsetKind::SelectPlusGpu.name(), "Select + GPU Set");
    }
}
