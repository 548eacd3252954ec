//! Stability validation: APN and AD (Datta & Datta).
//!
//! Both measures compare the clustering of the full data with the
//! clusterings obtained after removing each feature column in turn:
//!
//! * **APN** (average proportion of non-overlap) — the average fraction of
//!   observations that do *not* stay together with their original
//!   co-members. In `[0, 1]`; lower is better.
//! * **AD** (average distance) — the average distance between each
//!   observation's original co-members and its leave-one-column-out
//!   co-members, measured in the full feature space. Lower is better.

use crate::cluster::Clustering;
use crate::distance::pairwise_euclidean;
use crate::error::AnalysisError;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;

/// A function that clusters a matrix into `k` clusters (the algorithm under
/// validation). Fallible so validation sweeps can propagate algorithm
/// errors instead of panicking mid-sweep.
pub type Clusterer<'a> = &'a dyn Fn(&Matrix, usize) -> Result<Clustering, AnalysisError>;

/// Average proportion of non-overlap over all leave-one-column-out
/// reclusterings. Lower is better.
pub fn average_proportion_non_overlap(
    m: &Matrix,
    k: usize,
    clusterer: Clusterer<'_>,
) -> Result<f64, AnalysisError> {
    let full = clusterer(m, k)?;
    if m.rows() == 0 || m.cols() == 0 {
        return Ok(0.0);
    }
    let reduced: Vec<Clustering> = (0..m.cols())
        .map(|col| clusterer(&m.without_col(col), k))
        .collect::<Result<_, _>>()?;
    Ok(apn_from(&full, &reduced))
}

/// APN from precomputed clusterings: `full` over all features and
/// `reduced[col]` over the data with feature `col` removed.
///
/// Sweeps that evaluate many `(algorithm, k)` cells on the same data reuse
/// the clusterings they already produced instead of re-running the
/// algorithm `cols + 1` times per measure.
pub fn apn_from(full: &Clustering, reduced: &[Clustering]) -> f64 {
    let n = full.len();
    if n == 0 || reduced.is_empty() {
        return 0.0;
    }
    let full_members = full.members();
    let mut total = 0.0;
    for r in reduced {
        let reduced_labels = r.labels();
        for (i, &label) in full.labels().iter().enumerate() {
            // Co-members of `i` in the full clustering that the reduced
            // clustering also places with `i`.
            let members = &full_members[label];
            let overlap = members
                .iter()
                .filter(|&&x| reduced_labels[x] == reduced_labels[i])
                .count();
            total += 1.0 - overlap as f64 / members.len() as f64;
        }
    }
    total / (n as f64 * reduced.len() as f64)
}

/// Average distance between observations placed in the same cluster by the
/// full clustering and by each leave-one-column-out clustering. Lower is
/// better; the measure decreases as k grows (clusters shrink), the bias the
/// paper notes in Figure 4.
pub fn average_distance(
    m: &Matrix,
    k: usize,
    clusterer: Clusterer<'_>,
) -> Result<f64, AnalysisError> {
    let full = clusterer(m, k)?;
    if m.rows() == 0 || m.cols() == 0 {
        return Ok(0.0);
    }
    let reduced: Vec<Clustering> = (0..m.cols())
        .map(|col| clusterer(&m.without_col(col), k))
        .collect::<Result<_, _>>()?;
    Ok(ad_from(&pairwise_euclidean(m), &full, &reduced))
}

/// AD from precomputed clusterings and the full-feature-space packed
/// pairwise distance matrix `d_full` (AD always measures distances in the
/// full space, even for the leave-one-column-out clusterings).
pub fn ad_from(d_full: &SymMatrix, full: &Clustering, reduced: &[Clustering]) -> f64 {
    let n = full.len();
    if n == 0 || reduced.is_empty() {
        return 0.0;
    }
    let full_members = full.members();
    let mut total = 0.0;
    for r in reduced {
        let reduced_members = r.members();
        // The mean distance between a full cluster and a reduced cluster,
        // computed the first time an observation pairs them and reused
        // for every later observation in the same pair.
        let mut terms: Vec<Option<f64>> = vec![None; full.k() * r.k()];
        for (i, &fl) in full.labels().iter().enumerate() {
            let rl = r.labels()[i];
            let term = terms[fl * r.k() + rl].get_or_insert_with(|| {
                let (fm, rm) = (&full_members[fl], &reduced_members[rl]);
                let mut sum = 0.0;
                for &a in fm {
                    for &b in rm {
                        sum += d_full.get(a, b);
                    }
                }
                sum / (fm.len() * rm.len()) as f64
            });
            total += *term;
        }
    }
    total / (n as f64 * reduced.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::kmeans;

    fn clusterer(m: &Matrix, k: usize) -> Result<Clustering, AnalysisError> {
        kmeans(m, k, 42)
    }

    /// Blobs separated in *every* feature: removing a column never changes
    /// the partition.
    fn stable_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0],
            vec![0.1, 0.1, 0.1],
            vec![0.2, 0.0, 0.1],
            vec![10.0, 10.0, 10.0],
            vec![10.1, 10.1, 10.0],
            vec![10.2, 10.0, 10.1],
        ])
        .unwrap()
    }

    /// Clusters that exist only in column 0: removing it scrambles them.
    fn unstable_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 5.0],
            vec![0.1, 9.0],
            vec![0.2, 1.0],
            vec![10.0, 8.9],
            vec![10.1, 1.1],
            vec![10.2, 5.1],
        ])
        .unwrap()
    }

    #[test]
    fn apn_zero_for_stable_clusters() {
        let apn = average_proportion_non_overlap(&stable_data(), 2, &clusterer).unwrap();
        assert!(
            apn < 1e-9,
            "stable data must have zero non-overlap, got {apn}"
        );
    }

    #[test]
    fn apn_positive_for_unstable_clusters() {
        let apn = average_proportion_non_overlap(&unstable_data(), 2, &clusterer).unwrap();
        assert!(
            apn > 0.1,
            "column-dependent clusters must be unstable, got {apn}"
        );
    }

    #[test]
    fn apn_bounded() {
        for k in 2..=4 {
            let apn = average_proportion_non_overlap(&unstable_data(), k, &clusterer).unwrap();
            assert!((0.0..=1.0).contains(&apn));
        }
    }

    #[test]
    fn ad_positive_and_decreases_with_k() {
        let m = stable_data();
        let ad2 = average_distance(&m, 2, &clusterer).unwrap();
        let ad5 = average_distance(&m, 5, &clusterer).unwrap();
        assert!(ad2 > 0.0);
        assert!(
            ad5 < ad2,
            "AD is biased toward large k (paper Fig. 4): ad2={ad2}, ad5={ad5}"
        );
    }

    #[test]
    fn ad_smaller_for_tight_clusters() {
        let tight = average_distance(&stable_data(), 2, &clusterer).unwrap();
        let loose = average_distance(&unstable_data(), 2, &clusterer).unwrap();
        assert!(tight < loose);
    }

    #[test]
    fn precomputed_cores_match_the_clusterer_driven_path() {
        for m in [stable_data(), unstable_data()] {
            let k = 2;
            let full = clusterer(&m, k).unwrap();
            let reduced: Vec<Clustering> = (0..m.cols())
                .map(|col| clusterer(&m.without_col(col), k).unwrap())
                .collect();
            let apn = average_proportion_non_overlap(&m, k, &clusterer).unwrap();
            assert_eq!(apn.to_bits(), apn_from(&full, &reduced).to_bits());
            let ad = average_distance(&m, k, &clusterer).unwrap();
            assert_eq!(
                ad.to_bits(),
                ad_from(&pairwise_euclidean(&m), &full, &reduced).to_bits()
            );
        }
    }
}
