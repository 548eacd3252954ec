//! Internal validation: compactness, connectedness and separation.

use crate::cluster::Clustering;
use crate::distance::euclidean;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;

/// Dunn index: minimum inter-cluster distance over maximum intra-cluster
/// diameter. Higher is better. Returns 0 when every cluster is a singleton
/// (no diameter) or only one cluster exists (no separation).
pub fn dunn_index(m: &Matrix, c: &Clustering) -> f64 {
    dunn_core(m.rows(), c, |i, j| euclidean(m.row(i), m.row(j)))
}

/// [`dunn_index`] over a precomputed packed pairwise-distance matrix.
/// Identical result (same comparisons over the same floats) without
/// recomputing any distance — callers evaluating many partitions of the
/// same data share one matrix.
pub fn dunn_index_with_distances(d: &SymMatrix, c: &Clustering) -> f64 {
    dunn_core(d.rows(), c, |i, j| d.get(i, j))
}

fn dunn_core(n: usize, c: &Clustering, dist: impl Fn(usize, usize) -> f64) -> f64 {
    let labels = c.labels();
    let mut min_inter = f64::INFINITY;
    let mut max_diam: f64 = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            if labels[i] == labels[j] {
                max_diam = max_diam.max(d);
            } else {
                min_inter = min_inter.min(d);
            }
        }
    }
    if !min_inter.is_finite() || max_diam == 0.0 {
        return 0.0;
    }
    min_inter / max_diam
}

/// Mean silhouette width over all observations. In `[-1, 1]`; higher is
/// better. Singleton clusters contribute a silhouette of 0 (Kaufman &
/// Rousseeuw's convention); a single-cluster partition scores 0.
pub fn silhouette_width(m: &Matrix, c: &Clustering) -> f64 {
    silhouette_core(m.rows(), c, |i, j| euclidean(m.row(i), m.row(j)))
}

/// [`silhouette_width`] over a precomputed packed pairwise-distance
/// matrix; identical result without recomputing distances.
pub fn silhouette_width_with_distances(d: &SymMatrix, c: &Clustering) -> f64 {
    silhouette_core(d.rows(), c, |i, j| d.get(i, j))
}

fn silhouette_core(n: usize, c: &Clustering, dist: impl Fn(usize, usize) -> f64) -> f64 {
    let labels = c.labels();
    if n == 0 || c.k() < 2 {
        return 0.0;
    }
    let members = c.members();
    let mut total = 0.0;
    for i in 0..n {
        let own = &members[labels[i]];
        if own.len() <= 1 {
            continue; // silhouette 0 for singletons
        }
        // a(i): mean distance to own cluster (excluding self).
        let a: f64 = own
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| dist(i, j))
            .sum::<f64>()
            / (own.len() - 1) as f64;
        // b(i): smallest mean distance to another cluster.
        let b = members
            .iter()
            .enumerate()
            .filter(|(l, ms)| *l != labels[i] && !ms.is_empty())
            .map(|(_, ms)| ms.iter().map(|&j| dist(i, j)).sum::<f64>() / ms.len() as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Matrix, Clustering) {
        let m = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.3, 0.0],
            vec![0.0, 0.3],
            vec![10.0, 10.0],
            vec![10.3, 10.0],
            vec![10.0, 10.3],
        ])
        .unwrap();
        let c = Clustering::new(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (m, c)
    }

    #[test]
    fn dunn_high_for_separated_blobs() {
        let (m, c) = two_blobs();
        let d = dunn_index(&m, &c);
        assert!(d > 10.0, "well-separated blobs should score high, got {d}");
    }

    #[test]
    fn dunn_penalizes_bad_partition() {
        let (m, good) = two_blobs();
        let bad = Clustering::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        assert!(dunn_index(&m, &good) > dunn_index(&m, &bad));
    }

    #[test]
    fn dunn_zero_for_singletons() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let c = Clustering::new(vec![0, 1], 2).unwrap();
        assert_eq!(dunn_index(&m, &c), 0.0);
    }

    #[test]
    fn dunn_zero_for_one_cluster() {
        let (m, _) = two_blobs();
        let c = Clustering::new(vec![0; 6], 1).unwrap();
        assert_eq!(dunn_index(&m, &c), 0.0);
    }

    #[test]
    fn silhouette_near_one_for_separated_blobs() {
        let (m, c) = two_blobs();
        let s = silhouette_width(&m, &c);
        assert!(s > 0.9, "got {s}");
    }

    #[test]
    fn silhouette_negative_for_scrambled_labels() {
        let (m, _) = two_blobs();
        let bad = Clustering::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        assert!(silhouette_width(&m, &bad) < 0.0);
    }

    #[test]
    fn silhouette_bounded() {
        let (m, c) = two_blobs();
        let s = silhouette_width(&m, &c);
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn silhouette_zero_for_single_cluster() {
        let (m, _) = two_blobs();
        let c = Clustering::new(vec![0; 6], 1).unwrap();
        assert_eq!(silhouette_width(&m, &c), 0.0);
    }

    #[test]
    fn silhouette_better_for_true_partition() {
        let (m, good) = two_blobs();
        let worse = Clustering::new(vec![0, 0, 1, 1, 1, 1], 2).unwrap();
        assert!(silhouette_width(&m, &good) > silhouette_width(&m, &worse));
    }

    #[test]
    fn shared_distances_are_bit_identical() {
        let (m, good) = two_blobs();
        let d = crate::distance::pairwise_euclidean(&m);
        let worse = Clustering::new(vec![0, 0, 1, 1, 1, 1], 2).unwrap();
        for c in [&good, &worse] {
            assert_eq!(
                dunn_index(&m, c).to_bits(),
                dunn_index_with_distances(&d, c).to_bits()
            );
            assert_eq!(
                silhouette_width(&m, c).to_bits(),
                silhouette_width_with_distances(&d, c).to_bits()
            );
        }
    }
}
