//! Agglomerative hierarchical clustering with selectable linkage.
//!
//! Produces a full [`Dendrogram`] (the merge history Figure 5 visualizes)
//! which can be cut at any `k` to obtain a flat [`Clustering`].

use crate::cluster::Clustering;
use crate::distance::pairwise_euclidean;
use crate::error::AnalysisError;
use crate::kernels::KernelTimer;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;

/// Linkage criterion used to measure inter-cluster distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Minimum pairwise distance between members.
    Single,
    /// Maximum pairwise distance between members.
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (via Lance–Williams).
    Ward,
}

/// One merge step: clusters `a` and `b` (node ids) fuse at `distance` into
/// node `n_leaves + step`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First fused node (leaf id `< n`, internal id `>= n`).
    pub a: usize,
    /// Second fused node.
    pub b: usize,
    /// Linkage distance at which the fusion happens.
    pub distance: f64,
}

/// The full merge tree of an agglomerative run over `n` leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
    linkage: Linkage,
}

impl Dendrogram {
    /// Number of original observations.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge history, in fusion order (n−1 entries).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// The linkage used to build the tree.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Cut the tree into `k` flat clusters: replay all merges except the
    /// last `k − 1`.
    pub fn cut(&self, k: usize) -> Result<Clustering, AnalysisError> {
        let n = self.n_leaves;
        if k == 0 || k > n {
            return Err(AnalysisError::InvalidClusterCount(format!(
                "k = {k} for {n} observations"
            )));
        }
        // Union-find over node ids; nodes n.. are internal.
        let mut parent: Vec<usize> = (0..n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, merge) in self.merges.iter().take(n - k).enumerate() {
            let node = n + step;
            let ra = find(&mut parent, merge.a);
            let rb = find(&mut parent, merge.b);
            parent[ra] = node;
            parent[rb] = node;
        }
        // Map roots to compact labels in first-appearance order.
        let mut label_of_root: Vec<(usize, usize)> = Vec::new();
        let mut labels = Vec::with_capacity(n);
        for leaf in 0..n {
            let root = find(&mut parent, leaf);
            let label = match label_of_root.iter().find(|(r, _)| *r == root) {
                Some(&(_, l)) => l,
                None => {
                    let l = label_of_root.len();
                    label_of_root.push((root, l));
                    l
                }
            };
            labels.push(label);
        }
        Clustering::new(labels, k)
    }
}

/// Build the dendrogram for the rows of `m` under the given linkage using
/// the Lance–Williams update formula.
pub fn hierarchical(m: &Matrix, linkage: Linkage) -> Result<Dendrogram, AnalysisError> {
    let mut span = mwc_obs::span("analysis.hierarchical");
    span.field("rows", m.rows());
    if m.rows() == 0 {
        return Err(AnalysisError::EmptyInput("matrix has no rows".into()));
    }
    hierarchical_with_distances(&pairwise_euclidean(m), linkage)
}

/// [`hierarchical`] over a precomputed packed pairwise-distance matrix.
///
/// Agglomeration only consults dissimilarities, so callers holding the
/// distance matrix can build one dendrogram per linkage without ever
/// recomputing distances — and since a dendrogram can be [`Dendrogram::cut`]
/// at any `k`, one build serves a whole sweep over cluster counts.
pub fn hierarchical_with_distances(
    base: &SymMatrix,
    linkage: Linkage,
) -> Result<Dendrogram, AnalysisError> {
    let _t = KernelTimer::new("kernel.hierarchical_ns");
    let n = base.rows();
    if n == 0 {
        return Err(AnalysisError::EmptyInput(
            "distance matrix has no rows".into(),
        ));
    }
    // Active cluster list: (node_id, size). Distances kept in a flat map
    // keyed by position in `active`.
    let mut active: Vec<(usize, usize)> = (0..n).map(|i| (i, 1)).collect();
    let mut dist: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| base.get(i, j)).collect())
        .collect();
    // Ward operates on squared distances in the Lance–Williams recurrence.
    if linkage == Linkage::Ward {
        for row in &mut dist {
            for v in row.iter_mut() {
                *v = *v * *v;
            }
        }
    }
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    while active.len() > 1 {
        // Find the closest active pair (ties broken by lowest indices, so
        // the result is deterministic).
        let (mut bi, mut bj, mut bd) = (0, 1, f64::INFINITY);
        for (i, row) in dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate().skip(i + 1) {
                if d < bd {
                    bd = d;
                    bi = i;
                    bj = j;
                }
            }
        }

        let (id_a, size_a) = active[bi];
        let (id_b, size_b) = active[bj];
        let reported = if linkage == Linkage::Ward {
            bd.sqrt()
        } else {
            bd
        };
        merges.push(Merge {
            a: id_a,
            b: id_b,
            distance: reported,
        });

        // Lance–Williams update of distances from the merged cluster to
        // every other active cluster.
        let merged_size = size_a + size_b;
        let mut new_row = Vec::with_capacity(active.len() - 1);
        for k in 0..active.len() {
            if k == bi || k == bj {
                continue;
            }
            let (_, size_k) = active[k];
            // `dist` is kept fully symmetric, so direct indexing is safe.
            let d_ak = dist[bi][k];
            let d_bk = dist[bj][k];
            let d_ab = bd;
            let v = match linkage {
                Linkage::Single => d_ak.min(d_bk),
                Linkage::Complete => d_ak.max(d_bk),
                Linkage::Average => {
                    (size_a as f64 * d_ak + size_b as f64 * d_bk) / merged_size as f64
                }
                Linkage::Ward => {
                    let sa = size_a as f64;
                    let sb = size_b as f64;
                    let sk = size_k as f64;
                    let st = sa + sb + sk;
                    ((sa + sk) * d_ak + (sb + sk) * d_bk - sk * d_ab) / st
                }
            };
            new_row.push(v);
        }

        // Rebuild the active list and distance matrix with the merged
        // cluster appended at the end.
        let new_node = n + merges.len() - 1;
        let keep: Vec<usize> = (0..active.len()).filter(|&k| k != bi && k != bj).collect();
        let mut next_dist: Vec<Vec<f64>> = keep
            .iter()
            .map(|&i| keep.iter().map(|&j| dist[i][j]).collect())
            .collect();
        for (row, &v) in next_dist.iter_mut().zip(&new_row) {
            row.push(v);
        }
        let mut last = new_row.clone();
        last.push(0.0);
        next_dist.push(last);

        let mut next_active: Vec<(usize, usize)> = keep.iter().map(|&i| active[i]).collect();
        next_active.push((new_node, merged_size));
        active = next_active;
        dist = next_dist;
    }

    Ok(Dendrogram {
        n_leaves: n,
        merges,
        linkage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![0.0, 0.2],
            vec![5.0, 5.0],
            vec![5.2, 5.0],
            vec![9.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn merge_count_is_n_minus_one() {
        let d = hierarchical(&blobs(), Linkage::Average).unwrap();
        assert_eq!(d.merges().len(), 5);
        assert_eq!(d.n_leaves(), 6);
    }

    #[test]
    fn cut_recovers_blobs() {
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let d = hierarchical(&blobs(), linkage).unwrap();
            let c = d.cut(3).unwrap();
            let l = c.labels();
            assert_eq!(l[0], l[1], "{linkage:?}");
            assert_eq!(l[1], l[2], "{linkage:?}");
            assert_eq!(l[3], l[4], "{linkage:?}");
            assert_ne!(l[0], l[3], "{linkage:?}");
            assert_ne!(l[0], l[5], "{linkage:?}");
            assert_ne!(l[3], l[5], "{linkage:?}");
        }
    }

    #[test]
    fn cut_k_one_and_k_n() {
        let d = hierarchical(&blobs(), Linkage::Complete).unwrap();
        let all = d.cut(1).unwrap();
        assert!(all.labels().iter().all(|&l| l == 0));
        let singletons = d.cut(6).unwrap();
        let mut l = singletons.labels().to_vec();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn invalid_cut_rejected() {
        let d = hierarchical(&blobs(), Linkage::Average).unwrap();
        assert!(d.cut(0).is_err());
        assert!(d.cut(7).is_err());
    }

    #[test]
    fn single_linkage_distances_nondecreasing() {
        let d = hierarchical(&blobs(), Linkage::Single).unwrap();
        let ds: Vec<f64> = d.merges().iter().map(|m| m.distance).collect();
        for w in ds.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "single-linkage merges are monotone: {ds:?}"
            );
        }
    }

    #[test]
    fn first_merge_is_closest_pair() {
        let d = hierarchical(&blobs(), Linkage::Average).unwrap();
        let first = d.merges()[0];
        // Closest pair in `blobs` is (0,1)/(0,2)/(3,4) at distance 0.2.
        assert!((first.distance - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = Matrix::zeros(0, 2);
        assert!(hierarchical(&m, Linkage::Average).is_err());
    }

    #[test]
    fn deterministic() {
        let m = blobs();
        let a = hierarchical(&m, Linkage::Ward).unwrap();
        let b = hierarchical(&m, Linkage::Ward).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_distances_give_identical_dendrogram() {
        let m = blobs();
        let d = pairwise_euclidean(&m);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            assert_eq!(
                hierarchical(&m, linkage).unwrap(),
                hierarchical_with_distances(&d, linkage).unwrap(),
                "{linkage:?}"
            );
        }
    }

    #[test]
    fn agrees_with_kmeans_on_clean_data() {
        let m = blobs();
        let h = hierarchical(&m, Linkage::Ward).unwrap().cut(3).unwrap();
        let k = crate::cluster::kmeans(&m, 3, 42).unwrap();
        assert!(h.same_partition(&k));
    }
}
