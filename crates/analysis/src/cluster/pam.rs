//! Partitioning Around Medoids (Kaufman & Rousseeuw's PAM).
//!
//! BUILD seeds the medoids greedily; SWAP exchanges medoid/non-medoid pairs
//! while the total dissimilarity decreases. PAM is fully deterministic —
//! the `seed` parameter exists for interface symmetry with k-means but does
//! not influence the result.

use crate::cluster::Clustering;
use crate::distance::pairwise_euclidean;
use crate::error::AnalysisError;
use crate::kernels::KernelTimer;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;

/// Cluster the rows of `m` into `k` clusters around medoids.
pub fn pam(m: &Matrix, k: usize, _seed: u64) -> Result<Clustering, AnalysisError> {
    let mut span = mwc_obs::span("analysis.pam");
    span.field("k", k);
    span.field("rows", m.rows());
    pam_with_distances(&pairwise_euclidean(m), k)
}

/// [`pam`] over a precomputed packed pairwise-distance matrix.
///
/// PAM only ever consults dissimilarities, so callers that already hold
/// the distance matrix (validation sweeps, stability measures) can share
/// one computation across many clusterings. The result is identical to
/// [`pam`] on the matrix the distances came from.
///
/// Both phases keep FastPAM's bookkeeping (Schubert & Rousseeuw, "Faster
/// k-Medoids Clustering", SISAP 2019) only where it leaves PAM's
/// arithmetic exact: each point's nearest and second-nearest medoid
/// distance are minima, which are exact, and every cost is summed over the
/// points in ascending order, as a fresh assignment cost over the trial
/// medoid list would sum it. So every gain and trial cost is the same f64
/// as the textbook clone-per-trial loop's, and so is every decision.
pub fn pam_with_distances(d: &SymMatrix, k: usize) -> Result<Clustering, AnalysisError> {
    let _t = KernelTimer::new("kernel.pam_ns");
    let n = d.rows();
    if k == 0 || k > n {
        return Err(AnalysisError::InvalidClusterCount(format!(
            "k = {k} for {n} observations"
        )));
    }
    // Dense copy: row `j` holds point `j`'s distance to every point, so
    // one pass over a row feeds one accumulator per candidate.
    let dense: Vec<f64> = (0..n)
        .flat_map(|j| (0..n).map(move |c| d.get(j, c)))
        .collect();
    let row = |j: usize| &dense[j * n..(j + 1) * n];

    // BUILD: first medoid minimizes total distance; each further medoid
    // maximizes the decrease in total dissimilarity. Row sums come off the
    // packed triangle, computed once per candidate instead of once per
    // comparison.
    let row_sums: Vec<f64> = (0..n).map(|i| d.row_sum(i)).collect();
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let mut is_medoid = vec![false; n];
    let first = (0..n)
        .min_by(|&a, &b| row_sums[a].total_cmp(&row_sums[b]))
        .ok_or_else(|| AnalysisError::EmptyInput("no observations to seed medoids".into()))?;
    medoids.push(first);
    is_medoid[first] = true;
    // Each point's distance to its nearest medoid: the running `f64::min`
    // fold over the medoids in the order they were chosen.
    let mut near: Vec<f64> = row(first)
        .iter()
        .map(|&v| f64::min(f64::INFINITY, v))
        .collect();
    // One accumulator per candidate, filled point by point in ascending
    // order from -0.0, the value `Iterator::sum` folds from.
    let mut acc = vec![-0.0; n];
    while medoids.len() < k {
        acc.fill(-0.0);
        for (j, &current) in near.iter().enumerate() {
            for (a, &dj) in acc.iter_mut().zip(row(j)) {
                *a += (current - dj).max(0.0);
            }
        }
        let mut best_gain = f64::NEG_INFINITY;
        let mut best = None;
        for (cand, &gain) in acc.iter().enumerate() {
            if !is_medoid[cand] && gain > best_gain {
                best_gain = gain;
                best = Some(cand);
            }
        }
        let next = best.ok_or_else(|| {
            AnalysisError::InvalidClusterCount(format!(
                "no medoid candidates left at {} of {k}",
                medoids.len()
            ))
        })?;
        medoids.push(next);
        is_medoid[next] = true;
        for (nj, &v) in near.iter_mut().zip(row(next)) {
            *nj = f64::min(*nj, v);
        }
    }

    // SWAP: steepest-descent exchange until no swap improves the cost.
    // Removing medoid `mi` leaves each point `j` at `other[j]`: its
    // second-nearest distance if `mi` was its nearest medoid, else its
    // nearest. Swapping in `cand` then costs Σ_j min(other[j], d(j, cand)).
    let mut cost = near.iter().fold(-0.0, |sum, &v| sum + v);
    // Per point: (nearest distance, that medoid's position in the list,
    // second-nearest distance). A NaN distance never wins a comparison,
    // so both minima skip it, as `f64::min` does.
    let nearest_two = |medoids: &[usize]| -> Vec<(f64, usize, f64)> {
        (0..n)
            .map(|j| {
                let dj = row(j);
                let (mut near, mut at, mut second) = (f64::INFINITY, 0, f64::INFINITY);
                for (pos, &m) in medoids.iter().enumerate() {
                    if dj[m] < near {
                        (second, near, at) = (near, dj[m], pos);
                    } else if dj[m] < second {
                        second = dj[m];
                    }
                }
                (near, at, second)
            })
            .collect()
    };
    let mut nearest = nearest_two(&medoids);
    loop {
        let mut best_delta = -1e-12;
        let mut best_swap = None;
        for mi in 0..medoids.len() {
            acc.fill(-0.0);
            for (j, &(near, at, second)) in nearest.iter().enumerate() {
                let oj = if at == mi { second } else { near };
                for (a, &dj) in acc.iter_mut().zip(row(j)) {
                    *a += f64::min(oj, dj);
                }
            }
            for (cand, &trial_cost) in acc.iter().enumerate() {
                if is_medoid[cand] {
                    continue;
                }
                let delta = trial_cost - cost;
                if delta < best_delta {
                    best_delta = delta;
                    best_swap = Some((mi, cand, trial_cost));
                }
            }
        }
        match best_swap {
            Some((mi, cand, new_cost)) => {
                is_medoid[medoids[mi]] = false;
                is_medoid[cand] = true;
                medoids[mi] = cand;
                cost = new_cost;
                nearest = nearest_two(&medoids);
            }
            None => break,
        }
    }

    let labels = (0..n)
        .map(|j| {
            let dj = row(j);
            (0..k)
                .min_by(|&a, &b| dj[medoids[a]].total_cmp(&dj[medoids[b]]))
                .unwrap_or(0)
        })
        .collect();
    Clustering::new(labels, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.3],
            vec![8.0, 8.0],
            vec![8.1, 8.2],
            vec![7.9, 8.1],
        ])
        .unwrap()
    }

    #[test]
    fn recovers_two_blobs() {
        let c = pam(&blobs(), 2, 0).unwrap();
        let l = c.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_eq!(l[4], l[5]);
        assert_ne!(l[0], l[3]);
    }

    #[test]
    fn deterministic_regardless_of_seed() {
        let m = blobs();
        assert_eq!(pam(&m, 2, 1).unwrap(), pam(&m, 2, 999).unwrap());
    }

    #[test]
    fn shared_distances_give_identical_result() {
        let m = blobs();
        let d = pairwise_euclidean(&m);
        for k in 1..=4 {
            assert_eq!(pam(&m, k, 0).unwrap(), pam_with_distances(&d, k).unwrap());
        }
    }

    #[test]
    fn agrees_with_kmeans_on_clean_data() {
        let m = blobs();
        let p = pam(&m, 2, 0).unwrap();
        let k = crate::cluster::kmeans(&m, 2, 42).unwrap();
        assert!(p.same_partition(&k));
    }

    #[test]
    fn invalid_k_rejected() {
        let m = blobs();
        assert!(pam(&m, 0, 0).is_err());
        assert!(pam(&m, 7, 0).is_err());
    }

    #[test]
    fn k_equals_n_singletons() {
        let m = blobs();
        let c = pam(&m, 6, 0).unwrap();
        let mut l = c.labels().to_vec();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn medoids_are_actual_points() {
        // With k = 1, the single cluster's medoid minimizes total distance;
        // every point must be labelled 0.
        let c = pam(&blobs(), 1, 0).unwrap();
        assert!(c.labels().iter().all(|&l| l == 0));
    }
}
