//! Lloyd's k-means with k-means++ seeding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::Clustering;
use crate::distance::euclidean_sq;
use crate::error::AnalysisError;
use crate::kernels::KernelTimer;
use crate::matrix::Matrix;

/// Maximum Lloyd iterations before declaring convergence.
const MAX_ITER: usize = 200;

/// Number of independent k-means++ restarts; the run with the lowest
/// within-cluster sum of squares wins (R's `kmeans(nstart = ...)`
/// convention, which the paper's toolchain uses).
const RESTARTS: u64 = 10;

/// Row count below which restarts run serially: on small inputs (like the
/// paper's 18-unit study matrix) thread-spawn overhead dwarfs the work,
/// and the sweep above us may already be running on all cores.
const PARALLEL_MIN_ROWS: usize = 64;

/// Cluster the rows of `m` into `k` clusters with Lloyd's algorithm seeded
/// by k-means++, taking the best of several restarts. Deterministic for a
/// given `seed` regardless of the worker count: each restart's stream
/// depends only on `seed + restart`, restart results are collected in
/// restart order, and ties on cost resolve to the lowest restart index —
/// exactly the serial fold.
pub fn kmeans(m: &Matrix, k: usize, seed: u64) -> Result<Clustering, AnalysisError> {
    let mut span = mwc_obs::span("analysis.kmeans");
    span.field("k", k);
    span.field("rows", m.rows());
    let threads = if m.rows() >= PARALLEL_MIN_ROWS {
        mwc_parallel::configured_threads()
    } else {
        1
    };
    kmeans_with_threads(m, k, seed, threads)
}

/// [`kmeans`] with an explicit restart worker count (used by tests to pin
/// the parallel and serial paths against each other).
fn kmeans_with_threads(
    m: &Matrix,
    k: usize,
    seed: u64,
    threads: usize,
) -> Result<Clustering, AnalysisError> {
    let n = m.rows();
    if k == 0 || k > n {
        return Err(AnalysisError::InvalidClusterCount(format!(
            "k = {k} for {n} observations"
        )));
    }
    let restarts: Vec<u64> = (0..RESTARTS).collect();
    let runs = mwc_parallel::ordered_map_with(
        &restarts,
        threads,
        || Scratch::new(n, k, m.cols()),
        |scratch, &r, _| kmeans_once(m, k, seed.wrapping_add(r), scratch),
    );
    let best = runs
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .reduce(|best, run| if run.0 < best.0 { run } else { best })
        .ok_or_else(|| AnalysisError::EmptyInput("no k-means restarts ran".into()))?;
    Ok(best.1)
}

/// One worker's restart state, sized once for `n` rows, `k` clusters and
/// `cols` features and overwritten by every restart it runs.
struct Scratch {
    cols: usize,
    /// The `k` centroids, `cols` values each, one after another.
    centroids: Vec<f64>,
    /// Per-cluster coordinate sums, laid out like `centroids`.
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// Each row's squared distance to its nearest seeded centroid.
    d2: Vec<f64>,
    labels: Vec<usize>,
}

impl Scratch {
    fn new(n: usize, k: usize, cols: usize) -> Self {
        Scratch {
            cols,
            centroids: vec![0.0; k * cols],
            sums: vec![0.0; k * cols],
            counts: vec![0; k],
            d2: vec![0.0; n],
            labels: vec![0; n],
        }
    }

    fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.cols..(c + 1) * self.cols]
    }

    fn set_centroid(&mut self, c: usize, row: &[f64]) {
        self.centroids[c * self.cols..(c + 1) * self.cols].copy_from_slice(row);
    }

    /// Zero `sums` and `counts`, then add every row, in row order, into
    /// the sum and count of its label.
    fn sum_clusters(&mut self, m: &Matrix) {
        let cols = self.cols;
        self.sums.fill(0.0);
        self.counts.fill(0);
        for (i, &l) in self.labels.iter().enumerate() {
            self.counts[l] += 1;
            for (s, v) in self.sums[l * cols..(l + 1) * cols].iter_mut().zip(m.row(i)) {
                *s += v;
            }
        }
    }
}

/// Total within-cluster sum of squared distances to the centroid of the
/// clustering in `s.labels`. The centroids are recomputed from the labels
/// into `s.sums`: a run cut off at `MAX_ITER` right after an empty-cluster
/// re-seed leaves its own centroids out of step with its final labels.
fn inertia(m: &Matrix, s: &mut Scratch) -> f64 {
    s.sum_clusters(m);
    let cols = s.cols;
    for (c, &n) in s.counts.iter().enumerate() {
        if n > 0 {
            for v in &mut s.sums[c * cols..(c + 1) * cols] {
                *v /= n as f64;
            }
        }
    }
    s.labels
        .iter()
        .enumerate()
        .map(|(i, &l)| euclidean_sq(m.row(i), &s.sums[l * cols..(l + 1) * cols]))
        .sum()
}

/// One seeded k-means++/Lloyd run on `s`, returning its inertia and its
/// clustering. `1 <= k <= m.rows()`, and `s` must be sized for `m` and
/// `k`.
fn kmeans_once(
    m: &Matrix,
    k: usize,
    seed: u64,
    s: &mut Scratch,
) -> Result<(f64, Clustering), AnalysisError> {
    let _t = KernelTimer::new("kernel.kmeans_ns");
    let n = m.rows();
    let mut rng = StdRng::seed_from_u64(seed);
    plus_plus_init(m, k, &mut rng, s);
    s.labels.fill(0);

    for _ in 0..MAX_ITER {
        // Assignment step. Each candidate distance is computed once; a
        // strict `<` replacement reproduces `min_by`'s first-minimum
        // tie-break.
        let mut changed = false;
        for i in 0..n {
            let row = m.row(i);
            let mut best = 0usize;
            let mut best_d = euclidean_sq(row, s.centroid(0));
            for c in 1..k {
                let d = euclidean_sq(row, s.centroid(c));
                if d.total_cmp(&best_d) == std::cmp::Ordering::Less {
                    best_d = d;
                    best = c;
                }
            }
            if s.labels[i] != best {
                s.labels[i] = best;
                changed = true;
            }
        }
        // Update step.
        s.sum_clusters(m);
        for c in 0..k {
            if s.counts[c] == 0 {
                // Re-seed an empty cluster on the point farthest from its
                // centroid, keeping k clusters alive. One distance per
                // point; `>=` replacement reproduces `max_by`'s
                // last-maximum tie-break.
                let mut far = 0usize;
                let mut far_d = euclidean_sq(m.row(0), s.centroid(s.labels[0]));
                for a in 1..n {
                    let d = euclidean_sq(m.row(a), s.centroid(s.labels[a]));
                    if d.total_cmp(&far_d) != std::cmp::Ordering::Less {
                        far_d = d;
                        far = a;
                    }
                }
                s.set_centroid(c, m.row(far));
                s.labels[far] = c;
            } else {
                let count = s.counts[c] as f64;
                for j in c * s.cols..(c + 1) * s.cols {
                    s.centroids[j] = s.sums[j] / count;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let cost = inertia(m, s);
    Ok((cost, Clustering::new(s.labels.clone(), k)?))
}

/// k-means++ seeding into `s.centroids`: the first centroid is uniform,
/// each next one is drawn with probability proportional to the squared
/// distance to the nearest chosen centroid.
fn plus_plus_init(m: &Matrix, k: usize, rng: &mut StdRng, s: &mut Scratch) {
    let n = m.rows();
    s.set_centroid(0, m.row(rng.gen_range(0..n)));
    // Nearest-centroid squared distances, maintained incrementally: folding
    // each new centroid into the running minimum is the same left-to-right
    // `f64::min` chain as recomputing over all centroids, for a round that
    // costs O(n) distances instead of O(n · |centroids|).
    for i in 0..n {
        s.d2[i] = f64::min(f64::INFINITY, euclidean_sq(m.row(i), s.centroid(0)));
    }
    for c in 1..k {
        let total: f64 = s.d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with a centroid: duplicate one.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in s.d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        s.set_centroid(c, m.row(chosen));
        for i in 0..n {
            s.d2[i] = f64::min(s.d2[i], euclidean_sq(m.row(i), s.centroid(c)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocating restart the scratch-reusing one replaced, kept as
    // the reference it must match to the bit: fresh centroids, labels and
    // update sums per restart, and an inertia that allocates its own
    // centroids.

    /// Total within-cluster sum of squared distances to the centroid.
    fn inertia_reference(m: &Matrix, c: &Clustering) -> f64 {
        let k = c.k();
        let cols = m.cols();
        let mut centroids = vec![vec![0.0; cols]; k];
        let mut counts = vec![0usize; k];
        for (i, &l) in c.labels().iter().enumerate() {
            counts[l] += 1;
            for (s, v) in centroids[l].iter_mut().zip(m.row(i)) {
                *s += v;
            }
        }
        for (centroid, &n) in centroids.iter_mut().zip(&counts) {
            if n > 0 {
                for v in centroid.iter_mut() {
                    *v /= n as f64;
                }
            }
        }
        c.labels()
            .iter()
            .enumerate()
            .map(|(i, &l)| euclidean_sq(m.row(i), &centroids[l]))
            .sum()
    }

    /// One seeded k-means++/Lloyd run.
    fn kmeans_once_reference(m: &Matrix, k: usize, seed: u64) -> Result<Clustering, AnalysisError> {
        let n = m.rows();
        if k == 0 || k > n {
            return Err(AnalysisError::InvalidClusterCount(format!(
                "k = {k} for {n} observations"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = plus_plus_init_reference(m, k, &mut rng);
        let mut labels = vec![0usize; n];
        // Update-step scratch, allocated once and zeroed per iteration.
        let mut sums = vec![vec![0.0; m.cols()]; k];
        let mut counts = vec![0usize; k];

        for _ in 0..MAX_ITER {
            // Assignment step. Each candidate distance is computed once; a
            // strict `<` replacement reproduces `min_by`'s first-minimum
            // tie-break.
            let mut changed = false;
            for (i, label) in labels.iter_mut().enumerate() {
                let row = m.row(i);
                let mut best = 0usize;
                let mut best_d = euclidean_sq(row, &centroids[0]);
                for (c, centroid) in centroids.iter().enumerate().skip(1) {
                    let d = euclidean_sq(row, centroid);
                    if d.total_cmp(&best_d) == std::cmp::Ordering::Less {
                        best_d = d;
                        best = c;
                    }
                }
                if *label != best {
                    *label = best;
                    changed = true;
                }
            }
            // Update step.
            for sum in &mut sums {
                sum.iter_mut().for_each(|v| *v = 0.0);
            }
            counts.iter_mut().for_each(|c| *c = 0);
            for i in 0..n {
                counts[labels[i]] += 1;
                for (s, v) in sums[labels[i]].iter_mut().zip(m.row(i)) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster on the point farthest from its
                    // centroid, keeping k clusters alive. One distance per
                    // point; `>=` replacement reproduces `max_by`'s
                    // last-maximum tie-break.
                    let mut far = 0usize;
                    let mut far_d = euclidean_sq(m.row(0), &centroids[labels[0]]);
                    for a in 1..n {
                        let d = euclidean_sq(m.row(a), &centroids[labels[a]]);
                        if d.total_cmp(&far_d) != std::cmp::Ordering::Less {
                            far_d = d;
                            far = a;
                        }
                    }
                    centroids[c] = m.row(far).to_vec();
                    labels[far] = c;
                } else {
                    for (j, s) in sums[c].iter().enumerate() {
                        centroids[c][j] = s / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Clustering::new(labels, k)
    }

    /// k-means++ seeding: the first centroid is uniform, each next one is drawn
    /// with probability proportional to the squared distance to the nearest
    /// chosen centroid.
    fn plus_plus_init_reference(m: &Matrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let n = m.rows();
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        let first = m.row(rng.gen_range(0..n)).to_vec();
        // Nearest-centroid squared distances, maintained incrementally: folding
        // each new centroid into the running minimum is the same left-to-right
        // `f64::min` chain as recomputing over all centroids, for a round that
        // costs O(n) distances instead of O(n · |centroids|).
        let mut d2: Vec<f64> = (0..n)
            .map(|i| f64::min(f64::INFINITY, euclidean_sq(m.row(i), &first)))
            .collect();
        centroids.push(first);
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let chosen = if total <= 0.0 {
                // All points coincide with a centroid: duplicate one.
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &d) in d2.iter().enumerate() {
                    if target < d {
                        chosen = i;
                        break;
                    }
                    target -= d;
                }
                chosen
            };
            let next = m.row(chosen).to_vec();
            for (i, slot) in d2.iter_mut().enumerate() {
                *slot = f64::min(*slot, euclidean_sq(m.row(i), &next));
            }
            centroids.push(next);
        }
        centroids
    }

    /// Three well-separated blobs of three points each.
    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0.0, 0.2],
            vec![10.0, 10.0],
            vec![10.1, 10.2],
            vec![10.2, 10.0],
            vec![-10.0, 10.0],
            vec![-10.1, 10.1],
            vec![-10.0, 10.2],
        ])
        .unwrap()
    }

    #[test]
    fn recovers_separated_blobs() {
        let c = kmeans(&blobs(), 3, 42).unwrap();
        let l = c.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_eq!(l[4], l[5]);
        assert_eq!(l[6], l[7]);
        assert_eq!(l[7], l[8]);
        assert_ne!(l[0], l[3]);
        assert_ne!(l[0], l[6]);
        assert_ne!(l[3], l[6]);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = blobs();
        assert_eq!(kmeans(&m, 3, 7).unwrap(), kmeans(&m, 3, 7).unwrap());
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let m = blobs();
        let c = kmeans(&m, 9, 1).unwrap();
        let mut labels = c.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9, "every point its own cluster");
    }

    #[test]
    fn k_one_groups_everything() {
        let c = kmeans(&blobs(), 1, 1).unwrap();
        assert!(c.labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn invalid_k_rejected() {
        let m = blobs();
        assert!(kmeans(&m, 0, 1).is_err());
        assert!(kmeans(&m, 10, 1).is_err());
    }

    #[test]
    fn identical_points_do_not_crash() {
        let m = Matrix::from_rows(&vec![vec![1.0, 1.0]; 5]).unwrap();
        let c = kmeans(&m, 3, 3).unwrap();
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn all_labels_within_k() {
        let c = kmeans(&blobs(), 4, 11).unwrap();
        assert!(c.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn parallel_restarts_match_serial_exactly() {
        // A matrix large enough that kmeans() itself takes the parallel
        // path on multicore hosts; deterministic pseudo-random content.
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                (0..5)
                    .map(|j| {
                        let x = (i * 5 + j) as f64;
                        (x * 12.9898).sin() * 43.758
                    })
                    .collect()
            })
            .collect();
        let m = Matrix::from_rows(&rows).unwrap();
        for k in [2, 4, 7] {
            let serial = kmeans_with_threads(&m, k, 42, 1).unwrap();
            let parallel = kmeans_with_threads(&m, k, 42, 8).unwrap();
            assert_eq!(serial, parallel, "k = {k}");
            assert_eq!(serial, kmeans(&m, k, 42).unwrap(), "k = {k} public entry");
        }
    }

    /// A few distinct points repeated, so that k-means++ draws duplicate
    /// seeds and Lloyd's update empties clusters it must re-seed.
    fn repeated_points() -> Matrix {
        let distinct = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
        let rows: Vec<Vec<f64>> = (0..10).map(|i| distinct[i % 3].to_vec()).collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// Deterministic pseudo-random points with no cluster structure, so
    /// Lloyd's loop takes several iterations to settle.
    fn scattered() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 3 + j) as f64 * 12.9898).sin() * 43.758)
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn scratch_restarts_match_the_allocating_reference() {
        let matrices = [
            blobs(),
            scattered(),
            repeated_points(),
            Matrix::from_rows(&vec![vec![1.0, 1.0]; 5]).unwrap(),
        ];
        for m in &matrices {
            for k in 1..=m.rows() {
                // One scratch serves every restart, as one worker's does.
                let mut scratch = Scratch::new(m.rows(), k, m.cols());
                for seed in 0..12 {
                    let (cost, got) = kmeans_once(m, k, seed, &mut scratch).unwrap();
                    let want = kmeans_once_reference(m, k, seed).unwrap();
                    assert_eq!(got, want, "k = {k}, seed = {seed}");
                    assert_eq!(
                        cost.to_bits(),
                        inertia_reference(m, &want).to_bits(),
                        "k = {k}, seed = {seed}"
                    );
                }
            }
        }
    }
}
