//! # mwc-analysis — statistics, clustering and benchmark subsetting
//!
//! The statistical toolkit behind the paper's similarity-and-redundancy
//! analysis (§VI), implemented from scratch:
//!
//! * descriptive statistics and the Pearson correlation matrix of Table III
//!   ([`stats`]),
//! * feature normalization (max- and min-max) as used for clustering inputs
//!   and the Yi-et-al. representativeness vectors ([`stats::normalize`]),
//! * Euclidean/Manhattan distances and pairwise distance matrices
//!   ([`distance`]),
//! * three clustering algorithms — k-means with k-means++ seeding,
//!   Partitioning Around Medoids, and agglomerative hierarchical clustering
//!   with four linkages ([`cluster`]),
//! * internal validation (Dunn index, silhouette width) and stability
//!   validation (APN, AD) across a sweep of cluster counts, reproducing
//!   Figure 4 ([`validation`]),
//! * benchmark subsetting and the total-minimum-Euclidean-distance
//!   representativeness measure of Figure 7 ([`subset`]).
//!
//! Everything operates on a plain row-major [`Matrix`] (rows = benchmarks,
//! columns = performance metrics) and is deterministic given a seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod distance;
pub mod error;
mod kernels;
pub mod matrix;
pub mod stats;
pub mod subset;
pub mod sym;
pub mod validation;

pub use cluster::Clustering;
pub use error::AnalysisError;
pub use matrix::Matrix;
pub use sym::SymMatrix;
