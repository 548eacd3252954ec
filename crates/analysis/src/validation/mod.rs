//! Cluster validation: internal measures (Dunn index, silhouette width)
//! and stability measures (APN, AD), plus the k-sweep machinery behind the
//! paper's Figure 4.

mod connectivity;
mod internal;
mod stability;
mod sweep;

pub use connectivity::{connectivity, DEFAULT_NEIGHBOURS};
pub use internal::{
    dunn_index, dunn_index_with_distances, silhouette_width, silhouette_width_with_distances,
};
pub use stability::{ad_from, apn_from, average_distance, average_proportion_non_overlap};
pub use sweep::{sweep, Algorithm, SweepPoint, ValidationSweep};
