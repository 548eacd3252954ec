//! # mwc-core — the workload-characterization study
//!
//! The primary contribution of *Workload Characterization of Commercial
//! Mobile Benchmark Suites* (ISPASS 2024), reproduced end to end on the
//! simulated platform:
//!
//! * [`pipeline`] — run every characterization unit on the simulated
//!   Snapdragon-888 platform, three runs averaged, and collect profiles;
//! * [`features`] — the Figure-1 metric vectors and the clustering feature
//!   matrix, from which every figure, table and subset below is a pure
//!   function of the study;
//! * [`observations`] — the paper's nine numbered observations as
//!   checkable predicates over the profiles;
//! * [`tables`] — Tables III (metric correlations), V (load-level
//!   residency) and VI (subset running times);
//! * [`figures`] — the data series behind Figures 1–7;
//! * [`subsets`] — the Naive, Select and Select + GPU reduced benchmark
//!   sets and their representativeness evaluation;
//! * [`spec`] — the typed [`StudySpec`] driving the staged pipeline:
//!   seed, runs, platform, fault model (with per-unit overrides) and
//!   unit selection;
//! * [`cache`] — a persistent, content-addressed cache of studies and
//!   their per-unit stage results, so warm runs skip simulation entirely,
//!   a one-unit change re-simulates only that unit, and an interrupted
//!   sweep resumes from its finished points. Nothing derived from a study
//!   is cached: the analysis modules above touch no cache.
//!
//! Every study runs in-process: the per-unit stage fans out over the
//! `mwc_parallel` worker pool, bit-identical at any thread count.
//!
//! ## Quickstart
//!
//! ```no_run
//! use mwc_core::pipeline::Characterization;
//!
//! // Run the full study (18 units × 3 runs) on the default platform.
//! let study = Characterization::run_default();
//! for profile in study.profiles() {
//!     println!("{}: IPC {:.2}", profile.name, profile.metrics.ipc);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod features;
pub mod figures;
pub mod observations;
pub mod pipeline;
pub mod spec;
mod stages;
pub mod subsets;
pub mod tables;
pub mod wire;

pub use cache::{CacheStats, StudyCache};
pub use error::PipelineError;
pub use features::FeatureSet;
/// The worker count a [`StudySpec`] fans out over unless told otherwise,
/// and the one `mwc-server` runs every study with: `MWC_THREADS`, else the
/// available parallelism, resolved once per process.
pub use mwc_parallel::configured_threads;
pub use pipeline::{Characterization, DegradationReport, UnitProfile};
pub use spec::{StudySpec, UnitSelection};
pub use wire::{from_wire, to_wire, WireError};
