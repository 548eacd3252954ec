//! # mwc-bench — the experiment harness
//!
//! One binary per table and figure of the paper (`table1` … `table6`,
//! `fig1` … `fig7`, `observations`, and `all` for everything in paper
//! order). Around them: `profile` (where the time goes), `sweep` (a seed
//! sweep that resumes from the result cache) and `report` (list and diff
//! the cache's stored studies). Performance is measured by the separate
//! end-to-end benchmark in `perfbench/`.
//!
//! Every binary runs the same deterministic study: the 18 characterization
//! units on the simulated Snapdragon 888 platform, three runs each,
//! seed 2024 — the `mwc_core::Characterization::run_default` protocol.
//! A binary looks it up once with [`study`], through the result cache
//! the environment configures, and passes the study it owns to every
//! table and figure; the crate keeps no state between calls.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use mwc_analysis::cluster::Clustering;
use mwc_core::cache::StudyCache;
use mwc_core::pipeline::Characterization;
use mwc_core::PipelineError;
use mwc_soc::config::SocConfig;

/// Seed of the paper's default study protocol.
pub const DEFAULT_SEED: u64 = 2024;

/// The default study — seed 2024, three runs per unit on the
/// Snapdragon 888 — looked up once through the result cache the
/// environment configures ([`StudyCache::from_env`]), so a warm process
/// skips simulation entirely (disable with `MWC_CACHE=off`). Results are
/// bit-identical either way: the cache verifies each entry's payload hash
/// on load. Each binary calls this once and passes the study on.
pub fn study() -> Arc<Characterization> {
    StudyCache::from_env()
        .study(
            &SocConfig::snapdragon_888(),
            DEFAULT_SEED,
            mwc_profiler::capture::PAPER_RUNS,
        )
        .unwrap_or_else(|e| panic!("default study failed: {e}"))
}

/// The k = 5 clustering of `study` used by the subsetting analyses
/// (k-means on the normalized feature matrix; PAM and hierarchical
/// clustering produce the identical partition — see the `fig5`/`fig6`
/// binaries). Propagates a typed error instead of panicking when the
/// feature matrix degenerates (e.g. a heavily degraded study).
pub fn try_clustering(study: &Characterization) -> Result<Clustering, PipelineError> {
    mwc_core::figures::fig6(study).map_err(PipelineError::from)
}

/// Run a fallible binary body, printing the diagnostic and exiting
/// nonzero on error instead of unwinding through a panic backtrace.
pub fn run_or_exit(f: impl FnOnce() -> Result<(), PipelineError>) {
    if let Err(e) = f() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Print a section header in the style used by all binaries.
pub fn header(title: &str) {
    println!("\n=== {title} ===\n");
}
