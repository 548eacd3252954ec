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

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use mwc_analysis::cluster::Clustering;
use mwc_core::cache::StudyCache;
use mwc_core::pipeline::Characterization;
use mwc_core::PipelineError;
use mwc_soc::config::SocConfig;

/// Seed of the paper's default study protocol.
pub const DEFAULT_SEED: u64 = 2024;

static STUDIES: OnceLock<Mutex<HashMap<(u64, usize), &'static Characterization>>> = OnceLock::new();

/// The shared default study instance — seed 2024, three runs per unit —
/// through the result cache the environment configures
/// ([`StudyCache::from_env`]).
pub fn study() -> &'static Characterization {
    study_with(
        &StudyCache::from_env(),
        DEFAULT_SEED,
        mwc_profiler::capture::PAPER_RUNS,
    )
}

/// A shared study on the default platform (Snapdragon 888) with an
/// explicit `(seed, runs)` protocol. Each distinct pair is computed once
/// per process, through `cache` on the first call: the binaries pass
/// [`StudyCache::from_env`], so a warm process skips simulation entirely
/// and every binary in a session after the first starts from the on-disk
/// entry (disable with `MWC_CACHE=off`). Results are bit-identical either
/// way — the cache verifies each entry's payload hash on load.
pub fn study_with(cache: &StudyCache, seed: u64, runs: usize) -> &'static Characterization {
    let studies = STUDIES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut studies = studies.lock().expect("study cache lock poisoned");
    studies.entry((seed, runs)).or_insert_with(|| {
        let study = cache
            .study(&SocConfig::snapdragon_888(), seed, runs)
            .unwrap_or_else(|e| panic!("default study failed: {e}"));
        &**Box::leak(Box::new(study))
    })
}

/// The k = 5 clustering used by the subsetting analyses (k-means on the
/// normalized feature matrix; PAM and hierarchical clustering produce the
/// identical partition — see the `fig5`/`fig6` binaries). Propagates a
/// typed error instead of panicking when the feature matrix degenerates
/// (e.g. a heavily degraded study).
pub fn try_clustering() -> Result<Clustering, PipelineError> {
    mwc_core::figures::fig6(study()).map_err(PipelineError::from)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache on a throwaway directory of its own, removed on drop, so
    /// the tests never write to the user's cache.
    struct TempCache {
        dir: std::path::PathBuf,
        cache: StudyCache,
    }

    impl TempCache {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("mwc-bench-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir creation");
            let cache = StudyCache::with_dir(&dir);
            TempCache { dir, cache }
        }
    }

    impl Drop for TempCache {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn study_is_cached_and_complete() {
        let tmp = TempCache::new("paper");
        let runs = mwc_profiler::capture::PAPER_RUNS;
        let a = study_with(&tmp.cache, DEFAULT_SEED, runs);
        let b = study_with(&tmp.cache, DEFAULT_SEED, runs);
        assert!(
            std::ptr::eq(a, b),
            "the cache returns one study per protocol"
        );
        assert_eq!(a.profiles().len(), 18);
    }

    #[test]
    fn study_with_caches_per_protocol() {
        let tmp = TempCache::new("protocols");
        let a = study_with(&tmp.cache, DEFAULT_SEED, 1);
        let b = study_with(&tmp.cache, DEFAULT_SEED, 1);
        assert!(std::ptr::eq(a, b), "same (seed, runs) shares one study");
        assert_eq!(a.profiles().len(), 18);
        let c = study_with(&tmp.cache, DEFAULT_SEED + 1, 1);
        assert!(
            !std::ptr::eq(a, c),
            "distinct protocols get distinct studies"
        );
    }
}
