//! Integration test of the resumable sweep: re-running an interrupted
//! sweep against the same result-cache directory replays the finished
//! points from their study entries and simulates only the missing ones,
//! bit-identically to uncached runs.
//!
//! This is deliberately the only test in its binary. `mwc-obs`
//! collection is process-global, so a sibling test that ran a study
//! while collection is on would leak into the `soc.runs` count asserted
//! here.

use std::fs;
use std::path::PathBuf;

use mwc_core::pipeline::Characterization;
use mwc_core::{StudyCache, StudySpec};
use mwc_obs::metrics::Metric;
use mwc_soc::config::SocConfig;

/// Three units and one run per point keep each simulation short.
const UNITS: [&str; 3] = ["Aitutu", "Antutu CPU", "Antutu GPU"];

/// The sweep's points.
const SEEDS: [u64; 3] = [9001, 9002, 9003];

/// A throwaway cache directory (removed on drop, even on a failed
/// assertion).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn spec_for(seed: u64) -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), seed, 1)
        .with_units(UNITS)
        .with_threads(2)
}

#[test]
fn interrupted_sweep_resumes_from_the_cache_without_resimulating() {
    let tmp =
        TempDir(std::env::temp_dir().join(format!("mwc-sweep-resume-it-{}", std::process::id())));
    let _ = fs::remove_dir_all(&tmp.0);

    // "Interrupted" first pass: only the first point completed before
    // the sweep died.
    StudyCache::with_dir(&tmp.0)
        .study_spec(&spec_for(SEEDS[0]))
        .expect("first point");

    // Resume pass in a fresh instance on the same directory (a new
    // process), traced so `soc.runs` counts exactly the simulations that
    // happened.
    let cache = StudyCache::with_dir(&tmp.0);
    mwc_obs::reset();
    mwc_obs::set_enabled(true);
    let mut digests = Vec::new();
    let mut replayed = 0usize;
    for &seed in &SEEDS {
        let hits_before = cache.stats().hits();
        let study = cache.study_spec(&spec_for(seed)).expect("resumed point");
        if cache.stats().hits() > hits_before {
            replayed += 1;
        }
        digests.push(study.digest());
    }
    let soc_runs = match mwc_obs::metrics::get("soc.runs") {
        Some(Metric::Counter(n)) => n,
        other => panic!("soc.runs must be a counter, got {other:?}"),
    };
    mwc_obs::set_enabled(false);
    mwc_obs::reset();

    assert_eq!(
        replayed, 1,
        "the finished point replays from its study entry"
    );
    // 2 missing points × 3 units × 1 run each: the replayed point
    // contributed zero engine runs.
    assert_eq!(
        soc_runs,
        2 * UNITS.len() as u64,
        "resume never re-simulates finished points"
    );

    for (&seed, &digest) in SEEDS.iter().zip(&digests) {
        let uncached = Characterization::try_run_spec(&spec_for(seed)).expect("uncached point");
        assert_eq!(
            uncached.digest(),
            digest,
            "resumed point (seed {seed}) is bit-identical to an uncached run"
        );
    }
}
