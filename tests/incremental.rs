//! Integration tests of the incremental stage graph: after a warm capture,
//! flipping one unit's fault configuration must re-simulate exactly that
//! unit (all others replay from their capture/derive artifacts), an
//! analysis-only request must run with zero simulation, and a re-run of
//! an interrupted sweep must simulate only its missing points. Every path
//! must be bit-identical to a cold computation — the whole point of the
//! artifact keys is that incrementality never changes the numbers.
//!
//! Each test counts simulations under an `mwc-obs` collector of its own,
//! so the tests of this binary run concurrently without seeing each
//! other's studies.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mwc_core::cache::{Kind, StudyCache};
use mwc_core::features::featurize;
use mwc_core::figures;
use mwc_core::pipeline::Characterization;
use mwc_core::StudySpec;
use mwc_obs::{Collector, Value};
use mwc_profiler::FaultConfig;
use mwc_soc::config::SocConfig;

/// Single-run protocol on the observability seed: short, but still all
/// 18 units wide so "one of 18" is a meaningful fraction.
const SEED: u64 = 77;
const RUNS: usize = 1;

/// The unit whose fault configuration gets flipped between passes.
const FLIPPED_UNIT: &str = "Antutu CPU";

/// A unique throwaway directory per test (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mwc-incr-it-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("temp dir creation");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn base_spec() -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), SEED, RUNS).with_threads(2)
}

/// A jitter-only override: it changes the unit's artifact key (jitter is an
/// enabled fault) without ever failing or truncating a run, so the
/// re-simulated unit performs exactly `RUNS` engine runs — which makes the
/// `soc.runs` counter an exact oracle for "how many units simulated".
fn jitter_only() -> FaultConfig {
    FaultConfig {
        seed: 7,
        jitter_amplitude: 0.01,
        ..FaultConfig::default()
    }
}

#[test]
fn one_unit_fault_flip_resimulates_exactly_that_unit() {
    let tmp = TempDir::new();
    let base = base_spec();
    let patched = base.clone().with_unit_faults(FLIPPED_UNIT, jitter_only());

    // Cold pass populates the per-unit artifact layer.
    {
        let cold = StudyCache::with_dir(&tmp.0);
        cold.study_spec(&base).expect("cold study");
        let unit = cold.stage(Kind::Unit);
        assert_eq!(unit.stores, 18, "cold pass persists every unit artifact");
        assert_eq!(unit.misses, 18);
    }

    // Incremental pass in a fresh instance (models a new process), traced
    // so the simulation counters are visible.
    let warm = StudyCache::with_dir(&tmp.0);
    let collector = Collector::default();
    let study = {
        let _entered = collector.enter();
        warm.study_spec(&patched).expect("incremental study")
    };
    let data = collector.trace();

    // Cache's own accounting: 17 units replayed from disk, 1 recomputed.
    let unit = warm.stage(Kind::Unit);
    assert_eq!(unit.disk_hits, 17, "unchanged units replay from disk");
    assert_eq!(unit.misses, 1, "exactly the flipped unit recomputes");
    assert_eq!(unit.stores, 1, "the recomputed artifact is persisted");
    // Mirrored into the metrics registry, with the bytes moved.
    assert_eq!(collector.counter("cache.unit.disk_hits"), 17);
    assert!(
        collector.counter("cache.unit.bytes_read") > 0,
        "17 entries were read"
    );
    assert!(
        collector.counter("cache.unit.bytes_written") > 0,
        "one was written"
    );

    // Engine's own accounting: exactly RUNS engine runs happened in the
    // whole incremental pass — i.e. one unit simulated.
    assert_eq!(
        collector.counter("soc.runs") as usize,
        RUNS,
        "exactly one unit re-simulated"
    );
    assert_eq!(data.spans_named("soc.run").len(), RUNS);

    // The one `pipeline.unit` span that actually computed is the flipped
    // unit; all others carry the cached marker.
    let unit_spans = data.spans_named("pipeline.unit");
    assert_eq!(unit_spans.len(), 18);
    let computed: Vec<&str> = unit_spans
        .iter()
        .filter(|s| s.field("cached") != Some(&Value::UInt(1)))
        .map(|s| match s.field("name") {
            Some(Value::Str(name)) => name.as_str(),
            other => panic!("pipeline.unit span has no name, got {other:?}"),
        })
        .collect();
    assert_eq!(computed, vec![FLIPPED_UNIT]);

    // Bit-identity: the stitched study equals an uncached cold run of the
    // patched spec.
    let cold = Characterization::try_run_spec(&patched).expect("cold patched study");
    assert_eq!(
        study.digest(),
        cold.digest(),
        "incremental study is bit-identical to the cold computation"
    );
}

#[test]
fn analysis_only_change_runs_with_zero_simulation() {
    let tmp = TempDir::new();
    let base = base_spec();

    // Cold pass.
    {
        let cold = StudyCache::with_dir(&tmp.0);
        cold.study_spec(&base).expect("cold study");
    }

    // Same spec in a fresh instance: the study's manifest and the 18 unit
    // entries it names satisfy the request, and the analysis is computed
    // from the study alone — no engine runs anywhere.
    let warm = StudyCache::with_dir(&tmp.0);
    let collector = Collector::default();
    {
        let _entered = collector.enter();
        let study = warm.study_spec(&base).expect("warm study");
        featurize(&study).expect("featurize");
        figures::fig4(&study).expect("Fig-4 sweep");
    }

    assert!(
        !collector.metrics().iter().any(|(n, _)| n == "soc.runs"),
        "an analysis-only pass must never touch the simulator"
    );
    assert_eq!(warm.stats().disk_hits, 1, "served by the study entry");
    assert_eq!(warm.stats().misses, 0);
    let unit = warm.stage(Kind::Unit);
    assert_eq!(unit.disk_hits, 18, "every unit is read from its entry");
    assert_eq!(unit.misses, 0, "and none recomputes");
    assert_eq!(unit.stores, 0);
}

/// Three units and one run per sweep point keep each simulation short.
const SWEEP_UNITS: [&str; 3] = ["Aitutu", "Antutu CPU", "Antutu GPU"];

/// The sweep's points.
const SWEEP_SEEDS: [u64; 3] = [9001, 9002, 9003];

fn sweep_spec(seed: u64) -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), seed, 1)
        .with_units(SWEEP_UNITS)
        .with_threads(2)
}

#[test]
fn interrupted_sweep_resumes_from_the_cache_without_resimulating() {
    let tmp = TempDir::new();

    // "Interrupted" first pass: only the first point completed before
    // the sweep died.
    StudyCache::with_dir(&tmp.0)
        .study_spec(&sweep_spec(SWEEP_SEEDS[0]))
        .expect("first point");

    // Resume pass in a fresh instance on the same directory (a new
    // process), traced so `soc.runs` counts exactly the simulations that
    // happened.
    let cache = StudyCache::with_dir(&tmp.0);
    let collector = Collector::default();
    let mut digests = Vec::new();
    let mut replayed = 0usize;
    {
        let _entered = collector.enter();
        for &seed in &SWEEP_SEEDS {
            let hits_before = cache.stats().hits();
            let study = cache.study_spec(&sweep_spec(seed)).expect("resumed point");
            if cache.stats().hits() > hits_before {
                replayed += 1;
            }
            digests.push(study.digest());
        }
    }

    assert_eq!(
        replayed, 1,
        "the finished point replays from its study entry"
    );
    // 2 missing points × 3 units × 1 run each: the replayed point
    // contributed zero engine runs.
    assert_eq!(
        collector.counter("soc.runs"),
        2 * SWEEP_UNITS.len() as u64,
        "resume never re-simulates finished points"
    );

    for (&seed, &digest) in SWEEP_SEEDS.iter().zip(&digests) {
        let uncached = Characterization::try_run_spec(&sweep_spec(seed)).expect("uncached point");
        assert_eq!(
            uncached.digest(),
            digest,
            "resumed point (seed {seed}) is bit-identical to an uncached run"
        );
    }
}
