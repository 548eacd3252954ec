//! Integration tests of the persistent result cache: a warm run must be
//! bit-identical to the cold computation (same [`Characterization::digest`]),
//! markedly faster, and corruption of on-disk entries must degrade to a
//! recompute — never to an error or to wrong numbers.
//!
//! Each test uses an isolated [`StudyCache::with_dir`] instance on its own
//! temp directory, so the suite neither touches nor depends on the user's
//! real cache (and stays parallel-safe).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mwc_core::cache::StudyCache;
use mwc_core::pipeline::Characterization;
use mwc_core::StudySpec;
use mwc_soc::config::SocConfig;

/// A unique throwaway directory per test (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mwc-cache-it-{}-{}",
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

/// Single-run protocol keeps the cold simulation short while still
/// covering all 18 units.
const SEED: u64 = 77;
const RUNS: usize = 1;

#[test]
fn warm_run_is_bit_identical_and_at_least_twice_as_fast() {
    let tmp = TempDir::new();
    let cfg = SocConfig::snapdragon_888();

    // Cold pass: nothing on disk, so this simulates and stores.
    let cold_cache = StudyCache::with_dir(&tmp.0);
    let cold_start = Instant::now();
    let cold = cold_cache.study(&cfg, SEED, RUNS).expect("cold study");
    let cold_time = cold_start.elapsed();
    let stats = cold_cache.stats();
    assert_eq!(stats.misses, 1, "cold pass is a miss");
    assert_eq!(stats.stores, 1, "cold pass persists the entry");
    assert_eq!(stats.disk_hits, 0);

    // Same instance again: served from memory, same object.
    let again = cold_cache.study(&cfg, SEED, RUNS).expect("memory hit");
    assert_eq!(again.digest(), cold.digest());
    assert_eq!(cold_cache.stats().mem_hits, 1);

    // A fresh instance over the same directory models a new process: the
    // study deserializes from disk, skipping simulation entirely.
    let warm_cache = StudyCache::with_dir(&tmp.0);
    let warm_start = Instant::now();
    let warm = warm_cache.study(&cfg, SEED, RUNS).expect("warm study");
    let warm_time = warm_start.elapsed();
    let warm_stats = warm_cache.stats();
    assert_eq!(warm_stats.disk_hits, 1, "warm pass hits the disk layer");
    assert_eq!(warm_stats.misses, 0, "warm pass never simulates");
    assert_eq!(
        warm.digest(),
        cold.digest(),
        "warm study is bit-identical to the cold computation"
    );
    assert!(
        warm_time * 2 <= cold_time,
        "warm pass ({warm_time:?}) should be at least 2x faster than cold ({cold_time:?})"
    );

    // Both digests above come from the one FNV pass made when the entry
    // was stored; the loaded study's stored digest must also equal an
    // independent, uncached recompute of the same spec.
    let uncached =
        Characterization::try_run_spec(&StudySpec::new(cfg, SEED, RUNS)).expect("uncached study");
    assert_eq!(
        warm.digest(),
        uncached.digest(),
        "the stored digest matches an uncached recompute"
    );
}

#[test]
fn corrupt_entries_degrade_to_recompute_with_identical_results() {
    let tmp = TempDir::new();
    let cfg = SocConfig::snapdragon_888();
    let first = StudyCache::with_dir(&tmp.0)
        .study(&cfg, SEED, RUNS)
        .expect("seeding study");

    // Garble every on-disk entry (models torn writes / bit rot).
    let entries: Vec<PathBuf> = fs::read_dir(&tmp.0)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("mwcc"))
        .collect();
    assert!(
        !entries.is_empty(),
        "the cold pass left an entry to corrupt"
    );
    for p in &entries {
        fs::write(p, b"definitely not a cache entry").expect("corrupt entry");
    }

    // Corruption is a miss, never an error: the study recomputes, matches
    // the original bit for bit, and re-stores a clean entry.
    let recovering = StudyCache::with_dir(&tmp.0);
    let recomputed = recovering
        .study(&cfg, SEED, RUNS)
        .expect("corruption must degrade gracefully");
    let stats = recovering.stats();
    assert_eq!(stats.corrupt_entries, 1, "the bad entry was detected");
    assert_eq!(stats.misses, 1, "and treated as a plain miss");
    assert_eq!(stats.stores, 1, "a clean entry was re-stored");
    assert_eq!(recomputed.digest(), first.digest());

    // Proof of the re-store: a third instance is served from disk again.
    let healed = StudyCache::with_dir(&tmp.0);
    let from_disk = healed.study(&cfg, SEED, RUNS).expect("healed entry");
    assert_eq!(healed.stats().disk_hits, 1);
    assert_eq!(from_disk.digest(), first.digest());
}

#[test]
fn truncated_entry_is_a_miss() {
    let tmp = TempDir::new();
    let cfg = SocConfig::snapdragon_888();
    StudyCache::with_dir(&tmp.0)
        .study(&cfg, SEED, RUNS)
        .expect("seeding study");

    for e in fs::read_dir(&tmp.0)
        .expect("cache dir")
        .filter_map(|e| e.ok())
    {
        let p = e.path();
        if p.extension().and_then(|x| x.to_str()) == Some("mwcc") {
            let bytes = fs::read(&p).expect("entry");
            fs::write(&p, &bytes[..bytes.len() / 2]).expect("truncate entry");
        }
    }

    let cache = StudyCache::with_dir(&tmp.0);
    cache
        .study(&cfg, SEED, RUNS)
        .expect("partial entry degrades");
    assert_eq!(cache.stats().corrupt_entries, 1);
    assert_eq!(cache.stats().disk_hits, 0);
}

#[test]
fn disabled_cache_computes_identical_results_without_touching_disk() {
    let tmp = TempDir::new();
    let reference = StudyCache::with_dir(&tmp.0)
        .study(&cfg_default(), SEED, RUNS)
        .expect("cached study");

    let off = StudyCache::disabled();
    let direct = off
        .study(&cfg_default(), SEED, RUNS)
        .expect("uncached study");
    assert_eq!(
        off.stats(),
        Default::default(),
        "no cache activity when off"
    );
    assert_eq!(
        direct.digest(),
        reference.digest(),
        "caching never changes results"
    );
    assert_eq!(
        direct.digest(),
        Characterization::try_run_with(
            cfg_default(),
            SEED,
            RUNS,
            1,
            &mwc_profiler::FaultConfig::default()
        )
        .expect("direct pipeline run")
        .digest(),
        "cache path matches the raw pipeline"
    );
}

fn cfg_default() -> SocConfig {
    SocConfig::snapdragon_888()
}
