//! Persistent, content-addressed result cache with incremental recompute.
//!
//! The paper's methodology re-evaluates the same `(workload set, seed,
//! run count, platform, fault model)` characterizations over and over —
//! every figure/table binary, every test pass and every validation sweep
//! starts from the identical study. This module memoizes those results so
//! only the *first* invocation simulates; warm runs deserialize and are
//! bit-identical (asserted via [`Characterization::digest`]).
//!
//! ## Layers
//!
//! * **Memory** — an intra-process map from cache key to shared
//!   [`Characterization`] / [`ValidationSweep`] instances.
//! * **Disk** — one file per entry under the cache directory,
//!   `study-<key>.mwcc` / `sweep-<key>.mwcc`, written atomically (temp
//!   file + rename) so readers never observe a partial entry.
//!
//! ## Keys
//!
//! Entries are addressed by an FNV-1a digest over everything that can
//! influence the result: the schema version and crate version, the study
//! protocol (seed, run count), [`SocConfig::content_digest`],
//! [`FaultConfig::content_digest`] and the unit registry (names, suites,
//! labels). Worker-thread count is deliberately *excluded*: results are
//! bit-identical at any parallelism (see `mwc_parallel`), so thread count
//! must not fragment the key space.
//!
//! ## Corruption handling
//!
//! A disk entry is trusted only if it fully parses *and* its recomputed
//! content digest matches the stored one. Anything else — bad magic,
//! version skew, short file, flipped byte — is treated as a plain miss:
//! the entry is deleted, the result recomputed and re-stored. Corrupt
//! entries can degrade a warm run to a cold one but can never surface
//! wrong numbers or errors.

use std::collections::HashMap;
use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use mwc_analysis::error::AnalysisError;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::validation::{sweep as run_sweep, Algorithm, SweepPoint, ValidationSweep};
use mwc_profiler::derive::BenchmarkMetrics;
use mwc_profiler::faults::{CaptureHealth, FaultConfig};
use mwc_profiler::timeseries::TimeSeries;
use mwc_soc::config::SocConfig;
use mwc_workloads::registry::{all_units, ClusterLabel, Suite};

use crate::error::PipelineError;
use crate::exec::UnitArtifact;
use crate::features::FeatureSet;
use crate::pipeline::{
    Characterization, DegradationReport, FailedUnit, Fnv1a, UnitProfile, UnitSeries,
};
use crate::spec::StudySpec;

/// Set to `off` / `0` / `false` to disable both cache layers.
pub const CACHE_MODE_ENV: &str = "MWC_CACHE";
/// Overrides the on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "MWC_CACHE_DIR";
/// Overrides the maximum number of on-disk entries before eviction.
pub const CACHE_MAX_ENV: &str = "MWC_CACHE_MAX";
/// Set to `off` / `0` / `false` to disable the per-unit stage-artifact
/// layer (the whole-study and sweep layers stay active). With stage
/// entries off a one-knob change re-simulates the full study, as the
/// pre-stage-graph pipeline did.
pub const CACHE_STAGES_ENV: &str = "MWC_CACHE_STAGES";

/// Version of the serialized entry format *and* of the data model it
/// memoizes. Bump on any change to the simulation, capture, merge or
/// analysis arithmetic — or to the encoding itself — so stale entries
/// from older builds are invalidated instead of replayed.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Default cap on on-disk entries (oldest-modified evicted first).
const DEFAULT_MAX_ENTRIES: usize = 64;

const STUDY_MAGIC: &[u8; 4] = b"MWCC";
const SWEEP_MAGIC: &[u8; 4] = b"MWCS";
const UNIT_MAGIC: &[u8; 4] = b"MWCU";

/// The content-addressed key of a study: a stable digest of everything
/// that can change a [`Characterization`]. Stable across processes and
/// machines; changes whenever any keyed input changes.
pub fn study_key(config: &SocConfig, seed: u64, runs: usize, faults: &FaultConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("mwc-study");
    h.write_u64(u64::from(CACHE_SCHEMA_VERSION));
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_u64(seed);
    h.write_usize(runs);
    h.write_u64(config.content_digest());
    h.write_u64(faults.content_digest());
    let units = all_units();
    h.write_usize(units.len());
    for u in &units {
        h.write_str(u.name);
        h.write_str(u.suite.name());
        h.write_str(u.label.name());
    }
    h.finish()
}

/// The content-addressed key of a Fig-4 validation sweep over a feature
/// matrix (`matrix_digest` from [`Matrix::digest`]) and a k range. The
/// analysis kernel arithmetic variant (`f64`, or `f32` under the
/// `f32-kernels` feature) is keyed so a sweep cached by one build is never
/// served to a build whose kernels round differently.
pub fn sweep_key(matrix_digest: u64, ks: &[usize]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("mwc-sweep");
    h.write_u64(u64::from(CACHE_SCHEMA_VERSION));
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(mwc_analysis::KERNEL_VARIANT);
    h.write_u64(matrix_digest);
    h.write_usize(ks.len());
    for &k in ks {
        h.write_usize(k);
    }
    h.finish()
}

/// Counters of what the cache did this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from the in-process memory layer.
    pub mem_hits: u64,
    /// Entries deserialized from disk.
    pub disk_hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Disk entries that failed validation and were discarded.
    pub corrupt_entries: u64,
    /// Disk entries evicted by the entry cap.
    pub evictions: u64,
    /// Disk writes that failed (the result is still returned).
    pub store_failures: u64,
}

impl CacheStats {
    /// Total hits across both layers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// One-line machine-greppable rendering (used by `scripts/verify.sh`).
    pub fn summary(&self) -> String {
        format!(
            "mem_hits={} disk_hits={} misses={} stores={} corrupt={} evictions={} store_failures={}",
            self.mem_hits,
            self.disk_hits,
            self.misses,
            self.stores,
            self.corrupt_entries,
            self.evictions,
            self.store_failures
        )
    }
}

/// A stage of the study graph whose artifacts the cache tracks
/// separately from the legacy study/sweep entries (whose [`CacheStats`]
/// keep their historical meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Per-unit simulation + capture. Owns no entries of its own — it
    /// mirrors the derive hits/misses, so a hit reads as "simulation
    /// skipped" and a miss as "simulation executed".
    Capture,
    /// Per-unit metric/series derivation; owns the stored unit artifact
    /// (a fused capture+derive result — raw captures are never
    /// serialized).
    Derive,
    /// Study-level feature-matrix extraction (memory layer only, keyed
    /// by the study digest).
    Featurize,
    /// Cluster-validation sweeps; mirrors the legacy sweep entries.
    Analyze,
}

impl StageKind {
    /// Every stage, in pipeline order (also the [`StudyCache::stage_stats`]
    /// index order).
    pub const ALL: [StageKind; 4] = [
        StageKind::Capture,
        StageKind::Derive,
        StageKind::Featurize,
        StageKind::Analyze,
    ];

    /// Stable lowercase name, used in the `cache.stage.<name>.*`
    /// observability counters.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Capture => "capture",
            StageKind::Derive => "derive",
            StageKind::Featurize => "featurize",
            StageKind::Analyze => "analyze",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-stage cache counters. Unit-artifact traffic lands here — never in
/// [`CacheStats`] — so the legacy study/sweep numbers stay comparable
/// across versions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Artifacts served from the in-process memory layer.
    pub mem_hits: u64,
    /// Artifacts deserialized from disk.
    pub disk_hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Artifacts written to disk.
    pub stores: u64,
    /// Disk artifacts that failed validation and were discarded.
    pub corrupt_entries: u64,
    /// Bytes deserialized from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
}

impl StageStats {
    /// Total hits across both layers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

/// The two-layer study/sweep cache. Most callers use [`StudyCache::global`]
/// (configured from the environment once per process); tests construct
/// isolated instances with [`StudyCache::with_dir`].
#[derive(Debug)]
pub struct StudyCache {
    enabled: bool,
    stage_entries: bool,
    dir: Option<PathBuf>,
    max_entries: usize,
    studies: Mutex<HashMap<u64, Arc<Characterization>>>,
    /// Secondary index: [`Characterization::digest`] → study key, so a
    /// result can be re-fetched by the digest handed out to clients
    /// (`mwc-server`'s `GET /study/<digest>`).
    by_digest: Mutex<HashMap<u64, u64>>,
    units: Mutex<HashMap<u64, UnitArtifact>>,
    features: Mutex<HashMap<u64, Arc<FeatureSet>>>,
    sweeps: Mutex<HashMap<u64, ValidationSweep>>,
    stats: Mutex<CacheStats>,
    stage_stats: Mutex<[StageStats; 4]>,
}

impl StudyCache {
    fn new(enabled: bool, dir: Option<PathBuf>, max_entries: usize) -> Self {
        StudyCache {
            enabled,
            stage_entries: enabled,
            dir,
            max_entries,
            studies: Mutex::new(HashMap::new()),
            by_digest: Mutex::new(HashMap::new()),
            units: Mutex::new(HashMap::new()),
            features: Mutex::new(HashMap::new()),
            sweeps: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
            stage_stats: Mutex::new([StageStats::default(); 4]),
        }
    }

    /// Configure from the environment: `MWC_CACHE=off|0|false` disables,
    /// `MWC_CACHE_DIR` overrides the directory (default:
    /// `$XDG_CACHE_HOME/mwc`, then `$HOME/.cache/mwc`, then a `mwc-cache`
    /// directory under the system temp dir), `MWC_CACHE_MAX` caps the
    /// on-disk entry count.
    pub fn from_env() -> Self {
        let off = env::var(CACHE_MODE_ENV)
            .map(|v| {
                let v = v.to_ascii_lowercase();
                v == "off" || v == "0" || v == "false"
            })
            .unwrap_or(false);
        if off {
            return StudyCache::disabled();
        }
        let dir = env::var(CACHE_DIR_ENV)
            .ok()
            .filter(|d| !d.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(default_dir);
        let max_entries = env::var(CACHE_MAX_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_MAX_ENTRIES);
        let stages_off = env::var(CACHE_STAGES_ENV)
            .map(|v| {
                let v = v.to_ascii_lowercase();
                v == "off" || v == "0" || v == "false"
            })
            .unwrap_or(false);
        let mut cache = StudyCache::new(true, Some(dir), max_entries);
        cache.stage_entries = !stages_off;
        cache
    }

    /// An enabled cache persisting to an explicit directory (tests).
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        StudyCache::new(true, Some(dir.into()), DEFAULT_MAX_ENTRIES)
    }

    /// An enabled cache with no disk layer (intra-process reuse only).
    pub fn in_memory() -> Self {
        StudyCache::new(true, None, DEFAULT_MAX_ENTRIES)
    }

    /// A fully disabled cache: every lookup computes.
    pub fn disabled() -> Self {
        StudyCache::new(false, None, DEFAULT_MAX_ENTRIES)
    }

    /// The process-wide cache, configured from the environment on first
    /// use.
    pub fn global() -> &'static StudyCache {
        static GLOBAL: OnceLock<StudyCache> = OnceLock::new();
        GLOBAL.get_or_init(StudyCache::from_env)
    }

    /// Whether any caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The disk directory, if a persistent layer is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether the per-unit stage-artifact layer is active (see
    /// [`CACHE_STAGES_ENV`]).
    pub fn stage_entries_enabled(&self) -> bool {
        self.enabled && self.stage_entries
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache stats lock poisoned")
    }

    /// A snapshot of the per-stage counters, indexed as [`StageKind::ALL`].
    pub fn stage_stats(&self) -> [StageStats; 4] {
        *self.stage_stats.lock().expect("stage stats lock poisoned")
    }

    /// The counters of one stage.
    pub fn stage(&self, kind: StageKind) -> StageStats {
        self.stage_stats()[kind.index()]
    }

    /// One-line machine-greppable per-stage rendering (used by
    /// `scripts/verify.sh`'s incremental gate): `sims=` counts units whose
    /// simulation actually executed this process, `reused=` counts units
    /// replayed from stage artifacts.
    pub fn stage_summary(&self) -> String {
        let capture = self.stage(StageKind::Capture);
        let derive = self.stage(StageKind::Derive);
        let featurize = self.stage(StageKind::Featurize);
        format!(
            "sims={} reused={} derive_stores={} featurize_hits={} featurize_misses={}",
            capture.misses,
            capture.hits(),
            derive.stores,
            featurize.hits(),
            featurize.misses
        )
    }

    /// Human-readable description of the configuration.
    pub fn describe(&self) -> String {
        match (self.enabled, &self.dir) {
            (false, _) => "off".to_owned(),
            (true, None) => "in-memory only".to_owned(),
            (true, Some(d)) => format!("{} (max {} entries)", d.display(), self.max_entries),
        }
    }

    /// A fault-free study on `config` with the given protocol, served from
    /// the cache when warm (worker count from `MWC_THREADS`; excluded from
    /// the key because results are parallelism-invariant).
    pub fn study(
        &self,
        config: &SocConfig,
        seed: u64,
        runs: usize,
    ) -> Result<Arc<Characterization>, PipelineError> {
        self.study_with_faults(
            config,
            seed,
            runs,
            mwc_parallel::configured_threads(),
            &FaultConfig::default(),
        )
    }

    /// [`StudyCache::study`] with explicit worker count and fault model.
    /// A warm hit is guaranteed bit-identical to the cold computation
    /// (the stored [`Characterization::digest`] is re-verified on load).
    pub fn study_with_faults(
        &self,
        config: &SocConfig,
        seed: u64,
        runs: usize,
        threads: usize,
        faults: &FaultConfig,
    ) -> Result<Arc<Characterization>, PipelineError> {
        let spec = StudySpec::new(config.clone(), seed, runs)
            .with_faults(faults.clone())
            .with_threads(threads);
        self.study_spec(&spec)
    }

    /// The study described by `spec`, served from the cache when warm.
    /// On a miss the staged executor runs *through* this cache, so
    /// per-unit artifacts persisted by earlier, differently-keyed studies
    /// are replayed: after a warm capture, changing one unit's fault
    /// override re-simulates exactly that unit, and an analysis-only
    /// change simulates nothing.
    pub fn study_spec(&self, spec: &StudySpec) -> Result<Arc<Characterization>, PipelineError> {
        self.study_spec_with(crate::exec::global(), spec)
    }

    /// [`StudyCache::study_spec`] with an explicit execution backend —
    /// the seam the fleet tests use to pin a backend without touching
    /// the process-wide `MWC_EXEC` selection.
    pub fn study_spec_with(
        &self,
        exec: &dyn crate::exec::Exec,
        spec: &StudySpec,
    ) -> Result<Arc<Characterization>, PipelineError> {
        if !self.enabled {
            return Ok(Arc::new(crate::stages::execute_with(exec, spec, None)?));
        }
        let key = spec.study_key();
        let mut span = mwc_obs::span("cache.study");
        span.field("key", key);
        if let Some(hit) = self
            .studies
            .lock()
            .expect("study cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.bump("cache.mem_hits", |s| s.mem_hits += 1);
            return Ok(hit);
        }
        if let Some(study) = self.load_study(key) {
            let study = Arc::new(study);
            self.index_study(key, &study);
            return Ok(study);
        }
        self.bump("cache.misses", |s| s.misses += 1);
        let study = Arc::new(crate::stages::execute_with(exec, spec, Some(self))?);
        self.persist("study", key, &encode_study(key, &study));
        self.index_study(key, &study);
        Ok(study)
    }

    /// Insert a study into the memory layer and the digest index.
    fn index_study(&self, key: u64, study: &Arc<Characterization>) {
        self.by_digest
            .lock()
            .expect("digest index lock poisoned")
            .insert(study.digest(), key);
        self.studies
            .lock()
            .expect("study cache lock poisoned")
            .insert(key, Arc::clone(study));
    }

    /// Whether the study for `spec` is already resident in the in-memory
    /// layer — i.e. an immediate [`StudyCache::study_spec`] call would be a
    /// memory hit. Used by `mwc-server`'s request telemetry to label
    /// responses cache-hit/miss without perturbing the cache counters.
    pub fn is_resident(&self, spec: &StudySpec) -> bool {
        self.enabled
            && self
                .studies
                .lock()
                .expect("study cache lock poisoned")
                .contains_key(&spec.study_key())
    }

    /// Look up a completed study by its [`Characterization::digest`] — the
    /// handle `mwc-server` returns to clients. Only studies that passed
    /// through this cache instance are findable: the digest is known after
    /// a result exists, so the index is memory-only by construction (disk
    /// entries are keyed by input digests, not result digests).
    pub fn study_by_digest(&self, digest: u64) -> Option<Arc<Characterization>> {
        let key = *self
            .by_digest
            .lock()
            .expect("digest index lock poisoned")
            .get(&digest)?;
        self.studies
            .lock()
            .expect("study cache lock poisoned")
            .get(&key)
            .cloned()
    }

    /// The feature matrices derived from `study`, memoized in memory and
    /// keyed by [`Characterization::digest`] — the featurize stage's
    /// content address. Matrices are cheap relative to simulation, so no
    /// disk layer; the memo collapses the many per-figure/table
    /// extractions of one study into a single computation.
    pub fn features(&self, study: &Characterization) -> Result<Arc<FeatureSet>, AnalysisError> {
        if !self.enabled {
            return Ok(Arc::new(crate::features::featurize(study)?));
        }
        let digest = study.digest();
        if let Some(hit) = self
            .features
            .lock()
            .expect("feature cache lock poisoned")
            .get(&digest)
            .cloned()
        {
            self.stage_bump(StageKind::Featurize, "mem_hits", 1, |s| s.mem_hits += 1);
            return Ok(hit);
        }
        self.stage_bump(StageKind::Featurize, "misses", 1, |s| s.misses += 1);
        let mut span = mwc_obs::span("stage.featurize");
        span.field("study", digest);
        let set = Arc::new(crate::features::featurize(study)?);
        self.features
            .lock()
            .expect("feature cache lock poisoned")
            .insert(digest, Arc::clone(&set));
        Ok(set)
    }

    /// The Fig-4 validation sweep over `m` and `ks`, served from the cache
    /// when warm. Falls back to [`mwc_analysis::validation::sweep`] on a
    /// miss and persists the (small) result.
    pub fn sweep(&self, m: &Matrix, ks: &[usize]) -> Result<ValidationSweep, AnalysisError> {
        if !self.enabled {
            return run_sweep(m, ks);
        }
        let key = sweep_key(m.digest(), ks);
        let mut span = mwc_obs::span("cache.sweep");
        span.field("key", key);
        if let Some(hit) = self
            .sweeps
            .lock()
            .expect("sweep cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.bump("cache.mem_hits", |s| s.mem_hits += 1);
            self.stage_bump(StageKind::Analyze, "mem_hits", 1, |s| s.mem_hits += 1);
            return Ok(hit);
        }
        if let Some(path) = self.entry_path("sweep", key) {
            if let Ok(bytes) = fs::read(&path) {
                if let Some(s) = decode_sweep(key, &bytes) {
                    let n = bytes.len() as u64;
                    self.bump("cache.disk_hits", |st| st.disk_hits += 1);
                    self.stage_bump(StageKind::Analyze, "disk_hits", 1, |st| st.disk_hits += 1);
                    self.stage_bump(StageKind::Analyze, "bytes_read", n, |st| st.bytes_read += n);
                    self.sweeps
                        .lock()
                        .expect("sweep cache lock poisoned")
                        .insert(key, s.clone());
                    return Ok(s);
                }
                self.bump("cache.corrupt_entries", |st| st.corrupt_entries += 1);
                self.stage_bump(StageKind::Analyze, "corrupt_entries", 1, |st| {
                    st.corrupt_entries += 1
                });
                let _ = fs::remove_file(&path);
            }
        }
        self.bump("cache.misses", |s| s.misses += 1);
        self.stage_bump(StageKind::Analyze, "misses", 1, |s| s.misses += 1);
        let s = run_sweep(m, ks)?;
        let bytes = encode_sweep(key, &s);
        if self.persist("sweep", key, &bytes) {
            let n = bytes.len() as u64;
            self.stage_bump(StageKind::Analyze, "stores", 1, |st| st.stores += 1);
            self.stage_bump(StageKind::Analyze, "bytes_written", n, |st| {
                st.bytes_written += n
            });
        }
        self.sweeps
            .lock()
            .expect("sweep cache lock poisoned")
            .insert(key, s.clone());
        Ok(s)
    }

    fn entry_path(&self, kind: &str, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{kind}-{key:016x}.mwcc")))
    }

    /// Read and validate a study entry; any defect is a miss, never an
    /// error. A corrupt entry is deleted so the recompute re-stores it.
    fn load_study(&self, key: u64) -> Option<Characterization> {
        let path = self.entry_path("study", key)?;
        let bytes = fs::read(&path).ok()?;
        match decode_study(key, &bytes) {
            Some(study) => {
                self.bump("cache.disk_hits", |s| s.disk_hits += 1);
                Some(study)
            }
            None => {
                self.bump("cache.corrupt_entries", |s| s.corrupt_entries += 1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Look up a per-unit capture+derive artifact (memory, then disk).
    /// Capture-stage counters mirror the derive ones: a hit means the
    /// unit's simulation was skipped, a miss means it executed.
    pub(crate) fn unit_artifact(&self, key: u64) -> Option<UnitArtifact> {
        if !self.stage_entries_enabled() {
            return None;
        }
        if let Some(hit) = self
            .units
            .lock()
            .expect("unit cache lock poisoned")
            .get(&key)
            .cloned()
        {
            self.stage_bump(StageKind::Derive, "mem_hits", 1, |s| s.mem_hits += 1);
            self.stage_bump(StageKind::Capture, "mem_hits", 1, |s| s.mem_hits += 1);
            return Some(hit);
        }
        if let Some(path) = self.entry_path("unit", key) {
            if let Ok(bytes) = fs::read(&path) {
                if let Some(artifact) = decode_unit(key, &bytes) {
                    let n = bytes.len() as u64;
                    self.stage_bump(StageKind::Derive, "disk_hits", 1, |s| s.disk_hits += 1);
                    self.stage_bump(StageKind::Derive, "bytes_read", n, |s| s.bytes_read += n);
                    self.stage_bump(StageKind::Capture, "disk_hits", 1, |s| s.disk_hits += 1);
                    self.units
                        .lock()
                        .expect("unit cache lock poisoned")
                        .insert(key, artifact.clone());
                    return Some(artifact);
                }
                self.stage_bump(StageKind::Derive, "corrupt_entries", 1, |s| {
                    s.corrupt_entries += 1
                });
                let _ = fs::remove_file(&path);
            }
        }
        self.stage_bump(StageKind::Derive, "misses", 1, |s| s.misses += 1);
        self.stage_bump(StageKind::Capture, "misses", 1, |s| s.misses += 1);
        None
    }

    /// Store a freshly computed unit artifact in both layers. Unit-entry
    /// disk traffic is accounted to the derive [`StageStats`] only — the
    /// legacy [`CacheStats`] keep counting whole-study entries.
    pub(crate) fn store_unit_artifact(&self, key: u64, artifact: &UnitArtifact) {
        if !self.stage_entries_enabled() {
            return;
        }
        let bytes = encode_unit(key, artifact);
        let n = bytes.len() as u64;
        if self.write_entry("unit", key, &bytes) {
            self.stage_bump(StageKind::Derive, "stores", 1, |s| s.stores += 1);
            self.stage_bump(StageKind::Derive, "bytes_written", n, |s| {
                s.bytes_written += n
            });
        }
        self.units
            .lock()
            .expect("unit cache lock poisoned")
            .insert(key, artifact.clone());
    }

    /// Atomically write an entry (temp file + rename) and bump the legacy
    /// counters. Failure degrades to "not cached" — the computed result is
    /// unaffected. Returns whether the entry landed on disk.
    fn persist(&self, kind: &str, key: u64, bytes: &[u8]) -> bool {
        if self.dir.is_none() {
            return false;
        }
        if self.write_entry(kind, key, bytes) {
            self.bump("cache.stores", |s| s.stores += 1);
            true
        } else {
            self.bump("cache.store_failures", |s| s.store_failures += 1);
            false
        }
    }

    /// The raw atomic write (temp file + rename), shared by the legacy
    /// entries and the stage artifacts; bumps no counters itself.
    ///
    /// The temp name is unique per process *and* per write (pid plus a
    /// process-wide sequence number), so concurrent writers of the same
    /// key — two worker threads, or a server and a CLI bin sharing the
    /// cache directory — each stage into a private file and race only on
    /// the final atomic rename. Whichever rename lands last wins with a
    /// complete entry; readers can never observe a torn file. A failed
    /// rename cleans up its temp file so crashes don't strand debris.
    fn write_entry(&self, kind: &str, key: u64, bytes: &[u8]) -> bool {
        static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let Some(path) = self.entry_path(kind, key) else {
            return false;
        };
        let write = || -> std::io::Result<()> {
            let dir = path.parent().expect("cache entry path has a parent");
            fs::create_dir_all(dir)?;
            let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let tmp = dir.join(format!(
                ".tmp-{kind}-{key:016x}-{}-{seq}",
                std::process::id()
            ));
            fs::write(&tmp, bytes)?;
            if let Err(e) = fs::rename(&tmp, &path) {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
            Ok(())
        };
        if write().is_ok() {
            self.evict_excess();
            true
        } else {
            false
        }
    }

    /// Drop the oldest-modified entries once the directory exceeds the
    /// entry cap.
    fn evict_excess(&self) {
        let Some(dir) = &self.dir else {
            return;
        };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf)> = entries
            .filter_map(|e| {
                let e = e.ok()?;
                let path = e.path();
                if path.extension().and_then(|x| x.to_str()) != Some("mwcc") {
                    return None;
                }
                let modified = e.metadata().ok()?.modified().ok()?;
                Some((modified, path))
            })
            .collect();
        if files.len() <= self.max_entries {
            return;
        }
        files.sort();
        let excess = files.len() - self.max_entries;
        for (_, path) in files.into_iter().take(excess) {
            if fs::remove_file(&path).is_ok() {
                self.bump("cache.evictions", |s| s.evictions += 1);
            }
        }
    }

    fn bump(&self, counter: &str, f: impl FnOnce(&mut CacheStats)) {
        f(&mut self.stats.lock().expect("cache stats lock poisoned"));
        mwc_obs::metrics::counter_add(counter, 1);
    }

    /// Bump one per-stage counter and its `cache.stage.<stage>.<counter>`
    /// observability twin by `n` (the closure applies the same delta to
    /// the [`StageStats`] slot).
    fn stage_bump(&self, kind: StageKind, counter: &str, n: u64, f: impl FnOnce(&mut StageStats)) {
        f(&mut self.stage_stats.lock().expect("stage stats lock poisoned")[kind.index()]);
        mwc_obs::metrics::counter_add(&format!("cache.stage.{}.{counter}", kind.name()), n);
    }
}

fn default_dir() -> PathBuf {
    if let Ok(d) = env::var("XDG_CACHE_HOME") {
        if !d.is_empty() {
            return PathBuf::from(d).join("mwc");
        }
    }
    if let Ok(h) = env::var("HOME") {
        if !h.is_empty() {
            return PathBuf::from(h).join(".cache").join("mwc");
        }
    }
    env::temp_dir().join("mwc-cache")
}

// ---------------------------------------------------------------------------
// Binary codec. Fixed little-endian layout; f64 round-trips by bit pattern
// (NaN gap payloads included), so decode(encode(x)).digest() == x.digest().
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.raw(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader: every accessor returns `None`
/// instead of panicking on a short or lying buffer.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        if len > self.remaining() {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

fn suite_index(s: Suite) -> u32 {
    Suite::ALL
        .iter()
        .position(|&x| x == s)
        .expect("every suite is in Suite::ALL") as u32
}

fn label_index(l: ClusterLabel) -> u32 {
    ClusterLabel::ALL
        .iter()
        .position(|&x| x == l)
        .expect("every label is in ClusterLabel::ALL") as u32
}

fn algorithm_index(a: Algorithm) -> u32 {
    Algorithm::ALL
        .iter()
        .position(|&x| x == a)
        .expect("every algorithm is in Algorithm::ALL") as u32
}

/// The 19 scalar metrics, in the fixed order shared by encode and decode
/// (matches the [`Characterization::digest`] order).
fn metric_values(m: &BenchmarkMetrics) -> [f64; 19] {
    [
        m.instruction_count,
        m.ipc,
        m.cache_mpki,
        m.branch_mpki,
        m.runtime_seconds,
        m.cpu_load,
        m.cpu_little_load,
        m.cpu_mid_load,
        m.cpu_big_load,
        m.cpu_little_util,
        m.cpu_mid_util,
        m.cpu_big_util,
        m.gpu_load,
        m.gpu_shaders_busy,
        m.gpu_bus_busy,
        m.aie_load,
        m.memory_used_fraction,
        m.memory_peak_mib,
        m.storage_busy,
    ]
}

fn series_refs(s: &UnitSeries) -> [&TimeSeries; 12] {
    [
        &s.cpu_load,
        &s.little_load,
        &s.mid_load,
        &s.big_load,
        &s.gpu_load,
        &s.shaders_busy,
        &s.bus_busy,
        &s.aie_load,
        &s.memory_fraction,
        &s.memory_mib,
        &s.ipc,
        &s.storage_busy,
    ]
}

fn health_values(h: &CaptureHealth) -> [usize; 9] {
    [
        h.runs_requested,
        h.runs_used,
        h.attempts,
        h.retries,
        h.failed_runs,
        h.truncated_runs,
        h.dropped_samples,
        h.overflow_wraps,
        h.outliers_rejected,
    ]
}

fn encode_profile(e: &mut Enc, p: &UnitProfile) {
    e.str(&p.name);
    e.u32(suite_index(p.suite));
    e.u32(label_index(p.label));
    e.str(&p.metrics.name);
    for v in metric_values(&p.metrics) {
        e.f64(v);
    }
    for s in series_refs(&p.series) {
        e.f64(s.tick_seconds);
        e.usize(s.values.len());
        for &v in &s.values {
            e.f64(v);
        }
    }
    for v in health_values(&p.health) {
        e.usize(v);
    }
}

pub(crate) fn encode_study(key: u64, study: &Characterization) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.raw(STUDY_MAGIC);
    e.u32(CACHE_SCHEMA_VERSION);
    e.u64(key);
    e.u64(study.digest());
    e.usize(study.profiles().len());
    for p in study.profiles() {
        encode_profile(&mut e, p);
    }
    let report = study.report();
    e.usize(report.units_requested);
    e.usize(report.failed_units.len());
    for f in &report.failed_units {
        e.str(&f.name);
        e.str(&f.error);
    }
    e.0
}

fn decode_series(d: &mut Dec<'_>) -> Option<TimeSeries> {
    let tick_seconds = d.f64()?;
    let len = d.usize()?;
    if len > d.remaining() / 8 {
        return None;
    }
    let values = (0..len).map(|_| d.f64()).collect::<Option<Vec<_>>>()?;
    Some(TimeSeries::new(tick_seconds, values))
}

fn decode_profile(d: &mut Dec<'_>) -> Option<UnitProfile> {
    let name = d.str()?;
    let suite = *Suite::ALL.get(d.u32()? as usize)?;
    let label = *ClusterLabel::ALL.get(d.u32()? as usize)?;
    let metric_name = d.str()?;
    let mut v = [0.0; 19];
    for slot in &mut v {
        *slot = d.f64()?;
    }
    let metrics = BenchmarkMetrics {
        name: metric_name,
        instruction_count: v[0],
        ipc: v[1],
        cache_mpki: v[2],
        branch_mpki: v[3],
        runtime_seconds: v[4],
        cpu_load: v[5],
        cpu_little_load: v[6],
        cpu_mid_load: v[7],
        cpu_big_load: v[8],
        cpu_little_util: v[9],
        cpu_mid_util: v[10],
        cpu_big_util: v[11],
        gpu_load: v[12],
        gpu_shaders_busy: v[13],
        gpu_bus_busy: v[14],
        aie_load: v[15],
        memory_used_fraction: v[16],
        memory_peak_mib: v[17],
        storage_busy: v[18],
    };
    let series = UnitSeries {
        cpu_load: decode_series(d)?,
        little_load: decode_series(d)?,
        mid_load: decode_series(d)?,
        big_load: decode_series(d)?,
        gpu_load: decode_series(d)?,
        shaders_busy: decode_series(d)?,
        bus_busy: decode_series(d)?,
        aie_load: decode_series(d)?,
        memory_fraction: decode_series(d)?,
        memory_mib: decode_series(d)?,
        ipc: decode_series(d)?,
        storage_busy: decode_series(d)?,
    };
    let mut h = [0usize; 9];
    for slot in &mut h {
        *slot = d.usize()?;
    }
    let health = CaptureHealth {
        runs_requested: h[0],
        runs_used: h[1],
        attempts: h[2],
        retries: h[3],
        failed_runs: h[4],
        truncated_runs: h[5],
        dropped_samples: h[6],
        overflow_wraps: h[7],
        outliers_rejected: h[8],
    };
    Some(UnitProfile {
        name,
        suite,
        label,
        metrics,
        series,
        health,
    })
}

/// Decode a study entry. Returns `None` — never an error, never a panic —
/// unless the buffer fully parses under `expected_key` and the rebuilt
/// study's digest matches the digest stored at encode time.
pub(crate) fn decode_study(expected_key: u64, bytes: &[u8]) -> Option<Characterization> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != STUDY_MAGIC {
        return None;
    }
    if d.u32()? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if d.u64()? != expected_key {
        return None;
    }
    let stored_digest = d.u64()?;
    let n = d.usize()?;
    if n > d.remaining() {
        return None;
    }
    let profiles = (0..n)
        .map(|_| decode_profile(&mut d))
        .collect::<Option<Vec<_>>>()?;
    let units_requested = d.usize()?;
    let failed = d.usize()?;
    if failed > d.remaining() {
        return None;
    }
    let failed_units = (0..failed)
        .map(|_| {
            Some(FailedUnit {
                name: d.str()?,
                error: d.str()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    if !d.done() {
        return None;
    }
    let study = Characterization::new(
        profiles,
        DegradationReport {
            units_requested,
            failed_units,
        },
    );
    // Recomputed from the decoded content, never copied from the header:
    // this fills the memo with a verified value.
    (study.digest() == stored_digest).then_some(study)
}

/// Artifact payload tags (after magic/version/key): a failed capture
/// stores its rendered error, a profiled unit stores its digest-verified
/// profile.
const UNIT_TAG_FAILED: u32 = 0;
const UNIT_TAG_PROFILED: u32 = 1;

pub(crate) fn encode_unit(key: u64, artifact: &UnitArtifact) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.raw(UNIT_MAGIC);
    e.u32(CACHE_SCHEMA_VERSION);
    e.u64(key);
    match artifact {
        UnitArtifact::Failed(error) => {
            e.u32(UNIT_TAG_FAILED);
            e.str(error);
        }
        UnitArtifact::Profiled(p) => {
            e.u32(UNIT_TAG_PROFILED);
            e.u64(p.digest());
            encode_profile(&mut e, p);
        }
    }
    // Failed artifacts carry no semantic digest, so integrity comes from a
    // trailing checksum over the whole payload (profiles get both).
    let mut h = Fnv1a::new();
    h.write_bytes(&e.0);
    let checksum = h.finish();
    e.u64(checksum);
    e.0
}

/// Decode a unit artifact. Returns `None` — never an error, never a
/// panic — unless the checksum, key, and (for profiles) the stored
/// profile digest all verify.
pub(crate) fn decode_unit(expected_key: u64, bytes: &[u8]) -> Option<UnitArtifact> {
    if bytes.len() < 8 {
        return None;
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    if h.finish() != stored {
        return None;
    }
    let mut d = Dec::new(payload);
    if d.take(4)? != UNIT_MAGIC {
        return None;
    }
    if d.u32()? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if d.u64()? != expected_key {
        return None;
    }
    match d.u32()? {
        UNIT_TAG_FAILED => {
            let error = d.str()?;
            d.done().then_some(UnitArtifact::Failed(error))
        }
        UNIT_TAG_PROFILED => {
            let stored_digest = d.u64()?;
            let profile = decode_profile(&mut d)?;
            if !d.done() || profile.digest() != stored_digest {
                return None;
            }
            Some(UnitArtifact::Profiled(Arc::new(profile)))
        }
        _ => None,
    }
}

pub(crate) fn encode_sweep(key: u64, s: &ValidationSweep) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.raw(SWEEP_MAGIC);
    e.u32(CACHE_SCHEMA_VERSION);
    e.u64(key);
    e.usize(s.points.len());
    for p in &s.points {
        e.u32(algorithm_index(p.algorithm));
        e.usize(p.k);
        for v in [p.dunn, p.silhouette, p.apn, p.ad] {
            e.f64(v);
        }
    }
    // Sweeps have no semantic digest of their own, so integrity comes from
    // a trailing checksum over the entire payload.
    let mut h = Fnv1a::new();
    h.write_bytes(&e.0);
    let checksum = h.finish();
    e.u64(checksum);
    e.0
}

pub(crate) fn decode_sweep(expected_key: u64, bytes: &[u8]) -> Option<ValidationSweep> {
    if bytes.len() < 8 {
        return None;
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    if h.finish() != stored {
        return None;
    }
    let mut d = Dec::new(payload);
    if d.take(4)? != SWEEP_MAGIC {
        return None;
    }
    if d.u32()? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if d.u64()? != expected_key {
        return None;
    }
    let n = d.usize()?;
    if n > d.remaining() {
        return None;
    }
    let points = (0..n)
        .map(|_| {
            let algorithm = *Algorithm::ALL.get(d.u32()? as usize)?;
            let k = d.usize()?;
            let dunn = d.f64()?;
            let silhouette = d.f64()?;
            let apn = d.f64()?;
            let ad = d.f64()?;
            Some(SweepPoint {
                algorithm,
                k,
                dunn,
                silhouette,
                apn,
                ad,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    if !d.done() {
        return None;
    }
    Some(ValidationSweep { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique throwaway directory per test (removed on drop).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            static N: AtomicUsize = AtomicUsize::new(0);
            let dir = env::temp_dir().join(format!(
                "mwc-cache-unit-{}-{}",
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

    fn tiny_metrics(name: &str) -> BenchmarkMetrics {
        BenchmarkMetrics {
            name: name.to_owned(),
            instruction_count: 1.5e9,
            ipc: 1.25,
            cache_mpki: 4.5,
            branch_mpki: 2.25,
            runtime_seconds: 60.5,
            cpu_load: 0.5,
            cpu_little_load: 0.25,
            cpu_mid_load: 0.5,
            cpu_big_load: 0.75,
            cpu_little_util: 0.4,
            cpu_mid_util: 0.6,
            cpu_big_util: 0.8,
            gpu_load: 0.3,
            gpu_shaders_busy: 0.2,
            gpu_bus_busy: 0.1,
            aie_load: 0.05,
            memory_used_fraction: 0.21,
            memory_peak_mib: 2550.0,
            storage_busy: 0.02,
        }
    }

    /// A hand-built two-unit study with NaN gaps, so codec tests run
    /// without simulating — and prove bit-exact round-tripping.
    fn tiny_study() -> Characterization {
        let s = |values: Vec<f64>| TimeSeries::new(0.5, values);
        let series = UnitSeries {
            cpu_load: s(vec![0.1, f64::NAN, -0.3]),
            little_load: s(vec![0.2, 0.3]),
            mid_load: s(vec![0.4]),
            big_load: s(vec![]),
            gpu_load: s(vec![0.9, 0.8]),
            shaders_busy: s(vec![0.5]),
            bus_busy: s(vec![0.1, 0.2, 0.3]),
            aie_load: s(vec![0.0]),
            memory_fraction: s(vec![0.21, 0.22]),
            memory_mib: s(vec![2500.0]),
            ipc: s(vec![1.2, f64::NAN]),
            storage_busy: s(vec![0.01]),
        };
        let profile = |name: &str, suite, label| UnitProfile {
            name: name.to_owned(),
            suite,
            label,
            metrics: tiny_metrics(name),
            series: series.clone(),
            health: CaptureHealth {
                runs_requested: 3,
                runs_used: 2,
                attempts: 4,
                retries: 1,
                failed_runs: 1,
                truncated_runs: 1,
                dropped_samples: 5,
                overflow_wraps: 1,
                outliers_rejected: 2,
            },
        };
        Characterization::new(
            vec![
                profile("Unit A", Suite::Antutu, ClusterLabel::Mixed),
                profile("Unit B", Suite::GfxBench, ClusterLabel::IntenseGraphics),
            ],
            DegradationReport {
                units_requested: 3,
                failed_units: vec![FailedUnit {
                    name: "Unit C".to_owned(),
                    error: "capture of 'Unit C' exhausted".to_owned(),
                }],
            },
        )
    }

    fn tiny_sweep() -> ValidationSweep {
        ValidationSweep {
            points: vec![
                SweepPoint {
                    algorithm: Algorithm::KMeans,
                    k: 2,
                    dunn: 0.5,
                    silhouette: 0.6,
                    apn: 0.1,
                    ad: 1.5,
                },
                SweepPoint {
                    algorithm: Algorithm::Hierarchical,
                    k: 5,
                    dunn: 0.9,
                    silhouette: 0.7,
                    apn: 0.05,
                    ad: 1.1,
                },
            ],
        }
    }

    #[test]
    fn study_roundtrip_is_bit_identical() {
        let study = tiny_study();
        let key = 0x1234_5678_9abc_def0;
        let bytes = encode_study(key, &study);
        let back = decode_study(key, &bytes).expect("well-formed entry decodes");
        assert_eq!(back.digest(), study.digest());
        assert_eq!(back.report(), study.report());
        assert_eq!(back.profiles().len(), study.profiles().len());
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let study = tiny_study();
        let key = 42;
        let bytes = encode_study(key, &study);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode_study(key, &bad).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// [`tiny_study`] with its NaN gaps filled: NaN never equals itself,
    /// so equality tests need finite samples.
    fn finite_study() -> Characterization {
        let study = tiny_study();
        let mut profiles = study.profiles().to_vec();
        for p in &mut profiles {
            for series in [&mut p.series.cpu_load, &mut p.series.ipc] {
                for v in series.values.iter_mut().filter(|v| v.is_nan()) {
                    *v = 0.0;
                }
            }
        }
        Characterization::new(profiles, study.report().clone())
    }

    /// The digest of a fresh study built from the same parts, so no memo
    /// can answer.
    fn recomputed_digest(study: &Characterization) -> u64 {
        Characterization::new(study.profiles().to_vec(), study.report().clone()).digest()
    }

    #[test]
    fn equality_ignores_whether_either_side_was_hashed() {
        let key = 7;
        let study = finite_study();
        let unhashed_clone = study.clone();
        assert_eq!(study, unhashed_clone, "neither side hashed");
        // Decoding verifies the stored digest, which hashes the copy.
        let decoded = decode_study(key, &encode_study(key, &finite_study())).expect("decodes");
        assert_eq!(study, decoded, "only the decoded side hashed");
        assert_eq!(decoded, study);
        study.digest();
        let hashed_clone = study.clone();
        assert_eq!(hashed_clone, unhashed_clone, "only the clone hashed");
        assert_eq!(study, decoded, "both sides hashed");
        assert_eq!(hashed_clone.digest(), unhashed_clone.digest());
    }

    #[test]
    fn decoded_digest_equals_a_fresh_recompute() {
        let key = 9;
        for study in [tiny_study(), finite_study()] {
            let decoded = decode_study(key, &encode_study(key, &study)).expect("decodes");
            assert_eq!(decoded.digest(), recomputed_digest(&study));
            assert_eq!(decoded.digest(), recomputed_digest(&decoded));
        }
    }

    #[test]
    fn concurrent_first_digests_agree() {
        let study = Arc::new(tiny_study());
        let expected = recomputed_digest(&study);
        let start = std::sync::Barrier::new(8);
        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let study = Arc::clone(&study);
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        study.digest()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("digest thread"))
                .collect()
        });
        assert_eq!(digests, vec![expected; 8]);
    }

    #[test]
    fn truncated_and_mismatched_entries_are_rejected() {
        let study = tiny_study();
        let key = 7;
        let bytes = encode_study(key, &study);
        for len in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_study(key, &bytes[..len]).is_none(), "prefix {len}");
        }
        assert!(decode_study(8, &bytes).is_none(), "wrong key accepted");
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_study(key, &extended).is_none(), "trailing garbage");
    }

    #[test]
    fn sweep_roundtrip_and_corruption() {
        let s = tiny_sweep();
        let key = 99;
        let bytes = encode_sweep(key, &s);
        assert_eq!(decode_sweep(key, &bytes).expect("decodes"), s);
        assert!(decode_sweep(100, &bytes).is_none());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_sweep(key, &bad).is_none(), "flip at byte {i}");
        }
    }

    #[test]
    fn study_key_changes_with_every_input() {
        let cfg = SocConfig::snapdragon_888();
        let faults = FaultConfig::default();
        let base = study_key(&cfg, 2024, 3, &faults);
        assert_eq!(base, study_key(&cfg, 2024, 3, &faults), "key is stable");
        assert_ne!(base, study_key(&cfg, 2025, 3, &faults), "seed is keyed");
        assert_ne!(base, study_key(&cfg, 2024, 1, &faults), "runs are keyed");
        let mut other_cfg = SocConfig::snapdragon_888();
        other_cfg.memory.capacity_mib += 1.0;
        assert_ne!(
            base,
            study_key(&other_cfg, 2024, 3, &faults),
            "config is keyed"
        );
        let active = FaultConfig {
            dropout_rate: 0.05,
            ..FaultConfig::default()
        };
        assert_ne!(base, study_key(&cfg, 2024, 3, &active), "faults are keyed");
    }

    #[test]
    fn sweep_key_changes_with_matrix_and_ks() {
        let base = sweep_key(1, &[2, 3, 4]);
        assert_eq!(base, sweep_key(1, &[2, 3, 4]));
        assert_ne!(base, sweep_key(2, &[2, 3, 4]));
        assert_ne!(base, sweep_key(1, &[2, 3]));
        assert_ne!(base, sweep_key(1, &[2, 4, 3]), "k order is keyed");
    }

    #[test]
    fn disk_layer_roundtrips_and_treats_corruption_as_miss() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study = tiny_study();
        let key = 0xfeed;
        cache.persist("study", key, &encode_study(key, &study));
        assert_eq!(cache.stats().stores, 1);

        let loaded = cache.load_study(key).expect("warm entry loads");
        assert_eq!(loaded.digest(), study.digest());
        assert_eq!(cache.stats().disk_hits, 1);

        // Scribble over the entry: the next load degrades to a miss and
        // removes the bad file.
        let path = cache.entry_path("study", key).expect("disk layer");
        fs::write(&path, b"not a cache entry").expect("overwrite");
        assert!(cache.load_study(key).is_none());
        assert_eq!(cache.stats().corrupt_entries, 1);
        assert!(!path.exists(), "corrupt entry is dropped");
        assert!(cache.load_study(key).is_none(), "gone after removal");
    }

    #[test]
    fn eviction_caps_disk_entries() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 3;
        let study = tiny_study();
        for key in 0..5u64 {
            cache.persist("study", key, &encode_study(key, &study));
        }
        let remaining = fs::read_dir(&tmp.0)
            .expect("cache dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("mwcc"))
            .count();
        assert_eq!(remaining, 3);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn disabled_cache_never_touches_disk() {
        let cache = StudyCache::disabled();
        assert!(!cache.is_enabled());
        assert!(cache.dir().is_none());
        assert_eq!(cache.describe(), "off");
    }

    #[test]
    fn stats_summary_is_greppable() {
        let cache = StudyCache::in_memory();
        assert!(cache.stats().summary().contains("disk_hits=0"));
        assert!(cache.stage_summary().contains("sims=0"));
        assert!(cache.stage_summary().contains("reused=0"));
    }

    #[test]
    fn unit_artifact_roundtrip_both_variants() {
        let study = tiny_study();
        let key = 0xabcd;
        let profiled = UnitArtifact::Profiled(Arc::new(study.profiles()[0].clone()));
        let bytes = encode_unit(key, &profiled);
        match decode_unit(key, &bytes).expect("profiled artifact decodes") {
            UnitArtifact::Profiled(p) => assert_eq!(p.digest(), study.profiles()[0].digest()),
            UnitArtifact::Failed(e) => panic!("decoded as failure: {e}"),
        }
        let failed = UnitArtifact::Failed("capture of 'Unit A' exhausted".to_owned());
        let bytes = encode_unit(key, &failed);
        match decode_unit(key, &bytes).expect("failed artifact decodes") {
            UnitArtifact::Failed(e) => assert_eq!(e, "capture of 'Unit A' exhausted"),
            UnitArtifact::Profiled(_) => panic!("decoded as profile"),
        }
        assert!(decode_unit(key + 1, &bytes).is_none(), "wrong key accepted");
    }

    #[test]
    fn every_unit_entry_byte_corruption_is_detected() {
        let study = tiny_study();
        let key = 17;
        for artifact in [
            UnitArtifact::Profiled(Arc::new(study.profiles()[1].clone())),
            UnitArtifact::Failed("boom".to_owned()),
        ] {
            let bytes = encode_unit(key, &artifact);
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x01;
                assert!(decode_unit(key, &bad).is_none(), "flip at byte {i}");
            }
            for len in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
                assert!(decode_unit(key, &bytes[..len]).is_none(), "prefix {len}");
            }
        }
    }

    #[test]
    fn unit_artifact_layer_counts_into_stage_stats_not_legacy_stats() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study = tiny_study();
        let key = 0xbeef;
        assert!(cache.unit_artifact(key).is_none(), "cold lookup misses");
        let artifact = UnitArtifact::Profiled(Arc::new(study.profiles()[0].clone()));
        cache.store_unit_artifact(key, &artifact);
        assert!(cache.unit_artifact(key).is_some(), "memory hit");

        let derive = cache.stage(StageKind::Derive);
        assert_eq!(derive.misses, 1);
        assert_eq!(derive.stores, 1);
        assert_eq!(derive.mem_hits, 1);
        assert!(derive.bytes_written > 0);
        let capture = cache.stage(StageKind::Capture);
        assert_eq!(capture.misses, 1, "capture mirrors the miss (sim ran)");
        assert_eq!(capture.mem_hits, 1, "capture mirrors the hit (sim skipped)");
        assert_eq!(capture.stores, 0, "capture owns no entries");
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "legacy counters never see unit-entry traffic"
        );

        // A fresh instance over the same directory replays from disk.
        let warm = StudyCache::with_dir(&tmp.0);
        assert!(warm.unit_artifact(key).is_some(), "disk hit");
        let derive = warm.stage(StageKind::Derive);
        assert_eq!(derive.disk_hits, 1);
        assert!(derive.bytes_read > 0);

        // Corruption degrades to a miss and drops the entry.
        let path = warm.entry_path("unit", key).expect("disk layer");
        fs::write(&path, b"junk").expect("overwrite");
        let corrupt = StudyCache::with_dir(&tmp.0);
        assert!(corrupt.unit_artifact(key).is_none());
        assert_eq!(corrupt.stage(StageKind::Derive).corrupt_entries, 1);
        assert!(!path.exists(), "corrupt unit entry is dropped");
    }

    #[test]
    fn concurrent_same_key_writers_never_tear_an_entry() {
        // Writers hammer one key with differently-sized (all valid)
        // payloads while readers decode continuously: every read must be
        // a complete entry or a clean miss — never a corruption error —
        // and no temp debris may survive.
        let tmp = TempDir::new();
        let cache = std::sync::Arc::new(StudyCache::with_dir(&tmp.0));
        let study_a = tiny_study();
        let study_b =
            Characterization::new(study_a.profiles()[..1].to_vec(), study_a.report().clone());
        let key = 0x5eed;
        let digests = [study_a.digest(), study_b.digest()];

        std::thread::scope(|s| {
            for (w, study) in [study_a.clone(), study_b.clone()].into_iter().enumerate() {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    let bytes = encode_study(key, &study);
                    for _ in 0..100 {
                        assert!(cache.write_entry("study", key, &bytes), "writer {w}");
                    }
                });
            }
            for _ in 0..2 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Some(study) = cache.load_study(key) {
                            assert!(
                                digests.contains(&study.digest()),
                                "read a study no writer produced"
                            );
                        }
                    }
                });
            }
        });

        assert_eq!(cache.stats().corrupt_entries, 0, "no torn reads");
        let leftovers: Vec<_> = fs::read_dir(&tmp.0)
            .expect("cache dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
    }

    #[test]
    fn digest_index_finds_studies_and_misses_unknown() {
        let cache = StudyCache::in_memory();
        let study = Arc::new(tiny_study());
        cache.index_study(11, &study);
        let found = cache
            .study_by_digest(study.digest())
            .expect("indexed study is findable");
        assert_eq!(found.digest(), study.digest());
        assert!(cache.study_by_digest(study.digest() ^ 1).is_none());
    }

    #[test]
    fn stage_entry_layer_can_be_disabled_independently() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.stage_entries = false;
        assert!(cache.is_enabled());
        assert!(!cache.stage_entries_enabled());
        let artifact = UnitArtifact::Failed("x".to_owned());
        cache.store_unit_artifact(1, &artifact);
        assert!(cache.unit_artifact(1).is_none(), "layer is inert when off");
        assert_eq!(cache.stage(StageKind::Derive), StageStats::default());
        assert_eq!(
            fs::read_dir(&tmp.0).expect("cache dir").count(),
            0,
            "nothing written"
        );
    }
}
