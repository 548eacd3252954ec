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
//!   [`Characterization`] instances, and the per-unit artifacts the disk
//!   layer does not hold.
//! * **Disk** — one file per entry under the cache directory,
//!   `study-<key>.mwcc` / `unit-<key>.mwcc`, written atomically (temp
//!   file + rename) so readers never observe a partial entry. A study
//!   entry is a *manifest* of the unit entries the study was built from,
//!   so each unit profile is stored once. Files of other names, such as
//!   the `sweep-<key>.mwcc` entries older builds left, are never read,
//!   counted or evicted.
//!
//! Nothing derived from a study is kept: figures, tables and the Fig-4
//! sweep are pure functions of it (`crate::features`).
//!
//! ## Eviction
//!
//! `MWC_CACHE_MAX` bounds the study entries on disk. After one is
//! written, the oldest-modified beyond the cap are deleted — never the
//! entry just written — with the unit entries only they named. A unit
//! entry no manifest names yet, as of a study in flight, stays until it
//! is older than every kept entry. So a resumed sweep replays every
//! stored point, and a one-knob change to a stored study finds the units
//! it shares.
//! [`StudyCache::stored_studies`] lists the studies for `report`.
//!
//! ## Keys
//!
//! Entries are addressed by an FNV-1a digest over everything that can
//! influence the result ([`StudySpec::study_key`], [`StudySpec::unit_key`]):
//! the schema version and crate version, the study protocol (seed, run
//! count), [`SocConfig::content_digest`], each unit's fault model
//! ([`FaultConfig::content_digest`](mwc_profiler::faults::FaultConfig::content_digest))
//! and the unit registry (names, suites, labels). Worker-thread count is deliberately *excluded*: results are
//! bit-identical at any parallelism (see `mwc_parallel`), so thread count
//! must not fragment the key space.
//!
//! ## Corruption handling
//!
//! Every entry file is one frame, `MWCC | u32 schema | u32 kind | u64 key
//! | u64 check | payload`, whose check is a word-wise hash of the payload
//! bytes. A frame is trusted only if its header matches the lookup, its
//! payload fully parses, *and* the hash recomputed from the payload
//! bytes equals the stored one. Anything else — bad magic, version skew,
//! another kind's entry, short file, flipped byte — is treated as a
//! plain miss: the entry is deleted, the result recomputed and
//! re-stored. Corrupt entries can degrade a warm run to a cold one but
//! can never surface wrong numbers or errors.
//!
//! A manifest stores the study's [`Characterization::digest`] and each
//! unit's name, entry key and frame check. A load serves that digest only
//! if every unit is replayed from an entry that verifies *and* carries
//! the recorded check; else the study, with any unit lacking one
//! simulated, is hashed afresh. The writer hashed exactly the values
//! framed under those checks, and [`CACHE_SCHEMA_VERSION`], in key and
//! header, changes whenever the digest or the encoding does.

use std::collections::{HashMap, HashSet};
use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use mwc_profiler::derive::BenchmarkMetrics;
use mwc_profiler::faults::CaptureHealth;
use mwc_profiler::timeseries::TimeSeries;
use mwc_soc::config::SocConfig;
use mwc_workloads::registry::{ClusterLabel, Suite};

use crate::error::PipelineError;
use crate::pipeline::{Characterization, UnitProfile, UnitSeries};
use crate::spec::StudySpec;
use crate::stages::{collect, Collected, UnitArtifact, UnitOutcome};

/// Set to `off` / `0` / `false` to disable both cache layers.
pub const CACHE_MODE_ENV: &str = "MWC_CACHE";
/// Overrides the on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "MWC_CACHE_DIR";
/// Overrides the maximum number of on-disk study entries.
pub const CACHE_MAX_ENV: &str = "MWC_CACHE_MAX";

/// Version of the serialized entry format *and* of the data model it
/// memoizes. Bump on any change to the simulation, capture, merge or
/// analysis arithmetic — or to the encoding itself, or to how keys are
/// derived — so stale entries from older builds are invalidated instead
/// of replayed.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

/// Default cap on on-disk study entries.
const DEFAULT_MAX_ENTRIES: usize = 64;

/// The magic that opens every entry frame, whatever its kind.
const MAGIC: &[u8; 4] = b"MWCC";

/// Counters of what the cache did this process, from
/// [`StudyCache::stats`] or [`StudyCache::stage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from the in-process memory layer.
    pub mem_hits: u64,
    /// Entries served from disk; a study only if none of its units ran.
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

/// What the cache keeps: each kind is one row of the counter table and
/// names its entry files, and its frames carry the discriminant as their
/// kind code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whole studies; on disk, a manifest of unit entries.
    Study = 0,
    /// One unit's capture+derive artifact; a miss means it simulated.
    Unit = 1,
}

impl Kind {
    /// Every kind, in counter-table order.
    pub const ALL: [Kind; 2] = [Kind::Study, Kind::Unit];

    /// Stable lowercase name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Study => "study",
            Kind::Unit => "unit",
        }
    }
}

/// One cache event; with a [`Kind`], one cell of the counter table.
#[derive(Debug, Clone, Copy)]
enum Event {
    MemHit,
    DiskHit,
    Miss,
    Store,
    Corrupt,
    Evicted,
    StoreFailed,
    BytesRead,
    BytesWritten,
}

impl Event {
    fn name(self) -> &'static str {
        match self {
            Event::MemHit => "mem_hits",
            Event::DiskHit => "disk_hits",
            Event::Miss => "misses",
            Event::Store => "stores",
            Event::Corrupt => "corrupt_entries",
            Event::Evicted => "evictions",
            Event::StoreFailed => "store_failures",
            Event::BytesRead => "bytes_read",
            Event::BytesWritten => "bytes_written",
        }
    }
}

/// Every event count, one row per [`Kind`], indexed by [`Event`].
type Counts = [[u64; 9]; 2];

/// A whole-study disk entry, as listed by [`StudyCache::stored_studies`].
#[derive(Debug)]
pub struct StoredStudy {
    /// The entry's content key ([`StudySpec::study_key`]).
    pub key: u64,
    /// When the entry was written (the file's modification time).
    pub stored_at: SystemTime,
    /// The study its manifest names, every unit entry verified.
    pub study: Characterization,
}

/// The two-layer study cache. A binary configures its own from the
/// environment with [`StudyCache::from_env`]; the server and tests
/// construct theirs with [`StudyCache::with_dir`] or
/// [`StudyCache::in_memory`].
#[derive(Debug)]
pub struct StudyCache {
    enabled: bool,
    dir: Option<PathBuf>,
    max_entries: usize,
    studies: Mutex<HashMap<u64, Arc<Characterization>>>,
    /// Secondary index: [`Characterization::digest`] → study key, so a
    /// result can be re-fetched by the digest handed out to clients
    /// (`mwc-server`'s `GET /study/<digest>`).
    by_digest: Mutex<HashMap<u64, u64>>,
    /// The unit artifacts the disk layer does not hold: every one without
    /// a directory, and any whose write failed.
    units: Mutex<HashMap<u64, UnitArtifact>>,
    counts: Mutex<Counts>,
}

impl StudyCache {
    fn new(enabled: bool, dir: Option<PathBuf>, max_entries: usize) -> Self {
        StudyCache {
            enabled,
            dir,
            max_entries,
            studies: Mutex::new(HashMap::new()),
            by_digest: Mutex::new(HashMap::new()),
            units: Mutex::new(HashMap::new()),
            counts: Mutex::new(Counts::default()),
        }
    }

    /// Configure from the environment: `MWC_CACHE=off|0|false` disables,
    /// `MWC_CACHE_DIR` overrides the directory (default:
    /// `$XDG_CACHE_HOME/mwc`, then `$HOME/.cache/mwc`, then a `mwc-cache`
    /// directory under the system temp dir), `MWC_CACHE_MAX` caps the
    /// on-disk study entries.
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
        StudyCache::new(true, Some(dir), max_entries)
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

    /// Whether any caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The disk directory, if a persistent layer is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// A snapshot of the counters: study traffic, plus the evictions and
    /// store failures of every kind of entry.
    pub fn stats(&self) -> CacheStats {
        let counts = self.counts();
        let every_kind = |e: Event| counts.iter().map(|row| row[e as usize]).sum();
        CacheStats {
            evictions: every_kind(Event::Evicted),
            store_failures: every_kind(Event::StoreFailed),
            ..Self::row_stats(counts[Kind::Study as usize])
        }
    }

    /// The counters of one kind.
    pub fn stage(&self, kind: Kind) -> CacheStats {
        Self::row_stats(self.counts()[kind as usize])
    }

    fn row_stats(row: [u64; 9]) -> CacheStats {
        CacheStats {
            mem_hits: row[Event::MemHit as usize],
            disk_hits: row[Event::DiskHit as usize],
            misses: row[Event::Miss as usize],
            stores: row[Event::Store as usize],
            corrupt_entries: row[Event::Corrupt as usize],
            evictions: row[Event::Evicted as usize],
            store_failures: row[Event::StoreFailed as usize],
        }
    }

    /// One-line machine-greppable per-stage rendering (used by
    /// `scripts/verify.sh`'s incremental gate), read from the unit row:
    /// `sims=` counts units whose simulation actually executed this
    /// process, `reused=` counts units replayed from their artifacts.
    pub fn stage_summary(&self) -> String {
        let unit = self.stage(Kind::Unit);
        format!(
            "sims={} reused={} derive_stores={}",
            unit.misses,
            unit.hits(),
            unit.stores
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
    /// the key because results are parallelism-invariant). A warm hit is
    /// guaranteed bit-identical to the cold computation (a load verifies
    /// every unit entry's payload hash against the check its manifest
    /// recorded).
    pub fn study(
        &self,
        config: &SocConfig,
        seed: u64,
        runs: usize,
    ) -> Result<Arc<Characterization>, PipelineError> {
        self.study_spec(&StudySpec::new(config.clone(), seed, runs))
    }

    /// The study described by `spec`, served from the cache when warm.
    /// Past the memory layer the staged executor runs *through* this
    /// cache, simulating only units without an entry: after a warm
    /// capture, a one-unit fault override re-simulates that unit alone.
    /// Any other study than the one its manifest records is a miss, and
    /// gets a manifest once every unit has an entry.
    pub fn study_spec(&self, spec: &StudySpec) -> Result<Arc<Characterization>, PipelineError> {
        self.lookup(spec).map(|(study, _)| study)
    }

    /// [`StudyCache::study_spec`], and whether the memory layer served
    /// the study. The key is derived once, and the answer describes this
    /// lookup: `mwc-server` labels a response cache-hit from it.
    pub fn lookup(&self, spec: &StudySpec) -> Result<(Arc<Characterization>, bool), PipelineError> {
        if !self.enabled {
            return Ok((Arc::new(Characterization::try_run_spec(spec)?), false));
        }
        let key = spec.study_key();
        let mut span = mwc_obs::span("cache.study");
        span.field("key", key);
        if let Some(hit) = self.recall(Kind::Study, &self.studies, key) {
            return Ok((hit, true));
        }
        let units = crate::stages::execute(spec, Some(self))?;
        let study = match self.read::<Manifest>(key) {
            Some((m, _)) => self.recorded(&m, units),
            None => Err(units),
        };
        let study = study.unwrap_or_else(|units| {
            self.count(Kind::Study, Event::Miss, 1);
            let study = Characterization::new(units.profiles, units.report);
            if let (Some(entries), Ok(selected)) = (units.entries, spec.selected()) {
                let lines = selected.iter().zip(entries).map(|(&(_, u), (key, check))| {
                    let name = u.name.to_owned();
                    ManifestLine { name, key, check }
                });
                let (digest, units) = (study.digest(), lines.collect());
                self.store(key, &Manifest { digest, units });
            }
            study
        });
        let study = Arc::new(study);
        self.index_study(key, &study);
        Ok((study, false))
    }

    /// The study `m` records, built from `units` — one study disk hit — if
    /// each unit was replayed from the entry `m` names, with its check.
    fn recorded(&self, m: &Manifest, units: Collected) -> Result<Characterization, Collected> {
        let lines: Vec<_> = m.units.iter().map(|line| (line.key, line.check)).collect();
        if !units.replayed || units.entries.as_ref() != Some(&lines) {
            return Err(units);
        }
        self.count(Kind::Study, Event::DiskHit, 1);
        let Collected {
            profiles, report, ..
        } = units;
        Ok(Characterization::with_digest(profiles, report, m.digest))
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
    /// memory hit — without counting a lookup. A caller about to look the
    /// study up takes the answer from [`StudyCache::lookup`] instead,
    /// which no concurrent insert can make stale.
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

    /// Every whole-study entry in the disk layer, oldest first, each
    /// rebuilt from the unit entries its manifest names. A study is
    /// listed only if every one of them verifies and carries the check
    /// the manifest recorded; a corrupt entry is counted, deleted and
    /// skipped — never returned. Empty without a disk layer.
    pub fn stored_studies(&self) -> Vec<StoredStudy> {
        let mut found: Vec<(SystemTime, u64)> = self
            .entry_files()
            .into_iter()
            .filter_map(|(kind, key, modified, _)| (kind == Kind::Study).then_some((modified, key)))
            .collect();
        found.sort();
        found
            .into_iter()
            .filter_map(|(stored_at, key)| {
                let (manifest, _) = self.read::<Manifest>(key)?;
                let lookup = |line: &ManifestLine| self.unit_artifact(line.key, &line.name);
                let units = manifest.units.iter().map(lookup).collect::<Option<_>>()?;
                let study = self.recorded(&manifest, collect(units).ok()?).ok()?;
                Some(StoredStudy {
                    key,
                    stored_at,
                    study,
                })
            })
            .collect()
    }

    /// Replay unit `name`'s capture+derive artifact from under `key`:
    /// from memory, where it has no entry to name, else from its entry on
    /// disk. A loaded artifact is not kept in memory: the study built
    /// from it owns it.
    pub(crate) fn unit_artifact(&self, key: u64, name: &str) -> Option<UnitOutcome> {
        let (artifact, check) = match self.recall(Kind::Unit, &self.units, key) {
            Some(artifact) => (artifact, None),
            None => {
                let Some((artifact, check)) = self.read::<UnitArtifact>(key) else {
                    self.count(Kind::Unit, Event::Miss, 1);
                    return None;
                };
                self.count(Kind::Unit, Event::DiskHit, 1);
                (artifact, Some(check))
            }
        };
        Some(UnitOutcome {
            name: name.to_owned(),
            artifact,
            computed: false,
            entry: check.map(|check| (key, check)),
        })
    }

    /// Store a freshly computed unit artifact on disk, or in memory if
    /// there is no disk layer or the write fails; the check of its frame
    /// if the write succeeded.
    pub(crate) fn store_unit_artifact(&self, key: u64, artifact: &UnitArtifact) -> Option<u64> {
        let check = self.store(key, artifact);
        if check.is_none() {
            let mut units = self.units.lock().expect("unit cache lock poisoned");
            units.insert(key, artifact.clone());
        }
        check
    }

    /// The memory layer's value under `key`, counted as a memory hit.
    fn recall<V: Clone>(&self, kind: Kind, memo: &Mutex<HashMap<u64, V>>, key: u64) -> Option<V> {
        let hit = memo
            .lock()
            .expect("cache memo lock poisoned")
            .get(&key)
            .cloned()?;
        self.count(kind, Event::MemHit, 1);
        Some(hit)
    }

    fn entry_path(&self, kind: Kind, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}-{key:016x}.mwcc", kind.name())))
    }

    /// Every entry file in the disk layer: kind, key, modification time
    /// and path. Temp files and foreign names are skipped.
    fn entry_files(&self) -> Vec<(Kind, u64, SystemTime, PathBuf)> {
        let Some(entries) = self.dir.as_ref().and_then(|d| fs::read_dir(d).ok()) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name();
                let (kind, hex) = name.to_str()?.strip_suffix(".mwcc")?.split_once('-')?;
                let kind = Kind::ALL.into_iter().find(|k| k.name() == kind)?;
                let key = u64::from_str_radix(hex, 16).ok()?;
                Some((kind, key, e.metadata().ok()?.modified().ok()?, e.path()))
            })
            .collect()
    }

    /// Read the `T` entry under `key` from disk, with its frame check. A
    /// missing file is a plain `None`; a file that fails [`read_frame`]
    /// is counted corrupt and deleted, so the recompute re-stores it.
    /// Never an error. The caller counts the hit.
    fn read<T: Entry>(&self, key: u64) -> Option<(T, u64)> {
        let path = self.entry_path(T::KIND, key)?;
        let bytes = fs::read(&path).ok()?;
        let Some(entry) = read_frame(key, &bytes) else {
            self.count(T::KIND, Event::Corrupt, 1);
            let _ = fs::remove_file(&path);
            return None;
        };
        self.count(T::KIND, Event::BytesRead, bytes.len() as u64);
        Some(entry)
    }

    /// Write `value` as the `T` entry under `key`, and return its frame
    /// check; after a study entry, evict past the entry cap.
    /// Failure is counted and degrades to "not cached" — the computed
    /// result is unaffected.
    ///
    /// The write is atomic: the frame is staged in a temp file whose name
    /// is unique per process *and* per write (pid plus a process-wide
    /// sequence number), then renamed over the entry. Concurrent writers
    /// of the same key — two worker threads, or a server and a CLI bin
    /// sharing the cache directory — race only on the final rename, so
    /// whichever lands last wins with a complete entry and readers can
    /// never observe a torn file. A failed rename cleans up its temp file
    /// so crashes don't strand debris.
    fn store<T: Entry>(&self, key: u64, value: &T) -> Option<u64> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.entry_path(T::KIND, key)?;
        let bytes = write_frame(key, value);
        let write = || -> std::io::Result<()> {
            let dir = path.parent().expect("cache entry path has a parent");
            fs::create_dir_all(dir)?;
            let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = dir.join(format!(
                ".tmp-{}-{key:016x}-{}-{seq}",
                T::KIND.name(),
                std::process::id()
            ));
            fs::write(&tmp, &bytes)?;
            if let Err(e) = fs::rename(&tmp, &path) {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
            Ok(())
        };
        if write().is_err() {
            self.count(T::KIND, Event::StoreFailed, 1);
            return None;
        }
        self.count(T::KIND, Event::Store, 1);
        self.count(T::KIND, Event::BytesWritten, bytes.len() as u64);
        if T::KIND == Kind::Study {
            self.evict_excess(&path);
        }
        Some(le_word(&bytes[HEADER_LEN - 8..]))
    }

    /// Past `max_entries` study entries, delete the oldest — never
    /// `written`, whose store started this pass, whatever a coarse or
    /// skewed clock says — and the unit entries only they named, then the
    /// unnamed ones older than every kept entry (see the module docs).
    fn evict_excess(&self, written: &Path) {
        let (units, mut kept): (Vec<_>, Vec<_>) = self
            .entry_files()
            .into_iter()
            .partition(|&(kind, ..)| kind == Kind::Unit);
        if kept.len() <= self.max_entries {
            return;
        }
        // `false` (not the entry just written) sorts first.
        kept.sort_by(|a, b| (a.3 == written, a.2, &a.3).cmp(&(b.3 == written, b.2, &b.3)));
        let evicted: Vec<_> = kept.drain(..kept.len() - self.max_entries).collect();
        let named = |entries: &[(Kind, u64, SystemTime, PathBuf)]| -> HashSet<u64> {
            let manifests = entries.iter().filter(|&&(kind, ..)| kind == Kind::Study);
            let read = manifests.filter_map(|&(_, key, ..)| self.read::<Manifest>(key));
            read.flat_map(|(m, _)| m.units.into_iter().map(|line| line.key))
                .collect()
        };
        let (orphaned, named) = (named(&evicted), named(&kept));
        let oldest_kept = kept.iter().map(|e| e.2).min();
        let stale = units.into_iter().filter(|&(_, key, modified, _)| {
            let unneeded = orphaned.contains(&key) || oldest_kept.is_some_and(|t| modified < t);
            unneeded && !named.contains(&key)
        });
        for (kind, _, _, path) in evicted.into_iter().chain(stale) {
            if fs::remove_file(&path).is_ok() {
                self.count(kind, Event::Evicted, 1);
            }
        }
    }

    fn counts(&self) -> Counts {
        *self.counts.lock().expect("cache counter lock poisoned")
    }

    /// Count `n` of `event` for `kind`, and mirror it into the
    /// `cache.<kind>.<event>` observability counter.
    fn count(&self, kind: Kind, event: Event, n: u64) {
        if mwc_obs::enabled() {
            let name = format!("cache.{}.{}", kind.name(), event.name());
            mwc_obs::metrics::counter_add(&name, n);
        }
        let mut counts = self.counts.lock().expect("cache counter lock poisoned");
        counts[kind as usize][event as usize] += n;
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
// The entry frame and the payload codecs. Fixed little-endian layout; f64
// round-trips by bit pattern (NaN gap payloads included), so
// decode(encode(x)).digest() == x.digest().
// ---------------------------------------------------------------------------

/// A value the disk layer keeps: its kind and its payload codec.
trait Entry: Sized {
    const KIND: Kind;

    fn encode(&self, e: &mut Enc);

    /// Decode one payload; `None` — never a panic — on any defect. The
    /// caller rejects trailing bytes.
    fn decode(d: &mut Dec<'_>) -> Option<Self>;
}

/// Frame bytes before the payload: magic, schema, kind, key and check.
const HEADER_LEN: usize = 28;

/// Frame `value` under `key`: `MWCC | u32 schema | u32 kind | u64 key |
/// u64 check | payload`, the check being [`payload_hash`].
fn write_frame<T: Entry>(key: u64, value: &T) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.raw(MAGIC);
    e.u32(CACHE_SCHEMA_VERSION);
    e.u32(T::KIND as u32);
    e.u64(key);
    e.u64(0); // the check, filled in once the payload is encoded
    value.encode(&mut e);
    let check = payload_hash(&e.0[HEADER_LEN..]);
    e.0[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&check.to_le_bytes());
    e.0
}

/// Read a frame of `T` under `key`, decoding its payload in place, and
/// return the value with the frame's check. `None` — never an error,
/// never a panic — unless the header matches, the payload decodes with
/// no byte left over, and [`payload_hash`] of the payload bytes equals
/// the stored check.
fn read_frame<T: Entry>(key: u64, bytes: &[u8]) -> Option<(T, u64)> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != MAGIC
        || d.u32()? != CACHE_SCHEMA_VERSION
        || d.u32()? != T::KIND as u32
        || d.u64()? != key
    {
        return None;
    }
    let check = d.u64()?;
    let value = T::decode(&mut d)?;
    (d.done() && payload_hash(&bytes[HEADER_LEN..]) == check).then_some((value, check))
}

/// The frame check: a 4-lane word-wise multiply-rotate hash of `payload`.
/// Word `i` (8 little-endian bytes, the last one zero-padded) steps lane
/// `i % 4`, so the lanes' multiply chains run in parallel: over a study
/// entry it is an order of magnitude faster than byte-serial FNV-1a
/// (DESIGN.md §10 has the timing).
///
/// Each lane step is a bijection of the word (for a fixed lane state)
/// and of the lane state (for a fixed word), and the byte length and the
/// four lanes fold into the result by bijective steps. So any change
/// confined to one 8-byte word changes exactly one lane, and with it the
/// hash: every one-byte flip of a payload is detected.
fn payload_hash(payload: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    let step = |lane: u64, word: u64| {
        (lane ^ word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let mut lanes = [P1, P2, P3, P1 ^ P2];
    let mut blocks = payload.chunks_exact(32);
    for b in &mut blocks {
        lanes[0] = step(lanes[0], le_word(&b[..8]));
        lanes[1] = step(lanes[1], le_word(&b[8..16]));
        lanes[2] = step(lanes[2], le_word(&b[16..24]));
        lanes[3] = step(lanes[3], le_word(&b[24..]));
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = step(*lane, u64::from_le_bytes(padded));
    }
    let mut h = payload.len() as u64;
    for lane in lanes {
        h = (h ^ lane).rotate_left(27).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The little-endian word in the first 8 bytes of `b`.
fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// One line of a study's manifest: a unit's name, and the key and frame
/// check of its unit entry.
#[derive(Debug)]
struct ManifestLine {
    name: String,
    key: u64,
    check: u64,
}

/// A study entry: the study's digest, which a load trusts only while
/// every line matches the unit entry it names, and one line per selected
/// unit in registry order.
#[derive(Debug)]
struct Manifest {
    digest: u64,
    units: Vec<ManifestLine>,
}

impl Entry for Manifest {
    const KIND: Kind = Kind::Study;

    fn encode(&self, e: &mut Enc) {
        e.u64(self.digest);
        e.list(&self.units, |e, line| {
            e.str(&line.name);
            e.u64(line.key);
            e.u64(line.check);
        });
    }

    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let digest = d.u64()?;
        let units = d.list(|d| {
            Some(ManifestLine {
                name: d.str()?,
                key: d.u64()?,
                check: d.u64()?,
            })
        })?;
        Some(Manifest { digest, units })
    }
}

/// Unit payload tags: a failed capture stores its rendered error, a
/// profiled unit its profile.
const UNIT_TAG_FAILED: u32 = 0;
const UNIT_TAG_PROFILED: u32 = 1;

impl Entry for UnitArtifact {
    const KIND: Kind = Kind::Unit;

    fn encode(&self, e: &mut Enc) {
        match self {
            UnitArtifact::Failed(error) => {
                e.u32(UNIT_TAG_FAILED);
                e.str(error);
            }
            UnitArtifact::Profiled(p) => {
                e.u32(UNIT_TAG_PROFILED);
                encode_profile(e, p);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        match d.u32()? {
            UNIT_TAG_FAILED => Some(UnitArtifact::Failed(d.str()?)),
            UNIT_TAG_PROFILED => Some(UnitArtifact::Profiled(Arc::new(decode_profile(d)?))),
            _ => None,
        }
    }
}

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

    /// A count-prefixed list.
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for x in items {
            item(self, x);
        }
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
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// A count-prefixed list. Every item takes at least one byte, so a
    /// count beyond the remaining bytes is rejected before allocating.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.usize()?;
        if n > self.remaining() {
            return None;
        }
        (0..n).map(|_| item(self)).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// `x`'s position in its enum's `ALL` list: the variant's stable code.
fn code<T: PartialEq>(all: &[T], x: &T) -> u32 {
    all.iter()
        .position(|a| a == x)
        .expect("every variant is in its ALL list") as u32
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
    e.u32(code(&Suite::ALL, &p.suite));
    e.u32(code(&ClusterLabel::ALL, &p.label));
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

fn decode_series(d: &mut Dec<'_>) -> Option<TimeSeries> {
    let tick_seconds = d.f64()?;
    let len = d.usize()?;
    if len > d.remaining() / 8 {
        return None;
    }
    // One bounds check for the whole series, not one per value: a
    // per-value reader dominated warm loads in unoptimized builds.
    let values = d
        .take(len * 8)?
        .chunks_exact(8)
        .map(|b| f64::from_bits(le_word(b)))
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DegradationReport, FailedUnit};
    use mwc_profiler::faults::FaultConfig;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

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

    /// A hand-built three-unit study (two profiles with NaN gaps, one
    /// failed unit), so codec tests run without simulating — and prove
    /// bit-exact round-tripping.
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

    /// A study of `n` units that all hold [`tiny_study`]'s first profile,
    /// so any two of its unit entries may share a key.
    fn uniform_study(n: usize) -> Characterization {
        let profile = tiny_study().profiles()[0].clone();
        Characterization::new(
            vec![profile; n],
            DegradationReport {
                units_requested: n,
                failed_units: Vec::new(),
            },
        )
    }

    /// Store `study` under `key` as [`StudyCache::study_spec`] does: unit
    /// `i` (profiles first, then failures) as the unit entry
    /// `unit_keys[i]`, then a manifest naming those entries.
    fn store_study(cache: &StudyCache, key: u64, study: &Characterization, unit_keys: &[u64]) {
        let profiled = study.profiles().iter().map(|p| {
            let artifact = UnitArtifact::Profiled(Arc::new(p.clone()));
            (p.name.clone(), artifact)
        });
        let failed = study.report().failed_units.iter().map(|f| {
            let artifact = UnitArtifact::Failed(f.error.clone());
            (f.name.clone(), artifact)
        });
        let units: Vec<ManifestLine> = profiled
            .chain(failed)
            .zip(unit_keys)
            .map(|((name, artifact), &key)| ManifestLine {
                name,
                key,
                check: cache
                    .store_unit_artifact(key, &artifact)
                    .expect("unit entry stored"),
            })
            .collect();
        assert_eq!(units.len(), unit_keys.len(), "one unit key per unit");
        let digest = study.digest();
        cache.store(key, &Manifest { digest, units });
    }

    /// `study` stored in a fresh cache directory, then listed back from it
    /// by another instance.
    fn stored_and_listed(study: &Characterization) -> Characterization {
        let tmp = TempDir::new();
        let keys: Vec<u64> = (10..).take(study.report().units_requested).collect();
        store_study(&StudyCache::with_dir(&tmp.0), 1, study, &keys);
        let mut listed = StudyCache::with_dir(&tmp.0).stored_studies();
        assert_eq!(listed.len(), 1, "the stored study is listed");
        listed.remove(0).study
    }

    /// Reads `bytes` as a frame of `T`: `Some(true)` if it decodes to
    /// exactly the value framed in `clean` (re-encoding gives `clean`
    /// back bit for bit), `Some(false)` if it decodes to anything else,
    /// `None` on a miss.
    type Reader = fn(u64, &[u8], &[u8]) -> Option<bool>;

    fn reads_back<T: Entry>(key: u64, bytes: &[u8], clean: &[u8]) -> Option<bool> {
        read_frame::<T>(key, bytes).map(|(v, _)| write_frame(key, &v) == clean)
    }

    /// One clean frame of each kind the disk layer keeps, under `key`,
    /// with its reader.
    fn sample_frames(key: u64) -> [(&'static str, Vec<u8>, Reader); 3] {
        let study = tiny_study();
        let profiled = UnitArtifact::Profiled(Arc::new(study.profiles()[1].clone()));
        let failed = UnitArtifact::Failed("capture of 'Unit A' exhausted".to_owned());
        let manifest = Manifest {
            digest: study.digest(),
            units: vec![
                ManifestLine {
                    name: "Unit B".to_owned(),
                    key: 0x0123_4567_89ab_cdef,
                    check: 0xfedc_ba98_7654_3210,
                },
                ManifestLine {
                    name: "Unit A".to_owned(),
                    key: 11,
                    check: 12,
                },
            ],
        };
        let unit: Reader = reads_back::<UnitArtifact>;
        [
            (
                "manifest",
                write_frame(key, &manifest),
                reads_back::<Manifest>,
            ),
            ("profiled unit", write_frame(key, &profiled), unit),
            ("failed unit", write_frame(key, &failed), unit),
        ]
    }

    #[test]
    fn every_frame_defect_is_a_miss() {
        let key = 0x1234_5678_9abc_def0;
        for (what, bytes, read) in sample_frames(key) {
            assert_eq!(
                read(key, &bytes, &bytes),
                Some(true),
                "{what}: a clean frame round-trips bit for bit"
            );
            for i in 0..bytes.len() {
                for mask in [0x01, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[i] ^= mask;
                    assert_eq!(
                        read(key, &bad, &bytes),
                        None,
                        "{what}: flip {mask:#x} at byte {i} went undetected"
                    );
                }
            }
            for len in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
                let prefix = &bytes[..len];
                assert_eq!(read(key, prefix, &bytes), None, "{what}: prefix {len}");
            }
            assert_eq!(read(key ^ 1, &bytes, &bytes), None, "{what}: wrong key");
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(read(key, &extended, &bytes), None, "{what}: trailing byte");
        }
    }

    #[test]
    fn payload_hash_changes_with_any_change_inside_one_word() {
        // Lengths cover whole blocks of four words, a remainder of one
        // to three words, and a partial last word.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 69, 96] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = payload_hash(&payload);
            for word in 0..len.div_ceil(8) {
                let bytes = word * 8..(word * 8 + 8).min(len);
                for mask in [1u64, 0x80, 0xff00, u64::MAX, 0x0123_4567_89ab_cdef] {
                    let mut changed = payload.clone();
                    for (b, m) in changed[bytes.clone()].iter_mut().zip(mask.to_le_bytes()) {
                        *b ^= m;
                    }
                    if changed != payload {
                        assert_ne!(payload_hash(&changed), clean, "len {len} word {word}");
                    }
                }
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert_ne!(
                payload_hash(&longer),
                clean,
                "len {len}: a zero byte appended"
            );
        }
    }

    #[test]
    fn a_frame_read_as_another_kind_is_a_miss() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let key = 5;
        cache.store_unit_artifact(key, &UnitArtifact::Failed("boom".to_owned()));
        let unit = cache.entry_path(Kind::Unit, key).expect("disk layer");
        fs::copy(
            &unit,
            cache.entry_path(Kind::Study, key).expect("disk layer"),
        )
        .expect("copy");
        assert!(
            cache.read::<Manifest>(key).is_none(),
            "unit frame read as a manifest"
        );
        assert_eq!(cache.stats().corrupt_entries, 1);
        assert_eq!(cache.stats().disk_hits, 0);
        assert!(
            cache.read::<UnitArtifact>(key).is_some(),
            "the unit entry itself still reads"
        );
    }

    proptest! {
        #[test]
        fn frame_readers_never_panic_on_hostile_bytes(
            noise in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
            byte: u8,
        ) {
            let key = 3;
            for (what, clean, read) in sample_frames(key) {
                let at = at % (clean.len() + 1);
                let mut flipped = clean.clone();
                if let Some(b) = flipped.get_mut(at) {
                    *b ^= byte;
                }
                let mut inserted = clean.clone();
                inserted.insert(at, byte);
                let mut appended = clean.clone();
                appended.extend_from_slice(&noise);
                // A valid 28-byte header over random bytes drives the
                // payload decoder itself, not just the header checks.
                let mut random_payload = clean[..28].to_vec();
                random_payload.extend_from_slice(&noise);
                for bytes in [
                    noise.clone(),
                    clean[..at].to_vec(),
                    flipped,
                    inserted,
                    appended,
                    random_payload,
                ] {
                    prop_assert!(
                        read(key, &bytes, &clean) != Some(false),
                        "{what}: a mutated frame read as another value"
                    );
                }
            }
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
        let study = finite_study();
        let unhashed_clone = study.clone();
        assert_eq!(study, unhashed_clone, "neither side hashed");
        // Loading fills the copy's memo from the digest in its manifest.
        let decoded = stored_and_listed(&finite_study());
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
        for study in [tiny_study(), finite_study()] {
            let decoded = stored_and_listed(&study);
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
    fn study_key_changes_with_every_input() {
        let key = |cfg: &SocConfig, seed, runs, faults: &FaultConfig| {
            StudySpec::new(cfg.clone(), seed, runs)
                .with_faults(faults.clone())
                .study_key()
        };
        let cfg = SocConfig::snapdragon_888();
        let faults = FaultConfig::default();
        let base = key(&cfg, 2024, 3, &faults);
        assert_eq!(base, key(&cfg, 2024, 3, &faults), "key is stable");
        assert_ne!(base, key(&cfg, 2025, 3, &faults), "seed is keyed");
        assert_ne!(base, key(&cfg, 2024, 1, &faults), "runs are keyed");
        let mut other_cfg = SocConfig::snapdragon_888();
        other_cfg.memory.capacity_mib += 1.0;
        assert_ne!(base, key(&other_cfg, 2024, 3, &faults), "config is keyed");
        let active = FaultConfig {
            dropout_rate: 0.05,
            ..FaultConfig::default()
        };
        assert_ne!(base, key(&cfg, 2024, 3, &active), "faults are keyed");
    }

    #[test]
    fn disk_layer_roundtrips_and_treats_corruption_as_miss() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study = tiny_study();
        let key = 0xfeed;
        store_study(&cache, key, &study, &[1, 2, 3]);
        assert_eq!(cache.stats().stores, 1, "one manifest");
        assert_eq!(cache.stage(Kind::Unit).stores, 3, "one entry per unit");

        let listed = cache.stored_studies();
        assert_eq!(listed.len(), 1, "the stored study loads");
        assert_eq!(listed[0].study.digest(), study.digest());
        assert_eq!(cache.stats().disk_hits, 1);

        // Scribble over the manifest: the next load degrades to a miss
        // and removes the bad file.
        let path = cache.entry_path(Kind::Study, key).expect("disk layer");
        fs::write(&path, b"not a cache entry").expect("overwrite");
        assert!(cache.stored_studies().is_empty());
        assert_eq!(cache.stats().corrupt_entries, 1);
        assert!(!path.exists(), "corrupt entry is dropped");
        assert!(cache.read::<Manifest>(key).is_none(), "gone after removal");
    }

    /// The number of entry files of `kind` under `dir`.
    fn files_of(dir: &Path, kind: Kind) -> usize {
        fs::read_dir(dir)
            .expect("cache dir")
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with(&format!("{}-", kind.name())) && name.ends_with(".mwcc")
            })
            .count()
    }

    #[test]
    fn eviction_caps_disk_entries() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 3;
        let study = tiny_study();
        for key in 0..5u64 {
            store_study(&cache, key, &study, &[10 * key, 10 * key + 1, 10 * key + 2]);
        }
        assert_eq!(files_of(&tmp.0, Kind::Study), 3);
        assert_eq!(files_of(&tmp.0, Kind::Unit), 9, "the kept studies' units");
        assert_eq!(cache.stats().evictions, 2 + 6, "two studies, six units");
        let kept: Vec<u64> = StudyCache::with_dir(&tmp.0)
            .stored_studies()
            .iter()
            .map(|s| s.key)
            .collect();
        assert_eq!(kept, vec![2, 3, 4], "the oldest studies went first");
    }

    #[test]
    fn eviction_deletes_a_study_with_its_unshared_unit_entries() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 2;
        let study = uniform_study(2);
        store_study(&cache, 1, &study, &[10, 11]);
        store_study(&cache, 2, &study, &[11, 12]);
        store_study(&cache, 3, &study, &[12, 13]);
        let exists = |kind, key| cache.entry_path(kind, key).expect("disk layer").exists();
        assert!(!exists(Kind::Study, 1), "the oldest study is evicted");
        assert!(!exists(Kind::Unit, 10), "with the unit only it named");
        for unit in [11, 12, 13] {
            assert!(exists(Kind::Unit, unit), "unit {unit} is still named");
        }
        assert_eq!(cache.stats().evictions, 2);
        let kept: Vec<u64> = StudyCache::with_dir(&tmp.0)
            .stored_studies()
            .iter()
            .map(|s| s.key)
            .collect();
        assert_eq!(kept, vec![2, 3], "the remaining studies still load");
    }

    #[test]
    fn eviction_never_deletes_the_entry_whose_store_started_it() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 1;
        let study = uniform_study(1);
        store_study(&cache, 1, &study, &[10]);
        // Clock skew on a shared directory: the older study and its unit
        // entry are dated an hour ahead, so they sort as the newest.
        let skewed = cache.entry_path(Kind::Study, 1).expect("disk layer");
        let skewed_unit = cache.entry_path(Kind::Unit, 10).expect("disk layer");
        for path in [&skewed, &skewed_unit] {
            fs::File::options()
                .write(true)
                .open(path)
                .and_then(|f| f.set_modified(SystemTime::now() + Duration::from_secs(3600)))
                .expect("set mtime");
        }
        store_study(&cache, 2, &study, &[20]);
        assert!(!skewed.exists(), "the skewed entry is the one evicted");
        assert!(!skewed_unit.exists(), "with the unit entry only it named");
        let kept: Vec<u64> = StudyCache::with_dir(&tmp.0)
            .stored_studies()
            .iter()
            .map(|s| s.key)
            .collect();
        assert_eq!(kept, vec![2], "the entry just written still loads");
    }

    #[test]
    fn a_sweep_entry_left_by_an_older_build_is_never_evicted_or_counted() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 1;
        // Older builds also stored Fig-4 sweeps, as frames of kind 2 under
        // `sweep-<key>.mwcc`, and counted them against the cap.
        let mut frame = write_frame(
            7,
            &Manifest {
                digest: 0,
                units: Vec::new(),
            },
        );
        frame[8..12].copy_from_slice(&2u32.to_le_bytes());
        let old_sweep = tmp.0.join(format!("sweep-{:016x}.mwcc", 7));
        fs::write(&old_sweep, frame).expect("older build's sweep entry");

        store_study(&cache, 1, &uniform_study(1), &[10]);
        assert!(old_sweep.exists(), "a foreign name is left in place");
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache
            .entry_path(Kind::Unit, 10)
            .expect("disk layer")
            .exists());
        let kept = StudyCache::with_dir(&tmp.0).stored_studies();
        assert_eq!(kept.len(), 1, "the study and its unit entry still load");
    }

    /// A fault plan that only jitters, so a unit under it always succeeds.
    fn jitter() -> FaultConfig {
        FaultConfig {
            seed: 7,
            jitter_amplitude: 0.01,
            ..FaultConfig::default()
        }
    }

    /// A one-run spec of two registry units at `seed`.
    fn two_unit_spec(seed: u64) -> StudySpec {
        StudySpec::new(SocConfig::snapdragon_888(), seed, 1)
            .with_units(["Antutu CPU", "Antutu GPU"])
            .with_threads(2)
    }

    #[test]
    fn a_full_cap_of_studies_keeps_the_units_a_one_knob_change_reuses() {
        let tmp = TempDir::new();
        let capped = || {
            let mut cache = StudyCache::with_dir(&tmp.0);
            cache.max_entries = 2;
            cache
        };
        let cold = capped();
        for seed in [1, 2] {
            cold.study_spec(&two_unit_spec(seed)).expect("cold study");
        }
        // A fresh instance, so only the disk layer can serve the units.
        let flipped = capped();
        flipped
            .study_spec(&two_unit_spec(2).with_unit_faults("Antutu CPU", jitter()))
            .expect("flipped study");
        let unit = flipped.stage(Kind::Unit);
        assert_eq!(unit.misses, 1, "only the flipped unit simulates");
        assert_eq!(unit.disk_hits, 1, "the other replays from its entry");
    }

    #[test]
    fn a_study_in_flight_keeps_its_unit_entries_when_another_fills_the_cap() {
        let tmp = TempDir::new();
        let mut cache = StudyCache::with_dir(&tmp.0);
        cache.max_entries = 2;
        for seed in [1, 2] {
            cache
                .study_spec(&two_unit_spec(seed))
                .expect("fills the cap");
        }
        // Two workers share the cache. The first stores its unit entries
        // (`execute`), and only then finishes its study, reading them
        // back; in between, the second stores a whole study, whose
        // manifest starts an eviction pass while the first study's
        // manifest is not yet written.
        let in_flight = two_unit_spec(3);
        let step = std::sync::Barrier::new(2);
        let finished = std::thread::scope(|s| {
            let first = s.spawn(|| {
                crate::stages::execute(&in_flight, Some(&cache)).expect("units stored");
                step.wait();
                step.wait();
                let sims = cache.stage(Kind::Unit).misses;
                cache.study_spec(&in_flight).expect("finished study");
                cache.stage(Kind::Unit).misses - sims
            });
            s.spawn(|| {
                step.wait();
                cache.study_spec(&two_unit_spec(4)).expect("second study");
                step.wait();
            });
            first.join().expect("first worker")
        });
        assert!(cache.stats().evictions > 0, "the cap was exceeded");
        assert_eq!(finished, 0, "the in-flight unit entries survived");

        let flipped = StudyCache::with_dir(&tmp.0);
        flipped
            .study_spec(&in_flight.with_unit_faults("Antutu CPU", jitter()))
            .expect("flipped study");
        assert_eq!(flipped.stage(Kind::Unit).misses, 1, "one unit simulates");
    }

    /// The path of the unit entry of `spec`'s first selected unit.
    fn first_unit_entry(cache: &StudyCache, spec: &StudySpec) -> (u64, PathBuf) {
        let (index, unit) = spec.selected().expect("valid selection")[0];
        let key = spec.unit_key(index, unit);
        (key, cache.entry_path(Kind::Unit, key).expect("disk layer"))
    }

    #[test]
    fn a_flipped_byte_in_one_unit_entry_resimulates_only_that_unit() {
        let tmp = TempDir::new();
        let spec = two_unit_spec(3);
        let cache = StudyCache::with_dir(&tmp.0);
        let cold = cache.study_spec(&spec).expect("cold study");
        let (_, path) = first_unit_entry(&cache, &spec);
        let mut bytes = fs::read(&path).expect("unit entry");
        let middle = bytes.len() / 2;
        bytes[middle] ^= 1;
        fs::write(&path, bytes).expect("flip a byte");

        let warm = StudyCache::with_dir(&tmp.0);
        let study = warm.study_spec(&spec).expect("warm study");
        let unit = warm.stage(Kind::Unit);
        assert_eq!(unit.corrupt_entries, 1);
        assert_eq!(
            (unit.misses, unit.disk_hits),
            (1, 1),
            "one unit re-simulates"
        );
        assert_eq!(study.digest(), cold.digest());
        assert_eq!(study.digest(), recomputed_digest(&study));
        // A study disk hit means nothing simulated: this one is a miss,
        // and its manifest is stored again.
        let stats = warm.stats();
        assert_eq!((stats.disk_hits, stats.misses, stats.stores), (0, 1, 1));
    }

    #[test]
    fn a_unit_entry_replaced_by_another_valid_frame_makes_the_study_a_miss() {
        let tmp = TempDir::new();
        let spec = two_unit_spec(4);
        let cache = StudyCache::with_dir(&tmp.0);
        let cold = cache.study_spec(&spec).expect("cold study");
        let (key, path) = first_unit_entry(&cache, &spec);
        let mut other = cold.profiles()[0].clone();
        other.metrics.ipc += 1.0;
        let frame = write_frame(key, &UnitArtifact::Profiled(Arc::new(other)));
        fs::write(&path, frame).expect("rewrite the unit entry");

        let warm = StudyCache::with_dir(&tmp.0);
        let study = warm.study_spec(&spec).expect("warm study");
        assert_eq!(warm.stage(Kind::Unit).disk_hits, 2, "both frames verify");
        assert_eq!(
            (warm.stats().disk_hits, warm.stats().misses),
            (0, 1),
            "the manifest's check no longer matches"
        );
        assert_ne!(study.digest(), cold.digest());
        assert_eq!(study.digest(), recomputed_digest(&study));
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
    fn lookup_reports_a_memory_hit_and_counts_like_study_spec() {
        let spec = two_unit_spec(11);
        let cache = StudyCache::in_memory();
        let (cold, cold_from_memory) = cache.lookup(&spec).expect("cold study");
        let (warm, warm_from_memory) = cache.lookup(&spec).expect("warm study");
        assert!(!cold_from_memory, "the first lookup computes");
        assert!(warm_from_memory, "the second is served from memory");
        assert!(Arc::ptr_eq(&cold, &warm));

        let twice = StudyCache::in_memory();
        for _ in 0..2 {
            twice.study_spec(&spec).expect("study");
        }
        assert_eq!(cache.stats(), twice.stats());
        for kind in Kind::ALL {
            assert_eq!(cache.stage(kind), twice.stage(kind));
        }
    }

    #[test]
    fn unit_artifact_layer_counts_into_its_own_row_not_legacy_stats() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study = tiny_study();
        let key = 0xbeef;
        assert!(
            cache.unit_artifact(key, "Unit A").is_none(),
            "cold lookup misses"
        );
        let artifact = UnitArtifact::Profiled(Arc::new(study.profiles()[0].clone()));
        let check = cache.store_unit_artifact(key, &artifact);
        assert!(check.is_some(), "a stored frame has a check");
        // A stored artifact is read back from its entry, not kept twice.
        let loaded = cache.unit_artifact(key, "Unit A").expect("disk hit");
        assert_eq!(loaded.name, "Unit A");
        assert_eq!(loaded.entry, check.map(|check| (key, check)), "its entry");

        let unit = cache.stage(Kind::Unit);
        assert_eq!(unit.misses, 1);
        assert_eq!(unit.stores, 1);
        assert_eq!((unit.mem_hits, unit.disk_hits), (0, 1));
        // The byte counters behind the `cache.unit.bytes_*` metrics count
        // the whole frame, once written and once read.
        let frame_len = fs::metadata(cache.entry_path(Kind::Unit, key).expect("disk layer"))
            .expect("unit entry")
            .len();
        let bytes = |event: Event| cache.counts()[Kind::Unit as usize][event as usize];
        assert_eq!(bytes(Event::BytesWritten), frame_len);
        assert_eq!(bytes(Event::BytesRead), frame_len);
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "legacy counters never see unit-entry traffic"
        );

        // A cache with no disk layer keeps the artifact in memory, with no
        // entry for a manifest to name.
        let memory = StudyCache::in_memory();
        assert_eq!(memory.store_unit_artifact(key, &artifact), None);
        let recalled = memory.unit_artifact(key, "Unit A").expect("memory hit");
        assert!(recalled.entry.is_none());
        assert_eq!(memory.stage(Kind::Unit).mem_hits, 1);

        // Corruption degrades to a miss and drops the entry.
        let path = cache.entry_path(Kind::Unit, key).expect("disk layer");
        fs::write(&path, b"junk").expect("overwrite");
        let corrupt = StudyCache::with_dir(&tmp.0);
        assert!(corrupt.unit_artifact(key, "Unit A").is_none());
        assert_eq!(corrupt.stage(Kind::Unit).corrupt_entries, 1);
        assert!(!path.exists(), "corrupt unit entry is dropped");
    }

    #[test]
    fn failed_writes_of_every_kind_are_counted() {
        // The cache directory path names a regular file, so every write
        // fails; results are still served from memory.
        let tmp = TempDir::new();
        let not_a_dir = tmp.0.join("not-a-dir");
        fs::write(&not_a_dir, b"").expect("plain file");
        let cache = StudyCache::with_dir(&not_a_dir);
        let failed = UnitArtifact::Failed("boom".to_owned());
        assert_eq!(
            cache.store_unit_artifact(1, &failed),
            None,
            "no frame, no check"
        );
        let manifest = Manifest {
            digest: 0,
            units: Vec::new(),
        };
        assert_eq!(cache.store(2, &manifest), None);
        let stats = cache.stats();
        assert_eq!(stats.store_failures, 2, "the unit and the manifest write");
        assert_eq!(stats.stores, 0);
        assert_eq!(cache.stage(Kind::Unit).stores, 0);
        let served = cache
            .unit_artifact(1, "Unit A")
            .expect("served from memory");
        assert!(served.entry.is_none(), "so no manifest can name it");
        assert_eq!(cache.stage(Kind::Unit).mem_hits, 1);
    }

    #[test]
    fn concurrent_same_key_writers_never_tear_an_entry() {
        // Writers hammer one manifest key with differently-sized (all
        // valid) studies whose unit entries share a key under other
        // content, while readers list the directory continuously: every
        // read must be a complete study whose stored digest matches its
        // units, or a clean miss — never a corruption error — and no
        // temp debris may survive.
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study_a = tiny_study();
        let study_b = Characterization::new(
            study_a.profiles()[1..].to_vec(),
            DegradationReport {
                units_requested: 1,
                failed_units: Vec::new(),
            },
        );
        let key = 0x5eed;
        let digests = [study_a.digest(), study_b.digest()];

        std::thread::scope(|s| {
            for (study, unit_keys) in [(&study_a, &[1, 2, 3][..]), (&study_b, &[1][..])] {
                let cache = &cache;
                s.spawn(move || {
                    for _ in 0..100 {
                        store_study(cache, key, study, unit_keys);
                    }
                });
            }
            for _ in 0..2 {
                let dir = &tmp.0;
                s.spawn(move || {
                    for _ in 0..200 {
                        let reader = StudyCache::with_dir(dir);
                        for stored in reader.stored_studies() {
                            let digest = stored.study.digest();
                            assert!(digests.contains(&digest), "a study no writer produced");
                            assert_eq!(digest, recomputed_digest(&stored.study));
                        }
                        assert_eq!(reader.stats().corrupt_entries, 0, "no torn manifest");
                        assert_eq!(reader.stage(Kind::Unit).corrupt_entries, 0, "no torn unit");
                    }
                });
            }
        });

        assert_eq!(cache.stats().stores, 200, "every write landed");
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
    fn stored_studies_lists_valid_study_entries_and_skips_corrupt_ones() {
        let tmp = TempDir::new();
        let cache = StudyCache::with_dir(&tmp.0);
        let study = tiny_study();
        for key in [1u64, 2, 3, 4] {
            store_study(&cache, key, &study, &[10 * key, 10 * key + 1, 10 * key + 2]);
        }
        cache.store_unit_artifact(99, &UnitArtifact::Failed("x".to_owned()));
        let bad = cache.entry_path(Kind::Study, 2).expect("disk layer");
        fs::write(&bad, b"not a cache entry").expect("overwrite");
        let bad_unit = cache.entry_path(Kind::Unit, 31).expect("disk layer");
        fs::write(&bad_unit, b"junk").expect("overwrite");

        let listed = StudyCache::with_dir(&tmp.0);
        let mut keys: Vec<u64> = listed.stored_studies().iter().map(|s| s.key).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![1, 4],
            "unit entries and studies with a corrupt entry are not listed"
        );
        assert_eq!(listed.stats().corrupt_entries, 1, "study 2's manifest");
        assert_eq!(
            listed.stage(Kind::Unit).corrupt_entries,
            1,
            "study 3's unit"
        );
        assert!(!bad.exists(), "the corrupt manifest is dropped");
        assert!(!bad_unit.exists(), "the corrupt unit entry is dropped");
        assert!(StudyCache::in_memory().stored_studies().is_empty());
    }
}
