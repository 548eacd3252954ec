//! The characterization pipeline: run all units, average runs, collect
//! profiles — and, when a fault model is active, retry flaky captures,
//! quorum-merge surviving runs, and degrade gracefully instead of
//! aborting.

use std::sync::OnceLock;

use mwc_profiler::capture::{Profiler, SeriesKey, SeriesMap, PAPER_RUNS};
use mwc_profiler::derive::BenchmarkMetrics;
use mwc_profiler::faults::{CaptureError, CaptureHealth, FaultConfig};
use mwc_profiler::timeseries::TimeSeries;
use mwc_soc::config::{ClusterKind, SocConfig};
use mwc_workloads::registry::{BenchmarkUnit, ClusterLabel, Suite};

use crate::error::PipelineError;
use crate::spec::StudySpec;

/// The per-unit time series the temporal and heterogeneity analyses use.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSeries {
    /// Mean CPU load across clusters (Table IV).
    pub cpu_load: TimeSeries,
    /// Load of the little cluster.
    pub little_load: TimeSeries,
    /// Load of the mid cluster.
    pub mid_load: TimeSeries,
    /// Load of the big cluster.
    pub big_load: TimeSeries,
    /// GPU load (Table IV).
    pub gpu_load: TimeSeries,
    /// Fraction of time all shaders are busy (Table IV).
    pub shaders_busy: TimeSeries,
    /// Fraction of time the GPU bus is busy (Table IV).
    pub bus_busy: TimeSeries,
    /// AIE load (Table IV).
    pub aie_load: TimeSeries,
    /// Fraction of system memory in use (Table IV).
    pub memory_fraction: TimeSeries,
    /// Raw used memory in MiB.
    pub memory_mib: TimeSeries,
    /// Instantaneous IPC.
    pub ipc: TimeSeries,
    /// Storage busy fraction.
    pub storage_busy: TimeSeries,
}

/// The profile of one characterization unit: averaged metrics plus the
/// averaged time series and a record of what the capture cost.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitProfile {
    /// Unit name as the paper's figures label it.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Ground-truth behavioural family (colour group in Figure 1).
    pub label: ClusterLabel,
    /// Aggregate metrics averaged (or quorum-merged) over the runs.
    pub metrics: BenchmarkMetrics,
    /// Run-averaged time series.
    pub series: UnitSeries,
    /// What the retry/quorum machinery had to do for this unit.
    pub health: CaptureHealth,
}

/// One unit the study had to give up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedUnit {
    /// Unit name as the paper's figures label it.
    pub name: String,
    /// Rendered capture error.
    pub error: String,
}

/// Pipeline-level degradation report: which units survived, which were
/// excluded, and how much the capture layer had to intervene.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Units the study requested.
    pub units_requested: usize,
    /// Units whose every capture attempt failed; excluded from analysis.
    pub failed_units: Vec<FailedUnit>,
}

impl DegradationReport {
    /// Units that produced a usable profile.
    pub fn units_profiled(&self) -> usize {
        self.units_requested - self.failed_units.len()
    }

    /// Whether any unit had to be excluded.
    pub fn is_degraded(&self) -> bool {
        !self.failed_units.is_empty()
    }

    /// One-line human summary ("18/18 units profiled" or worse).
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return format!(
                "{}/{} units profiled",
                self.units_profiled(),
                self.units_requested
            );
        }
        let names: Vec<&str> = self.failed_units.iter().map(|f| f.name.as_str()).collect();
        format!(
            "{}/{} units profiled (excluded: {})",
            self.units_profiled(),
            self.units_requested,
            names.join(", ")
        )
    }
}

/// The full study: one profile per characterization unit that survived,
/// plus a degradation report for the ones that did not.
///
/// A study is immutable once built, so its [`Characterization::digest`]
/// is computed at most once: the first call fills a memo that clones
/// carry and every later call reads.
#[derive(Debug, Clone)]
pub struct Characterization {
    profiles: Vec<UnitProfile>,
    report: DegradationReport,
    digest: OnceLock<u64>,
}

/// Equality of content: whether either side has been hashed yet does not
/// matter.
impl PartialEq for Characterization {
    fn eq(&self, other: &Self) -> bool {
        self.profiles == other.profiles && self.report == other.report
    }
}

impl Characterization {
    /// A study from its parts; the digest is computed on first use.
    pub(crate) fn new(profiles: Vec<UnitProfile>, report: DegradationReport) -> Self {
        Characterization {
            profiles,
            report,
            digest: OnceLock::new(),
        }
    }

    /// Run the complete study on the paper's platform (Snapdragon 888,
    /// Table II) with the paper's three-run protocol and the default seed.
    pub fn run_default() -> Self {
        Characterization::run(SocConfig::snapdragon_888(), 2024, PAPER_RUNS)
    }

    /// Run the study on an arbitrary platform with `runs` runs per unit,
    /// fanning the units across `MWC_THREADS` worker threads (default:
    /// the machine's available parallelism).
    ///
    /// Whatever the worker count, the result is bit-identical to a serial
    /// run: every capture's noise stream is derived from
    /// `(seed, unit_index, run_index)` alone (see
    /// [`mwc_soc::engine::stream_seed`]), each worker owns a private
    /// engine, and profiles are collected in unit order.
    ///
    /// # Panics
    /// Panics if the configuration fails validation — configurations are
    /// produced by [`SocConfig::builder`] which validates on `build`, so an
    /// invalid one reaching this point is a programming error. Use
    /// [`Characterization::try_run_with`] to handle the error instead.
    pub fn run(config: SocConfig, seed: u64, runs: usize) -> Self {
        Characterization::run_with_threads(config, seed, runs, mwc_parallel::configured_threads())
    }

    /// [`Characterization::run`] with an explicit worker count
    /// (`threads <= 1` runs serially on the calling thread).
    ///
    /// # Panics
    /// As [`Characterization::run`].
    pub fn run_with_threads(config: SocConfig, seed: u64, runs: usize, threads: usize) -> Self {
        Characterization::try_run_with(config, seed, runs, threads, &FaultConfig::default())
            .expect("fault-free study on a validated configuration cannot fail")
    }

    /// Run the study under a fault model. Failed or truncated runs are
    /// retried with fresh derived seeds (bounded by `faults.max_attempts`),
    /// surviving runs are quorum-merged (median with MAD outlier
    /// rejection), and units whose every attempt fails are excluded and
    /// listed in the [`DegradationReport`] rather than aborting the study.
    ///
    /// With [`FaultConfig::default`] (faults off) the result is
    /// bit-identical to [`Characterization::run`] for any worker count.
    pub fn try_run_with(
        config: SocConfig,
        seed: u64,
        runs: usize,
        threads: usize,
        faults: &FaultConfig,
    ) -> Result<Self, PipelineError> {
        let spec = StudySpec::new(config, seed, runs)
            .with_faults(faults.clone())
            .with_threads(threads);
        Characterization::try_run_spec(&spec)
    }

    /// Run the study described by a [`StudySpec`] through the stage graph,
    /// without any cache: every stage computes. For a full-registry spec
    /// this is bit-identical to [`Characterization::try_run_with`] — the
    /// spec API additionally supports per-unit fault overrides and unit
    /// selection.
    pub fn try_run_spec(spec: &StudySpec) -> Result<Self, PipelineError> {
        crate::stages::execute(spec, None)
    }

    /// The unit profiles, in the paper's fixed order (failed units are
    /// absent — consult [`Characterization::report`]).
    pub fn profiles(&self) -> &[UnitProfile] {
        &self.profiles
    }

    /// The degradation report: units requested vs. profiled and why.
    pub fn report(&self) -> &DegradationReport {
        &self.report
    }

    /// Per-unit capture-health summaries, in profile order.
    pub fn health_report(&self) -> Vec<(String, String)> {
        self.profiles
            .iter()
            .map(|p| (p.name.clone(), p.health.summary()))
            .collect()
    }

    /// Find a profile by unit name.
    pub fn profile(&self, name: &str) -> Option<&UnitProfile> {
        self.profiles.iter().find(|p| p.name == name)
    }

    /// Unit names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.profiles.iter().map(|p| p.name.as_str()).collect()
    }

    /// Runtimes in seconds, in unit order.
    pub fn runtimes(&self) -> Vec<f64> {
        self.profiles
            .iter()
            .map(|p| p.metrics.runtime_seconds)
            .collect()
    }

    /// An order-sensitive FNV-1a fingerprint of everything the study
    /// produced: unit names/suites/labels, every derived metric, every
    /// sample of every time series, capture health, and the degradation
    /// report. Two studies are bit-identical iff their digests match —
    /// which is how the observability-neutrality checks compare a traced
    /// run against an untraced one without serializing whole studies.
    ///
    /// The first call hashes every series; later calls, on this study or
    /// any clone made after it, return the memo.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write_usize(self.profiles.len());
            for p in &self.profiles {
                digest_profile_into(&mut h, p);
            }
            h.write_usize(self.report.units_requested);
            for f in &self.report.failed_units {
                h.write_str(&f.name);
                h.write_str(&f.error);
            }
            h.finish()
        })
    }
}

impl UnitProfile {
    /// An order-sensitive FNV-1a fingerprint of one unit's profile — the
    /// per-profile slice of [`Characterization::digest`], used to verify
    /// cached unit artifacts on load.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        digest_profile_into(&mut h, self);
        h.finish()
    }
}

/// Feed one profile into a digest, in the byte order
/// [`Characterization::digest`] has always used (identity, 19 metrics,
/// 12 series, 9 health counters).
fn digest_profile_into(h: &mut Fnv1a, p: &UnitProfile) {
    h.write_str(&p.name);
    h.write_str(p.suite.name());
    h.write_str(p.label.name());
    let m = &p.metrics;
    h.write_str(&m.name);
    for v in [
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
    ] {
        h.write_f64(v);
    }
    let s = &p.series;
    for series in [
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
    ] {
        h.write_f64(series.tick_seconds);
        h.write_usize(series.values.len());
        for &v in &series.values {
            h.write_f64(v);
        }
    }
    for v in [
        p.health.runs_requested,
        p.health.runs_used,
        p.health.attempts,
        p.health.retries,
        p.health.failed_runs,
        p.health.truncated_runs,
        p.health.dropped_samples,
        p.health.overflow_wraps,
        p.health.outliers_rejected,
    ] {
        h.write_usize(v);
    }
}

/// Minimal 64-bit FNV-1a accumulator backing [`Characterization::digest`]
/// and the content-addressed cache keys in [`crate::cache`].
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_bytes(&(v as u64).to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Run `f` inside a named pipeline-stage span, feeding its wall time into
/// the `pipeline.stage_ns` histogram. Pure pass-through when observability
/// is disabled.
pub(crate) fn stage<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let stage_span = mwc_obs::span(name);
    let result = f();
    if let Some(ns) = stage_span.elapsed_ns() {
        mwc_obs::metrics::observe_duration_ns("pipeline.stage_ns", ns);
    }
    result
}

/// The capture stage of one unit: run it on the worker's engine (retrying
/// under the fault model) and hand back the per-run series maps plus the
/// capture-health record. A pure function of `(profiler seed/config, unit,
/// unit_index, runs, faults)`, which is what makes the parallel fan-out —
/// and the content-addressed unit artifacts — reproducible.
pub(crate) fn capture_stage(
    profiler: &mut Profiler,
    unit: &BenchmarkUnit,
    unit_index: usize,
    runs: usize,
    faults: &FaultConfig,
) -> Result<(Vec<SeriesMap>, CaptureHealth), CaptureError> {
    let mut span = mwc_obs::span("stage.capture");
    span.field("unit", unit.name);
    let (captures, health) =
        profiler.capture_unit_runs_resilient(&unit.workload, unit_index, runs, faults)?;
    Ok((captures.iter().map(|c| c.series_map()).collect(), health))
}

/// The derive stage of one unit: merge the captured runs into averaged
/// (or quorum-merged) metrics and gap-bridged time series. Deterministic
/// given the capture stage's output.
pub(crate) fn derive_stage(
    unit: &BenchmarkUnit,
    maps: &[SeriesMap],
    mut health: CaptureHealth,
    faults: &FaultConfig,
) -> UnitProfile {
    let mut span = mwc_obs::span("stage.derive");
    span.field("unit", unit.name);
    let metrics = if faults.enabled() {
        let (metrics, outliers) = BenchmarkMetrics::robust_from_series_maps(maps);
        health.outliers_rejected = outliers;
        metrics
    } else {
        BenchmarkMetrics::from_series_maps(maps)
    };
    let avg = |key: SeriesKey| {
        let series: Vec<TimeSeries> = maps.iter().map(|m| m.series(key)).collect();
        let averaged = TimeSeries::average(&series);
        if faults.enabled() {
            // Ticks every surviving run dropped stay NaN after averaging;
            // bridge them so the temporal analyses see a gapless series.
            averaged.interpolate_gaps()
        } else {
            averaged
        }
    };
    let series = UnitSeries {
        cpu_load: avg(SeriesKey::CpuLoad),
        little_load: avg(SeriesKey::ClusterLoad(ClusterKind::Little)),
        mid_load: avg(SeriesKey::ClusterLoad(ClusterKind::Mid)),
        big_load: avg(SeriesKey::ClusterLoad(ClusterKind::Big)),
        gpu_load: avg(SeriesKey::GpuLoad),
        shaders_busy: avg(SeriesKey::GpuShadersBusy),
        bus_busy: avg(SeriesKey::GpuBusBusy),
        aie_load: avg(SeriesKey::AieLoad),
        memory_fraction: avg(SeriesKey::MemoryUsedFraction),
        memory_mib: avg(SeriesKey::MemoryUsedMib),
        ipc: avg(SeriesKey::Ipc),
        storage_busy: avg(SeriesKey::StorageBusy),
    };
    UnitProfile {
        name: unit.name.to_owned(),
        suite: unit.suite,
        label: unit.label,
        metrics,
        series,
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full 3-run study is exercised by integration tests and the bench
    // harness; unit tests here use a single run to stay fast.
    fn quick_study() -> Characterization {
        Characterization::run(SocConfig::snapdragon_888(), 7, 1)
    }

    #[test]
    fn covers_all_eighteen_units() {
        let study = quick_study();
        assert_eq!(study.profiles().len(), 18);
        assert!(study.profile("Antutu Mem").is_some());
        assert!(study.profile("GFXBench Special").is_some());
        assert!(study.profile("nonexistent").is_none());
        assert!(!study.report().is_degraded());
        assert_eq!(study.report().summary(), "18/18 units profiled");
    }

    #[test]
    fn runtimes_match_workload_durations() {
        let study = quick_study();
        let total: f64 = study.runtimes().iter().sum();
        assert!((total - 4429.5).abs() < 1.0, "got {total}");
    }

    #[test]
    fn every_unit_executes_instructions() {
        let study = quick_study();
        for p in study.profiles() {
            assert!(p.metrics.instruction_count > 0.0, "{}", p.name);
            assert!(p.metrics.ipc > 0.0, "{}", p.name);
            assert!(p.health.is_clean(), "{}", p.name);
        }
    }

    #[test]
    fn series_span_the_runtime() {
        let study = quick_study();
        let p = study.profile("3DMark Wild Life").expect("known unit");
        assert!((p.series.cpu_load.duration_seconds() - 65.0).abs() < 0.2);
        assert_eq!(p.series.cpu_load.len(), p.series.gpu_load.len());
    }

    #[test]
    fn study_is_deterministic() {
        let a = Characterization::run(SocConfig::snapdragon_888(), 9, 1);
        let b = Characterization::run(SocConfig::snapdragon_888(), 9, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_lazy_and_clones_carry_it() {
        let mut spec = StudySpec::paper_default().with_units(["Antutu CPU"]);
        spec.runs = 1;
        let study = Characterization::try_run_spec(&spec).expect("one-unit study runs");
        assert!(
            study.digest.get().is_none(),
            "an uncached study is not hashed"
        );
        let digest = study.digest();
        assert_eq!(study.digest.get(), Some(&digest));
        assert_eq!(study.clone().digest.get(), Some(&digest));
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let serial = Characterization::run_with_threads(SocConfig::snapdragon_888(), 9, 1, 1);
        let parallel = Characterization::run_with_threads(SocConfig::snapdragon_888(), 9, 1, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn faulty_study_is_deterministic_across_thread_counts() {
        let faults = FaultConfig {
            seed: 11,
            dropout_rate: 0.05,
            truncation_rate: 0.1,
            ..FaultConfig::default()
        };
        let serial = Characterization::try_run_with(SocConfig::snapdragon_888(), 9, 1, 1, &faults)
            .expect("faulty study still completes");
        let parallel =
            Characterization::try_run_with(SocConfig::snapdragon_888(), 9, 1, 4, &faults)
                .expect("faulty study still completes");
        // Metric aggregates are NaN-free after the robust merge, so direct
        // equality is meaningful.
        assert_eq!(serial.names(), parallel.names());
        for (a, b) in serial.profiles().iter().zip(parallel.profiles()) {
            assert_eq!(a.metrics, b.metrics, "{}", a.name);
            assert_eq!(a.health, b.health, "{}", a.name);
        }
    }

    #[test]
    fn all_runs_failing_yields_study_empty() {
        let faults = FaultConfig {
            seed: 3,
            run_failure_rate: 1.0,
            max_attempts: 2,
            ..FaultConfig::default()
        };
        let err = Characterization::try_run_with(SocConfig::snapdragon_888(), 9, 1, 2, &faults)
            .expect_err("study must fail");
        assert!(matches!(err, PipelineError::StudyEmpty { requested: 18 }));
    }

    #[test]
    fn invalid_fault_config_is_rejected() {
        let faults = FaultConfig {
            dropout_rate: 2.0,
            ..FaultConfig::default()
        };
        let err = Characterization::try_run_with(SocConfig::snapdragon_888(), 9, 1, 1, &faults)
            .expect_err("study must fail");
        assert!(matches!(err, PipelineError::Capture(_)));
    }
}
