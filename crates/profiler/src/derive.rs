//! Derived benchmark-level metrics (the rows of Figure 1, and the values
//! `mwc_core::features` builds the clustering matrices from), averaged
//! across runs.

use mwc_soc::config::ClusterKind;

use crate::capture::{Capture, SeriesKey, SeriesMap};
use crate::faults::robust_merge;

/// Benchmark-level aggregate metrics, averaged over the capture runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkMetrics {
    /// Workload name.
    pub name: String,
    /// Dynamic instruction count (mean across runs).
    pub instruction_count: f64,
    /// Run-level IPC.
    pub ipc: f64,
    /// All-level cache misses per kilo-instruction.
    pub cache_mpki: f64,
    /// Branch misses per kilo-instruction.
    pub branch_mpki: f64,
    /// Runtime in seconds.
    pub runtime_seconds: f64,
    /// Mean CPU load across clusters.
    pub cpu_load: f64,
    /// Mean load of the little cluster.
    pub cpu_little_load: f64,
    /// Mean load of the mid cluster.
    pub cpu_mid_load: f64,
    /// Mean load of the big cluster.
    pub cpu_big_load: f64,
    /// Mean utilization of the little cluster.
    pub cpu_little_util: f64,
    /// Mean utilization of the mid cluster.
    pub cpu_mid_util: f64,
    /// Mean utilization of the big cluster.
    pub cpu_big_util: f64,
    /// Mean GPU load.
    pub gpu_load: f64,
    /// Mean fraction of time all shaders were busy.
    pub gpu_shaders_busy: f64,
    /// Mean fraction of time the GPU bus was busy.
    pub gpu_bus_busy: f64,
    /// Mean AIE load.
    pub aie_load: f64,
    /// Mean fraction of system memory used.
    pub memory_used_fraction: f64,
    /// Peak memory usage in MiB observed in any run.
    pub memory_peak_mib: f64,
    /// Mean storage busy fraction.
    pub storage_busy: f64,
}

/// One per-run scalar (an aggregate or a series mean) extracted from a
/// [`SeriesMap`], as fed to a cross-run merge.
type RunScalar<'a> = Box<dyn Fn(&SeriesMap) -> f64 + 'a>;

impl BenchmarkMetrics {
    /// Derive metrics from one or more captured runs of the same workload
    /// (the paper averages three). Panics on an empty slice.
    pub fn from_captures(captures: &[Capture]) -> Self {
        assert!(!captures.is_empty(), "need at least one capture");
        let maps: Vec<SeriesMap> = captures.iter().map(Capture::series_map).collect();
        Self::from_series_maps(&maps)
    }

    /// Derive metrics from pre-extracted series maps by plain run
    /// averaging (arithmetic identical to the historical per-capture
    /// path). Panics on an empty slice.
    pub fn from_series_maps(maps: &[SeriesMap]) -> Self {
        assert!(!maps.is_empty(), "need at least one capture");
        let n = maps.len() as f64;
        let mean = |f: &dyn Fn(&SeriesMap) -> f64| maps.iter().map(f).sum::<f64>() / n;
        Self::build(maps, &|f| mean(&f))
    }

    /// Derive metrics by median-of-N with MAD-based outlier rejection —
    /// the quorum merge the pipeline uses when fault injection is enabled.
    /// Returns the metrics and the total number of per-metric outliers
    /// rejected. Panics on an empty slice.
    pub fn robust_from_series_maps(maps: &[SeriesMap]) -> (Self, usize) {
        assert!(!maps.is_empty(), "need at least one capture");
        let rejected = std::cell::Cell::new(0usize);
        let merge = |f: &dyn Fn(&SeriesMap) -> f64| {
            let values: Vec<f64> = maps.iter().map(f).collect();
            let (merged, n) = robust_merge(&values);
            rejected.set(rejected.get() + n);
            merged
        };
        let metrics = Self::build(maps, &|f| merge(&f));
        (metrics, rejected.get())
    }

    /// Shared construction: every per-run scalar goes through `merge`
    /// (plain mean or robust quorum), except the cross-run peak which is
    /// always a max.
    fn build(maps: &[SeriesMap], merge: &dyn Fn(RunScalar<'_>) -> f64) -> Self {
        let series_mean = |key: SeriesKey| -> RunScalar<'static> { Box::new(move |m| m.mean(key)) };
        BenchmarkMetrics {
            name: maps[0].workload.clone(),
            instruction_count: merge(Box::new(|m| m.total_instructions)),
            ipc: merge(Box::new(|m| m.ipc)),
            cache_mpki: merge(Box::new(|m| m.cache_mpki)),
            branch_mpki: merge(Box::new(|m| m.branch_mpki)),
            runtime_seconds: merge(Box::new(|m| m.runtime_seconds)),
            cpu_load: merge(series_mean(SeriesKey::CpuLoad)),
            cpu_little_load: merge(series_mean(SeriesKey::ClusterLoad(ClusterKind::Little))),
            cpu_mid_load: merge(series_mean(SeriesKey::ClusterLoad(ClusterKind::Mid))),
            cpu_big_load: merge(series_mean(SeriesKey::ClusterLoad(ClusterKind::Big))),
            cpu_little_util: merge(series_mean(SeriesKey::ClusterUtilization(
                ClusterKind::Little,
            ))),
            cpu_mid_util: merge(series_mean(SeriesKey::ClusterUtilization(ClusterKind::Mid))),
            cpu_big_util: merge(series_mean(SeriesKey::ClusterUtilization(ClusterKind::Big))),
            gpu_load: merge(series_mean(SeriesKey::GpuLoad)),
            gpu_shaders_busy: merge(series_mean(SeriesKey::GpuShadersBusy)),
            gpu_bus_busy: merge(series_mean(SeriesKey::GpuBusBusy)),
            aie_load: merge(series_mean(SeriesKey::AieLoad)),
            memory_used_fraction: merge(series_mean(SeriesKey::MemoryUsedFraction)),
            memory_peak_mib: maps
                .iter()
                .map(|m| m.max(SeriesKey::MemoryUsedMib))
                .fold(0.0, f64::max),
            storage_busy: merge(series_mean(SeriesKey::StorageBusy)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Profiler;
    use mwc_soc::config::SocConfig;
    use mwc_soc::cpu::CpuDemand;
    use mwc_soc::engine::Engine;
    use mwc_soc::workload::{ConstantWorkload, Demand};

    fn metrics_for(intensity: f64) -> BenchmarkMetrics {
        let engine = Engine::new(SocConfig::snapdragon_888(), 0).expect("valid preset");
        let mut p = Profiler::new(engine, 10);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(intensity);
        let w = ConstantWorkload::new("m", 5.0, d);
        BenchmarkMetrics::from_captures(&p.capture(&w))
    }

    #[test]
    fn busy_workload_has_positive_metrics() {
        let m = metrics_for(0.9);
        assert!(m.instruction_count > 1e9);
        assert!(m.ipc > 0.3);
        assert!(m.cache_mpki >= 0.0);
        assert!((m.runtime_seconds - 5.0).abs() < 1e-9);
        assert!(m.cpu_big_load > 0.2);
        assert_eq!(m.gpu_load, 0.0);
    }

    #[test]
    fn averaging_across_runs_smooths_noise() {
        let engine = Engine::new(SocConfig::snapdragon_888(), 0).expect("valid preset");
        let mut p = Profiler::new(engine, 10);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.8);
        let w = ConstantWorkload::new("avg", 5.0, d);
        let caps = p.capture(&w);
        let avg = BenchmarkMetrics::from_captures(&caps);
        let singles: Vec<f64> = caps
            .iter()
            .map(|c| BenchmarkMetrics::from_captures(std::slice::from_ref(c)).instruction_count)
            .collect();
        let manual = singles.iter().sum::<f64>() / singles.len() as f64;
        assert!((avg.instruction_count - manual).abs() / manual < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one capture")]
    fn empty_captures_panic() {
        BenchmarkMetrics::from_captures(&[]);
    }
}
