//! Hardware-counter samples emitted by the engine.
//!
//! A whole run is a [`Trace`], and its [`Samples`] are stored the way a
//! Snapdragon-Profiler real-time capture records them: one time series per
//! counter. There is one `Vec<f64>` per scalar [`Counter`], five per CPU
//! cluster (one per [`ClusterCounter`], clusters in `SocConfig::clusters`
//! order) and a `time_s` column. The engine sizes every column from the
//! run's tick count before the first tick and writes tick `t` at index
//! `t`, so a run allocates its columns once and builds no rows.
//!
//! A dropped tick (a lost capture row) holds NaN in every column except
//! `time_s`, which keeps the uniform tick grid; [`Samples::is_dropped`]
//! tests the instruction column. [`TickSample`] and [`ClusterSample`] are
//! row views of one tick ([`Samples::row`], [`Samples::iter`]), for tests
//! and trace digests.

use std::ops::{Index, IndexMut};

use crate::config::ClusterKind;

/// Per-cluster counters for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSample {
    /// Which cluster this row describes.
    pub kind: ClusterKind,
    /// Mean core utilization in `[0, 1]`.
    pub utilization: f64,
    /// Operating frequency in MHz.
    pub frequency_mhz: f64,
    /// The paper's CPU Load metric (frequency × utilization, normalized to
    /// the cluster's maximum frequency), in `[0, 1]`.
    pub load: f64,
    /// Instructions retired by the cluster this tick.
    pub instructions: f64,
    /// Active cycles spent this tick.
    pub cycles: f64,
}

/// All counters for one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSample {
    /// Wall-clock time of the sample, in seconds since run start.
    pub time_s: f64,
    /// Per-cluster rows, in `SocConfig::clusters` order.
    pub clusters: Vec<ClusterSample>,
    /// Total instructions retired across all clusters this tick.
    pub instructions: f64,
    /// Total active CPU cycles across all clusters this tick.
    pub cycles: f64,
    /// Cache misses across all hierarchy levels this tick.
    pub cache_misses: f64,
    /// Branches executed this tick.
    pub branches: f64,
    /// Branch mispredictions this tick.
    pub branch_misses: f64,
    /// Accesses that reached DRAM this tick.
    pub dram_accesses: f64,
    /// GPU utilization in `[0, 1]` (0 if the platform has no GPU).
    pub gpu_utilization: f64,
    /// GPU frequency in MHz.
    pub gpu_frequency_mhz: f64,
    /// The paper's GPU Load metric in `[0, 1]`.
    pub gpu_load: f64,
    /// Fraction of the tick all shader cores were busy.
    pub gpu_shaders_busy: f64,
    /// Fraction of the tick the GPU↔memory bus was busy.
    pub gpu_bus_busy: f64,
    /// L1 texture-cache misses this tick (millions).
    pub gpu_l1_texture_misses_m: f64,
    /// AIE utilization in `[0, 1]` (0 if the platform has no AIE).
    pub aie_utilization: f64,
    /// AIE frequency in MHz.
    pub aie_frequency_mhz: f64,
    /// The paper's AIE Load metric in `[0, 1]`.
    pub aie_load: f64,
    /// Total used system memory (OS baseline included), in MiB.
    pub memory_used_mib: f64,
    /// Fraction of system memory in use, in `[0, 1]`.
    pub memory_used_fraction: f64,
    /// Memory-bus bandwidth utilization in `[0, 1]`.
    pub memory_bandwidth_utilization: f64,
    /// Storage-device busy fraction in `[0, 1]`.
    pub storage_busy: f64,
    /// Storage read throughput delivered, in MB/s.
    pub storage_read_mbps: f64,
    /// Storage write throughput delivered, in MB/s.
    pub storage_write_mbps: f64,
}

impl TickSample {
    /// Whether this sample was lost (see [`Samples::invalidate`]).
    pub fn is_dropped(&self) -> bool {
        self.instructions.is_nan()
    }
}

/// A scalar counter column of [`Samples`]. The variants follow
/// [`TickSample`]'s fields, which document each counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// [`TickSample::instructions`].
    Instructions,
    /// [`TickSample::cycles`].
    Cycles,
    /// [`TickSample::cache_misses`].
    CacheMisses,
    /// [`TickSample::branches`].
    Branches,
    /// [`TickSample::branch_misses`].
    BranchMisses,
    /// [`TickSample::dram_accesses`].
    DramAccesses,
    /// [`TickSample::gpu_utilization`].
    GpuUtilization,
    /// [`TickSample::gpu_frequency_mhz`].
    GpuFrequencyMhz,
    /// [`TickSample::gpu_load`].
    GpuLoad,
    /// [`TickSample::gpu_shaders_busy`].
    GpuShadersBusy,
    /// [`TickSample::gpu_bus_busy`].
    GpuBusBusy,
    /// [`TickSample::gpu_l1_texture_misses_m`].
    GpuL1TextureMissesM,
    /// [`TickSample::aie_utilization`].
    AieUtilization,
    /// [`TickSample::aie_frequency_mhz`].
    AieFrequencyMhz,
    /// [`TickSample::aie_load`].
    AieLoad,
    /// [`TickSample::memory_used_mib`].
    MemoryUsedMib,
    /// [`TickSample::memory_used_fraction`].
    MemoryUsedFraction,
    /// [`TickSample::memory_bandwidth_utilization`].
    MemoryBandwidthUtilization,
    /// [`TickSample::storage_busy`].
    StorageBusy,
    /// [`TickSample::storage_read_mbps`].
    StorageReadMbps,
    /// [`TickSample::storage_write_mbps`].
    StorageWriteMbps,
}

impl Counter {
    /// Number of scalar counters.
    pub const COUNT: usize = 21;
}

/// A per-cluster counter column. The variants follow [`ClusterSample`]'s
/// fields, which document each counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterCounter {
    /// [`ClusterSample::utilization`].
    Utilization,
    /// [`ClusterSample::frequency_mhz`].
    FrequencyMhz,
    /// [`ClusterSample::load`].
    Load,
    /// [`ClusterSample::instructions`].
    Instructions,
    /// [`ClusterSample::cycles`].
    Cycles,
}

impl ClusterCounter {
    /// Number of per-cluster counters.
    pub const COUNT: usize = 5;
}

/// The counter columns of one CPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterColumns {
    kind: ClusterKind,
    columns: [Vec<f64>; ClusterCounter::COUNT],
}

impl ClusterColumns {
    /// Which cluster these columns describe.
    pub fn kind(&self) -> ClusterKind {
        self.kind
    }

    /// The columns by value, indexed by `ClusterCounter as usize`.
    pub fn into_columns(self) -> [Vec<f64>; ClusterCounter::COUNT] {
        self.columns
    }
}

impl Index<ClusterCounter> for ClusterColumns {
    type Output = [f64];

    fn index(&self, counter: ClusterCounter) -> &[f64] {
        &self.columns[counter as usize]
    }
}

impl IndexMut<ClusterCounter> for ClusterColumns {
    fn index_mut(&mut self, counter: ClusterCounter) -> &mut [f64] {
        &mut self.columns[counter as usize]
    }
}

/// Every counter of a run, one column per counter, all of one length.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub(crate) time_s: Vec<f64>,
    /// Indexed by `Counter as usize`.
    counters: [Vec<f64>; Counter::COUNT],
    /// In `SocConfig::clusters` order.
    pub(crate) clusters: Vec<ClusterColumns>,
}

impl Samples {
    /// Zero-filled columns for `ticks` ticks and one cluster of each of
    /// `clusters`, in order.
    pub(crate) fn new(ticks: usize, clusters: impl IntoIterator<Item = ClusterKind>) -> Self {
        let column = || vec![0.0; ticks];
        Samples {
            time_s: column(),
            counters: std::array::from_fn(|_| column()),
            clusters: clusters
                .into_iter()
                .map(|kind| ClusterColumns {
                    kind,
                    columns: std::array::from_fn(|_| column()),
                })
                .collect(),
        }
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.time_s.len()
    }

    /// Whether the run has no ticks.
    pub fn is_empty(&self) -> bool {
        self.time_s.is_empty()
    }

    /// The clusters' columns, in `SocConfig::clusters` order.
    pub fn clusters(&self) -> &[ClusterColumns] {
        &self.clusters
    }

    /// Whether tick `t` was lost (see [`Samples::invalidate`]).
    pub fn is_dropped(&self, t: usize) -> bool {
        self[Counter::Instructions][t].is_nan()
    }

    /// Mark tick `t` as lost: every counter column becomes NaN at `t`
    /// (the capture row is missing), while `time_s` keeps the uniform tick
    /// grid. This is the hook the fault-injection layer in `mwc-profiler`
    /// uses to model dropped Snapdragon-Profiler rows.
    pub fn invalidate(&mut self, t: usize) {
        let clusters = self.clusters.iter_mut().flat_map(|c| &mut c.columns);
        for column in self.counters.iter_mut().chain(clusters) {
            column[t] = f64::NAN;
        }
    }

    /// Tick `t` as a row.
    pub fn row(&self, t: usize) -> TickSample {
        let c = |counter: Counter| self[counter][t];
        TickSample {
            time_s: self.time_s[t],
            clusters: self
                .clusters
                .iter()
                .map(|cluster| ClusterSample {
                    kind: cluster.kind,
                    utilization: cluster[ClusterCounter::Utilization][t],
                    frequency_mhz: cluster[ClusterCounter::FrequencyMhz][t],
                    load: cluster[ClusterCounter::Load][t],
                    instructions: cluster[ClusterCounter::Instructions][t],
                    cycles: cluster[ClusterCounter::Cycles][t],
                })
                .collect(),
            instructions: c(Counter::Instructions),
            cycles: c(Counter::Cycles),
            cache_misses: c(Counter::CacheMisses),
            branches: c(Counter::Branches),
            branch_misses: c(Counter::BranchMisses),
            dram_accesses: c(Counter::DramAccesses),
            gpu_utilization: c(Counter::GpuUtilization),
            gpu_frequency_mhz: c(Counter::GpuFrequencyMhz),
            gpu_load: c(Counter::GpuLoad),
            gpu_shaders_busy: c(Counter::GpuShadersBusy),
            gpu_bus_busy: c(Counter::GpuBusBusy),
            gpu_l1_texture_misses_m: c(Counter::GpuL1TextureMissesM),
            aie_utilization: c(Counter::AieUtilization),
            aie_frequency_mhz: c(Counter::AieFrequencyMhz),
            aie_load: c(Counter::AieLoad),
            memory_used_mib: c(Counter::MemoryUsedMib),
            memory_used_fraction: c(Counter::MemoryUsedFraction),
            memory_bandwidth_utilization: c(Counter::MemoryBandwidthUtilization),
            storage_busy: c(Counter::StorageBusy),
            storage_read_mbps: c(Counter::StorageReadMbps),
            storage_write_mbps: c(Counter::StorageWriteMbps),
        }
    }

    /// Every tick as a row, in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TickSample> + '_ {
        (0..self.len()).map(|t| self.row(t))
    }

    /// The counter columns by value, indexed by `Counter as usize`, and
    /// the clusters' columns, for a consumer that moves columns out
    /// instead of copying them. The `time_s` column is dropped.
    pub fn into_columns(self) -> ([Vec<f64>; Counter::COUNT], Vec<ClusterColumns>) {
        (self.counters, self.clusters)
    }
}

impl Index<Counter> for Samples {
    type Output = [f64];

    fn index(&self, counter: Counter) -> &[f64] {
        &self.counters[counter as usize]
    }
}

impl IndexMut<Counter> for Samples {
    fn index_mut(&mut self, counter: Counter) -> &mut [f64] {
        &mut self.counters[counter as usize]
    }
}

/// Run-level sums over the kept ticks of a trace, in tick order, taken in
/// one pass (see [`Trace::totals`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Ticks in the run, dropped ones included.
    pub ticks: usize,
    /// Dropped ticks.
    pub dropped: usize,
    /// Instructions retired.
    pub instructions: f64,
    /// Active CPU cycles.
    pub cycles: f64,
    /// Cache misses across all levels.
    pub cache_misses: f64,
    /// Branch mispredictions.
    pub branch_misses: f64,
}

impl RunTotals {
    /// Fraction of ticks that were actually captured (1.0 for an empty or
    /// fully captured trace).
    pub fn completeness(&self) -> f64 {
        if self.ticks == 0 {
            return 1.0;
        }
        1.0 - self.dropped as f64 / self.ticks as f64
    }

    /// Instructions over active cycles (0 for an idle run).
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions / self.cycles
        } else {
            0.0
        }
    }

    /// All-level cache misses per kilo-instruction (0 for an idle run).
    pub fn cache_mpki(&self) -> f64 {
        if self.instructions > 0.0 {
            self.cache_misses / self.instructions * 1000.0
        } else {
            0.0
        }
    }

    /// Branch misses per kilo-instruction (0 for an idle run).
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions > 0.0 {
            self.branch_misses / self.instructions * 1000.0
        } else {
            0.0
        }
    }
}

/// A complete counter trace for one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the workload that produced the trace.
    pub workload: String,
    /// Tick period in seconds.
    pub tick_seconds: f64,
    /// Every counter of every tick, one column per counter.
    pub samples: Samples,
}

impl Trace {
    /// Run duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.samples.len() as f64 * self.tick_seconds
    }

    /// Number of dropped (lost) samples in the trace.
    pub fn dropped_samples(&self) -> usize {
        self.totals().dropped
    }

    /// Fraction of ticks that were actually captured (1.0 for an empty or
    /// fully captured trace).
    pub fn completeness(&self) -> f64 {
        self.totals().completeness()
    }

    /// The run-level sums over the kept ticks, in one pass. Each sum folds
    /// its kept ticks in tick order from −0.0, as `Iterator::sum` does.
    pub fn totals(&self) -> RunTotals {
        let s = &self.samples;
        let mut totals = RunTotals {
            ticks: s.len(),
            dropped: 0,
            instructions: -0.0,
            cycles: -0.0,
            cache_misses: -0.0,
            branch_misses: -0.0,
        };
        let columns = s[Counter::Instructions]
            .iter()
            .zip(&s[Counter::Cycles])
            .zip(&s[Counter::CacheMisses])
            .zip(&s[Counter::BranchMisses]);
        for (((&instructions, &cycles), &cache_misses), &branch_misses) in columns {
            if instructions.is_nan() {
                totals.dropped += 1;
                continue;
            }
            totals.instructions += instructions;
            totals.cycles += cycles;
            totals.cache_misses += cache_misses;
            totals.branch_misses += branch_misses;
        }
        totals
    }

    /// Total dynamic instruction count of the run (dropped rows excluded;
    /// identical to a plain sum for a fully captured trace).
    pub fn total_instructions(&self) -> f64 {
        self.totals().instructions
    }

    /// Total active CPU cycles of the run (dropped rows excluded).
    pub fn total_cycles(&self) -> f64 {
        self.totals().cycles
    }

    /// Run-level IPC: instructions over active cycles (0 for an idle run).
    pub fn ipc(&self) -> f64 {
        self.totals().ipc()
    }

    /// Run-level all-level cache MPKI (0 for an idle run).
    pub fn cache_mpki(&self) -> f64 {
        self.totals().cache_mpki()
    }

    /// Run-level branch MPKI (0 for an idle run).
    pub fn branch_mpki(&self) -> f64 {
        self.totals().branch_mpki()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize) -> Trace {
        let mut samples = Samples::new(n, [ClusterKind::Little, ClusterKind::Big]);
        for (counter, value) in [
            (Counter::Instructions, 1000.0),
            (Counter::Cycles, 800.0),
            (Counter::CacheMisses, 10.0),
            (Counter::Branches, 200.0),
            (Counter::BranchMisses, 2.0),
            (Counter::GpuLoad, 0.25),
            (Counter::MemoryUsedMib, 2000.0),
        ] {
            samples[counter].fill(value);
        }
        for (t, time) in samples.time_s.iter_mut().enumerate() {
            *time = t as f64 * 0.1;
        }
        Trace {
            workload: "t".into(),
            tick_seconds: 0.1,
            samples,
        }
    }

    /// Mean of a per-tick metric over the captured (finite) values.
    fn mean_of(t: &Trace, f: impl Fn(&TickSample) -> f64) -> f64 {
        let values: Vec<f64> = t.samples.iter().map(|s| f(&s)).collect();
        let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        finite.iter().sum::<f64>() / finite.len() as f64
    }

    #[test]
    fn duration_from_tick_count() {
        assert!((trace(50).duration_seconds() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates() {
        let t = trace(10);
        assert!((t.total_instructions() - 10_000.0).abs() < 1e-9);
        assert!((t.ipc() - 1.25).abs() < 1e-12);
        assert!((t.cache_mpki() - 10.0).abs() < 1e-9);
        assert!((t.branch_mpki() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_rates_are_zero() {
        let t = trace(0);
        assert!(t.samples.is_empty());
        assert_eq!(t.ipc(), 0.0);
        assert_eq!(t.cache_mpki(), 0.0);
        assert_eq!(t.completeness(), 1.0);
        assert_eq!(t.samples.iter().count(), 0);
    }

    #[test]
    fn invalidated_samples_are_excluded_from_aggregates() {
        let mut t = trace(10);
        let clean_instructions = t.total_instructions();
        let clean_ipc = t.ipc();
        let clean_mpki = t.cache_mpki();
        t.samples.invalidate(3);
        t.samples.invalidate(7);
        assert!(t.samples.is_dropped(3));
        assert!(t.samples.row(3).is_dropped());
        assert_eq!(t.dropped_samples(), 2);
        assert_eq!(t.totals().dropped, 2);
        assert!((t.completeness() - 0.8).abs() < 1e-12);
        // Aggregates stay finite and rates are unchanged: the remaining
        // samples are identical, so per-instruction rates and IPC hold.
        assert!((t.total_instructions() - clean_instructions * 0.8).abs() < 1e-6);
        assert!((t.ipc() - clean_ipc).abs() < 1e-12);
        assert!((t.cache_mpki() - clean_mpki).abs() < 1e-9);
        assert!(mean_of(&t, |s| s.gpu_load).is_finite());
        // Duration counts wall-clock ticks, including lost ones.
        assert!((t.duration_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidation_spares_only_the_time_column() {
        let mut t = trace(4);
        t.samples.invalidate(2);
        let row = t.samples.row(2);
        assert_eq!(row.time_s, 0.2);
        assert!(row.instructions.is_nan() && row.storage_write_mbps.is_nan());
        assert_eq!(row.clusters.len(), 2);
        for c in &row.clusters {
            assert!(c.utilization.is_nan() && c.load.is_nan() && c.cycles.is_nan());
        }
        assert!(!t.samples.is_dropped(1));
    }

    #[test]
    fn fully_dropped_trace_reports_zero_rates() {
        let mut t = trace(4);
        for i in 0..4 {
            t.samples.invalidate(i);
        }
        assert_eq!(t.completeness(), 0.0);
        assert_eq!(t.total_instructions(), 0.0);
        assert_eq!(t.ipc(), 0.0);
    }

    #[test]
    fn rows_mirror_the_columns() {
        let mut t = trace(3);
        t.samples[Counter::GpuLoad][1] = 0.6;
        let rows: Vec<TickSample> = t.samples.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].gpu_load, 0.6);
        assert_eq!(rows[2].time_s, t.samples.time_s[2]);
        assert_eq!(rows[0].clusters[1].kind, ClusterKind::Big);
        assert_eq!(rows[0], t.samples.row(0));
    }
}
