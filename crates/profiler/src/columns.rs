//! Columnar series storage: one contiguous buffer per metric.
//!
//! The engine already writes a run's counters as columns (see
//! [`mwc_soc::counters::Samples`]), and metric derivation wants the same
//! shape: per-metric reductions over all ticks. [`TraceColumns`] holds
//! one `Vec<f64>` per [`SeriesKey`], in [`SeriesKey::ALL`] order.
//!
//! Sixteen of the twenty keys serve a raw counter column unchanged: a
//! dropped tick is already NaN there, as a series gap must be. Built from
//! an owned trace ([`TraceColumns::from_trace`]) those columns move in
//! without a copy. Only CPU load, IPC and the two MPKIs are computed, tick
//! by tick, with the operations and order of the per-row extraction that
//! `tests/properties.rs` keeps as their reference, so no derived number
//! moves. A cluster kind the platform lacks reads 0.0 on kept ticks and
//! NaN on dropped ones.

use mwc_soc::config::ClusterKind;
use mwc_soc::counters::{ClusterCounter, Counter, Samples, Trace};

use crate::capture::SeriesKey;
use crate::timeseries::TimeSeries;

/// Number of series keys.
const KEYS: usize = SeriesKey::ALL.len();

/// Where one series' values come from in a run's samples.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A scalar counter column, as it is.
    Counter(Counter),
    /// A column of the cluster at this index, as it is.
    Cluster(usize, ClusterCounter),
    /// Computed tick by tick (see [`computed`]).
    Computed,
}

fn source(samples: &Samples, key: SeriesKey) -> Source {
    let cluster = |kind: ClusterKind, counter| {
        // The first cluster of the kind, as a lookup by kind finds it.
        match samples.clusters().iter().position(|c| c.kind() == kind) {
            Some(i) => Source::Cluster(i, counter),
            None => Source::Computed,
        }
    };
    match key {
        SeriesKey::ClusterLoad(kind) => cluster(kind, ClusterCounter::Load),
        SeriesKey::ClusterUtilization(kind) => cluster(kind, ClusterCounter::Utilization),
        SeriesKey::GpuLoad => Source::Counter(Counter::GpuLoad),
        SeriesKey::GpuShadersBusy => Source::Counter(Counter::GpuShadersBusy),
        SeriesKey::GpuBusBusy => Source::Counter(Counter::GpuBusBusy),
        SeriesKey::AieLoad => Source::Counter(Counter::AieLoad),
        SeriesKey::MemoryUsedFraction => Source::Counter(Counter::MemoryUsedFraction),
        SeriesKey::MemoryUsedMib => Source::Counter(Counter::MemoryUsedMib),
        SeriesKey::MemoryBandwidth => Source::Counter(Counter::MemoryBandwidthUtilization),
        SeriesKey::StorageBusy => Source::Counter(Counter::StorageBusy),
        SeriesKey::Instructions => Source::Counter(Counter::Instructions),
        SeriesKey::GpuL1TextureMisses => Source::Counter(Counter::GpuL1TextureMissesM),
        SeriesKey::CpuLoad | SeriesKey::Ipc | SeriesKey::CacheMpki | SeriesKey::BranchMpki => {
            Source::Computed
        }
    }
}

/// `value(t)` on every kept tick and NaN on every dropped one.
fn per_kept_tick(samples: &Samples, value: impl Fn(usize) -> f64) -> Vec<f64> {
    (0..samples.len())
        .map(|t| {
            if samples.is_dropped(t) {
                f64::NAN
            } else {
                value(t)
            }
        })
        .collect()
}

/// Events per kilo-instruction on every kept tick (0 where no
/// instruction retired).
fn per_kilo_instruction(samples: &Samples, events: Counter) -> Vec<f64> {
    let (events, instructions) = (&samples[events], &samples[Counter::Instructions]);
    per_kept_tick(samples, |t| {
        if instructions[t] > 0.0 {
            events[t] / instructions[t] * 1000.0
        } else {
            0.0
        }
    })
}

/// The column of a key with no raw source.
fn computed(samples: &Samples, key: SeriesKey) -> Vec<f64> {
    match key {
        SeriesKey::CpuLoad => {
            let clusters = samples.clusters();
            per_kept_tick(samples, |t| {
                if clusters.is_empty() {
                    0.0
                } else {
                    let loads = clusters.iter().map(|c| c[ClusterCounter::Load][t]);
                    loads.sum::<f64>() / clusters.len() as f64
                }
            })
        }
        SeriesKey::Ipc => {
            let (instructions, cycles) =
                (&samples[Counter::Instructions], &samples[Counter::Cycles]);
            per_kept_tick(samples, |t| {
                if cycles[t] > 0.0 {
                    instructions[t] / cycles[t]
                } else {
                    0.0
                }
            })
        }
        SeriesKey::CacheMpki => per_kilo_instruction(samples, Counter::CacheMisses),
        SeriesKey::BranchMpki => per_kilo_instruction(samples, Counter::BranchMisses),
        // A cluster kind the platform lacks.
        _ => per_kept_tick(samples, |_| 0.0),
    }
}

/// One series' values, copied or computed from borrowed samples.
pub(crate) fn column_of(samples: &Samples, key: SeriesKey) -> Vec<f64> {
    match source(samples, key) {
        Source::Counter(counter) => samples[counter].to_vec(),
        Source::Cluster(i, counter) => samples.clusters()[i][counter].to_vec(),
        Source::Computed => computed(samples, key),
    }
}

/// Every [`SeriesKey::ALL`] series of one trace in a struct-of-arrays
/// layout: one contiguous `f64` column per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceColumns {
    tick_seconds: f64,
    ticks: usize,
    /// One column per key, in [`SeriesKey::ALL`] order.
    columns: [Vec<f64>; KEYS],
}

impl TraceColumns {
    /// Take a trace apart: its sixteen raw series columns move in, and
    /// only CPU load, IPC and the two MPKIs are computed.
    pub fn from_trace(trace: Trace) -> Self {
        let samples = trace.samples;
        let ticks = samples.len();
        let sources = SeriesKey::ALL.map(|key| source(&samples, key));
        // Compute what has no raw column while the samples are whole, then
        // move the raw columns in.
        let mut columns: [Vec<f64>; KEYS] = std::array::from_fn(|k| match sources[k] {
            Source::Computed => computed(&samples, SeriesKey::ALL[k]),
            Source::Counter(_) | Source::Cluster(..) => Vec::new(),
        });
        let (mut counters, clusters) = samples.into_columns();
        let mut clusters: Vec<_> = clusters.into_iter().map(|c| c.into_columns()).collect();
        for (column, source) in columns.iter_mut().zip(sources) {
            match source {
                Source::Counter(counter) => {
                    *column = std::mem::take(&mut counters[counter as usize]);
                }
                Source::Cluster(i, counter) => {
                    *column = std::mem::take(&mut clusters[i][counter as usize]);
                }
                Source::Computed => {}
            }
        }
        TraceColumns {
            tick_seconds: trace.tick_seconds,
            ticks,
            columns,
        }
    }

    /// Copy a borrowed trace's sixteen raw series columns and compute the
    /// other four; the trace keeps its samples.
    pub(crate) fn copied_from(trace: &Trace) -> Self {
        TraceColumns {
            tick_seconds: trace.tick_seconds,
            ticks: trace.samples.len(),
            columns: SeriesKey::ALL.map(|key| column_of(&trace.samples, key)),
        }
    }

    /// Number of ticks (rows) per column.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Sampling period in seconds.
    pub fn tick_seconds(&self) -> f64 {
        self.tick_seconds
    }

    /// One metric's samples as a contiguous slice.
    pub fn column(&self, key: SeriesKey) -> &[f64] {
        &self.columns[key.index()]
    }

    /// Materialize one metric as an owned [`TimeSeries`].
    pub fn series(&self, key: SeriesKey) -> TimeSeries {
        TimeSeries::new(self.tick_seconds, self.column(key).to_vec())
    }

    /// Mean over the finite samples of one column — the same sequential
    /// filtered fold as [`TimeSeries::mean`] (0 for an empty or all-gap
    /// column), without materializing the series.
    pub fn mean(&self, key: SeriesKey) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for v in self.column(key).iter().copied().filter(|v| v.is_finite()) {
            sum += v;
            n += 1;
        }
        if n == 0 {
            return 0.0;
        }
        sum / n as f64
    }

    /// Maximum over the finite samples of one column, as
    /// [`TimeSeries::max`] (0 for an empty or all-gap column).
    pub fn max(&self, key: SeriesKey) -> f64 {
        let m = self
            .column(key)
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
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

    fn capture_with(config: SocConfig, seconds: f64) -> crate::capture::Capture {
        let engine = Engine::new(config, 0).expect("valid preset");
        let mut p = Profiler::new(engine, 3);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.8);
        let w = ConstantWorkload::new("cols", seconds, d);
        p.capture_runs(&w, 1).remove(0)
    }

    fn capture() -> crate::capture::Capture {
        capture_with(SocConfig::snapdragon_888(), 4.0)
    }

    fn assert_same_columns(a: &TraceColumns, b: &TraceColumns) {
        assert_eq!(a.ticks(), b.ticks());
        for &key in SeriesKey::ALL.iter() {
            let bits = |c: &TraceColumns| -> Vec<u64> {
                c.column(key).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "{}", key.name());
        }
    }

    #[test]
    fn moved_and_copied_columns_agree_bitwise() {
        let mut trace = capture().trace().clone();
        for t in [0, 5, 6, 39] {
            trace.samples.invalidate(t);
        }
        let copied = TraceColumns::copied_from(&trace);
        let moved = TraceColumns::from_trace(trace);
        assert_same_columns(&copied, &moved);
        for t in [0, 5, 6, 39] {
            for &key in SeriesKey::ALL.iter() {
                assert!(moved.column(key)[t].is_nan(), "{} at {t}", key.name());
            }
        }
        assert!(!moved.column(SeriesKey::Ipc)[1].is_nan());
    }

    #[test]
    fn columns_are_contiguous_and_shaped() {
        let cap = capture();
        let cols = TraceColumns::from_trace(cap.trace().clone());
        assert_eq!(cols.ticks(), cap.trace().samples.len());
        assert_eq!(cols.tick_seconds(), cap.trace().tick_seconds);
        for &key in SeriesKey::ALL.iter() {
            assert_eq!(cols.column(key).len(), cols.ticks());
        }
    }

    #[test]
    fn a_missing_cluster_kind_reads_zero_on_kept_ticks() {
        let mut config = SocConfig::snapdragon_888();
        config.clusters.retain(|c| c.kind != ClusterKind::Mid);
        let mut trace = capture_with(config, 2.0).trace().clone();
        trace.samples.invalidate(3);
        let cols = TraceColumns::from_trace(trace);
        let mid = cols.column(SeriesKey::ClusterLoad(ClusterKind::Mid));
        assert!(mid[3].is_nan());
        assert!(mid.iter().enumerate().all(|(t, &v)| t == 3 || v == 0.0));
        assert!(cols.max(SeriesKey::ClusterLoad(ClusterKind::Big)) > 0.5);
    }

    #[test]
    fn empty_trace_yields_empty_columns() {
        let cap = capture_with(SocConfig::snapdragon_888(), 0.0);
        let cols = TraceColumns::from_trace(cap.trace().clone());
        assert_eq!(cols.ticks(), 0);
        assert_eq!(cols.mean(SeriesKey::CpuLoad), 0.0);
        assert_eq!(cols.max(SeriesKey::Ipc), 0.0);
    }
}
