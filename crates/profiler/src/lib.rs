//! # mwc-profiler — a sampling profiler for the simulated SoC
//!
//! The simulated stand-in for Qualcomm's Snapdragon Profiler as the paper
//! uses it (§IV-A): it turns a running system into named per-metric time
//! series and benchmark-level aggregate metrics.
//!
//! * [`metric`] — the capture-tool metric registry (190+ hardware
//!   performance metrics across CPU, GPU, AIE, memory and system
//!   categories, mirroring the real tool's real-time view);
//! * [`timeseries`] — time series with normalization and resampling;
//! * [`capture`] — capture sessions: run a workload `n` times (the paper
//!   runs everything thrice) and collect per-run counter traces;
//! * [`columns`] — columnar (struct-of-arrays) series storage: one
//!   contiguous buffer per named series, the raw ones moved in from the
//!   engine's counter columns;
//! * [`baseline`] — idle-baseline measurement and subtraction for memory
//!   (the paper's Limitations §IV-A item 3);
//! * [`derive`] — derived benchmark-level metrics (IC, IPC, cache MPKI,
//!   branch MPKI, runtime, per-component loads) averaged across runs;
//! * [`faults`] — deterministic capture-fault injection (sample dropout,
//!   counter jitter and overflow wraps, truncation, run failure) plus the
//!   retry/quorum machinery's health records and errors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod capture;
pub mod columns;
pub mod derive;
pub mod faults;
pub mod metric;
pub mod timeseries;

pub use capture::{Capture, Profiler, SeriesKey, SeriesMap};
pub use columns::TraceColumns;
pub use derive::BenchmarkMetrics;
pub use faults::{CaptureError, CaptureHealth, FaultConfig};
pub use timeseries::TimeSeries;
