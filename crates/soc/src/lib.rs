//! # mwc-soc — a deterministic mobile System-on-Chip simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *Workload Characterization of Commercial Mobile Benchmark Suites*
//! (ISPASS 2024). The paper measures commercial benchmarks on a Qualcomm
//! Snapdragon 888 Mobile Hardware Development Kit; this crate provides a
//! simulated equivalent with the same topology so that the paper's entire
//! analysis pipeline can run without the proprietary device:
//!
//! * a tri-cluster heterogeneous CPU (1 big + 3 mid + 4 little cores) with
//!   per-cluster DVFS ([`freq`]), an analytic pipeline/CPI model
//!   ([`cpu::pipeline`]) and a branch-predictor model ([`cpu::branch`]),
//! * a multi-level cache hierarchy (per-core L1/L2, shared L3, system-level
//!   cache) with working-set-based miss curves and cross-component
//!   contention ([`cache`]),
//! * a GPU with a shader array, a memory bus and OpenGL ES / Vulkan front
//!   ends ([`gpu`]),
//! * an AI engine (DSP) with a video-codec support matrix ([`aie`]),
//! * DRAM and flash-storage models ([`memory`], [`storage`]),
//! * an EAS-style big.LITTLE scheduler ([`sched`]), and
//! * a time-stepped simulation engine that turns a [`Workload`] into one
//!   time series per hardware counter ([`engine`], [`counters`]).
//!
//! The simulation is fully deterministic for a given seed: every run of the
//! same workload on the same configuration produces bit-identical counter
//! traces.
//!
//! ## Quick example
//!
//! ```
//! use mwc_soc::config::SocConfig;
//! use mwc_soc::engine::Engine;
//! use mwc_soc::workload::{ConstantWorkload, Demand};
//! use mwc_soc::cpu::CpuDemand;
//!
//! let soc = SocConfig::snapdragon_888();
//! let mut demand = Demand::idle();
//! demand.cpu = CpuDemand::single_thread(0.8);
//! let workload = ConstantWorkload::new("busy-loop", 10.0, demand);
//! let mut engine = Engine::new(soc, 42)?;
//! let trace = engine.run(&workload);
//! assert!(trace.total_instructions() > 0.0);
//! # Ok::<(), mwc_soc::error::SocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

pub mod aie;
pub mod cache;
pub mod config;
pub mod counters;
pub mod cpu;
pub mod digest;
pub mod engine;
pub mod error;
pub mod event;
pub mod freq;
pub mod gpu;
pub mod memory;
pub mod sched;
pub mod storage;
pub mod workload;

pub use config::SocConfig;
pub use engine::{Engine, EngineMode};
pub use error::SocError;
pub use workload::{Demand, Workload};

/// Length of one simulation tick in seconds.
///
/// This matches the sampling period a real-time profiler would use
/// (Snapdragon Profiler samples at a comparable granularity). All engine
/// counters are accumulated per tick and exposed to observers at this
/// resolution.
pub const TICK_SECONDS: f64 = 0.1;
