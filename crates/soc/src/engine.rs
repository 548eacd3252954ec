//! The simulation engine.
//!
//! [`Engine::run`] executes a [`Workload`] over a tick-granular
//! [`SimClock`]; each tick:
//!
//! 1. sample the workload's demand and apply small seeded run-to-run noise
//!    (the paper averages three runs of every benchmark);
//! 2. tick the AIE — unsupported video codecs bounce back as CPU fallback
//!    threads (the AV1 effect of §V-B);
//! 3. tick the GPU — texture residency becomes shared-cache contention for
//!    the CPU clusters (the paper's explanation for low graphics IPC);
//! 4. place CPU threads with the EAS scheduler and tick every cluster;
//! 5. tick memory and storage and write the tick's counters into the
//!    run's [`Samples`] columns, at the tick's index.
//!
//! Two cores drive that loop, and both step every tick. The **dense**
//! core is the executable reference: it calls [`Workload::demand_at`] on
//! every tick and computes every CPI stack directly. The **event** core
//! (the default) samples the workload once per constant phase, holding
//! the demand until [`Workload::demand_hold_until`] expires at
//! [`SimClock::boundary_tick`], and memoizes each thread's CPI stack, so
//! its tick allocates nothing. Both cores produce bit-identical traces;
//! `tests/event_engine.rs` pins that equivalence on every trace the
//! paper-default study consumes. [`Engine::new`] always builds the event
//! core; [`Engine::set_mode`] selects the dense one for the equivalence
//! tests. See `DESIGN.md` §15.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aie::Aie;
use crate::config::SocConfig;
use crate::counters::{ClusterCounter, Counter, Samples, Trace};
use crate::cpu::{Cluster, ThreadDemand};
use crate::error::SocError;
use crate::event::SimClock;
use crate::gpu::Gpu;
use crate::memory::Memory;
use crate::sched::{Placement, Scheduler};
use crate::storage::Storage;
use crate::workload::{Demand, Workload};
use crate::TICK_SECONDS;

/// Relative amplitude of the seeded per-tick noise applied to demands.
const NOISE_AMPLITUDE: f64 = 0.02;

/// SplitMix64 finalizer: a bijective avalanche mix over 64 bits.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the noise-stream seed of one `(study, unit, run)` capture.
///
/// Each component is absorbed through a SplitMix64 finalizer, so every
/// capture gets an independent stream that depends only on the study seed
/// and the capture's own coordinates — never on which captures ran before
/// it on the same engine. This order independence is what lets the
/// parallel characterization pipeline partition units across workers in
/// any way whatsoever and still reproduce the serial study bit for bit.
pub fn stream_seed(study_seed: u64, unit_index: u64, run_index: u64) -> u64 {
    let mut h = mix64(study_seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    h = mix64(h ^ unit_index.wrapping_add(0xD1B5_4A32_D192_ED03));
    h = mix64(h ^ run_index.wrapping_add(0x8CB9_2BA7_2F3D_8DD7));
    h
}

/// Multiplicative noise factor around 1.0.
fn noise(rng: &mut StdRng) -> f64 {
    1.0 + rng.gen_range(-NOISE_AMPLITUDE..=NOISE_AMPLITUDE)
}

/// Overwrite `dst` with `src`, reusing `dst`'s thread buffer.
fn copy_demand(dst: &mut Demand, src: &Demand) {
    let Demand {
        cpu,
        gpu,
        aie,
        memory,
        io,
    } = src;
    dst.cpu.threads.clone_from(&cpu.threads);
    dst.gpu = *gpu;
    dst.aie = *aie;
    dst.memory = *memory;
    dst.io = *io;
}

/// Bytes transferred per DRAM access (one cache line).
const CACHE_LINE_BYTES: f64 = 64.0;

/// Which simulation core [`Engine::run`] uses. Both produce bit-identical
/// traces; they differ only in how much work they do per simulated second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Event core (default): samples the workload once per constant phase
    /// and memoizes per-thread CPI stacks.
    #[default]
    Event,
    /// Dense core: samples the workload and computes every CPI stack on
    /// every tick. Kept as the executable specification the event core is
    /// gated against.
    Dense,
}

impl EngineMode {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Event => "event",
            EngineMode::Dense => "dense",
        }
    }
}

/// The simulation engine: a configured SoC ready to run workloads.
#[derive(Debug)]
pub struct Engine {
    config: SocConfig,
    clusters: Vec<Cluster>,
    gpu: Option<Gpu>,
    aie: Option<Aie>,
    memory: Memory,
    storage: Storage,
    scheduler: Scheduler,
    rng: StdRng,
    mode: EngineMode,
    /// The current tick's perturbed demand and its placement: buffers
    /// reused from tick to tick, so a stepped tick allocates nothing.
    demand: Demand,
    placement: Placement,
}

impl Engine {
    /// Build an engine for the given platform. Fails if the configuration
    /// does not validate.
    pub fn new(config: SocConfig, seed: u64) -> Result<Self, SocError> {
        Engine::with_policies(
            config,
            seed,
            crate::freq::GovernorPolicy::Schedutil,
            crate::sched::PlacementPolicy::EnergyAware,
        )
    }

    /// Build an engine with explicit DVFS and thread-placement policies
    /// (design-space ablations; the paper's platform corresponds to
    /// [`Engine::new`]'s defaults).
    pub fn with_policies(
        config: SocConfig,
        seed: u64,
        governor: crate::freq::GovernorPolicy,
        placement: crate::sched::PlacementPolicy,
    ) -> Result<Self, SocError> {
        config.validate()?;
        let clusters = config
            .clusters
            .iter()
            .map(|c| {
                let mut cluster = Cluster::new(c.clone(), config.l3.clone(), config.slc.clone());
                cluster.set_governor_policy(governor);
                cluster
            })
            .collect();
        let gpu = config.gpu.clone().map(Gpu::new);
        let aie = config.aie.clone().map(Aie::new);
        let memory = Memory::new(config.memory.clone());
        let storage = Storage::new(config.storage.clone());
        let scheduler = Scheduler::with_policy(&config, placement);
        Ok(Engine {
            config,
            clusters,
            gpu,
            aie,
            memory,
            storage,
            scheduler,
            rng: StdRng::seed_from_u64(seed),
            mode: EngineMode::Event,
            demand: Demand::idle(),
            placement: Placement::default(),
        })
    }

    /// The platform configuration this engine simulates.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The active simulation core.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Select the simulation core; construction picks the event core.
    /// Both cores are bit-identical, so this is a performance knob (and
    /// the seam the equivalence tests switch on), never a semantic one.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// Reset all DVFS and contention state, and reseed the noise source.
    /// Call between benchmark runs to emulate a device returning to idle.
    pub fn reset(&mut self, seed: u64) {
        for c in &mut self.clusters {
            c.reset();
        }
        if let Some(gpu) = &mut self.gpu {
            gpu.reset();
        }
        if let Some(aie) = &mut self.aie {
            aie.reset();
        }
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Reset for one `(study, unit, run)` capture, seeding the noise
    /// source with [`stream_seed`] of the capture's coordinates.
    pub fn reset_for(&mut self, study_seed: u64, unit_index: u64, run_index: u64) {
        self.reset(stream_seed(study_seed, unit_index, run_index));
    }

    /// Run a workload to completion and return the counter trace. Every
    /// column is sized from the tick count before the first tick, and each
    /// tick is written at its index.
    ///
    /// Workloads with a non-positive duration yield an empty trace; any
    /// positive duration — however short — executes at least one tick,
    /// and every sampled normalized time stays inside the `[0, 1)` domain
    /// of [`Workload::demand_at`] (both guarantees come from
    /// [`SimClock`]).
    ///
    /// When `mwc-obs` collection is enabled the run is wrapped in a
    /// `soc.run` span (fields: workload name, tick count, engine mode)
    /// and the tick count feeds the `soc.ticks` counter; the event core
    /// additionally reports its CPI-memo lookups as `soc.cpi_memo_hits` /
    /// `soc.cpi_memo_misses`.
    /// The simulation itself never reads any observability state, so
    /// traced and untraced runs are bit-identical.
    pub fn run(&mut self, workload: &dyn Workload) -> Trace {
        let clock = SimClock::for_duration(workload.duration_seconds());
        let mut run_span = mwc_obs::span("soc.run");
        run_span.field("workload", workload.name());
        run_span.field("ticks", clock.ticks());
        run_span.field("engine", self.mode.name());
        mwc_obs::metrics::counter_add("soc.ticks", clock.ticks());
        mwc_obs::metrics::counter_add("soc.runs", 1);

        let kinds = self.config.clusters.iter().map(|c| c.kind);
        let mut samples = Samples::new(clock.ticks() as usize, kinds);
        match self.mode {
            EngineMode::Event => self.run_event(workload, &clock, &mut samples),
            EngineMode::Dense => self.run_dense(workload, &clock, &mut samples),
        }

        if let Some(ns) = run_span.elapsed_ns() {
            mwc_obs::metrics::observe_duration_ns("soc.run_ns", ns);
        }
        Trace {
            workload: workload.name().to_owned(),
            tick_seconds: TICK_SECONDS,
            samples,
        }
    }

    /// The dense core: execute every component model on every tick. This
    /// is the executable specification of the simulator's semantics; the
    /// event core is gated bit-for-bit against it.
    fn run_dense(&mut self, workload: &dyn Workload, clock: &SimClock, samples: &mut Samples) {
        for tick in 0..clock.ticks() {
            self.demand = workload.demand_at(clock.t_norm(tick));
            self.perturb();
            self.step(samples, tick as usize, clock.time_s(tick));
        }
    }

    /// The event core: step every tick like the dense core, but re-sample
    /// the workload only where its demand can change. Each sample holds
    /// until the tick [`SimClock::boundary_tick`] derives from
    /// [`Workload::demand_hold_until`], which agrees bit for bit with
    /// per-tick re-sampling, so `demand_at` runs once per constant phase
    /// and the held demand is copied into the engine's reused buffer.
    fn run_event(&mut self, workload: &dyn Workload, clock: &SimClock, samples: &mut Samples) {
        let mut held_demand = Demand::idle();
        let mut hold_end = 0;
        for tick in 0..clock.ticks() {
            if tick == hold_end {
                let t_norm = clock.t_norm(tick);
                held_demand = workload.demand_at(t_norm);
                hold_end = clock.boundary_tick(tick, workload.demand_hold_until(t_norm));
            }
            copy_demand(&mut self.demand, &held_demand);
            self.perturb();
            self.step(samples, tick as usize, clock.time_s(tick));
        }

        let (mut memo_hits, mut memo_misses) = (0, 0);
        for cluster in &mut self.clusters {
            let (hits, misses) = cluster.take_memo_counts();
            memo_hits += hits;
            memo_misses += misses;
        }
        mwc_obs::metrics::counter_add("soc.cpi_memo_hits", memo_hits);
        mwc_obs::metrics::counter_add("soc.cpi_memo_misses", memo_misses);
    }

    /// Apply seeded run-to-run noise to the current tick's demand.
    fn perturb(&mut self) {
        let rng = &mut self.rng;
        let demand = &mut self.demand;
        for thread in &mut demand.cpu.threads {
            thread.intensity = (thread.intensity * noise(rng)).clamp(0.0, 1.0);
        }
        if let Some(gpu) = &mut demand.gpu {
            gpu.intensity = (gpu.intensity * noise(rng)).clamp(0.0, 1.0);
        }
        if let Some(aie) = &mut demand.aie {
            aie.intensity = (aie.intensity * noise(rng)).clamp(0.0, 1.0);
        }
    }

    /// Advance the whole SoC by one tick under the current tick's demand,
    /// and write its counters into `samples` at tick `t`.
    fn step(&mut self, samples: &mut Samples, t: usize, time_s: f64) {
        let demand = &mut self.demand;
        // 1. AIE first: unsupported work falls back to the CPU.
        let aie_result = match &mut self.aie {
            Some(aie) => aie.tick(demand.aie.as_ref(), TICK_SECONDS),
            None => {
                // No AIE at all: every DSP demand runs in software.
                let fallback = demand
                    .aie
                    .as_ref()
                    .map(|d| (d.intensity * d.kernel.base_load() * 1.8).min(1.0))
                    .unwrap_or(0.0);
                crate::aie::AieTickResult {
                    utilization: 0.0,
                    frequency_mhz: 0.0,
                    cpu_fallback_intensity: fallback,
                }
            }
        };
        if aie_result.cpu_fallback_intensity > 0.0 {
            let mut fallback = ThreadDemand::new(aie_result.cpu_fallback_intensity);
            fallback.mix = crate::cpu::InstructionMix::simd();
            fallback.working_set_kib = 4096.0;
            fallback.locality = 0.55;
            fallback.ilp = 0.6;
            demand.cpu.threads.push(fallback);
        }

        // 2. GPU: texture residency contends with the CPU in L3/SLC.
        let gpu_result = match &mut self.gpu {
            Some(gpu) => gpu.tick(demand.gpu.as_ref(), TICK_SECONDS),
            None => crate::gpu::GpuTickResult::idle(0.0),
        };
        // Textures squat mostly in the SLC (it is the SoC-wide cache) and
        // partly in L3.
        let slc_contention = gpu_result.cache_residency_kib * 0.7;
        let l3_contention = gpu_result.cache_residency_kib * 0.3;

        // 3. CPU: place threads and tick every cluster. Only the event
        // core memoizes per-thread CPI stacks; the dense core computes
        // them directly and stays the reference.
        let memoize = self.mode == EngineMode::Event;
        self.scheduler.place(&demand.cpu, &mut self.placement);
        let threads = &demand.cpu.threads;
        let mut instructions = 0.0;
        let mut cycles = 0.0;
        let mut cache_misses = 0.0;
        let mut branches = 0.0;
        let mut branch_misses = 0.0;
        let mut dram_accesses = 0.0;
        let placed = self.clusters.iter_mut().zip(&self.placement.assignments);
        for ((cluster, assigned), columns) in placed.zip(&mut samples.clusters) {
            cluster.set_shared_contention(l3_contention, slc_contention);
            let assigned = assigned.iter().map(|&i| &threads[i]);
            let r = cluster.tick(assigned, TICK_SECONDS, memoize);
            instructions += r.counters.instructions;
            cycles += r.counters.cycles;
            cache_misses += r.counters.cache_misses;
            branches += r.counters.branches;
            branch_misses += r.counters.branch_misses;
            dram_accesses += r.counters.dram_accesses;
            for (counter, value) in [
                (ClusterCounter::Utilization, r.utilization),
                (ClusterCounter::FrequencyMhz, r.frequency_mhz),
                (ClusterCounter::Load, r.load(cluster.config().max_freq_mhz)),
                (ClusterCounter::Instructions, r.counters.instructions),
                (ClusterCounter::Cycles, r.counters.cycles),
            ] {
                columns[counter][t] = value;
            }
        }

        // 4. Memory: CPU DRAM traffic + GPU texture traffic + workload
        // streaming demand.
        let cpu_dram_gbps = dram_accesses * CACHE_LINE_BYTES / TICK_SECONDS / 1.0e9;
        let gpu_mem_gbps = gpu_result.bus_busy * self.config.memory.bandwidth_gbps * 0.5;
        let memory_result = self.memory.tick(
            &demand.memory,
            gpu_result.memory_mib,
            cpu_dram_gbps + gpu_mem_gbps,
        );

        // 5. Storage.
        let storage_result = self.storage.tick(demand.io.as_ref());

        let gpu_max_freq = self
            .config
            .gpu
            .as_ref()
            .map(|g| g.max_freq_mhz)
            .unwrap_or(0.0);
        let aie_max_freq = self
            .config
            .aie
            .as_ref()
            .map(|a| a.max_freq_mhz)
            .unwrap_or(0.0);

        samples.time_s[t] = time_s;
        for (counter, value) in [
            (Counter::Instructions, instructions),
            (Counter::Cycles, cycles),
            (Counter::CacheMisses, cache_misses),
            (Counter::Branches, branches),
            (Counter::BranchMisses, branch_misses),
            (Counter::DramAccesses, dram_accesses),
            (Counter::GpuUtilization, gpu_result.utilization),
            (Counter::GpuFrequencyMhz, gpu_result.frequency_mhz),
            (Counter::GpuLoad, gpu_result.load(gpu_max_freq)),
            (Counter::GpuShadersBusy, gpu_result.shaders_busy),
            (Counter::GpuBusBusy, gpu_result.bus_busy),
            (Counter::GpuL1TextureMissesM, gpu_result.l1_texture_misses_m),
            (Counter::AieUtilization, aie_result.utilization),
            (Counter::AieFrequencyMhz, aie_result.frequency_mhz),
            (Counter::AieLoad, aie_result.load(aie_max_freq)),
            (Counter::MemoryUsedMib, memory_result.total_used_mib),
            (Counter::MemoryUsedFraction, memory_result.used_fraction),
            (
                Counter::MemoryBandwidthUtilization,
                memory_result.bandwidth_utilization,
            ),
            (Counter::StorageBusy, storage_result.busy),
            (Counter::StorageReadMbps, storage_result.read_mbps),
            (Counter::StorageWriteMbps, storage_result.write_mbps),
        ] {
            samples[counter][t] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aie::{AieDemand, Codec, DspKernel};
    use crate::config::ClusterKind;
    use crate::counters::TickSample;
    use crate::cpu::CpuDemand;
    use crate::gpu::GpuDemand;
    use crate::workload::ConstantWorkload;

    fn engine() -> Engine {
        Engine::new(SocConfig::snapdragon_888(), 7).unwrap()
    }

    /// The last tick of a trace, as a row.
    fn last_row(trace: &Trace) -> TickSample {
        trace.samples.row(trace.samples.len() - 1)
    }

    /// Mean of a per-tick metric over the trace's rows.
    fn mean_of(trace: &Trace, f: impl Fn(&TickSample) -> f64) -> f64 {
        let sum: f64 = trace.samples.iter().map(|s| f(&s)).sum();
        sum / trace.samples.len() as f64
    }

    fn cpu_workload(intensity: f64, secs: f64) -> ConstantWorkload {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(intensity);
        ConstantWorkload::new("cpu", secs, d)
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = SocConfig::snapdragon_888();
        cfg.clusters.clear();
        assert!(Engine::new(cfg, 0).is_err());
    }

    #[test]
    fn run_produces_expected_tick_count() {
        let mut e = engine();
        let trace = e.run(&cpu_workload(0.8, 5.0));
        assert_eq!(trace.samples.len(), 50);
        assert!((trace.duration_seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn busy_workload_executes_instructions() {
        let mut e = engine();
        let trace = e.run(&cpu_workload(0.9, 5.0));
        assert!(
            trace.total_instructions() > 1.0e9,
            "got {}",
            trace.total_instructions()
        );
        assert!(trace.ipc() > 0.3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut e1 = engine();
        let mut e2 = engine();
        let w = cpu_workload(0.7, 3.0);
        assert_eq!(e1.run(&w), e2.run(&w));
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let mut e1 = Engine::new(SocConfig::snapdragon_888(), 1).unwrap();
        let mut e2 = Engine::new(SocConfig::snapdragon_888(), 2).unwrap();
        // Intensity must sit clear of HEAVY_THRESHOLD (0.70): at the
        // threshold the +/-2% noise flips placement between the big and
        // little clusters every tick, and totals become a per-tick coin
        // flip instead of "the same work, slightly perturbed".
        let w = cpu_workload(0.8, 3.0);
        let t1 = e1.run(&w);
        let t2 = e2.run(&w);
        assert_ne!(t1, t2);
        let rel =
            (t1.total_instructions() - t2.total_instructions()).abs() / t1.total_instructions();
        assert!(rel < 0.05, "noise should be small, rel diff {rel}");
    }

    #[test]
    fn heavy_single_thread_loads_big_cluster() {
        let mut e = engine();
        let trace = e.run(&cpu_workload(0.95, 10.0));
        let last = last_row(&trace);
        let big = last
            .clusters
            .iter()
            .find(|c| c.kind == ClusterKind::Big)
            .unwrap();
        let mid = last
            .clusters
            .iter()
            .find(|c| c.kind == ClusterKind::Mid)
            .unwrap();
        assert!(big.load > 0.8, "big load {}", big.load);
        assert!(mid.load < 0.1, "mid load {}", mid.load);
    }

    #[test]
    fn gpu_workload_uses_little_cores_only() {
        let mut e = engine();
        let mut d = Demand::idle();
        d.cpu = CpuDemand::multi_thread(2, 0.25);
        d.gpu = Some(GpuDemand::scene(0.9));
        let trace = e.run(&ConstantWorkload::new("gfx", 10.0, d));
        let last = last_row(&trace);
        let little = last
            .clusters
            .iter()
            .find(|c| c.kind == ClusterKind::Little)
            .unwrap();
        let big = last
            .clusters
            .iter()
            .find(|c| c.kind == ClusterKind::Big)
            .unwrap();
        assert!(little.utilization > 0.0);
        assert_eq!(big.utilization, 0.0);
        assert!(last.gpu_load > 0.3);
    }

    #[test]
    fn av1_decode_raises_cpu_load_versus_h264() {
        let make = |codec| {
            let mut d = Demand::idle();
            d.cpu = CpuDemand::single_thread(0.3);
            d.aie = Some(AieDemand::new(DspKernel::VideoDecode(codec), 0.9));
            ConstantWorkload::new("video", 10.0, d)
        };
        let mut e1 = engine();
        let t_h264 = e1.run(&make(Codec::H264));
        let mut e2 = engine();
        let t_av1 = e2.run(&make(Codec::Av1));
        let cpu_util =
            |t: &Trace| mean_of(t, |s| s.clusters.iter().map(|c| c.utilization).sum::<f64>());
        assert!(
            cpu_util(&t_av1) > cpu_util(&t_h264) * 1.5,
            "AV1 fallback must add CPU load: {} vs {}",
            cpu_util(&t_av1),
            cpu_util(&t_h264)
        );
        assert!(mean_of(&t_h264, |s| s.aie_load) > mean_of(&t_av1, |s| s.aie_load));
    }

    #[test]
    fn gpu_textures_depress_cpu_ipc() {
        let cpu_demand = || {
            let mut t = crate::cpu::ThreadDemand::new(0.9);
            t.working_set_kib = 5000.0;
            CpuDemand { threads: vec![t] }
        };
        let mut d_plain = Demand::idle();
        d_plain.cpu = cpu_demand();
        let mut d_gpu = d_plain.clone();
        let mut scene = GpuDemand::scene(0.9);
        scene.texture_mib = 1500.0;
        d_gpu.gpu = Some(scene);
        let mut e1 = engine();
        let t_plain = e1.run(&ConstantWorkload::new("plain", 10.0, d_plain));
        let mut e2 = engine();
        let t_gpu = e2.run(&ConstantWorkload::new("contended", 10.0, d_gpu));
        assert!(
            t_gpu.ipc() < t_plain.ipc(),
            "texture contention must cost IPC: {} vs {}",
            t_gpu.ipc(),
            t_plain.ipc()
        );
        assert!(t_gpu.cache_mpki() > t_plain.cache_mpki());
    }

    #[test]
    fn idle_workload_reports_baseline_memory() {
        let mut e = engine();
        let trace = e.run(&ConstantWorkload::new("idle", 2.0, Demand::idle()));
        let last = last_row(&trace);
        assert!((last.memory_used_mib - e.config().memory.os_baseline_mib).abs() < 1.0);
        assert_eq!(last.storage_busy, 0.0);
    }

    #[test]
    fn stream_seeds_are_order_free_and_distinct() {
        // Pure function of the coordinates: no hidden state.
        assert_eq!(stream_seed(2024, 5, 2), stream_seed(2024, 5, 2));
        // Every coordinate matters.
        assert_ne!(stream_seed(2024, 5, 2), stream_seed(2025, 5, 2));
        assert_ne!(stream_seed(2024, 5, 2), stream_seed(2024, 6, 2));
        assert_ne!(stream_seed(2024, 5, 2), stream_seed(2024, 5, 3));
        // Swapping unit and run coordinates must not collide (a plain
        // `seed + unit + run` scheme would).
        assert_ne!(stream_seed(2024, 2, 5), stream_seed(2024, 5, 2));
    }

    #[test]
    fn reset_for_matches_explicit_stream_seed() {
        let w = cpu_workload(0.8, 2.0);
        let mut e1 = engine();
        e1.reset_for(2024, 3, 1);
        let mut e2 = engine();
        e2.reset(stream_seed(2024, 3, 1));
        assert_eq!(e1.run(&w), e2.run(&w));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut e = engine();
        let w = cpu_workload(0.9, 5.0);
        let t1 = e.run(&w);
        e.reset(7);
        let t2 = e.run(&w);
        assert_eq!(t1, t2, "reset must make runs reproducible");
    }

    #[test]
    fn performance_governor_raises_load_metric() {
        let w = cpu_workload(0.5, 5.0);
        let mut stock = engine();
        let mut pinned = Engine::with_policies(
            SocConfig::snapdragon_888(),
            7,
            crate::freq::GovernorPolicy::Performance,
            crate::sched::PlacementPolicy::EnergyAware,
        )
        .unwrap();
        let t_stock = stock.run(&w);
        let t_pinned = pinned.run(&w);
        let load = |t: &Trace| mean_of(t, |s| s.clusters.iter().map(|c| c.load).sum::<f64>());
        assert!(
            load(&t_pinned) > load(&t_stock),
            "pinning frequencies raises the load metric for the same work"
        );
    }

    #[test]
    fn little_only_policy_leaves_big_idle() {
        let mut e = Engine::with_policies(
            SocConfig::snapdragon_888(),
            7,
            crate::freq::GovernorPolicy::Schedutil,
            crate::sched::PlacementPolicy::LittleOnly,
        )
        .unwrap();
        let trace = e.run(&cpu_workload(0.95, 5.0));
        let last = last_row(&trace);
        let big = last
            .clusters
            .iter()
            .find(|c| c.kind == ClusterKind::Big)
            .unwrap();
        assert_eq!(big.utilization, 0.0);
    }

    #[test]
    fn headless_platform_runs_cpu_work() {
        let cfg = SocConfig::builder("headless")
            .gpu(None)
            .aie(None)
            .build()
            .unwrap();
        let mut e = Engine::new(cfg, 3).unwrap();
        let trace = e.run(&cpu_workload(0.8, 3.0));
        assert!(trace.total_instructions() > 0.0);
        assert_eq!(last_row(&trace).gpu_load, 0.0);
    }

    /// Workload shim that records every `t_norm` the engine samples. Its
    /// demand is constant over each quarter of the run, and
    /// `demand_hold_until` says so: quarters keep the phase arithmetic
    /// exact in binary floating point.
    struct TNormProbe {
        duration: f64,
        sampled: std::cell::RefCell<Vec<f64>>,
    }

    impl TNormProbe {
        const PHASES: f64 = 4.0;

        fn new(duration: f64) -> Self {
            TNormProbe {
                duration,
                sampled: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl Workload for TNormProbe {
        fn name(&self) -> &str {
            "t-norm-probe"
        }
        fn duration_seconds(&self) -> f64 {
            self.duration
        }
        fn demand_at(&self, t_norm: f64) -> Demand {
            self.sampled.borrow_mut().push(t_norm);
            let phase = (t_norm * Self::PHASES).floor();
            let mut d = Demand::idle();
            d.cpu = CpuDemand::single_thread(0.3 + 0.1 * phase);
            d
        }
        fn demand_hold_until(&self, t_norm: f64) -> f64 {
            ((t_norm * Self::PHASES).floor() + 1.0) / Self::PHASES
        }
    }

    fn engine_in(mode: EngineMode) -> Engine {
        let mut e = engine();
        e.set_mode(mode);
        e
    }

    #[test]
    fn sub_half_tick_duration_still_produces_one_tick() {
        // Regression: `(duration / TICK_SECONDS).round()` alone yields 0
        // ticks for any positive duration below half a tick, silently
        // contradicting the "non-positive duration => empty trace" doc.
        for mode in [EngineMode::Event, EngineMode::Dense] {
            let mut e = engine_in(mode);
            let trace = e.run(&cpu_workload(0.8, TICK_SECONDS / 4.0));
            assert_eq!(trace.samples.len(), 1, "mode {mode:?}");
            let trace = e.run(&cpu_workload(0.8, 1e-9));
            assert_eq!(trace.samples.len(), 1, "mode {mode:?}");
        }
    }

    #[test]
    fn non_positive_duration_yields_empty_trace() {
        for mode in [EngineMode::Event, EngineMode::Dense] {
            let mut e = engine_in(mode);
            assert!(e.run(&cpu_workload(0.8, 0.0)).samples.is_empty());
            assert!(e.run(&cpu_workload(0.8, -2.0)).samples.is_empty());
        }
    }

    #[test]
    fn sampled_t_norm_stays_in_domain() {
        // Regression: rounding the tick count *up* used to let the last
        // tick's `t_norm` reach 1.0, outside `demand_at`'s documented
        // `[0, 1)` domain.
        for mode in [EngineMode::Event, EngineMode::Dense] {
            for duration in [1e-6, 0.04, 0.06, 0.14999, 1.0, 3.337] {
                let probe = TNormProbe::new(duration);
                let mut e = engine_in(mode);
                let trace = e.run(&probe);
                let sampled = probe.sampled.borrow();
                assert!(!sampled.is_empty());
                if mode == EngineMode::Dense {
                    assert_eq!(
                        trace.samples.len(),
                        sampled.len(),
                        "dense samples every tick"
                    );
                }
                for &t in sampled.iter() {
                    assert!(
                        (0.0..1.0).contains(&t),
                        "mode {mode:?}, duration {duration}: t_norm {t} out of domain"
                    );
                }
            }
        }
    }

    #[test]
    fn event_core_samples_the_workload_once_per_phase() {
        // 10 s is 100 ticks; the probe's phases start at ticks 0, 25, 50
        // and 75. The event core must hold each phase's demand instead of
        // re-sampling it, and still match the dense core's trace.
        let mut traces = Vec::new();
        for (mode, calls) in [(EngineMode::Event, 4), (EngineMode::Dense, 100)] {
            let probe = TNormProbe::new(10.0);
            let trace = engine_in(mode).run(&probe);
            assert_eq!(trace.samples.len(), 100, "mode {mode:?}");
            assert_eq!(probe.sampled.borrow().len(), calls, "mode {mode:?}");
            traces.push(trace);
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn event_core_matches_dense_core_bit_for_bit() {
        let mut dense = engine_in(EngineMode::Dense);
        let mut event = engine_in(EngineMode::Event);
        // Constant busy workload (noisy every tick).
        let w = cpu_workload(0.8, 5.0);
        assert_eq!(dense.run(&w), event.run(&w));
        // Fully idle workload.
        dense.reset(7);
        event.reset(7);
        let idle = ConstantWorkload::new("idle", 30.0, Demand::idle());
        assert_eq!(dense.run(&idle), event.run(&idle));
        // Idle with stateless-device demand (memory + io, no noise).
        dense.reset(7);
        event.reset(7);
        let mut d = Demand::idle();
        d.memory.footprint_mib = 512.0;
        d.io = Some(crate::storage::IoDemand::sequential(200.0, 50.0));
        let io = ConstantWorkload::new("io", 30.0, d);
        assert_eq!(dense.run(&io), event.run(&io));
    }

    #[test]
    fn idle_ticks_repeat_the_first_sample() {
        // A fresh engine rests at every governor's floor, so each idle
        // tick reproduces the first one; only the timestamp moves.
        let mut e = engine_in(EngineMode::Event);
        let idle = ConstantWorkload::new("idle", 60.0, Demand::idle());
        let trace = e.run(&idle);
        assert_eq!(trace.samples.len(), 600);
        let first = trace.samples.row(0);
        for (i, s) in trace.samples.iter().enumerate() {
            assert!((s.time_s - i as f64 * TICK_SECONDS).abs() < 1e-12);
            let mut expect = first.clone();
            expect.time_s = s.time_s;
            assert_eq!(expect, s, "sample {i} diverged while idle");
        }
    }

    #[test]
    fn mode_plumbing_and_names() {
        let mut e = engine();
        e.set_mode(EngineMode::Dense);
        assert_eq!(e.mode(), EngineMode::Dense);
        assert_eq!(EngineMode::Dense.name(), "dense");
        assert_eq!(EngineMode::Event.name(), "event");
        assert_eq!(EngineMode::default(), EngineMode::Event);
    }

    #[test]
    fn event_determinism_same_seed_same_trace() {
        let mut e1 = engine_in(EngineMode::Event);
        let mut e2 = engine_in(EngineMode::Event);
        let w = cpu_workload(0.7, 3.0);
        assert_eq!(e1.run(&w), e2.run(&w));
    }

    #[test]
    fn no_aie_means_software_fallback() {
        let cfg = SocConfig::builder("no-aie").aie(None).build().unwrap();
        let mut e = Engine::new(cfg, 3).unwrap();
        let mut d = Demand::idle();
        d.aie = Some(AieDemand::new(DspKernel::VideoDecode(Codec::H264), 0.9));
        let trace = e.run(&ConstantWorkload::new("video", 5.0, d));
        let cpu_util = mean_of(&trace, |s| {
            s.clusters.iter().map(|c| c.utilization).sum::<f64>()
        });
        assert!(cpu_util > 0.05, "software decode must load the CPU");
        assert_eq!(mean_of(&trace, |s| s.aie_load), 0.0);
    }
}
