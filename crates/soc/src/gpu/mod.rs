//! GPU modelling: graphics APIs, render targets, shader array and the
//! memory bus.
//!
//! The model captures the GPU effects the paper reports:
//!
//! * **API efficiency** — OpenGL ES benchmarks show ~9.26% higher GPU load
//!   than equivalent Vulkan ones (Observation #2);
//! * **On-screen vs off-screen** — on-screen rendering is vsync-paced and
//!   loses time to composition, so off-screen variants sustain higher load;
//!   the loss is larger for lighter scenes (paper: +14.5% for High-Level,
//!   +62.85% for Low-Level off-screen tests);
//! * **Texture pressure** — resident textures occupy shared L3/SLC capacity
//!   and memory bandwidth, degrading CPU IPC (the paper's cache-contention
//!   explanation for low graphics-benchmark IPC).

mod api;

pub use api::GraphicsApi;

use crate::config::GpuConfig;
use crate::freq::Governor;

/// Render resolution of a graphics test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// 1920×1080 (the attached display's native resolution).
    FullHd,
    /// 2560×1440 ("2K QHD"; used by GFXBench Manhattan off-screen).
    Qhd,
    /// 3840×2160 ("4K"; used by GFXBench Aztec Ruins off-screen).
    Uhd4K,
}

impl Resolution {
    /// Work multiplier relative to Full HD (sub-linear in pixel count:
    /// vertex and driver work do not scale with resolution).
    pub fn work_scale(self) -> f64 {
        match self {
            Resolution::FullHd => 1.0,
            Resolution::Qhd => 1.33,
            Resolution::Uhd4K => 1.80,
        }
    }

    /// Pixel count at this resolution.
    pub fn pixels(self) -> u64 {
        match self {
            Resolution::FullHd => 1920 * 1080,
            Resolution::Qhd => 2560 * 1440,
            Resolution::Uhd4K => 3840 * 2160,
        }
    }
}

/// Whether a test renders to the display or to an off-screen buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderTarget {
    /// Drawing goes to the display: vsync-paced, pays composition overhead.
    OnScreen,
    /// Drawing stays in memory: the GPU runs flat out.
    OffScreen,
}

/// GPU work demanded for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDemand {
    /// Graphics API the workload uses.
    pub api: GraphicsApi,
    /// Render resolution.
    pub resolution: Resolution,
    /// Render target (on-screen / off-screen).
    pub target: RenderTarget,
    /// Scene complexity in `[0, 1]`: the utilization the scene would demand
    /// rendered off-screen with Vulkan at Full HD.
    pub intensity: f64,
    /// Fraction of GPU work spent in shader ALUs (vs fixed-function).
    pub shader_fraction: f64,
    /// Fraction of GPU work that streams through the memory bus.
    pub bus_fraction: f64,
    /// Resident texture + render-target footprint in MiB.
    pub texture_mib: f64,
}

impl GpuDemand {
    /// A balanced on-screen Full-HD OpenGL scene at the given intensity.
    pub fn scene(intensity: f64) -> Self {
        GpuDemand {
            api: GraphicsApi::OpenGlEs,
            resolution: Resolution::FullHd,
            target: RenderTarget::OnScreen,
            intensity: intensity.clamp(0.0, 1.0),
            shader_fraction: 0.7,
            bus_fraction: 0.5,
            texture_mib: 600.0,
        }
    }

    /// A GPGPU compute dispatch (Geekbench-Compute-style): off-screen,
    /// shader-dominated, API-agnostic scheduling cost.
    pub fn compute(intensity: f64) -> Self {
        GpuDemand {
            api: GraphicsApi::Vulkan,
            resolution: Resolution::FullHd,
            target: RenderTarget::OffScreen,
            intensity: intensity.clamp(0.0, 1.0),
            shader_fraction: 0.92,
            bus_fraction: 0.35,
            texture_mib: 350.0,
        }
    }
}

/// Per-tick output of the GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTickResult {
    /// GPU utilization in `[0, 1]`.
    pub utilization: f64,
    /// GPU frequency in MHz.
    pub frequency_mhz: f64,
    /// Fraction of the tick during which *all* shader cores were busy.
    pub shaders_busy: f64,
    /// Fraction of the tick during which the GPU↔memory bus was busy.
    pub bus_busy: f64,
    /// Texture footprint resident in the shared caches, in KiB (drives
    /// CPU-side contention).
    pub cache_residency_kib: f64,
    /// Texture + framebuffer memory resident in DRAM, in MiB.
    pub memory_mib: f64,
    /// L1 texture-cache misses per tick (millions).
    pub l1_texture_misses_m: f64,
}

impl GpuTickResult {
    /// An idle GPU tick at the floor frequency.
    pub fn idle(frequency_mhz: f64) -> Self {
        GpuTickResult {
            utilization: 0.0,
            frequency_mhz,
            shaders_busy: 0.0,
            bus_busy: 0.0,
            cache_residency_kib: 0.0,
            memory_mib: 0.0,
            l1_texture_misses_m: 0.0,
        }
    }

    /// The paper's GPU Load metric: frequency × utilization, normalized to
    /// `[0, 1]` by the maximum frequency.
    pub fn load(&self, max_freq_mhz: f64) -> f64 {
        if max_freq_mhz <= 0.0 {
            return 0.0;
        }
        (self.frequency_mhz * self.utilization / max_freq_mhz).clamp(0.0, 1.0)
    }
}

/// On-screen rendering loses part of the tick to vsync pacing and
/// composition; lighter scenes idle longer between frames. The utilization
/// gain compounds with the DVFS frequency response into the *load* gain
/// the paper reports: ≈ +14.5% for heavy (High-Level) scenes and ≈ +62.9%
/// for lighter (Low-Level) scenes when run off-screen.
fn onscreen_sync_loss(intensity: f64) -> f64 {
    (0.04 + 0.30 * (1.0 - intensity)).clamp(0.0, 0.8)
}

/// Runtime model of the GPU.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
    governor: Governor,
}

impl Gpu {
    /// Build the runtime model from a validated configuration.
    pub fn new(config: GpuConfig) -> Self {
        let governor = Governor::for_range(config.min_freq_mhz, config.max_freq_mhz);
        Gpu { config, governor }
    }

    /// The GPU's static configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Execute the demanded GPU work for one tick.
    pub fn tick(&mut self, demand: Option<&GpuDemand>, _tick_seconds: f64) -> GpuTickResult {
        let Some(demand) = demand else {
            let f = self.governor.tick(0.0);
            return GpuTickResult::idle(f);
        };

        let base = demand.intensity.clamp(0.0, 1.0);
        let scaled = base * demand.api.load_factor() * demand.resolution.work_scale();
        let utilization = match demand.target {
            RenderTarget::OffScreen => scaled.min(1.0),
            RenderTarget::OnScreen => (scaled * (1.0 - onscreen_sync_loss(base))).min(1.0),
        };
        let frequency_mhz = self.governor.tick(utilization);

        let shaders_busy = (utilization * demand.shader_fraction.clamp(0.0, 1.0)).min(1.0);
        // Bus activity: explicit streaming traffic plus texture fetch
        // traffic proportional to the resident footprint.
        let texture_pressure = (demand.texture_mib / 1024.0).min(1.0);
        let bus_busy = (utilization * demand.bus_fraction.clamp(0.0, 1.0)
            + 0.25 * texture_pressure * utilization)
            .min(1.0);

        // Fraction of textures hot enough to squat in the shared caches.
        let cache_residency_kib =
            (demand.texture_mib * 1024.0 * 0.35 * utilization).min(7.0 * 1024.0 * 0.9);
        let memory_mib = demand.texture_mib * (0.6 + 0.4 * utilization);
        let l1_texture_misses_m =
            utilization * texture_pressure * self.config.shader_cores as f64 * 2.0;

        GpuTickResult {
            utilization,
            frequency_mhz,
            shaders_busy,
            bus_busy,
            cache_residency_kib,
            memory_mib,
            l1_texture_misses_m,
        }
    }

    /// Reset DVFS state between benchmark runs.
    pub fn reset(&mut self) {
        self.governor.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;

    fn gpu() -> Gpu {
        Gpu::new(SocConfig::snapdragon_888().gpu.unwrap())
    }

    fn run(gpu: &mut Gpu, demand: &GpuDemand, ticks: usize) -> GpuTickResult {
        let mut last = GpuTickResult::idle(0.0);
        for _ in 0..ticks {
            last = gpu.tick(Some(demand), 0.1);
        }
        last
    }

    #[test]
    fn idle_gpu_has_zero_utilization() {
        let mut g = gpu();
        let r = g.tick(None, 0.1);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.shaders_busy, 0.0);
    }

    #[test]
    fn opengl_loads_higher_than_vulkan() {
        let max_freq = gpu().config().max_freq_mhz;
        let mut g1 = gpu();
        let mut g2 = gpu();
        let mut gl = GpuDemand::scene(0.7);
        gl.api = GraphicsApi::OpenGlEs;
        let mut vk = gl;
        vk.api = GraphicsApi::Vulkan;
        let r_gl = run(&mut g1, &gl, 30);
        let r_vk = run(&mut g2, &vk, 30);
        // Paper: +9.26% GPU *load* for OpenGL (Observation #2); utilization
        // and the governor's frequency response both contribute.
        let load_ratio = r_gl.load(max_freq) / r_vk.load(max_freq);
        assert!(
            load_ratio > 1.03 && load_ratio < 1.20,
            "load ratio {load_ratio}"
        );
    }

    #[test]
    fn offscreen_gains_match_paper_shape() {
        let max_freq = gpu().config().max_freq_mhz;
        // Heavy (High-Level-like) scene: ≈ +14.5% load off-screen.
        let mut on = GpuDemand::scene(0.88);
        on.api = GraphicsApi::Vulkan;
        let mut off = on;
        off.target = RenderTarget::OffScreen;
        let r_on = run(&mut gpu(), &on, 30);
        let r_off = run(&mut gpu(), &off, 30);
        let heavy_gain = r_off.load(max_freq) / r_on.load(max_freq) - 1.0;
        assert!(
            (0.03..=0.30).contains(&heavy_gain),
            "heavy gain {heavy_gain}"
        );

        // Light (Low-Level-like) scene: ≈ +62.85% load off-screen.
        let mut on = GpuDemand::scene(0.45);
        on.api = GraphicsApi::Vulkan;
        let mut off = on;
        off.target = RenderTarget::OffScreen;
        let r_on = run(&mut gpu(), &on, 30);
        let r_off = run(&mut gpu(), &off, 30);
        let light_gain = r_off.load(max_freq) / r_on.load(max_freq) - 1.0;
        assert!(
            (0.30..=0.95).contains(&light_gain),
            "light gain {light_gain}"
        );
        assert!(light_gain > heavy_gain, "{light_gain} vs {heavy_gain}");
    }

    #[test]
    fn higher_resolution_raises_load() {
        let mut d = GpuDemand::scene(0.5);
        d.target = RenderTarget::OffScreen;
        let fhd = run(&mut gpu(), &d, 30);
        d.resolution = Resolution::Uhd4K;
        let uhd = run(&mut gpu(), &d, 30);
        assert!(uhd.utilization > fhd.utilization);
    }

    #[test]
    fn utilization_bounded() {
        let mut d = GpuDemand::scene(1.0);
        d.resolution = Resolution::Uhd4K;
        d.target = RenderTarget::OffScreen;
        let r = run(&mut gpu(), &d, 30);
        assert!(r.utilization <= 1.0);
        assert!(r.bus_busy <= 1.0);
        assert!(r.shaders_busy <= 1.0);
    }

    #[test]
    fn textures_create_cache_residency_and_memory() {
        let mut d = GpuDemand::scene(0.8);
        d.texture_mib = 1200.0;
        let r = run(&mut gpu(), &d, 30);
        assert!(r.cache_residency_kib > 100.0);
        assert!(r.memory_mib > 600.0);
        assert!(r.l1_texture_misses_m > 0.0);
    }

    #[test]
    fn dvfs_follows_load() {
        let mut g = gpu();
        let d = GpuDemand::scene(0.9);
        let first = g.tick(Some(&d), 0.1);
        let last = run(&mut g, &d, 40);
        assert!(last.frequency_mhz > first.frequency_mhz);
    }

    #[test]
    fn load_metric_normalized() {
        let r = GpuTickResult {
            utilization: 0.5,
            frequency_mhz: 420.0,
            shaders_busy: 0.0,
            bus_busy: 0.0,
            cache_residency_kib: 0.0,
            memory_mib: 0.0,
            l1_texture_misses_m: 0.0,
        };
        assert!((r.load(840.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn idle_ticks_at_the_fixpoint_repeat() {
        let mut g = gpu();
        g.tick(Some(&GpuDemand::scene(0.9)), 0.1);
        for _ in 0..200 {
            g.tick(None, 0.1);
        }
        let r1 = g.tick(None, 0.1);
        let r2 = g.tick(None, 0.1);
        assert_eq!(r1, r2, "idle ticks at the fixpoint are no-ops");
    }

    #[test]
    fn resolution_scales() {
        assert!(Resolution::Uhd4K.work_scale() > Resolution::Qhd.work_scale());
        assert!(Resolution::Qhd.work_scale() > Resolution::FullHd.work_scale());
        assert_eq!(Resolution::FullHd.pixels(), 2_073_600);
    }
}
