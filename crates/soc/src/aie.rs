//! AI-engine (AIE) model: a Hexagon-class DSP plus tensor accelerator.
//!
//! The AIE serves compute-intensive multimedia work (video, audio, image
//! processing), neural-network inference and classic DSP kernels. The model
//! exposes the paper-relevant behaviour:
//!
//! * per-kernel load levels (NN inference loads the engine far more than an
//!   FFT post-processing pass — Observation #5 finds an average AIE load of
//!   just 5% across all benchmarks);
//! * a video-codec support matrix: the Snapdragon 888 pipeline accelerates
//!   H.264/H.265/VP9 but not AV1, whose decoding therefore falls back to
//!   the CPU with a considerable CPU-load increase (§V-B).

use crate::config::AieConfig;
use crate::freq::Governor;

/// Video codecs appearing in the Antutu UX video tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// H.264 / AVC.
    H264,
    /// H.265 / HEVC.
    H265,
    /// Google VP9.
    Vp9,
    /// AOMedia AV1 (no fixed-function support on this SoC generation).
    Av1,
}

impl Codec {
    /// All codecs used by the Antutu UX video tests.
    pub const ALL: [Codec; 4] = [Codec::H264, Codec::H265, Codec::Vp9, Codec::Av1];

    /// Relative software-decode cost on the CPU (H.264 = 1.0). AV1 is by
    /// far the most expensive to decode in software.
    pub fn sw_decode_cost(self) -> f64 {
        match self {
            Codec::H264 => 1.0,
            Codec::H265 => 1.6,
            Codec::Vp9 => 1.5,
            Codec::Av1 => 2.6,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Codec::H264 => "H264",
            Codec::H265 => "H265",
            Codec::Vp9 => "VP9",
            Codec::Av1 => "AV1",
        }
    }
}

/// DSP / NN kernels the AIE can execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DspKernel {
    /// Fast Fourier transform (3DMark Wild Life post-processing,
    /// Antutu CPU math section).
    Fft,
    /// Low-precision GEMM (NN building block).
    GemmLowPrecision,
    /// PNG decode assist (Antutu CPU).
    PngDecode,
    /// Hardware video decode of the given codec (Antutu UX).
    VideoDecode(Codec),
    /// Hardware video encode of the given codec (PCMark Work video editing).
    VideoEncode(Codec),
    /// CNN image classification (Aitutu).
    ImageClassification,
    /// CNN object detection (Aitutu).
    ObjectDetection,
    /// NN super-resolution (Aitutu).
    SuperResolution,
    /// PSNR/MSE frame comparison (GFXBench Special render-quality tests).
    Psnr,
    /// Display-pipeline assist: scroll / webview rendering (Antutu UX).
    DisplayAssist,
}

impl DspKernel {
    /// Baseline AIE utilization the kernel demands at unit intensity.
    pub fn base_load(self) -> f64 {
        match self {
            DspKernel::Fft => 0.30,
            DspKernel::GemmLowPrecision => 0.45,
            DspKernel::PngDecode => 0.22,
            DspKernel::VideoDecode(_) => 0.48,
            DspKernel::VideoEncode(_) => 0.55,
            DspKernel::ImageClassification => 0.62,
            DspKernel::ObjectDetection => 0.70,
            DspKernel::SuperResolution => 0.78,
            DspKernel::Psnr => 0.85,
            DspKernel::DisplayAssist => 0.50,
        }
    }

    /// The codec involved, for video kernels.
    pub fn codec(self) -> Option<Codec> {
        match self {
            DspKernel::VideoDecode(c) | DspKernel::VideoEncode(c) => Some(c),
            _ => None,
        }
    }
}

/// AIE work demanded for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AieDemand {
    /// The kernel being offloaded.
    pub kernel: DspKernel,
    /// Intensity scale in `[0, 1]` applied to the kernel's base load.
    pub intensity: f64,
}

impl AieDemand {
    /// Demand the given kernel at the given intensity.
    pub fn new(kernel: DspKernel, intensity: f64) -> Self {
        AieDemand {
            kernel,
            intensity: intensity.clamp(0.0, 1.0),
        }
    }
}

/// Per-tick output of the AIE model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AieTickResult {
    /// AIE utilization in `[0, 1]`.
    pub utilization: f64,
    /// AIE frequency in MHz.
    pub frequency_mhz: f64,
    /// Demand that the AIE could *not* serve (unsupported codec) and that
    /// the engine must fall back to the CPU, expressed as equivalent CPU
    /// thread intensity.
    pub cpu_fallback_intensity: f64,
}

impl AieTickResult {
    /// An idle AIE tick at the floor frequency.
    pub fn idle(frequency_mhz: f64) -> Self {
        AieTickResult {
            utilization: 0.0,
            frequency_mhz,
            cpu_fallback_intensity: 0.0,
        }
    }

    /// The paper's AIE Load metric: frequency × utilization, normalized to
    /// `[0, 1]` by the maximum frequency.
    pub fn load(&self, max_freq_mhz: f64) -> f64 {
        if max_freq_mhz <= 0.0 {
            return 0.0;
        }
        (self.frequency_mhz * self.utilization / max_freq_mhz).clamp(0.0, 1.0)
    }
}

/// Runtime model of the AI engine.
#[derive(Debug, Clone)]
pub struct Aie {
    config: AieConfig,
    governor: Governor,
}

impl Aie {
    /// Build the runtime model from a validated configuration.
    pub fn new(config: AieConfig) -> Self {
        let governor = Governor::for_range(config.min_freq_mhz, config.max_freq_mhz);
        Aie { config, governor }
    }

    /// The AIE's static configuration.
    pub fn config(&self) -> &AieConfig {
        &self.config
    }

    /// Whether the fixed-function pipeline accelerates the given codec.
    pub fn supports(&self, codec: Codec) -> bool {
        self.config.supported_codecs.contains(&codec)
    }

    /// Execute the demanded kernel for one tick. Unsupported video codecs
    /// are rejected: the result carries the equivalent CPU intensity the
    /// engine must schedule as a software fallback.
    pub fn tick(&mut self, demand: Option<&AieDemand>, _tick_seconds: f64) -> AieTickResult {
        let Some(demand) = demand else {
            let f = self.governor.tick(0.0);
            return AieTickResult::idle(f);
        };

        if let Some(codec) = demand.kernel.codec() {
            if !self.supports(codec) {
                let f = self.governor.tick(0.0);
                return AieTickResult {
                    utilization: 0.0,
                    frequency_mhz: f,
                    cpu_fallback_intensity: (demand.intensity
                        * demand.kernel.base_load()
                        * codec.sw_decode_cost())
                    .min(1.0),
                };
            }
        }

        let utilization = (demand.kernel.base_load() * demand.intensity).min(1.0);
        let frequency_mhz = self.governor.tick(utilization);
        AieTickResult {
            utilization,
            frequency_mhz,
            cpu_fallback_intensity: 0.0,
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

    fn aie() -> Aie {
        Aie::new(SocConfig::snapdragon_888().aie.unwrap())
    }

    #[test]
    fn idle_aie() {
        let mut a = aie();
        let r = a.tick(None, 0.1);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.cpu_fallback_intensity, 0.0);
    }

    #[test]
    fn supported_codec_runs_on_aie() {
        let mut a = aie();
        let d = AieDemand::new(DspKernel::VideoDecode(Codec::H264), 1.0);
        let r = a.tick(Some(&d), 0.1);
        assert!(r.utilization > 0.0);
        assert_eq!(r.cpu_fallback_intensity, 0.0);
    }

    #[test]
    fn av1_falls_back_to_cpu() {
        let mut a = aie();
        let d = AieDemand::new(DspKernel::VideoDecode(Codec::Av1), 1.0);
        let r = a.tick(Some(&d), 0.1);
        assert_eq!(r.utilization, 0.0);
        assert!(
            r.cpu_fallback_intensity > 0.5,
            "AV1 software decode is expensive"
        );
    }

    #[test]
    fn av1_fallback_costlier_than_h264_would_be() {
        assert!(Codec::Av1.sw_decode_cost() > Codec::H265.sw_decode_cost());
        assert!(Codec::H265.sw_decode_cost() > Codec::H264.sw_decode_cost());
    }

    #[test]
    fn nn_kernels_load_more_than_dsp_kernels() {
        assert!(DspKernel::SuperResolution.base_load() > DspKernel::Fft.base_load());
        assert!(DspKernel::ObjectDetection.base_load() > DspKernel::PngDecode.base_load());
    }

    #[test]
    fn intensity_scales_utilization() {
        let mut a = aie();
        let full = a
            .tick(Some(&AieDemand::new(DspKernel::Fft, 1.0)), 0.1)
            .utilization;
        let mut a2 = aie();
        let half = a2
            .tick(Some(&AieDemand::new(DspKernel::Fft, 0.5)), 0.1)
            .utilization;
        assert!((full / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_metric_normalized() {
        let r = AieTickResult {
            utilization: 0.4,
            frequency_mhz: 500.0,
            cpu_fallback_intensity: 0.0,
        };
        assert!((r.load(1000.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dvfs_tracks_demand() {
        let mut a = aie();
        let d = AieDemand::new(DspKernel::ObjectDetection, 1.0);
        let first = a.tick(Some(&d), 0.1);
        let mut last = first;
        for _ in 0..40 {
            last = a.tick(Some(&d), 0.1);
        }
        assert!(last.frequency_mhz > first.frequency_mhz);
    }

    #[test]
    fn idle_ticks_at_the_fixpoint_repeat() {
        let mut a = aie();
        a.tick(Some(&AieDemand::new(DspKernel::ObjectDetection, 1.0)), 0.1);
        for _ in 0..200 {
            a.tick(None, 0.1);
        }
        let r1 = a.tick(None, 0.1);
        let r2 = a.tick(None, 0.1);
        assert_eq!(r1, r2, "idle ticks at the fixpoint are no-ops");
    }

    #[test]
    fn kernel_codec_accessor() {
        assert_eq!(DspKernel::VideoDecode(Codec::Vp9).codec(), Some(Codec::Vp9));
        assert_eq!(DspKernel::Fft.codec(), None);
    }
}
