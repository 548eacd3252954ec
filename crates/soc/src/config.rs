//! SoC configuration: the simulated equivalent of the paper's Table II.
//!
//! [`SocConfig::snapdragon_888`] reproduces the Qualcomm Snapdragon 888
//! Mobile Hardware Development Kit used by the paper: a tri-cluster Kryo 680
//! CPU (1 prime + 3 gold + 4 silver cores), 4 MB shared L3, 3 MB system-level
//! cache, an Adreno-660-class GPU, a Hexagon-780-class AI engine, 12 GB of
//! LPDDR5 and 256 GB of flash storage driving a Full-HD external display.
//!
//! Custom configurations are assembled with [`SocConfigBuilder`]; every
//! configuration is validated before an [`crate::engine::Engine`] accepts it.

use crate::cache::CacheConfig;
use crate::digest::Fnv1a;
use crate::error::SocError;

/// The role a CPU cluster plays in a big.LITTLE / DynamIQ topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClusterKind {
    /// Energy-efficient in-order cores (e.g. Cortex-A55).
    Little,
    /// Mid-tier out-of-order cores (e.g. Cortex-A78).
    Mid,
    /// The prime / maximum-performance core (e.g. Cortex-X1).
    Big,
}

impl ClusterKind {
    /// All cluster kinds in ascending performance order.
    pub const ALL: [ClusterKind; 3] = [ClusterKind::Little, ClusterKind::Mid, ClusterKind::Big];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            ClusterKind::Little => "CPU Little",
            ClusterKind::Mid => "CPU Mid",
            ClusterKind::Big => "CPU Big",
        }
    }
}

/// Configuration of one CPU core cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Marketing/model name of the core (e.g. "Kryo 680 Prime").
    pub model: String,
    /// Cluster role in the heterogeneous topology.
    pub kind: ClusterKind,
    /// Number of identical cores in the cluster.
    pub cores: usize,
    /// Maximum operating frequency in MHz.
    pub max_freq_mhz: f64,
    /// Minimum operating frequency in MHz.
    pub min_freq_mhz: f64,
    /// L1 instruction cache per core, in KiB.
    pub l1i_kib: u32,
    /// L1 data cache per core, in KiB.
    pub l1d_kib: u32,
    /// Private L2 cache per core, in KiB.
    pub l2_kib: u32,
    /// Sustainable micro-op issue width of the pipeline.
    pub issue_width: f64,
    /// Quality of the branch predictor in `[0, 1]`; 1.0 is a perfect
    /// predictor. Bigger out-of-order cores ship better predictors.
    pub branch_predictor_quality: f64,
}

impl ClusterConfig {
    fn validate(&self) -> Result<(), SocError> {
        if self.cores == 0 {
            return Err(SocError::InvalidConfig(format!(
                "cluster '{}' has zero cores",
                self.model
            )));
        }
        if !(self.min_freq_mhz > 0.0 && self.max_freq_mhz >= self.min_freq_mhz) {
            return Err(SocError::InvalidConfig(format!(
                "cluster '{}' frequency range [{}, {}] MHz is invalid",
                self.model, self.min_freq_mhz, self.max_freq_mhz
            )));
        }
        if self.issue_width < 1.0 {
            return Err(SocError::InvalidConfig(format!(
                "cluster '{}' issue width {} < 1",
                self.model, self.issue_width
            )));
        }
        if !(0.0..=1.0).contains(&self.branch_predictor_quality) {
            return Err(SocError::InvalidConfig(format!(
                "cluster '{}' branch predictor quality {} outside [0, 1]",
                self.model, self.branch_predictor_quality
            )));
        }
        if self.l1i_kib == 0 || self.l1d_kib == 0 || self.l2_kib == 0 {
            return Err(SocError::InvalidConfig(format!(
                "cluster '{}' has a zero-sized cache",
                self.model
            )));
        }
        Ok(())
    }
}

/// Configuration of the GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing/model name (e.g. "Adreno 660").
    pub model: String,
    /// Number of shader processor clusters.
    pub shader_cores: usize,
    /// Maximum GPU frequency in MHz.
    pub max_freq_mhz: f64,
    /// Minimum GPU frequency in MHz.
    pub min_freq_mhz: f64,
    /// Peak memory-bus bandwidth available to the GPU, in GB/s.
    pub bus_bandwidth_gbps: f64,
    /// Texture / L1 texture cache per shader core, in KiB.
    pub texture_cache_kib: u32,
}

impl GpuConfig {
    fn validate(&self) -> Result<(), SocError> {
        if self.shader_cores == 0 {
            return Err(SocError::InvalidConfig("GPU has zero shader cores".into()));
        }
        if !(self.min_freq_mhz > 0.0 && self.max_freq_mhz >= self.min_freq_mhz) {
            return Err(SocError::InvalidConfig(
                "GPU frequency range invalid".into(),
            ));
        }
        if self.bus_bandwidth_gbps <= 0.0 {
            return Err(SocError::InvalidConfig(
                "GPU bus bandwidth must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of the AI engine (DSP + tensor accelerator).
#[derive(Debug, Clone, PartialEq)]
pub struct AieConfig {
    /// Marketing/model name (e.g. "Hexagon 780").
    pub model: String,
    /// Maximum AIE frequency in MHz.
    pub max_freq_mhz: f64,
    /// Minimum AIE frequency in MHz.
    pub min_freq_mhz: f64,
    /// Peak throughput in TOPS, used to scale kernel intensities.
    pub peak_tops: f64,
    /// Video codecs the fixed-function/DSP pipeline can accelerate.
    ///
    /// The Snapdragon 888 accelerates H.264, H.265 and VP9 but *not* AV1;
    /// unsupported codecs fall back to the CPU (paper §V-B).
    pub supported_codecs: Vec<crate::aie::Codec>,
}

impl AieConfig {
    fn validate(&self) -> Result<(), SocError> {
        if !(self.min_freq_mhz > 0.0 && self.max_freq_mhz >= self.min_freq_mhz) {
            return Err(SocError::InvalidConfig(
                "AIE frequency range invalid".into(),
            ));
        }
        if self.peak_tops <= 0.0 {
            return Err(SocError::InvalidConfig(
                "AIE peak TOPS must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of system DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Memory technology label (e.g. "LPDDR5").
    pub technology: String,
    /// Total capacity in MiB.
    pub capacity_mib: f64,
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Memory resident for the OS and idle services, in MiB. The paper
    /// measures idle usage and subtracts it from all process-specific
    /// numbers (Limitations §IV-A item 3).
    pub os_baseline_mib: f64,
}

impl MemoryConfig {
    fn validate(&self) -> Result<(), SocError> {
        if self.capacity_mib <= 0.0 {
            return Err(SocError::InvalidConfig(
                "memory capacity must be positive".into(),
            ));
        }
        if self.os_baseline_mib < 0.0 || self.os_baseline_mib >= self.capacity_mib {
            return Err(SocError::InvalidConfig(
                "OS baseline memory must be in [0, capacity)".into(),
            ));
        }
        if self.bandwidth_gbps <= 0.0 {
            return Err(SocError::InvalidConfig(
                "memory bandwidth must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of the flash storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Storage technology label (e.g. "UFS 3.1").
    pub technology: String,
    /// Capacity in GiB.
    pub capacity_gib: f64,
    /// Peak sequential read bandwidth in MB/s.
    pub seq_read_mbps: f64,
    /// Peak sequential write bandwidth in MB/s.
    pub seq_write_mbps: f64,
    /// Peak random read throughput in MB/s.
    pub rand_read_mbps: f64,
    /// Peak random write throughput in MB/s.
    pub rand_write_mbps: f64,
}

impl StorageConfig {
    fn validate(&self) -> Result<(), SocError> {
        if self.capacity_gib <= 0.0 {
            return Err(SocError::InvalidConfig(
                "storage capacity must be positive".into(),
            ));
        }
        for (label, v) in [
            ("sequential read", self.seq_read_mbps),
            ("sequential write", self.seq_write_mbps),
            ("random read", self.rand_read_mbps),
            ("random write", self.rand_write_mbps),
        ] {
            if v <= 0.0 {
                return Err(SocError::InvalidConfig(format!(
                    "storage {label} bandwidth must be positive"
                )));
            }
        }
        Ok(())
    }
}

/// Configuration of the attached display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplayConfig {
    /// Horizontal resolution in pixels.
    pub width: u32,
    /// Vertical resolution in pixels.
    pub height: u32,
    /// Refresh rate in Hz; on-screen graphics tests are vsync-capped at
    /// this rate.
    pub refresh_hz: u32,
}

impl DisplayConfig {
    /// Total pixel count of the panel.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    fn validate(&self) -> Result<(), SocError> {
        if self.width == 0 || self.height == 0 || self.refresh_hz == 0 {
            return Err(SocError::InvalidConfig(
                "display dimensions must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Complete configuration of a simulated mobile SoC platform.
///
/// Mirrors the paper's Table II. Construct presets with
/// [`SocConfig::snapdragon_888`] or custom platforms with
/// [`SocConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Platform name (e.g. "Qualcomm Snapdragon 888 Mobile HDK").
    pub name: String,
    /// CPU clusters, conventionally ordered little → mid → big.
    pub clusters: Vec<ClusterConfig>,
    /// Shared L3 cache serving all CPU clusters.
    pub l3: CacheConfig,
    /// System-level cache accessible by all SoC components.
    pub slc: CacheConfig,
    /// GPU configuration; `None` builds a headless CPU-only platform.
    pub gpu: Option<GpuConfig>,
    /// AI engine configuration; `None` removes the AIE (unsupported DSP
    /// work then falls back to the CPU).
    pub aie: Option<AieConfig>,
    /// System DRAM.
    pub memory: MemoryConfig,
    /// Flash storage.
    pub storage: StorageConfig,
    /// Attached display.
    pub display: DisplayConfig,
}

impl SocConfig {
    /// The platform of the paper's Table II: a Snapdragon 888 Mobile
    /// Hardware Development Kit with an external Full-HD display.
    pub fn snapdragon_888() -> Self {
        SocConfig {
            name: "Qualcomm Snapdragon 888 Mobile Hardware Development Kit".to_owned(),
            clusters: vec![
                ClusterConfig {
                    model: "Kryo 680 Silver (Cortex-A55)".to_owned(),
                    kind: ClusterKind::Little,
                    cores: 4,
                    max_freq_mhz: 1800.0,
                    min_freq_mhz: 300.0,
                    l1i_kib: 32,
                    l1d_kib: 32,
                    l2_kib: 128,
                    issue_width: 2.0,
                    branch_predictor_quality: 0.90,
                },
                ClusterConfig {
                    model: "Kryo 680 Gold (Cortex-A78)".to_owned(),
                    kind: ClusterKind::Mid,
                    cores: 3,
                    max_freq_mhz: 2420.0,
                    min_freq_mhz: 710.0,
                    l1i_kib: 64,
                    l1d_kib: 64,
                    l2_kib: 512,
                    issue_width: 4.0,
                    branch_predictor_quality: 0.95,
                },
                ClusterConfig {
                    model: "Kryo 680 Prime (Cortex-X1)".to_owned(),
                    kind: ClusterKind::Big,
                    cores: 1,
                    max_freq_mhz: 3000.0,
                    min_freq_mhz: 840.0,
                    l1i_kib: 64,
                    l1d_kib: 64,
                    l2_kib: 1024,
                    issue_width: 8.0,
                    branch_predictor_quality: 0.97,
                },
            ],
            l3: CacheConfig::new("L3", 4 * 1024),
            slc: CacheConfig::new("SLC", 3 * 1024),
            gpu: Some(GpuConfig {
                model: "Adreno 660".to_owned(),
                shader_cores: 3,
                max_freq_mhz: 840.0,
                min_freq_mhz: 315.0,
                bus_bandwidth_gbps: 51.2,
                texture_cache_kib: 128,
            }),
            aie: Some(AieConfig {
                model: "Hexagon 780".to_owned(),
                max_freq_mhz: 1000.0,
                min_freq_mhz: 300.0,
                peak_tops: 26.0,
                supported_codecs: vec![
                    crate::aie::Codec::H264,
                    crate::aie::Codec::H265,
                    crate::aie::Codec::Vp9,
                ],
            }),
            memory: MemoryConfig {
                technology: "LPDDR5".to_owned(),
                capacity_mib: 12.0 * 1024.0,
                bandwidth_gbps: 51.2,
                // 11.83 GiB visible; the paper reports an average usage of
                // 21.6% = 2.55 GiB including active workloads, with the idle
                // OS baseline around 1.4 GiB on Android 11.
                os_baseline_mib: 1433.6,
            },
            storage: StorageConfig {
                technology: "UFS 3.1".to_owned(),
                capacity_gib: 256.0,
                seq_read_mbps: 2100.0,
                seq_write_mbps: 1200.0,
                rand_read_mbps: 320.0,
                rand_write_mbps: 280.0,
            },
            display: DisplayConfig {
                width: 1920,
                height: 1080,
                refresh_hz: 60,
            },
        }
    }

    /// Start building a custom SoC from scratch.
    pub fn builder(name: impl Into<String>) -> SocConfigBuilder {
        SocConfigBuilder::new(name)
    }

    /// Total number of CPU cores across all clusters.
    pub fn total_cores(&self) -> usize {
        self.clusters.iter().map(|c| c.cores).sum()
    }

    /// Look up the cluster with the given role, if present.
    pub fn cluster(&self, kind: ClusterKind) -> Option<&ClusterConfig> {
        self.clusters.iter().find(|c| c.kind == kind)
    }

    /// A stable fingerprint of the whole platform for content-addressed
    /// result caching: FNV-1a over every field — integers as they are,
    /// floats by their bits, each string and the cluster and codec lists
    /// with their length in front, and each optional component with a
    /// presence tag. Any change to any knob — a frequency, a cache size,
    /// adding or removing a component — yields a different digest. Every
    /// struct is destructured without `..`, so a field added to the model
    /// does not compile until it is hashed here.
    pub fn content_digest(&self) -> u64 {
        let SocConfig {
            name,
            clusters,
            l3,
            slc,
            gpu,
            aie,
            memory,
            storage,
            display,
        } = self;
        let mut h = Fnv1a::new();
        h.write_str(name);
        h.write_usize(clusters.len());
        for cluster in clusters {
            let ClusterConfig {
                model,
                kind,
                cores,
                max_freq_mhz,
                min_freq_mhz,
                l1i_kib,
                l1d_kib,
                l2_kib,
                issue_width,
                branch_predictor_quality,
            } = cluster;
            h.write_str(model);
            h.write_u64(*kind as u64);
            h.write_usize(*cores);
            h.write_f64(*max_freq_mhz);
            h.write_f64(*min_freq_mhz);
            for kib in [l1i_kib, l1d_kib, l2_kib] {
                h.write_u64(u64::from(*kib));
            }
            h.write_f64(*issue_width);
            h.write_f64(*branch_predictor_quality);
        }
        for cache in [l3, slc] {
            let CacheConfig {
                name: level,
                size_kib,
            } = cache;
            h.write_str(level);
            h.write_u64(u64::from(*size_kib));
        }
        h.write_bool(gpu.is_some());
        if let Some(GpuConfig {
            model,
            shader_cores,
            max_freq_mhz,
            min_freq_mhz,
            bus_bandwidth_gbps,
            texture_cache_kib,
        }) = gpu
        {
            h.write_str(model);
            h.write_usize(*shader_cores);
            for v in [max_freq_mhz, min_freq_mhz, bus_bandwidth_gbps] {
                h.write_f64(*v);
            }
            h.write_u64(u64::from(*texture_cache_kib));
        }
        h.write_bool(aie.is_some());
        if let Some(AieConfig {
            model,
            max_freq_mhz,
            min_freq_mhz,
            peak_tops,
            supported_codecs,
        }) = aie
        {
            h.write_str(model);
            for v in [max_freq_mhz, min_freq_mhz, peak_tops] {
                h.write_f64(*v);
            }
            h.write_usize(supported_codecs.len());
            for codec in supported_codecs {
                h.write_u64(*codec as u64);
            }
        }
        let MemoryConfig {
            technology,
            capacity_mib,
            bandwidth_gbps,
            os_baseline_mib,
        } = memory;
        h.write_str(technology);
        for v in [capacity_mib, bandwidth_gbps, os_baseline_mib] {
            h.write_f64(*v);
        }
        let StorageConfig {
            technology,
            capacity_gib,
            seq_read_mbps,
            seq_write_mbps,
            rand_read_mbps,
            rand_write_mbps,
        } = storage;
        h.write_str(technology);
        for v in [
            capacity_gib,
            seq_read_mbps,
            seq_write_mbps,
            rand_read_mbps,
            rand_write_mbps,
        ] {
            h.write_f64(*v);
        }
        let DisplayConfig {
            width,
            height,
            refresh_hz,
        } = display;
        for v in [width, height, refresh_hz] {
            h.write_u64(u64::from(*v));
        }
        h.finish()
    }

    /// Validate all fields; [`crate::engine::Engine::new`] calls this.
    pub fn validate(&self) -> Result<(), SocError> {
        if self.clusters.is_empty() {
            return Err(SocError::InvalidConfig("cluster list is empty".into()));
        }
        for c in &self.clusters {
            c.validate()?;
        }
        let mut kinds: Vec<ClusterKind> = self.clusters.iter().map(|c| c.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        if kinds.len() != self.clusters.len() {
            return Err(SocError::InvalidConfig(
                "duplicate cluster kinds; each of little/mid/big may appear at most once".into(),
            ));
        }
        self.l3.validate().map_err(SocError::InvalidConfig)?;
        self.slc.validate().map_err(SocError::InvalidConfig)?;
        if let Some(gpu) = &self.gpu {
            gpu.validate()?;
        }
        if let Some(aie) = &self.aie {
            aie.validate()?;
        }
        self.memory.validate()?;
        self.storage.validate()?;
        self.display.validate()?;
        Ok(())
    }
}

/// Builder for [`SocConfig`].
///
/// Starts from a minimal valid single-cluster platform; every component can
/// be replaced. The terminal [`build`](SocConfigBuilder::build) validates
/// the result.
///
/// ```
/// use mwc_soc::config::{ClusterConfig, ClusterKind, SocConfig};
///
/// let soc = SocConfig::builder("test-soc")
///     .cluster(ClusterConfig {
///         model: "TestCore".into(),
///         kind: ClusterKind::Little,
///         cores: 4,
///         max_freq_mhz: 2000.0,
///         min_freq_mhz: 500.0,
///         l1i_kib: 32,
///         l1d_kib: 32,
///         l2_kib: 256,
///         issue_width: 2.0,
///         branch_predictor_quality: 0.9,
///     })
///     .build()?;
/// assert_eq!(soc.total_cores(), 4);
/// # Ok::<(), mwc_soc::error::SocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SocConfigBuilder {
    config: SocConfig,
    cleared_clusters: bool,
}

impl SocConfigBuilder {
    fn new(name: impl Into<String>) -> Self {
        let mut config = SocConfig::snapdragon_888();
        config.name = name.into();
        SocConfigBuilder {
            config,
            cleared_clusters: false,
        }
    }

    /// Add a CPU cluster. The first call replaces the preset's cluster
    /// list; subsequent calls append.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        if !self.cleared_clusters {
            self.config.clusters.clear();
            self.cleared_clusters = true;
        }
        self.config.clusters.push(cluster);
        self
    }

    /// Replace the shared L3 cache.
    pub fn l3(mut self, l3: CacheConfig) -> Self {
        self.config.l3 = l3;
        self
    }

    /// Replace the system-level cache.
    pub fn slc(mut self, slc: CacheConfig) -> Self {
        self.config.slc = slc;
        self
    }

    /// Replace (or remove, with `None`) the GPU.
    pub fn gpu(mut self, gpu: Option<GpuConfig>) -> Self {
        self.config.gpu = gpu;
        self
    }

    /// Replace (or remove, with `None`) the AI engine.
    pub fn aie(mut self, aie: Option<AieConfig>) -> Self {
        self.config.aie = aie;
        self
    }

    /// Replace the DRAM configuration.
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.config.memory = memory;
        self
    }

    /// Replace the storage configuration.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.config.storage = storage;
        self
    }

    /// Replace the display configuration.
    pub fn display(mut self, display: DisplayConfig) -> Self {
        self.config.display = display;
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<SocConfig, SocError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapdragon_888_matches_table_2() {
        let soc = SocConfig::snapdragon_888();
        soc.validate().expect("preset must validate");
        assert_eq!(soc.total_cores(), 8);
        let big = soc.cluster(ClusterKind::Big).unwrap();
        assert_eq!(big.cores, 1);
        assert_eq!(big.max_freq_mhz, 3000.0);
        assert_eq!(big.l2_kib, 1024);
        let mid = soc.cluster(ClusterKind::Mid).unwrap();
        assert_eq!(mid.cores, 3);
        assert_eq!(mid.max_freq_mhz, 2420.0);
        assert_eq!(mid.l2_kib, 512);
        let little = soc.cluster(ClusterKind::Little).unwrap();
        assert_eq!(little.cores, 4);
        assert_eq!(little.max_freq_mhz, 1800.0);
        assert_eq!(little.l2_kib, 128);
        assert_eq!(soc.l3.size_kib, 4096);
        assert_eq!(soc.slc.size_kib, 3072);
        assert_eq!(soc.memory.capacity_mib, 12.0 * 1024.0);
        assert_eq!(soc.display.pixels(), 1920 * 1080);
    }

    #[test]
    fn aie_does_not_support_av1() {
        let soc = SocConfig::snapdragon_888();
        let aie = soc.aie.unwrap();
        assert!(aie.supported_codecs.contains(&crate::aie::Codec::H264));
        assert!(aie.supported_codecs.contains(&crate::aie::Codec::H265));
        assert!(aie.supported_codecs.contains(&crate::aie::Codec::Vp9));
        assert!(!aie.supported_codecs.contains(&crate::aie::Codec::Av1));
    }

    #[test]
    fn builder_replaces_clusters() {
        let soc = SocConfig::builder("mono")
            .cluster(ClusterConfig {
                model: "OnlyCore".into(),
                kind: ClusterKind::Big,
                cores: 2,
                max_freq_mhz: 2500.0,
                min_freq_mhz: 500.0,
                l1i_kib: 64,
                l1d_kib: 64,
                l2_kib: 512,
                issue_width: 6.0,
                branch_predictor_quality: 0.96,
            })
            .build()
            .unwrap();
        assert_eq!(soc.clusters.len(), 1);
        assert_eq!(soc.total_cores(), 2);
    }

    #[test]
    fn rejects_empty_clusters() {
        let mut soc = SocConfig::snapdragon_888();
        soc.clusters.clear();
        assert!(matches!(soc.validate(), Err(SocError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_duplicate_cluster_kinds() {
        let mut soc = SocConfig::snapdragon_888();
        let dup = soc.clusters[0].clone();
        soc.clusters.push(dup);
        assert!(soc.validate().is_err());
    }

    #[test]
    fn rejects_inverted_frequency_range() {
        let mut soc = SocConfig::snapdragon_888();
        soc.clusters[0].min_freq_mhz = 4000.0;
        assert!(soc.validate().is_err());
    }

    #[test]
    fn rejects_zero_core_cluster() {
        let mut soc = SocConfig::snapdragon_888();
        soc.clusters[1].cores = 0;
        assert!(soc.validate().is_err());
    }

    #[test]
    fn rejects_os_baseline_above_capacity() {
        let mut soc = SocConfig::snapdragon_888();
        soc.memory.os_baseline_mib = soc.memory.capacity_mib + 1.0;
        assert!(soc.validate().is_err());
    }

    #[test]
    fn headless_soc_is_valid() {
        let soc = SocConfig::builder("headless")
            .gpu(None)
            .aie(None)
            .build()
            .unwrap();
        assert!(soc.gpu.is_none());
        assert!(soc.aie.is_none());
    }

    fn gpu(soc: &mut SocConfig) -> &mut GpuConfig {
        soc.gpu.as_mut().expect("the preset has a GPU")
    }

    fn aie(soc: &mut SocConfig) -> &mut AieConfig {
        soc.aie.as_mut().expect("the preset has an AIE")
    }

    #[test]
    fn every_field_reaches_the_content_digest() {
        type Edit<T> = (&'static str, fn(&mut T));
        let cluster_edits: [Edit<ClusterConfig>; 10] = [
            ("model", |c| c.model.push('!')),
            ("kind", |c| {
                c.kind = match c.kind {
                    ClusterKind::Big => ClusterKind::Little,
                    _ => ClusterKind::Big,
                }
            }),
            ("cores", |c| c.cores += 1),
            ("max_freq_mhz", |c| c.max_freq_mhz += 1.0),
            ("min_freq_mhz", |c| c.min_freq_mhz += 1.0),
            ("l1i_kib", |c| c.l1i_kib += 1),
            ("l1d_kib", |c| c.l1d_kib += 1),
            ("l2_kib", |c| c.l2_kib += 1),
            ("issue_width", |c| c.issue_width += 1.0),
            ("branch_predictor_quality", |c| {
                c.branch_predictor_quality -= 0.01
            }),
        ];
        let soc_edits: [Edit<SocConfig>; 35] = [
            ("name", |s| s.name.push('!')),
            ("add a cluster", |s| s.clusters.push(s.clusters[0].clone())),
            ("remove a cluster", |s| s.clusters.truncate(2)),
            ("l3.name", |s| s.l3.name.push('!')),
            ("l3.size_kib", |s| s.l3.size_kib += 1),
            ("slc.name", |s| s.slc.name.push('!')),
            ("slc.size_kib", |s| s.slc.size_kib += 1),
            ("remove the GPU", |s| s.gpu = None),
            ("gpu.model", |s| gpu(s).model.push('!')),
            ("gpu.shader_cores", |s| gpu(s).shader_cores += 1),
            ("gpu.max_freq_mhz", |s| gpu(s).max_freq_mhz += 1.0),
            ("gpu.min_freq_mhz", |s| gpu(s).min_freq_mhz += 1.0),
            ("gpu.bus_bandwidth_gbps", |s| {
                gpu(s).bus_bandwidth_gbps += 1.0
            }),
            ("gpu.texture_cache_kib", |s| gpu(s).texture_cache_kib += 1),
            ("remove the AIE", |s| s.aie = None),
            ("aie.model", |s| aie(s).model.push('!')),
            ("aie.max_freq_mhz", |s| aie(s).max_freq_mhz += 1.0),
            ("aie.min_freq_mhz", |s| aie(s).min_freq_mhz += 1.0),
            ("aie.peak_tops", |s| aie(s).peak_tops += 1.0),
            ("drop a codec", |s| {
                aie(s).supported_codecs.pop();
            }),
            ("add a codec", |s| {
                aie(s).supported_codecs.push(crate::aie::Codec::Av1)
            }),
            ("change a codec", |s| {
                aie(s).supported_codecs[0] = crate::aie::Codec::Av1
            }),
            ("memory.technology", |s| s.memory.technology.push('!')),
            ("memory.capacity_mib", |s| s.memory.capacity_mib += 1.0),
            ("memory.bandwidth_gbps", |s| s.memory.bandwidth_gbps += 1.0),
            ("memory.os_baseline_mib", |s| {
                s.memory.os_baseline_mib += 1.0
            }),
            ("storage.technology", |s| s.storage.technology.push('!')),
            ("storage.capacity_gib", |s| s.storage.capacity_gib += 1.0),
            ("storage.seq_read_mbps", |s| s.storage.seq_read_mbps += 1.0),
            ("storage.seq_write_mbps", |s| {
                s.storage.seq_write_mbps += 1.0
            }),
            ("storage.rand_read_mbps", |s| {
                s.storage.rand_read_mbps += 1.0
            }),
            ("storage.rand_write_mbps", |s| {
                s.storage.rand_write_mbps += 1.0
            }),
            ("display.width", |s| s.display.width += 1),
            ("display.height", |s| s.display.height += 1),
            ("display.refresh_hz", |s| s.display.refresh_hz += 1),
        ];

        let base = SocConfig::snapdragon_888();
        let mut seen = std::collections::HashSet::from([base.content_digest()]);
        let mut moves = |label: &str, soc: &SocConfig| {
            assert!(
                seen.insert(soc.content_digest()),
                "changing {label} left the digest on one already seen"
            );
        };
        for i in 0..base.clusters.len() {
            for (field, edit) in cluster_edits {
                let mut soc = base.clone();
                edit(&mut soc.clusters[i]);
                moves(&format!("clusters[{i}].{field}"), &soc);
            }
        }
        for (label, edit) in soc_edits {
            let mut soc = base.clone();
            edit(&mut soc);
            moves(label, &soc);
        }
    }

    #[test]
    fn rejects_bad_branch_predictor_quality() {
        let mut soc = SocConfig::snapdragon_888();
        soc.clusters[2].branch_predictor_quality = 1.5;
        assert!(soc.validate().is_err());
    }
}
