//! The benchmark registry: Table I's suite inventory, the 41 individually
//! executable sub-benchmarks and the paper's 18 characterization units.

use std::sync::OnceLock;

use mwc_soc::workload::Workload;

use crate::phase::PhasedWorkload;
use crate::suites::{aitutu, antutu, geekbench5, geekbench6, gfxbench, pcmark, threedmark};

/// The commercial suites analyzed (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// 3DMark Android v2 (UL).
    ThreeDMark,
    /// Antutu v9 (Cheetah Mobile).
    Antutu,
    /// Aitutu v2.
    Aitutu,
    /// Geekbench 5 (Primate Labs).
    Geekbench5,
    /// Geekbench 6 (Primate Labs).
    Geekbench6,
    /// GFXBench v5 (Kishonti).
    GfxBench,
    /// PCMark Android (UL).
    PcMark,
}

impl Suite {
    /// All suites, in Table I order.
    pub const ALL: [Suite; 7] = [
        Suite::ThreeDMark,
        Suite::Antutu,
        Suite::Aitutu,
        Suite::Geekbench5,
        Suite::Geekbench6,
        Suite::GfxBench,
        Suite::PcMark,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::ThreeDMark => "3DMark v2",
            Suite::Antutu => "Antutu v9",
            Suite::Aitutu => "Aitutu v2",
            Suite::Geekbench5 => "Geekbench 5",
            Suite::Geekbench6 => "Geekbench 6",
            Suite::GfxBench => "GFXBench v5",
            Suite::PcMark => "PCMark",
        }
    }

    /// Publisher, as listed in §III.
    pub fn publisher(self) -> &'static str {
        match self {
            Suite::ThreeDMark | Suite::PcMark => "UL",
            Suite::Antutu | Suite::Aitutu => "Cheetah Mobile",
            Suite::Geekbench5 | Suite::Geekbench6 => "Primate Labs",
            Suite::GfxBench => "Kishonti",
        }
    }
}

/// One row of Table I: a named benchmark within a suite and the hardware
/// or workload it targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryRow {
    /// The suite the benchmark belongs to.
    pub suite: Suite,
    /// Benchmark name within the suite.
    pub benchmark: &'static str,
    /// Targeted hardware / workload description.
    pub target: &'static str,
}

/// The suite inventory of Table I.
pub fn suite_inventory() -> Vec<InventoryRow> {
    let row = |suite, benchmark, target| InventoryRow {
        suite,
        benchmark,
        target,
    };
    vec![
        row(Suite::ThreeDMark, "Slingshot", "GPU"),
        row(Suite::ThreeDMark, "Slingshot Extreme", "GPU"),
        row(Suite::ThreeDMark, "Wild Life", "GPU"),
        row(Suite::ThreeDMark, "Wild Life Extreme", "GPU"),
        row(Suite::Antutu, "CPU", "CPU"),
        row(Suite::Antutu, "GPU", "GPU"),
        row(Suite::Antutu, "Mem", "Memory subsystem"),
        row(
            Suite::Antutu,
            "UX",
            "Everyday tasks (e.g., data/image processing, video decoding)",
        ),
        row(Suite::Aitutu, "-", "AI-related tasks"),
        row(Suite::Geekbench5, "CPU", "CPU"),
        row(Suite::Geekbench5, "Compute", "GPU"),
        row(Suite::Geekbench6, "CPU", "CPU"),
        row(Suite::Geekbench6, "Compute", "GPU"),
        row(
            Suite::GfxBench,
            "High Level",
            "GPU (overall graphics performance)",
        ),
        row(
            Suite::GfxBench,
            "Low Level",
            "GPU (specific graphics performance, e.g., tessellation)",
        ),
        row(
            Suite::GfxBench,
            "Stress Test",
            "GPU (render quality performance)",
        ),
        row(Suite::PcMark, "Storage 2.0", "Storage subsystem"),
        row(
            Suite::PcMark,
            "Work 3.0",
            "Everyday activities (e.g. browsing, video/photo editing)",
        ),
    ]
}

/// Ground-truth behavioural family of a unit — the five clusters of
/// Figures 5/6, used to label Figure 1 and validate the clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterLabel {
    /// Everyday/mixed workloads and the storage-centric tests
    /// (PCMark Storage/Work, Antutu CPU/Mem/UX).
    Mixed,
    /// CPU-centric multi-core benchmarks (Geekbench CPU, Aitutu).
    Cpu,
    /// Light/feature-level graphics (GFXBench Low, Special).
    LightGraphics,
    /// Intense game-like graphics (3DMark, GFXBench High, Antutu GPU).
    IntenseGraphics,
    /// GPGPU compute (Geekbench Compute).
    GpuCompute,
}

impl ClusterLabel {
    /// All labels in a fixed order.
    pub const ALL: [ClusterLabel; 5] = [
        ClusterLabel::Mixed,
        ClusterLabel::Cpu,
        ClusterLabel::LightGraphics,
        ClusterLabel::IntenseGraphics,
        ClusterLabel::GpuCompute,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterLabel::Mixed => "Everyday/Mixed",
            ClusterLabel::Cpu => "CPU-centric",
            ClusterLabel::LightGraphics => "Light graphics",
            ClusterLabel::IntenseGraphics => "Intense graphics",
            ClusterLabel::GpuCompute => "GPU compute",
        }
    }
}

/// One of the paper's 18 characterization units.
#[derive(Debug)]
pub struct BenchmarkUnit {
    /// Unit name as it appears in the paper's figures.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Ground-truth behavioural family.
    pub label: ClusterLabel,
    /// The executable workload model.
    pub workload: PhasedWorkload,
}

impl BenchmarkUnit {
    /// Runtime of the unit in seconds.
    pub fn runtime_seconds(&self) -> f64 {
        self.workload.duration_seconds()
    }
}

/// The 18 characterization units in the paper's fixed order, built once
/// per process.
pub fn all_units() -> &'static [BenchmarkUnit] {
    static UNITS: OnceLock<Vec<BenchmarkUnit>> = OnceLock::new();
    UNITS.get_or_init(build_units)
}

fn build_units() -> Vec<BenchmarkUnit> {
    let unit = |name, suite, label, workload| BenchmarkUnit {
        name,
        suite,
        label,
        workload,
    };
    vec![
        unit(
            "3DMark Slingshot",
            Suite::ThreeDMark,
            ClusterLabel::IntenseGraphics,
            threedmark::slingshot(),
        ),
        unit(
            "3DMark Slingshot Extreme",
            Suite::ThreeDMark,
            ClusterLabel::IntenseGraphics,
            threedmark::slingshot_extreme(),
        ),
        unit(
            "3DMark Wild Life",
            Suite::ThreeDMark,
            ClusterLabel::IntenseGraphics,
            threedmark::wild_life(),
        ),
        unit(
            "3DMark Wild Life Extreme",
            Suite::ThreeDMark,
            ClusterLabel::IntenseGraphics,
            threedmark::wild_life_extreme(),
        ),
        unit(
            "Antutu CPU",
            Suite::Antutu,
            ClusterLabel::Mixed,
            antutu::antutu_cpu(),
        ),
        unit(
            "Antutu GPU",
            Suite::Antutu,
            ClusterLabel::IntenseGraphics,
            antutu::antutu_gpu(),
        ),
        unit(
            "Antutu Mem",
            Suite::Antutu,
            ClusterLabel::Mixed,
            antutu::antutu_mem(),
        ),
        unit(
            "Antutu UX",
            Suite::Antutu,
            ClusterLabel::Mixed,
            antutu::antutu_ux(),
        ),
        unit("Aitutu", Suite::Aitutu, ClusterLabel::Cpu, aitutu::aitutu()),
        unit(
            "Geekbench 5 CPU",
            Suite::Geekbench5,
            ClusterLabel::Cpu,
            geekbench5::gb5_cpu(),
        ),
        unit(
            "Geekbench 5 Compute",
            Suite::Geekbench5,
            ClusterLabel::GpuCompute,
            geekbench5::gb5_compute(),
        ),
        unit(
            "Geekbench 6 CPU",
            Suite::Geekbench6,
            ClusterLabel::Cpu,
            geekbench6::gb6_cpu(),
        ),
        unit(
            "Geekbench 6 Compute",
            Suite::Geekbench6,
            ClusterLabel::GpuCompute,
            geekbench6::gb6_compute(),
        ),
        unit(
            "GFXBench High",
            Suite::GfxBench,
            ClusterLabel::IntenseGraphics,
            gfxbench::gfx_high(),
        ),
        unit(
            "GFXBench Low",
            Suite::GfxBench,
            ClusterLabel::LightGraphics,
            gfxbench::gfx_low(),
        ),
        unit(
            "GFXBench Special",
            Suite::GfxBench,
            ClusterLabel::LightGraphics,
            gfxbench::gfx_special(),
        ),
        unit(
            "PCMark Storage",
            Suite::PcMark,
            ClusterLabel::Mixed,
            pcmark::pcmark_storage(),
        ),
        unit(
            "PCMark Work",
            Suite::PcMark,
            ClusterLabel::Mixed,
            pcmark::pcmark_work(),
        ),
    ]
}

/// An individually executable sub-benchmark: something a user can launch
/// from the suite's menu on a real device.
#[derive(Debug)]
pub struct ExecutableBenchmark {
    /// Display name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// The executable workload model.
    pub workload: PhasedWorkload,
}

/// All 41 individually executable sub-benchmarks, as the paper counts them
/// in §VI: 3DMark's four tests, Antutu as a whole (its parts cannot be
/// launched separately), Aitutu, two Geekbench 5 and two Geekbench 6
/// components, GFXBench's 29 micro-benchmarks (each launchable on its
/// own), and PCMark's two tests.
pub fn executable_benchmarks() -> Vec<ExecutableBenchmark> {
    use crate::suites::{gfxbench, threedmark};
    let item = |suite, workload: PhasedWorkload| ExecutableBenchmark {
        name: Workload::name(&workload).to_owned(),
        suite,
        workload,
    };
    let mut out = vec![
        item(Suite::ThreeDMark, threedmark::slingshot()),
        item(Suite::ThreeDMark, threedmark::slingshot_extreme()),
        item(Suite::ThreeDMark, threedmark::wild_life()),
        item(Suite::ThreeDMark, threedmark::wild_life_extreme()),
        item(Suite::Antutu, antutu::antutu_full()),
        item(Suite::Aitutu, aitutu::aitutu()),
        item(Suite::Geekbench5, geekbench5::gb5_cpu()),
        item(Suite::Geekbench5, geekbench5::gb5_compute()),
        item(Suite::Geekbench6, geekbench6::gb6_cpu()),
        item(Suite::Geekbench6, geekbench6::gb6_compute()),
    ];
    // A standalone GFXBench test runs longer than its share of the grouped
    // pass: each launch pays scene loading, warm-up and the score screen
    // that the back-to-back pass amortizes. This is why the paper's 41
    // individually executed sub-benchmarks take "over 110 minutes" while
    // the 18 characterization units sum to 4429.5 s (Table VI).
    const STANDALONE_SETUP_SECONDS: f64 = 60.0;
    const STANDALONE_STRETCH: f64 = 1.5;
    let standalone = |share: f64| share * STANDALONE_STRETCH + STANDALONE_SETUP_SECONDS;
    for t in gfxbench::high_level_tests() {
        out.push(item(
            Suite::GfxBench,
            t.workload(standalone(gfxbench::HIGH_SECONDS / 19.0)),
        ));
    }
    for t in gfxbench::low_level_tests() {
        out.push(item(
            Suite::GfxBench,
            t.workload(standalone(gfxbench::LOW_SECONDS / 8.0)),
        ));
    }
    for t in gfxbench::special_tests() {
        out.push(item(
            Suite::GfxBench,
            t.workload(standalone(gfxbench::SPECIAL_SECONDS / 2.0)),
        ));
    }
    out.push(item(Suite::PcMark, pcmark::pcmark_storage()));
    out.push(item(Suite::PcMark, pcmark::pcmark_work()));
    out
}

/// Number of individually executable sub-benchmarks across all suites.
pub fn executable_sub_benchmark_count() -> usize {
    executable_benchmarks().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_units() {
        assert_eq!(all_units().len(), 18);
    }

    #[test]
    fn forty_one_executable_sub_benchmarks() {
        // §VI: "41 sub-benchmarks that can be individually executed".
        assert_eq!(executable_sub_benchmark_count(), 41);
        let all = executable_benchmarks();
        assert_eq!(all.len(), 41);
        // Names are unique and every workload has a positive duration.
        let mut names: Vec<&str> = all.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 41, "duplicate sub-benchmark names");
        assert!(all.iter().all(|b| b.workload.duration_seconds() > 0.0));
        // Suite composition per Table I.
        let count = |s: Suite| all.iter().filter(|b| b.suite == s).count();
        assert_eq!(count(Suite::ThreeDMark), 4);
        assert_eq!(count(Suite::Antutu), 1, "Antutu only runs whole");
        assert_eq!(count(Suite::GfxBench), 29);
        assert_eq!(count(Suite::PcMark), 2);
    }

    #[test]
    fn combined_executable_runtime_is_over_110_minutes() {
        // §VI: "Their combined runtime on a real device is over 110
        // minutes."
        let total: f64 = executable_benchmarks()
            .iter()
            .map(|b| b.workload.duration_seconds())
            .sum();
        assert!(total > 110.0 * 60.0, "got {:.0} s", total);
    }

    #[test]
    fn total_runtime_matches_table_6_original_set() {
        // Table VI: original set = 4429.5 s.
        let total: f64 = all_units().iter().map(|u| u.runtime_seconds()).sum();
        assert!((total - 4429.5).abs() < 1e-6, "got {total}");
    }

    #[test]
    fn combined_executable_runtime_exceeds_110_minutes() {
        // §VI: the 41 sub-benchmarks' combined runtime on a real device is
        // over 110 minutes. Our per-unit calibration already sums to ~74
        // minutes; the individually executable GFXBench micro-benchmarks
        // and the full Antutu run push past the two-hour mark.
        let unit_total: f64 = all_units().iter().map(|u| u.runtime_seconds()).sum();
        assert!(unit_total > 60.0 * 60.0, "at least an hour of unit runtime");
    }

    #[test]
    fn unit_names_unique() {
        let units = all_units();
        let mut names: Vec<&str> = units.iter().map(|u| u.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn antutu_parts_share_a_cluster_except_gpu() {
        // §VI-B: "All of Antutu's segments are grouped in the same cluster
        // except Antutu GPU."
        let units = all_units();
        let label_of = |name: &str| units.iter().find(|u| u.name == name).unwrap().label;
        assert_eq!(label_of("Antutu CPU"), label_of("Antutu Mem"));
        assert_eq!(label_of("Antutu CPU"), label_of("Antutu UX"));
        assert_ne!(label_of("Antutu CPU"), label_of("Antutu GPU"));
    }

    #[test]
    fn fastest_per_cluster_matches_naive_subset() {
        // §VI-B: the Naive subset is PCMark Storage, Geekbench 5 CPU,
        // GFXBench Special, 3DMark Wild Life, Geekbench 5 Compute —
        // the fastest member of each cluster.
        let units = all_units();
        for label in ClusterLabel::ALL {
            let fastest = units
                .iter()
                .filter(|u| u.label == label)
                .min_by(|a, b| {
                    a.runtime_seconds()
                        .partial_cmp(&b.runtime_seconds())
                        .unwrap()
                })
                .unwrap();
            let expected = match label {
                ClusterLabel::Mixed => "PCMark Storage",
                ClusterLabel::Cpu => "Geekbench 5 CPU",
                ClusterLabel::LightGraphics => "GFXBench Special",
                ClusterLabel::IntenseGraphics => "3DMark Wild Life",
                ClusterLabel::GpuCompute => "Geekbench 5 Compute",
            };
            assert_eq!(fastest.name, expected, "{label:?}");
        }
    }

    #[test]
    fn inventory_matches_table_1() {
        let inv = suite_inventory();
        assert_eq!(inv.len(), 18, "Table I has 18 benchmark rows");
        assert_eq!(
            inv.iter().filter(|r| r.suite == Suite::ThreeDMark).count(),
            4
        );
        assert_eq!(inv.iter().filter(|r| r.suite == Suite::Antutu).count(), 4);
        assert_eq!(inv.iter().filter(|r| r.suite == Suite::GfxBench).count(), 3);
    }

    #[test]
    fn suite_publishers() {
        assert_eq!(Suite::ThreeDMark.publisher(), "UL");
        assert_eq!(Suite::GfxBench.publisher(), "Kishonti");
        assert_eq!(Suite::Geekbench6.publisher(), "Primate Labs");
    }
}
