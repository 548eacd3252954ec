//! Property-based tests (proptest) over the core invariants of the
//! analysis toolkit and the SoC models.

use proptest::prelude::*;

use mwc_analysis::cluster::{hierarchical, kmeans, pam, pam_with_distances, Clustering, Linkage};
use mwc_analysis::distance::{euclidean, pairwise_euclidean};
use mwc_analysis::error::AnalysisError;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::stats::{
    correlation_matrix, max_normalize, min_max_normalize, normalize_columns, pearson,
    CorrelationStrength, NormalizeMode,
};
use mwc_analysis::subset::{incremental_distances, runtime_reduction, total_min_euclidean};
use mwc_analysis::sym::SymMatrix;
use mwc_analysis::validation::{ad_from, apn_from, dunn_index, silhouette_width};
use mwc_profiler::faults::{FaultConfig, FaultPlan, InjectionSummary};
use mwc_profiler::timeseries::TimeSeries;
use mwc_profiler::{Capture, SeriesKey, SeriesMap};
use mwc_report::heat::{level_histogram, level_of};
use mwc_soc::cache::{CacheConfig, CacheHierarchy, MemoryProfile};
use mwc_soc::config::{ClusterKind, SocConfig};
use mwc_soc::counters::{TickSample, Trace};
use mwc_soc::cpu::{CpuDemand, InstructionMix, ThreadDemand};
use mwc_soc::engine::{stream_seed, Engine};
use mwc_soc::freq::Governor;
use mwc_soc::gpu::GpuDemand;
use mwc_soc::sched::{Placement, Scheduler};
use mwc_soc::workload::{ConstantWorkload, Demand};
use mwc_workloads::kernels::{compress, crypto, fft, psnr, raytrace};
use mwc_workloads::registry::all_units;

/// Strategy: a small matrix of finite values in a reasonable range.
fn matrix_strategy(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, cols..=cols),
        2..=max_rows,
    )
    .prop_map(|rows| Matrix::from_rows(&rows).expect("uniform rows"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- distances ----------

    #[test]
    fn euclidean_is_a_metric(
        a in prop::collection::vec(-50.0f64..50.0, 4),
        b in prop::collection::vec(-50.0f64..50.0, 4),
        c in prop::collection::vec(-50.0f64..50.0, 4),
    ) {
        let dab = euclidean(&a, &b);
        let dba = euclidean(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry");
        prop_assert!(dab >= 0.0, "non-negativity");
        prop_assert!(euclidean(&a, &a) < 1e-12, "identity");
        prop_assert!(euclidean(&a, &c) <= dab + euclidean(&b, &c) + 1e-9, "triangle");
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal(m in matrix_strategy(10, 3)) {
        let d = pairwise_euclidean(&m);
        for i in 0..m.rows() {
            prop_assert_eq!(d.get(i, i), 0.0);
            for j in 0..m.rows() {
                prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
            }
        }
    }

    // ---------- columnar kernels vs scalar references ----------
    // The chunked kernels are layout rewrites, not numeric rewrites: every
    // output must match the scalar per-pair / per-column code bit for bit.

    #[test]
    fn columnar_pairwise_is_bit_identical_to_scalar(m in matrix_strategy(12, 5)) {
        let d = pairwise_euclidean(&m);
        for i in 0..m.rows() {
            for j in 0..i {
                prop_assert_eq!(
                    d.get(i, j).to_bits(),
                    euclidean(m.row(i), m.row(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn fused_correlation_is_bit_identical_to_scalar_pearson(m in matrix_strategy(12, 5)) {
        let c = correlation_matrix(&m);
        for i in 0..m.cols() {
            prop_assert_eq!(c.get(i, i), 1.0);
            for j in 0..i {
                prop_assert_eq!(
                    c.get(i, j).to_bits(),
                    pearson(&m.col(i), &m.col(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn fused_correlation_with_gaps_is_bit_identical(
        rows in prop::collection::vec(
            prop::collection::vec(-40.0f64..100.0, 4..=4),
            3..12,
        ),
    ) {
        // Map the negative third of the sampled range to NaN gaps, so some
        // columns take the fused path and some the pairwise-complete
        // scalar fallback.
        let gappy: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| if v < 0.0 { f64::NAN } else { v }).collect())
            .collect();
        let m = Matrix::from_rows(&gappy).expect("uniform rows");
        let c = correlation_matrix(&m);
        for i in 0..m.cols() {
            for j in 0..i {
                prop_assert_eq!(
                    c.get(i, j).to_bits(),
                    pearson(&m.col(i), &m.col(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn columnar_normalization_is_bit_identical_to_per_column_scalar(
        m in matrix_strategy(12, 5),
        mode_max in any::<bool>(),
    ) {
        let mode = if mode_max { NormalizeMode::Max } else { NormalizeMode::MinMax };
        let n = normalize_columns(&m, mode);
        for c in 0..m.cols() {
            let col = m.col(c);
            let reference = match mode {
                NormalizeMode::Max => max_normalize(&col),
                NormalizeMode::MinMax => min_max_normalize(&col),
            };
            let got = n.col(c);
            prop_assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "column {}", c);
            }
        }
    }

    // ---------- statistics ----------

    #[test]
    fn pearson_is_bounded_and_symmetric(
        xs in prop::collection::vec(-100.0f64..100.0, 3..30),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 - 1.0).collect();
        let r = pearson(&xs, &ys);
        prop_assert!(r.abs() <= 1.0 + 1e-9);
        prop_assert!((pearson(&xs, &ys) - pearson(&ys, &xs)).abs() < 1e-12);
        // A perfect affine relation has |r| = 1 (unless xs is constant).
        if xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9) {
            prop_assert!((r - 1.0).abs() < 1e-6, "affine relation gives r = 1, got {r}");
        }
    }

    #[test]
    fn normalizations_stay_in_unit_interval(
        xs in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        for v in max_normalize(&xs) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        for v in min_max_normalize(&xs) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn correlation_strength_bands_are_total(r in -1.0f64..=1.0) {
        // classify never panics and respects the band edges.
        let band = CorrelationStrength::classify(r);
        if r.abs() >= 0.8 {
            prop_assert_eq!(band, CorrelationStrength::Strong);
        } else if r.abs() >= 0.4 {
            prop_assert_eq!(band, CorrelationStrength::Moderate);
        } else {
            prop_assert_eq!(band, CorrelationStrength::None);
        }
    }

    // ---------- clustering ----------

    #[test]
    fn kmeans_produces_valid_deterministic_clusterings(
        m in matrix_strategy(12, 4),
        k in 1usize..=4,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= m.rows());
        let a = kmeans(&m, k, seed).expect("valid k");
        let b = kmeans(&m, k, seed).expect("valid k");
        prop_assert_eq!(&a, &b, "determinism");
        prop_assert_eq!(a.len(), m.rows());
        prop_assert!(a.labels().iter().all(|&l| l < k));
        // k-means never leaves a cluster empty.
        prop_assert!(a.members().iter().all(|g| !g.is_empty()));
    }

    #[test]
    fn pam_and_hierarchical_produce_valid_partitions(
        m in matrix_strategy(10, 3),
        k in 1usize..=3,
    ) {
        prop_assume!(k <= m.rows());
        let p = pam(&m, k, 0).expect("valid k");
        prop_assert!(p.labels().iter().all(|&l| l < k));
        let h = hierarchical(&m, Linkage::Average).expect("non-empty").cut(k).expect("valid k");
        prop_assert!(h.labels().iter().all(|&l| l < k));
        prop_assert_eq!(h.members().iter().filter(|g| !g.is_empty()).count(), k);
    }

    #[test]
    fn dendrogram_cut_sizes_are_consistent(m in matrix_strategy(9, 3)) {
        let d = hierarchical(&m, Linkage::Complete).expect("non-empty");
        prop_assert_eq!(d.merges().len(), m.rows() - 1);
        for k in 1..=m.rows() {
            let c = d.cut(k).expect("valid k");
            let non_empty = c.members().iter().filter(|g| !g.is_empty()).count();
            prop_assert_eq!(non_empty, k);
        }
    }

    // ---------- validation ----------

    #[test]
    fn validation_measures_are_in_range(m in matrix_strategy(10, 3), k in 2usize..=3) {
        prop_assume!(k <= m.rows());
        let c = kmeans(&m, k, 1).expect("valid k");
        prop_assert!(dunn_index(&m, &c) >= 0.0);
        let s = silhouette_width(&m, &c);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }

    // ---------- subsetting ----------

    #[test]
    fn representativeness_improves_monotonically(m in matrix_strategy(8, 3)) {
        let order: Vec<usize> = (0..m.rows()).collect();
        let mut last = f64::INFINITY;
        for end in 1..=m.rows() {
            let d = total_min_euclidean(&m, &order[..end]);
            prop_assert!(d <= last + 1e-9, "adding members never hurts");
            last = d;
        }
        prop_assert!(last.abs() < 1e-9, "full set has zero distance");
        let curve = incremental_distances(&m, &[0]);
        prop_assert_eq!(curve.len(), m.rows());
    }

    #[test]
    fn runtime_reduction_is_a_percentage(
        runtimes in prop::collection::vec(1.0f64..1e4, 2..12),
        pick in 0usize..2,
    ) {
        let r = runtime_reduction(&runtimes, &[pick]);
        prop_assert!((0.0..=100.0).contains(&r));
    }

    // ---------- SoC models ----------

    #[test]
    fn miss_ratio_is_bounded_and_monotone_in_working_set(
        ws in 1.0f64..1e7,
        locality in 0.0f64..1.0,
        apki in 0.0f64..500.0,
    ) {
        let h = CacheHierarchy::new(
            64, 512, CacheConfig::new("L3", 4096), CacheConfig::new("SLC", 3072),
        );
        let small = h.misses(&MemoryProfile {
            working_set_kib: ws,
            locality,
            accesses_per_kilo_instr: apki,
        });
        let large = h.misses(&MemoryProfile {
            working_set_kib: ws * 2.0,
            locality,
            accesses_per_kilo_instr: apki,
        });
        prop_assert!(small.total_mpki() >= 0.0);
        prop_assert!(large.total_mpki() + 1e-9 >= small.total_mpki(), "monotone in ws");
        prop_assert!(small.l1_mpki >= small.l2_mpki);
        prop_assert!(small.l2_mpki >= small.l3_mpki);
        prop_assert!(small.l3_mpki >= small.slc_mpki);
        prop_assert!(small.total_mpki() <= apki * 4.0 + 1e-9, "bounded by accesses");
    }

    #[test]
    fn governor_stays_within_its_range(
        utils in prop::collection::vec(0.0f64..1.5, 1..100),
    ) {
        let mut g = Governor::for_range(300.0, 3000.0);
        for u in utils {
            let f = g.tick(u);
            prop_assert!((300.0..=3000.0).contains(&f), "frequency {f} out of range");
        }
    }

    #[test]
    fn scheduler_conserves_threads(
        intensities in prop::collection::vec(0.01f64..1.0, 0..20),
    ) {
        let soc = SocConfig::snapdragon_888();
        let sched = Scheduler::new(&soc);
        let demand = CpuDemand {
            threads: intensities.iter().map(|&i| ThreadDemand::new(i)).collect(),
        };
        let mut placement = Placement::default();
        sched.place(&demand, &mut placement);
        prop_assert_eq!(placement.thread_count(), intensities.len());
        // Total placed intensity equals total demanded intensity.
        let placed: f64 = placement
            .assignments
            .iter()
            .flatten()
            .map(|&i| demand.threads[i].intensity)
            .sum();
        let demanded: f64 = intensities.iter().sum();
        prop_assert!((placed - demanded).abs() < 1e-9);
    }

    #[test]
    fn instruction_mix_always_normalizes(
        a in 0.0f64..10.0, b in 0.0f64..10.0, c in 0.0f64..10.0,
        d in 0.0f64..10.0, e in 0.0f64..10.0,
    ) {
        let mix = InstructionMix::new(a, b, c, d, e);
        prop_assert!((mix.total() - 1.0).abs() < 1e-9);
        for frac in [mix.int_ops, mix.fp_ops, mix.simd_ops, mix.load_store, mix.branches] {
            prop_assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn same_partition_is_an_equivalence_up_to_relabelling(
        labels in prop::collection::vec(0usize..3, 4..10),
        perm_seed in 0usize..6,
    ) {
        let k = 3;
        let c = Clustering::new(labels.clone(), k).expect("valid labels");
        // Apply one of the six permutations of {0, 1, 2}.
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let p = perms[perm_seed];
        let relabelled: Vec<usize> = labels.iter().map(|&l| p[l]).collect();
        let c2 = Clustering::new(relabelled, k).expect("valid labels");
        prop_assert!(c.same_partition(&c2));
    }

    // ---------- engine invariants ----------

    #[test]
    fn engine_samples_are_always_in_range(
        n_threads in 0usize..10,
        intensity in 0.0f64..1.0,
        gpu_intensity in 0.0f64..1.0,
        seconds in 1.0f64..8.0,
        seed in 0u64..100,
    ) {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::multi_thread(n_threads, intensity);
        d.gpu = Some(GpuDemand::scene(gpu_intensity));
        let w = ConstantWorkload::new("prop", seconds, d);
        let mut engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        let trace = engine.run(&w);
        prop_assert_eq!(trace.samples.len(), (seconds / mwc_soc::TICK_SECONDS).round() as usize);
        for s in trace.samples.iter() {
            prop_assert!(s.instructions >= 0.0);
            prop_assert!(s.cycles >= s.instructions / 8.0 - 1e-6, "IPC can never exceed 8");
            prop_assert!(s.cache_misses >= 0.0);
            prop_assert!(s.branch_misses <= s.branches + 1e-9);
            for c in &s.clusters {
                prop_assert!((0.0..=1.0).contains(&c.utilization));
                prop_assert!((0.0..=1.0).contains(&c.load));
                prop_assert!(c.frequency_mhz > 0.0);
            }
            prop_assert!((0.0..=1.0).contains(&s.gpu_utilization));
            prop_assert!((0.0..=1.0).contains(&s.gpu_shaders_busy));
            prop_assert!((0.0..=1.0).contains(&s.gpu_bus_busy));
            prop_assert!((0.0..=1.0).contains(&s.memory_used_fraction));
            prop_assert!((0.0..=1.0).contains(&s.memory_bandwidth_utilization));
        }
    }

    // ---------- kernel invariants ----------

    #[test]
    fn xtea_roundtrips_any_block(v0: u32, v1: u32, k0: u32, k1: u32, k2: u32, k3: u32) {
        let key = [k0, k1, k2, k3];
        let enc = crypto::xtea_encrypt([v0, v1], &key);
        prop_assert_eq!(crypto::xtea_decrypt(enc, &key), [v0, v1]);
    }

    #[test]
    fn compression_roundtrips_any_bytes(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let tokens = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&tokens), data);
    }

    #[test]
    fn fft_roundtrips_any_power_of_two_signal(
        log_n in 2u32..8,
        seed in 0u64..50,
    ) {
        let n = 1usize << log_n;
        let original: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let phase = (i as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                ((phase * 0.37).sin(), (phase * 0.11).cos())
            })
            .collect();
        let mut data = original.clone();
        fft::fft(&mut data, false);
        fft::fft(&mut data, true);
        for (a, b) in data.iter().zip(&original) {
            prop_assert!((a.0 - b.0).abs() < 1e-8);
            prop_assert!((a.1 - b.1).abs() < 1e-8);
        }
    }

    #[test]
    fn psnr_decreases_with_noise(base in 1u8..200, noise in 1u8..55) {
        let reference = vec![base; 256];
        let small: Vec<u8> = reference.iter().map(|&v| v.saturating_add(1)).collect();
        let large: Vec<u8> = reference.iter().map(|&v| v.saturating_add(noise.max(2))).collect();
        prop_assert!(psnr::psnr(&reference, &small) >= psnr::psnr(&reference, &large));
    }

    #[test]
    fn ray_sphere_hits_are_on_the_sphere(
        ox in -1.5f64..1.5,
        oy in -1.5f64..1.5,
        r in 0.5f64..2.0,
    ) {
        let s = raytrace::Sphere {
            center: raytrace::Vec3::new(0.0, 0.0, 0.0),
            radius: r,
        };
        let origin = raytrace::Vec3::new(ox, oy, 10.0);
        let dir = raytrace::Vec3::new(0.0, 0.0, -1.0);
        if let Some(t) = raytrace::intersect(origin, dir, &s) {
            let hit = raytrace::Vec3::new(ox, oy, 10.0 - t);
            prop_assert!((hit.length() - r).abs() < 1e-6, "hit point lies on the sphere");
        } else {
            // A miss means the ray passes outside the radius.
            prop_assert!(ox * ox + oy * oy > r * r - 1e-9);
        }
    }
}

/// Strategy: a counter-style series (non-negative, like loads and rates)
/// where each sample may have been lost by a flaky profiler — the negative
/// quarter of the sampled range maps to NaN gaps.
fn gappy_series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-33.0f64..100.0, 1..=max_len).prop_map(|values| {
        values
            .into_iter()
            .map(|v| if v < 0.0 { f64::NAN } else { v })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- gap-tolerant time series ----------

    #[test]
    fn gap_tolerant_series_stats_are_finite(values in gappy_series(40)) {
        let s = mwc_profiler::TimeSeries::new(0.1, values);
        prop_assert!(s.mean().is_finite());
        prop_assert!(s.min().is_finite());
        prop_assert!(s.max().is_finite());
        prop_assert!((0.0..=1.0).contains(&s.completeness()));
        prop_assert!(s.min() <= s.max() + 1e-12);
    }

    #[test]
    fn interpolated_series_is_gap_free_and_bounded(values in gappy_series(40)) {
        let s = mwc_profiler::TimeSeries::new(0.1, values);
        let filled = s.interpolate_gaps();
        prop_assert_eq!(filled.len(), s.len());
        let finite: Vec<f64> = s.values.iter().copied().filter(|v| v.is_finite()).collect();
        let (lo, hi) = if finite.is_empty() {
            (0.0, 0.0)
        } else {
            (
                finite.iter().copied().fold(f64::INFINITY, f64::min),
                finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        for v in &filled.values {
            prop_assert!(v.is_finite(), "no gap survives interpolation");
            // Linear interpolation between neighbours never overshoots
            // the observed range.
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(v));
        }
        let resampled = filled.resample(7);
        prop_assert!(resampled.values.iter().all(|v| v.is_finite()));
    }

    // ---------- pairwise-complete correlations ----------

    #[test]
    fn correlations_with_gaps_stay_finite_and_bounded(
        xs in gappy_series(30),
        ys in gappy_series(30),
    ) {
        let p = pearson(&xs, &ys);
        prop_assert!(p.is_finite());
        prop_assert!(p.abs() <= 1.0 + 1e-9);
        let s = mwc_analysis::stats::spearman(&xs, &ys);
        prop_assert!(s.is_finite());
        prop_assert!(s.abs() <= 1.0 + 1e-9);
    }
}

proptest! {
    // Each case runs two full (single-run) studies; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fault_off_study_is_thread_count_invariant(threads in 1usize..6, seed in 0u64..500) {
        use mwc_core::pipeline::Characterization;
        let serial = Characterization::try_run_with(
            SocConfig::snapdragon_888(),
            seed,
            1,
            1,
            &mwc_profiler::FaultConfig::default(),
        )
        .expect("fault-free study succeeds");
        let threaded = Characterization::try_run_with(
            SocConfig::snapdragon_888(),
            seed,
            1,
            threads,
            &mwc_profiler::FaultConfig::default(),
        )
        .expect("fault-free study succeeds");
        prop_assert!(serial == threaded, "bit-identical for {threads} workers, seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- result-cache keys (pure digests: cheap, no simulation) ----------

    #[test]
    fn cache_key_is_deterministic_and_input_sensitive(
        seed in 0u64..10_000,
        runs in 1usize..8,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;

        let study_key = |cfg: &SocConfig, seed, runs, faults: &FaultConfig| {
            StudySpec::new(cfg.clone(), seed, runs).with_faults(faults.clone()).study_key()
        };
        let cfg = SocConfig::snapdragon_888();
        let faults = FaultConfig::default();
        let key = study_key(&cfg, seed, runs, &faults);
        // Stable: recomputing from identical inputs yields the same key —
        // and the inputs are hashed by content, so the key survives
        // process boundaries (nothing address- or time-dependent).
        prop_assert_eq!(key, study_key(&cfg, seed, runs, &faults));
        prop_assert_eq!(key, study_key(&SocConfig::snapdragon_888(), seed, runs, &faults));
        // Sensitive: every keyed input moves the key.
        prop_assert_ne!(key, study_key(&cfg, seed ^ 1, runs, &faults));
        prop_assert_ne!(key, study_key(&cfg, seed, runs + 1, &faults));
        let mut grown = SocConfig::snapdragon_888();
        grown.memory.capacity_mib += 1.0;
        prop_assert_ne!(key, study_key(&grown, seed, runs, &faults));
        let flaky = FaultConfig { dropout_rate: 0.01, ..FaultConfig::default() };
        prop_assert_ne!(key, study_key(&cfg, seed, runs, &flaky));
    }

    // ---------- stage-graph keys (pure digests: cheap, no simulation) ----------

    #[test]
    fn stage_keys_ignore_fields_that_never_reach_the_simulation(
        seed in 0u64..10_000,
        runs in 1usize..8,
        threads in 1usize..16,
        fault_seed in 0u64..10_000,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;
        use mwc_workloads::registry::all_units;

        let base = StudySpec::new(SocConfig::snapdragon_888(), seed, runs);
        // Worker count and the seed of a *disabled* fault config (no rate
        // set, so no fault can fire) never reach the simulation — neither
        // the study key nor any unit key may move.
        let tweaked = StudySpec::new(SocConfig::snapdragon_888(), seed, runs)
            .with_threads(threads)
            .with_faults(FaultConfig { seed: fault_seed, ..FaultConfig::default() });
        prop_assert_eq!(base.study_key(), tweaked.study_key());
        for (i, u) in all_units().iter().enumerate() {
            prop_assert_eq!(base.unit_key(i, u), tweaked.unit_key(i, u));
        }
        // The keyed inputs still move every key.
        let moved = StudySpec::new(SocConfig::snapdragon_888(), seed ^ 1, runs);
        prop_assert_ne!(base.study_key(), moved.study_key());
        for (i, u) in all_units().iter().enumerate() {
            prop_assert_ne!(base.unit_key(i, u), moved.unit_key(i, u));
        }
    }

    #[test]
    fn stage_keys_are_stable_under_spec_field_order(
        seed in 0u64..10_000,
        priorities in prop::collection::vec(0u64..u64::MAX, 18..=18),
        take in 2usize..18,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;
        use mwc_workloads::registry::all_units;

        let units = all_units();
        let names: Vec<&'static str> = units.iter().map(|u| u.name).collect();
        // The stand-in proptest has no shuffle strategy; induce a random
        // permutation by ranking generated priorities.
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by_key(|&i| (priorities[i], i));

        let jitter = |s: u64| FaultConfig {
            seed: s,
            jitter_amplitude: 0.01,
            ..FaultConfig::default()
        };

        // Per-unit overrides are keyed by content, not insertion order.
        let spec_at = |idx: &[usize]| {
            idx.iter().fold(
                StudySpec::new(SocConfig::snapdragon_888(), seed, 1),
                |spec, &i| spec.with_unit_faults(names[i], jitter(i as u64)),
            )
        };
        let forward = spec_at(&order);
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let backward = spec_at(&reversed);
        prop_assert_eq!(forward.study_key(), backward.study_key());
        for (i, u) in units.iter().enumerate() {
            prop_assert_eq!(forward.unit_key(i, u), backward.unit_key(i, u));
        }

        // Re-inserting an override replaces it: a detour through another
        // value and back is invisible to the key.
        let detoured = forward
            .clone()
            .with_unit_faults(names[0], jitter(9_999))
            .with_unit_faults(names[0], jitter(0));
        prop_assert_eq!(detoured.study_key(), forward.study_key());

        // A `Named` selection hashes in registry order, not listing order.
        let permuted: Vec<&str> = order.iter().take(take).map(|&i| names[i]).collect();
        let mut registry_order = permuted.clone();
        registry_order.sort_by_key(|n| names.iter().position(|m| m == n).expect("known unit"));
        let a = StudySpec::new(SocConfig::snapdragon_888(), seed, 1).with_units(permuted);
        let b = StudySpec::new(SocConfig::snapdragon_888(), seed, 1).with_units(registry_order);
        prop_assert_eq!(a.study_key(), b.study_key());
    }
}

/// Workload shim recording every normalized time the engine samples it at.
struct TNormRecorder {
    duration: f64,
    demand: Demand,
    sampled: std::cell::RefCell<Vec<f64>>,
}

impl TNormRecorder {
    fn new(duration: f64, demand: Demand) -> Self {
        TNormRecorder {
            duration,
            demand,
            sampled: std::cell::RefCell::new(Vec::new()),
        }
    }
}

impl mwc_soc::Workload for TNormRecorder {
    fn name(&self) -> &str {
        "t-norm-recorder"
    }
    fn duration_seconds(&self) -> f64 {
        self.duration
    }
    fn demand_at(&self, t_norm: f64) -> Demand {
        self.sampled.borrow_mut().push(t_norm);
        self.demand.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- simulation clock and engine-core equivalence ----------

    #[test]
    fn any_positive_duration_samples_in_domain(
        // Log-uniform over ~9 decades: exercises sub-tick durations (the
        // historical empty-trace bug), half-tick rounding edges and long
        // runs alike.
        log_duration in -7.0f64..2.0,
        nudge in 0.0f64..1.0,
        seed in 0u64..50,
        mode_sel in 0u8..2,
    ) {
        let duration = 10.0f64.powf(log_duration) * (1.0 + nudge);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.6);
        let w = TNormRecorder::new(duration, d);
        let mut engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        engine.set_mode(if mode_sel == 0 {
            mwc_soc::EngineMode::Dense
        } else {
            mwc_soc::EngineMode::Event
        });
        let trace = engine.run(&w);
        // Positive duration: never an empty trace, and exactly the clock's
        // tick count.
        prop_assert!(!trace.samples.is_empty());
        let expected = ((duration / mwc_soc::TICK_SECONDS).round() as usize).max(1);
        prop_assert_eq!(trace.samples.len(), expected);
        // Every sampled normalized time is inside demand_at's domain.
        for &t in w.sampled.borrow().iter() {
            prop_assert!((0.0..1.0).contains(&t), "t_norm {} out of [0, 1) at duration {}", t, duration);
        }
    }

    #[test]
    fn event_core_matches_dense_on_random_phased_workloads(
        // Three raw values per phase: weight, intensity, kind selector
        // (the proptest stand-in has no tuple strategies).
        raw in prop::collection::vec(0.0f64..1.0, 3..=18),
        duration in 0.5f64..20.0,
        seed in 0u64..100,
    ) {
        use mwc_workloads::phase::PhasedWorkload;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Phase menu: idle, CPU-noisy, GPU-noisy, stateless-device-only
        // and mixed CPU+GPU phases, in random order — the interleavings
        // the event core's demand holds must survive.
        let mut b = PhasedWorkload::builder("prop-phased", duration);
        for (i, chunk) in raw.chunks_exact(3).enumerate() {
            let (weight, intensity, kind) =
                (0.2 + 2.8 * chunk[0], chunk[1], (chunk[2] * 5.0) as u8);
            let mut d = Demand::idle();
            match kind {
                0 => {} // idle
                1 => d.cpu = CpuDemand::single_thread(intensity),
                2 => d.gpu = Some(GpuDemand::scene(intensity)),
                3 => {
                    d.memory.footprint_mib = 256.0 + 1000.0 * intensity;
                    d.io = Some(mwc_soc::storage::IoDemand::sequential(
                        500.0 * intensity,
                        100.0 * intensity,
                    ));
                }
                _ => {
                    // 1–8 threads beside a scene whose textures fall on
                    // either side of the shared-cache residency cap, so the
                    // event core's CPI memo sees contention that repeats
                    // and contention that changes every tick. The threads
                    // are variants of one random base thread, each with at
                    // most one CPI-stack input redrawn: a memo key missing
                    // any input would hand one thread another's cost.
                    let mut rng = StdRng::seed_from_u64(chunk[0].to_bits() ^ chunk[2].to_bits());
                    let mut base = ThreadDemand::new(0.5);
                    base.mix = InstructionMix::new(
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                    );
                    base.working_set_kib = rng.gen_range(16.0..65536.0);
                    base.locality = rng.gen_range(0.0..1.0);
                    base.ilp = rng.gen_range(0.0..1.0);
                    base.branch_predictability = rng.gen_range(0.0..1.0);
                    for _ in 0..rng.gen_range(1..=8usize) {
                        let mut t = base.clone();
                        t.intensity = rng.gen_range(0.05..1.0);
                        let x = rng.gen_range(0.0..1.0);
                        match rng.gen_range(0..9usize) {
                            0 => t.mix.fp_ops = x,
                            1 => t.mix.simd_ops = x,
                            2 => t.mix.load_store = x,
                            3 => t.mix.branches = x,
                            4 => t.working_set_kib = 65536.0 * x,
                            5 => t.locality = x,
                            6 => t.ilp = x,
                            7 => t.branch_predictability = x,
                            _ => {}
                        }
                        d.cpu.threads.push(t);
                    }
                    let mut scene = GpuDemand::scene(intensity);
                    scene.texture_mib = rng.gen_range(2.0..64.0);
                    d.gpu = Some(scene);
                }
            }
            b = b.phase(format!("p{i}"), weight, d);
        }
        let w = b.build();

        let mut dense = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        dense.set_mode(mwc_soc::EngineMode::Dense);
        let mut event = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        event.set_mode(mwc_soc::EngineMode::Event);
        // The second pass reruns on engines that keep their state from the
        // first, so the event core's memo starts warm.
        for _ in 0..2 {
            dense.reset(seed);
            event.reset(seed);
            let td = dense.run(&w);
            let te = event.run(&w);
            prop_assert_eq!(td.samples.len(), te.samples.len());
            prop_assert_eq!(td, te);
        }
    }
}

// ---------- rewritten analysis loops vs the loops they replaced ----------
// PAM's swap bookkeeping, the stability measures' member lists, Table V's
// branch-free level count and the one-pass series scans each replaced a
// loop that survives below as the reference it must match to the bit.

/// The clone-per-trial PAM that `pam_with_distances` replaced, verbatim.
fn pam_reference(d: &SymMatrix, k: usize) -> Result<Clustering, AnalysisError> {
    let n = d.rows();
    if k == 0 || k > n {
        return Err(AnalysisError::InvalidClusterCount(format!(
            "k = {k} for {n} observations"
        )));
    }

    // BUILD: first medoid minimizes total distance; each further medoid
    // maximizes the decrease in total dissimilarity. Row sums come off the
    // packed triangle, computed once per candidate instead of once per
    // comparison.
    let row_sums: Vec<f64> = (0..n).map(|i| d.row_sum(i)).collect();
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let first = (0..n)
        .min_by(|&a, &b| row_sums[a].total_cmp(&row_sums[b]))
        .ok_or_else(|| AnalysisError::EmptyInput("no observations to seed medoids".into()))?;
    medoids.push(first);
    while medoids.len() < k {
        let mut best_gain = f64::NEG_INFINITY;
        let mut best = None;
        for cand in 0..n {
            if medoids.contains(&cand) {
                continue;
            }
            let gain: f64 = (0..n)
                .map(|j| {
                    let current = nearest_dist(d, &medoids, j);
                    (current - d.get(j, cand)).max(0.0)
                })
                .sum();
            if gain > best_gain {
                best_gain = gain;
                best = Some(cand);
            }
        }
        let next = best.ok_or_else(|| {
            AnalysisError::InvalidClusterCount(format!(
                "no medoid candidates left at {} of {k}",
                medoids.len()
            ))
        })?;
        medoids.push(next);
    }

    // SWAP: steepest-descent exchange until no swap improves the cost.
    let mut cost = assignment_cost(d, &medoids, n);
    loop {
        let mut best_delta = -1e-12;
        let mut best_swap = None;
        for mi in 0..medoids.len() {
            for cand in 0..n {
                if medoids.contains(&cand) {
                    continue;
                }
                let mut trial = medoids.clone();
                trial[mi] = cand;
                let trial_cost = assignment_cost(d, &trial, n);
                let delta = trial_cost - cost;
                if delta < best_delta {
                    best_delta = delta;
                    best_swap = Some((mi, cand, trial_cost));
                }
            }
        }
        match best_swap {
            Some((mi, cand, new_cost)) => {
                medoids[mi] = cand;
                cost = new_cost;
            }
            None => break,
        }
    }

    let labels = (0..n)
        .map(|j| {
            (0..k)
                .min_by(|&a, &b| d.get(j, medoids[a]).total_cmp(&d.get(j, medoids[b])))
                .unwrap_or(0)
        })
        .collect();
    Clustering::new(labels, k)
}

fn nearest_dist(d: &SymMatrix, medoids: &[usize], j: usize) -> f64 {
    medoids
        .iter()
        .map(|&m| d.get(j, m))
        .fold(f64::INFINITY, f64::min)
}

fn assignment_cost(d: &SymMatrix, medoids: &[usize], n: usize) -> f64 {
    (0..n).map(|j| nearest_dist(d, medoids, j)).sum()
}

/// Dissimilarities that need not form a metric: zeros and ties
/// everywhere, and magnitudes far enough apart (1e16 has an ulp of 2) that
/// a cost's rounding depends on the order of its terms.
const DISSIMILARITIES: [f64; 8] = [0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 1e16];

fn assert_pam_matches_reference(d: &SymMatrix) {
    for k in 1..=d.rows() {
        let got = pam_with_distances(d, k).expect("valid k");
        assert_eq!(got, pam_reference(d, k).expect("valid k"), "k = {k}");
    }
}

#[test]
fn pam_sums_every_cost_in_point_order() {
    // Found by searching random matrices over DISSIMILARITIES: on the
    // first, a trial cost summed in any other point order picks another
    // swap at k = 4; on the second, a BUILD gain summed so picks another
    // medoid at k = 5.
    assert_pam_matches_reference(&SymMatrix::from_packed(
        7,
        vec![
            0.3, 3.0, 3.0, 3.0, 1.0, 3.0, 3.0, 3.0, 0.3, 0.2, 0.3, 1.0, 1.0, 1e16, 1.0, 0.1, 2.0,
            1.0, 1.0, 0.1, 1.0,
        ],
    ));
    assert_pam_matches_reference(&SymMatrix::from_packed(
        6,
        vec![
            0.2, 1.0, 2.0, 0.2, 0.1, 1.0, 1e16, 3.0, 0.2, 3.0, 1e16, 0.3, 0.0, 0.2, 1e16,
        ],
    ));
}

/// Members of the cluster containing observation `i`.
fn cluster_of(c: &Clustering, i: usize) -> Vec<usize> {
    let label = c.labels()[i];
    c.labels()
        .iter()
        .enumerate()
        .filter(|(_, &l)| l == label)
        .map(|(j, _)| j)
        .collect()
}

/// The `apn_from` that rebuilt both member lists per observation.
fn apn_reference(full: &Clustering, reduced: &[Clustering]) -> f64 {
    let n = full.len();
    if n == 0 || reduced.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for r in reduced {
        for i in 0..n {
            let full_members = cluster_of(full, i);
            let reduced_members = cluster_of(r, i);
            let overlap = full_members
                .iter()
                .filter(|x| reduced_members.contains(x))
                .count();
            total += 1.0 - overlap as f64 / full_members.len() as f64;
        }
    }
    total / (n as f64 * reduced.len() as f64)
}

/// The `ad_from` that rebuilt both member lists per observation.
fn ad_reference(d_full: &SymMatrix, full: &Clustering, reduced: &[Clustering]) -> f64 {
    let n = full.len();
    if n == 0 || reduced.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for r in reduced {
        for i in 0..n {
            let full_members = cluster_of(full, i);
            let reduced_members = cluster_of(r, i);
            // Mean pairwise distance between the two member sets, in the
            // full feature space.
            let mut sum = 0.0;
            for &a in &full_members {
                for &b in &reduced_members {
                    sum += d_full.get(a, b);
                }
            }
            total += sum / (full_members.len() * reduced_members.len()) as f64;
        }
    }
    total / (n as f64 * reduced.len() as f64)
}

/// The `level_histogram` that counted each value's `level_of`.
fn level_histogram_reference(values: &[f64]) -> [f64; 4] {
    let mut counts = [0usize; 4];
    for &v in values {
        counts[level_of(v)] += 1;
    }
    if values.is_empty() {
        return [0.0; 4];
    }
    counts.map(|c| c as f64 / values.len() as f64)
}

/// The two-pass `fraction_above`.
fn fraction_above_reference(s: &TimeSeries, threshold: f64) -> f64 {
    let finite = s.values.iter().filter(|v| v.is_finite()).count();
    if finite == 0 {
        return 0.0;
    }
    s.values.iter().filter(|&&v| v > threshold).count() as f64 / finite as f64
}

/// Strategy: 2..=`max_rows` rows drawn from a pool of four small-integer
/// points, so rows repeat (zero distances) and distinct pairs tie on
/// distance.
fn tied_matrix_strategy(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    let pool = 4 * cols;
    prop::collection::vec(-3i64..=3, pool + 2..=pool + max_rows).prop_map(move |draws| {
        let (pool, picks) = draws.split_at(pool);
        let rows: Vec<Vec<f64>> = picks
            .iter()
            .map(|&p| {
                let at = (p.rem_euclid(4) as usize) * cols;
                pool[at..at + cols].iter().map(|&v| v as f64).collect()
            })
            .collect();
        Matrix::from_rows(&rows).expect("uniform rows")
    })
}

/// Values that hit every edge of the level and extrema scans: NaN, ±∞,
/// ±0, the quarter marks and their neighbours, mixed with plain draws.
fn edge_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    let below = |v: f64| f64::from_bits(v.to_bits() - 1);
    let above = |v: f64| f64::from_bits(v.to_bits() + 1);
    let edges = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        0.25,
        0.5,
        0.75,
        1.0,
        below(0.25),
        above(0.5),
        below(0.75),
        -1.0,
        2.0,
    ];
    prop::collection::vec(0usize..2 * edges.len(), 0..=max_len).prop_map(move |picks| {
        picks
            .into_iter()
            .enumerate()
            .map(|(i, p)| match edges.get(p) {
                Some(&v) => v,
                None => ((i * 7919 + p * 104_729) % 1000) as f64 / 800.0 - 0.1,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pam_matches_the_clone_per_trial_reference(m in tied_matrix_strategy(12, 2)) {
        assert_pam_matches_reference(&pairwise_euclidean(&m));
    }

    #[test]
    fn pam_matches_the_reference_on_arbitrary_dissimilarities(
        n in 2usize..=10,
        picks in prop::collection::vec(0usize..DISSIMILARITIES.len(), 45),
    ) {
        let packed = picks[..n * (n - 1) / 2].iter().map(|&p| DISSIMILARITIES[p]).collect();
        assert_pam_matches_reference(&SymMatrix::from_packed(n, packed));
    }

    #[test]
    fn stability_measures_match_the_cluster_of_reference(
        n in 2usize..=12,
        k in 1usize..=4,
        reductions in 1usize..=4,
        labels in prop::collection::vec(0usize..4, 60),
        packed in prop::collection::vec(0.0f64..10.0, 66),
    ) {
        let labeling = |at: usize| {
            let labels = labels[at * n..(at + 1) * n].iter().map(|l| l % k).collect();
            Clustering::new(labels, k).expect("labels below k")
        };
        let full = labeling(0);
        let reduced: Vec<Clustering> = (1..=reductions).map(labeling).collect();
        let d = SymMatrix::from_packed(n, packed[..n * (n - 1) / 2].to_vec());
        prop_assert_eq!(
            apn_from(&full, &reduced).to_bits(),
            apn_reference(&full, &reduced).to_bits()
        );
        prop_assert_eq!(
            ad_from(&d, &full, &reduced).to_bits(),
            ad_reference(&d, &full, &reduced).to_bits()
        );
    }

    #[test]
    fn level_histogram_matches_counting_level_of(values in edge_values(40)) {
        let got = level_histogram(&values);
        let want = level_histogram_reference(&values);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn one_pass_series_scans_match_their_two_pass_forms(
        values in edge_values(40),
        threshold in -0.5f64..1.5,
    ) {
        let s = TimeSeries::new(0.1, values);
        let (lo, hi) = s.min_max();
        prop_assert_eq!(lo.to_bits(), s.min().to_bits());
        prop_assert_eq!(hi.to_bits(), s.max().to_bits());
        for t in [threshold, 0.5, 0.25] {
            prop_assert_eq!(
                s.fraction_above(t).to_bits(),
                fraction_above_reference(&s, t).to_bits()
            );
        }
    }
}

// ---------- the columnar capture path vs the row code it replaced ----------
// The engine writes each tick into columns, the fault model works on them
// and the series map takes them over, so no `TickSample` row is built
// outside tests. The row code survives below, verbatim, as the reference
// each columnar path must match to the bit on the trace's row views.

/// `SeriesKey::extract`, verbatim.
fn extract_reference(key: SeriesKey, s: &TickSample) -> f64 {
    if s.is_dropped() {
        return f64::NAN;
    }
    match key {
        SeriesKey::CpuLoad => {
            if s.clusters.is_empty() {
                0.0
            } else {
                s.clusters.iter().map(|c| c.load).sum::<f64>() / s.clusters.len() as f64
            }
        }
        SeriesKey::ClusterLoad(kind) => s
            .clusters
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0.0, |c| c.load),
        SeriesKey::ClusterUtilization(kind) => s
            .clusters
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0.0, |c| c.utilization),
        SeriesKey::GpuLoad => s.gpu_load,
        SeriesKey::GpuShadersBusy => s.gpu_shaders_busy,
        SeriesKey::GpuBusBusy => s.gpu_bus_busy,
        SeriesKey::AieLoad => s.aie_load,
        SeriesKey::MemoryUsedFraction => s.memory_used_fraction,
        SeriesKey::MemoryUsedMib => s.memory_used_mib,
        SeriesKey::MemoryBandwidth => s.memory_bandwidth_utilization,
        SeriesKey::StorageBusy => s.storage_busy,
        SeriesKey::Ipc => {
            if s.cycles > 0.0 {
                s.instructions / s.cycles
            } else {
                0.0
            }
        }
        SeriesKey::CacheMpki => {
            if s.instructions > 0.0 {
                s.cache_misses / s.instructions * 1000.0
            } else {
                0.0
            }
        }
        SeriesKey::BranchMpki => {
            if s.instructions > 0.0 {
                s.branch_misses / s.instructions * 1000.0
            } else {
                0.0
            }
        }
        SeriesKey::Instructions => s.instructions,
        SeriesKey::GpuL1TextureMisses => s.gpu_l1_texture_misses_m,
    }
}

/// `TickSample::invalidate`, verbatim.
fn invalidate_reference(s: &mut TickSample) {
    for c in &mut s.clusters {
        c.utilization = f64::NAN;
        c.frequency_mhz = f64::NAN;
        c.load = f64::NAN;
        c.instructions = f64::NAN;
        c.cycles = f64::NAN;
    }
    s.instructions = f64::NAN;
    s.cycles = f64::NAN;
    s.cache_misses = f64::NAN;
    s.branches = f64::NAN;
    s.branch_misses = f64::NAN;
    s.dram_accesses = f64::NAN;
    s.gpu_utilization = f64::NAN;
    s.gpu_frequency_mhz = f64::NAN;
    s.gpu_load = f64::NAN;
    s.gpu_shaders_busy = f64::NAN;
    s.gpu_bus_busy = f64::NAN;
    s.gpu_l1_texture_misses_m = f64::NAN;
    s.aie_utilization = f64::NAN;
    s.aie_frequency_mhz = f64::NAN;
    s.aie_load = f64::NAN;
    s.memory_used_mib = f64::NAN;
    s.memory_used_fraction = f64::NAN;
    s.memory_bandwidth_utilization = f64::NAN;
    s.storage_busy = f64::NAN;
    s.storage_read_mbps = f64::NAN;
    s.storage_write_mbps = f64::NAN;
}

/// A trace as rows, with the multi-pass aggregates `Trace` computed over
/// them, verbatim.
struct RowTrace {
    tick_seconds: f64,
    samples: Vec<TickSample>,
}

impl RowTrace {
    fn of(trace: &Trace) -> Self {
        RowTrace {
            tick_seconds: trace.tick_seconds,
            samples: trace.samples.iter().collect(),
        }
    }

    fn valid_samples(&self) -> impl Iterator<Item = &TickSample> {
        self.samples.iter().filter(|s| !s.is_dropped())
    }

    fn dropped_samples(&self) -> usize {
        self.samples.iter().filter(|s| s.is_dropped()).count()
    }

    fn completeness(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        1.0 - self.dropped_samples() as f64 / self.samples.len() as f64
    }

    fn total_instructions(&self) -> f64 {
        self.valid_samples().map(|s| s.instructions).sum()
    }

    fn total_cycles(&self) -> f64 {
        self.valid_samples().map(|s| s.cycles).sum()
    }

    fn ipc(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles > 0.0 {
            self.total_instructions() / cycles
        } else {
            0.0
        }
    }

    fn cache_mpki(&self) -> f64 {
        let instr = self.total_instructions();
        if instr > 0.0 {
            self.valid_samples().map(|s| s.cache_misses).sum::<f64>() / instr * 1000.0
        } else {
            0.0
        }
    }

    fn branch_mpki(&self) -> f64 {
        let instr = self.total_instructions();
        if instr > 0.0 {
            self.valid_samples().map(|s| s.branch_misses).sum::<f64>() / instr * 1000.0
        } else {
            0.0
        }
    }
}

/// `FaultPlan`'s private stream salt and wrap modulus, verbatim.
const PLAN_SALT: u64 = 0xFA17_0001;
const WRAP_32: f64 = 4_294_967_296.0;

/// `FaultPlan`'s private SplitMix64 stream, verbatim.
struct PlanRng {
    state: u64,
}

impl PlanRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// `FaultPlan` as it worked on rows, verbatim.
struct RowFaultPlan {
    cfg: FaultConfig,
    rng: PlanRng,
    fails: bool,
    truncate_at: Option<f64>,
}

impl RowFaultPlan {
    fn new(cfg: &FaultConfig, unit: u64, run: u64, attempt: u64) -> Self {
        let base = stream_seed(cfg.seed ^ PLAN_SALT, unit, run);
        let mut rng = PlanRng {
            state: stream_seed(base, attempt, PLAN_SALT),
        };
        let fails = rng.next_f64() < cfg.run_failure_rate;
        let truncate_at = if rng.next_f64() < cfg.truncation_rate {
            Some(0.2 + 0.75 * rng.next_f64())
        } else {
            None
        };
        RowFaultPlan {
            cfg: cfg.clone(),
            rng,
            fails,
            truncate_at,
        }
    }

    fn apply(&mut self, samples: &mut [TickSample]) -> InjectionSummary {
        let mut summary = InjectionSummary::default();
        let n = samples.len();
        let cut = if n == 0 {
            None
        } else {
            self.truncate_at
                .map(|frac| ((n as f64 * frac) as usize).clamp(1, n))
        };

        for s in samples.iter_mut() {
            if s.is_dropped() {
                continue;
            }
            if self.cfg.jitter_amplitude > 0.0 {
                let noise = 1.0 + self.cfg.jitter_amplitude * self.rng.next_signed();
                s.instructions *= noise;
                s.cycles *= 1.0 + self.cfg.jitter_amplitude * self.rng.next_signed();
                s.cache_misses *= 1.0 + self.cfg.jitter_amplitude * self.rng.next_signed();
                s.branch_misses *= 1.0 + self.cfg.jitter_amplitude * self.rng.next_signed();
            }
            if self.cfg.overflow_rate > 0.0 && self.rng.next_f64() < self.cfg.overflow_rate {
                s.instructions -= WRAP_32;
            }
            if self.cfg.dropout_rate > 0.0 && self.rng.next_f64() < self.cfg.dropout_rate {
                invalidate_reference(s);
                summary.dropped += 1;
            }
        }

        for s in samples.iter_mut() {
            if !s.is_dropped() && (s.instructions < 0.0 || !s.instructions.is_finite()) {
                invalidate_reference(s);
                summary.wraps += 1;
                summary.dropped += 1;
            }
        }

        if let Some(cut) = cut {
            let mut cut_drops = 0usize;
            for s in &mut samples[cut..] {
                if !s.is_dropped() {
                    invalidate_reference(s);
                    cut_drops += 1;
                }
            }
            summary.dropped += cut_drops;
            summary.truncated = cut_drops > 0;
        }
        summary
    }
}

/// Every field of a row, by its bits, in field order.
fn row_bits(s: &TickSample) -> Vec<u64> {
    let mut bits = vec![s.time_s.to_bits(), s.clusters.len() as u64];
    for c in &s.clusters {
        bits.push(c.kind as u64);
        for v in [
            c.utilization,
            c.frequency_mhz,
            c.load,
            c.instructions,
            c.cycles,
        ] {
            bits.push(v.to_bits());
        }
    }
    for v in [
        s.instructions,
        s.cycles,
        s.cache_misses,
        s.branches,
        s.branch_misses,
        s.dram_accesses,
        s.gpu_utilization,
        s.gpu_frequency_mhz,
        s.gpu_load,
        s.gpu_shaders_busy,
        s.gpu_bus_busy,
        s.gpu_l1_texture_misses_m,
        s.aie_utilization,
        s.aie_frequency_mhz,
        s.aie_load,
        s.memory_used_mib,
        s.memory_used_fraction,
        s.memory_bandwidth_utilization,
        s.storage_busy,
        s.storage_read_mbps,
        s.storage_write_mbps,
    ] {
        bits.push(v.to_bits());
    }
    bits
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The one-pass `Trace` aggregates against the multi-pass ones.
fn assert_totals_match_rows(trace: &Trace, rows: &RowTrace, ctx: &str) {
    let totals = trace.totals();
    assert_eq!(totals.dropped, rows.dropped_samples(), "{ctx}: dropped");
    assert_eq!(trace.dropped_samples(), rows.dropped_samples(), "{ctx}");
    for (name, got, want) in [
        (
            "instructions",
            totals.instructions,
            rows.total_instructions(),
        ),
        (
            "instructions",
            trace.total_instructions(),
            rows.total_instructions(),
        ),
        ("cycles", trace.total_cycles(), rows.total_cycles()),
        ("ipc", trace.ipc(), rows.ipc()),
        ("cache_mpki", trace.cache_mpki(), rows.cache_mpki()),
        ("branch_mpki", trace.branch_mpki(), rows.branch_mpki()),
        ("completeness", trace.completeness(), rows.completeness()),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {name}");
    }
}

/// Every column, mean and max of `map`, and its run aggregates, against
/// the row references over `rows`, the trace the map was built from.
fn assert_series_map_matches_rows(map: &SeriesMap, rows: &RowTrace, ctx: &str) {
    for key in SeriesKey::ALL {
        let values: Vec<f64> = rows
            .samples
            .iter()
            .map(|s| extract_reference(key, s))
            .collect();
        let name = key.name();
        assert_eq!(bits_of(map.column(key)), bits_of(&values), "{ctx}: {name}");
        assert_eq!(
            bits_of(&map.series(key).values),
            bits_of(&values),
            "{ctx}: {name}"
        );
        let series = TimeSeries::new(rows.tick_seconds, values);
        assert_eq!(
            map.mean(key).to_bits(),
            series.mean().to_bits(),
            "{ctx}: mean {name}"
        );
        assert_eq!(
            map.max(key).to_bits(),
            series.max().to_bits(),
            "{ctx}: max {name}"
        );
    }
    // The aggregates `Capture::series_map` took from the multi-pass sums.
    let completeness = rows.completeness();
    let count_scale = if completeness > 0.0 {
        1.0 / completeness
    } else {
        1.0
    };
    for (name, got, want) in [
        (
            "runtime_seconds",
            map.runtime_seconds,
            rows.samples.len() as f64 * rows.tick_seconds,
        ),
        (
            "total_instructions",
            map.total_instructions,
            rows.total_instructions() * count_scale,
        ),
        ("ipc", map.ipc, rows.ipc()),
        ("cache_mpki", map.cache_mpki, rows.cache_mpki()),
        ("branch_mpki", map.branch_mpki, rows.branch_mpki()),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {name}");
    }
}

/// One capture through both series-map paths, the copying one and the
/// consuming one, and its per-key series, against the row references.
fn assert_capture_matches_rows(trace: Trace, ctx: &str) {
    let rows = RowTrace::of(&trace);
    assert_totals_match_rows(&trace, &rows, ctx);
    let capture = Capture::from_trace(trace);
    for key in SeriesKey::ALL {
        let want: Vec<f64> = rows
            .samples
            .iter()
            .map(|s| extract_reference(key, s))
            .collect();
        assert_eq!(
            bits_of(&capture.series(key).values),
            bits_of(&want),
            "{ctx}"
        );
    }
    let copied = capture.series_map();
    assert_series_map_matches_rows(&copied, &rows, ctx);
    let workload = capture.workload().to_owned();
    let moved = capture.into_series_map();
    assert_series_map_matches_rows(&moved, &rows, ctx);
    assert_eq!(copied.workload, workload, "{ctx}");
    assert_eq!(moved.workload, workload, "{ctx}");
}

/// The paper's platform, or the same platform without its mid cluster.
fn platform(without_mid: bool) -> SocConfig {
    let mut config = SocConfig::snapdragon_888();
    if without_mid {
        config.clusters.retain(|c| c.kind != ClusterKind::Mid);
    }
    config
}

#[test]
fn series_maps_match_row_extraction_on_every_unit() {
    let mut engine = Engine::new(SocConfig::snapdragon_888(), 0).expect("preset");
    for (i, unit) in all_units().iter().enumerate() {
        engine.reset_for(2024, i as u64, 0);
        assert_capture_matches_rows(engine.run(&unit.workload), unit.name);
    }
}

#[test]
fn empty_and_fully_dropped_traces_match_the_row_references() {
    let mut d = Demand::idle();
    d.cpu = CpuDemand::single_thread(0.8);
    let mut engine = Engine::new(SocConfig::snapdragon_888(), 0).expect("preset");
    let empty = engine.run(&ConstantWorkload::new("empty", 0.0, d.clone()));
    assert!(empty.samples.is_empty());
    assert_capture_matches_rows(empty, "empty");
    // No kept tick: every run sum is the empty sum, −0.0.
    let mut dropped = engine.run(&ConstantWorkload::new("dropped", 3.0, d));
    for t in 0..dropped.samples.len() {
        dropped.samples.invalidate(t);
    }
    assert_eq!(dropped.totals().instructions.to_bits(), (-0.0f64).to_bits());
    assert_capture_matches_rows(dropped, "fully dropped");
}

#[test]
fn a_missing_cluster_kind_reads_zero_on_kept_ticks_and_nan_on_dropped() {
    let units = all_units();
    let mut engine = Engine::new(platform(true), 0).expect("a valid platform");
    let faults = FaultConfig {
        seed: 3,
        dropout_rate: 0.2,
        ..FaultConfig::default()
    };
    for (i, unit) in units.iter().enumerate().take(3) {
        engine.reset_for(2024, i as u64, 0);
        let mut trace = engine.run(&unit.workload);
        FaultPlan::new(&faults, i as u64, 0, 0).apply(&mut trace);
        let dropped = trace.dropped_samples();
        assert!(
            dropped > 0 && dropped < trace.samples.len(),
            "{}",
            unit.name
        );
        let map = Capture::from_trace(trace.clone()).into_series_map();
        let mid = map.column(SeriesKey::ClusterLoad(ClusterKind::Mid));
        for (t, &v) in mid.iter().enumerate() {
            if trace.samples.is_dropped(t) {
                assert!(v.is_nan(), "{}: tick {t}", unit.name);
            } else {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{}: tick {t}", unit.name);
            }
        }
        assert_capture_matches_rows(trace, unit.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_fault_plan_matches_the_row_plan(
        seed in 0u64..1000,
        coordinates in prop::collection::vec(0u64..4, 3..=3),
        rates in prop::collection::vec(0.0f64..1.0, 5..=5),
        active in prop::collection::vec(0u8..2, 5..=5),
        duration in 0.05f64..12.0,
        busy in 0.0f64..1.0,
        without_mid in 0u8..2,
    ) {
        use mwc_workloads::phase::PhasedWorkload;

        // Each mechanism is on or off; its rate stays in its usual range.
        let rate = |i: usize, max: f64| if active[i] == 1 { rates[i] * max } else { 0.0 };
        let cfg = FaultConfig {
            seed,
            dropout_rate: rate(0, 0.5),
            jitter_amplitude: rate(1, 0.05),
            overflow_rate: rate(2, 0.3),
            truncation_rate: rate(3, 1.0),
            run_failure_rate: rate(4, 1.0),
            ..FaultConfig::default()
        };
        let mut d = Demand::idle();
        d.cpu = CpuDemand::multi_thread(2, 0.3 + 0.6 * busy);
        d.gpu = Some(GpuDemand::scene(busy));
        // A busy phase, then an idle one.
        let w = PhasedWorkload::builder("faulted", duration)
            .phase("busy", 0.2 + busy, d)
            .phase("idle", 1.0, Demand::idle())
            .build();
        let mut engine = Engine::new(platform(without_mid == 1), seed).expect("a valid platform");
        let mut trace = engine.run(&w);
        let mut rows: Vec<TickSample> = trace.samples.iter().collect();

        let (unit, run, attempt) = (coordinates[0], coordinates[1], coordinates[2]);
        let mut plan = FaultPlan::new(&cfg, unit, run, attempt);
        let mut reference = RowFaultPlan::new(&cfg, unit, run, attempt);
        prop_assert_eq!(plan.run_fails(), reference.fails);
        let summary = plan.apply(&mut trace);
        prop_assert_eq!(summary, reference.apply(&mut rows));
        prop_assert_eq!(trace.samples.len(), rows.len());
        for (t, (got, want)) in trace.samples.iter().zip(&rows).enumerate() {
            prop_assert_eq!(row_bits(&got), row_bits(want), "tick {}", t);
        }
        assert_capture_matches_rows(trace, "faulted");
    }
}
