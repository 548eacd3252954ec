//! End-to-end behaviour of the flaky-profiler model: the fault-off path is
//! bit-identical to the historical pipeline, moderate fault plans degrade
//! the study gracefully without moving the paper's aggregates, and
//! catastrophic plans produce typed errors instead of panics.

use mobile_workload_characterization::prelude::*;
use mwc_core::features::fig1_matrix;
use mwc_core::{figures, subsets, PipelineError};
use mwc_profiler::faults::{robust_merge, FaultConfig};

const THREADS: usize = 3;
/// The paper protocol's seed.
const SEED: u64 = 2024;

fn run_faulty(seed: u64, runs: usize, faults: &FaultConfig) -> Characterization {
    Characterization::try_run_with(SocConfig::snapdragon_888(), seed, runs, THREADS, faults)
        .expect("study completes under this plan")
}

#[test]
fn fault_off_pipeline_is_bit_identical_to_run() {
    let baseline = Characterization::run_with_threads(SocConfig::snapdragon_888(), 77, 1, 1);
    for threads in [1, 4] {
        let via_faults = Characterization::try_run_with(
            SocConfig::snapdragon_888(),
            77,
            1,
            threads,
            &FaultConfig::default(),
        )
        .expect("fault-free study succeeds");
        assert_eq!(baseline, via_faults, "threads = {threads}");
    }
    assert!(!baseline.report().is_degraded());
    assert!(baseline.profiles().iter().all(|p| p.health.is_clean()));
}

#[test]
fn moderate_faults_complete_the_study_within_tolerance() {
    // The acceptance plan: 5% sample dropout plus roughly one truncated
    // run in eighteen, quorum-merged over the paper's three-run protocol.
    let faults = FaultConfig {
        seed: 7,
        dropout_rate: 0.05,
        truncation_rate: 0.055,
        ..FaultConfig::default()
    };
    let reference =
        Characterization::run_with_threads(SocConfig::snapdragon_888(), SEED, 3, THREADS);
    let faulty = run_faulty(SEED, 3, &faults);

    assert_eq!(
        faulty.profiles().len(),
        18,
        "no unit fails outright under this plan"
    );
    assert!(
        faulty.profiles().iter().any(|p| !p.health.is_clean()),
        "the plan visibly injected faults"
    );
    assert!(
        faulty
            .profiles()
            .iter()
            .map(|p| p.health.dropped_samples)
            .sum::<usize>()
            > 0,
        "dropout is recorded in the health report"
    );

    // Figure-1 aggregates stay within 2% of the fault-free study.
    let r = fig1_matrix(&reference).expect("full study");
    let f = fig1_matrix(&faulty).expect("profiled units remain");
    for i in 0..r.rows() {
        for j in 0..r.cols() {
            let rv = r.get(i, j);
            let fv = f.get(i, j);
            let tol = 0.02 * rv.abs() + 1e-9;
            assert!(
                (fv - rv).abs() <= tol,
                "unit {i} metric {j}: fault-free {rv}, faulty {fv}"
            );
        }
    }
}

#[test]
fn all_runs_failing_is_a_typed_error() {
    let faults = FaultConfig {
        seed: 3,
        run_failure_rate: 1.0,
        ..FaultConfig::default()
    };
    let err = Characterization::try_run_with(SocConfig::snapdragon_888(), 77, 1, THREADS, &faults)
        .expect_err("nothing can be captured");
    match err {
        PipelineError::StudyEmpty { requested } => assert_eq!(requested, 18),
        other => panic!("expected StudyEmpty, got {other}"),
    }
}

#[test]
fn partial_failure_degrades_gracefully() {
    // Each run gets three attempts, each failing with p = 0.7, so a unit
    // of one run is excluded with p ≈ 0.34 — some but (almost surely for
    // this fixed seed) not all of the eighteen units drop out.
    let faults = FaultConfig {
        seed: 5,
        run_failure_rate: 0.7,
        ..FaultConfig::default()
    };
    let study = run_faulty(77, 1, &faults);
    let report = study.report();
    assert!(report.is_degraded(), "some units are excluded");
    assert!(
        report.units_profiled() < 18 && report.units_profiled() > 0,
        "partial survival: {}",
        report.summary()
    );
    assert!(report.summary().contains("excluded"));

    // The analyses run on the survivors instead of panicking.
    let f1 = figures::fig1(&study);
    assert_eq!(f1.rows.len(), report.units_profiled());
    let select = subsets::select_subset(&study);
    assert!(!select.indices.is_empty());
    for o in check_all(&study) {
        assert!(!o.evidence.is_empty(), "observation #{} reports", o.id);
    }
    if report.units_profiled() >= 5 {
        figures::fig6(&study).expect("clustering still works on survivors");
    }
}

#[test]
fn quorum_merge_rejects_counter_glitches() {
    let (merged, rejected) = robust_merge(&[10.0, 10.2, 9.9, 10.1, 4.0e9]);
    assert_eq!(rejected, 1, "the wrapped-counter outlier is rejected");
    assert!(
        (merged - 10.05).abs() < 0.2,
        "merged to the quorum: {merged}"
    );

    let (clean, none) = robust_merge(&[10.0, 10.2, 9.9]);
    assert_eq!(none, 0);
    assert!((clean - 10.0).abs() < 1e-9, "median of a clean quorum");
}

/// A fixed faulted plan — the `faults` binary's demo plan: seed 7, 5%
/// dropout, 1% jitter, ~1-in-18 truncated runs, 3 attempts — runs a whole
/// study end to end on every test pass, and the same study with faults off
/// is the historical pipeline.
#[test]
fn env_fault_plan_yields_a_usable_study() {
    let faults = FaultConfig {
        seed: 7,
        dropout_rate: 0.05,
        jitter_amplitude: 0.01,
        truncation_rate: 0.055,
        max_attempts: 3,
        ..FaultConfig::default()
    };
    let study =
        Characterization::try_run_with(SocConfig::snapdragon_888(), 77, 1, THREADS, &faults)
            .expect("study completes under the fixed plan");
    assert!(study.report().units_profiled() > 0);

    let fault_off = Characterization::try_run_with(
        SocConfig::snapdragon_888(),
        77,
        1,
        THREADS,
        &FaultConfig::default(),
    )
    .expect("fault-free study succeeds");
    let plain = Characterization::run_with_threads(SocConfig::snapdragon_888(), 77, 1, 1);
    assert_eq!(
        fault_off, plain,
        "fault-off path is the historical pipeline"
    );
}

/// A fault-injected paper-default study is pinned bit for bit. The spec
/// exercises dropout, jitter, counter wraps and their repair, truncation,
/// failed runs and retries, and one unit whose every attempt fails.
/// Uncached, so the digest comes from a real simulation, and at two
/// worker counts, so no fan-out order can move it.
#[test]
fn faulty_study_digest_is_pinned() {
    let spec = mwc_core::from_wire(include_str!("data/faulty.spec")).expect("valid spec");
    for threads in [1, 4] {
        let study = Characterization::try_run_spec(&spec.clone().with_threads(threads))
            .expect("the faulty study completes");
        assert_eq!(
            study.report().summary(),
            "17/18 units profiled (excluded: PCMark Storage)",
            "threads = {threads}"
        );
        assert_eq!(
            format!("{:016x}", study.digest()),
            EXPECTED_FAULTY_DIGEST,
            "faulty study digest moved at threads = {threads}"
        );
    }
}

/// Digest of the `tests/data/faulty.spec` study, as `profile --spec-file`
/// prints it.
const EXPECTED_FAULTY_DIGEST: &str = "69dd78275bfcd04c";
