//! Observability integration tests: tracing neutrality (collection never
//! perturbs the study), Chrome-trace well-formedness via the exporter's
//! own reader, cross-thread span parenting under a multi-worker capture
//! fan-out, the metrics the pipeline is contracted to emit, and the scope
//! of a collector: it records its own study and nothing else.

use std::collections::HashSet;
use std::sync::Barrier;

use mwc_core::pipeline::Characterization;
use mwc_core::StudySpec;
use mwc_obs::export::{chrome_trace_json, parse_chrome_trace};
use mwc_obs::metrics::Metric;
use mwc_obs::trace::TraceData;
use mwc_obs::{Collector, Value};
use mwc_soc::config::SocConfig;

/// Study protocol used by every test here: small (2 runs) but full-width
/// (all 18 units), on a seed distinct from the default study's.
const SEED: u64 = 77;
const RUNS: usize = 2;

/// Run the study under a collector of its own and hand back the study
/// plus everything that collector recorded.
fn traced_study(threads: usize) -> (Characterization, TraceData, Vec<(String, Metric)>) {
    let collector = Collector::default();
    let study = {
        let _entered = collector.enter();
        Characterization::run_with_threads(SocConfig::snapdragon_888(), SEED, RUNS, threads)
    };
    (study, collector.trace(), collector.metrics())
}

#[test]
fn tracing_is_neutral_study_is_bit_identical() {
    let baseline =
        Characterization::run_with_threads(SocConfig::snapdragon_888(), SEED, RUNS, 3).digest();

    let (traced, data, _) = traced_study(3);
    assert_eq!(
        traced.digest(),
        baseline,
        "collection must not perturb study results"
    );
    assert!(!data.spans.is_empty(), "the traced run collected spans");
}

#[test]
fn disabled_collection_records_nothing() {
    // A collector that exists but is never entered stays empty while a
    // study runs beside it.
    let idle = Collector::default();
    let _study = Characterization::run_with_threads(SocConfig::snapdragon_888(), SEED, 1, 2);
    assert!(
        idle.trace().is_empty(),
        "an idle collector must record no spans"
    );
    assert!(
        idle.metrics().is_empty(),
        "an idle collector must record no metrics"
    );
}

#[test]
fn concurrent_studies_each_see_only_their_own_work() {
    // Two studies traced at once on two threads, each under its own
    // collector with a 2-worker fan-out. The barrier makes them overlap.
    let unit_lists: [&[&str]; 2] = [
        &["Antutu CPU", "Antutu Mem"],
        &["Aitutu", "Antutu GPU", "Antutu UX"],
    ];
    let start = Barrier::new(unit_lists.len());
    std::thread::scope(|scope| {
        for units in unit_lists {
            let start = &start;
            scope.spawn(move || {
                let spec = StudySpec::new(SocConfig::snapdragon_888(), SEED, 1)
                    .with_units(units.iter().copied())
                    .with_threads(2);
                let collector = Collector::default();
                let study = {
                    let _entered = collector.enter();
                    start.wait();
                    Characterization::try_run_spec(&spec).expect("study runs")
                };
                assert_eq!(study.profiles().len(), units.len());
                assert_eq!(
                    collector.counter("soc.runs"),
                    units.len() as u64,
                    "one run per unit of this study, none of the other's"
                );
                let data = collector.trace();
                let mut named: Vec<String> = data
                    .spans_named("pipeline.unit")
                    .iter()
                    .filter_map(|s| s.field("name").map(ToString::to_string))
                    .collect();
                named.sort_unstable();
                let mut expected = units.to_vec();
                expected.sort_unstable();
                assert_eq!(named, expected, "unit spans name only this study's units");
                let map = data.span_named("parallel.map").expect("capture fan-out");
                assert!(
                    data.spans_named("parallel.task")
                        .iter()
                        .any(|t| t.tid != map.tid),
                    "the fan-out's worker-thread tasks are recorded here too"
                );
            });
        }
    });
}

#[test]
fn chrome_trace_parses_and_spans_nest_to_the_study_root() {
    let (_study, data, _) = traced_study(4);
    let json = chrome_trace_json(&data);
    let events = parse_chrome_trace(&json).expect("exporter output parses with its own reader");

    let spans: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
    assert_eq!(spans.len(), data.spans.len(), "every span is exported");

    // Well-formed: ids unique, every parent link lands on an exported span.
    let ids: HashSet<u64> = spans.iter().filter_map(|e| e.span_id()).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for e in &spans {
        if let Some(parent) = e.parent_id() {
            assert!(
                ids.contains(&parent),
                "{}: dangling parent {parent}",
                e.name
            );
        }
    }

    // Nested: every pipeline.unit span's ancestor chain reaches the
    // pipeline.study root, crossing the parallel fan-out on the way, and
    // the capture/simulation layers sit below the units.
    let root = data.span_named("pipeline.study").expect("study root span");
    for name in ["parallel.map", "pipeline.unit", "capture.run", "soc.run"] {
        assert!(data.span_named(name).is_some(), "missing {name} spans");
    }
    for unit in data.spans_named("pipeline.unit") {
        let mut cursor = unit.parent;
        let mut hops = 0;
        while cursor != 0 && cursor != root.id && hops < 64 {
            cursor = data
                .spans
                .iter()
                .find(|s| s.id == cursor)
                .map(|s| s.parent)
                .unwrap_or(0);
            hops += 1;
        }
        assert_eq!(cursor, root.id, "pipeline.unit must nest under the study");
    }
}

#[test]
fn worker_spans_parent_across_threads() {
    let workers = 4;
    let (_study, data, _) = traced_study(workers);

    // The capture fan-out's map span: 18 units on `workers` workers (the
    // analysis sweep has its own map spans with different item counts).
    let map = data
        .spans_named("parallel.map")
        .into_iter()
        .find(|s| {
            s.field("workers") == Some(&Value::UInt(workers as u64))
                && s.field("items") == Some(&Value::UInt(18))
        })
        .expect("capture fan-out map span");
    let tasks: Vec<_> = data
        .spans_named("parallel.task")
        .into_iter()
        .filter(|s| s.parent == map.id)
        .collect();
    assert_eq!(tasks.len(), 18, "one capture task per unit");
    assert!(
        tasks.iter().any(|t| t.tid != map.tid),
        "tasks ran on worker threads yet still parent under the map span"
    );
    // And the per-unit spans opened inside those tasks chain through them.
    for unit in data.spans_named("pipeline.unit") {
        assert!(
            tasks.iter().any(|t| t.id == unit.parent),
            "pipeline.unit parents onto a capture task"
        );
    }
}

#[test]
fn pipeline_emits_its_contracted_metrics() {
    let (study, _, metrics) = traced_study(2);
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.clone())
    };

    match get("soc.ticks") {
        Some(Metric::Counter(ticks)) => assert!(ticks > 0, "simulation ticked"),
        other => panic!("soc.ticks must be a counter, got {other:?}"),
    }
    match get("capture.runs_used") {
        Some(Metric::Counter(runs)) => {
            assert_eq!(runs as usize, study.profiles().len() * RUNS);
        }
        other => panic!("capture.runs_used must be a counter, got {other:?}"),
    }
    match get("pipeline.stage_ns") {
        Some(Metric::Histogram(h)) => {
            assert_eq!(h.count(), 3, "capture, collect and validate stages");
        }
        other => panic!("pipeline.stage_ns must be a histogram, got {other:?}"),
    }
}
