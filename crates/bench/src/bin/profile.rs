//! Self-profiling run of the full characterization pipeline.
//!
//! Runs the default study (18 units, 3 runs, seed 2024) — or the study a
//! `mwc-spec v1` document describes (`profile --spec-file <path>`, the
//! grammar `POST /study` takes) — the k = 5 clustering and the Figure 4
//! validation sweep under its own `mwc-obs` collector, then reports
//! where the wall time went:
//!
//! * per-stage wall time (count / total / self / max per span name);
//! * the slowest per-unit simulations (top-k `pipeline.unit` spans);
//! * result-cache statistics (memory/disk hits, misses, stores,
//!   corrupt entries, evictions);
//! * capture-health counters (retries, drops, overflow wraps, …);
//! * the collector's full metrics registry.
//!
//! The printed `study digest:` line fingerprints every value the study
//! produced; `scripts/verify.sh` compares it with the digest of an
//! untraced run to assert that observability never perturbs results. When
//! `MWC_TRACE=<path>` is set the collected spans are also written as a
//! Chrome `trace_event` file (or a JSONL log if the path ends in
//! `.jsonl`) loadable in `chrome://tracing` / Perfetto.

use mwc_core::{from_wire, PipelineError, StudyCache, StudySpec};
use mwc_obs::export;
use mwc_obs::metrics::Metric;
use mwc_obs::summary::{fmt_ns, top_spans_by_field, Summary};
use mwc_report::table::Table;

/// How many of the slowest units to show.
const TOP_K_UNITS: usize = 8;

fn main() {
    let spec = spec_from_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    mwc_bench::run_or_exit(|| run(&spec));
}

/// The paper-default spec, or the wire document `--spec-file` names.
fn spec_from_args() -> Result<StudySpec, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(StudySpec::paper_default()),
        [flag, path] if flag == "--spec-file" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            from_wire(&text).map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("usage: profile [--spec-file <path>]".to_owned()),
    }
}

fn run(spec: &StudySpec) -> Result<(), PipelineError> {
    // This binary exists to profile the pipeline, so it always collects.
    let collector = mwc_obs::Collector::default();
    let _entered = collector.enter();

    mwc_bench::header("Self-profile: study + clustering + validation sweep");
    let cache = StudyCache::from_env();
    let study = cache.study_spec(spec)?;
    let study = &*study;
    let clustering = mwc_core::figures::fig6(study)?;
    let sweep = mwc_core::figures::fig4(study)?;

    println!("study digest: {:016x}", study.digest());
    println!(
        "units profiled: {} of {} requested; clustering k = {}; sweep points = {}",
        study.report().units_profiled(),
        study.report().units_requested,
        clustering.k(),
        sweep.points.len(),
    );

    let data = collector.trace();
    let metrics = collector.metrics();

    mwc_bench::header("Per-stage wall time");
    let stage_summary = Summary::from_trace(&data);
    let mut stages = Table::new(vec!["span", "count", "total", "self", "max"]);
    for s in stage_summary.stats() {
        stages.row(vec![
            s.name.clone(),
            s.count.to_string(),
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            fmt_ns(s.max_ns),
        ]);
    }
    println!("{}", stages.render());

    mwc_bench::header(&format!("Slowest units (top {TOP_K_UNITS})"));
    let mut units = Table::new(vec!["unit", "sim time"]);
    for (name, ns) in top_spans_by_field(&data, "pipeline.unit", "name", TOP_K_UNITS) {
        units.row(vec![name, fmt_ns(ns)]);
    }
    println!("{}", units.render());

    mwc_bench::header("Result cache");
    let stats = cache.stats();
    println!("cache location: {}", cache.describe());
    // Machine-parseable one-liner consumed by scripts/verify.sh.
    println!("cache stats: {}", stats.summary());
    let mut cache_table = Table::new(vec!["event", "count"]);
    for (event, count) in [
        ("memory hits", stats.mem_hits),
        ("disk hits", stats.disk_hits),
        ("misses", stats.misses),
        ("stores", stats.stores),
        ("corrupt entries", stats.corrupt_entries),
        ("evictions", stats.evictions),
        ("store failures", stats.store_failures),
    ] {
        cache_table.row(vec![event.into(), count.to_string()]);
    }
    println!("{}", cache_table.render());

    mwc_bench::header("Per-stage cache");
    // Machine-parseable one-liner consumed by scripts/verify.sh's
    // incremental gate (sims = units simulated, reused = units replayed).
    println!("stage stats: {}", cache.stage_summary());
    let mut stage_table = Table::new(vec![
        "kind",
        "mem hits",
        "disk hits",
        "misses",
        "stores",
        "corrupt",
        "evictions",
        "store failures",
    ]);
    for kind in mwc_core::cache::Kind::ALL {
        let s = cache.stage(kind);
        stage_table.row(vec![
            kind.name().into(),
            s.mem_hits.to_string(),
            s.disk_hits.to_string(),
            s.misses.to_string(),
            s.stores.to_string(),
            s.corrupt_entries.to_string(),
            s.evictions.to_string(),
            s.store_failures.to_string(),
        ]);
    }
    println!("{}", stage_table.render());

    mwc_bench::header("Capture health");
    let mut health = Table::new(vec!["metric", "value"]);
    for (name, metric) in &metrics {
        if let (true, Metric::Counter(v)) = (name.starts_with("capture."), metric) {
            health.row(vec![name.clone(), v.to_string()]);
        }
    }
    if health.is_empty() {
        health.row(vec!["(no capture metrics)".into(), "-".into()]);
    }
    println!("{}", health.render());

    mwc_bench::header("Kernel timings");
    // The analysis kernels time themselves into `kernel.*` histograms
    // (mwc-analysis::kernels::KernelTimer); collection is on in this
    // binary, so the hot clustering/correlation paths show up here.
    let mut kernel_table = Table::new(vec!["kernel", "calls", "total", "mean", "max"]);
    for (name, metric) in &metrics {
        if let (true, Metric::Histogram(h)) = (name.starts_with("kernel."), metric) {
            kernel_table.row(vec![
                name.clone(),
                h.count().to_string(),
                fmt_ns(h.sum() as u64),
                fmt_ns(h.mean() as u64),
                fmt_ns(h.max() as u64),
            ]);
        }
    }
    if kernel_table.is_empty() {
        kernel_table.row(vec![
            "(no kernel metrics)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    println!("{}", kernel_table.render());

    mwc_bench::header("Metrics registry");
    let mut dump = Table::new(vec!["metric", "kind", "value"]);
    for (name, metric) in &metrics {
        let (kind, value) = match metric {
            Metric::Counter(v) => ("counter", v.to_string()),
            Metric::Gauge(v) => ("gauge", format!("{v}")),
            Metric::Histogram(h) => (
                "histogram",
                format!(
                    "n = {}, mean = {}, max = {}",
                    h.count(),
                    fmt_ns(h.mean() as u64),
                    fmt_ns(h.max() as u64),
                ),
            ),
        };
        dump.row(vec![name.clone(), kind.into(), value]);
    }
    println!("{}", dump.render());

    if let Some(path) = mwc_obs::trace_path() {
        let body = if export::wants_jsonl(&path) {
            export::jsonl(&data, &metrics)
        } else {
            export::chrome_trace_json(&data)
        };
        std::fs::write(&path, body)?;
        println!(
            "trace written to {} ({} spans, {} events)",
            path.display(),
            data.spans.len(),
            data.events.len(),
        );
    }

    Ok(())
}
