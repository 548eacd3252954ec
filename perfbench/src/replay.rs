//! `replay`: a warm-disk study load followed by everything the `all` bin
//! prints — Figures 1–7, Tables III/V/VI, the subsets and the
//! observations — through the public figure, table, subset, observation
//! and analysis functions. No simulation runs once set-up is done.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mwc_analysis::cluster::{hierarchical, kmeans, Linkage};
use mwc_analysis::validation;
use mwc_core::{features, figures, observations, subsets, tables, StudyCache, StudySpec};

use crate::bench::{self, Config, Outcome, Row};
use crate::stats;
use crate::trace::{self, Ctx, Recorder};

/// Seed stream of the prefilled studies.
const SEED_STREAM: u64 = 2;
/// Studies prefilled in set-up; ops load them round-robin.
const STUDIES: u64 = 4;
/// The Figure-4 candidate cluster counts.
const SWEEP_KS: [usize; 5] = [2, 3, 4, 5, 6];

/// A cache directory holding [`STUDIES`] studies, with the digest and
/// entry size each had when it was stored.
struct Prefilled {
    dir: PathBuf,
    specs: Vec<StudySpec>,
    digests: Vec<u64>,
    entry_bytes: Vec<u64>,
}

fn prefill(cfg: &Config) -> Result<Prefilled, String> {
    bench::check_pinned(cfg.pinned, cfg.threads)?;
    let dir = cfg.scratch.fresh_dir()?;
    let cache = StudyCache::with_dir(&dir);
    let mut p = Prefilled {
        dir,
        specs: Vec::new(),
        digests: Vec::new(),
        entry_bytes: Vec::new(),
    };
    for k in 0..STUDIES {
        let spec = bench::paper_spec(bench::derive_seed(cfg.seed, SEED_STREAM, k), cfg.threads);
        let study = cache
            .study_spec(&spec)
            .map_err(|e| format!("prefill study {k}: {e}"))?;
        let entry = p.dir.join(format!("study-{:016x}.mwcc", spec.study_key()));
        let bytes = std::fs::metadata(&entry)
            .map_err(|e| format!("prefilled entry {}: {e}", entry.display()))?
            .len();
        p.digests.push(study.digest());
        p.entry_bytes.push(bytes);
        p.specs.push(spec);
    }
    Ok(p)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setups, prefilled) = bench::timed_setups(|| prefill(cfg), |p| bench::remove_dir(&p.dir))?;
    let result = measure(cfg, &setups, &prefilled);
    bench::remove_dir(&prefilled.dir);
    result
}

fn measure(cfg: &Config, setups: &[f64], p: &Prefilled) -> Result<Outcome, String> {
    // One untimed op lets lazy initialisation finish before timing.
    op(p, 0, None).map_err(|e| format!("warm-up replay: {e}"))?;
    if !cfg.trace {
        let mut walls = Vec::new();
        let mut failed = 0;
        let (ops, wall) = bench::run_for(cfg.seconds, stats::min_samples(90) as u64, |i| {
            let started = Instant::now();
            match op(p, i, None) {
                Ok(()) => walls.push(bench::ms(started.elapsed())),
                Err(e) => {
                    failed += 1;
                    eprintln!("replay: op {i} failed: {e}");
                }
            }
        });
        return report(setups, &walls, ops, failed, wall.as_secs_f64());
    }

    // Traced and untraced ops alternate, so that host drift hits both alike.
    let rec = Recorder::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let (ops, _) = bench::run_for(cfg.seconds, 2, |i| {
        let traced_op = !i.is_multiple_of(2);
        let started = Instant::now();
        match op(p, i, traced_op.then_some(&rec)) {
            Ok(()) if traced_op => traced.push(bench::ms(started.elapsed())),
            Ok(()) => untraced.push(bench::ms(started.elapsed())),
            Err(e) => {
                failed += 1;
                eprintln!("replay: op {i} failed: {e}");
            }
        }
    });
    let mut out = layers(&rec)?;
    out.metrics.push(Row::new(
        "trace.overhead_ms",
        stats::median(&traced).unwrap_or(0.0) - stats::median(&untraced).unwrap_or(0.0),
        "ms",
        traced.len(),
    ));
    out.attempted = ops;
    out.failed = failed;
    Ok(out)
}

/// One replay: load study `i mod STUDIES` from disk and rebuild the report.
fn op(p: &Prefilled, i: u64, rec: Option<&Recorder>) -> Result<(), String> {
    let k = (i % STUDIES) as usize;
    Ctx::root(rec, i).span("op", |ctx| {
        let (study, stats) = ctx.span("cache.load", |_| load(&p.dir, &p.specs[k]));
        let study = study?;
        if stats.disk_hits != 1 || stats.misses != 0 {
            return Err(format!("study {k} was not a disk hit: {}", stats.summary()));
        }
        ctx.count("cache.read_bytes", p.entry_bytes[k] as f64);
        let digest = ctx.span("core.digest", |_| study.digest());
        if digest != p.digests[k] {
            return Err(format!(
                "study {k} loaded with digest {digest:016x}, stored {:016x}",
                p.digests[k]
            ));
        }
        let features = ctx
            .span("core.featurize", |_| features::featurize(&study))
            .map_err(|e| e.to_string())?;
        ctx.span("core.series", |_| {
            black_box(figures::fig1(&study));
            black_box(figures::fig2(&study, 50));
            black_box(figures::fig3(&study, 50));
            black_box(tables::table5_data(&study));
        });
        let correlation = ctx
            .span("analysis.correlation", |_| tables::table3_matrix(&study))
            .map_err(|e| e.to_string())?;
        black_box(correlation);
        let sweep = ctx
            .span("analysis.sweep", |_| {
                validation::sweep(&features.clustering, &SWEEP_KS)
            })
            .map_err(|e| e.to_string())?;
        let clustering = ctx
            .span("analysis.kmeans", |_| kmeans(&features.clustering, 5, 42))
            .map_err(|e| e.to_string())?;
        let dendrogram = ctx
            .span("analysis.hierarchical", |_| {
                hierarchical(&features.clustering, Linkage::Ward)
            })
            .map_err(|e| e.to_string())?;
        let curves = ctx
            .span("core.subsets", |_| {
                let sets = [
                    subsets::naive_subset(&study, &clustering),
                    subsets::select_subset(&study),
                    subsets::select_plus_gpu_subset(&study),
                ];
                black_box(tables::table6(&study, &clustering));
                figures::fig7(&study, &sets)
            })
            .map_err(|e| e.to_string())?;
        let observed = ctx.span("core.observations", |_| observations::check_all(&study));
        let units = study.profiles().len();
        let checks = [
            (sweep.points.len() == 3 * SWEEP_KS.len(), "sweep points"),
            (clustering.k() == 5, "k-means k"),
            (dendrogram.merges().len() + 1 == units, "dendrogram merges"),
            (curves.len() == 3, "Figure 7 curves"),
            (observed.len() == 9, "observations"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(format!("study {k}: unexpected {what}")),
            None => Ok(()),
        }
    })
}

fn load(
    dir: &Path,
    spec: &StudySpec,
) -> (
    Result<std::sync::Arc<mwc_core::Characterization>, String>,
    mwc_core::CacheStats,
) {
    let cache = StudyCache::with_dir(dir);
    let study = cache.study_spec(spec).map_err(|e| e.to_string());
    (study, cache.stats())
}

fn report(
    setups: &[f64],
    walls: &[f64],
    ops: u64,
    failed: u64,
    wall_s: f64,
) -> Result<Outcome, String> {
    let n = walls.len();
    Ok(Outcome {
        attempted: ops,
        failed,
        rows: [
            bench::percentile_rows("replay_ms", walls, &[50, 90]),
            vec![Row::new("replays_per_s", n as f64 / wall_s, "1/s", n)],
        ]
        .concat(),
        metrics: bench::end_to_end(setups, walls)?,
        trace_jsonl: None,
    })
}

/// Per-layer figures from the traced half, as medians per op.
fn layers(rec: &Recorder) -> Result<Outcome, String> {
    let (spans, counts) = rec.snapshot();
    let ops = trace::summarize(&spans, &counts);
    let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in ops.values() {
        let mut push = |name, v: f64| per.entry(name).or_default().push(v);
        push("cache.load_ms", s.self_ms("cache.load"));
        push("cache.read_bytes", s.count("cache.read_bytes"));
        push("core.digest_ms", s.self_ms("core.digest"));
        push("core.featurize_ms", s.self_ms("core.featurize"));
        push("core.series_ms", s.self_ms("core.series"));
        push("analysis.correlation_ms", s.self_ms("analysis.correlation"));
        push("analysis.sweep_ms", s.self_ms("analysis.sweep"));
        push("analysis.kmeans_ms", s.self_ms("analysis.kmeans"));
        push(
            "analysis.hierarchical_ms",
            s.self_ms("analysis.hierarchical"),
        );
        push("core.subsets_ms", s.self_ms("core.subsets"));
        push("core.observations_ms", s.self_ms("core.observations"));
        push("unattributed_ms", s.self_ms("op"));
    }
    let metrics = bench::median_rows(per);
    Ok(Outcome {
        metrics,
        trace_jsonl: Some(trace::to_jsonl(&spans)),
        ..Outcome::default()
    })
}
