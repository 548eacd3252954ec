//! `study_cold`: the paper-default study on a fresh seed, twice per op —
//! once uncached and once through a `StudyCache` on a fresh, empty
//! directory — with the order alternating between ops.
//!
//! On traced ops the uncached half is driven layer by layer through the
//! public calls the one-shot path is made of (engine → capture columns →
//! derive → a rebuilt `UnitProfile`), and every rebuilt profile must hash
//! to the same digest as the one-shot study's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mwc_core::pipeline::{UnitProfile, UnitSeries};
use mwc_core::{Characterization, StudyCache, StudySpec};
use mwc_profiler::capture::{Capture, SeriesKey, SeriesMap};
use mwc_profiler::derive::BenchmarkMetrics;
use mwc_profiler::faults::CaptureHealth;
use mwc_profiler::timeseries::TimeSeries;
use mwc_soc::config::ClusterKind;
use mwc_soc::engine::Engine;
use mwc_workloads::registry::BenchmarkUnit;

use crate::bench::{self, Config, Outcome, Row};
use crate::stats;
use crate::trace::{self, Ctx, Recorder};

/// Seed stream of the studies this workload runs.
const SEED_STREAM: u64 = 1;

/// One op's measurements.
#[derive(Debug)]
struct Pair {
    ok: bool,
    cached_ms: f64,
    uncached_ms: f64,
    wall_ms: f64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (setups, ()) =
        bench::timed_setups(|| bench::check_pinned(cfg.pinned, cfg.threads), |()| {})?;
    // One untimed pair lets lazy initialisation finish before timing.
    pair(cfg, u64::MAX, None)?;
    let min_ops = stats::min_samples(90) as u64;
    if !cfg.trace {
        let mut pairs = Vec::new();
        let mut error = None;
        let (ops, wall) = bench::run_for(cfg.seconds, min_ops, |i| match pair(cfg, i, None) {
            Ok(p) => pairs.push(p),
            Err(e) => {
                error.get_or_insert(e);
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        return report(&setups, &pairs, ops, wall.as_secs_f64());
    }

    // Traced and untraced ops alternate in blocks of two, so that host
    // drift hits both alike and each half order is traced equally often.
    let rec = Recorder::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    bench::run_for(cfg.seconds, 4, |i| {
        if (i / 2).is_multiple_of(2) {
            untraced.push(pair(cfg, i, None));
        } else {
            traced.push(pair(cfg, i, Some(&rec)));
        }
    });
    let untraced: Vec<Pair> = untraced.into_iter().collect::<Result<_, _>>()?;
    let traced: Vec<Pair> = traced.into_iter().collect::<Result<_, _>>()?;
    layers(&rec, &untraced, &traced)
}

/// One op: the same fresh-seed study uncached and through a fresh cache.
fn pair(cfg: &Config, i: u64, rec: Option<&Recorder>) -> Result<Pair, String> {
    let spec = bench::paper_spec(bench::derive_seed(cfg.seed, SEED_STREAM, i), cfg.threads);
    let dir = cfg.scratch.fresh_dir()?;
    let started = Instant::now();
    let result = Ctx::root(rec, i).span("op", |ctx| {
        let mut cached = None;
        let mut uncached = None;
        let halves = if i.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for cached_half in halves {
            let t = Instant::now();
            if cached_half {
                let study = ctx.span("study.cached", |_| {
                    StudyCache::with_dir(&dir).study_spec(&spec)
                });
                cached = Some((study, bench::ms(t.elapsed())));
            } else if rec.is_some() {
                let profiles = ctx.span("study.uncached", |ctx| drive(&spec, ctx));
                uncached = Some((Uncached::Driven(profiles), bench::ms(t.elapsed())));
            } else {
                let study = Characterization::try_run_spec(&spec);
                uncached = Some((
                    Uncached::OneShot(study.map_err(|e| e.to_string())),
                    bench::ms(t.elapsed()),
                ));
            }
        }
        let (cached, cached_ms) = cached.expect("cached half ran");
        let (uncached, uncached_ms) = uncached.expect("uncached half ran");
        let cached = cached.map_err(|e| format!("cached study: {e}"))?;
        black_box(ctx.span("core.digest", |_| cached.digest()));
        // The same check on traced and untraced ops, so that their walls
        // differ only by the tracing: every unit of the uncached half has
        // the digest of the cached half's unit. With equal degradation
        // reports this makes the two study digests equal.
        let (profiles, report_ok) = match &uncached {
            Uncached::OneShot(study) => {
                let study = study.as_ref().map_err(Clone::clone)?;
                (study.profiles(), study.report() == cached.report())
            }
            Uncached::Driven(profiles) => {
                let profiles = profiles.as_ref().map_err(Clone::clone)?;
                let report = cached.report();
                let complete = !report.is_degraded() && report.units_requested == profiles.len();
                (profiles.as_slice(), complete)
            }
        };
        let ok = ctx.span("bench.verify", |_| {
            report_ok
                && profiles.len() == cached.profiles().len()
                && profiles
                    .iter()
                    .zip(cached.profiles())
                    .all(|(a, b)| a.digest() == b.digest())
        });
        Ok::<_, String>((ok, cached_ms, uncached_ms))
    });
    let wall_ms = bench::ms(started.elapsed());
    Ctx::root(rec, i).count("cache.write_bytes", bench::dir_bytes(&dir) as f64);
    bench::remove_dir(&dir);
    let (ok, cached_ms, uncached_ms) = result?;
    Ok(Pair {
        ok,
        cached_ms,
        uncached_ms,
        wall_ms,
    })
}

enum Uncached {
    OneShot(Result<Characterization, String>),
    Driven(Result<Vec<UnitProfile>, String>),
}

/// The uncached study, driven unit by unit through public calls on the
/// same worker fan-out (`mwc_parallel::ordered_map_with`, one engine per
/// worker) as the one-shot path.
fn drive(spec: &StudySpec, ctx: Ctx) -> Result<Vec<UnitProfile>, String> {
    let selected = ctx
        .span("stages.validate", |_| {
            spec.validate()?;
            Engine::new(spec.config.clone(), spec.seed)?;
            spec.selected()
        })
        .map_err(|e| e.to_string())?;
    let workers = if spec.threads <= 1 || selected.len() < 2 {
        1
    } else {
        spec.threads.min(selected.len())
    };
    ctx.count("stages.workers", workers as f64);
    ctx.span("stages.fanout", |fanout| {
        mwc_parallel::ordered_map_with(
            &selected,
            spec.threads,
            || Engine::new(spec.config.clone(), spec.seed).map_err(|e| e.to_string()),
            |engine, (index, unit), _| match engine {
                Ok(engine) => Ok(drive_unit(engine, spec, *index, unit, fanout)),
                Err(e) => Err(e.clone()),
            },
        )
    })
    .into_iter()
    .collect()
}

/// One unit: `runs` engine runs, then each capture turned into columns,
/// then derived into the profile the one-shot path would build. Captures
/// live exactly as long as on the one-shot path: all runs first, columns
/// after, so memory traffic matches too.
fn drive_unit(
    engine: &mut Engine,
    spec: &StudySpec,
    index: usize,
    unit: &BenchmarkUnit,
    ctx: Ctx,
) -> UnitProfile {
    ctx.span("stages.unit", |ctx| {
        let captures: Vec<Capture> = (0..spec.runs)
            .map(|run| {
                let trace = ctx.span("soc.run", |_| {
                    engine.reset_for(spec.seed, index as u64, run as u64);
                    engine.run(&unit.workload)
                });
                ctx.count("soc.ticks", trace.samples.len() as f64);
                Capture::from_trace(trace)
            })
            .collect();
        // Freeing the raw traces is part of the capture stage's cost.
        let maps: Vec<SeriesMap> = ctx.span("profiler.columns", |_| {
            let maps = captures.iter().map(Capture::series_map).collect();
            drop(captures);
            maps
        });
        ctx.span("profiler.derive", |_| derive(unit, &maps, spec.runs))
    })
}

fn derive(unit: &BenchmarkUnit, maps: &[SeriesMap], runs: usize) -> UnitProfile {
    let avg = |key: SeriesKey| {
        let series: Vec<TimeSeries> = maps.iter().map(|m| m.series(key)).collect();
        TimeSeries::average(&series)
    };
    UnitProfile {
        name: unit.name.to_owned(),
        suite: unit.suite,
        label: unit.label,
        metrics: BenchmarkMetrics::from_series_maps(maps),
        series: UnitSeries {
            cpu_load: avg(SeriesKey::CpuLoad),
            little_load: avg(SeriesKey::ClusterLoad(ClusterKind::Little)),
            mid_load: avg(SeriesKey::ClusterLoad(ClusterKind::Mid)),
            big_load: avg(SeriesKey::ClusterLoad(ClusterKind::Big)),
            gpu_load: avg(SeriesKey::GpuLoad),
            shaders_busy: avg(SeriesKey::GpuShadersBusy),
            bus_busy: avg(SeriesKey::GpuBusBusy),
            aie_load: avg(SeriesKey::AieLoad),
            memory_fraction: avg(SeriesKey::MemoryUsedFraction),
            memory_mib: avg(SeriesKey::MemoryUsedMib),
            ipc: avg(SeriesKey::Ipc),
            storage_busy: avg(SeriesKey::StorageBusy),
        },
        health: CaptureHealth::clean(runs),
    }
}

fn report(setups: &[f64], pairs: &[Pair], ops: u64, wall_s: f64) -> Result<Outcome, String> {
    let good: Vec<&Pair> = pairs.iter().filter(|p| p.ok).collect();
    let cached: Vec<f64> = good.iter().map(|p| p.cached_ms).collect();
    let uncached: Vec<f64> = good.iter().map(|p| p.uncached_ms).collect();
    let n = good.len();
    let tax = stats::median(&stats::paired_differences(&cached, &uncached));
    Ok(Outcome {
        attempted: ops,
        failed: ops - n as u64,
        rows: [
            bench::percentile_rows("study_ms", &cached, &[50, 90]),
            bench::percentile_rows("study_uncached_ms", &uncached, &[50, 90]),
            vec![
                Row::new("cache_tax_ms.p50", tax.unwrap_or(0.0), "ms", n),
                Row::new("pairs_per_s", n as f64 / wall_s, "1/s", n),
            ],
        ]
        .concat(),
        metrics: bench::end_to_end(setups, &cached)?,
        trace_jsonl: None,
    })
}

/// Per-layer figures from the traced half, as medians per op.
fn layers(rec: &Recorder, untraced: &[Pair], traced: &[Pair]) -> Result<Outcome, String> {
    let (spans, counts) = rec.snapshot();
    let ops = trace::summarize(&spans, &counts);
    let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut push = |name, v: f64| per.entry(name).or_default().push(v);
    for s in ops.values() {
        let soc_ns = s.total_ns.get("soc.run").copied().unwrap_or(0) as f64;
        let ticks = s.count("soc.ticks");
        push("soc.run_ms", soc_ns / 1e6);
        push("soc.runs", *s.spans.get("soc.run").unwrap_or(&0) as f64);
        push("soc.ticks", ticks);
        push(
            "soc.ns_per_tick",
            if ticks > 0.0 { soc_ns / ticks } else { 0.0 },
        );
        push("profiler.columns_ms", s.self_ms("profiler.columns"));
        push("profiler.derive_ms", s.self_ms("profiler.derive"));
        push(
            "stages.worker_idle_ms",
            s.total_ms("stages.fanout") * s.count("stages.workers") - s.total_ms("stages.unit"),
        );
        push(
            "cache.cold_overhead_ms",
            s.total_ms("study.cached") - s.total_ms("study.uncached"),
        );
        push("cache.write_bytes", s.count("cache.write_bytes"));
        push("core.digest_ms", s.self_ms("core.digest"));
        push("unattributed_ms", s.self_ms("op"));
    }
    let mut metrics = bench::median_rows(per);
    let wall = |pairs: &[Pair]| {
        let w: Vec<f64> = pairs.iter().map(|p| p.wall_ms).collect();
        stats::median(&w).unwrap_or(0.0)
    };
    metrics.push(Row::new(
        "trace.overhead_ms",
        wall(traced) - wall(untraced),
        "ms",
        traced.len(),
    ));
    let failed = untraced.iter().chain(traced).filter(|p| !p.ok).count() as u64;
    Ok(Outcome {
        attempted: (untraced.len() + traced.len()) as u64,
        failed,
        rows: Vec::new(),
        metrics,
        trace_jsonl: Some(trace::to_jsonl(&spans)),
    })
}
