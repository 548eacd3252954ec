//! `sweep` — a resumable seed sweep over the characterization study.
//!
//! Runs the study at `--seeds` consecutive seeds starting from
//! `--base-seed`, printing one line per point and a combined sweep
//! digest. Each point goes through the result cache: a point whose
//! study entry is already stored is *replayed* (no simulation — the
//! `soc_runs` figure in the stats line is the oracle), everything else
//! is computed and stored. Interrupt a sweep (or truncate one with
//! `--limit`), re-run the same command, and it finishes only the
//! missing points. Under `MWC_CACHE=off` every point is recomputed.
//!
//! ```text
//! sweep [--seeds N] [--base-seed S] [--runs R] [--units "A, B"] [--limit K]
//! ```

use std::time::Instant;

use mwc_bench::{header, run_or_exit};
use mwc_core::{StudyCache, StudySpec};
use mwc_soc::config::SocConfig;
use mwc_soc::digest::Fnv1a;

struct Args {
    seeds: u64,
    base_seed: u64,
    runs: usize,
    units: Option<Vec<String>>,
    limit: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 3,
        base_seed: mwc_bench::DEFAULT_SEED,
        runs: 1,
        units: None,
        limit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--base-seed" => {
                args.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|e| format!("--base-seed: {e}"))?;
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--units" => {
                args.units = Some(
                    value("--units")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
            }
            "--limit" => {
                args.limit = Some(
                    value("--limit")?
                        .parse()
                        .map_err(|e| format!("--limit: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    Ok(args)
}

fn point_spec(args: &Args, seed: u64) -> StudySpec {
    let mut spec = StudySpec::new(SocConfig::snapdragon_888(), seed, args.runs);
    if let Some(names) = &args.units {
        spec = spec.with_units(names.clone());
    }
    spec
}

fn main() {
    run_or_exit(|| {
        let args = match parse_args() {
            Ok(args) => args,
            Err(e) => {
                eprintln!("sweep: {e}");
                eprintln!(
                    "usage: sweep [--seeds N] [--base-seed S] [--runs R] \
                     [--units \"A, B\"] [--limit K]"
                );
                std::process::exit(2);
            }
        };
        // `soc.runs` is the sweep's own telemetry; collection is
        // digest-neutral by contract.
        let collector = mwc_obs::Collector::default();
        let _entered = collector.enter();
        let cache = StudyCache::from_env();

        header("Study sweep");
        println!(
            "points={} base_seed={} runs={} units={} cache={}",
            args.seeds,
            args.base_seed,
            args.runs,
            args.units
                .as_ref()
                .map_or("all".to_owned(), |u| u.len().to_string()),
            cache.describe(),
        );

        let started = Instant::now();
        let mut digests: Vec<u64> = Vec::new();
        let mut computed = 0usize;
        let mut replayed = 0usize;
        for i in 0..args.seeds {
            if let Some(limit) = args.limit {
                if digests.len() >= limit {
                    println!("sweep interrupted after {limit} points (--limit)");
                    break;
                }
            }
            let seed = args.base_seed.wrapping_add(i);
            let spec = point_spec(&args, seed);
            let point_start = Instant::now();
            let hits_before = cache.stats().hits();
            let digest = cache.study_spec(&spec)?.digest();
            let source = if cache.stats().hits() > hits_before {
                replayed += 1;
                "replayed"
            } else {
                computed += 1;
                "computed"
            };
            digests.push(digest);
            println!(
                "point seed={seed} source={source} digest={digest:016x} elapsed_ms={}",
                point_start.elapsed().as_millis()
            );
        }

        let mut h = Fnv1a::new();
        for &d in &digests {
            h.write_u64(d);
        }
        println!("sweep digest: {:016x}", h.finish());
        println!(
            "sweep stats: points={} computed={computed} replayed={replayed} soc_runs={} elapsed_ms={}",
            digests.len(),
            collector.counter("soc.runs"),
            started.elapsed().as_millis(),
        );
        Ok(())
    });
}
