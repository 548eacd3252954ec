//! perfbench — one end-to-end benchmark of the characterization study.
//!
//! ```text
//! perfbench --workload <study_cold|replay|serve_warm|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--pinned-digest <hex>]
//! ```
//!
//! Each workload runs in its own process (`all` re-runs this binary once
//! per workload). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Any
//! failed op or oracle mismatch exits nonzero. See `README.md`.

mod bench;
mod replay;
mod serve;
mod stats;
mod study_cold;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use bench::{Config, Outcome, Row, Scratch};

const WORKLOADS: [&str; 3] = ["study_cold", "replay", "serve_warm"];

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload does not cross reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("soc.run_ms", "ms"),
    ("soc.runs", "count"),
    ("soc.ticks", "count"),
    ("soc.ns_per_tick", "ns"),
    ("profiler.columns_ms", "ms"),
    ("profiler.derive_ms", "ms"),
    ("stages.worker_idle_ms", "ms"),
    ("cache.cold_overhead_ms", "ms"),
    ("cache.write_bytes", "bytes"),
    ("core.digest_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.read_bytes", "bytes"),
    ("core.featurize_ms", "ms"),
    ("core.series_ms", "ms"),
    ("analysis.correlation_ms", "ms"),
    ("analysis.kmeans_ms", "ms"),
    ("analysis.hierarchical_ms", "ms"),
    ("analysis.sweep_ms", "ms"),
    ("core.subsets_ms", "ms"),
    ("core.observations_ms", "ms"),
    ("http.parse_us", "us"),
    ("wire.decode_us", "us"),
    ("cache.mem_hit_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.compute_us", "us"),
    ("server.unattributed_us", "us"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("ms", |(_, unit)| unit)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pinned: u64,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        pinned: bench::PINNED_DIGEST,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--pinned-digest" => {
                args.pinned = u64::from_str_radix(value, 16).map_err(|e| bad(&e))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    isolate_environment();
    if args.workload == "all" {
        return run_all(&raw);
    }
    match run_one(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Drop every `MWC_*` knob inherited from the caller and switch the
/// process-wide study cache off, so no op is served by an earlier one and
/// nothing outside the working directory is read or written.
fn isolate_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MWC_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("MWC_CACHE", "off");
}

/// Run every workload, each in a child process of its own.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                workload.to_owned()
            } else {
                value
            });
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {workload} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload and print its report; `Ok(false)` when any op failed.
fn run_one(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads,
        pinned: args.pinned,
        scratch: Scratch::new().map_err(|e| format!("scratch directory: {e}"))?,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={} mwc_threads={} study_fanout={threads} server_workers={threads} \
         client_connections={threads} rustc=\"{}\" commit={} seed={}",
        threads,
        mwc_parallel::configured_threads(),
        env!("PERFBENCH_RUSTC"),
        bench::commit(),
        args.seed,
    );
    let mut out = match args.workload.as_str() {
        "study_cold" => study_cold::run(&cfg)?,
        "replay" => replay::run(&cfg)?,
        "serve_warm" => serve::run(&cfg)?,
        other => unreachable!("workload {other} passed validation"),
    };
    if args.trace {
        fill_layers(&mut out.metrics);
        if let Some(jsonl) = out.trace_jsonl.take() {
            let path = format!(
                ".perfbench/traces/{}-seed{}.jsonl",
                args.workload, args.seed
            );
            std::fs::create_dir_all(".perfbench/traces")
                .and_then(|()| std::fs::write(&path, jsonl))
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("spans written to {path}");
        }
    }
    print_table(&out);
    let line = result_line(&out)?;
    println!("{line}");
    Ok(out.failed == 0)
}

/// Add a zero row for every per-layer metric the workload does not cross,
/// and order the rows as [`PER_LAYER`] lists them.
fn fill_layers(metrics: &mut Vec<Row>) {
    let mut filled = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match metrics.iter().position(|r| r.name == name) {
            Some(i) => filled.push(metrics.swap_remove(i)),
            None => filled.push(Row::new(name, 0.0, unit, 0)),
        }
    }
    *metrics = filled;
}

/// The workload's own figures, then the result metrics, with sample counts.
fn print_table(out: &Outcome) {
    println!(
        "{:<26} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for r in out.rows.iter().chain(&out.metrics) {
        println!(
            "{:<26} {:>16.4} {:<6} {:>8}",
            r.name, r.value, r.unit, r.samples
        );
    }
    println!(
        "fail_ratio {} ({} failed of {} attempted)",
        stats::fail_ratio(out.attempted, out.failed),
        out.failed,
        out.attempted
    );
}

/// The one-line JSON result.
fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, r) in out.metrics.iter().enumerate() {
        if !r.value.is_finite() {
            return Err(format!("{} is not a finite number", r.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name, r.value, r.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let raw: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse_args(&raw)
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload replay --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("replay", 7, 10, true)
        );
        assert_eq!(a.pinned, bench::PINNED_DIGEST);
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload replay --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload replay --seed 1 --seconds").is_err());
    }

    #[test]
    fn traced_runs_print_every_per_layer_metric() {
        let mut rows = vec![Row::new("core.digest_ms", 6.0, "ms", 3)];
        fill_layers(&mut rows);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert_eq!(rows[9].name, "core.digest_ms");
        assert_eq!(rows[9].value, 6.0);
        assert!(rows
            .iter()
            .filter(|r| r.name != "core.digest_ms")
            .all(|r| r.value == 0.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Row::new("setup_s", 0.25, "s", 5)],
            ..Outcome::default()
        };
        assert_eq!(
            result_line(&out).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Row::new("x", f64::NAN, "ms", 1)],
            ..Outcome::default()
        };
        assert!(result_line(&bad).is_err());
    }
}
