//! `wrkr` — load generator for `mwc-server`.
//!
//! Modes:
//!
//! * default: replay one request under load and print a report
//!   (`wrkr --addr H:P --spec-file spec.mwc -c 8 -n 200 --rate 50`);
//! * `--get PATH`: issue a single GET and print status + body;
//! * `--shutdown`: POST `/admin/shutdown`.
//!
//! Retries honor the server's shedding contract: 503 (and connect-level
//! failures) back off with seeded jittered exponential delays, never
//! sooner than `Retry-After` asks.

use std::process::ExitCode;
use std::time::Duration;

use mwc_core::{to_wire, StudySpec};
use mwc_server::client;
use mwc_server::loadgen::{self, LoadOptions, LoadReport};

struct Args {
    addr: String,
    path: String,
    method: String,
    headers: Vec<(String, String)>,
    spec_file: Option<String>,
    get: Option<String>,
    shutdown: bool,
    connections: usize,
    requests: usize,
    rate: f64,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:8080".to_owned(),
            path: "/study".to_owned(),
            method: "POST".to_owned(),
            headers: Vec::new(),
            spec_file: None,
            get: None,
            shutdown: false,
            connections: 8,
            requests: 200,
            rate: 0.0,
            timeout: Duration::from_secs(30),
            retries: 5,
            backoff: Duration::from_millis(50),
            seed: 2024,
        }
    }
}

const USAGE: &str = "usage: wrkr [--addr H:P] [--spec-file F] [--path /study] [--method M] \
[--header 'k: v']... [-c N] [-n TOTAL] [--rate R] [--timeout-ms T] [--retries K] \
[--backoff-ms B] [--seed S] [--get PATH | --shutdown]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--path" => args.path = value("--path")?,
            "--method" => args.method = value("--method")?,
            "--spec-file" => args.spec_file = Some(value("--spec-file")?),
            "--get" => args.get = Some(value("--get")?),
            "--shutdown" => args.shutdown = true,
            "--header" => {
                let raw = value("--header")?;
                let (k, v) = raw
                    .split_once(':')
                    .ok_or(format!("--header wants 'name: value', got {raw:?}"))?;
                args.headers
                    .push((k.trim().to_owned(), v.trim().to_owned()));
            }
            "-c" | "--connections" => {
                args.connections = value("-c")?.parse().map_err(|_| "-c wants a number")?
            }
            "-n" | "--requests" => {
                args.requests = value("-n")?.parse().map_err(|_| "-n wants a number")?
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate wants a number")?
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms wants ms")?;
                args.timeout = Duration::from_millis(ms);
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "--retries wants a number")?
            }
            "--backoff-ms" => {
                let ms: u64 = value("--backoff-ms")?
                    .parse()
                    .map_err(|_| "--backoff-ms wants ms")?;
                args.backoff = Duration::from_millis(ms);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number")?
            }
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The study a `POST /study` sends without `--spec-file`: four Antutu
/// units, one run — light enough for a quick smoke load.
fn default_spec_body(seed: u64) -> String {
    let mut spec = StudySpec::paper_default().with_units([
        "Antutu CPU",
        "Antutu GPU",
        "Antutu Mem",
        "Antutu UX",
    ]);
    spec.seed = seed;
    spec.runs = 1;
    to_wire(&spec).expect("default spec serializes")
}

fn load_options(args: &Args, body: Vec<u8>) -> LoadOptions {
    LoadOptions {
        addr: args.addr.clone(),
        method: args.method.clone(),
        path: args.path.clone(),
        headers: args.headers.clone(),
        body,
        connections: args.connections,
        requests: args.requests,
        rate: args.rate,
        timeout: args.timeout,
        retries: args.retries,
        backoff: args.backoff,
        seed: args.seed,
    }
}

fn print_report(report: &LoadReport) {
    let q = |p: f64| {
        report
            .latency_quantile_ns(p)
            .map(|ns| format!("{:.2} ms", ns / 1.0e6))
            .unwrap_or_else(|| "-".to_owned())
    };
    println!(
        "requests:   {} completed in {:.2?}",
        report.completed, report.elapsed
    );
    println!("throughput: {:.1} req/s", report.throughput());
    println!(
        "status:     2xx={} 4xx={} 5xx={} sheds={} (rate {:.1}%) retries={} exhausted={} errors={}",
        report.ok,
        report.status_4xx,
        report.status_5xx,
        report.shed_responses,
        report.shed_rate() * 100.0,
        report.retries,
        report.exhausted,
        report.errors,
    );
    println!(
        "latency:    p50={} p95={} p99={}",
        q(0.50),
        q(0.95),
        q(0.99)
    );
    if !report.notes.is_empty() {
        println!(
            "events:     {} failure/retry events (ids joinable with the server's /debug/requests/<id>)",
            report.notes.len()
        );
        for note in report.notes.iter().take(10) {
            println!("  {note}");
        }
        if report.notes.len() > 10 {
            println!("  ... {} more", report.notes.len() - 10);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if args.shutdown {
        let resp = client::request(
            &args.addr,
            "POST",
            "/admin/shutdown",
            &[],
            b"",
            args.timeout,
        )
        .map_err(|e| e.to_string())?;
        println!("{} {}", resp.status, resp.body_str().trim_end());
        return Ok(());
    }
    if let Some(path) = &args.get {
        let resp = client::request(&args.addr, "GET", path, &[], b"", args.timeout)
            .map_err(|e| e.to_string())?;
        println!("{}", resp.status);
        print!("{}", resp.body_str());
        if resp.status >= 400 {
            return Err(format!("GET {path} answered {}", resp.status));
        }
        return Ok(());
    }
    let body = match &args.spec_file {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?,
        None if args.method == "POST" && args.path == "/study" => {
            default_spec_body(args.seed).into_bytes()
        }
        None => Vec::new(),
    };
    let report = loadgen::run(&load_options(&args, body));
    print_report(&report);
    if report.completed != args.requests as u64 {
        return Err(format!(
            "only {} of {} requests completed",
            report.completed, args.requests
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("wrkr: {msg}");
            ExitCode::FAILURE
        }
    }
}
