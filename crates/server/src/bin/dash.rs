//! `dash` — a std-only terminal dashboard for a running `mwc-server`.
//!
//! Polls `GET /metrics` (the `server_rolling_*` / `server_slo_*` tail)
//! and `GET /debug/requests` (when `MWC_SERVER_DEBUG_RING` is enabled on
//! the server) and renders live rps, latency quantiles, error/shed/
//! cache-hit rates and queue/worker utilization with plain ANSI — no
//! terminal library, works over ssh.
//!
//! ```text
//! dash --addr 127.0.0.1:8080              # live, 1 s refresh
//! dash --addr 127.0.0.1:8080 --once       # one snapshot (for scripts)
//! dash --addr 127.0.0.1:8080 --interval-ms 250
//! ```
//!
//! The ROADMAP item-3 "live dashboard streaming … from mwc-obs",
//! delivered over the server's telemetry endpoints.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use mwc_obs::export::{parse_json, Json};
use mwc_server::client;

struct Args {
    addr: String,
    interval: Duration,
    once: bool,
    timeout: Duration,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:8080".to_owned(),
            interval: Duration::from_millis(1_000),
            once: false,
            timeout: Duration::from_secs(5),
        }
    }
}

const USAGE: &str = "usage: dash [--addr H:P] [--interval-ms N] [--timeout-ms N] [--once]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms wants ms")?;
                args.interval = Duration::from_millis(ms.max(100));
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms wants ms")?;
                args.timeout = Duration::from_millis(ms.max(1));
            }
            "--once" => args.once = true,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Parse the Prometheus-style `/metrics` text into name → value for the
/// scalar (non-histogram-series) lines.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if name.contains('{') {
            continue; // histogram bucket series
        }
        if let Ok(v) = value.parse::<f64>() {
            out.insert(name.to_owned(), v);
        }
    }
    out
}

fn fetch(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    let resp = client::request(addr, "GET", path, &[], b"", timeout)
        .map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    Ok(resp.body_str())
}

/// A `[#####.....] used/total` utilization bar.
fn bar(used: f64, total: f64) -> String {
    const WIDTH: usize = 20;
    let total = total.max(0.0);
    let used = used.clamp(0.0, total.max(used));
    let filled = if total > 0.0 {
        ((used / total) * WIDTH as f64).round().min(WIDTH as f64) as usize
    } else {
        0
    };
    let mut s = String::with_capacity(WIDTH + 2);
    s.push('[');
    for i in 0..WIDTH {
        s.push(if i < filled { '#' } else { '.' });
    }
    s.push(']');
    format!("{s} {used:.0}/{total:.0}")
}

fn ms(ns: f64) -> String {
    format!("{:.2} ms", ns / 1.0e6)
}

fn pct(rate: f64) -> String {
    format!("{:.1}%", rate * 100.0)
}

/// One row per recent request from the `/debug/requests` payload.
fn recent_rows(body: &str, limit: usize) -> Vec<String> {
    let Ok(json) = parse_json(body) else {
        return Vec::new();
    };
    let Some(Json::Arr(requests)) = json.get("requests").cloned() else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for r in requests.iter().take(limit) {
        let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("-").to_owned();
        let n = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let cache = match r.get("cache_hit") {
            Some(Json::Bool(true)) => "hit",
            Some(Json::Bool(false)) => "miss",
            _ => "-",
        };
        let mut path = s("path");
        if path.is_empty() {
            path = "-".to_owned();
        }
        if path.len() > 28 {
            path.truncate(27);
            path.push('~');
        }
        rows.push(format!(
            "  {:<17} {:<4} {:<28} {:>3} {:>10} {:>5} q={}",
            s("id"),
            s("method"),
            path,
            n("status"),
            ms(n("total_ns")),
            cache,
            n("queue_depth"),
        ));
    }
    rows
}

/// Render one frame from the polled state.
fn render(addr: &str, metrics: &BTreeMap<String, f64>, debug_body: Option<&str>) -> String {
    let m = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("mwc dash — {addr}\n\n"));
    out.push_str(&format!(
        "  rps       {:>10.1}     window    {:>6.0} s\n",
        m("server_rolling_rps"),
        m("server_rolling_window_seconds"),
    ));
    out.push_str(&format!(
        "  p50       {:>10}     p99       {:>10}\n",
        ms(m("server_rolling_p50_ns")),
        ms(m("server_rolling_p99_ns")),
    ));
    out.push_str(&format!(
        "  errors    {:>10}     sheds     {:>10}\n",
        pct(m("server_rolling_error_rate")),
        pct(m("server_rolling_shed_rate")),
    ));
    out.push_str(&format!(
        "  cache-hit {:>10}     slo       ok={} viol={} (<= {:.0} ms)\n",
        pct(m("server_rolling_cache_hit_rate")),
        m("server_slo_ok_total"),
        m("server_slo_violations_total"),
        m("server_slo_threshold_ms"),
    ));
    out.push('\n');
    out.push_str(&format!(
        "  queue     {}\n",
        bar(m("server_queue_depth"), m("server_queue_capacity"))
    ));
    out.push_str(&format!(
        "  workers   {}\n",
        bar(m("server_workers_busy"), m("server_workers_total"))
    ));
    out.push('\n');
    match debug_body {
        Some(body) => {
            let rows = recent_rows(body, 10);
            if rows.is_empty() {
                out.push_str("  (no recent requests)\n");
            } else {
                out.push_str(
                    "  id                method path                       status    latency cache\n",
                );
                for row in &rows {
                    out.push_str(row);
                    out.push('\n');
                }
            }
        }
        None => out.push_str(
            "  (debug ring off — boot the server with MWC_SERVER_DEBUG_RING=64 for recent requests)\n",
        ),
    }
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    loop {
        let metrics_text = fetch(&args.addr, "/metrics", args.timeout)?;
        let metrics = parse_metrics(&metrics_text);
        if !metrics.contains_key("server_rolling_rps") {
            return Err(format!(
                "{} /metrics has no server_rolling_* section — is this an mwc-server?",
                args.addr
            ));
        }
        let debug_body = fetch(&args.addr, "/debug/requests", args.timeout).ok();
        let frame = render(&args.addr, &metrics, debug_body.as_deref());
        if args.once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI clear + home; plain enough for any terminal.
        print!("\x1b[2J\x1b[H{frame}");
        println!("\n  refresh {:?} — ctrl-c to quit", args.interval);
        std::thread::sleep(args.interval);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dash: {msg}");
            ExitCode::FAILURE
        }
    }
}
