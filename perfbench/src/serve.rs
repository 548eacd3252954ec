//! `serve_warm`: an in-process `mwc_server::Server` with an in-memory
//! cache and `nproc` workers, warmed with a few studies in set-up, then a
//! closed loop of `nproc` client connections from this process, each
//! POSTing `/study` round-robin over the warm specs. Every request is a
//! memory hit: no simulation and no analysis runs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mwc_core::{from_wire, to_wire, Characterization, StudyCache, StudySpec};
use mwc_server::{client, http, Server, ServerConfig};

use crate::bench::{self, Config, Outcome, Row};
use crate::stats;
use crate::trace::{self, Ctx, Recorder};

/// Seed stream of the warm studies.
const SEED_STREAM: u64 = 3;
/// Studies warmed in set-up; requests cycle through them.
const STUDIES: u64 = 4;
/// Per-request client timeout; a request that hits it is a failed op.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Debug-ring capacity of the traced run's server.
const RING: usize = 4096;
/// A traced client reads `/debug/requests` after this many of its ops.
const POLL_EVERY: u64 = 8;
/// Request-ID prefix; the op number follows.
const ID_PREFIX: &str = "pb-";

/// The warm specs: wire bodies and the digest each response must carry.
struct Specs {
    specs: Vec<StudySpec>,
    bodies: Vec<String>,
    digests: Vec<String>,
}

fn specs(cfg: &Config) -> Result<Specs, String> {
    let mut s = Specs {
        specs: Vec::new(),
        bodies: Vec::new(),
        digests: Vec::new(),
    };
    for k in 0..STUDIES {
        let spec = bench::paper_spec(bench::derive_seed(cfg.seed, SEED_STREAM, k), cfg.threads);
        // The oracle: an uncached in-process study of the same spec.
        let study = Characterization::try_run_spec(&spec).map_err(|e| e.to_string())?;
        s.bodies.push(to_wire(&spec).map_err(|e| e.to_string())?);
        s.digests
            .push(format!("\"digest\":\"{:016x}\"", study.digest()));
        s.specs.push(spec);
    }
    Ok(s)
}

/// A running server that is shut down and joined when dropped.
struct Running {
    server: Option<Server>,
    addr: String,
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }
}

/// Boot a server and warm every spec through `POST /study`.
fn boot(cfg: &Config, specs: &Specs, ring: usize) -> Result<Running, String> {
    bench::check_pinned(cfg.pinned, cfg.threads)?;
    let server = Server::bind(ServerConfig {
        workers: cfg.threads,
        debug_ring: ring,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let running = Running {
        addr: server.local_addr().to_string(),
        server: Some(server),
    };
    for k in 0..specs.bodies.len() {
        post(&running.addr, specs, k, "warm").map_err(|e| format!("warming study {k}: {e}"))?;
    }
    Ok(running)
}

/// POST spec `k`; Ok only for a 2xx carrying the expected digest.
fn post(addr: &str, specs: &Specs, k: usize, id: &str) -> Result<(), String> {
    let resp = client::request(
        addr,
        "POST",
        "/study",
        &[("x-mwc-request-id", id)],
        specs.bodies[k].as_bytes(),
        TIMEOUT,
    )
    .map_err(|e| e.to_string())?;
    if !(200..300).contains(&resp.status) {
        return Err(format!("status {}", resp.status));
    }
    if !resp.body_str().contains(&specs.digests[k]) {
        return Err(format!("wrong digest in {}", resp.body_str()));
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let specs = specs(cfg)?;
    let (setups, running) = bench::timed_setups(|| boot(cfg, &specs, 0), drop)?;
    if !cfg.trace {
        let load = drive(cfg, &specs, &running, cfg.seconds, None);
        drop(running);
        return report(&setups, &load?);
    }
    let half = cfg.seconds / 2.0;
    let untraced = drive(cfg, &specs, &running, half, None)?;
    drop(running);
    let traced_server = boot(cfg, &specs, RING)?;
    let probe = Probe::warm(&specs)?;
    let rec = Recorder::new();
    let traced = drive(cfg, &specs, &traced_server, half, Some((&rec, &probe)))?;
    drop(traced_server);
    layers(&rec, &untraced, &traced)
}

/// In-process replays of the layers a request crosses, on the same bytes.
struct Probe {
    cache: StudyCache,
}

impl Probe {
    fn warm(specs: &Specs) -> Result<Self, String> {
        let cache = StudyCache::in_memory();
        for spec in &specs.specs {
            cache.study_spec(spec).map_err(|e| e.to_string())?;
        }
        Ok(Probe { cache })
    }

    /// Parse the recorded request, decode its spec, look the study up and
    /// digest it, each in its own span.
    fn run(&self, ctx: Ctx, request: &[u8]) -> Result<(), String> {
        let req = ctx
            .span("http.parse", |_| http::read_request(&mut &request[..]))
            .map_err(|e| format!("parse: {e:?}"))?;
        let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let spec = ctx
            .span("wire.decode", |_| from_wire(body))
            .map_err(|e| e.to_string())?;
        if !self.cache.is_resident(&spec) {
            return Err("probe spec is not resident".to_owned());
        }
        let study = ctx
            .span("cache.mem_hit", |_| self.cache.study_spec(&spec))
            .map_err(|e| e.to_string())?;
        black_box(ctx.span("core.digest", |_| study.digest()));
        Ok(())
    }
}

/// The request bytes `client::request` sends for this op.
fn request_bytes(addr: &str, id: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /study HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\nx-mwc-request-id: {id}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A server phase record, as `GET /debug/requests` renders it.
#[derive(Debug, Clone, Copy)]
struct PhaseRecord {
    queue_ns: u64,
    compute_ns: u64,
    phase_sum_ns: u64,
    total_ns: u64,
}

fn field(obj: &str, key: &str) -> Option<u64> {
    let at = obj.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = obj[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parse the records of the benchmark's own requests, keyed by op.
fn parse_ring(body: &str) -> Vec<(u64, PhaseRecord)> {
    body.split("{\"id\":\"")
        .skip(1)
        .filter_map(|obj| {
            let op = obj.strip_prefix(ID_PREFIX)?;
            let op: u64 = op[..op.find('"')?].parse().ok()?;
            Some((
                op,
                PhaseRecord {
                    queue_ns: field(obj, "queue_ns")?,
                    compute_ns: field(obj, "compute_ns")?,
                    phase_sum_ns: field(obj, "phase_sum_ns")?,
                    total_ns: field(obj, "total_ns")?,
                },
            ))
        })
        .collect()
}

/// What a load phase measured.
#[derive(Debug, Default)]
struct Load {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    records: BTreeMap<u64, PhaseRecord>,
}

/// What every client of one load phase shares.
struct ClosedLoop<'a> {
    specs: &'a Specs,
    addr: &'a str,
    traced: Option<(&'a Recorder, &'a Probe)>,
    next_op: AtomicU64,
    records: Mutex<BTreeMap<u64, PhaseRecord>>,
    started: Instant,
    budget: Duration,
}

/// Run the closed loop for `seconds`: `threads` clients, each sending its
/// next request only after the previous one completed.
fn drive(
    cfg: &Config,
    specs: &Specs,
    server: &Running,
    seconds: f64,
    traced: Option<(&Recorder, &Probe)>,
) -> Result<Load, String> {
    let shared = ClosedLoop {
        specs,
        addr: &server.addr,
        traced,
        next_op: AtomicU64::new(0),
        records: Mutex::new(BTreeMap::new()),
        started: Instant::now(),
        budget: Duration::from_secs_f64(seconds),
    };
    let clients: Vec<Result<Load, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| scope.spawn(|| shared.client()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    let mut load = Load {
        wall_s: shared.started.elapsed().as_secs_f64(),
        records: shared.records.into_inner().expect("ring records poisoned"),
        ..Load::default()
    };
    for c in clients {
        let c = c?;
        load.latencies_ms.extend(c.latencies_ms);
        load.attempted += c.attempted;
        load.failed += c.failed;
    }
    Ok(load)
}

impl ClosedLoop<'_> {
    /// One client: requests back to back until the budget is spent and the
    /// p99 has its samples (overrunning by at most 3×).
    fn client(&self) -> Result<Load, String> {
        let min_ops = stats::min_samples(99) as u64;
        let mut load = Load::default();
        let mut mine = 0u64;
        loop {
            let elapsed = self.started.elapsed();
            let issued = self.next_op.load(Ordering::Relaxed);
            if elapsed >= self.budget && (issued >= min_ops || elapsed >= self.budget * 3) {
                break;
            }
            let op = self.next_op.fetch_add(1, Ordering::Relaxed);
            let k = (op % STUDIES) as usize;
            let id = format!("{ID_PREFIX}{op}");
            let ctx = Ctx::root(self.traced.map(|(rec, _)| rec), op);
            let t = Instant::now();
            let result = ctx.span("op", |_| post(self.addr, self.specs, k, &id));
            let ms = bench::ms(t.elapsed());
            load.attempted += 1;
            match result {
                Ok(()) => load.latencies_ms.push(ms),
                Err(e) => {
                    load.failed += 1;
                    eprintln!("serve_warm: op {op} failed: {e}");
                }
            }
            mine += 1;
            if let Some((_, probe)) = self.traced {
                probe.run(ctx, &request_bytes(self.addr, &id, &self.specs.bodies[k]))?;
                if mine.is_multiple_of(POLL_EVERY) {
                    self.poll_ring()?;
                }
            }
        }
        if self.traced.is_some() {
            self.poll_ring()?;
        }
        Ok(load)
    }

    fn poll_ring(&self) -> Result<(), String> {
        let resp = client::request(self.addr, "GET", "/debug/requests", &[], b"", TIMEOUT)
            .map_err(|e| format!("debug ring: {e}"))?;
        if resp.status != 200 {
            return Err(format!("debug ring: status {}", resp.status));
        }
        self.records
            .lock()
            .expect("ring records poisoned")
            .extend(parse_ring(&resp.body_str()));
        Ok(())
    }
}

fn report(setups: &[f64], load: &Load) -> Result<Outcome, String> {
    let lat = &load.latencies_ms;
    let n = lat.len();
    let rps = n as f64 / load.wall_s;
    Ok(Outcome {
        attempted: load.attempted,
        failed: load.failed,
        rows: [
            vec![Row::new("serve_rps", rps, "1/s", n)],
            bench::percentile_rows("serve_ms", lat, &[50, 99]),
        ]
        .concat(),
        metrics: bench::end_to_end(setups, lat)?,
        trace_jsonl: None,
    })
}

/// Per-layer figures from the traced phase, as medians per op.
fn layers(rec: &Recorder, untraced: &Load, traced: &Load) -> Result<Outcome, String> {
    let (spans, counts) = rec.snapshot();
    let ops = trace::summarize(&spans, &counts);
    let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (op, s) in &ops {
        let mut push = |name, v: f64| per.entry(name).or_default().push(v);
        push("http.parse_us", s.self_ms("http.parse") * 1e3);
        push("wire.decode_us", s.self_ms("wire.decode") * 1e3);
        push("cache.mem_hit_us", s.self_ms("cache.mem_hit") * 1e3);
        push("core.digest_ms", s.self_ms("core.digest"));
        if let Some(r) = traced.records.get(op) {
            push("server.queue_wait_us", r.queue_ns as f64 / 1e3);
            push("server.compute_us", r.compute_ns as f64 / 1e3);
            push(
                "server.unattributed_us",
                r.total_ns.saturating_sub(r.phase_sum_ns) as f64 / 1e3,
            );
            push(
                "unattributed_ms",
                s.total_ms("op") - r.total_ns as f64 / 1e6,
            );
        }
    }
    if !per.contains_key("server.compute_us") {
        return Err("no server phase record matched a traced request".to_owned());
    }
    let mut metrics = bench::median_rows(per);
    metrics.push(Row::new(
        "trace.overhead_ms",
        stats::median(&traced.latencies_ms).unwrap_or(0.0)
            - stats::median(&untraced.latencies_ms).unwrap_or(0.0),
        "ms",
        traced.latencies_ms.len(),
    ));
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        rows: Vec::new(),
        metrics,
        trace_jsonl: Some(trace::to_jsonl(&spans)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_are_matched_to_ops() {
        let body = "{\"count\":2,\"requests\":[\
            {\"id\":\"pb-12\",\"client_id\":true,\"method\":\"POST\",\"path\":\"/study\",\"status\":200,\
             \"queue_ns\":5,\"parse_ns\":6,\"deadline_check_ns\":1,\"compute_ns\":7,\
             \"serialize_ns\":8,\"phase_sum_ns\":27,\"total_ns\":40,\"cache_hit\":true,\
             \"queue_depth\":0,\"deadline_remaining_ms\":9,\"panicked\":false,\"shed\":false},\
            {\"id\":\"0123456789abcdef\",\"queue_ns\":1,\"compute_ns\":1,\"phase_sum_ns\":1,\"total_ns\":1}]}";
        let recs = parse_ring(body);
        assert_eq!(recs.len(), 1);
        let (op, r) = recs[0];
        assert_eq!(op, 12);
        assert_eq!(
            (r.queue_ns, r.compute_ns, r.phase_sum_ns, r.total_ns),
            (5, 7, 27, 40)
        );
    }

    #[test]
    fn recorded_request_parses_like_the_wire() {
        let bytes = request_bytes("127.0.0.1:1", "pb-3", "mwc-spec v1\nseed = 1\n");
        let req = http::read_request(&mut &bytes[..]).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.header("x-mwc-request-id"), Some("pb-3"));
        assert_eq!(req.body, b"mwc-spec v1\nseed = 1\n");
    }
}
