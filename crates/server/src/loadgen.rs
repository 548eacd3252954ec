//! The `wrkr` load-generator core.
//!
//! N concurrent connections replay one request against the server on a
//! shared schedule (`--rate`, or flat out), with a per-request timeout
//! and seeded jittered-exponential-backoff retries on the retryable
//! failures: `503` (the server's shedding contract) and connection-level
//! errors. Latencies land in an [`mwc_obs::metrics::Histogram`], so the
//! report's p50/p95/p99 come from the same estimator the server's own
//! `/metrics` uses.
//!
//! Every request carries an `x-mwc-request-id` header (deterministic
//! `wrkr-<seed>-<index>`, unless the caller supplied the header
//! explicitly), and each failure or retry is noted in
//! [`LoadReport::notes`] *with that ID* — so a load-test anomaly can be
//! joined against the server's wide-event logs and `GET
//! /debug/requests/<id>`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mwc_obs::metrics::{Histogram, DURATION_NS_BOUNDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client;

/// Everything one load run needs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// HTTP method for the replayed request.
    pub method: String,
    /// Request target, e.g. `/study`.
    pub path: String,
    /// Extra request headers.
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
    /// Concurrent connections (worker threads).
    pub connections: usize,
    /// Total requests to issue (retries not counted).
    pub requests: usize,
    /// Target offered rate in requests/second across all connections;
    /// `0.0` means as fast as the connections allow.
    pub rate: f64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Retry attempts after the first try (0 = never retry).
    pub retries: u32,
    /// Base backoff; attempt `k` waits ~`base * 2^k`, jittered ±50%.
    pub backoff: Duration,
    /// Seed for the jitter stream (per-thread streams are derived).
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: "127.0.0.1:8080".to_owned(),
            method: "GET".to_owned(),
            path: "/healthz".to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
            connections: 4,
            requests: 64,
            rate: 0.0,
            timeout: Duration::from_secs(10),
            retries: 5,
            backoff: Duration::from_millis(25),
            seed: 2024,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests that reached a terminal outcome (== `requests`).
    pub completed: u64,
    /// Terminal 2xx responses.
    pub ok: u64,
    /// Terminal 4xx responses.
    pub status_4xx: u64,
    /// Terminal non-503 5xx responses (504s, 500s).
    pub status_5xx: u64,
    /// 503 responses observed, including ones later retried away.
    pub shed_responses: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Requests that exhausted their retry budget on 503s.
    pub exhausted: u64,
    /// Requests that ended in a transport error (after retries).
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Terminal-response latency in nanoseconds (includes backoff time
    /// of retried requests — the client-observed truth). Under a `rate`
    /// it counts from the request's due time, so a late send is charged.
    pub latency_ns: Histogram,
    /// One line per failure/retry event, each carrying the request ID it
    /// belongs to (capped at [`MAX_NOTES`]; later events are counted in
    /// the totals but not itemized).
    pub notes: Vec<String>,
}

/// Most failure/retry notes kept per run.
pub const MAX_NOTES: usize = 200;

impl LoadReport {
    /// Terminal responses per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Share of all responses that were 503 sheds (0 when idle).
    pub fn shed_rate(&self) -> f64 {
        let responses = self.completed + self.shed_responses - self.exhausted;
        if responses == 0 {
            0.0
        } else {
            self.shed_responses as f64 / responses as f64
        }
    }

    /// Latency quantile in nanoseconds (`None` when nothing completed).
    pub fn latency_quantile_ns(&self, q: f64) -> Option<f64> {
        self.latency_ns.quantile(q)
    }
}

#[derive(Default)]
struct Totals {
    ok: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    shed_responses: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    errors: AtomicU64,
    completed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Totals {
    fn note(&self, line: String) {
        let mut notes = self.notes.lock().expect("notes lock poisoned");
        if notes.len() < MAX_NOTES {
            notes.push(line);
        }
    }
}

/// Jittered exponential backoff for retry `attempt` (0-based): the base
/// doubles each attempt, capped at 64×, then scales by a uniform factor
/// in `[0.5, 1.5)` drawn from the seeded stream.
pub fn backoff_delay(attempt: u32, base: Duration, rng: &mut StdRng) -> Duration {
    let factor = 1u32 << attempt.min(6);
    let jitter: f64 = rng.gen_range(0.5..1.5);
    base.saturating_mul(factor).mul_f64(jitter)
}

/// Outcome of driving a single request to a terminal state.
enum Terminal {
    Status(u16),
    ExhaustedOnShed,
    Error,
}

/// The deterministic request ID request `index` of a run sends (unless
/// the caller supplied an `x-mwc-request-id` header of their own).
pub fn request_id(seed: u64, index: usize) -> String {
    format!("wrkr-{seed:x}-{index}")
}

fn drive_one(opts: &LoadOptions, index: usize, totals: &Totals, rng: &mut StdRng) -> Terminal {
    let mut headers: Vec<(&str, &str)> = opts
        .headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let id = request_id(opts.seed, index);
    if !opts
        .headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("x-mwc-request-id"))
    {
        headers.push(("x-mwc-request-id", id.as_str()));
    }
    let mut attempt = 0u32;
    loop {
        let outcome = client::request(
            &opts.addr,
            &opts.method,
            &opts.path,
            &headers,
            &opts.body,
            opts.timeout,
        );
        let (retryable, retry_after) = match &outcome {
            Ok(resp) if resp.status == 503 => {
                totals.shed_responses.fetch_add(1, Ordering::Relaxed);
                let after = resp
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs);
                (true, after)
            }
            Ok(resp) if resp.status >= 400 => {
                totals.note(format!("{id}: terminal status {}", resp.status));
                return Terminal::Status(resp.status);
            }
            Ok(resp) => return Terminal::Status(resp.status),
            Err(e) if e.retryable() => {
                totals.note(format!("{id}: transport error (attempt {attempt}): {e}"));
                (true, None)
            }
            Err(e) => {
                totals.note(format!("{id}: failed: {e}"));
                return Terminal::Error;
            }
        };
        debug_assert!(retryable);
        if attempt >= opts.retries {
            return match outcome {
                Ok(_) => {
                    totals.note(format!("{id}: retries exhausted on 503"));
                    Terminal::ExhaustedOnShed
                }
                Err(_) => {
                    totals.note(format!("{id}: retries exhausted on transport errors"));
                    Terminal::Error
                }
            };
        }
        let mut delay = backoff_delay(attempt, opts.backoff, rng);
        if let Some(after) = retry_after {
            // Never retry sooner than the server asked, but cap a
            // pathological Retry-After at the request timeout.
            delay = delay.max(after).min(opts.timeout);
        }
        thread::sleep(delay);
        totals.retries.fetch_add(1, Ordering::Relaxed);
        totals.note(format!("{id}: retry {} after {delay:?}", attempt + 1));
        attempt += 1;
    }
}

/// Run the load to completion and aggregate the report.
pub fn run(opts: &LoadOptions) -> LoadReport {
    let totals = Totals::default();
    let latency = Mutex::new(Histogram::new(&DURATION_NS_BOUNDS));
    let next = AtomicUsize::new(0);
    let started = Instant::now();

    thread::scope(|scope| {
        for t in 0..opts.connections.max(1) {
            let totals = &totals;
            let latency = &latency;
            let next = &next;
            let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(t as u64));
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= opts.requests {
                    break;
                }
                // Global open-loop schedule: request `index` is due at
                // `start + index / rate`, whichever thread claims it, and
                // its latency counts from then: a request sent late because
                // the connections fell behind is charged for the wait.
                let t0 = if opts.rate > 0.0 {
                    let due = started + Duration::from_secs_f64(index as f64 / opts.rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    due
                } else {
                    Instant::now()
                };
                let terminal = drive_one(opts, index, totals, &mut rng);
                let elapsed_ns = t0.elapsed().as_nanos() as u64;
                match terminal {
                    Terminal::Status(code) => {
                        match code {
                            200..=299 => totals.ok.fetch_add(1, Ordering::Relaxed),
                            400..=499 => totals.status_4xx.fetch_add(1, Ordering::Relaxed),
                            _ => totals.status_5xx.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    Terminal::ExhaustedOnShed => {
                        totals.exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    Terminal::Error => {
                        totals.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                totals.completed.fetch_add(1, Ordering::Relaxed);
                latency
                    .lock()
                    .expect("latency histogram lock poisoned")
                    .observe(elapsed_ns as f64);
            });
        }
    });

    LoadReport {
        completed: totals.completed.load(Ordering::Relaxed),
        ok: totals.ok.load(Ordering::Relaxed),
        status_4xx: totals.status_4xx.load(Ordering::Relaxed),
        status_5xx: totals.status_5xx.load(Ordering::Relaxed),
        shed_responses: totals.shed_responses.load(Ordering::Relaxed),
        retries: totals.retries.load(Ordering::Relaxed),
        exhausted: totals.exhausted.load(Ordering::Relaxed),
        errors: totals.errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        latency_ns: latency
            .into_inner()
            .expect("latency histogram lock poisoned"),
        notes: totals.notes.into_inner().expect("notes lock poisoned"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn backoff_grows_and_stays_jitter_bounded() {
        let base = Duration::from_millis(10);
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 0..8 {
            let d = backoff_delay(attempt, base, &mut rng);
            let nominal = base * (1 << attempt.min(6));
            assert!(
                d >= nominal.mul_f64(0.5),
                "attempt {attempt}: {d:?} too short"
            );
            assert!(
                d < nominal.mul_f64(1.5),
                "attempt {attempt}: {d:?} too long"
            );
        }
    }

    #[test]
    fn backoff_streams_are_seed_deterministic() {
        let base = Duration::from_millis(10);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for attempt in 0..4 {
            assert_eq!(
                backoff_delay(attempt, base, &mut a),
                backoff_delay(attempt, base, &mut b)
            );
        }
    }

    /// A fixed-reply server that answers every connection `200` with a
    /// tiny body, for exercising the scheduling/aggregation plumbing.
    fn ok_server(conns: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test server");
        let addr = listener.local_addr().expect("local addr").to_string();
        thread::spawn(move || {
            for _ in 0..conns {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                let mut scratch = [0u8; 1024];
                let _ = stream.read(&mut scratch);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
            }
        });
        addr
    }

    #[test]
    fn load_run_completes_every_request_and_records_latency() {
        let addr = ok_server(8);
        let opts = LoadOptions {
            addr,
            connections: 2,
            requests: 8,
            retries: 0,
            timeout: Duration::from_secs(5),
            ..LoadOptions::default()
        };
        let report = run(&opts);
        assert_eq!(report.completed, 8);
        assert_eq!(report.ok, 8);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency_ns.count(), 8);
        assert!(report.latency_quantile_ns(0.5).is_some());
        assert!(report.throughput() > 0.0);
        assert_eq!(report.shed_rate(), 0.0);
        assert!(report.notes.is_empty(), "clean runs note nothing");
    }

    #[test]
    fn request_ids_are_seed_and_index_deterministic() {
        assert_eq!(request_id(0x2024, 7), "wrkr-2024-7");
        assert_ne!(request_id(1, 0), request_id(2, 0));
    }

    #[test]
    fn failures_are_noted_with_their_request_id() {
        // A bound-then-dropped listener: connections are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let opts = LoadOptions {
            addr,
            connections: 1,
            requests: 1,
            retries: 1,
            timeout: Duration::from_millis(500),
            backoff: Duration::from_millis(1),
            seed: 99,
            ..LoadOptions::default()
        };
        let report = run(&opts);
        assert_eq!(report.errors, 1);
        assert!(
            report.notes.iter().any(|n| n.starts_with("wrkr-63-0:")),
            "notes carry the request id: {:?}",
            report.notes
        );
    }
}
