//! Request-scoped telemetry: trace IDs, per-phase timings, wide-event
//! logs, rolling SLO metrics, and the recent-request debug ring.
//!
//! Every request carries a trace ID — the inbound `x-mwc-request-id`
//! header when the caller supplied a sane one, a minted one otherwise —
//! and the same ID is echoed on **every** response, including `503`
//! sheds, `504` expiries and `500` panics, so a client log line and a
//! server log line can always be joined. As a request moves through the
//! pipeline its [`RequestScope`] accumulates per-phase timings
//! (queue-wait, parse, decode, deadline checks, compute, serialize); once
//! the response is rendered, and before it is written, the scope is
//! sealed into a [`RequestRecord`] which feeds four consumers at once:
//!
//! 1. one canonical wide-event log line (`mwc_obs::log`, event
//!    `"request"`),
//! 2. the rolling-window metrics behind the `server_rolling_*` section of
//!    `GET /metrics` (current p50/p99, rps, error/shed/cache-hit rates),
//! 3. the SLO counters (`server_slo_ok_total` /
//!    `server_slo_violations_total`, threshold `MWC_SERVER_SLO_MS`),
//! 4. the bounded in-memory debug ring served at `GET /debug/requests`
//!    (gated by `MWC_SERVER_DEBUG_RING`).
//!
//! None of this feeds back into study computation: telemetry reads
//! clocks and writes log lines/ring slots, so study digests are
//! bit-identical with every knob on or off (asserted by
//! `tests/telemetry.rs` and the `verify.sh` neutrality gate).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mwc_obs::log::{self, Level};
use mwc_obs::metrics::{RollingCounter, RollingHistogram, DURATION_NS_BOUNDS};
use mwc_obs::Value;

use crate::http::json_escape;

/// The request/response trace-ID header.
pub const REQUEST_ID_HEADER: &str = "x-mwc-request-id";

/// Longest accepted caller-supplied request ID; longer ones are replaced
/// by a minted ID rather than truncated (a truncated ID would no longer
/// match the caller's logs, which is the whole point of honoring it).
pub const MAX_ID_LEN: usize = 64;

/// Rolling-window geometry: 10 slots of 1 s each.
const WINDOW_SLOTS: usize = 10;
const SLOT_MS: u64 = 1_000;

fn fnv_mix(mut x: u64) -> u64 {
    // FNV-1a over the 8 bytes, then a final avalanche multiply — cheap,
    // std-only, and good enough to decorrelate boot-time nonces.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        x >>= 8;
    }
    h ^ (h >> 32)
}

/// Mint a fresh 16-hex-char request ID: a per-process boot nonce XOR a
/// process-wide sequence number, so IDs are unique within a process and
/// almost surely unique across concurrently-booted servers.
pub fn mint_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static NONCE: OnceLock<u64> = OnceLock::new();
    let nonce = *NONCE.get_or_init(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        fnv_mix(t ^ u64::from(std::process::id()).rotate_left(32))
    });
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", nonce ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Validate a caller-supplied request ID: non-empty, at most
/// [`MAX_ID_LEN`] bytes, ASCII-graphic only (no whitespace or control
/// bytes — the ID is echoed in a response header, so CR/LF must be
/// impossible by construction).
pub fn sanitize_id(raw: &str) -> Option<String> {
    let id = raw.trim();
    if id.is_empty() || id.len() > MAX_ID_LEN || !id.bytes().all(|b| b.is_ascii_graphic()) {
        return None;
    }
    Some(id.to_owned())
}

/// The ID for a parsed request: the sanitized inbound header if present,
/// a minted one otherwise. The bool reports whether the caller supplied
/// it.
pub fn request_id(inbound: Option<&str>) -> (String, bool) {
    match inbound.and_then(sanitize_id) {
        Some(id) => (id, true),
        None => (mint_id(), false),
    }
}

/// Mutable per-request telemetry, threaded through the serving path as
/// phases complete and sealed into a [`RequestRecord`] when the
/// connection is done.
#[derive(Debug, Clone, Default)]
pub struct RequestScope {
    /// Trace ID (set after parse, or on first response write).
    pub id: Option<String>,
    /// Whether the caller supplied the ID.
    pub client_id: bool,
    /// Request method (empty until parsed).
    pub method: String,
    /// Request target (empty until parsed).
    pub path: String,
    /// Status of the response written (0 when the peer vanished first).
    pub status: u16,
    /// Time spent in the admission queue before a worker picked the job.
    pub queue_ns: u64,
    /// Time reading + parsing the request off the socket.
    pub parse_ns: u64,
    /// Time decoding and validating the request body's study spec.
    pub decode_ns: u64,
    /// Time spent in explicit deadline checkpoints.
    pub deadline_check_ns: u64,
    /// Time in the study lookup/compute path.
    pub compute_ns: u64,
    /// Time rendering the response to bytes.
    pub serialize_ns: u64,
    /// Whether compute was served from the resident study cache.
    pub cache_hit: Option<bool>,
    /// Admission-queue depth when this connection was admitted.
    pub queue_depth: usize,
    /// Whether the handler panicked (answered 500).
    pub panicked: bool,
    /// Whether the connection was shed before reaching a worker.
    pub shed: bool,
}

impl RequestScope {
    /// A scope for a job a worker just picked up.
    pub fn admitted(queue_ns: u64, queue_depth: usize) -> Self {
        RequestScope {
            queue_ns,
            queue_depth,
            ..RequestScope::default()
        }
    }

    /// The trace ID, minting one on first use (sheds and pre-parse
    /// failures still echo *an* ID, it just cannot be the caller's).
    pub fn ensure_id(&mut self) -> &str {
        if self.id.is_none() {
            self.id = Some(mint_id());
        }
        self.id.as_deref().unwrap_or_default()
    }

    /// Seal into an immutable record. `total_ns` is the end-to-end time
    /// since accept; `deadline_remaining_ms` may be negative (expired).
    pub fn seal(self, total_ns: u64, deadline_remaining_ms: i64) -> RequestRecord {
        let mut record = RequestRecord {
            id: self.id.unwrap_or_default(),
            client_id: self.client_id,
            method: self.method,
            path: self.path,
            status: self.status,
            queue_ns: self.queue_ns,
            parse_ns: self.parse_ns,
            decode_ns: self.decode_ns,
            deadline_check_ns: self.deadline_check_ns,
            compute_ns: self.compute_ns,
            serialize_ns: self.serialize_ns,
            unattributed_ns: 0,
            total_ns,
            cache_hit: self.cache_hit,
            queue_depth: self.queue_depth,
            deadline_remaining_ms,
            panicked: self.panicked,
            shed: self.shed,
        };
        record.unattributed_ns = total_ns.saturating_sub(record.phase_sum_ns());
        record
    }
}

/// One finished request, as stored in the debug ring and logged as a
/// wide event.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Trace ID echoed on the response.
    pub id: String,
    /// Whether the caller supplied the ID.
    pub client_id: bool,
    /// Request method (empty if never parsed).
    pub method: String,
    /// Request target (empty if never parsed).
    pub path: String,
    /// Response status (0 when nothing was written).
    pub status: u16,
    /// Admission-queue wait.
    pub queue_ns: u64,
    /// Read + parse time.
    pub parse_ns: u64,
    /// Spec decode + validation time.
    pub decode_ns: u64,
    /// Deadline-checkpoint time.
    pub deadline_check_ns: u64,
    /// Study lookup/compute time.
    pub compute_ns: u64,
    /// Response render time.
    pub serialize_ns: u64,
    /// The part of `total_ns` no phase accounts for.
    pub unattributed_ns: u64,
    /// End-to-end time since accept, up to the record being sealed.
    pub total_ns: u64,
    /// Cache-hit flag (`None` when the request never reached compute).
    pub cache_hit: Option<bool>,
    /// Queue depth at admission.
    pub queue_depth: usize,
    /// Deadline budget left when the response was sealed (negative once
    /// expired).
    pub deadline_remaining_ms: i64,
    /// Whether the handler panicked.
    pub panicked: bool,
    /// Whether the connection was shed by admission control.
    pub shed: bool,
}

impl RequestRecord {
    /// Sum of the instrumented phases — brackets `total_ns` from below;
    /// the difference is `unattributed_ns`.
    pub fn phase_sum_ns(&self) -> u64 {
        self.queue_ns
            + self.parse_ns
            + self.decode_ns
            + self.deadline_check_ns
            + self.compute_ns
            + self.serialize_ns
    }

    /// Render as one JSON object (the `/debug/requests` wire shape).
    pub fn to_json(&self) -> String {
        let cache_hit = match self.cache_hit {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        format!(
            "{{\"id\":\"{}\",\"client_id\":{},\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\
             \"queue_ns\":{},\"parse_ns\":{},\"decode_ns\":{},\"deadline_check_ns\":{},\
             \"compute_ns\":{},\"serialize_ns\":{},\"phase_sum_ns\":{},\"unattributed_ns\":{},\
             \"total_ns\":{},\"cache_hit\":{},\
             \"queue_depth\":{},\"deadline_remaining_ms\":{},\"panicked\":{},\"shed\":{}}}",
            json_escape(&self.id),
            self.client_id,
            json_escape(&self.method),
            json_escape(&self.path),
            self.status,
            self.queue_ns,
            self.parse_ns,
            self.decode_ns,
            self.deadline_check_ns,
            self.compute_ns,
            self.serialize_ns,
            self.phase_sum_ns(),
            self.unattributed_ns,
            self.total_ns,
            cache_hit,
            self.queue_depth,
            self.deadline_remaining_ms,
            self.panicked,
            self.shed,
        )
    }

    /// The wide-event log level: panics are errors, sheds/5xx are
    /// warnings, everything else is the canonical info line.
    fn level(&self) -> Level {
        if self.panicked {
            Level::Error
        } else if self.shed || self.status >= 500 {
            Level::Warn
        } else {
            Level::Info
        }
    }
}

/// The rolling-window aggregates behind the `server_rolling_*` metrics.
#[derive(Debug)]
struct RollingSet {
    latency_ns: RollingHistogram,
    responses: RollingCounter,
    errors: RollingCounter,
    sheds: RollingCounter,
    cache_hits: RollingCounter,
    cache_lookups: RollingCounter,
}

impl RollingSet {
    fn new() -> Self {
        RollingSet {
            latency_ns: RollingHistogram::new(&DURATION_NS_BOUNDS, SLOT_MS, WINDOW_SLOTS),
            responses: RollingCounter::new(SLOT_MS, WINDOW_SLOTS),
            errors: RollingCounter::new(SLOT_MS, WINDOW_SLOTS),
            sheds: RollingCounter::new(SLOT_MS, WINDOW_SLOTS),
            cache_hits: RollingCounter::new(SLOT_MS, WINDOW_SLOTS),
            cache_lookups: RollingCounter::new(SLOT_MS, WINDOW_SLOTS),
        }
    }
}

/// The bounded ring of recent [`RequestRecord`]s behind
/// `GET /debug/requests`.
#[derive(Debug)]
struct DebugRing {
    capacity: usize,
    records: Mutex<VecDeque<RequestRecord>>,
}

impl DebugRing {
    fn push(&self, record: RequestRecord) {
        let mut ring = self.records.lock().expect("debug ring lock poisoned");
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// Per-server telemetry state: the rolling windows, SLO counters and the
/// optional debug ring. Owned by `ServerState`.
#[derive(Debug)]
pub struct Telemetry {
    /// All rolling-window timestamps are measured from this boot epoch.
    epoch: Instant,
    slo: Duration,
    ring: Option<DebugRing>,
    rolling: Mutex<RollingSet>,
    slo_ok: AtomicU64,
    slo_violations: AtomicU64,
}

impl Telemetry {
    /// Telemetry with the given SLO latency threshold; `ring_capacity`
    /// 0 disables the debug ring.
    pub fn new(slo: Duration, ring_capacity: usize) -> Self {
        Telemetry {
            epoch: Instant::now(),
            slo,
            ring: (ring_capacity > 0).then(|| DebugRing {
                capacity: ring_capacity,
                records: Mutex::new(VecDeque::new()),
            }),
            rolling: Mutex::new(RollingSet::new()),
            slo_ok: AtomicU64::new(0),
            slo_violations: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the telemetry epoch (the rolling-window clock).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Whether `GET /debug/requests` is enabled.
    pub fn ring_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Ingest one finished request: rolling windows, SLO counters, the
    /// debug ring, and the wide-event log line.
    pub fn record(&self, record: RequestRecord) {
        let now = self.now_ms();
        {
            let mut r = self.rolling.lock().expect("rolling metrics lock poisoned");
            r.responses.add_at(now, 1);
            r.latency_ns.observe_at(now, record.total_ns as f64);
            if record.status >= 500 {
                r.errors.add_at(now, 1);
            }
            if record.shed {
                r.sheds.add_at(now, 1);
            }
            if let Some(hit) = record.cache_hit {
                r.cache_lookups.add_at(now, 1);
                if hit {
                    r.cache_hits.add_at(now, 1);
                }
            }
        }
        // SLO: a 2xx inside the latency threshold is ok; a 5xx or an
        // over-threshold 2xx is a violation; 4xx are the client's fault
        // and count as neither.
        let within = Duration::from_nanos(record.total_ns) <= self.slo;
        match record.status {
            200..=299 if within => {
                self.slo_ok.fetch_add(1, Ordering::Relaxed);
            }
            200..=299 => {
                self.slo_violations.fetch_add(1, Ordering::Relaxed);
            }
            s if s >= 500 => {
                self.slo_violations.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let level = record.level();
        if log::log_enabled(level) {
            log::log(
                level,
                "request",
                &[
                    ("id", Value::from(record.id.as_str())),
                    ("client_id", Value::from(record.client_id)),
                    ("method", Value::from(record.method.as_str())),
                    ("path", Value::from(record.path.as_str())),
                    ("status", Value::from(u64::from(record.status))),
                    ("queue_ns", Value::from(record.queue_ns)),
                    ("parse_ns", Value::from(record.parse_ns)),
                    ("decode_ns", Value::from(record.decode_ns)),
                    ("deadline_check_ns", Value::from(record.deadline_check_ns)),
                    ("compute_ns", Value::from(record.compute_ns)),
                    ("serialize_ns", Value::from(record.serialize_ns)),
                    ("unattributed_ns", Value::from(record.unattributed_ns)),
                    ("total_ns", Value::from(record.total_ns)),
                    (
                        "cache_hit",
                        match record.cache_hit {
                            Some(h) => Value::from(h),
                            None => Value::from("none"),
                        },
                    ),
                    ("queue_depth", Value::from(record.queue_depth as u64)),
                    (
                        "deadline_remaining_ms",
                        Value::from(record.deadline_remaining_ms),
                    ),
                    ("panicked", Value::from(record.panicked)),
                    ("shed", Value::from(record.shed)),
                ],
            );
        }
        if let Some(ring) = &self.ring {
            ring.push(record);
        }
    }

    /// The most recent records, newest first, up to `limit`. Empty when
    /// the ring is disabled.
    pub fn recent(&self, limit: usize) -> Vec<RequestRecord> {
        match &self.ring {
            Some(ring) => ring
                .records
                .lock()
                .expect("debug ring lock poisoned")
                .iter()
                .rev()
                .take(limit)
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Find a record by trace ID (newest match wins). `None` when absent
    /// or the ring is disabled.
    pub fn find(&self, id: &str) -> Option<RequestRecord> {
        let ring = self.ring.as_ref()?;
        ring.records
            .lock()
            .expect("debug ring lock poisoned")
            .iter()
            .rev()
            .find(|r| r.id == id)
            .cloned()
    }

    /// The rolling/SLO/utilization tail appended to `GET /metrics`.
    /// Rendered directly from server state (not the `mwc_obs` registry)
    /// so it is live even when observability collection is disabled.
    pub fn metrics_tail(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        workers_busy: usize,
        workers_total: usize,
    ) -> String {
        let now = self.now_ms();
        let (latency, responses, errors, sheds, hits, lookups) = {
            let r = self.rolling.lock().expect("rolling metrics lock poisoned");
            (
                r.latency_ns.merged_at(now),
                r.responses.total_at(now),
                r.errors.total_at(now),
                r.sheds.total_at(now),
                r.cache_hits.total_at(now),
                r.cache_lookups.total_at(now),
            )
        };
        let rps = {
            let r = self.rolling.lock().expect("rolling metrics lock poisoned");
            r.responses.rate_at(now)
        };
        let p50 = latency.quantile(0.50).unwrap_or(0.0);
        let p99 = latency.quantile(0.99).unwrap_or(0.0);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut out = String::with_capacity(1024);
        let mut line = |name: &str, ty: &str, value: String| {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(ty);
            out.push('\n');
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        line("server_queue_depth", "gauge", queue_depth.to_string());
        line("server_queue_capacity", "gauge", queue_capacity.to_string());
        line("server_workers_busy", "gauge", workers_busy.to_string());
        line("server_workers_total", "gauge", workers_total.to_string());
        line(
            "server_rolling_window_seconds",
            "gauge",
            ((SLOT_MS * WINDOW_SLOTS as u64) / 1000).to_string(),
        );
        line("server_rolling_rps", "gauge", format!("{rps:.3}"));
        line("server_rolling_requests", "gauge", responses.to_string());
        line("server_rolling_p50_ns", "gauge", format!("{p50:.0}"));
        line("server_rolling_p99_ns", "gauge", format!("{p99:.0}"));
        line(
            "server_rolling_error_rate",
            "gauge",
            format!("{:.4}", ratio(errors, responses)),
        );
        line(
            "server_rolling_shed_rate",
            "gauge",
            format!("{:.4}", ratio(sheds, responses)),
        );
        line(
            "server_rolling_cache_hit_rate",
            "gauge",
            format!("{:.4}", ratio(hits, lookups)),
        );
        line(
            "server_slo_threshold_ms",
            "gauge",
            self.slo.as_millis().to_string(),
        );
        line(
            "server_slo_ok_total",
            "counter",
            self.slo_ok.load(Ordering::Relaxed).to_string(),
        );
        line(
            "server_slo_violations_total",
            "counter",
            self.slo_violations.load(Ordering::Relaxed).to_string(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, status: u16, total_ns: u64) -> RequestRecord {
        RequestScope {
            id: Some(id.to_owned()),
            method: "POST".to_owned(),
            path: "/study".to_owned(),
            status,
            queue_ns: 10,
            parse_ns: 20,
            decode_ns: 4,
            deadline_check_ns: 1,
            compute_ns: 30,
            serialize_ns: 5,
            cache_hit: Some(true),
            queue_depth: 2,
            ..RequestScope::default()
        }
        .seal(total_ns, 100)
    }

    #[test]
    fn minted_ids_are_unique_and_16_hex() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16, "{id}");
            assert!(id.bytes().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
    }

    #[test]
    fn sanitize_rejects_hostile_ids() {
        assert_eq!(sanitize_id("abc-123"), Some("abc-123".to_owned()));
        assert_eq!(sanitize_id("  padded  "), Some("padded".to_owned()));
        assert_eq!(sanitize_id(""), None);
        assert_eq!(sanitize_id("   "), None);
        assert_eq!(sanitize_id("has space"), None);
        assert_eq!(sanitize_id("crlf\r\ninjection"), None);
        assert_eq!(sanitize_id(&"x".repeat(MAX_ID_LEN + 1)), None);
        assert_eq!(sanitize_id("caf\u{e9}"), None, "non-ascii is refused");
    }

    #[test]
    fn request_id_prefers_the_callers() {
        let (id, client) = request_id(Some("my-id-7"));
        assert_eq!((id.as_str(), client), ("my-id-7", true));
        let (id, client) = request_id(Some("bad id"));
        assert!(!client);
        assert_eq!(id.len(), 16);
        let (_, client) = request_id(None);
        assert!(!client);
    }

    #[test]
    fn record_json_round_trips_through_the_reader() {
        let rec = record("r-1", 200, 100);
        let json = rec.to_json();
        let parsed = mwc_obs::export::parse_json(&json).expect("valid json");
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("r-1"));
        assert_eq!(parsed.get("status").and_then(|v| v.as_f64()), Some(200.0));
        let num = |key| parsed.get(key).and_then(|v| v.as_f64());
        assert_eq!(num("decode_ns"), Some(4.0));
        assert_eq!(num("phase_sum_ns"), Some(70.0));
        assert_eq!(num("unattributed_ns"), Some(30.0));
        assert_eq!(num("total_ns"), Some(100.0));
    }

    #[test]
    fn ring_is_bounded_and_findable_by_id() {
        let t = Telemetry::new(Duration::from_millis(500), 3);
        assert!(t.ring_enabled());
        for i in 0..5 {
            t.record(record(&format!("id-{i}"), 200, 1_000));
        }
        let recent = t.recent(10);
        assert_eq!(recent.len(), 3, "capacity bounds the ring");
        assert_eq!(recent[0].id, "id-4", "newest first");
        assert!(t.find("id-0").is_none(), "evicted");
        assert_eq!(t.find("id-3").map(|r| r.status), Some(200));
    }

    #[test]
    fn disabled_ring_stores_nothing() {
        let t = Telemetry::new(Duration::from_millis(500), 0);
        assert!(!t.ring_enabled());
        t.record(record("id-x", 200, 1_000));
        assert!(t.recent(10).is_empty());
        assert!(t.find("id-x").is_none());
    }

    #[test]
    fn slo_counters_split_ok_from_violations() {
        let slo_ms = 500;
        let t = Telemetry::new(Duration::from_millis(slo_ms), 0);
        t.record(record("a", 200, 1_000)); // fast 2xx: ok
        t.record(record("b", 200, slo_ms * 2_000_000)); // slow 2xx: violation
        t.record(record("c", 500, 1_000)); // 5xx: violation
        t.record(record("d", 400, 1_000)); // 4xx: neither
        let tail = t.metrics_tail(0, 8, 0, 4);
        assert!(tail.contains("server_slo_ok_total 1"), "{tail}");
        assert!(tail.contains("server_slo_violations_total 2"), "{tail}");
    }

    #[test]
    fn metrics_tail_reports_rolling_and_utilization_lines() {
        let t = Telemetry::new(Duration::from_millis(500), 4);
        t.record(record("a", 200, 2_000_000));
        t.record(record("b", 503, 1_000_000));
        let tail = t.metrics_tail(3, 16, 2, 4);
        for needle in [
            "server_queue_depth 3",
            "server_queue_capacity 16",
            "server_workers_busy 2",
            "server_workers_total 4",
            "server_rolling_window_seconds 10",
            "server_rolling_requests 2",
            "server_rolling_p50_ns ",
            "server_rolling_p99_ns ",
            "server_rolling_error_rate 0.5000",
            "server_rolling_cache_hit_rate 1.0000",
        ] {
            assert!(tail.contains(needle), "missing {needle:?} in:\n{tail}");
        }
        let p99: f64 = tail
            .lines()
            .find(|l| l.starts_with("server_rolling_p99_ns "))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("p99 line parses");
        assert!(p99 >= 1_000_000.0, "p99 reflects observed latencies: {p99}");
    }
}
