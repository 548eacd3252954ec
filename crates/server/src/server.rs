//! The serving core: acceptor, bounded admission, worker pool, router,
//! and graceful drain.
//!
//! ## Life of a request
//!
//! 1. The acceptor (a blocking `TcpListener`) accepts a connection,
//!    stamps it with its accept time, and offers it to the bounded
//!    admission queue. A full queue is answered `503` + `Retry-After`
//!    right there — backpressure, not buffering.
//! 2. A worker pops the job, derives its [`Deadline`] from the accept
//!    stamp, and serves exactly one request under panic isolation. The
//!    deadline is checked after queueing, after parsing, before compute
//!    and after compute; expiry answers `504`. The response is rendered
//!    to bytes, the request's telemetry record is published, and only
//!    then is the response written, in one write.
//! 3. Shutdown ([`Server::request_shutdown`], which the binary calls on
//!    SIGTERM/ctrl-c, or `POST /admin/shutdown`) latches one atomic and
//!    wakes the acceptor out of `accept` with a connection to the
//!    server's own address. The acceptor checks the latch after every
//!    accept, so it stops accepting and closes the queue; workers drain
//!    already-admitted jobs — up to the drain deadline, after which the
//!    remainder get a fast `503` — and exit; [`Server::join`] returns the
//!    final stats.

use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::str;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mwc_core::pipeline::Characterization;
use mwc_core::{from_wire, PipelineError, StudyCache, StudySpec};

use crate::config::ServerConfig;
use crate::deadline::Deadline;
use crate::http::{self, HttpError, Request, Response};
use crate::panics;
use crate::queue::{BoundedQueue, PushError};
use crate::telemetry::{self, RequestScope, Telemetry};

/// One admitted connection, stamped at accept time so queueing delay
/// counts against the request budget.
#[derive(Debug)]
struct Job {
    stream: TcpStream,
    accepted: Instant,
    /// Admission-queue depth the moment this connection was admitted
    /// (jobs already waiting ahead of it).
    queue_depth: usize,
}

/// Monotonic serving counters (process lifetime).
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    deadline_expired: AtomicU64,
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (admitted or shed).
    pub accepted: u64,
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Responses in the 200 class.
    pub responses_2xx: u64,
    /// Responses in the 400 class (incl. 408/413).
    pub responses_4xx: u64,
    /// Responses in the 500 class (incl. 503 sheds and 504 expiries).
    pub responses_5xx: u64,
    /// Connections refused by the admission queue (503 + Retry-After).
    pub shed: u64,
    /// Requests whose handler panicked (each answered 500).
    pub panics: u64,
    /// Requests that outlived their end-to-end budget (answered 504).
    pub deadline_expired: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
        }
    }
}

/// Shared server state: configuration, the study cache, the admission
/// queue, the shutdown latch and the counters.
#[derive(Debug)]
pub struct ServerState {
    config: ServerConfig,
    /// The bound address; shutdown connects here to wake the acceptor.
    local_addr: SocketAddr,
    cache: StudyCache,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    stats: Stats,
    telemetry: Telemetry,
    busy: AtomicUsize,
}

impl ServerState {
    /// Request-scoped telemetry: rolling windows, SLO counters and the
    /// debug ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Latch shutdown. Idempotent; safe from any thread (including a
    /// request handler serving `/admin/shutdown`). The first latch wakes
    /// the acceptor, which is blocked in `accept`.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            wake_acceptor(self.local_addr);
        }
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn start_drain_clock(&self) {
        let mut started = self
            .drain_started
            .lock()
            .expect("drain clock lock poisoned");
        if started.is_none() {
            *started = Some(Instant::now());
        }
    }

    /// Whether the post-shutdown drain budget is spent: queued-but-unserved
    /// work should now be shed instead of computed.
    fn drain_expired(&self) -> bool {
        self.drain_started
            .lock()
            .expect("drain clock lock poisoned")
            .is_some_and(|t| t.elapsed() > self.config.drain)
    }
}

/// A running server: acceptor thread + worker pool over shared state.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and `config.workers` workers, and return
    /// immediately. The server runs until shutdown is requested.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        // Studies are served through the process-wide Exec backend
        // (MWC_EXEC); publish the fleet configuration on /metrics
        // (exec_shards, studydb_enabled) before any study runs.
        let exec = mwc_core::exec::announce();
        mwc_obs::event_with(
            "server.exec",
            vec![("backend".to_owned(), mwc_obs::Value::Str(exec))],
        );

        let cache = match &config.cache_dir {
            Some(dir) => StudyCache::with_dir(dir.clone()),
            None => StudyCache::in_memory(),
        };
        let queue = BoundedQueue::new(config.queue_depth);
        let state = Arc::new(ServerState {
            telemetry: Telemetry::new(config.slo, config.debug_ring),
            config: config.clone(),
            local_addr,
            cache,
            queue,
            shutdown: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            stats: Stats::default(),
            busy: AtomicUsize::new(0),
        });

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let state = Arc::clone(&state);
            workers.push(
                thread::Builder::new()
                    .name(format!("mwc-worker-{i}"))
                    .spawn(move || worker_loop(&state))?,
            );
        }
        let acceptor = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("mwc-acceptor".to_owned())
                .spawn(move || accept_loop(listener, &state))?
        };

        Ok(Server {
            local_addr,
            state,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the OS-chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state handle (tests inspect the cache and latch through
    /// this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Ask the server to stop accepting and drain.
    pub fn request_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether shutdown has been requested (by the admin endpoint or
    /// [`Server::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested()
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// Block until the acceptor has stopped and every worker has drained
    /// and exited, then return the final counters. Call after shutdown
    /// has been requested (or a request to `/admin/shutdown` will
    /// trigger it).
    pub fn join(self) -> StatsSnapshot {
        // The acceptor blocks in accept until shutdown wakes it, workers
        // park in condvar waits, and neither panics (handlers are
        // isolated), so join cannot fail in a way worth propagating.
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.state.stats.snapshot()
    }
}

/// How long a shutdown waits to connect to its own acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Connect once to the listener at `addr`, so that an acceptor blocked in
/// `accept` returns and sees the shutdown latch. A listener bound to an
/// unspecified address (`0.0.0.0`, `[::]`) is reached through the
/// loopback address of the same family.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    // The connection only has to reach the backlog; the acceptor drops
    // it unserved.
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

/// Accept until shutdown, then close the queue and start the drain clock.
/// `accept` blocks; [`ServerState::begin_shutdown`] wakes it, and the
/// latch is checked after every accept.
fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown_requested() {
            // The wake-up connection, or a client that raced the latch:
            // neither is served.
            break;
        }
        match accepted {
            Ok((stream, _peer)) => admit(state, stream),
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED…): back
                // off briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
    drop(listener);
    state.start_drain_clock();
    state.queue.close();
}

/// Stamp, bound, and admit one connection — or shed it with `503`.
fn admit(state: &Arc<ServerState>, stream: TcpStream) {
    state.stats.accepted.fetch_add(1, Ordering::Relaxed);
    mwc_obs::metrics::counter_add("server.accepted", 1);
    let io_timeout = state.config.io_timeout;
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let _ = stream.set_nodelay(true);
    let job = Job {
        stream,
        accepted: Instant::now(),
        queue_depth: state.queue.len(),
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            mwc_obs::metrics::gauge_set("server.queue.depth", state.queue.len() as f64);
        }
        Err(PushError::Full(job)) => shed(state, job.stream, "admission queue full"),
        Err(PushError::Closed(job)) => shed(state, job.stream, "server is shutting down"),
    }
}

/// Refuse one connection with `503` + `Retry-After` (best-effort write).
fn shed(state: &Arc<ServerState>, mut stream: TcpStream, why: &str) {
    state.stats.shed.fetch_add(1, Ordering::Relaxed);
    mwc_obs::metrics::counter_add("server.shed", 1);
    // A shed connection is refused before its bytes are read, so the
    // caller's ID (if any) is unknowable without buffering; a minted ID
    // is echoed instead so the refusal is still traceable server-side.
    let mut scope = RequestScope::admitted(0, state.queue.len());
    scope.shed = true;
    let start = Instant::now();
    let resp = Response::error(503, "overload", why).header("retry-after", 1);
    let bytes = render(state, resp, &mut scope);
    let remaining_ms = state.config.deadline.as_millis() as i64;
    state
        .telemetry
        .record(scope.seal(start.elapsed().as_nanos() as u64, remaining_ms));
    let _ = stream.write_all(&bytes);
}

/// Pop and serve jobs until the queue is closed and empty.
fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        mwc_obs::metrics::gauge_set("server.queue.depth", state.queue.len() as f64);
        handle_job(state, job);
    }
}

/// Serve one admitted connection under panic isolation.
fn handle_job(state: &Arc<ServerState>, job: Job) {
    let busy = state.busy.fetch_add(1, Ordering::Relaxed) + 1;
    mwc_obs::metrics::gauge_set("server.workers.busy", busy as f64);
    let deadline = Deadline::starting_at(job.accepted, state.config.deadline);
    let mut scope =
        RequestScope::admitted(job.accepted.elapsed().as_nanos() as u64, job.queue_depth);
    let mut stream = job.stream;
    let outcome = panics::isolate(|| serve_connection(state, &stream, deadline, &mut scope));
    let resp = match outcome {
        Ok(resp) => resp,
        Err(report) => {
            scope.panicked = true;
            state.stats.panics.fetch_add(1, Ordering::Relaxed);
            mwc_obs::metrics::counter_add("server.panics", 1);
            Some(Response::error(
                500,
                "panic",
                &format!("request handler panicked: {}", report.message),
            ))
        }
    };
    // A peer that vanished before sending a request is not a request:
    // nothing is answered or recorded.
    if let Some(resp) = resp {
        let bytes = render(state, resp, &mut scope);
        let total_ns = deadline.elapsed().as_nanos() as u64;
        let remaining_ms = match deadline.remaining() {
            Some(d) => d.as_millis() as i64,
            None => {
                -(deadline
                    .elapsed()
                    .saturating_sub(deadline.budget())
                    .as_millis() as i64)
            }
        };
        // The record is published before the response goes out, so a
        // client that has read its response can already look it up.
        state.telemetry.record(scope.seal(total_ns, remaining_ms));
        // Best-effort: the peer may have given up; that is its right.
        let _ = stream.write_all(&bytes);
    }
    mwc_obs::metrics::observe_duration_ns(
        "server.request_ns",
        deadline.elapsed().as_nanos() as u64,
    );
    let busy = state.busy.fetch_sub(1, Ordering::Relaxed) - 1;
    mwc_obs::metrics::gauge_set("server.workers.busy", busy as f64);
}

/// The 504 every expiry checkpoint answers with.
fn deadline_response(state: &Arc<ServerState>, deadline: &Deadline) -> Response {
    state.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
    mwc_obs::metrics::counter_add("server.deadline_expired", 1);
    Response::error(
        504,
        "deadline",
        &format!(
            "request exceeded its {} ms budget ({} ms elapsed)",
            deadline.budget().as_millis(),
            deadline.elapsed().as_millis()
        ),
    )
}

/// Read and route exactly one request, returning its answer; `None` when
/// the peer left without sending one.
fn serve_connection(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    deadline: Deadline,
    scope: &mut RequestScope,
) -> Option<Response> {
    // Jobs popped after the drain budget is spent get a fast refusal —
    // shutdown must not hang behind a deep queue.
    if state.shutdown_requested() && state.drain_expired() {
        return Some(
            Response::error(503, "draining", "server drain deadline passed")
                .header("retry-after", 1),
        );
    }
    // Expired while queued: answer without even parsing.
    if deadline.expired() {
        return Some(deadline_response(state, &deadline));
    }
    // Bound the read by whichever is tighter: socket timeout or budget.
    if let Some(remaining) = deadline.remaining() {
        let _ = stream.set_read_timeout(Some(remaining.min(state.config.io_timeout)));
    }
    let mut reader = BufReader::new(stream);
    let parse_start = Instant::now();
    let parsed = http::read_request(&mut reader);
    scope.parse_ns = parse_start.elapsed().as_nanos() as u64;
    let req = match parsed {
        Ok(req) => req,
        Err(HttpError::BadRequest(m)) => return Some(Response::error(400, "http", &m)),
        Err(HttpError::TooLarge(m)) => return Some(Response::error(413, "http", &m)),
        Err(HttpError::Timeout) => {
            return Some(Response::error(
                408,
                "http",
                "timed out reading the request",
            ))
        }
        Err(HttpError::Closed | HttpError::Io(_)) => return None,
    };
    let (id, from_client) = telemetry::request_id(req.header(telemetry::REQUEST_ID_HEADER));
    scope.id = Some(id);
    scope.client_id = from_client;
    scope.method = req.method.clone();
    scope.path = req.target.clone();
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    mwc_obs::metrics::counter_add("server.requests", 1);
    Some(route(state, &req, deadline, scope))
}

/// Dispatch one parsed request.
fn route(
    state: &Arc<ServerState>,
    req: &Request,
    deadline: Deadline,
    scope: &mut RequestScope,
) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.shutdown_requested() {
                Response::error(503, "draining", "server is shutting down")
            } else {
                Response::text(
                    200,
                    format!(
                        "ready (queue {}/{})\n",
                        state.queue.len(),
                        state.queue.capacity()
                    ),
                )
            }
        }
        ("GET", "/metrics") => metrics_response(state),
        ("GET", "/debug/requests") => debug_requests(state),
        ("GET", target) if target.strip_prefix("/debug/requests/").is_some() => {
            debug_request_by_id(
                state,
                target.strip_prefix("/debug/requests/").unwrap_or_default(),
            )
        }
        ("GET", target) if target.strip_prefix("/study/").is_some() => {
            get_study(state, target.strip_prefix("/study/").unwrap_or_default())
        }
        ("POST", "/study") => post_study(state, req, deadline, scope),
        ("POST", "/admin/shutdown") => {
            state.begin_shutdown();
            Response::json(200, "{\"status\":\"draining\"}")
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/admin/shutdown" | "/debug/requests")
        | (_, "/study") => {
            Response::error(405, "http", &format!("{} not allowed here", req.method))
        }
        (_, target) => Response::error(404, "http", &format!("no route for {target}")),
    }
}

/// `GET /metrics` — the `mwc_obs` registry (when collection is on) plus
/// the always-live rolling/SLO/utilization tail rendered from server
/// state.
fn metrics_response(state: &Arc<ServerState>) -> Response {
    let mut snap = mwc_obs::metrics::snapshot();
    // The live gauges are re-rendered in the tail from server state;
    // drop the registry copies so each series appears exactly once.
    snap.retain(|(name, _)| name != "server.queue.depth" && name != "server.workers.busy");
    let mut text = mwc_obs::export::metrics_text(&snap);
    text.push_str(&state.telemetry.metrics_tail(
        state.queue.len(),
        state.queue.capacity(),
        state.busy.load(Ordering::Relaxed),
        state.config.workers,
    ));
    Response::text(200, text)
}

/// The 404 both debug endpoints answer when the ring is off.
fn debug_ring_disabled() -> Response {
    Response::error(
        404,
        "debug",
        "debug ring disabled; set MWC_SERVER_DEBUG_RING to a capacity",
    )
}

/// `GET /debug/requests` — the most recent request records, newest
/// first.
fn debug_requests(state: &Arc<ServerState>) -> Response {
    if !state.telemetry.ring_enabled() {
        return debug_ring_disabled();
    }
    let records = state.telemetry.recent(64);
    let mut body = String::with_capacity(64 + records.len() * 320);
    body.push_str(&format!("{{\"count\":{},\"requests\":[", records.len()));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&r.to_json());
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /debug/requests/<id>` — one record by trace ID.
fn debug_request_by_id(state: &Arc<ServerState>, id: &str) -> Response {
    if !state.telemetry.ring_enabled() {
        return debug_ring_disabled();
    }
    match state.telemetry.find(id) {
        Some(r) => Response::json(200, r.to_json()),
        None => Response::error(404, "debug", &format!("no recent request with id {id:?}")),
    }
}

/// `GET /study/<16-hex-digest>` — lookup by result digest.
fn get_study(state: &Arc<ServerState>, digest_hex: &str) -> Response {
    let Ok(digest) = u64::from_str_radix(digest_hex, 16) else {
        return Response::error(400, "digest", &format!("not a hex digest: {digest_hex:?}"));
    };
    match state.cache.study_by_digest(digest) {
        Some(study) => Response::json(200, study_json(&study, None)),
        None => Response::error(
            404,
            "digest",
            &format!("no study with digest {digest:016x} is resident"),
        ),
    }
}

/// `POST /study` — parse the wire spec, run (or fetch) the study.
fn post_study(
    state: &Arc<ServerState>,
    req: &Request,
    deadline: Deadline,
    scope: &mut RequestScope,
) -> Response {
    if state.config.test_hooks {
        if let Some(ms) = req
            .header("x-mwc-test-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            thread::sleep(Duration::from_millis(ms));
        }
        if req.header("x-mwc-test-panic").is_some() {
            panic!("test hook: injected panic");
        }
    }
    let decode_start = Instant::now();
    let decoded = decode_spec(&req.body);
    scope.decode_ns = decode_start.elapsed().as_nanos() as u64;
    let spec = match decoded {
        Ok(spec) => spec,
        Err(resp) => return resp,
    };
    // Checkpoint: a request that expired while queued or parsing must not
    // start a simulation it cannot answer in time.
    let check = Instant::now();
    let expired = deadline.expired();
    scope.deadline_check_ns += check.elapsed().as_nanos() as u64;
    if expired {
        return deadline_response(state, &deadline);
    }
    let computed = Instant::now();
    // Memory residency *before* the lookup labels this request's
    // compute phase cache-hit or miss.
    scope.cache_hit = Some(state.cache.is_resident(&spec));
    let result = state.cache.study_spec(&spec);
    scope.compute_ns = computed.elapsed().as_nanos() as u64;
    match result {
        Ok(study) => {
            let check = Instant::now();
            let expired = deadline.expired();
            scope.deadline_check_ns += check.elapsed().as_nanos() as u64;
            if expired {
                return deadline_response(state, &deadline);
            }
            Response::json(200, study_json(&study, Some(computed.elapsed())))
        }
        Err(e) => pipeline_error_response(&e),
    }
}

/// Decode and validate a `POST /study` body, or the `400` that says why
/// it is not a study spec.
fn decode_spec(body: &[u8]) -> Result<StudySpec, Response> {
    let body =
        str::from_utf8(body).map_err(|_| Response::error(400, "wire", "body is not utf-8"))?;
    let spec = from_wire(body).map_err(|e| Response::error(400, "wire", &e.to_string()))?;
    spec.validate()
        .map_err(|e| Response::error(400, "spec", &e.to_string()))?;
    Ok(spec)
}

/// Map a pipeline failure onto a status + typed body. Client-caused
/// failures (unknown units, bad fault configs) are 400s; everything else
/// is a 500.
fn pipeline_error_response(e: &PipelineError) -> Response {
    match e {
        PipelineError::UnknownUnit(_) => Response::error(400, "spec", &e.to_string()),
        PipelineError::Capture(_) | PipelineError::StudyEmpty { .. } => {
            Response::error(500, "capture", &e.to_string())
        }
        PipelineError::Soc(_) => Response::error(400, "spec", &e.to_string()),
        PipelineError::Analysis(_) | PipelineError::Io(_) => {
            Response::error(500, "pipeline", &e.to_string())
        }
    }
}

/// The study summary body both `/study` routes answer with.
fn study_json(study: &Characterization, elapsed: Option<Duration>) -> String {
    let report = study.report();
    let mut failed = String::new();
    for (i, f) in report.failed_units.iter().enumerate() {
        if i > 0 {
            failed.push(',');
        }
        failed.push_str(&format!(
            "{{\"name\":\"{}\",\"error\":\"{}\"}}",
            http::json_escape(&f.name),
            http::json_escape(&f.error)
        ));
    }
    let elapsed_us = elapsed
        .map(|d| format!(",\"elapsed_us\":{}", d.as_micros()))
        .unwrap_or_default();
    format!(
        "{{\"digest\":\"{:016x}\",\"units_requested\":{},\"units_profiled\":{},\"failed_units\":[{}]{}}}",
        study.digest(),
        report.units_requested,
        report.units_profiled(),
        failed,
        elapsed_us
    )
}

/// Count one response into the stats, echo the trace ID onto it and
/// render it to bytes, charging the render to the scope's serialize
/// phase. Every response goes through here, so the `x-mwc-request-id`
/// echo is unconditional — including 500/503/504 paths.
fn render(state: &ServerState, resp: Response, scope: &mut RequestScope) -> Vec<u8> {
    let start = Instant::now();
    let class = match resp.status {
        200..=299 => &state.stats.responses_2xx,
        400..=499 => &state.stats.responses_4xx,
        _ => &state.stats.responses_5xx,
    };
    class.fetch_add(1, Ordering::Relaxed);
    scope.status = resp.status;
    let id = scope.ensure_id().to_owned();
    let bytes = resp.header(telemetry::REQUEST_ID_HEADER, id).to_bytes();
    scope.serialize_ns += start.elapsed().as_nanos() as u64;
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_json_renders_digest_and_counts() {
        let mut spec = StudySpec::paper_default().with_units(["Antutu CPU"]);
        spec.runs = 1;
        let study = Characterization::try_run_spec(&spec).expect("one-unit study runs");
        let body = study_json(&study, Some(Duration::from_micros(1234)));
        assert!(body.contains(&format!("\"digest\":\"{:016x}\"", study.digest())));
        assert!(body.contains("\"units_requested\":1"));
        assert!(body.contains("\"elapsed_us\":1234"));
        assert!(body.contains("\"failed_units\":[]"));
    }

    #[test]
    fn pipeline_errors_split_client_from_server_blame() {
        let unknown = PipelineError::UnknownUnit("Nope".into());
        assert_eq!(pipeline_error_response(&unknown).status, 400);
        let empty = PipelineError::StudyEmpty { requested: 3 };
        assert_eq!(pipeline_error_response(&empty).status, 500);
    }
}
