//! End-to-end robustness suite for `mwc-server`: each test boots a real
//! server on an OS-assigned port and talks to it over TCP with the
//! `wrkr` client, exercising the four robustness contracts — cache-warm
//! bit-identical serving, backpressure shedding + retry recovery, panic
//! isolation, deadlines, and graceful drain.

use std::thread;
use std::time::{Duration, Instant};

use mwc_core::pipeline::Characterization;
use mwc_core::{to_wire, StudySpec};
use mwc_server::client::{self, ClientError, ClientResponse};
use mwc_server::config::ServerConfig;
use mwc_server::loadgen::{self, LoadOptions};
use mwc_server::server::Server;
use mwc_server::signal;

const TIMEOUT: Duration = Duration::from_secs(30);

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    configure(&mut cfg);
    Server::bind(cfg).expect("server binds on an OS-assigned port")
}

/// A small two-unit, one-run study: heavy enough to exercise the real
/// pipeline, light enough for a test suite.
fn small_spec(seed: u64) -> StudySpec {
    let mut spec = StudySpec::paper_default().with_units(["Antutu CPU", "Antutu Mem"]);
    spec.seed = seed;
    spec.runs = 1;
    spec
}

fn post_study(addr: &str, body: &str, headers: &[(&str, &str)]) -> ClientResponse {
    client::request(addr, "POST", "/study", headers, body.as_bytes(), TIMEOUT)
        .expect("POST /study gets a response")
}

fn digest_of(resp: &ClientResponse) -> String {
    let body = resp.body_str();
    let json = mwc_obs::export::parse_json(&body).expect("response body is JSON");
    json.get("digest")
        .and_then(|d| d.as_str())
        .expect("response has a digest")
        .to_owned()
}

#[test]
fn warm_post_is_served_from_cache_bit_identical_to_the_cli_path() {
    let server = boot(|c| c.workers = 2);
    let addr = server.local_addr().to_string();
    let spec = small_spec(41);
    let body = to_wire(&spec).expect("spec serializes");

    let cold = post_study(&addr, &body, &[]);
    assert_eq!(cold.status, 200, "cold: {}", cold.body_str());
    let warm = post_study(&addr, &body, &[]);
    assert_eq!(warm.status, 200, "warm: {}", warm.body_str());
    assert_eq!(
        digest_of(&cold),
        digest_of(&warm),
        "warm must be bit-identical"
    );

    // The served digest must equal what the CLI path computes for the
    // same spec — the server is a transport, not a different pipeline.
    let local = Characterization::try_run_spec(&spec).expect("local study runs");
    assert_eq!(digest_of(&cold), format!("{:016x}", local.digest()));

    // The digest is addressable over GET.
    let by_digest = client::request(
        &addr,
        "GET",
        &format!("/study/{}", digest_of(&cold)),
        &[],
        b"",
        TIMEOUT,
    )
    .expect("GET /study/<digest> responds");
    assert_eq!(by_digest.status, 200);
    assert_eq!(digest_of(&by_digest), digest_of(&cold));

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.responses_2xx, 3);
}

#[test]
fn malformed_and_unknown_specs_answer_400_with_typed_bodies() {
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();

    let garbled = post_study(&addr, "not a spec at all", &[]);
    assert_eq!(garbled.status, 400);
    assert!(
        garbled.body_str().contains("\"kind\":\"wire\""),
        "{}",
        garbled.body_str()
    );

    let unknown = post_study(
        &addr,
        "mwc-spec v1\nconfig = snapdragon_888\nseed = 1\nruns = 1\nunits = Nonexistent Bench\n",
        &[],
    );
    assert_eq!(unknown.status, 400);
    assert!(
        unknown.body_str().contains("\"kind\":\"spec\""),
        "{}",
        unknown.body_str()
    );

    let no_runs = post_study(
        &addr,
        "mwc-spec v1\nconfig = snapdragon_888\nseed = 1\nruns = 0\n",
        &[],
    );
    assert_eq!(no_runs.status, 400, "{}", no_runs.body_str());
    assert!(
        no_runs.body_str().contains("\"kind\":\"spec\""),
        "{}",
        no_runs.body_str()
    );

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.responses_4xx, 3);
    assert_eq!(stats.panics, 0);
}

#[test]
fn full_queue_sheds_503_with_retry_after_and_wrkr_backoff_recovers() {
    // One worker, one queue slot: concurrent sleeps must overflow.
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 1;
        c.test_hooks = true;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(42)).expect("spec serializes");

    // Phase 1 — raw overflow: six simultaneous 300 ms requests against
    // one worker + one slot. At most two are admitted; the rest must be
    // shed with 503 + Retry-After, not buffered.
    let mut joins = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        let body = body.clone();
        joins.push(thread::spawn(move || {
            post_study(&addr, &body, &[("x-mwc-test-sleep-ms", "300")])
        }));
    }
    let responses: Vec<ClientResponse> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let sheds: Vec<&ClientResponse> = responses.iter().filter(|r| r.status == 503).collect();
    let served = responses.iter().filter(|r| r.status == 200).count();
    assert!(
        !sheds.is_empty(),
        "six concurrent requests against one slot must shed"
    );
    assert!(served >= 1, "the admitted request must still be served");
    for shed in &sheds {
        assert_eq!(
            shed.header("retry-after"),
            Some("1"),
            "sheds carry Retry-After"
        );
        assert!(
            shed.body_str().contains("\"kind\":\"overload\""),
            "{}",
            shed.body_str()
        );
    }

    // Phase 2 — the load generator's jittered backoff turns those sheds
    // into eventual successes: every request completes 200.
    let report = loadgen::run(&LoadOptions {
        addr: addr.clone(),
        method: "POST".to_owned(),
        path: "/study".to_owned(),
        headers: vec![("x-mwc-test-sleep-ms".to_owned(), "50".to_owned())],
        body: body.into_bytes(),
        connections: 6,
        requests: 12,
        retries: 10,
        backoff: Duration::from_millis(20),
        timeout: TIMEOUT,
        ..LoadOptions::default()
    });
    assert_eq!(
        report.ok, 12,
        "backoff retries recover every request: {report:?}"
    );
    assert_eq!(report.errors, 0);
    assert_eq!(report.exhausted, 0);

    server.request_shutdown();
    let stats = server.join();
    assert!(stats.shed > 0, "server counted its sheds");
    assert_eq!(stats.panics, 0);
}

/// Under `--rate`, a request's latency counts from when it was due, not
/// from when a connection got round to sending it. One connection to a
/// 50 ms handler cannot keep 100 requests/s: request `i` is due at
/// `10·i` ms but sent at about `50·i` ms, so the sixth answers about
/// 250 ms after its due time. Timed from the send, every request would
/// read about 50 ms and the schedule's backlog would not show.
#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let server = boot(|c| {
        c.workers = 1;
        c.test_hooks = true;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(47)).expect("spec serializes");
    // Warm the study, so each timed request costs the hook and a hit.
    let warm = post_study(&addr, &body, &[]);
    assert_eq!(warm.status, 200, "{}", warm.body_str());

    let report = loadgen::run(&LoadOptions {
        addr: addr.clone(),
        method: "POST".to_owned(),
        path: "/study".to_owned(),
        headers: vec![("x-mwc-test-sleep-ms".to_owned(), "50".to_owned())],
        body: body.into_bytes(),
        connections: 1,
        requests: 6,
        rate: 100.0,
        timeout: TIMEOUT,
        ..LoadOptions::default()
    });
    assert_eq!(report.ok, 6, "{report:?}");
    let max_ms = report.latency_ns.max() / 1.0e6;
    assert!(
        max_ms >= 150.0,
        "the wait behind the schedule must count: largest latency {max_ms:.1} ms"
    );

    server.request_shutdown();
    assert_eq!(server.join().panics, 0);
}

#[test]
fn injected_panic_answers_500_and_the_worker_pool_survives() {
    let server = boot(|c| {
        c.workers = 1; // the single worker must survive its own panic
        c.test_hooks = true;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(43)).expect("spec serializes");

    let boom = post_study(&addr, &body, &[("x-mwc-test-panic", "1")]);
    assert_eq!(boom.status, 500);
    assert!(
        boom.body_str().contains("\"kind\":\"panic\""),
        "{}",
        boom.body_str()
    );
    assert!(
        boom.body_str().contains("injected panic"),
        "{}",
        boom.body_str()
    );

    // The very next request on the same (sole) worker succeeds.
    let after = post_study(&addr, &body, &[]);
    assert_eq!(after.status, 200, "{}", after.body_str());

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.responses_5xx, 1);
    assert_eq!(stats.responses_2xx, 1);
}

#[test]
fn deadline_expiry_answers_504_without_starting_the_compute() {
    let server = boot(|c| {
        c.deadline = Duration::from_millis(100);
        c.test_hooks = true;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(44)).expect("spec serializes");

    let late = post_study(&addr, &body, &[("x-mwc-test-sleep-ms", "300")]);
    assert_eq!(late.status, 504, "{}", late.body_str());
    assert!(
        late.body_str().contains("\"kind\":\"deadline\""),
        "{}",
        late.body_str()
    );

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.panics, 0);
}

#[test]
fn shutdown_mid_request_drains_the_in_flight_request_completely() {
    let server = boot(|c| c.test_hooks = true);
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(45)).expect("spec serializes");

    // Park a request in a worker, then shut down underneath it.
    let slow = {
        let addr = addr.clone();
        let body = body.clone();
        thread::spawn(move || post_study(&addr, &body, &[("x-mwc-test-sleep-ms", "400")]))
    };
    thread::sleep(Duration::from_millis(100)); // let it get admitted
    server.request_shutdown();
    let stats = server.join();

    let resp = slow.join().expect("in-flight request thread joins");
    assert_eq!(
        resp.status,
        200,
        "drain must answer the in-flight request: {}",
        resp.body_str()
    );
    assert_eq!(stats.responses_2xx, 1);
    assert_eq!(stats.panics, 0);

    // The drained server is gone: new connections are refused.
    let refused = client::request(&addr, "GET", "/healthz", &[], b"", Duration::from_secs(2));
    assert!(
        matches!(refused, Err(ClientError::Connect(_))),
        "post-drain connect must be refused, got {refused:?}"
    );
}

#[test]
fn an_idle_server_stops_within_a_second_on_loopback_and_unspecified_addresses() {
    // The acceptor blocks in accept; shutdown must wake it even though
    // no client ever connected, whichever address the server is bound to.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = boot(|c| c.addr = addr.to_owned());
        let started = Instant::now();
        server.request_shutdown();
        let stats = server.join();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{addr}: shutdown + join took {took:?}"
        );
        assert_eq!(stats.accepted, 0, "{addr}: the wake-up is not a client");
        assert_eq!(stats.responses_5xx, 0, "{addr}");
    }
}

#[test]
fn admin_shutdown_drains_the_in_flight_request() {
    let server = boot(|c| c.test_hooks = true);
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(46)).expect("spec serializes");

    let slow = {
        let addr = addr.clone();
        thread::spawn(move || post_study(&addr, &body, &[("x-mwc-test-sleep-ms", "400")]))
    };
    // Once accepted, the acceptor queues the study before it can see the
    // shutdown latch.
    let admitted_by = Instant::now() + TIMEOUT;
    while server.stats().accepted == 0 {
        assert!(Instant::now() < admitted_by, "the study was never accepted");
        thread::sleep(Duration::from_millis(5));
    }
    let ack = client::request(&addr, "POST", "/admin/shutdown", &[], b"", TIMEOUT)
        .expect("POST /admin/shutdown responds");
    assert_eq!(ack.status, 200, "{}", ack.body_str());
    let stats = server.join();

    let resp = slow.join().expect("in-flight request thread joins");
    assert_eq!(
        resp.status,
        200,
        "drain must answer the in-flight request: {}",
        resp.body_str()
    );
    assert_eq!(stats.responses_2xx, 2, "the study and the shutdown ack");
    assert_eq!(stats.panics, 0);
}

#[test]
fn an_in_process_server_keeps_serving_after_a_signal() {
    // The signal flag belongs to the binary's main loop; a server
    // embedded in a process must not stop because something raised it.
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();
    signal::raise();
    // Far longer than the binary's 20 ms poll of the flag.
    thread::sleep(Duration::from_millis(100));
    for _ in 0..3 {
        let resp = client::request(&addr, "GET", "/healthz", &[], b"", TIMEOUT)
            .expect("GET /healthz responds");
        assert_eq!(resp.status, 200);
    }
    assert!(!server.shutdown_requested());
    server.request_shutdown();
    assert_eq!(server.join().responses_2xx, 3);
}
