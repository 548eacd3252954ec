//! End-to-end tests for the request-telemetry layer: trace-ID round
//! trips through the debug ring, ID echo on every failure status,
//! rolling `/metrics` and the scope of its registry, wrkr-minted IDs, the
//! request log each server owns, and the digest-neutrality guarantee
//! (observability must never change what the pipeline computes).

use std::thread;
use std::time::{Duration, Instant};

use mwc_core::{to_wire, StudySpec};
use mwc_obs::export::{parse_json, Json};
use mwc_obs::Collector;
use mwc_server::client::{self, ClientResponse};
use mwc_server::config::ServerConfig;
use mwc_server::loadgen::{self, LoadOptions};
use mwc_server::server::Server;
use mwc_server::telemetry::{Level, RequestLog};

const TIMEOUT: Duration = Duration::from_secs(30);

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    configure(&mut cfg);
    Server::bind(cfg).expect("server binds on an OS-assigned port")
}

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

fn get(addr: &str, path: &str) -> ClientResponse {
    client::request(addr, "GET", path, &[], b"", TIMEOUT).expect("GET gets a response")
}

fn digest_of(resp: &ClientResponse) -> String {
    let json = parse_json(&resp.body_str()).expect("response body is JSON");
    json.get("digest")
        .and_then(|d| d.as_str())
        .expect("response has a digest")
        .to_owned()
}

fn num(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("record has numeric {key}")) as u64
}

#[test]
fn caller_supplied_id_round_trips_through_the_debug_ring_with_phase_timings() {
    let server = boot(|c| {
        c.workers = 2;
        c.debug_ring = 64;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(61)).expect("spec serializes");

    // Cold request with a caller-supplied trace ID.
    let started = Instant::now();
    let cold = post_study(&addr, &body, &[("x-mwc-request-id", "trace-e2e-0001")]);
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(
        cold.header("x-mwc-request-id"),
        Some("trace-e2e-0001"),
        "the response echoes the caller's ID"
    );

    // The record is findable by that ID, with coherent phase timings.
    let by_id = get(&addr, "/debug/requests/trace-e2e-0001");
    assert_eq!(by_id.status, 200, "{}", by_id.body_str());
    let record = parse_json(&by_id.body_str()).expect("record is JSON");
    assert_eq!(
        record.get("client_id"),
        Some(&Json::Bool(true)),
        "ID is marked caller-supplied"
    );
    assert_eq!(
        record.get("cache_hit"),
        Some(&Json::Bool(false)),
        "cold miss"
    );
    let phase_sum = num(&record, "phase_sum_ns");
    let total = num(&record, "total_ns");
    assert!(num(&record, "compute_ns") > 0, "cold compute takes time");
    assert_eq!(
        phase_sum,
        num(&record, "queue_ns")
            + num(&record, "parse_ns")
            + num(&record, "decode_ns")
            + num(&record, "deadline_check_ns")
            + num(&record, "compute_ns")
            + num(&record, "serialize_ns"),
        "phase_sum is the sum of the phases"
    );
    // Phases bracket the server total from below, and the server total
    // brackets the client-observed latency from below (the client also
    // pays connect + network time).
    assert!(phase_sum <= total, "phase_sum {phase_sum} <= total {total}");
    assert!(
        total <= elapsed_ns,
        "server total {total} <= client-observed {elapsed_ns}"
    );
    let unattributed = num(&record, "unattributed_ns");
    assert_eq!(unattributed, total - phase_sum, "unattributed is the rest");
    // The instrumented phases must account for nearly all of the
    // latency: at most a tenth of it is unattributed.
    assert!(
        unattributed * 10 <= total,
        "unattributed {unattributed} is at most a tenth of total {total}"
    );

    // A warm replay under a fresh ID is recorded as a cache hit.
    let warm = post_study(&addr, &body, &[("x-mwc-request-id", "trace-e2e-0002")]);
    assert_eq!(warm.status, 200);
    let warm_rec = parse_json(&get(&addr, "/debug/requests/trace-e2e-0002").body_str())
        .expect("warm record is JSON");
    assert_eq!(
        warm_rec.get("cache_hit"),
        Some(&Json::Bool(true)),
        "warm replay is a recorded cache hit"
    );

    // Both show up in the ring listing.
    let listing = get(&addr, "/debug/requests").body_str();
    assert!(listing.contains("trace-e2e-0001"), "{listing}");
    assert!(listing.contains("trace-e2e-0002"), "{listing}");

    server.request_shutdown();
    server.join();
}

#[test]
fn the_same_id_is_echoed_on_500_and_504_and_sheds_mint_one() {
    // 500: an injected panic still echoes the caller's ID.
    let server = boot(|c| {
        c.workers = 1;
        c.test_hooks = true;
        c.debug_ring = 16;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(62)).expect("spec serializes");
    let boom = post_study(
        &addr,
        &body,
        &[
            ("x-mwc-test-panic", "1"),
            ("x-mwc-request-id", "trace-panic-1"),
        ],
    );
    assert_eq!(boom.status, 500);
    assert_eq!(boom.header("x-mwc-request-id"), Some("trace-panic-1"));
    let rec = parse_json(&get(&addr, "/debug/requests/trace-panic-1").body_str())
        .expect("panic record is JSON");
    assert_eq!(rec.get("panicked"), Some(&Json::Bool(true)));
    assert_eq!(num(&rec, "status"), 500);
    server.request_shutdown();
    server.join();

    // 504: deadline expiry still echoes the caller's ID.
    let server = boot(|c| {
        c.deadline = Duration::from_millis(100);
        c.test_hooks = true;
        c.debug_ring = 16;
    });
    let addr = server.local_addr().to_string();
    let late = post_study(
        &addr,
        &body,
        &[
            ("x-mwc-test-sleep-ms", "300"),
            ("x-mwc-request-id", "trace-late-1"),
        ],
    );
    assert_eq!(late.status, 504, "{}", late.body_str());
    assert_eq!(late.header("x-mwc-request-id"), Some("trace-late-1"));
    let rec = parse_json(&get(&addr, "/debug/requests/trace-late-1").body_str())
        .expect("deadline record is JSON");
    assert!(
        rec.get("deadline_remaining_ms")
            .and_then(Json::as_f64)
            .expect("record has deadline_remaining_ms")
            < 0.0,
        "expired request records negative remaining budget"
    );
    server.request_shutdown();
    server.join();

    // 503: sheds never read the request, so they mint an ID — but every
    // shed response still carries one.
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 1;
        c.test_hooks = true;
    });
    let addr = server.local_addr().to_string();
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
    assert!(!sheds.is_empty(), "overload must shed");
    for shed in &sheds {
        let id = shed
            .header("x-mwc-request-id")
            .expect("shed responses carry a minted trace ID");
        assert!(!id.is_empty());
    }
    server.request_shutdown();
    server.join();
}

#[test]
fn wrkr_minted_ids_are_findable_in_the_debug_ring() {
    let server = boot(|c| {
        c.workers = 2;
        c.debug_ring = 64;
    });
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(63)).expect("spec serializes");

    let report = loadgen::run(&LoadOptions {
        addr: addr.clone(),
        method: "POST".to_owned(),
        path: "/study".to_owned(),
        body: body.into_bytes(),
        connections: 1,
        requests: 3,
        seed: 0xabc,
        timeout: TIMEOUT,
        ..LoadOptions::default()
    });
    assert_eq!(report.ok, 3, "{report:?}");

    // wrkr stamps deterministic IDs: every one is joinable server-side.
    for index in 0..3 {
        let id = loadgen::request_id(0xabc, index);
        let resp = get(&addr, &format!("/debug/requests/{id}"));
        assert_eq!(resp.status, 200, "wrkr request {id} is in the ring");
        let rec = parse_json(&resp.body_str()).expect("record is JSON");
        assert_eq!(rec.get("client_id"), Some(&Json::Bool(true)));
        assert_eq!(num(&rec, "status"), 200);
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn metrics_reports_rolling_quantiles_slo_and_utilization_gauges() {
    let server = boot(|c| c.workers = 2);
    let addr = server.local_addr().to_string();
    let body = to_wire(&small_spec(64)).expect("spec serializes");
    assert_eq!(post_study(&addr, &body, &[]).status, 200);

    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    for name in [
        "server_rolling_window_seconds",
        "server_rolling_rps",
        "server_rolling_requests",
        "server_rolling_p50_ns",
        "server_rolling_p99_ns",
        "server_rolling_error_rate",
        "server_rolling_shed_rate",
        "server_rolling_cache_hit_rate",
        "server_queue_depth",
        "server_queue_capacity",
        "server_workers_busy",
        "server_workers_total",
        "server_slo_threshold_ms",
        "server_slo_ok_total",
        "server_slo_violations_total",
    ] {
        assert!(text.contains(name), "/metrics is missing {name}:\n{text}");
    }
    // The study answered within the (default 1 s) SLO counts as ok, and
    // the rolling window has seen at least that one request.
    let slo_ok = text
        .lines()
        .find(|l| l.starts_with("server_slo_ok_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("server_slo_ok_total parses");
    assert!(slo_ok >= 1.0, "at least the study POST met the SLO: {text}");

    server.request_shutdown();
    server.join();
}

#[test]
fn serving_counters_are_in_metrics_with_collection_off() {
    // The server is bound outside any `mwc-obs` collector, so `/metrics`
    // has no registry: every line below comes from server state.
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();
    for _ in 0..3 {
        assert_eq!(get(&addr, "/healthz").status, 200);
    }

    // The scrape is itself the fourth request.
    let text = get(&addr, "/metrics").body_str();
    for line in [
        "server_accepted 4",
        "server_requests 4",
        "server_shed 0",
        "server_panics 0",
        "server_deadline_expired 0",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "/metrics is missing {line:?}:\n{text}"
        );
    }
    for name in [
        "server_requests",
        "server_queue_depth",
        "server_workers_busy",
    ] {
        let series = text
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .count();
        assert_eq!(series, 1, "{name} appears once:\n{text}");
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn metrics_render_the_registry_of_the_collector_current_at_bind() {
    // Server A is bound inside a collector, server B outside any; each
    // serves one cold study of 2 units × 1 run.
    let collector = Collector::default();
    let a = {
        let _entered = collector.enter();
        boot(|c| c.workers = 2)
    };
    let b = boot(|c| c.workers = 2);
    let soc_runs = |server: &Server, seed: u64| {
        let addr = server.local_addr().to_string();
        let body = to_wire(&small_spec(seed)).expect("spec serializes");
        assert_eq!(post_study(&addr, &body, &[]).status, 200);
        let text = get(&addr, "/metrics").body_str();
        text.lines()
            .find_map(|l| l.strip_prefix("soc_runs "))
            .map(str::to_owned)
    };
    assert_eq!(
        soc_runs(&a, 66).as_deref(),
        Some("2"),
        "A's registry counts its own study's runs"
    );
    assert_eq!(soc_runs(&b, 67), None, "B has no registry");
    assert_eq!(collector.counter("soc.runs"), 2, "B's study is not in A's");

    for server in [a, b] {
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn a_body_threads_value_is_advice_and_the_study_fans_out_over_the_process_count() {
    let collector = Collector::default();
    let server = {
        let _entered = collector.enter();
        boot(|c| c.workers = 1)
    };
    let addr = server.local_addr().to_string();
    let body = "mwc-spec v1\nconfig = snapdragon_888\nseed = 68\nruns = 1\n\
                units = Antutu CPU\nthreads = 977\n";
    assert_eq!(post_study(&addr, body, &[]).status, 200);
    let text = get(&addr, "/metrics").body_str();
    let threads = text
        .lines()
        .find_map(|l| l.strip_prefix("pipeline_threads "))
        .and_then(|v| v.parse::<f64>().ok());
    assert_eq!(
        threads,
        Some(mwc_core::configured_threads() as f64),
        "the cold study ran on the process's worker count, not the body's 977"
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn debug_endpoints_are_404_until_the_ring_is_enabled() {
    let server = boot(|c| c.debug_ring = 0);
    let addr = server.local_addr().to_string();
    assert_eq!(get(&addr, "/debug/requests").status, 404);
    assert_eq!(get(&addr, "/debug/requests/anything").status, 404);
    server.request_shutdown();
    server.join();
}

#[test]
fn logging_and_the_debug_ring_leave_the_study_digest_bit_identical() {
    let spec = small_spec(65);
    let body = to_wire(&spec).expect("spec serializes");

    // Baseline: telemetry sinks all off.
    let server = boot(|c| c.debug_ring = 0);
    let addr = server.local_addr().to_string();
    let off = post_study(&addr, &body, &[]);
    assert_eq!(off.status, 200);
    let digest_off = digest_of(&off);
    server.request_shutdown();
    server.join();

    // Everything on: this server's own wide-event log, kept in memory,
    // and the debug ring.
    let log = RequestLog::in_memory(Level::Info);
    let server = boot(|c| {
        c.debug_ring = 64;
        c.log = Some(log.clone());
    });
    let addr = server.local_addr().to_string();
    let on = post_study(&addr, &body, &[("x-mwc-request-id", "trace-neutral-1")]);
    server.request_shutdown();
    server.join();

    assert_eq!(on.status, 200);
    assert_eq!(
        digest_of(&on),
        digest_off,
        "telemetry must be digest-neutral"
    );
    // The wide event fired, once, and the log holds nothing else: no
    // other test's server writes into it.
    let lines = log.lines();
    assert_eq!(lines.len(), 1, "one line for one request: {lines:?}");
    let line = parse_json(&lines[0]).expect("wide event is JSON");
    assert_eq!(line.get("event").and_then(Json::as_str), Some("request"));
    assert_eq!(
        line.get("id").and_then(Json::as_str),
        Some("trace-neutral-1")
    );
    assert_eq!(line.get("status").and_then(Json::as_f64), Some(200.0));
    assert!(line.get("compute_ns").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
}

#[test]
fn each_server_logs_only_its_own_requests() {
    let logs = [
        RequestLog::in_memory(Level::Info),
        RequestLog::in_memory(Level::Info),
    ];
    let servers = logs.clone().map(|log| {
        boot(|c| {
            c.workers = 1;
            c.log = Some(log);
        })
    });
    for (i, server) in servers.iter().enumerate() {
        let addr = server.local_addr().to_string();
        let id = format!("trace-own-log-{i}");
        let resp = client::request(
            &addr,
            "GET",
            "/healthz",
            &[("x-mwc-request-id", id.as_str())],
            b"",
            TIMEOUT,
        )
        .expect("GET /healthz gets a response");
        assert_eq!(resp.status, 200);
    }
    for server in servers {
        server.request_shutdown();
        server.join();
    }
    for (i, log) in logs.iter().enumerate() {
        let ids: Vec<String> = log
            .lines()
            .iter()
            .map(|l| {
                let line = parse_json(l).expect("log line is JSON");
                line.get("id")
                    .and_then(Json::as_str)
                    .expect("log line has an id")
                    .to_owned()
            })
            .collect();
        assert_eq!(ids, [format!("trace-own-log-{i}")], "server {i}'s log");
    }
}
