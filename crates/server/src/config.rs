//! Server configuration, sourced from `MWC_SERVER_*` and `MWC_LOG*`
//! environment variables with conservative defaults.

use std::env;
use std::path::PathBuf;
use std::time::Duration;

use crate::telemetry::{Level, RequestLog};

/// Bind address (`MWC_SERVER_ADDR`). Port 0 asks the OS for a free port;
/// the chosen address is reported by [`crate::Server::local_addr`].
pub const ADDR_ENV: &str = "MWC_SERVER_ADDR";
/// Worker-pool size (`MWC_SERVER_WORKERS`).
pub const WORKERS_ENV: &str = "MWC_SERVER_WORKERS";
/// Admission-queue depth (`MWC_SERVER_QUEUE`).
pub const QUEUE_ENV: &str = "MWC_SERVER_QUEUE";
/// End-to-end request budget in milliseconds (`MWC_SERVER_DEADLINE_MS`).
pub const DEADLINE_ENV: &str = "MWC_SERVER_DEADLINE_MS";
/// Drain budget after shutdown in milliseconds (`MWC_SERVER_DRAIN_MS`).
pub const DRAIN_ENV: &str = "MWC_SERVER_DRAIN_MS";
/// Per-socket read/write timeout in milliseconds
/// (`MWC_SERVER_IO_TIMEOUT_MS`).
pub const IO_TIMEOUT_ENV: &str = "MWC_SERVER_IO_TIMEOUT_MS";
/// On-disk cache directory (`MWC_SERVER_CACHE_DIR`); unset keeps the
/// cache in memory only.
pub const CACHE_DIR_ENV: &str = "MWC_SERVER_CACHE_DIR";
/// Capacity of the recent-request debug ring served at
/// `GET /debug/requests` (`MWC_SERVER_DEBUG_RING`); unset or 0 disables
/// the endpoint.
pub const DEBUG_RING_ENV: &str = "MWC_SERVER_DEBUG_RING";
/// Latency SLO threshold in milliseconds (`MWC_SERVER_SLO_MS`): 2xx
/// responses within it count toward `server_slo_ok_total`, slower 2xx
/// and all 5xx toward `server_slo_violations_total`.
pub const SLO_ENV: &str = "MWC_SERVER_SLO_MS";
/// Request-log level (`MWC_LOG`: `error`, `warn` or `info`; `debug` and
/// `trace` read as `info`); unset or unknown writes no log.
pub const LOG_ENV: &str = "MWC_LOG";
/// File the request log appends to (`MWC_LOG_FILE`); unset writes to
/// stderr.
pub const LOG_FILE_ENV: &str = "MWC_LOG_FILE";

/// Everything the server needs to boot. `Default` matches the documented
/// env defaults; [`ServerConfig::from_env`] overlays `MWC_SERVER_*` and
/// `MWC_LOG*`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080`. Default `127.0.0.1:0`.
    pub addr: String,
    /// Worker threads handling admitted requests. Default 4.
    pub workers: usize,
    /// Admission-queue capacity; beyond it the acceptor sheds with 503.
    /// Default 64.
    pub queue_depth: usize,
    /// End-to-end budget per request, measured from accept. Default 10 s.
    pub deadline: Duration,
    /// How long shutdown keeps serving already-admitted requests before
    /// answering the remainder with 503. Default 5 s.
    pub drain: Duration,
    /// Socket read/write timeout. Default 5 s.
    pub io_timeout: Duration,
    /// Study-cache directory; `None` keeps results in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Honor `x-mwc-test-panic` / `x-mwc-test-sleep-ms` request headers.
    /// No environment variable sets it: only in-process tests turn it on,
    /// to inject panics and latency deterministically.
    pub test_hooks: bool,
    /// Recent-request debug-ring capacity; 0 disables `GET
    /// /debug/requests`. Default 0.
    pub debug_ring: usize,
    /// Latency SLO threshold for the `server_slo_*` counters. Default
    /// 1 s.
    pub slo: Duration,
    /// The wide-event request log this server writes; `None` writes
    /// none. Default `None`.
    pub log: Option<RequestLog>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_millis(10_000),
            drain: Duration::from_millis(5_000),
            io_timeout: Duration::from_millis(5_000),
            cache_dir: None,
            test_hooks: false,
            debug_ring: 0,
            slo: Duration::from_millis(1_000),
            log: None,
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn env_ms(name: &str, default: Duration) -> Duration {
    env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
        .unwrap_or(default)
}

impl ServerConfig {
    /// Defaults overlaid with any `MWC_SERVER_*` and `MWC_LOG*` variables
    /// that parse.
    /// Malformed or non-positive values fall back to the default rather
    /// than failing the boot: a server that refuses to start because of a
    /// typo'd timeout is less robust than one running with a sane value.
    pub fn from_env() -> Self {
        let d = ServerConfig::default();
        ServerConfig {
            addr: env::var(ADDR_ENV)
                .ok()
                .filter(|v| !v.is_empty())
                .unwrap_or(d.addr),
            workers: env_usize(WORKERS_ENV, d.workers),
            queue_depth: env_usize(QUEUE_ENV, d.queue_depth),
            deadline: env_ms(DEADLINE_ENV, d.deadline),
            drain: env_ms(DRAIN_ENV, d.drain),
            io_timeout: env_ms(IO_TIMEOUT_ENV, d.io_timeout),
            cache_dir: env::var_os(CACHE_DIR_ENV)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            test_hooks: false,
            debug_ring: env_usize(DEBUG_RING_ENV, d.debug_ring),
            slo: env_ms(SLO_ENV, d.slo),
            log: env::var(LOG_ENV)
                .ok()
                .and_then(|v| Level::parse(&v))
                .map(
                    |level| match env::var_os(LOG_FILE_ENV).filter(|v| !v.is_empty()) {
                        Some(path) => RequestLog::file(level, path),
                        None => RequestLog::stderr(level),
                    },
                ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers > 0);
        assert!(c.queue_depth > 0);
        assert!(c.deadline > Duration::ZERO);
        assert!(c.cache_dir.is_none());
        assert!(!c.test_hooks);
        assert!(c.log.is_none());
    }
}
