//! # mwc-server — characterization as a service
//!
//! A fault-tolerant HTTP front end for the study pipeline: clients POST a
//! [`mwc_core::StudySpec`] in the textual wire format
//! ([`mwc_core::to_wire`]) and receive the characterization digest and
//! degradation report; warm requests are served from the content-addressed
//! [`mwc_core::StudyCache`] bit-identically to the CLI path.
//!
//! The server is built from `std` only — `TcpListener`, a fixed worker
//! pool, and a hand-rolled HTTP/1.1 subset ([`http`]) — and its robustness
//! properties are explicit modules rather than framework defaults:
//!
//! * **deadlines** ([`deadline`]) — every request carries an end-to-end
//!   budget starting at `accept(2)`; expiry anywhere on the path (queued,
//!   pre-compute, post-compute) answers `504` instead of burning a worker;
//! * **backpressure** ([`queue`]) — accepted connections pass through a
//!   bounded admission queue in front of the worker pool; when it is full
//!   the acceptor sheds load with `503` + `Retry-After` instead of
//!   buffering without bound;
//! * **panic isolation** ([`panics`]) — each request runs under
//!   `catch_unwind`; a panicking handler answers `500` with a typed error
//!   body, bumps the `server_panics` counter, and the worker lives on;
//! * **graceful shutdown** ([`server`]) — SIGTERM/ctrl-c (or
//!   `POST /admin/shutdown`) stops the acceptor, drains admitted requests
//!   up to a drain deadline, flushes observability, and exits 0;
//! * **request telemetry** ([`telemetry`]) — every request carries a
//!   trace ID (`x-mwc-request-id`, honored inbound and echoed on every
//!   response including 500/503/504) with per-phase timings feeding one
//!   wide-event line in the server's own request log
//!   ([`ServerConfig::log`], which `from_env` fills from `MWC_LOG` and
//!   `MWC_LOG_FILE`), the rolling `server_rolling_*` /metrics
//!   section, SLO counters, and the `GET /debug/requests` ring
//!   (`MWC_SERVER_DEBUG_RING`); the companion `dash` binary renders it
//!   all live in a terminal.
//!
//! The companion `wrkr` binary ([`loadgen`]) is a load generator with
//! seeded jittered-exponential-backoff retries that understands the
//! shedding contract.
//!
//! ## Quick example
//!
//! ```no_run
//! use mwc_server::config::ServerConfig;
//! use mwc_server::server::Server;
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.request_shutdown();
//! let stats = server.join();
//! assert_eq!(stats.panics, 0);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
// `deny`, not `forbid`: the signal module carries the workspace's one
// FFI exemption (installing a SIGTERM/SIGINT flag handler) under a
// scoped `allow`.
#![deny(unsafe_code)]

pub mod client;
pub mod config;
pub mod deadline;
pub mod http;
pub mod loadgen;
pub mod panics;
pub mod queue;
pub mod server;
pub mod signal;
pub mod telemetry;

pub use config::ServerConfig;
pub use server::{Server, StatsSnapshot};
