//! # mwc-obs — structured tracing, metrics and self-profiling
//!
//! The paper's methodology rests on Snapdragon Profiler visibility into
//! the device under test; this crate gives the reproduction pipeline the
//! same profiler-grade introspection. It provides:
//!
//! * [`trace`] — structured spans and events: RAII span guards with span
//!   ids, parent links (implicit per-thread, or explicit handles across
//!   worker threads) and per-span key/value fields, buffered per thread
//!   and merged at [`trace::drain`];
//! * [`metrics`] — a registry of named counters, gauges and fixed-bucket
//!   histograms (`capture.retries`, `pipeline.stage_ns`, `soc.ticks`, …);
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and a JSONL event log, plus a reader
//!   that parses the Chrome export back (used by the neutrality tests);
//! * [`log`] — leveled wide-event JSONL logging (`MWC_LOG`,
//!   `MWC_LOG_FILE`), one self-describing line per request/event;
//! * [`summary`] — per-span-name aggregation (count / total / self / max)
//!   for the human `--profile` tables rendered by `mwc-bench`.
//!
//! ## Perturbation guarantees
//!
//! Everything is **off by default**. The instrumented crates call
//! [`enabled`] before touching any observability state; when disabled that
//! call is a pair of relaxed atomic loads and nothing else — no
//! allocation, no clock read, no lock. Observability never feeds back into
//! simulation or analysis values, so study outputs are bit-identical with
//! tracing on, off, or absent (asserted by the workspace's neutrality
//! tests).
//!
//! ## Enabling
//!
//! | Knob | Effect |
//! |------|--------|
//! | `MWC_TRACE=<path>` | collect spans/events/metrics; binaries write a Chrome trace (or JSONL if the path ends in `.jsonl`) to `<path>` on exit |
//! | `MWC_PROFILE=1` | collect spans/events/metrics; binaries print a profile summary table |
//!
//! Programs (and tests) can also flip collection programmatically with
//! [`set_enabled`], which takes precedence over the environment.
//!
//! ```
//! let _guard = mwc_obs::trace::span("pipeline.study");
//! mwc_obs::metrics::counter_add("capture.retries", 2);
//! // ... drained and exported by the owning binary:
//! let data = mwc_obs::trace::drain();
//! let json = mwc_obs::export::chrome_trace_json(&data);
//! assert!(json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

pub mod export;
pub mod log;
pub mod metrics;
pub mod summary;
pub mod trace;

pub use trace::{event, event_with, span, span_with_parent, SpanGuard, SpanHandle, Value};

/// Environment variable naming the trace output path (enables collection).
pub const TRACE_ENV: &str = "MWC_TRACE";

/// Environment variable requesting a profile summary (enables collection).
pub const PROFILE_ENV: &str = "MWC_PROFILE";

/// Whether observability collection is on. Off by default; turned on by
/// `MWC_TRACE` / `MWC_PROFILE` (read once, at first call) or by
/// [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One-shot environment probe backing [`enabled`].
static ENV_PROBE: Once = Once::new();

/// Whether collection is enabled. This is the only check the instrumented
/// hot paths perform when observability is off: after the first call it
/// costs two relaxed/acquire atomic loads and touches nothing else.
#[inline]
pub fn enabled() -> bool {
    ENV_PROBE.call_once(|| {
        if trace_path().is_some() || profile_requested() {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off programmatically (tests, the `profile`
/// binary). Overrides whatever the environment probe decided.
pub fn set_enabled(on: bool) {
    ENV_PROBE.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// The `MWC_TRACE` output path, if the variable is set and non-empty.
pub fn trace_path() -> Option<PathBuf> {
    std::env::var_os(TRACE_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Whether `MWC_PROFILE` requests a profile summary (set and not `0`).
pub fn profile_requested() -> bool {
    std::env::var(PROFILE_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Drop all collected spans, events and metrics and return to a pristine
/// registry. Collection stays in whatever enabled state it was. Intended
/// for tests and for binaries that profile several studies in sequence.
pub fn reset() {
    let _ = trace::drain();
    metrics::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_costs_nothing() {
        // Not enabled via env in the test harness; a span guard must be
        // inert (no id allocated).
        if !enabled() {
            let g = span("noop");
            assert!(g.handle().is_none());
        }
    }

    #[test]
    fn set_enabled_round_trips() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
