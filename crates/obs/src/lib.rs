//! # mwc-obs — structured tracing, metrics and self-profiling
//!
//! The paper's methodology rests on Snapdragon Profiler visibility into
//! the device under test; this crate gives the reproduction pipeline the
//! same profiler-grade introspection. It provides:
//!
//! * [`Collector`] — one collection (spans, events, thread names and
//!   metrics), recorded by every thread it is entered on;
//! * [`trace`] — structured spans and events: RAII span guards with span
//!   ids, parent links (implicit per-thread, or explicit handles across
//!   worker threads) and per-span key/value fields;
//! * [`metrics`] — named counters, gauges and fixed-bucket histograms
//!   (`capture.retries`, `pipeline.stage_ns`, `soc.ticks`, …);
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and a JSONL event log, plus a reader
//!   that parses the Chrome export back (used by the neutrality tests);
//! * [`summary`] — per-span-name aggregation (count / total / self / max)
//!   for the human `--profile` tables rendered by `mwc-bench`.
//!
//! ## Scope and cost
//!
//! Nothing is collected unless a [`Collector`] is entered on the
//! recording thread ([`Collector::enter`]); spans, events and metric
//! updates land in that collector and no other. Scope crosses threads the
//! way span parents do: a [`SpanHandle`] carries its collector, which
//! [`span_with_parent`] enters on the worker thread. With no collector
//! entered, every call is one thread-local read — no allocation, no clock
//! read, no lock. Observability never feeds back into simulation or
//! analysis values, so study outputs are bit-identical with or without a
//! collector (asserted by the workspace's neutrality tests).
//!
//! ```
//! let collector = mwc_obs::Collector::default();
//! {
//!     let _entered = collector.enter();
//!     let _span = mwc_obs::span("pipeline.study");
//!     mwc_obs::metrics::counter_add("capture.retries", 2);
//! }
//! assert_eq!(collector.counter("capture.retries"), 2);
//! let json = mwc_obs::export::chrome_trace_json(&collector.trace());
//! assert!(json.contains("pipeline.study"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

pub mod export;
pub mod metrics;
pub mod summary;
pub mod trace;

use metrics::Metric;
pub use trace::{event, event_with, span, span_with_parent, SpanGuard, SpanHandle, Value};
use trace::{EventRecord, SpanRecord, TraceData};

/// Environment variable naming the path `profile` and `mwc-server` write
/// their trace to.
pub const TRACE_ENV: &str = "MWC_TRACE";

/// The `MWC_TRACE` output path, if the variable is set and non-empty.
pub fn trace_path() -> Option<PathBuf> {
    std::env::var_os(TRACE_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// One collection: the spans, events and metrics recorded on every thread
/// it was entered on, with its own span ids, thread ids and epoch.
/// Clones are handles to the same collection.
#[derive(Debug, Clone)]
pub struct Collector(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    /// All timestamps are nanoseconds since the collector was created.
    epoch: Instant,
    /// Next span id; 0 is reserved for "no span".
    next_span_id: AtomicU64,
    store: Mutex<Store>,
}

/// What a collector has recorded so far.
#[derive(Debug, Default)]
pub(crate) struct Store {
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) metrics: BTreeMap<String, Metric>,
    /// `(tid, name)` of every thread that recorded.
    threads: HashMap<ThreadId, (u64, String)>,
}

impl Store {
    /// The calling thread's tid (dense from 1, in first-record order).
    pub(crate) fn tid(&mut self) -> u64 {
        let (next, thread) = (self.threads.len() as u64 + 1, std::thread::current());
        let entry = self.threads.entry(thread.id()).or_insert_with(|| {
            let name = thread.name().map(str::to_owned);
            (next, name.unwrap_or_else(|| format!("thread-{next}")))
        });
        entry.0
    }
}

/// The collector entered on one thread, and that thread's open spans in
/// it, innermost last.
#[derive(Debug)]
pub(crate) struct Scope {
    pub(crate) collector: Collector,
    pub(crate) stack: Vec<u64>,
}

thread_local! {
    static CURRENT: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's scope; `None` when no collector is entered.
pub(crate) fn with_scope<R>(f: impl FnOnce(&mut Scope) -> R) -> Option<R> {
    CURRENT.with(|current| current.borrow_mut().as_mut().map(f))
}

/// Whether a collector is entered on this thread: one thread-local read.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

impl Default for Collector {
    /// An empty collection whose epoch is now.
    fn default() -> Self {
        Collector(Arc::new(Inner {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            store: Mutex::new(Store::default()),
        }))
    }
}

impl Collector {
    /// The collector entered on this thread, if any.
    pub fn current() -> Option<Collector> {
        with_scope(|scope| scope.collector.clone())
    }

    /// Make this collector current on this thread until the guard drops;
    /// the guard then restores whatever was current before.
    pub fn enter(&self) -> Entered {
        let scope = Scope {
            collector: self.clone(),
            stack: Vec::new(),
        };
        Entered {
            prev: CURRENT.with(|current| current.borrow_mut().replace(scope)),
            _thread_bound: PhantomData,
        }
    }

    /// Whether this collector is the one entered on this thread.
    pub(crate) fn is_current(&self) -> bool {
        with_scope(|scope| Arc::ptr_eq(&scope.collector.0, &self.0)).unwrap_or(false)
    }

    /// Everything recorded so far: completed spans ordered by
    /// `(start_ns, id)`, events by `(ts_ns, tid)`, and the threads that
    /// recorded them. Spans still open are not included.
    pub fn trace(&self) -> TraceData {
        let mut data = {
            let store = self.store();
            TraceData {
                spans: store.spans.clone(),
                events: store.events.clone(),
                threads: store.threads.values().cloned().collect(),
            }
        };
        data.spans.sort_by_key(|s| (s.start_ns, s.id));
        data.events.sort_by_key(|e| (e.ts_ns, e.tid));
        data.threads.sort_by_key(|&(tid, _)| tid);
        data
    }

    /// A copy of the metrics registry, sorted by metric name.
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        self.store().metrics.clone().into_iter().collect()
    }

    /// The counter `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.store().metrics.get(name) {
            Some(Metric::Counter(n)) => *n,
            _ => 0,
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.0.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn store(&self) -> MutexGuard<'_, Store> {
        self.0.store.lock().expect("collector store poisoned")
    }
}

/// Keeps a collector current on the thread that entered it; see
/// [`Collector::enter`].
#[derive(Debug)]
#[must_use = "the collector is current only until this guard drops"]
pub struct Entered {
    prev: Option<Scope>,
    /// Restoring `prev` is only meaningful on the entering thread.
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|current| *current.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_costs_nothing() {
        // No collector is entered on a test thread: a span guard is inert
        // (no id allocated) and nothing is current.
        assert!(!enabled());
        let g = span("noop");
        assert!(g.handle().is_none());
        assert!(Collector::current().is_none());
    }

    #[test]
    fn enter_is_scoped_and_nests() {
        let (outer, inner) = (Collector::default(), Collector::default());
        {
            let _o = outer.enter();
            assert!(enabled() && outer.is_current());
            {
                let _i = inner.enter();
                assert!(inner.is_current() && !outer.is_current());
                metrics::counter_add("n", 1);
            }
            assert!(outer.is_current());
            metrics::counter_add("n", 2);
        }
        assert!(!enabled());
        assert_eq!((outer.counter("n"), inner.counter("n")), (2, 1));
    }
}
