//! Structured spans and events, recorded into the [`Collector`] entered on
//! the calling thread (into nothing when none is); [`Collector::trace`]
//! returns them as [`TraceData`].
//!
//! Parent links are implicit within a thread (a per-thread span stack) and
//! explicit across threads: a parent span hands its [`SpanHandle`], which
//! carries its collector, to the worker, and children opened there with
//! [`span_with_parent`] enter that collector for their lifetime. This is
//! how the `mwc-parallel` worker pool nests task spans under the fan-out
//! span of the calling thread, in the caller's collector.

use std::fmt;

use crate::{Collector, Entered};

/// A typed span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts, ids).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// Free-form text.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// An opaque reference to a live (or completed) span, usable as an
/// explicit parent across threads; it carries the span's collector. The
/// default handle, from a thread with no collector entered, is "none",
/// and children adopting it fall back to their thread's own stack.
#[derive(Debug, Clone, Default)]
pub struct SpanHandle {
    id: u64,
    collector: Option<Collector>,
}

impl SpanHandle {
    /// Whether this handle refers to an actual span.
    pub fn is_none(&self) -> bool {
        self.id == 0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within its collector, starting at 1.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (`<crate>.<noun>` by convention).
    pub name: String,
    /// Observability thread id (dense, assigned in first-record order).
    pub tid: u64,
    /// Start, nanoseconds since the collector was created.
    pub start_ns: u64,
    /// End, nanoseconds since the collector was created.
    pub end_ns: u64,
    /// Key/value fields attached via [`SpanGuard::field`].
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up a field value by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Enclosing span id at emission (0 = none).
    pub parent: u64,
    /// Observability thread id.
    pub tid: u64,
    /// Timestamp, nanoseconds since the collector was created.
    pub ts_ns: u64,
    /// Key/value fields.
    pub fields: Vec<(String, Value)>,
}

/// Everything a [`Collector`] recorded: completed spans, events, and the
/// threads that produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Completed spans, ordered by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Instant events, ordered by `(ts_ns, tid)`.
    pub events: Vec<EventRecord>,
    /// `(tid, thread name)` for every thread that recorded anything.
    pub threads: Vec<(u64, String)>,
}

impl TraceData {
    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// The first span with the given name, if any.
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }
}

/// The data of one span that is still open.
#[derive(Debug)]
struct OpenSpan {
    collector: Collector,
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    fields: Vec<(String, Value)>,
}

/// RAII guard for a span: records the span into its collector when
/// dropped. Inert (a no-op holding nothing) when no collector is entered.
#[derive(Debug)]
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
    /// Set when the span entered its parent's collector on a thread that
    /// was not in it; dropped after the span is recorded, it restores the
    /// thread's previous scope.
    _entered: Option<Entered>,
}

impl SpanGuard {
    /// A handle to this span for explicit cross-thread parenting (a none
    /// handle when nothing collects).
    pub fn handle(&self) -> SpanHandle {
        self.open
            .as_ref()
            .map_or_else(SpanHandle::default, |o| SpanHandle {
                id: o.id,
                collector: Some(o.collector.clone()),
            })
    }

    /// Attach a key/value field to the span.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(open) = &mut self.open {
            open.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Nanoseconds since the span opened (`None` when nothing collects).
    /// Lets callers feed a span's duration into a histogram metric without
    /// a second clock source.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.open
            .as_ref()
            .map(|o| o.collector.now_ns().saturating_sub(o.start_ns))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = open.collector.now_ns();
        crate::with_scope(|scope| {
            // Guards normally drop LIFO; tolerate out-of-order drops by
            // removing this id wherever it sits on the stack.
            if let Some(pos) = scope.stack.iter().rposition(|&id| id == open.id) {
                scope.stack.remove(pos);
            }
        });
        let mut store = open.collector.store();
        let tid = store.tid();
        store.spans.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid,
            start_ns: open.start_ns,
            end_ns,
            fields: open.fields,
        });
    }
}

fn open_span(name: &str, explicit_parent: Option<&SpanHandle>) -> SpanGuard {
    let entered = explicit_parent
        .and_then(|h| h.collector.as_ref())
        .filter(|c| !c.is_current())
        .map(Collector::enter);
    let open = crate::with_scope(|scope| {
        let collector = scope.collector.clone();
        let id = collector.next_span_id();
        let parent = match explicit_parent {
            Some(h) if !h.is_none() => h.id,
            _ => scope.stack.last().copied().unwrap_or(0),
        };
        scope.stack.push(id);
        OpenSpan {
            start_ns: collector.now_ns(),
            collector,
            id,
            parent,
            name: name.to_owned(),
            fields: Vec::new(),
        }
    });
    SpanGuard {
        open,
        _entered: entered,
    }
}

/// Open a span named `name`, parented under the innermost span currently
/// open on this thread (or a root span if none is).
pub fn span(name: &str) -> SpanGuard {
    open_span(name, None)
}

/// Open a span with an explicit parent — the cross-thread variant: the
/// parent span's owner passes its [`SpanHandle`] to the worker thread,
/// which records into the parent's collector while the span is open.
pub fn span_with_parent(name: &str, parent: &SpanHandle) -> SpanGuard {
    open_span(name, Some(parent))
}

/// Emit an instant event (no duration), parented under the innermost open
/// span on this thread.
pub fn event(name: &str) {
    event_with(name, Vec::new());
}

/// Emit an instant event with key/value fields.
pub fn event_with(name: &str, fields: Vec<(String, Value)>) {
    crate::with_scope(|scope| {
        let parent = scope.stack.last().copied().unwrap_or(0);
        let ts_ns = scope.collector.now_ns();
        let mut store = scope.collector.store();
        let tid = store.tid();
        store.events.push(EventRecord {
            name: name.to_owned(),
            parent,
            tid,
            ts_ns,
            fields,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` under a fresh collector and return what it recorded.
    fn traced(f: impl FnOnce()) -> TraceData {
        let collector = Collector::default();
        let entered = collector.enter();
        f();
        drop(entered);
        collector.trace()
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let data = traced(|| {
            let mut outer = span("outer");
            outer.field("k", 7u64);
            {
                let _inner = span("inner");
            }
        });
        let outer = data.span_named("outer").expect("outer recorded");
        let inner = data.span_named("inner").expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.field("k"), Some(&Value::UInt(7)));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.end_ns >= inner.end_ns);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let data = traced(|| {
            let parent = span("fanout");
            let handle = parent.handle();
            std::thread::scope(|scope| {
                for i in 0..3usize {
                    let handle = &handle;
                    scope.spawn(move || {
                        // The worker has no collector of its own: the
                        // handle's is entered for the span's lifetime.
                        let mut s = span_with_parent("task", handle);
                        s.field("index", i);
                        let _child = span("task.child");
                        event("task.event");
                    });
                }
            });
        });
        let fanout = data.span_named("fanout").expect("fanout recorded");
        let tasks = data.spans_named("task");
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            assert_eq!(t.parent, fanout.id);
            assert_ne!(t.tid, fanout.tid, "tasks ran on other threads");
        }
        for child in data.spans_named("task.child") {
            assert!(tasks.iter().any(|t| t.id == child.parent));
        }
        assert_eq!(data.events.len(), 3);
        assert_eq!(data.threads.len(), 4, "the caller and three workers");
    }

    #[test]
    fn events_attach_to_enclosing_span() {
        let data = traced(|| {
            let _s = span("holder");
            event("ping");
            event_with("pong", vec![("n".to_owned(), Value::Int(-2))]);
        });
        let holder = data.span_named("holder").expect("recorded");
        assert_eq!(data.events.len(), 2);
        for e in &data.events {
            assert_eq!(e.parent, holder.id);
        }
        assert_eq!(data.events[1].fields[0].1, Value::Int(-2));
    }

    #[test]
    fn nothing_entered_records_nothing() {
        let idle = Collector::default();
        let g = span("ghost");
        assert!(g.handle().is_none());
        event("ghost-event");
        drop(g);
        assert!(idle.trace().is_empty());
    }

    #[test]
    fn handle_none_parent_falls_back_to_stack() {
        let data = traced(|| {
            let _outer = span("outer2");
            let _child = span_with_parent("child2", &SpanHandle::default());
        });
        let outer = data.span_named("outer2").expect("recorded");
        let child = data.span_named("child2").expect("recorded");
        assert_eq!(child.parent, outer.id);
    }
}
