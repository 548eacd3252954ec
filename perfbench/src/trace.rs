//! The benchmark's own span recorder.
//!
//! Spans are taken from outside: the benchmark wraps its calls into each
//! crate's public functions, so tracing enables no collection inside the
//! program. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a layer boundary, attributed to one op.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub name: &'static str,
    pub op: u64,
    pub value: f64,
}

/// In-memory span and count store, shared by every thread of a run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span and count recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, Vec<Count>) {
        let spans = self.spans.lock().expect("span store poisoned").clone();
        let counts = self.counts.lock().expect("count store poisoned").clone();
        (spans, counts)
    }
}

/// Where the next span goes: which recorder (none when untraced), which
/// op, and which parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    rec: Option<&'a Recorder>,
    op: u64,
    parent: Option<u64>,
}

impl<'a> Ctx<'a> {
    /// A root context for op `op`; `rec` is `None` on untraced runs, where
    /// every method below is a plain pass-through.
    pub fn root(rec: Option<&'a Recorder>, op: u64) -> Self {
        Ctx {
            rec,
            op,
            parent: None,
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens hang off it.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let Some(rec) = self.rec else {
            return f(*self);
        };
        let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = rec.now_ns();
        let out = f(Ctx {
            parent: Some(id),
            ..*self
        });
        let end_ns = rec.now_ns();
        rec.spans.lock().expect("span store poisoned").push(Span {
            id,
            name,
            op: self.op,
            parent: self.parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a count against this op.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(rec) = self.rec {
            rec.counts
                .lock()
                .expect("count store poisoned")
                .push(Count {
                    name,
                    op: self.op,
                    value,
                });
        }
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
/// Overlapping children (two workers busy at once) count once.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// What one op's spans and counts add up to.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpSummary {
    /// Σ self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Σ duration per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Number of spans per name.
    pub spans: BTreeMap<&'static str, u64>,
    /// Σ counts per name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpSummary {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Group spans and counts by op.
pub fn summarize(spans: &[Span], counts: &[Count]) -> BTreeMap<u64, OpSummary> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u64, OpSummary> = BTreeMap::new();
    for s in spans {
        let op = ops.entry(s.op).or_default();
        *op.self_ns.entry(s.name).or_default() += selfs[&s.id];
        *op.total_ns.entry(s.name).or_default() += s.duration_ns();
        *op.spans.entry(s.name).or_default() += 1;
    }
    for c in counts {
        *ops.entry(c.op)
            .or_default()
            .counts
            .entry(c.name)
            .or_default() += c.value;
    }
    ops
}

/// Spans as JSON lines (name, start, end, parent, op), in start order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::with_capacity(sorted.len() * 96);
    for s in sorted {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.op, parent, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, "op", None, 0, 100),
            span(2, "a", Some(1), 10, 30),
            span(3, "b", Some(1), 40, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
    }

    #[test]
    fn overlapping_children_from_two_workers_count_once() {
        // A fan-out from 0 to 100 whose two workers run units 10..60 and
        // 20..90 at the same time: 80 ns are covered, not 50 + 70.
        let spans = [
            span(1, "fanout", None, 0, 100),
            span(2, "unit", Some(1), 10, 60),
            span(3, "unit", Some(1), 20, 90),
            span(4, "unit", Some(1), 60, 75),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 20);
        let summary = summarize(&spans, &[]);
        assert_eq!(summary[&0].self_ns["unit"], 50 + 70 + 15);
        assert_eq!(summary[&0].spans["unit"], 3);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child recorded on another thread may be stamped a hair
        // outside its parent; only the overlap is subtracted.
        let spans = [
            span(1, "op", None, 10, 50),
            span(2, "late", Some(1), 40, 60),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn recorder_nests_spans_and_counts_per_op() {
        let rec = Recorder::new();
        let ctx = Ctx::root(Some(&rec), 7);
        let v = ctx.span("op", |ctx| {
            ctx.count("ticks", 3.0);
            ctx.span("inner", |ctx| {
                ctx.count("ticks", 4.0);
                5
            })
        });
        assert_eq!(v, 5);
        let (spans, counts) = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(inner.parent, Some(op.id));
        assert!(op.start_ns <= inner.start_ns && inner.end_ns <= op.end_ns);
        let summary = summarize(&spans, &counts);
        assert_eq!(summary[&7].count("ticks"), 7.0);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }

    #[test]
    fn untraced_context_is_a_pass_through() {
        let ctx = Ctx::root(None, 1);
        assert_eq!(ctx.span("op", |ctx| ctx.span("x", |_| 3)), 3);
        ctx.count("ignored", 1.0);
    }
}
