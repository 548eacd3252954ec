//! Aggregation of collected spans into per-name statistics for the human
//! `--profile` tables (rendered by `mwc-bench` via `mwc-report`).

use std::collections::HashMap;

use crate::trace::TraceData;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameStat {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: usize,
    /// Total wall time across those spans, nanoseconds.
    pub total_ns: u64,
    /// Self time: total minus time spent in direct child spans,
    /// nanoseconds (clamped at 0 per span, since parallel children can
    /// overlap their parent's wall time many times over).
    pub self_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Per-name aggregation over one [`TraceData`].
#[derive(Debug, Clone, Default)]
pub struct Summary {
    stats: Vec<NameStat>,
}

impl Summary {
    /// Aggregate the spans of `data` by name.
    pub fn from_trace(data: &TraceData) -> Self {
        // Sum each span's direct children for self-time.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &data.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.duration_ns();
            }
        }
        let mut by_name: HashMap<&str, NameStat> = HashMap::new();
        for s in &data.spans {
            let dur = s.duration_ns();
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let entry = by_name.entry(&s.name).or_insert_with(|| NameStat {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += own;
            entry.max_ns = entry.max_ns.max(dur);
        }
        let mut stats: Vec<NameStat> = by_name.into_values().collect();
        stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        Summary { stats }
    }

    /// All per-name statistics, descending by total time.
    pub fn stats(&self) -> &[NameStat] {
        &self.stats
    }

    /// The statistics for one span name.
    pub fn stat(&self, name: &str) -> Option<&NameStat> {
        self.stats.iter().find(|s| s.name == name)
    }
}

/// The top `k` individual spans named `name`, labelled by their `label_field`
/// field (falling back to the span name), descending by duration. Used for
/// "slowest units" style tables.
pub fn top_spans_by_field(
    data: &TraceData,
    name: &str,
    label_field: &str,
    k: usize,
) -> Vec<(String, u64)> {
    let mut spans: Vec<(String, u64)> = data
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let label = s
                .field(label_field)
                .map(|v| v.to_string())
                .unwrap_or_else(|| s.name.clone());
            (label, s.duration_ns())
        })
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    spans.truncate(k);
    spans
}

/// Format a nanosecond duration for humans (`950ns`, `3.20µs`, `14.5ms`,
/// `2.384s`).
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns_f / 1.0e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns_f / 1.0e6)
    } else {
        format!("{:.3}s", ns_f / 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, Value};

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            tid: 1,
            start_ns: start,
            end_ns: end,
            fields: Vec::new(),
        }
    }

    #[test]
    fn aggregates_and_self_time() {
        let mut parent = span(1, 0, "stage", 0, 1_000);
        parent.fields.push(("x".to_owned(), Value::UInt(1)));
        let data = TraceData {
            spans: vec![
                parent,
                span(2, 1, "task", 100, 400),
                span(3, 1, "task", 400, 900),
                span(4, 0, "stage", 2_000, 2_500),
            ],
            events: Vec::new(),
            threads: Vec::new(),
        };
        let s = Summary::from_trace(&data);
        let stage = s.stat("stage").expect("aggregated");
        assert_eq!(stage.count, 2);
        assert_eq!(stage.total_ns, 1_500);
        // First stage span: 1000 - (300 + 500) = 200 self; second: 500.
        assert_eq!(stage.self_ns, 700);
        assert_eq!(stage.max_ns, 1_000);
        let task = s.stat("task").expect("aggregated");
        assert_eq!(task.self_ns, task.total_ns);
        // stats() is ordered by total descending.
        assert_eq!(s.stats()[0].name, "stage");
    }

    #[test]
    fn overlapping_children_clamp_self_time_at_zero() {
        // Two parallel children each as long as the parent.
        let data = TraceData {
            spans: vec![
                span(1, 0, "fan", 0, 100),
                span(2, 1, "work", 0, 100),
                span(3, 1, "work", 0, 100),
            ],
            events: Vec::new(),
            threads: Vec::new(),
        };
        let s = Summary::from_trace(&data);
        assert_eq!(s.stat("fan").expect("aggregated").self_ns, 0);
    }

    #[test]
    fn top_spans_sorted_by_duration() {
        let mut a = span(1, 0, "unit", 0, 500);
        a.fields.push(("name".to_owned(), Value::Str("A".into())));
        let mut b = span(2, 0, "unit", 0, 900);
        b.fields.push(("name".to_owned(), Value::Str("B".into())));
        let data = TraceData {
            spans: vec![a, b, span(3, 0, "other", 0, 9_999)],
            events: Vec::new(),
            threads: Vec::new(),
        };
        let top = top_spans_by_field(&data, "unit", "name", 5);
        assert_eq!(top, vec![("B".to_owned(), 900), ("A".to_owned(), 500)]);
        assert_eq!(top_spans_by_field(&data, "unit", "name", 1).len(), 1);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(3_200), "3.20µs");
        assert_eq!(fmt_ns(14_500_000), "14.50ms");
        assert_eq!(fmt_ns(2_384_000_000), "2.384s");
    }
}
