//! Exporters: Chrome `trace_event` JSON, a JSONL event log, and a reader
//! that parses the Chrome export back (zero-dependency, so the crate can
//! verify its own output and tests can assert on trace structure).

use std::fmt::Write as _;

use crate::metrics::Metric;
use crate::trace::{TraceData, Value};

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a JSON string literal: quoted, with `"` and `\` escaped by a
/// backslash, newline, CR and tab written as `\n`, `\r` and `\t`, and
/// other control characters as `\u00XX`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_json(s, &mut out);
    out.push('"');
    out
}

/// Render a finite-or-not f64 as JSON (JSON has no Infinity/NaN; encode
/// them as strings so the output stays parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        json_string(&v.to_string())
    }
}

pub(crate) fn json_value(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => json_f64(*f),
        Value::Str(s) => json_string(s),
    }
}

fn json_fields(fields: &[(String, Value)], out: &mut String) {
    for (k, v) in fields {
        let _ = write!(out, ",{}:{}", json_string(k), json_value(v));
    }
}

/// Render collected trace data as Chrome `trace_event` JSON — an object
/// with a `traceEvents` array of complete (`"ph":"X"`) span events,
/// instant (`"ph":"i"`) events and thread-name metadata, loadable in
/// `chrome://tracing` and Perfetto. Timestamps are microseconds since the
/// process trace epoch; span/parent ids ride along in `args` so tools (and
/// our own tests) can reconstruct the span tree exactly.
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    for (tid, name) in &data.threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json_string(name)
        );
    }
    for s in &data.spans {
        sep(&mut out);
        let ts = s.start_ns as f64 / 1000.0;
        let dur = s.duration_ns() as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"mwc\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"span\":{},\"parent\":{}",
            s.tid,
            json_string(&s.name),
            s.id,
            s.parent
        );
        json_fields(&s.fields, &mut out);
        out.push_str("}}");
    }
    for e in &data.events {
        sep(&mut out);
        let ts = e.ts_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"mwc\",\"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"parent\":{}",
            e.tid,
            json_string(&e.name),
            e.parent
        );
        json_fields(&e.fields, &mut out);
        out.push_str("}}");
    }
    out.push_str("\n]}");
    out
}

/// Render trace data plus a metrics snapshot as a JSONL event log: one
/// self-describing JSON object per line (`"type"`: `thread`, `span`,
/// `event`, `counter`, `gauge` or `histogram`).
pub fn jsonl(data: &TraceData, metrics: &[(String, Metric)]) -> String {
    let mut out = String::new();
    for (tid, name) in &data.threads {
        let _ = writeln!(
            out,
            "{{\"type\":\"thread\",\"tid\":{tid},\"name\":{}}}",
            json_string(name)
        );
    }
    for s in &data.spans {
        let _ = write!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"tid\":{},\"start_ns\":{},\"end_ns\":{},\"fields\":{{",
            s.id,
            s.parent,
            json_string(&s.name),
            s.tid,
            s.start_ns,
            s.end_ns
        );
        for (i, (k, v)) in s.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_value(v));
        }
        out.push_str("}}\n");
    }
    for e in &data.events {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"parent\":{},\"name\":{},\"tid\":{},\"ts_ns\":{},\"fields\":{{",
            e.parent,
            json_string(&e.name),
            e.tid,
            e.ts_ns
        );
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_value(v));
        }
        out.push_str("}}\n");
    }
    for (name, metric) in metrics {
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
                    json_string(name)
                );
            }
            Metric::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                    json_string(name),
                    json_f64(*v)
                );
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"buckets\":[",
                    json_string(name),
                    h.count(),
                    json_f64(h.sum())
                );
                for (i, count) in h.counts().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let le = h
                        .bounds()
                        .get(i)
                        .map(|&b| json_f64(b))
                        .unwrap_or_else(|| json_string("+inf"));
                    let _ = write!(out, "{{\"le\":{le},\"count\":{count}}}");
                }
                out.push_str("]}\n");
            }
        }
    }
    out
}

/// Sanitize a metric name for the exposition format: the registry's
/// `crate.noun` dots become underscores so the names are valid
/// Prometheus-style identifiers.
fn text_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a metrics snapshot in the Prometheus text exposition format:
/// one `# TYPE` line per metric, `_bucket{le="..."}` / `_sum` / `_count`
/// series for histograms. This is what `mwc-server`'s `GET /metrics`
/// serves; it is also self-describing enough to grep in shell gates
/// (`scripts/verify.sh` asserts `server_panics 0`).
pub fn metrics_text(metrics: &[(String, Metric)]) -> String {
    let mut out = String::new();
    for (name, metric) in metrics {
        let name = text_name(name);
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", text_f64(*v));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (i, count) in h.counts().iter().enumerate() {
                    cumulative += count;
                    let le = h
                        .bounds()
                        .get(i)
                        .map(|&b| text_f64(b))
                        .unwrap_or_else(|| "+Inf".to_owned());
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum {}", text_f64(h.sum()));
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Render an f64 for the text exposition format (`+Inf` / `-Inf` / `NaN`
/// spellings, plain decimal otherwise).
fn text_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// A parsed JSON value (the reader's own minimal document model).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A JSON parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.to_owned(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            offset: self.pos,
                            message: "invalid utf-8".to_owned(),
                        })?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(ParseError {
                offset: start,
                message: "bad number".to_owned(),
            })
    }
}

/// Parse an arbitrary JSON document (the exporter's own reader).
pub fn parse_json(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after document");
    }
    Ok(v)
}

/// One event read back from a Chrome trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event phase: `X` (complete span), `i` (instant), `M` (metadata).
    pub ph: String,
    /// Event name.
    pub name: String,
    /// Thread id.
    pub tid: u64,
    /// Timestamp in microseconds (0 for metadata events).
    pub ts: f64,
    /// Duration in microseconds (complete spans only).
    pub dur: Option<f64>,
    /// The `args` object members.
    pub args: Vec<(String, Json)>,
}

impl ChromeEvent {
    /// Span id carried in `args.span` (complete spans only).
    pub fn span_id(&self) -> Option<u64> {
        self.arg_u64("span")
    }

    /// Parent span id carried in `args.parent`; `None` for roots (the
    /// writer encodes "no parent" as 0).
    pub fn parent_id(&self) -> Option<u64> {
        self.arg_u64("parent").filter(|&p| p != 0)
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .map(|v| v as u64)
    }
}

/// Parse a Chrome trace produced by [`chrome_trace_json`] back into its
/// event list. Fails on malformed JSON or a missing `traceEvents` array.
pub fn parse_chrome_trace(s: &str) -> Result<Vec<ChromeEvent>, ParseError> {
    let doc = parse_json(s)?;
    let events = doc.get("traceEvents").ok_or_else(|| ParseError {
        offset: 0,
        message: "missing traceEvents".to_owned(),
    })?;
    let Json::Arr(items) = events else {
        return Err(ParseError {
            offset: 0,
            message: "traceEvents is not an array".to_owned(),
        });
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let get_str = |key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);
        let args = match item.get("args") {
            Some(Json::Obj(members)) => members.clone(),
            _ => Vec::new(),
        };
        out.push(ChromeEvent {
            ph: get_str("ph").unwrap_or_default(),
            name: get_str("name").unwrap_or_default(),
            tid: item
                .get("tid")
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .unwrap_or(0),
            ts: item.get("ts").and_then(Json::as_f64).unwrap_or(0.0),
            dur: item.get("dur").and_then(Json::as_f64),
            args,
        });
    }
    Ok(out)
}

/// Whether `path` asks for the JSONL format (extension `.jsonl`) rather
/// than Chrome trace JSON.
pub fn wants_jsonl(path: &std::path::Path) -> bool {
    path.extension().is_some_and(|e| e == "jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventRecord, SpanRecord};

    fn sample_data() -> TraceData {
        TraceData {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "pipeline.study".to_owned(),
                    tid: 1,
                    start_ns: 1_000,
                    end_ns: 901_000,
                    fields: vec![("units".to_owned(), Value::UInt(18))],
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "unit \"quoted\"\n".to_owned(),
                    tid: 2,
                    start_ns: 2_000,
                    end_ns: 500_000,
                    fields: vec![("score".to_owned(), Value::Float(0.5))],
                },
            ],
            events: vec![EventRecord {
                name: "capture.retry".to_owned(),
                parent: 2,
                tid: 2,
                ts_ns: 3_000,
                fields: vec![("attempt".to_owned(), Value::UInt(1))],
            }],
            threads: vec![(1, "main".to_owned()), (2, "worker-1".to_owned())],
        }
    }

    #[test]
    fn chrome_round_trip_preserves_structure() {
        let data = sample_data();
        let json = chrome_trace_json(&data);
        let events = parse_chrome_trace(&json).expect("own output parses");
        let spans: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "pipeline.study");
        assert_eq!(spans[0].span_id(), Some(1));
        assert_eq!(spans[1].parent_id(), Some(1));
        assert_eq!(spans[1].name, "unit \"quoted\"\n");
        assert!((spans[0].ts - 1.0).abs() < 1e-9);
        assert!((spans[0].dur.expect("complete span") - 900.0).abs() < 1e-9);
        let instants: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "i").collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].parent_id(), Some(2));
        let meta: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let metrics = vec![
            ("capture.retries".to_owned(), Metric::Counter(4)),
            ("pipeline.threads".to_owned(), Metric::Gauge(8.0)),
            ("pipeline.stage_ns".to_owned(), {
                let mut h = crate::metrics::Histogram::new(&[10.0, 100.0]);
                h.observe(5.0);
                h.observe(1e9);
                Metric::Histogram(h)
            }),
        ];
        let out = jsonl(&sample_data(), &metrics);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2 + 2 + 1 + 3);
        for line in &lines {
            let v = parse_json(line).expect("every JSONL line is a document");
            assert!(v.get("type").is_some(), "line has a type: {line}");
        }
        assert!(out.contains("\"type\":\"histogram\""));
        assert!(out.contains("\"le\":\"+inf\""));
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = parse_json(r#"{"aA":[1,-2.5e3,true,null,"x\ty"]}"#).expect("valid");
        let arr = v.get("aA").expect("unescaped key");
        assert_eq!(
            arr,
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("x\ty".to_owned()),
            ])
        );
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn non_finite_floats_stay_parseable() {
        let mut data = sample_data();
        data.spans[0]
            .fields
            .push(("bad".to_owned(), Value::Float(f64::NAN)));
        let json = chrome_trace_json(&data);
        parse_chrome_trace(&json).expect("NaN encodes as a string");
    }

    #[test]
    fn wants_jsonl_by_extension() {
        assert!(wants_jsonl(std::path::Path::new("/tmp/log.jsonl")));
        assert!(!wants_jsonl(std::path::Path::new("/tmp/trace.json")));
    }

    #[test]
    fn metrics_text_renders_all_kinds() {
        let mut h = crate::metrics::Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let metrics = vec![
            ("server.requests".to_owned(), Metric::Counter(7)),
            ("pipeline.threads".to_owned(), Metric::Gauge(4.0)),
            ("server.request_ns".to_owned(), Metric::Histogram(h)),
        ];
        let text = metrics_text(&metrics);
        assert!(text.contains("# TYPE server_requests counter"));
        assert!(text.contains("server_requests 7"));
        assert!(text.contains("pipeline_threads 4"));
        // Histogram buckets are cumulative and end with +Inf.
        assert!(text.contains("server_request_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("server_request_ns_bucket{le=\"10\"} 2"));
        assert!(text.contains("server_request_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("server_request_ns_sum 55.5"));
        assert!(text.contains("server_request_ns_count 3"));
    }

    #[test]
    fn metrics_text_of_empty_snapshot_is_empty() {
        assert!(metrics_text(&[]).is_empty());
    }
}
