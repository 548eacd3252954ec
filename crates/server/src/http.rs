//! A hand-rolled HTTP/1.1 subset over `std::io`.
//!
//! Deliberately small: request/status line + headers + `Content-Length`
//! bodies, `Connection: close` on every exchange (one request per
//! connection keeps workers unpinnable by idle keep-alives). Every input
//! path is bounded — line length, header count, body size — so a
//! malicious or broken peer cannot make the server buffer without limit,
//! and socket timeouts surface as [`HttpError::Timeout`] instead of
//! wedging a worker.

use std::fmt;
use std::io::{self, BufRead};

/// Longest accepted request/status/header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted on one message.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes. Wire-format specs are a few
/// hundred bytes; a megabyte leaves two orders of magnitude of headroom.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why reading a message off the socket failed. Each variant maps to a
/// well-defined response (or to silence, for [`HttpError::Closed`]).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed syntax — answer 400.
    BadRequest(String),
    /// A line, header count or body over its limit — answer 413.
    TooLarge(String),
    /// The socket read timed out — answer 408.
    Timeout,
    /// Clean EOF before the first byte: the peer went away, answer
    /// nothing.
    Closed,
    /// Any other transport error; the connection is unusable.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "too large: {m}"),
            HttpError::Timeout => write!(f, "socket read timed out"),
            HttpError::Closed => write!(f, "peer closed the connection"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn map_io(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// One parsed request. Header names are lowercased at parse time.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (verbatim, case-sensitive per RFC 9110).
    pub method: String,
    /// Request target as sent, e.g. `/study/00ab12…`.
    pub target: String,
    /// `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one `\n`-terminated line, rejecting lines over `max` bytes
/// *while* reading — an unbounded line never accumulates in memory.
/// `at_start` distinguishes clean EOF (peer gone, [`HttpError::Closed`])
/// from EOF mid-line (truncated message, 400).
fn read_line_limited<R: BufRead>(
    r: &mut R,
    max: usize,
    at_start: bool,
) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(map_io)?;
        if buf.is_empty() {
            return if at_start && line.is_empty() {
                Err(HttpError::Closed)
            } else {
                Err(HttpError::BadRequest("unexpected eof mid-line".into()))
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    return Err(HttpError::TooLarge(format!("line exceeds {max} bytes")));
                }
                line.extend_from_slice(&buf[..pos]);
                r.consume(pos + 1);
                break;
            }
            None => {
                let n = buf.len();
                if line.len() + n > max {
                    return Err(HttpError::TooLarge(format!("line exceeds {max} bytes")));
                }
                line.extend_from_slice(buf);
                r.consume(n);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::BadRequest("line is not utf-8".into()))
}

/// Read `(name, value)` headers up to the blank line.
fn read_headers<R: BufRead>(r: &mut R) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r, MAX_LINE, false)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "invalid header name: {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
}

/// Read the body for a parsed header block: `Content-Length` bytes, or
/// nothing. `Transfer-Encoding` is out of scope and rejected loudly.
fn read_body<R: BufRead>(r: &mut R, headers: &[(String, String)]) -> Result<Vec<u8>, HttpError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send content-length".into(),
        ));
    }
    let len = match headers.iter().find(|(n, _)| n == "content-length") {
        None => return Ok(Vec::new()),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("invalid content-length: {v:?}")))?,
    };
    if len > MAX_BODY {
        return Err(HttpError::TooLarge(format!(
            "body of {len} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".into())
        } else {
            map_io(e)
        }
    })?;
    Ok(body)
}

/// Parse one request off the reader. The caller is responsible for
/// having set socket timeouts; a timeout mid-read surfaces as
/// [`HttpError::Timeout`].
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
    let line = read_line_limited(r, MAX_LINE, true)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line: {line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version: {version:?}"
        )));
    }
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body,
    })
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Length`,
    /// `Connection: close` and `Content-Type`.
    pub headers: Vec<(String, String)>,
    /// `text/plain` or `application/json` payload.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// An `application/json` response from an already-rendered body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "application/json",
        }
    }

    /// The typed error body every non-2xx answer uses:
    /// `{"error":{"kind":…,"message":…}}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                json_escape(kind),
                json_escape(message)
            ),
        )
    }

    /// Append a header.
    pub fn header(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.headers.push((name.to_owned(), value.to_string()));
        self
    }

    /// The whole response on the wire — head and body in one buffer, so
    /// it goes out in one write. `Connection: close` always.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Minimal JSON string escaping for error messages: quotes, backslash
/// and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /study HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/study");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let req = parse("GET /healthz HTTP/1.1\nhost: y\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_closed_not_bad_request() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("GET /x"), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_malformed_syntax() {
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn enforces_limits_while_reading() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(matches!(parse(&long_line), Err(HttpError::TooLarge(_))));

        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(&many), Err(HttpError::TooLarge(_))));

        let big_body = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&big_body), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_bad_request() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn response_serializes_with_framing_headers() {
        let out = Response::json(200, "{}").header("x-extra", 7).to_bytes();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("x-extra: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_bodies_escape_json() {
        let resp = Response::error(400, "wire", "bad \"value\"\nline");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\\\"value\\\""));
        assert!(body.contains("\\n"));
    }
}
