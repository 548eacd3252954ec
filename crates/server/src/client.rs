//! A minimal blocking HTTP/1.1 client for `wrkr` and the integration
//! tests: one request per connection, `Content-Length` bodies,
//! per-request timeout covering connect, write and read.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed before producing a status line.
#[derive(Debug)]
pub enum ClientError {
    /// Could not resolve or connect — the server may be down or shedding
    /// at the SYN level; retryable.
    Connect(io::Error),
    /// The connection broke mid-exchange (reset, EOF); retryable.
    Io(io::Error),
    /// The per-request timeout elapsed.
    Timeout,
    /// The peer spoke something that is not HTTP/1.x.
    Malformed(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "connection broke: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying the request could plausibly succeed (connection
    /// level failures and timeouts; malformed responses are not retried).
    pub fn retryable(&self) -> bool {
        !matches!(self, ClientError::Malformed(_))
    }
}

fn map_io(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
        _ => ClientError::Io(e),
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_line(r: &mut impl BufRead) -> Result<String, ClientError> {
    let mut line = String::new();
    let n = r.read_line(&mut line).map_err(map_io)?;
    if n == 0 {
        return Err(ClientError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed mid-response",
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Issue one request and read the full response. `timeout` bounds
/// connect and each socket read/write individually (a worst-case
/// exchange can take a few multiples of it; `wrkr` accounts wall-clock
/// separately).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(ClientError::Connect)?
        .collect();
    let target = resolved.first().ok_or_else(|| {
        ClientError::Connect(io::Error::new(io::ErrorKind::NotFound, "no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(target, timeout).map_err(ClientError::Connect)?;
    stream.set_read_timeout(Some(timeout)).map_err(map_io)?;
    stream.set_write_timeout(Some(timeout)).map_err(map_io)?;
    let _ = stream.set_nodelay(true);

    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");

    // One write: a server that answers without reading the request (a
    // shed) may reset the connection, and a second write would then fail
    // before the answer could be read.
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).map_err(map_io)?;

    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader)?;
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Malformed(format!("bad status line: {status_line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf).map_err(map_io)?;
            buf
        }
        None => {
            // Connection: close framing — read to EOF.
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf).map_err(map_io)?;
            buf
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn one_shot_server(reply: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test server");
        let addr = listener.local_addr().expect("local addr").to_string();
        thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut scratch = [0u8; 4096];
                let _ = stream.read(&mut scratch);
                let _ = stream.write_all(reply.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn parses_status_headers_and_body() {
        let addr = one_shot_server(
            "HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\ncontent-length: 4\r\n\r\nbusy",
        );
        let resp = request(&addr, "GET", "/x", &[], b"", Duration::from_secs(5)).expect("response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body_str(), "busy");
    }

    #[test]
    fn eof_framed_bodies_read_to_end() {
        let addr = one_shot_server("HTTP/1.1 200 OK\r\n\r\nhello");
        let resp = request(&addr, "GET", "/x", &[], b"", Duration::from_secs(5)).expect("response");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str(), "hello");
    }

    #[test]
    fn refused_connection_is_retryable_connect_error() {
        // Bind then drop to get a port that refuses.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let err = request(&addr, "GET", "/", &[], b"", Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)));
        assert!(err.retryable());
    }
}
