//! Hand-rolled HTTP/1.1 over `std::net` — the workspace carries no network dependency, so
//! request parsing, response writing and chunked transfer encoding live here, implementing
//! exactly the protocol subset the wire API needs: request-line + headers, `Content-Length`
//! bodies, keep-alive connections, and chunked streaming responses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus all headers, to bound memory per connection.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (`413 Payload Too Large` beyond it).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after this exchange (the
    /// HTTP/1.1 default, unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A protocol-level failure while reading a request; [`status`](HttpError::status) is the
/// response code the connection handler should answer with before closing.
#[derive(Debug)]
pub struct HttpError {
    /// The HTTP status to answer with (400, 405, 413, ...).
    pub status: u16,
    /// Human-readable description, returned in the response body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// The outcome of trying to read one request off a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// Nothing arrived before the socket's read timeout; the caller decides whether to keep
    /// waiting (connection still healthy) or give up.
    TimedOut,
    /// The bytes on the wire were not valid HTTP; answer with
    /// [`status`](HttpError::status) and close.
    Malformed(HttpError),
    /// The socket failed mid-read; close without answering.
    Io(std::io::Error),
}

/// Read one request from a buffered keep-alive connection. Honours whatever read timeout is
/// set on the underlying socket (mapping `WouldBlock`/`TimedOut` to
/// [`ReadOutcome::TimedOut`]).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> ReadOutcome {
    let mut head_bytes = 0usize;
    let mut line = Vec::new();
    // Request line.
    let request_line = match head_line(reader, &mut line) {
        Ok(None) => return ReadOutcome::Closed,
        Ok(Some(text)) => text,
        // Idle keep-alive only when *nothing* arrived; a timeout after partial bytes is a
        // dead or stalled client (the partial line cannot be resumed).
        Err(ReadOutcome::Io(e)) if is_timeout(&e) && line.is_empty() => {
            return ReadOutcome::TimedOut;
        }
        Err(outcome) => return outcome,
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => {
            return ReadOutcome::Malformed(HttpError::new(400, "malformed request line"));
        }
    };
    if !version.starts_with("HTTP/") {
        return ReadOutcome::Malformed(HttpError::new(400, "malformed request line"));
    }
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Malformed(HttpError::new(505, "HTTP version not supported"));
    }
    // Headers.
    let mut headers = Vec::new();
    loop {
        let header = match head_line(reader, &mut line) {
            Ok(None) => return ReadOutcome::Malformed(HttpError::new(400, "truncated headers")),
            Ok(Some(text)) => text,
            // A timeout mid-request is a dead client, not an idle keep-alive: `Io`.
            Err(outcome) => return outcome,
        };
        if header.is_empty() {
            break;
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return ReadOutcome::Malformed(HttpError::new(431, "headers too large"));
        }
        match header.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => return ReadOutcome::Malformed(HttpError::new(400, "malformed header")),
        }
    }
    // Body (Content-Length only; this server never accepts chunked requests).
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>());
    let body = match content_length {
        None => Vec::new(),
        Some(Err(_)) => {
            return ReadOutcome::Malformed(HttpError::new(400, "invalid content-length"));
        }
        Some(Ok(n)) if n > MAX_BODY_BYTES => {
            return ReadOutcome::Malformed(HttpError::new(413, "request body too large"));
        }
        Some(Ok(n)) => {
            let mut body = vec![0u8; n];
            if let Err(e) = reader.read_exact(&mut body) {
                return ReadOutcome::Io(e);
            }
            body
        }
    };
    let path = match target.split_once('?') {
        Some((p, _)) => p.to_string(),
        None => target,
    };
    ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
    })
}

/// The next line of the request head as text, without its line ending; `None` at end of
/// stream. Never buffers more than [`MAX_HEAD_BYTES`] of a line, so a peer cannot feed an
/// unbounded one (431), and rejects bytes that are not UTF-8 (400) instead of guessing an
/// encoding for them. On `Err` the bytes that did arrive are left in `line`.
fn head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
) -> Result<Option<String>, ReadOutcome> {
    line.clear();
    let cap = MAX_HEAD_BYTES as u64 + 1;
    match reader.by_ref().take(cap).read_until(b'\n', line) {
        Ok(0) => return Ok(None),
        Ok(n) if n > MAX_HEAD_BYTES => {
            return Err(ReadOutcome::Malformed(HttpError::new(
                431,
                "headers too large",
            )));
        }
        Ok(_) => {}
        Err(e) => return Err(ReadOutcome::Io(e)),
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(std::mem::take(line))
        .map(Some)
        .map_err(|_| ReadOutcome::Malformed(HttpError::new(400, "request head is not UTF-8")))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response (status line, standard headers, `extra` headers,
/// `Content-Length` body) and flush it.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_text(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    // One write for head and body: on a `TCP_NODELAY` socket two writes are two segments and
    // two wake-ups of the client.
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// A chunked-transfer-encoding response body: bytes accumulate in a bounded buffer and are
/// flushed to the socket as one HTTP chunk whenever the buffer crosses its threshold — so a
/// hundred-million-row result streams through a fixed-size buffer instead of materialising.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    threshold: usize,
    /// Chunks written to the socket so far.
    pub chunks_written: u64,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head (with `Transfer-Encoding: chunked`) and return the body
    /// writer. `threshold` is the buffer size that triggers a chunk flush.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
        extra: &[(&str, String)],
        keep_alive: bool,
        threshold: usize,
    ) -> std::io::Result<Self> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n",
            status_text(status),
        );
        for (name, value) in extra {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter {
            stream,
            buf: Vec::with_capacity(threshold + 1024),
            threshold: threshold.max(1),
            chunks_written: 0,
        })
    }

    /// Append body bytes, flushing a chunk when the buffer crosses the threshold.
    pub fn write(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= self.threshold {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Force the buffered bytes out as one chunk (no-op on an empty buffer).
    pub fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", self.buf.len())?;
        self.stream.write_all(&self.buf)?;
        self.stream.write_all(b"\r\n")?;
        self.buf.clear();
        self.chunks_written += 1;
        Ok(())
    }

    /// Flush any remainder and write the zero-length terminator chunk.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.flush_chunk()?;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()?;
        Ok(self.chunks_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trip a raw request through a real socket pair into `read_request`.
    fn parse(raw: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        drop(client);
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(server_side);
        read_request(&mut reader)
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let out = parse(
            b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nX-Graphflow-Tenant: acme\r\n\
              Content-Length: 4\r\n\r\nbody",
        );
        let req = match out {
            ReadOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query", "query string stripped");
        assert_eq!(req.header("x-graphflow-tenant"), Some("acme"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        assert!(matches!(parse(b""), ReadOutcome::Closed));
    }

    #[test]
    fn garbage_is_malformed_not_fatal() {
        match parse(b"NOT A REQUEST\r\n\r\n") {
            ReadOutcome::Malformed(e) => assert_eq!(e.status, 400),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(raw.as_bytes()) {
            ReadOutcome::Malformed(e) => assert_eq!(e.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering_them() {
        let mut raw = b"GET /".to_vec();
        raw.resize(MAX_HEAD_BYTES + 100, b'a');
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        match parse(&raw) {
            ReadOutcome::Malformed(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
        // The cap is per line and on the whole head: many short headers hit the second.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEAD_BYTES / 16 + 1 {
            raw.extend_from_slice(format!("X-Pad-{i:06}: xxxx\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        match parse(&raw) {
            ReadOutcome::Malformed(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    /// A line that arrives in pieces (here: through a three-byte read buffer) is put together.
    #[test]
    fn lines_split_across_reads_are_reassembled() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .write_all(
                b"POST /txn HTTP/1.1\r\nX-Graphflow-Tenant: acme\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        drop(client);
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::with_capacity(3, server_side);
        let req = match read_request(&mut reader) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/txn"));
        assert_eq!(req.header("x-graphflow-tenant"), Some("acme"));
        assert_eq!(req.body, b"hello");
        assert!(matches!(read_request(&mut reader), ReadOutcome::Closed));
    }

    #[test]
    fn non_utf8_heads_are_rejected_not_reinterpreted() {
        for raw in [
            &b"GET /caf\xe9 HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-Graphflow-Tenant: caf\xe9\r\n\r\n"[..],
        ] {
            match parse(raw) {
                ReadOutcome::Malformed(e) => assert_eq!(e.status, 400),
                other => panic!("expected 400, got {other:?}"),
            }
        }
        // Valid UTF-8 beyond ASCII passes through unchanged.
        match parse("GET / HTTP/1.1\r\nX-Graphflow-Tenant: café\r\n\r\n".as_bytes()) {
            ReadOutcome::Request(r) => assert_eq!(r.header("x-graphflow-tenant"), Some("café")),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn fixed_length_responses_go_out_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let extra = [("X-Graphflow-Epoch", "7".to_string())];
        write_response(
            &mut server_side,
            200,
            "application/json",
            &extra,
            b"{}",
            true,
        )
        .unwrap();
        drop(server_side);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert_eq!(
            raw,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             X-Graphflow-Epoch: 7\r\nConnection: keep-alive\r\n\r\n{}"
        );
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let chunks = {
            let mut w =
                ChunkedWriter::start(&mut server_side, 200, "text/plain", &[], false, 4).unwrap();
            w.write(b"abcdef").unwrap(); // crosses threshold: one chunk of 6
            w.write(b"xy").unwrap(); // flushed by finish
            w.finish().unwrap()
        };
        drop(server_side);
        assert_eq!(chunks, 2);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Transfer-Encoding: chunked"));
        let body = raw.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(body, "6\r\nabcdef\r\n2\r\nxy\r\n0\r\n\r\n");
    }
}
