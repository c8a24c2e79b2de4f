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

/// Head-room kept at the front of a [`ChunkedWriter`]'s buffer for a chunk-size line: up to
/// 16 hex digits and its CRLF.
const SIZE_LINE_ROOM: usize = 18;

/// A chunked-transfer-encoding response body: bytes accumulate in a bounded buffer and are
/// flushed to `W` as one HTTP chunk whenever the buffer crosses its threshold — so a
/// hundred-million-row result streams through a fixed-size buffer instead of materialising.
///
/// Every chunk leaves in one `write_all`: the buffer keeps room for the size line in front of
/// the payload, the size line is written into it and the closing CRLF after the payload.
/// On a `TCP_NODELAY` socket each write is a segment and a wake-up of the client.
pub struct ChunkedWriter<W: Write> {
    stream: W,
    /// `SIZE_LINE_ROOM` bytes of head-room, then the payload not yet sent.
    buf: Vec<u8>,
    threshold: usize,
    /// Chunks written so far.
    pub chunks_written: u64,
    /// Payload bytes written so far (chunk framing excluded).
    pub bytes_written: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Write the response head (with `Transfer-Encoding: chunked`) together with `first`,
    /// the first body bytes, as one chunk in the same write, and return the body writer.
    /// `threshold` is the buffer size that triggers a chunk flush.
    pub fn start(
        mut stream: W,
        status: u16,
        content_type: &str,
        extra: &[(&str, String)],
        keep_alive: bool,
        threshold: usize,
        first: &[u8],
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
        let mut out = head.into_bytes();
        if !first.is_empty() {
            write!(out, "{:x}\r\n", first.len())?;
            out.extend_from_slice(first);
            out.extend_from_slice(b"\r\n");
        }
        stream.write_all(&out)?;
        let mut buf = Vec::with_capacity(SIZE_LINE_ROOM + threshold + 1024);
        buf.resize(SIZE_LINE_ROOM, 0);
        Ok(ChunkedWriter {
            stream,
            buf,
            threshold: threshold.max(1),
            chunks_written: u64::from(!first.is_empty()),
            bytes_written: first.len() as u64,
        })
    }

    /// Append body bytes, flushing a chunk when the buffer crosses the threshold.
    pub fn write(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(data);
        if self.buf.len() - SIZE_LINE_ROOM >= self.threshold {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Force the buffered bytes out as one chunk, in one write (no-op on an empty buffer).
    pub fn flush_chunk(&mut self) -> std::io::Result<()> {
        let len = self.buf.len() - SIZE_LINE_ROOM;
        if len == 0 {
            return Ok(());
        }
        let mut size_line = [0u8; SIZE_LINE_ROOM];
        let mut rest = &mut size_line[..];
        write!(rest, "{len:x}\r\n")?;
        // The size line fills the last `SIZE_LINE_ROOM - start` bytes of the head-room.
        let start = rest.len();
        self.buf[start..SIZE_LINE_ROOM].copy_from_slice(&size_line[..SIZE_LINE_ROOM - start]);
        self.buf.extend_from_slice(b"\r\n");
        let sent = self.stream.write_all(&self.buf[start..]);
        self.buf.truncate(SIZE_LINE_ROOM);
        sent?;
        self.chunks_written += 1;
        self.bytes_written += len as u64;
        Ok(())
    }

    /// Flush any remainder and write the zero-length terminator chunk. Nothing may be
    /// written after it.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.flush_chunk()?;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
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
                ChunkedWriter::start(&mut server_side, 200, "text/plain", &[], false, 4, b"")
                    .unwrap();
            w.write(b"abcdef").unwrap(); // crosses threshold: one chunk of 6
            w.write(b"xy").unwrap(); // flushed by finish
            w.finish().unwrap();
            (w.chunks_written, w.bytes_written)
        };
        drop(server_side);
        assert_eq!(chunks, (2, 8));
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Transfer-Encoding: chunked"));
        let body = raw.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(body, "6\r\nabcdef\r\n2\r\nxy\r\n0\r\n\r\n");
    }

    /// A writer that keeps every `write` call apart, so a test can see what left together.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.push(data.to_vec());
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The head and the first body bytes leave in one write; after that every chunk is one
    /// write of one size line, at most the threshold plus one row of payload, and its CRLF.
    #[test]
    fn the_head_carries_the_first_line_and_every_chunk_is_one_write() {
        const THRESHOLD: usize = 100;
        let first = b"{\"columns\":[\"a\",\"b\"],\"epoch\":3}\n";
        let rows: Vec<String> = (0..200).map(|i| format!("[{i},{}]\n", i * 37)).collect();
        let longest = rows.iter().map(String::len).max().unwrap();
        let mut writes = Writes::default();
        let extra = [("X-Graphflow-Epoch", "3".to_string())];
        let mut w = ChunkedWriter::start(
            &mut writes,
            200,
            "application/x-ndjson",
            &extra,
            true,
            THRESHOLD,
            first,
        )
        .unwrap();
        for row in &rows {
            w.write(row.as_bytes()).unwrap();
        }
        w.finish().unwrap();
        let (chunks, bytes) = (w.chunks_written, w.bytes_written);

        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\nX-Graphflow-Epoch: 3\r\n\
                    Connection: keep-alive\r\n\r\n";
        let mut expected_first = format!("{head}{:x}\r\n", first.len()).into_bytes();
        expected_first.extend_from_slice(first);
        expected_first.extend_from_slice(b"\r\n");
        assert_eq!(writes.0[0], expected_first);
        assert_eq!(writes.0.last().unwrap(), b"0\r\n\r\n");

        let mut body = first.to_vec();
        for write in &writes.0[1..writes.0.len() - 1] {
            let text = std::str::from_utf8(write).unwrap();
            let (size, rest) = text.split_once("\r\n").unwrap();
            let size = usize::from_str_radix(size, 16).unwrap();
            let payload = rest.strip_suffix("\r\n").expect("chunk ends in CRLF");
            assert_eq!(payload.len(), size, "size line names the payload");
            assert!(size <= THRESHOLD + longest, "a {size}-byte chunk");
            body.extend_from_slice(payload.as_bytes());
        }
        let expected: Vec<u8> = first
            .iter()
            .copied()
            .chain(rows.concat().into_bytes())
            .collect();
        assert_eq!(body, expected);
        assert_eq!(chunks, writes.0.len() as u64 - 1);
        assert_eq!(bytes, expected.len() as u64);
    }
}
