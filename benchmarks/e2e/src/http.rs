//! A keep-alive HTTP/1.1 client for the load generator.
//!
//! `graphflow_server::client` opens one connection per request, so timing through it would
//! measure `connect()`. This client keeps one socket per load-generator connection, decodes
//! `Content-Length` and chunked bodies from its own buffer, and records what the metrics need:
//! when the first body byte arrived, how many transfer chunks the body came in, and the
//! `X-Graphflow-Epoch` header. The decoder is generic over [`Read`] so the unit tests can feed
//! it canned responses a few bytes at a time.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Response heads and chunk-size lines are tiny; anything longer is a protocol error.
const MAX_LINE: usize = 16 * 1024;
/// Largest body the client will buffer (the streamed exports are ~6 MB).
const MAX_BODY: usize = 256 * 1024 * 1024;

/// One decoded response. Reused across requests so the body buffer is allocated once.
#[derive(Debug, Default)]
pub struct Response {
    pub status: u16,
    /// Value of `X-Graphflow-Epoch`, when the server sent one.
    pub epoch: Option<u64>,
    /// The decoded body (transfer coding removed).
    pub body: Vec<u8>,
    /// Transfer chunks the body arrived in (1 for a `Content-Length` body).
    pub chunks: u32,
    /// When the first body byte was available to the client.
    pub first_byte: Option<Instant>,
    /// Whether the server asked to close the connection.
    pub close: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Buffered response decoder over any byte source.
pub struct ResponseReader<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl<R: Read> ResponseReader<R> {
    pub fn new(src: R) -> Self {
        ResponseReader {
            src,
            buf: vec![0; 64 * 1024],
            pos: 0,
            end: 0,
        }
    }

    /// Read more bytes into the buffer; `UnexpectedEof` when the peer closed.
    fn fill(&mut self) -> io::Result<()> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        let n = self.src.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// The next CRLF-terminated line without its terminator. A line may arrive split across
    /// any number of reads.
    fn line(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        loop {
            if let Some(i) = self.buf[self.pos..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                out.extend_from_slice(&self.buf[self.pos..self.pos + i]);
                self.pos += i + 1;
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            out.extend_from_slice(&self.buf[self.pos..self.end]);
            self.pos = self.end;
            if out.len() > MAX_LINE {
                return Err(bad("line too long"));
            }
            self.fill()?;
        }
    }

    /// Append exactly `n` body bytes to `resp.body`, stamping the first one.
    fn take(&mut self, mut n: usize, resp: &mut Response) -> io::Result<()> {
        while n > 0 {
            if self.pos == self.end {
                self.fill()?;
            }
            if resp.first_byte.is_none() {
                resp.first_byte = Some(Instant::now());
            }
            let k = n.min(self.end - self.pos);
            resp.body
                .extend_from_slice(&self.buf[self.pos..self.pos + k]);
            self.pos += k;
            n -= k;
        }
        Ok(())
    }

    /// Decode one full response into `resp`.
    pub fn read_response(&mut self, resp: &mut Response) -> io::Result<()> {
        resp.body.clear();
        resp.epoch = None;
        resp.chunks = 0;
        resp.first_byte = None;
        resp.close = false;
        let mut line = Vec::with_capacity(128);
        self.line(&mut line)?;
        let text = std::str::from_utf8(&line).map_err(|_| bad("status line is not UTF-8"))?;
        resp.status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {text:?}")))?;
        let mut content_length = None;
        let mut chunked = false;
        loop {
            self.line(&mut line)?;
            if line.is_empty() {
                break;
            }
            let text = std::str::from_utf8(&line).map_err(|_| bad("header is not UTF-8"))?;
            let Some((name, value)) = text.split_once(':') else {
                return Err(bad(format!("bad header {text:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value.parse().map_err(|_| bad("bad Content-Length"))?;
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("x-graphflow-epoch") {
                resp.epoch = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                resp.close = value.eq_ignore_ascii_case("close");
            }
        }
        if chunked {
            loop {
                self.line(&mut line)?;
                let text = std::str::from_utf8(&line).map_err(|_| bad("bad chunk header"))?;
                let size = text.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size, 16)
                    .map_err(|_| bad(format!("bad chunk size {text:?}")))?;
                if resp.body.len().saturating_add(size) > MAX_BODY {
                    return Err(bad("body too large"));
                }
                if size == 0 {
                    // No trailers are sent by this server; consume the final CRLF.
                    self.line(&mut line)?;
                    break;
                }
                self.take(size, resp)?;
                resp.chunks += 1;
                self.line(&mut line)?;
                if !line.is_empty() {
                    return Err(bad("chunk not followed by CRLF"));
                }
            }
        } else {
            let n = content_length.ok_or_else(|| bad("response has no body length"))?;
            if n > MAX_BODY {
                return Err(bad("body too large"));
            }
            self.take(n, resp)?;
            resp.chunks = 1;
        }
        Ok(())
    }
}

/// Render a complete keep-alive request (head and body) as one byte string, so the load
/// generator sends it with a single `write_all` and does no formatting while timing.
pub fn render_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: graphflow\r\n").into_bytes();
    if method == "POST" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection to the server.
pub struct Conn {
    write_half: TcpStream,
    reader: ResponseReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let write_half = stream.try_clone()?;
        Ok(Conn {
            write_half,
            reader: ResponseReader::new(stream),
        })
    }

    /// Send pre-rendered request bytes and decode the response.
    pub fn roundtrip(&mut self, request: &[u8], resp: &mut Response) -> io::Result<()> {
        self.write_half.write_all(request)?;
        self.reader.read_response(resp)
    }

    /// Convenience for the few untimed calls (`/metrics`, `/healthz`, `/shutdown`).
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut resp = Response::default();
        self.roundtrip(&render_request(method, path, body), &mut resp)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields its bytes in pieces of the given sizes (cycled), like a slow socket.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        turn: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = want.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn reader(data: &[u8], sizes: &[usize]) -> ResponseReader<Dribble> {
        ResponseReader::new(Dribble {
            data: data.to_vec(),
            pos: 0,
            sizes: sizes.to_vec(),
            turn: 0,
        })
    }

    const BUFFERED: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
        Content-Length: 11\r\nX-Graphflow-Epoch: 42\r\nConnection: keep-alive\r\n\r\n{\"rows\":[]}";
    const CHUNKED: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
        11\r\n{\"columns\":[\"a\"]}\r\n6\r\n[1]\n[2\r\n3\r\n]\n\n\r\n0\r\n\r\n";

    #[test]
    fn decodes_content_length_bodies_on_a_kept_alive_connection() {
        let mut two = BUFFERED.to_vec();
        two.extend_from_slice(BUFFERED);
        let mut r = reader(&two, &[4096]);
        let mut resp = Response::default();
        for _ in 0..2 {
            r.read_response(&mut resp).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.epoch, Some(42));
            assert_eq!(resp.body, b"{\"rows\":[]}");
            assert_eq!(resp.chunks, 1);
            assert!(resp.first_byte.is_some());
            assert!(!resp.close);
        }
    }

    #[test]
    fn decodes_chunked_bodies_and_counts_chunks() {
        let mut r = reader(CHUNKED, &[4096]);
        let mut resp = Response::default();
        r.read_response(&mut resp).unwrap();
        assert_eq!(resp.body, b"{\"columns\":[\"a\"]}[1]\n[2]\n\n");
        assert_eq!(resp.chunks, 3);
        assert_eq!(resp.epoch, None);
    }

    #[test]
    fn a_chunk_header_split_across_reads_decodes_the_same() {
        // Every split position of the stream, including inside "10\r\n" and the CRLFs.
        for sizes in [
            vec![1],
            vec![2],
            vec![3],
            vec![5, 1],
            vec![49, 1, 1, 1, 1, 7],
        ] {
            let mut r = reader(CHUNKED, &sizes);
            let mut resp = Response::default();
            r.read_response(&mut resp).unwrap();
            assert_eq!(resp.body, b"{\"columns\":[\"a\"]}[1]\n[2]\n\n", "{sizes:?}");
            assert_eq!(resp.chunks, 3, "{sizes:?}");
        }
    }

    #[test]
    fn error_statuses_and_connection_close_are_reported() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 1\r\n\
            Connection: close\r\n\r\n{}";
        let mut resp = Response::default();
        reader(raw, &[7]).read_response(&mut resp).unwrap();
        assert_eq!(resp.status, 429);
        assert!(resp.close);
    }

    #[test]
    fn truncated_and_malformed_responses_are_errors() {
        let mut resp = Response::default();
        let cut = &BUFFERED[..BUFFERED.len() - 3];
        assert!(reader(cut, &[4096]).read_response(&mut resp).is_err());
        let bad_chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(reader(bad_chunk, &[4096]).read_response(&mut resp).is_err());
        assert!(reader(b"garbage\r\n\r\n", &[4096])
            .read_response(&mut resp)
            .is_err());
    }

    #[test]
    fn requests_render_with_a_length_only_for_posts() {
        let post = render_request("POST", "/query", b"{}");
        assert_eq!(
            post,
            b"POST /query HTTP/1.1\r\nHost: graphflow\r\nContent-Length: 2\r\n\r\n{}"
        );
        let get = render_request("GET", "/healthz", b"");
        assert_eq!(get, b"GET /healthz HTTP/1.1\r\nHost: graphflow\r\n\r\n");
    }
}
