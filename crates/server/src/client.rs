//! A minimal blocking HTTP/1.1 client — just enough protocol for the integration tests, the
//! examples and the CLI smoke checks to talk to [`Server`](crate::Server) without external
//! tooling. One connection per [`request`]; [`open_stream`] keeps the connection and exposes
//! chunk boundaries so tests can assert a response really streamed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A fully-read HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunked transfer coding already removed).
    pub body: Vec<u8>,
    /// Number of transfer chunks the body arrived in (1 for `Content-Length` bodies).
    pub chunk_count: usize,
}

impl HttpResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send one request on a fresh connection (`Connection: close`) and read the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    send_request(&mut stream, method, path, headers, body, false)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let (body, chunk_count) = read_body(&mut reader, &headers)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
        chunk_count,
    })
}

/// A streaming response held open mid-body: chunks are pulled one at a time, and dropping
/// the handle mid-stream closes the TCP connection — exactly what the disconnect tests need.
pub struct StreamingResponse {
    reader: BufReader<TcpStream>,
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
}

impl StreamingResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The next transfer chunk's payload, or `None` after the terminator chunk.
    pub fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        read_chunk(&mut self.reader)
    }

    /// Drain the remaining chunks, returning `(total bytes, chunks read)`.
    pub fn drain(&mut self) -> std::io::Result<(usize, usize)> {
        let mut bytes = 0usize;
        let mut chunks = 0usize;
        while let Some(chunk) = self.next_chunk()? {
            bytes += chunk.len();
            chunks += 1;
        }
        Ok((bytes, chunks))
    }
}

/// Send one request and return after the response *head*: the body is consumed chunk by
/// chunk through the returned handle. Errors if the response is not chunked.
pub fn open_stream(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<StreamingResponse> {
    let mut stream = TcpStream::connect(addr)?;
    send_request(&mut stream, method, path, headers, body, false)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if !chunked {
        return Err(invalid_data("response is not chunked".to_string()));
    }
    Ok(StreamingResponse {
        reader,
        status,
        headers,
    })
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: graphflow\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid_data(format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn read_body(
    reader: &mut BufReader<TcpStream>,
    headers: &[(String, String)],
) -> std::io::Result<(Vec<u8>, usize)> {
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if chunked {
        let mut body = Vec::new();
        let mut chunks = 0usize;
        while let Some(chunk) = read_chunk(reader)? {
            body.extend_from_slice(&chunk);
            chunks += 1;
        }
        return Ok((body, chunks));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<u64>().ok());
    match content_length {
        Some(n) => Ok((read_exactly(reader, n)?, 1)),
        None => {
            // Connection: close delimits the body.
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            Ok((body, 1))
        }
    }
}

/// Read one transfer chunk; `None` on the zero-length terminator (trailing CRLF consumed).
fn read_chunk(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Vec<u8>>> {
    let mut size_line = String::new();
    reader
        .by_ref()
        .take(MAX_SIZE_LINE)
        .read_line(&mut size_line)?;
    let size = u64::from_str_radix(size_line.trim(), 16)
        .map_err(|_| invalid_data(format!("bad chunk size: {size_line:?}")))?;
    if size == 0 {
        let mut crlf = String::new();
        reader.by_ref().take(MAX_SIZE_LINE).read_line(&mut crlf)?;
        return Ok(None);
    }
    let chunk = read_exactly(reader, size)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(invalid_data(format!(
            "chunk of {size} bytes not followed by CRLF but {crlf:?}"
        )));
    }
    Ok(Some(chunk))
}

/// Longest chunk-size line read (a size in hex, extensions, CRLF); a longer one is an error.
const MAX_SIZE_LINE: u64 = 1024;

/// Exactly `n` bytes, in a buffer that grows only as they arrive: a length named by the peer
/// is never allocated up front, so a hostile one ends in `UnexpectedEof`, not an abort.
fn read_exactly(reader: &mut BufReader<TcpStream>, n: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader.by_ref().take(n).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("peer sent {} of {n} announced bytes", bytes.len()),
        ));
    }
    Ok(bytes)
}

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
