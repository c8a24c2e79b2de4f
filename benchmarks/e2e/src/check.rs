//! What a correct answer looks like, and how a response body is compared with it.
//!
//! Every result row — a member of `"rows"` in a buffered response, a line of an NDJSON
//! stream, or a row the oracle produced in process — is reduced to the FNV-1a hash of its
//! cells as text. Rows are summed for results whose order a plan may change, and chained for
//! `ORDER BY` results. The scanner reads the two response shapes the server emits without
//! building a JSON tree, so checking a 5 MB export costs the client a few milliseconds.

use graphflow_core::json::write_value;
use graphflow_core::Row;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Running digest over a sequence of rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    /// Order-insensitive: wrapping sum of the row hashes.
    pub sum: u64,
    /// Order-sensitive: each row hash chained onto the previous ones.
    pub chain: u64,
}

impl Digest {
    fn push(&mut self, row_text: &[u8]) {
        let h = fnv(row_text);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.chain = self.chain.wrapping_mul(FNV_PRIME).wrapping_add(h);
    }

    /// Add a row the oracle produced, rendered the way the wire renders it.
    pub fn push_row(&mut self, row: &Row, scratch: &mut String) {
        scratch.clear();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                scratch.push(',');
            }
            write_value(scratch, cell);
        }
        self.push(scratch.as_bytes());
    }
}

/// How much of a result can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Rows in any order (plain projections, un-ordered aggregates).
    Unordered,
    /// Rows in the given order (`ORDER BY`).
    Ordered,
    /// Only the number of rows: a `LIMIT` without `ORDER BY` lets each plan keep different
    /// rows, and a read that races the writer has no fixed answer.
    RowCount,
}

/// The expected answer of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub compare: Compare,
    pub digest: Digest,
}

/// What the scanner found in one response body.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scanned {
    pub digest: Digest,
    /// The `row_count` the server declared.
    pub row_count: u64,
    /// `stats.elapsed_ns`: the executor's own wall time.
    pub exec_ns: u64,
}

/// The unsigned integer following the last occurrence of `"key":` in `body`.
pub fn number_after_last(body: &[u8], key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let needle = needle.as_bytes();
    let start = body
        .windows(needle.len())
        .rposition(|w| w == needle)
        .map(|i| i + needle.len())?;
    let digits = body[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&body[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

/// Only the tail of a body is searched for the counters: they sit in the last ~200 bytes.
fn tail(body: &[u8]) -> &[u8] {
    &body[body.len().saturating_sub(512)..]
}

/// Scan a buffered `{"columns":[..],"rows":[[..],..],"row_count":n,"stats":{..}}` body.
pub fn scan_buffered(body: &[u8]) -> Result<Scanned, String> {
    let marker = b"\"rows\":[";
    let start = body
        .windows(marker.len())
        .position(|w| w == marker)
        .ok_or("response has no \"rows\" member")?
        + marker.len();
    let mut digest = Digest::default();
    let mut i = start;
    loop {
        match body.get(i) {
            Some(b']') => break,
            Some(b',') => i += 1,
            Some(b'[') => {
                let row_start = i + 1;
                let mut in_string = false;
                let mut j = row_start;
                loop {
                    match body.get(j) {
                        None => return Err("unterminated row".into()),
                        Some(b'\\') if in_string => j += 1,
                        Some(b'"') => in_string = !in_string,
                        Some(b']') if !in_string => break,
                        _ => {}
                    }
                    j += 1;
                }
                digest.push(&body[row_start..j]);
                i = j + 1;
            }
            other => return Err(format!("unexpected byte {other:?} in rows at {i}")),
        }
    }
    let tail = tail(body);
    Ok(Scanned {
        digest,
        row_count: number_after_last(tail, "row_count").ok_or("no row_count")?,
        exec_ns: number_after_last(tail, "elapsed_ns").ok_or("no elapsed_ns")?,
    })
}

/// Scan an NDJSON stream: a `{"columns":..}` header, one `[..]` line per row, and a
/// `{"row_count":..,"stats":{..}}` trailer (or an `{"error":..}` trailer, which fails).
pub fn scan_stream(body: &[u8]) -> Result<Scanned, String> {
    let mut digest = Digest::default();
    let mut trailer: &[u8] = b"";
    for line in body.split(|&b| b == b'\n') {
        match line.first() {
            Some(b'[') if line.last() == Some(&b']') => digest.push(&line[1..line.len() - 1]),
            Some(b'{') => trailer = line,
            None => {}
            _ => return Err("malformed stream line".into()),
        }
    }
    if trailer.windows(7).any(|w| w == b"\"error\"") {
        return Err(format!(
            "error trailer: {}",
            String::from_utf8_lossy(trailer)
        ));
    }
    Ok(Scanned {
        digest,
        row_count: number_after_last(trailer, "row_count").ok_or("stream has no trailer")?,
        exec_ns: number_after_last(trailer, "elapsed_ns").ok_or("no elapsed_ns")?,
    })
}

/// Compare a scanned response with the expected answer.
pub fn verify(expect: &Expect, got: &Scanned) -> Result<(), String> {
    let (want, have) = (&expect.digest, &got.digest);
    if got.row_count != have.rows {
        return Err(format!(
            "row_count says {} but {} rows arrived",
            got.row_count, have.rows
        ));
    }
    if have.rows != want.rows {
        return Err(format!("expected {} rows, got {}", want.rows, have.rows));
    }
    let same = match expect.compare {
        Compare::Unordered => have.sum == want.sum,
        Compare::Ordered => have.chain == want.chain,
        Compare::RowCount => true,
    };
    if same {
        Ok(())
    } else {
        Err("row contents differ from the oracle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::PropValue;

    fn digest_of(rows: &[Row]) -> Digest {
        let mut d = Digest::default();
        let mut s = String::new();
        for r in rows {
            d.push_row(r, &mut s);
        }
        d
    }

    fn int(n: i64) -> Option<PropValue> {
        Some(PropValue::Int(n))
    }

    #[test]
    fn buffered_and_streamed_bodies_digest_like_the_oracle() {
        let rows = vec![
            vec![int(1), Some(PropValue::Float(0.5))],
            vec![int(2), None],
        ];
        let want = digest_of(&rows);
        let buffered = br#"{"columns":["a","b.score"],"rows":[[1,0.5],[2,null]],"row_count":2,"stats":{"output_count":2,"icost":9,"intermediate_tuples":1,"elapsed_ns":1234}}"#;
        let got = scan_buffered(buffered).unwrap();
        assert_eq!(got.digest, want);
        assert_eq!((got.row_count, got.exec_ns), (2, 1234));
        let streamed = b"{\"columns\":[\"a\",\"b.score\"]}\n[1,0.5]\n[2,null]\n{\"row_count\":2,\"stats\":{\"icost\":9,\"intermediate_tuples\":1,\"elapsed_ns\":77}}\n";
        let got = scan_stream(streamed).unwrap();
        assert_eq!(got.digest, want);
        assert_eq!((got.row_count, got.exec_ns), (2, 77));
    }

    #[test]
    fn order_matters_only_where_it_should() {
        let a = digest_of(&[vec![int(1)], vec![int(2)]]);
        let b = digest_of(&[vec![int(2)], vec![int(1)]]);
        assert_eq!(a.sum, b.sum);
        assert_ne!(a.chain, b.chain);
        let got = Scanned {
            digest: b,
            row_count: 2,
            exec_ns: 0,
        };
        let expect = |compare| Expect { compare, digest: a };
        assert!(verify(&expect(Compare::Unordered), &got).is_ok());
        assert!(verify(&expect(Compare::RowCount), &got).is_ok());
        assert!(verify(&expect(Compare::Ordered), &got).is_err());
    }

    #[test]
    fn wrong_counts_and_wrong_rows_are_rejected() {
        let want = Expect {
            compare: Compare::Unordered,
            digest: digest_of(&[vec![int(7)]]),
        };
        let body =
            br#"{"columns":["COUNT(*)"],"rows":[[8]],"row_count":1,"stats":{"elapsed_ns":5}}"#;
        assert!(verify(&want, &scan_buffered(body).unwrap()).is_err());
        let body =
            br#"{"columns":["COUNT(*)"],"rows":[[7],[7]],"row_count":2,"stats":{"elapsed_ns":5}}"#;
        assert!(verify(&want, &scan_buffered(body).unwrap()).is_err());
        let body =
            br#"{"columns":["COUNT(*)"],"rows":[[7]],"row_count":3,"stats":{"elapsed_ns":5}}"#;
        assert!(verify(&want, &scan_buffered(body).unwrap()).is_err());
        let body =
            br#"{"columns":["COUNT(*)"],"rows":[[7]],"row_count":1,"stats":{"elapsed_ns":5}}"#;
        assert!(verify(&want, &scan_buffered(body).unwrap()).is_ok());
    }

    #[test]
    fn strings_with_brackets_and_error_trailers_are_handled() {
        let body = br#"{"columns":["n"],"rows":[["a]\"[b"],["c"]],"row_count":2,"stats":{"elapsed_ns":1}}"#;
        assert_eq!(scan_buffered(body).unwrap().digest.rows, 2);
        let err = b"{\"columns\":[\"a\"]}\n[1]\n{\"error\":{\"code\":\"timeout\"}}\n";
        assert!(scan_stream(err).is_err());
        assert!(scan_buffered(b"{\"error\":{}}").is_err());
    }
}
