//! The load generator: closed-loop query connections and one write connection.
//!
//! Callers of a graph database wait for each reply, so queries run **closed loop**: every
//! connection sends its next request when the previous one completed, and a slower server
//! simply receives less load. The writer of `mixed_ingest` is the exception: it is **open
//! loop** at a fixed rate, each transaction timed from when it was *due*, so a stall shows in
//! the latency of the transactions queued behind it. Nothing here formats or allocates per
//! request while the clock runs: requests are pre-rendered, response buffers are reused, and
//! answers are checked after the completion time is taken.

use crate::check::{number_after_last, scan_buffered, scan_stream, verify, Expect};
use crate::http::{Conn, Response};
use crate::workloads::{Batch, Req};
use std::time::{Duration, Instant};

/// One answered query. Times are microseconds.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub class: u16,
    /// First request byte sent until last response byte read.
    pub latency_us: f64,
    /// First request byte sent until first body byte available.
    pub ttfb_us: f64,
    /// The executor's own wall time, from the `stats` object of the response.
    pub exec_us: f64,
    pub rows: u64,
    pub bytes: u64,
    pub chunks: u32,
    /// Completion time, seconds after the loop was opened.
    pub done_s: f64,
}

/// One acknowledged transaction. Times are microseconds.
#[derive(Debug, Clone, Copy)]
pub struct TxnSample {
    /// Due time (open loop) or send time (closed loop) until the acknowledgement.
    pub latency_us: f64,
    /// Completion time, seconds after the loop was opened.
    pub done_s: f64,
}

/// What one connection did.
#[derive(Debug)]
pub struct ConnReport<S> {
    pub samples: Vec<S>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl<S> ConnReport<S> {
    fn new() -> Self {
        ConnReport {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// When a query connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// No new request after this instant.
    At(Instant),
    /// After this many requests.
    After(usize),
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Drive one connection closed loop over entries `offset, offset + stride, ...` of `reqs`
/// (wrapping), checking every answer against `expects`.
pub fn query_loop(
    conn: &mut Conn,
    reqs: &[Req],
    expects: &[Expect],
    (offset, stride): (usize, usize),
    opened: Instant,
    stop: Stop,
) -> ConnReport<QuerySample> {
    let mut report = ConnReport::new();
    let mut resp = Response::default();
    let mut last_epoch = 0u64;
    let mut index = offset % reqs.len();
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::After(n) if report.attempted as usize >= n => break,
            _ => {}
        }
        let req = &reqs[index];
        let expect = &expects[index];
        index = (index + stride) % reqs.len();
        report.attempted += 1;
        let sent = Instant::now();
        if let Err(e) = conn.roundtrip(&req.wire, &mut resp) {
            // The connection is unusable; the requests it would have carried stay unsent.
            report.fail(format!("{}: {e}", req.query));
            break;
        }
        let done = Instant::now();
        if resp.status != 200 {
            let body = String::from_utf8_lossy(&resp.body[..resp.body.len().min(200)]).into_owned();
            report.fail(format!("{}: status {} {body}", req.query, resp.status));
            if resp.close {
                break;
            }
            continue;
        }
        let scanned = if req.stream {
            scan_stream(&resp.body)
        } else {
            scan_buffered(&resp.body)
        };
        let epoch = resp.epoch.unwrap_or(0);
        let outcome = scanned.and_then(|s| {
            verify(expect, &s)?;
            if epoch < last_epoch {
                return Err(format!("epoch went back from {last_epoch} to {epoch}"));
            }
            Ok(s)
        });
        last_epoch = last_epoch.max(epoch);
        match outcome {
            Ok(s) => report.samples.push(QuerySample {
                class: req.class as u16,
                latency_us: micros(done - sent),
                ttfb_us: micros(resp.first_byte.unwrap_or(done) - sent),
                exec_us: s.exec_ns as f64 / 1e3,
                rows: s.row_count,
                bytes: resp.body.len() as u64,
                chunks: resp.chunks,
                done_s: (done - opened).as_secs_f64(),
            }),
            Err(e) => report.fail(format!("{}: {e}", req.query)),
        }
    }
    report
}

/// What the write connection did, beyond its samples.
#[derive(Debug)]
pub struct WriterReport {
    pub report: ConnReport<TxnSample>,
    /// Open loop only: the longest a transaction was sent after it was due.
    pub max_lateness_us: f64,
    /// Transactions the server acknowledged with the expected `applied`.
    pub acked: usize,
    /// Epoch of the last acknowledgement.
    pub last_epoch: u64,
}

/// Send `batches` in order over one connection: open loop at `rate` transactions per second
/// when given, closed loop otherwise. Each acknowledgement must carry the `applied` count the
/// oracle computed and an epoch above the previous one.
pub fn writer_loop(
    conn: &mut Conn,
    batches: &[Batch],
    applied: &[usize],
    rate: Option<f64>,
    opened: Instant,
) -> WriterReport {
    let mut out = WriterReport {
        report: ConnReport::new(),
        max_lateness_us: 0.0,
        acked: 0,
        last_epoch: 0,
    };
    let mut resp = Response::default();
    for (i, batch) in batches.iter().enumerate() {
        let from = match rate {
            Some(rate) => {
                let due = opened + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                out.max_lateness_us = out
                    .max_lateness_us
                    .max(micros(Instant::now().saturating_duration_since(due)));
                due
            }
            None => Instant::now(),
        };
        out.report.attempted += 1;
        if let Err(e) = conn.roundtrip(&batch.wire, &mut resp) {
            out.report.fail(format!("txn {i}: {e}"));
            break;
        }
        let done = Instant::now();
        let got_applied = number_after_last(&resp.body, "applied");
        let epoch = number_after_last(&resp.body, "epoch").unwrap_or(0);
        if resp.status != 200 {
            out.report.fail(format!("txn {i}: status {}", resp.status));
            if resp.close {
                break;
            }
        } else if got_applied != Some(applied[i] as u64) {
            out.report.fail(format!(
                "txn {i}: applied {got_applied:?}, expected {}",
                applied[i]
            ));
        } else if epoch < out.last_epoch || (applied[i] > 0 && epoch == out.last_epoch) {
            out.report
                .fail(format!("txn {i}: epoch {epoch} after {}", out.last_epoch));
        } else {
            out.acked += 1;
            out.report.samples.push(TxnSample {
                latency_us: micros(done - from),
                done_s: (done - opened).as_secs_f64(),
            });
        }
        out.last_epoch = out.last_epoch.max(epoch);
    }
    out
}

/// Send each request once, in order, and require a `200`; used for the untimed warm-up.
pub fn warm_up(conn: &mut Conn, reqs: &[Req]) -> Result<(), String> {
    let mut resp = Response::default();
    for req in reqs {
        conn.roundtrip(&req.wire, &mut resp)
            .map_err(|e| format!("warm-up {}: {e}", req.query))?;
        if resp.status != 200 {
            return Err(format!(
                "warm-up {}: status {} {}",
                req.query,
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
    }
    Ok(())
}

/// Run the query connections (and, for `mixed_ingest`, the writer beside them) over one
/// window that opens now. Returns one report per query connection and the writer's report.
pub fn run_window(
    query_conns: &mut [Conn],
    reqs: &[Req],
    expects: &[Expect],
    stop: Stop,
    writer: Option<(&mut Conn, &[Batch], &[usize], f64)>,
) -> (Vec<ConnReport<QuerySample>>, Option<WriterReport>, Instant) {
    let opened = Instant::now();
    let stride = query_conns.len();
    std::thread::scope(|scope| {
        let readers: Vec<_> = query_conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || query_loop(conn, reqs, expects, (i, stride), opened, stop))
            })
            .collect();
        let writer = writer.map(|(conn, batches, applied, rate)| {
            scope.spawn(move || writer_loop(conn, batches, applied, Some(rate), opened))
        });
        let reports = readers
            .into_iter()
            .map(|h| h.join().expect("query connection thread panicked"))
            .collect();
        let written = writer.map(|h| h.join().expect("writer thread panicked"));
        (reports, written, opened)
    })
}
