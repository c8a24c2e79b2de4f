//! The server proper: accept loop, fixed worker pool, request routing, streaming query
//! execution, and graceful shutdown.
//!
//! A `TcpListener` accept thread feeds connections into a bounded channel drained by a fixed
//! pool of worker threads (the same fixed-pool shape as the executor's morsel scheduler —
//! overload queues at the channel and sheds at the tenant gate instead of spawning unbounded
//! threads). Each worker owns a connection for its whole keep-alive lifetime; every `/query`
//! gets a fresh [`CancellationToken`] registered in a live table so shutdown can cancel all
//! in-flight work, a deadline mapped onto [`QueryOptions::timeout`], and — when streamed — a
//! `RowStreamSink` (`graphflow-exec`) adapter that writes rows straight into
//! HTTP chunked transfer encoding. A client that disconnects mid-stream turns the next socket
//! write into an error, which cancels the running query through its token: the executor
//! observes it at batch granularity and the query lands in `queries_cancelled`.

use crate::http::{read_request, write_response, ChunkedWriter, ReadOutcome, Request};
use crate::tenant::{tenant_from_headers, Admission, TenantConfig, TenantRegistry};
use graphflow_core::json::{quote, write_value, Json};
use graphflow_core::{
    render_histogram_header, render_histogram_series, CancellationToken, Error, GraphflowDB,
    QueryOptions,
};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the server listens, pools and polices requests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling connections (each owns one connection at a time).
    pub workers: usize,
    /// Per-tenant admission and quota policy.
    pub tenant: TenantConfig,
    /// Deadline applied to queries that do not send their own `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Expose the bounded slow-query log at `GET /slow_queries` (opt-in: the log carries
    /// query text).
    pub expose_slow_queries: bool,
    /// Accept `POST /shutdown` as a remote shutdown request (opt-in; meant for supervised
    /// deployments and CI smoke tests).
    pub allow_remote_shutdown: bool,
    /// Buffer size that triggers a chunk flush on streaming responses — the server's memory
    /// per streaming request is O(this), never O(result).
    pub stream_buffer: usize,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive_timeout: Duration,
    /// Socket write timeout; a client that stops reading for this long counts as gone and
    /// its query is cancelled.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            tenant: TenantConfig::default(),
            default_timeout: Some(Duration::from_secs(30)),
            expose_slow_queries: false,
            allow_remote_shutdown: false,
            stream_buffer: 32 * 1024,
            keep_alive_timeout: Duration::from_secs(15),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Read-interval at which idle workers re-check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(250);

/// State shared by the accept thread, every worker, and the [`Server`] handle.
struct ServerShared {
    db: GraphflowDB,
    config: ServerConfig,
    tenants: TenantRegistry,
    stopping: AtomicBool,
    /// In-flight query tokens, so shutdown can cancel all of them.
    active: parking_lot::Mutex<HashMap<u64, CancellationToken>>,
    next_query_id: AtomicU64,
    connections_total: AtomicU64,
    requests_total: AtomicU64,
    /// Raised by `POST /shutdown`; the CLI blocks on it.
    shutdown_requested: (std::sync::Mutex<bool>, std::sync::Condvar),
    /// The cap on a request's `threads`: the machine's available parallelism, read once at
    /// start (each read costs syscalls and cgroup file reads).
    max_threads: usize,
    stream_totals: StreamTotals,
}

/// What streamed responses have sent, summed over all of them. Bumped once per response,
/// when it ends, never per row.
#[derive(Default)]
struct StreamTotals {
    responses: AtomicU64,
    rows: AtomicU64,
    chunks: AtomicU64,
    /// Body bytes, chunk framing excluded.
    bytes: AtomicU64,
}

impl ServerShared {
    fn register_query(self: &Arc<Self>, token: CancellationToken) -> ActiveQuery {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(id, token);
        ActiveQuery {
            shared: self.clone(),
            id,
        }
    }
}

/// RAII entry in the in-flight table; dropping it deregisters the query.
struct ActiveQuery {
    shared: Arc<ServerShared>,
    id: u64,
}

impl Drop for ActiveQuery {
    fn drop(&mut self) {
        self.shared.active.lock().remove(&self.id);
    }
}

/// A running HTTP server over one [`GraphflowDB`] handle. Dropping it without calling
/// [`shutdown`](Server::shutdown) aborts the threads without flushing the WAL — call
/// `shutdown` for a clean stop.
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and worker pool, and start serving `db`.
    pub fn start(db: GraphflowDB, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(ServerShared {
            tenants: TenantRegistry::new(config.tenant.clone()),
            db,
            config,
            stopping: AtomicBool::new(false),
            active: parking_lot::Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            shutdown_requested: (std::sync::Mutex::new(false), std::sync::Condvar::new()),
            max_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            stream_totals: StreamTotals::default(),
        });
        // Bounded hand-off: when every worker is busy and the backlog fills, the accept
        // thread blocks and the kernel's listen queue absorbs the rest.
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 2);
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let rx = rx.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("gf-http-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn http worker"),
            );
        }
        let accept_thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gf-http-accept".to_string())
                .spawn(move || accept_loop(shared, listener, tx))
                .expect("spawn http acceptor")
        };
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database handle this server fronts.
    pub fn db(&self) -> &GraphflowDB {
        &self.shared.db
    }

    /// Block until a client asks for shutdown via `POST /shutdown` (requires
    /// [`allow_remote_shutdown`](ServerConfig::allow_remote_shutdown)); returns immediately
    /// if it was already requested.
    pub fn wait_for_shutdown_request(&self) {
        let (lock, cv) = &self.shared.shutdown_requested;
        let mut requested = lock.lock().expect("shutdown flag poisoned");
        while !*requested {
            requested = cv.wait(requested).expect("shutdown flag poisoned");
        }
    }

    /// Whether `POST /shutdown` has been received.
    pub fn shutdown_requested(&self) -> bool {
        *self.shared.shutdown_requested.0.lock().expect("flag")
    }

    /// Graceful stop: stop accepting, cancel every in-flight query through its token, let
    /// workers drain their connections, then fsync the WAL. Blocks until all threads joined.
    pub fn shutdown(mut self) -> Result<(), Error> {
        self.shared.stopping.store(true, Ordering::SeqCst);
        for (_, token) in self.shared.active.lock().iter() {
            token.cancel();
        }
        // The accept thread is parked in `accept()`; a throwaway self-connection wakes it so
        // it can observe the flag and exit (dropping the channel sender, which drains the
        // workers).
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.db.sync()
    }
}

fn accept_loop(shared: Arc<ServerShared>, listener: TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client); refuse politely.
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        503,
                        "application/json",
                        &[],
                        error_body("shutting_down", "server is shutting down").as_bytes(),
                        false,
                    );
                    return;
                }
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake): keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn worker_loop(shared: Arc<ServerShared>, rx: Arc<parking_lot::Mutex<Receiver<TcpStream>>>) {
    loop {
        // Take the lock only to receive; release before handling so other workers drain the
        // queue concurrently.
        let stream = {
            let guard = rx.lock();
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(&shared, stream),
            Err(_) => return, // channel closed: accept loop exited
        }
    }
}

fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let mut last_activity = Instant::now();
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader) {
            ReadOutcome::Request(req) => {
                last_activity = Instant::now();
                shared.requests_total.fetch_add(1, Ordering::Relaxed);
                let keep_alive = req.keep_alive() && !shared.stopping.load(Ordering::SeqCst);
                match route(shared, &req, &mut stream, keep_alive) {
                    Ok(true) if keep_alive => {}
                    _ => return,
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                if shared.stopping.load(Ordering::SeqCst)
                    || last_activity.elapsed() >= shared.config.keep_alive_timeout
                {
                    return;
                }
            }
            ReadOutcome::Malformed(e) => {
                let _ = write_response(
                    &mut stream,
                    e.status,
                    "application/json",
                    &[],
                    error_body("bad_request", &e.message).as_bytes(),
                    false,
                );
                return;
            }
            ReadOutcome::Io(_) => return,
        }
    }
}

/// Dispatch one request. `Ok(true)` means the connection can carry another request;
/// `Ok(false)` / `Err` close it.
fn route(
    shared: &Arc<ServerShared>,
    req: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> std::io::Result<bool> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"epoch\":{}}}",
                shared.db.snapshot().version()
            );
            write_response(
                stream,
                200,
                "application/json",
                &[],
                body.as_bytes(),
                keep_alive,
            )?;
            Ok(true)
        }
        ("GET", "/metrics") => {
            let body = render_metrics(shared);
            write_response(
                stream,
                200,
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
                keep_alive,
            )?;
            Ok(true)
        }
        ("GET", "/slow_queries") => {
            if !shared.config.expose_slow_queries {
                return respond_error(stream, 404, "not_found", "slow-query log not exposed");
            }
            let body = render_slow_queries(shared);
            write_response(
                stream,
                200,
                "application/json",
                &[],
                body.as_bytes(),
                keep_alive,
            )?;
            Ok(true)
        }
        ("POST", "/query") => handle_query(shared, req, stream, keep_alive),
        ("POST", "/txn") => handle_txn(shared, req, stream, keep_alive),
        ("POST", "/shutdown") => {
            if !shared.config.allow_remote_shutdown {
                return respond_error(stream, 404, "not_found", "remote shutdown not enabled");
            }
            let (lock, cv) = &shared.shutdown_requested;
            *lock.lock().expect("shutdown flag poisoned") = true;
            cv.notify_all();
            write_response(
                stream,
                200,
                "application/json",
                &[],
                b"{\"status\":\"shutting down\"}",
                false,
            )?;
            Ok(false)
        }
        (_, "/healthz" | "/metrics" | "/slow_queries" | "/query" | "/txn" | "/shutdown") => {
            respond_error(
                stream,
                405,
                "method_not_allowed",
                "wrong method for endpoint",
            )
        }
        _ => respond_error(stream, 404, "not_found", "unknown endpoint"),
    }
}

/// `{"error": {"code", "message", "chain": []}}` — the same shape [`Error::to_json`] emits,
/// for protocol-level errors that have no underlying [`Error`].
fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":{},\"message\":{},\"chain\":[]}}}}",
        quote(code),
        quote(message)
    )
}

fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> std::io::Result<bool> {
    write_response(
        stream,
        status,
        "application/json",
        &[],
        error_body(code, message).as_bytes(),
        false,
    )?;
    Ok(false)
}

/// HTTP status for a facade [`Error`].
fn error_status(e: &Error) -> u16 {
    match e {
        Error::Parse(_) | Error::NoPlan | Error::InvalidOptions(_) | Error::Property(_) => 400,
        Error::Timeout => 408,
        Error::Cancelled => 503,
        Error::Storage(_) => 500,
    }
}

/// Build [`QueryOptions`] from the request's `options` object: `threads`, `timeout_ms`,
/// `limit`, `adaptive`. Unknown members are ignored.
///
/// `threads` is a cap, clamped to `1..=` the machine's available parallelism: the executor
/// spawns one thread per worker, so an unbounded value would let one request exhaust the
/// process's threads or memory.
fn options_from_json(body: &Json, shared: &ServerShared) -> QueryOptions {
    let mut options = QueryOptions::new();
    if let Some(timeout) = shared.config.default_timeout {
        options = options.timeout(timeout);
    }
    if let Some(threads) = body.get("threads").and_then(Json::as_i64) {
        options = options.threads(threads.clamp(1, shared.max_threads as i64) as usize);
    }
    if let Some(ms) = body.get("timeout_ms").and_then(Json::as_i64) {
        if ms > 0 {
            options = options.timeout(Duration::from_millis(ms as u64));
        }
    }
    if let Some(limit) = body.get("limit").and_then(Json::as_i64) {
        if limit >= 0 {
            options = options.limit(limit as u64);
        }
    }
    if let Some(adaptive) = body.get("adaptive").and_then(|j| j.as_bool()) {
        options = options.adaptive(adaptive);
    }
    options
}

fn handle_query(
    shared: &Arc<ServerShared>,
    req: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(json) => json,
        Err(msg) => return respond_error(stream, 400, "invalid_json", &msg),
    };
    let Some(query) = body.get("query").and_then(Json::as_str) else {
        return respond_error(
            stream,
            400,
            "missing_query",
            "body must carry a \"query\" string",
        );
    };
    let tenant_name = tenant_from_headers(&req.headers).to_string();
    let guard = match shared.tenants.admit(&tenant_name) {
        Admission::Granted(guard) => guard,
        Admission::Rejected {
            reason,
            retry_after,
        } => {
            write_response(
                stream,
                429,
                "application/json",
                &[("Retry-After", retry_after.as_secs().max(1).to_string())],
                error_body(reason.code(), reason.message()).as_bytes(),
                keep_alive,
            )?;
            return Ok(true);
        }
    };
    let tenant = guard.tenant().clone();
    let token = CancellationToken::new();
    let _active = shared.register_query(token.clone());
    let options = options_from_json(&body, shared).cancel_token(token.clone());
    let stream_requested = body
        .get("stream")
        .and_then(|j| j.as_bool())
        .unwrap_or(false);
    let started = Instant::now();
    // Pin the epoch once: the header names the snapshot the run below executes against.
    let view = shared.db.snapshot();
    let epoch_header = [("X-Graphflow-Epoch", view.version().to_string())];

    // The streaming path: plain (non-EXPLAIN/PROFILE) queries whose RETURN clause can be
    // emitted row-by-row. Everything else — verbs, aggregates, ORDER BY, DISTINCT — takes
    // the materialising path below; those results are as small as their group count.
    if stream_requested {
        if let Ok(prepared) = shared.db.prepare(query) {
            if prepared.is_streamable_projection() {
                let outcome = stream_query(
                    shared,
                    stream,
                    &prepared,
                    &view,
                    options,
                    &token,
                    &epoch_header,
                    keep_alive,
                );
                // An Err means the head was never written; the connection is unusable.
                let (rows, connection_ok) = outcome.unwrap_or((0, false));
                tenant.add_rows(rows);
                tenant.latency.observe(started.elapsed());
                return Ok(connection_ok);
            }
        }
        // Fall through: let query_with produce the error (or the buffered result).
    }

    let result = shared.db.query_on(&view, query, options);
    tenant.latency.observe(started.elapsed());
    match result {
        Ok(rs) => {
            tenant.add_rows(rs.len() as u64);
            let body = rs.to_json();
            write_response(
                stream,
                200,
                "application/json",
                &epoch_header,
                body.as_bytes(),
                keep_alive,
            )?;
            Ok(true)
        }
        Err(e) => {
            let status = error_status(&e);
            write_response(
                stream,
                status,
                "application/json",
                &[],
                e.to_json().as_bytes(),
                keep_alive,
            )?;
            Ok(true)
        }
    }
}

/// Run a streamable query, writing rows into a chunked response as they arrive. Returns
/// `(rows delivered, connection still usable)`.
///
/// The response body is NDJSON: a `{"columns": [...], "epoch": n}` header line, one JSON
/// array per row, and a `{"row_count": n, "stats": {...}}` (or `{"error": ...}`) trailer
/// line. A mid-stream client disconnect (or a write stalled past the write timeout) cancels
/// the query through its token — the run then finishes as `Cancelled` and shows up in
/// `Metrics::queries_cancelled`. What was sent is added to the `/metrics` stream totals
/// once, when the response ends.
#[allow(clippy::too_many_arguments)]
fn stream_query(
    shared: &Arc<ServerShared>,
    stream: &mut TcpStream,
    prepared: &graphflow_core::PreparedQuery,
    view: &graphflow_graph::Snapshot,
    options: QueryOptions,
    token: &CancellationToken,
    epoch_header: &[(&str, String)],
    keep_alive: bool,
) -> std::io::Result<(u64, bool)> {
    // The column line leaves in the same write as the response head, so the client's first
    // wake-up finds body bytes to read.
    let mut header = String::from("{\"columns\":[");
    for (i, c) in prepared.return_columns().iter().enumerate() {
        if i > 0 {
            header.push(',');
        }
        header.push_str(&quote(c));
    }
    header.push_str(&format!("],\"epoch\":{}}}\n", view.version()));
    let mut writer = ChunkedWriter::start(
        stream,
        200,
        "application/x-ndjson",
        epoch_header,
        keep_alive,
        shared.config.stream_buffer,
        header.as_bytes(),
    )?;
    // From here on this worker is busy until the last row: where the client shares cores
    // with the server, the bytes just sent would wait in its socket until the worker's time
    // slice ends. Yield the slice once, now that the client has something to read.
    std::thread::yield_now();

    let mut rows = 0u64;
    let mut client_gone = false;
    let mut line = String::with_capacity(64);
    let result = prepared.stream_rows_on(view, options, |row| {
        if client_gone {
            // Keep "running" so the cancellation (already requested below) is what ends the
            // query — the executor then accounts it in queries_cancelled.
            return true;
        }
        line.clear();
        line.push('[');
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_value(&mut line, cell);
        }
        line.push_str("]\n");
        match writer.write(line.as_bytes()) {
            Ok(()) => {
                rows += 1;
                true
            }
            Err(_) => {
                // The peer hung up (or stalled past the write timeout): cancel the query so
                // the server stops paying for an answer nobody will read.
                client_gone = true;
                token.cancel();
                true
            }
        }
    });
    let finished = if client_gone {
        Ok(false)
    } else {
        let trailer = match &result {
            Ok(stats) => format!(
                "{{\"row_count\":{rows},\"stats\":{{\"icost\":{},\"intermediate_tuples\":{},\
                 \"elapsed_ns\":{}}}}}\n",
                stats.icost,
                stats.intermediate_tuples,
                stats.elapsed.as_nanos(),
            ),
            Err(e) => format!("{}\n", e.to_json()),
        };
        writer
            .write(trailer.as_bytes())
            .and_then(|()| writer.finish())
            .map(|()| true)
    };
    let totals = &shared.stream_totals;
    totals.responses.fetch_add(1, Ordering::Relaxed);
    totals.rows.fetch_add(rows, Ordering::Relaxed);
    totals
        .chunks
        .fetch_add(writer.chunks_written, Ordering::Relaxed);
    totals
        .bytes
        .fetch_add(writer.bytes_written, Ordering::Relaxed);
    Ok((rows, finished?))
}

fn handle_txn(
    shared: &Arc<ServerShared>,
    req: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(json) => json,
        Err(msg) => return respond_error(stream, 400, "invalid_json", &msg),
    };
    let Some(updates_json) = body.get("updates").and_then(Json::as_array) else {
        return respond_error(
            stream,
            400,
            "missing_updates",
            "body must carry an \"updates\" array",
        );
    };
    let mut updates = Vec::with_capacity(updates_json.len());
    for (i, u) in updates_json.iter().enumerate() {
        match crate::wire::parse_update(u) {
            Ok(update) => updates.push(update),
            Err(msg) => {
                return respond_error(
                    stream,
                    400,
                    "invalid_update",
                    &format!("updates[{i}]: {msg}"),
                );
            }
        }
    }
    let applied = shared.db.apply_batch(&updates);
    let epoch = shared.db.snapshot().version();
    let body = format!("{{\"applied\":{applied},\"epoch\":{epoch}}}");
    write_response(
        stream,
        200,
        "application/json",
        &[],
        body.as_bytes(),
        keep_alive,
    )?;
    Ok(true)
}

/// The `/metrics` payload: the database's own Prometheus exposition, followed by server
/// counters and the per-tenant series (admissions, rejections, rows, and a per-tenant
/// query-latency histogram labeled `tenant="..."`).
fn render_metrics(shared: &Arc<ServerShared>) -> String {
    let mut out = shared.db.metrics().render();
    let counter = |out: &mut String, name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        &mut out,
        "graphflow_server_connections_total",
        "TCP connections accepted.",
        shared.connections_total.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "graphflow_server_requests_total",
        "HTTP requests served.",
        shared.requests_total.load(Ordering::Relaxed),
    );
    out.push_str(&format!(
        "# HELP graphflow_server_active_queries Queries executing right now.\n\
         # TYPE graphflow_server_active_queries gauge\n\
         graphflow_server_active_queries {}\n",
        shared.active.lock().len()
    ));
    let streams = &shared.stream_totals;
    for (name, help, total) in [
        (
            "graphflow_stream_responses_total",
            "Streamed (NDJSON) query responses.",
            &streams.responses,
        ),
        (
            "graphflow_stream_rows_total",
            "Rows sent in streamed responses.",
            &streams.rows,
        ),
        (
            "graphflow_stream_chunks_total",
            "Transfer chunks sent in streamed responses.",
            &streams.chunks,
        ),
        (
            "graphflow_stream_bytes_total",
            "Body bytes sent in streamed responses, chunk framing excluded.",
            &streams.bytes,
        ),
    ] {
        counter(&mut out, name, help, total.load(Ordering::Relaxed));
    }
    let tenants = shared.tenants.all();
    if tenants.is_empty() {
        return out;
    }
    let labeled = |out: &mut String,
                   name: &str,
                   help: &str,
                   pick: &dyn Fn(&crate::tenant::TenantState) -> u64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for t in &tenants {
            out.push_str(&format!(
                "{name}{{tenant=\"{}\"}} {}\n",
                graphflow_core::json::escape(&t.name),
                pick(t)
            ));
        }
    };
    labeled(
        &mut out,
        "graphflow_tenant_queries_total",
        "Queries admitted per tenant.",
        &|t| t.queries_admitted.load(Ordering::Relaxed),
    );
    labeled(
        &mut out,
        "graphflow_tenant_rejected_total",
        "Requests rejected by admission control or quotas per tenant.",
        &|t| t.queries_rejected.load(Ordering::Relaxed),
    );
    labeled(
        &mut out,
        "graphflow_tenant_rows_total",
        "Result rows delivered per tenant.",
        &|t| t.rows_delivered.load(Ordering::Relaxed),
    );
    let name = "graphflow_tenant_query_latency_seconds";
    render_histogram_header(
        &mut out,
        name,
        "Wall-clock latency of finished queries, per tenant.",
    );
    for t in &tenants {
        let labels = format!("tenant=\"{}\"", graphflow_core::json::escape(&t.name));
        render_histogram_series(&mut out, name, &labels, &t.latency.snapshot());
    }
    out
}

/// The `/slow_queries` payload: the bounded ring of queries that ran past the configured
/// threshold, newest last.
fn render_slow_queries(shared: &Arc<ServerShared>) -> String {
    let entries = shared.db.slow_queries();
    let mut out = String::from("{\"slow_queries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"query\":{},\"latency_ms\":{},\"icost\":{},\"plan_id\":{}}}",
            quote(&e.query),
            graphflow_core::json::fmt_f64(e.latency.as_secs_f64() * 1000.0),
            e.icost,
            quote(&e.plan_id),
        ));
    }
    out.push_str("]}");
    out
}
