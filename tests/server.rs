//! End-to-end tests for the HTTP front-end: a real `Server` on an ephemeral port, exercised
//! through the minimal blocking client in `graphflow_server::client`.
//!
//! The invariants under test:
//!
//! * **Epoch atomicity over the wire** — concurrent HTTP readers racing an HTTP writer must
//!   only ever observe fully-published epochs (the PR 5 invariant, now across the network):
//!   each `/txn` batch atomically toggles the triangle count between two known values, so a
//!   reader seeing anything else caught a torn write.
//! * **Streaming, not materialising** — a >100k-row result arrives as many bounded transfer
//!   chunks, each no larger than the configured stream buffer (plus one row of slack).
//! * **Admission control** — quota exhaustion and queue overflow answer `429` with
//!   `Retry-After` and a structured error body.
//! * **Disconnect cancels** — dropping the connection mid-stream cancels the server-side
//!   query, visible in `Metrics::queries_cancelled`.
//! * **Graceful shutdown** — `shutdown()` with a query in flight cancels it, drains the
//!   workers, and leaves the database consistent.

use graphflow_rs::core::json::Json;
use graphflow_rs::graph::{EdgeLabel, GraphBuilder, PropValue};
use graphflow_rs::server::client::{open_stream, request};
use graphflow_rs::{GraphflowDB, QueryOptions, Server, ServerConfig, TenantConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRIANGLE: &str = "(a)->(b), (b)->(c), (a)->(c)";

fn start_server(db: GraphflowDB, config: ServerConfig) -> (Server, SocketAddr, GraphflowDB) {
    let handle = db.clone();
    let server = Server::start(db, config).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr, handle)
}

/// POST /query and return (status, body text).
fn post_query(addr: SocketAddr, body: &str, headers: &[(&str, &str)]) -> (u16, String) {
    let resp = request(addr, "POST", "/query", headers, body.as_bytes()).expect("http");
    (resp.status, resp.text())
}

/// Pull `"row_count":N` out of a /query response body.
fn row_count(body: &str) -> u64 {
    let json = graphflow_rs::core::json::Json::parse(body).expect("response is JSON");
    json.get("row_count")
        .and_then(|j| j.as_i64())
        .unwrap_or_else(|| panic!("no row_count in {body}")) as u64
}

/// A complete DAG on `n` vertices (`i -> j` for all `i < j`): the open-wedge query
/// `(a)->(b), (b)->(c)` has exactly `C(n, 3)` matches — an easy >100k-row result.
fn complete_dag(n: u32) -> GraphflowDB {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i, j);
        }
    }
    GraphflowDB::from_graph(b.build())
}

#[test]
fn healthz_query_and_structured_errors() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let (server, addr, _db) =
        start_server(GraphflowDB::from_graph(b.build()), ServerConfig::default());

    let health = request(addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    // A count over the wire matches the in-process engine, and carries the epoch header.
    let resp = request(
        addr,
        "POST",
        "/query",
        &[],
        format!("{{\"query\":\"{TRIANGLE} RETURN COUNT(*)\"}}").as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.text().contains("\"rows\":[[1]]"),
        "body: {}",
        resp.text()
    );
    assert_eq!(resp.header("x-graphflow-epoch"), Some("0"));

    // EXPLAIN routes through the same verb dispatch as the embedded API.
    let (status, body) = post_query(addr, &format!("{{\"query\":\"EXPLAIN {TRIANGLE}\"}}"), &[]);
    assert_eq!(status, 200);
    assert!(body.contains("plan class"), "EXPLAIN body: {body}");

    // Malformed pattern: 400 with a structured, actionable error chain.
    let (status, body) = post_query(addr, "{\"query\":\"(a-<\"}", &[]);
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"parse_error\""), "body: {body}");
    assert!(body.contains("\"chain\""), "body: {body}");

    // Malformed JSON body: 400 before the engine is ever involved.
    let (status, body) = post_query(addr, "{not json", &[]);
    assert_eq!(status, 400);
    assert!(body.contains("invalid_json"), "body: {body}");

    // Unknown path and wrong method.
    assert_eq!(request(addr, "GET", "/nope", &[], b"").unwrap().status, 404);
    assert_eq!(
        request(addr, "GET", "/query", &[], b"").unwrap().status,
        405
    );

    server.shutdown().unwrap();
}

/// A pattern with more vertices than a `VertexSet` holds is a parse error over the wire: every
/// worker answers it with a 400 and stays up to serve the next request.
#[test]
fn oversized_patterns_get_a_400_and_every_worker_survives() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (server, addr, _db) = start_server(GraphflowDB::from_graph(b.build()), config);
    let path: Vec<String> = (1..40).map(|i| format!("(v{i})->(v{})", i + 1)).collect();
    let oversized = format!("{{\"query\":\"{} RETURN COUNT(*)\"}}", path.join(", "));
    // More oversized requests than workers: a worker lost to one would starve the last.
    for _ in 0..4 {
        let (status, body) = post_query(addr, &oversized, &[]);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("at most 31 vertices"), "body: {body}");
    }
    let (status, body) = post_query(
        addr,
        &format!("{{\"query\":\"{TRIANGLE} RETURN COUNT(*)\"}}"),
        &[],
    );
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"rows\":[[1]]"), "body: {body}");
    server.shutdown().unwrap();
}

/// The PR 5 epoch invariant, over the wire: 7 HTTP readers race 1 HTTP writer whose `/txn`
/// batches atomically toggle the graph between 0 and 2 triangles. Every response must report
/// a count of 0 or 2 — a 1 means a reader pinned a half-applied batch.
#[test]
fn concurrent_clients_see_atomic_epochs() {
    let mut b = GraphBuilder::new();
    // Two open wedges; the toggled edges 0->2 and 3->5 close both triangles at once.
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(3, 4);
    b.add_edge(4, 5);
    let config = ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    };
    let (server, addr, _db) = start_server(GraphflowDB::from_graph(b.build()), config);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn({
        let stop = stop.clone();
        move || {
            let insert = "{\"updates\":[{\"op\":\"insert_edge\",\"src\":0,\"dst\":2},\
                          {\"op\":\"insert_edge\",\"src\":3,\"dst\":5}]}";
            let delete = "{\"updates\":[{\"op\":\"delete_edge\",\"src\":0,\"dst\":2},\
                          {\"op\":\"delete_edge\",\"src\":3,\"dst\":5}]}";
            let mut txns = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let body = if txns.is_multiple_of(2) {
                    insert
                } else {
                    delete
                };
                let resp = request(addr, "POST", "/txn", &[], body.as_bytes()).expect("txn");
                assert_eq!(resp.status, 200, "txn failed: {}", resp.text());
                assert!(resp.text().contains("\"applied\":2"));
                txns += 1;
            }
            // Leave the triangles closed so the final comparison below is deterministic:
            // the next toggle in sequence would be an insert iff `txns` is even.
            if txns.is_multiple_of(2) {
                request(addr, "POST", "/txn", &[], insert.as_bytes()).expect("txn");
            }
            txns
        }
    });

    let readers: Vec<_> = (0..7)
        .map(|r| {
            std::thread::spawn({
                let stop = stop.clone();
                move || {
                    let body = format!("{{\"query\":\"{TRIANGLE} RETURN COUNT(*)\"}}");
                    let tenant = format!("reader-{r}");
                    let mut last_epoch = 0u64;
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let resp = request(
                            addr,
                            "POST",
                            "/query",
                            &[("X-Graphflow-Tenant", tenant.as_str())],
                            body.as_bytes(),
                        )
                        .expect("query");
                        assert_eq!(resp.status, 200, "reader got: {}", resp.text());
                        let text = resp.text();
                        let count = text
                            .split("\"rows\":[[")
                            .nth(1)
                            .and_then(|t| t.split(']').next())
                            .and_then(|t| t.parse::<u64>().ok())
                            .unwrap_or_else(|| panic!("bad body: {text}"));
                        assert!(
                            count == 0 || count == 2,
                            "torn epoch over the wire: saw {count} triangles"
                        );
                        let epoch: u64 = resp
                            .header("x-graphflow-epoch")
                            .and_then(|e| e.parse().ok())
                            .expect("epoch header");
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                        seen += 1;
                    }
                    seen
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(1200));
    stop.store(true, Ordering::Relaxed);
    let txns = writer.join().unwrap();
    let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(txns > 4, "writer barely ran ({txns} txns)");
    assert!(reads > 20, "readers barely ran ({reads} reads)");

    // Quiesced: the wire answer equals the in-process engine's answer.
    let (status, body) = post_query(
        addr,
        &format!("{{\"query\":\"{TRIANGLE} RETURN COUNT(*)\"}}"),
        &[],
    );
    assert_eq!(status, 200);
    let wire = row_count(&body);
    assert_eq!(wire, 1, "one row for a COUNT(*)");
    assert!(body.contains("\"rows\":[[2]]"), "final graph: {body}");
    assert_eq!(server.db().count(TRIANGLE).unwrap(), 2);

    server.shutdown().unwrap();
}

/// `X-Graphflow-Epoch` (and the NDJSON head line's `"epoch"`) name the snapshot the rows came
/// from, not merely one that existed when the request arrived. A writer appends one edge of
/// label 1 per `/txn`, so epoch `e` holds exactly `e` such edges; readers racing it must see
/// `COUNT(*) == epoch` on every buffered response and `row_count == epoch` on every stream.
#[test]
fn epoch_header_names_the_snapshot_the_query_ran_on() {
    let config = ServerConfig {
        workers: 6,
        ..ServerConfig::default()
    };
    let (server, addr, _db) = start_server(complete_dag(40), config);
    const TXNS: u32 = 400;

    let stop = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn({
        let stop = stop.clone();
        move || {
            for i in 0..TXNS {
                // Distinct ordered pairs over the 40 existing vertices.
                let (src, dst) = (i / 39, (i / 39 + 1 + i % 39) % 40);
                let body = format!(
                    "{{\"updates\":[{{\"op\":\"insert_edge\",\"src\":{src},\"dst\":{dst},\"label\":1}}]}}"
                );
                let resp = request(addr, "POST", "/txn", &[], body.as_bytes()).expect("txn");
                assert_eq!(resp.status, 200, "txn failed: {}", resp.text());
                assert!(resp.text().contains("\"applied\":1"), "{}", resp.text());
            }
            stop.store(true, Ordering::Relaxed);
        }
    });

    let buffered: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn({
                let stop = stop.clone();
                move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let resp = request(
                            addr,
                            "POST",
                            "/query",
                            &[],
                            b"{\"query\":\"(a)-[:1]->(b) RETURN COUNT(*)\"}",
                        )
                        .expect("query");
                        assert_eq!(resp.status, 200, "reader got: {}", resp.text());
                        let epoch = resp.header("x-graphflow-epoch").expect("epoch header");
                        assert!(
                            resp.text().contains(&format!("\"rows\":[[{epoch}]]")),
                            "epoch {epoch} does not hold what was counted: {}",
                            resp.text()
                        );
                        seen += 1;
                    }
                    seen
                }
            })
        })
        .collect();
    let streamed = std::thread::spawn({
        let stop = stop.clone();
        move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = request(
                    addr,
                    "POST",
                    "/query",
                    &[],
                    b"{\"query\":\"(a)-[:1]->(b) RETURN a, b\",\"stream\":true}",
                )
                .expect("stream");
                assert_eq!(resp.status, 200);
                let epoch = resp.header("x-graphflow-epoch").expect("epoch header");
                let text = resp.text();
                let head = text.lines().next().unwrap_or_default();
                assert!(
                    head.ends_with(&format!("\"epoch\":{epoch}}}")),
                    "head line {head} disagrees with header epoch {epoch}"
                );
                assert!(
                    text.contains(&format!("\"row_count\":{epoch},")),
                    "epoch {epoch} does not hold the streamed rows: {}",
                    text.lines().last().unwrap_or_default()
                );
                seen += 1;
            }
            seen
        }
    });

    writer.join().unwrap();
    let reads: u64 = buffered.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(reads > 20, "buffered readers barely ran ({reads} reads)");
    assert!(
        streamed.join().unwrap() > 5,
        "the streaming reader barely ran"
    );
    assert_eq!(server.db().count("(a)-[:1]->(b)").unwrap(), u64::from(TXNS));

    server.shutdown().unwrap();
}

/// A 161,700-row projection streams through bounded chunks: memory per request is
/// O(stream_buffer), never O(result). The chunk sizes prove no materialisation happened.
#[test]
fn large_results_stream_in_bounded_chunks() {
    let stream_buffer = 16 * 1024;
    let config = ServerConfig {
        stream_buffer,
        ..ServerConfig::default()
    };
    // C(100, 3) = 161,700 open wedges.
    let (server, addr, _db) = start_server(complete_dag(100), config);

    let mut resp = open_stream(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"stream\":true}",
    )
    .expect("open stream");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));

    let mut bytes = 0usize;
    let mut chunks = 0usize;
    let mut max_chunk = 0usize;
    let mut tail = String::new();
    while let Some(chunk) = resp.next_chunk().expect("chunk") {
        bytes += chunk.len();
        chunks += 1;
        max_chunk = max_chunk.max(chunk.len());
        tail = String::from_utf8_lossy(&chunk).into_owned();
    }
    // Every chunk is bounded by the flush threshold plus at most one encoded row.
    assert!(
        max_chunk <= stream_buffer + 64,
        "chunk of {max_chunk} bytes escaped the {stream_buffer}-byte buffer"
    );
    assert!(chunks > 50, "{bytes} bytes arrived in only {chunks} chunks");
    assert!(
        tail.contains("\"row_count\":161700"),
        "stream trailer: {tail}"
    );

    server.shutdown().unwrap();
}

#[test]
fn quota_exhaustion_answers_429_with_retry_after() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    let config = ServerConfig {
        tenant: TenantConfig {
            query_quota: Some(2),
            ..TenantConfig::default()
        },
        ..ServerConfig::default()
    };
    let (server, addr, _db) = start_server(GraphflowDB::from_graph(b.build()), config);

    let body = "{\"query\":\"(a)->(b) RETURN COUNT(*)\"}";
    let tenant = [("Authorization", "Bearer capped")];
    for _ in 0..2 {
        let (status, _) = post_query(addr, body, &tenant);
        assert_eq!(status, 200);
    }
    let resp = request(addr, "POST", "/query", &tenant, body.as_bytes()).unwrap();
    assert_eq!(resp.status, 429, "third query must hit the quota");
    assert!(
        resp.header("retry-after").is_some(),
        "429 without Retry-After"
    );
    assert!(
        resp.text().contains("query_quota_exhausted"),
        "body: {}",
        resp.text()
    );

    // Other tenants are unaffected: quotas are per-session, not global.
    let (status, _) = post_query(addr, body, &[("Authorization", "Bearer other")]);
    assert_eq!(status, 200);

    // Per-tenant rejection counters surface on /metrics with tenant labels.
    let metrics = request(addr, "GET", "/metrics", &[], b"").unwrap().text();
    assert!(
        metrics.contains("graphflow_tenant_rejected_total{tenant=\"capped\"} 1"),
        "metrics: {}",
        metrics
            .lines()
            .filter(|l| l.contains("tenant"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    server.shutdown().unwrap();
}

#[test]
fn queue_overflow_answers_429() {
    // One slot, no queue, and an admission timeout too short to matter: the second
    // concurrent query must bounce.
    let config = ServerConfig {
        tenant: TenantConfig {
            max_inflight: 1,
            queue_cap: 0,
            admission_timeout: Duration::from_millis(50),
            ..TenantConfig::default()
        },
        ..ServerConfig::default()
    };
    let (server, addr, _db) = start_server(complete_dag(80), config);

    // Occupy the only slot with a slow streaming query read one chunk at a time.
    let mut hog = open_stream(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"stream\":true}",
    )
    .expect("open stream");
    assert_eq!(hog.status, 200);
    let _ = hog.next_chunk().expect("first chunk");

    // While it streams, a second query from the same (default) tenant is rejected.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut status = 0;
    while Instant::now() < deadline {
        let (s, _) = post_query(addr, "{\"query\":\"(a)->(b) RETURN COUNT(*)\"}", &[]);
        status = s;
        if s == 429 {
            break;
        }
    }
    assert_eq!(status, 429, "queue overflow never produced a 429");

    let (bytes, _) = hog.drain().expect("drain");
    assert!(bytes > 0);
    server.shutdown().unwrap();
}

/// Dropping the connection mid-stream cancels the server-side query: the cancellation is
/// *counted* (`queries_cancelled`), not just silently stopped.
#[test]
fn client_disconnect_cancels_the_query() {
    let config = ServerConfig {
        stream_buffer: 4 * 1024,
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    // C(150, 3) = 551,300 rows — far more than the client will read.
    let (server, addr, db) = start_server(complete_dag(150), config);
    let cancelled_before = db.metrics().queries_cancelled;

    let mut resp = open_stream(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"stream\":true}",
    )
    .expect("open stream");
    assert_eq!(resp.status, 200);
    let _ = resp.next_chunk().expect("first chunk");
    // Hang up mid-body: the server's next writes hit a closed socket.
    drop(resp);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if db.metrics().queries_cancelled > cancelled_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the query: {:?}",
            db.metrics()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The server itself stays healthy for the next client.
    let (status, _) = post_query(addr, "{\"query\":\"(a)->(b) RETURN COUNT(*)\"}", &[]);
    assert_eq!(status, 200);

    server.shutdown().unwrap();
}

/// Graceful shutdown with a query in flight: the in-flight stream is cancelled via its
/// token, workers drain, and the database handle stays usable afterwards.
#[test]
fn graceful_shutdown_cancels_inflight_queries() {
    let config = ServerConfig {
        stream_buffer: 4 * 1024,
        ..ServerConfig::default()
    };
    let (server, addr, db) = start_server(complete_dag(150), config);
    let cancelled_before = db.metrics().queries_cancelled;

    // Park a client mid-stream (it reads one chunk then sleeps) so a query is running when
    // shutdown begins.
    let client = std::thread::spawn(move || {
        let mut resp = open_stream(
            addr,
            "POST",
            "/query",
            &[],
            b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"stream\":true}",
        )
        .expect("open stream");
        let _ = resp.next_chunk();
        // Keep draining; the server will terminate the stream when shutdown cancels us.
        let mut bytes = 0usize;
        while let Ok(Some(chunk)) = resp.next_chunk() {
            bytes += chunk.len();
        }
        bytes
    });
    // Let the query start before shutting down.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.metrics().queries_started == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown().expect("graceful shutdown");
    let _bytes = client.join().expect("client thread");

    let metrics = db.metrics();
    assert!(
        metrics.queries_cancelled > cancelled_before,
        "in-flight query was not cancelled: {metrics:?}"
    );
    // The database outlives the server: embedded use keeps working.
    assert!(db.count("(a)->(b)").unwrap() > 0);
}

/// `ResultSet::to_json` and the NDJSON trailer agree on row counts for non-streamable
/// (aggregate) queries — those take the materialising path even when streaming is requested.
#[test]
fn aggregates_fall_back_to_materialised_responses() {
    let (server, addr, _db) = start_server(complete_dag(20), ServerConfig::default());

    // GROUP BY-style aggregate: streaming requested but not streamable.
    let resp = request(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b) RETURN a, COUNT(*)\",\"stream\":true}",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("application/json"),
        "aggregates must not pretend to stream"
    );
    assert_eq!(row_count(&resp.text()), 19, "one group per source vertex");

    server.shutdown().unwrap();
}

/// Top-level wire options reach `QueryOptions`: `timeout_ms` produces a 408 (counted in
/// `queries_timed_out`), `limit` caps rows, and `adaptive` composes with `threads`.
#[test]
fn wire_options_map_onto_query_options() {
    // C(150, 3) = 551,300 wedges: far past a 1ms budget on any build profile.
    let (server, addr, db) = start_server(complete_dag(150), ServerConfig::default());

    let resp = request(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"timeout_ms\":1}",
    )
    .unwrap();
    assert_eq!(resp.status, 408, "body: {}", resp.text());
    assert!(
        resp.text().contains("\"code\":\"timeout\""),
        "{}",
        resp.text()
    );
    assert_eq!(db.metrics().queries_timed_out, 1);

    let resp = request(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b) RETURN a, b\",\"limit\":5}",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(row_count(&resp.text()), 5, "body: {}", resp.text());

    // adaptive and threads are independent settings of one executor: together they answer
    // what the default (fixed, one worker) run answers.
    let wedges = "(a)->(b), (b)->(c), (c)->(d) RETURN COUNT(*)";
    let (status, serial) = post_query(addr, &format!("{{\"query\":\"{wedges}\"}}"), &[]);
    assert_eq!(status, 200, "body: {serial}");
    let (status, both) = post_query(
        addr,
        &format!("{{\"query\":\"{wedges}\",\"adaptive\":true,\"threads\":4}}"),
        &[],
    );
    assert_eq!(status, 200, "body: {both}");
    let rows = |body: &str| {
        body.split("\"rows\":")
            .nth(1)
            .map(|t| t[..t.find("]]").unwrap()].to_string())
    };
    assert!(rows(&serial).is_some(), "body: {serial}");
    assert_eq!(rows(&both), rows(&serial));

    server.shutdown().unwrap();
}

/// `threads` is capped at the machine's cores: a request asking for a million workers is
/// answered like any other, without asking the OS for a million threads, and the server keeps
/// serving.
#[test]
fn absurd_thread_counts_are_capped_not_spawned() {
    let (server, addr, _db) = start_server(complete_dag(30), ServerConfig::default());
    let query = "(a)->(b), (b)->(c) RETURN COUNT(*)";
    let (status, serial) = post_query(addr, &format!("{{\"query\":\"{query}\"}}"), &[]);
    assert_eq!(status, 200, "body: {serial}");
    let (status, capped) = post_query(
        addr,
        &format!("{{\"query\":\"{query}\",\"threads\":1000000}}"),
        &[],
    );
    assert_eq!(status, 200, "body: {capped}");
    // C(30, 3) open wedges, as the one-worker run counted them.
    assert!(capped.contains("\"rows\":[[4060]]"), "body: {capped}");
    assert!(serial.contains("\"rows\":[[4060]]"), "body: {serial}");

    let health = request(addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);

    server.shutdown().unwrap();
}

/// `PROFILE` over the wire: one `plan` column whose rows carry the actuals of every operator,
/// a hybrid plan's `HASH-JOIN` with its `build:` and `probe:` inputs. `PROFILE` is not a
/// streamable projection, so asking for a stream takes the buffered path and answers the same
/// body (up to the measured times).
#[test]
fn profile_answers_over_the_wire_buffered_even_when_streaming_is_asked() {
    // On the skewed Epinions profile the optimizer joins diamond-X's two triangles (the
    // paper's Figure 1c plan).
    let graph = graphflow_rs::datasets::Dataset::Epinions.generate(0.3);
    let db = GraphflowDB::from_graph((*graph).clone());
    let q4 = "(a)->(b), (a)->(c), (b)->(c), (b)->(d), (c)->(d)";
    let (server, addr, db) = start_server(db, ServerConfig::default());
    assert_eq!(
        db.plan_class(q4).unwrap(),
        graphflow_rs::plan::PlanClass::Hybrid,
        "the test needs a hybrid plan"
    );
    let mask = |body: &str| {
        let json = graphflow_rs::core::json::Json::parse(body).expect("response is JSON");
        let rows: Vec<String> = (json.get("rows").and_then(|r| r.as_array()))
            .expect("rows")
            .iter()
            .map(|row| row.as_array().unwrap()[0].as_str().unwrap().to_string())
            .map(|line| match line.split_once("time ") {
                Some((head, tail)) => format!("{head}{}", tail.split_once("ms").unwrap().1),
                None => line,
            })
            .collect();
        (json.get("columns").cloned(), rows)
    };
    let (status, buffered) = post_query(addr, &format!("{{\"query\":\"PROFILE {q4}\"}}"), &[]);
    assert_eq!(status, 200, "body: {buffered}");
    let (columns, rows) = mask(&buffered);
    assert_eq!(
        columns,
        Some(graphflow_rs::core::json::Json::Arr(vec![
            graphflow_rs::core::json::Json::Str("plan".into())
        ]))
    );
    assert!(rows.iter().any(|l| l.contains("actual rows")), "{rows:#?}");
    assert!(rows.iter().any(|l| l.starts_with("HASH-JOIN")), "{rows:#?}");
    assert!(rows.iter().any(|l| l.trim() == "build:"), "{rows:#?}");
    assert!(rows.iter().any(|l| l.trim() == "probe:"), "{rows:#?}");

    let resp = request(
        addr,
        "POST",
        "/query",
        &[],
        format!("{{\"query\":\"PROFILE {q4}\",\"stream\":true}}").as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(mask(&resp.text()), mask(&buffered));

    server.shutdown().unwrap();
}

/// A complete DAG on 12 vertices whose properties cover every kind of value a cell can hold:
/// ints at both ends of `i64`, integral and fractional floats, bools, strings that need
/// escaping, and properties some vertices lack (`null`).
fn every_value_kind() -> GraphflowDB {
    let ints = [-5, i64::MIN, i64::MAX, 0, 42, -1];
    let floats = [2.0, 0.25, -1.5, 1e21, 3.0e-5, -0.0];
    let strings = ["say \"hi\"", "back\\slash", "bell\u{7}", "tab\tnew\nline"];
    let mut b = GraphBuilder::new();
    for v in 0..12u32 {
        let i = v as usize;
        b.set_vertex_prop(v, "i", PropValue::Int(ints[i % ints.len()]))
            .unwrap();
        if v % 3 != 2 {
            b.set_vertex_prop(v, "f", PropValue::Float(floats[i % floats.len()]))
                .unwrap();
        }
        b.set_vertex_prop(v, "b", PropValue::Bool(v % 2 == 0))
            .unwrap();
        if v % 2 == 0 {
            b.set_vertex_prop(
                v,
                "s",
                PropValue::Str(strings[i / 2 % strings.len()].into()),
            )
            .unwrap();
        }
        for w in (v + 1)..12 {
            b.add_edge(v, w);
            b.set_edge_prop(
                v,
                w,
                EdgeLabel(0),
                "w",
                PropValue::Float(f64::from(v * w) / 4.0),
            )
            .unwrap();
        }
    }
    GraphflowDB::from_graph(b.build())
}

/// `Json` for one in-process cell, the way the wire encodes it (non-finite floats are `null`).
fn cell_json(cell: &Option<PropValue>) -> Json {
    match cell {
        None => Json::Null,
        Some(PropValue::Int(n)) => Json::Num(*n as f64),
        Some(PropValue::Float(x)) if x.is_finite() => Json::Num(*x),
        Some(PropValue::Float(_)) => Json::Null,
        Some(PropValue::Bool(b)) => Json::Bool(*b),
        Some(PropValue::Str(s)) => Json::Str(s.to_string()),
    }
}

fn decode_row(line: &str) -> Vec<Json> {
    Json::parse(line)
        .unwrap_or_else(|e| panic!("row {line:?}: {e}"))
        .as_array()
        .expect("a row is an array")
        .to_vec()
}

fn sorted(mut rows: Vec<Vec<Json>>) -> Vec<Vec<Json>> {
    rows.sort_by_cached_key(|row| format!("{row:?}"));
    rows
}

/// A streamed projection decodes to the rows of the buffered `ResultSet::to_json` body and of
/// an in-process `stream_rows` run, over every kind of value, at one worker and at several
/// (whose order is free, so those rows are compared sorted), with and without `LIMIT`. At one
/// worker the row bytes are the buffered body's, byte for byte.
#[test]
fn streamed_rows_equal_buffered_rows_over_the_wire() {
    let (server, addr, db) = start_server(every_value_kind(), ServerConfig::default());
    let projection = "(a)-[e]->(b) RETURN a, b, a.i, a.f, a.b, a.s, b.s, b.i, e.w";
    let all_rows = sorted(
        db.query(projection)
            .unwrap()
            .rows()
            .iter()
            .map(|row| row.iter().map(cell_json).collect())
            .collect(),
    );
    assert_eq!(all_rows.len(), 66, "C(12, 2) edges");
    for limit in ["", " LIMIT 10"] {
        let query = format!("{projection}{limit}");
        for threads in [1, 4] {
            let ask = |stream: bool| {
                let body =
                    format!("{{\"query\":\"{query}\",\"threads\":{threads},\"stream\":{stream}}}");
                let resp = request(addr, "POST", "/query", &[], body.as_bytes()).unwrap();
                assert_eq!(resp.status, 200, "{query}: {}", resp.text());
                resp.text()
            };
            let streamed = ask(true);
            let lines: Vec<&str> = streamed.lines().collect();
            assert_eq!(
                lines[0],
                "{\"columns\":[\"a\",\"b\",\"a.i\",\"a.f\",\"a.b\",\"a.s\",\"b.s\",\"b.i\",\"e.w\"],\
                 \"epoch\":0}"
            );
            let row_lines = &lines[1..lines.len() - 1];
            assert_eq!(
                row_count(lines[lines.len() - 1]),
                row_lines.len() as u64,
                "{query}"
            );
            let wire: Vec<Vec<Json>> = row_lines.iter().map(|l| decode_row(l)).collect();

            let buffered = ask(false);
            let buffered_json = Json::parse(&buffered).unwrap();
            let buffered_rows: Vec<Vec<Json>> = buffered_json
                .get("rows")
                .and_then(Json::as_array)
                .expect("rows")
                .iter()
                .map(|row| row.as_array().unwrap().to_vec())
                .collect();

            let mut in_process = Vec::new();
            db.prepare(&query)
                .unwrap()
                .stream_rows(QueryOptions::new().threads(threads), |row| {
                    in_process.push(row.iter().map(cell_json).collect::<Vec<_>>());
                    true
                })
                .unwrap();

            if threads == 1 {
                assert_eq!(wire, buffered_rows, "{query}");
                assert_eq!(wire, in_process, "{query}");
                let rows_text = buffered
                    .split_once("\"rows\":[")
                    .and_then(|(_, t)| t.rsplit_once("],\"row_count\""))
                    .map(|(rows, _)| rows)
                    .expect("rows in the buffered body");
                assert_eq!(row_lines.join(","), rows_text, "{query}");
            } else if limit.is_empty() {
                assert_eq!(sorted(wire.clone()), sorted(buffered_rows), "{query}");
                assert_eq!(sorted(wire.clone()), sorted(in_process), "{query}");
                assert_eq!(sorted(wire), all_rows, "{query}");
            } else {
                // Which ten rows several workers reach first is not fixed: each answer must
                // be ten distinct rows of the full result.
                for rows in [wire, buffered_rows, in_process] {
                    assert_eq!(rows.len(), 10, "{query}");
                    let mut rows = sorted(rows);
                    rows.dedup();
                    assert_eq!(rows.len(), 10, "{query}: repeated rows");
                    assert!(rows.iter().all(|r| all_rows.contains(r)), "{query}");
                }
            }
            if limit.is_empty() {
                for digits in ["-9223372036854775808", "9223372036854775807"] {
                    assert!(streamed.contains(digits), "{digits} lost its digits");
                }
                for escaped in ["\"say \\\"hi\\\"\"", "\"back\\\\slash\"", "\"bell\\u0007\""] {
                    assert!(streamed.contains(escaped), "{escaped} missing");
                }
            }
        }
    }

    server.shutdown().unwrap();
}

/// The value of one un-labelled series in a `/metrics` body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} on /metrics"))
}

/// `/metrics` counts what a stream sent — responses, rows, chunks and body bytes — and those
/// are what the client read. The column line is a chunk of its own, sent with the head.
#[test]
fn stream_counters_match_what_the_client_read() {
    let (server, addr, _db) = start_server(complete_dag(40), ServerConfig::default());
    let mut resp = open_stream(
        addr,
        "POST",
        "/query",
        &[],
        b"{\"query\":\"(a)->(b), (b)->(c) RETURN a, b, c\",\"stream\":true}",
    )
    .expect("open stream");
    assert_eq!(resp.status, 200);
    let mut body = resp.next_chunk().unwrap().expect("the column line");
    assert_eq!(body, b"{\"columns\":[\"a\",\"b\",\"c\"],\"epoch\":0}\n");
    let mut chunks = 1u64;
    while let Some(chunk) = resp.next_chunk().unwrap() {
        body.extend_from_slice(&chunk);
        chunks += 1;
    }
    let text = String::from_utf8(body).unwrap();
    let rows = row_count(text.lines().last().unwrap());
    assert_eq!(rows, 9880, "C(40, 3) wedges");
    assert!(chunks > 2, "{} bytes in {chunks} chunks", text.len());

    // The server bumps the counters after its last write, so they may trail the read by a
    // moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let metrics = request(addr, "GET", "/metrics", &[], b"").unwrap().text();
        if metric(&metrics, "graphflow_stream_responses_total") == 1 {
            break metrics;
        }
        assert!(Instant::now() < deadline, "the stream was never counted");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(metric(&metrics, "graphflow_stream_rows_total"), rows);
    assert_eq!(metric(&metrics, "graphflow_stream_chunks_total"), chunks);
    assert_eq!(
        metric(&metrics, "graphflow_stream_bytes_total"),
        text.len() as u64
    );

    server.shutdown().unwrap();
}

/// A peer that reads one request head, answers with `response` and hangs up.
fn canned_peer(response: &'static [u8]) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") && socket.read(&mut byte).unwrap() == 1 {
            head.push(byte[0]);
        }
        socket.write_all(response).unwrap();
    });
    (addr, peer)
}

/// The bundled client is total: a length the peer names is never allocated up front, and a
/// chunk must end in CRLF. Each hostile response is an `Err`, not a panic or an abort.
#[test]
fn the_client_rejects_hostile_lengths_and_framing() {
    for (what, response) in [
        (
            "a huge chunk size",
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc"[..],
        ),
        (
            "a huge Content-Length",
            &b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc"[..],
        ),
        (
            "a chunk not followed by CRLF",
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXY0\r\n\r\n"[..],
        ),
    ] {
        let (addr, peer) = canned_peer(response);
        let answer = request(addr, "GET", "/", &[], b"");
        assert!(answer.is_err(), "{what}: {answer:?}");
        peer.join().unwrap();
    }
}
