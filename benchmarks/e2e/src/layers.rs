//! The traced run: per-layer numbers measured **from outside** the program.
//!
//! This benchmark changes nothing in the crates it measures, so a layer is observed in three
//! ways: by timing calls into its public functions on the workload's own dataset and
//! requests, by differencing `/metrics` scrapes around the timed window, and from the `stats`
//! object the server already returns. The in-process replay records one span per layer call
//! (`json_parse -> parse -> prepare -> execute -> to_json | stream_rows`) with name, layer,
//! start, end, parent and request id; the spans stay in memory until the run ends. The timed
//! window of a plain run carries none of this, so end-to-end numbers are tracing-off by
//! construction.
//!
//! Layers are the repository's crates. The metric names are `<crate>.<what>`.

use crate::check::Expect;
use crate::http::{render_request, Conn, Response};
use crate::loadgen::{query_loop, QuerySample, Stop};
use crate::run::Config;
use crate::stats::{balanced_pct, median, pct};
use crate::workloads::{cold_patterns, Batch, Req, Workload, ANALYTIC_TEMPLATES, BATCH_UPDATES};
use graphflow_catalog::Catalogue;
use graphflow_core::json::Json;
use graphflow_core::{CountingSink, GraphflowDB, PreparedQuery, QueryOptions, RuntimeStats};
use graphflow_graph::{intersect_sorted_into, EdgeLabel, VertexLabel};
use graphflow_plan::PlanClass;
use graphflow_query::{canonical_form, parse_query, predicate_structure_code};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of `--seconds` a traced run spends on its socket window; the rest pays for the
/// in-process probes.
pub const TRACED_WINDOW_SHARE: f64 = 0.6;
/// Pending edge updates on the snapshot `graph.dirty_read_ratio` reads from.
const DIRTY_EDGE_UPDATES: usize = 3200;
/// Requests from the head of the list the in-process databases plan before the replay.
const HISTORY_REQUESTS: usize = 150;
/// `GET /healthz` round trips behind `server.framing_us`.
const FRAMING_PROBES: usize = 2000;

/// Every per-layer metric: name, unit, and whether a larger value is the better one.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    ("server.framing_us", "us", "lower"),
    ("server.non_exec_ms", "ms", "lower"),
    ("server.query_p95_ms", "ms", "lower"),
    ("server.query_p99_ms", "ms", "lower"),
    ("server.txn_p95_ms", "ms", "lower"),
    ("server.cpu_ms_per_req", "ms", "lower"),
    ("server.rejected_share", "ratio", "lower"),
    ("server.failed_share", "ratio", "lower"),
    ("server.stream_chunks_per_req", "count", "lower"),
    ("server.stream_bytes_per_row", "bytes", "lower"),
    ("server.boot_s", "s", "lower"),
    ("core.prepare_hit_us", "us", "lower"),
    ("core.plan_cache_hit_ratio", "ratio", "higher"),
    ("core.json_parse_us", "us", "lower"),
    ("core.txn_json_parse_us", "us", "lower"),
    ("core.to_json_mb_per_s", "MB/s", "higher"),
    ("core.apply_batch_us", "us", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.canonical_us", "us", "lower"),
    ("catalog.build_ms", "ms", "lower"),
    ("catalog.sample_ms", "ms", "lower"),
    ("plan.optimize_ms", "ms", "lower"),
    ("plan.optimize_p95_ms", "ms", "lower"),
    ("plan.optimize_v6_ms", "ms", "lower"),
    ("plan.class_share_wco", "ratio", "higher"),
    ("plan.class_share_hybrid", "ratio", "higher"),
    ("plan.class_share_bj", "ratio", "lower"),
    ("exec.execute_ms", "ms", "lower"),
    ("exec.q1_ms", "ms", "lower"),
    ("exec.q3_ms", "ms", "lower"),
    ("exec.q4_ms", "ms", "lower"),
    ("exec.q5_ms", "ms", "lower"),
    ("exec.q6_ms", "ms", "lower"),
    ("exec.q1_group_ms", "ms", "lower"),
    ("exec.adaptive_ratio", "ratio", "lower"),
    ("exec.icost_per_req", "count", "lower"),
    ("exec.intermediate_per_req", "count", "lower"),
    ("exec.hash_build_per_req", "count", "lower"),
    ("exec.hash_probe_per_req", "count", "lower"),
    ("exec.icost_per_us", "1/us", "higher"),
    ("exec.intersection_cache_hit_rate", "ratio", "higher"),
    ("exec.sink_ms", "ms", "lower"),
    ("exec.stream_rows_per_s", "rows/s", "higher"),
    ("exec.parallel_speedup", "ratio", "higher"),
    ("exec.parallel_icost_ratio", "ratio", "lower"),
    ("graph.intersect_melem_per_s", "Melem/s", "higher"),
    ("graph.kernel_merge_share", "ratio", "higher"),
    ("graph.kernel_gallop_share", "ratio", "higher"),
    ("graph.kernel_block_share", "ratio", "higher"),
    ("graph.dirty_read_ratio", "ratio", "lower"),
    ("graph.delta_merges_per_req", "count", "lower"),
    ("storage.wal_bytes_per_update", "bytes", "lower"),
    ("storage.fsyncs_per_txn", "count", "lower"),
    ("storage.checkpoints", "count", "lower"),
    ("storage.checkpoint_s", "s", "lower"),
    ("storage.seed_checkpoint_ms", "ms", "lower"),
    ("storage.snapshot_load_ms", "ms", "lower"),
    ("storage.reopen_ms", "ms", "lower"),
    ("storage.snapshot_bytes_per_edge", "bytes", "lower"),
    ("datasets.generate_ms", "ms", "lower"),
    ("loadgen.max_lateness_ms", "ms", "lower"),
    ("loadgen.client_cpu_share", "ratio", "lower"),
    ("loadgen.query_samples", "count", "higher"),
    ("loadgen.txn_samples", "count", "higher"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.server_self_us", "us", "lower"),
    ("trace.core_self_us", "us", "lower"),
    ("trace.query_self_us", "us", "lower"),
    ("trace.catalog_self_us", "us", "lower"),
    ("trace.plan_self_us", "us", "lower"),
    ("trace.exec_self_us", "us", "lower"),
    ("trace.spans", "count", "higher"),
];

/// What the quiet server answered right after the window: bare round trips, and the traced
/// sample sent one request at a time.
pub struct ServerProbe {
    framing_us: Vec<f64>,
    paired: Vec<QuerySample>,
}

/// Measure the `server` layer on one idle connection: `GET /healthz` round trips (socket and
/// HTTP framing with no query behind them), then the sample requests in order, so each can
/// be set against its in-process replay.
pub fn probe_server(
    conn: &mut Conn,
    reqs: &[Req],
    expects: &[Expect],
) -> Result<ServerProbe, String> {
    let health = render_request("GET", "/healthz", b"");
    let mut resp = Response::default();
    let mut framing_us = Vec::with_capacity(FRAMING_PROBES);
    for _ in 0..FRAMING_PROBES {
        let sent = Instant::now();
        conn.roundtrip(&health, &mut resp)
            .map_err(|e| format!("healthz probe: {e}"))?;
        framing_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let report = query_loop(
        conn,
        reqs,
        expects,
        (0, 1),
        Instant::now(),
        Stop::After(reqs.len()),
    );
    if report.failed > 0 {
        return Err(format!("paired replay failed: {:?}", report.errors));
    }
    Ok(ServerProbe {
        framing_us,
        paired: report.samples,
    })
}

/// What the socket side of the run hands to the per-layer probes.
pub struct Context<'a> {
    pub cfg: &'a Config,
    pub workload: &'a Workload,
    pub sample: &'a [Req],
    /// Transactions the server had applied when it answered the sample over the socket.
    pub written_before_sample: &'a [Batch],
    pub queries: &'a [QuerySample],
    pub txn_count: usize,
    pub txn_p95_ms: f64,
    pub txns_in_window: usize,
    /// `/metrics` before and after the timed window.
    pub metrics_window: (&'a HashMap<String, f64>, &'a HashMap<String, f64>),
    /// `/metrics` before the window and after the last write.
    pub metrics_writes: (&'a HashMap<String, f64>, &'a HashMap<String, f64>),
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub max_lateness_us: f64,
    pub boot_s: f64,
    pub seed_s: f64,
    pub reopen_s: f64,
    pub snapshot_bytes: u64,
    pub server_probe: ServerProbe,
}

pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<String>,
}

/// One recorded interval. `inline` spans lie inside their parent's interval; the others were
/// measured by a separate call on the same request, because the step they time happens inside
/// a public function and cannot be bracketed from outside.
struct Span {
    parent: Option<usize>,
    request: usize,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    inline: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(
        &mut self,
        parent: Option<usize>,
        request: usize,
        name: &'static str,
        layer: &'static str,
        inline: bool,
    ) -> usize {
        self.spans.push(Span {
            parent,
            request,
            name,
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            inline,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = now;
        (now - span.start_ns) as f64 / 1e3
    }

    /// Microseconds each span stands for in its request's account. An inline span stands for
    /// its own duration. Spans measured by separate calls refine their parent: together they
    /// never stand for more than the parent does (a separately timed step can come out slower
    /// than the call that contains it, as raw matching does beside a bulk-counted `COUNT(*)`).
    fn accounted_us(&self) -> Vec<f64> {
        let duration = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e3;
        let mut accounted = vec![0.0; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            accounted[id] = match span.parent {
                Some(parent) if !span.inline => {
                    let siblings: f64 = self
                        .spans
                        .iter()
                        .filter(|s| s.parent == Some(parent) && !s.inline)
                        .map(duration)
                        .sum();
                    // Parents are recorded before their children, so theirs is settled.
                    duration(span) * (accounted[parent] / siblings).min(1.0)
                }
                _ => duration(span),
            };
        }
        accounted
    }

    /// Self time of every span: what it stands for minus what its children stand for.
    fn self_us(&self) -> Vec<f64> {
        let accounted = self.accounted_us();
        let mut own = accounted.clone();
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] = (own[parent] - accounted[id]).max(0.0);
            }
        }
        own
    }

    fn render(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"parent\":{},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{},\"inline\":{}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request,
                    s.name,
                    s.layer,
                    s.start_ns,
                    s.end_ns,
                    s.inline
                )
            })
            .collect()
    }
}

/// Run `f` until `budget` is spent, at least `min` and at most `max` times; microseconds per
/// call.
fn repeat(budget: Duration, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || started.elapsed() < budget) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

fn options_of(req: &Req) -> QueryOptions {
    let mut options = QueryOptions::new()
        .threads(req.threads)
        .adaptive(req.adaptive);
    if let Some(limit) = req.limit {
        options = options.limit(limit);
    }
    options
}

/// Serial, non-adaptive options with the request's limit: the configuration whose counters
/// repeat exactly.
fn serial_options(req: &Req) -> QueryOptions {
    match req.limit {
        Some(limit) => QueryOptions::new().limit(limit),
        None => QueryOptions::new(),
    }
}

/// Options for raw matching that does the work the RETURN clause would have asked for: a bare
/// `LIMIT` stops the executor after that many matches.
fn raw_options(req: &Req, p: &PreparedQuery, options: QueryOptions) -> QueryOptions {
    let bare_limit = p.query().return_clause().and_then(|c| {
        let plain = c.order_by.is_empty() && !c.distinct && c.items.iter().all(|i| i.agg.is_none());
        c.limit.filter(|_| plain)
    });
    match (bare_limit, req.limit) {
        (Some(k), Some(wire)) => options.limit(k.min(wire)),
        (Some(k), None) => options.limit(k),
        (None, _) => options,
    }
}

/// Raw matching without the RETURN fold: every match goes to a counting sink.
fn run_raw(p: &PreparedQuery, options: QueryOptions) -> Result<RuntimeStats, String> {
    let mut sink = CountingSink::default();
    p.run_with_sink(options, &mut sink)
        .map_err(|e| e.to_string())
}

fn delta(pair: (&HashMap<String, f64>, &HashMap<String, f64>), name: &str) -> f64 {
    pair.1.get(name).copied().unwrap_or(0.0) - pair.0.get(name).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

pub fn measure(ctx: &Context) -> Result<Traced, String> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let w = ctx.workload;
    let sample = ctx.sample;
    // What is left of --seconds after the socket window, split over the timing loops below.
    // Loops with a fixed count (the ones behind exact counters) ignore it.
    let slice = Duration::from_secs_f64(ctx.cfg.seconds * (1.0 - TRACED_WINDOW_SHARE) / 12.0);

    // ---- server: from the socket samples, /proc and /metrics ---------------------------
    let q = ctx.queries;
    let requests_in_window = (q.len() + ctx.txns_in_window) as f64;
    let lat_ms: Vec<f64> = q.iter().map(|s| ms(s.latency_us)).collect();
    let non_exec: Vec<f64> = q.iter().map(|s| ms(s.latency_us - s.exec_us)).collect();
    put("server.framing_us", pct(&ctx.server_probe.framing_us, 50.0));
    put("server.non_exec_ms", pct(&non_exec, 50.0));
    put("server.query_p95_ms", pct(&lat_ms, 95.0));
    put("server.query_p99_ms", pct(&lat_ms, 99.0));
    put("server.txn_p95_ms", ctx.txn_p95_ms);
    put(
        "server.cpu_ms_per_req",
        ratio(ctx.server_cpu_s * 1e3, requests_in_window),
    );
    let rejected: f64 = ctx
        .metrics_writes
        .1
        .iter()
        .filter(|(k, _)| k.starts_with("graphflow_tenant_rejected_total"))
        .map(|(_, v)| *v)
        .sum();
    put(
        "server.rejected_share",
        ratio(rejected, ctx.attempted as f64),
    );
    put(
        "server.failed_share",
        ratio(ctx.failed as f64, ctx.attempted as f64),
    );
    let (chunks, bytes, rows) = q.iter().fold((0.0, 0.0, 0.0), |acc, s| {
        (
            acc.0 + f64::from(s.chunks),
            acc.1 + s.bytes as f64,
            acc.2 + s.rows as f64,
        )
    });
    put(
        "server.stream_chunks_per_req",
        ratio(chunks, q.len() as f64),
    );
    put("server.stream_bytes_per_row", ratio(bytes, rows));
    put("server.boot_s", ctx.boot_s);
    let hits = delta(ctx.metrics_window, "graphflow_plan_cache_hits_total");
    let misses = delta(ctx.metrics_window, "graphflow_plan_cache_misses_total");
    put("core.plan_cache_hit_ratio", ratio(hits, hits + misses));
    let commits = delta(ctx.metrics_writes, "graphflow_txn_commits_total");
    put(
        "storage.wal_bytes_per_update",
        ratio(
            delta(ctx.metrics_writes, "graphflow_wal_bytes_written_total"),
            commits * BATCH_UPDATES as f64,
        ),
    );
    put(
        "storage.fsyncs_per_txn",
        ratio(
            delta(ctx.metrics_writes, "graphflow_wal_fsyncs_total"),
            commits,
        ),
    );
    put(
        "storage.checkpoints",
        delta(ctx.metrics_writes, "graphflow_checkpoints_total"),
    );
    put(
        "storage.checkpoint_s",
        delta(ctx.metrics_writes, "graphflow_checkpoint_seconds_total"),
    );
    put(
        "storage.snapshot_load_ms",
        ctx.metrics_writes
            .1
            .get("graphflow_snapshot_load_seconds")
            .copied()
            .unwrap_or(0.0)
            * 1e3,
    );
    put("storage.seed_checkpoint_ms", ctx.seed_s * 1e3);
    put("storage.reopen_ms", ctx.reopen_s * 1e3);
    put(
        "storage.snapshot_bytes_per_edge",
        ratio(ctx.snapshot_bytes as f64, w.graph.num_edges() as f64),
    );
    put("loadgen.max_lateness_ms", ms(ctx.max_lateness_us));
    put(
        "loadgen.client_cpu_share",
        ratio(ctx.client_cpu_s, ctx.client_cpu_s + ctx.server_cpu_s),
    );
    put("loadgen.query_samples", q.len() as f64);
    put("loadgen.txn_samples", ctx.txn_count as f64);

    // ---- datasets, catalog -------------------------------------------------------------
    let generate = repeat(slice, 3, 50, || {
        black_box(w.dataset.generate(w.scale));
    });
    put("datasets.generate_ms", ms(pct(&generate, 50.0)));
    let catalogue = repeat(slice, 3, 200, || {
        black_box(Catalogue::with_defaults(w.graph.clone()));
    });
    put("catalog.build_ms", ms(pct(&catalogue, 50.0)));

    // ---- the in-process replay, one span per layer call ---------------------------------
    // The database is configured like the server's and is led through the server's history:
    // the warm-up list, then the head of the request list (planning only), so its plan cache
    // and the catalogue's lazily sampled entries are in the state the sampled requests met.
    // `twin` walks the same history; it answers what a first `plan` call on a pattern costs
    // (catalogue sampling included) without disturbing the replay's own cold prepare.
    let db = GraphflowDB::builder(w.graph.clone()).build();
    let twin = GraphflowDB::builder(w.graph.clone()).build();
    for req in &w.warmup {
        db.query_with(&req.query, options_of(req))
            .map_err(|e| e.to_string())?;
        twin.prepare(&req.query).map_err(|e| e.to_string())?;
    }
    for req in w
        .requests
        .iter()
        .take(HISTORY_REQUESTS.min(w.requests.len() - sample.len()))
    {
        db.prepare(&req.query).map_err(|e| e.to_string())?;
        twin.prepare(&req.query).map_err(|e| e.to_string())?;
    }
    // Where writes ran beside the window, the server answered the sample on the graph they
    // left behind; the same transactions leave the same pending deltas here.
    for batch in ctx.written_before_sample {
        db.apply_batch(&batch.updates);
        twin.apply_batch(&batch.updates);
    }
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut totals = RuntimeStats::default();
    let mut classes = [0usize; 3];
    let mut in_process_us = Vec::with_capacity(sample.len());
    let mut optimize_cold = Vec::new();
    let mut catalogue_sampling = Vec::new();
    let mut json_bytes = 0usize;
    let mut json_us = 0.0;
    let mut line = String::new();
    for (i, req) in sample.iter().enumerate() {
        let root = tracer.begin(None, i, "request", "trace", true);
        let s = tracer.begin(Some(root), i, "json_parse", "core", true);
        let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
        let text = body
            .get("query")
            .and_then(Json::as_str)
            .ok_or("body has no query")?;
        tracer.end(s);
        let s = tracer.begin(Some(root), i, "parse", "query", true);
        let parsed = db.parse(text).map_err(|e| e.to_string())?;
        tracer.end(s);
        let s_prepare = tracer.begin(Some(root), i, "prepare", "core", true);
        let prepared = db
            .prepare_query(parsed.clone())
            .map_err(|e| e.to_string())?;
        tracer.end(s_prepare);
        let stats;
        let s_exec;
        if req.stream {
            s_exec = tracer.begin(Some(root), i, "stream_rows", "exec", true);
            let mut sunk = 0usize;
            stats = prepared
                .stream_rows(options_of(req), |row| {
                    line.clear();
                    line.push('[');
                    for (j, cell) in row.iter().enumerate() {
                        if j > 0 {
                            line.push(',');
                        }
                        graphflow_core::json::write_value(&mut line, cell);
                    }
                    line.push_str("]\n");
                    sunk += line.len();
                    true
                })
                .map_err(|e| e.to_string())?;
            tracer.end(s_exec);
            black_box(sunk);
        } else {
            s_exec = tracer.begin(Some(root), i, "execute", "exec", true);
            let rows = prepared
                .execute(options_of(req))
                .map_err(|e| e.to_string())?;
            tracer.end(s_exec);
            let s = tracer.begin(Some(root), i, "to_json", "core", true);
            let rendered = rows.to_json();
            json_us += tracer.end(s);
            json_bytes += rendered.len();
            black_box(rendered);
            stats = rows.stats;
        }
        in_process_us.push(tracer.end(root));
        totals.merge(&stats);
        classes[match prepared.plan_class() {
            PlanClass::Wco => 0,
            PlanClass::Hybrid => 1,
            PlanClass::BinaryJoin => 2,
        }] += 1;

        // Steps inside `prepare` and `execute`, timed by separate calls on the same request.
        let s = tracer.begin(Some(s_prepare), i, "canonical", "query", false);
        let (_, perm) = canonical_form(&parsed);
        black_box(predicate_structure_code(&parsed, &perm));
        tracer.end(s);
        if !prepared.was_cached() {
            // The first `plan` of a pattern samples the catalogue entries it needs; the second
            // is the dynamic program alone. The difference is the catalogue's share.
            let cold = tracer.begin(Some(s_prepare), i, "optimize_cold", "catalog", false);
            black_box(twin.plan(&parsed).map_err(|e| e.to_string())?);
            let cold_us = tracer.end(cold);
            let warm = tracer.begin(Some(cold), i, "optimize", "plan", false);
            black_box(twin.plan(&parsed).map_err(|e| e.to_string())?);
            let warm_us = tracer.end(warm);
            optimize_cold.push((req.class, cold_us));
            catalogue_sampling.push((cold_us - warm_us).max(0.0));
        }
        if !req.stream {
            // What remains of `execute` beside the raw matching is the RETURN fold.
            let s = tracer.begin(Some(s_exec), i, "match", "exec", false);
            run_raw(&prepared, raw_options(req, &prepared, options_of(req)))?;
            tracer.end(s);
        }
    }
    let n = sample.len() as f64;
    put("plan.class_share_wco", classes[0] as f64 / n);
    put("plan.class_share_hybrid", classes[1] as f64 / n);
    put("plan.class_share_bj", classes[2] as f64 / n);
    put("exec.intersection_cache_hit_rate", totals.cache_hit_rate());
    let kernels = (totals.kernel_merge + totals.kernel_gallop + totals.kernel_block) as f64;
    put(
        "graph.kernel_merge_share",
        ratio(totals.kernel_merge as f64, kernels),
    );
    put(
        "graph.kernel_gallop_share",
        ratio(totals.kernel_gallop as f64, kernels),
    );
    put(
        "graph.kernel_block_share",
        ratio(totals.kernel_block as f64, kernels),
    );

    // How much of the socket latency the layers explain: each request's in-process total plus
    // one bare round trip, over what the same request took on the quiet server. The rest is
    // the server layer's own time beyond framing.
    let framing = pct(&ctx.server_probe.framing_us, 50.0);
    let paired = &ctx.server_probe.paired;
    let accounted: Vec<f64> = paired
        .iter()
        .zip(&in_process_us)
        .map(|(socket, inproc)| (inproc + framing) / socket.latency_us)
        .collect();
    let server_self: Vec<f64> = paired
        .iter()
        .zip(&in_process_us)
        .map(|(socket, inproc)| (socket.latency_us - inproc).max(0.0))
        .collect();
    put("trace.accounted_share", median(&accounted));
    put("trace.server_self_us", median(&server_self));
    // A layer's self time in one request: its spans minus what their children cover.
    let self_us = tracer.self_us();
    for layer in ["core", "query", "catalog", "plan", "exec"] {
        let mut per_request = vec![0.0; sample.len()];
        for (span, own) in tracer.spans.iter().zip(&self_us) {
            if span.layer == layer {
                per_request[span.request] += own;
            }
        }
        put(&format!("trace.{layer}_self_us"), median(&per_request));
    }
    put("core.to_json_mb_per_s", ratio(json_bytes as f64, json_us));

    // ---- serial counters: one pass over the sample, exact from run to run ---------------
    let prepared: Vec<PreparedQuery> = sample
        .iter()
        .map(|r| db.prepare(&r.query).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut serial = RuntimeStats::default();
    let mut serial_us = 0.0;
    for (req, p) in sample.iter().zip(&prepared) {
        let t = Instant::now();
        let stats = run_raw(p, raw_options(req, p, serial_options(req)))?;
        serial_us += t.elapsed().as_secs_f64() * 1e6;
        serial.merge(&stats);
    }
    put("exec.icost_per_req", serial.icost as f64 / n);
    put(
        "exec.intermediate_per_req",
        serial.intermediate_tuples as f64 / n,
    );
    put(
        "exec.hash_build_per_req",
        serial.hash_build_tuples as f64 / n,
    );
    put(
        "exec.hash_probe_per_req",
        serial.hash_probe_tuples as f64 / n,
    );
    put("exec.icost_per_us", ratio(serial.icost as f64, serial_us));

    // ---- timing loops over the sample ---------------------------------------------------
    let pass = |f: &mut dyn FnMut(&Req, &PreparedQuery) -> Result<(), String>| -> Result<Vec<f64>, String> {
        // At least one pass over the sample, then more while the slice lasts.
        let started = Instant::now();
        let mut per_request = Vec::new();
        loop {
            for (req, p) in sample.iter().zip(&prepared) {
                let t = Instant::now();
                f(req, p)?;
                per_request.push(t.elapsed().as_secs_f64() * 1e6);
            }
            if started.elapsed() >= slice {
                return Ok(per_request);
            }
        }
    };
    let raw = pass(&mut |req, p| run_raw(p, raw_options(req, p, serial_options(req))).map(drop))?;
    // What the server calls per request: matching and the RETURN fold together.
    let folded = pass(&mut |req, p| {
        if req.stream {
            p.stream_rows(serial_options(req), |row| {
                black_box(&row);
                true
            })
            .map(drop)
            .map_err(|e| e.to_string())
        } else {
            p.execute(serial_options(req))
                .map(drop)
                .map_err(|e| e.to_string())
        }
    })?;
    // Medians per template, averaged over templates: the way `query_p50_ms` is defined, so
    // the two can be set against each other.
    let by_template = |per_request: &[f64]| {
        let classed = per_request
            .iter()
            .enumerate()
            .map(|(i, v)| (sample[i % sample.len()].class, *v));
        balanced_pct(w.classes.len(), classed, 50.0)
    };
    put("exec.execute_ms", ms(by_template(&folded)));
    // Per request of the sample: the fold's median minus the raw run's median.
    let per_slot = |times: &[f64], slot: usize| {
        let mine: Vec<f64> = times
            .iter()
            .skip(slot)
            .step_by(sample.len())
            .copied()
            .collect();
        median(&mine)
    };
    let sink: Vec<f64> = (0..sample.len())
        .map(|slot| (per_slot(&folded, slot) - per_slot(&raw, slot)).max(0.0))
        .collect();
    put("exec.sink_ms", ms(by_template(&sink)));
    let adaptive = pass(&mut |req, p| {
        run_raw(p, raw_options(req, p, serial_options(req)).adaptive(true)).map(drop)
    })?;
    let sum_of_medians = |times: &[f64]| (0..sample.len()).map(|s| per_slot(times, s)).sum::<f64>();
    put(
        "exec.adaptive_ratio",
        ratio(sum_of_medians(&adaptive), sum_of_medians(&raw)),
    );
    let threads = ctx.cfg.nproc.max(2);
    let mut parallel_icost = 0u64;
    let parallel = pass(&mut |req, p| {
        parallel_icost +=
            run_raw(p, raw_options(req, p, serial_options(req)).threads(threads))?.icost;
        Ok(())
    })?;
    let parallel_passes = (parallel.len() / sample.len()) as f64;
    put(
        "exec.parallel_speedup",
        ratio(sum_of_medians(&raw), sum_of_medians(&parallel)),
    );
    put(
        "exec.parallel_icost_ratio",
        ratio(parallel_icost as f64 / parallel_passes, serial.icost as f64),
    );
    let hit = pass(&mut |req, _| {
        let p = db.prepare(&req.query).map_err(|e| e.to_string())?;
        black_box(p.was_cached());
        Ok(())
    })?;
    put("core.prepare_hit_us", pct(&hit, 50.0));
    let parse_json = pass(&mut |req, _| {
        black_box(Json::parse(&req.body).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    put("core.json_parse_us", pct(&parse_json, 50.0));
    let parse = pass(&mut |req, _| {
        black_box(parse_query(&req.query).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    put("query.parse_us", pct(&parse, 50.0));
    let graphs: Vec<_> = sample
        .iter()
        .map(|r| parse_query(&r.query).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut slot = 0usize;
    let canonical = pass(&mut |_, _| {
        let g = &graphs[slot % graphs.len()];
        slot += 1;
        let (_, perm) = canonical_form(g);
        black_box(predicate_structure_code(g, &perm));
        Ok(())
    })?;
    put("query.canonical_us", pct(&canonical, 50.0));

    // ---- plan: the optimizer with the cache bypassed ---------------------------------------
    // Requests the replay had to plan were timed there, on the twin. A workload whose sample
    // is all cache hits times a first `plan` call per distinct pattern here instead.
    if optimize_cold.is_empty() {
        let mut seen = HashSet::new();
        for g in graphs
            .iter()
            .filter(|g| seen.insert(graphflow_query::canonical_code(g).0))
        {
            let t = Instant::now();
            black_box(twin.plan(g).ok());
            let cold_us = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            black_box(twin.plan(g).ok());
            optimize_cold.push((0, cold_us));
            catalogue_sampling.push((cold_us - t.elapsed().as_secs_f64() * 1e6).max(0.0));
        }
    }
    put(
        "plan.optimize_ms",
        ms(balanced_pct(
            w.classes.len(),
            optimize_cold.iter().copied(),
            50.0,
        )),
    );
    put(
        "plan.optimize_p95_ms",
        ms(balanced_pct(
            w.classes.len(),
            optimize_cold.iter().copied(),
            95.0,
        )),
    );
    put("catalog.sample_ms", ms(pct(&catalogue_sampling, 50.0)));
    let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ 0x6666);
    let six: Vec<_> = cold_patterns(
        &mut rng,
        12,
        &mut HashSet::new(),
        Some(6),
        w.graph.num_edge_labels().max(1),
    )
    .iter()
    .map(|t| parse_query(t).expect("generated pattern parses"))
    .collect();
    let v6: Vec<f64> = six
        .iter()
        .map(|g| {
            let t = Instant::now();
            black_box(db.plan(g).ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    put("plan.optimize_v6_ms", ms(pct(&v6, 50.0)));

    // ---- exec: the paper's templates on this workload's dataset --------------------------
    for (name, text) in ANALYTIC_TEMPLATES {
        let p = db.prepare(text).map_err(|e| e.to_string())?;
        let times = repeat(slice / 6, 1, 50, || {
            black_box(p.execute(QueryOptions::new()).ok());
        });
        put(&format!("exec.{name}_ms"), ms(pct(&times, 50.0)));
    }
    let export = db
        .prepare("(a)->(b), (b)->(c) RETURN a, b, c")
        .map_err(|e| e.to_string())?;
    let mut streamed = 0u64;
    let stream_us: f64 = repeat(slice, 1, 50, || {
        let _ = export.stream_rows(QueryOptions::new().limit(200_000), |row| {
            black_box(&row);
            streamed += 1;
            true
        });
    })
    .iter()
    .sum();
    put(
        "exec.stream_rows_per_s",
        ratio(streamed as f64, stream_us / 1e6),
    );

    // ---- graph: the intersection kernel on this dataset's adjacency lists ----------------
    let fwd = w.graph.adj(graphflow_graph::Direction::Fwd);
    let edges = w.graph.edges();
    let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ 0x1A7E);
    let pairs: Vec<(u32, u32)> = (0..4000)
        .map(|_| {
            let (s, d, _) = edges[rng.gen_range(0..edges.len())];
            (s, d)
        })
        .collect();
    let mut out = Vec::new();
    let mut elements = 0usize;
    let kernel_us: f64 = repeat(slice, 1, 200, || {
        for &(s, d) in &pairs {
            let (a, b) = (
                fwd.list(s, EdgeLabel(0), VertexLabel(0)),
                fwd.list(d, EdgeLabel(0), VertexLabel(0)),
            );
            intersect_sorted_into(a, b, &mut out);
            elements += a.len() + b.len();
            black_box(out.len());
        }
    })
    .iter()
    .sum();
    put(
        "graph.intersect_melem_per_s",
        ratio(elements as f64, kernel_us),
    );

    // ---- graph: the same reads on a snapshot that carries pending deltas -----------------
    let dirty = GraphflowDB::builder(w.graph.clone())
        .compact_threshold(usize::MAX)
        .build();
    let apply = GraphflowDB::builder(w.graph.clone()).build();
    let mut apply_us = Vec::new();
    for (i, batch) in w.batches.iter().enumerate() {
        if i * (BATCH_UPDATES * 5 / 6) < DIRTY_EDGE_UPDATES {
            dirty.apply_batch(&batch.updates);
        }
        let t = Instant::now();
        black_box(apply.apply_batch(&batch.updates));
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    put("core.apply_batch_us", pct(&apply_us, 50.0));
    let txn_json: Vec<f64> = w
        .batches
        .iter()
        .take(64)
        .map(|b| {
            let t = Instant::now();
            black_box(Json::parse(&b.body).ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    put("core.txn_json_parse_us", pct(&txn_json, 50.0));
    let dirty_prepared: Vec<PreparedQuery> = sample
        .iter()
        .map(|r| dirty.prepare(&r.query).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut merges = 0u64;
    let mut dirty_us = 0.0;
    for (req, p) in sample.iter().zip(&dirty_prepared) {
        if serial_us < 1e5 {
            // Short reads are timed warm, like their frozen counterparts were.
            run_raw(p, raw_options(req, p, serial_options(req)))?;
        }
        let t = Instant::now();
        merges += run_raw(p, raw_options(req, p, serial_options(req)))?.delta_merges;
        dirty_us += t.elapsed().as_secs_f64() * 1e6;
    }
    put("graph.dirty_read_ratio", ratio(dirty_us, serial_us));
    put("graph.delta_merges_per_req", merges as f64 / n);

    put("trace.spans", tracer.spans.len() as f64);
    Ok(Traced {
        metrics: m,
        spans: tracer.render(),
    })
}
