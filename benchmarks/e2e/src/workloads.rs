//! The six workloads: which dataset each runs on, which requests it sends, and why.
//!
//! Everything here is a pure function of `(workload, seed, scale)`: the same arguments give
//! byte-identical request lists. The datasets themselves are fixed (their profiles carry
//! their own seeds), so the seed only decides constants, variable names, pattern shapes and
//! request order — which keeps a workload's cost stable from seed to seed.

use crate::http::render_request;
use graphflow_datasets::Dataset;
use graphflow_graph::loader::assign_random_edge_labels;
use graphflow_graph::{EdgeLabel, Graph, GraphBuilder, PropValue, Update, VertexId};
use graphflow_query::{canonical_code, parse_query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Name and one-line reason of every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "point_cached",
        "Early-stopping 2-3-vertex lookups with per-request constants: plan cache always hits and the executor does almost nothing, so HTTP framing, JSON, parser and cache lookup are the work.",
    ),
    (
        "cold_plan",
        "Every request is a structurally new 4-6-vertex labelled pattern under a wire limit: each pays canonical-code search and DP optimize; the plan cache is bypassed.",
    ),
    (
        "analytic_count",
        "Cached Q1/Q3/Q4/Q5/Q6 counts and a grouped top-10 on a skewed graph, serial, fixed and adaptive: intersections, extension and hash probe dominate; the control for point_cached.",
    ),
    (
        "analytic_parallel",
        "One connection sending Q1, grouped Q1 and Q6 on the largest graph with threads = cores: the only workload on the parallel executor.",
    ),
    (
        "stream_export",
        "Streamed 325k-row projections: row sink, JSON number writing, chunked writer and socket writes do half the work; peak memory checks the bounded-buffer promise.",
    ),
    (
        "mixed_ingest",
        "The analytic read mix beside an open-loop writer at a fixed transaction rate with fsync: dirty snapshots, compaction, catalogue upkeep and the WAL share the executor's code.",
    ),
];

/// Edge labels on the `cold_plan` graph (the paper's `Q^J` protocol uses 3).
const COLD_LABELS: u16 = 3;
/// Seed of the data-side labelling; fixed so the dataset does not change with `--seed`.
const LABEL_SEED: u64 = 0x51AB;
/// Wire `limit` on `cold_plan` counts, so execution stays small beside planning.
const COLD_LIMIT: u64 = 1000;
/// Distinct patterns in the `cold_plan` list. The plan cache holds 128 plans and its
/// exact-form index 512 entries, so a list this long never hits either when it wraps.
const COLD_PATTERNS: usize = 1026;
/// Updates per write transaction: 10 edge inserts, 10 edge deletes, 4 property writes.
pub const BATCH_UPDATES: usize = 24;
/// Transactions per second of the open-loop writer in `mixed_ingest`.
pub const INGEST_RATE: f64 = 50.0;
/// Transactions of the closed-loop write probe that follows the timed window on the other
/// workloads.
const PROBE_TXNS: usize = 800;

/// One `POST /query` request, kept both structured (for the in-process replay) and rendered
/// (for the socket).
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Index into [`Workload::classes`]: the template this request instantiates.
    pub class: usize,
    pub query: String,
    pub adaptive: bool,
    pub threads: usize,
    pub limit: Option<u64>,
    pub stream: bool,
    pub body: String,
    pub wire: Vec<u8>,
}

impl Req {
    fn new(class: usize, query: String) -> Req {
        Req {
            class,
            query,
            adaptive: false,
            threads: 1,
            limit: None,
            stream: false,
            body: String::new(),
            wire: Vec::new(),
        }
    }

    fn render(mut self) -> Req {
        let mut body = format!(
            "{{\"query\":{},\"threads\":{}",
            graphflow_core::json::quote(&self.query),
            self.threads
        );
        if self.adaptive {
            body.push_str(",\"adaptive\":true");
        }
        if let Some(limit) = self.limit {
            body.push_str(&format!(",\"limit\":{limit}"));
        }
        if self.stream {
            body.push_str(",\"stream\":true");
        }
        body.push('}');
        self.wire = render_request("POST", "/query", body.as_bytes());
        self.body = body;
        self
    }
}

/// A request with default options for `query`; used for the checks outside the timed list.
pub fn plain_request(query: &str) -> Req {
    Req::new(0, query.to_string()).render()
}

/// One `POST /txn` request with the updates it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub updates: Vec<Update>,
    pub body: String,
    pub wire: Vec<u8>,
}

/// How the write transactions of a run are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WritePace {
    /// Open loop beside the queries at this many transactions per second, timed from when
    /// each was due.
    Beside(f64),
    /// Closed loop after the query window, one transaction at a time.
    After,
}

/// What a workload's constructor decides; [`generate`] adds the dataset and the writes.
struct Lists {
    query_conns: usize,
    classes: Vec<String>,
    warmup: Vec<Req>,
    requests: Vec<Req>,
    pace: WritePace,
    trace_sample: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    /// Edge labels assigned to the dataset (0 keeps it unlabelled).
    pub edge_labels: u16,
    /// Keep-alive connections sending queries.
    pub query_conns: usize,
    /// Template names; `Req::class` indexes this.
    pub classes: Vec<String>,
    /// Sent once per set-up, untimed: fills the plan cache and the catalogue.
    pub warmup: Vec<Req>,
    /// The timed list. Connection `i` of `n` sends entries `i, i+n, i+2n, ...` and wraps.
    pub requests: Vec<Req>,
    pub pace: WritePace,
    pub batches: Vec<Batch>,
    /// Requests of the list replayed in process by the traced run.
    pub trace_sample: usize,
    /// The dataset the lists were drawn over (every set-up generates its own copy).
    pub graph: Arc<Graph>,
}

/// Sizes of one run, scaled down together by `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Dataset scale factor (1.0 = the profile's default size).
    pub scale: f64,
    /// Seconds of the timed window (decides how many open-loop transactions exist).
    pub seconds: f64,
    /// Hardware threads: query connections are capped at it, and it is the `threads` value
    /// of the parallel workload.
    pub nproc: usize,
}

/// The dataset of a workload with the `uid` and `score` vertex properties every workload's
/// queries and property writes use. Timed as part of set-up.
pub fn build_graph(dataset: Dataset, scale: f64, edge_labels: u16) -> Arc<Graph> {
    let base = dataset.generate(scale);
    let labelled;
    let view: &Graph = if edge_labels > 0 {
        labelled = assign_random_edge_labels(&base, edge_labels, LABEL_SEED);
        &labelled
    } else {
        &base
    };
    let mut b = GraphBuilder::from_view(view);
    for v in 0..view.num_vertices() as VertexId {
        b.set_vertex_prop(v, "uid", PropValue::Int(uid_of(v)))
            .expect("fresh int column");
        b.set_vertex_prop(v, "score", PropValue::Float(score_of(v)))
            .expect("fresh float column");
    }
    Arc::new(b.build())
}

fn uid_of(v: VertexId) -> i64 {
    100_000 + i64::from(v)
}

/// A fixed pseudo-random score in (0, 1), never integral.
fn score_of(v: VertexId) -> f64 {
    (f64::from(v.wrapping_mul(7919) % 10_007) + 0.5) / 10_007.0
}

/// Variable-name sets the point templates rotate through, so the parser sees different text
/// for the same canonical shape.
const NAMES: [[&str; 3]; 4] = [
    ["a", "b", "c"],
    ["x", "y", "z"],
    ["src", "mid", "dst"],
    ["n1", "n2", "n3"],
];

fn point_request(rng: &mut StdRng, class: usize, vertices: usize) -> Req {
    let [a, b, c] = NAMES[rng.gen_range(0..NAMES.len())];
    // Constants are drawn so that the scan meets its first qualifying rows within the first
    // hundred vertices: the executor stops after LIMIT rows, whatever the constant.
    let low_uid = uid_of(rng.gen_range(0..100.min(vertices) as u32));
    let high_uid = uid_of(rng.gen_range((vertices / 2) as u32..vertices as u32));
    let score = f64::from(rng.gen_range(3000u32..9999)) / 10_000.0;
    let query = match class {
        0 => format!("({a})->({b}), ({b})->({c}) RETURN {a}, {b}, {c} LIMIT 10"),
        1 => format!("({a})->({b}) WHERE {a}.uid >= {low_uid} RETURN {a}, {b} LIMIT 10"),
        2 => format!(
            "({a})->({b}), ({b})->({c}), ({a})->({c}) WHERE {a}.score < {score} \
             RETURN {b}, {c}, {a}.score LIMIT 10"
        ),
        3 => format!(
            "({a})->({b}), ({b})->({c}) WHERE {c}.uid <= {high_uid} \
             RETURN {a}, {c}.uid LIMIT 5"
        ),
        _ => format!(
            "({b})<-({a}), ({b})->({c}) WHERE {a}.uid >= {low_uid} AND {b}.score > 0.001 \
             RETURN {a}, {b}, {c} LIMIT 10"
        ),
    };
    Req::new(class, query).render()
}

fn point_cached(rng: &mut StdRng, sizing: Sizing, vertices: usize) -> Lists {
    let classes: Vec<String> = [
        "path3_limit",
        "edge_uid_ge",
        "tri_score_lt",
        "path3_uid_le",
        "fork_two_preds",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let n = classes.len();
    let warmup = (0..4 * n)
        .map(|i| point_request(rng, i % n, vertices))
        .collect();
    let requests = (0..2048)
        .map(|i| point_request(rng, i % n, vertices))
        .collect();
    Lists {
        query_conns: sizing.nproc.min(2),
        classes,
        warmup,
        requests,
        pace: WritePace::After,
        trace_sample: 400,
    }
}

/// The directed shape of a pattern: a random spanning tree on `n` vertices plus `extra` edges
/// between vertices not yet adjacent, each edge with a random direction.
fn random_shape(rng: &mut StdRng, n: usize, extra: usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
    let mut free: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|p| !pairs.contains(p))
        .collect();
    free.shuffle(rng);
    pairs.extend(free.into_iter().take(extra));
    pairs
        .into_iter()
        .map(|(i, j)| if rng.gen_bool(0.5) { (i, j) } else { (j, i) })
        .collect()
}

/// A shape as query text: edge labels, vertex names and clause order drawn from `rng`.
fn dress_shape(rng: &mut StdRng, shape: &[(usize, usize)], n: usize, labels: u16) -> String {
    let mut names: Vec<usize> = (0..n).collect();
    names.shuffle(rng);
    let mut clauses: Vec<String> = shape
        .iter()
        .map(|&(s, d)| {
            let label = rng.gen_range(0..labels);
            format!("(v{})-[{label}]->(v{})", names[s], names[d])
        })
        .collect();
    clauses.shuffle(rng);
    clauses.join(", ")
}

/// Seed of the stream the pattern shapes are drawn from; fixed, see [`cold_patterns`].
const SHAPE_SEED: u64 = 0xC01D;

/// `count` pairwise non-isomorphic patterns over `labels` edge labels. Sizes cycle 4, 5, 6
/// vertices (or stay at `vertices` when given) and 0, 1, 2 extra edges in a fixed order, and
/// the shapes come from a stream of their own that `rng` does not touch: what a pattern costs
/// to plan depends on its shape, so every seed sends the same shapes and only relabels,
/// renames and reorders them.
pub fn cold_patterns(
    rng: &mut StdRng,
    count: usize,
    seen: &mut HashSet<Vec<u64>>,
    vertices: Option<usize>,
    labels: u16,
) -> Vec<String> {
    let mut shapes = StdRng::seed_from_u64(SHAPE_SEED ^ seen.len() as u64);
    let mut out = Vec::with_capacity(count);
    let mut k = 0usize;
    while out.len() < count {
        let (n, extra) = (vertices.unwrap_or(4 + k % 3), (k / 3) % 3);
        let shape = random_shape(&mut shapes, n, extra);
        // A labelling that repeats an earlier pattern is redrawn; a shape whose labellings
        // are used up is skipped.
        for _ in 0..16 {
            let text = dress_shape(rng, &shape, n, labels);
            let query = parse_query(&text).expect("generated pattern parses");
            if seen.insert(canonical_code(&query).0) {
                out.push(text);
                k += 1;
                break;
            }
        }
    }
    out
}

fn cold_plan(rng: &mut StdRng, sizing: Sizing) -> Lists {
    let classes = vec!["v4".to_string(), "v5".to_string(), "v6".to_string()];
    let mut seen = HashSet::new();
    let to_req = |(k, pattern): (usize, String)| {
        let mut r = Req::new(k % 3, format!("{pattern} RETURN COUNT(*)"));
        r.limit = Some(COLD_LIMIT);
        r.render()
    };
    // The warm-up patterns fill the catalogue's sampled entries, which the first cold
    // prepares would otherwise pay for.
    let warmup = cold_patterns(rng, 48, &mut seen, None, COLD_LABELS)
        .into_iter()
        .enumerate()
        .map(to_req)
        .collect();
    let requests = cold_patterns(rng, COLD_PATTERNS, &mut seen, None, COLD_LABELS)
        .into_iter()
        .enumerate()
        .map(to_req)
        .collect();
    Lists {
        query_conns: sizing.nproc.min(2),
        classes,
        warmup,
        requests,
        pace: WritePace::After,
        trace_sample: 36,
    }
}

/// The paper's benchmark queries used by the analytic workloads, as query text.
pub const ANALYTIC_TEMPLATES: [(&str, &str); 6] = [
    ("q1", "(a)->(b), (b)->(c), (a)->(c) RETURN COUNT(*)"),
    (
        "q3",
        "(a)->(b), (a)->(c), (b)->(c), (b)->(d) RETURN COUNT(*)",
    ),
    (
        "q4",
        "(a)->(b), (a)->(c), (b)->(c), (b)->(d), (c)->(d) RETURN COUNT(*)",
    ),
    (
        "q5",
        "(b)->(c), (c)->(b), (b)->(a), (c)->(a), (b)->(d), (c)->(d) RETURN COUNT(*)",
    ),
    (
        "q6",
        "(a)->(b), (a)->(c), (a)->(d), (b)->(c), (b)->(d), (c)->(d) RETURN COUNT(*)",
    ),
    (
        "q1_group",
        "(a)->(b), (b)->(c), (a)->(c) RETURN a, COUNT(*) ORDER BY COUNT(*) DESC, a LIMIT 10",
    ),
];

/// Rounds of the timed list of the workloads with a handful of fixed requests.
const ROUNDS: usize = 8;

/// `ROUNDS` copies of `variants`, each shuffled on its own, so every stretch of the run holds
/// the same mix.
fn shuffled_rounds(rng: &mut StdRng, variants: &[Req]) -> Vec<Req> {
    let mut requests = Vec::with_capacity(variants.len() * ROUNDS);
    for _ in 0..ROUNDS {
        let mut round = variants.to_vec();
        round.shuffle(rng);
        requests.extend(round);
    }
    requests
}

/// Every analytic template with `adaptive` off and on, in seeded order.
fn analytic_mix(rng: &mut StdRng) -> (Vec<String>, Vec<Req>, Vec<Req>) {
    let classes = ANALYTIC_TEMPLATES
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    let variants: Vec<Req> = ANALYTIC_TEMPLATES
        .iter()
        .enumerate()
        .flat_map(|(class, (_, text))| {
            [false, true].map(|adaptive| {
                let mut r = Req::new(class, text.to_string());
                r.adaptive = adaptive;
                r.render()
            })
        })
        .collect();
    let requests = shuffled_rounds(rng, &variants);
    (classes, variants, requests)
}

fn analytic_count(rng: &mut StdRng, sizing: Sizing) -> Lists {
    let (classes, warmup, requests) = analytic_mix(rng);
    Lists {
        query_conns: sizing.nproc.min(2),
        classes,
        warmup,
        requests,
        pace: WritePace::After,
        trace_sample: 24,
    }
}

fn analytic_parallel(rng: &mut StdRng, sizing: Sizing) -> Lists {
    let picks = [0usize, 4, 5]; // q1, q6, q1_group
    let classes: Vec<String> = picks
        .iter()
        .map(|&i| ANALYTIC_TEMPLATES[i].0.to_string())
        .collect();
    let variants: Vec<Req> = picks
        .iter()
        .enumerate()
        .map(|(class, &i)| {
            let mut r = Req::new(class, ANALYTIC_TEMPLATES[i].1.to_string());
            r.threads = sizing.nproc;
            r.render()
        })
        .collect();
    let requests = shuffled_rounds(rng, &variants);
    Lists {
        query_conns: 1,
        classes,
        warmup: variants,
        requests,
        pace: WritePace::After,
        trace_sample: 3,
    }
}

fn stream_export(rng: &mut StdRng, sizing: Sizing) -> Lists {
    let classes = vec!["ids".to_string(), "id_and_score".to_string()];
    let variants: Vec<Req> = [
        "(a)->(b), (b)->(c) RETURN a, b, c",
        "(a)->(b), (b)->(c) RETURN a, b.score",
    ]
    .iter()
    .enumerate()
    .map(|(class, text)| {
        let mut r = Req::new(class, text.to_string());
        r.stream = true;
        r.render()
    })
    .collect();
    let requests = shuffled_rounds(rng, &variants);
    Lists {
        query_conns: sizing.nproc.min(2),
        classes,
        warmup: variants,
        requests,
        pace: WritePace::After,
        trace_sample: 2,
    }
}

fn mixed_ingest(rng: &mut StdRng) -> Lists {
    let (classes, warmup, requests) = analytic_mix(rng);
    Lists {
        query_conns: 1,
        classes,
        warmup,
        requests,
        pace: WritePace::Beside(INGEST_RATE),
        trace_sample: 12,
    }
}

fn update_json(u: &Update) -> String {
    match u {
        Update::InsertEdge { src, dst, label } => format!(
            "{{\"op\":\"insert_edge\",\"src\":{src},\"dst\":{dst},\"label\":{}}}",
            label.0
        ),
        Update::DeleteEdge { src, dst, label } => format!(
            "{{\"op\":\"delete_edge\",\"src\":{src},\"dst\":{dst},\"label\":{}}}",
            label.0
        ),
        Update::SetVertexProp { v, key, value } => {
            let mut out = format!(
                "{{\"op\":\"set_vertex_prop\",\"v\":{v},\"key\":{},\"value\":",
                graphflow_core::json::quote(key)
            );
            graphflow_core::json::write_value(&mut out, &Some(value.clone()));
            out.push('}');
            out
        }
        other => unreachable!("the generator does not emit {other:?}"),
    }
}

/// Batches between an edge's insertion and its deletion. Far more updates than a compaction
/// cycle holds, so the insert has been folded into the base graph by the time its delete
/// arrives and the two do not cancel in the delta store.
const DELETE_LAG: usize = 300;

/// `count` write transactions over `graph`, each ten edge inserts, ten edge deletes and four
/// `score` writes. Inserts are random pairs; deletes take back what the batch [`DELETE_LAG`]
/// places earlier inserted, and base edges (each at most once) until then — so after the first
/// `DELETE_LAG` batches the graph keeps its size while the updates keep coming. Whether an
/// update changes the graph is for the oracle to say; nothing here needs it to.
pub fn write_batches(rng: &mut StdRng, graph: &Graph, count: usize) -> Vec<Batch> {
    let n = graph.num_vertices() as VertexId;
    let labels = graph.num_edge_labels().max(1);
    let mut base: Vec<(VertexId, VertexId, EdgeLabel)> = graph.edges().to_vec();
    base.shuffle(rng);
    let mut inserted: Vec<Vec<(VertexId, VertexId, EdgeLabel)>> = Vec::with_capacity(count);
    let mut batches = Vec::with_capacity(count);
    for i in 0..count {
        let fresh: Vec<(VertexId, VertexId, EdgeLabel)> = (0..10)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                (src, dst, EdgeLabel(rng.gen_range(0..labels)))
            })
            .collect();
        let stale: Vec<(VertexId, VertexId, EdgeLabel)> = match i.checked_sub(DELETE_LAG) {
            Some(earlier) => inserted[earlier].clone(),
            None => base.split_off(base.len().saturating_sub(10)),
        };
        let mut updates = Vec::with_capacity(BATCH_UPDATES);
        for (slot, &(src, dst, label)) in fresh.iter().enumerate() {
            updates.push(Update::InsertEdge { src, dst, label });
            if let Some(&(src, dst, label)) = stale.get(slot) {
                updates.push(Update::DeleteEdge { src, dst, label });
            }
        }
        while updates.len() < BATCH_UPDATES {
            updates.push(Update::SetVertexProp {
                v: rng.gen_range(0..n),
                key: "score".to_string(),
                // Never integral, so the wire decodes it as a float like the column.
                value: PropValue::Float((f64::from(rng.gen_range(0..9999u32)) + 0.5) / 10_000.0),
            });
        }
        inserted.push(fresh);
        let parts: Vec<String> = updates.iter().map(update_json).collect();
        let body = format!("{{\"updates\":[{}]}}", parts.join(","));
        let wire = render_request("POST", "/txn", body.as_bytes());
        batches.push(Batch {
            updates,
            body,
            wire,
        });
    }
    batches
}

/// Dataset profile, size relative to the run's scale, and edge-label count of a workload.
pub fn dataset_of(name: &str) -> Option<(Dataset, f64, u16)> {
    Some(match name {
        "point_cached" | "stream_export" => (Dataset::Amazon, 1.0, 0),
        "cold_plan" => (Dataset::Amazon, 1.0, COLD_LABELS),
        "analytic_count" => (Dataset::Epinions, 1.0, 0),
        // Half the graph: automatic compaction comes at max(E/2, 4096) pending updates, so
        // the writer's fixed rate completes about five compaction cycles in a window, and the
        // reads are short enough for every template to sample every phase of a cycle.
        "mixed_ingest" => (Dataset::Epinions, 0.5, 0),
        "analytic_parallel" => (Dataset::LiveJournal, 1.0, 0),
        _ => return None,
    })
}

/// Build a workload's request and transaction lists from the seed.
pub fn generate(name: &str, seed: u64, sizing: Sizing) -> Option<Workload> {
    // Each workload gets its own stream, so adding a workload does not change the others.
    let index = WORKLOADS.iter().position(|(n, _)| *n == name)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64);
    let (dataset, relative, edge_labels) = dataset_of(name)?;
    let sizing = Sizing {
        scale: sizing.scale * relative,
        ..sizing
    };
    let graph = build_graph(dataset, sizing.scale, edge_labels);
    let lists = match name {
        "point_cached" => point_cached(&mut rng, sizing, graph.num_vertices()),
        "cold_plan" => cold_plan(&mut rng, sizing),
        "analytic_count" => analytic_count(&mut rng, sizing),
        "analytic_parallel" => analytic_parallel(&mut rng, sizing),
        "stream_export" => stream_export(&mut rng, sizing),
        "mixed_ingest" => mixed_ingest(&mut rng),
        _ => return None,
    };
    let txns = match lists.pace {
        WritePace::Beside(rate) => (rate * sizing.seconds).round().max(1.0) as usize,
        WritePace::After => PROBE_TXNS,
    };
    let batches = write_batches(&mut rng, &graph, txns);
    Some(Workload {
        name: WORKLOADS[index].0,
        dataset,
        scale: sizing.scale,
        edge_labels,
        query_conns: lists.query_conns,
        classes: lists.classes,
        warmup: lists.warmup,
        requests: lists.requests,
        pace: lists.pace,
        batches,
        trace_sample: lists.trace_sample,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_query::canonical::are_isomorphic;

    const SIZING: Sizing = Sizing {
        scale: 0.25,
        seconds: 1.0,
        nproc: 2,
    };

    fn wire_bytes(w: &Workload) -> Vec<u8> {
        let mut all = Vec::new();
        for r in w.warmup.iter().chain(&w.requests) {
            all.extend_from_slice(&r.wire);
        }
        for b in &w.batches {
            all.extend_from_slice(&b.wire);
        }
        all
    }

    #[test]
    fn the_same_seed_gives_byte_identical_lists_and_another_seed_does_not() {
        for (name, _) in WORKLOADS {
            let a = generate(name, 7, SIZING).unwrap();
            let b = generate(name, 7, SIZING).unwrap();
            let c = generate(name, 8, SIZING).unwrap();
            assert_eq!(wire_bytes(&a), wire_bytes(&b), "{name}");
            assert_ne!(wire_bytes(&a), wire_bytes(&c), "{name}");
            assert!(!a.requests.is_empty() && !a.warmup.is_empty() && !a.batches.is_empty());
            assert!(a.trace_sample <= a.requests.len(), "{name}");
            assert!(
                a.requests.iter().all(|r| r.class < a.classes.len()),
                "{name}"
            );
        }
        assert!(generate("no_such_workload", 1, SIZING).is_none());
    }

    #[test]
    fn every_generated_query_parses_and_every_body_is_json() {
        for (name, _) in WORKLOADS {
            let w = generate(name, 3, SIZING).unwrap();
            for r in w.warmup.iter().chain(&w.requests) {
                parse_query(&r.query).unwrap_or_else(|e| panic!("{name}: {} -> {e}", r.query));
                let json = graphflow_core::json::Json::parse(&r.body).unwrap();
                assert_eq!(
                    json.get("query").and_then(|q| q.as_str()),
                    Some(r.query.as_str())
                );
            }
            for b in &w.batches {
                assert_eq!(b.updates.len(), BATCH_UPDATES);
                let json = graphflow_core::json::Json::parse(&b.body).unwrap();
                assert_eq!(
                    json.get("updates").unwrap().as_array().unwrap().len(),
                    BATCH_UPDATES
                );
            }
        }
    }

    #[test]
    fn cold_plan_patterns_are_pairwise_non_isomorphic() {
        let w = generate("cold_plan", 11, SIZING).unwrap();
        assert_eq!(w.requests.len(), COLD_PATTERNS);
        // The generator de-duplicates on canonical codes; check it with the independent
        // pairwise test over the warm-up and the head of the timed list.
        let graphs: Vec<_> = w
            .warmup
            .iter()
            .chain(w.requests.iter().take(72))
            .map(|r| parse_query(&r.query).unwrap())
            .collect();
        for i in 0..graphs.len() {
            for j in i + 1..graphs.len() {
                assert!(!are_isomorphic(&graphs[i], &graphs[j]), "{i} ~ {j}");
            }
        }
        let codes: HashSet<_> = w
            .warmup
            .iter()
            .chain(&w.requests)
            .map(|r| canonical_code(&parse_query(&r.query).unwrap()))
            .collect();
        assert_eq!(codes.len(), w.warmup.len() + w.requests.len());
        // Sizes cycle 4, 5, 6 whatever the seed.
        for (k, r) in w.requests.iter().enumerate() {
            assert_eq!(parse_query(&r.query).unwrap().num_vertices(), 4 + k % 3);
        }
    }

    #[test]
    fn the_open_loop_writer_is_sized_by_the_window() {
        let one = generate("mixed_ingest", 1, SIZING).unwrap();
        assert_eq!(one.batches.len(), INGEST_RATE as usize);
        let three = generate(
            "mixed_ingest",
            1,
            Sizing {
                seconds: 3.0,
                ..SIZING
            },
        )
        .unwrap();
        assert_eq!(three.batches.len(), 3 * INGEST_RATE as usize);
        assert_eq!(one.batches[..], three.batches[..one.batches.len()]);
    }

    #[test]
    fn dataset_properties_are_typed_and_never_integral() {
        let g = build_graph(Dataset::Amazon, 0.1, 3);
        assert_eq!(g.num_edge_labels(), 3);
        for v in [0u32, 1, 17, g.num_vertices() as u32 - 1] {
            assert_eq!(
                g.vertex_prop(v, "uid"),
                Some(PropValue::Int(100_000 + i64::from(v)))
            );
            match g.vertex_prop(v, "score") {
                Some(PropValue::Float(x)) => assert!(x > 0.0 && x < 1.0 && x.fract() != 0.0),
                other => panic!("score of {v} is {other:?}"),
            }
        }
    }
}
