//! Differential tests for typed-property predicate pushdown.
//!
//! The executable property of the whole predicate subsystem is simple: **pushing predicates
//! into the pipeline must not change what a query returns** — it may only make execution
//! cheaper. This harness checks exactly that, at scale, against a naive oracle:
//!
//! * random graphs with random typed vertex/edge properties (with plenty of missing values),
//! * random pattern queries with random `WHERE` clauses,
//! * executed under every executor setting (fixed/adaptive × 1/4 workers) with pushdown,
//! * compared tuple-for-tuple against *match the bare pattern, then post-filter with
//!   [`Predicate::eval`]* — the reference semantics,
//! * on both frozen CSRs and dirty snapshots mid-way through random update sequences.
//!
//! A final test asserts the pushdown is real: a selective predicate must drop tuples early
//! (`predicate_drops > 0`) and shrink intermediate results versus the unfiltered run.

use graphflow_rs::graph::{EdgeLabel, GraphBuilder, PropValue, VertexLabel};
use graphflow_rs::query::QueryGraph;
use graphflow_rs::{GraphflowDB, QueryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One pattern template: the textual pattern plus the variables a WHERE clause may reference.
struct Template {
    pattern: &'static str,
    vertex_vars: &'static [&'static str],
    edge_vars: &'static [&'static str],
}

const TEMPLATES: &[Template] = &[
    Template {
        pattern: "(a)-[e1]->(b)",
        vertex_vars: &["a", "b"],
        edge_vars: &["e1"],
    },
    Template {
        pattern: "(a)-[e1]->(b), (b)-[e2]->(c)",
        vertex_vars: &["a", "b", "c"],
        edge_vars: &["e1", "e2"],
    },
    Template {
        pattern: "(a)-[e1]->(b), (b)-[e2]->(a)",
        vertex_vars: &["a", "b"],
        edge_vars: &["e1", "e2"],
    },
    Template {
        pattern: "(a)-[e1]->(b), (b)-[e2]->(c), (a)-[e3]->(c)",
        vertex_vars: &["a", "b", "c"],
        edge_vars: &["e1", "e2", "e3"],
    },
    Template {
        pattern: "(a)-[e1]->(b), (a)-[e2]->(c), (b)-[e3]->(c), (b)-[e4]->(d), (c)-[e5]->(d)",
        vertex_vars: &["a", "b", "c", "d"],
        edge_vars: &["e1", "e2", "e3", "e4", "e5"],
    },
];

const STRINGS: &[&str] = &["red", "blue", "green", "purple"];

fn rand_float(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u32..1000) as f64 / 1000.0
}

/// A random property graph: vertices carry `age`/`score`/`flag`/`tag` and edges carry
/// `w`/`cnt`, each with deliberate gaps so missing-property semantics get exercised.
fn random_db(rng: &mut StdRng) -> GraphflowDB {
    let n: u32 = rng.gen_range(25u32..50);
    let m = rng.gen_range(2 * n..3 * n);
    let num_edge_labels: u16 = rng.gen_range(1u16..3);
    let mut b = GraphBuilder::with_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.add_labelled_edge(s, d, EdgeLabel(rng.gen_range(0..num_edge_labels)));
        }
    }
    for v in 0..n {
        if rng.gen_bool(0.8) {
            b.set_vertex_prop(v, "age", PropValue::Int(rng.gen_range(0u32..100) as i64))
                .unwrap();
        }
        if rng.gen_bool(0.7) {
            b.set_vertex_prop(v, "score", PropValue::Float(rand_float(rng)))
                .unwrap();
        }
        if rng.gen_bool(0.5) {
            b.set_vertex_prop(v, "flag", PropValue::Bool(rng.gen_bool(0.5)))
                .unwrap();
        }
        if rng.gen_bool(0.6) {
            let tag = STRINGS[rng.gen_range(0..STRINGS.len())];
            b.set_vertex_prop(v, "tag", PropValue::str(tag)).unwrap();
        }
    }
    let edges: Vec<_> = b.clone().build().edges().to_vec();
    for (s, d, l) in edges {
        if rng.gen_bool(0.8) {
            b.set_edge_prop(s, d, l, "w", PropValue::Float(rand_float(rng)))
                .unwrap();
        }
        if rng.gen_bool(0.4) {
            b.set_edge_prop(
                s,
                d,
                l,
                "cnt",
                PropValue::Int(rng.gen_range(0u32..10) as i64),
            )
            .unwrap();
        }
    }
    GraphflowDB::from_graph(b.build())
}

/// A random comparison over one of the template's variables, written in query syntax.
fn random_comparison(rng: &mut StdRng, t: &Template) -> String {
    let ops = ["<", "<=", ">", ">=", "=", "!="];
    let op = ops[rng.gen_range(0..ops.len())];
    let on_vertex = t.edge_vars.is_empty() || rng.gen_bool(0.6);
    if on_vertex {
        let var = t.vertex_vars[rng.gen_range(0..t.vertex_vars.len())];
        match rng.gen_range(0u32..4) {
            0 => format!("{var}.age {op} {}", rng.gen_range(0u32..100)),
            1 => format!("{var}.score {op} {}", PropValue::Float(rand_float(rng))),
            2 => format!(
                "{var}.flag {} {}",
                if rng.gen_bool(0.5) { "=" } else { "!=" },
                rng.gen_bool(0.5)
            ),
            _ => format!(
                "{var}.tag {} \"{}\"",
                if rng.gen_bool(0.5) { "=" } else { op },
                STRINGS[rng.gen_range(0..STRINGS.len())]
            ),
        }
    } else {
        let var = t.edge_vars[rng.gen_range(0..t.edge_vars.len())];
        if rng.gen_bool(0.7) {
            format!("{var}.w {op} {}", PropValue::Float(rand_float(rng)))
        } else {
            format!("{var}.cnt {op} {}", rng.gen_range(0u32..10))
        }
    }
}

/// Match the bare pattern, then post-filter full tuples with the reference predicate
/// semantics — the oracle every pushdown execution must reproduce exactly.
fn oracle_tuples(db: &GraphflowDB, q: &QueryGraph, pattern_only: &str) -> Vec<Vec<u32>> {
    let unfiltered = db
        .run(
            pattern_only,
            QueryOptions::new()
                .collect_tuples(true)
                .collect_limit(usize::MAX),
        )
        .unwrap();
    let snapshot = db.snapshot();
    let mut tuples: Vec<Vec<u32>> = unfiltered
        .tuples
        .into_iter()
        .filter(|t| q.predicates().iter().all(|p| p.eval(q, t, &snapshot)))
        .collect();
    tuples.sort_unstable();
    tuples
}

/// Run `query` through every executor with pushdown and compare against the oracle.
/// Returns the number of matches (so callers can keep coverage statistics).
fn check_case(db: &GraphflowDB, query: &str, context: &str) -> usize {
    let q = db.parse(query).unwrap();
    assert!(
        q.has_predicates(),
        "harness always generates a WHERE clause"
    );
    let pattern_only = query.split(" WHERE ").next().unwrap();
    let expected = oracle_tuples(db, &q, pattern_only);

    for (name, options) in [
        ("serial", QueryOptions::new()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("parallel", QueryOptions::new().threads(4)),
        (
            "adaptive-parallel",
            QueryOptions::new().adaptive(true).threads(4),
        ),
    ] {
        let out = db
            .run(
                query,
                options.collect_tuples(true).collect_limit(usize::MAX),
            )
            .unwrap();
        let mut got = out.tuples.clone();
        got.sort_unstable();
        assert_eq!(
            got, expected,
            "{context}: {name} pushdown of {query} disagrees with the post-filter oracle"
        );
        assert_eq!(
            out.count as usize,
            expected.len(),
            "{context}: {name} count"
        );
    }
    expected.len()
}

/// Apply a random burst of structural and property updates, leaving the snapshot dirty.
fn random_updates(db: &mut GraphflowDB, rng: &mut StdRng) {
    let ops = rng.gen_range(8usize..16);
    for _ in 0..ops {
        let n = db.snapshot().base().num_vertices() as u32 + 2;
        match rng.gen_range(0u32..5) {
            0 => {
                let v = db
                    .insert_vertex_with_props(
                        VertexLabel(0),
                        &[("age", PropValue::Int(rng.gen_range(0u32..100) as i64))],
                    )
                    .unwrap();
                let to = rng.gen_range(0..n);
                db.insert_edge(v, to, EdgeLabel(0));
            }
            1 => {
                db.insert_edge(rng.gen_range(0..n), rng.gen_range(0..n), EdgeLabel(0));
            }
            2 => {
                let edges = db.graph().edges().to_vec();
                if !edges.is_empty() {
                    let (s, d, l) = edges[rng.gen_range(0..edges.len())];
                    db.delete_edge(s, d, l);
                }
            }
            3 => {
                let v = rng.gen_range(0..db.snapshot().base().num_vertices() as u32);
                let value = match rng.gen_range(0u32..2) {
                    0 => PropValue::Int(rng.gen_range(0u32..100) as i64),
                    _ => PropValue::Int(-5),
                };
                let _ = db.set_vertex_prop(v, "age", value);
            }
            _ => {
                let edges = db.graph().edges().to_vec();
                if !edges.is_empty() {
                    let (s, d, l) = edges[rng.gen_range(0..edges.len())];
                    let _ = db.set_edge_prop(s, d, l, "w", PropValue::Float(rand_float(rng)));
                }
            }
        }
    }
    assert!(
        db.snapshot().has_pending_deltas() || db.graph_version() > 0,
        "updates applied"
    );
}

/// The differential harness: >= 200 randomized (graph, properties, query) cases under every
/// executor setting, on frozen and dirty snapshots.
#[test]
fn pushdown_matches_post_filter_oracle() {
    let mut cases = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xF11 + seed);
        let mut db = random_db(&mut rng);
        let mut queries = Vec::new();
        for _ in 0..4 {
            let t = &TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
            let num_preds = rng.gen_range(1usize..4);
            let clause: Vec<String> = (0..num_preds)
                .map(|_| random_comparison(&mut rng, t))
                .collect();
            queries.push(format!("{} WHERE {}", t.pattern, clause.join(" AND ")));
        }
        // Frozen CSR.
        for query in &queries {
            if check_case(&db, query, &format!("seed {seed} frozen")) > 0 {
                nonempty += 1;
            }
            cases += 1;
        }
        // Dirty snapshot mid-way through a random update sequence.
        random_updates(&mut db, &mut rng);
        for query in &queries {
            if check_case(&db, query, &format!("seed {seed} dirty")) > 0 {
                nonempty += 1;
            }
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} differential cases were run");
    assert!(
        nonempty >= cases / 10,
        "too many vacuous cases ({nonempty}/{cases} non-empty): selectivities are off"
    );
}

/// Pushdown is not post-filtering in disguise: a selective predicate must drop candidates
/// before they expand (`predicate_drops > 0`) and must shrink the intermediate result stream
/// relative to the unfiltered run of the same pattern.
#[test]
fn pushdown_filters_early_not_late() {
    let mut b = GraphBuilder::new();
    // A dense-ish random graph with ages striped across vertices.
    let mut rng = StdRng::seed_from_u64(99);
    let n = 120u32;
    for _ in 0..6 * n {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.add_edge(s, d);
        }
    }
    for v in 0..n {
        b.set_vertex_prop(v, "age", PropValue::Int(v as i64))
            .unwrap();
    }
    let db = GraphflowDB::from_graph(b.build());
    let pattern = "(a)->(b), (b)->(c), (a)->(c)";
    let unfiltered = db.run(pattern, QueryOptions::new()).unwrap();
    assert!(unfiltered.count > 0, "graph must contain triangles");

    let filtered = db
        .run(&format!("{pattern} WHERE a.age < 6"), QueryOptions::new())
        .unwrap();
    assert!(filtered.count < unfiltered.count);
    assert!(
        filtered.stats.predicate_drops > 0,
        "the plan must demonstrably filter at scan/extend time"
    );
    assert!(
        filtered.stats.intermediate_tuples < unfiltered.stats.intermediate_tuples,
        "pushdown must shrink intermediates: filtered {} vs unfiltered {}",
        filtered.stats.intermediate_tuples,
        unfiltered.stats.intermediate_tuples
    );
    // And it still returns exactly the right answer.
    let q = db.parse(&format!("{pattern} WHERE a.age < 6")).unwrap();
    let expected = {
        let all = db
            .run(
                pattern,
                QueryOptions::new()
                    .collect_tuples(true)
                    .collect_limit(usize::MAX),
            )
            .unwrap();
        let snap = db.snapshot();
        all.tuples
            .iter()
            .filter(|t| q.predicates().iter().all(|p| p.eval(&q, t, &snap)))
            .count() as u64
    };
    assert_eq!(filtered.count, expected);
}
