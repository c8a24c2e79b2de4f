//! Differential tests for `RETURN`-clause streaming aggregation.
//!
//! The executable property of the aggregation subsystem: **folding aggregates incrementally
//! over the match stream (and merging thread-local partials at the parallel barrier) must
//! produce exactly what a naive collect-then-aggregate evaluation produces.** This harness
//! checks that against an independent batch oracle:
//!
//! * random property graphs (float properties drawn from dyadic rationals, so float sums are
//!   exact and independent of fold/merge order),
//! * random `RETURN` clauses — projections, `DISTINCT`, grouped `COUNT`/`SUM`/`MIN`/`MAX`/
//!   `AVG` (with and without `DISTINCT` operands), `ORDER BY`, `LIMIT`, top-K — over random
//!   patterns with random `WHERE` clauses,
//! * executed under every executor setting (fixed/adaptive × 1/4 workers, with thread-local partial
//!   aggregates),
//! * compared against *collect every match tuple, then aggregate in one batch*,
//! * on frozen CSRs and on dirty snapshots mid-way through random update sequences.
//!
//! A final test pins the acceptance criterion for the `COUNT(*)` fast path: identical counts
//! across executors with `bulk_counted_extensions > 0`, i.e. no per-match tuple allocation.

use graphflow_rs::core::GraphSnapshot;
use graphflow_rs::graph::{EdgeLabel, GraphBuilder, GraphView as _, PropValue, VertexLabel};
use graphflow_rs::query::returns::{AggFunc, ReturnClause, ReturnExpr, SortDir};
use graphflow_rs::query::QueryGraph;
use graphflow_rs::{GraphflowDB, QueryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

type Row = Vec<Option<PropValue>>;

/// A dyadic rational in [0, 1): exactly representable, so sums are order-independent.
fn rand_float(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u32..64) as f64 / 64.0
}

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

/// Random property graph: `age` (int, gappy), `score` (dyadic float, gappy) on vertices,
/// `w` (dyadic float, gappy) on edges.
fn random_db(rng: &mut StdRng) -> GraphflowDB {
    let n: u32 = rng.gen_range(20u32..40);
    let m = rng.gen_range(2 * n..3 * n);
    let mut b = GraphBuilder::with_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.add_edge(s, d);
        }
    }
    for v in 0..n {
        if rng.gen_bool(0.8) {
            b.set_vertex_prop(v, "age", PropValue::Int(rng.gen_range(0u32..8) as i64))
                .unwrap();
        }
        if rng.gen_bool(0.7) {
            b.set_vertex_prop(v, "score", PropValue::Float(rand_float(rng)))
                .unwrap();
        }
    }
    let edges: Vec<_> = b.clone().build().edges().to_vec();
    for (s, d, l) in edges {
        if rng.gen_bool(0.8) {
            b.set_edge_prop(s, d, l, "w", PropValue::Float(rand_float(rng)))
                .unwrap();
        }
    }
    GraphflowDB::from_graph(b.build())
}

/// A random `RETURN` item operand, in query text.
fn random_operand(rng: &mut StdRng, t: &Template) -> String {
    match rng.gen_range(0u32..4) {
        0 => t.vertex_vars[rng.gen_range(0..t.vertex_vars.len())].to_string(),
        1 => format!(
            "{}.age",
            t.vertex_vars[rng.gen_range(0..t.vertex_vars.len())]
        ),
        2 => format!(
            "{}.score",
            t.vertex_vars[rng.gen_range(0..t.vertex_vars.len())]
        ),
        _ => format!("{}.w", t.edge_vars[rng.gen_range(0..t.edge_vars.len())]),
    }
}

/// A random `RETURN` clause in query text: a projection or a (possibly grouped) aggregation,
/// with random `DISTINCT` / `ORDER BY` / `LIMIT` modifiers.
fn random_return(rng: &mut StdRng, t: &Template) -> String {
    let aggregate = rng.gen_bool(0.6);
    let mut items: Vec<String> = Vec::new();
    if aggregate {
        for _ in 0..rng.gen_range(0usize..2) {
            items.push(random_operand(rng, t)); // group keys
        }
        for _ in 0..rng.gen_range(1usize..3) {
            let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
            let item = match rng.gen_range(0u32..5) {
                0 if distinct.is_empty() => "COUNT(*)".to_string(),
                0 | 1 => format!("COUNT({distinct}{})", random_operand(rng, t)),
                2 => format!("SUM({distinct}{})", random_operand(rng, t)),
                3 => format!("MIN({distinct}{})", random_operand(rng, t)),
                _ => format!("AVG({distinct}{})", random_operand(rng, t)),
            };
            items.push(item);
        }
    } else {
        let distinct = if rng.gen_bool(0.4) { "DISTINCT " } else { "" };
        for _ in 0..rng.gen_range(1usize..3) {
            items.push(random_operand(rng, t));
        }
        items.dedup();
        let mut clause = format!("RETURN {distinct}{}", items.join(", "));
        if rng.gen_bool(0.5) {
            let dir = if rng.gen_bool(0.5) { " DESC" } else { "" };
            clause.push_str(&format!(
                " ORDER BY {}{dir}",
                items[rng.gen_range(0..items.len())]
            ));
            if rng.gen_bool(0.7) {
                clause.push_str(&format!(" LIMIT {}", rng.gen_range(1u32..8)));
            }
        }
        return clause;
    }
    let mut clause = format!("RETURN {}", items.join(", "));
    if rng.gen_bool(0.4) {
        let dir = if rng.gen_bool(0.5) { " DESC" } else { "" };
        clause.push_str(&format!(
            " ORDER BY {}{dir}",
            items[rng.gen_range(0..items.len())]
        ));
        if rng.gen_bool(0.5) {
            clause.push_str(&format!(" LIMIT {}", rng.gen_range(1u32..5)));
        }
    }
    clause
}

// --- the batch oracle -----------------------------------------------------------------------

fn extract(
    snap: &GraphSnapshot,
    q: &QueryGraph,
    expr: &ReturnExpr,
    t: &[u32],
) -> Option<PropValue> {
    match expr {
        ReturnExpr::Star => None,
        ReturnExpr::Vertex(v) => Some(PropValue::Int(t[*v] as i64)),
        ReturnExpr::VertexProp(v, key) => snap.vertex_prop(t[*v], key),
        ReturnExpr::EdgeProp(e, key) => {
            let edge = q.edges()[*e];
            snap.edge_prop(t[edge.src], t[edge.dst], edge.label, key)
        }
    }
}

/// The same value comparison the engine folds MIN/MAX with: numeric coercion first, canonical
/// total order for incomparable types — and again as the tiebreak when coercion calls two
/// distinct values equal (`Int(3)` vs `Float(3.0)`), so results are fold-order independent.
fn val_cmp(a: &PropValue, b: &PropValue) -> Ordering {
    match a.compare(b) {
        Some(Ordering::Equal) | None => a.cmp(b),
        Some(ord) => ord,
    }
}

fn batch_agg(
    func: AggFunc,
    distinct: bool,
    star: bool,
    mut values: Vec<Option<PropValue>>,
) -> Option<PropValue> {
    if star {
        return Some(PropValue::Int(values.len() as i64));
    }
    let mut present: Vec<PropValue> = values.drain(..).flatten().collect();
    if distinct {
        let mut uniq: Vec<PropValue> = Vec::new();
        for v in present {
            if !uniq.contains(&v) {
                uniq.push(v);
            }
        }
        present = uniq;
    }
    match func {
        AggFunc::Count => Some(PropValue::Int(present.len() as i64)),
        AggFunc::Sum => {
            let mut int = 0i64;
            let mut float = 0.0f64;
            let mut floaty = false;
            for v in present {
                match v {
                    PropValue::Int(i) => int += i,
                    PropValue::Float(f) => {
                        float += f;
                        floaty = true;
                    }
                    _ => {}
                }
            }
            Some(if floaty {
                PropValue::Float(int as f64 + float)
            } else {
                PropValue::Int(int)
            })
        }
        AggFunc::Min => present.into_iter().min_by(val_cmp),
        AggFunc::Max => present.into_iter().max_by(val_cmp),
        AggFunc::Avg => {
            let nums: Vec<f64> = present
                .iter()
                .filter_map(|v| match v {
                    PropValue::Int(i) => Some(*i as f64),
                    PropValue::Float(f) => Some(*f),
                    _ => None,
                })
                .collect();
            (!nums.is_empty())
                .then(|| PropValue::Float(nums.iter().sum::<f64>() / nums.len() as f64))
        }
    }
}

fn cmp_rows(a: &Row, b: &Row, clause: &ReturnClause) -> Ordering {
    for key in &clause.order_by {
        let ord = a[key.item].cmp(&b[key.item]);
        let ord = match key.dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(b)
}

/// Collect-then-aggregate: the reference evaluation the streaming sinks must reproduce.
fn oracle(
    snap: &GraphSnapshot,
    q: &QueryGraph,
    clause: &ReturnClause,
    tuples: &[Vec<u32>],
) -> Vec<Row> {
    let items = &clause.items;
    let mut rows: Vec<Row>;
    if clause.has_aggregates() {
        let key_idx: Vec<usize> = (0..items.len())
            .filter(|&i| items[i].agg.is_none())
            .collect();
        // group key -> the tuples of the group
        let mut groups: Vec<(Row, Vec<&Vec<u32>>)> = Vec::new();
        for t in tuples {
            let key: Row = key_idx
                .iter()
                .map(|&i| extract(snap, q, &items[i].expr, t))
                .collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, ts)) => ts.push(t),
                None => groups.push((key, vec![t])),
            }
        }
        if key_idx.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        rows = groups
            .into_iter()
            .map(|(key, ts)| {
                let mut row: Row = vec![None; items.len()];
                for (slot, v) in key_idx.iter().zip(key) {
                    row[*slot] = v;
                }
                for (i, item) in items.iter().enumerate() {
                    if let Some(func) = item.agg {
                        let star = matches!(item.expr, ReturnExpr::Star);
                        let values: Vec<Option<PropValue>> = ts
                            .iter()
                            .map(|t| {
                                if star {
                                    None
                                } else {
                                    extract(snap, q, &item.expr, t)
                                }
                            })
                            .collect();
                        row[i] = batch_agg(func, item.distinct, star, values);
                    }
                }
                row
            })
            .collect();
        if clause.order_by.is_empty() {
            rows.sort_unstable();
        } else {
            rows.sort_unstable_by(|a, b| cmp_rows(a, b, clause));
        }
    } else {
        rows = tuples
            .iter()
            .map(|t| {
                items
                    .iter()
                    .map(|i| extract(snap, q, &i.expr, t))
                    .collect::<Row>()
            })
            .collect();
        if clause.distinct {
            let mut uniq: Vec<Row> = Vec::new();
            for r in rows {
                if !uniq.contains(&r) {
                    uniq.push(r);
                }
            }
            rows = uniq;
        }
        if !clause.order_by.is_empty() {
            rows.sort_unstable_by(|a, b| cmp_rows(a, b, clause));
        }
    }
    if let Some(limit) = clause.limit {
        rows.truncate(limit as usize);
    }
    rows
}

/// Run one query under every executor setting and compare against the batch oracle.
fn check_case(db: &GraphflowDB, query: &str, context: &str) -> usize {
    let q = db.parse(query).unwrap();
    let clause = q.return_clause().cloned().unwrap();
    // The raw (WHERE-filtered) match tuples, via the pre-RETURN collection path.
    let all = db
        .run(
            query,
            QueryOptions::new()
                .collect_tuples(true)
                .collect_limit(usize::MAX),
        )
        .unwrap();
    let snap = db.snapshot();
    let expected = oracle(&snap, &q, &clause, &all.tuples);

    let deterministic = clause.has_aggregates() || !clause.order_by.is_empty();
    for (name, options) in [
        ("serial", QueryOptions::new()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("parallel", QueryOptions::new().threads(4)),
        (
            "adaptive-parallel",
            QueryOptions::new().adaptive(true).threads(4),
        ),
    ] {
        let rs = db.query_with(query, options).unwrap();
        let got = rs.rows().to_vec();
        if deterministic {
            assert_eq!(
                got, expected,
                "{context}: {name} streaming evaluation of {query} disagrees with the \
                 collect-then-aggregate oracle"
            );
        } else if clause.limit.is_some() {
            // Unordered projection with LIMIT: any `limit` rows drawn from the oracle's
            // (possibly de-duplicated) multiset are correct.
            assert_eq!(
                got.len(),
                expected.len().min(clause.limit.unwrap() as usize),
                "{context}: {name} row count of {query}"
            );
            let mut pool = oracle(
                &snap,
                &q,
                &ReturnClause {
                    limit: None,
                    ..clause.clone()
                },
                &all.tuples,
            );
            for row in &got {
                let pos = pool.iter().position(|r| r == row).unwrap_or_else(|| {
                    panic!(
                        "{context}: {name} produced a row outside the oracle multiset for {query}"
                    )
                });
                pool.swap_remove(pos);
            }
        } else {
            let mut got_sorted = got;
            let mut expected_sorted = expected.clone();
            got_sorted.sort_unstable();
            expected_sorted.sort_unstable();
            assert_eq!(
                got_sorted, expected_sorted,
                "{context}: {name} multiset of {query}"
            );
        }
    }
    expected.len()
}

/// Random structural + property updates leaving the snapshot dirty.
fn random_updates(db: &mut GraphflowDB, rng: &mut StdRng) {
    for _ in 0..rng.gen_range(8usize..16) {
        let n = db.snapshot().base().num_vertices() as u32 + 2;
        match rng.gen_range(0u32..4) {
            0 => {
                let v = db
                    .insert_vertex_with_props(
                        VertexLabel(0),
                        &[("age", PropValue::Int(rng.gen_range(0u32..8) as i64))],
                    )
                    .unwrap();
                db.insert_edge(v, rng.gen_range(0..n), EdgeLabel(0));
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
            _ => {
                let v = rng.gen_range(0..db.snapshot().base().num_vertices() as u32);
                let _ = db.set_vertex_prop(v, "age", PropValue::Int(rng.gen_range(0u32..8) as i64));
            }
        }
    }
}

/// The differential harness: randomized (graph, query, RETURN clause) cases under every
/// executor setting, on frozen and dirty snapshots.
#[test]
fn streaming_aggregates_match_collect_then_aggregate_oracle() {
    let mut cases = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xA66 + seed);
        let mut db = random_db(&mut rng);
        let mut queries = Vec::new();
        for _ in 0..4 {
            let t = &TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
            let mut query = t.pattern.to_string();
            if rng.gen_bool(0.4) {
                query.push_str(&format!(" WHERE a.age <= {}", rng.gen_range(2u32..8)));
            }
            query.push(' ');
            query.push_str(&random_return(&mut rng, t));
            queries.push(query);
        }
        for query in &queries {
            if check_case(&db, query, &format!("seed {seed} frozen")) > 0 {
                nonempty += 1;
            }
            cases += 1;
        }
        random_updates(&mut db, &mut rng);
        for query in &queries {
            if check_case(&db, query, &format!("seed {seed} dirty")) > 0 {
                nonempty += 1;
            }
            cases += 1;
        }
    }
    assert!(cases >= 120, "only {cases} differential cases were run");
    assert!(
        nonempty >= cases / 4,
        "too many vacuous cases ({nonempty}/{cases} non-empty)"
    );
}

/// Acceptance criterion: `RETURN COUNT(*)` on a triangle query produces identical counts
/// under every executor setting and never materialises per-match tuples — the final extension
/// column is bulk-counted (`bulk_counted_extensions > 0`), and the sink path is the
/// tuple-free counting path.
#[test]
fn count_star_is_exact_and_tuple_free_across_executors() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut b = GraphBuilder::new();
    let n = 150u32;
    for _ in 0..6 * n {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.add_edge(s, d);
        }
    }
    let db = GraphflowDB::from_graph(b.build());
    let triangle = "(a)->(b), (b)->(c), (a)->(c)";
    let expected = db.count(triangle).unwrap();
    assert!(expected > 0, "graph must contain triangles");
    for (name, options) in [
        ("serial", QueryOptions::new()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("parallel", QueryOptions::new().threads(4)),
        (
            "adaptive-parallel",
            QueryOptions::new().adaptive(true).threads(4),
        ),
    ] {
        let rs = db
            .query_with(&format!("{triangle} RETURN COUNT(*)"), options)
            .unwrap();
        assert_eq!(rs.scalar_count(), Some(expected), "{name}");
        assert!(
            rs.stats.bulk_counted_extensions > 0,
            "{name}: the final extension column must be bulk-counted, not materialised"
        );
    }
    // Queries differing only in their RETURN clause share one plan-cache entry.
    let stats = db.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one optimizer run for all RETURN variants");
}

/// `RETURN COUNT(*)` through a plan rooted at a HASH-JOIN (in the binary-join plan space a
/// cycle can only be closed by a join): the root probe answers each lookup with its
/// key's build-tuple count from a counts-only table. The count equals the enumerated one
/// serially, at two workers, adaptively and on a dirty snapshot; a limit stands the bulk path
/// down; and `PROFILE` arms it just as the run does.
#[test]
fn count_star_through_a_join_root_equals_the_enumerated_count() {
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let mut b = GraphBuilder::new();
    let n = 120u32;
    for _ in 0..5 * n {
        b.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    let mut db = GraphflowDB::from_graph(b.build());
    db.set_plan_space(graphflow_rs::plan::dp::PlanSpaceOptions::binary_only());
    let patterns = [
        "(a)->(b), (b)->(d), (a)->(c), (c)->(d)",
        "(a)->(b), (b)->(c), (c)->(d), (a)->(d)",
        "(a)->(b), (b)->(c), (c)->(d), (d)->(e), (a)->(e)",
    ];
    for phase in ["frozen", "dirty"] {
        if phase == "dirty" {
            random_updates(&mut db, &mut rng);
            assert!(db.snapshot().has_pending_deltas());
        }
        for pattern in patterns {
            let prepared = db.prepare(&format!("{pattern} RETURN COUNT(*)")).unwrap();
            assert!(
                matches!(
                    prepared.plan().root,
                    graphflow_rs::plan::PlanNode::HashJoin(_)
                ),
                "{pattern}: a join closes the cycle"
            );
            let expected = prepared.count().unwrap();
            assert!(expected > 10, "{pattern}: enough matches to limit");
            for (name, options) in [
                ("serial", QueryOptions::new()),
                ("threads(2)", QueryOptions::new().threads(2)),
                ("adaptive", QueryOptions::new().adaptive(true)),
            ] {
                let rs = prepared.execute(options).unwrap();
                let label = format!("{pattern} ({phase}) {name}");
                assert_eq!(rs.scalar_count(), Some(expected), "{label}");
                assert!(rs.stats.bulk_counted_extensions > 0, "{label}");
            }
            let limited = prepared.execute(QueryOptions::new().limit(10)).unwrap();
            assert_eq!(
                limited.scalar_count(),
                Some(10),
                "{pattern} ({phase}) limit"
            );
            assert_eq!(limited.stats.bulk_counted_extensions, 0, "{pattern} limit");
            let profiled = prepared.profile(QueryOptions::new()).unwrap();
            let stats = profiled.stats.expect("a profile carries actuals");
            assert_eq!(stats.output_count, expected, "{pattern} ({phase}) PROFILE");
            assert!(
                stats.bulk_counted_extensions > 0,
                "{pattern} PROFILE counts in bulk"
            );
        }
    }
}
