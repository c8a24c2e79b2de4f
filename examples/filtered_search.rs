//! Typed properties and predicate pushdown — filtered subgraph search.
//!
//! A small social/payments graph carries typed attributes (`age`, `score` on accounts,
//! `amount` on transfers). Queries filter with a `WHERE` clause; the predicates are pushed
//! into the compiled pipeline (scan / extend / hash-join build), which is visible in the
//! runtime statistics as early drops and shrunken intermediate results — and the plan cache
//! shares one optimized plan across queries that differ only in their constants.
//!
//! ```bash
//! cargo run --release --example filtered_search
//! ```

use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::{GraphBuilder, PropValue};

fn main() {
    // A ring of accounts with shortcut transfers (the same shape the dynamic example uses),
    // now carrying typed attributes.
    let n = 600u32;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
        b.add_edge(i, (i + 3) % n);
        if i % 5 == 0 {
            b.add_edge(i, (i + 2) % n);
        }
    }
    for v in 0..n {
        b.set_vertex_prop(v, "age", PropValue::Int((18 + (v * 7) % 60) as i64))
            .unwrap();
        b.set_vertex_prop(
            v,
            "score",
            PropValue::Float(((v * 13) % 100) as f64 / 100.0),
        )
        .unwrap();
    }
    let edges: Vec<_> = b.clone().build().edges().to_vec();
    for (s, d, l) in edges {
        b.set_edge_prop(
            s,
            d,
            l,
            "amount",
            PropValue::Float(((s * 31 + d) % 1000) as f64),
        )
        .unwrap();
    }
    let db = GraphflowDB::from_graph(b.build());

    let triangle = "(a)-[t1]->(b), (b)-[t2]->(c), (a)-[t3]->(c)";
    let all = db.run(triangle, QueryOptions::new()).unwrap();
    println!(
        "unfiltered: {} triangles ({} intermediate tuples)",
        all.count, all.stats.intermediate_tuples
    );

    // Filter on vertex and edge attributes; pushdown drops candidates early.
    let filtered_q =
        format!("{triangle} WHERE a.age < 25 AND a.score >= 0.5 AND t1.amount > 400.0");
    let filtered = db.run(&filtered_q, QueryOptions::new()).unwrap();
    println!(
        "filtered:   {} triangles ({} intermediate tuples, {} predicate evals, {} drops)",
        filtered.count,
        filtered.stats.intermediate_tuples,
        filtered.stats.predicate_evals,
        filtered.stats.predicate_drops
    );
    assert!(filtered.stats.intermediate_tuples <= all.stats.intermediate_tuples);
    assert!(filtered.stats.predicate_drops > 0);

    // Every executor setting agrees on the filtered result.
    let adaptive = db
        .run(&filtered_q, QueryOptions::new().adaptive(true))
        .unwrap();
    let parallel = db.run(&filtered_q, QueryOptions::new().threads(4)).unwrap();
    assert_eq!(adaptive.count, filtered.count);
    assert_eq!(parallel.count, filtered.count);
    println!(
        "serial, adaptive and parallel executors agree: {}",
        filtered.count
    );

    // Structurally-equal queries share one plan: only the constants differ.
    let tighter = db
        .run(
            &format!("{triangle} WHERE a.age < 60 AND a.score >= 0.1 AND t1.amount > 10.0"),
            QueryOptions::new(),
        )
        .unwrap();
    let stats = db.plan_cache_stats();
    println!(
        "constants canonicalized: {} optimizer runs for {} queries ({} matches now)",
        stats.misses,
        stats.hits + stats.misses,
        tighter.count
    );

    // Properties are live: aging one matched account out of the filter changes the answer.
    let one_match = db
        .run(&filtered_q, QueryOptions::new().collect_tuples(true))
        .unwrap();
    let account = one_match.tuples[0][0];
    db.set_vertex_prop(account, "age", PropValue::Int(99))
        .unwrap();
    let after = db.run(&filtered_q, QueryOptions::new()).unwrap();
    println!(
        "after set_vertex_prop({account}, age, 99): {} matches (was {})",
        after.count, filtered.count
    );
    assert!(after.count < filtered.count);
}
