//! `RETURN COUNT(*)` and the counting fast path — the canonical subgraph-analytics workload.
//!
//! Counting matches is the workload the Graphflow paper's experiments report, and the shape
//! every executor optimises hardest: a `RETURN COUNT(*)` query never materialises per-match
//! tuples. The sink reports `needs_tuples() == false`, and when the plan's final operator is
//! an E/I extension the engine adds the (already filtered) extension-set *sizes* to the count
//! in bulk — visible below as `bulk_counted_extensions` in the runtime statistics. Grouped
//! aggregates (`RETURN a, COUNT(*)`) fold streamingly with memory proportional to the number
//! of groups, and the parallel executor merges thread-local partial aggregates at its join
//! barrier.
//!
//! ```bash
//! cargo run --release --example count_triangles
//! ```

use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::generator::powerlaw_cluster;
use graphflow_graph::GraphBuilder;

fn main() {
    // A scale-free graph with heavy triangle clustering.
    let mut b = GraphBuilder::new();
    b.add_edges(powerlaw_cluster(3_000, 6, 0.5, 42));
    let db = GraphflowDB::from_graph(b.build());

    let triangle = "(a)->(b), (b)->(c), (a)->(c)";

    // --- COUNT(*): the tuple-free fast path ------------------------------------------------
    let rs = db.query(&format!("{triangle} RETURN COUNT(*)")).unwrap();
    let count = rs.scalar_count().expect("1x1 result");
    println!("triangles                      : {count}");
    println!(
        "bulk-counted extension sets    : {} (per-match tuples allocated: none)",
        rs.stats.bulk_counted_extensions
    );
    assert!(
        rs.stats.bulk_counted_extensions > 0,
        "the COUNT(*) fast path must fire on a triangle query"
    );

    // Every executor setting agrees on the exact count.
    for (name, options) in [
        ("serial  ", QueryOptions::new()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("parallel", QueryOptions::new().threads(4)),
        ("both    ", QueryOptions::new().adaptive(true).threads(4)),
    ] {
        let rs = db
            .query_with(&format!("{triangle} RETURN COUNT(*)"), options)
            .unwrap();
        println!(
            "  {name} count                : {} ({:?})",
            rs.scalar_count().unwrap(),
            rs.stats.elapsed
        );
        assert_eq!(rs.scalar_count(), Some(count));
    }

    // Queries that differ only in their RETURN clause share one cached plan.
    let stats = db.plan_cache_stats();
    println!(
        "plan cache                     : {} miss, {} hits (one plan for every RETURN)",
        stats.misses, stats.hits
    );
    assert_eq!(stats.misses, 1);

    // --- Grouped aggregation, streamed ------------------------------------------------------
    // Top-5 triangle hubs: group by the apex vertex, count per group, order, truncate.
    let rs = db
        .query_with(
            &format!("{triangle} RETURN a, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 5"),
            QueryOptions::new().threads(4),
        )
        .unwrap();
    println!("top triangle hubs (vertex, triangles rooted there):");
    for row in rs.rows() {
        println!("  {:?}", row);
    }
    assert!(rs.len() <= 5);
}
