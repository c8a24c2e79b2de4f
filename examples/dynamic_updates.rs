//! Streaming updates interleaved with subgraph queries — the dynamic graph subsystem.
//!
//! A payments graph receives a stream of new transfer edges while a fraud query (a directed
//! triangle of transfers) keeps running: updates land in a delta store over the frozen CSR,
//! every query runs against an isolated snapshot, and compaction folds the deltas back into a
//! fresh CSR without changing any result.
//!
//! ```bash
//! cargo run --release --example dynamic_updates
//! ```

use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::{EdgeLabel, GraphBuilder, GraphView as _, Update};

fn main() {
    // Seed graph: a ring of accounts with a few shortcut transfers.
    let n = 400u32;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
        if i % 7 == 0 {
            b.add_edge(i, (i + 3) % n);
        }
    }
    let db = GraphflowDB::builder(b.build())
        .staleness_threshold(64)
        .compact_threshold(1 << 16)
        .build();

    let fraud_pattern = "(a)->(b), (b)->(c), (a)->(c)";
    println!(
        "seed graph: {} accounts, {} transfers, {} fraud triangles",
        db.graph().num_vertices(),
        db.graph().num_edges(),
        db.count(fraud_pattern).unwrap()
    );

    // Stream transfer batches; each closes a few triangles by design.
    for batch_no in 0..4 {
        let base = batch_no * 40;
        let batch: Vec<Update> = (0..40)
            .map(|i| {
                let a = (base + i * 11) % n;
                Update::InsertEdge {
                    src: a,
                    dst: (a + 4) % n,
                    label: EdgeLabel(0),
                }
            })
            .collect();
        let applied = db.apply_batch(&batch);
        let result = db.run(fraud_pattern, QueryOptions::default()).unwrap();
        println!(
            "batch {batch_no}: applied {applied}/40 updates -> version {}, \
             {} triangles ({} neighbour lists read from the delta overlay)",
            db.graph_version(),
            result.count,
            result.stats.delta_merges
        );
    }

    // Snapshot isolation: a handle taken now is immune to later updates.
    let frozen = db.snapshot();
    db.insert_edge(0, 200, EdgeLabel(0));
    db.delete_edge(0, 1, EdgeLabel(0));
    let live = db.snapshot();
    println!(
        "snapshot isolation: frozen snapshot sees 0->200: {}, 0->1: {}; live sees 0->200: {}, 0->1: {}",
        frozen.has_edge(0, 200, EdgeLabel(0)),
        frozen.has_edge(0, 1, EdgeLabel(0)),
        live.has_edge(0, 200, EdgeLabel(0)),
        live.has_edge(0, 1, EdgeLabel(0)),
    );
    assert!(!frozen.has_edge(0, 200, EdgeLabel(0)) && frozen.has_edge(0, 1, EdgeLabel(0)));
    assert!(live.has_edge(0, 200, EdgeLabel(0)) && !live.has_edge(0, 1, EdgeLabel(0)));

    // The plan cache re-optimizes once updates cross the staleness threshold.
    let cache = db.plan_cache_stats();
    println!(
        "plan cache: {} hits, {} misses, {} stale plans re-optimized",
        cache.hits, cache.misses, cache.invalidations
    );

    // Compaction folds the deltas into a fresh CSR; results are untouched.
    let before = db.count(fraud_pattern).unwrap();
    let pending = db.snapshot().delta().overlay_edges();
    db.compact();
    let after = db.count(fraud_pattern).unwrap();
    println!(
        "compaction: folded {pending} pending updates into the CSR \
         ({before} triangles before, {after} after)"
    );
    assert_eq!(before, after);
    assert!(!db.snapshot().has_pending_deltas());
}
