//! Integration tests for the prepared-query facade: plan-cache amortization and eviction,
//! streaming result sinks over large result sets, builder options, and parser error surfaces.

use graphflow_core::{CallbackSink, CountingSink, Error, GraphflowDB, LimitSink, QueryOptions};
use graphflow_graph::GraphBuilder;
use graphflow_query::patterns;

const TRIANGLE: &str = "(a)->(b), (b)->(c), (a)->(c)";

fn small_db() -> GraphflowDB {
    let edges = graphflow_graph::generator::powerlaw_cluster(300, 4, 0.5, 99);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    GraphflowDB::from_graph(b.build())
}

/// A complete directed graph on `n` vertices (every ordered pair is an edge): the triangle
/// pattern has `n * (n-1) * (n-2)` matches, which exceeds 100k for `n = 60`.
fn complete_db(n: u32) -> GraphflowDB {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.add_edge(i, j);
            }
        }
    }
    GraphflowDB::from_graph(b.build())
}

// --- plan-cache amortization ------------------------------------------------------------

/// The acceptance-criteria test: running the same pattern twice via `prepare` performs exactly
/// one optimizer invocation, asserted through the plan-cache hit/miss counters.
#[test]
fn preparing_the_same_pattern_twice_runs_the_optimizer_once() {
    let db = small_db();
    assert_eq!(db.plan_cache_stats().misses, 0);

    let first = db.prepare(TRIANGLE).unwrap();
    assert!(!first.was_cached());
    assert_eq!(db.plan_cache_stats().misses, 1, "first prepare optimizes");
    assert_eq!(db.plan_cache_stats().hits, 0);

    let second = db.prepare(TRIANGLE).unwrap();
    assert!(second.was_cached());
    assert_eq!(
        db.plan_cache_stats().misses,
        1,
        "second prepare must NOT invoke the optimizer again"
    );
    assert_eq!(db.plan_cache_stats().hits, 1);
    assert!(
        std::sync::Arc::ptr_eq(first.plan(), second.plan()),
        "an unchanged repeat gets the cached plan itself, not a copy"
    );

    // Both statements answer identically, and per-run stats surface the cache outcome.
    assert_eq!(first.count().unwrap(), second.count().unwrap());
    let run = second.run(QueryOptions::default()).unwrap();
    assert_eq!(run.stats.plan_cache_hits, 1);
    assert_eq!(run.stats.plan_cache_misses, 0);
}

/// An isomorphic rewriting — different vertex names, shuffled clause order — is the same
/// canonical shape, so it is also served from the cache.
#[test]
fn isomorphic_pattern_skips_the_optimizer() {
    let db = small_db();
    let original = db.prepare(TRIANGLE).unwrap();
    let rewritten = db.prepare("(u)->(w), (v)->(w), (u)->(v)").unwrap();
    assert!(rewritten.was_cached());
    assert_eq!(db.plan_cache_stats().misses, 1);
    assert_eq!(original.count().unwrap(), rewritten.count().unwrap());
}

/// `run`/`count` are served through the same cache as `prepare`.
#[test]
fn ad_hoc_runs_share_the_plan_cache() {
    let db = small_db();
    let a = db.count(TRIANGLE).unwrap();
    let b = db.count(TRIANGLE).unwrap();
    assert_eq!(a, b);
    let stats = db.plan_cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
}

#[test]
fn lru_eviction_reoptimizes_evicted_shapes() {
    let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.4, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    let db = GraphflowDB::builder(b.build())
        .plan_cache_capacity(2)
        .build();

    let path2 = "(a)->(b), (b)->(c)";
    let path3 = "(a)->(b), (b)->(c), (c)->(d)";
    db.prepare(TRIANGLE).unwrap();
    db.prepare(path2).unwrap();
    // Third distinct shape evicts the least recently used (the triangle).
    db.prepare(path3).unwrap();
    assert_eq!(db.plan_cache_stats().evictions, 1);
    assert_eq!(db.plan_cache_stats().entries, 2);
    // The triangle must be re-optimized...
    let again = db.prepare(TRIANGLE).unwrap();
    assert!(!again.was_cached());
    // ... while the most recent shape is still cached.
    assert!(db.prepare(path3).unwrap().was_cached());
}

/// Queries too large for brute-force canonicalisation (10+ vertices) must still run — they
/// bypass the plan cache instead of panicking inside it.
#[test]
fn oversized_queries_bypass_the_cache_instead_of_panicking() {
    let db = small_db();
    // A 10-vertex directed path: one vertex beyond the canonicalisation limit.
    let pattern = "(a)->(b), (b)->(c), (c)->(d), (d)->(e), (e)->(f), (f)->(g), (g)->(h), \
                   (h)->(i), (i)->(j)";
    let prepared = db.prepare(pattern).unwrap();
    assert!(!prepared.was_cached());
    let count = prepared.count().unwrap();
    assert_eq!(db.count(pattern).unwrap(), count);
    // The cache was never consulted for this shape.
    assert_eq!(db.plan_cache_stats().misses, 0);
    assert_eq!(db.plan_cache_stats().entries, 0);
}

// --- streaming sinks --------------------------------------------------------------------

/// The acceptance-criteria test: a streaming-sink run over a pattern with more than 100k
/// matches completes without materialising tuples, and its count matches `count()`.
#[test]
fn streaming_sink_handles_over_100k_matches_without_materializing() {
    let db = complete_db(60);
    let expected = 60u64 * 59 * 58;
    let prepared = db.prepare(TRIANGLE).unwrap();
    assert_eq!(prepared.count().unwrap(), expected);
    assert!(expected > 100_000);

    // Stream through a callback that keeps only a running aggregate — no tuple is stored.
    let mut streamed = 0u64;
    let mut checksum = 0u64;
    let stats = {
        let mut sink = CallbackSink::new(|t: &[u32]| {
            streamed += 1;
            checksum ^= (t[0] as u64) << 32 | (t[1] as u64) << 16 | t[2] as u64;
            true
        });
        prepared
            .run_with_sink(QueryOptions::new(), &mut sink)
            .unwrap()
    };
    assert_eq!(streamed, expected, "streamed count must match count()");
    assert_eq!(stats.output_count, expected);

    // The counting fast path agrees too.
    let mut counter = CountingSink::new();
    prepared
        .run_with_sink(QueryOptions::new(), &mut counter)
        .unwrap();
    assert_eq!(counter.matches, expected);
}

/// A limit sink aborts execution as soon as N matches are found (LIMIT-N semantics): far less
/// work than the full run.
#[test]
fn limit_sink_stops_early_on_huge_result_sets() {
    let db = complete_db(60);
    let prepared = db.prepare(TRIANGLE).unwrap();
    let mut sink = LimitSink::new(25);
    let stats = prepared
        .run_with_sink(QueryOptions::new(), &mut sink)
        .unwrap();
    assert_eq!(sink.tuples.len(), 25);
    assert!(
        stats.output_count < 1000,
        "limit-25 must not enumerate the whole 200k-match result set (saw {})",
        stats.output_count
    );
    // Each collected tuple is a genuine triangle.
    for t in &sink.tuples {
        assert!(db
            .graph()
            .has_edge(t[0], t[1], graphflow_graph::EdgeLabel(0)));
        assert!(db
            .graph()
            .has_edge(t[1], t[2], graphflow_graph::EdgeLabel(0)));
        assert!(db
            .graph()
            .has_edge(t[0], t[2], graphflow_graph::EdgeLabel(0)));
    }
}

/// Streaming agrees with counting under every executor setting, and a one-worker run is the
/// caller's own thread: the sink is never handed to another one.
#[test]
fn sinks_agree_across_execution_modes() {
    let db = small_db();
    let q = patterns::diamond_x();
    let prepared = db.prepare_query(q).unwrap();
    let expected = prepared.count().unwrap();
    let caller = std::thread::current().id();
    for options in [
        QueryOptions::new(),
        QueryOptions::new().adaptive(true),
        QueryOptions::new().threads(4),
        QueryOptions::new().adaptive(true).threads(4),
    ] {
        let mut streamed = 0u64;
        let mut off_thread = 0u64;
        {
            let mut sink = CallbackSink::new(|_t: &[u32]| {
                streamed += 1;
                off_thread += u64::from(std::thread::current().id() != caller);
                true
            });
            prepared.run_with_sink(options.clone(), &mut sink).unwrap();
        }
        assert_eq!(streamed, expected, "{options:?}");
        if options.num_threads() == 1 {
            assert_eq!(
                off_thread, 0,
                "{options:?}: one worker is the calling thread"
            );
        }
    }
}

// --- options and error surface ----------------------------------------------------------

#[test]
fn parser_error_cases_are_reported_with_positions() {
    use std::error::Error as _;
    let db = small_db();

    // Truncated pattern.
    let err = db.prepare("(a)->").unwrap_err();
    assert!(matches!(err, Error::Parse(_)));
    assert!(err.source().is_some());

    // Dangling vertex with no arrow.
    assert!(matches!(db.prepare("(a)->(b), (c)"), Err(Error::Parse(_))));

    // Disconnected pattern.
    assert!(matches!(
        db.prepare("(a)->(b), (c)->(d)"),
        Err(Error::Parse(_))
    ));

    // Duplicate edge: the detail lives on the chained source, not the top-level Display.
    let err = db.prepare("(a)->(b), (a)->(b)").unwrap_err();
    let source = err.source().expect("parse errors chain their source");
    assert!(source.to_string().contains("duplicate edge"), "{source}");

    // Self loop.
    assert!(matches!(db.prepare("(a)->(a)"), Err(Error::Parse(_))));

    // Parse failures must not pollute the plan cache or its counters.
    assert_eq!(db.plan_cache_stats().misses, 0);
    assert_eq!(db.plan_cache_stats().entries, 0);
}

#[test]
fn collected_results_still_work_through_query_result() {
    let db = small_db();
    let result = db
        .run(
            TRIANGLE,
            QueryOptions::new().collect_tuples(true).collect_limit(5),
        )
        .unwrap();
    assert!(result.tuples.len() <= 5);
    assert!(result.count >= result.tuples.len() as u64);
    for t in &result.tuples {
        assert!(db
            .graph()
            .has_edge(t[0], t[1], graphflow_graph::EdgeLabel(0)));
        assert!(db
            .graph()
            .has_edge(t[1], t[2], graphflow_graph::EdgeLabel(0)));
        assert!(db
            .graph()
            .has_edge(t[0], t[2], graphflow_graph::EdgeLabel(0)));
    }
}
