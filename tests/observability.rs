//! Observability integration tests: per-operator profiler exactness across every executor
//! setting and snapshot state, profiling-off purity, the db-wide metrics registry under concurrent
//! readers and writers, Prometheus text rendering, and the slow-query log.

use graphflow_core::{GraphflowDB, OpCounters, QueryOptions, RuntimeStats, SLOW_LOG_CAPACITY};
use graphflow_graph::{EdgeLabel, GraphBuilder};
use graphflow_plan::plan::{Plan, PlanNode};
use graphflow_plan::wco::wco_node_for_ordering;
use graphflow_query::patterns;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const TRIANGLE: &str = "(a)->(b), (b)->(c), (a)->(c)";
const DIAMOND_X: &str = "(a)->(b), (a)->(c), (b)->(c), (b)->(d), (c)->(d)";

fn small_db() -> GraphflowDB {
    let edges = graphflow_graph::generator::powerlaw_cluster(400, 4, 0.5, 42);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    GraphflowDB::from_graph(b.build())
}

/// The exactness contract: every per-node counter, adaptive candidate steps included, sums
/// back to the run's totals.
fn assert_profile_exact(label: &str, stats: &RuntimeStats) {
    assert!(
        !stats.profile.is_empty(),
        "{label}: profiled run must file per-node records"
    );
    let sum = |pick: fn(&OpCounters) -> u64| -> u64 {
        (stats.profile.iter())
            .flat_map(|node| {
                let steps = node.candidates.iter().flat_map(|c| &c.steps);
                [&node.counters].into_iter().chain(steps)
            })
            .map(pick)
            .sum()
    };
    assert_eq!(sum(|c| c.icost), stats.icost, "{label}: i-cost");
    assert_eq!(
        sum(|c| c.tuples_out),
        stats.intermediate_tuples,
        "{label}: intermediate tuples"
    );
    assert_eq!(sum(|c| c.outputs), stats.output_count, "{label}: outputs");
    assert_eq!(
        sum(|c| c.cache_hits),
        stats.cache_hits,
        "{label}: cache hits"
    );
    assert_eq!(
        sum(|c| c.cache_misses),
        stats.cache_misses,
        "{label}: cache misses"
    );
    assert_eq!(
        sum(|c| c.delta_merges),
        stats.delta_merges,
        "{label}: delta merges"
    );
    assert_eq!(
        sum(|c| c.kernel_merge),
        stats.kernel_merge,
        "{label}: merge-kernel calls"
    );
    assert_eq!(
        sum(|c| c.kernel_gallop),
        stats.kernel_gallop,
        "{label}: gallop-kernel calls"
    );
    assert_eq!(
        sum(|c| c.kernel_block),
        stats.kernel_block,
        "{label}: block-kernel calls"
    );
    // Adaptive stages: every routed tuple is tallied on exactly one candidate, on whichever
    // worker routed it.
    for node in stats.profile.iter().filter(|n| !n.candidates.is_empty()) {
        assert_eq!(
            node.candidates.iter().map(|c| c.chosen).sum::<u64>(),
            node.counters.tuples_in,
            "{label}: adaptive routing tallies"
        );
    }
}

/// The Figure 1c plan: two triangles of diamond-X joined on (a2, a3).
fn figure_1c_plan() -> Plan {
    let q = patterns::diamond_x();
    let left = wco_node_for_ordering(&q, &[1, 2, 0]).unwrap();
    let right = wco_node_for_ordering(&q, &[1, 2, 3]).unwrap();
    let join = PlanNode::hash_join(&q, left, right).expect("Figure 1c join is valid");
    Plan::new(q, join, 0.0)
}

fn executor_options() -> [(&'static str, QueryOptions); 4] {
    [
        ("serial", QueryOptions::new()),
        ("adaptive", QueryOptions::new().adaptive(true)),
        ("parallel", QueryOptions::new().threads(4)),
        (
            "adaptive-parallel",
            QueryOptions::new().adaptive(true).threads(4),
        ),
    ]
}

// --- profiler exactness -----------------------------------------------------------------

/// The acceptance-criteria test: under every executor setting, the per-node records of a
/// profiled run sum *exactly* to the run's `RuntimeStats` totals — on the frozen snapshot and again on a
/// dirty snapshot with uncompacted delta edges.
#[test]
fn profiler_totals_are_exact_on_all_executors_and_snapshots() {
    let db = small_db();
    for (name, options) in executor_options() {
        let r = db.run(DIAMOND_X, options.profile(true)).unwrap();
        assert!(r.count > 0, "{name}: diamond-X must match something");
        assert_profile_exact(&format!("{name}/frozen"), &r.stats);
    }

    // Dirty snapshot: stage edges in a committed-but-uncompacted delta so the executors go
    // through the overlay-merge path, then re-check exactness.
    let mut txn = db.begin_write();
    for i in 0..24u32 {
        txn.insert_edge(i, (i * 7 + 3) % 400, EdgeLabel(0));
    }
    txn.commit();
    for (name, options) in executor_options() {
        let r = db.run(DIAMOND_X, options.profile(true)).unwrap();
        assert_profile_exact(&format!("{name}/dirty"), &r.stats);
    }

    // Limited runs: tuples produced past the limit (by any worker) are deducted from the
    // operator that emitted them, so the records still sum to the exact, limited total.
    const LIMIT: u64 = 25;
    let hybrid = figure_1c_plan();
    for (name, options) in executor_options() {
        let options = options.limit(LIMIT).profile(true);
        let r = db.run(DIAMOND_X, options.clone()).unwrap();
        assert_eq!(r.count, LIMIT, "{name}: the limit is below the match count");
        assert_profile_exact(&format!("{name}/limit"), &r.stats);
        let r = db.run_plan(&hybrid, options).unwrap();
        assert_eq!(r.count, LIMIT, "{name}: hybrid plan under a limit");
        assert_profile_exact(&format!("{name}/hybrid-limit"), &r.stats);
    }
}

/// Exactness also holds for hybrid plans: every node of the build subtree has its own record,
/// and build-side work still sums into the totals.
#[test]
fn profiler_is_exact_on_hybrid_hash_join_plans() {
    let db = small_db();
    let plan = figure_1c_plan();
    for (name, options) in [
        ("serial", QueryOptions::new()),
        ("parallel", QueryOptions::new().threads(4)),
    ] {
        let r = db.run_plan(&plan, options.profile(true)).unwrap();
        assert_profile_exact(&format!("{name}/hybrid"), &r.stats);
        assert_eq!(
            r.stats.profile.len(),
            plan.root.num_operators(),
            "{name}: one record per plan node, build and probe subtrees included"
        );
        let build_scan = &r.stats.profile[2].counters;
        assert!(
            build_scan.tuples_out > 0,
            "{name}: the build side's SCAN (pre-order id 2) counted its own work"
        );
    }
}

/// With `profile: false` (the default) the run leaves no trace: no per-node records, and every
/// deterministic counter identical to a profiled run of the same plan.
#[test]
fn profiling_off_leaves_stats_identical() {
    let db = small_db();
    let prepared = db.prepare(DIAMOND_X).unwrap();
    for (name, options) in executor_options() {
        let off = prepared.run(options.clone()).unwrap().stats;
        let on = prepared.run(options.profile(true)).unwrap().stats;
        assert!(off.profile.is_empty(), "{name}: profiling is opt-in");
        // Strip the fields that legitimately differ (wall time, the records themselves):
        // everything else must be byte-identical.
        let mut on_cmp = on.clone();
        on_cmp.profile = Vec::new();
        on_cmp.elapsed = Duration::ZERO;
        let mut off_cmp = off.clone();
        off_cmp.elapsed = Duration::ZERO;
        assert_eq!(
            on_cmp, off_cmp,
            "{name}: profiling must not change the counters"
        );
    }
}

/// `PROFILE` surfaces the intersection-kernel mix: a multiway-intersection query reports a
/// non-zero kernel split in its stats on every executor, and the rendered report names the
/// per-operator kernel dispatch counts.
#[test]
fn profile_reports_the_intersection_kernel_mix() {
    let db = small_db();
    for (name, options) in executor_options() {
        let report = db.prepare(DIAMOND_X).unwrap().profile(options).unwrap();
        let stats = report.stats.as_ref().unwrap();
        assert!(
            stats.kernel_merge + stats.kernel_gallop + stats.kernel_block > 0,
            "{name}: a multiway query dispatches at least one two-way kernel"
        );
        let rendered = report.to_string();
        assert!(
            rendered.contains("kernels merge/gallop/block"),
            "{name}: rendered PROFILE names the kernel mix:\n{rendered}"
        );
        let json = report.to_json();
        assert!(
            json.contains("\"kernel_merge\":"),
            "{name}: PROFILE JSON carries kernel counters"
        );
    }
}

// --- metrics registry -------------------------------------------------------------------

/// Hammer `metrics()` from reader threads while writers commit and queries run: every sampled
/// counter must be monotonically non-decreasing, and the final totals must account for all
/// the work submitted.
#[test]
fn metrics_counters_are_monotonic_under_concurrency() {
    const WRITERS: usize = 2;
    const COMMITS_PER_WRITER: u32 = 50;
    const QUERIERS: usize = 2;
    const QUERIES_PER_QUERIER: usize = 20;

    let db = small_db();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..COMMITS_PER_WRITER {
                    let mut txn = db.begin_write();
                    txn.insert_edge((w as u32) * 1000 + i, i, EdgeLabel(0));
                    txn.commit();
                }
            });
        }
        for _ in 0..QUERIERS {
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..QUERIES_PER_QUERIER {
                    db.count(TRIANGLE).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut prev = db.metrics();
                while !stop.load(Ordering::Relaxed) {
                    let m = db.metrics();
                    assert!(m.queries_started >= prev.queries_started);
                    assert!(m.queries_completed >= prev.queries_completed);
                    assert!(m.txn_commits >= prev.txn_commits);
                    assert!(m.query_latency.count() >= prev.query_latency.count());
                    assert!(m.queries_started >= m.queries_completed);
                    prev = m;
                    std::thread::yield_now();
                }
            });
        }
        // The scope joins the writer/querier threads when the closure returns; flip the stop
        // flag once their work is provably done by polling the counters.
        let db = db.clone();
        let stop = &stop;
        s.spawn(move || {
            let expected_queries = (QUERIERS * QUERIES_PER_QUERIER) as u64;
            let expected_commits = WRITERS as u64 * COMMITS_PER_WRITER as u64;
            loop {
                let m = db.metrics();
                if m.queries_completed >= expected_queries && m.txn_commits >= expected_commits {
                    stop.store(true, Ordering::Relaxed);
                    return;
                }
                std::thread::yield_now();
            }
        });
    });

    let m = db.metrics();
    assert_eq!(
        m.queries_completed,
        (QUERIERS * QUERIES_PER_QUERIER) as u64,
        "every query completed"
    );
    assert_eq!(m.queries_started, m.queries_completed);
    assert_eq!(m.txn_commits, WRITERS as u64 * COMMITS_PER_WRITER as u64);
    assert_eq!(m.query_latency.count(), m.queries_completed);
}

/// `metrics().render()` must be valid Prometheus text exposition: every sample line parses,
/// histogram buckets are cumulative and end at `+Inf == _count`.
#[test]
fn rendered_metrics_are_valid_prometheus_text() {
    let db = small_db();
    db.count(TRIANGLE).unwrap();
    db.count(TRIANGLE).unwrap();
    let text = db.metrics().render();

    let valid_name = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit())
    };
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line must be '<series> <value>', got {line:?}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        let name = series.split('{').next().unwrap();
        assert!(valid_name(name), "invalid metric name in {line:?}");
        if let Some(labels) = series.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed label set in {line:?}"
                );
            }
        }
        samples += 1;
    }
    assert!(
        samples >= 15,
        "expected a full registry, got {samples} samples"
    );

    // Histogram shape: buckets are cumulative, the +Inf bucket equals _count, and both
    // queries landed in it.
    let bucket_values: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("graphflow_query_latency_seconds_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(!bucket_values.is_empty());
    assert!(bucket_values.windows(2).all(|w| w[0] <= w[1]), "cumulative");
    let count: u64 = text
        .lines()
        .find(|l| l.starts_with("graphflow_query_latency_seconds_count"))
        .and_then(|l| l.rsplit_once(' '))
        .unwrap()
        .1
        .parse()
        .unwrap();
    assert_eq!(*bucket_values.last().unwrap(), count);
    assert_eq!(count, 2);
    assert!(text.contains("graphflow_query_latency_seconds_bucket{le=\"+Inf\"}"));
}

/// The optimizer is timed where it runs: `graphflow_optimize_seconds` counts the plan-cache
/// misses plus the queries too large for the cache, a hit adds nothing to it, and the
/// catalogue's lookup counter moves with the optimizer, not with executions.
#[test]
fn optimizer_time_is_recorded_on_plan_cache_misses_only() {
    let db = small_db();
    let before = db.metrics();
    assert_eq!(before.optimize_latency.count(), 0);
    assert_eq!(before.catalogue_lookups, 0);

    let triangle = db.prepare(TRIANGLE).unwrap();
    assert!(!triangle.was_cached());
    let miss = db.metrics();
    assert_eq!(miss.optimize_latency.count(), 1);
    assert_eq!(miss.plan_cache.misses, 1);
    assert!(miss.optimize_latency.sum() > std::time::Duration::ZERO);
    assert!(
        miss.catalogue_lookups > 0,
        "the optimizer asked the catalogue"
    );
    assert!(
        miss.catalogue_entries > 0,
        "and the catalogue sampled for it"
    );

    // An isomorphic rewriting hits the cache; executing asks the catalogue nothing.
    let twin = db.prepare("(x)->(y), (y)->(z), (x)->(z)").unwrap();
    assert!(twin.was_cached());
    twin.count().unwrap();
    let hit = db.metrics();
    assert_eq!(hit.optimize_latency.count(), 1);
    assert_eq!(hit.catalogue_lookups, miss.catalogue_lookups);

    // A structurally new pattern is one more miss, one more observation.
    db.prepare("(a)->(b), (b)->(c), (c)->(d)").unwrap();
    let second = db.metrics();
    assert_eq!(second.optimize_latency.count(), second.plan_cache.misses);
    assert_eq!(second.optimize_latency.count(), 2);
    assert!(second.catalogue_lookups > hit.catalogue_lookups);

    // A query too large for the cache is optimized directly: timed, and not a cache miss.
    let path: Vec<String> = (0..graphflow_query::MAX_CANONICAL_VERTICES)
        .map(|i| format!("(p{i})->(p{})", i + 1))
        .collect();
    assert!(!db.prepare(&path.join(", ")).unwrap().was_cached());
    let second = db.metrics();
    assert_eq!(second.plan_cache.misses, 2);

    let text = second.render();
    assert!(text.contains("# TYPE graphflow_optimize_seconds histogram"));
    assert!(text.contains("graphflow_optimize_seconds_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("graphflow_optimize_seconds_count 3"));
    assert!(text.contains(&format!(
        "graphflow_catalogue_lookups_total {}",
        second.catalogue_lookups
    )));
    assert!(text.contains(&format!(
        "graphflow_catalogue_entries {}",
        second.catalogue_entries
    )));
}

/// The delta-store gauges follow the published epoch: zero pending edges on a clean database,
/// one per pending insert or delete after a commit (with the bytes the merged lists and edge
/// sets take), and back to zero pending after compaction.
#[test]
fn delta_gauges_follow_the_published_epoch() {
    let gauge = |db: &GraphflowDB, name: &str| -> f64 {
        let text = db.metrics().render();
        assert!(text.contains(&format!("# TYPE {name} gauge")), "{name}");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no sample for {name}"))
    };
    let db = small_db();
    assert_eq!(gauge(&db, "graphflow_delta_pending_edges"), 0.0);
    let clean_bytes = gauge(&db, "graphflow_delta_overlay_bytes");

    let mut txn = db.begin_write();
    assert!(txn.insert_edge(0, 399, EdgeLabel(0)) || txn.delete_edge(0, 399, EdgeLabel(0)));
    assert!(txn.insert_edge(1, 398, EdgeLabel(0)) || txn.delete_edge(1, 398, EdgeLabel(0)));
    // Staged but unpublished updates are not the published epoch's.
    assert_eq!(gauge(&db, "graphflow_delta_pending_edges"), 0.0);
    txn.commit();
    assert_eq!(gauge(&db, "graphflow_delta_pending_edges"), 2.0);
    let dirty_bytes = gauge(&db, "graphflow_delta_overlay_bytes");
    // Two edges, twelve bytes each in the edge sets, and at least their four merged entries.
    assert!(dirty_bytes >= clean_bytes + 2.0 * 12.0 + 4.0 * 4.0);
    let m = db.metrics();
    assert_eq!(m.delta_pending_edges, 2);
    assert_eq!(m.delta_overlay_bytes as f64, dirty_bytes);

    db.compact();
    assert_eq!(gauge(&db, "graphflow_delta_pending_edges"), 0.0);
    assert_eq!(gauge(&db, "graphflow_delta_overlay_bytes"), clean_bytes);
}

// --- slow-query log ---------------------------------------------------------------------

#[test]
fn slow_query_log_captures_queries_over_threshold_and_is_bounded() {
    let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.4, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    let db = GraphflowDB::builder(b.build())
        .slow_query_threshold(Duration::ZERO)
        .build();

    db.count(TRIANGLE).unwrap();
    let entries = db.slow_queries();
    assert_eq!(entries.len(), 1, "threshold 0 records every query");
    assert!(!entries[0].query.is_empty());
    assert!(!entries[0].plan_id.is_empty());
    assert!(entries[0].latency > Duration::ZERO);

    // The ring is bounded: overflow drops the oldest entries, never grows past capacity.
    for _ in 0..(SLOW_LOG_CAPACITY + 16) {
        db.count(TRIANGLE).unwrap();
    }
    assert_eq!(db.slow_queries().len(), SLOW_LOG_CAPACITY);
}

#[test]
fn slow_query_log_is_opt_in_and_respects_the_threshold() {
    // No threshold configured: nothing is recorded.
    let db = small_db();
    db.count(TRIANGLE).unwrap();
    assert!(db.slow_queries().is_empty());

    // A threshold far above any realistic run: still nothing.
    let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.4, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    let db = GraphflowDB::builder(b.build())
        .slow_query_threshold(Duration::from_secs(3600))
        .build();
    db.count(TRIANGLE).unwrap();
    assert!(db.slow_queries().is_empty());
}

/// `EXPLAIN`, `PROFILE` and the slow-query log name the query that was asked — its vertex
/// names, its `RETURN` clause — also when its operator tree came out of the plan cache as an
/// isomorphic twin's.
#[test]
fn a_cached_twin_is_reported_as_the_query_its_caller_wrote() {
    let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.4, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    let db = GraphflowDB::builder(b.build())
        .slow_query_threshold(Duration::ZERO)
        .build();
    db.query(&format!("{TRIANGLE} RETURN COUNT(*)")).unwrap();

    // Other names, shuffled clauses, another RETURN.
    let twin = db
        .prepare("(x)->(z), (y)->(z), (x)->(y) RETURN x, y, z")
        .unwrap();
    assert!(twin.was_cached());
    let explained = twin.explain();
    let profiled = twin.profile(QueryOptions::new()).unwrap();
    let logged = db
        .slow_queries()
        .pop()
        .expect("threshold 0 records the run");
    assert_eq!(logged.plan_id, twin.plan().root.fingerprint());

    for (what, text) in [
        ("EXPLAIN", format!("{}\n{explained}", explained.query)),
        ("PROFILE", format!("{}\n{profiled}", profiled.query)),
        ("PROFILE json", profiled.to_json()),
        ("slow log", logged.query),
    ] {
        let words: Vec<&str> = text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .collect();
        for own in ["x", "y", "z"] {
            assert!(words.contains(&own), "{what} names ({own}):\n{text}");
        }
        for foreign in ["a", "b", "c", "COUNT"] {
            assert!(!words.contains(&foreign), "{what} leaks {foreign}:\n{text}");
        }
        assert!(text.contains("RETURN x, y, z"), "{what}:\n{text}");
    }
}
