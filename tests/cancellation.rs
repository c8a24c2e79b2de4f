//! Deadline and cancellation coverage: pathological queries must come back as typed errors —
//! promptly — under every executor setting, and a `QueryHandle` must be cancellable from another
//! thread.

use graphflow_core::{CancellationToken, Error, GraphflowDB, QueryOptions};
use graphflow_graph::GraphBuilder;
use std::time::{Duration, Instant};

/// A complete directed graph: every ordered pair is an edge, so a 5-clique pattern has an
/// astronomically large match set — the "query from hell" that deadlines exist for.
fn dense_db(n: u32) -> GraphflowDB {
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

/// All forward edges of a 5-vertex clique (a DAG, so matches are ordered 5-subsets).
const CLIQUE5: &str = "(a)->(b), (a)->(c), (a)->(d), (a)->(e), \
                       (b)->(c), (b)->(d), (b)->(e), (c)->(d), (c)->(e), (d)->(e)";

#[test]
fn huge_query_times_out_promptly_under_every_executor_setting() {
    let db = dense_db(60);
    let clique = db.prepare(CLIQUE5).unwrap();
    for opts in [
        QueryOptions::new(),
        QueryOptions::new().adaptive(true),
        QueryOptions::new().threads(4),
        QueryOptions::new().adaptive(true).threads(4),
    ] {
        let started = Instant::now();
        let result = clique.run(opts.clone().timeout(Duration::from_millis(1)));
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(Error::Timeout)),
            "expected Err(Timeout), got {result:?} ({opts:?})"
        );
        // "Promptly": worst case is one batch of work past the deadline. Allow generous CI
        // slack — the query itself would run for minutes.
        assert!(
            elapsed < Duration::from_secs(5),
            "timeout took {elapsed:?} to land ({opts:?})"
        );
    }
    // The error formats as a typed, human-readable condition.
    let err = clique
        .run(QueryOptions::new().timeout(Duration::from_millis(1)))
        .unwrap_err();
    assert_eq!(err.to_string(), "query timed out");
}

#[test]
fn generous_deadline_does_not_disturb_results() {
    let db = dense_db(12);
    let triangles = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
    let expected = triangles.count().unwrap();
    for opts in [
        QueryOptions::new(),
        QueryOptions::new().adaptive(true),
        QueryOptions::new().threads(4),
        QueryOptions::new().adaptive(true).threads(4),
    ] {
        let run = triangles
            .run(opts.timeout(Duration::from_secs(120)))
            .unwrap();
        assert_eq!(run.count, expected);
        assert!(!run.stats.timed_out && !run.stats.cancelled);
    }
}

#[test]
fn query_handle_cancels_from_another_thread() {
    let db = dense_db(60);
    let clique = db.prepare(CLIQUE5).unwrap();
    for opts in [
        QueryOptions::new(),
        QueryOptions::new().adaptive(true),
        QueryOptions::new().threads(4),
        QueryOptions::new().adaptive(true).threads(4),
    ] {
        let handle = clique.execute_handle(opts.clone());
        // Let the query sink its teeth in, then cancel from this (another) thread.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        handle.cancel();
        let result = handle.join();
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(Error::Cancelled)),
            "expected Err(Cancelled), got {result:?} ({opts:?})"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "cancellation took {elapsed:?} to land ({opts:?})"
        );
    }
}

#[test]
fn pre_cancelled_token_stops_the_run_immediately() {
    let db = dense_db(60);
    let clique = db.prepare(CLIQUE5).unwrap();
    let token = CancellationToken::new();
    token.cancel();
    let started = Instant::now();
    let result = clique.run(QueryOptions::new().cancel_token(token.clone()));
    assert!(matches!(result, Err(Error::Cancelled)), "{result:?}");
    assert!(started.elapsed() < Duration::from_secs(2));
    // The token is sticky: reusing it cancels the next run too.
    assert!(matches!(
        clique.run(QueryOptions::new().cancel_token(token)),
        Err(Error::Cancelled)
    ));
}

#[test]
fn execute_handle_returns_results_when_not_cancelled() {
    let db = dense_db(10);
    let triangles = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
    let expected = triangles.count().unwrap();
    let handle = triangles.execute_handle(QueryOptions::new().threads(2));
    let result = handle.join().unwrap();
    assert_eq!(result.count, expected);

    // The handle exposes its token: a watchdog can hold just the token.
    let handle = triangles.execute_handle(QueryOptions::new());
    let token = handle.token();
    let result = handle.join().unwrap();
    assert_eq!(result.count, expected);
    assert!(!token.is_cancelled(), "nobody cancelled this run");
}

/// Cancellation also unwinds runs that stream into sinks and runs whose plan contains a
/// hash join (the build side is interruptible too).
#[test]
fn cancellation_covers_sink_streaming_runs() {
    let db = dense_db(40);
    let clique = db.prepare(CLIQUE5).unwrap();
    let token = CancellationToken::new();
    let mut seen = 0u64;
    let result = {
        let mut sink = graphflow_core::CallbackSink::new(|_t: &[u32]| {
            seen += 1;
            if seen == 100 {
                token.cancel(); // cancel mid-stream, from inside the callback
            }
            true
        });
        clique.run_with_sink(QueryOptions::new().cancel_token(token.clone()), &mut sink)
    };
    assert!(matches!(result, Err(Error::Cancelled)), "{result:?}");
    assert!(
        (100..10_100).contains(&seen),
        "run must stop within a batch of the cancellation, saw {seen} matches"
    );
}
