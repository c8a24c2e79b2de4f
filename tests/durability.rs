//! Durability round trips and crash recovery.
//!
//! The invariants under test:
//!
//! 1. **Round trip** — save → reopen must be invisible to queries: every executor (single
//!    thread, parallel, adaptive) returns on the reopened database exactly what it returns on
//!    an in-memory twin that applied the same updates — for frozen (checkpointed) *and* dirty
//!    (WAL-replayed) states, including properties and delete tombstones.
//! 2. **Prefix consistency** — however the WAL is mutilated (torn tail, corrupt byte,
//!    appended garbage), reopening never panics and always recovers a state the database
//!    actually published: some prefix of the committed epochs.
//! 3. **Scale** (acceptance) — a database with ≥100k base edges and ≥500 committed
//!    post-snapshot batches, with its WAL cut mid-final-record, reopens to the last fully
//!    logged epoch with executor results identical to the pre-crash in-memory state.

use graphflow_core::{Durability, GraphflowDB, QueryOptions};
use graphflow_graph::{generator, EdgeLabel, GraphBuilder, PropValue, Update};
use graphflow_storage::wal::wal_path;
use graphflow_storage::FailpointFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf_durability_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three executor spellings every comparison runs under.
fn executor_options() -> [QueryOptions; 3] {
    [
        QueryOptions::new(),
        QueryOptions::new().threads(2),
        QueryOptions::new().adaptive(true),
    ]
}

/// Assert that `db` and `twin` agree on `patterns` under every executor, and on a
/// property-reading aggregation if `props` is set.
fn assert_dbs_agree(db: &GraphflowDB, twin: &GraphflowDB, patterns: &[&str], props: bool) {
    for pattern in patterns {
        let expected = twin.count(pattern).unwrap();
        for (i, options) in executor_options().into_iter().enumerate() {
            let got = db.run(pattern, options).unwrap().count;
            assert_eq!(got, expected, "executor {i} disagrees on {pattern}");
        }
    }
    if props {
        let q = "(a)-[e]->(b) RETURN COUNT(*), MAX(a.score), MIN(b.score), MAX(e.weight)";
        assert_eq!(
            db.query(q).unwrap().rows(),
            twin.query(q).unwrap().rows(),
            "property aggregation disagrees"
        );
    }
}

/// A small labelled base graph used by the round-trip tests.
fn seed_graph() -> graphflow_graph::Graph {
    let mut b = GraphBuilder::new();
    for (s, d) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)] {
        b.add_labelled_edge(s, d, EdgeLabel(0));
    }
    b.add_labelled_edge(1, 3, EdgeLabel(1));
    b.build()
}

const PATTERNS: &[&str] = &[
    "(a)->(b)",
    "(a)->(b), (b)->(c)",
    "(a)->(b), (b)->(c), (a)->(c)",
];

/// The update script both the persistent database and its in-memory twin apply: edge inserts,
/// deletes (tombstones over base edges), vertex and edge properties.
fn update_script() -> Vec<Vec<Update>> {
    let prop = |v: u32, x: i64| Update::SetVertexProp {
        v,
        key: "score".into(),
        value: PropValue::Int(x),
    };
    vec![
        vec![
            Update::InsertEdge {
                src: 0,
                dst: 3,
                label: EdgeLabel(0),
            },
            prop(0, 10),
            prop(3, -2),
        ],
        vec![
            // Tombstone over a *base* edge: survives only via the delta/WAL.
            Update::DeleteEdge {
                src: 2,
                dst: 3,
                label: EdgeLabel(0),
            },
            Update::InsertEdge {
                src: 3,
                dst: 1,
                label: EdgeLabel(1),
            },
        ],
        vec![
            Update::SetEdgeProp {
                src: 0,
                dst: 1,
                label: EdgeLabel(0),
                key: "weight".into(),
                value: PropValue::Float(2.5),
            },
            prop(4, 7),
            // No-op delete: must not be journalled (replay would otherwise diverge).
            Update::DeleteEdge {
                src: 9,
                dst: 9,
                label: EdgeLabel(0),
            },
        ],
        vec![
            Update::InsertVertex {
                label: graphflow_graph::VertexLabel(0),
            },
            Update::InsertEdge {
                src: 5,
                dst: 6,
                label: EdgeLabel(0),
            },
            prop(6, 99),
        ],
        vec![
            // Endpoints 7, 8 and 9 are created on demand; the duplicate insert is a no-op
            // that must be neither journalled nor counted.
            Update::InsertEdge {
                src: 6,
                dst: 9,
                label: EdgeLabel(1),
            },
            Update::InsertEdge {
                src: 6,
                dst: 9,
                label: EdgeLabel(1),
            },
            Update::DeleteEdge {
                src: 5,
                dst: 6,
                label: EdgeLabel(0),
            },
        ],
    ]
}

#[test]
fn frozen_snapshot_round_trips_across_reopen() {
    let dir = tmpdir("frozen");
    let twin = GraphflowDB::from_graph(seed_graph());
    let db = GraphflowDB::builder(seed_graph())
        .data_dir(&dir)
        .open()
        .unwrap();
    for batch in update_script() {
        assert_eq!(db.apply_batch(&batch), twin.apply_batch(&batch));
    }
    // Freeze everything into a snapshot; the WAL is truncated, so the reopen below reads
    // *only* the binary snapshot (graph image + property columns + counts).
    db.checkpoint().unwrap();
    let version = db.graph_version();
    drop(db);
    let reopened = GraphflowDB::open(&dir).unwrap();
    assert_eq!(reopened.graph_version(), version, "epoch survives reopen");
    assert!(
        !reopened.snapshot().has_pending_deltas(),
        "frozen state reloads with an empty delta store"
    );
    assert_dbs_agree(&reopened, &twin, PATTERNS, true);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dirty_state_round_trips_through_wal_replay() {
    let dir = tmpdir("dirty");
    let twin = GraphflowDB::from_graph(seed_graph());
    let db = GraphflowDB::builder(seed_graph())
        .data_dir(&dir)
        .durability(Durability::Fsync)
        .open()
        .unwrap();
    for batch in update_script() {
        assert_eq!(db.apply_batch(&batch), twin.apply_batch(&batch));
    }
    // NO checkpoint: the updates exist only in the WAL on top of the initial snapshot.
    let version = db.graph_version();
    let counts = db.catalogue().exact_counts();
    drop(db);
    let reopened = GraphflowDB::open(&dir).unwrap();
    assert_eq!(
        reopened.graph_version(),
        version,
        "replay reaches the last epoch"
    );
    assert_eq!(
        reopened.catalogue().exact_counts(),
        counts,
        "replay redoes the live commits' catalogue maintenance"
    );
    assert_dbs_agree(&reopened, &twin, PATTERNS, true);

    // Epochs keep advancing monotonically after recovery, and a second reopen (now mixing a
    // mid-history checkpoint + fresh WAL records) still agrees with the twin.
    reopened.checkpoint().unwrap();
    let more = vec![
        Update::InsertEdge {
            src: 4,
            dst: 2,
            label: EdgeLabel(0),
        },
        Update::SetVertexProp {
            v: 1,
            key: "score".into(),
            value: PropValue::Int(41),
        },
    ];
    assert_eq!(reopened.apply_batch(&more), twin.apply_batch(&more));
    assert!(reopened.graph_version() > version);
    let version2 = reopened.graph_version();
    drop(reopened);
    let again = GraphflowDB::open(&dir).unwrap();
    assert_eq!(again.graph_version(), version2);
    assert_dbs_agree(&again, &twin, PATTERNS, true);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn existing_data_wins_over_builder_graph() {
    let dir = tmpdir("existing_wins");
    let db = GraphflowDB::builder(seed_graph())
        .data_dir(&dir)
        .open()
        .unwrap();
    let edges = db.count("(a)->(b)").unwrap();
    drop(db);
    // Reopen with a *different* (bigger) seed graph: the directory's data must win.
    let mut b = GraphBuilder::new();
    for v in 0..50 {
        b.add_edge(v, (v + 1) % 50);
    }
    let reopened = GraphflowDB::builder(b.build())
        .data_dir(&dir)
        .open()
        .unwrap();
    assert_eq!(reopened.count("(a)->(b)").unwrap(), edges);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_shutdown_under_none_durability_survives_reopen() {
    let dir = tmpdir("none_clean");
    let twin = GraphflowDB::from_graph(seed_graph());
    let db = GraphflowDB::builder(seed_graph())
        .data_dir(&dir)
        .durability(Durability::None)
        .open()
        .unwrap();
    for batch in update_script() {
        assert_eq!(db.apply_batch(&batch), twin.apply_batch(&batch));
    }
    db.sync().unwrap(); // the explicit barrier Durability::None requires
    drop(db);
    let reopened = GraphflowDB::open(&dir).unwrap();
    assert_dbs_agree(&reopened, &twin, PATTERNS, true);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Property test: whatever we do to the WAL, reopening recovers a prefix-consistent epoch —
/// one the database actually published, with exactly that epoch's edge set — and never panics.
#[test]
fn wal_mutilation_always_recovers_a_committed_prefix() {
    let dir = tmpdir("fault_prop");
    let n = 64u32;
    let mut b = GraphBuilder::with_vertices(n as usize);
    b.add_edges(generator::powerlaw_cluster(n as usize, 2, 0.3, 7));
    let db = GraphflowDB::builder(b.build())
        .data_dir(&dir)
        .durability(Durability::Fsync)
        .open()
        .unwrap();

    type EdgeSet = BTreeSet<(u32, u32, u16)>;
    let mut edges: EdgeSet = db
        .graph()
        .edges()
        .iter()
        .map(|&(s, d, l)| (s, d, l.0))
        .collect();
    // (epoch, edge set) after every committed batch; index 0 is the initial snapshot.
    let mut history: Vec<(u64, EdgeSet)> = vec![(db.graph_version(), edges.clone())];

    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..40 {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let l = rng.gen_range(0..2u16);
            if rng.gen_bool(0.7) {
                batch.push(Update::InsertEdge {
                    src: s,
                    dst: d,
                    label: EdgeLabel(l),
                });
                edges.insert((s, d, l));
            } else {
                batch.push(Update::DeleteEdge {
                    src: s,
                    dst: d,
                    label: EdgeLabel(l),
                });
                edges.remove(&(s, d, l));
            }
        }
        db.apply_batch(&batch);
        history.push((db.graph_version(), edges.clone()));
    }
    drop(db);

    let wal = wal_path(&dir);
    let pristine = std::fs::read(&wal).unwrap();
    assert!(!pristine.is_empty(), "the WAL must hold the batches");
    let fp = FailpointFile::new(&wal);
    for trial in 0..60u64 {
        std::fs::write(&wal, &pristine).unwrap();
        match trial % 3 {
            0 => fp
                .truncate_at(rng.gen_range(0..pristine.len() as u64 + 1))
                .unwrap(),
            1 => fp
                .corrupt_at(
                    rng.gen_range(0..pristine.len() as u64),
                    rng.gen_range(1..256u32) as u8,
                )
                .unwrap(),
            _ => {
                let junk: Vec<u8> = (0..rng.gen_range(1..40usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect();
                fp.append_garbage(&junk).unwrap();
            }
        }
        let reopened = GraphflowDB::open(&dir).unwrap_or_else(|e| {
            panic!("trial {trial}: reopen after mutilation must not fail: {e}")
        });
        let epoch = reopened.graph_version();
        let (_, expected) = history
            .iter()
            .find(|(e, _)| *e == epoch)
            .unwrap_or_else(|| panic!("trial {trial}: epoch {epoch} was never published"));
        // The oracle: a fresh in-memory database over exactly the edge set that was published
        // at the recovered epoch must agree on every pattern.
        let mut b = GraphBuilder::with_vertices(n as usize);
        for &(s, d, l) in expected {
            b.add_labelled_edge(s, d, EdgeLabel(l));
        }
        let reference = GraphflowDB::from_graph(b.build());
        for pattern in ["(a)->(b)", "(a)->(b), (b)->(c), (a)->(c)"] {
            assert_eq!(
                reopened.count(pattern).unwrap(),
                reference.count(pattern).unwrap(),
                "trial {trial}: recovered state at epoch {epoch} disagrees on {pattern}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance: ≥100k base edges, ≥500 committed post-snapshot batches, WAL cut mid-record →
/// reopen lands exactly on the last fully-logged epoch and every executor agrees with the
/// pre-crash in-memory twin.
#[test]
fn acceptance_kill_mid_append_reopens_to_last_logged_epoch() {
    let dir = tmpdir("acceptance");
    let mut b = GraphBuilder::new();
    b.add_edges(generator::powerlaw_cluster(36_000, 3, 0.2, 17));
    let base = b.build();
    assert!(base.num_edges() >= 100_000, "need ≥100k edges");
    let n = base.num_vertices() as u32;

    let twin = GraphflowDB::builder(base.clone())
        .staleness_threshold(u64::MAX)
        .build();
    let db = GraphflowDB::builder(base)
        .data_dir(&dir)
        .durability(Durability::Fsync)
        .staleness_threshold(u64::MAX)
        .open()
        .unwrap();
    db.checkpoint().unwrap();

    let mut rng = StdRng::seed_from_u64(0xACCE);
    let mut wal_len_at_499 = 0u64;
    let mut epoch_at_499 = 0u64;
    for i in 0..500 {
        let mut batch = Vec::new();
        for _ in 0..3 {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen_bool(0.85) {
                batch.push(Update::InsertEdge {
                    src: s,
                    dst: d,
                    label: EdgeLabel(0),
                });
            } else {
                batch.push(Update::DeleteEdge {
                    src: s,
                    dst: d,
                    label: EdgeLabel(0),
                });
            }
        }
        db.apply_batch(&batch);
        if i < 499 {
            // The final batch is the one the "crash" tears mid-append: the twin never sees it.
            twin.apply_batch(&batch);
        }
        if i == 498 {
            wal_len_at_499 = std::fs::metadata(wal_path(&dir)).unwrap().len();
            epoch_at_499 = db.graph_version();
        }
    }
    assert!(db.graph_version() > epoch_at_499, "batch 500 was effective");
    drop(db);

    // Tear the WAL a few bytes into the final record — a crash mid-append.
    FailpointFile::new(wal_path(&dir))
        .truncate_at(wal_len_at_499 + 5)
        .unwrap();
    let reopened = GraphflowDB::open(&dir).unwrap();
    assert_eq!(
        reopened.graph_version(),
        epoch_at_499,
        "recovery lands on the last fully-logged epoch"
    );
    let patterns: &[&str] = if cfg!(debug_assertions) {
        &["(a)->(b)"]
    } else {
        &["(a)->(b)", "(a)->(b), (b)->(c), (a)->(c)"]
    };
    assert_dbs_agree(&reopened, &twin, patterns, false);
    std::fs::remove_dir_all(&dir).unwrap();
}
