//! Property-style integration tests: on seeded random graphs and random queries, every
//! component of the workspace must agree with the reference matcher and with each other.
//!
//! Implemented as deterministic loops over seeded random inputs (no external property-testing
//! harness): each case draws a random graph and query shape, and failures print the seed-like
//! case index for reproduction.

use graphflow_baselines::{backtracking_count, BacktrackOptions};
use graphflow_catalog::{count_matches, Catalogue};
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_graph::{
    Direction, EdgeLabel, Graph, GraphBuilder, GraphView, Snapshot, Update, VertexId, VertexLabel,
};
use graphflow_plan::cost::CostModel;
use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_query::patterns;
use graphflow_query::QueryGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

const CASES: usize = 24;

/// A random small directed graph over 8..40 vertices with 10..200 edge attempts.
fn random_graph(rng: &mut StdRng) -> Arc<Graph> {
    let n = rng.gen_range(8u32..40);
    let num_edges = rng.gen_range(10usize..200);
    let mut b = GraphBuilder::with_vertices(n as usize);
    for _ in 0..num_edges {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.add_edge(s, d);
        }
    }
    Arc::new(b.build())
}

/// One of the small benchmark queries (kept to 5 vertices so spectra stay tiny).
fn random_query(rng: &mut StdRng) -> QueryGraph {
    match rng.gen_range(0usize..9) {
        0 => patterns::benchmark_query(1),
        1 => patterns::benchmark_query(2),
        2 => patterns::benchmark_query(3),
        3 => patterns::benchmark_query(4),
        4 => patterns::benchmark_query(5),
        5 => patterns::benchmark_query(8),
        6 => patterns::benchmark_query(11),
        7 => patterns::directed_path(4),
        _ => patterns::out_star(4),
    }
}

/// The optimizer's plan, the adaptive executor and the parallel executor agree with the
/// reference matcher on random graphs.
#[test]
fn optimizer_and_executors_agree_with_reference() {
    let mut rng = StdRng::seed_from_u64(1001);
    for case in 0..CASES {
        let graph = random_graph(&mut rng);
        let q = random_query(&mut rng);
        let expected = count_matches(&graph, &q);
        let db = GraphflowDB::with_config(graph.clone(), Default::default());
        let fixed = db.run_query(&q, QueryOptions::default()).unwrap();
        assert_eq!(fixed.count, expected, "case {case}: fixed");
        let adaptive = db
            .run_query(&q, QueryOptions::new().adaptive(true))
            .unwrap();
        assert_eq!(adaptive.count, expected, "case {case}: adaptive");
        let parallel = db.run_query(&q, QueryOptions::new().threads(3)).unwrap();
        assert_eq!(parallel.count, expected, "case {case}: parallel");
    }
}

/// Every plan of the (capped) spectrum produces the same count.
#[test]
fn spectrum_plans_agree() {
    let mut rng = StdRng::seed_from_u64(2002);
    for case in 0..CASES {
        let graph = random_graph(&mut rng);
        let q = random_query(&mut rng);
        let expected = count_matches(&graph, &q);
        let cat = Catalogue::with_defaults(graph.clone());
        let spectrum = enumerate_spectrum(
            &q,
            &cat,
            &CostModel::default(),
            SpectrumLimits {
                max_plans_per_subset: 8,
                max_plans_per_class: 6,
            },
        );
        for sp in spectrum {
            let out = graphflow_exec::execute(&graph, &sp.plan);
            assert_eq!(out.count, expected, "case {case}");
        }
    }
}

/// The backtracking baseline agrees with the reference matcher.
#[test]
fn backtracking_agrees() {
    let mut rng = StdRng::seed_from_u64(3003);
    for case in 0..CASES {
        let graph = random_graph(&mut rng);
        let q = random_query(&mut rng);
        let expected = count_matches(&graph, &q);
        assert_eq!(
            backtracking_count(&graph, &q, BacktrackOptions::default()),
            expected,
            "case {case}"
        );
    }
}

/// Catalogue estimates are always finite and non-negative, and exact for single edges.
#[test]
fn catalogue_estimates_are_sane() {
    let mut rng = StdRng::seed_from_u64(4004);
    for case in 0..CASES {
        let graph = random_graph(&mut rng);
        let q = random_query(&mut rng);
        let cat = Catalogue::with_defaults(graph.clone());
        let card = cat.estimate_cardinality(&q, q.full_set());
        assert!(card.is_finite(), "case {case}");
        assert!(card >= 0.0, "case {case}");
        // Single query edge estimates are exact counts.
        let edge = &q.edges()[0];
        let set = graphflow_query::querygraph::singleton(edge.src)
            | graphflow_query::querygraph::singleton(edge.dst);
        let est = cat.estimate_cardinality(&q, set);
        let exact = cat.exact_cardinality(&q, set) as f64;
        assert!(
            (est - exact).abs() < 1e-6 || q.edges_within(set).len() > 1,
            "case {case}: est {est} vs exact {exact}"
        );
    }
}

/// Execution with the intersection cache disabled never changes the answer and never reports
/// cache hits.
#[test]
fn cache_toggle_preserves_counts() {
    let mut rng = StdRng::seed_from_u64(5005);
    for case in 0..CASES {
        let graph = random_graph(&mut rng);
        let q = patterns::diamond_x();
        let db = GraphflowDB::with_config(graph.clone(), Default::default());
        let with_cache = db.run_query(&q, QueryOptions::default()).unwrap();
        let without = db
            .run_query(&q, QueryOptions::new().intersection_cache(false))
            .unwrap();
        assert_eq!(with_cache.count, without.count, "case {case}");
        assert_eq!(without.stats.cache_hits, 0, "case {case}");
        assert!(with_cache.stats.icost <= without.stats.icost, "case {case}");
    }
}

/// Streaming a prepared query through a sink always agrees with the counting path, and the
/// plan cache serves every repetition of the same shape from a single optimizer run.
#[test]
fn prepared_streaming_agrees_with_counting() {
    let mut rng = StdRng::seed_from_u64(6006);
    for case in 0..CASES / 2 {
        let graph = random_graph(&mut rng);
        let q = random_query(&mut rng);
        let db = GraphflowDB::with_config(graph.clone(), Default::default());
        let prepared = db.prepare_query(q.clone()).unwrap();
        let expected = prepared.count().unwrap();
        let mut streamed = 0u64;
        {
            let mut sink = graphflow_core::CallbackSink::new(|_t: &[u32]| {
                streamed += 1;
                true
            });
            prepared
                .run_with_sink(QueryOptions::new(), &mut sink)
                .unwrap();
        }
        assert_eq!(streamed, expected, "case {case}");
        // However many times the statement ran, the shape was optimized exactly once, and
        // preparing it again is a cache hit.
        assert_eq!(
            db.plan_cache_stats().misses,
            1,
            "case {case}: one optimizer run per shape"
        );
        assert!(db.prepare_query(q).unwrap().was_cached(), "case {case}");
        assert_eq!(db.plan_cache_stats().hits, 1, "case {case}");
    }
}

// --- the delta overlay against from-scratch CSRs ----------------------------------------

const VERTEX_LABELS: u16 = 3;
const EDGE_LABELS: u16 = 3;

type Edge = (VertexId, VertexId, EdgeLabel);

/// What the overlay test believes the graph to be, kept with plain set arithmetic.
#[derive(Clone, Default)]
struct Model {
    labels: Vec<VertexLabel>,
    edges: BTreeSet<Edge>,
}

impl Model {
    /// The model as a CSR built from scratch — the reference every snapshot is held against.
    fn csr(&self) -> Graph {
        let mut b = GraphBuilder::with_vertices(self.labels.len());
        for (v, &label) in self.labels.iter().enumerate() {
            b.set_vertex_label(v as VertexId, label);
        }
        for &(s, d, l) in &self.edges {
            b.add_labelled_edge(s, d, l);
        }
        b.build()
    }

    fn random_edge(&self, rng: &mut StdRng) -> Edge {
        let n = self.labels.len() as VertexId;
        (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            EdgeLabel(rng.gen_range(0..EDGE_LABELS)),
        )
    }
}

/// Every `(vertex, direction, edge label, neighbour label)` partition of a view.
fn partitions<G: GraphView>(
    view: &G,
) -> impl Iterator<Item = (VertexId, Direction, EdgeLabel, VertexLabel)> {
    let n = view.num_vertices() as VertexId;
    let (els, vls) = (
        view.num_edge_labels().max(EDGE_LABELS),
        view.num_vertex_labels().max(VERTEX_LABELS),
    );
    (0..n).flat_map(move |v| {
        [Direction::Fwd, Direction::Bwd]
            .into_iter()
            .flat_map(move |dir| {
                (0..els).flat_map(move |el| {
                    (0..vls).map(move |nl| (v, dir, EdgeLabel(el), VertexLabel(nl)))
                })
            })
    })
}

/// `view` and the from-scratch CSR `want` agree on everything a [`GraphView`] says about
/// vertices and edges: `nbrs`, `degree`, `has_edge` and `scan_edges`, for every vertex,
/// direction and partition.
fn assert_same_graph<G: GraphView>(view: &G, want: &Graph, ctx: &str) {
    assert_eq!(view.num_vertices(), want.num_vertices(), "{ctx}: vertices");
    assert_eq!(view.num_edges(), want.num_edges(), "{ctx}: edges");
    for (v, dir, el, nl) in partitions(view) {
        let got = view.nbrs(v, dir, el, nl);
        let expected = want.nbrs(v, dir, el, nl);
        assert_eq!(&*got, &*expected, "{ctx}: nbrs({v}, {dir:?}, {el}, {nl})");
        assert_eq!(
            view.degree(v, dir, el, nl),
            expected.len(),
            "{ctx}: degree({v}, {dir:?}, {el}, {nl})"
        );
    }
    let n = want.num_vertices() as VertexId;
    for el in (0..view.num_edge_labels().max(EDGE_LABELS)).map(EdgeLabel) {
        assert_eq!(
            &view.scan_edges(el)[..],
            want.edges_with_label(el),
            "{ctx}: scan_edges({el})"
        );
        for u in 0..n {
            assert_eq!(
                view.vertex_label(u),
                want.vertex_label(u),
                "{ctx}: label of {u}"
            );
            for v in 0..n {
                assert_eq!(
                    view.has_edge(u, v, el),
                    want.has_edge(u, v, el),
                    "{ctx}: has_edge({u}, {v}, {el})"
                );
            }
        }
    }
}

/// How many partitions `snap` serves from its overlay — asserting that each of them differs
/// from the base CSR's: a partition whose updates cancelled out must borrow the CSR again.
fn overlay_partitions(snap: &Snapshot, ctx: &str) -> usize {
    let base = snap.base();
    partitions(snap)
        .filter(|&(v, dir, el, nl)| {
            let list = snap.nbrs(v, dir, el, nl);
            if list.is_overlay() {
                let in_base: &[VertexId] = if (v as usize) < base.num_vertices() {
                    base.neighbours(v, dir, el, nl)
                } else {
                    &[]
                };
                assert_ne!(
                    &*list, in_base,
                    "{ctx}: overlay of ({v}, {dir:?}, {el}, {nl})"
                );
            }
            list.is_overlay()
        })
        .count()
}

/// Random interleavings of every kind of update, checked after every step against a CSR built
/// from scratch; clones keep their epoch; cancelling pairs and compaction leave no trace.
#[test]
fn delta_overlay_agrees_with_from_scratch_csr() {
    let mut rng = StdRng::seed_from_u64(7007);
    // Interleavings the sequence must have hit for the test to mean what it says.
    let (mut reinserted, mut cancelled, mut overlaid) = (0, 0, 0);
    for case in 0..CASES / 2 {
        let mut model = Model::default();
        for _ in 0..rng.gen_range(6usize..20) {
            model
                .labels
                .push(VertexLabel(rng.gen_range(0..VERTEX_LABELS)));
        }
        for _ in 0..rng.gen_range(10usize..80) {
            let e = model.random_edge(&mut rng);
            model.edges.insert(e);
        }
        let mut snap = Snapshot::from(model.csr());
        // Edges this case deleted / inserted so far: what re-inserts and cancelling deletes draw from.
        let (mut graveyard, mut born): (Vec<Edge>, Vec<Edge>) = (Vec::new(), Vec::new());
        let mut frozen: Vec<(Snapshot, Graph)> = Vec::new();

        for step in 0..60 {
            let ctx = format!("case {case} step {step}");
            let version = snap.version();
            match rng.gen_range(0..12u32) {
                // Insert a random edge (a self-loop every so often; sometimes a duplicate).
                roll @ 0..=3 => {
                    let (s, d, l) = model.random_edge(&mut rng);
                    let e = if roll == 0 { (s, s, l) } else { (s, d, l) };
                    assert_eq!(
                        snap.insert_edge(e.0, e.1, e.2),
                        model.edges.insert(e),
                        "{ctx}"
                    );
                    born.push(e);
                }
                // Delete an existing edge, base or pending.
                4 | 5 if !model.edges.is_empty() => {
                    let pick = rng.gen_range(0..model.edges.len());
                    let e = *model.edges.iter().nth(pick).unwrap();
                    model.edges.remove(&e);
                    assert!(snap.delete_edge(e.0, e.1, e.2), "{ctx}");
                    graveyard.push(e);
                }
                // Delete an edge that probably does not exist.
                6 => {
                    let e = model.random_edge(&mut rng);
                    assert_eq!(
                        snap.delete_edge(e.0, e.1, e.2),
                        model.edges.remove(&e),
                        "{ctx}"
                    );
                }
                // Re-insert an edge deleted earlier.
                7 if !graveyard.is_empty() => {
                    let e = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                    let fresh = model.edges.insert(e);
                    assert_eq!(snap.insert_edge(e.0, e.1, e.2), fresh, "{ctx}");
                    reinserted += usize::from(fresh);
                }
                // Delete an edge inserted earlier.
                8 if !born.is_empty() => {
                    let e = born.swap_remove(rng.gen_range(0..born.len()));
                    let present = model.edges.remove(&e);
                    assert_eq!(snap.delete_edge(e.0, e.1, e.2), present, "{ctx}");
                    cancelled += usize::from(present);
                }
                // A new labelled vertex with an edge in each direction.
                9 => {
                    let label = VertexLabel(rng.gen_range(0..VERTEX_LABELS));
                    let v = snap.insert_vertex(label);
                    assert_eq!(v as usize, model.labels.len(), "{ctx}");
                    model.labels.push(label);
                    let (other, _, l) = model.random_edge(&mut rng);
                    for e in [(v, other, l), (other, v, l)] {
                        assert_eq!(
                            snap.insert_edge(e.0, e.1, e.2),
                            model.edges.insert(e),
                            "{ctx}"
                        );
                    }
                }
                // An edge whose endpoint is created on demand, through the update API.
                10 => {
                    let (src, _, label) = model.random_edge(&mut rng);
                    let dst = model.labels.len() as VertexId + 1;
                    assert!(
                        snap.apply_update(&Update::InsertEdge { src, dst, label }),
                        "{ctx}"
                    );
                    model.labels.resize(dst as usize + 1, VertexLabel(0));
                    model.edges.insert((src, dst, label));
                }
                // Keep a clone of this epoch, or fold the deltas into a fresh base.
                _ => {
                    if rng.gen_range(0..3u32) > 0 {
                        frozen.push((snap.clone(), model.csr()));
                    } else {
                        snap.compact();
                        assert!(!snap.has_pending_deltas(), "{ctx}");
                        assert_eq!(overlay_partitions(&snap, &ctx), 0, "{ctx}");
                        assert_eq!(
                            snap.version(),
                            version,
                            "{ctx}: compaction keeps the version"
                        );
                    }
                }
            }
            let want = model.csr();
            assert_same_graph(&snap, &want, &ctx);
            overlaid += overlay_partitions(&snap, &ctx);
            let rebuilt = snap.rebuild();
            rebuilt.check_invariants().unwrap();
            assert_same_graph(&rebuilt, &want, &format!("{ctx}, rebuilt"));
        }

        // Later updates and compactions reached no clone: each still shows its own epoch.
        for (i, (clone, want)) in frozen.iter().enumerate() {
            assert_same_graph(clone, want, &format!("case {case} clone {i}"));
        }

        // On a clean snapshot a pair of updates that cancels leaves nothing behind.
        let ctx = format!("case {case} cancelling pairs");
        snap.compact();
        let want = model.csr();
        let absent = std::iter::repeat_with(|| model.random_edge(&mut rng))
            .find(|e| !model.edges.contains(e))
            .unwrap();
        assert!(snap.insert_edge(absent.0, absent.1, absent.2), "{ctx}");
        assert!(overlay_partitions(&snap, &ctx) > 0, "{ctx}");
        assert!(snap.delete_edge(absent.0, absent.1, absent.2), "{ctx}");
        if let Some(&present) = model.edges.iter().next() {
            assert!(snap.delete_edge(present.0, present.1, present.2), "{ctx}");
            assert!(snap.insert_edge(present.0, present.1, present.2), "{ctx}");
        }
        assert!(!snap.has_pending_deltas(), "{ctx}");
        assert_eq!(overlay_partitions(&snap, &ctx), 0, "{ctx}");
        assert_same_graph(&snap, &want, &ctx);
    }
    assert!(reinserted > 0 && cancelled > 0 && overlaid > 0);
}
