//! Plan-space integration tests: the plan shapes highlighted in the paper's Figures 1 and 10
//! exist in our plan space, satisfy the projection constraint, and execute correctly.

use graphflow_catalog::{count_matches, Catalogue};
use graphflow_datasets::Dataset;
use graphflow_exec::execute;
use graphflow_plan::cost::CostModel;
use graphflow_plan::plan::{Plan, PlanClass, PlanNode};
use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_plan::wco::wco_node_for_ordering;
use graphflow_query::patterns;

const SCALE: f64 = 0.08;

/// Figure 1c: the diamond-X hybrid plan that joins the two triangles on (a2, a3).
#[test]
fn figure_1c_hybrid_plan_exists_and_is_correct() {
    let graph = Dataset::Amazon.generate(SCALE);
    let q = patterns::diamond_x();
    let left = wco_node_for_ordering(&q, &[1, 2, 0]).unwrap(); // triangle a2 a3 a1
    let right = wco_node_for_ordering(&q, &[1, 2, 3]).unwrap(); // triangle a2 a3 a4
    let join = PlanNode::hash_join(&q, left, right).expect("the Figure 1c join is valid");
    let plan = Plan::new(q.clone(), join, 0.0);
    assert_eq!(plan.class(), PlanClass::Hybrid);
    assert_eq!(execute(&graph, &plan).count, count_matches(&graph, &q));
}

/// Figure 1d: the 6-cycle hybrid plan that joins two 3-paths and closes the cycle with an
/// intersection — an E/I *after* a binary join, which no GHD-based plan can express.
#[test]
fn figure_1d_non_ghd_plan_exists_and_is_correct() {
    let graph = Dataset::Amazon.generate(SCALE);
    let q = patterns::benchmark_query(12); // 6-cycle over a1..a6
                                           // Left 3-path a1-a2-a3, right 3-path a3-a4-a5 (sharing a3), joined, then extended to a6 by
                                           // intersecting the adjacency lists of a5 and a1.
    let left = wco_node_for_ordering(&q, &[0, 1, 2]).unwrap();
    let right = wco_node_for_ordering(&q, &[2, 3, 4]).unwrap();
    let join = PlanNode::hash_join(&q, left, right).expect("path join is valid");
    let full = PlanNode::extend(&q, join, 5).expect("closing intersection is valid");
    assert!(full.has_hash_join() && full.has_multiway_intersection());
    let plan = Plan::new(q.clone(), full, 0.0);
    assert_eq!(plan.class(), PlanClass::Hybrid);
    assert_eq!(execute(&graph, &plan).count, count_matches(&graph, &q));
}

/// Figure 10: the Q9 plan that computes two triangles, joins them, then closes with a 2-way
/// intersection.
#[test]
fn figure_10_plan_for_q9_is_correct() {
    let graph = Dataset::Epinions.generate(SCALE);
    let q = patterns::benchmark_query(9);
    let left = wco_node_for_ordering(&q, &[0, 1, 2]).unwrap(); // triangle a1 a2 a3
    let right = wco_node_for_ordering(&q, &[2, 3, 4]).unwrap(); // triangle a3 a4 a5
    let join = PlanNode::hash_join(&q, left, right).expect("triangle join is valid");
    let full = PlanNode::extend(&q, join, 5).expect("final 2-way intersection");
    match &full {
        PlanNode::Extend(e) => assert_eq!(e.descriptors.len(), 2),
        _ => unreachable!(),
    }
    let plan = Plan::new(q.clone(), full, 0.0);
    assert_eq!(execute(&graph, &plan).count, count_matches(&graph, &q));
}

/// Section 4.1: the projection constraint rejects plans that drop a closing edge (the P2 plan of
/// Figure 3), and rejects BJ plans that build open triangles.
#[test]
fn projection_constraint_prunes_open_triangle_joins() {
    let q = patterns::diamond_x();
    // Open-triangle BJ plan: join edge a1->a2 with edge a1->a3 (fine), then join with a2->a4 ...
    // the offending step is joining {a1,a2,a3} (as two edges, no a2->a3) — our plan nodes cannot
    // even represent that state because each node is labelled with a *projection*, which always
    // includes a2->a3. What we can check: a join whose union misses a query edge is rejected.
    let tri = wco_node_for_ordering(&q, &[0, 1, 2]).unwrap();
    let tail = PlanNode::scan(q.edges()[3]); // a2->a4
    assert!(
        PlanNode::hash_join(&q, tri, tail).is_none(),
        "join covering all vertices but missing the a3->a4 edge must be rejected"
    );
}

/// Every plan in the spectrum of every small benchmark query returns the same count.
#[test]
fn every_spectrum_plan_counts_the_same() {
    let graph = Dataset::Google.generate(SCALE);
    let cat = Catalogue::with_defaults(graph.clone());
    let model = CostModel::default();
    for j in [1usize, 3, 4, 5, 8, 11] {
        let q = patterns::benchmark_query(j);
        let expected = count_matches(&graph, &q);
        let spectrum = enumerate_spectrum(
            &q,
            &cat,
            &model,
            SpectrumLimits {
                max_plans_per_subset: 16,
                max_plans_per_class: 12,
            },
        );
        assert!(!spectrum.is_empty(), "Q{j} spectrum is empty");
        for sp in &spectrum {
            assert_eq!(
                execute(&graph, &sp.plan).count,
                expected,
                "Q{j} plan {}",
                sp.plan.root.fingerprint()
            );
        }
    }
}

/// The paper's Table 1 claim about plan-space coverage: cliques admit only WCO plans, acyclic
/// queries admit BJ plans, queries with vertex-disjoint cycles admit hybrid plans.
#[test]
fn spectrum_classes_match_query_shapes() {
    use graphflow_plan::spectrum::summarize;
    let graph = Dataset::Epinions.generate(SCALE);
    let cat = Catalogue::with_defaults(graph.clone());
    let model = CostModel::default();
    let limits = SpectrumLimits::default();

    let clique = summarize(&enumerate_spectrum(
        &patterns::benchmark_query(6),
        &cat,
        &model,
        limits,
    ));
    assert!(clique.num_wco > 0 && clique.num_bj == 0 && clique.num_hybrid == 0);

    let acyclic = summarize(&enumerate_spectrum(
        &patterns::benchmark_query(13),
        &cat,
        &model,
        limits,
    ));
    assert!(acyclic.num_bj > 0);

    let two_cycles = summarize(&enumerate_spectrum(
        &patterns::benchmark_query(8),
        &cat,
        &model,
        limits,
    ));
    assert!(two_cycles.num_hybrid > 0 && two_cycles.num_wco > 0);
}

// ---------------------------------------------------------------------------------------------
// Differential harness: every enumerated bushy/hybrid plan for the 5-6-vertex benchmark
// queries must produce byte-identical results to a serial WCO oracle — across the serial,
// adaptive and parallel executors, on both the frozen CSR and a dirty (mid-update) snapshot.
// ---------------------------------------------------------------------------------------------

use graphflow_exec::{execute_with_sink, CountingSink, ExecOptions, RuntimeStats};
use graphflow_rs::graph::EdgeLabel;
use graphflow_rs::{GraphflowDB, QueryOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sorted result tuples of `plan` under `options` (tuples are normalised to query-vertex
/// order by the executor, so they are directly comparable across plan shapes).
fn sorted_tuples(db: &GraphflowDB, plan: &Plan, options: QueryOptions) -> Vec<Vec<u32>> {
    let out = db
        .run_plan(plan, options.collect_tuples(true).collect_limit(usize::MAX))
        .expect("plan executes");
    let mut tuples = out.tuples;
    tuples.sort_unstable();
    tuples
}

/// A random burst of structural updates leaving the snapshot dirty (deltas unfrozen).
fn dirty_up(db: &GraphflowDB, rng: &mut StdRng) {
    let n = db.snapshot().base().num_vertices() as u32;
    for _ in 0..12 {
        if rng.gen_bool(0.6) {
            db.insert_edge(rng.gen_range(0..n), rng.gen_range(0..n), EdgeLabel(0));
        } else {
            let edges = db.graph().edges().to_vec();
            if !edges.is_empty() {
                let (s, d, l) = edges[rng.gen_range(0..edges.len())];
                db.delete_edge(s, d, l);
            }
        }
    }
    assert!(
        db.snapshot().has_pending_deltas(),
        "updates left the snapshot dirty"
    );
}

#[test]
fn every_bushy_and_hybrid_plan_matches_the_serial_wco_oracle() {
    // Unoptimized tuple collection over 6-vertex spectra is slow; debug builds keep the same
    // harness on a smaller graph and spectrum so the full suite stays fast, while release (CI)
    // covers every query and a wider cap.
    let (scale, limits, queries): (f64, SpectrumLimits, &[usize]) = if cfg!(debug_assertions) {
        (
            0.02,
            SpectrumLimits {
                max_plans_per_subset: 6,
                max_plans_per_class: 4,
            },
            &[8, 12],
        )
    } else {
        (
            0.05,
            SpectrumLimits {
                max_plans_per_subset: 8,
                max_plans_per_class: 6,
            },
            &[8, 9, 11, 12],
        )
    };
    let db = GraphflowDB::with_config(Dataset::Amazon.generate(scale), Default::default());
    let model = CostModel::default();
    let mut rng = StdRng::seed_from_u64(0xB005);
    let mut bushy_checked = 0usize;

    // 5-6-vertex benchmark queries whose spectra contain hash-join plans: Q8 (two triangles
    // sharing a vertex), Q9 (Q8 plus a closing vertex), Q11 (acyclic), Q12 (6-cycle).
    for &j in queries {
        let q = patterns::benchmark_query(j);
        assert!((5..=6).contains(&q.num_vertices()));
        let cat = db.catalogue();
        let spectrum = enumerate_spectrum(&q, &cat, &model, limits);
        let oracle = spectrum
            .iter()
            .find(|sp| sp.class == PlanClass::Wco)
            .expect("every benchmark query has a WCO plan")
            .plan
            .clone();

        let mut join_plans: Vec<Plan> = spectrum
            .iter()
            .filter(|sp| sp.plan.root.has_hash_join())
            .map(|sp| sp.plan.clone())
            .collect();
        assert!(!join_plans.is_empty(), "Q{j} spectrum has join plans");
        if j == 12 {
            // Guarantee a *bushy* tree (join of joins) is covered even if the capped spectrum
            // holds only linear join trees: join the 3-paths a1a2a3 and a3a4a5 built as joins
            // of single edges, then close the cycle onto a6.
            let scan = |src: usize| {
                PlanNode::scan(
                    *q.edges()
                        .iter()
                        .find(|e| e.src == src)
                        .expect("cycle edge exists"),
                )
            };
            let left = PlanNode::hash_join(&q, scan(0), scan(1)).expect("share a2");
            let right = PlanNode::hash_join(&q, scan(2), scan(3)).expect("share a4");
            let joined = PlanNode::hash_join(&q, left, right).expect("share a3");
            let full = PlanNode::extend(&q, joined, 5).expect("close the cycle");
            assert!(full.has_bushy_join());
            join_plans.push(Plan::new(q.clone(), full, 0.0));
        }

        for phase in ["frozen", "dirty"] {
            if phase == "dirty" {
                dirty_up(&db, &mut rng);
            }
            let expected = sorted_tuples(&db, &oracle, QueryOptions::new());
            for plan in &join_plans {
                if plan.root.has_bushy_join() {
                    bushy_checked += 1;
                }
                for (name, options) in [
                    ("serial", QueryOptions::new()),
                    ("adaptive", QueryOptions::new().adaptive(true)),
                    ("parallel", QueryOptions::new().threads(4)),
                    (
                        "adaptive-parallel",
                        QueryOptions::new().adaptive(true).threads(4),
                    ),
                ] {
                    assert_eq!(
                        sorted_tuples(&db, plan, options),
                        expected,
                        "Q{j} ({phase}): {name} run of {} diverges from the serial WCO oracle",
                        plan.root.fingerprint()
                    );
                }
            }
        }
    }
    assert!(
        bushy_checked > 0,
        "at least one bushy join tree was covered"
    );
}

/// `COUNT(*)` through a join-rooted plan: the root HASH-JOIN is compiled with a counts-only
/// table and each probe adds its key's build-tuple count. The first join-rooted plans of the
/// four-vertex spectra (Q2–Q5: the square, the tailed triangle and both diamond-Xs) must count
/// what the enumerating run counts — serial, at two workers, adaptive, on the frozen CSR and
/// on a dirty snapshot — and stand down under a limit. Serial fixed runs also do the same work: bulk
/// counting changes no i-cost, intermediate, build or probe counter.
#[test]
fn join_rooted_bulk_counts_equal_enumerated_counts() {
    let scale = if cfg!(debug_assertions) { 0.02 } else { 0.05 };
    let db = GraphflowDB::with_config(Dataset::Amazon.generate(scale), Default::default());
    let model = CostModel::default();
    let mut rng = StdRng::seed_from_u64(0xC0A7);
    let mut checked = 0usize;
    for j in [2usize, 3, 4, 5] {
        let q = patterns::benchmark_query(j);
        let spectrum = enumerate_spectrum(&q, &db.catalogue(), &model, SpectrumLimits::default());
        let plans: Vec<Plan> = (spectrum.into_iter())
            .filter(|sp| matches!(sp.plan.root, PlanNode::HashJoin(_)))
            .map(|sp| sp.plan)
            .take(4)
            .collect();
        assert!(!plans.is_empty(), "Q{j} spectrum has join-rooted plans");
        for phase in ["frozen", "dirty"] {
            if phase == "dirty" {
                dirty_up(&db, &mut rng);
            }
            let (snapshot, cat) = (db.snapshot(), db.catalogue());
            for plan in &plans {
                let run = |adaptive: bool, threads: usize, count_tail: bool, limit| {
                    let options = ExecOptions {
                        count_tail,
                        output_limit: limit,
                        ..Default::default()
                    };
                    let adaptive = adaptive.then_some(&*cat);
                    let mut sink = CountingSink::new();
                    execute_with_sink(&snapshot, plan, adaptive, threads, options, &mut sink)
                };
                let label = format!("Q{j} ({phase}) {}", plan.root.fingerprint());
                let enumerated = run(false, 1, false, None);
                assert_eq!(enumerated.bulk_counted_extensions, 0, "{label}");
                for (name, adaptive, threads) in [
                    ("serial", false, 1),
                    ("threads(2)", false, 2),
                    ("adaptive", true, 1),
                    ("adaptive threads(2)", true, 2),
                ] {
                    let counted = run(adaptive, threads, true, None);
                    assert_eq!(
                        counted.output_count, enumerated.output_count,
                        "{label}: {name}"
                    );
                    assert!(counted.bulk_counted_extensions > 0, "{label}: {name}");
                    if name == "serial" {
                        for (what, pick) in [
                            ("icost", (|s| s.icost) as fn(&RuntimeStats) -> u64),
                            ("intermediate", |s| s.intermediate_tuples),
                            ("build", |s| s.hash_build_tuples),
                            ("probe", |s| s.hash_probe_tuples),
                        ] {
                            assert_eq!(pick(&counted), pick(&enumerated), "{label}: {what}");
                        }
                    }
                }
                let limit = enumerated.output_count / 2;
                let limited = run(false, 2, true, Some(limit));
                assert_eq!(limited.output_count, limit, "{label}: limited");
                assert_eq!(limited.bulk_counted_extensions, 0, "{label}: limited");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * 4 * 2, "join-rooted plans checked");
}

// ---------------------------------------------------------------------------------------------
// Renumbered twins: a plan-cache hit by an isomorphic rewriting gets the cached operator tree
// renumbered into its own vertex numbering. Whatever shape that tree has, the twin's result
// tuples — in the twin's numbering — must equal those of a serial WCO plan optimized for the
// twin directly.
// ---------------------------------------------------------------------------------------------

use graphflow_plan::dp::{DpOptimizer, PlanSpaceOptions};
use graphflow_query::{parse_query, QueryGraph};
use graphflow_rs::graph::{GraphBuilder, PropValue};
use graphflow_rs::PreparedQuery;
use rand::seq::SliceRandom;

/// `q` with its vertices renamed and renumbered by a random permutation and its clauses
/// shuffled.
fn random_twin(q: &QueryGraph, rng: &mut StdRng) -> QueryGraph {
    let n = q.num_vertices();
    let mut map: Vec<usize> = (0..n).collect();
    map.shuffle(rng);
    let mut twin = QueryGraph::new();
    for t in 0..n {
        let v = map.iter().position(|&m| m == t).expect("a permutation");
        twin.add_vertex(format!("t{t}"), q.vertex(v).label);
    }
    let mut edges = q.edges().to_vec();
    edges.shuffle(rng);
    for e in edges {
        twin.add_edge(map[e.src], map[e.dst], e.label);
    }
    twin
}

/// Prepare `original`, then `twin` (which must hit the plan cache), returning the twin's
/// statement.
fn prepare_twin(db: &GraphflowDB, original: QueryGraph, twin: QueryGraph) -> PreparedQuery {
    db.prepare_query(original).expect("original plans");
    let prepared = db.prepare_query(twin).expect("twin plans");
    assert!(prepared.was_cached(), "{}: a twin hits", prepared.query());
    prepared
}

/// The twin's tuples under every executor setting against a serial WCO plan optimized for the
/// twin's own query graph.
fn assert_twin_matches_wco_oracle(db: &GraphflowDB, twin: &PreparedQuery, phase: &str) {
    let oracle = DpOptimizer::new(&db.catalogue())
        .with_options(PlanSpaceOptions::wco_only())
        .optimize(twin.query())
        .expect("every connected query has a WCO plan");
    let expected = sorted_tuples(db, &oracle, QueryOptions::new());
    for options in [
        QueryOptions::new(),
        QueryOptions::new().adaptive(true),
        QueryOptions::new().threads(4),
        QueryOptions::new().adaptive(true).threads(4),
    ] {
        let run = twin
            .run(
                options
                    .clone()
                    .collect_tuples(true)
                    .collect_limit(usize::MAX),
            )
            .expect("twin executes");
        let mut tuples = run.tuples;
        tuples.sort_unstable();
        assert_eq!(
            tuples,
            expected,
            "{} ({phase}, {options:?}): renumbered {} diverges from the serial WCO oracle",
            twin.query(),
            twin.plan().root.fingerprint()
        );
    }
}

#[test]
fn renumbered_twins_match_the_serial_wco_oracle() {
    // Debug builds collect tuples slowly; they keep the harness on the smaller result sets.
    let (scale, max_matches) = if cfg!(debug_assertions) {
        (0.02, 100_000)
    } else {
        (0.05, 500_000)
    };
    // Hash joins priced at nothing, so the optimizer reaches for them wherever the plan space
    // has one: what is under test is renumbering every tree shape, not plan choice.
    let db = GraphflowDB::builder(Dataset::Amazon.generate(scale))
        .cost_model(CostModel {
            w1: 0.0,
            w2: 0.0,
            ..CostModel::default()
        })
        .build();
    let mut rng = StdRng::seed_from_u64(0x7717);

    // Every benchmark query answered with a hash join (and a result set small enough to
    // collect), plus the first two answered with a WCO plan.
    let mut twins = Vec::new();
    let (mut hybrid, mut bj, mut wco) = (0, 0, 0);
    for (j, q) in patterns::all_benchmark_queries() {
        let original = db.prepare_query(q.clone()).expect("plans");
        let class = original.plan_class();
        let seen = match class {
            PlanClass::Wco => &mut wco,
            PlanClass::BinaryJoin => &mut bj,
            PlanClass::Hybrid => &mut hybrid,
        };
        if (class == PlanClass::Wco && *seen == 2) || original.count().unwrap() > max_matches {
            continue;
        }
        *seen += 1;
        let twin = prepare_twin(&db, q.clone(), random_twin(&q, &mut rng));
        assert_eq!(twin.plan_class(), class, "Q{j}: same tree, renumbered");
        twins.push(twin);
    }
    assert!(
        hybrid >= 3 && bj >= 1 && wco == 2,
        "{hybrid} hybrid, {bj} BJ, {wco} WCO twins"
    );
    for phase in ["frozen", "dirty"] {
        if phase == "dirty" {
            dirty_up(&db, &mut rng);
        }
        for twin in &twins {
            assert_twin_matches_wco_oracle(&db, twin, phase);
        }
    }
}

/// Twins whose `WHERE` / `RETURN` name an edge: the pair `(a, b)` is joined by two query edges
/// and the predicate must stay on the right one. (The pattern has no automorphism: with one,
/// the two texts may canonicalise their predicates differently and miss each other's entry.)
#[test]
fn renumbered_twins_keep_edge_predicates_and_aggregates_on_their_edges() {
    let mut b = GraphBuilder::new();
    for (s, d) in graphflow_rs::graph::generator::powerlaw_cluster(300, 4, 0.5, 0x7717) {
        b.add_edge(s, d);
        if (s + d) % 3 != 0 {
            b.add_edge(d, s);
        }
    }
    for &(s, d, l) in b.clone().build().edges() {
        let w = PropValue::Int(((s * 31 + d * 17) % 100) as i64);
        b.set_edge_prop(s, d, l, "w", w).unwrap();
    }
    let db = GraphflowDB::from_graph(b.build());
    let mut rng = StdRng::seed_from_u64(0x7718);
    let parse = |text: &str| parse_query(text).expect("parses");

    let filtered = prepare_twin(
        &db,
        parse("(a)-[e]->(b), (b)->(a), (b)->(c), (c)->(a) WHERE e.w > 50"),
        parse("(y)->(z), (z)->(x), (y)->(x), (x)-[f]->(y) WHERE f.w > 60"),
    );
    // `RETURN x, SUM(f.w)` over four workers: each folds tuples in the twin's numbering
    // into its own partial. The reference is the original text, run serially.
    let original = "(a)-[e]->(b), (b)->(a), (b)->(c), (c)->(a) RETURN a, SUM(e.w)";
    db.prepare(original).unwrap();
    let summed = db
        .prepare("(y)->(z), (z)->(x), (y)->(x), (x)-[f]->(y) RETURN x, SUM(f.w)")
        .unwrap();
    assert!(summed.was_cached());

    for phase in ["frozen", "dirty"] {
        if phase == "dirty" {
            dirty_up(&db, &mut rng);
        }
        assert_twin_matches_wco_oracle(&db, &filtered, phase);
        let reference = db.query(original).unwrap();
        assert!(reference.len() > 1);
        let rows = summed.execute(QueryOptions::new().threads(4)).unwrap();
        assert_eq!(rows.rows(), reference.rows(), "{phase}");
    }
}
