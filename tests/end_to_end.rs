//! Cross-crate integration tests: every engine and every execution mode in the workspace must
//! agree on the answer of every benchmark query, on several dataset profiles.

use graphflow_baselines::ghd::{GhdPlanner, OrderingPolicy};
use graphflow_baselines::{backtracking_count, bj_engine_count, BacktrackOptions, BjEngineOptions};
use graphflow_catalog::count_matches;
use graphflow_core::{GraphflowDB, QueryOptions};
use graphflow_datasets::Dataset;
use graphflow_query::patterns;

/// Small scale so the whole suite stays fast.
const SCALE: f64 = 0.08;

#[test]
fn all_engines_agree_on_benchmark_queries() {
    for dataset in [Dataset::Amazon, Dataset::Epinions] {
        let graph = dataset.generate(SCALE);
        let db = GraphflowDB::with_config(graph.clone(), Default::default());
        // Q7/Q14 (5- and 7-cliques) and Q12/Q13 are heavier; keep the cross-engine sweep to the
        // queries every baseline finishes quickly at this scale.
        for j in [1usize, 2, 3, 4, 5, 6, 8, 10, 11] {
            let q = patterns::benchmark_query(j);
            let expected = count_matches(&graph, &q);

            let fixed = db.run_query(&q, QueryOptions::default()).unwrap();
            assert_eq!(
                fixed.count,
                expected,
                "Q{j} on {} (optimizer plan)",
                dataset.name()
            );

            let adaptive = db
                .run_query(&q, QueryOptions::new().adaptive(true))
                .unwrap();
            assert_eq!(
                adaptive.count,
                expected,
                "Q{j} on {} (adaptive)",
                dataset.name()
            );

            let parallel = db.run_query(&q, QueryOptions::new().threads(4)).unwrap();
            assert_eq!(
                parallel.count,
                expected,
                "Q{j} on {} (parallel)",
                dataset.name()
            );

            let bt = backtracking_count(&graph, &q, BacktrackOptions::default());
            assert_eq!(bt, expected, "Q{j} on {} (backtracking)", dataset.name());

            if j != 6 {
                // The naive BJ engine materialises open cliques; skip the 4-clique for speed.
                let bj = bj_engine_count(&graph, &q, BjEngineOptions::default());
                match bj.count() {
                    Some(count) => {
                        assert_eq!(count, expected, "Q{j} on {} (BJ engine)", dataset.name())
                    }
                    // Q10 (two vertex-disjoint triangles sharing a bridge) blows past the
                    // engine's intermediate cap on the denser profiles — that abort is its
                    // documented behaviour, mirroring the paper's timeout columns. Every
                    // other query must complete and agree.
                    None => assert_eq!(j, 10, "only Q10 may abort (Q{j} did)"),
                }
            }
        }
    }
}

#[test]
fn ghd_plans_agree_with_reference_counts() {
    let graph = Dataset::Google.generate(SCALE);
    let db = GraphflowDB::with_config(graph.clone(), Default::default());
    let catalogue = db.catalogue();
    let planner = GhdPlanner::new(&catalogue);
    for j in [1usize, 3, 5, 8] {
        let q = patterns::benchmark_query(j);
        let expected = count_matches(&graph, &q);
        for policy in [
            OrderingPolicy::Lexicographic,
            OrderingPolicy::BestCost,
            OrderingPolicy::WorstCost,
        ] {
            let plan = planner.plan(&q, policy).expect("EH plan exists");
            let result = db.run_plan(&plan, QueryOptions::default()).unwrap();
            assert_eq!(result.count, expected, "Q{j} with {policy:?}");
        }
    }
}

#[test]
fn labelled_workloads_agree_across_engines() {
    let graph = Dataset::Amazon.generate(SCALE);
    for labels in [2u16, 3] {
        let labelled = graphflow_datasets::with_random_edge_labels(&graph, labels, 7);
        let db = GraphflowDB::with_config(labelled.clone(), Default::default());
        for j in [1usize, 3, 4, 8] {
            let q = patterns::label_query_edges_randomly(&patterns::benchmark_query(j), labels, 11);
            let expected = count_matches(&labelled, &q);
            let result = db.run_query(&q, QueryOptions::default()).unwrap();
            assert_eq!(result.count, expected, "Q{j} with {labels} labels");
            let bt = backtracking_count(&labelled, &q, BacktrackOptions::default());
            assert_eq!(bt, expected, "Q{j} with {labels} labels (backtracking)");
        }
    }
}

#[test]
fn optimizer_pick_is_never_worse_than_four_times_the_best_plan_cost() {
    // A self-consistency check in the spirit of the Section 8.2 summary: on the small profiles
    // the optimizer's *measured* runtime proxy (actual i-cost) should not be far from the best
    // spectrum plan's.
    use graphflow_plan::spectrum::{enumerate_spectrum, SpectrumLimits};
    let graph = Dataset::Epinions.generate(SCALE);
    let db = GraphflowDB::with_config(graph.clone(), Default::default());
    let model = *graphflow_plan::dp::DpOptimizer::new(&db.catalogue()).cost_model();
    for j in [1usize, 3, 4] {
        let q = patterns::benchmark_query(j);
        let chosen = db.plan(&q).unwrap();
        let chosen_icost = db
            .run_plan(&chosen, QueryOptions::default())
            .unwrap()
            .stats
            .icost;
        let spectrum = enumerate_spectrum(&q, &db.catalogue(), &model, SpectrumLimits::default());
        let best_icost = spectrum
            .iter()
            .map(|sp| {
                db.run_plan(&sp.plan, QueryOptions::default())
                    .unwrap()
                    .stats
                    .icost
            })
            .min()
            .unwrap_or(0);
        assert!(
            chosen_icost <= best_icost.max(1) * 4,
            "Q{j}: chosen i-cost {chosen_icost} vs best {best_icost}"
        );
    }
}

#[test]
fn output_limits_and_tuple_collection_work_end_to_end() {
    let graph = Dataset::Epinions.generate(SCALE);
    let db = GraphflowDB::with_config(graph.clone(), Default::default());
    let q = patterns::asymmetric_triangle();
    let full = db.run_query(&q, QueryOptions::default()).unwrap();
    let limited = db.run_query(&q, QueryOptions::new().limit(5)).unwrap();
    assert!(limited.count <= 5.min(full.count));
    let collected = db
        .run_query(
            &q,
            QueryOptions::new().collect_tuples(true).collect_limit(10),
        )
        .unwrap();
    for t in &collected.tuples {
        assert!(graph.has_edge(t[0], t[1], graphflow_graph::EdgeLabel(0)));
        assert!(graph.has_edge(t[1], t[2], graphflow_graph::EdgeLabel(0)));
        assert!(graph.has_edge(t[0], t[2], graphflow_graph::EdgeLabel(0)));
    }
}
