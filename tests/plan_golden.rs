//! Golden DP picks: the optimizer's chosen plan (structural fingerprint) and its
//! `estimated_cost`, bit for bit. The first three sections are as recorded **at the commit
//! before the per-query estimate table existed** (`e9a1420`): the estimate table only changes
//! *how often* the catalogue is asked, never *what* it answers, so those lines must stay
//! exactly as they were: same plans, same costs, same lazily sampled catalogue state behind
//! them. Sampling is seeded, so the file is deterministic.
//!
//! Four sections share one catalogue each, in file order (the order matters: entries are
//! sampled on first use and memoised):
//!
//! * Q1–Q14 on the seeded power-law graph the `plan` crate's unit tests use, under the
//!   default optimizer and every ablation (plan space × cache model × filter model);
//! * Q1–Q14 on the Epinions profile;
//! * 120 seeded random connected 4–6-vertex patterns over 3 edge labels on the labelled
//!   Amazon profile — the shape of the benchmark's `cold_plan` list;
//! * large queries on the power-law graph, where the search commits units: the first ten
//!   patterns of [`patterns::large_corpus_a`] (`directed_path(13)` and `(14)` and eight
//!   seeded 13–15-vertex patterns) in all three plan spaces, then the rest of corpus A (forty
//!   13–17-vertex patterns) in the hybrid space. Which level commits depends on the search's
//!   work budget, so these picks also move when the budget or what it counts changes.
//!
//! `large_queries_always_get_a_plan` checks corpus B (18–31 vertices) for a full, finitely
//! costed plan: in full in release, on a three-pattern slice in debug.

use graphflow_catalog::Catalogue;
use graphflow_datasets::{with_random_edge_labels, Dataset};
use graphflow_graph::{Graph, GraphBuilder, PropValue};
use graphflow_plan::dp::PlanSpaceOptions;
use graphflow_plan::{CostModel, DpOptimizer};
use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
use graphflow_query::{patterns, QueryGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/dp_picks.txt");

fn powerlaw_graph() -> Arc<Graph> {
    let edges = graphflow_graph::generator::powerlaw_cluster(800, 4, 0.5, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    Arc::new(b.build())
}

fn line(out: &mut String, tag: &str, opt: &DpOptimizer<'_>, q: &QueryGraph) {
    match opt.optimize(q) {
        Some(plan) => writeln!(
            out,
            "{tag} {} {:016x} {:e}",
            plan.root.fingerprint(),
            plan.estimated_cost.to_bits(),
            plan.estimated_cost
        ),
        None => writeln!(out, "{tag} none"),
    }
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();

    let cat = Catalogue::with_defaults(powerlaw_graph());
    let spaces = [
        ("hybrid", PlanSpaceOptions::default()),
        ("wco", PlanSpaceOptions::wco_only()),
        ("bj", PlanSpaceOptions::binary_only()),
    ];
    let models = [
        ("default", CostModel::default()),
        ("oblivious", CostModel::default().cache_oblivious()),
        ("blind", CostModel::default().filter_blind()),
    ];
    for (j, q) in patterns::all_benchmark_queries() {
        let mut filtered = q.clone();
        filtered.add_predicate(Predicate {
            target: PredTarget::Vertex(q.num_vertices() - 1),
            key: "age".into(),
            op: CmpOp::Eq,
            value: PropValue::Int(7),
        });
        for (space_name, space) in spaces {
            for (model_name, model) in models {
                let opt = DpOptimizer::new(&cat)
                    .with_options(space)
                    .with_cost_model(model);
                line(
                    &mut out,
                    &format!("powerlaw Q{j} {space_name} {model_name}"),
                    &opt,
                    &q,
                );
                line(
                    &mut out,
                    &format!("powerlaw Q{j}+where {space_name} {model_name}"),
                    &opt,
                    &filtered,
                );
            }
        }
    }

    let cat = Catalogue::with_defaults(Dataset::Epinions.generate(1.0));
    let opt = DpOptimizer::new(&cat);
    for (j, q) in patterns::all_benchmark_queries() {
        line(&mut out, &format!("epinions Q{j}"), &opt, &q);
    }

    let labelled = with_random_edge_labels(&Dataset::Amazon.generate(0.5), 3, 0xC01D);
    let cat = Catalogue::with_defaults(labelled);
    let opt = DpOptimizer::new(&cat);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for i in 0..120 {
        let q = patterns::random_connected(&mut rng, 4..7, 3, 0..4);
        line(&mut out, &format!("amazon3 #{i} [{q}]"), &opt, &q);
    }

    let cat = Catalogue::with_defaults(powerlaw_graph());
    let corpus = patterns::large_corpus_a();
    for (space_name, space) in spaces {
        let opt = DpOptimizer::new(&cat).with_options(space);
        for q in &corpus[..10] {
            line(&mut out, &format!("large {space_name} [{q}]"), &opt, q);
        }
    }
    let opt = DpOptimizer::new(&cat);
    for (i, q) in corpus.iter().enumerate().skip(10) {
        line(&mut out, &format!("corpus-a #{i} [{q}]"), &opt, q);
    }
    out
}

#[test]
fn dp_picks_and_costs_match_the_parent_commit() {
    let actual = render();
    if actual != GOLDEN {
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(a, g, "first difference at line {}", i + 1);
        }
        assert_eq!(actual.lines().count(), GOLDEN.lines().count());
    }
}

#[test]
fn large_queries_always_get_a_plan() {
    let cat = Catalogue::with_defaults(powerlaw_graph());
    let opt = DpOptimizer::new(&cat);
    let corpus = patterns::large_corpus_b();
    // Debug builds check a slice: the two paths and the first seeded pattern.
    let take = if cfg!(debug_assertions) {
        3
    } else {
        corpus.len()
    };
    for q in &corpus[..take] {
        let plan = opt.optimize(q).unwrap_or_else(|| panic!("no plan for {q}"));
        assert_eq!(plan.root.vertex_set(), q.full_set(), "{q}");
        assert!(plan.estimated_cost.is_finite(), "{q}");
    }
}
