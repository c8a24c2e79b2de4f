//! Golden DP picks: the optimizer's chosen plan (structural fingerprint) and its
//! `estimated_cost`, bit for bit, as recorded **at the commit before the per-query estimate
//! table existed** (PR 17, `e9a1420`). The estimate table only changes *how often* the
//! catalogue is asked, never *what* it answers, so every line must stay exactly as it was:
//! same plans, same costs, same lazily sampled catalogue state behind them. Sampling is
//! seeded, so the file is deterministic.
//!
//! Four sections share one catalogue each, in file order (the order matters: entries are
//! sampled on first use and memoised):
//!
//! * Q1–Q14 on the seeded power-law graph the `plan` crate's unit tests use, under the
//!   default optimizer and every ablation (plan space × cache model × filter model);
//! * Q1–Q14 on the Epinions profile;
//! * 120 seeded random connected 4–6-vertex patterns over 3 edge labels on the labelled
//!   Amazon profile — the shape of the benchmark's `cold_plan` list;
//! * the pruned large-query mode on the power-law graph, in all three plan spaces:
//!   `directed_path(13)` and `(14)`, eight seeded random connected 13–15-vertex patterns, and
//!   Q1–Q14 with `full_enumeration_limit = 3`. Its level selection breaks ties (isomorphic
//!   sub-queries, the common case) by hash-map order, and the choice cascades — a different
//!   order once cost `directed_path(14)` a 50× dearer plan and turned plans into `none`.

use graphflow_catalog::Catalogue;
use graphflow_datasets::{with_random_edge_labels, Dataset};
use graphflow_graph::{EdgeLabel, Graph, GraphBuilder, PropValue};
use graphflow_plan::dp::PlanSpaceOptions;
use graphflow_plan::{CostModel, DpOptimizer};
use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
use graphflow_query::{patterns, QueryGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/dp_picks.txt");

fn powerlaw_graph() -> Arc<Graph> {
    let edges = graphflow_graph::generator::powerlaw_cluster(800, 4, 0.5, 7);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    Arc::new(b.build())
}

/// A random connected pattern of `sizes` vertices: a random spanning tree plus up to three
/// extra edges, random directions, labels drawn from `0..labels`.
fn random_pattern(rng: &mut StdRng, sizes: Range<usize>, labels: u16) -> QueryGraph {
    let n = rng.gen_range(sizes);
    let mut q = QueryGraph::new();
    for _ in 0..n {
        q.add_default_vertex();
    }
    let edge = |q: &mut QueryGraph, a: usize, b: usize, rng: &mut StdRng| {
        let (s, d) = if rng.gen_range(0..2usize) == 0 {
            (a, b)
        } else {
            (b, a)
        };
        q.add_edge(s, d, EdgeLabel(rng.gen_range(0..labels)));
    };
    for v in 1..n {
        let u = rng.gen_range(0..v);
        edge(&mut q, u, v, rng);
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edge(&mut q, a, b, rng);
        }
    }
    q
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
        let q = random_pattern(&mut rng, 4..7, 3);
        line(&mut out, &format!("amazon3 #{i} [{q}]"), &opt, &q);
    }

    let cat = Catalogue::with_defaults(powerlaw_graph());
    let mut rng = StdRng::seed_from_u64(0xB16);
    let mut large = vec![patterns::directed_path(13), patterns::directed_path(14)];
    large.extend((0..8).map(|_| random_pattern(&mut rng, 13..16, 1)));
    for (space_name, space) in spaces {
        let opt = DpOptimizer::new(&cat).with_options(space);
        for q in &large {
            line(&mut out, &format!("pruned {space_name} [{q}]"), &opt, q);
        }
        let opt = opt.with_options(PlanSpaceOptions {
            full_enumeration_limit: 3,
            ..space
        });
        for (j, q) in patterns::all_benchmark_queries() {
            line(
                &mut out,
                &format!("pruned limit3 {space_name} Q{j}"),
                &opt,
                &q,
            );
        }
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
