//! Property tests for the cardinality estimator feeding the DP optimizer.
//!
//! Two properties pin the estimator's behaviour:
//!
//! 1. **Exactness on brute-force-enumerable graphs** — on vertex-transitive graphs (complete
//!    graphs here) every catalogue µ entry is exact, so the estimated cardinality of every
//!    predicate-free sub-plan must equal the exact sub-query count computed by the reference
//!    matcher.
//! 2. **Monotonicity under predicates** — adding a WHERE conjunct can only remove matches, so
//!    it must never *increase* any intermediate cardinality estimate, for any sub-plan of any
//!    ordering. The filter-aware DP relies on this: a filter on an interior vertex shrinks
//!    every sub-plan that binds it and never inflates a competitor.

use graphflow_catalog::Catalogue;
use graphflow_graph::{Graph, GraphBuilder, PropValue};
use graphflow_plan::cost::{CostModel, Estimator, PlanCost};
use graphflow_plan::plan::PlanNode;
use graphflow_plan::wco::all_wco_plans;
use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
use graphflow_query::{patterns, QueryGraph};
use std::sync::Arc;

/// The cost of one sub-plan on an estimate table of its own.
fn estimate_cost(q: &QueryGraph, cat: &Catalogue, model: &CostModel, node: &PlanNode) -> PlanCost {
    Estimator::new(q, cat, *model).estimate_cost(node)
}

fn complete_graph(n: usize) -> Arc<Graph> {
    let mut b = GraphBuilder::new();
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i != j {
                b.add_edge(i, j);
            }
        }
    }
    Arc::new(b.build())
}

fn powerlaw_graph() -> Arc<Graph> {
    let edges = graphflow_graph::generator::powerlaw_cluster(500, 3, 0.5, 11);
    let mut b = GraphBuilder::new();
    b.add_edges(edges);
    Arc::new(b.build())
}

/// The node itself plus every operator below it, root last.
fn chain_prefixes(node: &PlanNode) -> Vec<PlanNode> {
    let mut out = Vec::new();
    fn walk(node: &PlanNode, out: &mut Vec<PlanNode>) {
        match node {
            PlanNode::Extend(e) => walk(&e.child, out),
            PlanNode::HashJoin(j) => {
                walk(&j.build, out);
                walk(&j.probe, out);
            }
            PlanNode::Scan(_) => {}
        }
        out.push(node.clone());
    }
    walk(node, &mut out);
    out
}

fn small_queries() -> Vec<(&'static str, QueryGraph)> {
    vec![
        ("triangle", patterns::asymmetric_triangle()),
        ("path3", patterns::directed_path(3)),
        ("path4", patterns::directed_path(4)),
        ("diamond-x", patterns::diamond_x()),
        ("4-clique", patterns::directed_clique(4)),
    ]
}

#[test]
fn predicate_free_estimates_are_exact_on_complete_graphs() {
    // Complete graphs are vertex-transitive: the average extension count the catalogue stores
    // is the exact count for every prefix instance, so estimates must be *exact* for every
    // sub-plan of every WCO ordering.
    let model = CostModel::default();
    for n in [5usize, 7] {
        let g = complete_graph(n);
        let cat = Catalogue::with_defaults(g);
        for (name, q) in small_queries() {
            for plan in all_wco_plans(&q, &cat, &model) {
                for prefix in chain_prefixes(&plan.root) {
                    let est = estimate_cost(&q, &cat, &model, &prefix).output_cardinality;
                    let exact = cat.exact_cardinality(&q, prefix.vertex_set()) as f64;
                    let rel = (est - exact).abs() / exact.max(1.0);
                    assert!(
                        rel < 1e-9,
                        "K{n}/{name}: sub-plan over {:#b} estimated {est}, exact {exact}",
                        prefix.vertex_set()
                    );
                }
            }
        }
    }
}

#[test]
fn scan_estimates_are_exact_on_arbitrary_graphs() {
    // Two-vertex sub-queries are stored exactly in the catalogue regardless of graph shape.
    let g = powerlaw_graph();
    let cat = Catalogue::with_defaults(g);
    let model = CostModel::default();
    for (name, q) in small_queries() {
        for plan in all_wco_plans(&q, &cat, &model) {
            for prefix in chain_prefixes(&plan.root) {
                if let PlanNode::Scan(_) = prefix {
                    let est = estimate_cost(&q, &cat, &model, &prefix).output_cardinality;
                    let exact = cat.exact_cardinality(&q, prefix.vertex_set()) as f64;
                    assert!(
                        (est - exact).abs() < 1e-9,
                        "{name}: scan estimated {est}, exact {exact}"
                    );
                }
            }
        }
    }
}

fn with_predicate(q: &QueryGraph, vertex: usize, op: CmpOp) -> QueryGraph {
    let mut filtered = q.clone();
    filtered.add_predicate(Predicate {
        target: PredTarget::Vertex(vertex),
        key: "age".into(),
        op,
        value: PropValue::Int(30),
    });
    filtered
}

#[test]
fn adding_a_conjunct_never_increases_any_intermediate_estimate() {
    let g = powerlaw_graph();
    let cat = Catalogue::with_defaults(g);
    let model = CostModel::default();
    for (name, q) in small_queries() {
        let base_plans = all_wco_plans(&q, &cat, &model);
        for vertex in 0..q.num_vertices() {
            for op in [CmpOp::Eq, CmpOp::Gt, CmpOp::Ne] {
                let filtered = with_predicate(&q, vertex, op);
                for plan in &base_plans {
                    for prefix in chain_prefixes(&plan.root) {
                        let plain = estimate_cost(&q, &cat, &model, &prefix).output_cardinality;
                        let filt =
                            estimate_cost(&filtered, &cat, &model, &prefix).output_cardinality;
                        assert!(
                            filt <= plain * (1.0 + 1e-9),
                            "{name}: predicate on v{vertex} ({op:?}) raised the estimate of \
                             sub-plan {:#b} from {plain} to {filt}",
                            prefix.vertex_set()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn conjuncts_stack_monotonically() {
    // A second conjunct on an already-filtered query shrinks (or keeps) every estimate again.
    let g = powerlaw_graph();
    let cat = Catalogue::with_defaults(g);
    let model = CostModel::default();
    for (name, q) in small_queries() {
        let base_plans = all_wco_plans(&q, &cat, &model);
        let once = with_predicate(&q, 0, CmpOp::Gt);
        for vertex in 0..q.num_vertices() {
            let twice = with_predicate(&once, vertex, CmpOp::Eq);
            for plan in &base_plans {
                for prefix in chain_prefixes(&plan.root) {
                    let one = estimate_cost(&once, &cat, &model, &prefix).output_cardinality;
                    let two = estimate_cost(&twice, &cat, &model, &prefix).output_cardinality;
                    assert!(
                        two <= one * (1.0 + 1e-9),
                        "{name}: second conjunct on v{vertex} raised sub-plan {:#b} from {one} \
                         to {two}",
                        prefix.vertex_set()
                    );
                }
            }
        }
    }
}
