//! Enumeration of WCO plans.
//!
//! A WCO plan is a chain SCAN → E/I → ... → E/I determined by a query-vertex ordering whose
//! every prefix is connected. Algorithm 1 of the paper starts by enumerating *all* WCO plans
//! (`enumerateAllWCOPlans`) because the best WCO plan for a sub-query `Q_k` is not necessarily
//! an extension of the best WCO plan for one of its `Q_{k-1}` sub-queries — intersection-cache
//! reuse can make an extension of a worse prefix cheaper overall (Section 4.3). The DP
//! optimizer's per-(subset, order class) table subsumes that phase (see [`crate::dp`]).
//!
//! [`all_wco_plans`] returns one complete plan per distinct query-vertex ordering: the WCO part
//! of the plan-spectrum experiments, and the exhaustive baseline the DP's tests check its picks
//! against. The DP's own WCO-only space (`PlanSpaceOptions::wco_only`) does not enumerate them.

use crate::cost::{CostModel, Estimator};
use crate::plan::{Plan, PlanNode};
use graphflow_catalog::Catalogue;
use graphflow_query::QueryGraph;

/// One complete WCO plan per *distinct* query-vertex ordering (orderings equivalent under an
/// automorphism of the query are collapsed, as in the paper's plan counts).
pub fn all_wco_plans(q: &QueryGraph, catalogue: &Catalogue, model: &CostModel) -> Vec<Plan> {
    all_wco_plans_in(&mut Estimator::new(q, catalogue, *model))
}

/// [`all_wco_plans`] of the estimator's query, priced through its table.
pub(crate) fn all_wco_plans_in(est: &mut Estimator<'_>) -> Vec<Plan> {
    let q = est.query();
    let mut plans = Vec::new();
    for sigma in graphflow_query::qvo::distinct_orderings(q) {
        if let Some(node) = wco_node_for_ordering(q, &sigma) {
            let cost = est.estimate_cost(&node);
            plans.push(Plan::new(q.clone(), node, cost.total()));
        }
    }
    plans
}

/// Build (and cost) the WCO plan following a specific ordering. Returns `None` when the ordering
/// is not executable (its first two vertices do not share a query edge, or some prefix would
/// need a Cartesian extension).
pub fn wco_plan_for_ordering(
    q: &QueryGraph,
    catalogue: &Catalogue,
    model: &CostModel,
    sigma: &[usize],
) -> Option<Plan> {
    let node = wco_node_for_ordering(q, sigma)?;
    let cost = Estimator::new(q, catalogue, *model).estimate_cost(&node);
    Some(Plan::new(q.clone(), node, cost.total()))
}

/// Build the operator chain for an ordering without costing it.
pub fn wco_node_for_ordering(q: &QueryGraph, sigma: &[usize]) -> Option<PlanNode> {
    if sigma.len() < 2 {
        return None;
    }
    let edge = q
        .edges()
        .iter()
        .find(|e| {
            (e.src == sigma[0] && e.dst == sigma[1]) || (e.src == sigma[1] && e.dst == sigma[0])
        })
        .copied()?;
    let mut node = PlanNode::scan(edge);
    for &t in &sigma[2..] {
        node = PlanNode::extend(q, node, t)?;
    }
    Some(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_query::patterns;
    use std::sync::Arc;

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

    #[test]
    fn all_wco_plans_counts() {
        let g = complete_graph(5);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();

        // Asymmetric triangle: 6 distinct orderings, all executable (every pair is an edge).
        let tri = patterns::asymmetric_triangle();
        assert_eq!(all_wco_plans(&tri, &cat, &model).len(), 6);

        // Diamond-X: orderings whose first two vertices are {a1,a4} are not executable, the
        // rest are. 4! = 24 orderings, minus 2*2 = 4 starting with the non-edge pair = 20...
        // of which only those with connected prefixes survive; assert the exact value computed
        // from the definition instead of a magic number.
        let dx = patterns::diamond_x();
        let expected = graphflow_query::qvo::distinct_orderings(&dx)
            .into_iter()
            .filter(|s| graphflow_query::extension::extension_chain(&dx, s).is_some())
            .count();
        assert_eq!(all_wco_plans(&dx, &cat, &model).len(), expected);
        assert!(
            expected >= 8,
            "diamond-X has at least the 8 plans of Table 3, got {expected}"
        );
    }

    #[test]
    fn plans_are_costed_and_classified_wco() {
        let g = complete_graph(6);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::tailed_triangle();
        for plan in all_wco_plans(&q, &cat, &model) {
            assert!(plan.estimated_cost >= 0.0);
            assert_eq!(plan.class(), crate::plan::PlanClass::Wco);
            assert_eq!(plan.root.vertex_set(), q.full_set());
        }
    }

    #[test]
    fn ordering_round_trip() {
        let q = patterns::diamond_x();
        let node = wco_node_for_ordering(&q, &[1, 2, 0, 3]).unwrap();
        assert_eq!(node.out(), &[1, 2, 0, 3]);
        assert!(wco_node_for_ordering(&q, &[0, 3, 1, 2]).is_none());
    }
}
