//! An EmptyHeaded-style planner: generalized hypertree decompositions (GHDs) ranked by
//! fractional edge cover width (the AGM bound), used as the paper's main baseline (Section 8.4
//! and Appendix A).
//!
//! EmptyHeaded evaluates each GHD bag with a WCO (Generic Join) plan and then joins the bag
//! results with binary joins. Its width-based cost metric depends only on the query, so it picks
//! the same decomposition for every input graph, and it does not optimize the query-vertex
//! ordering inside a bag — the paper exploits both shortcomings. This module reproduces that
//! behaviour:
//!
//! * [`fractional_edge_cover`] computes the AGM exponent of a (sub-)query exactly for small
//!   queries (edge-cover LPs are half-integral, so a `{0, ½, 1}` search is exact);
//! * [`GhdPlanner`] enumerates decompositions with one or two bags (all the paper's benchmark
//!   queries have minimum-width GHDs of at most two bags), keeps the minimum-width ones, and
//!   instantiates them with a configurable per-bag ordering policy, giving the paper's `EH-b`
//!   (bad orderings) and `EH-g` (good orderings) variants;
//! * [`GhdPlanner::spectrum`] enumerates every (min-width GHD, bag-ordering) combination — the
//!   EH plan spectra of Figure 9.

use graphflow_catalog::Catalogue;
use graphflow_plan::cost::{CostModel, Estimator};
use graphflow_plan::plan::{Plan, PlanNode};
use graphflow_plan::wco::wco_node_for_ordering;
use graphflow_query::querygraph::{set_iter, set_len, singleton, VertexSet};
use graphflow_query::QueryGraph;

/// How the planner picks the query-vertex ordering inside each GHD bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// The lexicographically smallest executable ordering (EmptyHeaded's default behaviour:
    /// whatever order the user happened to write the variables in).
    Lexicographic,
    /// The ordering with the lowest estimated i-cost (the paper's `EH-g`, i.e. EmptyHeaded
    /// forced to use Graphflow's orderings).
    BestCost,
    /// The ordering with the highest estimated i-cost (the paper's `EH-b`).
    WorstCost,
}

/// A generalized hypertree decomposition restricted to the shapes needed here: an ordered list
/// of bags (vertex sets); consecutive bags are joined.
#[derive(Debug, Clone, PartialEq)]
pub struct Ghd {
    pub bags: Vec<VertexSet>,
    /// The width: the maximum fractional edge cover number over the bags.
    pub width: f64,
}

/// The EmptyHeaded-style planner.
pub struct GhdPlanner<'a> {
    catalogue: &'a Catalogue,
    model: CostModel,
}

impl<'a> GhdPlanner<'a> {
    pub fn new(catalogue: &'a Catalogue) -> Self {
        GhdPlanner {
            catalogue,
            model: CostModel::default(),
        }
    }

    /// All minimum-width decompositions of `q` (1 or 2 bags).
    pub fn min_width_ghds(&self, q: &QueryGraph) -> Vec<Ghd> {
        let mut ghds = enumerate_ghds(q);
        if ghds.is_empty() {
            return ghds;
        }
        let min = ghds.iter().map(|g| g.width).fold(f64::INFINITY, f64::min);
        ghds.retain(|g| (g.width - min).abs() < 1e-9);
        // Prefer fewer bags first (EmptyHeaded breaks ties towards simpler decompositions).
        ghds.sort_by_key(|g| g.bags.len());
        ghds
    }

    /// Produce the plan EmptyHeaded would run: the first minimum-width GHD, each bag evaluated
    /// with a WCO plan whose ordering follows `policy`, bags combined with hash joins.
    pub fn plan(&self, q: &QueryGraph, policy: OrderingPolicy) -> Option<Plan> {
        let ghds = self.min_width_ghds(q);
        let ghd = ghds.first()?;
        self.instantiate(&mut self.estimator(q), ghd, policy)
    }

    /// Every (min-width GHD, per-bag ordering) combination — the EH plan spectrum of Figure 9.
    pub fn spectrum(&self, q: &QueryGraph) -> Vec<Plan> {
        let est = &mut self.estimator(q);
        let mut plans = Vec::new();
        for ghd in self.min_width_ghds(q) {
            let per_bag_orderings: Vec<Vec<Vec<usize>>> = ghd
                .bags
                .iter()
                .map(|&bag| executable_orderings(q, bag))
                .collect();
            // Cartesian product over bags.
            let mut index = vec![0usize; ghd.bags.len()];
            if per_bag_orderings.iter().any(|o| o.is_empty()) {
                continue;
            }
            'combos: loop {
                let orderings: Vec<&Vec<usize>> = index
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| &per_bag_orderings[i][j])
                    .collect();
                if let Some(plan) = self.build_plan(est, &orderings) {
                    plans.push(plan);
                }
                // Advance the mixed-radix counter; exhausting it moves on to the next GHD.
                let mut pos = 0;
                loop {
                    if pos == index.len() {
                        break 'combos;
                    }
                    index[pos] += 1;
                    if index[pos] < per_bag_orderings[pos].len() {
                        break;
                    }
                    index[pos] = 0;
                    pos += 1;
                }
            }
        }
        plans
    }

    /// The one estimate table every plan of `q` built here is priced through.
    fn estimator<'q>(&'q self, q: &'q QueryGraph) -> Estimator<'q> {
        Estimator::new(q, self.catalogue, self.model)
    }

    fn instantiate(
        &self,
        est: &mut Estimator<'_>,
        ghd: &Ghd,
        policy: OrderingPolicy,
    ) -> Option<Plan> {
        let orderings: Vec<Vec<usize>> = ghd
            .bags
            .iter()
            .map(|&bag| self.pick_ordering(est, bag, policy))
            .collect::<Option<Vec<_>>>()?;
        let refs: Vec<&Vec<usize>> = orderings.iter().collect();
        self.build_plan(est, &refs)
    }

    fn build_plan(&self, est: &mut Estimator<'_>, orderings: &[&Vec<usize>]) -> Option<Plan> {
        let q = est.query();
        let mut nodes: Vec<PlanNode> = Vec::new();
        for ordering in orderings {
            nodes.push(bag_node(q, ordering)?);
        }
        // Join the bags left to right (EmptyHeaded joins leaf bags into their parents; with at
        // most two bags the order is immaterial).
        let mut acc = nodes.remove(0);
        for node in nodes {
            // Build on the smaller side by estimated cardinality.
            let c_acc = est.estimate_cost(&acc).output_cardinality;
            let c_node = est.estimate_cost(&node).output_cardinality;
            acc = if c_node <= c_acc {
                PlanNode::hash_join(q, node, acc)?
            } else {
                PlanNode::hash_join(q, acc, node)?
            };
        }
        let cost = est.estimate_cost(&acc);
        Some(Plan::new(q.clone(), acc, cost.total()))
    }

    fn pick_ordering(
        &self,
        est: &mut Estimator<'_>,
        bag: VertexSet,
        policy: OrderingPolicy,
    ) -> Option<Vec<usize>> {
        let q = est.query();
        let orderings = executable_orderings(q, bag);
        if orderings.is_empty() {
            return None;
        }
        match policy {
            OrderingPolicy::Lexicographic => orderings.into_iter().min(),
            OrderingPolicy::BestCost | OrderingPolicy::WorstCost => {
                let mut scored: Vec<(f64, Vec<usize>)> = orderings
                    .into_iter()
                    .filter_map(|sigma| {
                        let node = bag_node(q, &sigma)?;
                        let cost = est.estimate_cost(&node);
                        Some((cost.total(), sigma))
                    })
                    .collect();
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                match policy {
                    OrderingPolicy::BestCost => scored.first().map(|(_, s)| s.clone()),
                    _ => scored.last().map(|(_, s)| s.clone()),
                }
            }
        }
    }
}

/// Build the WCO chain for one bag following `ordering` (indices are original query vertices).
fn bag_node(q: &QueryGraph, ordering: &[usize]) -> Option<PlanNode> {
    if ordering.len() == 1 {
        return None; // single-vertex bags are not meaningful here
    }
    wco_node_for_ordering(q, ordering)
}

/// All executable orderings of the vertices of `bag` (prefixes connected, first two share an
/// edge).
fn executable_orderings(q: &QueryGraph, bag: VertexSet) -> Vec<Vec<usize>> {
    graphflow_query::qvo::orderings_extending(q, 0, bag, usize::MAX)
        .into_iter()
        .filter(|sigma| {
            sigma.len() >= 2
                && q.edges().iter().any(|e| {
                    (e.src == sigma[0] && e.dst == sigma[1])
                        || (e.src == sigma[1] && e.dst == sigma[0])
                })
        })
        .collect()
}

/// Enumerate the candidate GHDs: the single-bag decomposition plus every two-bag decomposition
/// whose bags are connected, cover every query edge and share at least one vertex.
fn enumerate_ghds(q: &QueryGraph) -> Vec<Ghd> {
    let full = q.full_set();
    let mut out = vec![Ghd {
        bags: vec![full],
        width: fractional_edge_cover_of_subset(q, full),
    }];
    let members: Vec<usize> = set_iter(full).collect();
    let total = 1u32 << members.len();
    for mask1 in 1..total - 1 {
        let b1: VertexSet = members
            .iter()
            .enumerate()
            .filter(|(i, _)| mask1 & (1 << i) != 0)
            .fold(0, |acc, (_, &v)| acc | singleton(v));
        if set_len(b1) < 2 || !q.is_connected_subset(b1) {
            continue;
        }
        for mask2 in (mask1 + 1)..total - 1 {
            if mask1 | mask2 != total - 1 {
                continue;
            }
            let b2: VertexSet = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask2 & (1 << i) != 0)
                .fold(0, |acc, (_, &v)| acc | singleton(v));
            if set_len(b2) < 2 || b1 & b2 == 0 || !q.is_connected_subset(b2) {
                continue;
            }
            // Every query edge must live inside one of the bags.
            let covered = q.edges().iter().all(|e| {
                let es = singleton(e.src) | singleton(e.dst);
                es & !b1 == 0 || es & !b2 == 0
            });
            if !covered {
                continue;
            }
            let width =
                fractional_edge_cover_of_subset(q, b1).max(fractional_edge_cover_of_subset(q, b2));
            out.push(Ghd {
                bags: vec![b1, b2],
                width,
            });
        }
    }
    out
}

fn fractional_edge_cover_of_subset(q: &QueryGraph, set: VertexSet) -> f64 {
    let (proj, _) = q.project(set);
    fractional_edge_cover(&proj)
}

/// The minimum fractional edge cover number ρ* of a query graph (its AGM exponent).
///
/// The LP relaxation of edge cover is half-integral, so an exact optimum is found by searching
/// assignments `x_e ∈ {0, ½, 1}`. Queries with more than 14 edges fall back to the `|V|/2`
/// bound, which is exact for cliques and other graphs with perfect fractional matchings (only
/// the 7-clique query exceeds the limit, and its ρ* is exactly 3.5).
pub fn fractional_edge_cover(q: &QueryGraph) -> f64 {
    let n = q.num_vertices();
    // Collapse parallel/antiparallel edges: cover is about the underlying undirected graph.
    let mut pairs: Vec<(usize, usize)> = q
        .edges()
        .iter()
        .map(|e| (e.src.min(e.dst), e.src.max(e.dst)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let m = pairs.len();
    if m == 0 {
        return 0.0;
    }
    if m > 14 {
        return n as f64 / 2.0;
    }
    // Every vertex must be covered with total weight >= 1.
    let mut best = f64::INFINITY;
    let mut assignment = vec![0u8; m]; // 0, 1, 2 meaning 0, 1/2, 1
    loop {
        // Evaluate.
        let mut coverage = vec![0.0f64; n];
        let mut total = 0.0;
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let w = assignment[i] as f64 / 2.0;
            coverage[a] += w;
            coverage[b] += w;
            total += w;
        }
        let feasible = (0..n).all(|v| {
            let isolated = !pairs.iter().any(|&(a, b)| a == v || b == v);
            isolated || coverage[v] >= 1.0 - 1e-9
        });
        if feasible && total < best {
            best = total;
        }
        // Advance the base-3 counter.
        let mut pos = 0;
        loop {
            if pos == m {
                return best;
            }
            assignment[pos] += 1;
            if assignment[pos] <= 2 {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_query::patterns;
    use std::sync::Arc;

    fn graph() -> Arc<Graph> {
        let edges = graphflow_graph::generator::powerlaw_cluster(400, 3, 0.5, 3);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        Arc::new(b.build())
    }

    #[test]
    fn fractional_edge_cover_known_values() {
        // Triangle: 3/2. 4-clique: 2. 5-clique: 5/2. Single edge: 1. Path of 3 vertices: 2...
        // actually a 2-edge path needs both edges => 2. 4-cycle: 2. 6-cycle: 3.
        assert!((fractional_edge_cover(&patterns::asymmetric_triangle()) - 1.5).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_clique(4)) - 2.0).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_clique(5)) - 2.5).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_path(2)) - 1.0).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_path(3)) - 2.0).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_cycle(4)) - 2.0).abs() < 1e-9);
        assert!((fractional_edge_cover(&patterns::directed_cycle(6)) - 3.0).abs() < 1e-9);
        // Diamond-X: the two triangles overlap; ρ* = 2 (cover edges a1a2? — verified by LP).
        assert!((fractional_edge_cover(&patterns::diamond_x()) - 2.0).abs() < 1e-9);
        // 7-clique uses the fallback, which is exact for cliques.
        assert!((fractional_edge_cover(&patterns::directed_clique(7)) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn min_width_ghd_for_q8_is_two_triangles() {
        // Q8 = two triangles sharing a vertex: the minimum-width GHD has two triangle bags of
        // width 3/2 (the paper notes EH generates exactly this decomposition).
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let planner = GhdPlanner::new(&cat);
        let q = patterns::benchmark_query(8);
        let ghds = planner.min_width_ghds(&q);
        assert!(!ghds.is_empty());
        assert!((ghds[0].width - 1.5).abs() < 1e-9);
        assert_eq!(ghds[0].bags.len(), 2);
        for ghd in &ghds {
            assert!((ghd.width - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn single_bag_ghd_for_cliques() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let planner = GhdPlanner::new(&cat);
        let q = patterns::directed_clique(4);
        let ghds = planner.min_width_ghds(&q);
        assert_eq!(ghds[0].bags.len(), 1);
        let plan = planner.plan(&q, OrderingPolicy::Lexicographic).unwrap();
        assert!(!plan.root.has_hash_join());
    }

    #[test]
    fn good_orderings_cost_no_more_than_bad_ones() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let planner = GhdPlanner::new(&cat);
        for j in [3usize, 5, 8] {
            let q = patterns::benchmark_query(j);
            let good = planner.plan(&q, OrderingPolicy::BestCost).unwrap();
            let bad = planner.plan(&q, OrderingPolicy::WorstCost).unwrap();
            assert!(
                good.estimated_cost <= bad.estimated_cost + 1e-6,
                "Q{j}: good {} > bad {}",
                good.estimated_cost,
                bad.estimated_cost
            );
        }
    }

    #[test]
    fn spectrum_enumerates_bag_orderings() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let planner = GhdPlanner::new(&cat);
        let q = patterns::asymmetric_triangle();
        let plans = planner.spectrum(&q);
        // Single bag, all 6 orderings.
        assert_eq!(plans.len(), 6);
        let q8 = patterns::benchmark_query(8);
        let plans8 = planner.spectrum(&q8);
        assert!(!plans8.is_empty());
        assert!(plans8.iter().all(|p| p.root.vertex_set() == q8.full_set()));
    }
}
