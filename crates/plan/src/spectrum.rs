//! Enumeration of the *whole* plan space of a query — the "plan spectrum" experiments of the
//! paper (Figures 7, 8 and 9) run every plan of a query and compare the optimizer's pick against
//! the best and worst plans.
//!
//! The spectrum contains:
//!
//! * every WCO plan (one per distinct query-vertex ordering),
//! * every binary-join plan (join trees of single query edges that satisfy the projection
//!   constraint), and
//! * hybrid plans mixing E/I extensions and hash joins.
//!
//! The number of hybrid/BJ plan shapes grows quickly with query size, so the enumeration accepts
//! per-class limits; plans are de-duplicated by a structural fingerprint.

use crate::cost::{CostModel, Estimator};
use crate::plan::{Plan, PlanClass, PlanNode};
use crate::wco::all_wco_plans_in;
use graphflow_catalog::Catalogue;
use graphflow_query::querygraph::{set_iter, set_len, singleton, VertexSet};
use graphflow_query::QueryGraph;
use rustc_hash::{FxHashMap, FxHashSet};

/// Limits on spectrum enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumLimits {
    /// Maximum number of plan subtrees kept per vertex subset during recursive enumeration.
    pub max_plans_per_subset: usize,
    /// Maximum number of plans returned overall (per class, after classification).
    pub max_plans_per_class: usize,
}

impl Default for SpectrumLimits {
    fn default() -> Self {
        SpectrumLimits {
            max_plans_per_subset: 64,
            max_plans_per_class: 128,
        }
    }
}

/// One plan of a spectrum, tagged with its class and estimated cost.
#[derive(Debug, Clone)]
pub struct SpectrumPlan {
    pub plan: Plan,
    pub class: PlanClass,
}

/// Enumerate the plan spectrum of a query.
pub fn enumerate_spectrum(
    q: &QueryGraph,
    catalogue: &Catalogue,
    model: &CostModel,
    limits: SpectrumLimits,
) -> Vec<SpectrumPlan> {
    let mut est = Estimator::new(q, catalogue, *model);
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut out: Vec<SpectrumPlan> = Vec::new();

    // All WCO plans (never capped: the paper's spectra always include every ordering).
    for plan in all_wco_plans_in(&mut est) {
        if seen.insert(plan.root.fingerprint()) {
            out.push(SpectrumPlan {
                class: plan.class(),
                plan,
            });
        }
    }

    // Recursive enumeration of join-containing plans.
    let mut memo: FxHashMap<VertexSet, Vec<PlanNode>> = FxHashMap::default();
    let full = q.full_set();
    let roots = plans_for_subset(q, full, &mut memo, &limits);
    let mut counts: FxHashMap<PlanClass, usize> = FxHashMap::default();
    for node in roots {
        if !node.has_hash_join() {
            continue; // WCO chains are already included exhaustively above.
        }
        let fingerprint = node.fingerprint();
        if !seen.insert(fingerprint) {
            continue;
        }
        let cost = est.estimate_cost(&node);
        let plan = Plan::new(q.clone(), node, cost.total());
        let class = plan.class();
        let c = counts.entry(class).or_insert(0);
        if *c >= limits.max_plans_per_class {
            continue;
        }
        *c += 1;
        out.push(SpectrumPlan { plan, class });
    }
    out
}

/// All plan subtrees (up to the limits) computing the sub-query induced by `set`.
fn plans_for_subset(
    q: &QueryGraph,
    set: VertexSet,
    memo: &mut FxHashMap<VertexSet, Vec<PlanNode>>,
    limits: &SpectrumLimits,
) -> Vec<PlanNode> {
    if let Some(cached) = memo.get(&set) {
        return cached.clone();
    }
    let mut plans: Vec<PlanNode> = Vec::new();
    let mut fingerprints: FxHashSet<String> = FxHashSet::default();
    let k = set_len(set);

    if k == 2 {
        for &e in q.edges() {
            if singleton(e.src) | singleton(e.dst) == set {
                let node = PlanNode::scan(e);
                if fingerprints.insert(node.fingerprint()) {
                    plans.push(node);
                }
            }
        }
        memo.insert(set, plans.clone());
        return plans;
    }

    // E/I extensions of every (k-1)-subset.
    for target in set_iter(set) {
        let sub = set & !singleton(target);
        if !q.is_connected_subset(sub) || set_len(sub) < 2 {
            continue;
        }
        for child in plans_for_subset(q, sub, memo, limits) {
            if plans.len() >= limits.max_plans_per_subset {
                break;
            }
            if let Some(node) = PlanNode::extend(q, child, target) {
                if fingerprints.insert(node.fingerprint()) {
                    plans.push(node);
                }
            }
        }
    }

    // Hash joins of covering pairs.
    let members: Vec<usize> = set_iter(set).collect();
    let total = 1u32 << members.len();
    'outer: for mask1 in 1..total - 1 {
        let c1: VertexSet = members
            .iter()
            .enumerate()
            .filter(|(i, _)| mask1 & (1 << i) != 0)
            .fold(0, |acc, (_, &v)| acc | singleton(v));
        if set_len(c1) < 2 || !q.is_connected_subset(c1) {
            continue;
        }
        for mask2 in (mask1 + 1)..total - 1 {
            if mask1 | mask2 != total - 1 {
                continue;
            }
            let c2: VertexSet = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask2 & (1 << i) != 0)
                .fold(0, |acc, (_, &v)| acc | singleton(v));
            if set_len(c2) < 2 || c1 & c2 == 0 || !q.is_connected_subset(c2) {
                continue;
            }
            let left_plans = plans_for_subset(q, c1, memo, limits);
            let right_plans = plans_for_subset(q, c2, memo, limits);
            for l in &left_plans {
                for r in &right_plans {
                    if plans.len() >= limits.max_plans_per_subset {
                        break 'outer;
                    }
                    for (b, p) in [(l, r), (r, l)] {
                        if let Some(node) = PlanNode::hash_join(q, (*b).clone(), (*p).clone()) {
                            if fingerprints.insert(node.fingerprint()) {
                                plans.push(node);
                            }
                        }
                    }
                }
            }
        }
    }

    memo.insert(set, plans.clone());
    plans
}

/// Summary of a spectrum: how many plans of each class, the best/worst costs, and whether the
/// optimizer's pick is within a factor of the best (the Section 8.2 "within 1.4x / 2x" summary).
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumSummary {
    pub num_wco: usize,
    pub num_bj: usize,
    pub num_hybrid: usize,
    pub min_cost: f64,
    pub max_cost: f64,
}

/// Rank of `value` within a population of measurements: the fraction of `population` strictly
/// smaller than `value` (0.0 = at or below the floor, 1.0 = above every sample). The
/// plan-quality harness uses this to assert the optimizer's measured runtime sits within the
/// cheapest decile of its plan spectrum.
pub fn percentile_rank(population: &[f64], value: f64) -> f64 {
    if population.is_empty() {
        return 0.0;
    }
    let below = population.iter().filter(|&&x| x < value).count();
    below as f64 / population.len() as f64
}

/// Summarise a spectrum by plan class and cost range.
pub fn summarize(spectrum: &[SpectrumPlan]) -> SpectrumSummary {
    let mut s = SpectrumSummary {
        num_wco: 0,
        num_bj: 0,
        num_hybrid: 0,
        min_cost: f64::INFINITY,
        max_cost: 0.0,
    };
    for p in spectrum {
        match p.class {
            PlanClass::Wco => s.num_wco += 1,
            PlanClass::BinaryJoin => s.num_bj += 1,
            PlanClass::Hybrid => s.num_hybrid += 1,
        }
        s.min_cost = s.min_cost.min(p.plan.estimated_cost);
        s.max_cost = s.max_cost.max(p.plan.estimated_cost);
    }
    s
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
    fn triangle_spectrum_is_wco_only() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let spectrum = enumerate_spectrum(
            &patterns::asymmetric_triangle(),
            &cat,
            &model,
            SpectrumLimits::default(),
        );
        let summary = summarize(&spectrum);
        // The asymmetric triangle has exactly 3 distinct WCO plans (Table 4 of the paper):
        // orderings differing only in which endpoint of the scanned edge comes first execute the
        // same operators and are de-duplicated.
        assert_eq!(summary.num_wco, 3);
        assert_eq!(summary.num_bj + summary.num_hybrid, 0);
    }

    #[test]
    fn diamond_x_spectrum_has_wco_and_hybrid_plans() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let spectrum = enumerate_spectrum(
            &patterns::diamond_x(),
            &cat,
            &model,
            SpectrumLimits::default(),
        );
        let summary = summarize(&spectrum);
        assert!(
            summary.num_wco >= 8,
            "diamond-X has at least 8 WCO plans (Table 3)"
        );
        assert!(
            summary.num_hybrid >= 1,
            "the Figure 1c triangle-join plan must appear"
        );
        assert!(summary.min_cost <= summary.max_cost);
    }

    #[test]
    fn acyclic_query_spectrum_has_bj_plans() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let spectrum = enumerate_spectrum(
            &patterns::benchmark_query(11),
            &cat,
            &model,
            SpectrumLimits::default(),
        );
        let summary = summarize(&spectrum);
        assert!(
            summary.num_bj >= 1,
            "acyclic queries admit pure binary-join plans"
        );
        assert!(summary.num_wco >= 1);
    }

    #[test]
    fn spectrum_contains_non_ghd_plan_for_six_cycle() {
        // The Figure 1d plan for the 6-cycle: join two 3-paths then close the cycle with an
        // intersection. Such a plan has a hash join *below* an E/I operator.
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let spectrum = enumerate_spectrum(
            &patterns::benchmark_query(12),
            &cat,
            &model,
            SpectrumLimits {
                max_plans_per_subset: 128,
                max_plans_per_class: 256,
            },
        );
        let exists = spectrum.iter().any(|sp| {
            fn ei_above_join(node: &PlanNode) -> bool {
                match node {
                    PlanNode::Extend(n) => n.child.has_hash_join() || ei_above_join(&n.child),
                    PlanNode::HashJoin(n) => ei_above_join(&n.build) || ei_above_join(&n.probe),
                    PlanNode::Scan(_) => false,
                }
            }
            ei_above_join(&sp.plan.root)
        });
        assert!(
            exists,
            "the spectrum must contain a plan with an intersection after a join"
        );
    }

    #[test]
    fn percentile_rank_counts_strictly_cheaper_samples() {
        let pop = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_rank(&pop, 0.5), 0.0);
        assert_eq!(percentile_rank(&pop, 1.0), 0.0);
        assert_eq!(percentile_rank(&pop, 2.5), 0.5);
        assert_eq!(percentile_rank(&pop, 9.0), 1.0);
        assert_eq!(percentile_rank(&[], 1.0), 0.0);
    }

    #[test]
    fn dedup_and_limits_are_respected() {
        let g = graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let limits = SpectrumLimits {
            max_plans_per_subset: 8,
            max_plans_per_class: 5,
        };
        let spectrum = enumerate_spectrum(&patterns::benchmark_query(8), &cat, &model, limits);
        let summary = summarize(&spectrum);
        assert!(summary.num_hybrid <= 5);
        assert!(summary.num_bj <= 5);
        // No duplicate fingerprints.
        let mut fps: Vec<String> = spectrum.iter().map(|p| p.plan.root.fingerprint()).collect();
        let before = fps.len();
        fps.sort();
        fps.dedup();
        assert_eq!(before, fps.len());
    }
}
