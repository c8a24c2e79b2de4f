//! The dynamic-programming optimizer: a Selinger-style bottom-up DP over the full hybrid plan
//! space (Algorithm 1 of the paper, generalised).
//!
//! For every connected `k`-vertex sub-query `Q_k` (k = 2..m) the optimizer keeps a small set of
//! non-dominated sub-plans rather than a single best one. Sub-plans are classed by their
//! **interesting order** — the query vertex their output stream varies fastest in
//! ([`last_matched_vertex`]), `None` for hash-join-rooted sub-plans, which guarantee no
//! grouping. The interesting order is exactly what downstream cache-conscious E/I costing
//! depends on, so keeping the cheapest sub-plan per (subset, order) class *losslessly* subsumes
//! the paper's up-front `enumerateAllWCOPlans` phase: a cheaper chain with the same last vertex
//! can always be substituted without changing any downstream cost term. Candidates per subset
//! are
//!
//! 1. every kept `Q_{k-1}` sub-plan extended by one E/I operator, and
//! 2. HASH-JOINs of kept sub-plans of two covering sub-queries (both satisfying the projection
//!    constraint) — since both sides draw from the full per-subset plan sets, join trees may be
//!    arbitrarily **bushy** (joins of joins), not just linear.
//!
//! Pruning keeps the DP tractable without losing the optimum:
//!
//! * **dominance** — a candidate is dropped when another sub-plan of the same (or compatible)
//!   order class has both lower cost and lower output cardinality;
//! * **upper bounding** — operator costs only accumulate, so any sub-plan already costlier
//!   than a quickly-computed greedy full plan can never complete into the optimum.
//!
//! Joins that could be expressed as a single E/I extension (the probe or build side adds only
//! one query vertex) are searched too: the Section 4.3 restriction that omits them is lossy on
//! Q2 (its optimal plan joins two open wedges) and is therefore not implemented. For queries
//! with more than
//! [`PlanSpaceOptions::full_enumeration_limit`] query vertices the optimizer switches to the
//! pruned mode of Section 4.4, which retains only the `subqueries_kept_per_level` cheapest
//! sub-queries per level.

use crate::cost::{cost_step, estimate_cost, last_matched_vertex, CostModel};
use crate::plan::{Plan, PlanNode};
use crate::wco::SubPlan;
use graphflow_catalog::Catalogue;
use graphflow_query::querygraph::{set_iter, set_len, singleton, VertexSet};
use graphflow_query::QueryGraph;
use rustc_hash::FxHashMap;

/// Hard cap on non-dominated sub-plans retained per vertex subset (a safety valve: the
/// dominance rule alone keeps at most one Pareto frontier per order class, which for an
/// `m`-vertex query is at most `m + 1` classes).
const MAX_ENTRIES_PER_SUBSET: usize = 16;

/// Which parts of the plan space the optimizer may use. The experiment harnesses use the
/// restricted modes to produce the paper's "WCO plans", "BJ plans" and "hybrid plans" series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpaceOptions {
    /// Allow E/I operators with two or more descriptors (multiway intersections).
    pub allow_multiway_extend: bool,
    /// Allow HASH-JOIN operators.
    pub allow_hash_join: bool,
    /// Queries with more than this many vertices use the pruned enumeration of Section 4.4.
    /// Dominance and upper-bound pruning let the exhaustive mode reach 12 vertices (the old
    /// cutoff was 10).
    pub full_enumeration_limit: usize,
    /// In pruned mode, how many sub-queries are kept per level (default 5, as in the paper).
    pub subqueries_kept_per_level: usize,
}

impl Default for PlanSpaceOptions {
    fn default() -> Self {
        PlanSpaceOptions {
            allow_multiway_extend: true,
            allow_hash_join: true,
            full_enumeration_limit: 12,
            subqueries_kept_per_level: 5,
        }
    }
}

impl PlanSpaceOptions {
    /// Only WCO plans (query-vertex orderings).
    pub fn wco_only() -> Self {
        PlanSpaceOptions {
            allow_hash_join: false,
            ..Default::default()
        }
    }

    /// Only binary-join plans: no multiway intersections, joins may add one edge at a time.
    pub fn binary_only() -> Self {
        PlanSpaceOptions {
            allow_multiway_extend: false,
            allow_hash_join: true,
            ..Default::default()
        }
    }
}

/// The cost-based dynamic-programming optimizer.
pub struct DpOptimizer<'a> {
    catalogue: &'a Catalogue,
    model: CostModel,
    options: PlanSpaceOptions,
}

impl<'a> DpOptimizer<'a> {
    /// Create an optimizer over a catalogue with the default cost model and full plan space.
    pub fn new(catalogue: &'a Catalogue) -> Self {
        DpOptimizer {
            catalogue,
            model: CostModel::default(),
            options: PlanSpaceOptions::default(),
        }
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Restrict or extend the plan space.
    pub fn with_options(mut self, options: PlanSpaceOptions) -> Self {
        self.options = options;
        self
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Find the cheapest plan for `q` in the configured plan space.
    ///
    /// Returns `None` for queries with fewer than two vertices or that cannot be covered by the
    /// restricted plan space (which does not happen for connected queries with the default
    /// options).
    pub fn optimize(&self, q: &QueryGraph) -> Option<Plan> {
        let m = q.num_vertices();
        if m < 2 || !q.is_connected() {
            return None;
        }
        if m == 2 {
            let edge = q.edges().first().copied()?;
            let node = PlanNode::scan(edge);
            let cost = estimate_cost(q, self.catalogue, &self.model, &node);
            return Some(Plan::new(q.clone(), node, cost.total()));
        }
        let table = if m <= self.options.full_enumeration_limit {
            self.optimize_exhaustive(q)
        } else {
            self.optimize_pruned(q)
        };
        table
            .get(&q.full_set())
            .and_then(|entries| {
                entries.iter().min_by(|a, b| {
                    a.total_cost()
                        .partial_cmp(&b.total_cost())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
            .map(|sp| Plan::new(q.clone(), sp.node.clone(), sp.total_cost()))
    }

    /// Cost of a greedily-built full plan (cheapest scan, then always the cheapest next E/I
    /// extension), used as the initial upper bound for pruning. The greedy chain respects the
    /// plan-space restrictions, so its cost is achievable within the space whenever it
    /// completes; `None` when it dead-ends (e.g. closing a cycle needs a multiway intersection
    /// in a space that forbids them).
    fn greedy_upper_bound(&self, q: &QueryGraph) -> Option<f64> {
        let mut best: Option<SubPlan> = None;
        for &e in q.edges() {
            let node = PlanNode::scan(e);
            let cost = cost_step(q, self.catalogue, &self.model, &node, &[]);
            if best.as_ref().is_none_or(|b| cost.total() < b.total_cost()) {
                best = Some(SubPlan { node, cost });
            }
        }
        let mut current = best?;
        let full = q.full_set();
        while current.node.vertex_set() != full {
            let covered = current.node.vertex_set();
            let mut next: Option<SubPlan> = None;
            for target in set_iter(full & !covered) {
                let Some(node) = PlanNode::extend(q, current.node.clone(), target) else {
                    continue;
                };
                if !self.options.allow_multiway_extend && multiway(&node) {
                    continue;
                }
                let cost = cost_step(q, self.catalogue, &self.model, &node, &[current.cost]);
                if next.as_ref().is_none_or(|b| cost.total() < b.total_cost()) {
                    next = Some(SubPlan { node, cost });
                }
            }
            current = next?;
        }
        Some(current.total_cost())
    }

    /// Exhaustive DP over every connected vertex subset.
    fn optimize_exhaustive(&self, q: &QueryGraph) -> FxHashMap<VertexSet, Vec<SubPlan>> {
        let m = q.num_vertices();
        let upper = self.greedy_upper_bound(q).unwrap_or(f64::INFINITY) * (1.0 + 1e-9);

        // Initialise 2-vertex sub-queries (single query edges) with SCAN plans; antiparallel
        // edge pairs contribute one entry per orientation (distinct interesting orders).
        let mut table: FxHashMap<VertexSet, Vec<SubPlan>> = FxHashMap::default();
        for (set, cands) in self.scan_candidates(q) {
            table.insert(set, prune_entries(cands, upper));
        }

        // Grow sub-queries one level at a time.
        let full = q.full_set();
        for k in 3..=m {
            let subsets: Vec<VertexSet> = (1u32..=full)
                .filter(|&s| s & full == s && set_len(s) == k && q.is_connected_subset(s))
                .collect();
            for set in subsets {
                let mut cands: Vec<SubPlan> = Vec::new();

                // (i) extend every kept plan of a (k-1)-vertex sub-query by one E/I.
                for target in set_iter(set) {
                    let sub = set & !singleton(target);
                    if !q.is_connected_subset(sub) {
                        continue;
                    }
                    let Some(children) = table.get(&sub) else {
                        continue;
                    };
                    for child in children {
                        if let Some(cand) = self.extend_candidate(q, child, target) {
                            cands.push(cand);
                        }
                    }
                }

                // (ii) binary joins of kept plans of two covering sub-queries (bushy trees
                // arise naturally: either side may itself be join-rooted).
                if self.options.allow_hash_join {
                    for (c1, c2) in cover_pairs(q, set) {
                        let (Some(e1), Some(e2)) = (table.get(&c1), table.get(&c2)) else {
                            continue;
                        };
                        for (build_side, probe_side) in [(e1, e2), (e2, e1)] {
                            if let Some(cand) = self.join_candidate(q, build_side, probe_side) {
                                cands.push(cand);
                            }
                        }
                    }
                }

                let kept = prune_entries(cands, upper);
                if !kept.is_empty() {
                    table.insert(set, kept);
                }
            }
        }
        table
    }

    /// Pruned DP for very large queries (Section 4.4): only the cheapest few sub-queries are
    /// kept per level.
    fn optimize_pruned(&self, q: &QueryGraph) -> FxHashMap<VertexSet, Vec<SubPlan>> {
        let m = q.num_vertices();
        let upper = self.greedy_upper_bound(q).unwrap_or(f64::INFINITY) * (1.0 + 1e-9);
        let mut table: FxHashMap<VertexSet, Vec<SubPlan>> = FxHashMap::default();
        for (set, cands) in self.scan_candidates(q) {
            table.insert(set, prune_entries(cands, upper));
        }
        let mut frontier: Vec<VertexSet> = table.keys().copied().collect();

        for k in 3..=m {
            let mut level: FxHashMap<VertexSet, Vec<SubPlan>> = FxHashMap::default();
            for &sub in &frontier {
                if set_len(sub) != k - 1 {
                    continue;
                }
                let Some(children) = table.get(&sub).cloned() else {
                    continue;
                };
                for target in 0..m {
                    if sub & singleton(target) != 0 {
                        continue;
                    }
                    for child in &children {
                        if let Some(cand) = self.extend_candidate(q, child, target) {
                            level.entry(cand.node.vertex_set()).or_default().push(cand);
                        }
                    }
                }
            }
            // Also try joins between retained sub-queries (both already in the table).
            if self.options.allow_hash_join {
                let keys: Vec<VertexSet> = table.keys().copied().collect();
                for &a in &keys {
                    for &b in &keys {
                        if set_len(a | b) != k || a | b == a || a | b == b || a & b == 0 {
                            continue;
                        }
                        for (build_side, probe_side) in [(a, b), (b, a)] {
                            if let Some(cand) =
                                self.join_candidate(q, &table[&build_side], &table[&probe_side])
                            {
                                level.entry(cand.node.vertex_set()).or_default().push(cand);
                            }
                        }
                    }
                }
            }

            // Keep only the cheapest few sub-queries at this level (always keep the full query).
            let mut entries: Vec<(VertexSet, Vec<SubPlan>)> = level
                .into_iter()
                .map(|(set, cands)| (set, prune_entries(cands, upper)))
                .filter(|(_, kept)| !kept.is_empty())
                .collect();
            entries.sort_by(|a, b| {
                min_total(&a.1)
                    .partial_cmp(&min_total(&b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let keep = if k == m {
                entries.len()
            } else {
                self.options.subqueries_kept_per_level.max(1)
            };
            frontier.clear();
            for (set, kept) in entries.into_iter().take(keep.max(1)) {
                frontier.push(set);
                table.insert(set, kept);
            }
        }
        table
    }

    /// SCAN sub-plans grouped by 2-vertex subset.
    fn scan_candidates(&self, q: &QueryGraph) -> FxHashMap<VertexSet, Vec<SubPlan>> {
        let mut out: FxHashMap<VertexSet, Vec<SubPlan>> = FxHashMap::default();
        for &e in q.edges() {
            let set = singleton(e.src) | singleton(e.dst);
            let node = PlanNode::scan(e);
            let cost = cost_step(q, self.catalogue, &self.model, &node, &[]);
            out.entry(set).or_default().push(SubPlan { node, cost });
        }
        out
    }

    /// Cost an E/I extension of `child` by `target` incrementally; `None` when the extension is
    /// Cartesian or excluded by the plan-space options.
    fn extend_candidate(&self, q: &QueryGraph, child: &SubPlan, target: usize) -> Option<SubPlan> {
        let node = PlanNode::extend(q, child.node.clone(), target)?;
        if !self.options.allow_multiway_extend && multiway(&node) {
            return None;
        }
        let cost = cost_step(q, self.catalogue, &self.model, &node, &[child.cost]);
        Some(SubPlan { node, cost })
    }

    /// The cheapest join of one entry from `build_side` with one from `probe_side`.
    ///
    /// A join's output order class is always `None` and its output cardinality depends only on
    /// the union subset, so the cheapest join over all entry pairs is found by independently
    /// minimising `total + w1·|out|` on the build side and `total + w2·|out|` on the probe side
    /// — no need to enumerate the cross product.
    fn join_candidate(
        &self,
        q: &QueryGraph,
        build_side: &[SubPlan],
        probe_side: &[SubPlan],
    ) -> Option<SubPlan> {
        let build = cheapest_for_join(build_side, self.model.w1)?;
        let probe = cheapest_for_join(probe_side, self.model.w2)?;
        let node = PlanNode::hash_join(q, build.node.clone(), probe.node.clone())?;
        let cost = cost_step(
            q,
            self.catalogue,
            &self.model,
            &node,
            &[build.cost, probe.cost],
        );
        Some(SubPlan { node, cost })
    }
}

/// Whether the root operator is a multiway (>= 2 descriptor) intersection.
fn multiway(node: &PlanNode) -> bool {
    matches!(node, PlanNode::Extend(e) if e.descriptors.len() >= 2)
}

/// The entry minimising `total_cost + w × output_cardinality` — the per-side objective of a
/// hash-join candidate.
fn cheapest_for_join(entries: &[SubPlan], w: f64) -> Option<&SubPlan> {
    entries.iter().min_by(|a, b| {
        let ka = a.total_cost() + w * a.cost.output_cardinality;
        let kb = b.total_cost() + w * b.cost.output_cardinality;
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// Cheapest total cost among a subset's kept entries.
fn min_total(entries: &[SubPlan]) -> f64 {
    entries
        .iter()
        .map(|e| e.total_cost())
        .fold(f64::INFINITY, f64::min)
}

/// Dominance pruning: sort candidates by total cost, then keep a candidate only if no kept
/// entry of a compatible order class beats it on both cost and output cardinality.
///
/// Order-class compatibility: an entry dominates another of the *same* class outright; a
/// join-rooted (`None`-class) candidate is additionally dominated by *any* cheaper, smaller
/// entry, because no downstream operator can exploit a join's (absent) output order — an E/I on
/// top of the dominating entry costs at most as much (its cache-reuse multiplier is capped by
/// the child cardinality), and joins only look at cost and cardinality. Candidates costlier
/// than `upper` (the greedy full-plan bound) are dropped outright: operator costs only
/// accumulate, so they can never complete into the optimum.
fn prune_entries(mut cands: Vec<SubPlan>, upper: f64) -> Vec<SubPlan> {
    cands.retain(|c| c.total_cost() <= upper);
    cands.sort_by(|a, b| {
        a.total_cost()
            .partial_cmp(&b.total_cost())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<SubPlan> = Vec::new();
    for c in cands {
        if kept.len() >= MAX_ENTRIES_PER_SUBSET {
            break;
        }
        let c_class = last_matched_vertex(&c.node);
        let dominated = kept.iter().any(|k| {
            let k_class = last_matched_vertex(&k.node);
            (k_class == c_class || c_class.is_none())
                && k.cost.output_cardinality <= c.cost.output_cardinality
        });
        if !dominated {
            kept.push(c);
        }
    }
    kept
}

/// All unordered pairs of connected, proper subsets `(C1, C2)` of `set` with `C1 ∪ C2 = set`,
/// sharing at least one vertex (the HASH-JOIN candidates of Algorithm 1, line 12).
fn cover_pairs(q: &QueryGraph, set: VertexSet) -> Vec<(VertexSet, VertexSet)> {
    let members: Vec<usize> = set_iter(set).collect();
    let k = members.len();
    let mut out = Vec::new();
    // Enumerate subsets of `set` by bitmask over member positions.
    let total = 1u32 << k;
    for mask1 in 1..total - 1 {
        let c1: VertexSet = members
            .iter()
            .enumerate()
            .filter(|(i, _)| mask1 & (1 << i) != 0)
            .fold(0, |acc, (_, &v)| acc | singleton(v));
        if !q.is_connected_subset(c1) {
            continue;
        }
        for mask2 in (mask1 + 1)..total {
            if mask1 | mask2 != total - 1 {
                continue;
            }
            let c2: VertexSet = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask2 & (1 << i) != 0)
                .fold(0, |acc, (_, &v)| acc | singleton(v));
            if c2 == set || c1 == set {
                continue;
            }
            if c1 & c2 == 0 {
                continue;
            }
            if !q.is_connected_subset(c2) {
                continue;
            }
            out.push((c1, c2));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanClass;
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

    fn powerlaw_graph() -> Arc<Graph> {
        let edges = graphflow_graph::generator::powerlaw_cluster(800, 4, 0.5, 7);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        Arc::new(b.build())
    }

    #[test]
    fn optimizes_every_benchmark_query() {
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        for (j, q) in patterns::all_benchmark_queries() {
            let plan = opt
                .optimize(&q)
                .unwrap_or_else(|| panic!("no plan for Q{j}"));
            assert_eq!(
                plan.root.vertex_set(),
                q.full_set(),
                "Q{j} covers all vertices"
            );
            assert!(plan.estimated_cost.is_finite(), "Q{j} has a finite cost");
        }
    }

    #[test]
    fn cliques_get_wco_plans() {
        // Cliques admit no projection-constrained binary join (two proper projections never
        // cover all edges), so the chosen plan must be WCO.
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        for k in [4usize, 5] {
            let q = patterns::directed_clique(k);
            let plan = opt.optimize(&q).unwrap();
            assert_eq!(plan.class(), PlanClass::Wco, "{k}-clique");
        }
    }

    #[test]
    fn dp_plan_is_at_least_as_cheap_as_every_wco_plan() {
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let opt = DpOptimizer::new(&cat);
        for j in [1usize, 3, 4, 8] {
            let q = patterns::benchmark_query(j);
            let chosen = opt.optimize(&q).unwrap();
            for wco in crate::wco::all_wco_plans(&q, &cat, &model) {
                assert!(
                    chosen.estimated_cost <= wco.estimated_cost + 1e-6,
                    "Q{j}: chosen {} > wco {}",
                    chosen.estimated_cost,
                    wco.estimated_cost
                );
            }
        }
    }

    #[test]
    fn dp_plan_is_at_least_as_cheap_as_every_spectrum_plan() {
        // The DP must find the floor of the *whole* enumerated plan space — WCO, binary-join
        // and bushy hybrid plans alike (the spectrum and the DP cost plans identically, so an
        // exhaustive DP can never be beaten by an enumerated plan).
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let opt = DpOptimizer::new(&cat);
        for j in [1usize, 3, 4, 5, 8, 11] {
            let q = patterns::benchmark_query(j);
            let chosen = opt.optimize(&q).unwrap();
            for sp in crate::spectrum::enumerate_spectrum(
                &q,
                &cat,
                &model,
                crate::spectrum::SpectrumLimits::default(),
            ) {
                assert!(
                    chosen.estimated_cost <= sp.plan.estimated_cost + 1e-6,
                    "Q{j}: chosen {} > {} plan {} at {}",
                    chosen.estimated_cost,
                    sp.class,
                    sp.plan.root.fingerprint(),
                    sp.plan.estimated_cost
                );
            }
        }
    }

    #[test]
    fn restricted_plan_spaces() {
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let q = patterns::benchmark_query(8); // two triangles sharing a vertex

        let wco_only = DpOptimizer::new(&cat)
            .with_options(PlanSpaceOptions::wco_only())
            .optimize(&q)
            .unwrap();
        assert_eq!(wco_only.class(), PlanClass::Wco);

        // Pure binary-join plans cannot compute triangles under the projection constraint
        // (Section 4.1: "our plan space does not contain BJ plans that first compute open
        // triangles and then close them"), so the BJ-only optimizer finds no plan for Q8 ...
        assert!(DpOptimizer::new(&cat)
            .with_options(PlanSpaceOptions::binary_only())
            .optimize(&q)
            .is_none());
        // ... but it does for acyclic queries such as Q11.
        let acyclic = patterns::benchmark_query(11);
        let bj_only = DpOptimizer::new(&cat)
            .with_options(PlanSpaceOptions::binary_only())
            .optimize(&acyclic)
            .unwrap();
        assert!(!bj_only.root.has_multiway_intersection());

        let hybrid = DpOptimizer::new(&cat).optimize(&q).unwrap();
        assert!(hybrid.estimated_cost <= wco_only.estimated_cost + 1e-6);
    }

    #[test]
    fn two_vertex_query_gets_a_scan() {
        let g = complete_graph(4);
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        let q = patterns::directed_path(2);
        let plan = opt.optimize(&q).unwrap();
        assert!(matches!(plan.root, PlanNode::Scan(_)));
    }

    #[test]
    fn exhaustive_mode_covers_twelve_vertex_queries() {
        // 12 vertices sit inside the (raised) full-enumeration limit: the exhaustive DP with
        // dominance and upper-bound pruning handles them directly.
        assert_eq!(PlanSpaceOptions::default().full_enumeration_limit, 12);
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        let q = patterns::directed_path(12);
        let plan = opt.optimize(&q).expect("exhaustive optimizer finds a plan");
        assert_eq!(plan.root.vertex_set(), q.full_set());
        assert!(plan.estimated_cost.is_finite());
    }

    #[test]
    fn pruned_mode_handles_larger_queries() {
        // A 14-vertex path exceeds the full-enumeration limit and exercises the pruned mode.
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        let q = patterns::directed_path(14);
        let plan = opt.optimize(&q).expect("pruned optimizer finds a plan");
        assert_eq!(plan.root.vertex_set(), q.full_set());
    }

    #[test]
    fn dominance_pruning_keeps_per_class_frontiers() {
        // After the DP runs, every retained subset holds at most one entry per (order class,
        // cardinality frontier) — in particular no two entries where one beats the other on
        // cost *and* cardinality within the same class.
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let opt = DpOptimizer::new(&cat);
        let q = patterns::benchmark_query(8);
        let table = opt.optimize_exhaustive(&q);
        for (set, entries) in &table {
            assert!(!entries.is_empty());
            assert!(entries.len() <= MAX_ENTRIES_PER_SUBSET);
            for (i, a) in entries.iter().enumerate() {
                for b in entries.iter().skip(i + 1) {
                    let same_class = last_matched_vertex(&a.node) == last_matched_vertex(&b.node);
                    let a_dominates = a.total_cost() <= b.total_cost()
                        && a.cost.output_cardinality <= b.cost.output_cardinality;
                    let b_dominates = b.total_cost() <= a.total_cost()
                        && b.cost.output_cardinality <= a.cost.output_cardinality;
                    assert!(
                        !(same_class && (a_dominates || b_dominates)),
                        "subset {set:#b} holds a dominated pair"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_aware_costing_changes_plan_choice() {
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        // An equality filter on the tail vertex of the tailed triangle makes plans that bind
        // the tail early much cheaper; the filter-blind model cannot see that.
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        let mut q = patterns::tailed_triangle();
        q.add_predicate(Predicate {
            target: PredTarget::Vertex(3),
            key: "age".into(),
            op: CmpOp::Eq,
            value: graphflow_graph::PropValue::Int(7),
        });
        let aware = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let blind = DpOptimizer::new(&cat)
            .with_cost_model(CostModel::default().filter_blind())
            .optimize(&q)
            .unwrap();
        assert_ne!(
            aware.root.fingerprint(),
            blind.root.fingerprint(),
            "the filter must change the chosen plan"
        );
        // Under the filter-aware cost model, the aware pick is (weakly) cheaper.
        let model = CostModel::default();
        let blind_cost = estimate_cost(&q, &cat, &model, &blind.root).total();
        assert!(aware.estimated_cost <= blind_cost + 1e-6);
    }

    #[test]
    fn cover_pairs_respect_connectivity_and_overlap() {
        let q = patterns::diamond_x();
        let pairs = cover_pairs(&q, q.full_set());
        assert!(!pairs.is_empty());
        for (c1, c2) in pairs {
            assert_eq!(c1 | c2, q.full_set());
            assert!(c1 & c2 != 0);
            assert!(q.is_connected_subset(c1));
            assert!(q.is_connected_subset(c2));
        }
    }
}
