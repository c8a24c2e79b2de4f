//! The dynamic-programming optimizer: a Selinger-style bottom-up DP over the full hybrid plan
//! space (Algorithm 1 of the paper, generalised).
//!
//! For every connected `k`-vertex sub-query `Q_k` (k = 2..m) the optimizer keeps a small set of
//! non-dominated sub-plans rather than a single best one. Sub-plans are classed by their
//! **interesting order** — the query vertex their output stream varies fastest in
//! ([`last_matched_vertex`](crate::cost::last_matched_vertex)), `None` for hash-join-rooted
//! sub-plans, which guarantee no grouping. The interesting order is exactly what downstream cache-conscious E/I costing
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
//! The table holds no plan trees. A kept sub-plan is an entry: its root operator, the
//! indices of its children's entries, its cost and its output layout; candidates are costed
//! through the per-query [`Estimator`] from their children's stored costs, without building
//! anything, and only the winning entry is turned into a [`PlanNode`] tree.
//!
//! Joins that could be expressed as a single E/I extension (the probe or build side adds only
//! one query vertex) are searched too: the Section 4.3 restriction that omits them is lossy on
//! Q2 (its optimal plan joins two open wedges) and is therefore not implemented. For queries
//! with more than
//! [`PlanSpaceOptions::full_enumeration_limit`] query vertices the optimizer switches to the
//! pruned mode of Section 4.4, which retains only the `subqueries_kept_per_level` cheapest
//! sub-queries per level.

use crate::cost::{CostModel, Estimator, PlanCost};
use crate::plan::{Plan, PlanNode};
use graphflow_catalog::Catalogue;
use graphflow_query::querygraph::{set_iter, set_len, singleton, VertexSet};
use graphflow_query::{QueryEdge, QueryGraph};
use rustc_hash::FxHashMap;
use std::ops::Range;

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
        self.optimize_in(&mut Estimator::new(q, self.catalogue, self.model))
    }

    /// [`DpOptimizer::optimize`] of the estimator's query, priced through its table.
    fn optimize_in(&self, est: &mut Estimator<'_>) -> Option<Plan> {
        let q = est.query();
        let m = q.num_vertices();
        if m < 2 || !q.is_connected() {
            return None;
        }
        if m == 2 {
            let edge = q.edges().first().copied()?;
            let cost = est.scan(edge);
            return Some(Plan::new(q.clone(), PlanNode::scan(edge), cost.total()));
        }
        let table = if m <= self.options.full_enumeration_limit {
            self.optimize_exhaustive(est)
        } else {
            self.optimize_pruned(est)
        };
        // A sub-query's entries are kept cheapest first.
        let best = table.entries_of(q.full_set()).next()?;
        let cost = table.entries[best].cost.total();
        Some(Plan::new(q.clone(), table.materialise(q, best), cost))
    }

    /// Cost of a greedily-built full plan (cheapest scan, then always the cheapest next E/I
    /// extension), used as the initial upper bound for pruning. The greedy chain respects the
    /// plan-space restrictions, so its cost is achievable within the space whenever it
    /// completes; `None` when it dead-ends (e.g. closing a cycle needs a multiway intersection
    /// in a space that forbids them).
    fn greedy_upper_bound(&self, est: &mut Estimator<'_>) -> Option<f64> {
        let q = est.query();
        let mut best: Option<(QueryEdge, PlanCost)> = None;
        for &e in q.edges() {
            let cost = est.scan(e);
            if best.is_none_or(|(_, b)| cost.total() < b.total()) {
                best = Some((e, cost));
            }
        }
        let (edge, mut cost) = best?;
        let mut layout = vec![edge.src, edge.dst];
        let mut covered = singleton(edge.src) | singleton(edge.dst);
        let full = q.full_set();
        while covered != full {
            let mut next: Option<(usize, PlanCost)> = None;
            for target in set_iter(full & !covered) {
                if !self.extendable(q, covered, target) {
                    continue;
                }
                let cand = est.extend(cost, &layout, layout.last().copied(), target);
                if next.is_none_or(|(_, b)| cand.total() < b.total()) {
                    next = Some((target, cand));
                }
            }
            let (target, cand) = next?;
            layout.push(target);
            covered |= singleton(target);
            cost = cand;
        }
        Some(cost.total())
    }

    /// Exhaustive DP over every connected vertex subset.
    fn optimize_exhaustive(&self, est: &mut Estimator<'_>) -> Table {
        let q = est.query();
        let upper = self.greedy_upper_bound(est).unwrap_or(f64::INFINITY) * (1.0 + 1e-9);
        let mut table = Table::default();
        let mut cands: Vec<Candidate> = Vec::new();
        self.insert_scans(est, &mut table, upper);

        // Every connected sub-query, once: the DP's subsets, and (through the table) its join
        // sides. Ascending, so each level below is ascending too.
        let full = q.full_set();
        let connected: Vec<VertexSet> = (1..=full)
            .filter(|&s| set_len(s) >= 3 && q.is_connected_subset(s))
            .collect();

        // Grow sub-queries one level at a time.
        for k in 3..=q.num_vertices() {
            for &set in connected.iter().filter(|&&s| set_len(s) == k) {
                cands.clear();

                // (i) extend every kept plan of a (k-1)-vertex sub-query by one E/I.
                for target in set_iter(set) {
                    for child in table.entries_of(set & !singleton(target)) {
                        cands.extend(self.extend_candidate(est, &table, child, target));
                    }
                }

                // (ii) binary joins of kept plans of two covering sub-queries (bushy trees
                // arise naturally: either side may itself be join-rooted).
                if self.options.allow_hash_join {
                    for (c1, c2) in cover_pairs(&table, set) {
                        for (build, probe) in [(c1, c2), (c2, c1)] {
                            cands.extend(self.join_candidate(est, &table, build, probe));
                        }
                    }
                }

                prune_entries(&mut cands, upper);
                if !cands.is_empty() {
                    table.insert(set, &cands);
                }
            }
        }
        table
    }

    /// Pruned DP for very large queries (Section 4.4): only the cheapest few sub-queries are
    /// kept per level.
    ///
    /// Which sub-queries tie for a level's last places, and which of two equally cheap joins a
    /// sub-query keeps, is decided by the order candidates are met in, and that order is the
    /// iteration order of the two hash maps below (deterministic: the hasher is unseeded). A
    /// tie is the common case — a path's sub-paths are isomorphic — and the choice cascades up
    /// the levels, so both maps see exactly the key sequence they always have:
    /// `tests/golden/dp_picks.txt` pins the resulting picks.
    fn optimize_pruned(&self, est: &mut Estimator<'_>) -> Table {
        let q = est.query();
        let m = q.num_vertices();
        let upper = self.greedy_upper_bound(est).unwrap_or(f64::INFINITY) * (1.0 + 1e-9);
        let mut table = Table::default();
        self.insert_scans(est, &mut table, upper);
        let mut frontier: Vec<VertexSet> = table.by_set.keys().copied().collect();

        for k in 3..=m {
            let mut level: FxHashMap<VertexSet, Vec<Candidate>> = FxHashMap::default();
            for &sub in &frontier {
                for target in set_iter(q.full_set() & !sub) {
                    for child in table.entries_of(sub) {
                        if let Some(cand) = self.extend_candidate(est, &table, child, target) {
                            level.entry(sub | singleton(target)).or_default().push(cand);
                        }
                    }
                }
            }
            // Also try joins between retained sub-queries (both already in the table), either
            // as the build side.
            if self.options.allow_hash_join {
                let retained: Vec<VertexSet> = table.by_set.keys().copied().collect();
                for (i, &a) in retained.iter().enumerate() {
                    for &b in &retained[i + 1..] {
                        if set_len(a | b) != k || a | b == a || a | b == b || a & b == 0 {
                            continue;
                        }
                        for (build, probe) in [(a, b), (b, a)] {
                            if let Some(cand) = self.join_candidate(est, &table, build, probe) {
                                level.entry(a | b).or_default().push(cand);
                            }
                        }
                    }
                }
            }

            // Keep only the cheapest few sub-queries at this level (always keep the full query).
            let mut kept: Vec<(f64, VertexSet, Vec<Candidate>)> = level
                .into_iter()
                .filter_map(|(set, mut cands)| {
                    prune_entries(&mut cands, upper);
                    let cheapest = cands.first()?.cost.total();
                    Some((cheapest, set, cands))
                })
                .collect();
            kept.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let keep = if k == m {
                kept.len()
            } else {
                self.options.subqueries_kept_per_level.max(1)
            };
            frontier.clear();
            for (_, set, cands) in kept.into_iter().take(keep) {
                frontier.push(set);
                table.insert(set, &cands);
            }
        }
        table
    }

    /// Seed the table with the SCAN sub-plans of every 2-vertex sub-query (kept or not: a
    /// sub-query whose scans all exceed `upper` is retained with no entries); antiparallel
    /// edge pairs contribute one entry per orientation (distinct interesting orders).
    fn insert_scans(&self, est: &mut Estimator<'_>, table: &mut Table, upper: f64) {
        let mut by_pair: FxHashMap<VertexSet, Vec<Candidate>> = FxHashMap::default();
        for &e in est.query().edges() {
            let scan = Candidate {
                op: Op::Scan(e),
                cost: est.scan(e),
            };
            let pair = singleton(e.src) | singleton(e.dst);
            by_pair.entry(pair).or_default().push(scan);
        }
        for (pair, mut cands) in by_pair {
            prune_entries(&mut cands, upper);
            table.insert(pair, &cands);
        }
    }

    /// Whether an E/I extension of a sub-plan covering `covered` by `target` exists in the
    /// configured plan space: `target` is new, adjacent to `covered`, and the intersection is
    /// multiway only when the space allows it.
    fn extendable(&self, q: &QueryGraph, covered: VertexSet, target: usize) -> bool {
        let lists = q.edges().iter().filter(|e| {
            (e.src == target && covered & singleton(e.dst) != 0)
                || (e.dst == target && covered & singleton(e.src) != 0)
        });
        let lists = lists.count();
        covered & singleton(target) == 0
            && lists >= 1
            && (lists == 1 || self.options.allow_multiway_extend)
    }

    /// Cost an E/I extension of entry `child` by `target` incrementally; `None` when the
    /// extension is Cartesian or excluded by the plan-space options.
    fn extend_candidate(
        &self,
        est: &mut Estimator<'_>,
        table: &Table,
        child: usize,
        target: usize,
    ) -> Option<Candidate> {
        let entry = &table.entries[child];
        if !self.extendable(est.query(), entry.set, target) {
            return None;
        }
        Some(Candidate {
            op: Op::Extend { child, target },
            cost: est.extend(entry.cost, &entry.layout, entry.op.order_class(), target),
        })
    }

    /// The cheapest join of one kept plan of sub-query `build` with one of `probe`; `None`
    /// when either has none or the pair violates the projection constraint.
    ///
    /// A join's output order class is always `None` and its output cardinality depends only on
    /// the union subset, so the cheapest join over all entry pairs is found by independently
    /// minimising `total + w1·|out|` on the build side and `total + w2·|out|` on the probe side
    /// — no need to enumerate the cross product.
    fn join_candidate(
        &self,
        est: &mut Estimator<'_>,
        table: &Table,
        build: VertexSet,
        probe: VertexSet,
    ) -> Option<Candidate> {
        let b = table.cheapest_for_join(build, self.model.w1)?;
        let p = table.cheapest_for_join(probe, self.model.w2)?;
        if !PlanNode::joinable(est.query(), build, probe) {
            return None;
        }
        let cost = est.join(table.entries[b].cost, table.entries[p].cost, build | probe);
        let op = Op::Join { build: b, probe: p };
        Some(Candidate { op, cost })
    }
}

/// The root operator of a DP sub-plan; children are indices into [`Table::entries`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Scan(QueryEdge),
    Extend { child: usize, target: usize },
    Join { build: usize, probe: usize },
}

impl Op {
    /// The sub-plan's interesting order ([`last_matched_vertex`](crate::cost::last_matched_vertex)
    /// of the tree it stands for): the vertex matched last, `None` for a join.
    fn order_class(&self) -> Option<usize> {
        match *self {
            Op::Scan(e) => Some(e.dst),
            Op::Extend { target, .. } => Some(target),
            Op::Join { .. } => None,
        }
    }
}

/// A costed operator over kept entries, not yet (and mostly never) in the table.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    op: Op,
    cost: PlanCost,
}

/// A kept sub-plan.
#[derive(Debug)]
struct Entry {
    op: Op,
    set: VertexSet,
    cost: PlanCost,
    /// The query vertices its output tuples carry, in tuple order.
    layout: Vec<usize>,
}

/// The DP table: the kept sub-plans of every retained sub-query, back-pointers instead of
/// trees.
#[derive(Debug, Default)]
struct Table {
    entries: Vec<Entry>,
    /// The entries of each retained sub-query (consecutive), cheapest first.
    by_set: FxHashMap<VertexSet, Range<usize>>,
}

impl Table {
    /// Indices of the kept entries of sub-query `set` (none when it was never retained).
    fn entries_of(&self, set: VertexSet) -> Range<usize> {
        self.by_set.get(&set).cloned().unwrap_or(0..0)
    }

    /// Retain `kept` (already pruned) as the sub-plans of `set`.
    fn insert(&mut self, set: VertexSet, kept: &[Candidate]) {
        let first = self.entries.len();
        for c in kept {
            let layout_of = |i: usize| self.entries[i].layout.iter().copied();
            let layout = match c.op {
                Op::Scan(e) => vec![e.src, e.dst],
                Op::Extend { child, target } => layout_of(child).chain([target]).collect(),
                // The probe layout followed by the build-only vertices.
                Op::Join { build, probe } => {
                    let probed = self.entries[probe].set;
                    let build_only = layout_of(build).filter(|&v| probed & singleton(v) == 0);
                    layout_of(probe).chain(build_only).collect()
                }
            };
            let (op, cost) = (c.op, c.cost);
            self.entries.push(Entry {
                op,
                set,
                cost,
                layout,
            });
        }
        self.by_set.insert(set, first..self.entries.len());
    }

    /// The entry of `set` minimising `total_cost + w × output_cardinality` — the per-side
    /// objective of a hash-join candidate.
    fn cheapest_for_join(&self, set: VertexSet, w: f64) -> Option<usize> {
        let key = |i: usize| {
            let cost = &self.entries[i].cost;
            cost.total() + w * cost.output_cardinality
        };
        self.entries_of(set).min_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Build the operator tree entry `i` stands for.
    fn materialise(&self, q: &QueryGraph, i: usize) -> PlanNode {
        match self.entries[i].op {
            Op::Scan(e) => Some(PlanNode::scan(e)),
            Op::Extend { child, target } => PlanNode::extend(q, self.materialise(q, child), target),
            Op::Join { build, probe } => {
                PlanNode::hash_join(q, self.materialise(q, build), self.materialise(q, probe))
            }
        }
        .expect("the DP keeps only operators the plan constructors accept")
    }
}

/// Dominance pruning, in place: sort candidates by total cost, then keep a candidate only if no
/// kept entry of a compatible order class beats it on both cost and output cardinality.
///
/// Order-class compatibility: an entry dominates another of the *same* class outright; a
/// join-rooted (`None`-class) candidate is additionally dominated by *any* cheaper, smaller
/// entry, because no downstream operator can exploit a join's (absent) output order — an E/I on
/// top of the dominating entry costs at most as much (its cache-reuse multiplier is capped by
/// the child cardinality), and joins only look at cost and cardinality. Candidates costlier
/// than `upper` (the greedy full-plan bound) are dropped outright: operator costs only
/// accumulate, so they can never complete into the optimum.
fn prune_entries(cands: &mut Vec<Candidate>, upper: f64) {
    cands.retain(|c| c.cost.total() <= upper);
    cands.sort_by(|a, b| {
        a.cost
            .total()
            .partial_cmp(&b.cost.total())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept = 0;
    for i in 0..cands.len() {
        if kept >= MAX_ENTRIES_PER_SUBSET {
            break;
        }
        let c = cands[i];
        let c_class = c.op.order_class();
        let dominated = cands[..kept].iter().any(|k| {
            (k.op.order_class() == c_class || c_class.is_none())
                && k.cost.output_cardinality <= c.cost.output_cardinality
        });
        if !dominated {
            cands[kept] = c;
            kept += 1;
        }
    }
    cands.truncate(kept);
}

/// All unordered pairs of retained, proper sub-queries `(C1, C2)` of `set` with
/// `C1 ∪ C2 = set`, sharing at least one vertex (the HASH-JOIN candidates of Algorithm 1, line
/// 12), ascending in `C1` then `C2`. The table only ever retains connected sub-queries, so
/// `C2` is found by running through the sub-masks of `C1` it may share, not through every
/// mask of `set`.
fn cover_pairs(table: &Table, set: VertexSet) -> impl Iterator<Item = (VertexSet, VertexSet)> + '_ {
    let retained = |c: VertexSet| !table.entries_of(c).is_empty();
    proper_submasks(set)
        .filter(move |&c1| retained(c1))
        .flat_map(move |c1| {
            let rest = set & !c1;
            proper_submasks(c1)
                .map(move |shared| rest | shared)
                .filter(move |&c2| c2 > c1 && retained(c2))
                .map(move |c2| (c1, c2))
        })
}

/// The non-empty proper sub-masks of `set`, ascending.
fn proper_submasks(set: VertexSet) -> impl Iterator<Item = VertexSet> {
    let mut sub: VertexSet = 0;
    std::iter::from_fn(move || {
        sub = sub.wrapping_sub(set) & set;
        (sub != 0 && sub != set).then_some(sub)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::last_matched_vertex;
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
        let table = opt.optimize_exhaustive(&mut Estimator::new(&q, &cat, CostModel::default()));
        for (&set, range) in &table.by_set {
            let entries = &table.entries[range.clone()];
            assert!(!entries.is_empty());
            assert!(entries.len() <= MAX_ENTRIES_PER_SUBSET);
            for (i, a) in entries.iter().enumerate() {
                for b in entries.iter().skip(i + 1) {
                    let same_class = a.op.order_class() == b.op.order_class();
                    let a_dominates = a.cost.total() <= b.cost.total()
                        && a.cost.output_cardinality <= b.cost.output_cardinality;
                    let b_dominates = b.cost.total() <= a.cost.total()
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
        let blind_cost = Estimator::new(&q, &cat, model)
            .estimate_cost(&blind.root)
            .total();
        assert!(aware.estimated_cost <= blind_cost + 1e-6);
    }

    /// A labelled version of the power-law graph: 3 edge labels, as the `Q^J` protocol.
    fn labelled_powerlaw_graph() -> Arc<Graph> {
        let g = graphflow_graph::loader::assign_random_edge_labels(&powerlaw_graph(), 3, 11);
        Arc::new(g)
    }

    /// Seeded random connected 4–6-vertex patterns over 3 edge labels (a random spanning tree
    /// plus up to three extra edges); every other one carries a `WHERE` conjunct.
    fn random_patterns(count: usize) -> Vec<QueryGraph> {
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        (0..count)
            .map(|i| {
                let n = 4 + next(3);
                let mut q = QueryGraph::new();
                for _ in 0..n {
                    q.add_default_vertex();
                }
                let tree: Vec<(usize, usize)> = (1..n).map(|v| (next(v), v)).collect();
                let extra: Vec<(usize, usize)> = (0..next(4)).map(|_| (next(n), next(n))).collect();
                for (a, b) in tree.into_iter().chain(extra) {
                    if a != b {
                        let (s, d) = if next(2) == 0 { (a, b) } else { (b, a) };
                        q.add_edge(s, d, graphflow_graph::EdgeLabel(next(3) as u16));
                    }
                }
                if i % 2 == 1 {
                    q.add_predicate(Predicate {
                        target: PredTarget::Vertex(next(n)),
                        key: "age".into(),
                        op: [CmpOp::Eq, CmpOp::Gt, CmpOp::Ne][next(3)],
                        value: graphflow_graph::PropValue::Int(7),
                    });
                }
                q
            })
            .collect()
    }

    #[test]
    fn every_kept_entry_costs_what_its_tree_costs_on_a_fresh_table() {
        // The DP never builds the trees it prices. Whatever it keeps — every subset, not just
        // the root — must carry exactly the cost `estimate_cost` gives the materialised tree
        // on a table of its own, asked in a different order (entries newest first).
        let cat = Catalogue::with_defaults(labelled_powerlaw_graph());
        let models = [
            CostModel::default(),
            CostModel::default().cache_oblivious(),
            CostModel::default().filter_blind(),
            CostModel::default().cache_oblivious().filter_blind(),
        ];
        let benchmark = patterns::all_benchmark_queries()
            .into_iter()
            .map(|(_, q)| q);
        let mut entries = 0;
        for (i, q) in benchmark.chain(random_patterns(200)).enumerate() {
            // Benchmark queries under every model, random patterns under one each in turn.
            let models = if i < 14 {
                &models[..]
            } else {
                &models[i % 4..=i % 4]
            };
            for &model in models {
                let opt = DpOptimizer::new(&cat).with_cost_model(model);
                let table = opt.optimize_exhaustive(&mut Estimator::new(&q, &cat, model));
                assert!(!table.entries_of(q.full_set()).is_empty(), "{q}");
                let mut fresh = Estimator::new(&q, &cat, model);
                for (e, entry) in table.entries.iter().enumerate().rev() {
                    let tree = table.materialise(&q, e);
                    assert_eq!(tree.vertex_set(), entry.set);
                    assert_eq!(tree.out(), entry.layout);
                    assert_eq!(entry.op.order_class(), last_matched_vertex(&tree));
                    assert_eq!(
                        entry.cost,
                        fresh.estimate_cost(&tree),
                        "{q}: {}",
                        tree.fingerprint()
                    );
                    entries += 1;
                }
            }
        }
        assert!(entries > 5_000, "only {entries} entries checked");
    }

    #[test]
    fn an_optimize_asks_the_catalogue_each_question_once() {
        // The property the cold-prepare speed rests on, checked by count: one optimize makes
        // exactly one catalogue lookup per filled slot of its estimate table — one per distinct
        // subset asked about (`accessed` sets may be disconnected, so this is not the number
        // of connected subsets) and one per distinct (subset, target) — however many
        // candidates it prices, in every plan space and in the pruned large-query mode.
        let cat = Catalogue::with_defaults(labelled_powerlaw_graph());
        let spaces = [
            PlanSpaceOptions::default(),
            PlanSpaceOptions::wco_only(),
            PlanSpaceOptions::binary_only(),
        ];
        let mut queries: Vec<QueryGraph> = patterns::all_benchmark_queries()
            .into_iter()
            .map(|(_, q)| q)
            .collect();
        queries.extend(
            random_patterns(40)
                .into_iter()
                .filter(|q| q.num_vertices() == 6),
        );
        queries.push(patterns::directed_path(14)); // pruned mode
        for q in &queries {
            for space in spaces {
                let opt = DpOptimizer::new(&cat).with_options(space);
                let mut est = Estimator::new(q, &cat, CostModel::default());
                let before = cat.lookups();
                let plan = opt.optimize_in(&mut est);
                let lookups = cat.lookups() - before;
                assert_eq!(lookups as usize, est.filled_slots(), "{q}");
                assert_eq!(plan.is_some(), opt.optimize(q).is_some());
                let m = q.num_vertices();
                let connected = (1..=q.full_set())
                    .filter(|&s| q.is_connected_subset(s))
                    .count();
                assert!(
                    est.filled_slots() <= (1 << m) + connected * m,
                    "{q}: {} slots",
                    est.filled_slots()
                );
                // A second optimize on the warm table asks nothing.
                let before = cat.lookups();
                opt.optimize_in(&mut est);
                assert_eq!(cat.lookups(), before, "{q}");
            }
        }
    }

    #[test]
    fn cover_pairs_respect_connectivity_and_overlap() {
        // With every connected sub-query retained, the sub-mask walk finds exactly the pairs
        // the definition gives, in ascending (C1, C2) order.
        let g = powerlaw_graph();
        let cat = Catalogue::with_defaults(g);
        for j in [4usize, 8, 11, 12] {
            let q = patterns::benchmark_query(j);
            let mut est = Estimator::new(&q, &cat, CostModel::default());
            let mut table = Table::default();
            let scan = Candidate {
                op: Op::Scan(q.edges()[0]),
                cost: est.scan(q.edges()[0]),
            };
            let full = q.full_set();
            for s in (1..=full).filter(|&s| set_len(s) >= 2 && q.is_connected_subset(s)) {
                table.insert(s, &[scan]);
            }
            let mut expected = Vec::new();
            for c1 in 1..full {
                for c2 in c1 + 1..full {
                    if c1 | c2 == full
                        && c1 & c2 != 0
                        && q.is_connected_subset(c1)
                        && q.is_connected_subset(c2)
                    {
                        expected.push((c1, c2));
                    }
                }
            }
            assert!(!expected.is_empty(), "Q{j}");
            assert_eq!(
                cover_pairs(&table, full).collect::<Vec<_>>(),
                expected,
                "Q{j}"
            );
        }
    }
}
