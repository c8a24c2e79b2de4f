//! The dynamic-programming optimizer: a Selinger-style bottom-up DP over the full hybrid plan
//! space (Algorithm 1 of the paper, generalised), iterative above a work budget.
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
//!   than a known full plan (first a greedy one) can never complete into the optimum.
//!
//! The table holds no plan trees. A kept sub-plan is an entry: its root operator, the
//! indices of its children's entries, its cost and its output layout; candidates are costed
//! through the per-query [`Estimator`] from their children's stored costs, without building
//! anything, and only the winning entry is turned into a [`PlanNode`] tree.
//!
//! Joins that could be expressed as a single E/I extension (the probe or build side adds only
//! one query vertex) are searched too: the Section 4.3 restriction that omits them is lossy on
//! Q2 (its optimal plan joins two open wedges) and is therefore not implemented.
//!
//! **One search for every size.** Each level (vertex count) is grown from the last by
//! adjacency and built in full while its measured `Work` fits `LEVEL_BUDGET`, which every
//! query of up to nine vertices, and most of up to twelve, does. A level that does not fit is
//! dropped and, as in iterative DP (Kossmann & Stocker, TODS 2000), the previous level's
//! sub-query holding the entry with the cheapest greedy completion becomes the *unit*: later
//! sub-queries hold all of it, join sides all of it or none, and that completion bounds the
//! plan. Ranking is charged to the next level; if that does not fit either, the completion is
//! the plan. *Deviation from the paper:* this replaces Section 4.4's "keep the five cheapest
//! sub-queries per level", which on the seeded 13–31-vertex corpora of `patterns` found no
//! plan for 8 of 67, cost up to 3·10³× the exhaustive optimum and up to 10¹²× this search.

use crate::cost::{CostModel, Estimator, PlanCost};
use crate::plan::{Plan, PlanNode};
use graphflow_catalog::Catalogue;
use graphflow_query::querygraph::{set_iter, set_len, singleton, VertexSet};
use graphflow_query::{QueryEdge, QueryGraph};
use rustc_hash::{FxHashMap, FxHashSet};
use std::ops::Range;

/// Hard cap on non-dominated sub-plans retained per vertex subset (a safety valve: the
/// dominance rule alone keeps at most one Pareto frontier per order class, which for an
/// `m`-vertex query is at most `m + 1` classes).
const MAX_ENTRIES_PER_SUBSET: usize = 16;

/// The [`Work`] one level may take; a unit is a few tens of nanoseconds.
const LEVEL_BUDGET: usize = 700_000;
/// [`Work`] per candidate priced.
const PRICE_WORK: usize = 10;
/// [`Work`] per catalogue question, times its sub-query's vertex count squared (the estimate
/// for `k` vertices walks `k` extensions of up to `k` vertices).
const QUESTION_WORK: usize = 4;

/// Which parts of the plan space the optimizer may use. The experiment harnesses use the
/// restricted modes to produce the paper's "WCO plans", "BJ plans" and "hybrid plans" series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpaceOptions {
    /// Allow E/I operators with two or more descriptors (multiway intersections).
    pub allow_multiway_extend: bool,
    /// Allow HASH-JOIN operators.
    pub allow_hash_join: bool,
}

impl Default for PlanSpaceOptions {
    fn default() -> Self {
        PlanSpaceOptions {
            allow_multiway_extend: true,
            allow_hash_join: true,
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
        if q.num_vertices() < 2 || !q.is_connected() {
            return None;
        }
        let (table, ..) = self.search(est);
        // A sub-query's entries are kept cheapest first.
        let best = table.entries_of(q.full_set()).next()?;
        let cost = table.entries[best].cost.total();
        Some(Plan::new(q.clone(), table.materialise(q, best), cost))
    }

    /// The search of the module doc: its table (the full query's first entry is the plan), the
    /// last unit committed (empty when every level fit) and whether it finished greedily.
    fn search(&self, est: &mut Estimator<'_>) -> (Table, VertexSet, bool) {
        let q = est.query();
        let nbrs = q.neighbour_sets();
        let mut table = Table::default();
        let mut level: Vec<VertexSet> = (0..q.num_vertices()).map(singleton).collect();
        // The cheapest full plan known: from level 2 on, first the first edge's greedy
        // completion.
        let mut best: Option<Completion> = None;
        let mut unit: VertexSet = 0;
        let mut work = Work::default();
        let mut cands: Vec<Candidate> = Vec::new();
        while set_len(level[0]) < q.num_vertices() {
            let upper = best
                .as_ref()
                .map_or(f64::INFINITY, |b| b.cost.total() * (1.0 + 1e-9));
            let mut next: Vec<VertexSet> = level
                .iter()
                .flat_map(|&set| {
                    let around = set_iter(set).fold(0, |acc, v| acc | nbrs[v]) & !set;
                    set_iter(around).map(move |v| set | singleton(v))
                })
                .collect();
            next.sort_unstable();
            next.dedup();
            let mark = table.entries.len();
            let fits = 'level: {
                for &set in &next {
                    if work.units > LEVEL_BUDGET {
                        break 'level false;
                    }
                    // (i) a SCAN per edge of a 2-vertex sub-query (antiparallel edges differ
                    // in order), or every kept (k-1)-vertex sub-plan extended by one E/I.
                    cands.clear();
                    for &e in q.edges() {
                        if singleton(e.src) | singleton(e.dst) == set {
                            let (op, cost) = (Op::Scan(e), est.scan(e));
                            cands.push(Candidate { op, cost });
                        }
                    }
                    for target in set_iter(set & !unit) {
                        let children = table.entries_of(set & !singleton(target));
                        work.ask(set, !children.is_empty());
                        for child in children {
                            let c = &table.entries[child];
                            if self.extendable(q, c.set, target) {
                                let op = Op::Extend { child, target };
                                let cost =
                                    est.extend(c.cost, &c.layout, c.op.order_class(), target);
                                cands.push(Candidate { op, cost });
                            }
                        }
                    }
                    // (ii) binary joins of kept plans of two covering sub-queries, so trees may
                    // be bushy. A join's order class is `None` and its output cardinality
                    // depends only on the union, so the cheapest join over all entry pairs
                    // minimises `total + w·|out|` on each side independently.
                    if self.options.allow_hash_join {
                        let pairs = cover_pairs(&table, set, unit, &mut work.units);
                        work.ask(set, !pairs.is_empty());
                        for (c1, c2) in pairs {
                            for (build, probe) in [(c1, c2), (c2, c1)] {
                                let b = table.cheapest_for_join(build, self.model.w1);
                                let p = table.cheapest_for_join(probe, self.model.w2);
                                let (Some(b), Some(p)) = (b, p) else { continue };
                                if PlanNode::joinable(q, build, probe) {
                                    let op = Op::Join { build: b, probe: p };
                                    let (b, p) = (table.entries[b].cost, table.entries[p].cost);
                                    let cost = est.join(b, p, set);
                                    cands.push(Candidate { op, cost });
                                }
                            }
                        }
                    }
                    work.units += cands.len() * PRICE_WORK;
                    prune_entries(&mut cands, upper);
                    if !cands.is_empty() {
                        table.insert(set, &cands);
                    }
                }
                true
            };
            if fits {
                (level, work) = (next, Work::default());
                if set_len(level[0]) == 2 {
                    let e = q.edges()[0];
                    let first = table.entries_of(singleton(e.src) | singleton(e.dst)).start;
                    best = self.greedy_completion(est, &table, first, None, &mut Work::default());
                }
                continue;
            }
            // The level does not fit: drop it and commit a unit.
            table.entries.truncate(mark);
            table.by_set.retain(|_, r| r.end <= mark);
            work = Work::default();
            if level == [unit] {
                break;
            }
            // Rank the last level's entries by greedy completion, cheapest entry first: costs
            // only accumulate, so none costing as much as the best completion can beat it.
            let cost = |i: usize| table.entries[i].cost.total();
            let mut entries: Vec<usize> = level.iter().flat_map(|&s| table.entries_of(s)).collect();
            entries.sort_by(|&a, &b| cost(a).total_cmp(&cost(b)));
            for i in entries {
                let bound = best.as_ref().map(|b| b.cost.total());
                if work.units > LEVEL_BUDGET || bound.is_some_and(|b| cost(i) >= b) {
                    break;
                }
                best = self
                    .greedy_completion(est, &table, i, bound, &mut work)
                    .or(best);
            }
            let Some(done) = &best else {
                break;
            };
            let start = table.entries[done.entry].set;
            let steps = &done.steps[..set_len(level[0]) - set_len(start)];
            unit = steps.iter().fold(start, |set, &(v, _)| set | singleton(v));
            level = vec![unit];
        }
        let greedy = table.entries_of(q.full_set()).is_empty();
        if let Some(done) = best.filter(|_| greedy) {
            table.append_chain(done);
        }
        (table, unit, greedy)
    }

    /// Complete entry `entry` by always taking the cheapest next E/I extension (the first on
    /// a tie), charged to `work`. The chain respects the plan-space restrictions, so its cost
    /// is achievable within the space; `None` when it dead-ends (e.g. closing a cycle needs a
    /// multiway intersection in a space that forbids them) or costs `bound` or more.
    fn greedy_completion(
        &self,
        est: &mut Estimator<'_>,
        table: &Table,
        entry: usize,
        bound: Option<f64>,
        work: &mut Work,
    ) -> Option<Completion> {
        let (q, e) = (est.query(), &table.entries[entry]);
        let (mut cost, mut order, mut covered) = (e.cost, e.op.order_class(), e.set);
        let mut layout = e.layout.clone();
        let mut steps = Vec::new();
        while covered != q.full_set() {
            let mut next: Option<(usize, PlanCost)> = None;
            for target in set_iter(q.full_set() & !covered) {
                if !self.extendable(q, covered, target) {
                    continue;
                }
                work.units += PRICE_WORK;
                let asked = work.asked.insert((covered, target));
                work.ask(covered | singleton(target), asked);
                let cand = est.extend(cost, &layout, order, target);
                if next.is_none_or(|(_, b)| cand.total() < b.total()) {
                    next = Some((target, cand));
                }
            }
            let (target, cand) = next.filter(|(_, c)| bound.is_none_or(|b| c.total() < b))?;
            (cost, order, covered) = (cand, Some(target), covered | singleton(target));
            layout.push(target);
            steps.push((target, cand));
        }
        Some(Completion { entry, cost, steps })
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
            && (lists == 1 || lists > 1 && self.options.allow_multiway_extend)
    }
}

/// Work measured by the search, in units of about one `cover_pairs` mask step: a candidate
/// priced counts [`PRICE_WORK`], a catalogue question — one per sub-query and target an
/// extension is priced for, one per sub-query a join is priced for — `k² · QUESTION_WORK` for
/// a `k`-vertex sub-query, asked or already answered, so a warm table takes the same path.
#[derive(Default)]
struct Work {
    units: usize,
    /// The `(sub-query, target)` questions greedy completions have asked.
    asked: FxHashSet<(VertexSet, usize)>,
}

impl Work {
    /// Charge a question about the sub-query on `set`, if `asked`.
    fn ask(&mut self, set: VertexSet, asked: bool) {
        self.units += usize::from(asked) * set_len(set).pow(2) * QUESTION_WORK;
    }
}

/// A kept entry's greedy completion: the full plan's cost, and each step's target and cost.
struct Completion {
    entry: usize,
    cost: PlanCost,
    steps: Vec<(usize, PlanCost)>,
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
        self.entries_of(set)
            .min_by(|&a, &b| key(a).total_cmp(&key(b)))
    }

    /// Append the steps of completion `done`, one entry each; the last is the full query's.
    fn append_chain(&mut self, done: Completion) {
        let (mut child, mut set) = (done.entry, self.entries[done.entry].set);
        for (target, cost) in done.steps {
            set |= singleton(target);
            self.insert(
                set,
                &[Candidate {
                    op: Op::Extend { child, target },
                    cost,
                }],
            );
            child = self.entries.len() - 1;
        }
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
    cands.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
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
/// `C1 ∪ C2 = set`, sharing at least one vertex and holding all of `unit` or none of it (the
/// HASH-JOIN candidates of Algorithm 1, line 12), counting mask steps in `steps`. The walk runs
/// over `set` with `unit` packed into its lowest vertex, ascending in `C1` then `C2`; the table
/// only ever retains connected sub-queries, so `C2` is found by running through the sub-masks
/// of `C1` it may share, not through every mask of `set`.
fn cover_pairs(
    table: &Table,
    set: VertexSet,
    unit: VertexSet,
    steps: &mut usize,
) -> Vec<(VertexSet, VertexSet)> {
    let rep = unit & unit.wrapping_neg();
    let unpack = |p: VertexSet| if p & rep != 0 { p | unit } else { p };
    let retained = |p: VertexSet| !table.entries_of(unpack(p)).is_empty();
    let packed = if set & unit == unit {
        (set & !unit) | rep
    } else {
        set
    };
    let mut pairs = Vec::new();
    for c1 in proper_submasks(packed) {
        *steps += 1;
        if !retained(c1) {
            continue;
        }
        let rest = packed & !c1;
        for shared in proper_submasks(c1) {
            *steps += 1;
            let c2 = rest | shared;
            if c2 > c1 && retained(c2) {
                pairs.push((unpack(c1), unpack(c2)));
            }
        }
    }
    pairs
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
    fn queries_of_up_to_nine_vertices_never_commit() {
        // Every level of every query the plan cache keys fits the budget, so their plans are
        // the exact DP optimum: the densest 9-vertex query and seeded 7–9-vertex ones.
        let cat = Catalogue::with_defaults(powerlaw_graph());
        let mut queries = vec![patterns::directed_clique(9), patterns::directed_path(9)];
        queries.extend((0..12).map(|i| seeded_pattern(i, 7 + i as usize % 3, 2 * i as usize)));
        for q in &queries {
            for space in [PlanSpaceOptions::default(), PlanSpaceOptions::wco_only()] {
                let opt = DpOptimizer::new(&cat).with_options(space);
                let est = &mut Estimator::new(q, &cat, CostModel::default());
                let (table, unit, _) = opt.search(est);
                assert_eq!(unit, 0, "{q} committed a unit");
                assert!(!table.entries_of(q.full_set()).is_empty(), "{q}");
            }
        }
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
        let (table, ..) = opt.search(&mut Estimator::new(&q, &cat, CostModel::default()));
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

    /// A seeded random connected `n`-vertex pattern over one edge label: a random spanning tree
    /// plus `extra` random edges (loops skipped), random directions.
    fn seeded_pattern(seed: u64, n: usize, extra: usize) -> QueryGraph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut q = QueryGraph::new();
        for _ in 0..n {
            q.add_default_vertex();
        }
        let tree: Vec<(usize, usize)> = (1..n).map(|v| (next(v), v)).collect();
        let extra: Vec<(usize, usize)> = (0..extra).map(|_| (next(n), next(n))).collect();
        for (a, b) in tree.into_iter().chain(extra) {
            if a != b {
                let (s, d) = if next(2) == 0 { (a, b) } else { (b, a) };
                q.add_edge(s, d, graphflow_graph::EdgeLabel(0));
            }
        }
        q
    }

    /// Seeded patterns the search commits a unit on and then builds further levels for
    /// (checked where they are used).
    fn committing_patterns() -> Vec<QueryGraph> {
        let params = [(100, 13, 0), (102, 14, 1), (103, 14, 0)];
        params
            .map(|(seed, n, extra)| seeded_pattern(seed, n, extra))
            .to_vec()
    }

    /// Seeded patterns the search commits a unit on and then finishes greedily (checked where
    /// they are used).
    fn greedy_finishing_patterns() -> Vec<QueryGraph> {
        let params = [(101, 14, 0), (100, 14, 1)];
        params
            .map(|(seed, n, extra)| seeded_pattern(seed, n, extra))
            .to_vec()
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
        let mut committed = 0;
        let committing = committing_patterns().into_iter().map(|q| (q, true));
        let small = benchmark.chain(random_patterns(200)).map(|q| (q, false));
        for (i, (q, commits)) in small.chain(committing).enumerate() {
            // Benchmark queries under every model, random patterns under one each in turn.
            let models = if i < 14 {
                &models[..]
            } else {
                &models[i % 4..=i % 4]
            };
            for &model in models {
                let opt = DpOptimizer::new(&cat).with_cost_model(model);
                let (table, unit, greedy) = opt.search(&mut Estimator::new(&q, &cat, model));
                assert!(!table.entries_of(q.full_set()).is_empty(), "{q}");
                assert_eq!((unit != 0, greedy), (commits, false), "{q}");
                committed += usize::from(commits);
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
        assert!(
            committed >= 3,
            "only {committed} committing searches checked"
        );
    }

    #[test]
    fn an_optimize_asks_the_catalogue_each_question_once() {
        // The property the cold-prepare speed rests on, checked by count: one optimize makes
        // exactly one catalogue lookup per filled slot of its estimate table — one per distinct
        // subset asked about (`accessed` sets may be disconnected, so this is not the number
        // of connected subsets) and one per distinct (subset, target) — however many
        // candidates it prices, in every plan space, and on searches that commit a unit, rank
        // greedy completions and finish greedily.
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
        for q in greedy_finishing_patterns() {
            let opt = DpOptimizer::new(&cat);
            let (_, unit, greedy) = opt.search(&mut Estimator::new(&q, &cat, CostModel::default()));
            assert!(unit != 0 && greedy, "{q} must commit and finish greedily");
            queries.push(q);
        }
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
    fn cover_pairs_respect_connectivity_overlap_and_the_unit() {
        // With every connected sub-query retained, the sub-mask walk finds exactly the pairs
        // the definition gives — with a unit, only sides holding all of it or none of it — in
        // ascending (C1, C2) order of the walk.
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
            let e = q.edges()[0];
            for unit in [0, singleton(e.src) | singleton(e.dst)] {
                let whole = |c: VertexSet| c & unit == 0 || c & unit == unit;
                let mut expected = Vec::new();
                for c1 in 1..full {
                    for c2 in c1 + 1..full {
                        if c1 | c2 == full
                            && c1 & c2 != 0
                            && q.is_connected_subset(c1)
                            && q.is_connected_subset(c2)
                            && whole(c1)
                            && whole(c2)
                        {
                            expected.push((c1, c2));
                        }
                    }
                }
                let mut steps = 0;
                let mut pairs = cover_pairs(&table, full, unit, &mut steps);
                assert!(steps > 0 && !pairs.is_empty(), "Q{j}");
                if unit != 0 {
                    pairs.sort_unstable();
                }
                assert_eq!(pairs, expected, "Q{j}, unit {unit:#b}");
            }
        }
    }
}
