//! The cost model: i-cost for E/I operators and normalised hash-join cost (paper Sections 3.3,
//! 4.2 and 5.2), with predicate selectivities propagated *through* intermediate-result
//! cardinalities.
//!
//! Everything the model prices is a function of a **vertex subset** of the query (plus, for an
//! extension, the target vertex): `|Q_k|`, `µ` and the intersected list sizes do not depend on
//! the plan that produced the sub-query. An [`Estimator`] is the per-query table of those
//! numbers: it asks the catalogue each question once, on first use, and every costing path —
//! the DP optimizer, the WCO and spectrum enumerations, `EXPLAIN`, the baselines — prices
//! through it. Costing is **incremental**: [`Estimator::cost_step`] computes the cost of one
//! operator from the already-computed [`PlanCost`]s of its children, which is table lookups
//! and a few multiplications once the table is warm; [`Estimator::estimate_cost`] walks a whole
//! subtree bottom-up through it. There is no free costing function: a caller that prices more
//! than one operator of a query holds one table for all of them.

use crate::plan::PlanNode;
use graphflow_catalog::Catalogue;
use graphflow_query::querygraph::{set_of, singleton, VertexSet};
use graphflow_query::{QueryEdge, QueryGraph};
use rustc_hash::FxHashMap;

/// Weights and switches of the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Weight of hashing one build-side tuple, in i-cost units (`w1` of Section 4.2).
    pub w1: f64,
    /// Weight of probing with one probe-side tuple, in i-cost units (`w2`).
    pub w2: f64,
    /// Whether i-cost estimation reasons about the intersection cache (Section 5.2 calls this
    /// the "cache-conscious" optimizer; switching it off gives the "cache-oblivious" variant
    /// used as an ablation).
    pub cache_conscious: bool,
    /// Whether predicate selectivities flow through intermediate cardinalities. Switching it
    /// off gives the "filter-blind" ablation: every sub-plan is costed as if the query had no
    /// WHERE clause, so plans that bind highly filtered vertices early lose their advantage.
    pub filter_aware: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        // The paper fits w1/w2 empirically from profiled runs; these defaults reflect the same
        // procedure run against this engine: measure join-rooted spectrum plans, subtract their
        // E/I parts' wall time (converted through the seconds-per-i-cost-unit of WCO plans on
        // the same query), and least-squares the surplus against the build/probe cardinalities
        // (`fit_weights`). Hashing one build tuple costs roughly eighteen adjacency-list
        // element scans and a probe roughly six — hash-table work is far costlier per tuple
        // than the SIMD list scans i-cost counts in, so weights near 1 systematically favour
        // joins over intersections.
        CostModel {
            w1: 18.0,
            w2: 6.0,
            cache_conscious: true,
            filter_aware: true,
        }
    }
}

impl CostModel {
    /// A cache-oblivious copy of this model (always estimates with Equation 2).
    pub fn cache_oblivious(mut self) -> Self {
        self.cache_conscious = false;
        self
    }

    /// A filter-blind copy of this model: predicate selectivities are ignored everywhere, so
    /// intermediate cardinalities are those of the bare pattern. Used as an ablation to show
    /// that filter-aware costing changes (and improves) plan choice on predicate-laden queries.
    pub fn filter_blind(mut self) -> Self {
        self.filter_aware = false;
        self
    }

    /// Fit `w1` and `w2` from profiled `(n1, n2, equivalent i-cost)` triples by least squares
    /// (paper Section 4.2: E/I profiles convert hash-join wall time into i-cost units, then the
    /// weights are chosen to best fit the converted triples).
    ///
    /// Degenerate sample sets are handled explicitly instead of failing:
    ///
    /// * fewer than two samples, or samples with no signal at all (`n1 = n2 = 0` everywhere)
    ///   return `None` — there is nothing to fit;
    /// * collinear samples (every `(n1, n2)` on one line through the origin, which includes
    ///   "all n1 zero" and "all n2 zero") have a one-dimensional solution space; the
    ///   minimum-norm least-squares solution along the shared direction is returned.
    pub fn fit_weights(samples: &[(f64, f64, f64)]) -> Option<(f64, f64)> {
        if samples.len() < 2 {
            return None;
        }
        // Normal equations for [n1 n2] * [w1 w2]^T = cost.
        let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &(n1, n2, c) in samples {
            if !n1.is_finite() || !n2.is_finite() || !c.is_finite() {
                return None;
            }
            a11 += n1 * n1;
            a12 += n1 * n2;
            a22 += n2 * n2;
            b1 += n1 * c;
            b2 += n2 * c;
        }
        if a11 + a22 <= 0.0 {
            // Every sample is (0, 0, c): no signal to attribute to either weight.
            return None;
        }
        let det = a11 * a22 - a12 * a12;
        // Scale-aware rank test: for collinear samples the determinant is zero up to rounding
        // in the products accumulated above.
        if det.abs() > 1e-9 * (a11 * a22).max(a12 * a12).max(1.0) {
            let w1 = (b1 * a22 - b2 * a12) / det;
            let w2 = (b2 * a11 - b1 * a12) / det;
            return Some((w1.max(0.0), w2.max(0.0)));
        }
        // Rank-deficient: all samples lie along one direction u. Fit the scalar coordinate
        // along û = u/|u| (the minimum-norm least-squares solution; the orthogonal component
        // is unconstrained by the data and set to zero).
        let (u1, u2) = if a11 >= a22 { (a11, a12) } else { (a12, a22) };
        let norm = (u1 * u1 + u2 * u2).sqrt();
        let (u1, u2) = (u1 / norm, u2 / norm);
        // Sum of squared scalar coordinates is trace(A); b·û is the data-weighted coordinate.
        let w_par = (b1 * u1 + b2 * u2) / (a11 + a22);
        Some(((w_par * u1).max(0.0), (w_par * u2).max(0.0)))
    }
}

/// The estimated cost of a (sub-)plan, broken down by operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanCost {
    /// Estimated i-cost of all E/I operators (Equation 1 / Equation 2 of the paper).
    pub icost: f64,
    /// Estimated hash-join cost, already normalised into i-cost units (`w1·n1 + w2·n2`).
    pub join_cost: f64,
    /// Estimated cardinality of the (sub-)plan's output, with the selectivity of every
    /// predicate bound so far already applied (when the model is filter-aware).
    pub output_cardinality: f64,
}

impl PlanCost {
    /// Total cost in i-cost units.
    pub fn total(&self) -> f64 {
        self.icost + self.join_cost
    }
}

/// What the catalogue says about extending the sub-query on one vertex subset by one target
/// (all zero for a Cartesian extension).
#[derive(Default)]
struct Extension {
    /// Estimated number of extensions per prefix match (`µ`).
    mu: f64,
    /// The estimated average size of each intersected list with the prefix vertex it hangs
    /// off, grouped by vertex. A caller sums them in its own tuple order, so the sum is the
    /// one a direct catalogue call with that caller's prefix would have produced, bit for bit.
    sizes: Vec<(usize, f64)>,
}

/// The per-query estimate table: every catalogue answer one query's costing needs, asked once.
///
/// * `card(S) · sel(S)` per vertex subset `S` — the estimated cardinality of the sub-query
///   induced by `S` times the selectivity of the predicates `S` binds (1 when the model is
///   filter-blind);
/// * `(list sizes, µ)` per `(S, target)` — the catalogue's estimate for extending the
///   sub-query on `S` by `target`.
///
/// Slots are filled lazily from [`Catalogue::estimate_cardinality`] and
/// [`Catalogue::extension_estimate`], which remain the definition of an estimate; the table
/// only decides how often they are asked. It lives for one optimize / explain / enumeration
/// and must not outlive a catalogue refresh.
pub struct Estimator<'a> {
    q: &'a QueryGraph,
    catalogue: &'a Catalogue,
    model: CostModel,
    /// Undirected neighbours of every query vertex.
    nbrs: Vec<VertexSet>,
    cards: FxHashMap<VertexSet, f64>,
    extensions: FxHashMap<(VertexSet, usize), Extension>,
}

impl<'a> Estimator<'a> {
    /// An empty table for costing plans of `q` against `catalogue` under `model`.
    pub fn new(q: &'a QueryGraph, catalogue: &'a Catalogue, model: CostModel) -> Self {
        Estimator {
            q,
            catalogue,
            model,
            nbrs: q.neighbour_sets(),
            cards: FxHashMap::default(),
            extensions: FxHashMap::default(),
        }
    }

    /// The query this table prices plans of.
    pub fn query(&self) -> &'a QueryGraph {
        self.q
    }

    /// Number of filled slots, i.e. of catalogue lookups made so far: one per distinct subset
    /// and one per distinct `(subset, target)` asked about.
    pub fn filled_slots(&self) -> usize {
        self.cards.len() + self.extensions.len()
    }

    fn sel(&self, set: VertexSet) -> f64 {
        if self.model.filter_aware {
            self.q.predicate_selectivity(set)
        } else {
            1.0
        }
    }

    /// `card(set) · sel(set)`.
    fn cardinality(&mut self, set: VertexSet) -> f64 {
        if let Some(&c) = self.cards.get(&set) {
            return c;
        }
        let c = self.catalogue.estimate_cardinality(self.q, set) * self.sel(set);
        self.cards.insert(set, c);
        c
    }

    /// `(Σ list sizes in the order of prefix, µ)` of extending the sub-query on the vertices
    /// of `prefix` by `target`; zeros for a Cartesian extension.
    fn extension(&mut self, prefix: &[usize], set: VertexSet, target: usize) -> (f64, f64) {
        let (q, catalogue) = (self.q, self.catalogue);
        let ext = self.extensions.entry((set, target)).or_insert_with(|| {
            let est = catalogue.extension_estimate(q, prefix, target);
            est.map_or_else(Extension::default, |est| {
                // One size per query edge between a prefix vertex and the target, in tuple
                // order (the catalogue's descriptor order).
                let per_vertex = prefix.iter().flat_map(|&v| {
                    let edges = q.edges().iter().filter(move |e| {
                        (e.src == v && e.dst == target) || (e.dst == v && e.src == target)
                    });
                    edges.map(move |_| v)
                });
                Extension {
                    mu: est.mu,
                    sizes: per_vertex.zip(est.avg_list_sizes).collect(),
                }
            })
        });
        let mut sum = 0.0;
        for &v in prefix {
            for &(_, size) in ext.sizes.iter().filter(|(u, _)| *u == v) {
                sum += size;
            }
        }
        (sum, ext.mu)
    }

    /// Cost of a SCAN of `edge`: its output cardinality is the catalogue estimate of the edge's
    /// 2-vertex sub-query times the selectivity of the predicates it binds.
    pub fn scan(&mut self, edge: QueryEdge) -> PlanCost {
        PlanCost {
            icost: 0.0,
            join_cost: 0.0,
            output_cardinality: self.cardinality(singleton(edge.src) | singleton(edge.dst)),
        }
    }

    /// Cost of an E/I operator extending a child of cost `child` — whose output tuples carry
    /// the query vertices `prefix`, the last matched being `last_matched` (see
    /// [`last_matched_vertex`]) — by `target`.
    ///
    /// It contributes `multiplier × Σ |L_i|` i-cost, where the multiplier is the child's
    /// *propagated* output cardinality (Equation 2) or — when the model is cache-conscious and
    /// the intersection only accesses query vertices matched *before* the child's most recently
    /// matched vertex — the cardinality of the projection onto the accessed vertices, capped by
    /// the child cardinality (Section 5.2, "Intersection cache utilization"; the cap reflects
    /// that the cache cannot miss more often than there are child tuples). Its output
    /// cardinality is `child × µ × Δsel`, with `Δsel` the combined selectivity of the predicates
    /// newly bound by the target vertex — this is what propagates a filter on an interior vertex
    /// into every sub-plan that binds it.
    pub fn extend(
        &mut self,
        child: PlanCost,
        prefix: &[usize],
        last_matched: Option<usize>,
        target: usize,
    ) -> PlanCost {
        let child_set = set_of(prefix);
        let (sum_sizes, mu) = self.extension(prefix, child_set, target);

        // Choose the multiplier: cardinality of the child, or of the accessed projection
        // when the intersection cache will be reused.
        let accessed = self.nbrs[target] & child_set;
        let multiplier = if self.model.cache_conscious
            && last_matched.is_some_and(|lv| accessed & singleton(lv) == 0)
        {
            self.cardinality(accessed).min(child.output_cardinality)
        } else {
            child.output_cardinality
        };

        // Selectivity of exactly the predicates the target vertex newly binds (per-op
        // selectivities are strictly positive, so the ratio is well defined).
        let child_sel = self.sel(child_set);
        let delta_sel = if child_sel > 0.0 {
            self.sel(child_set | singleton(target)) / child_sel
        } else {
            1.0
        };
        PlanCost {
            icost: child.icost + multiplier * sum_sizes,
            join_cost: child.join_cost,
            output_cardinality: child.output_cardinality * mu * delta_sel,
        }
    }

    /// Cost of a HASH-JOIN producing the sub-query on `union`: `w1·|build| + w2·|probe|` on the
    /// children's propagated cardinalities; its output cardinality is the catalogue estimate of
    /// the union sub-query scaled by the selectivity of every predicate the union binds.
    pub fn join(&mut self, build: PlanCost, probe: PlanCost, union: VertexSet) -> PlanCost {
        PlanCost {
            icost: build.icost + probe.icost,
            join_cost: build.join_cost
                + probe.join_cost
                + self.model.w1 * build.output_cardinality
                + self.model.w2 * probe.output_cardinality,
            output_cardinality: self.cardinality(union),
        }
    }

    /// Cost one operator given the costs of its children (`[]` for SCAN, `[child]` for E/I,
    /// `[build, probe]` for HASH-JOIN); see [`Estimator::scan`], [`Estimator::extend`] and
    /// [`Estimator::join`].
    pub fn cost_step(&mut self, node: &PlanNode, child_costs: &[PlanCost]) -> PlanCost {
        match node {
            PlanNode::Scan(n) => self.scan(n.edge),
            PlanNode::Extend(n) => self.extend(
                child_costs[0],
                n.child.out(),
                last_matched_vertex(&n.child),
                n.target_vertex,
            ),
            PlanNode::HashJoin(_) => self.join(child_costs[0], child_costs[1], node.vertex_set()),
        }
    }

    /// Estimate the cost of a plan subtree by walking it bottom-up through
    /// [`Estimator::cost_step`].
    pub fn estimate_cost(&mut self, node: &PlanNode) -> PlanCost {
        match node {
            PlanNode::Scan(_) => self.cost_step(node, &[]),
            PlanNode::Extend(n) => {
                let child = self.estimate_cost(&n.child);
                self.cost_step(node, &[child])
            }
            PlanNode::HashJoin(n) => {
                let build = self.estimate_cost(&n.build);
                let probe = self.estimate_cost(&n.probe);
                self.cost_step(node, &[build, probe])
            }
        }
    }
}

/// The query vertex whose binding varies fastest in the node's output stream: the vertex the
/// node matched last. Consecutive tuples agree on everything matched *before* it, which is what
/// makes the intersection cache effective (Section 3.2.3). `None` for hash-join roots, whose
/// output order gives no grouping guarantee — this is also the "interesting order" the DP
/// optimizer keys its sub-plan classes on.
pub fn last_matched_vertex(node: &PlanNode) -> Option<usize> {
    match node {
        // SCAN produces edges sorted by (label, src, dst): the destination varies fastest.
        PlanNode::Scan(n) => Some(n.edge.dst),
        PlanNode::Extend(n) => Some(n.target_vertex),
        // Hash-join output order gives no grouping guarantee.
        PlanNode::HashJoin(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanNode;
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_query::patterns;
    use std::sync::Arc;

    /// [`Estimator::cost_step`] on a table built for this one call.
    fn cost_step(
        q: &QueryGraph,
        catalogue: &Catalogue,
        model: &CostModel,
        node: &PlanNode,
        child_costs: &[PlanCost],
    ) -> PlanCost {
        Estimator::new(q, catalogue, *model).cost_step(node, child_costs)
    }

    /// [`Estimator::estimate_cost`] on a table built for this one call.
    fn estimate_cost(
        q: &QueryGraph,
        catalogue: &Catalogue,
        model: &CostModel,
        node: &PlanNode,
    ) -> PlanCost {
        Estimator::new(q, catalogue, *model).estimate_cost(node)
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

    fn wco_plan(q: &QueryGraph, sigma: &[usize]) -> PlanNode {
        let edge = q
            .edges()
            .iter()
            .find(|e| {
                (e.src == sigma[0] && e.dst == sigma[1]) || (e.src == sigma[1] && e.dst == sigma[0])
            })
            .copied()
            .unwrap();
        let mut node = PlanNode::scan(edge);
        for &t in &sigma[2..] {
            node = PlanNode::extend(q, node, t).unwrap();
        }
        node
    }

    #[test]
    fn wco_cost_positive_and_monotone_in_steps() {
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let p_tri = wco_plan(&q, &[0, 1, 2]);
        let p_full = wco_plan(&q, &[0, 1, 2, 3]);
        let c_tri = estimate_cost(&q, &cat, &model, &p_tri);
        let c_full = estimate_cost(&q, &cat, &model, &p_full);
        assert!(c_tri.icost > 0.0);
        assert!(c_full.icost > c_tri.icost);
        assert!(c_full.output_cardinality > 0.0);
    }

    #[test]
    fn incremental_cost_step_agrees_with_recursive_estimate() {
        // The DP costs candidates through cost_step on stored child costs; spectrum/EXPLAIN
        // re-walk subtrees through estimate_cost. The two must agree exactly.
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let tri = wco_plan(&q, &[0, 1, 2]);
        let tri_cost = estimate_cost(&q, &cat, &model, &tri);
        let full = PlanNode::extend(&q, tri.clone(), 3).unwrap();
        let inc = cost_step(&q, &cat, &model, &full, &[tri_cost]);
        let rec = estimate_cost(&q, &cat, &model, &full);
        assert_eq!(inc, rec);

        let left = wco_plan(&q, &[0, 1, 2]);
        let right = wco_plan(&q, &[1, 2, 3]);
        let (lc, rc) = (
            estimate_cost(&q, &cat, &model, &left),
            estimate_cost(&q, &cat, &model, &right),
        );
        let join = PlanNode::hash_join(&q, left, right).unwrap();
        let inc = cost_step(&q, &cat, &model, &join, &[lc, rc]);
        let rec = estimate_cost(&q, &cat, &model, &join);
        assert_eq!(inc, rec);
    }

    #[test]
    fn cache_conscious_cost_is_never_larger() {
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let q = patterns::symmetric_diamond_x();
        let conscious = CostModel::default();
        let oblivious = CostModel::default().cache_oblivious();
        for sigma in graphflow_query::qvo::distinct_orderings(&q) {
            if graphflow_query::extension::extension_chain(&q, &sigma).is_none() {
                continue;
            }
            let p = wco_plan(&q, &sigma);
            let cc = estimate_cost(&q, &cat, &conscious, &p);
            let co = estimate_cost(&q, &cat, &oblivious, &p);
            assert!(
                cc.icost <= co.icost + 1e-6,
                "{sigma:?}: {} > {}",
                cc.icost,
                co.icost
            );
        }
    }

    #[test]
    fn cache_conscious_differentiates_diamond_orderings() {
        // On the symmetric diamond-X the ordering a2a3a1a4 reuses the cache when extending to
        // the 4th vertex (it only accesses a2 and a3) while a2a3a4a1-style orderings that access
        // the most recent vertex do not. The cache-conscious cost must prefer the former
        // (Table 6 / Section 5.2 discussion).
        let g = complete_graph(10);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::symmetric_diamond_x();
        // sigma_cached = a2 a3 a1 a4 (indices 1,2,0,3); extending to a4 accesses a2,a3 only.
        let cached = wco_plan(&q, &[1, 2, 0, 3]);
        // sigma_uncached = a1 a2 a3 a4 (indices 0,1,2,3); extending to a4 accesses a2,a3 where
        // a3 is the most recently matched vertex, so no reuse.
        let uncached = wco_plan(&q, &[0, 1, 2, 3]);
        let c_cached = estimate_cost(&q, &cat, &model, &cached);
        let c_uncached = estimate_cost(&q, &cat, &model, &uncached);
        assert!(
            c_cached.icost < c_uncached.icost,
            "cached {} !< uncached {}",
            c_cached.icost,
            c_uncached.icost
        );
        // The cache-oblivious model cannot tell them apart (same intersections overall).
        let ob = CostModel::default().cache_oblivious();
        let o_cached = estimate_cost(&q, &cat, &ob, &cached);
        let o_uncached = estimate_cost(&q, &cat, &ob, &uncached);
        assert!((o_cached.icost - o_uncached.icost).abs() / o_uncached.icost < 0.2);
    }

    #[test]
    fn predicate_selectivity_shrinks_estimates() {
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let plain = estimate_cost(&q, &cat, &model, &wco_plan(&q, &[0, 1, 2, 3]));
        let mut filtered = q.clone();
        filtered.add_predicate(Predicate {
            target: PredTarget::Vertex(0),
            key: "age".into(),
            op: CmpOp::Eq,
            value: graphflow_graph::PropValue::Int(30),
        });
        let cost = estimate_cost(&filtered, &cat, &model, &wco_plan(&filtered, &[0, 1, 2, 3]));
        assert!(cost.output_cardinality < plain.output_cardinality);
        assert!(cost.icost < plain.icost, "filtered scans feed fewer tuples");
        // An equality predicate (selectivity 0.1) cuts deeper than an inequality (1/3).
        let mut loosely = q.clone();
        loosely.add_predicate(Predicate {
            target: PredTarget::Vertex(0),
            key: "age".into(),
            op: CmpOp::Gt,
            value: graphflow_graph::PropValue::Int(30),
        });
        let loose = estimate_cost(&loosely, &cat, &model, &wco_plan(&loosely, &[0, 1, 2, 3]));
        assert!(cost.output_cardinality < loose.output_cardinality);
    }

    #[test]
    fn filter_blind_model_ignores_predicates() {
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let blind = CostModel::default().filter_blind();
        let q = patterns::diamond_x();
        let plain = estimate_cost(&q, &cat, &blind, &wco_plan(&q, &[0, 1, 2, 3]));
        let mut filtered = q.clone();
        filtered.add_predicate(Predicate {
            target: PredTarget::Vertex(0),
            key: "age".into(),
            op: CmpOp::Eq,
            value: graphflow_graph::PropValue::Int(30),
        });
        let blinded = estimate_cost(&filtered, &cat, &blind, &wco_plan(&filtered, &[0, 1, 2, 3]));
        assert_eq!(
            blinded, plain,
            "filter-blind costing must not see the WHERE clause"
        );
        // The filter-aware model does see it.
        let aware = estimate_cost(
            &filtered,
            &cat,
            &CostModel::default(),
            &wco_plan(&filtered, &[0, 1, 2, 3]),
        );
        assert!(aware.output_cardinality < blinded.output_cardinality);
    }

    #[test]
    fn interior_filter_shrinks_every_containing_subplan() {
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        // A filter on a3 must shrink the output cardinality of *every* sub-plan binding a3,
        // not just the operator that matches a3 — that is the "propagated through intermediate
        // cardinalities" property.
        let g = complete_graph(8);
        let cat = Catalogue::with_defaults(g);
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let mut filtered = q.clone();
        filtered.add_predicate(Predicate {
            target: PredTarget::Vertex(2), // a3: matched second in the chosen ordering
            key: "age".into(),
            op: CmpOp::Eq,
            value: graphflow_graph::PropValue::Int(30),
        });
        let sigma = [1usize, 2, 0, 3]; // a3 bound at step 2; two more extensions follow
        for prefix_len in 2..=sigma.len() {
            let plain = estimate_cost(&q, &cat, &model, &wco_plan(&q, &sigma[..prefix_len]));
            let filt = estimate_cost(
                &filtered,
                &cat,
                &model,
                &wco_plan(&filtered, &sigma[..prefix_len]),
            );
            assert!(
                filt.output_cardinality < plain.output_cardinality * 0.2,
                "prefix {:?}: {} !< {}",
                &sigma[..prefix_len],
                filt.output_cardinality,
                plain.output_cardinality
            );
        }
    }

    #[test]
    fn hash_join_cost_uses_weights() {
        let g = complete_graph(6);
        let cat = Catalogue::with_defaults(g);
        let q = patterns::diamond_x();
        let left = wco_plan(&q, &[0, 1, 2]);
        let right = wco_plan(&q, &[1, 2, 3]);
        let join = PlanNode::hash_join(&q, left, right).unwrap();
        let m1 = CostModel {
            w1: 10.0,
            w2: 1.0,
            ..CostModel::default()
        };
        let m2 = CostModel {
            w1: 1.0,
            w2: 1.0,
            ..CostModel::default()
        };
        let c1 = estimate_cost(&q, &cat, &m1, &join);
        let c2 = estimate_cost(&q, &cat, &m2, &join);
        assert!(c1.join_cost > c2.join_cost);
        assert!(c1.total() > c1.icost);
    }

    #[test]
    fn weight_fitting_recovers_known_weights() {
        let truth = (4.0, 1.5);
        let samples: Vec<(f64, f64, f64)> = (1..50)
            .map(|i| {
                let n1 = (i * 13 % 31) as f64 + 1.0;
                let n2 = (i * 7 % 23) as f64 + 1.0;
                (n1, n2, truth.0 * n1 + truth.1 * n2)
            })
            .collect();
        let (w1, w2) = CostModel::fit_weights(&samples).unwrap();
        assert!((w1 - truth.0).abs() < 1e-6);
        assert!((w2 - truth.1).abs() < 1e-6);
        assert!(CostModel::fit_weights(&samples[..1]).is_none());
    }

    #[test]
    fn weight_fitting_degenerate_inputs() {
        // Empty and single-sample inputs: nothing to fit.
        assert!(CostModel::fit_weights(&[]).is_none());
        assert!(CostModel::fit_weights(&[(1.0, 2.0, 3.0)]).is_none());
        // All-zero regressors: no signal.
        assert!(CostModel::fit_weights(&[(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)]).is_none());
        // Non-finite samples are rejected rather than poisoning the normal equations.
        assert!(CostModel::fit_weights(&[(1.0, f64::NAN, 1.0), (2.0, 1.0, 2.0)]).is_none());

        // All n2 = 0: exact 1-D least squares on n1.
        let (w1, w2) =
            CostModel::fit_weights(&[(1.0, 0.0, 5.0), (2.0, 0.0, 10.0), (3.0, 0.0, 15.0)]).unwrap();
        assert!((w1 - 5.0).abs() < 1e-9, "w1 = {w1}");
        assert_eq!(w2, 0.0);

        // All n1 = 0: symmetric case.
        let (w1, w2) = CostModel::fit_weights(&[(0.0, 2.0, 6.0), (0.0, 4.0, 12.0)]).unwrap();
        assert_eq!(w1, 0.0);
        assert!((w2 - 3.0).abs() < 1e-9, "w2 = {w2}");

        // Collinear n2 = n1: the minimum-norm solution splits the fitted weight equally, and
        // it reproduces the observed costs exactly.
        let samples = [(1.0, 1.0, 8.0), (2.0, 2.0, 16.0), (5.0, 5.0, 40.0)];
        let (w1, w2) = CostModel::fit_weights(&samples).unwrap();
        assert!((w1 - w2).abs() < 1e-9, "min-norm split: {w1} vs {w2}");
        for &(n1, n2, c) in &samples {
            assert!((w1 * n1 + w2 * n2 - c).abs() < 1e-6);
        }
    }
}
