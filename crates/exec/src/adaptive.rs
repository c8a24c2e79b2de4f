//! Adaptive WCO plan evaluation (Section 6 of the paper).
//!
//! A fixed plan picks one query-vertex ordering for each chain of E/I operators based on
//! *average* statistics. Adaptive compilation replaces every chain of two or more consecutive
//! E/I operators (with at most 120 connected orderings, `MAX_CANDIDATES`) with an
//! [`AdaptiveStage`] — a stage kind any worker of the
//! [driver](crate::driver) runs like any other: for each incoming partial match it
//! re-estimates the i-cost of every ordering of the remaining query vertices using the
//! *actual* adjacency-list sizes of the vertices bound by that match (the scaling rule of
//! Example 6.2), and routes the match to the cheapest ordering. In WCO plans this means the
//! first two query vertices are fixed (they come from the SCAN) and the rest are picked
//! adaptively per scanned edge.
//!
//! The stage only picks: each candidate ordering is a list of ordinary E/I stages run by the
//! pipeline loops (`run_stages`), whose complete extensions come back through one
//! continuation that restores the fixed plan's layout in a stage-owned buffer (no copy when
//! the pick is the fixed ordering and nothing follows). The stage books each complete
//! extension once: as an output, or as an intermediate tuple when later stages follow.

use crate::pipeline::{compile, run_stages, CompiledPipeline, ExecOptions, ExtendStage, Stage};
use crate::profile::OpCounters;
use graphflow_catalog::Catalogue;
use graphflow_graph::{GraphView, VertexId};
use graphflow_plan::plan::PlanNode;
use graphflow_query::extension::descriptors_for_extension;
use graphflow_query::querygraph::set_of;
use graphflow_query::qvo::orderings_extending;
use graphflow_query::QueryGraph;
use std::time::Instant;

/// Catalogue estimates for one extension step of a candidate ordering.
#[derive(Debug, Clone)]
pub(crate) struct StepEstimate {
    /// Estimated average size of each intersected list (aligned with the step's descriptors).
    pub sizes: Vec<f64>,
    /// Estimated selectivity of the step.
    pub mu: f64,
}

/// One candidate ordering of an adaptive chain.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveCandidate {
    /// The order in which this candidate binds the chain's targets.
    pub order: Vec<usize>,
    /// The chain's E/I stages in candidate order, each a [`Stage::Extend`].
    pub steps: Vec<Stage>,
    /// Per-step catalogue estimates used for per-tuple re-costing.
    pub estimates: Vec<StepEstimate>,
    /// `canonical_to_candidate[i]` = position, within this candidate's appended values, of the
    /// query vertex that the *fixed* plan would have appended at position `i`. Used to restore
    /// the canonical tuple layout expected by later stages and by result collection.
    pub canonical_to_candidate: Vec<usize>,
    /// Whether this candidate is the fixed plan's own ordering, whose output already has the
    /// canonical layout.
    pub is_fixed: bool,
}

impl AdaptiveCandidate {
    /// The candidate's steps, as the E/I stages they are.
    pub(crate) fn steps(&self) -> impl Iterator<Item = &ExtendStage> {
        self.steps.iter().map(|step| match step {
            Stage::Extend(e) => e,
            _ => unreachable!("a candidate step is an E/I stage"),
        })
    }
}

/// A pipeline stage that picks a query-vertex ordering per tuple.
#[derive(Debug, Clone)]
pub struct AdaptiveStage {
    /// Pre-order id of the top E/I of the plan chain this stage runs.
    pub(crate) id: usize,
    pub(crate) candidates: Vec<AdaptiveCandidate>,
    /// The stage's own work: selection overhead, routed tuples and the chain's complete
    /// extensions (outputs, or intermediate tuples when later stages follow). Step-level work
    /// is counted on each candidate's own [`ExtendStage`]s.
    pub(crate) counters: OpCounters,
    /// `chosen[i]` = number of incoming tuples routed to candidate `i`.
    pub(crate) chosen: Vec<u64>,
    /// Read the clock for self-times ([`ExecOptions::profile`]).
    timed: bool,
    /// The chain's current complete extension in the canonical layout.
    restored: Vec<VertexId>,
}

impl AdaptiveStage {
    /// Fold the counters of a worker's clone of this stage into this one: the stage's own,
    /// the per-candidate `chosen` tallies and every candidate step.
    pub(crate) fn absorb(&mut self, worker: &AdaptiveStage) {
        self.counters.merge(&worker.counters);
        for (mine, theirs) in self.chosen.iter_mut().zip(&worker.chosen) {
            *mine += theirs;
        }
        for (mine, theirs) in self.candidates.iter_mut().zip(&worker.candidates) {
            crate::pipeline::absorb_stages(&mut mine.steps, &theirs.steps);
        }
    }
}

/// Re-estimate the cost of a candidate for a specific tuple: the first step uses the actual
/// adjacency-list sizes of the tuple's bound vertices; later steps scale the catalogue estimates
/// by the observed ratio (Example 6.2 of the paper).
fn recost_candidate<G: GraphView>(
    candidate: &AdaptiveCandidate,
    graph: &G,
    tuple: &[VertexId],
) -> f64 {
    let first = candidate.steps().next().expect("a candidate has steps");
    let first_est = &candidate.estimates[0];
    let mut actual_sum = 0.0;
    let mut ratio = 1.0;
    for (d, est_size) in first.descriptors.iter().zip(first_est.sizes.iter()) {
        // `degree` reports the merged partition size without materialising a merged list.
        let actual =
            graph.degree(tuple[d.tuple_idx], d.dir, d.edge_label, first.target_label) as f64;
        actual_sum += actual;
        if *est_size > 0.0 {
            ratio *= actual / est_size;
        }
    }
    let mut cost = actual_sum;
    let mut card = (first_est.mu * ratio).max(0.0);
    for step_est in &candidate.estimates[1..] {
        let sum_sizes: f64 = step_est.sizes.iter().sum();
        cost += card * sum_sizes;
        card *= step_est.mu;
    }
    cost
}

/// Execute one adaptive stage for `tuple`: route it to the cheapest candidate, run that
/// candidate's steps, and forward every complete extension (in the canonical layout) into the
/// remaining stages `rest`, or to `on_result` when there are none. Returns `false` to stop
/// execution.
pub(crate) fn run_adaptive_stage<G: GraphView>(
    stage: &mut AdaptiveStage,
    rest: &mut [Stage],
    graph: &G,
    tuple: &mut Vec<VertexId>,
    interrupt: Option<&crate::cancel::Interrupt>,
    on_result: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    let t0 = stage.timed.then(Instant::now);
    // Pick the cheapest candidate for this tuple.
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for (i, cand) in stage.candidates.iter().enumerate() {
        let c = recost_candidate(cand, graph, tuple);
        if c < best_cost {
            best_cost = c;
            best = i;
        }
    }
    stage.counters.tuples_in += 1;
    stage.chosen[best] += 1;
    stage.counters.add_elapsed(t0);
    let candidate = &mut stage.candidates[best];
    let emits = rest.is_empty();
    let keep_going = if candidate.is_fixed && emits {
        run_stages(&mut candidate.steps, graph, tuple, interrupt, on_result)
    } else {
        let (base_len, restored) = (tuple.len(), &mut stage.restored);
        restored.clear();
        restored.extend_from_slice(tuple);
        let reorder = &candidate.canonical_to_candidate;
        run_stages(
            &mut candidate.steps,
            graph,
            tuple,
            interrupt,
            &mut |chain| {
                restored.truncate(base_len);
                restored.extend(reorder.iter().map(|&p| chain[base_len + p]));
                if emits {
                    on_result(restored)
                } else {
                    run_stages(rest, graph, restored, interrupt, on_result)
                }
            },
        )
    };
    // The candidate's last step booked every complete extension as an output (or, under
    // COUNT(*), bulk-counted them); they are the stage's, and intermediates when stages follow.
    let Some(Stage::Extend(last)) = candidate.steps.last_mut() else {
        unreachable!("a candidate ends in an E/I step")
    };
    let complete = std::mem::take(&mut last.counters.outputs);
    if emits {
        stage.counters.outputs += complete;
    } else {
        stage.counters.tuples_out += complete;
    }
    keep_going
}

/// Compile a plan into a pipeline in which every chain of two or more consecutive E/I operators
/// is replaced by an adaptive stage. Under `count` (see [`compile`]) a chain at the root
/// bulk-counts in the last step of every candidate.
pub(crate) fn compile_adaptive<G: GraphView>(
    graph: &G,
    q: &QueryGraph,
    node: &PlanNode,
    catalogue: &Catalogue,
    options: &ExecOptions,
    count: bool,
) -> CompiledPipeline {
    // First compile normally to materialise hash tables and get the fixed pipeline.
    let mut pipeline = compile(graph, q, node, 0, options, count);
    let nodes = node.preorder();
    let fixed = std::mem::take(&mut pipeline.stages);
    for run in fixed.chunk_by(|a, b| matches!((a, b), (Stage::Extend(_), Stage::Extend(_)))) {
        let adaptive = match run {
            [Stage::Extend(_), .., Stage::Extend(top)] => {
                let mut stage =
                    adaptive_stage(q, nodes[top.id], top.id, run.len(), catalogue, options);
                for candidate in stage.iter_mut().flat_map(|s| &mut s.candidates) {
                    if let Some(Stage::Extend(last)) = candidate.steps.last_mut() {
                        last.count_tail = top.count_tail;
                    }
                }
                stage
            }
            _ => None,
        };
        match adaptive {
            Some(stage) => pipeline.stages.push(Stage::Adaptive(stage)),
            None => pipeline.stages.extend_from_slice(run),
        }
    }
    pipeline
}

/// The most candidate orderings an adaptive stage holds: 5!, what the 7-clique Q14's chain of
/// five extensions has, the most of any benchmark query. A chain with more (a 16-vertex star
/// has 14!) stays fixed, so compiling it enumerates at most one more ordering than this.
pub(crate) const MAX_CANDIDATES: usize = 120;

/// The adaptive stage for the chain of `len` E/I operators whose top is plan node `top`
/// (pre-order id `id`): one candidate per ordering of the chain's targets that keeps every
/// prefix connected — the fixed plan's own ordering among them, so there is always one. `None`
/// when there are more than [`MAX_CANDIDATES`] such orderings.
fn adaptive_stage(
    q: &QueryGraph,
    top: &PlanNode,
    id: usize,
    len: usize,
    catalogue: &Catalogue,
    options: &ExecOptions,
) -> Option<AdaptiveStage> {
    // The chain's targets in the fixed plan's (canonical) order, bottom first, and the layout
    // the chain extends.
    let mut targets = Vec::with_capacity(len);
    let mut below = top;
    for _ in 0..len {
        let PlanNode::Extend(n) = below else {
            unreachable!("an adaptive chain is made of E/I nodes")
        };
        targets.push(n.target_vertex);
        below = &n.child;
    }
    targets.reverse();
    let base = below.out();
    let candidate = |order: Vec<usize>| {
        let mut steps = Vec::new();
        let mut estimates = Vec::new();
        let mut prefix = base.to_vec();
        for &target in &order {
            let spec = descriptors_for_extension(q, &prefix, target)?;
            let est = catalogue.extension_estimate(q, &prefix, target)?;
            // Each candidate ordering binds targets at different times, so the pushed-down
            // predicates are recomputed against this ordering's own prefix.
            steps.push(Stage::Extend(ExtendStage::new(
                id,
                spec.descriptors,
                spec.target_label,
                crate::pipeline::extension_preds(q, &prefix, target),
                options,
            )));
            estimates.push(StepEstimate {
                sizes: est.avg_list_sizes,
                mu: est.mu,
            });
            prefix.push(target);
        }
        let canonical_to_candidate = (targets.iter())
            .map(|t| order.iter().position(|o| o == t).expect("same target set"))
            .collect();
        Some(AdaptiveCandidate {
            is_fixed: order == targets,
            order,
            steps,
            estimates,
            canonical_to_candidate,
        })
    };
    let (base_set, target_set) = (set_of(base), set_of(base) | set_of(&targets));
    let orders = orderings_extending(q, base_set, target_set, MAX_CANDIDATES + 1);
    if orders.len() > MAX_CANDIDATES {
        return None;
    }
    let candidates: Vec<AdaptiveCandidate> = orders.into_iter().filter_map(candidate).collect();
    Some(AdaptiveStage {
        id,
        chosen: vec![0; candidates.len()],
        candidates,
        counters: OpCounters::default(),
        timed: options.profile,
        restored: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{execute, execute_with_sink};
    use crate::testutil::count;
    use graphflow_catalog::{count_matches, Catalogue};
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_plan::cost::CostModel;
    use graphflow_plan::dp::DpOptimizer;
    use graphflow_plan::plan::Plan;
    use graphflow_plan::wco::{wco_node_for_ordering, wco_plan_for_ordering};
    use graphflow_query::patterns;
    use std::sync::Arc;

    fn random_graph() -> Arc<Graph> {
        let edges = graphflow_graph::generator::powerlaw_cluster(300, 4, 0.6, 13);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        Arc::new(b.build())
    }

    #[test]
    fn adaptive_counts_match_fixed_counts() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        for j in [2usize, 3, 4, 5, 6] {
            let q = patterns::benchmark_query(j);
            let expected = count_matches(&g, &q);
            for sigma in graphflow_query::qvo::distinct_orderings(&q)
                .into_iter()
                .take(4)
            {
                let Some(plan) = wco_plan_for_ordering(&q, &cat, &model, &sigma) else {
                    continue;
                };
                let fixed = execute(&g, &plan);
                let adaptive = count(&g, &plan, Some(&cat), 1, ExecOptions::default());
                assert_eq!(fixed.count, expected, "Q{j} fixed {sigma:?}");
                assert_eq!(adaptive.count, expected, "Q{j} adaptive {sigma:?}");
            }
        }
    }

    #[test]
    fn adaptive_hybrid_plans_count_correctly() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::benchmark_query(10);
        let expected = count_matches(&g, &q);
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let adaptive = count(&g, &plan, Some(&cat), 1, ExecOptions::default());
        assert_eq!(adaptive.count, expected);
    }

    #[test]
    fn adaptive_stage_exists_for_long_chains() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let plan = wco_plan_for_ordering(&q, &cat, &model, &[0, 1, 2, 3]).unwrap();
        let pipeline = compile_adaptive(&g, &q, &plan.root, &cat, &ExecOptions::default(), false);
        assert_eq!(pipeline.stages.len(), 1);
        match &pipeline.stages[0] {
            Stage::Adaptive(a) => assert_eq!(a.candidates.len(), 2),
            _ => panic!("expected an adaptive stage"),
        }
    }

    #[test]
    fn no_adaptive_stage_for_single_extension() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        let q = patterns::asymmetric_triangle();
        let plan = wco_plan_for_ordering(&q, &cat, &model, &[0, 1, 2]).unwrap();
        let pipeline = compile_adaptive(&g, &q, &plan.root, &cat, &ExecOptions::default(), false);
        assert!(matches!(pipeline.stages[0], Stage::Extend(_)));
    }

    /// A chain that feeds a later stage books each complete extension once, on the stage: when
    /// every tuple takes the fixed ordering, the adaptive run counts exactly what the fixed run
    /// counts, intermediate tuples included.
    #[test]
    fn a_chain_feeding_a_probe_counts_what_the_fixed_chain_counts() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        // Q9's second triangle, a3 -> a4 extended by a5 and a6, probes the first.
        let q = patterns::benchmark_query(9);
        let node = |sigma: &[usize]| wco_node_for_ordering(&q, sigma).unwrap();
        let root = PlanNode::hash_join(&q, node(&[0, 1, 2]), node(&[2, 3, 4, 5])).unwrap();
        let plan = Plan::new(q.clone(), root, 0.0);
        let profiled = ExecOptions {
            profile: true,
            ..Default::default()
        };
        let mut adaptive = count(&g, &plan, Some(&cat), 1, profiled).stats;
        let routing = std::mem::take(&mut adaptive.profile);
        let candidates = &(routing.iter())
            .find(|node| !node.candidates.is_empty())
            .expect("the chain ran as an adaptive stage")
            .candidates;
        let routed: Vec<_> = candidates
            .iter()
            .map(|c| (c.order.clone(), c.chosen))
            .collect();
        assert_eq!(routed, vec![(vec![4, 5], 1724), (vec![5, 4], 0)]);
        adaptive.elapsed = Default::default();
        let mut fixed = count(&g, &plan, None, 1, ExecOptions::default()).stats;
        fixed.elapsed = Default::default();
        assert_eq!(adaptive, fixed);
    }

    /// A chain with more than [`MAX_CANDIDATES`] connected orderings compiles fixed: the
    /// 16-vertex out-star (14! orderings of the leaves its scan leaves open) counts what the
    /// fixed plan counts. Every chain of a benchmark query keeps all its orderings.
    #[test]
    fn chains_beyond_the_candidate_bound_stay_fixed() {
        let adaptive_stages = |g: &Graph, cat: &Catalogue, q: &QueryGraph, plan: &Plan| {
            let pipeline = compile_adaptive(g, q, &plan.root, cat, &ExecOptions::default(), false);
            let stages = pipeline.stages.into_iter();
            stages.filter_map(|s| match s {
                Stage::Adaptive(a) => Some(a),
                _ => None,
            })
        };
        // Out-degrees of 1 and 2 keep the star's count (the sum of out-degree^15) small.
        let mut b = GraphBuilder::new();
        for v in 0..20 {
            b.add_edge(v, (v + 1) % 20);
            if v % 2 == 0 {
                b.add_edge(v, (v + 7) % 20);
            }
        }
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::out_star(16);
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        assert_eq!(adaptive_stages(&g, &cat, &q, &plan).count(), 0);
        let adaptive = count(&g, &plan, Some(&cat), 1, ExecOptions::default());
        assert_eq!(adaptive.count, execute(&g, &plan).count);
        assert_eq!(adaptive.count, 10 + 10 * (1 << 15));

        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let mut most = 0;
        for (j, q) in patterns::all_benchmark_queries() {
            let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
            let nodes = plan.root.preorder();
            for stage in adaptive_stages(&g, &cat, &q, &plan) {
                // The chain below the stage's top node, and the layout it extends.
                let mut below = nodes[stage.id];
                for _ in &stage.candidates[0].order {
                    let PlanNode::Extend(n) = below else {
                        unreachable!("an adaptive chain is made of E/I nodes")
                    };
                    below = &n.child;
                }
                let (base, top) = (set_of(below.out()), nodes[stage.id].vertex_set());
                let all = orderings_extending(&q, base, top, usize::MAX).len();
                assert_eq!(stage.candidates.len(), all, "Q{j}");
                most = most.max(all);
            }
        }
        assert_eq!(most, MAX_CANDIDATES, "Q14's chain of five extensions");
    }

    #[test]
    fn adaptive_collects_tuples_in_canonical_order() {
        let mut b = GraphBuilder::new();
        // One diamond-X instance: 0->1, 0->2, 1->2, 1->3, 2->3.
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        let q = patterns::diamond_x();
        let plan = wco_plan_for_ordering(&q, &cat, &model, &[0, 1, 2, 3]).unwrap();
        let mut sink = crate::sink::CollectingSink::new(10);
        let stats = execute_with_sink(&g, &plan, Some(&cat), 1, ExecOptions::default(), &mut sink);
        assert_eq!(stats.output_count, 1);
        assert_eq!(sink.into_tuples(), vec![vec![0, 1, 2, 3]]);
    }
}
