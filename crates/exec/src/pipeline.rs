//! Plan compilation and the per-tuple stage loops.
//!
//! After hash-join build sides are materialised, every plan tree degenerates into a linear
//! pipeline: one driver SCAN at the bottom followed by a sequence of stages, each of which is
//! an EXTEND/INTERSECT, a hash-table probe or an adaptive chain. The compiler walks the plan,
//! materialises build sides bottom-up, and produces that pipeline; the [driver](crate::driver)
//! then streams scan tuples through `run_stages` depth-first, so no intermediate result is
//! ever materialised outside of hash tables — the same discipline as the paper's
//! Volcano-style engine.

use crate::join::{JoinTable, JoinTableBuilder};
use crate::profile::{CandidateProfile, OpCounters, OpProfile};
use crate::sink::MatchSink;
use crate::stats::RuntimeStats;
use graphflow_graph::{
    multiway_intersect_views_counted, EdgeLabel, GraphView, KernelCounters, NbrList, PropValue,
    VertexId, VertexLabel,
};
use graphflow_plan::plan::{HashJoinNode, PlanNode};
use graphflow_query::extension::AdjListDescriptor;
use graphflow_query::querygraph::singleton;
use graphflow_query::{CmpOp, PredTarget, QueryEdge, QueryGraph};
use std::sync::Arc;
use std::time::Instant;

/// One pushed-down comparison compiled down to its evaluation ingredients.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCmp {
    pub key: String,
    pub op: CmpOp,
    pub value: PropValue,
}

impl CompiledCmp {
    /// Evaluate against a looked-up property value, counting the evaluation on the operator
    /// that asked. Missing properties and type-incomparable pairs do not match.
    #[inline]
    pub(crate) fn matches(&self, found: Option<PropValue>, counters: &mut OpCounters) -> bool {
        counters.predicate_evals += 1;
        match found {
            Some(found) => found
                .compare(&self.value)
                .map(|ord| self.op.eval(ord))
                .unwrap_or(false),
            None => false,
        }
    }
}

/// A predicate evaluable as soon as the driver SCAN binds its two vertices.
#[derive(Debug, Clone)]
pub(crate) enum ScanPred {
    /// On the vertex held by tuple slot 0 (scan source) or 1 (scan destination).
    Vertex { slot: usize, cmp: CompiledCmp },
    /// On a query edge between the two scanned vertices (the scan edge itself or an
    /// antiparallel / parallel-label companion).
    Edge {
        src_slot: usize,
        dst_slot: usize,
        label: EdgeLabel,
        cmp: CompiledCmp,
    },
}

/// An edge predicate evaluated while extending: the data edge runs between a prefix slot and
/// the candidate extension vertex.
#[derive(Debug, Clone)]
pub(crate) struct ExtendEdgePred {
    /// Tuple slot of the already-bound endpoint.
    pub prefix_idx: usize,
    /// Whether the prefix endpoint is the data edge's source (query edge `prefix -> target`).
    pub prefix_is_src: bool,
    pub label: EdgeLabel,
    pub cmp: CompiledCmp,
}

/// The predicates that become evaluable when `target` is bound on top of `prefix`: comparisons
/// on `target` itself, plus comparisons on query edges between `target` and a prefix vertex.
/// Shared by the fixed compiler and the adaptive candidate builder (whose per-ordering prefixes
/// differ).
pub(crate) fn extension_preds(
    q: &QueryGraph,
    prefix: &[usize],
    target: usize,
) -> (Vec<CompiledCmp>, Vec<ExtendEdgePred>) {
    let mut target_preds = Vec::new();
    let mut edge_preds = Vec::new();
    for p in q.predicates() {
        let cmp = CompiledCmp {
            key: p.key.clone(),
            op: p.op,
            value: p.value.clone(),
        };
        match p.target {
            PredTarget::Vertex(v) if v == target => target_preds.push(cmp),
            PredTarget::Edge(i) => {
                let e = q.edges()[i];
                if e.src == target {
                    if let Some(pos) = prefix.iter().position(|&x| x == e.dst) {
                        edge_preds.push(ExtendEdgePred {
                            prefix_idx: pos,
                            prefix_is_src: false,
                            label: e.label,
                            cmp,
                        });
                    }
                } else if e.dst == target {
                    if let Some(pos) = prefix.iter().position(|&x| x == e.src) {
                        edge_preds.push(ExtendEdgePred {
                            prefix_idx: pos,
                            prefix_is_src: true,
                            label: e.label,
                            cmp,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    (target_preds, edge_preds)
}

/// Execution options.
///
/// Result *delivery* is not configured here any more: executors stream tuples into a
/// [`MatchSink`], so what used to be `collect_tuples`/`collect_limit` is now the caller's
/// choice of sink ([`CollectingSink`](crate::sink::CollectingSink),
/// [`LimitSink`](crate::sink::LimitSink), ...).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// Enable the E/I last-extension cache (Section 3.1). Table 3 of the paper toggles this.
    pub use_intersection_cache: bool,
    /// Stop after producing exactly this many results, at any worker count (used by the
    /// output-limited CFL comparison).
    pub output_limit: Option<u64>,
    /// Cooperative cancellation: executors poll this token at batch granularity
    /// ([`INTERRUPT_CHECK_INTERVAL`](crate::INTERRUPT_CHECK_INTERVAL) units of work) and stop
    /// — recording [`RuntimeStats::cancelled`] — once it is cancelled.
    pub cancel: Option<crate::CancellationToken>,
    /// Hard deadline: executors poll the clock at the same batch granularity and stop —
    /// recording [`RuntimeStats::timed_out`] — once it has passed. Callers with a relative
    /// timeout compute `Instant::now() + timeout` before submitting the run, so pipeline
    /// compilation and hash-join build time count against the budget too (query *planning*
    /// happens upstream of the executors and does not).
    pub deadline: Option<std::time::Instant>,
    /// The `COUNT(*)` fast path: the plan's root operator counts its results in bulk instead
    /// of producing one tuple per result. An E/I root adds each extension set's *size* (the
    /// set is computed — and predicate-filtered — either way; only the per-element tuple
    /// loop is skipped). A HASH-JOIN root builds a counts-only table, which keeps the number
    /// of build tuples per key and no payload columns, and each probe adds its key's count. A
    /// scan-only plan ignores the flag. Only sound when the sink reports
    /// `needs_tuples() == false`; the driver stands the path down under an `output_limit`
    /// (results must claim their slots one by one), and hash-join build sides never count in
    /// bulk (their tuples feed the join table, not the output). The mode is fixed when the
    /// pipeline is compiled. `RuntimeStats::bulk_counted_extensions` counts the shortcut
    /// firing.
    pub count_tail: bool,
    /// Return the per-operator profile through [`RuntimeStats::profile`]: the operators' own
    /// counters (i-cost, tuples in/out, cache hits/misses, predicate evals/drops, delta merges
    /// — kept on every run, `RuntimeStats` is their sum) filed as one [`OpProfile`] per plan
    /// node, indexed by the node's pre-order id, plus operator self-times. Off by default;
    /// turning it on adds the clock readings and the records, and changes no counter.
    pub profile: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            use_intersection_cache: true,
            output_limit: None,
            cancel: None,
            deadline: None,
            count_tail: false,
            profile: false,
        }
    }
}

impl ExecOptions {
    /// The interrupt state for one run over these options (`None` when neither a token nor a
    /// deadline is set, so un-cancellable runs pay nothing).
    pub(crate) fn interrupt(&self) -> Option<crate::cancel::Interrupt> {
        crate::cancel::Interrupt::new(self.cancel.clone(), self.deadline)
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct ExecOutput {
    /// Number of query results.
    pub count: u64,
    /// Runtime counters (actual i-cost, intermediate matches, cache hits, ...).
    pub stats: RuntimeStats,
}

/// The driver scan of a pipeline.
#[derive(Debug, Clone)]
pub(crate) struct ScanStage {
    /// Pre-order id of the plan node this stage runs.
    pub id: usize,
    pub edge: QueryEdge,
    /// Source and destination vertex labels required by the query.
    pub src_label: VertexLabel,
    pub dst_label: VertexLabel,
    /// Additional query edges between the same two query vertices (antiparallel pairs or
    /// multi-labelled edges) that act as scan filters.
    pub extra_filters: Vec<QueryEdge>,
    /// Property predicates evaluable on the scanned pair (pushed down from the WHERE clause).
    pub(crate) preds: Vec<ScanPred>,
    /// What this operator did (its time, under [`ExecOptions::profile`], covers the whole
    /// drive until profile assembly subtracts the downstream self-times).
    pub(crate) counters: OpCounters,
    /// Read the clock for self-times ([`ExecOptions::profile`]).
    pub(crate) timed: bool,
}

impl ScanStage {
    /// Scan-level admission of one candidate edge `(u, v, l)`: edge-label gate, endpoint
    /// vertex-label gate, antiparallel/multi-label co-edge filters, and pushed-down property
    /// predicates (`tuples_in` lands after the edge-label gate; predicate evals/drops on the
    /// predicate gate).
    pub(crate) fn admit<G: GraphView>(
        &mut self,
        graph: &G,
        u: VertexId,
        v: VertexId,
        l: EdgeLabel,
    ) -> bool {
        if l != self.edge.label {
            return false;
        }
        self.counters.tuples_in += 1;
        if graph.vertex_label(u) != self.src_label || graph.vertex_label(v) != self.dst_label {
            return false;
        }
        // Apply antiparallel / multi-label filters between the two scanned query vertices.
        let ok = self.extra_filters.iter().all(|e| {
            let (s, d) = if e.src == self.edge.src {
                (u, v)
            } else {
                (v, u)
            };
            graph.has_edge(s, d, e.label)
        });
        if !ok {
            return false;
        }
        // Pushed-down property predicates on the scanned pair.
        if !self.preds.is_empty() {
            let ScanStage {
                preds, counters, ..
            } = self;
            let pick = |slot: usize| if slot == 0 { u } else { v };
            let pass = preds.iter().all(|p| match p {
                ScanPred::Vertex { slot, cmp } => {
                    cmp.matches(graph.vertex_prop(pick(*slot), &cmp.key), counters)
                }
                ScanPred::Edge {
                    src_slot,
                    dst_slot,
                    label,
                    cmp,
                } => cmp.matches(
                    graph.edge_prop(pick(*src_slot), pick(*dst_slot), *label, &cmp.key),
                    counters,
                ),
            });
            if !pass {
                counters.predicate_drops += 1;
                return false;
            }
        }
        true
    }
}

/// An EXTEND/INTERSECT stage.
#[derive(Debug, Clone)]
pub(crate) struct ExtendStage {
    /// Pre-order id of the plan node this stage runs (a candidate step of an adaptive stage
    /// carries its stage's).
    pub id: usize,
    pub descriptors: Vec<AdjListDescriptor>,
    pub target_label: VertexLabel,
    /// Predicates on the extension target, applied to every candidate of the extension set.
    target_preds: Vec<CompiledCmp>,
    /// Predicates on query edges between the target and a prefix vertex.
    edge_preds: Vec<ExtendEdgePred>,
    // Last-extension cache state.
    cache_key: Vec<VertexId>,
    cache_set: Vec<VertexId>,
    cache_valid: bool,
    scratch: Vec<VertexId>,
    /// What this operator did.
    pub(crate) counters: OpCounters,
    /// Reuse the last extension set ([`ExecOptions::use_intersection_cache`]).
    use_cache: bool,
    /// Read the clock for self-times ([`ExecOptions::profile`]).
    timed: bool,
    /// Set on the root E/I of a run under [`ExecOptions::count_tail`] (at compile time): every
    /// extension set is bulk-counted, so the stage's `tuples_in` is also the number of bulk
    /// counts.
    pub(crate) count_tail: bool,
}

impl ExtendStage {
    pub(crate) fn new(
        id: usize,
        descriptors: Vec<AdjListDescriptor>,
        target_label: VertexLabel,
        (target_preds, edge_preds): (Vec<CompiledCmp>, Vec<ExtendEdgePred>),
        options: &ExecOptions,
    ) -> Self {
        ExtendStage {
            id,
            descriptors,
            target_label,
            target_preds,
            edge_preds,
            cache_key: Vec::new(),
            cache_set: Vec::new(),
            cache_valid: false,
            scratch: Vec::new(),
            counters: OpCounters::default(),
            use_cache: options.use_intersection_cache,
            timed: options.profile,
            count_tail: false,
        }
    }

    /// Compute (or reuse) the extension set for `tuple`, counting the work.
    pub(crate) fn extension_set<G: GraphView>(
        &mut self,
        graph: &G,
        tuple: &[VertexId],
    ) -> &[VertexId] {
        let t0 = self.timed.then(Instant::now);
        self.counters.tuples_in += 1;
        let key_matches = self.use_cache
            && self.cache_valid
            && self.cache_key.len() == self.descriptors.len()
            && self
                .descriptors
                .iter()
                .zip(self.cache_key.iter())
                .all(|(d, &k)| tuple[d.tuple_idx] == k);
        if key_matches {
            self.counters.cache_hits += 1;
            self.counters.add_elapsed(t0);
            return &self.cache_set;
        }
        self.counters.cache_misses += 1;
        self.cache_key.clear();
        self.cache_key
            .extend(self.descriptors.iter().map(|d| tuple[d.tuple_idx]));
        // Every list is a borrowed slice: a CSR partition, or on a snapshot with pending
        // updates the merged list its overlay keeps for a touched one.
        let lists: Vec<NbrList> = self
            .descriptors
            .iter()
            .map(|d| graph.nbrs(tuple[d.tuple_idx], d.dir, d.edge_label, self.target_label))
            .collect();
        self.counters.icost += lists.iter().map(|l| l.len() as u64).sum::<u64>();
        self.counters.delta_merges += lists.iter().filter(|l| l.is_overlay()).count() as u64;
        let mut kernels = KernelCounters::default();
        multiway_intersect_views_counted(
            &lists,
            &mut self.cache_set,
            &mut self.scratch,
            &mut kernels,
        );
        self.counters.kernel_merge += kernels.merge;
        self.counters.kernel_gallop += kernels.gallop;
        self.counters.kernel_block += kernels.block;
        // Pushed-down filtering of the extension set. Baking this into the *cached* set is
        // sound: target predicates depend only on the candidate vertex, and every edge
        // predicate's prefix endpoint has a descriptor (one exists for each query edge between
        // prefix and target), so all bindings the filter reads are part of the cache key.
        if !self.target_preds.is_empty() || !self.edge_preds.is_empty() {
            let ExtendStage {
                cache_set,
                target_preds,
                edge_preds,
                counters,
                ..
            } = self;
            let before = cache_set.len();
            cache_set.retain(|&v| {
                for cmp in target_preds.iter() {
                    if !cmp.matches(graph.vertex_prop(v, &cmp.key), counters) {
                        return false;
                    }
                }
                for ep in edge_preds.iter() {
                    let (s, d) = if ep.prefix_is_src {
                        (tuple[ep.prefix_idx], v)
                    } else {
                        (v, tuple[ep.prefix_idx])
                    };
                    if !ep
                        .cmp
                        .matches(graph.edge_prop(s, d, ep.label, &ep.cmp.key), counters)
                    {
                        return false;
                    }
                }
                true
            });
            counters.predicate_drops += (before - cache_set.len()) as u64;
        }
        self.cache_valid = true;
        self.counters.add_elapsed(t0);
        &self.cache_set
    }

    /// Read a value from the cached extension set by index (kept separate from
    /// [`ExtendStage::extension_set`] so the borrow of the set does not outlive the recursion
    /// into later stages).
    #[inline]
    pub(crate) fn cache_set_value(&self, i: usize) -> VertexId {
        self.cache_set[i]
    }

    /// Install an externally-computed candidate set — a stolen heavy-split segment — into this
    /// stage's set buffer so [`run_extend_candidates`] can drive it. Invalidates the
    /// last-extension cache: the installed segment is a slice of another worker's set and must
    /// not be reused for this stage's next tuple.
    pub(crate) fn install_candidates(&mut self, candidates: &[VertexId]) {
        self.cache_set.clear();
        self.cache_set.extend_from_slice(candidates);
        self.cache_valid = false;
    }
}

/// A hash-table probe stage (the probe half of a HASH-JOIN).
#[derive(Debug, Clone)]
pub(crate) struct ProbeStage {
    /// Pre-order id of the HASH-JOIN node this stage runs.
    pub id: usize,
    pub table: Arc<JoinTable>,
    /// Positions of the join-key query vertices within the incoming tuple.
    pub key_positions: Vec<usize>,
    /// The current probe key, gathered from those positions.
    key: Vec<VertexId>,
    /// What this operator did; `tuples_in` is the number of probes.
    pub(crate) counters: OpCounters,
    /// Read the clock for self-times ([`ExecOptions::profile`]).
    timed: bool,
    /// The books of the build side that filled `table`. Compile-time state every worker's
    /// pipeline clone shares unchanged, so it is folded once, from worker 0's pipeline.
    pub(crate) build: Arc<BuildSide>,
}

/// What materialising a hash-join build side counted: the pipeline that filled the table (its
/// operators keep their counters, under the build subtree's plan-node ids) and the drive's own
/// stats (build tuples, stop flags).
#[derive(Debug)]
pub(crate) struct BuildSide {
    pipeline: CompiledPipeline,
    stats: RuntimeStats,
}

/// One pipeline stage.
#[derive(Debug, Clone)]
pub(crate) enum Stage {
    Extend(ExtendStage),
    Probe(ProbeStage),
    Adaptive(crate::adaptive::AdaptiveStage),
}

/// Fold the counters of a worker's clone of `mine` into it, stage by stage.
pub(crate) fn absorb_stages(mine: &mut [Stage], theirs: &[Stage]) {
    for (mine, theirs) in mine.iter_mut().zip(theirs) {
        match (mine, theirs) {
            (Stage::Extend(a), Stage::Extend(b)) => a.counters.merge(&b.counters),
            (Stage::Probe(a), Stage::Probe(b)) => a.counters.merge(&b.counters),
            (Stage::Adaptive(a), Stage::Adaptive(b)) => a.absorb(b),
            _ => unreachable!("a worker's pipeline is a clone of this one"),
        }
    }
}

/// A compiled, executable pipeline.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPipeline {
    pub scan: ScanStage,
    pub stages: Vec<Stage>,
    /// Query vertex carried by each final tuple position.
    pub out_layout: Vec<usize>,
}

/// Compile a plan (sub)tree whose root has pre-order id `id` into a pipeline, stamping every
/// stage with the id of the plan node it runs and materialising every hash-join build side
/// along the way (each probe stage keeps its build side's books).
///
/// `count` puts the pipeline's root operator in bulk-counting mode
/// ([`ExecOptions::count_tail`]): an E/I root adds each extension set's size to its outputs,
/// and a hash-join root gets a counts-only table and adds each probed key's tuple count. The
/// operators below the root, and every build side, produce their tuples as usual.
pub(crate) fn compile<G: GraphView>(
    graph: &G,
    q: &QueryGraph,
    node: &PlanNode,
    mut id: usize,
    options: &ExecOptions,
    mut count: bool,
) -> CompiledPipeline {
    let mut stages_top_down: Vec<Stage> = Vec::new();
    let mut current = node;
    loop {
        match current {
            PlanNode::Extend(n) => {
                let mut stage = ExtendStage::new(
                    id,
                    n.descriptors.clone(),
                    n.target_label,
                    extension_preds(q, n.child.out(), n.target_vertex),
                    options,
                );
                stage.count_tail = std::mem::take(&mut count);
                stages_top_down.push(Stage::Extend(stage));
                current = &n.child;
                id += 1;
            }
            PlanNode::HashJoin(n) => {
                let counts_only = std::mem::take(&mut count);
                let (table, build) = materialize(graph, q, n, id + 1, options, counts_only);
                let key_positions: Vec<usize> = n
                    .key_vertices
                    .iter()
                    .map(|kv| {
                        n.probe
                            .out()
                            .iter()
                            .position(|v| v == kv)
                            .expect("join key appears in probe layout")
                    })
                    .collect();
                stages_top_down.push(Stage::Probe(ProbeStage {
                    id,
                    table: Arc::new(table),
                    key: Vec::with_capacity(key_positions.len()),
                    key_positions,
                    counters: OpCounters::default(),
                    timed: options.profile,
                    build: Arc::new(build),
                }));
                id += 1 + n.build.num_operators();
                current = &n.probe;
            }
            PlanNode::Scan(n) => {
                let extra_filters: Vec<QueryEdge> = q
                    .edges()
                    .iter()
                    .copied()
                    .filter(|e| {
                        !(e.src == n.edge.src && e.dst == n.edge.dst && e.label == n.edge.label)
                            && ((e.src == n.edge.src && e.dst == n.edge.dst)
                                || (e.src == n.edge.dst && e.dst == n.edge.src))
                    })
                    .collect();
                // Predicates evaluable the moment the scan binds its two vertices: anything on
                // the scanned query vertices, and anything on a query edge between them (the
                // scan edge itself or one of the extra filter edges).
                let mut preds = Vec::new();
                for p in q.predicates() {
                    let cmp = CompiledCmp {
                        key: p.key.clone(),
                        op: p.op,
                        value: p.value.clone(),
                    };
                    match p.target {
                        PredTarget::Vertex(v) if v == n.edge.src => {
                            preds.push(ScanPred::Vertex { slot: 0, cmp });
                        }
                        PredTarget::Vertex(v) if v == n.edge.dst => {
                            preds.push(ScanPred::Vertex { slot: 1, cmp });
                        }
                        PredTarget::Edge(i) => {
                            let e = q.edges()[i];
                            let covers = (e.src == n.edge.src && e.dst == n.edge.dst)
                                || (e.src == n.edge.dst && e.dst == n.edge.src);
                            if covers {
                                preds.push(ScanPred::Edge {
                                    src_slot: usize::from(e.src != n.edge.src),
                                    dst_slot: usize::from(e.dst != n.edge.src),
                                    label: e.label,
                                    cmp,
                                });
                            }
                        }
                        _ => {}
                    }
                }
                let scan = ScanStage {
                    id,
                    edge: n.edge,
                    src_label: q.vertex(n.edge.src).label,
                    dst_label: q.vertex(n.edge.dst).label,
                    extra_filters,
                    preds,
                    counters: OpCounters::default(),
                    timed: options.profile,
                };
                stages_top_down.reverse();
                return CompiledPipeline {
                    scan,
                    stages: stages_top_down,
                    out_layout: node.out().to_vec(),
                };
            }
        }
    }
}

/// The sink a hash-join build side runs into: files every build tuple under its join key.
struct TableBuilder {
    key_vertices: Vec<usize>,
    payload_vertices: Vec<usize>,
    /// The current build tuple's key, gathered from `key_vertices`.
    key: Vec<VertexId>,
    table: JoinTableBuilder,
}

impl MatchSink for TableBuilder {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        self.key.clear();
        self.key.extend(self.key_vertices.iter().map(|&v| tuple[v]));
        (self.table).insert(&self.key, self.payload_vertices.iter().map(|&v| tuple[v]));
        true
    }
}

/// Execute the build side of a hash join, whose root has pre-order id `id`, and materialise it
/// into a [`JoinTable`] (a counts-only one under `counts_only`); the second return value is
/// what the build counted.
fn materialize<G: GraphView>(
    graph: &G,
    q: &QueryGraph,
    join: &HashJoinNode,
    id: usize,
    options: &ExecOptions,
    counts_only: bool,
) -> (JoinTable, BuildSide) {
    let (build, probe) = (&*join.build, &*join.probe);
    let in_set = |set: u32, v: usize| set & singleton(v) != 0;
    // The driver delivers build tuples in query-vertex order, so key and payload columns are
    // addressed by query vertex. Key = vertices shared with the probe side, in probe layout
    // order (the probe stage builds its key in that order); payload = build-only vertices in
    // build layout order (the order the probe appends them in).
    let key_vertices: Vec<usize> = (probe.out().iter().copied())
        .filter(|&v| in_set(build.vertex_set(), v))
        .collect();
    let payload_vertices: Vec<usize> = (build.out().iter().copied())
        .filter(|&v| !in_set(probe.vertex_set(), v))
        .collect();
    let mut builder = TableBuilder {
        table: JoinTableBuilder::new(key_vertices.len(), payload_vertices.len(), counts_only),
        key: Vec::with_capacity(key_vertices.len()),
        key_vertices,
        payload_vertices,
    };

    // No limit, and no bulk counting: every build tuple must reach the table. A tripped
    // interrupt leaves the table incomplete; its flag rides up in the totals, so the facade
    // surfaces the run as cancelled/timed out instead of returning partial counts (the probe
    // pipeline's own check stops the rest).
    let mut pipeline = compile(graph, q, build, id, options, false);
    let mut stats = crate::driver::drive(
        &mut pipeline,
        graph,
        q.num_vertices(),
        options,
        None,
        1,
        &mut builder,
    );
    // Build-side results are hash-table entries, not query results: the build root books them
    // as intermediates, and they are the build tuples.
    let root = pipeline.emitter_mut();
    stats.hash_build_tuples = std::mem::take(&mut root.outputs);
    root.tuples_out += stats.hash_build_tuples;
    (builder.table.finish(), BuildSide { pipeline, stats })
}

/// Recursive depth-first evaluation of a list of stages: a pipeline's, or the steps of the
/// candidate an adaptive stage picked. Returns `false` to stop.
pub(crate) fn run_stages<G: GraphView>(
    stages: &mut [Stage],
    graph: &G,
    tuple: &mut Vec<VertexId>,
    interrupt: Option<&crate::cancel::Interrupt>,
    on_result: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    if let Stage::Extend(stage) = &mut stages[0] {
        let set_len = stage.extension_set(graph, tuple).len();
        if stage.count_tail {
            // COUNT(*) fast path: the final column's values are never read, so the
            // (already predicate-filtered) set size is the number of results.
            stage.counters.outputs += set_len as u64;
            return true;
        }
        return run_extend_candidates(stages, graph, tuple, 0..set_len, interrupt, on_result);
    }
    let (first, rest) = stages.split_at_mut(1);
    let is_last = rest.is_empty();
    match &mut first[0] {
        Stage::Extend(_) => unreachable!("handled above"),
        Stage::Probe(stage) => {
            let t0 = stage.timed.then(Instant::now);
            let ProbeStage {
                table,
                key_positions,
                key,
                counters,
                ..
            } = stage;
            counters.tuples_in += 1;
            key.clear();
            key.extend(key_positions.iter().map(|&i| tuple[i]));
            let found = table.find(key);
            counters.add_elapsed(t0);
            let Some(id) = found else {
                return true;
            };
            if table.counts_only() {
                // COUNT(*) at the root: the joined tuples are never read, so the number of
                // build tuples under the key is the number of results.
                counters.outputs += table.count(id) as u64;
                return true;
            }
            let (payloads, width, base) = (table.payloads(id), table.payload_width(), tuple.len());
            for g in 0..table.count(id) {
                if let Some(interrupt) = interrupt {
                    if interrupt.should_stop() {
                        return false;
                    }
                }
                tuple.extend_from_slice(&payloads[g * width..][..width]);
                let keep_going = if is_last {
                    counters.outputs += 1;
                    on_result(tuple)
                } else {
                    counters.tuples_out += 1;
                    run_stages(rest, graph, tuple, interrupt, on_result)
                };
                tuple.truncate(base);
                if !keep_going {
                    return false;
                }
            }
            true
        }
        Stage::Adaptive(stage) => {
            crate::adaptive::run_adaptive_stage(stage, rest, graph, tuple, interrupt, on_result)
        }
    }
}

/// Drive the per-candidate loop of an EXTEND stage over the `range` sub-range of its current
/// extension set. `stages[0]` must be an [`ExtendStage`] whose set buffer is already populated
/// — either computed by [`ExtendStage::extension_set`] for the current tuple, or installed
/// from a stolen heavy-split segment with [`ExtendStage::install_candidates`]. Split out of
/// [`run_stages`] so the driver's two-level morsel scheduler can run sub-ranges of one
/// (hub-vertex) extension set on different workers; every processed candidate is booked in
/// the executing worker's own pipeline, so absorbing the workers position by position gives
/// the run's totals.
pub(crate) fn run_extend_candidates<G: GraphView>(
    stages: &mut [Stage],
    graph: &G,
    tuple: &mut Vec<VertexId>,
    range: std::ops::Range<usize>,
    interrupt: Option<&crate::cancel::Interrupt>,
    on_result: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    let (first, rest) = stages.split_at_mut(1);
    let is_last = rest.is_empty();
    let Stage::Extend(stage) = &mut first[0] else {
        unreachable!("run_extend_candidates requires an EXTEND stage")
    };
    for i in range {
        // One extension candidate is the unit of cooperative-interrupt accounting: a
        // cancelled query stops mid-extension-set instead of draining it.
        if let Some(interrupt) = interrupt {
            if interrupt.should_stop() {
                return false;
            }
        }
        let v = stage.cache_set_value(i);
        tuple.push(v);
        let keep_going = if is_last {
            stage.counters.outputs += 1;
            on_result(tuple)
        } else {
            stage.counters.tuples_out += 1;
            run_stages(rest, graph, tuple, interrupt, on_result)
        };
        tuple.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

impl CompiledPipeline {
    /// Fold the counters of a worker's clone of this pipeline into this one, position by
    /// position (the join barrier; same fork/absorb discipline as partial sinks). Hash-join
    /// build totals are compile-time state every clone shares unchanged, so they are not
    /// merged — this pipeline keeps the only copy that is folded.
    pub(crate) fn absorb(&mut self, worker: &CompiledPipeline) {
        self.scan.counters.merge(&worker.scan.counters);
        absorb_stages(&mut self.stages, &worker.stages);
    }

    /// The counters of the operator that emits result tuples (the last stage, or the scan of a
    /// scan-only pipeline) — the only operator that books `outputs`.
    pub(crate) fn emitter_mut(&mut self) -> &mut OpCounters {
        match self.stages.last_mut() {
            None => &mut self.scan.counters,
            Some(Stage::Extend(e)) => &mut e.counters,
            Some(Stage::Probe(p)) => &mut p.counters,
            Some(Stage::Adaptive(a)) => &mut a.counters,
        }
    }

    /// Add what this pipeline's operators (and the build sides behind its probes) counted to
    /// `stats`: the only place operator work becomes [`RuntimeStats`]. Under `profile` the same
    /// fold files each stage's counters under its plan node's id in `stats.profile`, as
    /// self-times: every other stage timed only its own work while the scan timed the whole
    /// drive, so the scan's time is reduced by theirs.
    pub(crate) fn fold_into(&self, stats: &mut RuntimeStats, profile: bool) {
        fn add(stats: &mut RuntimeStats, c: &OpCounters) {
            stats.icost += c.icost;
            stats.intermediate_tuples += c.tuples_out;
            stats.output_count += c.outputs;
            stats.cache_hits += c.cache_hits;
            stats.cache_misses += c.cache_misses;
            stats.delta_merges += c.delta_merges;
            stats.predicate_evals += c.predicate_evals;
            stats.predicate_drops += c.predicate_drops;
            stats.kernel_merge += c.kernel_merge;
            stats.kernel_gallop += c.kernel_gallop;
            stats.kernel_block += c.kernel_block;
        }
        fn add_extend(stats: &mut RuntimeStats, e: &ExtendStage) {
            add(stats, &e.counters);
            if e.count_tail {
                stats.bulk_counted_extensions += e.counters.tuples_in;
            }
        }
        fn record<'s>(stats: &'s mut RuntimeStats, id: usize, c: &OpCounters) -> &'s mut OpProfile {
            if stats.profile.len() <= id {
                stats.profile.resize_with(id + 1, OpProfile::default);
            }
            stats.profile[id].counters = c.clone();
            &mut stats.profile[id]
        }
        let mut stage_time = 0;
        for s in &self.stages {
            let (id, counters) = match s {
                Stage::Extend(e) => {
                    add_extend(stats, e);
                    (e.id, &e.counters)
                }
                Stage::Probe(p) => {
                    add(stats, &p.counters);
                    stats.hash_probe_tuples += p.counters.tuples_in;
                    if p.table.counts_only() {
                        stats.bulk_counted_extensions += p.counters.tuples_in;
                    }
                    stats.merge(&p.build.stats);
                    p.build.pipeline.fold_into(stats, profile);
                    (p.id, &p.counters)
                }
                Stage::Adaptive(a) => {
                    add(stats, &a.counters);
                    for step in a.candidates.iter().flat_map(|c| c.steps()) {
                        add_extend(stats, step);
                    }
                    (a.id, &a.counters)
                }
            };
            if !profile {
                continue;
            }
            stage_time += counters.time_ns;
            let node = record(stats, id, counters);
            if let Stage::Adaptive(a) = s {
                node.candidates = (a.candidates.iter().zip(&a.chosen))
                    .map(|(cand, &chosen)| CandidateProfile {
                        order: cand.order.clone(),
                        chosen,
                        steps: cand.steps().map(|st| st.counters.clone()).collect(),
                    })
                    .collect();
                stage_time += (node.candidates.iter().flat_map(|c| &c.steps))
                    .map(|st| st.time_ns)
                    .sum::<u64>();
            }
        }
        add(stats, &self.scan.counters);
        if profile {
            let scan = &mut record(stats, self.scan.id, &self.scan.counters).counters;
            scan.time_ns = scan.time_ns.saturating_sub(stage_time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{execute, execute_with_sink};
    use crate::sink::CountingSink;
    use crate::testutil::count;
    use graphflow_catalog::{count_matches, Catalogue};
    use graphflow_graph::{Graph, GraphBuilder};
    use graphflow_plan::cost::CostModel;
    use graphflow_plan::dp::DpOptimizer;
    use graphflow_plan::plan::Plan;
    use graphflow_plan::wco::wco_plan_for_ordering;
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

    fn random_graph() -> Arc<Graph> {
        let edges = graphflow_graph::generator::powerlaw_cluster(300, 4, 0.6, 11);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        Arc::new(b.build())
    }

    #[test]
    fn wco_plan_counts_match_reference_matcher() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        for j in [1usize, 2, 3, 4, 6, 8] {
            let q = patterns::benchmark_query(j);
            let expected = count_matches(&g, &q);
            for sigma in graphflow_query::qvo::distinct_orderings(&q)
                .into_iter()
                .take(6)
            {
                let Some(plan) = wco_plan_for_ordering(&q, &cat, &model, &sigma) else {
                    continue;
                };
                let out = execute(&g, &plan);
                assert_eq!(out.count, expected, "Q{j} ordering {sigma:?}");
            }
        }
    }

    #[test]
    fn hybrid_and_bj_plans_count_the_same() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::benchmark_query(8);
        let expected = count_matches(&g, &q);
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let out = execute(&g, &plan);
        assert_eq!(out.count, expected);

        // An explicitly hybrid plan: join the two triangles of Q8 on the shared vertex.
        let left = graphflow_plan::wco::wco_node_for_ordering(&q, &[0, 1, 2]).unwrap();
        let right = graphflow_plan::wco::wco_node_for_ordering(&q, &[2, 3, 4]).unwrap();
        let join = graphflow_plan::plan::PlanNode::hash_join(&q, left, right).unwrap();
        let hybrid = Plan::new(q.clone(), join, 0.0);
        let out2 = execute(&g, &hybrid);
        assert_eq!(out2.count, expected);
        assert!(out2.stats.hash_build_tuples > 0);
        assert!(out2.stats.hash_probe_tuples > 0);
    }

    #[test]
    fn labelled_queries_filter_correctly() {
        let g = random_graph();
        let labelled = Arc::new(graphflow_graph::loader::assign_random_edge_labels(&g, 3, 5));
        let cat = Catalogue::with_defaults(labelled.clone());
        let q = patterns::label_query_edges_randomly(&patterns::diamond_x(), 3, 9);
        let expected = count_matches(&labelled, &q);
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let out = execute(&labelled, &plan);
        assert_eq!(out.count, expected);
    }

    #[test]
    fn intersection_cache_reduces_icost_without_changing_counts() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        let q = patterns::symmetric_diamond_x();
        // Ordering a2 a3 a1 a4: the final extension accesses only a2 and a3, so consecutive
        // triangles sharing the (a2, a3) edge hit the cache.
        let plan = wco_plan_for_ordering(&q, &cat, &model, &[1, 2, 0, 3]).unwrap();
        let with_cache = count(&g, &plan, None, 1, ExecOptions::default());
        let without_cache = count(
            &g,
            &plan,
            None,
            1,
            ExecOptions {
                use_intersection_cache: false,
                ..Default::default()
            },
        );
        assert_eq!(with_cache.count, without_cache.count);
        assert!(with_cache.stats.cache_hits > 0);
        assert_eq!(without_cache.stats.cache_hits, 0);
        assert!(with_cache.stats.icost <= without_cache.stats.icost);
    }

    #[test]
    fn output_limit_stops_early() {
        let g = complete_graph(20);
        let cat = Catalogue::with_defaults(g.clone());
        let model = CostModel::default();
        let q = patterns::asymmetric_triangle();
        let plan = wco_plan_for_ordering(&q, &cat, &model, &[0, 1, 2]).unwrap();
        let out = count(
            &g,
            &plan,
            None,
            1,
            ExecOptions {
                output_limit: Some(100),
                ..Default::default()
            },
        );
        assert_eq!(out.count, 100);
    }

    #[test]
    fn collected_tuples_are_valid_matches() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let mut sink = crate::sink::CollectingSink::new(50);
        let stats = execute_with_sink(&g, &plan, None, 1, ExecOptions::default(), &mut sink);
        let tuples = sink.into_tuples();
        assert!(!tuples.is_empty());
        assert!(tuples.len() <= 50);
        assert!(stats.output_count >= tuples.len() as u64);
        for t in &tuples {
            // a1->a2, a2->a3, a1->a3 must all exist.
            assert!(g.has_edge(t[0], t[1], graphflow_graph::EdgeLabel(0)));
            assert!(g.has_edge(t[1], t[2], graphflow_graph::EdgeLabel(0)));
            assert!(g.has_edge(t[0], t[2], graphflow_graph::EdgeLabel(0)));
        }
    }

    #[test]
    fn limit_sink_stops_execution_early() {
        let g = complete_graph(20);
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let full = execute(&g, &plan).count;
        let mut sink = crate::sink::LimitSink::new(10);
        let stats = execute_with_sink(&g, &plan, None, 1, ExecOptions::default(), &mut sink);
        assert_eq!(sink.tuples.len(), 10);
        assert!(full > 10);
        assert!(
            stats.output_count < full,
            "execution must abort once the limit sink says stop"
        );
    }

    #[test]
    fn callback_sink_streams_without_materializing() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let expected = execute(&g, &plan).count;
        let mut streamed = 0u64;
        {
            let mut sink = crate::sink::CallbackSink::new(|_t: &[VertexId]| {
                streamed += 1;
                true
            });
            execute_with_sink(&g, &plan, None, 1, ExecOptions::default(), &mut sink);
        }
        assert_eq!(streamed, expected);
    }

    #[test]
    fn scan_only_plan_counts_edges() {
        let g = complete_graph(5);
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::directed_path(2);
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let out = execute(&g, &plan);
        assert_eq!(out.count, 20);
    }

    #[test]
    fn predicates_filter_at_scan_and_extend() {
        use graphflow_graph::PropValue;
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        // Triangle 0->1->2, 0->2 plus a second triangle 3->4->5, 3->5.
        let mut b = GraphBuilder::new();
        for base in [0u32, 3] {
            b.add_edge(base, base + 1);
            b.add_edge(base + 1, base + 2);
            b.add_edge(base, base + 2);
        }
        for v in 0..6u32 {
            b.set_vertex_prop(v, "age", PropValue::Int(10 * v as i64))
                .unwrap();
        }
        b.set_edge_prop(
            0,
            1,
            graphflow_graph::EdgeLabel(0),
            "w",
            PropValue::Float(0.9),
        )
        .unwrap();
        b.set_edge_prop(
            3,
            4,
            graphflow_graph::EdgeLabel(0),
            "w",
            PropValue::Float(0.1),
        )
        .unwrap();
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g.clone());

        // Unfiltered: both triangles match.
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let unfiltered = execute(&g, &plan);
        assert_eq!(unfiltered.count, 2);
        assert_eq!(unfiltered.stats.predicate_evals, 0);

        // Vertex predicate: only the second triangle's apex has age >= 30.
        let mut filtered = q.clone();
        filtered.add_predicate(Predicate {
            target: PredTarget::Vertex(0),
            key: "age".into(),
            op: CmpOp::Ge,
            value: PropValue::Int(30),
        });
        let plan = DpOptimizer::new(&cat).optimize(&filtered).unwrap();
        let out = execute(&g, &plan);
        assert_eq!(out.count, 1);
        assert!(out.stats.predicate_evals > 0);
        assert!(out.stats.predicate_drops > 0, "drops happen before output");
        assert!(
            out.stats.intermediate_tuples < unfiltered.stats.intermediate_tuples,
            "pushdown must shrink intermediate results, not post-filter"
        );

        // Edge predicate on the (a1)->(a2) edge: only 0->1 has w > 0.5.
        let mut edge_filtered = q.clone();
        edge_filtered.add_predicate(Predicate {
            target: PredTarget::Edge(0),
            key: "w".into(),
            op: CmpOp::Gt,
            value: PropValue::Float(0.5),
        });
        let plan = DpOptimizer::new(&cat).optimize(&edge_filtered).unwrap();
        let out = execute(&g, &plan);
        assert_eq!(out.count, 1);

        // A predicate over a property that does not exist matches nothing.
        let mut missing = q.clone();
        missing.add_predicate(Predicate {
            target: PredTarget::Vertex(1),
            key: "nope".into(),
            op: CmpOp::Ne,
            value: PropValue::Int(0),
        });
        let plan = DpOptimizer::new(&cat).optimize(&missing).unwrap();
        assert_eq!(execute(&g, &plan).count, 0);
    }

    #[test]
    fn empty_build_side_short_circuits_the_probe_scan() {
        use graphflow_graph::PropValue;
        use graphflow_query::querygraph::{CmpOp, PredTarget, Predicate};
        let g = random_graph();
        // Path a1->a2->a3 with an unsatisfiable predicate on a3: the build side (scan of
        // a2->a3) materialises nothing, so the probe scan must never drive.
        let mut q = patterns::directed_path(3);
        q.add_predicate(Predicate {
            target: PredTarget::Vertex(2),
            key: "nope".into(),
            op: CmpOp::Ne,
            value: PropValue::Int(0),
        });
        let build = PlanNode::scan(q.edges()[1]);
        let probe = PlanNode::scan(q.edges()[0]);
        let join = PlanNode::hash_join(&q, build, probe).unwrap();
        let plan = Plan::new(q.clone(), join, 0.0);
        let out = execute(&g, &plan);
        assert_eq!(out.count, 0);
        assert_eq!(out.stats.hash_probe_tuples, 0, "no probes attempted");
        assert_eq!(
            out.stats.intermediate_tuples, 0,
            "the probe-side scan is skipped entirely when the build is empty"
        );
    }

    #[test]
    fn count_tail_bulk_counts_final_extension() {
        let g = random_graph();
        let cat = Catalogue::with_defaults(g.clone());
        let q = patterns::asymmetric_triangle();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let normal = execute(&g, &plan);
        assert_eq!(normal.stats.bulk_counted_extensions, 0);
        let mut sink = CountingSink::new();
        let stats = execute_with_sink(
            &g,
            &plan,
            None,
            1,
            ExecOptions {
                count_tail: true,
                ..Default::default()
            },
            &mut sink,
        );
        assert_eq!(sink.matches, normal.count, "bulk counting is exact");
        assert_eq!(stats.output_count, normal.count);
        assert!(stats.bulk_counted_extensions > 0, "fast path fired");
        // With an output limit the fast path must stand down (per-result accounting).
        let limited = count(
            &g,
            &plan,
            None,
            1,
            ExecOptions {
                count_tail: true,
                output_limit: Some(5),
                ..Default::default()
            },
        );
        assert_eq!(limited.count, 5);
        assert_eq!(limited.stats.bulk_counted_extensions, 0);
    }

    #[test]
    fn antiparallel_scan_filter_applies() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g.clone());
        let q = graphflow_query::parse_query("(a)->(b), (b)->(a)").unwrap();
        let plan = DpOptimizer::new(&cat).optimize(&q).unwrap();
        let out = execute(&g, &plan);
        assert_eq!(out.count, 2);
    }
}
