//! Plan trees over the SCAN, EXTEND/INTERSECT and HASH-JOIN operators.
//!
//! A plan is a rooted tree (paper Section 4.1):
//!
//! * leaves are SCAN nodes labelled with a single query edge;
//! * an internal node with one child is an E/I node that extends its child's sub-query by one
//!   query vertex through a multiway intersection;
//! * an internal node with two children is a HASH-JOIN whose sub-query is the union of its
//!   children's sub-queries.
//!
//! Every node is labelled with the *projection* of the query onto its vertex set (the paper's
//! projection constraint); this module stores the vertex set and the tuple layout (`out`), and
//! offers classification (WCO / BJ / hybrid), traversal and pretty-printing.

use graphflow_graph::VertexLabel;
use graphflow_query::extension::AdjListDescriptor;
use graphflow_query::querygraph::{set_of, singleton, VertexSet};
use graphflow_query::{QueryEdge, QueryGraph};
use std::fmt;

/// A SCAN leaf: matches one query edge, producing 2-tuples `[src match, dst match]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// The query edge being scanned.
    pub edge: QueryEdge,
    /// Query-vertex indices carried by the output tuple positions: `[edge.src, edge.dst]`.
    pub out: Vec<usize>,
}

/// An EXTEND/INTERSECT node: extends each child tuple by one query vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendNode {
    pub child: Box<PlanNode>,
    /// Adjacency-list descriptors; `tuple_idx` indexes into the child's `out` layout.
    pub descriptors: Vec<AdjListDescriptor>,
    /// The query vertex matched by this extension.
    pub target_vertex: usize,
    /// Required label of the destination data vertex.
    pub target_label: VertexLabel,
    /// Output tuple layout: the child's layout followed by `target_vertex`.
    pub out: Vec<usize>,
}

/// A HASH-JOIN node: builds a hash table on the `build` child keyed by the common query
/// vertices, probes it with the `probe` child.
#[derive(Debug, Clone, PartialEq)]
pub struct HashJoinNode {
    pub build: Box<PlanNode>,
    pub probe: Box<PlanNode>,
    /// The common query vertices (join key), in the order they appear in the probe layout.
    pub key_vertices: Vec<usize>,
    /// Output layout: the probe layout followed by the build-only query vertices.
    pub out: Vec<usize>,
}

/// A node of a query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    Scan(ScanNode),
    Extend(ExtendNode),
    HashJoin(HashJoinNode),
}

impl PlanNode {
    /// Build a SCAN node for a query edge.
    pub fn scan(edge: QueryEdge) -> PlanNode {
        PlanNode::Scan(ScanNode {
            out: vec![edge.src, edge.dst],
            edge,
        })
    }

    /// Build an E/I node extending `child` by `target_vertex` of query `q`.
    ///
    /// Returns `None` when the extension has no descriptors (Cartesian extension) or the target
    /// is already covered by the child.
    pub fn extend(q: &QueryGraph, child: PlanNode, target_vertex: usize) -> Option<PlanNode> {
        if child.vertex_set() & singleton(target_vertex) != 0 {
            return None;
        }
        let prefix = child.out().to_vec();
        let spec =
            graphflow_query::extension::descriptors_for_extension(q, &prefix, target_vertex)?;
        let mut out = prefix;
        out.push(target_vertex);
        Some(PlanNode::Extend(ExtendNode {
            child: Box::new(child),
            descriptors: spec.descriptors,
            target_vertex,
            target_label: spec.target_label,
            out,
        }))
    }

    /// Whether sub-plans covering the vertex sets `build` and `probe` may be hash-joined: they
    /// share at least one query vertex, neither contains the other, and their union equals the
    /// projection of the query onto the union of their vertex sets (every query edge inside
    /// the union lies entirely within one side — a join leaving such an edge covered by
    /// neither child would silently drop a predicate).
    pub fn joinable(q: &QueryGraph, build: VertexSet, probe: VertexSet) -> bool {
        let union = build | probe;
        build & probe != 0
            && union != build
            && union != probe
            && q.edges().iter().all(|e| {
                let e_set = singleton(e.src) | singleton(e.dst);
                e_set & !union != 0 || e_set & !build == 0 || e_set & !probe == 0
            })
    }

    /// Build a HASH-JOIN of `build` and `probe`; `None` unless they are
    /// [`joinable`](PlanNode::joinable).
    pub fn hash_join(q: &QueryGraph, build: PlanNode, probe: PlanNode) -> Option<PlanNode> {
        let bs = build.vertex_set();
        let ps = probe.vertex_set();
        if !PlanNode::joinable(q, bs, ps) {
            return None;
        }
        let key_vertices: Vec<usize> = probe
            .out()
            .iter()
            .copied()
            .filter(|&v| bs & singleton(v) != 0)
            .collect();
        let mut out = probe.out().to_vec();
        out.extend(
            build
                .out()
                .iter()
                .copied()
                .filter(|&v| ps & singleton(v) == 0),
        );
        Some(PlanNode::HashJoin(HashJoinNode {
            build: Box::new(build),
            probe: Box::new(probe),
            key_vertices,
            out,
        }))
    }

    /// The query-vertex layout of the tuples this node produces.
    pub fn out(&self) -> &[usize] {
        match self {
            PlanNode::Scan(n) => &n.out,
            PlanNode::Extend(n) => &n.out,
            PlanNode::HashJoin(n) => &n.out,
        }
    }

    /// The same tree over another numbering of the query vertices: `map[v]` is the new index of
    /// this tree's query vertex `v`. Descriptors address tuple positions, not query vertices,
    /// so they carry over unchanged. This is how a plan optimized for one query becomes a plan
    /// for an isomorphic query, in that query's own numbering.
    pub fn renumber(&self, map: &[usize]) -> PlanNode {
        let renumbered = |vs: &[usize]| vs.iter().map(|&v| map[v]).collect::<Vec<_>>();
        match self {
            PlanNode::Scan(n) => PlanNode::Scan(ScanNode {
                edge: QueryEdge {
                    src: map[n.edge.src],
                    dst: map[n.edge.dst],
                    label: n.edge.label,
                },
                out: renumbered(&n.out),
            }),
            PlanNode::Extend(n) => PlanNode::Extend(ExtendNode {
                child: Box::new(n.child.renumber(map)),
                descriptors: n.descriptors.clone(),
                target_vertex: map[n.target_vertex],
                target_label: n.target_label,
                out: renumbered(&n.out),
            }),
            PlanNode::HashJoin(n) => PlanNode::HashJoin(HashJoinNode {
                build: Box::new(n.build.renumber(map)),
                probe: Box::new(n.probe.renumber(map)),
                key_vertices: renumbered(&n.key_vertices),
                out: renumbered(&n.out),
            }),
        }
    }

    /// The set of query vertices covered by this node's sub-query.
    pub fn vertex_set(&self) -> VertexSet {
        set_of(self.out())
    }

    /// This node's inputs, in the order reports list them: an E/I's child; a HASH-JOIN's build
    /// side, then its probe side.
    ///
    /// The order also numbers the nodes of a plan: a node's **pre-order id** is its position
    /// in a walk that visits a node and then its inputs in this order, so the root is 0, an
    /// E/I's child is its id + 1, and a HASH-JOIN's probe side starts after the whole build
    /// side. The executor stamps every compiled stage with the id of the node it runs, and
    /// `PROFILE` reads each node's counters back by the same id.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Scan(_) => Vec::new(),
            PlanNode::Extend(n) => vec![&n.child],
            PlanNode::HashJoin(n) => vec![&n.build, &n.probe],
        }
    }

    /// The subtree's nodes indexed by pre-order id (see [`children`](PlanNode::children)).
    pub fn preorder(&self) -> Vec<&PlanNode> {
        let mut nodes = vec![self];
        for child in self.children() {
            nodes.extend(child.preorder());
        }
        nodes
    }

    /// The operator's one-line label in `q`'s vertex names, as `EXPLAIN`, `PROFILE` and
    /// [`Plan::explain`] print it. `chain` is the number of consecutive E/I operators, from
    /// this one down, that run as one operator: 1 for every fixed operator; more for an
    /// adaptive stage, which is labelled with the vertices it binds (bottom first).
    pub fn label(&self, q: &QueryGraph, chain: usize) -> String {
        let name = |v: usize| q.vertex(v).name.as_str();
        match self {
            PlanNode::Scan(n) => format!(
                "SCAN ({})->({}) [label {}]",
                name(n.edge.src),
                name(n.edge.dst),
                n.edge.label.0
            ),
            PlanNode::Extend(n) => {
                let (kind, binds) = if chain > 1 {
                    let mut targets = Vec::with_capacity(chain);
                    let mut node = self;
                    for _ in 0..chain {
                        let PlanNode::Extend(e) = node else { break };
                        targets.push(name(e.target_vertex));
                        node = &e.child;
                    }
                    targets.reverse();
                    ("ADAPTIVE ", format!("{{{}}}", targets.join(", ")))
                } else {
                    let descs: Vec<String> = (n.descriptors.iter())
                        .map(|d| {
                            let v = n.child.out()[d.tuple_idx];
                            format!("{}.{}[{}]", name(v), d.dir, d.edge_label.0)
                        })
                        .collect();
                    let using = descs.join(", ");
                    ("", format!("{} using {{{using}}}", name(n.target_vertex)))
                };
                format!("{kind}EXTEND/INTERSECT -> {binds}")
            }
            PlanNode::HashJoin(n) => {
                let keys: Vec<&str> = n.key_vertices.iter().map(|&v| name(v)).collect();
                format!("HASH-JOIN on [{}]", keys.join(", "))
            }
        }
    }

    /// Number of operators in the subtree.
    pub fn num_operators(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(Self::num_operators)
            .sum::<usize>()
    }

    /// Whether the subtree contains a HASH-JOIN.
    pub fn has_hash_join(&self) -> bool {
        match self {
            PlanNode::Scan(_) => false,
            PlanNode::Extend(n) => n.child.has_hash_join(),
            PlanNode::HashJoin(_) => true,
        }
    }

    /// Whether the subtree contains an E/I operator with two or more descriptors (a genuine
    /// multiway intersection, as opposed to a single-list extension).
    pub fn has_multiway_intersection(&self) -> bool {
        match self {
            PlanNode::Scan(_) => false,
            PlanNode::Extend(n) => n.descriptors.len() >= 2 || n.child.has_multiway_intersection(),
            PlanNode::HashJoin(n) => {
                n.build.has_multiway_intersection() || n.probe.has_multiway_intersection()
            }
        }
    }

    /// Whether the subtree contains a *bushy* join: a HASH-JOIN at least one of whose inputs
    /// itself contains a HASH-JOIN. Linear (left-deep) join trees and pure E/I chains are not
    /// bushy; the DP optimizer enumerates bushy shapes and the differential harness asserts
    /// they execute correctly.
    pub fn has_bushy_join(&self) -> bool {
        match self {
            PlanNode::Scan(_) => false,
            PlanNode::Extend(n) => n.child.has_bushy_join(),
            PlanNode::HashJoin(n) => {
                n.build.has_hash_join()
                    || n.probe.has_hash_join()
                    || n.build.has_bushy_join()
                    || n.probe.has_bushy_join()
            }
        }
    }

    /// Whether the subtree contains any E/I operator at all.
    pub fn has_extend(&self) -> bool {
        match self {
            PlanNode::Scan(_) => false,
            PlanNode::Extend(_) => true,
            PlanNode::HashJoin(n) => n.build.has_extend() || n.probe.has_extend(),
        }
    }

    /// Length of the chain of consecutive E/I operators ending at this node (0 for non-E/I).
    pub fn ei_chain_len(&self) -> usize {
        match self {
            PlanNode::Extend(n) => 1 + n.child.ei_chain_len(),
            _ => 0,
        }
    }

    /// The longest chain of consecutive E/I operators anywhere in the subtree.
    pub fn longest_ei_chain(&self) -> usize {
        match self {
            PlanNode::Scan(_) => 0,
            PlanNode::Extend(_) => {
                let here = self.ei_chain_len();
                here.max(match self {
                    PlanNode::Extend(n) => n.child.longest_ei_chain(),
                    _ => 0,
                })
            }
            PlanNode::HashJoin(n) => n.build.longest_ei_chain().max(n.probe.longest_ei_chain()),
        }
    }

    /// A structural fingerprint used to de-duplicate plans during spectrum enumeration.
    pub fn fingerprint(&self) -> String {
        match self {
            PlanNode::Scan(n) => format!("S({}->{}:{})", n.edge.src, n.edge.dst, n.edge.label.0),
            PlanNode::Extend(n) => {
                let descs: Vec<String> = n
                    .descriptors
                    .iter()
                    .map(|d| format!("{}{}{}", n.child.out()[d.tuple_idx], d.dir, d.edge_label.0))
                    .collect();
                format!(
                    "E({};{}<-[{}])",
                    n.child.fingerprint(),
                    n.target_vertex,
                    descs.join(",")
                )
            }
            PlanNode::HashJoin(n) => {
                format!("J({}|{})", n.build.fingerprint(), n.probe.fingerprint())
            }
        }
    }
}

/// Classification of a plan by the operators it uses (paper Section 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanClass {
    /// Only SCAN and E/I operators (a single chain): a worst-case optimal plan.
    Wco,
    /// Only SCAN and HASH-JOIN operators (plus single-list E/I extensions used as index
    /// nested-loop style extensions are *not* allowed in this class): a binary-join plan.
    BinaryJoin,
    /// Both multiway intersections and hash joins.
    Hybrid,
}

impl fmt::Display for PlanClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanClass::Wco => write!(f, "WCO"),
            PlanClass::BinaryJoin => write!(f, "BJ"),
            PlanClass::Hybrid => write!(f, "Hybrid"),
        }
    }
}

/// A complete plan for a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub query: QueryGraph,
    pub root: PlanNode,
    /// Estimated cost in i-cost units (filled in by the planner that produced the plan).
    pub estimated_cost: f64,
}

impl Plan {
    /// Create a plan, asserting that it covers the whole query.
    pub fn new(query: QueryGraph, root: PlanNode, estimated_cost: f64) -> Plan {
        debug_assert_eq!(
            root.vertex_set(),
            query.full_set(),
            "plan must cover the query"
        );
        Plan {
            query,
            root,
            estimated_cost,
        }
    }

    /// Classify the plan as WCO, BJ or hybrid.
    pub fn class(&self) -> PlanClass {
        let has_join = self.root.has_hash_join();
        let has_multi = self.root.has_multiway_intersection();
        match (has_join, has_multi) {
            (false, _) => PlanClass::Wco,
            (true, false) => PlanClass::BinaryJoin,
            (true, true) => PlanClass::Hybrid,
        }
    }

    /// Whether the `COUNT(*)` fast path applies to this plan: its root operator can count its
    /// results without producing them (`ExecOptions::count_tail` in `graphflow-exec`). An
    /// **E/I root** produces its last column as an (already predicate-filtered) extension set
    /// whose *size* alone is the number of results. A **HASH-JOIN root** builds a counts-only
    /// table — the number of build tuples per join key, no payload columns — and each probe
    /// adds its key's count: the eager aggregation of Yan & Larson (VLDB 1995) applied to the
    /// build side. A counting execution — one whose sink reports `needs_tuples() == false`,
    /// e.g. `RETURN COUNT(*)` — then skips the per-result loop. A scan-only plan produces its
    /// one pair per data edge, so nothing can be skipped for it.
    pub fn count_fast_path_eligible(&self) -> bool {
        !matches!(self.root, PlanNode::Scan(_))
    }

    /// The query-vertex ordering of a WCO plan (None for plans containing hash joins).
    pub fn wco_ordering(&self) -> Option<Vec<usize>> {
        if self.root.has_hash_join() {
            return None;
        }
        Some(self.root.out().to_vec())
    }

    /// Pretty multi-line representation of the operator tree.
    pub fn explain(&self) -> String {
        fn rec(node: &PlanNode, q: &QueryGraph, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            out.push_str(&format!("{pad}{}\n", node.label(q, 1)));
            match node {
                PlanNode::HashJoin(n) => {
                    out.push_str(&format!("{pad}  build:\n"));
                    rec(&n.build, q, indent + 2, out);
                    out.push_str(&format!("{pad}  probe:\n"));
                    rec(&n.probe, q, indent + 2, out);
                }
                _ => {
                    for child in node.children() {
                        rec(child, q, indent + 1, out);
                    }
                }
            }
        }
        let mut s = String::new();
        rec(&self.root, &self.query, 0, &mut s);
        s
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_query::patterns;

    fn wco_plan_for(q: &QueryGraph, sigma: &[usize]) -> PlanNode {
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
    fn wco_plan_structure() {
        let q = patterns::diamond_x();
        let root = wco_plan_for(&q, &[0, 1, 2, 3]);
        assert_eq!(root.vertex_set(), q.full_set());
        assert_eq!(root.num_operators(), 3);
        assert!(!root.has_hash_join());
        assert!(root.has_multiway_intersection());
        assert_eq!(root.longest_ei_chain(), 2);
        let plan = Plan::new(q.clone(), root, 0.0);
        assert_eq!(plan.class(), PlanClass::Wco);
        assert_eq!(plan.wco_ordering(), Some(vec![0, 1, 2, 3]));
        assert!(plan.explain().contains("EXTEND/INTERSECT"));
    }

    #[test]
    fn hybrid_plan_for_diamond_x() {
        // The Figure 1c hybrid plan: two triangles joined on (a2, a3).
        let q = patterns::diamond_x();
        let left = wco_plan_for(&q, &[0, 1, 2]); // triangle a1 a2 a3
        let right = wco_plan_for(&q, &[1, 2, 3]); // triangle a2 a3 a4
        let join = PlanNode::hash_join(&q, left, right).unwrap();
        assert_eq!(join.vertex_set(), q.full_set());
        let plan = Plan::new(q.clone(), join, 0.0);
        assert_eq!(plan.class(), PlanClass::Hybrid);
        assert!(plan.explain().contains("HASH-JOIN"));
        assert_eq!(plan.wco_ordering(), None);
    }

    #[test]
    fn bushy_join_detection() {
        // Linear shapes are not bushy.
        let q = patterns::diamond_x();
        assert!(!wco_plan_for(&q, &[0, 1, 2, 3]).has_bushy_join());
        let tri_join = PlanNode::hash_join(
            &q,
            wco_plan_for(&q, &[0, 1, 2]),
            wco_plan_for(&q, &[1, 2, 3]),
        )
        .unwrap();
        assert!(!tri_join.has_bushy_join());

        // A join of two joins is: on the 5-path, join (scan⋈scan) with (scan⋈scan).
        let p = patterns::directed_path(5);
        let left = PlanNode::hash_join(
            &p,
            PlanNode::scan(p.edges()[0]),
            PlanNode::scan(p.edges()[1]),
        )
        .unwrap();
        let right = PlanNode::hash_join(
            &p,
            PlanNode::scan(p.edges()[2]),
            PlanNode::scan(p.edges()[3]),
        )
        .unwrap();
        let bushy = PlanNode::hash_join(&p, left, right).unwrap();
        assert!(bushy.has_bushy_join());
    }

    #[test]
    fn join_requires_shared_vertices_and_projection_constraint() {
        let q = patterns::diamond_x();
        // Disjoint pieces (edge a1->a2 and edge a3->a4) share nothing: rejected.
        let e1 = PlanNode::scan(q.edges()[0]); // a1->a2
        let e2 = PlanNode::scan(q.edges()[4]); // a3->a4
        assert!(PlanNode::hash_join(&q, e1.clone(), e2.clone()).is_none());

        // Joining edge a1->a2 with edge a2->a4 covers {a1,a2,a4}, which induces only those two
        // edges in Q, so the join is accepted.
        let e3 = PlanNode::scan(q.edges()[3]); // a2->a4
        assert!(PlanNode::hash_join(&q, e1.clone(), e3).is_some());

        // Joining triangle {a1,a2,a3} with edge a2->a4 covers all four vertices but misses the
        // query edge a3->a4: rejected by the projection/union constraint.
        let tri = wco_plan_for(&q, &[0, 1, 2]);
        let e4 = PlanNode::scan(q.edges()[3]);
        assert!(PlanNode::hash_join(&q, tri, e4).is_none());
    }

    #[test]
    fn extend_rejects_cartesian_and_duplicate_targets() {
        let q = patterns::diamond_x();
        let scan = PlanNode::scan(q.edges()[0]); // a1->a2
                                                 // a4 is not adjacent to {a1, a2}? It is adjacent to a2 (a2->a4), so that works;
                                                 // but extending by a1 (already covered) must fail.
        assert!(PlanNode::extend(&q, scan.clone(), 0).is_none());
        // Extending the single edge a1->a3 (covers {a1,a3}) by a4: a4 is adjacent to a3 only.
        let scan13 = PlanNode::scan(q.edges()[1]);
        let ext = PlanNode::extend(&q, scan13, 3).unwrap();
        match &ext {
            PlanNode::Extend(n) => assert_eq!(n.descriptors.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn bj_class_plans_have_no_multiway_intersections() {
        // Q11 (acyclic): a pure binary-join plan via two scans joined on the shared vertex.
        let q = patterns::directed_path(3);
        let s1 = PlanNode::scan(q.edges()[0]);
        let s2 = PlanNode::scan(q.edges()[1]);
        let join = PlanNode::hash_join(&q, s1, s2).unwrap();
        let plan = Plan::new(q, join, 0.0);
        assert_eq!(plan.class(), PlanClass::BinaryJoin);
    }

    #[test]
    fn count_fast_path_eligibility_follows_the_root_operator() {
        let q = patterns::diamond_x();
        let root = wco_plan_for(&q, &[0, 1, 2, 3]);
        assert!(Plan::new(q.clone(), root, 0.0).count_fast_path_eligible());
        // Hash-join roots count through a counts-only table.
        let left = wco_plan_for(&q, &[0, 1, 2]);
        let right = wco_plan_for(&q, &[1, 2, 3]);
        let join = PlanNode::hash_join(&q, left, right).unwrap();
        assert!(Plan::new(q, join, 0.0).count_fast_path_eligible());
        // Scan-only plans emit one pair per data edge: nothing to skip.
        let path = patterns::directed_path(2);
        let scan = PlanNode::scan(path.edges()[0]);
        assert!(!Plan::new(path, scan, 0.0).count_fast_path_eligible());
    }

    #[test]
    fn fingerprints_distinguish_plans() {
        let q = patterns::diamond_x();
        let p1 = wco_plan_for(&q, &[0, 1, 2, 3]);
        let p2 = wco_plan_for(&q, &[1, 2, 0, 3]);
        assert_ne!(p1.fingerprint(), p2.fingerprint());
        assert_eq!(
            p1.fingerprint(),
            wco_plan_for(&q, &[0, 1, 2, 3]).fingerprint()
        );
    }

    #[test]
    fn renumbering_round_trips_and_matches_direct_construction() {
        let q = patterns::diamond_x();
        let hybrid = |q: &QueryGraph, m: &[usize]| {
            let left = wco_plan_for(q, &[m[0], m[1], m[2]]);
            let right = wco_plan_for(q, &[m[1], m[2], m[3]]);
            PlanNode::hash_join(q, left, right).unwrap()
        };
        let identity = [0, 1, 2, 3];
        let map = [2, 0, 3, 1];
        let mut inverse = [0; 4];
        for (v, &w) in map.iter().enumerate() {
            inverse[w] = v;
        }
        for p in [hybrid(&q, &identity), wco_plan_for(&q, &[1, 2, 0, 3])] {
            assert_eq!(p.renumber(&identity), p);
            assert_ne!(p.renumber(&map), p);
            assert_eq!(p.renumber(&map).renumber(&inverse), p);
        }
        // The same diamond with vertex `v` renamed to `map[v]` and its clauses reversed: the
        // plan built for it directly is the renumbered plan, join keys and layouts included.
        let mut twin = QueryGraph::new();
        for _ in 0..4 {
            twin.add_default_vertex();
        }
        for e in q.edges().iter().rev() {
            twin.add_edge(map[e.src], map[e.dst], e.label);
        }
        assert_eq!(hybrid(&q, &identity).renumber(&map), hybrid(&twin, &map));
    }

    #[test]
    fn hash_join_key_and_layout() {
        let q = patterns::diamond_x();
        let left = wco_plan_for(&q, &[0, 1, 2]);
        let right = wco_plan_for(&q, &[1, 2, 3]);
        if let PlanNode::HashJoin(j) = PlanNode::hash_join(&q, left, right).unwrap() {
            assert_eq!(j.key_vertices, vec![1, 2]);
            assert_eq!(j.out, vec![1, 2, 3, 0]);
        } else {
            unreachable!()
        }
    }
}
