//! The [`QueryGraph`] type, property predicates, and vertex-subset utilities.

use crate::returns::{ReturnClause, ReturnExpr, ReturnItem, SortDir};
use graphflow_graph::{EdgeLabel, GraphView, PropValue, VertexId, VertexLabel};
use std::fmt;

/// A set of query vertices, encoded as a bitmask over query-vertex indices.
///
/// Queries in the paper have at most a handful of vertices (Q14, the largest benchmark query,
/// has 7), so a 32-bit mask is plenty; the parser caps patterns at [`MAX_QUERY_VERTICES`]. The
/// planner keys its dynamic-programming table on these sets because every plan node is labelled
/// with a *projection* of the query onto a vertex subset (the projection constraint of Section
/// 4.1).
pub type VertexSet = u32;

/// The most vertices a parsed pattern may have: one bit of a [`VertexSet`] each, with the full
/// set `(1 << n) - 1` still representable.
pub const MAX_QUERY_VERTICES: usize = 31;

/// Iterate the indices contained in a [`VertexSet`], in increasing order.
pub fn set_iter(mut set: VertexSet) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

/// Number of vertices in the set.
#[inline]
pub fn set_len(set: VertexSet) -> usize {
    set.count_ones() as usize
}

/// The set containing the single vertex `i`.
#[inline]
pub fn singleton(i: usize) -> VertexSet {
    1 << i
}

/// The set of the listed vertices.
#[inline]
pub fn set_of(vertices: &[usize]) -> VertexSet {
    vertices.iter().fold(0, |set, &v| set | singleton(v))
}

/// Number of members of `set` below vertex `i`: the position of `i` among the members in
/// increasing order, which is its index in the [projection](QueryGraph::project) onto `set`.
#[inline]
pub fn set_rank(set: VertexSet, i: usize) -> usize {
    set_len(set & (singleton(i) - 1))
}

/// A query vertex: a variable name plus a required vertex label (label 0 = unlabelled).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryVertex {
    /// The variable name the vertex was declared with (`a` in `(a)->(b)`).
    pub name: String,
    /// The required data-vertex label; label 0 means "any".
    pub label: VertexLabel,
}

/// A directed query edge between query-vertex indices, carrying an edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryEdge {
    /// Source query-vertex index.
    pub src: usize,
    /// Destination query-vertex index.
    pub dst: usize,
    /// The required data-edge label; label 0 means "any".
    pub label: EdgeLabel,
}

/// A comparison operator in a `WHERE` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` (also written `==`)
    Eq,
    /// `!=` (also written `<>`)
    Ne,
}

impl CmpOp {
    /// Apply the operator to the result of a three-way comparison.
    #[inline]
    pub fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// Default selectivity assumed by the cost model when no per-column statistics exist:
    /// equality keeps one in ten tuples, inequality keeps a third, `!=` keeps almost all. These
    /// are the classic System-R style magic constants — coarse, but enough to make the
    /// optimizer prefer plans that bind highly filtered vertices early.
    pub fn selectivity(&self) -> f64 {
        match self {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        }
    }

    /// The canonical textual form (what [`QueryGraph`]'s `Display` prints and the parser
    /// accepts).
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// What a predicate filters: a query vertex or a query edge (by index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredTarget {
    /// A query vertex, by index.
    Vertex(usize),
    /// A query edge, by index (the edge must be *named* to be referenced from query text).
    Edge(usize),
}

/// One conjunct of a `WHERE` clause: `<target>.<key> <op> <literal>`.
///
/// Semantics follow SQL-ish three-valued logic collapsed to boolean: a missing property or a
/// type-incomparable pair makes the predicate **false** (the tuple is filtered out).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Predicate {
    /// What the predicate filters: a query vertex or a named query edge.
    pub target: PredTarget,
    /// The property key read on the matched data vertex/edge.
    pub key: String,
    /// The comparison operator.
    pub op: CmpOp,
    /// The typed literal compared against.
    pub value: PropValue,
}

impl Predicate {
    /// Whether every query vertex this predicate touches is inside `set` (i.e. a partial match
    /// over `set` has enough bindings to evaluate it).
    pub fn bound_by(&self, q: &QueryGraph, set: VertexSet) -> bool {
        match self.target {
            PredTarget::Vertex(v) => set & singleton(v) != 0,
            PredTarget::Edge(i) => {
                let e = q.edges()[i];
                set & singleton(e.src) != 0 && set & singleton(e.dst) != 0
            }
        }
    }

    /// Evaluate the predicate against a full assignment (`assignment[query vertex] = data
    /// vertex`). This is the reference (post-filter) semantics the pushdown paths must agree
    /// with; the differential test suite leans on it as the oracle.
    pub fn eval<G: GraphView>(&self, q: &QueryGraph, assignment: &[VertexId], graph: &G) -> bool {
        let actual = match self.target {
            PredTarget::Vertex(v) => graph.vertex_prop(assignment[v], &self.key),
            PredTarget::Edge(i) => {
                let e = q.edges()[i];
                graph.edge_prop(assignment[e.src], assignment[e.dst], e.label, &self.key)
            }
        };
        match actual {
            Some(found) => found
                .compare(&self.value)
                .map(|ord| self.op.eval(ord))
                .unwrap_or(false),
            None => false,
        }
    }
}

/// A directed, labelled query graph.
///
/// Query vertices are referred to by dense indices `0..num_vertices()`; the conventional names
/// `a1, a2, ...` of the paper map to indices `0, 1, ...`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QueryGraph {
    vertices: Vec<QueryVertex>,
    edges: Vec<QueryEdge>,
    /// Optional variable name per edge (parallel to `edges`); named edges can carry
    /// property predicates (`(a)-[e]->(b) WHERE e.weight < 0.5`).
    edge_names: Vec<Option<String>>,
    /// `WHERE` conjuncts, kept in canonical (sorted, de-duplicated) order.
    predicates: Vec<Predicate>,
    /// The `RETURN` clause, if one was declared. Deliberately excluded from the canonical /
    /// exact codes (see [`crate::canonical`]): the clause changes what is *produced*, not
    /// which subgraphs match, so queries differing only here share one cached plan.
    return_clause: Option<ReturnClause>,
}

impl QueryGraph {
    /// An empty query graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a query vertex and return its index.
    pub fn add_vertex(&mut self, name: impl Into<String>, label: VertexLabel) -> usize {
        self.vertices.push(QueryVertex {
            name: name.into(),
            label,
        });
        self.vertices.len() - 1
    }

    /// Add an unlabelled query vertex named `a{index+1}` and return its index.
    pub fn add_default_vertex(&mut self) -> usize {
        let idx = self.vertices.len();
        self.add_vertex(format!("a{}", idx + 1), VertexLabel(0))
    }

    /// Add a directed query edge `src -> dst` with the given label.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or if the edge is a self loop.
    pub fn add_edge(&mut self, src: usize, dst: usize, label: EdgeLabel) {
        assert!(src < self.vertices.len() && dst < self.vertices.len());
        assert_ne!(src, dst, "query graphs have no self loops");
        if !self
            .edges
            .iter()
            .any(|e| e.src == src && e.dst == dst && e.label == label)
        {
            self.edges.push(QueryEdge { src, dst, label });
            self.edge_names.push(None);
        }
    }

    /// Name the edge with index `i` (for predicate references and `Display` round-trips).
    pub fn set_edge_name(&mut self, i: usize, name: impl Into<String>) {
        self.edge_names[i] = Some(name.into());
    }

    /// The variable name of edge `i`, if one was declared.
    pub fn edge_name(&self, i: usize) -> Option<&str> {
        self.edge_names.get(i).and_then(|n| n.as_deref())
    }

    /// Index of the edge with the given variable name, if any.
    pub fn edge_index_by_name(&self, name: &str) -> Option<usize> {
        self.edge_names
            .iter()
            .position(|n| n.as_deref() == Some(name))
    }

    /// Add a `WHERE` conjunct. The predicate list is kept sorted and de-duplicated, so two
    /// queries with the same conjuncts in any order compare (and hash) equal.
    ///
    /// # Panics
    /// Panics if the predicate's target vertex/edge is out of range.
    pub fn add_predicate(&mut self, p: Predicate) {
        match p.target {
            PredTarget::Vertex(v) => assert!(v < self.vertices.len(), "predicate vertex in range"),
            PredTarget::Edge(i) => assert!(i < self.edges.len(), "predicate edge in range"),
        }
        self.predicates.push(p);
        self.predicates.sort();
        self.predicates.dedup();
    }

    /// The `WHERE` conjuncts, in canonical order.
    #[inline]
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Whether the query carries any property predicate.
    #[inline]
    pub fn has_predicates(&self) -> bool {
        !self.predicates.is_empty()
    }

    /// Attach a `RETURN` clause, replacing any previous one.
    ///
    /// # Panics
    /// Panics if an item references a vertex or edge outside the pattern, or an `ORDER BY`
    /// key references a non-existent item.
    pub fn set_return(&mut self, clause: ReturnClause) {
        for item in &clause.items {
            match &item.expr {
                ReturnExpr::Star => {}
                ReturnExpr::Vertex(v) | ReturnExpr::VertexProp(v, _) => {
                    assert!(*v < self.vertices.len(), "return vertex in range");
                }
                ReturnExpr::EdgeProp(e, _) => {
                    assert!(*e < self.edges.len(), "return edge in range");
                }
            }
        }
        for key in &clause.order_by {
            assert!(key.item < clause.items.len(), "ORDER BY key in range");
        }
        self.return_clause = Some(clause);
    }

    /// The `RETURN` clause, if one was declared (`None` means "enumerate full binding
    /// tuples", i.e. the implicit [`ReturnClause::star`]).
    #[inline]
    pub fn return_clause(&self) -> Option<&ReturnClause> {
        self.return_clause.as_ref()
    }

    /// Combined selectivity (product of per-operator defaults) of every predicate fully bound
    /// by `set`. 1.0 when none apply.
    pub fn predicate_selectivity(&self, set: VertexSet) -> f64 {
        self.predicates
            .iter()
            .filter(|p| p.bound_by(self, set))
            .map(|p| p.op.selectivity())
            .product()
    }

    /// Number of query vertices `m`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of query edges `n`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The query vertices.
    #[inline]
    pub fn vertices(&self) -> &[QueryVertex] {
        &self.vertices
    }

    /// The query edges.
    #[inline]
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// The vertex with index `i`.
    #[inline]
    pub fn vertex(&self, i: usize) -> &QueryVertex {
        &self.vertices[i]
    }

    /// Index of the vertex with the given name, if any.
    pub fn vertex_index(&self, name: &str) -> Option<usize> {
        self.vertices.iter().position(|v| v.name == name)
    }

    /// The set of all query vertices as a bitmask.
    #[inline]
    pub fn full_set(&self) -> VertexSet {
        if self.vertices.is_empty() {
            0
        } else {
            (1u32 << self.vertices.len()) - 1
        }
    }

    /// Edges with both endpoints inside `set`.
    pub fn edges_within(&self, set: VertexSet) -> Vec<QueryEdge> {
        self.edges
            .iter()
            .copied()
            .filter(|e| set & singleton(e.src) != 0 && set & singleton(e.dst) != 0)
            .collect()
    }

    /// Edges connecting a vertex inside `set` to `target` (in either direction).
    pub fn edges_between_set_and(&self, set: VertexSet, target: usize) -> Vec<QueryEdge> {
        self.edges
            .iter()
            .copied()
            .filter(|e| {
                (e.src == target && set & singleton(e.dst) != 0)
                    || (e.dst == target && set & singleton(e.src) != 0)
            })
            .collect()
    }

    /// Undirected degree of query vertex `i` (number of incident query edges).
    pub fn degree(&self, i: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| e.src == i || e.dst == i)
            .count()
    }

    /// The undirected neighbours of every query vertex, as one [`VertexSet`] per vertex.
    pub fn neighbour_sets(&self) -> Vec<VertexSet> {
        let mut sets = vec![0; self.vertices.len()];
        for e in &self.edges {
            sets[e.src] |= singleton(e.dst);
            sets[e.dst] |= singleton(e.src);
        }
        sets
    }

    /// Undirected neighbours of query vertex `i`.
    pub fn neighbours(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|e| {
                if e.src == i {
                    Some(e.dst)
                } else if e.dst == i {
                    Some(e.src)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the sub-query induced by `set` is (weakly) connected.
    pub fn is_connected_subset(&self, set: VertexSet) -> bool {
        let set = set & self.full_set();
        if set == 0 {
            return false;
        }
        // Grow the component of the lowest vertex one sweep over the edges at a time.
        let mut visited: VertexSet = set & set.wrapping_neg();
        loop {
            let mut grown = visited;
            for e in &self.edges {
                let (s, d) = (singleton(e.src), singleton(e.dst));
                if (s | d) & set == s | d && (s | d) & grown != 0 {
                    grown |= s | d;
                }
            }
            if grown == visited {
                return visited == set;
            }
            visited = grown;
        }
    }

    /// Whether the whole query is (weakly) connected.
    pub fn is_connected(&self) -> bool {
        self.num_vertices() > 0 && self.is_connected_subset(self.full_set())
    }

    /// Whether the sub-query induced by `set` contains an (undirected) cycle.
    pub fn subset_has_cycle(&self, set: VertexSet) -> bool {
        let verts: Vec<usize> = set_iter(set).collect();
        let edges = self.edges_within(set);
        // An undirected graph has a cycle iff |E| >= |V| for some connected component; simple
        // union-find over the induced edges.
        let mut parent: Vec<usize> = (0..self.num_vertices()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        // Antiparallel pairs (a<->b) and parallel labelled edges count as cycles: any second
        // edge between two already-connected vertices closes one in the undirected multigraph.
        for e in &edges {
            let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
            if a == b {
                return true;
            }
            parent[a] = b;
        }
        let _ = verts;
        false
    }

    /// Whether the whole query contains an undirected cycle.
    pub fn has_cycle(&self) -> bool {
        self.subset_has_cycle(self.full_set())
    }

    /// The *projection* of the query onto `set`: the induced sub-query plus a mapping from new
    /// indices to original indices (sorted ascending).
    ///
    /// Predicates, edge names and vertex **names** are not carried over (projected vertices are
    /// nameless): projections feed the catalogue and canonical sub-query keys, which are about
    /// pattern structure only (the cost model applies predicate selectivity separately through
    /// [`predicate_selectivity`](QueryGraph::predicate_selectivity)).
    pub fn project(&self, set: VertexSet) -> (QueryGraph, Vec<usize>) {
        let mapping: Vec<usize> = set_iter(set & self.full_set()).collect();
        let edges: Vec<QueryEdge> = self
            .edges
            .iter()
            .filter(|e| set & singleton(e.src) != 0 && set & singleton(e.dst) != 0)
            .map(|e| QueryEdge {
                src: set_rank(set, e.src),
                dst: set_rank(set, e.dst),
                label: e.label,
            })
            .collect();
        let q = QueryGraph {
            vertices: mapping
                .iter()
                .map(|&v| QueryVertex {
                    name: String::new(),
                    label: self.vertices[v].label,
                })
                .collect(),
            edge_names: vec![None; edges.len()],
            edges,
            predicates: Vec::new(),
            return_clause: None,
        };
        (q, mapping)
    }

    /// Returns a copy of this query with every edge label replaced by `f(edge index)`.
    pub fn relabel_edges(&self, mut f: impl FnMut(usize) -> EdgeLabel) -> QueryGraph {
        let mut q = self.clone();
        for (i, e) in q.edges.iter_mut().enumerate() {
            e.label = f(i);
        }
        q
    }

    /// Returns a copy of this query with every vertex label replaced by `f(vertex index)`.
    pub fn relabel_vertices(&self, mut f: impl FnMut(usize) -> VertexLabel) -> QueryGraph {
        let mut q = self.clone();
        for (i, v) in q.vertices.iter_mut().enumerate() {
            v.label = f(i);
        }
        q
    }
}

impl QueryGraph {
    /// The name edge `i` renders under: its declared variable name, or a generated `_e{i+1}`
    /// when an unnamed edge carries a predicate (so `Display` output always re-parses).
    fn edge_display_name(&self, i: usize) -> Option<String> {
        if let Some(name) = self.edge_name(i) {
            return Some(name.to_string());
        }
        let referenced = self
            .predicates
            .iter()
            .any(|p| p.target == PredTarget::Edge(i))
            || self
                .return_clause
                .as_ref()
                .is_some_and(|r| r.references_edge(i));
        referenced.then(|| format!("_e{}", i + 1))
    }

    /// The canonical textual form of one `RETURN` item under this query's variable names
    /// (`a`, `b.age`, `COUNT(*)`, `SUM(DISTINCT e.w)`, ...). What `Display` prints and the
    /// parser accepts; also used for result-set column headers.
    pub fn return_item_text(&self, item: &ReturnItem) -> String {
        let operand = match &item.expr {
            ReturnExpr::Star => "*".to_string(),
            ReturnExpr::Vertex(v) => self.vertices[*v].name.clone(),
            ReturnExpr::VertexProp(v, key) => format!("{}.{key}", self.vertices[*v].name),
            ReturnExpr::EdgeProp(e, key) => format!(
                "{}.{key}",
                self.edge_display_name(*e)
                    .expect("edges referenced by RETURN always render a name")
            ),
        };
        match item.agg {
            None => operand,
            Some(f) => {
                let distinct = if item.distinct { "DISTINCT " } else { "" };
                format!("{}({distinct}{operand})", f.name())
            }
        }
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, e) in self.edges.iter().enumerate() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            let sv = &self.vertices[e.src];
            let dv = &self.vertices[e.dst];
            let fmt_v = |v: &QueryVertex| {
                if v.label.0 == 0 {
                    format!("({})", v.name)
                } else {
                    format!("({}:{})", v.name, v.label.0)
                }
            };
            let arrow = match (self.edge_display_name(i), e.label.0) {
                (None, 0) => "->".to_string(),
                (None, l) => format!("-[{l}]->"),
                (Some(n), 0) => format!("-[{n}]->"),
                (Some(n), l) => format!("-[{n}:{l}]->"),
            };
            write!(f, "{}{arrow}{}", fmt_v(sv), fmt_v(dv))?;
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                let var = match p.target {
                    PredTarget::Vertex(v) => self.vertices[v].name.clone(),
                    PredTarget::Edge(e) => self
                        .edge_display_name(e)
                        .expect("edges with predicates always render a name"),
                };
                write!(f, "{var}.{} {} {}", p.key, p.op.symbol(), p.value)?;
            }
        }
        if let Some(r) = &self.return_clause {
            write!(f, " RETURN ")?;
            if r.distinct {
                write!(f, "DISTINCT ")?;
            }
            for (i, item) in r.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.return_item_text(item))?;
            }
            if !r.order_by.is_empty() {
                write!(f, " ORDER BY ")?;
                for (i, key) in r.order_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.return_item_text(&r.items[key.item]))?;
                    if key.dir == SortDir::Desc {
                        write!(f, " DESC")?;
                    }
                }
            }
            if let Some(limit) = r.limit {
                write!(f, " LIMIT {limit}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> QueryGraph {
        // a1->a2, a1->a3, a2->a3, a2->a4, a3->a4 (diamond-X)
        let mut q = QueryGraph::new();
        for _ in 0..4 {
            q.add_default_vertex();
        }
        q.add_edge(0, 1, EdgeLabel(0));
        q.add_edge(0, 2, EdgeLabel(0));
        q.add_edge(1, 2, EdgeLabel(0));
        q.add_edge(1, 3, EdgeLabel(0));
        q.add_edge(2, 3, EdgeLabel(0));
        q
    }

    #[test]
    fn basic_accessors() {
        let q = diamond();
        assert_eq!(q.num_vertices(), 4);
        assert_eq!(q.num_edges(), 5);
        assert_eq!(q.vertex(0).name, "a1");
        assert_eq!(q.vertex_index("a3"), Some(2));
        assert_eq!(q.vertex_index("zzz"), None);
        assert_eq!(q.degree(1), 3);
        assert_eq!(q.neighbours(1), vec![0, 2, 3]);
        assert_eq!(q.full_set(), 0b1111);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut q = diamond();
        q.add_edge(0, 1, EdgeLabel(0));
        assert_eq!(q.num_edges(), 5);
    }

    #[test]
    fn connectivity_and_cycles() {
        let q = diamond();
        assert!(q.is_connected());
        assert!(q.has_cycle());
        assert!(q.is_connected_subset(0b0111));
        // {a1, a4} is disconnected (no edge a1-a4).
        assert!(!q.is_connected_subset(0b1001));
        // {a1, a2} is acyclic.
        assert!(!q.subset_has_cycle(0b0011));
        // {a1, a2, a3} is the triangle.
        assert!(q.subset_has_cycle(0b0111));
    }

    #[test]
    fn antiparallel_pair_is_a_cycle() {
        let mut q = QueryGraph::new();
        q.add_default_vertex();
        q.add_default_vertex();
        q.add_edge(0, 1, EdgeLabel(0));
        assert!(!q.has_cycle());
        q.add_edge(1, 0, EdgeLabel(0));
        assert!(q.has_cycle());
    }

    #[test]
    fn projection_keeps_induced_edges() {
        let q = diamond();
        let (sub, mapping) = q.project(0b0111);
        assert_eq!(mapping, vec![0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // the triangle
        let (sub2, mapping2) = q.project(0b1010);
        assert_eq!(mapping2, vec![1, 3]);
        assert_eq!(sub2.num_edges(), 1);
    }

    #[test]
    fn edges_between_set_and_target() {
        let q = diamond();
        let edges = q.edges_between_set_and(0b0110, 3); // {a2,a3} -> a4
        assert_eq!(edges.len(), 2);
        let edges = q.edges_between_set_and(0b0001, 3); // {a1} -> a4 : none
        assert!(edges.is_empty());
    }

    #[test]
    fn display_round_trip_simple() {
        let q = diamond();
        let s = q.to_string();
        assert!(s.contains("(a1)->(a2)"));
        assert!(s.contains("(a3)->(a4)"));
    }

    #[test]
    fn set_utils() {
        assert_eq!(set_len(0b1011), 3);
        assert_eq!(set_iter(0b1010).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(singleton(4), 16);
    }

    #[test]
    fn relabelling() {
        let q = diamond();
        let q2 = q.relabel_edges(|i| EdgeLabel((i % 2) as u16));
        assert_eq!(q2.edges()[0].label, EdgeLabel(0));
        assert_eq!(q2.edges()[1].label, EdgeLabel(1));
        let q3 = q.relabel_vertices(|i| VertexLabel(i as u16));
        assert_eq!(q3.vertex(3).label, VertexLabel(3));
    }
}
