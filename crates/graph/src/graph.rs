//! The in-memory graph: label-partitioned, sorted, CSR-style adjacency lists in both directions.
//!
//! Besides the frozen CSR ([`Graph`]), this module defines the [`GraphView`] abstraction that
//! the executors and the catalogue matcher run against. `GraphView` is implemented both by
//! `Graph` itself (every access resolves to a borrowed CSR slice — the static fast path) and by
//! [`Snapshot`](crate::delta::Snapshot) (CSR + delta overlay), so the same monomorphised
//! execution code serves frozen and dynamic graphs without a dispatch cost on the frozen path.

use crate::ids::{Direction, EdgeLabel, VertexId, VertexLabel};
use crate::props::{PropValue, PropertyStore};
use std::borrow::Cow;

/// One `(edge label, neighbour label)` partition of a vertex's adjacency list.
///
/// The paper's storage (Section 7) partitions adjacency lists "by the edge labels ... and further
/// by the labels of the destination vertices", so that label filters are applied by slicing
/// rather than scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Partition {
    pub edge_label: EdgeLabel,
    pub nbr_label: VertexLabel,
    /// Absolute start offset into [`Adjacency::nbrs`].
    pub start: u32,
    /// Number of neighbours in the partition.
    pub len: u32,
}

/// A single-direction adjacency index (forward or backward) for the whole graph.
///
/// Layout: a CSR over partitions. For each vertex `v`, `part_offsets[v]..part_offsets[v+1]`
/// indexes into `parts`, where each `Partition` names an `(edge label, neighbour label)` pair
/// and a contiguous, id-sorted range of `nbrs`.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    pub(crate) part_offsets: Vec<u32>,
    pub(crate) parts: Vec<Partition>,
    pub(crate) nbrs: Vec<VertexId>,
    /// `vertex_offsets[v]..vertex_offsets[v+1]` spans all of `v`'s neighbours across partitions.
    pub(crate) vertex_offsets: Vec<u32>,
}

impl Adjacency {
    /// The sorted neighbour slice of `v` restricted to edge label `el` and neighbour label `nl`.
    ///
    /// Returns an empty slice when the vertex has no such partition.
    #[inline]
    pub fn list(&self, v: VertexId, el: EdgeLabel, nl: VertexLabel) -> &[VertexId] {
        let lo = self.part_offsets[v as usize] as usize;
        let hi = self.part_offsets[v as usize + 1] as usize;
        let parts = &self.parts[lo..hi];
        // Partitions per vertex are few (|edge labels| x |vertex labels|, usually 1); a linear
        // scan is faster than binary search for the common case and never wrong.
        for p in parts {
            if p.edge_label == el && p.nbr_label == nl {
                let s = p.start as usize;
                return &self.nbrs[s..s + p.len as usize];
            }
        }
        &[]
    }

    /// All neighbours of `v` regardless of labels. Sorted only within each partition.
    #[inline]
    pub fn all(&self, v: VertexId) -> &[VertexId] {
        let s = self.vertex_offsets[v as usize] as usize;
        let e = self.vertex_offsets[v as usize + 1] as usize;
        &self.nbrs[s..e]
    }

    /// Degree of `v` for a specific `(edge label, neighbour label)` partition.
    #[inline]
    pub fn degree(&self, v: VertexId, el: EdgeLabel, nl: VertexLabel) -> usize {
        self.list(v, el, nl).len()
    }

    /// Total degree of `v` across all partitions.
    #[inline]
    pub fn total_degree(&self, v: VertexId) -> usize {
        (self.vertex_offsets[v as usize + 1] - self.vertex_offsets[v as usize]) as usize
    }

    /// Iterate `(edge label, neighbour label, neighbours)` partitions of `v`.
    pub fn partitions(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (EdgeLabel, VertexLabel, &[VertexId])> + '_ {
        let lo = self.part_offsets[v as usize] as usize;
        let hi = self.part_offsets[v as usize + 1] as usize;
        self.parts[lo..hi].iter().map(move |p| {
            let s = p.start as usize;
            (p.edge_label, p.nbr_label, &self.nbrs[s..s + p.len as usize])
        })
    }

    /// Total number of stored directed neighbour entries.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.nbrs.len()
    }
}

/// An immutable, in-memory directed labelled graph.
///
/// Construct one with [`crate::GraphBuilder`]. Both a forward and a backward adjacency index are
/// materialised because worst-case optimal plans intersect lists of either direction depending on
/// the query vertex ordering (paper Section 3.2.1).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub(crate) vertex_labels: Vec<VertexLabel>,
    pub(crate) fwd: Adjacency,
    pub(crate) bwd: Adjacency,
    pub(crate) num_edges: usize,
    pub(crate) num_vertex_labels: u16,
    pub(crate) num_edge_labels: u16,
    /// All edges as `(src, dst, edge label)` in insertion-independent sorted order; used by SCAN.
    pub(crate) edges: Vec<(VertexId, VertexId, EdgeLabel)>,
    /// `edge_label_ranges[l] = (start, end)` range into `edges` holding label `l` (edges are
    /// sorted by label first), enabling label-filtered scans without a pass over all edges.
    pub(crate) edge_label_ranges: Vec<(u32, u32)>,
    /// Typed vertex/edge property columns (see [`crate::props`]).
    pub(crate) props: PropertyStore,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of distinct vertex labels (at least 1).
    #[inline]
    pub fn num_vertex_labels(&self) -> u16 {
        self.num_vertex_labels
    }

    /// Number of distinct edge labels (at least 1).
    #[inline]
    pub fn num_edge_labels(&self) -> u16 {
        self.num_edge_labels
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> VertexLabel {
        self.vertex_labels[v as usize]
    }

    /// The adjacency index in the given direction.
    #[inline]
    pub fn adj(&self, dir: Direction) -> &Adjacency {
        match dir {
            Direction::Fwd => &self.fwd,
            Direction::Bwd => &self.bwd,
        }
    }

    /// Sorted neighbour slice of `v` in direction `dir`, restricted to the given labels.
    #[inline]
    pub fn neighbours(
        &self,
        v: VertexId,
        dir: Direction,
        el: EdgeLabel,
        nl: VertexLabel,
    ) -> &[VertexId] {
        self.adj(dir).list(v, el, nl)
    }

    /// Out-neighbours of `v` with the given labels.
    #[inline]
    pub fn out_neighbours(&self, v: VertexId, el: EdgeLabel, nl: VertexLabel) -> &[VertexId] {
        self.fwd.list(v, el, nl)
    }

    /// In-neighbours of `v` with the given labels.
    #[inline]
    pub fn in_neighbours(&self, v: VertexId, el: EdgeLabel, nl: VertexLabel) -> &[VertexId] {
        self.bwd.list(v, el, nl)
    }

    /// Out-degree of `v` across all labels.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.fwd.total_degree(v)
    }

    /// In-degree of `v` across all labels.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.bwd.total_degree(v)
    }

    /// Whether the directed edge `u -> v` with edge label `el` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId, el: EdgeLabel) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        let nl = self.vertex_label(v);
        self.fwd.list(u, el, nl).binary_search(&v).is_ok()
    }

    /// All edges `(src, dst, label)` sorted by `(label, src, dst)`.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId, EdgeLabel)] {
        &self.edges
    }

    /// The slice of edges carrying edge label `el` (empty if the label is unused).
    pub fn edges_with_label(&self, el: EdgeLabel) -> &[(VertexId, VertexId, EdgeLabel)] {
        match self.edge_label_ranges.get(el.0 as usize) {
            Some(&(s, e)) => &self.edges[s as usize..e as usize],
            None => &[],
        }
    }

    /// The typed property columns of this graph.
    pub fn properties(&self) -> &PropertyStore {
        &self.props
    }

    /// The value of property `key` on vertex `v`, if set.
    pub fn vertex_prop(&self, v: VertexId, key: &str) -> Option<PropValue> {
        self.props.vertex(v, key)
    }

    /// The value of property `key` on the edge `src -> dst` with label `el`, if set.
    pub fn edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
    ) -> Option<PropValue> {
        self.props.edge((src, dst, el), key)
    }

    /// Vertices carrying the given label.
    pub fn vertices_with_label(&self, vl: VertexLabel) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_labels
            .iter()
            .enumerate()
            .filter(move |(_, &l)| l == vl)
            .map(|(i, _)| i as VertexId)
    }

    /// Approximate number of bytes held by this graph's storage structures (both adjacency
    /// indexes, vertex labels and the sorted edge array), mirroring
    /// `Catalogue::memory_footprint_bytes` so capacity planning covers both structures.
    pub fn memory_bytes(&self) -> usize {
        let adj = |a: &Adjacency| {
            a.nbrs.len() * std::mem::size_of::<VertexId>()
                + a.parts.len() * std::mem::size_of::<Partition>()
                + a.part_offsets.len() * 4
                + a.vertex_offsets.len() * 4
        };
        adj(&self.fwd)
            + adj(&self.bwd)
            + self.vertex_labels.len() * 2
            + self.edges.len() * std::mem::size_of::<(VertexId, VertexId, EdgeLabel)>()
            + self.props.memory_bytes()
    }

    /// Rough number of bytes of the adjacency structures (used in catalogue size reports).
    /// Alias of [`Graph::memory_bytes`].
    pub fn memory_footprint_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Validate internal invariants (sortedness, symmetry of fwd/bwd, counts). Used by tests and
    /// debug assertions; returns a human-readable description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.fwd.num_entries() != self.num_edges || self.bwd.num_entries() != self.num_edges {
            return Err(format!(
                "edge count mismatch: fwd={} bwd={} edges={}",
                self.fwd.num_entries(),
                self.bwd.num_entries(),
                self.num_edges
            ));
        }
        for dir in Direction::BOTH {
            let adj = self.adj(dir);
            for v in 0..self.num_vertices() as VertexId {
                for (el, nl, list) in adj.partitions(v) {
                    if !list.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!(
                            "{dir} partition of v{v} ({el},{nl}) is not strictly sorted"
                        ));
                    }
                    for &w in list {
                        if self.vertex_label(w) != nl {
                            return Err(format!(
                                "{dir} partition of v{v} labelled {nl} contains v{w} with label {}",
                                self.vertex_label(w)
                            ));
                        }
                        // Symmetry: the reverse adjacency must contain the mirror entry.
                        let rev = self.adj(dir.reverse());
                        let mirror = rev.list(w, el, self.vertex_label(v));
                        if mirror.binary_search(&v).is_err() {
                            return Err(format!(
                                "missing mirror entry for edge involving v{v} and v{w} ({el})"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A neighbour list handed out by a [`GraphView`]: always a borrowed slice — no copy, no
/// allocation — of either a CSR partition or, for a partition with pending updates, the merged
/// list the delta overlay keeps for it (the writer merged it, once per update; see
/// [`Snapshot`](crate::delta::Snapshot)).
///
/// Dereferences to `&[VertexId]`, always sorted and duplicate-free.
#[derive(Debug, Clone, Copy)]
pub struct NbrList<'a> {
    nbrs: &'a [VertexId],
    from_overlay: bool,
}

impl<'a> NbrList<'a> {
    /// A slice borrowed directly from the CSR (or an empty slice).
    #[inline]
    pub fn csr(nbrs: &'a [VertexId]) -> Self {
        NbrList {
            nbrs,
            from_overlay: false,
        }
    }

    /// A merged list borrowed from the delta overlay.
    #[inline]
    pub fn overlay(nbrs: &'a [VertexId]) -> Self {
        NbrList {
            nbrs,
            from_overlay: true,
        }
    }

    /// The neighbours as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [VertexId] {
        self.nbrs
    }

    /// Whether the delta overlay served this list instead of the CSR (runtime statistics
    /// count these as `delta_merges`).
    #[inline]
    pub fn is_overlay(&self) -> bool {
        self.from_overlay
    }
}

impl std::ops::Deref for NbrList<'_> {
    type Target = [VertexId];

    #[inline]
    fn deref(&self) -> &[VertexId] {
        self.nbrs
    }
}

/// A read view of a directed labelled graph that execution runs against.
///
/// Implemented by [`Graph`] (every method resolves to a borrowed CSR slice; the compiler
/// monomorphises executors against it, so static workloads pay nothing for the abstraction) and
/// by [`Snapshot`](crate::delta::Snapshot) (CSR base + frozen delta epoch; a touched partition
/// resolves to the merged list the epoch holds for it, every other one to its CSR slice).
pub trait GraphView: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Number of distinct vertex labels (at least 1).
    fn num_vertex_labels(&self) -> u16;

    /// Number of distinct edge labels (at least 1).
    fn num_edge_labels(&self) -> u16;

    /// The label of vertex `v`.
    fn vertex_label(&self, v: VertexId) -> VertexLabel;

    /// The sorted neighbours of `v` in direction `dir` restricted to the given labels.
    fn nbrs(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> NbrList<'_>;

    /// Size of the `(dir, el, nl)` adjacency partition of `v` (the adaptive executor re-costs
    /// orderings with this).
    fn degree(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> usize;

    /// Whether the directed edge `u -> v` with edge label `el` exists.
    fn has_edge(&self, u: VertexId, v: VertexId, el: EdgeLabel) -> bool;

    /// The edges carrying label `el`, sorted by `(src, dst)` — the driver SCAN's input.
    /// Borrowed from the CSR when no deltas are pending for the label.
    fn scan_edges(&self, el: EdgeLabel) -> Cow<'_, [(VertexId, VertexId, EdgeLabel)]>;

    /// The value of property `key` on vertex `v`, if set (predicate pushdown reads this).
    fn vertex_prop(&self, v: VertexId, key: &str) -> Option<PropValue>;

    /// The value of property `key` on the edge `src -> dst` with label `el`, if set.
    fn edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
    ) -> Option<PropValue>;
}

impl GraphView for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    #[inline]
    fn num_vertex_labels(&self) -> u16 {
        Graph::num_vertex_labels(self)
    }

    #[inline]
    fn num_edge_labels(&self) -> u16 {
        Graph::num_edge_labels(self)
    }

    #[inline]
    fn vertex_label(&self, v: VertexId) -> VertexLabel {
        Graph::vertex_label(self, v)
    }

    #[inline]
    fn nbrs(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> NbrList<'_> {
        NbrList::csr(self.adj(dir).list(v, el, nl))
    }

    #[inline]
    fn degree(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> usize {
        self.adj(dir).degree(v, el, nl)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId, el: EdgeLabel) -> bool {
        Graph::has_edge(self, u, v, el)
    }

    #[inline]
    fn scan_edges(&self, el: EdgeLabel) -> Cow<'_, [(VertexId, VertexId, EdgeLabel)]> {
        Cow::Borrowed(self.edges_with_label(el))
    }

    #[inline]
    fn vertex_prop(&self, v: VertexId, key: &str) -> Option<PropValue> {
        Graph::vertex_prop(self, v, key)
    }

    #[inline]
    fn edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
    ) -> Option<PropValue> {
        Graph::edge_prop(self, src, dst, el, key)
    }
}

/// Shared-ownership handles view the same graph (lets call sites pass `&Arc<Graph>` or
/// `&Snapshot` clones to the generic executors without re-borrowing).
impl<G: GraphView + Send> GraphView for std::sync::Arc<G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn num_vertex_labels(&self) -> u16 {
        (**self).num_vertex_labels()
    }

    #[inline]
    fn num_edge_labels(&self) -> u16 {
        (**self).num_edge_labels()
    }

    #[inline]
    fn vertex_label(&self, v: VertexId) -> VertexLabel {
        (**self).vertex_label(v)
    }

    #[inline]
    fn nbrs(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> NbrList<'_> {
        (**self).nbrs(v, dir, el, nl)
    }

    #[inline]
    fn degree(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> usize {
        (**self).degree(v, dir, el, nl)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId, el: EdgeLabel) -> bool {
        (**self).has_edge(u, v, el)
    }

    #[inline]
    fn scan_edges(&self, el: EdgeLabel) -> Cow<'_, [(VertexId, VertexId, EdgeLabel)]> {
        (**self).scan_edges(el)
    }

    #[inline]
    fn vertex_prop(&self, v: VertexId, key: &str) -> Option<PropValue> {
        (**self).vertex_prop(v, key)
    }

    #[inline]
    fn edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
    ) -> Option<PropValue> {
        (**self).edge_prop(src, dst, el, key)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::{Direction, EdgeLabel, VertexLabel};

    fn triangle() -> super::Graph {
        // 0 -> 1, 1 -> 2, 0 -> 2 (asymmetric triangle)
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertex_labels(), 1);
        assert_eq!(g.num_edge_labels(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn adjacency_lookup() {
        let g = triangle();
        let el = EdgeLabel(0);
        let vl = VertexLabel(0);
        assert_eq!(g.out_neighbours(0, el, vl), &[1, 2]);
        assert_eq!(g.out_neighbours(1, el, vl), &[2]);
        assert_eq!(g.out_neighbours(2, el, vl), &[] as &[u32]);
        assert_eq!(g.in_neighbours(2, el, vl), &[0, 1]);
        assert_eq!(g.in_neighbours(0, el, vl), &[] as &[u32]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
    }

    #[test]
    fn has_edge_and_scan() {
        let g = triangle();
        assert!(g.has_edge(0, 1, EdgeLabel(0)));
        assert!(!g.has_edge(1, 0, EdgeLabel(0)));
        assert!(!g.has_edge(2, 2, EdgeLabel(0)));
        assert_eq!(g.edges().len(), 3);
        assert_eq!(g.edges_with_label(EdgeLabel(0)).len(), 3);
        assert_eq!(g.edges_with_label(EdgeLabel(5)).len(), 0);
    }

    #[test]
    fn neighbours_by_direction() {
        let g = triangle();
        assert_eq!(
            g.neighbours(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0)),
            &[1, 2]
        );
        assert_eq!(
            g.neighbours(0, Direction::Bwd, EdgeLabel(0), VertexLabel(0)),
            &[] as &[u32]
        );
    }

    #[test]
    fn memory_footprint_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
        assert_eq!(g.memory_footprint_bytes(), g.memory_bytes());
    }

    #[test]
    fn graph_view_on_csr_always_borrows() {
        use crate::graph::GraphView;
        let g = triangle();
        let l = g.nbrs(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0));
        assert!(!l.is_overlay());
        assert_eq!(&*l, &[1, 2]);
        assert_eq!(g.degree(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0)), 2);
        assert!(matches!(
            g.scan_edges(EdgeLabel(0)),
            std::borrow::Cow::Borrowed(_)
        ));
        assert!(GraphView::has_edge(&g, 0, 1, EdgeLabel(0)));
    }
}
