//! The dynamic-graph subsystem: a delta store layered over the frozen CSR, and snapshots.
//!
//! The paper's Graphflow is an *active* graph database, but a CSR with sorted, label-partitioned
//! adjacency lists ([`Graph`]) cannot be mutated in place without losing its fast paths. This
//! module adds writes without giving them up:
//!
//! * [`DeltaStore`] holds, per touched vertex and direction, the **already-merged, sorted
//!   neighbour list of every touched `(edge label, neighbour label)` partition** — mirroring the
//!   CSR [`Partition`](crate::graph) scheme — plus the inserted/deleted edge sets in SCAN order
//!   (the edge-level truth behind `has_edge`, `scan_edges`, counts and compaction) and the
//!   labels of vertices appended beyond the base CSR.
//! * [`Snapshot`] pairs an `Arc<Graph>` base with an `Arc<DeltaStore>` epoch. Cloning a snapshot
//!   is two reference-count bumps; mutating one goes through [`Arc::make_mut`], so a mutation
//!   never touches data reachable from previously handed-out clones — in-flight queries are
//!   isolated from concurrent updates by construction. The copy is **per vertex**: the store
//!   shares each vertex's merged lists with older epochs through an `Arc`, and an update copies
//!   only the lists of the two vertices it touches.
//! * [`Snapshot`] implements [`GraphView`], so all executors run against it unchanged, and every
//!   neighbour list it hands out is a borrowed slice: the CSR partition for an untouched one,
//!   the overlay's merged list for a touched one. The writer pays for the merge (`O(degree)`
//!   per update: copy the partition on first touch, a sorted insert or remove after that); a
//!   reader pays nothing.
//!
//! [`Snapshot::rebuild`] folds the deltas back into a fresh CSR (compaction); the result is
//! observationally identical to the snapshot it came from.
//!
//! # Epoch publication
//!
//! A snapshot **is** an epoch: an immutable `(base, delta, version)` triple. A concurrent
//! database (the `graphflow-core` facade) publishes writes by *swapping a snapshot value in a
//! shared slot* — readers clone the slot (two `Arc` bumps) and then run entirely lock-free,
//! while a writer stages its updates on a private clone and installs it with one store. The
//! copy-on-write mutation methods below are what make that protocol safe: a staged mutation
//! can never reach memory an already-published clone observes, so the swap is the *only*
//! point where readers transition between epochs — they see all of a staged batch or none of
//! it. [`Snapshot::same_epoch`] tests whether two snapshots observe one published epoch.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphView, NbrList};
use crate::ids::{Direction, EdgeLabel, VertexId, VertexLabel};
use crate::props::{EdgeKey, PropError, PropType, PropValue, PropertyStore};
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A single graph mutation, applied through [`Snapshot::apply_update`] or the batch APIs of the
/// `graphflow-core` facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Append a new vertex carrying `label`; its id is the current vertex count.
    InsertVertex { label: VertexLabel },
    /// Insert the directed edge `src -> dst` with edge label `label`. Unknown endpoints are
    /// created on demand with the default vertex label. Inserting an existing edge is a no-op.
    InsertEdge {
        src: VertexId,
        dst: VertexId,
        label: EdgeLabel,
    },
    /// Delete the directed edge `src -> dst` with edge label `label`. Deleting a missing edge
    /// is a no-op.
    DeleteEdge {
        src: VertexId,
        dst: VertexId,
        label: EdgeLabel,
    },
    /// Set the typed property `key = value` on vertex `v`. A no-op when the vertex does not
    /// exist or the value's type conflicts with the column's type.
    SetVertexProp {
        v: VertexId,
        key: String,
        value: PropValue,
    },
    /// Set the typed property `key = value` on the edge `src -> dst` carrying `label`. A no-op
    /// when the edge does not exist or the value's type conflicts with the column's type.
    SetEdgeProp {
        src: VertexId,
        dst: VertexId,
        label: EdgeLabel,
        key: String,
        value: PropValue,
    },
}

/// One touched `(edge label, neighbour label)` partition of a vertex's adjacency list, held
/// already merged: the CSR partition with its pending inserts and deletes applied, sorted by
/// neighbour id. Never equal to the CSR partition — one that returns to it is dropped.
#[derive(Debug, Clone)]
struct OverlayPartition {
    edge_label: EdgeLabel,
    nbr_label: VertexLabel,
    nbrs: Vec<VertexId>,
}

/// The touched partitions of one vertex in one direction. Partitions are few (as in the CSR),
/// so a linear scan beats a map.
#[derive(Debug, Clone, Default)]
struct VertexOverlay {
    parts: Vec<OverlayPartition>,
}

impl VertexOverlay {
    fn position(&self, el: EdgeLabel, nl: VertexLabel) -> Option<usize> {
        self.parts
            .iter()
            .position(|p| p.edge_label == el && p.nbr_label == nl)
    }
}

/// The per-vertex overlays of one direction, each shared with older epochs until written.
type Overlays = FxHashMap<VertexId, Arc<VertexOverlay>>;

/// The `(dir, el, nl)` partition of `v` in the base CSR (empty for a vertex appended past it).
fn csr_list(
    base: &Graph,
    v: VertexId,
    dir: Direction,
    el: EdgeLabel,
    nl: VertexLabel,
) -> &[VertexId] {
    if (v as usize) < base.num_vertices() {
        base.adj(dir).list(v, el, nl)
    } else {
        &[]
    }
}

/// The pending mutations of one snapshot epoch, layered over a base CSR.
///
/// Invariants (maintained by [`Snapshot`]'s mutation methods): inserted edges are absent from
/// the base, deleted edges are present in it, and no edge is in both sets; every overlay
/// partition is strictly sorted and equals its CSR partition minus the deleted plus the
/// inserted edges that fall into it. Cloning copies the edge sets and property maps but only
/// bumps a reference count per touched vertex.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    /// Labels of vertices appended beyond the base CSR (vertex `base_n + i` has label `[i]`).
    new_vertex_labels: Vec<VertexLabel>,
    /// Forward (out-neighbour) overlays of touched vertices.
    fwd: Overlays,
    /// Backward (in-neighbour) overlays of touched vertices.
    bwd: Overlays,
    /// Inserted edges in SCAN order `(label, src, dst)`.
    inserted_edges: BTreeSet<(EdgeLabel, VertexId, VertexId)>,
    /// Deleted edges in SCAN order `(label, src, dst)`.
    deleted_edges: BTreeSet<(EdgeLabel, VertexId, VertexId)>,
    /// Largest vertex label carried by a new vertex (0 when none). Monotone is correct here:
    /// vertices are never removed, so the maximum can only grow.
    max_vertex_label: u16,
    /// Pending vertex-property writes: per column, its type and the overridden slots.
    vertex_props: FxHashMap<String, (PropType, FxHashMap<VertexId, PropValue>)>,
    /// Pending edge-property writes: `Some(value)` overrides, `None` tombstones a base value
    /// (set when the carrying edge is deleted).
    edge_props: FxHashMap<String, (PropType, FxHashMap<EdgeKey, Option<PropValue>>)>,
}

impl DeltaStore {
    /// Whether nothing is pending (the snapshot is observationally the base CSR).
    pub fn is_empty(&self) -> bool {
        self.new_vertex_labels.is_empty()
            && self.inserted_edges.is_empty()
            && self.deleted_edges.is_empty()
            && self.vertex_props.is_empty()
            && self.edge_props.is_empty()
    }

    /// Number of pending property writes (vertex and edge overrides plus tombstones).
    pub fn num_prop_overrides(&self) -> usize {
        self.vertex_props
            .values()
            .map(|(_, m)| m.len())
            .sum::<usize>()
            + self
                .edge_props
                .values()
                .map(|(_, m)| m.len())
                .sum::<usize>()
    }

    /// Number of pending edge insertions.
    pub fn num_inserted_edges(&self) -> usize {
        self.inserted_edges.len()
    }

    /// Number of pending edge deletions.
    pub fn num_deleted_edges(&self) -> usize {
        self.deleted_edges.len()
    }

    /// Number of vertices appended beyond the base CSR.
    pub fn num_new_vertices(&self) -> usize {
        self.new_vertex_labels.len()
    }

    /// Total overlay entries (inserted + deleted edges) — the compaction-pressure measure.
    pub fn overlay_edges(&self) -> usize {
        self.inserted_edges.len() + self.deleted_edges.len()
    }

    /// Largest edge label carried by a *currently pending* insert. Derived from the sorted
    /// insert set (its last element) rather than a running maximum, so cancelling the only
    /// insert with a high label does not leave the label space over-reported.
    fn max_inserted_edge_label(&self) -> Option<u16> {
        self.inserted_edges.iter().next_back().map(|&(l, _, _)| l.0)
    }

    /// Approximate in-memory size of the overlay structures, in bytes: the merged neighbour
    /// lists the read path borrows, the edge sets and the property overrides. An overlay shared
    /// with another epoch is counted in full by each.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let overlay = |m: &Overlays| -> usize {
            // Map slot + the `Arc`'s two counters + the overlay, then what it points to.
            m.capacity() * size_of::<(VertexId, Arc<VertexOverlay>)>()
                + m.values()
                    .map(|o| {
                        2 * size_of::<usize>()
                            + size_of::<VertexOverlay>()
                            + o.parts.capacity() * size_of::<OverlayPartition>()
                            + o.parts
                                .iter()
                                .map(|p| p.nbrs.capacity() * size_of::<VertexId>())
                                .sum::<usize>()
                    })
                    .sum::<usize>()
        };
        let props = self
            .vertex_props
            .values()
            .map(|(_, m)| m.len() * (size_of::<VertexId>() + size_of::<PropValue>()))
            .sum::<usize>()
            + self
                .edge_props
                .values()
                .map(|(_, m)| m.len() * (size_of::<EdgeKey>() + size_of::<Option<PropValue>>()))
                .sum::<usize>();
        overlay(&self.fwd)
            + overlay(&self.bwd)
            + (self.inserted_edges.len() + self.deleted_edges.len()) * 12
            + self.new_vertex_labels.len() * 2
            + props
    }

    fn adj(&self, dir: Direction) -> &Overlays {
        match dir {
            Direction::Fwd => &self.fwd,
            Direction::Bwd => &self.bwd,
        }
    }

    fn adj_mut(&mut self, dir: Direction) -> &mut Overlays {
        match dir {
            Direction::Fwd => &mut self.fwd,
            Direction::Bwd => &mut self.bwd,
        }
    }

    /// Whether any pending insert or delete carries edge label `el`.
    fn touches_label(&self, el: EdgeLabel) -> bool {
        let range = (el, 0, 0)..=(el, VertexId::MAX, VertexId::MAX);
        self.inserted_edges.range(range.clone()).next().is_some()
            || self.deleted_edges.range(range).next().is_some()
    }

    /// The merged `(dir, el, nl)` list of `v`, if that partition was touched.
    fn part(
        &self,
        v: VertexId,
        dir: Direction,
        el: EdgeLabel,
        nl: VertexLabel,
    ) -> Option<&[VertexId]> {
        let overlay = self.adj(dir).get(&v)?;
        Some(&overlay.parts[overlay.position(el, nl)?].nbrs)
    }

    /// Record the insertion (`insert`) or deletion of the edge `src -> dst` in the edge sets
    /// and apply it to the merged lists of both endpoints; the caller has checked that the
    /// edge is absent, or present.
    ///
    /// An update that undoes a pending one (re-insert of a deleted base edge, delete of a
    /// pending insert) cancels it in the edge sets instead of adding to them, and only then
    /// can a partition have returned to its CSR content — it is dropped, so that reads of it
    /// borrow the CSR again. Copy-on-write per vertex: an overlay still shared with an older
    /// epoch is copied, every other overlay of the store stays shared.
    fn apply_edge(
        &mut self,
        base: &Graph,
        (src, sl): (VertexId, VertexLabel),
        (dst, dl): (VertexId, VertexLabel),
        el: EdgeLabel,
        insert: bool,
    ) {
        let key = (el, src, dst);
        let (undone, recorded) = if insert {
            (&mut self.deleted_edges, &mut self.inserted_edges)
        } else {
            (&mut self.inserted_edges, &mut self.deleted_edges)
        };
        let cancels = undone.remove(&key);
        if !cancels {
            recorded.insert(key);
        }
        for (dir, v, nbr, nl) in [
            (Direction::Fwd, src, dst, dl),
            (Direction::Bwd, dst, src, sl),
        ] {
            let csr = csr_list(base, v, dir, el, nl);
            let map = self.adj_mut(dir);
            let overlay = Arc::make_mut(map.entry(v).or_default());
            // Lists and partition vectors grow by exactly what is needed: the store holds a
            // second copy of every touched list, and doubling would make it a third.
            let i = overlay.position(el, nl).unwrap_or_else(|| {
                overlay.parts.reserve_exact(1);
                overlay.parts.push(OverlayPartition {
                    edge_label: el,
                    nbr_label: nl,
                    nbrs: csr.to_vec(),
                });
                overlay.parts.len() - 1
            });
            let nbrs = &mut overlay.parts[i].nbrs;
            match nbrs.binary_search(&nbr) {
                Err(pos) if insert => {
                    nbrs.reserve_exact(1);
                    nbrs.insert(pos, nbr);
                }
                Ok(pos) if !insert => {
                    nbrs.remove(pos);
                }
                _ => unreachable!("apply_edge: {src}->{dst} ({el}) contradicts has_edge"),
            }
            if cancels && nbrs[..] == *csr {
                overlay.parts.swap_remove(i);
                if overlay.parts.is_empty() {
                    map.remove(&v);
                }
            }
        }
    }
}

/// An immutable view of the graph at one moment: a base CSR plus a frozen delta epoch.
///
/// Cheap to clone (`Arc` bumps) and safe to hold across mutations of the database it came from:
/// mutation goes through copy-on-write, so a clone taken before an update keeps observing the
/// pre-update graph. Implements [`GraphView`], so every executor runs against it directly.
#[derive(Debug, Clone)]
pub struct Snapshot {
    base: Arc<Graph>,
    delta: Arc<DeltaStore>,
    version: u64,
}

impl From<Graph> for Snapshot {
    fn from(g: Graph) -> Self {
        Snapshot::new(Arc::new(g))
    }
}

impl From<Arc<Graph>> for Snapshot {
    fn from(g: Arc<Graph>) -> Self {
        Snapshot::new(g)
    }
}

impl Snapshot {
    /// A snapshot of a frozen graph with no pending deltas, at version 0.
    pub fn new(base: Arc<Graph>) -> Self {
        Snapshot {
            base,
            delta: Arc::new(DeltaStore::default()),
            version: 0,
        }
    }

    /// The base CSR (excluding pending deltas).
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// The pending-delta store of this epoch.
    pub fn delta(&self) -> &DeltaStore {
        &self.delta
    }

    /// The version of this snapshot: the number of applied mutations since the base graph was
    /// first wrapped. Compaction preserves the version (the logical graph does not change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether any mutation is pending on top of the base CSR.
    pub fn has_pending_deltas(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Overwrite the version counter without touching the graph. Crash recovery uses this to
    /// republish a reloaded graph at the epoch its snapshot/WAL recorded, so version numbers
    /// stay monotone across a restart. Not for general use: versions normally advance only
    /// through mutations.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Whether `other` observes the exact same published epoch: identical version *and* the
    /// same shared base/delta allocations — an O(1) pointer check, no content comparison.
    ///
    /// Conservative across compaction: compacting rebuilds the base allocation without
    /// changing the logical graph, so a pre-compaction clone reports `false` against a
    /// post-compaction one even though their contents agree.
    pub fn same_epoch(&self, other: &Snapshot) -> bool {
        self.version == other.version
            && Arc::ptr_eq(&self.base, &other.base)
            && Arc::ptr_eq(&self.delta, &other.delta)
    }

    /// Approximate in-memory size of base CSR + delta overlays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes() + self.delta.memory_bytes()
    }

    // --- mutations (copy-on-write against older clones) ------------------------------------

    /// Append a new vertex carrying `label`, returning its id.
    pub fn insert_vertex(&mut self, label: VertexLabel) -> VertexId {
        let v = self.num_vertices() as VertexId;
        let delta = Arc::make_mut(&mut self.delta);
        delta.new_vertex_labels.push(label);
        delta.max_vertex_label = delta.max_vertex_label.max(label.0);
        self.version += 1;
        v
    }

    /// Ensure vertex `v` exists, appending default-labelled vertices as needed. Returns the
    /// number of vertices created.
    pub fn ensure_vertex(&mut self, v: VertexId) -> usize {
        let have = self.num_vertices();
        let need = v as usize + 1;
        if need <= have {
            return 0;
        }
        let delta = Arc::make_mut(&mut self.delta);
        delta
            .new_vertex_labels
            .resize(need - self.base.num_vertices(), VertexLabel(0));
        self.version += 1;
        need - have
    }

    /// Insert the directed edge `src -> dst` with label `el`. Both endpoints must exist (use
    /// [`ensure_vertex`](Snapshot::ensure_vertex) or [`insert_vertex`](Snapshot::insert_vertex)
    /// first). Returns `false` (and changes nothing) when the edge already exists.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, el: EdgeLabel) -> bool {
        let n = self.num_vertices();
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "insert_edge: vertex out of bounds ({src} or {dst} >= {n})"
        );
        if GraphView::has_edge(self, src, dst, el) {
            return false;
        }
        let sl = self.vertex_label(src);
        let dl = self.vertex_label(dst);
        Arc::make_mut(&mut self.delta).apply_edge(&self.base, (src, sl), (dst, dl), el, true);
        self.version += 1;
        true
    }

    /// Delete the directed edge `src -> dst` with label `el`. Returns `false` (and changes
    /// nothing) when no such edge exists.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId, el: EdgeLabel) -> bool {
        if !GraphView::has_edge(self, src, dst, el) {
            return false;
        }
        let sl = self.vertex_label(src);
        let dl = self.vertex_label(dst);
        let delta = Arc::make_mut(&mut self.delta);
        delta.apply_edge(&self.base, (src, sl), (dst, dl), el, false);
        // Properties die with their edge: drop pending overrides and tombstone base values so
        // neither a later re-insert nor compaction resurrects them.
        let edge: EdgeKey = (src, dst, el);
        delta.edge_props.retain(|_, (_, overrides)| {
            overrides.remove(&edge);
            !overrides.is_empty()
        });
        for key in self.base.properties().edge_keys_of(edge) {
            let ty = self
                .base
                .properties()
                .edge_col_type(&key)
                .expect("column exists");
            delta
                .edge_props
                .entry(key)
                .or_insert_with(|| (ty, FxHashMap::default()))
                .1
                .insert(edge, None);
        }
        self.version += 1;
        true
    }

    /// Set the typed property `key = value` on vertex `v`. The column's type is fixed by its
    /// first value (base store or overlay); conflicting writes are rejected.
    pub fn set_vertex_prop(
        &mut self,
        v: VertexId,
        key: &str,
        value: PropValue,
    ) -> Result<(), PropError> {
        if (v as usize) >= self.num_vertices() {
            return Err(PropError::NoSuchVertex { v });
        }
        let expected = self
            .base
            .properties()
            .vertex_col_type(key)
            .or_else(|| self.delta.vertex_props.get(key).map(|(ty, _)| *ty));
        if let Some(ty) = expected {
            if value.prop_type() != ty {
                return Err(PropError::TypeMismatch {
                    key: key.to_string(),
                    expected: ty,
                    found: value.prop_type(),
                });
            }
        }
        let ty = value.prop_type();
        let delta = Arc::make_mut(&mut self.delta);
        delta
            .vertex_props
            .entry(key.to_string())
            .or_insert_with(|| (ty, FxHashMap::default()))
            .1
            .insert(v, value);
        self.version += 1;
        Ok(())
    }

    /// Set the typed property `key = value` on the (existing) edge `src -> dst` carrying `el`.
    pub fn set_edge_prop(
        &mut self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
        value: PropValue,
    ) -> Result<(), PropError> {
        if !GraphView::has_edge(self, src, dst, el) {
            return Err(PropError::NoSuchEdge {
                src,
                dst,
                label: el,
            });
        }
        let expected = self
            .base
            .properties()
            .edge_col_type(key)
            .or_else(|| self.delta.edge_props.get(key).map(|(ty, _)| *ty));
        if let Some(ty) = expected {
            if value.prop_type() != ty {
                return Err(PropError::TypeMismatch {
                    key: key.to_string(),
                    expected: ty,
                    found: value.prop_type(),
                });
            }
        }
        let ty = value.prop_type();
        let delta = Arc::make_mut(&mut self.delta);
        delta
            .edge_props
            .entry(key.to_string())
            .or_insert_with(|| (ty, FxHashMap::default()))
            .1
            .insert((src, dst, el), Some(value));
        self.version += 1;
        Ok(())
    }

    /// Apply one [`Update`]. Returns whether it changed the graph (vertex insertions always do;
    /// edge operations are no-ops when the edge already exists / is already gone). Edge updates
    /// create unknown endpoints on demand with the default vertex label.
    pub fn apply_update(&mut self, update: &Update) -> bool {
        match update {
            Update::InsertVertex { label } => {
                self.insert_vertex(*label);
                true
            }
            Update::InsertEdge { src, dst, label } => {
                self.ensure_vertex(*src.max(dst));
                self.insert_edge(*src, *dst, *label)
            }
            Update::DeleteEdge { src, dst, label } => self.delete_edge(*src, *dst, *label),
            Update::SetVertexProp { v, key, value } => {
                self.set_vertex_prop(*v, key, value.clone()).is_ok()
            }
            Update::SetEdgeProp {
                src,
                dst,
                label,
                key,
                value,
            } => self
                .set_edge_prop(*src, *dst, *label, key, value.clone())
                .is_ok(),
        }
    }

    // --- compaction -------------------------------------------------------------------------

    /// Fold the pending deltas into a fresh CSR. The returned graph is observationally
    /// identical to this snapshot (same vertices, labels and edges) with empty deltas;
    /// `Snapshot::from(rebuilt)` restarts at version 0, so callers that track versions (the
    /// `graphflow-core` facade) carry the version over themselves.
    pub fn rebuild(&self) -> Graph {
        let mut builder = GraphBuilder::from_view(self);
        builder.set_props(self.merged_props());
        let mut g = builder.build();
        // The builder derives label counts from the surviving content; preserve this
        // snapshot's declared label-space widths (e.g. a base label whose last edge was
        // deleted) so compaction is observationally neutral for them too.
        g.num_vertex_labels = g.num_vertex_labels.max(GraphView::num_vertex_labels(self));
        g.num_edge_labels = g.num_edge_labels.max(GraphView::num_edge_labels(self));
        g.edge_label_ranges
            .resize(g.num_edge_labels as usize, (0, 0));
        g
    }

    /// The base property store with every pending override and tombstone folded in (what
    /// compaction installs as the new base store).
    fn merged_props(&self) -> PropertyStore {
        let mut props = self.base.properties().clone();
        for (key, (_, overrides)) in &self.delta.vertex_props {
            for (&v, value) in overrides {
                props
                    .set_vertex(v, key, value.clone())
                    .expect("overlay writes were type-checked");
            }
        }
        for (key, (_, overrides)) in &self.delta.edge_props {
            for (&edge, value) in overrides {
                match value {
                    Some(value) => props
                        .set_edge(edge, key, value.clone())
                        .expect("overlay writes were type-checked"),
                    None => props.remove_edge_value(edge, key),
                }
            }
        }
        props
    }

    /// Replace the base CSR with the compacted graph, dropping all deltas while keeping the
    /// version number (the logical graph is unchanged). No-op when nothing is pending.
    pub fn compact(&mut self) {
        if !self.has_pending_deltas() {
            return;
        }
        self.base = Arc::new(self.rebuild());
        self.delta = Arc::new(DeltaStore::default());
    }
}

impl GraphView for Snapshot {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices() + self.delta.new_vertex_labels.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.base.num_edges() + self.delta.inserted_edges.len() - self.delta.deleted_edges.len()
    }

    #[inline]
    fn num_vertex_labels(&self) -> u16 {
        self.base
            .num_vertex_labels()
            .max(self.delta.max_vertex_label + 1)
    }

    #[inline]
    fn num_edge_labels(&self) -> u16 {
        self.base
            .num_edge_labels()
            .max(self.delta.max_inserted_edge_label().map_or(0, |l| l + 1))
    }

    #[inline]
    fn vertex_label(&self, v: VertexId) -> VertexLabel {
        let nb = self.base.num_vertices();
        if (v as usize) < nb {
            self.base.vertex_label(v)
        } else {
            self.delta.new_vertex_labels[v as usize - nb]
        }
    }

    fn nbrs(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> NbrList<'_> {
        let base_list = csr_list(&self.base, v, dir, el, nl);
        if self.delta.is_empty() {
            return NbrList::csr(base_list);
        }
        match self.delta.part(v, dir, el, nl) {
            None => NbrList::csr(base_list),
            Some(merged) => NbrList::overlay(merged),
        }
    }

    fn degree(&self, v: VertexId, dir: Direction, el: EdgeLabel, nl: VertexLabel) -> usize {
        self.nbrs(v, dir, el, nl).len()
    }

    fn has_edge(&self, u: VertexId, v: VertexId, el: EdgeLabel) -> bool {
        let n = self.num_vertices();
        if u as usize >= n || v as usize >= n {
            return false;
        }
        if !self.delta.is_empty() {
            let key = (el, u, v);
            if self.delta.inserted_edges.contains(&key) {
                return true;
            }
            if self.delta.deleted_edges.contains(&key) {
                return false;
            }
        }
        // `Graph::has_edge` bounds-checks against the base vertex count itself.
        self.base.has_edge(u, v, el)
    }

    fn scan_edges(&self, el: EdgeLabel) -> Cow<'_, [(VertexId, VertexId, EdgeLabel)]> {
        let base = self.base.edges_with_label(el);
        if !self.delta.touches_label(el) {
            return Cow::Borrowed(base);
        }
        let range = (el, 0, 0)..=(el, VertexId::MAX, VertexId::MAX);
        let mut inserts = self.delta.inserted_edges.range(range.clone()).peekable();
        let mut deletes = self.delta.deleted_edges.range(range).peekable();
        let mut out = Vec::with_capacity(base.len() + self.delta.inserted_edges.len());
        // Base edges with one label are sorted by (src, dst), as are the BTreeSet ranges, so a
        // single merge pass produces the merged SCAN input in order.
        for &(s, d, l) in base {
            if deletes.peek() == Some(&&(el, s, d)) {
                deletes.next();
                continue;
            }
            while let Some(&&(_, is, id)) = inserts.peek() {
                if (is, id) < (s, d) {
                    out.push((is, id, el));
                    inserts.next();
                } else {
                    break;
                }
            }
            out.push((s, d, l));
        }
        out.extend(inserts.map(|&(_, s, d)| (s, d, el)));
        Cow::Owned(out)
    }

    fn vertex_prop(&self, v: VertexId, key: &str) -> Option<PropValue> {
        if let Some((_, overrides)) = self.delta.vertex_props.get(key) {
            if let Some(value) = overrides.get(&v) {
                return Some(value.clone());
            }
        }
        if (v as usize) < self.base.num_vertices() {
            self.base.vertex_prop(v, key)
        } else {
            None
        }
    }

    fn edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        el: EdgeLabel,
        key: &str,
    ) -> Option<PropValue> {
        if let Some((_, overrides)) = self.delta.edge_props.get(key) {
            match overrides.get(&(src, dst, el)) {
                Some(Some(value)) => return Some(value.clone()),
                Some(None) => return None, // tombstoned
                None => {}
            }
        }
        self.base.edge_prop(src, dst, el, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_triangle() -> Snapshot {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        Snapshot::from(b.build())
    }

    fn nbr_vec(s: &Snapshot, v: VertexId, dir: Direction) -> Vec<VertexId> {
        s.nbrs(v, dir, EdgeLabel(0), VertexLabel(0)).to_vec()
    }

    #[test]
    fn clean_snapshot_is_transparent() {
        let s = base_triangle();
        assert!(!s.has_pending_deltas());
        assert_eq!(GraphView::num_vertices(&s), 3);
        assert_eq!(GraphView::num_edges(&s), 3);
        assert!(!s
            .nbrs(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0))
            .is_overlay());
        assert_eq!(nbr_vec(&s, 0, Direction::Fwd), vec![1, 2]);
        assert!(matches!(s.scan_edges(EdgeLabel(0)), Cow::Borrowed(_)));
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn insert_and_delete_edges_merge_into_lists() {
        let mut s = base_triangle();
        assert!(s.insert_edge(2, 0, EdgeLabel(0)));
        assert!(
            !s.insert_edge(2, 0, EdgeLabel(0)),
            "duplicate insert is a no-op"
        );
        assert!(s.delete_edge(0, 1, EdgeLabel(0)));
        assert!(
            !s.delete_edge(0, 1, EdgeLabel(0)),
            "double delete is a no-op"
        );
        assert_eq!(s.version(), 2);
        assert_eq!(GraphView::num_edges(&s), 3);
        assert_eq!(nbr_vec(&s, 0, Direction::Fwd), vec![2]);
        assert_eq!(nbr_vec(&s, 2, Direction::Fwd), vec![0]);
        assert_eq!(nbr_vec(&s, 0, Direction::Bwd), vec![2]);
        assert!(GraphView::has_edge(&s, 2, 0, EdgeLabel(0)));
        assert!(!GraphView::has_edge(&s, 0, 1, EdgeLabel(0)));
        assert_eq!(s.degree(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0)), 1);
        let scan: Vec<_> = s.scan_edges(EdgeLabel(0)).to_vec();
        assert_eq!(
            scan,
            vec![
                (0, 2, EdgeLabel(0)),
                (1, 2, EdgeLabel(0)),
                (2, 0, EdgeLabel(0))
            ]
        );
    }

    #[test]
    fn cancelling_updates_restores_fast_path() {
        let mut s = base_triangle();
        assert!(s.insert_edge(2, 0, EdgeLabel(0)));
        assert!(
            s.delete_edge(2, 0, EdgeLabel(0)),
            "deleting a pending insert"
        );
        assert!(s.delete_edge(0, 1, EdgeLabel(0)));
        assert!(
            s.insert_edge(0, 1, EdgeLabel(0)),
            "re-inserting a deleted base edge"
        );
        assert!(!s.has_pending_deltas(), "all updates cancelled out");
        assert!(!s
            .nbrs(0, Direction::Fwd, EdgeLabel(0), VertexLabel(0))
            .is_overlay());
        assert_eq!(nbr_vec(&s, 0, Direction::Fwd), vec![1, 2]);
        assert_eq!(s.version(), 4, "versions advance even when updates cancel");
    }

    #[test]
    fn new_vertices_and_labels() {
        let mut s = base_triangle();
        let v = s.insert_vertex(VertexLabel(3));
        assert_eq!(v, 3);
        assert_eq!(s.vertex_label(3), VertexLabel(3));
        assert_eq!(GraphView::num_vertex_labels(&s), 4);
        assert!(s.insert_edge(0, v, EdgeLabel(2)));
        assert_eq!(GraphView::num_edge_labels(&s), 3);
        assert_eq!(
            s.nbrs(0, Direction::Fwd, EdgeLabel(2), VertexLabel(3))
                .to_vec(),
            vec![3]
        );
        assert_eq!(
            s.nbrs(v, Direction::Bwd, EdgeLabel(2), VertexLabel(0))
                .to_vec(),
            vec![0]
        );
        assert_eq!(s.ensure_vertex(5), 2);
        assert_eq!(GraphView::num_vertices(&s), 6);
        assert_eq!(s.vertex_label(5), VertexLabel(0));
    }

    #[test]
    fn self_loops_are_supported() {
        let mut s = base_triangle();
        assert!(s.insert_edge(1, 1, EdgeLabel(0)));
        assert!(GraphView::has_edge(&s, 1, 1, EdgeLabel(0)));
        assert_eq!(nbr_vec(&s, 1, Direction::Fwd), vec![1, 2]);
        assert_eq!(nbr_vec(&s, 1, Direction::Bwd), vec![0, 1]);
        assert!(s.delete_edge(1, 1, EdgeLabel(0)));
        assert!(!s.has_pending_deltas());
    }

    #[test]
    fn same_epoch_tracks_publication_not_content() {
        let mut s = base_triangle();
        let clone = s.clone();
        assert!(s.same_epoch(&clone), "clones share one epoch");
        s.insert_edge(2, 0, EdgeLabel(0));
        assert!(!s.same_epoch(&clone), "mutation departs from the old epoch");
        // Cancelling the update restores the *content* but not the epoch identity.
        s.delete_edge(2, 0, EdgeLabel(0));
        assert!(!s.same_epoch(&clone));
        // Compaction is conservative: logically neutral, but a different allocation.
        let mut t = base_triangle();
        t.insert_edge(2, 0, EdgeLabel(0));
        let before = t.clone();
        t.compact();
        assert!(!t.same_epoch(&before));
        assert_eq!(t.version(), before.version());
    }

    #[test]
    fn clones_are_isolated_from_later_mutations() {
        let mut s = base_triangle();
        s.insert_edge(2, 0, EdgeLabel(0));
        let frozen = s.clone();
        s.delete_edge(2, 0, EdgeLabel(0));
        s.delete_edge(1, 2, EdgeLabel(0));
        assert!(GraphView::has_edge(&frozen, 2, 0, EdgeLabel(0)));
        assert!(GraphView::has_edge(&frozen, 1, 2, EdgeLabel(0)));
        assert_eq!(GraphView::num_edges(&frozen), 4);
        assert_eq!(GraphView::num_edges(&s), 2);
        assert_eq!(frozen.version(), 1);
        assert_eq!(s.version(), 3);
    }

    #[test]
    fn rebuild_round_trips() {
        let mut s = base_triangle();
        s.insert_vertex(VertexLabel(1));
        s.insert_edge(3, 0, EdgeLabel(1));
        s.insert_edge(2, 2, EdgeLabel(0)); // self-loop
        s.delete_edge(0, 2, EdgeLabel(0));
        let rebuilt = s.rebuild();
        rebuilt.check_invariants().unwrap();
        assert_eq!(rebuilt.num_vertices(), GraphView::num_vertices(&s));
        assert_eq!(rebuilt.num_edges(), GraphView::num_edges(&s));
        for el in 0..GraphView::num_edge_labels(&s) {
            assert_eq!(
                rebuilt.edges_with_label(EdgeLabel(el)),
                &s.scan_edges(EdgeLabel(el))[..],
                "label {el}"
            );
        }
        // In-place compaction is observationally neutral.
        let before: Vec<_> = s.scan_edges(EdgeLabel(0)).to_vec();
        let version = s.version();
        s.compact();
        assert!(!s.has_pending_deltas());
        assert_eq!(s.version(), version);
        assert_eq!(s.scan_edges(EdgeLabel(0)).to_vec(), before);
    }

    #[test]
    fn cancelled_label_inserts_do_not_leak_label_space() {
        let mut s = base_triangle();
        assert!(s.insert_edge(2, 0, EdgeLabel(9)));
        assert_eq!(GraphView::num_edge_labels(&s), 10);
        assert!(
            s.delete_edge(2, 0, EdgeLabel(9)),
            "cancel the pending insert"
        );
        assert_eq!(
            GraphView::num_edge_labels(&s),
            1,
            "cancelled insert must not widen the label space"
        );
        // And compaction agrees with the live snapshot either way.
        assert!(s.insert_edge(2, 0, EdgeLabel(4)));
        let declared = GraphView::num_edge_labels(&s);
        let rebuilt = s.rebuild();
        assert_eq!(rebuilt.num_edge_labels(), declared);
        // Deleting the last edge of a base label keeps the declared width across compaction.
        let mut t = base_triangle();
        t.insert_edge(2, 0, EdgeLabel(3));
        t.compact();
        t.delete_edge(2, 0, EdgeLabel(3));
        assert_eq!(GraphView::num_edge_labels(&t), 4);
        let rebuilt = t.rebuild();
        assert_eq!(rebuilt.num_edge_labels(), 4);
        assert!(rebuilt.edges_with_label(EdgeLabel(3)).is_empty());
    }

    #[test]
    fn props_overlay_isolated_and_compacted() {
        let mut s = base_triangle();
        s.set_vertex_prop(0, "age", PropValue::Int(30)).unwrap();
        s.set_edge_prop(0, 1, EdgeLabel(0), "w", PropValue::Float(0.5))
            .unwrap();
        assert_eq!(s.vertex_prop(0, "age"), Some(PropValue::Int(30)));
        assert_eq!(
            s.edge_prop(0, 1, EdgeLabel(0), "w"),
            Some(PropValue::Float(0.5))
        );
        assert!(s.has_pending_deltas());

        // Clones are isolated from later property writes.
        let frozen = s.clone();
        s.set_vertex_prop(0, "age", PropValue::Int(99)).unwrap();
        assert_eq!(frozen.vertex_prop(0, "age"), Some(PropValue::Int(30)));
        assert_eq!(s.vertex_prop(0, "age"), Some(PropValue::Int(99)));

        // Type mismatches and missing endpoints are rejected.
        assert!(matches!(
            s.set_vertex_prop(1, "age", PropValue::str("old")),
            Err(PropError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.set_vertex_prop(77, "age", PropValue::Int(1)),
            Err(PropError::NoSuchVertex { .. })
        ));
        assert!(matches!(
            s.set_edge_prop(2, 0, EdgeLabel(0), "w", PropValue::Float(1.0)),
            Err(PropError::NoSuchEdge { .. })
        ));

        // Compaction folds the overlay into the base store without changing reads.
        s.compact();
        assert!(!s.has_pending_deltas());
        assert_eq!(s.vertex_prop(0, "age"), Some(PropValue::Int(99)));
        assert_eq!(
            s.edge_prop(0, 1, EdgeLabel(0), "w"),
            Some(PropValue::Float(0.5))
        );
        // After compaction the base column enforces the established type.
        assert!(s.set_vertex_prop(2, "age", PropValue::Bool(true)).is_err());
    }

    #[test]
    fn deleting_an_edge_drops_its_props() {
        let mut s = base_triangle();
        s.set_edge_prop(0, 1, EdgeLabel(0), "w", PropValue::Int(7))
            .unwrap();
        s.compact(); // props now live in the base store
        assert!(s.delete_edge(0, 1, EdgeLabel(0)));
        assert_eq!(s.edge_prop(0, 1, EdgeLabel(0), "w"), None, "tombstoned");
        // Re-inserting the edge does not resurrect the old value, and compaction agrees.
        assert!(s.insert_edge(0, 1, EdgeLabel(0)));
        assert_eq!(s.edge_prop(0, 1, EdgeLabel(0), "w"), None);
        let rebuilt = Snapshot::from(s.rebuild());
        assert_eq!(rebuilt.edge_prop(0, 1, EdgeLabel(0), "w"), None);
        // New vertices can carry properties through the overlay.
        let v = s.insert_vertex(VertexLabel(1));
        s.set_vertex_prop(v, "name", PropValue::str("new")).unwrap();
        assert_eq!(s.vertex_prop(v, "name"), Some(PropValue::str("new")));
        let rebuilt = s.rebuild();
        assert_eq!(rebuilt.vertex_prop(v, "name"), Some(PropValue::str("new")));
    }

    #[test]
    fn memory_bytes_counts_the_merged_lists() {
        let mut s = base_triangle();
        let clean = s.memory_bytes();
        s.insert_edge(2, 0, EdgeLabel(0));
        // One pending edge (12 bytes in the edge set) and a merged list at either endpoint:
        // `[0]` for 2's out-neighbours, `[2]` for 0's in-neighbours.
        assert!(s.memory_bytes() >= clean + 12 + 2 * 4);
        let one = s.memory_bytes();
        // Touching a longer list costs its full merged copy: 0's out-neighbours `[1, 2]` + 0.
        s.insert_edge(0, 0, EdgeLabel(0));
        assert!(s.memory_bytes() >= one + 12 + 3 * 4);
    }

    /// The copy-on-write unit is one vertex's overlay, not the store: a mutation copies the
    /// overlays of the vertices it touches and shares every other one with the older epoch.
    #[test]
    fn a_mutation_copies_only_the_overlays_it_touches() {
        let mut s = base_triangle();
        s.insert_edge(2, 0, EdgeLabel(0)); // touches fwd[2] and bwd[0]
        s.insert_edge(1, 0, EdgeLabel(0)); // touches fwd[1] and bwd[0]
        let published = s.clone();
        s.insert_edge(2, 1, EdgeLabel(0)); // touches fwd[2] and bwd[1]
        let (old, new) = (&published.delta, &s.delta);
        assert!(!Arc::ptr_eq(old, new), "the store itself is a new epoch");
        assert!(
            Arc::ptr_eq(&old.fwd[&1], &new.fwd[&1]) && Arc::ptr_eq(&old.bwd[&0], &new.bwd[&0]),
            "untouched overlays are the same allocation in both epochs"
        );
        assert!(
            !Arc::ptr_eq(&old.fwd[&2], &new.fwd[&2]),
            "a touched one is copied"
        );
        assert_eq!(nbr_vec(&published, 2, Direction::Fwd), vec![0]);
        assert_eq!(nbr_vec(&s, 2, Direction::Fwd), vec![0, 1]);
        assert!(!old.bwd.contains_key(&1) && new.bwd.contains_key(&1));
        // A second update of the same vertex within the new epoch writes in place.
        let before = Arc::as_ptr(&s.delta.fwd[&2]);
        s.delete_edge(2, 1, EdgeLabel(0));
        assert_eq!(before, Arc::as_ptr(&s.delta.fwd[&2]));
    }
}
