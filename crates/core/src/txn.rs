//! Write transactions: staged updates published as one new snapshot epoch.
//!
//! All mutation of a [`GraphflowDB`] funnels through a [`WriteTxn`]. A transaction holds the
//! database's single writer lock from [`begin_write`](GraphflowDB::begin_write) to
//! [`commit`](WriteTxn::commit) (writers are serialized; readers are never blocked), stages its
//! updates on a **private copy-on-write clone** of the current snapshot, and publishes the
//! staged snapshot as the database's new epoch in one atomic swap. Queries that started before
//! the commit keep running against the epoch they pinned; queries that start after it see every
//! update of the transaction — there is no in-between state, no matter how many updates the
//! transaction staged.
//!
//! Dropping a transaction without committing discards the staged epoch
//! ([`rollback`](WriteTxn::rollback) spells this out).

use crate::{persisted_counts, Error, GraphflowDB, WriterState};
use graphflow_catalog::Catalogue;
use graphflow_graph::{
    EdgeLabel, GraphView as _, PropError, PropValue, Snapshot, Update, VertexId, VertexLabel,
};
use std::borrow::Cow;
use std::sync::{Arc, MutexGuard};

/// A catalogue maintenance action recorded while staging, applied under the catalogue write
/// lock at commit time (or straight onto the catalogue being rebuilt, during recovery).
pub(crate) enum CatOp {
    VertexInsert(VertexLabel),
    EdgeInsert(EdgeLabel, VertexLabel, VertexLabel),
    EdgeDelete(EdgeLabel, VertexLabel, VertexLabel),
}

impl CatOp {
    pub(crate) fn apply(self, catalogue: &mut Catalogue) {
        match self {
            CatOp::VertexInsert(label) => catalogue.record_vertex_insert(label),
            CatOp::EdgeInsert(el, src, dst) => catalogue.record_edge_insert(el, src, dst),
            CatOp::EdgeDelete(el, src, dst) => catalogue.record_edge_delete(el, src, dst),
        }
    }
}

/// Stage one update on `snap` and push the catalogue maintenance it implies onto `cat_ops` —
/// the single staging step behind live transactions and write-ahead-log replay, so a
/// recovered database carries exactly the counts the live one had.
///
/// Returns how many updates it counts for on the staleness clock: 0 when the graph did not
/// change (the edge to insert already exists, the edge to delete does not), otherwise 1 plus
/// one per endpoint vertex an edge insert created on demand. A rejected property write is the
/// `Err`.
pub(crate) fn stage_update(
    snap: &mut Snapshot,
    cat_ops: &mut Vec<CatOp>,
    update: &Update,
) -> Result<u64, PropError> {
    match update {
        Update::InsertVertex { label } => {
            snap.insert_vertex(*label);
            cat_ops.push(CatOp::VertexInsert(*label));
        }
        Update::InsertEdge { src, dst, label } => {
            let created = snap.ensure_vertex(*src.max(dst));
            cat_ops.extend((0..created).map(|_| CatOp::VertexInsert(VertexLabel(0))));
            if !snap.insert_edge(*src, *dst, *label) {
                return Ok(0);
            }
            let (sl, dl) = (snap.vertex_label(*src), snap.vertex_label(*dst));
            cat_ops.push(CatOp::EdgeInsert(*label, sl, dl));
            return Ok(created as u64 + 1);
        }
        Update::DeleteEdge { src, dst, label } => {
            if !snap.delete_edge(*src, *dst, *label) {
                return Ok(0);
            }
            let (sl, dl) = (snap.vertex_label(*src), snap.vertex_label(*dst));
            cat_ops.push(CatOp::EdgeDelete(*label, sl, dl));
        }
        // Property writes carry no catalogue maintenance.
        Update::SetVertexProp { v, key, value } => snap.set_vertex_prop(*v, key, value.clone())?,
        Update::SetEdgeProp {
            src,
            dst,
            label,
            key,
            value,
        } => snap.set_edge_prop(*src, *dst, *label, key, value.clone())?,
    }
    Ok(1)
}

/// An exclusive write transaction on a [`GraphflowDB`].
///
/// Created by [`GraphflowDB::begin_write`]; holds the database's writer lock until it is
/// committed or dropped, so at most one transaction is open at a time (a second `begin_write`
/// blocks). Updates staged through the mutation methods are visible to the transaction's own
/// [`snapshot`](WriteTxn::snapshot) (read-your-writes) but to no reader until
/// [`commit`](WriteTxn::commit) publishes them — atomically, as one new epoch.
///
/// ```
/// use graphflow_core::GraphflowDB;
/// use graphflow_graph::{EdgeLabel, GraphBuilder};
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let db = GraphflowDB::from_graph(b.build());
///
/// let mut txn = db.begin_write();
/// txn.insert_edge(0, 2, EdgeLabel(0));
/// // Not yet published: readers still see the two-edge graph.
/// assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), 0);
/// txn.commit();
/// assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), 1);
/// ```
pub struct WriteTxn<'db> {
    db: &'db GraphflowDB,
    /// The writer lock, held for the whole transaction (serializes writers; commit also uses
    /// it to update the staleness clock).
    guard: MutexGuard<'db, WriterState>,
    /// Private copy-on-write clone of the epoch the transaction started from. The published
    /// epoch shares its delta store, so the first staged update copies the store's edge sets
    /// and its map of per-vertex overlays (a reference-count bump each); the merged adjacency
    /// lists themselves are copied only for the vertices the transaction touches.
    staged: Snapshot,
    cat_ops: Vec<CatOp>,
    /// Updates staged so far (the staleness-clock currency of the catalogue).
    ops: u64,
    /// The *effective* updates staged so far, in order — the write-ahead-log record commit
    /// appends before publishing. Only populated on a persistent database (`journaling`);
    /// no-op updates (duplicate edge inserts, deletes of missing edges, rejected property
    /// writes) are never journalled, so replay reproduces the staged state exactly.
    journal: Vec<Update>,
    journaling: bool,
}

impl std::fmt::Debug for WriteTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTxn")
            .field("staged_version", &self.staged.version())
            .field("staged_updates", &self.ops)
            .finish_non_exhaustive()
    }
}

impl<'db> WriteTxn<'db> {
    pub(crate) fn begin(db: &'db GraphflowDB) -> Self {
        // Lock order matters: take the writer lock *first*, then read the current epoch —
        // only commit publishes, and commit runs under this same lock, so the clone below is
        // guaranteed to be the latest epoch.
        let guard = db.shared.writer.lock();
        let staged = db.shared.current.read().clone();
        let journaling = db.shared.storage.is_some();
        WriteTxn {
            db,
            guard,
            staged,
            cat_ops: Vec::new(),
            ops: 0,
            journal: Vec::new(),
            journaling,
        }
    }

    /// Stage one update through [`stage_update`], journalling it when it took effect
    /// (persistent databases only). Returns whether it changed the graph.
    fn stage(&mut self, update: Cow<'_, Update>) -> Result<bool, Error> {
        let counted = stage_update(&mut self.staged, &mut self.cat_ops, &update)?;
        if counted > 0 && self.journaling {
            // One journal entry covers an edge insert's on-demand endpoints too: replay
            // re-runs `ensure_vertex` before re-inserting the edge.
            self.journal.push(update.into_owned());
        }
        self.ops += counted;
        Ok(counted > 0)
    }

    /// The transaction's private view: the epoch it started from plus every update staged so
    /// far (read-your-writes). Cloning it keeps a cheap immutable copy of this intermediate
    /// state.
    pub fn snapshot(&self) -> &Snapshot {
        &self.staged
    }

    /// Number of updates staged so far.
    pub fn staged_updates(&self) -> u64 {
        self.ops
    }

    // --- staged mutations (mirror the `GraphflowDB` convenience wrappers) -------------------

    /// Stage a new vertex carrying `label`, returning its id.
    pub fn insert_vertex(&mut self, label: VertexLabel) -> VertexId {
        let v = self.staged.num_vertices() as VertexId;
        self.stage(Cow::Owned(Update::InsertVertex { label }))
            .expect("only property writes can be rejected");
        v
    }

    /// Stage the directed edge `src -> dst` carrying `label`. Unknown endpoints are created on
    /// demand with the default vertex label. Returns `false` (and stages nothing) when the
    /// edge already exists in the transaction's view.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, label: EdgeLabel) -> bool {
        self.stage(Cow::Owned(Update::InsertEdge { src, dst, label }))
            .expect("only property writes can be rejected")
    }

    /// Stage the deletion of the directed edge `src -> dst` carrying `label`. Returns `false`
    /// (and stages nothing) when no such edge exists in the transaction's view.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId, label: EdgeLabel) -> bool {
        self.stage(Cow::Owned(Update::DeleteEdge { src, dst, label }))
            .expect("only property writes can be rejected")
    }

    /// Stage the typed property write `key = value` on vertex `v`. The column's type is fixed
    /// by its first value; conflicting writes return
    /// [`Error::Property`](crate::Error::Property).
    pub fn set_vertex_prop(
        &mut self,
        v: VertexId,
        key: &str,
        value: PropValue,
    ) -> Result<(), Error> {
        let key = key.to_string();
        self.stage(Cow::Owned(Update::SetVertexProp { v, key, value }))?;
        Ok(())
    }

    /// Stage the typed property write `key = value` on the (existing) edge `src -> dst`
    /// carrying `label`.
    pub fn set_edge_prop(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: EdgeLabel,
        key: &str,
        value: PropValue,
    ) -> Result<(), Error> {
        let key = key.to_string();
        self.stage(Cow::Owned(Update::SetEdgeProp {
            src,
            dst,
            label,
            key,
            value,
        }))?;
        Ok(())
    }

    /// Stage a new vertex carrying `label` and an initial set of typed properties, returning
    /// its id. The vertex is staged even if a property write fails (the error reports the
    /// first failing write).
    pub fn insert_vertex_with_props(
        &mut self,
        label: VertexLabel,
        props: &[(&str, PropValue)],
    ) -> Result<VertexId, Error> {
        let v = self.insert_vertex(label);
        for (key, value) in props {
            self.set_vertex_prop(v, key, value.clone())?;
        }
        Ok(v)
    }

    /// Stage a batch of [`Update`]s in order, returning how many changed the graph (edge
    /// inserts of existing edges, deletes of missing edges, and property writes that fail
    /// their type/existence checks are no-ops). The whole batch becomes visible atomically at
    /// [`commit`](WriteTxn::commit).
    pub fn apply_batch(&mut self, updates: &[Update]) -> usize {
        updates
            .iter()
            .filter(|u| self.stage(Cow::Borrowed(u)).unwrap_or(false))
            .count()
    }

    // --- commit / rollback ------------------------------------------------------------------

    /// Publish the staged snapshot as the database's new epoch — one atomic swap — and return
    /// the published epoch's version. Also applies the catalogue's incremental count
    /// maintenance, advances the staleness clock (bumping the plan-cache statistics version
    /// when it crosses the threshold) and runs auto-compaction when the delta store has grown
    /// past its threshold.
    ///
    /// On a persistent database the staged updates are write-ahead logged (durably, per the
    /// configured [`Durability`](crate::Durability) policy) *before* the epoch becomes
    /// visible to readers; **panics** if that logging fails — use
    /// [`try_commit`](WriteTxn::try_commit) for the fallible spelling. In-memory databases
    /// never panic here.
    pub fn commit(self) -> u64 {
        match self.try_commit() {
            Ok(version) => version,
            Err(e) => panic!("write-ahead logging failed at commit: {e} ({e:?})"),
        }
    }

    /// Fallible [`commit`](WriteTxn::commit). On `Err` the error is a storage failure:
    ///
    /// * [`Error::Storage`](crate::Error::Storage) from the WAL append — **nothing was
    ///   published**; readers still see the pre-transaction epoch, exactly as if the
    ///   transaction had been rolled back (the append itself is rolled back too, so the log
    ///   holds no frame for the unpublished epoch).
    /// * [`Error::Storage`](crate::Error::Storage) from the checkpoint an auto-compaction
    ///   piggybacks on — the commit **was** published (and its WAL frame is durable); only
    ///   the snapshot+WAL-truncate step failed and will be retried by the next compaction or
    ///   [`checkpoint`](crate::GraphflowDB::checkpoint).
    pub fn try_commit(mut self) -> Result<u64, Error> {
        let shared = &self.db.shared;
        let mut checkpoint_after = None;
        if self.ops > 0 {
            // Write-ahead: the batch must be durable (to the configured policy) before any
            // reader can observe the epoch it produces.
            if let Some(storage) = &shared.storage {
                if !self.journal.is_empty() {
                    storage
                        .lock()
                        .log_commit(self.staged.version(), &self.journal)?;
                }
            }
            self.guard.updates_since_stats += self.ops;
            // Republish the snapshot to the catalogue only at refresh points and compactions.
            // The catalogue's *exact* counts are maintained incrementally below and never lag;
            // only its *sampled* statistics see a snapshot up to one staleness window old —
            // exactly the drift tolerance `refresh_after` already grants them.
            let mut republish = false;
            if self.guard.updates_since_stats >= shared.staleness_threshold {
                shared
                    .stats_version
                    .store(self.staged.version(), std::sync::atomic::Ordering::Release);
                self.guard.updates_since_stats = 0;
                republish = true;
            }
            let delta = self.staged.delta();
            let mut compacted = false;
            if delta.overlay_edges() + delta.num_new_vertices() >= shared.compact_threshold {
                self.staged.compact();
                republish = true;
                compacted = true;
            }
            // One catalogue revision per commit: copy-on-write through `Arc::make_mut`, so
            // planners and adaptive runs holding the previous revision are never blocked and
            // never observe a half-applied batch (the copy is only paid while such a reader
            // exists).
            {
                let mut slot = shared.catalogue.write();
                let catalogue = Arc::make_mut(&mut slot);
                for op in self.cat_ops.drain(..) {
                    op.apply(catalogue);
                }
                if republish {
                    catalogue.set_snapshot(self.staged.clone());
                }
                // Counts are exported *after* the cat-op drain so the snapshot the piggyback
                // checkpoint writes carries this very transaction's maintenance.
                if compacted && shared.storage.is_some() {
                    checkpoint_after = Some(persisted_counts(catalogue));
                }
            }
        }
        let version = self.staged.version();
        // The publication point: readers pinning a snapshot from here on see every staged
        // update; in-flight queries keep the epoch they already pinned.
        *shared.current.write() = self.staged.clone();
        shared
            .metrics
            .txn_commits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Compaction doubles as a checkpoint: persist the freshly folded CSR and truncate
        // the WAL. After the publication point, so a failure here cannot un-publish the
        // commit — the WAL still holds everything the lost snapshot would have folded.
        if let (Some(counts), Some(storage)) = (checkpoint_after, &shared.storage) {
            let started = std::time::Instant::now();
            storage
                .lock()
                .checkpoint(self.staged.base(), version, &counts)?;
            shared.metrics.record_checkpoint(started.elapsed());
        }
        Ok(version)
    }

    /// Discard every staged update (equivalent to dropping the transaction). Readers never
    /// observed any of them.
    pub fn rollback(self) {}
}
