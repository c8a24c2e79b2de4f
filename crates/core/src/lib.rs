//! # graphflow-core
//!
//! The public facade of Graphflow-RS — the Rust reproduction of *"Optimizing Subgraph Queries by
//! Combining Binary and Worst-Case Optimal Joins"* (Mhedhbi & Salihoglu, VLDB 2019).
//!
//! [`GraphflowDB`] bundles a data graph, its subgraph catalogue and the cost-based
//! dynamic-programming optimizer behind an API built for *serving*: the expensive front half of
//! a query (parse → canonicalize → optimize) runs **once per distinct query shape** and is
//! amortized across every later execution, and results can be **streamed** instead of
//! materialised, so a query with a hundred million matches runs in constant memory.
//!
//! ## Prepared queries and the plan cache
//!
//! [`GraphflowDB::prepare`] parses, canonicalizes and plans a pattern once, returning a
//! [`PreparedQuery`] that can be rerun with different options. Plans live in an internal LRU
//! cache keyed on the *canonical* form of the query graph, so preparing (or just
//! [`run`](GraphflowDB::run)ning) an isomorphic rewriting of an earlier pattern — same shape,
//! different vertex names or clause order — skips the optimizer entirely. The cached operator
//! tree is renumbered, once, into the rewriting's own vertex numbering, so the plan a
//! [`PreparedQuery`] holds is always a plan for *its* query: result tuples, `EXPLAIN`,
//! `PROFILE` and the slow-query log all speak the caller's names.
//!
//! ```
//! use graphflow_core::GraphflowDB;
//! use graphflow_graph::GraphBuilder;
//!
//! // A tiny graph: a directed triangle plus one extra edge.
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let db = GraphflowDB::from_graph(b.build());
//!
//! // Prepare once (optimizer runs), execute many times (optimizer skipped).
//! let triangles = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
//! assert_eq!(triangles.count().unwrap(), 1);
//! assert_eq!(triangles.count().unwrap(), 1);
//!
//! // An isomorphic rewriting is a plan-cache hit: no second optimizer run.
//! let rewritten = db.prepare("(x)->(z), (y)->(z), (x)->(y)").unwrap();
//! assert!(rewritten.was_cached());
//! assert_eq!(db.plan_cache_stats().misses, 1);
//! ```
//!
//! ## Streaming results
//!
//! Executors deliver matches through a [`MatchSink`] instead of buffering them:
//! [`CountingSink`] counts, [`CollectingSink`] keeps up to a cap (this is what backs
//! [`QueryResult::tuples`]), [`LimitSink`] stops execution after N matches, and
//! [`CallbackSink`] forwards each match to a closure:
//!
//! ```
//! # use graphflow_core::{CallbackSink, GraphflowDB, QueryOptions};
//! # use graphflow_graph::GraphBuilder;
//! # let mut b = GraphBuilder::new();
//! # b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 2); b.add_edge(2, 3);
//! # let db = GraphflowDB::from_graph(b.build());
//! let triangles = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
//! let mut hubs = Vec::new();
//! let mut sink = CallbackSink::new(|t: &[u32]| {
//!     hubs.push(t[0]); // vertex matched to (a)
//!     true             // keep streaming
//! });
//! triangles.run_with_sink(QueryOptions::new(), &mut sink).unwrap();
//! drop(sink);
//! assert_eq!(hubs, vec![0]);
//! ```
//!
//! ## Concurrency: one shareable handle, write transactions, lock-free reads
//!
//! [`GraphflowDB`] is a cheap [`Clone`]-able, `Send + Sync` **handle**: clone it (or wrap it in
//! an `Arc` — a clone *is* two `Arc` bumps) and hand it to as many threads as you like. Reads
//! pin an immutable [`GraphSnapshot`] of the current epoch and then never touch a lock again;
//! writes go through a [`WriteTxn`] ([`begin_write`](GraphflowDB::begin_write) → staged updates
//! → [`commit`](WriteTxn::commit)), which stages on a private copy-on-write snapshot and
//! publishes **one new epoch atomically** — writers never block readers, and a reader sees
//! either all of a transaction or none of it:
//!
//! ```
//! use graphflow_core::GraphflowDB;
//! use graphflow_graph::{EdgeLabel, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let db = GraphflowDB::from_graph(b.build());
//! let triangles = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
//!
//! // The same owned prepared query executes from any thread through cloned handles.
//! let worker = std::thread::spawn({
//!     let triangles = triangles.clone();
//!     move || triangles.count().unwrap()
//! });
//! assert_eq!(worker.join().unwrap(), 0);
//!
//! // A write transaction publishes atomically; the closing edge appears to every
//! // later read at once.
//! let mut txn = db.begin_write();
//! txn.insert_edge(0, 2, EdgeLabel(0));
//! txn.commit();
//! assert_eq!(triangles.count().unwrap(), 1);
//! ```
//!
//! ## Dynamic updates
//!
//! The graph is live: edges and vertices can be inserted and deleted between (and logically,
//! under, thanks to snapshot isolation) queries. Updates land in a delta store layered over the
//! base CSR; queries run against an immutable [`GraphSnapshot`] of one delta epoch,
//! and [`compact`](GraphflowDB::compact) (explicit, or automatic past a threshold) folds the
//! deltas back into a fresh CSR. The single-call convenience wrappers below are each a
//! one-update [`WriteTxn`]:
//!
//! ```
//! use graphflow_core::GraphflowDB;
//! use graphflow_graph::{EdgeLabel, GraphView as _, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let db = GraphflowDB::from_graph(b.build());
//! assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), 0);
//!
//! // Close the triangle; the same prepared shape now matches once.
//! assert!(db.insert_edge(0, 2, EdgeLabel(0)));
//! assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), 1);
//!
//! // A snapshot taken now is isolated from later mutations.
//! let snap = db.snapshot();
//! db.delete_edge(0, 2, EdgeLabel(0));
//! assert!(snap.has_edge(0, 2, EdgeLabel(0)));
//! assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), 0);
//!
//! // Compaction is results-neutral.
//! db.compact();
//! assert_eq!(db.count("(a)->(b), (b)->(c)").unwrap(), 1);
//! ```
//!
//! The catalogue keeps its exact per-label counts current on every update and lazily resamples
//! drifted entries, and the plan cache keys on `(canonical query, statistics version)`, so once
//! updates cross the configured staleness threshold
//! ([`staleness_threshold`](GraphflowDBBuilder::staleness_threshold)) stale plans are
//! re-optimized instead of reused ([`PlanCacheStats::invalidations`] counts these).
//!
//! ## Typed properties and predicate pushdown
//!
//! Vertices and edges carry **typed properties** (int, float, bool, string — see
//! [`PropValue`]), written through the
//! [`GraphBuilder`](graphflow_graph::GraphBuilder), the loader's `key=value` columns, or the
//! live-update APIs ([`set_vertex_prop`](GraphflowDB::set_vertex_prop),
//! [`set_edge_prop`](GraphflowDB::set_edge_prop),
//! [`insert_vertex_with_props`](GraphflowDB::insert_vertex_with_props), property
//! [`Update`]s in [`apply_batch`](GraphflowDB::apply_batch)). Queries filter on
//! them with a `WHERE` clause of comparisons joined by `AND`; predicates are **pushed into the
//! compiled pipeline** — evaluated at the SCAN, during E/I extension, and while materialising
//! hash-join build sides, as early as the bound variables allow — rather than post-filtering
//! full matches, and the optimizer folds per-predicate selectivity into its cost model. The
//! plan cache canonicalizes predicate *constants* away, so `age > 30` and `age > 50` over the
//! same shape share one optimized plan:
//!
//! ```
//! use graphflow_core::GraphflowDB;
//! use graphflow_graph::{GraphBuilder, PropValue};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! for v in 0..3 {
//!     b.set_vertex_prop(v, "age", PropValue::Int(25 + 10 * v as i64)).unwrap();
//! }
//! b.set_edge_prop(0, 1, graphflow_graph::EdgeLabel(0), "weight", PropValue::Float(0.8))
//!     .unwrap();
//! let db = GraphflowDB::from_graph(b.build());
//!
//! let triangle = "(a)-[e]->(b), (b)->(c), (a)->(c)";
//! assert_eq!(
//!     db.count(&format!("{triangle} WHERE a.age <= 30 AND e.weight > 0.5")).unwrap(),
//!     1
//! );
//! assert_eq!(
//!     db.count(&format!("{triangle} WHERE a.age <= 20 AND e.weight > 0.1")).unwrap(),
//!     0
//! );
//! // Structurally equal predicates share one plan: only the constants differ.
//! assert_eq!(db.plan_cache_stats().misses, 1);
//! assert_eq!(db.plan_cache_stats().hits, 1);
//! ```
//!
//! ## Execution options, deadlines and cancellation
//!
//! [`QueryOptions`] is a fluent builder covering every execution mode studied in the paper —
//! fixed or adaptive query-vertex-ordering evaluation
//! ([`adaptive`](QueryOptions::adaptive)) on one or many worker threads
//! ([`threads`](QueryOptions::threads)), two independent settings of one executor — plus
//! the intersection cache toggle, output limits,
//! tuple collection, wall-clock deadlines ([`timeout`](QueryOptions::timeout), surfaced as
//! [`Error::Timeout`]) and cooperative cancellation
//! ([`cancel_token`](QueryOptions::cancel_token), surfaced as [`Error::Cancelled`];
//! [`PreparedQuery::execute_handle`] packages the pattern as a [`QueryHandle`] that any thread
//! can cancel). Plan inspection (`EXPLAIN`-style output) and the runtime statistics the
//! paper's experiments report (actual i-cost, intermediate match counts, cache hits) are
//! available through [`GraphflowDB::explain`] / [`PreparedQuery::explain`] and
//! [`QueryResult::stats`].

#![warn(missing_docs)]

use graphflow_catalog::Catalogue;
use graphflow_graph::{EdgeLabel, Graph, PropValue, Snapshot, Update, VertexId, VertexLabel};
use graphflow_plan::cost::CostModel;
use graphflow_plan::dp::PlanSpaceOptions;
use graphflow_storage::Store;
use parking_lot::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod error;
mod explain;
pub mod json;
mod metrics;
mod open;
mod options;
mod plan_cache;
mod prepared;
mod results;
mod txn;

pub use error::Error;
pub use explain::{ProfileNode, QueryProfile};
pub use graphflow_exec::{
    CallbackSink, CancellationToken, CandidateProfile, CollectingSink, CountingSink, LimitSink,
    MatchSink, OpCounters, OpProfile, Row, RuntimeStats, Value,
};
pub use graphflow_graph::{Snapshot as GraphSnapshot, Update as GraphUpdate};
pub use graphflow_query::returns::ReturnClause;
pub use graphflow_storage::Durability;
pub use metrics::{
    render_histogram_header, render_histogram_series, LatencyHistogram, LatencyRecorder, Metrics,
    SlowQuery, SLOW_LOG_CAPACITY,
};
pub use open::GraphflowDBBuilder;
pub use options::QueryOptions;
pub use plan_cache::PlanCacheStats;
pub use prepared::{PreparedQuery, QueryHandle};
pub use results::{QueryResult, ResultSet};
pub use txn::WriteTxn;

use metrics::{MetricsRegistry, SlowLog};
use open::persisted_counts;
use plan_cache::PlanCache;

/// Default number of plans kept in the facade's LRU plan cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// An in-memory graph database instance: graph + catalogue + optimizer + plan cache + executor.
///
/// `GraphflowDB` is a cheap **handle** (`Clone` is two `Arc` bumps) over shared, internally
/// synchronized state, and is `Send + Sync`: clone it across threads, or share one instance
/// behind an `Arc` — both spellings address the same database. Reads pin an immutable
/// [`Snapshot`] of the current epoch under a momentary read lock and then run lock-free;
/// writes are serialized through [`WriteTxn`]s that publish one new epoch atomically, so
/// **writers never block readers**.
///
/// The graph is **dynamic**: [`insert_vertex`](GraphflowDB::insert_vertex),
/// [`insert_edge`](GraphflowDB::insert_edge), [`delete_edge`](GraphflowDB::delete_edge) and
/// [`apply_batch`](GraphflowDB::apply_batch) are one-update write transactions over a delta
/// store layered over the base CSR ([`begin_write`](GraphflowDB::begin_write) batches many
/// updates into one atomic epoch), while queries always run against an immutable [`Snapshot`]
/// of one epoch. Snapshots handed out by [`snapshot`](GraphflowDB::snapshot) are isolated from
/// later mutations (copy-on-write), and [`compact`](GraphflowDB::compact) — called explicitly
/// or triggered by the configured threshold — folds the deltas back into a fresh CSR without
/// changing results.
#[derive(Clone)]
pub struct GraphflowDB {
    pub(crate) shared: Arc<DbShared>,
}

/// The shared, internally synchronized state behind every clone of a [`GraphflowDB`] handle.
pub(crate) struct DbShared {
    /// The current published epoch; readers clone it under a brief read lock, the single
    /// writer swaps in a new one at commit.
    pub(crate) current: RwLock<Snapshot>,
    /// Shared copy-on-write: readers clone the `Arc` under a momentary read lock and then
    /// hold no lock at all (planning and the adaptive executor run against their own
    /// reference); commits mutate through `Arc::make_mut` under the write lock.
    pub(crate) catalogue: RwLock<Arc<Catalogue>>,
    /// Bumped by `set_cost_model` / `set_plan_space`; part of the plan-cache version key, so
    /// a plan whose optimization straddled a configuration change can never be served from
    /// the cache afterwards.
    pub(crate) config_epoch: AtomicU64,
    pub(crate) cost_model: RwLock<CostModel>,
    pub(crate) plan_space: RwLock<PlanSpaceOptions>,
    /// Already thread-safe internally (atomics + its own mutex).
    pub(crate) plan_cache: PlanCache,
    /// Snapshot version at which cached plans were last considered fresh; part of the plan
    /// cache key, bumped by commits when the staleness clock crosses `staleness_threshold`.
    pub(crate) stats_version: AtomicU64,
    /// Serializes write transactions and guards the staleness clock.
    pub(crate) writer: Mutex<WriterState>,
    pub(crate) staleness_threshold: u64,
    pub(crate) compact_threshold: usize,
    /// The db-wide metrics registry: lock-free atomic counters accrued on the query and
    /// commit paths, snapshotted by [`GraphflowDB::metrics`].
    pub(crate) metrics: MetricsRegistry,
    /// The slow-query ring buffer; `Some` only when a
    /// [`slow_query_threshold`](GraphflowDBBuilder::slow_query_threshold) was configured.
    pub(crate) slow_log: Option<SlowLog>,
    /// The durability subsystem: `Some` when the database was opened over a data directory
    /// ([`GraphflowDBBuilder::data_dir`] / [`GraphflowDB::open`]), `None` for a purely
    /// in-memory database. Locked briefly by commits (WAL append) and checkpoints; never on
    /// the read path.
    pub(crate) storage: Option<Mutex<Store>>,
}

/// Writer-only bookkeeping, guarded by the writer mutex a [`WriteTxn`] holds.
pub(crate) struct WriterState {
    pub(crate) updates_since_stats: u64,
}

impl GraphflowDB {
    /// The base CSR of the current snapshot. Pending deltas are *not* visible through this
    /// handle — use [`snapshot`](GraphflowDB::snapshot) for the live graph (the two coincide
    /// whenever no updates are pending, e.g. right after construction or a compaction).
    pub fn graph(&self) -> Arc<Graph> {
        self.shared.current.read().base().clone()
    }

    /// An isolated snapshot of the current graph epoch (base CSR + pending deltas). Cheap to
    /// clone and unaffected by any mutation committed to the database afterwards; implements
    /// [`GraphView`](graphflow_graph::GraphView), so the `graphflow-exec` entry points and
    /// [`graphflow_catalog::count_matches`] accept it directly. This is the read path's only
    /// synchronization: a momentary read lock around two `Arc` bumps.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.current.read().clone()
    }

    /// The number of mutations committed since the database was built (compaction does not
    /// advance it: the logical graph is unchanged).
    pub fn graph_version(&self) -> u64 {
        self.shared.current.read().version()
    }

    /// The statistics version cached plans are currently keyed under; it trails
    /// [`graph_version`](GraphflowDB::graph_version) by at most the staleness threshold.
    pub fn stats_version(&self) -> u64 {
        self.shared.stats_version.load(Ordering::Acquire)
    }

    /// The subgraph catalogue: a cheap shared reference to the current revision. Safe to
    /// hold for as long as you like — commits install their maintenance through copy-on-write,
    /// so a held reference simply keeps observing the revision it was taken from.
    pub fn catalogue(&self) -> Arc<Catalogue> {
        self.shared.catalogue.read().clone()
    }

    // --- updates ----------------------------------------------------------------------------

    /// Open a write transaction: stage any number of updates, then
    /// [`commit`](WriteTxn::commit) them as **one atomically published epoch** — a concurrent
    /// reader sees all of them or none of them. Writers are serialized (a second
    /// `begin_write` blocks until the first transaction commits or drops); readers are never
    /// blocked. The single-update convenience methods below are thin wrappers over this.
    pub fn begin_write(&self) -> WriteTxn<'_> {
        WriteTxn::begin(self)
    }

    /// Append a new vertex carrying `label`, returning its id. A one-update [`WriteTxn`].
    pub fn insert_vertex(&self, label: VertexLabel) -> VertexId {
        let mut txn = self.begin_write();
        let v = txn.insert_vertex(label);
        txn.commit();
        v
    }

    /// Insert the directed edge `src -> dst` carrying `label`. Unknown endpoints are created
    /// on demand with the default vertex label. Returns `false` (and changes nothing) when the
    /// edge already exists. A one-update [`WriteTxn`].
    pub fn insert_edge(&self, src: VertexId, dst: VertexId, label: EdgeLabel) -> bool {
        let mut txn = self.begin_write();
        let inserted = txn.insert_edge(src, dst, label);
        txn.commit();
        inserted
    }

    /// Delete the directed edge `src -> dst` carrying `label`. Returns `false` (and changes
    /// nothing) when no such edge exists. A one-update [`WriteTxn`].
    pub fn delete_edge(&self, src: VertexId, dst: VertexId, label: EdgeLabel) -> bool {
        let mut txn = self.begin_write();
        let deleted = txn.delete_edge(src, dst, label);
        txn.commit();
        deleted
    }

    /// Set the typed property `key = value` on vertex `v`. The column's type is fixed by its
    /// first value; conflicting writes return [`Error::Property`]. A one-update [`WriteTxn`].
    pub fn set_vertex_prop(&self, v: VertexId, key: &str, value: PropValue) -> Result<(), Error> {
        let mut txn = self.begin_write();
        txn.set_vertex_prop(v, key, value)?;
        txn.commit();
        Ok(())
    }

    /// Set the typed property `key = value` on the (existing) edge `src -> dst` carrying
    /// `label`. A one-update [`WriteTxn`].
    pub fn set_edge_prop(
        &self,
        src: VertexId,
        dst: VertexId,
        label: EdgeLabel,
        key: &str,
        value: PropValue,
    ) -> Result<(), Error> {
        let mut txn = self.begin_write();
        txn.set_edge_prop(src, dst, label, key, value)?;
        txn.commit();
        Ok(())
    }

    /// Append a new vertex carrying `label` and an initial set of typed properties, returning
    /// its id. The vertex is created even if a property write fails (the error reports the
    /// first failing write; updates staged before the failure are still committed, matching
    /// the historical single-update semantics).
    pub fn insert_vertex_with_props(
        &self,
        label: VertexLabel,
        props: &[(&str, PropValue)],
    ) -> Result<VertexId, Error> {
        let mut txn = self.begin_write();
        let result = txn.insert_vertex_with_props(label, props);
        txn.commit();
        result
    }

    /// Apply a batch of [`Update`]s in order — as **one** write transaction, so the whole
    /// batch becomes visible to readers atomically — returning how many changed the graph
    /// (edge inserts of existing edges, deletes of missing edges, and property writes that
    /// fail their type/existence checks are no-ops).
    pub fn apply_batch(&self, updates: &[Update]) -> usize {
        let mut txn = self.begin_write();
        let applied = txn.apply_batch(updates);
        txn.commit();
        applied
    }

    /// Fold all pending deltas into a fresh base CSR. Results-neutral: every query returns
    /// exactly what it returned before the compaction, and the graph version is unchanged.
    /// Runs automatically once the pending-delta count crosses the configured
    /// [`compact_threshold`](GraphflowDBBuilder::compact_threshold).
    ///
    /// On a persistent database the compaction doubles as a **checkpoint**: the freshly
    /// folded CSR is written as a binary snapshot and the write-ahead log is truncated.
    /// **Panics** if that checkpoint hits a storage error (the in-memory compaction has
    /// already been published at that point); use [`checkpoint`](GraphflowDB::checkpoint) for
    /// the fallible spelling.
    pub fn compact(&self) {
        if let Err(e) = self.compact_inner(false) {
            panic!("checkpoint during compaction failed: {e} ({e:?})");
        }
    }

    /// Force a durable checkpoint: fold pending deltas into a fresh base CSR (as
    /// [`compact`](GraphflowDB::compact) would), write the folded graph as a binary snapshot,
    /// and truncate the write-ahead log. Recovery time after this is the cost of loading one
    /// snapshot. A no-op returning `Ok` on an in-memory database.
    pub fn checkpoint(&self) -> Result<(), Error> {
        self.compact_inner(true)
    }

    /// Shared body of [`compact`](GraphflowDB::compact) and
    /// [`checkpoint`](GraphflowDB::checkpoint): compaction always happens (and is published)
    /// when deltas are pending; the snapshot+WAL-truncate step runs when storage is attached
    /// and either deltas were folded or `force_checkpoint` demands a fresh snapshot anyway.
    fn compact_inner(&self, force_checkpoint: bool) -> Result<(), Error> {
        let _writer = self.shared.writer.lock();
        let mut snap = self.shared.current.read().clone();
        let folded = snap.has_pending_deltas();
        if folded {
            snap.compact();
            Arc::make_mut(&mut *self.shared.catalogue.write()).set_snapshot(snap.clone());
            *self.shared.current.write() = snap.clone();
        }
        if let Some(storage) = &self.shared.storage {
            if folded || force_checkpoint {
                let counts = persisted_counts(&self.shared.catalogue.read());
                let started = Instant::now();
                storage
                    .lock()
                    .checkpoint(snap.base(), snap.version(), &counts)?;
                self.shared.metrics.record_checkpoint(started.elapsed());
            }
        }
        Ok(())
    }

    /// Force all write-ahead-log frames onto stable storage — an fsync barrier usable under
    /// any [`Durability`] policy (under [`Durability::None`] this is the only thing that
    /// makes commits since the last checkpoint durable). A no-op on an in-memory database.
    pub fn sync(&self) -> Result<(), Error> {
        if let Some(storage) = &self.shared.storage {
            storage.lock().sync()?;
        }
        Ok(())
    }

    /// The data directory this database persists to, or `None` for an in-memory database.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.shared
            .storage
            .as_ref()
            .map(|s| s.lock().dir().to_path_buf())
    }

    /// Override the cost model used by the optimizer.
    ///
    /// Clears the plan cache: cached plans were chosen under the old model.
    pub fn set_cost_model(&self, model: CostModel) {
        *self.shared.cost_model.write() = model;
        // Epoch first, then clear: a plan optimized under the old model carries the old
        // epoch in its cache key, so even one inserted *after* the clear (its optimizer run
        // straddled this call) can never be served again.
        self.shared.config_epoch.fetch_add(1, Ordering::AcqRel);
        self.shared.plan_cache.clear();
    }

    /// Restrict the optimizer's plan space (WCO-only, BJ-only, or the default hybrid space).
    ///
    /// Clears the plan cache: cached plans may fall outside the new space.
    pub fn set_plan_space(&self, options: PlanSpaceOptions) {
        *self.shared.plan_space.write() = options;
        self.shared.config_epoch.fetch_add(1, Ordering::AcqRel);
        self.shared.plan_cache.clear();
    }

    /// Cumulative plan-cache counters (hits, misses = optimizer invocations, evictions, size).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.plan_cache.stats()
    }

    /// A point-in-time snapshot of every db-wide metric: query throughput and latency
    /// percentiles, plan-cache counters, commit/WAL/checkpoint activity, and the size of the
    /// published epoch's delta store. Cheap (atomic loads and one pass over the store's touched
    /// vertices; on a persistent database also a brief storage-lock acquisition for the WAL
    /// counters) and safe to call concurrently with queries and commits. Render the snapshot
    /// for a Prometheus scrape with [`Metrics::render`].
    ///
    /// ```
    /// # use graphflow_core::GraphflowDB;
    /// # use graphflow_graph::GraphBuilder;
    /// # let mut b = GraphBuilder::new();
    /// # b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 2);
    /// # let db = GraphflowDB::from_graph(b.build());
    /// db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap();
    /// let m = db.metrics();
    /// assert_eq!(m.queries_started, 1);
    /// assert_eq!(m.queries_completed, 1);
    /// assert!(m.render().contains("graphflow_queries_completed_total 1"));
    /// ```
    pub fn metrics(&self) -> Metrics {
        let wal = self.shared.storage.as_ref().map(|s| s.lock().wal_stats());
        let current = self.snapshot();
        self.shared.metrics.snapshot(
            self.plan_cache_stats(),
            wal,
            current.delta(),
            &self.catalogue(),
        )
    }

    /// The slow-query log: every recorded query whose latency reached the configured
    /// [`slow_query_threshold`](GraphflowDBBuilder::slow_query_threshold), oldest first
    /// (bounded at [`SLOW_LOG_CAPACITY`] entries — older ones are dropped). Empty when no
    /// threshold was configured.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared
            .slow_log
            .as_ref()
            .map(|log| log.entries())
            .unwrap_or_default()
    }
}

// Compile-time proof of the concurrency contract: the handle, prepared statements, result
// handles and tokens all cross threads. (`WriteTxn` deliberately does not — it holds the
// writer lock guard.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphflowDB>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<QueryHandle>();
    assert_send_sync::<CancellationToken>();
    assert_send_sync::<GraphSnapshot>();
    assert_send_sync::<QueryOptions>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_catalog::CatalogueConfig;
    use graphflow_graph::GraphBuilder;
    use graphflow_plan::PlanClass;
    use graphflow_query::patterns;

    fn db() -> GraphflowDB {
        let edges = graphflow_graph::generator::powerlaw_cluster(400, 4, 0.5, 77);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        GraphflowDB::from_graph(b.build())
    }

    #[test]
    fn count_matches_reference() {
        let db = db();
        let q = patterns::asymmetric_triangle();
        let expected = graphflow_catalog::count_matches(&db.graph(), &q);
        assert_eq!(db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap(), expected);
    }

    #[test]
    fn execution_modes_agree() {
        let db = db();
        let q = patterns::diamond_x();
        let expected = graphflow_catalog::count_matches(&db.graph(), &q);
        let fixed = db.run_query(&q, QueryOptions::default()).unwrap();
        let adaptive = db
            .run_query(&q, QueryOptions::new().adaptive(true))
            .unwrap();
        let parallel = db.run_query(&q, QueryOptions::new().threads(4)).unwrap();
        let both = db
            .run_query(&q, QueryOptions::new().adaptive(true).threads(4))
            .unwrap();
        assert_eq!(fixed.count, expected);
        assert_eq!(adaptive.count, expected);
        assert_eq!(parallel.count, expected);
        assert_eq!(both.count, expected);
        assert!(fixed.stats.icost > 0);
    }

    /// `stream_rows` takes any `FnMut`, `Send` or not: at several workers its rows still reach
    /// it on the calling thread, and they are the one-worker rows in another order.
    #[test]
    fn stream_rows_feeds_a_closure_that_is_not_send() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let db = db();
        let prepared = db
            .prepare("(a)->(b), (b)->(c), (a)->(c) RETURN a, c")
            .unwrap();
        let rows_at = |threads: usize| {
            let rows: Rc<RefCell<Vec<Row>>> = Rc::default();
            let seen = Rc::clone(&rows);
            prepared
                .stream_rows(QueryOptions::new().threads(threads), move |row| {
                    seen.borrow_mut().push(row.clone());
                    true
                })
                .unwrap();
            let mut rows = rows.take();
            rows.sort_unstable();
            rows
        };
        let serial = rows_at(1);
        assert!(
            serial.len() > 100,
            "the graph must have triangles to stream"
        );
        assert_eq!(rows_at(4), serial);
    }

    #[test]
    fn explain_mentions_operators() {
        let db = db();
        let text = db.explain("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert!(text.contains("SCAN"));
        assert!(text.contains("EXTEND/INTERSECT"));
        assert!(text.contains("plan class: WCO"));
    }

    #[test]
    fn errors_are_reported_with_sources() {
        use std::error::Error as _;
        let db = db();
        assert!(matches!(db.count("(a)->"), Err(Error::Parse(_))));
        let err = db.count("(a)->").unwrap_err();
        assert!(!err.to_string().is_empty());
        assert!(err.source().is_some(), "parse errors chain their source");
    }

    #[test]
    fn patterns_above_the_vertex_limit_are_parse_errors() {
        let db = db();
        let path = |n: usize| {
            let edges: Vec<String> = (1..n).map(|i| format!("(v{i})->(v{})", i + 1)).collect();
            edges.join(", ")
        };
        let prepared = db.prepare(&path(31)).expect("31 vertices are planned");
        assert_eq!(prepared.query().num_vertices(), 31);
        for n in [32, 33, 40] {
            assert!(
                matches!(db.prepare(&path(n)), Err(Error::Parse(_))),
                "{n} vertices"
            );
        }
    }

    #[test]
    fn plan_space_restrictions_apply() {
        let db = db();
        db.set_plan_space(PlanSpaceOptions::wco_only());
        let class = db
            .plan_class("(a)->(b), (b)->(c), (a)->(c), (c)->(d), (b)->(d)")
            .unwrap();
        assert_eq!(class, PlanClass::Wco);
    }

    #[test]
    fn set_plan_space_clears_the_plan_cache() {
        let db = db();
        let pattern = "(a)->(b), (b)->(c), (a)->(c), (c)->(d), (b)->(d)";
        db.count(pattern).unwrap();
        assert_eq!(db.plan_cache_stats().entries, 1);
        db.set_plan_space(PlanSpaceOptions::wco_only());
        assert_eq!(
            db.plan_cache_stats().entries,
            0,
            "stale plans must not survive a plan-space change"
        );
        assert_eq!(db.plan_class(pattern).unwrap(), PlanClass::Wco);
    }

    #[test]
    fn collected_tuples_respect_limit() {
        let db = db();
        let result = db
            .run(
                "(a)->(b), (b)->(c), (a)->(c)",
                QueryOptions::new().collect_tuples(true).collect_limit(7),
            )
            .unwrap();
        assert!(result.tuples.len() <= 7);
        assert!(result.count >= result.tuples.len() as u64);
    }

    #[test]
    fn prepared_queries_amortize_planning() {
        let db = db();
        let first = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert!(!first.was_cached());
        let second = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert!(second.was_cached());
        let stats = db.plan_cache_stats();
        assert_eq!(stats.misses, 1, "exactly one optimizer invocation");
        assert_eq!(stats.hits, 1);
        assert_eq!(first.count().unwrap(), second.count().unwrap());
        // The per-run stats carry the cache outcome.
        let run = second.run(QueryOptions::default()).unwrap();
        assert_eq!(run.stats.plan_cache_hits, 1);
        assert_eq!(run.stats.plan_cache_misses, 0);
    }

    #[test]
    fn isomorphic_rewritings_share_a_plan_and_remap_tuples() {
        let db = db();
        let original = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        // Same triangle, renamed vertices and shuffled clauses: (x)->(y) plays the (b)->(c)
        // role, so the cached tree must be renumbered for tuples to come out in x, y, z order.
        let rewritten = db.prepare("(y)->(z), (x)->(y), (x)->(z)").unwrap();
        assert!(rewritten.was_cached());
        let a = original
            .run(QueryOptions::new().collect_tuples(true))
            .unwrap();
        let b = rewritten
            .run(QueryOptions::new().collect_tuples(true))
            .unwrap();
        assert_eq!(a.count, b.count);
        // Tuple positions follow each query's own vertex numbering (order of first
        // appearance), so compare through the role names: (x, y, z) plays (a, b, c).
        let xi = rewritten.query().vertex_index("x").unwrap();
        let yi = rewritten.query().vertex_index("y").unwrap();
        let zi = rewritten.query().vertex_index("z").unwrap();
        let mut ta = a.tuples.clone();
        let mut tb: Vec<Vec<u32>> = b.tuples.iter().map(|t| vec![t[xi], t[yi], t[zi]]).collect();
        ta.sort_unstable();
        tb.sort_unstable();
        assert_eq!(ta, tb, "remapped tuples must be the same matches");
        // Every rewritten tuple respects its own query's edges: x->y, y->z, x->z.
        for t in &b.tuples {
            let (x, y, z) = (t[xi], t[yi], t[zi]);
            assert!(db.graph().has_edge(x, y, graphflow_graph::EdgeLabel(0)));
            assert!(db.graph().has_edge(y, z, graphflow_graph::EdgeLabel(0)));
            assert!(db.graph().has_edge(x, z, graphflow_graph::EdgeLabel(0)));
        }
    }

    #[test]
    fn streaming_sink_agrees_with_count() {
        let db = db();
        let pattern = "(a)->(b), (b)->(c), (a)->(c)";
        let expected = db.count(pattern).unwrap();
        let mut streamed = 0u64;
        let stats = {
            let mut sink = CallbackSink::new(|_t: &[u32]| {
                streamed += 1;
                true
            });
            db.run_with_sink(pattern, QueryOptions::default(), &mut sink)
                .unwrap()
        };
        assert_eq!(streamed, expected);
        assert_eq!(stats.output_count, expected);
    }

    /// Two triangles whose vertices carry `age = 10 * id` and whose edges carry
    /// `w = 0.1 * src`.
    fn props_db() -> GraphflowDB {
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
        for &(s, d, l) in b.clone().build().edges() {
            b.set_edge_prop(s, d, l, "w", PropValue::Float(0.1 * s as f64))
                .unwrap();
        }
        GraphflowDB::from_graph(b.build())
    }

    #[test]
    fn predicate_queries_run_and_push_down() {
        let db = props_db();
        let triangle = "(a)->(b), (b)->(c), (a)->(c)";
        assert_eq!(db.count(triangle).unwrap(), 2);
        assert_eq!(
            db.count(&format!("{triangle} WHERE a.age >= 30")).unwrap(),
            1
        );
        assert_eq!(
            db.count(&format!("{triangle} WHERE b.age = 40")).unwrap(),
            1
        );
        assert_eq!(
            db.count(&format!("{triangle} WHERE a.age > 99")).unwrap(),
            0
        );
        // Edge predicate through a named edge.
        assert_eq!(
            db.count("(a)-[e]->(b), (b)->(c), (a)->(c) WHERE e.w > 0.2")
                .unwrap(),
            1
        );
        // Pushdown is observable in the stats, and every executor setting agrees.
        let filtered = db
            .run(
                &format!("{triangle} WHERE a.age >= 30"),
                QueryOptions::default(),
            )
            .unwrap();
        assert!(filtered.stats.predicate_evals > 0);
        assert!(filtered.stats.predicate_drops > 0);
        for opts in [
            QueryOptions::new().adaptive(true),
            QueryOptions::new().threads(4),
        ] {
            let out = db
                .run(&format!("{triangle} WHERE a.age >= 30"), opts)
                .unwrap();
            assert_eq!(out.count, 1);
        }
    }

    #[test]
    fn plan_cache_canonicalizes_predicate_constants() {
        let db = props_db();
        let triangle = "(a)->(b), (b)->(c), (a)->(c)";
        let loose = db.prepare(&format!("{triangle} WHERE a.age >= 0")).unwrap();
        assert!(!loose.was_cached());
        assert_eq!(loose.count().unwrap(), 2);
        // Same structure, different constant: plan-cache hit, different answer.
        let tight = db
            .prepare(&format!("{triangle} WHERE a.age >= 30"))
            .unwrap();
        assert!(tight.was_cached(), "constants are canonicalized away");
        assert_eq!(tight.count().unwrap(), 1);
        assert_eq!(db.plan_cache_stats().misses, 1, "one optimizer run");
        // An isomorphic rewriting with yet another constant still hits, and remaps tuples.
        let twin = db
            .prepare("(y)->(z), (x)->(y), (x)->(z) WHERE x.age >= 30")
            .unwrap();
        assert!(twin.was_cached());
        assert_eq!(twin.count().unwrap(), 1);
        let run = twin.run(QueryOptions::new().collect_tuples(true)).unwrap();
        let xi = twin.query().vertex_index("x").unwrap();
        assert_eq!(run.tuples.len(), 1);
        assert_eq!(run.tuples[0][xi], 3, "x plays the filtered (a) role");
        // A different predicate *structure* (another operator) is a different cache entry.
        let other_op = db.prepare(&format!("{triangle} WHERE a.age = 30")).unwrap();
        assert!(!other_op.was_cached());
        // As is the bare pattern.
        let bare = db.prepare(triangle).unwrap();
        assert!(!bare.was_cached());
        assert_eq!(bare.count().unwrap(), 2);
    }

    #[test]
    fn return_clauses_share_plans_and_count_star_takes_the_fast_path() {
        let db = db();
        let triangle = "(a)->(b), (b)->(c), (a)->(c)";
        let bare = db.prepare(triangle).unwrap();
        assert!(!bare.was_cached());
        // Queries differing only in RETURN are plan-cache hits: the clause is excluded from
        // the canonical form.
        let counted = db.prepare(&format!("{triangle} RETURN COUNT(*)")).unwrap();
        assert!(counted.was_cached());
        let projected = db.prepare(&format!("{triangle} RETURN a, b")).unwrap();
        assert!(projected.was_cached());
        assert_eq!(db.plan_cache_stats().misses, 1, "one optimizer run total");

        let expected = bare.count().unwrap();
        assert!(expected > 0);
        // COUNT(*) agrees with the raw count under every executor setting, and the serial /
        // parallel runs bulk-count the final extension column instead of materialising it.
        for opts in [
            QueryOptions::new(),
            QueryOptions::new().adaptive(true),
            QueryOptions::new().threads(4),
        ] {
            let rs = counted.execute(opts.clone()).unwrap();
            assert_eq!(rs.scalar_count(), Some(expected));
            assert!(
                rs.stats.bulk_counted_extensions > 0,
                "fast path fired (opts {opts:?})"
            );
        }
        // RETURN * produces full tuples with vertex-named columns.
        let rs = projected.execute(QueryOptions::default()).unwrap();
        assert_eq!(rs.columns(), ["a", "b"]);
        assert_eq!(rs.len(), expected as usize);
    }

    #[test]
    fn execute_runs_projections_and_grouped_aggregates() {
        let db = props_db();
        // Grouped aggregate over the two triangles: one group per apex vertex.
        let rs = db
            .query("(a)->(b), (b)->(c), (a)->(c) RETURN a, COUNT(*), MIN(c.age)")
            .unwrap();
        assert_eq!(rs.columns(), ["a", "COUNT(*)", "MIN(c.age)"]);
        assert_eq!(
            rs.rows(),
            &[
                vec![
                    Some(PropValue::Int(0)),
                    Some(PropValue::Int(1)),
                    Some(PropValue::Int(20))
                ],
                vec![
                    Some(PropValue::Int(3)),
                    Some(PropValue::Int(1)),
                    Some(PropValue::Int(50))
                ],
            ]
        );
        // Projection with ORDER BY + LIMIT (top-K) and DISTINCT.
        let rs = db
            .query("(a)->(b) RETURN DISTINCT a.age ORDER BY a.age DESC LIMIT 2")
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[
                vec![Some(PropValue::Int(40))],
                vec![Some(PropValue::Int(30))]
            ]
        );
        // Global aggregate over an empty match set still yields its one row.
        let rs = db
            .query("(a)->(b) WHERE a.age > 999 RETURN COUNT(*), MAX(b.age)")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Some(PropValue::Int(0)), None]]);
        // No RETURN behaves as RETURN *.
        let rs = db.query("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        assert_eq!(rs.columns(), ["a", "b", "c"]);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn executors_agree_on_result_sets_including_remapped_twins() {
        let db = props_db();
        let pattern = "(a)-[e]->(b), (b)->(c), (a)->(c) RETURN a, SUM(e.w), AVG(c.age)";
        let reference = db.query(pattern).unwrap();
        for opts in [
            QueryOptions::new().adaptive(true),
            QueryOptions::new().threads(4),
        ] {
            let rs = db.query_with(pattern, opts.clone()).unwrap();
            assert_eq!(rs.rows(), reference.rows(), "{opts:?}");
        }
        // An isomorphic rewriting is a cache hit whose plan is renumbered, so the aggregation
        // sink sees tuples in the twin's own numbering: x plays the (a) role.
        let twin = db
            .prepare("(y)->(z), (x)-[f]->(y), (x)->(z) RETURN x, SUM(f.w), AVG(z.age)")
            .unwrap();
        assert!(twin.was_cached());
        let rs = twin.execute(QueryOptions::default()).unwrap();
        assert_eq!(rs.rows(), reference.rows());
        // Parallel execution of the twin folds into the sink's own thread-local partials and
        // must agree too.
        let rs = twin.execute(QueryOptions::new().threads(4)).unwrap();
        assert_eq!(rs.rows(), reference.rows());
    }

    #[test]
    fn property_updates_are_live_and_isolated() {
        let db = props_db();
        let q = "(a)->(b), (b)->(c), (a)->(c) WHERE a.age >= 30";
        assert_eq!(db.count(q).unwrap(), 1);
        let before = db.snapshot();
        // Raising vertex 0's age makes the first triangle match too.
        db.set_vertex_prop(0, "age", PropValue::Int(70)).unwrap();
        assert_eq!(db.count(q).unwrap(), 2);
        // The pre-update snapshot still answers with the old property value.
        use graphflow_graph::GraphView as _;
        assert_eq!(before.vertex_prop(0, "age"), Some(PropValue::Int(0)));
        // Type mismatches surface as unified errors with a source.
        let err = db
            .set_vertex_prop(0, "age", PropValue::str("old"))
            .unwrap_err();
        assert!(matches!(err, Error::Property(_)));
        assert!(std::error::Error::source(&err).is_some());
        // Deleting an edge drops its properties; compaction is results-neutral.
        let eq = "(a)-[e]->(b), (b)->(c), (a)->(c) WHERE e.w > 0.2";
        assert_eq!(db.count(eq).unwrap(), 1);
        db.delete_edge(3, 4, EdgeLabel(0));
        assert_eq!(db.count(eq).unwrap(), 0);
        db.compact();
        assert_eq!(db.count(q).unwrap(), 1);
        assert_eq!(db.count(eq).unwrap(), 0);
    }

    #[test]
    fn apply_batch_sets_properties() {
        let db = props_db();
        let applied = db.apply_batch(&[
            Update::InsertVertex {
                label: VertexLabel(0),
            },
            Update::SetVertexProp {
                v: 6,
                key: "age".into(),
                value: PropValue::Int(100),
            },
            Update::SetEdgeProp {
                src: 0,
                dst: 1,
                label: EdgeLabel(0),
                key: "w".into(),
                value: PropValue::Float(0.9),
            },
            // Type mismatch and missing edge are counted as no-ops.
            Update::SetVertexProp {
                v: 6,
                key: "age".into(),
                value: PropValue::Bool(true),
            },
            Update::SetEdgeProp {
                src: 5,
                dst: 0,
                label: EdgeLabel(0),
                key: "w".into(),
                value: PropValue::Float(0.5),
            },
        ]);
        assert_eq!(applied, 3);
        use graphflow_graph::GraphView as _;
        assert_eq!(
            db.snapshot().vertex_prop(6, "age"),
            Some(PropValue::Int(100))
        );
        assert_eq!(
            db.count("(a)-[e]->(b), (b)->(c), (a)->(c) WHERE e.w > 0.5")
                .unwrap(),
            1
        );
        let v = db
            .insert_vertex_with_props(VertexLabel(1), &[("age", PropValue::Int(7))])
            .unwrap();
        assert_eq!(db.snapshot().vertex_prop(v, "age"), Some(PropValue::Int(7)));
    }

    #[test]
    fn updates_change_query_results() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let db = GraphflowDB::from_graph(b.build());
        let triangle = "(a)->(b), (b)->(c), (a)->(c)";
        assert_eq!(db.count(triangle).unwrap(), 0);
        assert!(db.insert_edge(0, 2, EdgeLabel(0)));
        assert!(!db.insert_edge(0, 2, EdgeLabel(0)), "duplicate insert");
        assert_eq!(db.count(triangle).unwrap(), 1);
        assert_eq!(db.graph_version(), 1);
        // Every executor setting sees the same snapshot.
        let adaptive = db
            .run(triangle, QueryOptions::new().adaptive(true))
            .unwrap();
        let parallel = db.run(triangle, QueryOptions::new().threads(4)).unwrap();
        assert_eq!(adaptive.count, 1);
        assert_eq!(parallel.count, 1);
        assert!(db.delete_edge(0, 2, EdgeLabel(0)));
        assert_eq!(db.count(triangle).unwrap(), 0);
    }

    #[test]
    fn snapshots_are_isolated_and_compaction_is_neutral() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let db = GraphflowDB::from_graph(b.build());
        let before = db.snapshot();
        db.delete_edge(0, 2, EdgeLabel(0));
        db.insert_edge(2, 3, EdgeLabel(0));
        // The old snapshot still answers with the pre-update graph.
        use graphflow_graph::GraphView as _;
        assert!(before.has_edge(0, 2, EdgeLabel(0)));
        assert_eq!(before.num_edges(), 3);
        assert_eq!(
            graphflow_catalog::count_matches(&before, &patterns::asymmetric_triangle()),
            1
        );
        // Compaction changes neither results nor the version.
        let version = db.graph_version();
        let count_before = db.count("(a)->(b), (b)->(c)").unwrap();
        db.compact();
        assert_eq!(db.graph_version(), version);
        assert_eq!(db.count("(a)->(b), (b)->(c)").unwrap(), count_before);
        assert!(!db.snapshot().has_pending_deltas());
        assert_eq!(db.graph().num_edges(), 3, "deltas folded into the base CSR");
    }

    #[test]
    fn apply_batch_counts_applied_updates() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let db = GraphflowDB::from_graph(b.build());
        let applied = db.apply_batch(&[
            Update::InsertVertex {
                label: VertexLabel(0),
            },
            Update::InsertEdge {
                src: 1,
                dst: 2,
                label: EdgeLabel(0),
            },
            Update::InsertEdge {
                src: 0,
                dst: 1,
                label: EdgeLabel(0),
            }, // already exists
            Update::DeleteEdge {
                src: 5,
                dst: 6,
                label: EdgeLabel(0),
            }, // missing
        ]);
        assert_eq!(applied, 2);
        assert_eq!(db.count("(a)->(b), (b)->(c)").unwrap(), 1);
    }

    #[test]
    fn staleness_threshold_triggers_plan_reoptimization() {
        let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.5, 9);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let db = GraphflowDB::builder(b.build())
            .staleness_threshold(4)
            .build();
        let pattern = "(a)->(b), (b)->(c), (a)->(c)";
        db.count(pattern).unwrap();
        db.count(pattern).unwrap();
        assert_eq!(db.plan_cache_stats().hits, 1);
        assert_eq!(db.plan_cache_stats().invalidations, 0);

        // Two updates (deletes of existing edges are exactly one update each): below the
        // threshold, the cached plan is still served.
        let victims: Vec<_> = db.graph().edges().iter().copied().take(4).collect();
        assert!(db.delete_edge(victims[0].0, victims[0].1, victims[0].2));
        assert!(db.delete_edge(victims[1].0, victims[1].1, victims[1].2));
        assert_eq!(db.stats_version(), 0);
        db.count(pattern).unwrap();
        assert_eq!(db.plan_cache_stats().hits, 2);

        // Crossing the threshold bumps the statistics version: the old-version plan must not
        // be reused, and the catalogue's exact counts reflect the mutated graph.
        let edge_count_before = db.catalogue().edge_count(
            EdgeLabel(0),
            graphflow_graph::VertexLabel(0),
            graphflow_graph::VertexLabel(0),
        );
        assert!(db.delete_edge(victims[2].0, victims[2].1, victims[2].2));
        assert!(db.delete_edge(victims[3].0, victims[3].1, victims[3].2));
        assert!(db.stats_version() > 0, "statistics version advanced");
        let misses_before = db.plan_cache_stats().misses;
        db.count(pattern).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!(stats.invalidations, 1, "stale plan dropped, not reused");
        assert_eq!(stats.misses, misses_before + 1, "optimizer ran again");
        assert!(
            db.catalogue().edge_count(
                EdgeLabel(0),
                graphflow_graph::VertexLabel(0),
                graphflow_graph::VertexLabel(0)
            ) < edge_count_before,
            "catalogue exact counts track updates incrementally"
        );
        assert_eq!(db.catalogue().total_updates(), 4);
    }

    #[test]
    fn auto_compaction_triggers_at_threshold() {
        let mut b = GraphBuilder::with_vertices(5);
        b.add_edge(0, 1);
        let db = GraphflowDB::builder(b.build()).compact_threshold(3).build();
        db.insert_edge(1, 2, EdgeLabel(0));
        db.insert_edge(2, 3, EdgeLabel(0));
        assert!(
            db.snapshot().has_pending_deltas(),
            "2 pending < threshold 3"
        );
        db.insert_edge(3, 4, EdgeLabel(0));
        assert!(
            !db.snapshot().has_pending_deltas(),
            "threshold crossed: deltas folded into the CSR automatically"
        );
        assert_eq!(db.graph().num_edges(), 4);
        assert_eq!(db.count("(a)->(b)").unwrap(), 4);
    }

    #[test]
    fn delta_merges_are_observable_in_stats() {
        let edges = graphflow_graph::generator::powerlaw_cluster(150, 3, 0.5, 3);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let db = GraphflowDB::from_graph(b.build());
        let pattern = "(a)->(b), (b)->(c), (a)->(c)";
        let clean = db.run(pattern, QueryOptions::default()).unwrap();
        assert_eq!(clean.stats.delta_merges, 0, "no deltas, no merges");
        // Touch a vertex that participates in triangles, then re-run.
        let (u, v, _) = db.graph().edges()[0];
        db.delete_edge(u, v, EdgeLabel(0));
        db.insert_edge(u, v, EdgeLabel(0));
        let dirty = db.run(pattern, QueryOptions::default()).unwrap();
        assert_eq!(dirty.count, clean.count, "cancelled updates change nothing");
        // The cancelled pair leaves no overlay, so this is still merge-free; a real overlay
        // shows up in the counter.
        let n = db.graph().num_vertices() as u32;
        db.insert_edge(u, n, EdgeLabel(0));
        let overlaid = db.run(pattern, QueryOptions::default()).unwrap();
        assert!(overlaid.stats.delta_merges > 0, "merged lists are counted");
    }

    #[test]
    fn builder_configures_everything() {
        let edges = graphflow_graph::generator::powerlaw_cluster(200, 3, 0.4, 5);
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let db = GraphflowDB::builder(b.build())
            .plan_space(PlanSpaceOptions::wco_only())
            .cost_model(CostModel::default())
            .catalogue_config(CatalogueConfig::default())
            .plan_cache_capacity(2)
            .build();
        assert_eq!(db.plan_cache_stats().capacity, 2);
        // Three distinct shapes through a 2-entry cache force an eviction.
        db.count("(a)->(b), (b)->(c), (a)->(c)").unwrap();
        db.count("(a)->(b), (b)->(c)").unwrap();
        db.count("(a)->(b), (b)->(c), (c)->(d)").unwrap();
        assert_eq!(db.plan_cache_stats().evictions, 1);
    }
}
