//! Building and opening a database: [`GraphflowDBBuilder`], the constructors on
//! [`GraphflowDB`], and crash recovery over a data directory.

use crate::metrics::{MetricsRegistry, SlowLog};
use crate::plan_cache::PlanCache;
use crate::{txn, DbShared, Error, GraphflowDB, WriterState, DEFAULT_PLAN_CACHE_CAPACITY};
use graphflow_catalog::{Catalogue, CatalogueConfig};
use graphflow_graph::{EdgeLabel, Graph, GraphBuilder, Snapshot, VertexLabel};
use graphflow_plan::cost::CostModel;
use graphflow_plan::dp::PlanSpaceOptions;
use graphflow_storage::{Durability, PersistedCounts, Store};
use parking_lot::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configures and builds a [`GraphflowDB`].
///
/// ```
/// use graphflow_core::GraphflowDB;
/// use graphflow_catalog::CatalogueConfig;
/// use graphflow_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// let db = GraphflowDB::builder(b.build())
///     .catalogue_config(CatalogueConfig { h: 2, ..Default::default() })
///     .plan_cache_capacity(16)
///     .build();
/// assert_eq!(db.plan_cache_stats().capacity, 16);
/// ```
pub struct GraphflowDBBuilder {
    graph: Arc<Graph>,
    catalogue_config: CatalogueConfig,
    cost_model: CostModel,
    plan_space: PlanSpaceOptions,
    plan_cache_capacity: usize,
    staleness_threshold: Option<u64>,
    compact_threshold: Option<usize>,
    slow_query_threshold: Option<Duration>,
    data_dir: Option<PathBuf>,
    durability: Durability,
}

impl GraphflowDBBuilder {
    /// Catalogue construction parameters (`h`, `z`, sampling caps; paper Section 5).
    pub fn catalogue_config(mut self, config: CatalogueConfig) -> Self {
        self.catalogue_config = config;
        self
    }

    /// The cost model used by the optimizer (paper Sections 3.3–4.2).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Restrict the optimizer's plan space (WCO-only, BJ-only, or the default hybrid space).
    pub fn plan_space(mut self, options: PlanSpaceOptions) -> Self {
        self.plan_space = options;
        self
    }

    /// Number of plans kept in the LRU plan cache (0 disables caching; default
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Number of graph updates after which the database bumps its statistics version, forcing
    /// cached plans to be re-optimized against the drifted graph instead of silently reusing
    /// dead statistics. Defaults to the catalogue's
    /// [`refresh_after`](graphflow_catalog::CatalogueConfig::refresh_after), so plans and
    /// sampled statistics drift out together.
    pub fn staleness_threshold(mut self, updates: u64) -> Self {
        self.staleness_threshold = Some(updates.max(1));
        self
    }

    /// Number of pending delta entries (inserted + deleted edges + new vertices) that triggers
    /// an automatic [`compact`](GraphflowDB::compact) after an update. Defaults to
    /// `max(4096, base edges / 2)`; `usize::MAX` disables automatic compaction.
    pub fn compact_threshold(mut self, pending: usize) -> Self {
        self.compact_threshold = Some(pending.max(1));
        self
    }

    /// Record every query whose wall-clock latency reaches `threshold` in a bounded
    /// in-memory ring buffer ([`SLOW_LOG_CAPACITY`](crate::SLOW_LOG_CAPACITY) entries, oldest
    /// dropped first), readable through [`GraphflowDB::slow_queries`]. Each record carries the
    /// executed query's canonical text, its latency, its actual i-cost and the plan's
    /// structural fingerprint. Off by default — without a threshold the query path pays
    /// nothing.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Persist the database in `dir`: every committed [`WriteTxn`](crate::WriteTxn) is
    /// write-ahead logged before its epoch is published, compactions double as
    /// binary-snapshot checkpoints, and reopening the directory
    /// ([`open`](GraphflowDBBuilder::open) or [`GraphflowDB::open`]) recovers the last
    /// durably committed epoch. When the directory already holds data, that
    /// data wins over the builder's graph; a fresh directory is seeded with the builder's
    /// graph as its first snapshot.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// How much durability a commit buys before it returns (default
    /// [`Durability::Fsync`]). Only meaningful together with
    /// [`data_dir`](GraphflowDBBuilder::data_dir).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Build the database (constructs the catalogue; entries are sampled lazily).
    ///
    /// Infallible spelling of [`open`](GraphflowDBBuilder::open): **panics** on a storage
    /// error when a [`data_dir`](GraphflowDBBuilder::data_dir) is configured (without one no
    /// storage is touched and no panic is possible).
    pub fn build(self) -> GraphflowDB {
        match self.open() {
            Ok(db) => db,
            Err(e) => panic!("failed to open database directory: {e} ({e:?})"),
        }
    }

    /// Build the database, opening (and if necessary creating and seeding) the configured
    /// [`data_dir`](GraphflowDBBuilder::data_dir) and running crash recovery: the newest
    /// valid snapshot is loaded, write-ahead-log records past it are replayed in commit
    /// order, a torn WAL tail (crash mid-append) is truncated, and the database comes up at
    /// the last durably committed epoch.
    pub fn open(self) -> Result<GraphflowDB, Error> {
        let Some(dir) = self.data_dir.clone() else {
            let snapshot = Snapshot::new(self.graph.clone());
            let catalogue = Catalogue::for_snapshot(snapshot.clone(), self.catalogue_config);
            return Ok(self.assemble(snapshot, catalogue, None));
        };
        let load_started = Instant::now();
        let (mut store, recovered) = Store::open(&dir, self.durability)?;
        // An existing snapshot wins over the builder's graph: the directory's contents are
        // the durable truth, the builder graph only seeds a fresh directory.
        let had_snapshot = recovered.snapshot.is_some();
        let (base, base_epoch, counts) = match recovered.snapshot {
            Some(s) => (Arc::new(s.graph), s.epoch, Some(s.counts)),
            None => (self.graph.clone(), 0, None),
        };
        let mut snap = Snapshot::new(base);
        snap.set_version(base_epoch);
        let mut catalogue = match &counts {
            Some(c) => Catalogue::for_snapshot_with_counts(
                snap.clone(),
                self.catalogue_config,
                c.vertex_counts.iter().map(|&(l, n)| (VertexLabel(l), n)),
                c.edge_counts
                    .iter()
                    .map(|&(el, sl, dl, n)| ((EdgeLabel(el), VertexLabel(sl), VertexLabel(dl)), n)),
            ),
            None => Catalogue::for_snapshot(snap.clone(), self.catalogue_config),
        };
        // Replay restages every journalled update exactly as the transaction that wrote it
        // did, so the catalogue's exact counts come back as they were.
        let mut cat_ops = Vec::new();
        for batch in &recovered.batches {
            for update in &batch.updates {
                // The log only holds updates that took effect; one that is rejected now is
                // skipped, as it always has been, rather than failing the whole recovery.
                let _ = txn::stage_update(&mut snap, &mut cat_ops, update);
            }
            for op in cat_ops.drain(..) {
                op.apply(&mut catalogue);
            }
            // Pin the replayed state to the epoch the WAL recorded, so version numbers stay
            // monotone across restarts regardless of how replay counted its mutations.
            snap.set_version(batch.epoch);
        }
        if !recovered.batches.is_empty() {
            catalogue.set_snapshot(snap.clone());
        }
        if !had_snapshot {
            // First open of this directory: fold any replayed updates into the base CSR and
            // install it as the initial snapshot, so recovery always has a base image and the
            // WAL can start empty.
            if snap.has_pending_deltas() {
                snap.compact();
                catalogue.set_snapshot(snap.clone());
            }
            store.checkpoint(snap.base(), snap.version(), &persisted_counts(&catalogue))?;
        }
        let db = self.assemble(snap, catalogue, Some(store));
        db.shared.metrics.snapshot_load_ns.store(
            load_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        Ok(db)
    }

    fn assemble(
        self,
        snapshot: Snapshot,
        catalogue: Catalogue,
        storage: Option<Store>,
    ) -> GraphflowDB {
        let staleness_threshold = self
            .staleness_threshold
            .unwrap_or_else(|| self.catalogue_config.refresh_after.max(1));
        let compact_threshold = self
            .compact_threshold
            .unwrap_or_else(|| (snapshot.base().num_edges() / 2).max(4096));
        GraphflowDB {
            shared: Arc::new(DbShared {
                stats_version: AtomicU64::new(snapshot.version()),
                current: RwLock::new(snapshot),
                catalogue: RwLock::new(Arc::new(catalogue)),
                config_epoch: AtomicU64::new(0),
                cost_model: RwLock::new(self.cost_model),
                plan_space: RwLock::new(self.plan_space),
                plan_cache: PlanCache::new(self.plan_cache_capacity),
                writer: Mutex::new(WriterState {
                    updates_since_stats: 0,
                }),
                staleness_threshold,
                compact_threshold,
                metrics: MetricsRegistry::default(),
                slow_log: self.slow_query_threshold.map(SlowLog::new),
                storage: storage.map(Mutex::new),
            }),
        }
    }
}

/// Export the catalogue's exact counts in the storage crate's id-level wire shape.
pub(crate) fn persisted_counts(catalogue: &Catalogue) -> PersistedCounts {
    let (vertex_counts, edge_counts) = catalogue.exact_counts();
    PersistedCounts {
        vertex_counts: vertex_counts.into_iter().map(|(l, n)| (l.0, n)).collect(),
        edge_counts: edge_counts
            .into_iter()
            .map(|((el, sl, dl), n)| (el.0, sl.0, dl.0, n))
            .collect(),
    }
}

impl GraphflowDB {
    /// Start configuring a database over a graph (see [`GraphflowDBBuilder`]).
    pub fn builder(graph: impl Into<Arc<Graph>>) -> GraphflowDBBuilder {
        GraphflowDBBuilder {
            graph: graph.into(),
            catalogue_config: CatalogueConfig::default(),
            cost_model: CostModel::default(),
            plan_space: PlanSpaceOptions::default(),
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            staleness_threshold: None,
            compact_threshold: None,
            slow_query_threshold: None,
            data_dir: None,
            durability: Durability::default(),
        }
    }

    /// Open (creating if needed) a persistent database in `dir` with all-default
    /// configuration, running crash recovery: load the newest valid snapshot, replay the
    /// write-ahead log past it, truncate any torn tail, and come up at the last durably
    /// committed epoch. Equivalent to
    /// `GraphflowDB::builder(empty graph).data_dir(dir).open()` — see
    /// [`GraphflowDBBuilder::open`] for the recovery protocol and
    /// [`GraphflowDBBuilder::data_dir`] for how existing data interacts with a seed graph.
    pub fn open(dir: impl Into<PathBuf>) -> Result<GraphflowDB, Error> {
        Self::builder(GraphBuilder::new().build())
            .data_dir(dir)
            .open()
    }

    /// Create a database over an already-built graph with all-default configuration
    /// (catalogue `h = 3`, `z = 1000`; plan cache of [`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn from_graph(graph: Graph) -> Self {
        Self::builder(graph).build()
    }

    /// Create a database over a shared graph with an explicit catalogue configuration.
    pub fn with_config(graph: Arc<Graph>, config: CatalogueConfig) -> Self {
        Self::builder(graph).catalogue_config(config).build()
    }
}
