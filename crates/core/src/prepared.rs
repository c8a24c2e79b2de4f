//! Prepared queries: parse + canonicalize + optimize once, execute many times — from any
//! thread — plus the [`QueryHandle`] wrapper for cancellable background execution.

use crate::explain::QueryProfile;
use crate::{CancellationToken, Error, GraphflowDB, QueryOptions, QueryResult};
use graphflow_exec::{MatchSink, PartialSink, RuntimeStats};
use graphflow_graph::{Snapshot, VertexId};
use graphflow_plan::{PlanClass, PlanHandle};
use graphflow_query::QueryGraph;

/// A query whose expensive front half — parsing, canonicalization and cost-based optimization —
/// has already been done. Created by [`GraphflowDB::prepare`] (or
/// [`GraphflowDB::prepare_query`]); rerunnable any number of times with different
/// [`QueryOptions`] or result sinks.
///
/// The underlying plan comes from the database's LRU plan cache, keyed on the *canonical* form
/// of the query graph **and the graph statistics version**: preparing an isomorphic rewriting
/// of an earlier pattern (same shape, different vertex names or clause order) reuses the cached
/// plan without invoking the optimizer, and result tuples are transparently remapped back to
/// this query's own vertex numbering — while a pattern prepared after the graph drifted past
/// the staleness threshold is re-optimized against current statistics.
///
/// A prepared query is **owned** (`'static`): it holds a cloned [`GraphflowDB`] handle and
/// `Arc`-shared plan, so it is `Send + Sync`, cheap to [`Clone`], and executable from any
/// thread — including concurrently with writes to the same database. Every
/// [`run`](PreparedQuery::run) pins the database's current snapshot for its whole execution
/// (use [`run_on`](PreparedQuery::run_on) to pin an explicit epoch instead); re-prepare (cheap
/// on a cache hit) after applying updates to pick up a re-optimized plan eagerly.
#[derive(Clone)]
pub struct PreparedQuery {
    pub(crate) db: GraphflowDB,
    pub(crate) query: QueryGraph,
    pub(crate) plan: PlanHandle,
    /// `Some(map)` when the cached plan was optimized for an isomorphic twin of `query`:
    /// `map[plan query vertex] = our query vertex`.
    pub(crate) remap: Option<Vec<usize>>,
    pub(crate) cache_hit: bool,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.query)
            .field("plan_class", &self.plan.class())
            .field("estimated_cost", &self.plan.estimated_cost)
            .field("cache_hit", &self.cache_hit)
            .finish_non_exhaustive()
    }
}

impl PreparedQuery {
    /// The parsed query graph this statement answers.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The (shared) plan that will be executed.
    pub fn plan(&self) -> &PlanHandle {
        &self.plan
    }

    /// The plan's class (WCO / BJ / hybrid).
    pub fn plan_class(&self) -> PlanClass {
        self.plan.class()
    }

    /// Whether preparation was served from the plan cache (i.e. the optimizer was skipped).
    pub fn was_cached(&self) -> bool {
        self.cache_hit
    }

    /// `EXPLAIN`: the prepared plan as a typed [`QueryProfile`] — the operator tree with
    /// the catalogue's estimated cardinality and cumulative cost on every node. Nothing is
    /// executed. `Display` renders the classic indented tree; [`QueryProfile::to_json`]
    /// serializes it.
    pub fn explain(&self) -> QueryProfile {
        let catalogue = self.db.catalogue();
        let model = *self.db.shared.cost_model.read();
        QueryProfile::estimate(&self.plan, &catalogue, &model)
    }

    /// `PROFILE`: execute the query with per-operator profiling and return the plan tree
    /// annotated with **both** estimates and actuals ([`QueryProfile`] with
    /// [`stats`](QueryProfile::stats) set). The summed per-operator counters equal the run's
    /// [`RuntimeStats`] totals exactly; profiling adds one counter struct per operator and
    /// two timestamp reads per batch, nothing more.
    ///
    /// The query runs to completion under `options` (with
    /// [`profile`](QueryOptions::profile) forced on), so cancellation, timeouts and output
    /// limits all behave as in [`run`](PreparedQuery::run) — except that a cancelled or
    /// timed-out run surfaces as its usual error rather than a partial profile.
    pub fn profile(&self, options: QueryOptions) -> Result<QueryProfile, Error> {
        self.profile_on(&self.db.snapshot(), options)
    }

    /// [`profile`](PreparedQuery::profile) against an explicit, caller-pinned snapshot epoch.
    pub fn profile_on(
        &self,
        snapshot: &Snapshot,
        options: QueryOptions,
    ) -> Result<QueryProfile, Error> {
        let result = self.run_on(snapshot, options.profile(true))?;
        let catalogue = self.db.catalogue();
        let model = *self.db.shared.cost_model.read();
        Ok(QueryProfile::profiled(
            &self.plan,
            &catalogue,
            &model,
            result.stats,
        ))
    }

    /// Count the matches with default options.
    ///
    /// Counts the raw match stream; the query's `RETURN` clause (if any) is not applied —
    /// use [`execute`](PreparedQuery::execute) for `RETURN` semantics.
    pub fn count(&self) -> Result<u64, Error> {
        Ok(self.run(QueryOptions::default())?.count)
    }

    /// Execute the query's `RETURN` clause, producing a typed [`ResultSet`](crate::ResultSet)
    /// of rows (projections) or groups (aggregates). A query without `RETURN` behaves as
    /// `RETURN *`.
    ///
    /// Aggregates fold **streamingly** — memory is O(groups), never O(matches) — and
    /// `RETURN COUNT(*)` composes with the planner's fast path so the final extension column
    /// is bulk-counted instead of materialised
    /// (`ResultSet::stats.bulk_counted_extensions` counts the shortcut firing).
    pub fn execute(&self, options: QueryOptions) -> Result<crate::ResultSet, Error> {
        self.execute_on(&self.db.snapshot(), options)
    }

    /// [`execute`](PreparedQuery::execute) against an explicit, caller-pinned snapshot epoch
    /// instead of the database's current one.
    pub fn execute_on(
        &self,
        snapshot: &Snapshot,
        options: QueryOptions,
    ) -> Result<crate::ResultSet, Error> {
        self.db.execute_prepared_return(
            snapshot,
            &self.query,
            &self.plan,
            self.remap.as_deref(),
            self.cache_hit,
            options,
        )
    }

    /// Execute with explicit options, materialising a [`QueryResult`].
    pub fn run(&self, options: QueryOptions) -> Result<QueryResult, Error> {
        self.run_on(&self.db.snapshot(), options)
    }

    /// [`run`](PreparedQuery::run) against an explicit, caller-pinned snapshot epoch instead
    /// of the database's current one. Snapshots are immutable, so running on the same
    /// snapshot always reproduces the same result no matter what has been committed since —
    /// the primitive behind repeatable reads and the concurrency test oracle.
    pub fn run_on(&self, snapshot: &Snapshot, options: QueryOptions) -> Result<QueryResult, Error> {
        self.db.execute_prepared(
            snapshot,
            &self.plan,
            self.remap.as_deref(),
            self.cache_hit,
            options,
        )
    }

    /// Column headers of this query's `RETURN` clause (a missing clause counts as
    /// `RETURN *`), in declaration order — the header a streaming consumer needs before the
    /// first row arrives.
    pub fn return_columns(&self) -> Vec<String> {
        let clause = self
            .query
            .return_clause()
            .cloned()
            .unwrap_or_else(graphflow_query::returns::ReturnClause::star);
        clause.column_names(&self.query)
    }

    /// Whether this query's `RETURN` clause can be streamed row-by-row in O(1) memory (see
    /// [`RowSpec::is_streamable`](graphflow_exec::RowSpec::is_streamable)); aggregate,
    /// `ORDER BY` and `DISTINCT` clauses must buffer and go through
    /// [`execute`](PreparedQuery::execute) instead.
    pub fn is_streamable_projection(&self) -> bool {
        let clause = self
            .query
            .return_clause()
            .cloned()
            .unwrap_or_else(graphflow_query::returns::ReturnClause::star);
        graphflow_exec::RowSpec::compile(&self.query, &clause).is_streamable()
    }

    /// Execute, delivering each projected [`Row`](graphflow_exec::Row) of the `RETURN` clause
    /// to `emit` the moment its match is found — constant memory no matter how many rows
    /// there are. `emit` returns `false` to stop early; `LIMIT` is honoured. The whole run
    /// pins one snapshot, so rows and their property values are mutually consistent.
    ///
    /// Errors with [`Error::InvalidOptions`] when the clause is
    /// [not streamable](PreparedQuery::is_streamable_projection).
    pub fn stream_rows<F>(&self, options: QueryOptions, emit: F) -> Result<RuntimeStats, Error>
    where
        F: FnMut(graphflow_exec::Row) -> bool + Send,
    {
        self.stream_rows_on(&self.db.snapshot(), options, emit)
    }

    /// [`stream_rows`](PreparedQuery::stream_rows) against an explicit, caller-pinned snapshot
    /// epoch — a streaming server names the epoch in its response head before the first row
    /// exists, so it must pin first and run on what it pinned.
    pub fn stream_rows_on<F>(
        &self,
        snapshot: &Snapshot,
        options: QueryOptions,
        emit: F,
    ) -> Result<RuntimeStats, Error>
    where
        F: FnMut(graphflow_exec::Row) -> bool + Send,
    {
        let clause = self
            .query
            .return_clause()
            .cloned()
            .unwrap_or_else(graphflow_query::returns::ReturnClause::star);
        let spec = graphflow_exec::RowSpec::compile(&self.query, &clause);
        if !spec.is_streamable() {
            return Err(Error::InvalidOptions(
                "RETURN clause is not streamable (aggregates, ORDER BY and DISTINCT must \
                 buffer rows); use execute() instead"
                    .into(),
            ));
        }
        let mut sink = graphflow_exec::RowStreamSink::new(snapshot.clone(), spec, emit);
        self.db.execute_prepared_with_sink(
            snapshot,
            &self.plan,
            self.remap.as_deref(),
            self.cache_hit,
            options,
            &mut sink,
        )
    }

    /// Execute, streaming every match (in this query's vertex order) into `sink` instead of
    /// materialising results — constant memory no matter how many matches there are.
    pub fn run_with_sink(
        &self,
        options: QueryOptions,
        sink: &mut (dyn MatchSink + Send),
    ) -> Result<RuntimeStats, Error> {
        self.db.execute_prepared_with_sink(
            &self.db.snapshot(),
            &self.plan,
            self.remap.as_deref(),
            self.cache_hit,
            options,
            sink,
        )
    }

    /// Start executing on a background thread, returning a [`QueryHandle`] that can be
    /// cancelled from any thread and joined for the result.
    ///
    /// The handle's [`CancellationToken`] is the one from `options` when present (so one token
    /// can govern several runs), freshly created otherwise.
    ///
    /// ```
    /// use graphflow_core::{Error, GraphflowDB, QueryOptions};
    /// use graphflow_graph::GraphBuilder;
    /// let mut b = GraphBuilder::new();
    /// for i in 0..8u32 {
    ///     for j in 0..8u32 {
    ///         if i != j {
    ///             b.add_edge(i, j);
    ///         }
    ///     }
    /// }
    /// let db = GraphflowDB::from_graph(b.build());
    /// let q = db.prepare("(a)->(b), (b)->(c), (a)->(c)").unwrap();
    /// let handle = q.execute_handle(QueryOptions::new());
    /// handle.cancel(); // any thread holding the handle (or its token) can do this
    /// match handle.join() {
    ///     Ok(result) => assert_eq!(result.count, 336), // finished before the cancel landed
    ///     Err(e) => assert!(matches!(e, Error::Cancelled)),
    /// }
    /// ```
    pub fn execute_handle(&self, options: QueryOptions) -> QueryHandle {
        let token = options.cancel.clone().unwrap_or_default();
        let options = options.cancel_token(token.clone());
        let prepared = self.clone();
        let thread = std::thread::spawn(move || prepared.run(options));
        QueryHandle { token, thread }
    }
}

/// A query executing on a background thread, started by [`PreparedQuery::execute_handle`].
///
/// [`cancel`](QueryHandle::cancel) (or cancelling any clone of [`token`](QueryHandle::token))
/// stops the run cooperatively within one batch of work; [`join`](QueryHandle::join) then
/// returns [`Error::Cancelled`]. A run that completes before the cancellation lands returns
/// its result normally.
#[derive(Debug)]
pub struct QueryHandle {
    token: CancellationToken,
    thread: std::thread::JoinHandle<Result<QueryResult, Error>>,
}

impl QueryHandle {
    /// Request cancellation; the running query returns [`Error::Cancelled`] within one batch
    /// of work. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// A clone of the run's [`CancellationToken`] — hand it to watchdogs or admin threads
    /// that should be able to stop the query without holding the handle.
    pub fn token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// Whether the background run has finished (successfully or not) without blocking.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Wait for the run and return its result ([`Error::Cancelled`] if it was cancelled,
    /// [`Error::Timeout`] if its deadline elapsed).
    ///
    /// # Panics
    ///
    /// Propagates a panic from the query thread.
    pub fn join(self) -> Result<QueryResult, Error> {
        self.thread.join().expect("query thread panicked")
    }
}

/// Reorders tuples from the cached plan's vertex numbering into the prepared query's own
/// numbering before forwarding them to the user's sink.
pub(crate) struct RemapSink<'a> {
    inner: &'a mut (dyn MatchSink + Send),
    /// `map[plan query vertex] = prepared query vertex`.
    map: &'a [usize],
    scratch: Vec<VertexId>,
}

impl<'a> RemapSink<'a> {
    pub(crate) fn new(inner: &'a mut (dyn MatchSink + Send), map: &'a [usize]) -> Self {
        let scratch = vec![0 as VertexId; map.len()];
        RemapSink {
            inner,
            map,
            scratch,
        }
    }
}

impl MatchSink for RemapSink<'_> {
    fn needs_tuples(&self) -> bool {
        self.inner.needs_tuples()
    }

    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        for (plan_vertex, &our_vertex) in self.map.iter().enumerate() {
            self.scratch[our_vertex] = tuple[plan_vertex];
        }
        self.inner.on_match(&self.scratch)
    }

    fn on_count(&mut self, n: u64) {
        self.inner.on_count(n);
    }

    // Forward the thread-local partial-aggregation protocol, wrapping each partial with the
    // same vertex remap — so executing a plan cached for an isomorphic twin keeps the
    // parallel executor's lock-free per-match path.
    fn fork_partial(&self) -> Option<Box<dyn PartialSink>> {
        let inner = self.inner.fork_partial()?;
        Some(Box::new(RemapPartial {
            inner,
            map: self.map.to_vec(),
            scratch: vec![0 as VertexId; self.map.len()],
        }))
    }

    fn absorb_partial(&mut self, partial: Box<dyn PartialSink>) {
        let partial = partial
            .into_any()
            .downcast::<RemapPartial>()
            .expect("partial forked from this sink");
        self.inner.absorb_partial(partial.inner);
    }
}

/// The thread-local twin of a [`RemapSink`]: reorders each tuple into the prepared query's
/// vertex numbering, then folds it into the wrapped sink's own partial.
struct RemapPartial {
    inner: Box<dyn PartialSink>,
    /// `map[plan query vertex] = prepared query vertex`.
    map: Vec<usize>,
    scratch: Vec<VertexId>,
}

impl PartialSink for RemapPartial {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        for (plan_vertex, &our_vertex) in self.map.iter().enumerate() {
            self.scratch[our_vertex] = tuple[plan_vertex];
        }
        self.inner.on_match(&self.scratch)
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
