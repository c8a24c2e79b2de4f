//! The query path: the [`GraphflowDB`] entry points that parse, plan (through the plan cache)
//! and run a pattern, and the [`PreparedQuery`] they are all built on — parse + canonicalize +
//! optimize once, execute many times, from any thread — plus the [`QueryHandle`] wrapper for
//! cancellable background execution.
//!
//! Every execution entry point builds the sink it needs and hands it to one private function,
//! [`GraphflowDB::execute`], the only caller of the executor.

use crate::explain::{self, QueryProfile};
use crate::plan_cache::CacheVersion;
use crate::{
    CancellationToken, Error, GraphflowDB, QueryOptions, QueryResult, ResultSet, SlowQuery,
};
use graphflow_exec::{
    execute_with_sink, AggregatingSink, CollectingSink, CountingSink, ExecOptions, MatchSink,
    ProjectingSink, Row, RowSpec, RowStreamSink, RuntimeStats,
};
use graphflow_graph::Snapshot;
use graphflow_plan::dp::DpOptimizer;
use graphflow_plan::{Plan, PlanClass, PlanHandle};
use graphflow_query::returns::ReturnClause;
use graphflow_query::{
    canonical_form, parse_query, split_mode, CanonicalCode, QueryGraph, QueryMode,
};
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl GraphflowDB {
    /// Parse a pattern written in the query syntax.
    pub fn parse(&self, pattern: &str) -> Result<QueryGraph, Error> {
        Ok(parse_query(pattern)?)
    }

    /// Run the optimizer directly for a parsed query, bypassing the plan cache.
    ///
    /// Plan-spectrum style experimentation wants a fresh optimizer run per call; serving paths
    /// should use [`prepare`](GraphflowDB::prepare) / [`run`](GraphflowDB::run), which
    /// amortize planning through the cache.
    pub fn plan(&self, query: &QueryGraph) -> Result<Plan, Error> {
        let catalogue = self.catalogue();
        DpOptimizer::new(&catalogue)
            .with_cost_model(*self.shared.cost_model.read())
            .with_options(*self.shared.plan_space.read())
            .optimize(query)
            .ok_or(Error::NoPlan)
    }

    /// Parse, canonicalize and plan a pattern once, returning a rerunnable [`PreparedQuery`].
    ///
    /// Planning goes through the LRU plan cache: preparing a pattern isomorphic to an earlier
    /// one (same shape, any vertex names / clause order) skips the optimizer. The returned
    /// statement is **owned** (`'static`, `Send + Sync`): it keeps a cloned database handle
    /// and `Arc`-shared plan internally, so it can be stored, cloned and executed from any
    /// thread.
    pub fn prepare(&self, pattern: &str) -> Result<PreparedQuery, Error> {
        let query = self.parse(pattern)?;
        self.prepare_query(query)
    }

    /// [`prepare`](GraphflowDB::prepare) for an already-parsed query graph.
    pub fn prepare_query(&self, query: QueryGraph) -> Result<PreparedQuery, Error> {
        let (plan, cache_hit) = self.plan_cached(query)?;
        Ok(PreparedQuery {
            db: self.clone(),
            plan,
            cache_hit,
        })
    }

    /// `EXPLAIN`: return the chosen plan's operator tree as text — class, estimated cost,
    /// and per-operator estimated cardinalities. Served through the plan cache; nothing is
    /// executed. For the structured report use [`PreparedQuery::explain`], which returns a
    /// typed [`QueryProfile`].
    pub fn explain(&self, pattern: &str) -> Result<String, Error> {
        Ok(self.prepare(pattern)?.explain().to_string())
    }

    /// Count the matches of a pattern with default options (served through the plan cache).
    pub fn count(&self, pattern: &str) -> Result<u64, Error> {
        Ok(self.run(pattern, QueryOptions::default())?.count)
    }

    /// Run a pattern with explicit options (served through the plan cache).
    pub fn run(&self, pattern: &str, options: QueryOptions) -> Result<QueryResult, Error> {
        self.prepare(pattern)?.run(options)
    }

    /// Run an already-parsed query with explicit options (served through the plan cache).
    pub fn run_query(
        &self,
        query: &QueryGraph,
        options: QueryOptions,
    ) -> Result<QueryResult, Error> {
        self.prepare_query(query.clone())?.run(options)
    }

    /// Parse, plan and execute a pattern's `RETURN` clause with default options, producing a
    /// typed [`ResultSet`] (served through the plan cache). A pattern without `RETURN`
    /// behaves as `RETURN *`.
    ///
    /// ```
    /// # use graphflow_core::GraphflowDB;
    /// # use graphflow_graph::{GraphBuilder, PropValue};
    /// let mut b = GraphBuilder::new();
    /// b.add_edge(0, 1);
    /// b.add_edge(0, 2);
    /// for v in 0..3 {
    ///     b.set_vertex_prop(v, "age", PropValue::Int(20 + v as i64)).unwrap();
    /// }
    /// let db = GraphflowDB::from_graph(b.build());
    /// let rs = db.query("(a)->(b) RETURN a, COUNT(*), MAX(b.age)").unwrap();
    /// assert_eq!(rs.rows().len(), 1); // one group: a = vertex 0
    /// assert_eq!(rs.rows()[0][1], Some(PropValue::Int(2)));
    /// assert_eq!(rs.rows()[0][2], Some(PropValue::Int(22)));
    /// ```
    pub fn query(&self, pattern: &str) -> Result<ResultSet, Error> {
        self.query_with(pattern, QueryOptions::default())
    }

    /// [`query`](GraphflowDB::query) with explicit execution options.
    ///
    /// A pattern prefixed with `EXPLAIN` returns the chosen plan (with estimated
    /// cardinalities and costs) as a one-column result set without executing anything; a
    /// `PROFILE` prefix executes the query under `options` and returns the same tree
    /// annotated with per-operator actuals. For the structured reports behind these verbs
    /// see [`PreparedQuery::explain`] and [`PreparedQuery::profile`].
    ///
    /// ```
    /// # use graphflow_core::GraphflowDB;
    /// # use graphflow_graph::GraphBuilder;
    /// # let mut b = GraphBuilder::new();
    /// # b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 2);
    /// # let db = GraphflowDB::from_graph(b.build());
    /// let rs = db.query("EXPLAIN (a)->(b), (b)->(c), (a)->(c)").unwrap();
    /// assert_eq!(rs.columns(), ["plan"]);
    /// ```
    pub fn query_with(&self, pattern: &str, options: QueryOptions) -> Result<ResultSet, Error> {
        self.query_on(&self.snapshot(), pattern, options)
    }

    /// [`query_with`](GraphflowDB::query_with) against an explicit, caller-pinned snapshot
    /// epoch instead of the database's current one — for callers that must name the epoch an
    /// answer came from ([`Snapshot::version`]) before, or independently of, running it.
    pub fn query_on(
        &self,
        snapshot: &Snapshot,
        pattern: &str,
        options: QueryOptions,
    ) -> Result<ResultSet, Error> {
        let (mode, rest) = split_mode(pattern);
        let prepared = self.prepare(rest)?;
        match mode {
            QueryMode::Execute => prepared.execute_on(snapshot, options),
            QueryMode::Explain => Ok(explain::result_set(&prepared.explain())),
            QueryMode::Profile => Ok(explain::result_set(
                &prepared.profile_on(snapshot, options)?,
            )),
        }
    }

    /// Run a pattern, streaming every match (in query-vertex order) into `sink` instead of
    /// materialising results.
    pub fn run_with_sink(
        &self,
        pattern: &str,
        options: QueryOptions,
        sink: &mut dyn MatchSink,
    ) -> Result<RuntimeStats, Error> {
        self.prepare(pattern)?.run_with_sink(options, sink)
    }

    /// Execute a specific plan (useful for plan-spectrum style experimentation; bypasses the
    /// plan cache).
    pub fn run_plan(&self, plan: &Plan, options: QueryOptions) -> Result<QueryResult, Error> {
        self.run_to_result(&self.snapshot(), Arc::new(plan.clone()), None, options)
    }

    /// Convenience: the class (WCO / BJ / hybrid) of the plan chosen for a pattern.
    pub fn plan_class(&self, pattern: &str) -> Result<PlanClass, Error> {
        Ok(self.prepare(pattern)?.plan_class())
    }

    // --- internals -------------------------------------------------------------------------

    /// The plan cache's full version key: statistics version plus the optimizer-configuration
    /// epoch, so plans are invalidated by graph drift *and* by `set_cost_model` /
    /// `set_plan_space` — even when the change lands while an optimizer run is in flight.
    fn cache_version(&self) -> CacheVersion {
        (
            self.stats_version(),
            self.shared.config_epoch.load(Ordering::Acquire),
        )
    }

    /// Plan through the LRU cache: returns a plan **for `query` itself** — in its vertex
    /// numbering, with its names, constants and `RETURN` clause — and whether the optimizer
    /// was skipped.
    ///
    /// Cache keys are the **pattern's** canonical code plus the canonicalised *structure* of
    /// the `WHERE` clause — targets, keys, operators and literal types, with the literal
    /// constants normalised away. Two structurally-equal queries that differ only in constants
    /// (`age > 30` vs `age > 50`) therefore share one optimized operator tree, as do
    /// isomorphic rewritings of one pattern. A hit by the very query the entry was optimized
    /// for gets the cached handle itself; any other hit gets its own [`Plan`] — its query over
    /// the cached tree, [renumbered](graphflow_plan::PlanNode::renumber) into its vertex
    /// numbering. That happens once, here: execution, `EXPLAIN`, `PROFILE` and the slow-query
    /// log then all speak the caller's query, and no result tuple is ever translated.
    ///
    /// Every pattern the parser accepts (up to 31 vertices) is cached: the canonical search
    /// is individualisation–refinement, a few leaves even for symmetric patterns. A cheap
    /// exact-form index in front of it makes repeated *identical* patterns skip the search
    /// too. Only a miss runs the optimizer, and only a miss is timed
    /// (`graphflow_optimize_seconds`).
    fn plan_cached(&self, query: QueryGraph) -> Result<(PlanHandle, bool), Error> {
        let identity: Vec<usize> = (0..query.num_vertices()).collect();
        let mut exact = graphflow_query::exact_code(&query);
        exact.extend(graphflow_query::predicate_structure_code(&query, &identity));
        let (code, perm) = match self.shared.plan_cache.canonical_for_exact(&exact) {
            Some(known) => known,
            None => {
                let (pattern_code, perm) = canonical_form(&query);
                let mut full = pattern_code.0;
                full.extend(graphflow_query::predicate_structure_code(&query, &perm));
                let code = CanonicalCode(full);
                self.shared
                    .plan_cache
                    .remember_exact(exact, code.clone(), perm.clone());
                (code, perm)
            }
        };
        if let Some((cached, cached_perm)) = self.shared.plan_cache.get(&code, self.cache_version())
        {
            if perm == cached_perm && query == cached.query {
                return Ok((cached, true));
            }
            // Compose the two canonicalising permutations into cached vertex -> our vertex.
            let mut inverse = vec![0usize; perm.len()];
            for (vertex, &pos) in perm.iter().enumerate() {
                inverse[pos] = vertex;
            }
            let map: Vec<usize> = cached_perm.iter().map(|&pos| inverse[pos]).collect();
            let plan = Plan {
                root: cached.root.renumber(&map),
                estimated_cost: cached.estimated_cost,
                query,
            };
            return Ok((Arc::new(plan), true));
        }
        // Read the version key *before* optimizing: if a configuration change (or staleness
        // bump) lands while the optimizer runs, this plan is inserted under the old key and
        // can never be served to post-change lookups.
        let version = self.cache_version();
        let started = Instant::now();
        let plan = self.plan(&query);
        let metrics = &self.shared.metrics;
        metrics.optimize_latency.observe(started.elapsed());
        let plan: PlanHandle = Arc::new(plan?);
        self.shared
            .plan_cache
            .insert(code, plan.clone(), perm, version);
        Ok((plan, false))
    }

    /// Run `plan` into a counting or collecting sink, as the options ask, and package the
    /// outcome as a [`QueryResult`].
    fn run_to_result(
        &self,
        view: &Snapshot,
        plan: PlanHandle,
        cache_hit: Option<bool>,
        options: QueryOptions,
    ) -> Result<QueryResult, Error> {
        let (stats, tuples) = if options.collect_tuples {
            let mut sink = CollectingSink::new(options.collect_limit);
            let stats = self.execute(view, &plan, cache_hit, options, &mut sink)?;
            (stats, sink.into_tuples())
        } else {
            let mut sink = CountingSink::new();
            let stats = self.execute(view, &plan, cache_hit, options, &mut sink)?;
            (stats, Vec::new())
        };
        Ok(QueryResult {
            count: stats.output_count,
            plan,
            stats,
            tuples,
        })
    }

    /// The one execution path: arm the deadline, hand the plan to the executor, stamp the
    /// plan-cache outcome (`cache_hit` is `None` for a plan that never went through the
    /// cache) into the returned stats, record latency and the slow-query log, and surface a
    /// tripped interrupt as a typed error. Every stage runs against the single pinned `view`,
    /// so one execution observes exactly one epoch.
    fn execute(
        &self,
        view: &Snapshot,
        plan: &Plan,
        cache_hit: Option<bool>,
        options: QueryOptions,
        sink: &mut dyn MatchSink,
    ) -> Result<RuntimeStats, Error> {
        let metrics = &self.shared.metrics;
        metrics.queries_started.fetch_add(1, Ordering::Relaxed);
        let exec_options = ExecOptions {
            use_intersection_cache: options.intersection_cache,
            output_limit: options.output_limit,
            cancel: options.cancel,
            // Armed before pipeline compilation, so hash-join build-side materialisation
            // counts against the budget; planning happened at prepare time and is not covered.
            deadline: options.timeout.map(|t| Instant::now() + t),
            count_tail: options.count_tail,
            profile: options.profile,
        };
        // Adaptive stages re-cost orderings from catalogue estimates per tuple; the run holds
        // its own shared reference (no lock), so a long adaptive query never stalls commits or
        // other readers.
        let catalogue = options.adaptive.then(|| self.catalogue());
        let mut stats = execute_with_sink(
            view,
            plan,
            catalogue.as_deref(),
            options.threads,
            exec_options,
            sink,
        );
        match cache_hit {
            Some(true) => stats.plan_cache_hits += 1,
            Some(false) => stats.plan_cache_misses += 1,
            None => {}
        }
        // Every finished run — completed, cancelled or timed out — is one latency
        // observation, and a slow-log candidate (a timed-out query is slow by definition).
        metrics.query_latency.observe(stats.elapsed);
        if let Some(log) = &self.shared.slow_log {
            if stats.elapsed >= log.threshold() {
                log.record(SlowQuery {
                    query: plan.query.to_string(),
                    latency: stats.elapsed,
                    icost: stats.icost,
                    plan_id: plan.root.fingerprint(),
                });
            }
        }
        if stats.cancelled {
            metrics.queries_cancelled.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Cancelled);
        }
        if stats.timed_out {
            metrics.queries_timed_out.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Timeout);
        }
        metrics.queries_completed.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }
}

/// A query whose expensive front half — parsing, canonicalization and cost-based optimization —
/// has already been done. Created by [`GraphflowDB::prepare`] (or
/// [`GraphflowDB::prepare_query`]); rerunnable any number of times with different
/// [`QueryOptions`] or result sinks.
///
/// The underlying plan comes from the database's LRU plan cache, keyed on the *canonical* form
/// of the query graph **and the graph statistics version**: preparing an isomorphic rewriting
/// of an earlier pattern (same shape, different vertex names or clause order) reuses the cached
/// operator tree without invoking the optimizer — renumbered, once, into this query's own
/// vertex numbering, so the [`plan`](PreparedQuery::plan) held here is always a plan for
/// [`query`](PreparedQuery::query) itself — while a pattern prepared after the graph drifted
/// past the staleness threshold is re-optimized against current statistics.
///
/// A prepared query is **owned** (`'static`): it holds a cloned [`GraphflowDB`] handle and
/// `Arc`-shared plan, so it is `Send + Sync`, cheap to [`Clone`], and executable from any
/// thread — including concurrently with writes to the same database. Every
/// [`run`](PreparedQuery::run) pins the database's current snapshot for its whole execution
/// (use [`run_on`](PreparedQuery::run_on) to pin an explicit epoch instead); re-prepare (cheap
/// on a cache hit) after applying updates to pick up a re-optimized plan eagerly.
#[derive(Clone)]
pub struct PreparedQuery {
    db: GraphflowDB,
    plan: PlanHandle,
    cache_hit: bool,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.plan.query)
            .field("plan_class", &self.plan.class())
            .field("estimated_cost", &self.plan.estimated_cost)
            .field("cache_hit", &self.cache_hit)
            .finish_non_exhaustive()
    }
}

impl PreparedQuery {
    /// The parsed query graph this statement answers.
    pub fn query(&self) -> &QueryGraph {
        &self.plan.query
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
        QueryProfile::new(&self.plan, &catalogue, &model, None)
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
        Ok(QueryProfile::new(
            &self.plan,
            &catalogue,
            &model,
            Some(result.stats),
        ))
    }

    /// Count the matches with default options.
    ///
    /// Counts the raw match stream; the query's `RETURN` clause (if any) is not applied —
    /// use [`execute`](PreparedQuery::execute) for `RETURN` semantics.
    pub fn count(&self) -> Result<u64, Error> {
        Ok(self.run(QueryOptions::default())?.count)
    }

    /// Execute the query's `RETURN` clause, producing a typed [`ResultSet`]
    /// of rows (projections) or groups (aggregates). A query without `RETURN` behaves as
    /// `RETURN *`.
    ///
    /// Aggregates fold **streamingly** — memory is O(groups), never O(matches) — and
    /// `RETURN COUNT(*)` composes with the planner's fast path so the final extension column
    /// is bulk-counted instead of materialised
    /// (`ResultSet::stats.bulk_counted_extensions` counts the shortcut firing).
    pub fn execute(&self, options: QueryOptions) -> Result<ResultSet, Error> {
        self.execute_on(&self.db.snapshot(), options)
    }

    /// [`execute`](PreparedQuery::execute) against an explicit, caller-pinned snapshot epoch
    /// instead of the database's current one.
    pub fn execute_on(
        &self,
        snapshot: &Snapshot,
        mut options: QueryOptions,
    ) -> Result<ResultSet, Error> {
        let clause = self.return_clause();
        let columns = clause.column_names(self.query());
        let spec = self.row_spec();
        let (rows, stats) = if spec.has_aggregates() {
            // `RETURN COUNT(*)` + a plan ending in an E/I extension: the executor adds the
            // final extension-set sizes in bulk and the sink only ever sees counts — no
            // per-match tuple is allocated anywhere.
            options.count_tail = clause.is_count_star_only()
                && self.plan.count_fast_path_eligible()
                && options.output_limit.is_none();
            let mut sink = AggregatingSink::new(snapshot.clone(), spec);
            let stats = self.run_into(snapshot, options, &mut sink)?;
            (sink.finish(), stats)
        } else {
            let mut sink = ProjectingSink::new(snapshot.clone(), spec);
            let stats = self.run_into(snapshot, options, &mut sink)?;
            (sink.finish(), stats)
        };
        Ok(ResultSet {
            columns,
            rows,
            stats,
        })
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
        self.db
            .run_to_result(snapshot, self.plan.clone(), Some(self.cache_hit), options)
    }

    /// This query's `RETURN` clause; a missing one counts as `RETURN *`.
    fn return_clause(&self) -> Cow<'_, ReturnClause> {
        match self.query().return_clause() {
            Some(clause) => Cow::Borrowed(clause),
            None => Cow::Owned(ReturnClause::star()),
        }
    }

    /// The `RETURN` clause compiled against this query — the one place the facade does it.
    fn row_spec(&self) -> RowSpec {
        RowSpec::compile(self.query(), &self.return_clause())
    }

    /// Column headers of this query's `RETURN` clause (a missing clause counts as
    /// `RETURN *`), in declaration order — the header a streaming consumer needs before the
    /// first row arrives.
    pub fn return_columns(&self) -> Vec<String> {
        self.return_clause().column_names(self.query())
    }

    /// Whether this query's `RETURN` clause can be streamed row-by-row in O(1) memory (see
    /// [`RowSpec::is_streamable`]); aggregate, `ORDER BY` and `DISTINCT` clauses must buffer
    /// and go through [`execute`](PreparedQuery::execute) instead.
    pub fn is_streamable_projection(&self) -> bool {
        self.row_spec().is_streamable()
    }

    /// Execute, lending each projected [`Row`] of the `RETURN` clause
    /// to `emit` the moment its match is found — constant memory no matter how many rows
    /// there are. `emit` returns `false` to stop early; `LIMIT` is honoured. The whole run
    /// pins one snapshot, so rows and their property values are mutually consistent.
    ///
    /// The row is borrowed for the call only: every match is evaluated into the same
    /// buffer, so clone the row to keep it. `emit` is called only on the calling thread, at
    /// any worker count, so it need not be `Send`.
    ///
    /// Errors with [`Error::InvalidOptions`] when the clause is
    /// [not streamable](PreparedQuery::is_streamable_projection).
    pub fn stream_rows<F>(&self, options: QueryOptions, emit: F) -> Result<RuntimeStats, Error>
    where
        F: FnMut(&Row) -> bool,
    {
        self.stream_rows_on(&self.db.snapshot(), options, emit)
    }

    /// [`stream_rows`](PreparedQuery::stream_rows) against an explicit, caller-pinned snapshot
    /// epoch — a streaming server names the epoch in its response head before the first row
    /// exists, so it must pin first and run on what it pinned. As there, `emit` borrows each
    /// row for the call only; clone it to keep it.
    pub fn stream_rows_on<F>(
        &self,
        snapshot: &Snapshot,
        options: QueryOptions,
        emit: F,
    ) -> Result<RuntimeStats, Error>
    where
        F: FnMut(&Row) -> bool,
    {
        let spec = self.row_spec();
        if !spec.is_streamable() {
            return Err(Error::InvalidOptions(
                "RETURN clause is not streamable (aggregates, ORDER BY and DISTINCT must \
                 buffer rows); use execute() instead"
                    .into(),
            ));
        }
        let mut sink = RowStreamSink::new(snapshot.clone(), spec, emit);
        self.run_into(snapshot, options, &mut sink)
    }

    /// Execute, streaming every match (in this query's vertex order) into `sink` instead of
    /// materialising results — constant memory no matter how many matches there are.
    pub fn run_with_sink(
        &self,
        options: QueryOptions,
        sink: &mut dyn MatchSink,
    ) -> Result<RuntimeStats, Error> {
        self.run_into(&self.db.snapshot(), options, sink)
    }

    /// Run this statement's plan into `sink` through the database's one execution path.
    fn run_into(
        &self,
        snapshot: &Snapshot,
        options: QueryOptions,
        sink: &mut dyn MatchSink,
    ) -> Result<RuntimeStats, Error> {
        self.db
            .execute(snapshot, &self.plan, Some(self.cache_hit), options, sink)
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
