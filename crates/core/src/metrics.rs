//! The db-wide metrics registry and the slow-query log.
//!
//! Every [`GraphflowDB`](crate::GraphflowDB) handle shares one [`MetricsRegistry`]: a set of
//! lock-free atomic counters plus a fixed-bucket latency histogram, accrued on the query and
//! commit paths with relaxed atomics (one `fetch_add` per event — never a lock, never an
//! allocation). [`GraphflowDB::metrics`](crate::GraphflowDB::metrics) snapshots the registry
//! (folding in the plan-cache counters and, on a persistent database, the WAL counters) into a
//! plain [`Metrics`] value whose [`render`](Metrics::render) emits Prometheus text exposition
//! format for scraping.
//!
//! The slow-query log is a bounded ring buffer ([`SLOW_LOG_CAPACITY`] entries) of queries that
//! ran past the threshold configured with
//! [`slow_query_threshold`](crate::GraphflowDBBuilder::slow_query_threshold); read it with
//! [`GraphflowDB::slow_queries`](crate::GraphflowDB::slow_queries).

use crate::plan_cache::PlanCacheStats;
use graphflow_catalog::Catalogue;
use graphflow_graph::DeltaStore;
use graphflow_storage::WalStats;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (nanoseconds) of the query-latency histogram's finite buckets; an implicit
/// `+Inf` bucket follows. Spanning 100µs to 10s covers everything from a cached point lookup
/// to a multi-second analytical match.
const LATENCY_BUCKET_BOUNDS_NS: [u64; 16] = [
    100_000,        // 100µs
    250_000,        // 250µs
    500_000,        // 500µs
    1_000_000,      // 1ms
    2_500_000,      // 2.5ms
    5_000_000,      // 5ms
    10_000_000,     // 10ms
    25_000_000,     // 25ms
    50_000_000,     // 50ms
    100_000_000,    // 100ms
    250_000_000,    // 250ms
    500_000_000,    // 500ms
    1_000_000_000,  // 1s
    2_500_000_000,  // 2.5s
    5_000_000_000,  // 5s
    10_000_000_000, // 10s
];

const NUM_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_NS.len() + 1; // + the +Inf bucket

/// A fixed-bucket latency histogram over lock-free atomic counters.
#[derive(Debug, Default)]
pub(crate) struct LatencyHisto {
    /// Per-bucket (non-cumulative) observation counts; the last slot is the `+Inf` bucket.
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHisto {
    pub(crate) fn observe(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        // Count first, then buckets: a concurrent observe between the two loads can only make
        // the buckets sum to *more* than `count`, never less, keeping percentiles in range.
        let count = self.count.load(Ordering::Relaxed);
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let mut counts = [0u64; NUM_BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        LatencyHistogram {
            counts,
            sum_ns,
            count,
        }
    }
}

/// A standalone, shareable latency histogram with the same fixed buckets as the db-wide
/// query-latency histogram — for callers layered *above* the database (the HTTP server keeps
/// one per tenant) that want their series rendered next to the core ones. Observations are
/// single relaxed atomic adds, safe from any thread.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    histo: LatencyHisto,
}

impl LatencyRecorder {
    /// A fresh recorder with all buckets empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&self, latency: Duration) {
        self.histo.observe(latency);
    }

    /// A point-in-time copy, with interpolated percentiles.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.histo.snapshot()
    }
}

/// Append the `# HELP` / `# TYPE ... histogram` header for a Prometheus histogram metric.
/// Emit it once, then one [`render_histogram_series`] per label set.
pub fn render_histogram_header(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
}

/// Append one labeled series of a Prometheus histogram: the cumulative `_bucket` lines (with
/// `le` merged into `labels`), then `_sum` and `_count`. `labels` is either empty or a
/// comma-joined list of `key="value"` pairs without braces (e.g. `tenant="acme"`).
pub fn render_histogram_series(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, cumulative) in h.cumulative_buckets() {
        let le = match bound {
            Some(d) => format_bound(d),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
        );
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{braces} {}", h.sum().as_secs_f64());
    let _ = writeln!(out, "{name}_count{braces} {}", h.count());
}

/// A point-in-time copy of the query-latency histogram, with interpolated percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket (non-cumulative) observation counts; the last slot is the `+Inf` bucket.
    counts: [u64; NUM_BUCKETS],
    sum_ns: u64,
    count: u64,
}

impl LatencyHistogram {
    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed latencies.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns)
    }

    /// `(upper bound, observations ≤ bound)` pairs for the finite buckets, cumulative — the
    /// Prometheus `le` series — followed by the total count for `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<(Option<Duration>, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(NUM_BUCKETS);
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            let bound = LATENCY_BUCKET_BOUNDS_NS
                .get(i)
                .map(|&ns| Duration::from_nanos(ns));
            out.push((bound, acc));
        }
        out
    }

    /// The latency below which `q` (in `[0, 1]`) of observations fall, linearly interpolated
    /// within its bucket; `None` before any observation. Observations past the last finite
    /// bound report that bound (the histogram cannot resolve further).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = acc;
            acc += c;
            if (acc as f64) >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    LATENCY_BUCKET_BOUNDS_NS[i - 1]
                };
                let Some(&upper) = LATENCY_BUCKET_BOUNDS_NS.get(i) else {
                    // +Inf bucket: saturate at the last finite bound.
                    return Some(Duration::from_nanos(
                        LATENCY_BUCKET_BOUNDS_NS[NUM_BUCKETS - 2],
                    ));
                };
                let fraction = if c == 0 {
                    0.0
                } else {
                    (rank - prev as f64) / c as f64
                };
                let ns = lower as f64 + fraction * (upper - lower) as f64;
                return Some(Duration::from_nanos(ns as u64));
            }
        }
        Some(Duration::from_nanos(
            LATENCY_BUCKET_BOUNDS_NS[NUM_BUCKETS - 2],
        ))
    }

    /// Median query latency (interpolated); `None` before any observation.
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// 95th-percentile query latency (interpolated); `None` before any observation.
    pub fn p95(&self) -> Option<Duration> {
        self.quantile(0.95)
    }

    /// 99th-percentile query latency (interpolated); `None` before any observation.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }
}

/// The live registry owned by the database's shared state. All accruals are single relaxed
/// atomic adds; reading ([`GraphflowDB::metrics`](crate::GraphflowDB::metrics)) takes no lock
/// on the query path.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    pub(crate) queries_started: AtomicU64,
    pub(crate) queries_completed: AtomicU64,
    pub(crate) queries_cancelled: AtomicU64,
    pub(crate) queries_timed_out: AtomicU64,
    pub(crate) query_latency: LatencyHisto,
    pub(crate) optimize_latency: LatencyHisto,
    pub(crate) txn_commits: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) checkpoint_ns: AtomicU64,
    pub(crate) snapshot_load_ns: AtomicU64,
}

impl MetricsRegistry {
    pub(crate) fn record_checkpoint(&self, elapsed: Duration) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_ns.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    pub(crate) fn snapshot(
        &self,
        plan_cache: PlanCacheStats,
        wal: Option<WalStats>,
        delta: &DeltaStore,
        catalogue: &Catalogue,
    ) -> Metrics {
        let wal = wal.unwrap_or_default();
        Metrics {
            queries_started: self.queries_started.load(Ordering::Relaxed),
            queries_completed: self.queries_completed.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            queries_timed_out: self.queries_timed_out.load(Ordering::Relaxed),
            query_latency: self.query_latency.snapshot(),
            optimize_latency: self.optimize_latency.snapshot(),
            plan_cache,
            catalogue_lookups: catalogue.lookups(),
            catalogue_entries: catalogue.num_entries() as u64,
            txn_commits: self.txn_commits.load(Ordering::Relaxed),
            wal_appends: wal.appends,
            wal_bytes_written: wal.bytes_written,
            wal_fsyncs: wal.fsyncs,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_time: Duration::from_nanos(self.checkpoint_ns.load(Ordering::Relaxed)),
            snapshot_load_time: Duration::from_nanos(self.snapshot_load_ns.load(Ordering::Relaxed)),
            delta_pending_edges: delta.overlay_edges() as u64,
            delta_overlay_bytes: delta.memory_bytes() as u64,
        }
    }
}

/// A point-in-time snapshot of every db-wide metric, returned by
/// [`GraphflowDB::metrics`](crate::GraphflowDB::metrics).
///
/// Counters are cumulative since the database handle was created (WAL counters: since the
/// directory was opened). [`render`](Metrics::render) emits the whole set in Prometheus text
/// exposition format.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Queries whose execution began (prepared-statement runs included).
    pub queries_started: u64,
    /// Queries that ran to completion.
    pub queries_completed: u64,
    /// Queries stopped through a [`CancellationToken`](crate::CancellationToken).
    pub queries_cancelled: u64,
    /// Queries stopped by their wall-clock deadline.
    pub queries_timed_out: u64,
    /// Latency histogram over every finished query (completed, cancelled or timed out).
    pub query_latency: LatencyHistogram,
    /// Time the optimizer took on every plan-cache **miss** and on every query too large for
    /// the cache (catalogue sampling included); hits record nothing.
    pub optimize_latency: LatencyHistogram,
    /// Plan-cache counters (hits, misses, evictions, invalidations, size).
    pub plan_cache: PlanCacheStats,
    /// Estimation requests the subgraph catalogue has served (one per filled slot of an
    /// optimizer's per-query estimate table, plus the adaptive compiler's).
    pub catalogue_lookups: u64,
    /// Sampled extension entries the catalogue currently memoises.
    pub catalogue_entries: u64,
    /// Committed write transactions.
    pub txn_commits: u64,
    /// WAL commit frames appended (0 for an in-memory database).
    pub wal_appends: u64,
    /// WAL bytes written (0 for an in-memory database).
    pub wal_bytes_written: u64,
    /// WAL fsync calls issued (0 for an in-memory database).
    pub wal_fsyncs: u64,
    /// Checkpoints written (explicit and compaction-piggybacked).
    pub checkpoints: u64,
    /// Total wall time spent writing checkpoints.
    pub checkpoint_time: Duration,
    /// Time spent loading the snapshot (and replaying the WAL) when the database was opened;
    /// zero for an in-memory database.
    pub snapshot_load_time: Duration,
    /// Edge inserts and deletes pending in the published epoch's delta store (what automatic
    /// compaction counts against its threshold).
    pub delta_pending_edges: u64,
    /// Approximate bytes the published epoch's delta store holds: the merged neighbour lists
    /// reads borrow, the pending edge sets and the property overrides.
    pub delta_overlay_bytes: u64,
}

impl Metrics {
    /// Render every metric in Prometheus text exposition format (`text/plain; version=0.0.4`),
    /// ready to serve from a `/metrics` endpoint.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "graphflow_queries_started_total",
            "Queries whose execution began.",
            self.queries_started,
        );
        counter(
            "graphflow_queries_completed_total",
            "Queries that ran to completion.",
            self.queries_completed,
        );
        counter(
            "graphflow_queries_cancelled_total",
            "Queries stopped through a cancellation token.",
            self.queries_cancelled,
        );
        counter(
            "graphflow_queries_timed_out_total",
            "Queries stopped by their wall-clock deadline.",
            self.queries_timed_out,
        );
        counter(
            "graphflow_plan_cache_hits_total",
            "Plan-cache hits.",
            self.plan_cache.hits,
        );
        counter(
            "graphflow_plan_cache_misses_total",
            "Plan-cache misses (optimizer invocations).",
            self.plan_cache.misses,
        );
        counter(
            "graphflow_plan_cache_invalidations_total",
            "Cached plans dropped for staleness.",
            self.plan_cache.invalidations,
        );
        counter(
            "graphflow_plan_cache_evictions_total",
            "Cached plans evicted by the LRU policy.",
            self.plan_cache.evictions,
        );
        counter(
            "graphflow_catalogue_lookups_total",
            "Estimation requests served by the subgraph catalogue.",
            self.catalogue_lookups,
        );
        counter(
            "graphflow_txn_commits_total",
            "Committed write transactions.",
            self.txn_commits,
        );
        counter(
            "graphflow_wal_appends_total",
            "WAL commit frames appended.",
            self.wal_appends,
        );
        counter(
            "graphflow_wal_bytes_written_total",
            "WAL bytes written.",
            self.wal_bytes_written,
        );
        counter(
            "graphflow_wal_fsyncs_total",
            "WAL fsync calls issued.",
            self.wal_fsyncs,
        );
        counter(
            "graphflow_checkpoints_total",
            "Checkpoints written.",
            self.checkpoints,
        );
        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "graphflow_plan_cache_entries",
            "Plans currently cached.",
            self.plan_cache.entries as f64,
        );
        gauge(
            "graphflow_plan_cache_capacity",
            "Plan-cache capacity.",
            self.plan_cache.capacity as f64,
        );
        gauge(
            "graphflow_catalogue_entries",
            "Sampled extension entries memoised by the subgraph catalogue.",
            self.catalogue_entries as f64,
        );
        gauge(
            "graphflow_checkpoint_seconds_total",
            "Total wall time spent writing checkpoints.",
            self.checkpoint_time.as_secs_f64(),
        );
        gauge(
            "graphflow_snapshot_load_seconds",
            "Time spent loading the snapshot and replaying the WAL at open.",
            self.snapshot_load_time.as_secs_f64(),
        );
        gauge(
            "graphflow_delta_pending_edges",
            "Edge inserts and deletes pending in the published epoch's delta store.",
            self.delta_pending_edges as f64,
        );
        gauge(
            "graphflow_delta_overlay_bytes",
            "Approximate bytes held by the published epoch's delta store.",
            self.delta_overlay_bytes as f64,
        );
        let name = "graphflow_query_latency_seconds";
        render_histogram_header(&mut out, name, "Wall-clock latency of finished queries.");
        render_histogram_series(&mut out, name, "", &self.query_latency);
        let name = "graphflow_optimize_seconds";
        render_histogram_header(
            &mut out,
            name,
            "Optimizer time on plan-cache misses and bypasses, catalogue sampling included.",
        );
        render_histogram_series(&mut out, name, "", &self.optimize_latency);
        out
    }
}

/// A bucket bound in seconds, trimmed of trailing zeros (`0.0001`, `0.25`, `1`, `10`).
fn format_bound(d: Duration) -> String {
    let mut s = format!("{:.7}", d.as_secs_f64());
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Number of entries the slow-query ring buffer keeps; older entries are dropped first.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// One slow-query record, kept when a run's latency reached the configured
/// [`slow_query_threshold`](crate::GraphflowDBBuilder::slow_query_threshold).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The executed query in canonical pattern text: the caller's own query, also when its
    /// operator tree came from an isomorphic twin's plan-cache entry.
    pub query: String,
    /// Wall-clock latency of the run.
    pub latency: Duration,
    /// Actual i-cost of the run.
    pub icost: u64,
    /// Structural fingerprint of the executed plan, in the vertex numbering of `query`
    /// (stable across runs of the same plan; isomorphic twins sharing one cached tree print
    /// it each in their own numbering).
    pub plan_id: String,
}

/// The bounded slow-query ring buffer; present on the shared state only when a threshold was
/// configured, so the common unconfigured case pays one `Option` check per query.
#[derive(Debug)]
pub(crate) struct SlowLog {
    threshold: Duration,
    ring: Mutex<VecDeque<SlowQuery>>,
}

impl SlowLog {
    pub(crate) fn new(threshold: Duration) -> Self {
        SlowLog {
            threshold,
            ring: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
        }
    }

    pub(crate) fn threshold(&self) -> Duration {
        self.threshold
    }

    pub(crate) fn record(&self, entry: SlowQuery) {
        let mut ring = self.ring.lock();
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    pub(crate) fn entries(&self) -> Vec<SlowQuery> {
        self.ring.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHisto::default();
        for _ in 0..90 {
            h.observe(Duration::from_micros(200)); // bucket le=250µs
        }
        for _ in 0..10 {
            h.observe(Duration::from_millis(40)); // bucket le=50ms
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.p50().unwrap();
        assert!(p50 >= Duration::from_micros(100) && p50 <= Duration::from_micros(250));
        let p99 = snap.p99().unwrap();
        assert!(p99 >= Duration::from_millis(25) && p99 <= Duration::from_millis(50));
        // Cumulative buckets are monotone and end at the total count.
        let buckets = snap.cumulative_buckets();
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(buckets.last().unwrap().1, 100);
        assert!(buckets.last().unwrap().0.is_none(), "+Inf last");
    }

    #[test]
    fn quantiles_saturate_at_the_last_finite_bound() {
        let h = LatencyHisto::default();
        h.observe(Duration::from_secs(60)); // beyond the last bound: +Inf bucket
        let snap = h.snapshot();
        assert_eq!(snap.p99(), Some(Duration::from_secs(10)));
        assert!(snap.sum() >= Duration::from_secs(60));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let snap = LatencyHisto::default().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), None);
    }

    #[test]
    fn slow_log_is_a_bounded_ring() {
        let log = SlowLog::new(Duration::from_millis(1));
        for i in 0..(SLOW_LOG_CAPACITY + 10) {
            log.record(SlowQuery {
                query: format!("q{i}"),
                latency: Duration::from_millis(2),
                icost: i as u64,
                plan_id: "p".into(),
            });
        }
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY);
        assert_eq!(entries[0].query, "q10", "oldest entries dropped first");
        assert_eq!(
            entries.last().unwrap().icost,
            (SLOW_LOG_CAPACITY + 9) as u64
        );
    }

    #[test]
    fn render_emits_valid_prometheus_lines() {
        let reg = MetricsRegistry::default();
        reg.queries_started.fetch_add(3, Ordering::Relaxed);
        reg.query_latency.observe(Duration::from_millis(3));
        let graph = std::sync::Arc::new(graphflow_graph::GraphBuilder::new().build());
        let text = reg
            .snapshot(
                PlanCacheStats::default(),
                None,
                &DeltaStore::default(),
                &Catalogue::with_defaults(graph),
            )
            .render();
        assert!(text.contains("graphflow_queries_started_total 3"));
        assert!(text.contains("# TYPE graphflow_query_latency_seconds histogram"));
        assert!(text.contains("graphflow_query_latency_seconds_bucket{le=\"0.0001\"} 0"));
        assert!(text.contains("graphflow_query_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("graphflow_query_latency_seconds_count 1"));
        assert!(text.contains("# TYPE graphflow_optimize_seconds histogram"));
        assert!(text.contains("graphflow_optimize_seconds_count 0"));
        assert!(text.contains("graphflow_catalogue_lookups_total 0"));
        assert!(text.contains("graphflow_catalogue_entries 0"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }
}
