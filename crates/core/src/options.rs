//! Per-query execution options as a fluent builder.

use crate::CancellationToken;
use std::time::Duration;

/// Per-query execution settings, built fluently:
///
/// ```
/// use graphflow_core::QueryOptions;
/// let opts = QueryOptions::new().threads(4).limit(1000);
/// assert_eq!(opts.num_threads(), 4);
/// ```
///
/// The default configuration is one-worker, fixed-plan execution with the intersection cache
/// on, no output limit, no tuple collection, no timeout and no cancellation token.
///
/// # One executor, two settings
///
/// [`adaptive`](QueryOptions::adaptive) and [`threads`](QueryOptions::threads) are
/// independent: the first decides how chains of E/I operators are *compiled* (one fixed
/// ordering, or a per-tuple choice among all orderings), the second how many workers *run*
/// the compiled pipeline. Every combination goes through the same driver and returns the
/// same matches.
///
/// # Deadlines and cancellation
///
/// [`timeout`](QueryOptions::timeout) bounds one execution's wall-clock time (pipeline
/// compilation and hash-join build work count against the budget; planning happened at
/// `prepare` time and does not); a run that exceeds it returns
/// [`Error::Timeout`](crate::Error::Timeout). [`cancel_token`](QueryOptions::cancel_token)
/// attaches a [`CancellationToken`] that any thread can trip, turning the run into
/// [`Error::Cancelled`](crate::Error::Cancelled). Both are polled cooperatively at batch
/// granularity by every worker.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    pub(crate) adaptive: bool,
    pub(crate) threads: usize,
    pub(crate) intersection_cache: bool,
    pub(crate) output_limit: Option<u64>,
    pub(crate) collect_tuples: bool,
    pub(crate) collect_limit: usize,
    pub(crate) timeout: Option<Duration>,
    pub(crate) cancel: Option<CancellationToken>,
    /// Internal: enable the executors' `COUNT(*)` bulk-count fast path. Set by the
    /// result-set layer when the prepared query is `RETURN COUNT(*)` and the plan's final
    /// operator is an E/I extension; never exposed to callers directly.
    pub(crate) count_tail: bool,
    pub(crate) profile: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            adaptive: false,
            threads: 1,
            intersection_cache: true,
            output_limit: None,
            collect_tuples: false,
            collect_limit: 1_000_000,
            timeout: None,
            cancel: None,
            count_tail: false,
            profile: false,
        }
    }
}

impl QueryOptions {
    /// Default options (identical to [`QueryOptions::default`]), ready for chaining.
    pub fn new() -> Self {
        Self::default()
    }

    // --- builder setters -------------------------------------------------------------------

    /// Compile chains of E/I operators into adaptive stages (per-tuple query-vertex-ordering
    /// selection, paper Section 6). Composes with any [`threads`](QueryOptions::threads) count.
    ///
    /// A stage holds at most 120 candidate orderings (5!, what the 7-clique Q14 needs, the most
    /// of the paper's benchmark queries). A chain with more connected orderings of its targets,
    /// such as the leaves of a large star (14! for a 16-vertex one), runs fixed.
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Number of workers (paper Section 7). 1 runs the whole query on the calling thread;
    /// 0 is treated as 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Toggle the E/I last-extension (intersection) cache (paper Section 3.1).
    pub fn intersection_cache(mut self, enabled: bool) -> Self {
        self.intersection_cache = enabled;
        self
    }

    /// Stop execution after exactly this many results (workers claim output slots from one
    /// shared counter, so the cut-off is exact at any thread count).
    pub fn limit(mut self, limit: u64) -> Self {
        self.output_limit = Some(limit);
        self
    }

    /// Collect result tuples into [`QueryResult::tuples`](crate::QueryResult::tuples), up to
    /// the [`collect_limit`](QueryOptions::collect_limit) cap.
    ///
    /// Collection buffers matches in memory; for unbounded result sets stream through a
    /// [`MatchSink`](crate::MatchSink) instead (`run_with_sink`).
    pub fn collect_tuples(mut self, collect: bool) -> Self {
        self.collect_tuples = collect;
        self
    }

    /// Cap on the number of tuples collected when
    /// [`collect_tuples`](QueryOptions::collect_tuples) is on (default one million). Matches
    /// beyond the cap are still counted.
    pub fn collect_limit(mut self, cap: usize) -> Self {
        self.collect_limit = cap;
        self
    }

    /// Bound one execution's wall-clock time. The deadline is armed when the run starts —
    /// pipeline compilation and hash-join build work count against it, but planning does not
    /// (it happened at `prepare` time, possibly amortized away by the plan cache) — and is
    /// polled cooperatively at batch granularity by every worker; a run that exceeds it
    /// returns [`Error::Timeout`](crate::Error::Timeout) instead of a truncated result.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a [`CancellationToken`] the run will poll at batch granularity. Cancelling it
    /// (from any thread — the token is `Send + Sync` and cheap to clone) makes the run return
    /// [`Error::Cancelled`](crate::Error::Cancelled).
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Return the per-operator execution profile — the operators' own counters, which every
    /// run keeps and sums into its stats, with operator self-times, one record per plan node
    /// indexed by the node's pre-order id — through
    /// [`RuntimeStats::profile`](crate::RuntimeStats::profile) (this is what
    /// [`PreparedQuery::profile`](crate::PreparedQuery::profile) and `PROFILE <query>` turn
    /// on; the report is one walk of the plan reading those records by id). Off by default;
    /// the stats' counters are the same either way.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The configured worker-thread count.
    pub fn num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_set_their_fields() {
        let token = CancellationToken::new();
        let opts = QueryOptions::new()
            .adaptive(true)
            .intersection_cache(false)
            .limit(7)
            .collect_tuples(true)
            .collect_limit(3)
            .timeout(Duration::from_millis(250))
            .cancel_token(token.clone());
        assert!(opts.adaptive);
        assert!(!opts.intersection_cache);
        assert_eq!(opts.output_limit, Some(7));
        assert!(opts.collect_tuples);
        assert_eq!(opts.collect_limit, 3);
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));
        assert!(opts.cancel.is_some_and(|t| t.same_token(&token)));
        assert!(QueryOptions::new().cancel.is_none());
    }

    #[test]
    fn zero_threads_means_serial() {
        assert_eq!(QueryOptions::new().threads(0).num_threads(), 1);
    }
}
