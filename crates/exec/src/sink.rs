//! Streaming result sinks.
//!
//! Executors stream every result tuple into a [`MatchSink`] instead of materialising matches
//! into vectors: a query with hundreds of millions of results can be counted, sampled,
//! aggregated or forwarded with O(1) memory. Tuples arrive in *query-vertex order* — position
//! `i` holds the data vertex matched to query vertex `i` — and are only borrowed for the
//! duration of the call; a sink that wants to keep one must copy it.
//!
//! A sink that does not need the tuples themselves (for example [`CountingSink`]) reports
//! `needs_tuples() == false`, which lets the driver skip per-tuple reordering and, with several
//! workers, all cross-thread traffic: workers count locally and the total is delivered once
//! through [`MatchSink::on_count`].

use graphflow_graph::VertexId;

/// Thread-local partial state forked from a [`MatchSink`] for parallel fold-then-merge
/// execution.
///
/// A sink whose result is a *fold* over the match stream (counts, sums, group maps, top-K
/// heaps) can hand each parallel worker an empty twin of itself: workers fold their share of
/// the matches locally with **zero cross-thread synchronisation**, and the partials are merged
/// back into the parent sink once at the barrier — the classic partial-aggregation pattern.
/// Sinks that cannot merge (arbitrary callbacks, ordered collection) simply never fork: the
/// workers then send their tuples to the calling thread, which alone feeds the sink.
pub trait PartialSink: Send {
    /// Receive one result tuple (in query-vertex order). Return `false` to stop this worker
    /// (e.g. a local `LIMIT` was filled); other workers keep running.
    fn on_match(&mut self, tuple: &[VertexId]) -> bool;

    /// Erase to [`Any`](std::any::Any) so the owning sink can downcast the partial back to
    /// its concrete type inside [`MatchSink::absorb_partial`].
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A consumer of streamed query results, called only on the thread that runs the query (at
/// any worker count), so it need not be `Send`.
pub trait MatchSink {
    /// Whether this sink wants to see the actual result tuples.
    ///
    /// When `false`, executors take a counting fast path: [`MatchSink::on_match`] is never
    /// called and the total number of results is reported through [`MatchSink::on_count`].
    fn needs_tuples(&self) -> bool {
        true
    }

    /// Receive one result tuple (in query-vertex order). Return `false` to stop execution.
    fn on_match(&mut self, tuple: &[VertexId]) -> bool;

    /// Receive a bulk result count (used on the `needs_tuples() == false` fast path).
    fn on_count(&mut self, _n: u64) {}

    /// Fork an empty thread-local twin for one parallel worker, or `None` when this sink's
    /// results cannot be folded independently and merged (the default). See [`PartialSink`].
    fn fork_partial(&self) -> Option<Box<dyn PartialSink>> {
        None
    }

    /// Merge a partial previously produced by [`fork_partial`](MatchSink::fork_partial) back
    /// into this sink. Called once per worker, after all workers have joined; merge order
    /// must not affect the final result.
    fn absorb_partial(&mut self, _partial: Box<dyn PartialSink>) {}
}

/// Counts matches without ever looking at them — the zero-overhead sink.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Number of matches seen.
    pub matches: u64,
}

impl CountingSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchSink for CountingSink {
    fn needs_tuples(&self) -> bool {
        false
    }

    fn on_match(&mut self, _tuple: &[VertexId]) -> bool {
        self.matches += 1;
        true
    }

    fn on_count(&mut self, n: u64) {
        self.matches += n;
    }
}

/// Collects up to `cap` tuples while letting execution run (and count) to completion.
///
/// This is what keeps `QueryResult::tuples` working: the facade runs a `CollectingSink` with
/// the configured collection cap and moves the collected tuples into the result.
#[derive(Debug, Clone)]
pub struct CollectingSink {
    /// The collected tuples, in query-vertex order.
    pub tuples: Vec<Vec<VertexId>>,
    cap: usize,
}

impl CollectingSink {
    /// Collect at most `cap` tuples; matches beyond the cap are still counted by the executor.
    pub fn new(cap: usize) -> Self {
        CollectingSink {
            tuples: Vec::new(),
            cap,
        }
    }

    /// Consume the sink, returning the collected tuples.
    pub fn into_tuples(self) -> Vec<Vec<VertexId>> {
        self.tuples
    }
}

impl MatchSink for CollectingSink {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        if self.tuples.len() < self.cap {
            self.tuples.push(tuple.to_vec());
        }
        true
    }
}

/// Collects the first `n` tuples, then stops execution — `LIMIT n` semantics.
///
/// Unlike [`CollectingSink`], which keeps executing (and counting) past its cap, a `LimitSink`
/// aborts the run as soon as the limit is reached, so `LIMIT 10` over a trillion-match query
/// costs only the work of finding ten matches.
#[derive(Debug, Clone)]
pub struct LimitSink {
    /// The collected tuples, in query-vertex order.
    pub tuples: Vec<Vec<VertexId>>,
    limit: usize,
}

impl LimitSink {
    pub fn new(limit: usize) -> Self {
        LimitSink {
            tuples: Vec::new(),
            limit,
        }
    }

    /// Consume the sink, returning the collected tuples.
    pub fn into_tuples(self) -> Vec<Vec<VertexId>> {
        self.tuples
    }
}

impl MatchSink for LimitSink {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        if self.tuples.len() < self.limit {
            self.tuples.push(tuple.to_vec());
        }
        self.tuples.len() < self.limit
    }
}

/// Adapts a closure into a sink: the closure returns `false` to stop execution.
///
/// ```
/// use graphflow_exec::sink::{CallbackSink, MatchSink};
/// let mut seen = 0u64;
/// let mut sink = CallbackSink::new(|tuple: &[u32]| {
///     seen += tuple.len() as u64;
///     true
/// });
/// assert!(sink.on_match(&[1, 2, 3]));
/// drop(sink);
/// assert_eq!(seen, 3);
/// ```
pub struct CallbackSink<F: FnMut(&[VertexId]) -> bool> {
    callback: F,
    /// Number of tuples delivered to the callback.
    pub matches: u64,
}

impl<F: FnMut(&[VertexId]) -> bool> CallbackSink<F> {
    pub fn new(callback: F) -> Self {
        CallbackSink {
            callback,
            matches: 0,
        }
    }
}

impl<F: FnMut(&[VertexId]) -> bool> MatchSink for CallbackSink<F> {
    fn on_match(&mut self, tuple: &[VertexId]) -> bool {
        self.matches += 1;
        (self.callback)(tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_uses_fast_path() {
        let mut s = CountingSink::new();
        assert!(!s.needs_tuples());
        s.on_count(41);
        assert!(s.on_match(&[]));
        assert_eq!(s.matches, 42);
    }

    #[test]
    fn collecting_sink_caps_but_continues() {
        let mut s = CollectingSink::new(2);
        assert!(s.on_match(&[1]));
        assert!(s.on_match(&[2]));
        assert!(s.on_match(&[3]), "must keep executing past the cap");
        assert_eq!(s.into_tuples(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn limit_sink_stops_exactly_at_limit() {
        let mut s = LimitSink::new(2);
        assert!(s.on_match(&[1]));
        assert!(!s.on_match(&[2]), "must stop at the limit");
        assert_eq!(s.tuples.len(), 2);
        assert!(!s.on_match(&[3]));
        assert_eq!(s.tuples.len(), 2);
    }

    #[test]
    fn callback_sink_forwards_stop_signal() {
        let mut calls = 0;
        let mut s = CallbackSink::new(|_t| {
            calls += 1;
            calls < 2
        });
        assert!(s.on_match(&[7]));
        assert!(!s.on_match(&[8]));
        assert_eq!(s.matches, 2);
    }
}
