//! Per-operator counters and the per-query profile record.
//!
//! Every compiled pipeline stage carries an [`OpCounters`] and the executors count each unit of
//! work once, on the operator that did it — i-cost (Equation 1 of the paper), intermediate
//! tuples, intersection-cache hits, predicate evaluations, delta merges. The run's
//! [`RuntimeStats`](crate::RuntimeStats) counters are the sum of those, taken by one fold over
//! the pipeline after the join barrier, so the per-operator numbers add up to the run's totals
//! by construction. [`ExecOptions::profile`](crate::ExecOptions::profile) adds what costs
//! something: operator self-times, and the same fold filing every stage's counters as an
//! [`OpProfile`] under the plan node it ran (`RuntimeStats::profile`, indexed by the node's
//! pre-order id — see [`PlanNode::children`](graphflow_plan::PlanNode::children)). The plan
//! stays the only operator tree: the facade layer renders `PROFILE` in one walk of it, reading
//! each node's record by id. The counters are the same with profiling on or off.
//!
//! Attribution rules:
//!
//! * **One ledger.** Hash-join build sides count on their own operators (the nodes of the
//!   build subtree) and adaptive candidates on theirs (per-candidate step counters plus a
//!   routing histogram); an adaptive stage's record sits under the top E/I of the chain it
//!   replaced, and the chain's other nodes keep empty records. `tuples_out` sums to
//!   `intermediate_tuples` and `outputs` to `output_count` (COUNT(*) bulk adds included); a
//!   build side's result tuples are hash-table entries, so its root books them as
//!   `tuples_out`. Two totals are read off `tuples_in`: probes performed
//!   (`hash_probe_tuples`) and, on a bulk-counting root E/I or HASH-JOIN,
//!   `bulk_counted_extensions`.
//! * **Times are self-times.** An E/I operator's time is the time spent computing (or
//!   cache-reusing) its extension sets; a probe's is its hash lookups; the SCAN absorbs the
//!   remaining drive time of the pipeline, so the SCAN time approximates the whole run. Times
//!   are measured with the monotonic clock, only under `profile`, and sum to nothing in
//!   `RuntimeStats`.

use std::time::{Duration, Instant};

/// What one operator counted: its share of the [`RuntimeStats`](crate::RuntimeStats) fields of
/// the same names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCounters {
    /// Self wall-time spent in this operator, in nanoseconds (monotonic clock); 0 unless the
    /// run was profiled.
    pub time_ns: u64,
    /// Input tuples processed (extension sets computed / probes performed / edges scanned).
    pub tuples_in: u64,
    /// Intermediate tuples emitted (its share of `RuntimeStats::intermediate_tuples`).
    pub tuples_out: u64,
    /// Final result tuples emitted (its share of `RuntimeStats::output_count`).
    pub outputs: u64,
    /// I-cost: total adjacency-list elements accessed for intersections (Equation 1).
    pub icost: u64,
    /// Intersection-cache hits.
    pub cache_hits: u64,
    /// Intersection-cache misses.
    pub cache_misses: u64,
    /// Neighbour lists served from the delta overlay instead of the CSR.
    pub delta_merges: u64,
    /// Pushed-down predicate evaluations.
    pub predicate_evals: u64,
    /// Tuples/candidates dropped by pushed-down predicates.
    pub predicate_drops: u64,
    /// Two-way intersections this operator ran on the scalar merge kernel (its share of
    /// `RuntimeStats::kernel_merge`).
    pub kernel_merge: u64,
    /// Two-way intersections this operator ran on the galloping kernel.
    pub kernel_gallop: u64,
    /// Two-way intersections this operator ran on the block (SIMD) kernel.
    pub kernel_block: u64,
}

impl OpCounters {
    /// Fold another operator's counters into this one (used to absorb per-worker counters at
    /// the parallel join barrier — the same fork/absorb discipline as partial sinks).
    pub fn merge(&mut self, other: &OpCounters) {
        self.time_ns += other.time_ns;
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.outputs += other.outputs;
        self.icost += other.icost;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.delta_merges += other.delta_merges;
        self.predicate_evals += other.predicate_evals;
        self.predicate_drops += other.predicate_drops;
        self.kernel_merge += other.kernel_merge;
        self.kernel_gallop += other.kernel_gallop;
        self.kernel_block += other.kernel_block;
    }

    /// Add the time since `since` — a reading taken only under
    /// [`ExecOptions::profile`](crate::ExecOptions::profile) — to this operator's self-time.
    #[inline]
    pub(crate) fn add_elapsed(&mut self, since: Option<Instant>) {
        if let Some(t0) = since {
            self.time_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Self time as a [`Duration`]. Under parallel execution this is summed across workers,
    /// so it is CPU-time-like and can exceed the wall clock.
    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.time_ns)
    }
}

/// Profile of one candidate ordering of an adaptive stage (paper Section 6): how many tuples
/// were routed to it and what its extension steps did.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateProfile {
    /// The candidate's query-vertex ordering (the order it binds its targets).
    pub order: Vec<usize>,
    /// Number of incoming tuples for which per-tuple re-costing chose this ordering.
    pub chosen: u64,
    /// Per-step counters, aligned with `order`.
    pub steps: Vec<OpCounters>,
}

impl CandidateProfile {
    /// All step counters merged into one accumulator.
    pub fn counters(&self) -> OpCounters {
        let mut acc = OpCounters::default();
        for s in &self.steps {
            acc.merge(s);
        }
        acc
    }
}

/// What one plan node did: the record `RuntimeStats::profile` keeps per pre-order id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// The operator's own counters (times are self-times).
    pub counters: OpCounters,
    /// The adaptive stage filed under this node only: one profile per candidate ordering.
    pub candidates: Vec<CandidateProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_counters_merge_their_steps() {
        let step = |icost| OpCounters {
            icost,
            ..Default::default()
        };
        let cand = CandidateProfile {
            order: vec![2, 3],
            chosen: 10,
            steps: vec![step(100), step(50)],
        };
        assert_eq!(cand.counters().icost, 150);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = OpCounters {
            time_ns: 1,
            tuples_in: 2,
            tuples_out: 3,
            outputs: 4,
            icost: 5,
            cache_hits: 6,
            cache_misses: 7,
            delta_merges: 8,
            predicate_evals: 9,
            predicate_drops: 10,
            kernel_merge: 11,
            kernel_gallop: 12,
            kernel_block: 13,
        };
        a.merge(&a.clone());
        assert_eq!(a.time_ns, 2);
        assert_eq!(a.tuples_in, 4);
        assert_eq!(a.tuples_out, 6);
        assert_eq!(a.outputs, 8);
        assert_eq!(a.icost, 10);
        assert_eq!(a.cache_hits, 12);
        assert_eq!(a.cache_misses, 14);
        assert_eq!(a.delta_merges, 16);
        assert_eq!(a.predicate_evals, 18);
        assert_eq!(a.predicate_drops, 20);
        assert_eq!(a.kernel_merge, 22);
        assert_eq!(a.kernel_gallop, 24);
        assert_eq!(a.kernel_block, 26);
        assert_eq!(a.time(), Duration::from_nanos(2));
    }
}
