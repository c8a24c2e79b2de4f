//! Runtime statistics gathered while executing a plan.

use std::time::Duration;

/// Counters collected during plan execution: the sum of what every operator of the plan counted
/// for itself (see [`OpCounters`](crate::profile::OpCounters)), plus what only the run as a whole
/// knows. The i-cost counter implements Equation 1 of the paper exactly: it adds the sizes of
/// every adjacency list that is *accessed* for an intersection, and skips the lists of
/// intersections served from the cache — so every run reports the same "actual i-cost" the
/// paper's Tables 4–6 do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Total size of the adjacency lists accessed by E/I operators (actual i-cost).
    pub icost: u64,
    /// Partial matches produced by the SCAN and every non-final operator.
    pub intermediate_tuples: u64,
    /// Number of query results produced (or counted).
    pub output_count: u64,
    /// Intersections served from the E/I last-extension cache.
    pub cache_hits: u64,
    /// Intersections actually computed by E/I operators.
    pub cache_misses: u64,
    /// Neighbour lists served from the delta overlay instead of the CSR (always 0 when
    /// executing against a plain [`Graph`](graphflow_graph::Graph) or a snapshot with no
    /// pending deltas) — how much of a run read partitions that have pending updates.
    pub delta_merges: u64,
    /// Property-predicate evaluations performed by pushed-down filters (at SCAN, E/I
    /// extension and hash-join build time). Extension-set filtering that is served from the
    /// intersection cache is not re-evaluated, mirroring how i-cost skips cached lists.
    pub predicate_evals: u64,
    /// Tuples / extension candidates discarded by a pushed-down predicate before they could
    /// produce any downstream work.
    pub predicate_drops: u64,
    /// Results counted in bulk by the `COUNT(*)` fast path
    /// ([`ExecOptions::count_tail`](crate::ExecOptions::count_tail)), one per answer: an E/I
    /// root's extension sets, whose *sizes* were added to the output count, and a HASH-JOIN
    /// root's probe lookups, each answered with its key's build-tuple count from a
    /// counts-only table. Each stands for a loop that produced no tuple per result — the
    /// observable proof that a counting query never materialised its final column.
    pub bulk_counted_extensions: u64,
    /// Two-way intersections executed by the scalar merge kernel (see
    /// [`graphflow_graph::intersect::select_kernel`]).
    pub kernel_merge: u64,
    /// Two-way intersections executed by the galloping kernel.
    pub kernel_gallop: u64,
    /// Two-way intersections executed by the block (SIMD) kernel.
    pub kernel_block: u64,
    /// Heavy extension sets the parallel scheduler split into shared sub-tasks so other
    /// workers could steal them (hub-vertex skew mitigation; always 0 in serial runs).
    pub heavy_splits: u64,
    /// Tuples inserted into hash-join build tables.
    pub hash_build_tuples: u64,
    /// Tuples used to probe hash-join tables.
    pub hash_probe_tuples: u64,
    /// Times this query's plan was served from the facade's plan cache (filled in by
    /// `graphflow-core`; executors leave it 0).
    pub plan_cache_hits: u64,
    /// Times this query's plan had to be produced by the optimizer (filled in by
    /// `graphflow-core`; executors leave it 0).
    pub plan_cache_misses: u64,
    /// The run stopped early because its [`CancellationToken`](crate::CancellationToken) was
    /// cancelled; counters cover only the work done up to that point.
    pub cancelled: bool,
    /// The run stopped early because its deadline
    /// ([`ExecOptions::deadline`](crate::ExecOptions::deadline)) elapsed; counters cover only
    /// the work done up to that point.
    pub timed_out: bool,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// The per-operator counters the totals above were summed from, with operator self-times:
    /// one [`OpProfile`](crate::profile::OpProfile) per plan node, indexed by the node's
    /// pre-order id ([`PlanNode::children`](graphflow_plan::PlanNode::children)), so
    /// `profile[0]` is the root's. Filled only when the run was executed with
    /// [`ExecOptions::profile`](crate::ExecOptions::profile) set (empty otherwise); the
    /// counters above are the same either way.
    pub profile: Vec<crate::profile::OpProfile>,
}

impl RuntimeStats {
    /// Merge another stats object into this one (used when combining the stats of several
    /// runs, or a hash-join build side's into its run's). Per-node records are not merged:
    /// this one keeps its own.
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.icost += other.icost;
        self.intermediate_tuples += other.intermediate_tuples;
        self.output_count += other.output_count;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.delta_merges += other.delta_merges;
        self.predicate_evals += other.predicate_evals;
        self.predicate_drops += other.predicate_drops;
        self.bulk_counted_extensions += other.bulk_counted_extensions;
        self.kernel_merge += other.kernel_merge;
        self.kernel_gallop += other.kernel_gallop;
        self.kernel_block += other.kernel_block;
        self.heavy_splits += other.heavy_splits;
        self.hash_build_tuples += other.hash_build_tuples;
        self.hash_probe_tuples += other.hash_probe_tuples;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        // A run is cancelled / timed out if any of its workers was.
        self.cancelled |= other.cancelled;
        self.timed_out |= other.timed_out;
        // Elapsed time is wall clock, not CPU time: keep the maximum.
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Fraction of E/I extension-set computations served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_counters() {
        let mut a = RuntimeStats {
            icost: 10,
            intermediate_tuples: 5,
            output_count: 2,
            cache_hits: 1,
            cache_misses: 3,
            hash_build_tuples: 7,
            hash_probe_tuples: 9,
            elapsed: Duration::from_millis(20),
            ..Default::default()
        };
        let b = RuntimeStats {
            icost: 1,
            intermediate_tuples: 1,
            output_count: 1,
            cache_hits: 1,
            cache_misses: 1,
            hash_build_tuples: 1,
            hash_probe_tuples: 1,
            plan_cache_hits: 2,
            plan_cache_misses: 1,
            delta_merges: 3,
            predicate_evals: 5,
            predicate_drops: 4,
            bulk_counted_extensions: 6,
            kernel_merge: 11,
            kernel_gallop: 12,
            kernel_block: 13,
            heavy_splits: 2,
            timed_out: true,
            elapsed: Duration::from_millis(50),
            ..Default::default()
        };
        a.merge(&b);
        assert!(a.timed_out && !a.cancelled, "stop reasons merge with OR");
        assert_eq!(a.icost, 11);
        assert_eq!(a.bulk_counted_extensions, 6);
        assert_eq!(a.kernel_merge, 11);
        assert_eq!(a.kernel_gallop, 12);
        assert_eq!(a.kernel_block, 13);
        assert_eq!(a.heavy_splits, 2);
        assert_eq!(a.delta_merges, 3);
        assert_eq!(a.predicate_evals, 5);
        assert_eq!(a.predicate_drops, 4);
        assert_eq!(a.plan_cache_hits, 2);
        assert_eq!(a.plan_cache_misses, 1);
        assert_eq!(a.output_count, 3);
        assert_eq!(a.elapsed, Duration::from_millis(50));
        assert!((a.cache_hit_rate() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_hit_rate() {
        assert_eq!(RuntimeStats::default().cache_hit_rate(), 0.0);
    }
}
