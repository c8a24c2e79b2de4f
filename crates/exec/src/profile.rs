//! Per-operator counters and the per-query profile tree.
//!
//! Every compiled pipeline stage carries an [`OpCounters`] and the executors count each unit of
//! work once, on the operator that did it — i-cost (Equation 1 of the paper), intermediate
//! tuples, intersection-cache hits, predicate evaluations, delta merges. The run's
//! [`RuntimeStats`](crate::RuntimeStats) counters are the sum of those, taken by one fold over
//! the pipeline after the join barrier, so the per-operator numbers add up to the run's totals
//! by construction. [`ExecOptions::profile`](crate::ExecOptions::profile) adds what costs
//! something: operator self-times, and the stages assembled into an [`OpProfile`] tree mirroring
//! the plan's operator tree (available through `RuntimeStats::profile`), which the facade layer
//! renders for `PROFILE` queries. The counters are the same with it on or off.
//!
//! Attribution rules:
//!
//! * **One ledger.** Hash-join build sides count on their own operators (which appear as the
//!   build subtree of the HASH-JOIN node) and adaptive candidates on theirs (per-candidate
//!   step counters plus a routing histogram). `tuples_out` sums to `intermediate_tuples` and
//!   `outputs` to `output_count` (COUNT(*) bulk adds included); a build side's result tuples
//!   are hash-table entries, so its root books them as `tuples_out`. Two totals are read off
//!   `tuples_in`: probes performed (`hash_probe_tuples`) and, on a bulk-counting final E/I,
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

/// What kind of operator a profile node describes. Query-vertex indices refer to the plan's
/// own query graph (the facade maps them to variable names).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// The driver SCAN, binding query vertices `src` and `dst`.
    Scan {
        /// Query vertex bound to the scanned edge's source.
        src: usize,
        /// Query vertex bound to the scanned edge's destination.
        dst: usize,
    },
    /// An EXTEND/INTERSECT, binding query vertex `target`.
    Extend {
        /// The query vertex this extension binds.
        target: usize,
    },
    /// A hash-table probe (the probe half of a HASH-JOIN); `appended` lists the build-only
    /// query vertices the probe appends.
    HashJoin {
        /// Query vertices appended from the build side's payload.
        appended: Vec<usize>,
    },
    /// An adaptive stage covering a chain of E/I operators; `targets` lists the query vertices
    /// bound by the chain in the fixed plan's (canonical) order.
    Adaptive {
        /// The query vertices bound by the replaced E/I chain, in canonical order.
        targets: Vec<usize>,
    },
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

/// One node of the assembled per-operator profile tree. The tree mirrors the plan's operator
/// tree: `children[0]` is the upstream (pipeline) operator; a HASH-JOIN node additionally
/// carries the build subtree as `children[1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// The operator this node describes.
    pub kind: OpKind,
    /// This operator's own counters.
    pub counters: OpCounters,
    /// Adaptive stages only: one profile per candidate ordering.
    pub candidates: Vec<CandidateProfile>,
    /// Upstream operator first; HASH-JOIN nodes append the build subtree root.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// Visit every counter accumulator in the subtree (own, candidate steps, children).
    pub fn fold(&self, f: &mut dyn FnMut(&OpCounters)) {
        f(&self.counters);
        for c in &self.candidates {
            for s in &c.steps {
                f(s);
            }
        }
        for ch in &self.children {
            ch.fold(f);
        }
    }

    fn sum(&self, pick: &dyn Fn(&OpCounters) -> u64) -> u64 {
        let mut acc = 0u64;
        self.fold(&mut |c| acc += pick(c));
        acc
    }

    /// Total i-cost over the tree; equals `RuntimeStats::icost` exactly.
    pub fn total_icost(&self) -> u64 {
        self.sum(&|c| c.icost)
    }

    /// Total intermediate tuples over the tree; equals `RuntimeStats::intermediate_tuples`.
    pub fn total_intermediate_tuples(&self) -> u64 {
        self.sum(&|c| c.tuples_out)
    }

    /// Total result tuples over the tree; equals `RuntimeStats::output_count`.
    pub fn total_outputs(&self) -> u64 {
        self.sum(&|c| c.outputs)
    }

    /// Total intersection-cache hits over the tree; equals `RuntimeStats::cache_hits`.
    pub fn total_cache_hits(&self) -> u64 {
        self.sum(&|c| c.cache_hits)
    }

    /// Total intersection-cache misses over the tree; equals `RuntimeStats::cache_misses`.
    pub fn total_cache_misses(&self) -> u64 {
        self.sum(&|c| c.cache_misses)
    }

    /// Total overlay-served neighbour lists over the tree; equals `RuntimeStats::delta_merges`.
    pub fn total_delta_merges(&self) -> u64 {
        self.sum(&|c| c.delta_merges)
    }

    /// Total predicate evaluations over the tree; equals `RuntimeStats::predicate_evals`.
    pub fn total_predicate_evals(&self) -> u64 {
        self.sum(&|c| c.predicate_evals)
    }

    /// Total predicate drops over the tree; equals `RuntimeStats::predicate_drops`.
    pub fn total_predicate_drops(&self) -> u64 {
        self.sum(&|c| c.predicate_drops)
    }

    /// Total merge-kernel intersections over the tree; equals `RuntimeStats::kernel_merge`.
    pub fn total_kernel_merge(&self) -> u64 {
        self.sum(&|c| c.kernel_merge)
    }

    /// Total gallop-kernel intersections over the tree; equals `RuntimeStats::kernel_gallop`.
    pub fn total_kernel_gallop(&self) -> u64 {
        self.sum(&|c| c.kernel_gallop)
    }

    /// Total block-kernel intersections over the tree; equals `RuntimeStats::kernel_block`.
    pub fn total_kernel_block(&self) -> u64 {
        self.sum(&|c| c.kernel_block)
    }

    /// Number of operator nodes in the tree (adaptive stages count as one).
    pub fn num_operators(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| c.num_operators())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(icost: u64, tuples_out: u64, outputs: u64) -> OpCounters {
        OpCounters {
            icost,
            tuples_out,
            outputs,
            ..Default::default()
        }
    }

    #[test]
    fn totals_fold_over_children_and_candidates() {
        let scan = OpProfile {
            kind: OpKind::Scan { src: 0, dst: 1 },
            counters: counters(0, 10, 0),
            candidates: vec![],
            children: vec![],
        };
        let adaptive = OpProfile {
            kind: OpKind::Adaptive {
                targets: vec![2, 3],
            },
            counters: counters(0, 4, 7),
            candidates: vec![CandidateProfile {
                order: vec![2, 3],
                chosen: 10,
                steps: vec![counters(100, 4, 0), counters(50, 0, 0)],
            }],
            children: vec![scan],
        };
        assert_eq!(adaptive.total_icost(), 150);
        assert_eq!(adaptive.total_intermediate_tuples(), 18);
        assert_eq!(adaptive.total_outputs(), 7);
        assert_eq!(adaptive.num_operators(), 2);
        assert_eq!(adaptive.candidates[0].counters().icost, 150);
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
