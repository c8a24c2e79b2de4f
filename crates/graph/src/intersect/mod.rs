//! Tiered sorted-set intersection kernels.
//!
//! Worst-case optimal join processing spends nearly all of its time intersecting sorted
//! adjacency lists (the paper's EXTEND/INTERSECT operator, Section 3.1); Equation 1's i-cost
//! is, to first order, the engine's runtime. This module therefore treats two-way intersection
//! as a *kernel dispatch* problem: every call inspects the two lists and routes to the
//! cheapest of three kernels:
//!
//! * [`Kernel::Merge`] — the classic linear merge ([`scalar::merge_intersect`]); best when the
//!   lists are of comparable size but too short or too sparse for blocking to pay off;
//! * [`Kernel::Gallop`] — per-element exponential probing of the larger list with a
//!   **branchless** binary search ([`scalar::gallop_intersect`]); best when one list is much
//!   smaller than the other (`|large| / |small| >= `[`GALLOP_RATIO`]);
//! * [`Kernel::Block`] — a branchless block kernel comparing 8×u32 chunks all-pairs
//!   ([`block`]): the portable variant is written so LLVM autovectorizes it to SSE2/AVX2
//!   compares, and on x86-64 with AVX2 detected at runtime an explicit
//!   [`core::arch`] variant is used instead. Best when the lists are of comparable size and
//!   dense enough that the merge loop's data-dependent branches would mispredict constantly.
//!
//! The choice is made per call from the **size ratio and the density** of the two lists (see
//! [`select_kernel`]), replacing the single ratio cut-off the engine used to have. Callers on
//! the hot path use the `*_counted` entry points, which record which kernel ran in a
//! [`KernelCounters`] — the executors fold those into `RuntimeStats` and the per-operator
//! profile so `EXPLAIN`/`PROFILE` output shows the kernel mix of a run.
//!
//! k-way intersection ([`multiway_intersect`]) is performed as iterative two-way in-tandem
//! intersections, smallest lists first, exactly as described in the paper; the ordering index
//! lives on the stack (no per-call allocation — this is the innermost loop of the engine).
//!
//! The kernels do not track cost themselves; the executor accounts *i-cost* (the total size of
//! the accessed lists, Equation 1 of the paper) at the operator level so that cached
//! intersections are correctly excluded.
//!
//! All kernels require their inputs to be **strictly sorted** (duplicate-free ascending), the
//! invariant the CSR builder and the delta store maintain for every adjacency partition.

pub mod block;
pub mod scalar;

#[cfg(test)]
mod tests;

pub use block::{set_simd_enabled, simd_active};

use crate::ids::VertexId;

/// When `|larger| / |smaller|` reaches this factor the two-way dispatch switches to galloping
/// (exponential + branchless binary search) probes of the larger list.
pub const GALLOP_RATIO: usize = 32;

/// Minimum length of the *smaller* list for the block kernel to be considered: below this the
/// blocked main loop degenerates into its scalar tail and selection overhead dominates.
pub const BLOCK_MIN_LEN: usize = 16;

/// Density cut-off for the block kernel: the block kernel is considered only while the
/// combined value span of the two lists is at most `BLOCK_MAX_GAP` times the total element
/// count (average gap ≤ `BLOCK_MAX_GAP`). For comparable-size lists the block kernel retires
/// one 8-element chunk per branchless iteration regardless of density, so it beats the
/// mispredicting merge loop across every density the `kernel_microbench` workloads measure;
/// the cut-off only fences off the extreme-sparse end (average gaps in the thousands — far
/// sparser than adjacency lists over contiguous vertex IDs get), where near-disjoint value
/// clustering lets merge's pointer chase skip whole runs without ever comparing them 8-wide.
pub const BLOCK_MAX_GAP: u64 = 1024;

/// Which two-way kernel [`select_kernel`] routed a call to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear scalar merge.
    Merge,
    /// Exponential search (galloping) with branchless binary-search probes.
    Gallop,
    /// Branchless 8×u32 block kernel (autovectorized or explicit AVX2).
    Block,
}

/// Per-kernel invocation counts recorded by the `*_counted` entry points. The executors merge
/// these into `RuntimeStats` / the operator profile so a profiled run reports its kernel mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Two-way intersections executed by the scalar merge kernel.
    pub merge: u64,
    /// Two-way intersections executed by the galloping kernel.
    pub gallop: u64,
    /// Two-way intersections executed by the block (SIMD) kernel.
    pub block: u64,
}

impl KernelCounters {
    /// Fold another counter set into this one.
    pub fn merge_from(&mut self, other: &KernelCounters) {
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.block += other.block;
    }

    /// Total two-way kernel invocations recorded.
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.block
    }

    #[inline]
    fn record(&mut self, k: Kernel) {
        match k {
            Kernel::Merge => self.merge += 1,
            Kernel::Gallop => self.gallop += 1,
            Kernel::Block => self.block += 1,
        }
    }
}

/// Pick the cheapest kernel for intersecting `small` with `large` (`small.len() <=
/// large.len()`, both non-empty) from their **size ratio and density**:
///
/// 1. ratio at least [`GALLOP_RATIO`] → [`Kernel::Gallop`] (skipping most of `large` beats
///    reading it);
/// 2. otherwise, if `small` has at least [`BLOCK_MIN_LEN`] elements and the average value gap
///    over the lists' combined span is at most [`BLOCK_MAX_GAP`] → [`Kernel::Block`] (dense
///    comparable lists: branchless all-pairs compares beat a mispredicting merge loop);
/// 3. otherwise → [`Kernel::Merge`].
#[inline]
pub fn select_kernel(small: &[VertexId], large: &[VertexId]) -> Kernel {
    debug_assert!(!small.is_empty() && !large.is_empty() && small.len() <= large.len());
    if large.len() / small.len() >= GALLOP_RATIO {
        return Kernel::Gallop;
    }
    if small.len() >= BLOCK_MIN_LEN {
        let lo = small[0].min(large[0]) as u64;
        let hi = (small[small.len() - 1].max(large[large.len() - 1])) as u64;
        let span = hi - lo + 1;
        if span <= (small.len() + large.len()) as u64 * BLOCK_MAX_GAP {
            return Kernel::Block;
        }
    }
    Kernel::Merge
}

/// Intersect two sorted slices into a freshly allocated vector.
pub fn intersect_sorted(a: &[VertexId], b: &[VertexId], out_hint: usize) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(out_hint.min(a.len().min(b.len())));
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Intersect two sorted slices, appending the result (also sorted) to `out`.
///
/// `out` is cleared first so it can be reused as a workhorse buffer across calls.
pub fn intersect_sorted_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let mut kc = KernelCounters::default();
    intersect_sorted_into_counted(a, b, out, &mut kc);
}

/// [`intersect_sorted_into`] recording which kernel ran in `counters` (the hot-path entry the
/// executors use to report kernel mixes through `RuntimeStats` and `PROFILE`).
pub fn intersect_sorted_into_counted(
    a: &[VertexId],
    b: &[VertexId],
    out: &mut Vec<VertexId>,
    counters: &mut KernelCounters,
) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Disjoint value ranges intersect to nothing; one compare saves a whole kernel run.
    if small[small.len() - 1] < large[0] || large[large.len() - 1] < small[0] {
        return;
    }
    let kernel = select_kernel(small, large);
    counters.record(kernel);
    match kernel {
        Kernel::Gallop => scalar::gallop_intersect(small, large, out),
        Kernel::Block => block::block_intersect(small, large, out),
        Kernel::Merge => scalar::merge_intersect(small, large, out),
    }
}

/// Intersect `k >= 1` sorted lists with iterative two-way intersections, smallest first.
///
/// Returns the intersection in `out` (sorted). `scratch` is a reusable buffer to avoid
/// per-call allocations in the hot path of the E/I operator.
pub fn multiway_intersect(
    lists: &[&[VertexId]],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
) {
    multiway_intersect_views(lists, out, scratch)
}

/// [`multiway_intersect`] over any slice-like list type (anything that derefs to
/// `[VertexId]`, e.g. [`NbrList`](crate::graph::NbrList)). The executors call this with their
/// `Vec<NbrList>` directly, so the hot E/I path does not build a second vector of slice
/// references just to adapt types.
pub fn multiway_intersect_views<L>(
    lists: &[L],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
) where
    L: std::ops::Deref<Target = [VertexId]>,
{
    let mut kc = KernelCounters::default();
    multiway_intersect_views_counted(lists, out, scratch, &mut kc);
}

/// [`multiway_intersect_views`] recording the per-kernel invocation counts in `counters`.
///
/// The k≥3 ordering pass (smallest lists first, so the running intersection shrinks as fast as
/// possible) runs entirely on the stack: lists are picked by repeated smallest-unused scans
/// over a `u64` bitmask instead of sorting a heap-allocated index vector — this is the hottest
/// loop of the engine and used to allocate a fresh `Vec<usize>` per call.
pub fn multiway_intersect_views_counted<L>(
    lists: &[L],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    counters: &mut KernelCounters,
) where
    L: std::ops::Deref<Target = [VertexId]>,
{
    out.clear();
    match lists.len() {
        0 => {}
        1 => out.extend_from_slice(&lists[0]),
        2 => intersect_sorted_into_counted(&lists[0], &lists[1], out, counters),
        k if k <= 64 => {
            // Pick lists smallest-first by scanning a stack-resident used-bitmask: O(k²)
            // scans, but k is bounded by the query's vertex count and the scans are
            // branch-predictable — far cheaper than allocating and sorting an index vector.
            let mut used: u64 = 0;
            let take_smallest = |used: &mut u64| -> usize {
                let mut best = usize::MAX;
                let mut best_len = usize::MAX;
                for (i, l) in lists.iter().enumerate() {
                    if *used & (1 << i) == 0 && l.len() < best_len {
                        best = i;
                        best_len = l.len();
                    }
                }
                *used |= 1 << best;
                best
            };
            let first = take_smallest(&mut used);
            let second = take_smallest(&mut used);
            intersect_sorted_into_counted(&lists[first], &lists[second], out, counters);
            for _ in 2..k {
                if out.is_empty() {
                    return;
                }
                let next = take_smallest(&mut used);
                std::mem::swap(out, scratch);
                intersect_sorted_into_counted(scratch, &lists[next], out, counters);
            }
        }
        k => {
            // More than 64 lists cannot occur for plans over u64 vertex-set bitmaps; keep a
            // heap-ordered fallback anyway so the kernel layer stands alone.
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_unstable_by_key(|&i| lists[i].len());
            intersect_sorted_into_counted(&lists[order[0]], &lists[order[1]], out, counters);
            for &i in &order[2..] {
                if out.is_empty() {
                    return;
                }
                std::mem::swap(out, scratch);
                intersect_sorted_into_counted(scratch, &lists[i], out, counters);
            }
        }
    }
}

/// Naive reference intersection used by tests and property checks.
pub fn naive_intersect(lists: &[&[VertexId]]) -> Vec<VertexId> {
    if lists.is_empty() {
        return Vec::new();
    }
    let mut result: Vec<VertexId> = lists[0].to_vec();
    for l in &lists[1..] {
        let set: std::collections::BTreeSet<_> = l.iter().copied().collect();
        result.retain(|v| set.contains(v));
    }
    result
}
