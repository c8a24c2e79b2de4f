//! Matching allocates per intersection, not per match, and a hash join allocates per table,
//! not per build or probe tuple. This binary counts heap allocations on the calling thread
//! through its own global allocator, runs one-worker plans whose results far outnumber their
//! intersection-cache misses (or their hash tables), and bounds the allocations by the tuples.
//! The counts are deterministic, so the guard needs no clock.

use graphflow_catalog::Catalogue;
use graphflow_exec::{execute_with_sink, CountingSink, ExecOptions, RuntimeStats};
use graphflow_graph::{Graph, GraphBuilder};
use graphflow_plan::cost::CostModel;
use graphflow_plan::plan::{Plan, PlanNode};
use graphflow_plan::wco::{wco_node_for_ordering, wco_plan_for_ordering};
use graphflow_query::patterns;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting every allocation and reallocation of the thread it runs on.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so `System`'s guarantees
// are this allocator's. Counting only touches a thread-local `Cell` with a `const` initialiser
// and no destructor, which itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and return its result with the allocations it made on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn complete_graph(n: u32) -> Arc<Graph> {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            b.add_edge(i, j);
        }
    }
    Arc::new(b.build())
}

#[test]
fn matching_allocates_per_intersection_not_per_match() {
    let g = complete_graph(20);
    let cat = Catalogue::with_defaults(g.clone());
    // Diamond-X scanned on (a2, a3): both later extensions read only a2 and a3, so each scanned
    // edge misses the cache twice and then emits 18 × 18 matches.
    let q = patterns::diamond_x();
    let plan = wco_plan_for_ordering(&q, &cat, &CostModel::default(), &[1, 2, 0, 3]).unwrap();
    let run = |adaptive: Option<&Catalogue>| -> RuntimeStats {
        let mut sink = CountingSink::new();
        execute_with_sink(&*g, &plan, adaptive, 1, ExecOptions::default(), &mut sink)
    };
    // The catalogue samples lazily: the first adaptive compilation asks it for the first time.
    run(Some(&cat));
    for adaptive in [None, Some(&cat)] {
        let label = if adaptive.is_some() {
            "adaptive"
        } else {
            "fixed"
        };
        let (stats, allocations) = allocations_during(|| run(adaptive));
        assert_eq!(stats.output_count, 20 * 19 * 18 * 18, "{label}");
        assert!(
            stats.output_count > 100 * stats.cache_misses,
            "{label}: {} misses for {} outputs",
            stats.cache_misses,
            stats.output_count
        );
        assert!(
            allocations < stats.output_count / 10,
            "{label}: {allocations} allocations for {} outputs",
            stats.output_count
        );
    }
}

#[test]
fn hash_joins_allocate_per_table_not_per_tuple() {
    let g = complete_graph(20);
    // Diamond-X as the two triangles (a1, a2, a3) and (a2, a3, a4) joined on (a2, a3): every
    // build and probe tuple is a triangle, and each probe joins 18 build tuples.
    let q = patterns::diamond_x();
    let build = wco_node_for_ordering(&q, &[1, 2, 3]).unwrap();
    let probe = wco_node_for_ordering(&q, &[0, 1, 2]).unwrap();
    let plan = Plan::new(
        q.clone(),
        PlanNode::hash_join(&q, build, probe).unwrap(),
        0.0,
    );
    for count_tail in [false, true] {
        let label = if count_tail {
            "counting"
        } else {
            "enumerating"
        };
        let (stats, allocations) = allocations_during(|| {
            let mut sink = CountingSink::new();
            let options = ExecOptions {
                count_tail,
                ..Default::default()
            };
            execute_with_sink(&*g, &plan, None, 1, options, &mut sink)
        });
        assert_eq!(stats.output_count, 20 * 19 * 18 * 18, "{label}");
        assert_eq!(stats.hash_build_tuples, 20 * 19 * 18, "{label}");
        assert_eq!(stats.hash_probe_tuples, 20 * 19 * 18, "{label}");
        assert_eq!(
            stats.bulk_counted_extensions,
            if count_tail {
                stats.hash_probe_tuples
            } else {
                0
            },
            "{label}: every probe is answered in bulk when counting"
        );
        let tuples = stats.hash_build_tuples + stats.hash_probe_tuples;
        assert!(
            allocations < tuples / 10,
            "{label}: {allocations} allocations for {tuples} build and probe tuples"
        );
    }
}
