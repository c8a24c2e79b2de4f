//! Kernel correctness tests: unit cases for each kernel plus the adversarial differential
//! suite — every kernel (scalar merge, gallop, portable block, explicit AVX2 block) must agree
//! with the naive reference on dense/sparse mixes, exact block-width multiples and ragged
//! tails, empty/singleton lists, and all-equal runs.

use super::block::{block_intersect_avx2_checked, block_intersect_portable};
use super::scalar::{branchless_lower_bound, gallop_intersect, merge_intersect};
use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_sorted_list(rng: &mut StdRng, max_value: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_range(0..=max_len);
    let mut l: Vec<u32> = (0..len).map(|_| rng.gen_range(0..max_value)).collect();
    l.sort_unstable();
    l.dedup();
    l
}

/// Run every two-way implementation on `(a, b)` and assert they all match the naive oracle.
/// Returns the result so callers can assert on content too.
fn assert_all_kernels_agree(a: &[u32], b: &[u32], label: &str) -> Vec<u32> {
    let expected = naive_intersect(&[a, b]);
    let mut out = Vec::new();
    merge_intersect(a, b, &mut out);
    assert_eq!(out, expected, "{label}: merge");
    // Gallop is asymmetric: probe the larger list with the smaller.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.clear();
    gallop_intersect(small, large, &mut out);
    assert_eq!(out, expected, "{label}: gallop");
    out.clear();
    block_intersect_portable(a, b, &mut out);
    assert_eq!(out, expected, "{label}: block/portable");
    if let Some(simd) = block_intersect_avx2_checked(a, b) {
        assert_eq!(simd, expected, "{label}: block/avx2");
    }
    // The public dispatching entry point (whatever the selector picks).
    out.clear();
    intersect_sorted_into(a, b, &mut out);
    assert_eq!(out, expected, "{label}: dispatch");
    expected
}

#[test]
fn two_way_basic() {
    assert_eq!(
        intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], 8),
        vec![3, 7]
    );
    assert_eq!(intersect_sorted(&[], &[1, 2], 2), Vec::<u32>::new());
    assert_eq!(intersect_sorted(&[1, 2], &[], 2), Vec::<u32>::new());
    assert_eq!(intersect_sorted(&[5], &[5], 1), vec![5]);
}

#[test]
fn gallop_path_matches_merge_path() {
    let small: Vec<u32> = vec![10, 500, 900, 1500];
    let large: Vec<u32> = (0..2000).collect();
    let mut out = Vec::new();
    gallop_intersect(&small, &large, &mut out);
    assert_eq!(out, small);

    let small2: Vec<u32> = vec![2001, 3000];
    let mut out2 = Vec::new();
    gallop_intersect(&small2, &large, &mut out2);
    assert!(out2.is_empty());
}

#[test]
fn branchless_lower_bound_matches_partition_point() {
    let mut rng = StdRng::seed_from_u64(0x10B0);
    for _ in 0..200 {
        let s = random_sorted_list(&mut rng, 300, 80);
        for x in [0u32, 1, 150, 299, 300, rng.gen_range(0..320)] {
            assert_eq!(
                branchless_lower_bound(&s, x),
                s.partition_point(|&v| v < x),
                "s.len()={} x={x}",
                s.len()
            );
        }
    }
    assert_eq!(branchless_lower_bound(&[], 5), 0);
    assert_eq!(branchless_lower_bound(&[7], 5), 0);
    assert_eq!(branchless_lower_bound(&[7], 7), 0);
    assert_eq!(branchless_lower_bound(&[7], 9), 1);
}

#[test]
fn selector_routes_by_ratio_and_density() {
    // Huge size ratio: gallop, regardless of density.
    let small: Vec<u32> = (0..8).collect();
    let large: Vec<u32> = (0..1024).collect();
    assert_eq!(select_kernel(&small, &large), Kernel::Gallop);
    // Comparable sizes, dense interleaving: block.
    let a: Vec<u32> = (0..256).map(|x| x * 2).collect();
    let b: Vec<u32> = (0..256).map(|x| x * 2 + 1).collect();
    assert_eq!(select_kernel(&a, &b), Kernel::Block);
    // Comparable sizes but values scattered over a huge span: merge.
    let sparse_a: Vec<u32> = (0..64).map(|x| x * 1_000_000).collect();
    let sparse_b: Vec<u32> = (0..64).map(|x| x * 1_000_000 + 500_000).collect();
    assert_eq!(select_kernel(&sparse_a, &sparse_b), Kernel::Merge);
    // Too short for blocking even when dense: merge.
    let tiny: Vec<u32> = (0..8).collect();
    let tiny2: Vec<u32> = (4..12).collect();
    assert_eq!(select_kernel(&tiny, &tiny2), Kernel::Merge);
}

#[test]
fn counters_record_each_dispatch() {
    let mut kc = KernelCounters::default();
    let mut out = Vec::new();
    let small: Vec<u32> = (0..8).collect();
    let large: Vec<u32> = (0..1024).collect();
    intersect_sorted_into_counted(&small, &large, &mut out, &mut kc);
    assert_eq!((kc.merge, kc.gallop, kc.block), (0, 1, 0));
    let a: Vec<u32> = (0..256).map(|x| x * 2).collect();
    let b: Vec<u32> = (0..256).map(|x| x * 3).collect();
    intersect_sorted_into_counted(&a, &b, &mut out, &mut kc);
    assert_eq!((kc.merge, kc.gallop, kc.block), (0, 1, 1));
    let t1 = vec![1u32, 9, 40];
    let t2 = vec![2u32, 9, 41];
    intersect_sorted_into_counted(&t1, &t2, &mut out, &mut kc);
    assert_eq!((kc.merge, kc.gallop, kc.block), (1, 1, 1));
    assert_eq!(kc.total(), 3);
    let mut folded = KernelCounters::default();
    folded.merge_from(&kc);
    folded.merge_from(&kc);
    assert_eq!(folded.total(), 6);
    // Disjoint ranges short-circuit before any kernel runs.
    let lo: Vec<u32> = (0..64).collect();
    let hi: Vec<u32> = (1000..1064).collect();
    let mut kc2 = KernelCounters::default();
    intersect_sorted_into_counted(&lo, &hi, &mut out, &mut kc2);
    assert!(out.is_empty());
    assert_eq!(kc2.total(), 0);
}

// --- adversarial differential suite ----------------------------------------------------

#[test]
fn adversarial_block_width_multiples_and_ragged_tails() {
    // Lengths straddling every block boundary: 0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33.
    let lens = [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 64, 65];
    for &la in &lens {
        for &lb in &lens {
            // Evens against a mixed-stride list that overlaps them intermittently.
            let a: Vec<u32> = (0..la as u32).map(|x| x * 2).collect();
            let b: Vec<u32> = (0..lb as u32).map(|x| x + x / 4).collect();
            assert_all_kernels_agree(&a, &b, &format!("ragged {la}x{lb}"));
        }
    }
}

#[test]
fn adversarial_dense_sparse_mixes() {
    let mut rng = StdRng::seed_from_u64(0xD5);
    for round in 0..120 {
        // Alternate density regimes: dense (values 0..200), sparse (0..100_000), and mixed.
        let (max_a, max_b) = match round % 3 {
            0 => (200, 200),
            1 => (100_000, 100_000),
            _ => (200, 100_000),
        };
        let a = random_sorted_list(&mut rng, max_a, 300);
        let b = random_sorted_list(&mut rng, max_b, 300);
        assert_all_kernels_agree(&a, &b, &format!("mix round {round}"));
    }
}

#[test]
fn adversarial_identical_and_all_equal_runs() {
    // Both lists identical — every element matches (the all-equal extreme).
    for len in [1usize, 8, 16, 17, 100] {
        let a: Vec<u32> = (0..len as u32).map(|x| x * 3 + 1).collect();
        let got = assert_all_kernels_agree(&a, &a.clone(), &format!("identical len {len}"));
        assert_eq!(got, a);
    }
    // One shared run in the middle of otherwise disjoint lists.
    let run: Vec<u32> = (500..540).collect();
    let mut a: Vec<u32> = (0..100).collect();
    a.extend(&run);
    let mut b: Vec<u32> = run.clone();
    b.extend(1000..1100);
    let got = assert_all_kernels_agree(&a, &b, "shared run");
    assert_eq!(got, run);
}

#[test]
fn adversarial_empty_singleton_and_boundaries() {
    let empty: Vec<u32> = vec![];
    let single = vec![42u32];
    let block: Vec<u32> = (40..48).collect();
    assert_all_kernels_agree(&empty, &empty, "empty/empty");
    assert_all_kernels_agree(&empty, &block, "empty/block");
    assert_all_kernels_agree(&single, &block, "singleton hit");
    assert_all_kernels_agree(&[7], &block, "singleton miss");
    // Matches exactly at block boundaries (indices 0, 7, 8, 15).
    let a: Vec<u32> = (0..32).map(|x| x * 10).collect();
    let b = vec![0u32, 70, 80, 150, 310];
    assert_all_kernels_agree(&a, &b, "boundary hits");
    // u32::MAX endpoints.
    let hi = vec![u32::MAX - 9, u32::MAX - 1, u32::MAX];
    let hi2 = vec![u32::MAX - 9, u32::MAX];
    assert_all_kernels_agree(&hi, &hi2, "u32 max");
}

#[test]
fn simd_force_disable_switches_implementation_and_agrees() {
    // Exercise the public dispatch with SIMD force-disabled, then restored. The differential
    // assertions above already cover both mask implementations directly (so this passes on
    // machines without AVX2 too); here we additionally pin the process-wide switch.
    let a: Vec<u32> = (0..500).map(|x| x * 2).collect();
    let b: Vec<u32> = (0..500).map(|x| x * 3).collect();
    let expected = naive_intersect(&[&a, &b]);
    let mut out = Vec::new();
    set_simd_enabled(false);
    assert!(!block::simd_active(), "force-disable must stick");
    intersect_sorted_into(&a, &b, &mut out);
    assert_eq!(out, expected, "portable path");
    set_simd_enabled(true);
    // On AVX2 machines the explicit path is back; either way results agree.
    intersect_sorted_into(&a, &b, &mut out);
    assert_eq!(out, expected, "re-enabled path");
}

// --- multiway ---------------------------------------------------------------------------

#[test]
fn multiway_matches_naive() {
    let a: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 10];
    let b: Vec<u32> = vec![2, 4, 6, 8, 10];
    let c: Vec<u32> = vec![2, 3, 4, 10, 12];
    let lists = [&a[..], &b[..], &c[..]];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    multiway_intersect(&lists, &mut out, &mut scratch);
    assert_eq!(out, naive_intersect(&lists));
    assert_eq!(out, vec![2, 4, 10]);
}

#[test]
fn single_list_copies() {
    let a: Vec<u32> = vec![3, 9, 27];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    multiway_intersect(&[&a[..]], &mut out, &mut scratch);
    assert_eq!(out, a);
}

#[test]
fn empty_input_list_set() {
    let mut out = vec![1, 2, 3];
    let mut scratch = Vec::new();
    multiway_intersect(&[], &mut out, &mut scratch);
    assert!(out.is_empty());
}

#[test]
fn multiway_smallest_first_without_allocation_matches_sorted_order() {
    // Many lists with deliberately unordered sizes: the bitmask selection must reproduce the
    // smallest-first schedule the old sort produced.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..50 {
        let k = rng.gen_range(3..10usize);
        let lists: Vec<Vec<u32>> = (0..k)
            .map(|_| random_sorted_list(&mut rng, 400, 150))
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut kc = KernelCounters::default();
        multiway_intersect_views_counted(&refs, &mut out, &mut scratch, &mut kc);
        assert_eq!(out, naive_intersect(&refs));
    }
}

#[test]
fn multiway_beyond_bitmask_width_falls_back() {
    // 70 lists (> 64): exercises the heap fallback path.
    let lists: Vec<Vec<u32>> = (0..70u32).map(|_| (0..40).collect()).collect();
    let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    multiway_intersect(&refs, &mut out, &mut scratch);
    assert_eq!(out, (0..40).collect::<Vec<u32>>());
}

// Randomised property checks over seeded inputs (deterministic, no external test harness).

#[test]
fn prop_two_way_equals_naive() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..100 {
        let a = random_sorted_list(&mut rng, 500, 200);
        let b = random_sorted_list(&mut rng, 500, 200);
        assert_all_kernels_agree(&a, &b, "prop two-way");
    }
}

#[test]
fn prop_multiway_equals_naive() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..100 {
        let num_lists = rng.gen_range(1..5usize);
        let lists: Vec<Vec<u32>> = (0..num_lists)
            .map(|_| random_sorted_list(&mut rng, 300, 120))
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        multiway_intersect(&refs, &mut out, &mut scratch);
        assert_eq!(out, naive_intersect(&refs));
    }
}

#[test]
fn prop_gallop_skewed_sizes() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..50 {
        let s = random_sorted_list(&mut rng, 10_000, 8);
        let large_len = rng.gen_range(1000usize..4000);
        let large: Vec<u32> = (0..large_len as u32).map(|x| x * 3).collect();
        let mut out = Vec::new();
        intersect_sorted_into(&s, &large, &mut out);
        assert_eq!(out, naive_intersect(&[&s, &large]));
    }
}
