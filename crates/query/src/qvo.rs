//! Query-vertex-ordering (QVO) enumeration.
//!
//! A WCO plan is determined by an ordering `σ` of the query vertices such that every prefix of
//! `σ` induces a connected sub-query (paper Section 2, Generic Join). This module enumerates
//! those orderings, optionally de-duplicating orderings that are equivalent under an
//! automorphism of the query — such orderings "perform exactly the same operations"
//! (Section 3.2.3), so the optimizer and the plan-spectrum experiments only need one
//! representative per equivalence class.

use crate::canonical::automorphisms;
use crate::querygraph::{set_iter, singleton, QueryGraph, VertexSet};

/// Enumerate every ordering of all query vertices whose every prefix is connected.
pub fn connected_orderings(q: &QueryGraph) -> Vec<Vec<usize>> {
    let full = q.full_set();
    orderings_extending(q, 0, full, usize::MAX)
}

/// The first of [`connected_orderings`] (they come in lexicographic order) without enumerating
/// the rest: start at vertex 0 and keep appending the lowest-numbered vertex adjacent to the
/// covered set. A disconnected query has no connected ordering; its vertices come back in
/// index order.
pub fn first_connected_ordering(q: &QueryGraph) -> Vec<usize> {
    let n = q.num_vertices();
    let nbrs = q.neighbour_sets();
    let mut order = Vec::with_capacity(n);
    let mut covered: VertexSet = 0;
    while order.len() < n {
        let Some(v) = (0..n)
            .find(|&v| covered & singleton(v) == 0 && (covered == 0 || nbrs[v] & covered != 0))
        else {
            return (0..n).collect();
        };
        order.push(v);
        covered |= singleton(v);
    }
    order
}

/// Enumerate every ordering of the vertices in `target \ start` such that, starting from the
/// (assumed connected or empty) set `start`, every prefix stays connected inside `target`.
///
/// With `start = 0` the first vertex may be any vertex of `target`. The returned orderings list
/// only the *newly added* vertices, in lexicographic order, and stop at the first `limit` of
/// them (there are up to `|target \ start|!`).
pub fn orderings_extending(
    q: &QueryGraph,
    start: VertexSet,
    target: VertexSet,
    limit: usize,
) -> Vec<Vec<usize>> {
    fn rec(
        nbrs: &[VertexSet],
        covered: VertexSet,
        target: VertexSet,
        limit: usize,
        current: &mut Vec<usize>,
        results: &mut Vec<Vec<usize>>,
    ) {
        if covered == target {
            return results.push(current.clone());
        }
        for v in set_iter(target & !covered) {
            // The next vertex must attach to the already-covered set, unless nothing is covered.
            if results.len() < limit && (covered == 0 || nbrs[v] & covered != 0) {
                current.push(v);
                rec(
                    nbrs,
                    covered | singleton(v),
                    target,
                    limit,
                    current,
                    results,
                );
                current.pop();
            }
        }
    }
    let mut results = Vec::new();
    let nbrs = q.neighbour_sets();
    rec(&nbrs, start, target, limit, &mut Vec::new(), &mut results);
    results
}

/// De-duplicate orderings that are images of one another under an automorphism of the query.
///
/// Two orderings `σ` and `σ'` are equivalent iff there is an automorphism `π` of `Q` with
/// `σ'[i] = π(σ[i])` for all `i`; equivalent orderings execute identical operations.
pub fn dedup_by_automorphism(q: &QueryGraph, orderings: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    let autos = automorphisms(q);
    if autos.len() <= 1 {
        return orderings;
    }
    let mut kept: Vec<Vec<usize>> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    for sigma in orderings {
        if seen.contains(&sigma) {
            continue;
        }
        // Mark all images of sigma as seen.
        for pi in &autos {
            let image: Vec<usize> = sigma.iter().map(|&v| pi[v]).collect();
            seen.insert(image);
        }
        kept.push(sigma);
    }
    kept
}

/// Connected orderings de-duplicated by query automorphisms — the set of *distinct* WCO plans.
pub fn distinct_orderings(q: &QueryGraph) -> Vec<Vec<usize>> {
    dedup_by_automorphism(q, connected_orderings(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn triangle_orderings() {
        let tri = patterns::asymmetric_triangle();
        let all = connected_orderings(&tri);
        // Complete graph on 3 vertices: all 3! = 6 orderings are connected.
        assert_eq!(all.len(), 6);
        // The asymmetric triangle has a trivial automorphism group, so nothing collapses.
        assert_eq!(distinct_orderings(&tri).len(), 6);
    }

    #[test]
    fn first_connected_ordering_is_the_head_of_the_enumeration() {
        for (j, q) in patterns::all_benchmark_queries() {
            let all = connected_orderings(&q);
            assert_eq!(first_connected_ordering(&q), all[0], "Q{j}");
        }
        // Two disjoint edges: no connected ordering exists.
        let mut q = QueryGraph::new();
        for _ in 0..4 {
            q.add_default_vertex();
        }
        q.add_edge(0, 1, graphflow_graph::EdgeLabel(0));
        q.add_edge(3, 2, graphflow_graph::EdgeLabel(0));
        assert!(connected_orderings(&q).is_empty());
        assert_eq!(first_connected_ordering(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_prefix_is_connected() {
        let q = patterns::benchmark_query(8);
        for sigma in connected_orderings(&q) {
            let mut covered = 0u32;
            for &v in &sigma {
                covered |= singleton(v);
                assert!(q.is_connected_subset(covered));
            }
            assert_eq!(covered, q.full_set());
        }
    }

    #[test]
    fn path_orderings_count() {
        // Path a1->a2->a3->a4: connected orderings = orderings where prefix is a sub-path
        // containing a contiguous segment. Count: choose start vertex, then extend ends.
        let p = patterns::directed_path(4);
        let all = connected_orderings(&p);
        // For a path of n vertices the number of connected orderings is 2^(n-1) = 8... times the
        // choice of which contiguous segment grows; exact value for n=4 is 8.
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn symmetric_query_collapses_orderings() {
        // The symmetric diamond-X has a non-trivial automorphism (swap a2/a3 composes with
        // others), so distinct orderings are fewer than all connected orderings.
        let q = patterns::symmetric_diamond_x();
        let all = connected_orderings(&q);
        let distinct = distinct_orderings(&q);
        assert!(
            distinct.len() < all.len(),
            "{} !< {}",
            distinct.len(),
            all.len()
        );
        assert!(all.len().is_multiple_of(distinct.len()) || !distinct.is_empty());
    }

    #[test]
    fn orderings_extending_a_prefix() {
        let dx = patterns::diamond_x();
        // Fix the first two vertices to {a2, a3} (the shared edge); the remaining orderings
        // append a1 and a4 in either order.
        let set_a2a3 = singleton(1) | singleton(2);
        let exts = orderings_extending(&dx, set_a2a3, dx.full_set(), usize::MAX);
        assert_eq!(exts.len(), 2);
        assert!(exts.contains(&vec![0, 3]));
        assert!(exts.contains(&vec![3, 0]));
    }

    #[test]
    fn clique_ordering_counts() {
        // Directed 4-clique (acyclic orientation, trivial automorphisms): all 4! orderings are
        // connected and distinct.
        let k4 = patterns::directed_clique(4);
        assert_eq!(connected_orderings(&k4).len(), 24);
        assert_eq!(distinct_orderings(&k4).len(), 24);
    }
}
