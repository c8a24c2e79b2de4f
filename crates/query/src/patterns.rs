//! Constructors for the query shapes used throughout the paper.
//!
//! Section 3 of the paper uses three running examples (the asymmetric triangle, the diamond-X
//! and the tailed triangle, plus the symmetric variant of the diamond-X in Figure 2a), and the
//! evaluation (Figure 6) uses fourteen benchmark queries `Q1 ... Q14` with up to 7 query
//! vertices and 21 query edges. Not every edge direction is recoverable from the figure, so the
//! shapes here follow the constraints stated in the text:
//!
//! * `Q1` is the (asymmetric) triangle; `Q14` is a 7-clique with 21 edges;
//! * `Q6` and `Q7` are the 4- and 5-cliques (their plan spectra contain only WCO plans);
//! * `Q4` is the diamond-X of Figure 1 (8 WCO plans, Table 3) and `Q5` its symmetric variant
//!   (Figure 2a, Table 6);
//! * `Q8` is two triangles sharing the single query vertex `a3`;
//! * `Q9` is two vertex-sharing triangles with an extra query vertex hanging off the second
//!   triangle (the Figure 10 plan computes two triangles, joins them, and closes with a 2-way
//!   intersection);
//! * `Q10` joins a diamond-X and a triangle on `a4` (Section 8.3);
//! * `Q11` and `Q13` are acyclic (5- and 6-vertex trees); `Q12` is the 6-cycle of Figure 1d;
//! * `Q2` is the directed square (4-cycle) and `Q3` the tailed triangle of Figure 2b.

use crate::querygraph::QueryGraph;
use graphflow_graph::{EdgeLabel, VertexLabel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

fn query_with_vertices(n: usize) -> QueryGraph {
    let mut q = QueryGraph::new();
    for _ in 0..n {
        q.add_default_vertex();
    }
    q
}

fn with_edges(n: usize, edges: &[(usize, usize)]) -> QueryGraph {
    let mut q = query_with_vertices(n);
    for &(s, d) in edges {
        q.add_edge(s, d, EdgeLabel(0));
    }
    q
}

/// The asymmetric triangle `a1->a2, a2->a3, a1->a3` (Section 3.2.1).
pub fn asymmetric_triangle() -> QueryGraph {
    with_edges(3, &[(0, 1), (1, 2), (0, 2)])
}

/// The diamond-X of Figure 1: `a1->a2, a1->a3, a2->a3, a2->a4, a3->a4`.
pub fn diamond_x() -> QueryGraph {
    with_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
}

/// The diamond-X variant with a *symmetric* triangle (Figure 2a): the shared edge between the
/// two triangles is a symmetric 2-cycle `a2<->a3`.
pub fn symmetric_diamond_x() -> QueryGraph {
    with_edges(4, &[(1, 2), (2, 1), (1, 0), (2, 0), (1, 3), (2, 3)])
}

/// The tailed triangle of Figure 2b: triangle `a1,a2,a3` plus a tail edge `a2->a4`.
pub fn tailed_triangle() -> QueryGraph {
    with_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3)])
}

/// A directed clique on `k` vertices with the acyclic orientation `ai -> aj` for `i < j`.
pub fn directed_clique(k: usize) -> QueryGraph {
    let mut edges = Vec::new();
    for i in 0..k {
        for j in (i + 1)..k {
            edges.push((i, j));
        }
    }
    with_edges(k, &edges)
}

/// A directed cycle on `k` vertices: `a1->a2->...->ak` closed by `a1->ak`, so the pattern is a
/// single undirected cycle with one source (`a1`) and one sink (`ak`) — matchable on graphs with
/// few strongly-connected cycles.
pub fn directed_cycle(k: usize) -> QueryGraph {
    assert!(k >= 3);
    let mut edges: Vec<(usize, usize)> = (0..k - 1).map(|i| (i, i + 1)).collect();
    edges.push((0, k - 1));
    with_edges(k, &edges)
}

/// A directed path `a1->a2->...->ak`.
pub fn directed_path(k: usize) -> QueryGraph {
    assert!(k >= 2);
    with_edges(k, &(0..k - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
}

/// A directed out-star: `a1 -> a2, ..., a1 -> ak`.
pub fn out_star(k: usize) -> QueryGraph {
    assert!(k >= 2);
    with_edges(k, &(1..k).map(|i| (0, i)).collect::<Vec<_>>())
}

/// Benchmark query `Qj` for `j` in `1..=14` (Figure 6).
///
/// # Panics
/// Panics if `j` is outside `1..=14`.
pub fn benchmark_query(j: usize) -> QueryGraph {
    match j {
        1 => asymmetric_triangle(),
        // Q2: directed square / 4-cycle with a single source and sink.
        2 => with_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]),
        3 => tailed_triangle(),
        4 => diamond_x(),
        5 => symmetric_diamond_x(),
        6 => directed_clique(4),
        7 => directed_clique(5),
        // Q8: two triangles sharing the single vertex a3 (index 2).
        8 => with_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        // Q9: two triangles sharing a3 plus a 6th vertex closing on the second triangle.
        9 => with_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (3, 5),
                (4, 5),
            ],
        ),
        // Q10: diamond-X on a1..a4 joined with a triangle a4,a5,a6 on a4 (index 3).
        10 => with_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        ),
        // Q11: 5-vertex acyclic tree (a two-level out-tree).
        11 => with_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]),
        // Q12: 6-cycle (Figure 1d).
        12 => directed_cycle(6),
        // Q13: 6-vertex acyclic tree (balanced-ish binary out-tree).
        13 => with_edges(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]),
        14 => directed_clique(7),
        _ => panic!("benchmark queries are Q1..Q14, got Q{j}"),
    }
}

/// All fourteen benchmark queries together with their `Qj` number.
pub fn all_benchmark_queries() -> Vec<(usize, QueryGraph)> {
    (1..=14).map(|j| (j, benchmark_query(j))).collect()
}

/// Randomly label the query's edges with one of `num_labels` labels (the query-side half of the
/// paper's `Q^J_i` protocol, Section 8.1.3). Deterministic given the seed.
pub fn label_query_edges_randomly(q: &QueryGraph, num_labels: u16, seed: u64) -> QueryGraph {
    assert!(num_labels >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    q.relabel_edges(|_| EdgeLabel(rng.gen_range(0..num_labels)))
}

/// Randomly label the query's vertices with one of `num_labels` labels. Deterministic.
pub fn label_query_vertices_randomly(q: &QueryGraph, num_labels: u16, seed: u64) -> QueryGraph {
    assert!(num_labels >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    q.relabel_vertices(|_| VertexLabel(rng.gen_range(0..num_labels)))
}

/// A random connected pattern of `sizes` vertices: a random spanning tree plus a number of
/// extra vertex pairs drawn from `extra` (loops skipped), each edge in a random direction with a
/// label drawn from `0..labels`.
pub fn random_connected(
    rng: &mut StdRng,
    sizes: Range<usize>,
    labels: u16,
    extra: Range<usize>,
) -> QueryGraph {
    let n = rng.gen_range(sizes);
    let mut q = query_with_vertices(n);
    let edge = |q: &mut QueryGraph, a: usize, b: usize, rng: &mut StdRng| {
        let (s, d) = if rng.gen_range(0..2usize) == 0 {
            (a, b)
        } else {
            (b, a)
        };
        q.add_edge(s, d, EdgeLabel(rng.gen_range(0..labels)));
    };
    for v in 1..n {
        let u = rng.gen_range(0..v);
        edge(&mut q, u, v, rng);
    }
    for _ in 0..rng.gen_range(extra) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edge(&mut q, a, b, rng);
        }
    }
    q
}

/// Large-query corpus A (one edge label, seeded): the directed paths of 13 and 14 vertices,
/// eight patterns of 13–15 vertices and forty of 13–17 vertices, each with up to three extra
/// edges.
pub fn large_corpus_a() -> Vec<QueryGraph> {
    let mut corpus = vec![directed_path(13), directed_path(14)];
    let mut rng = StdRng::seed_from_u64(0xB16);
    corpus.extend((0..8).map(|_| random_connected(&mut rng, 13..16, 1, 0..4)));
    let mut rng = StdRng::seed_from_u64(0xC0A);
    corpus.extend((0..40).map(|_| random_connected(&mut rng, 13..18, 1, 0..4)));
    corpus
}

/// Large-query corpus B (one edge label, seeded): the directed paths of 20 and 31 vertices and
/// fifteen patterns of 18–31 vertices, five each with 2, 8 and 16 extra vertex pairs.
pub fn large_corpus_b() -> Vec<QueryGraph> {
    let mut corpus = vec![directed_path(20), directed_path(31)];
    let mut rng = StdRng::seed_from_u64(0xC0B);
    for extra in [2, 8, 16] {
        corpus.extend((0..5).map(|_| random_connected(&mut rng, 18..32, 1, extra..extra + 1)));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_examples_have_expected_shape() {
        let tri = asymmetric_triangle();
        assert_eq!((tri.num_vertices(), tri.num_edges()), (3, 3));
        assert!(tri.has_cycle());

        let dx = diamond_x();
        assert_eq!((dx.num_vertices(), dx.num_edges()), (4, 5));

        let sdx = symmetric_diamond_x();
        assert_eq!((sdx.num_vertices(), sdx.num_edges()), (4, 6));

        let tt = tailed_triangle();
        assert_eq!((tt.num_vertices(), tt.num_edges()), (4, 4));
        assert_eq!(tt.degree(3), 1);
    }

    #[test]
    fn all_benchmark_queries_are_connected_and_sized() {
        for (j, q) in all_benchmark_queries() {
            assert!(q.is_connected(), "Q{j} must be connected");
            assert!(q.num_vertices() >= 3 && q.num_vertices() <= 7, "Q{j} size");
        }
        // The largest query is the 7-clique with 21 edges, as stated in Section 8.1.3.
        let q14 = benchmark_query(14);
        assert_eq!(q14.num_vertices(), 7);
        assert_eq!(q14.num_edges(), 21);
    }

    #[test]
    fn cliques_and_cycles() {
        assert_eq!(directed_clique(5).num_edges(), 10);
        assert!(directed_clique(4).has_cycle());
        let c6 = directed_cycle(6);
        assert_eq!(c6.num_edges(), 6);
        assert!(c6.has_cycle());
        let p4 = directed_path(4);
        assert!(!p4.has_cycle());
        assert_eq!(out_star(5).degree(0), 4);
    }

    #[test]
    fn acyclic_benchmark_queries_are_acyclic() {
        assert!(!benchmark_query(11).has_cycle());
        assert!(!benchmark_query(13).has_cycle());
        assert!(benchmark_query(12).has_cycle());
    }

    #[test]
    #[should_panic]
    fn invalid_benchmark_query_panics() {
        benchmark_query(15);
    }

    #[test]
    fn random_labelling_is_deterministic_and_in_range() {
        let q = diamond_x();
        let l1 = label_query_edges_randomly(&q, 3, 42);
        let l2 = label_query_edges_randomly(&q, 3, 42);
        assert_eq!(l1, l2);
        assert!(l1.edges().iter().all(|e| e.label.0 < 3));
        let v1 = label_query_vertices_randomly(&q, 2, 1);
        assert!(v1.vertices().iter().all(|v| v.label.0 < 2));
    }
}
