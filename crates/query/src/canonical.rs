//! Canonical codes and automorphism groups of small query graphs.
//!
//! The subgraph catalogue (paper Section 5) keys its entries on *canonicalised* subgraphs —
//! Table 7 shows query vertices renamed to canonical integers — and the planner de-duplicates
//! query-vertex orderings that are equivalent under an automorphism of the query (the paper's
//! Section 3.2.3 observes that symmetric orderings "will perform exactly the same operations").
//!
//! Query graphs are tiny (≤ 8 vertices in every experiment), so a brute-force minimisation over
//! all vertex permutations is both exact and fast.

use crate::querygraph::{PredTarget, QueryGraph};
use std::hash::{Hash, Hasher};

/// A canonical, permutation-invariant encoding of a query graph.
///
/// Two query graphs have the same code iff they are isomorphic respecting vertex labels, edge
/// labels and edge directions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalCode(pub Vec<u64>);

fn encode_under_permutation(q: &QueryGraph, perm: &[usize]) -> Vec<u64> {
    // perm[original_index] = canonical position
    let mut code = Vec::with_capacity(q.num_vertices() + q.num_edges() + 1);
    code.push(q.num_vertices() as u64);
    // Vertex labels in canonical order.
    let mut vlabels = vec![0u64; q.num_vertices()];
    for (orig, v) in q.vertices().iter().enumerate() {
        vlabels[perm[orig]] = v.label.0 as u64;
    }
    code.extend_from_slice(&vlabels);
    // Edges as (canonical src, canonical dst, label), sorted.
    let mut edges: Vec<u64> = q
        .edges()
        .iter()
        .map(|e| {
            let s = perm[e.src] as u64;
            let d = perm[e.dst] as u64;
            (s << 32) | (d << 16) | e.label.0 as u64
        })
        .collect();
    edges.sort_unstable();
    code.extend_from_slice(&edges);
    code
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(n, &mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

/// Largest query (in vertices) the brute-force canonicalisation routines accept; callers with
/// bigger queries must use [`exact_code`] or skip canonicalisation.
pub const MAX_CANONICAL_VERTICES: usize = 9;

/// Compute the canonical code of a query graph by minimising over all vertex permutations.
///
/// Intended for graphs with at most ~8 vertices (catalogue entries have at most `h + 1 ≤ 5`).
pub fn canonical_code(q: &QueryGraph) -> CanonicalCode {
    canonical_form(q).0
}

/// The encoding of the query graph under its *own* vertex numbering (the identity
/// permutation): cheap (no permutation search), equal for byte-identical query structures but
/// **not** permutation-invariant. Used as a fast first-level cache key in front of the
/// `O(n!)` [`canonical_form`] search: a repeated identical pattern skips the search entirely.
pub fn exact_code(q: &QueryGraph) -> Vec<u64> {
    let n = q.num_vertices();
    encode_under_permutation(q, &(0..n).collect::<Vec<_>>())
}

/// Compute the canonical code *and* a permutation that achieves it
/// (`perm[original index] = canonical position`).
///
/// The permutation is what lets two isomorphic queries be mapped onto each other: if
/// `canonical_form(a) = (code, pa)` and `canonical_form(b) = (code, pb)` then vertex `v` of `a`
/// corresponds to the vertex `w` of `b` with `pb[w] == pa[v]`. The facade's plan cache uses
/// this to reuse a cached plan (expressed over `a`'s vertex numbering) for a later isomorphic
/// query `b`, renumbering the plan's operator tree into `b`'s numbering once, at prepare time.
pub fn canonical_form(q: &QueryGraph) -> (CanonicalCode, Vec<usize>) {
    let n = q.num_vertices();
    if n == 0 {
        return (CanonicalCode(vec![0]), Vec::new());
    }
    assert!(
        n <= 9,
        "canonical_form is brute force; query too large ({n} vertices)"
    );
    let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
    for perm in permutations(n) {
        let code = encode_under_permutation(q, &perm);
        if best.as_ref().is_none_or(|(b, _)| code < *b) {
            best = Some((code, perm));
        }
    }
    let (code, perm) = best.unwrap();
    (CanonicalCode(code), perm)
}

/// A permutation-normalised encoding of the query's predicate **structure** — targets (mapped
/// through `perm` into canonical vertex positions), property keys, operators and literal
/// *types*, but **not** the literal constants.
///
/// The facade's plan cache appends this to the pattern code, so two structurally-equal queries
/// that differ only in predicate constants (`age > 30` vs `age > 50`) produce the same cache
/// key and share one optimized operator tree; each query's own constants ride with it.
pub fn predicate_structure_code(q: &QueryGraph, perm: &[usize]) -> Vec<u64> {
    let mut items: Vec<[u64; 3]> = q
        .predicates()
        .iter()
        .map(|p| {
            let target = match p.target {
                PredTarget::Vertex(v) => (perm[v] as u64) << 1,
                PredTarget::Edge(i) => {
                    let e = q.edges()[i];
                    1u64 | ((perm[e.src] as u64) << 1)
                        | ((perm[e.dst] as u64) << 17)
                        | ((e.label.0 as u64) << 33)
                }
            };
            let mut h = rustc_hash::FxHasher::default();
            p.key.hash(&mut h);
            let shape = ((p.op as u64) << 8) | p.value.prop_type() as u64;
            [target, h.finish(), shape]
        })
        .collect();
    items.sort_unstable();
    let mut code = Vec::with_capacity(1 + items.len() * 3);
    code.push(items.len() as u64);
    for item in items {
        code.extend_from_slice(&item);
    }
    code
}

/// All automorphisms of the query graph: permutations `p` (as `p[original] = image`) that map
/// the query onto itself preserving directions and labels. Always contains the identity.
pub fn automorphisms(q: &QueryGraph) -> Vec<Vec<usize>> {
    let n = q.num_vertices();
    if n == 0 {
        return vec![vec![]];
    }
    assert!(
        n <= 9,
        "automorphisms is brute force; query too large ({n} vertices)"
    );
    let reference = encode_under_permutation(q, &(0..n).collect::<Vec<_>>());
    let mut reference_sorted = reference;
    // encode_under_permutation already sorts edges, so direct comparison works.
    let mut autos = Vec::new();
    for perm in permutations(n) {
        let code = encode_under_permutation(q, &perm);
        if code == reference_sorted {
            autos.push(perm);
        }
    }
    // keep reference_sorted binding to clarify intent
    reference_sorted = Vec::new();
    let _ = reference_sorted;
    autos
}

/// Whether two query graphs are isomorphic (respecting labels and directions).
pub fn are_isomorphic(a: &QueryGraph, b: &QueryGraph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    canonical_code(a) == canonical_code(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use graphflow_graph::{EdgeLabel, VertexLabel};

    #[test]
    fn isomorphic_triangles_share_code() {
        // Same asymmetric triangle written with two different vertex orders.
        let mut q1 = QueryGraph::new();
        for _ in 0..3 {
            q1.add_default_vertex();
        }
        q1.add_edge(0, 1, EdgeLabel(0));
        q1.add_edge(1, 2, EdgeLabel(0));
        q1.add_edge(0, 2, EdgeLabel(0));

        let mut q2 = QueryGraph::new();
        for _ in 0..3 {
            q2.add_default_vertex();
        }
        q2.add_edge(2, 0, EdgeLabel(0));
        q2.add_edge(0, 1, EdgeLabel(0));
        q2.add_edge(2, 1, EdgeLabel(0));

        assert!(are_isomorphic(&q1, &q2));
        assert_eq!(canonical_code(&q1), canonical_code(&q2));
    }

    #[test]
    fn direction_matters() {
        // Directed path a->b->c vs a->b<-c are not isomorphic.
        let mut p1 = QueryGraph::new();
        for _ in 0..3 {
            p1.add_default_vertex();
        }
        p1.add_edge(0, 1, EdgeLabel(0));
        p1.add_edge(1, 2, EdgeLabel(0));

        let mut p2 = QueryGraph::new();
        for _ in 0..3 {
            p2.add_default_vertex();
        }
        p2.add_edge(0, 1, EdgeLabel(0));
        p2.add_edge(2, 1, EdgeLabel(0));

        assert!(!are_isomorphic(&p1, &p2));
    }

    #[test]
    fn labels_matter() {
        let mut a = QueryGraph::new();
        a.add_vertex("x", VertexLabel(1));
        a.add_vertex("y", VertexLabel(0));
        a.add_edge(0, 1, EdgeLabel(0));
        let mut b = QueryGraph::new();
        b.add_vertex("x", VertexLabel(0));
        b.add_vertex("y", VertexLabel(0));
        b.add_edge(0, 1, EdgeLabel(0));
        assert!(!are_isomorphic(&a, &b));

        let c = a.relabel_edges(|_| EdgeLabel(3));
        assert!(!are_isomorphic(&a, &c));
    }

    #[test]
    fn automorphism_counts_of_known_shapes() {
        // Asymmetric triangle a1->a2->a3, a1->a3: trivial automorphism group.
        let tri = patterns::asymmetric_triangle();
        assert_eq!(automorphisms(&tri).len(), 1);

        // Diamond-X: swapping a2<->a3 is NOT an automorphism (a2->a3 edge breaks), but the
        // identity always is.
        let dx = patterns::diamond_x();
        let autos = automorphisms(&dx);
        assert!(autos.contains(&vec![0, 1, 2, 3]));

        // Directed 4-clique with acyclic orientation has only the identity.
        let k4 = patterns::directed_clique(4);
        assert_eq!(automorphisms(&k4).len(), 1);

        // A symmetric 2-cycle a<->b has the swap automorphism.
        let mut two = QueryGraph::new();
        two.add_default_vertex();
        two.add_default_vertex();
        two.add_edge(0, 1, EdgeLabel(0));
        two.add_edge(1, 0, EdgeLabel(0));
        assert_eq!(automorphisms(&two).len(), 2);
    }

    #[test]
    fn canonical_form_permutations_compose_into_an_isomorphism() {
        // The same asymmetric triangle under two vertex numberings.
        let mut q1 = QueryGraph::new();
        for _ in 0..3 {
            q1.add_default_vertex();
        }
        q1.add_edge(0, 1, EdgeLabel(0));
        q1.add_edge(1, 2, EdgeLabel(0));
        q1.add_edge(0, 2, EdgeLabel(0));

        let mut q2 = QueryGraph::new();
        for _ in 0..3 {
            q2.add_default_vertex();
        }
        q2.add_edge(2, 0, EdgeLabel(0));
        q2.add_edge(0, 1, EdgeLabel(0));
        q2.add_edge(2, 1, EdgeLabel(0));

        let (c1, p1) = canonical_form(&q1);
        let (c2, p2) = canonical_form(&q2);
        assert_eq!(c1, c2);
        // Map q1 vertex -> q2 vertex through the shared canonical positions...
        let mut inv2 = [0usize; 3];
        for (orig, &pos) in p2.iter().enumerate() {
            inv2[pos] = orig;
        }
        let map: Vec<usize> = p1.iter().map(|&pos| inv2[pos]).collect();
        // ... and check that every q1 edge maps onto a q2 edge.
        for e in q1.edges() {
            assert!(
                q2.edges()
                    .iter()
                    .any(|f| f.src == map[e.src] && f.dst == map[e.dst] && f.label == e.label),
                "edge {}->{} must map onto a q2 edge",
                e.src,
                e.dst
            );
        }
    }

    #[test]
    fn projections_of_same_shape_are_isomorphic() {
        let dx = patterns::diamond_x();
        // Both triangles of the diamond-X are isomorphic to each other.
        let (t1, _) = dx.project(0b0111);
        let (t2, _) = dx.project(0b1110);
        assert!(are_isomorphic(&t1, &t2));
    }
}
