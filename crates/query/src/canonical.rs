//! Canonical codes and automorphism groups of small query graphs.
//!
//! The subgraph catalogue (paper Section 5) keys its entries on *canonicalised* subgraphs —
//! Table 7 shows query vertices renamed to canonical integers — and the planner de-duplicates
//! query-vertex orderings that are equivalent under an automorphism of the query (the paper's
//! Section 3.2.3 observes that symmetric orderings "will perform exactly the same operations").
//!
//! A code is the smallest encoding of the graph over a set of vertex permutations. The set is
//! not "all `n!`": vertices are first split into an **isomorphism-invariant ordered partition**
//! (vertex label, then colour refinement over the multiset of `(direction, edge label,
//! neighbour colour)` of the incident edges, which subsumes in-/out-degree and incident edge
//! labels), and only permutations that keep every cell on its own run of canonical positions
//! are searched — `Π |cell|!` candidates, one for a pattern without symmetric-looking
//! vertices. Because an isomorphism maps cells onto equally-keyed cells, two isomorphic
//! graphs search corresponding permutations and find the same minimum; because the encoding
//! spells out the whole graph, equal codes imply isomorphism. The search enumerates in place
//! and encodes into one reused buffer, so its allocation is bounded by the graph, not by the
//! number of candidates.

use crate::querygraph::{PredTarget, QueryGraph};
use std::hash::{Hash, Hasher};

/// A canonical, permutation-invariant encoding of a query graph.
///
/// Two query graphs have the same code iff they are isomorphic respecting vertex labels, edge
/// labels and edge directions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalCode(pub Vec<u64>);

/// One query edge under a vertex numbering: `(src, dst, label)` packed so that sorting the
/// codes sorts the edges.
#[inline]
fn edge_code(src: usize, dst: usize, label: u16) -> u64 {
    ((src as u64) << 32) | ((dst as u64) << 16) | label as u64
}

/// Largest query (in vertices) the canonicalisation routines accept; callers with bigger
/// queries must use [`exact_code`] or skip canonicalisation. Highly symmetric patterns (a
/// 9-cycle, an 8-leaf star) still cost `Π |cell|!` candidates.
pub const MAX_CANONICAL_VERTICES: usize = 9;

/// The in-place search over the permutations that respect the invariant partition.
struct CellSearch<'a> {
    q: &'a QueryGraph,
    /// `order[position] = vertex`; cells occupy consecutive positions, in invariant order.
    order: Vec<usize>,
    /// `cell_end[p]`: one past the last position of the cell position `p` lies in.
    cell_end: Vec<usize>,
    /// `perm[vertex] = position`, filled at each leaf.
    perm: Vec<usize>,
    /// The sorted edge codes under `perm`, rewritten at each leaf.
    edges: Vec<u64>,
    /// Leaves visited so far.
    visits: usize,
}

impl<'a> CellSearch<'a> {
    /// Partition the vertices of `q`; a `pinned` vertex forms the last cell on its own.
    fn new(q: &'a QueryGraph, pinned: Option<usize>) -> Self {
        let n = q.num_vertices();
        let seed = |v: usize| (Some(v) == pinned, q.vertex(v).label.0);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| seed(v));
        let mut colour = vec![0usize; n];
        let mut cells = rank(&order, &mut colour, |a, b| seed(a) == seed(b));

        // Colour refinement to a fixed point. `sigs` holds, per vertex, the sorted multiset of
        // (direction, edge label, neighbour colour) over its incident edges.
        let mut sigs: Vec<(usize, u64)> = Vec::with_capacity(2 * q.num_edges());
        let mut next = vec![0usize; n];
        while cells < n {
            sigs.clear();
            for e in q.edges() {
                let label = (e.label.0 as u64) << 16;
                sigs.push((e.src, label | colour[e.dst] as u64));
                sigs.push((e.dst, 1 << 32 | label | colour[e.src] as u64));
            }
            sigs.sort_unstable();
            let sig = |v: usize| {
                let run = &sigs[sigs.partition_point(|s| s.0 < v)..];
                run.iter().take_while(move |s| s.0 == v).map(|s| s.1)
            };
            order.sort_by(|&a, &b| colour[a].cmp(&colour[b]).then_with(|| sig(a).cmp(sig(b))));
            let refined = rank(&order, &mut next, |a, b| {
                colour[a] == colour[b] && sig(a).eq(sig(b))
            });
            std::mem::swap(&mut colour, &mut next);
            if refined == cells {
                break;
            }
            cells = refined;
        }

        let mut cell_end = vec![n; n];
        for p in (0..n.saturating_sub(1)).rev() {
            let last_of_cell = colour[order[p]] != colour[order[p + 1]];
            cell_end[p] = if last_of_cell { p + 1 } else { cell_end[p + 1] };
        }
        CellSearch {
            q,
            order,
            cell_end,
            perm: vec![0; n],
            edges: Vec::with_capacity(q.num_edges()),
            visits: 0,
        }
    }

    /// Call `leaf(perm, sorted edge codes under perm)` for every permutation that keeps each
    /// cell on its own positions, with positions `..p` already fixed.
    fn visit(&mut self, p: usize, leaf: &mut impl FnMut(&[usize], &[u64])) {
        if p == self.order.len() {
            for (pos, &v) in self.order.iter().enumerate() {
                self.perm[v] = pos;
            }
            self.edges.clear();
            let perm = &self.perm;
            self.edges.extend(
                self.q
                    .edges()
                    .iter()
                    .map(|e| edge_code(perm[e.src], perm[e.dst], e.label.0)),
            );
            self.edges.sort_unstable();
            self.visits += 1;
            leaf(&self.perm, &self.edges);
            return;
        }
        for i in p..self.cell_end[p] {
            self.order.swap(p, i);
            self.visit(p + 1, leaf);
            self.order.swap(p, i);
        }
    }
}

/// Write into `colour` the dense rank of every vertex along `order` (equal neighbours share a
/// rank) and return the number of distinct ranks.
fn rank(order: &[usize], colour: &mut [usize], same: impl Fn(usize, usize) -> bool) -> usize {
    let mut cells = 0;
    for (i, &v) in order.iter().enumerate() {
        if i > 0 && !same(order[i - 1], v) {
            cells += 1;
        }
        colour[v] = cells;
    }
    cells + usize::from(!order.is_empty())
}

/// The smallest code over the partition-respecting permutations, a permutation achieving it,
/// and the number of permutations tried.
fn canonical_search(q: &QueryGraph, pinned: Option<usize>) -> (CanonicalCode, Vec<usize>, usize) {
    let n = q.num_vertices();
    assert!(
        n <= MAX_CANONICAL_VERTICES,
        "canonical codes are for small queries; got {n} vertices"
    );
    let mut search = CellSearch::new(q, pinned);
    let mut best_perm: Vec<usize> = Vec::with_capacity(n);
    let mut best_edges: Vec<u64> = Vec::with_capacity(q.num_edges());
    search.visit(0, &mut |perm, edges| {
        if best_perm.is_empty() || edges < best_edges.as_slice() {
            best_perm.clear();
            best_perm.extend_from_slice(perm);
            best_edges.clear();
            best_edges.extend_from_slice(edges);
        }
    });
    // Cells are label-homogeneous, so every candidate spells the same vertex-label prefix.
    let mut code = vec![0u64; 1 + n];
    code[0] = n as u64;
    for (v, &pos) in best_perm.iter().enumerate() {
        code[1 + pos] = q.vertex(v).label.0 as u64;
    }
    code.extend_from_slice(&best_edges);
    (CanonicalCode(code), best_perm, search.visits)
}

/// Compute the canonical code of a query graph.
pub fn canonical_code(q: &QueryGraph) -> CanonicalCode {
    canonical_form(q).0
}

/// The encoding of the query graph under its *own* vertex numbering (the identity
/// permutation): cheap (no permutation search), equal for byte-identical query structures but
/// **not** permutation-invariant. Used as a fast first-level cache key in front of the
/// [`canonical_form`] search: a repeated identical pattern skips the search entirely.
pub fn exact_code(q: &QueryGraph) -> Vec<u64> {
    let mut code = Vec::with_capacity(1 + q.num_vertices() + q.num_edges());
    code.push(q.num_vertices() as u64);
    code.extend(q.vertices().iter().map(|v| v.label.0 as u64));
    let edges = code.len();
    code.extend(q.edges().iter().map(|e| edge_code(e.src, e.dst, e.label.0)));
    code[edges..].sort_unstable();
    code
}

/// Compute the canonical code *and* a permutation that achieves it
/// (`perm[original index] = canonical position`).
///
/// The permutation is what lets two isomorphic queries be mapped onto each other: if
/// `canonical_form(a) = (code, pa)` and `canonical_form(b) = (code, pb)` then vertex `v` of `a`
/// corresponds to the vertex `w` of `b` with `pb[w] == pa[v]`. The facade's plan cache uses
/// this to reuse a cached plan (expressed over `a`'s vertex numbering) for a later isomorphic
/// query `b`, renumbering the plan's operator tree into `b`'s numbering once, at prepare time.
///
/// # Panics
/// Panics above [`MAX_CANONICAL_VERTICES`] vertices.
pub fn canonical_form(q: &QueryGraph) -> (CanonicalCode, Vec<usize>) {
    let (code, perm, _) = canonical_search(q, None);
    (code, perm)
}

/// [`canonical_form`] with one vertex **pinned** to the last canonical position: two
/// `(graph, vertex)` pairs get the same code iff an isomorphism maps one graph onto the other
/// *and* the pinned vertex onto the pinned vertex. The catalogue keys an extension
/// `Q_{k-1} → Q_k` on this code with the new vertex pinned.
pub fn canonical_form_pinned(q: &QueryGraph, pinned: usize) -> (CanonicalCode, Vec<usize>) {
    assert!(pinned < q.num_vertices());
    let (code, perm, _) = canonical_search(q, Some(pinned));
    (code, perm)
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
///
/// # Panics
/// Panics above [`MAX_CANONICAL_VERTICES`] vertices.
pub fn automorphisms(q: &QueryGraph) -> Vec<Vec<usize>> {
    let n = q.num_vertices();
    assert!(
        n <= MAX_CANONICAL_VERTICES,
        "automorphisms are for small queries; got {n} vertices"
    );
    // An automorphism maps every vertex into its own cell, so the partition-respecting
    // permutations cover the group. The first leaf is the partition's own arrangement; a
    // leaf spelling the same edges as it is that arrangement moved by an automorphism.
    let mut search = CellSearch::new(q, None);
    let base = search.order.clone();
    let mut reference: Option<Vec<u64>> = None;
    let mut autos = Vec::new();
    search.visit(0, &mut |perm, edges| {
        let reference = reference.get_or_insert_with(|| edges.to_vec());
        if edges == reference.as_slice() {
            autos.push(perm.iter().map(|&pos| base[pos]).collect());
        }
    });
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

    /// The pre-partition definition, kept as the oracle: the smallest
    /// `[n, labels by position, sorted edges]` over **all** `n!` permutations.
    fn brute_force_code(q: &QueryGraph) -> Vec<u64> {
        fn rec(q: &QueryGraph, perm: &mut Vec<usize>, used: &mut [bool], best: &mut Vec<u64>) {
            let n = q.num_vertices();
            if perm.len() == n {
                let code = encode_under(q, perm);
                if best.is_empty() || code < *best {
                    *best = code;
                }
                return;
            }
            for i in 0..n {
                if !used[i] {
                    used[i] = true;
                    perm.push(i);
                    rec(q, perm, used, best);
                    perm.pop();
                    used[i] = false;
                }
            }
        }
        let mut best = Vec::new();
        rec(
            q,
            &mut Vec::new(),
            &mut vec![false; q.num_vertices()],
            &mut best,
        );
        best
    }

    /// `[n, labels by position, sorted edges]` under `perm[original] = position`.
    fn encode_under(q: &QueryGraph, perm: &[usize]) -> Vec<u64> {
        let mut code = vec![0u64; 1 + q.num_vertices()];
        code[0] = q.num_vertices() as u64;
        for (v, &pos) in perm.iter().enumerate() {
            code[1 + pos] = q.vertex(v).label.0 as u64;
        }
        let mut edges: Vec<u64> = q
            .edges()
            .iter()
            .map(|e| edge_code(perm[e.src], perm[e.dst], e.label.0))
            .collect();
        edges.sort_unstable();
        code.extend(edges);
        code
    }

    /// A random digraph on `n` vertices with 2 vertex labels and 3 edge labels; about half the
    /// time every label is 0, so symmetric (many-automorphism) shapes are common.
    fn random_digraph(rng: &mut rand::rngs::StdRng, n: usize) -> QueryGraph {
        use rand::Rng;
        let labelled = rng.gen_range(0..2usize) == 0;
        let mut q = QueryGraph::new();
        for i in 0..n {
            let l = if labelled { rng.gen_range(0..2u16) } else { 0 };
            q.add_vertex(format!("v{i}"), VertexLabel(l));
        }
        for _ in 0..rng.gen_range(1..2 * n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                let l = if labelled { rng.gen_range(0..3u16) } else { 0 };
                q.add_edge(a, b, EdgeLabel(l));
            }
        }
        q
    }

    /// `q` with its vertices renumbered by a random permutation and its edges re-listed.
    fn shuffled(rng: &mut rand::rngs::StdRng, q: &QueryGraph) -> QueryGraph {
        use rand::seq::SliceRandom;
        let n = q.num_vertices();
        let mut map: Vec<usize> = (0..n).collect();
        map.shuffle(rng);
        let mut inv = vec![0; n];
        for (v, &w) in map.iter().enumerate() {
            inv[w] = v;
        }
        let mut out = QueryGraph::new();
        for &v in &inv {
            out.add_vertex("x", q.vertex(v).label);
        }
        let mut edges = q.edges().to_vec();
        edges.shuffle(rng);
        for e in edges {
            out.add_edge(map[e.src], map[e.dst], e.label);
        }
        out
    }

    #[test]
    fn partitioned_search_agrees_with_the_brute_force_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCA70);
        let mut new_of_old: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
        let mut old_of_new: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
        let mut graphs = 0;
        while graphs < 2400 {
            // Sizes 2..=7, the big (5040-permutation) ones thinned out to keep the oracle fast.
            let n = [2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7][rng.gen_range(0..12usize)];
            let q = random_digraph(&mut rng, n);
            for g in [shuffled(&mut rng, &q), q] {
                graphs += 1;
                let old = brute_force_code(&g);
                let (new, perm) = canonical_form(&g);
                assert_eq!(
                    encode_under(&g, &perm),
                    new.0,
                    "perm achieves the code: {g}"
                );
                // Equal new codes iff equal old codes: the two maps stay functions.
                assert_eq!(
                    new_of_old
                        .entry(old.clone())
                        .or_insert_with(|| new.0.clone()),
                    &new.0,
                    "isomorphic graphs must share a code: {g}"
                );
                assert_eq!(
                    old_of_new.entry(new.0).or_insert_with(|| old.clone()),
                    &old,
                    "non-isomorphic graphs must not share a code: {g}"
                );
            }
        }
        assert!(new_of_old.len() > 500, "the sample must hold many shapes");
    }

    #[test]
    fn pinned_codes_separate_extensions_of_one_graph() {
        use rand::SeedableRng;
        // (graph, pinned vertex) pairs share a code iff an automorphism-or-isomorphism maps
        // pinned onto pinned: pinning v and pinning w in the same graph agree exactly when
        // some automorphism sends v to w.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x91);
        for i in 0..300 {
            let q = random_digraph(&mut rng, 2 + i % 5);
            let autos = automorphisms(&q);
            for v in 0..q.num_vertices() {
                let (code_v, perm) = canonical_form_pinned(&q, v);
                assert_eq!(perm[v], q.num_vertices() - 1);
                assert_eq!(encode_under(&q, &perm), code_v.0);
                for w in 0..q.num_vertices() {
                    let same_orbit = autos.iter().any(|a| a[v] == w);
                    assert_eq!(
                        code_v == canonical_form_pinned(&q, w).0,
                        same_orbit,
                        "{q}: pinning {v} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn automorphisms_agree_with_the_definition() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA07);
        for i in 0..300 {
            let q = random_digraph(&mut rng, 2 + i % 5);
            let n = q.num_vertices();
            let identity: Vec<usize> = (0..n).collect();
            let reference = encode_under(&q, &identity);
            let mut found = automorphisms(&q);
            found.sort();
            // Definition: every permutation (of all n!) that leaves the encoding unchanged.
            let mut expected = Vec::new();
            let mut perm = identity.clone();
            fn heap(k: usize, perm: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
                if k <= 1 {
                    return f(perm);
                }
                for i in 0..k {
                    heap(k - 1, perm, f);
                    perm.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
                }
            }
            heap(n, &mut perm, &mut |p| {
                if encode_under(&q, p) == reference {
                    expected.push(p.to_vec());
                }
            });
            expected.sort();
            assert_eq!(found, expected, "{q}");
        }
    }

    #[test]
    fn asymmetric_patterns_need_a_handful_of_candidates() {
        // The search is bounded by the partition, not by n!: a 9-vertex directed path (distance
        // from the ends tells every vertex apart) tries one permutation, where the brute force
        // tried 362 880 and allocated three vectors for each.
        let (_, perm, visits) = canonical_search(&patterns::directed_path(9), None);
        assert_eq!(visits, 1);
        assert_eq!(perm.len(), 9);
        for j in 1..=14 {
            let q = patterns::benchmark_query(j);
            let (_, _, visits) = canonical_search(&q, None);
            let orbit_bound: usize = automorphisms(&q).len().max(1) * 24;
            assert!(visits <= orbit_bound, "Q{j}: {visits} candidates");
        }
        // A symmetric pattern pays for its symmetry only: refinement cannot split the leaves
        // of a star, and the search is the 5! arrangements of that one cell.
        let (_, _, visits) = canonical_search(&patterns::out_star(6), None);
        assert_eq!(visits, 120);
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
