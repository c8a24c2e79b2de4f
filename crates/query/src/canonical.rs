//! Canonical codes and automorphism groups of query graphs.
//!
//! The subgraph catalogue (paper Section 5) keys its entries on *canonicalised* subgraphs —
//! Table 7 shows query vertices renamed to canonical integers — and the planner de-duplicates
//! query-vertex orderings that are equivalent under an automorphism of the query (the paper's
//! Section 3.2.3 observes that symmetric orderings "will perform exactly the same operations").
//!
//! A code is the smallest leaf of an **individualisation–refinement** search (McKay & Piperno,
//! "Practical Graph Isomorphism, II", 2014). The root orders the vertices into cells by label,
//! then by colour refinement over the multiset of `(direction, edge label, neighbour colour)`
//! of their incident edges. A node individualises each vertex of its first cell of several
//! vertices in turn (the vertex takes the cell's first position) and refines again; a
//! partition of singletons is a leaf, a numbering, encoded as the sorted edges under it. Every
//! step is isomorphism-invariant, so isomorphic graphs share their smallest leaf, and the
//! encoding spells out the whole graph, so equal codes imply isomorphism. Two leaves that
//! spell the same edges give an automorphism: the search records it, returns to the leaves'
//! common ancestor (the branch it leaves is an image of a searched one), and skips every vertex
//! that the recorded automorphisms fixing a node's path map onto an explored sibling. An
//! asymmetric pattern is one leaf, a directed cycle two, a `k`-vertex star `k − 1`. Vertex
//! sets are [`VertexSet`] masks, so a query has at most 32 vertices.

use crate::querygraph::{set_iter, singleton, PredTarget, QueryGraph, VertexSet};
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

/// The individualisation–refinement search of one query (see the module doc).
struct Search<'a> {
    q: &'a QueryGraph,
    n: usize,
    /// The partitions along the current path, `n` entries a depth: the first position of each
    /// vertex's cell. A leaf's partition is its numbering, `perm[v] = position`.
    colours: Vec<usize>,
    /// The vertex individualised at each depth of the current path.
    path: Vec<usize>,
    /// Scratch: vertices in partition order, their signatures, refined colours, leaf edges.
    order: Vec<usize>,
    sigs: Vec<(usize, u64)>,
    next: Vec<usize>,
    edges: Vec<u64>,
    /// The first leaf and the smallest leaf so far.
    first: Leaf,
    best: Leaf,
    /// The automorphisms found (`a[v]` = image of `v`); they generate the group.
    autos: Vec<Vec<usize>>,
    leaves: usize,
}

/// A visited leaf: its numbering, its sorted edge codes and the path that reached it.
#[derive(Clone, Default)]
struct Leaf {
    perm: Vec<usize>,
    edges: Vec<u64>,
    path: Vec<usize>,
}

impl<'a> Search<'a> {
    /// Search the tree of `q`; a `pinned` vertex forms the last cell on its own.
    fn run(q: &'a QueryGraph, pinned: Option<usize>) -> Self {
        let n = q.num_vertices();
        let seed = |v: usize| (Some(v) == pinned, q.vertex(v).label.0);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| seed(v));
        let mut colours = vec![0; n];
        let cells = rank(&order, &mut colours, |a, b| seed(a) == seed(b));
        let mut search = Search {
            q,
            n,
            colours,
            path: Vec::new(),
            order,
            sigs: Vec::with_capacity(2 * q.num_edges()),
            next: vec![0; n],
            edges: Vec::with_capacity(q.num_edges()),
            first: Leaf::default(),
            best: Leaf::default(),
            autos: Vec::new(),
            leaves: 0,
        };
        search.refine(0, cells);
        search.node(0);
        search
    }

    /// Colour refinement of the partition at `depth`, which has `cells` cells, to a fixed
    /// point: a cell splits by the sorted multiset of (direction, edge label, neighbour
    /// colour) over its vertices' incident edges, in order.
    fn refine(&mut self, depth: usize, mut cells: usize) {
        let colour = &mut self.colours[depth * self.n..];
        while cells < self.n {
            let sigs = &mut self.sigs;
            sigs.clear();
            for e in self.q.edges() {
                let label = (e.label.0 as u64) << 16;
                sigs.push((e.src, label | colour[e.dst] as u64));
                sigs.push((e.dst, 1 << 32 | label | colour[e.src] as u64));
            }
            sigs.sort_unstable();
            let sigs = &*sigs;
            let sig = |v: usize| {
                let run = &sigs[sigs.partition_point(|s| s.0 < v)..];
                run.iter().take_while(move |s| s.0 == v).map(|s| s.1)
            };
            let by_sig =
                |&a: &usize, &b: &usize| colour[a].cmp(&colour[b]).then_with(|| sig(a).cmp(sig(b)));
            self.order.sort_by(by_sig);
            let refined = rank(&self.order, &mut self.next, |a, b| by_sig(&a, &b).is_eq());
            colour.copy_from_slice(&self.next);
            if refined == cells {
                break;
            }
            cells = refined;
        }
    }

    /// Search the subtree of the node at `depth`. Returns the depth of the ancestor to resume
    /// at when a leaf proved the rest of the branch redundant, `usize::MAX` otherwise.
    fn node(&mut self, depth: usize) -> usize {
        let n = self.n;
        let colour = &self.colours[depth * n..];
        let (mut starts, mut shared): (VertexSet, VertexSet) = (0, 0);
        for &c in colour {
            shared |= starts & singleton(c);
            starts |= singleton(c);
        }
        if shared == 0 {
            return self.leaf(depth);
        }
        let start = shared.trailing_zeros() as usize;
        let cell = (0..n)
            .filter(|&v| colour[v] == start)
            .fold(0, |c, v| c | singleton(v));
        let mut explored: VertexSet = 0;
        for v in set_iter(cell) {
            if self.orbit(v, depth) & explored != 0 {
                continue;
            }
            explored |= singleton(v);
            self.path.truncate(depth);
            self.path.push(v);
            self.colours.truncate((depth + 1) * n);
            self.colours.extend_from_within(depth * n..);
            for u in set_iter(cell & !singleton(v)) {
                self.colours[(depth + 1) * n + u] = start + 1;
            }
            self.refine(depth + 1, starts.count_ones() as usize + 1);
            let resume = self.node(depth + 1);
            if resume < depth {
                return resume;
            }
        }
        usize::MAX
    }

    /// The orbit of `v` under the recorded automorphisms that fix the path to `depth`.
    fn orbit(&self, v: usize, depth: usize) -> VertexSet {
        let path = &self.path[..depth];
        let mut orbit = singleton(v);
        loop {
            let fixing = (self.autos.iter()).filter(|a| path.iter().all(|&p| a[p] == p));
            let grown = fixing.fold(orbit, |o, a| {
                set_iter(orbit).fold(o, |o, u| o | singleton(a[u]))
            });
            if grown == orbit {
                return orbit;
            }
            orbit = grown;
        }
    }

    /// Visit the leaf at `depth`. One that spells the first or the smallest leaf's edges gives
    /// an automorphism: record it and return the depth of the two leaves' common ancestor.
    fn leaf(&mut self, depth: usize) -> usize {
        self.leaves += 1;
        let (q, perm) = (self.q, &self.colours[depth * self.n..]);
        self.edges.clear();
        for e in q.edges() {
            self.edges
                .push(edge_code(perm[e.src], perm[e.dst], e.label.0));
        }
        self.edges.sort_unstable();
        let path = &self.path[..depth];
        if self.leaves == 2 {
            self.first = self.best.clone();
        }
        if self.leaves > 1 {
            for known in [&self.first, &self.best] {
                if known.edges == self.edges {
                    // `v` and the known leaf's vertex at `v`'s position: an automorphism.
                    let mut at = vec![0; self.n];
                    for (u, &pos) in known.perm.iter().enumerate() {
                        at[pos] = u;
                    }
                    self.autos.push(perm.iter().map(|&pos| at[pos]).collect());
                    let common = path.iter().zip(&known.path).take_while(|(a, b)| a == b);
                    return common.count();
                }
            }
            if self.edges >= self.best.edges {
                return usize::MAX;
            }
        }
        let edges = std::mem::take(&mut self.edges);
        self.best = Leaf {
            perm: perm.to_vec(),
            edges,
            path: path.to_vec(),
        };
        usize::MAX
    }
}

/// Write into `colour` the first position along `order` of every vertex's run of equal
/// neighbours (its cell) and return the number of cells.
fn rank(order: &[usize], colour: &mut [usize], same: impl Fn(usize, usize) -> bool) -> usize {
    let (mut start, mut cells) = (0, 0);
    for (i, &v) in order.iter().enumerate() {
        if i == 0 || !same(order[i - 1], v) {
            (start, cells) = (i, cells + 1);
        }
        colour[v] = start;
    }
    cells
}

/// The smallest leaf's code and its permutation.
fn canonical_search(q: &QueryGraph, pinned: Option<usize>) -> (CanonicalCode, Vec<usize>) {
    let best = Search::run(q, pinned).best;
    // Cells are label-homogeneous, so every leaf spells the same vertex-label prefix.
    let mut code = vec![0u64; 1 + q.num_vertices()];
    code[0] = q.num_vertices() as u64;
    for (v, &pos) in best.perm.iter().enumerate() {
        code[1 + pos] = q.vertex(v).label.0 as u64;
    }
    code.extend_from_slice(&best.edges);
    (CanonicalCode(code), best.perm)
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
pub fn canonical_form(q: &QueryGraph) -> (CanonicalCode, Vec<usize>) {
    canonical_search(q, None)
}

/// [`canonical_form`] with one vertex **pinned** to the last canonical position: two
/// `(graph, vertex)` pairs get the same code iff an isomorphism maps one graph onto the other
/// *and* the pinned vertex onto the pinned vertex. The catalogue keys an extension
/// `Q_{k-1} → Q_k` on this code with the new vertex pinned.
pub fn canonical_form_pinned(q: &QueryGraph, pinned: usize) -> (CanonicalCode, Vec<usize>) {
    assert!(pinned < q.num_vertices());
    canonical_search(q, Some(pinned))
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
/// The canonical search records generators of the group; this closes them under composition,
/// so it returns the whole group (`k!` permutations for a star of `k` leaves).
pub fn automorphisms(q: &QueryGraph) -> Vec<Vec<usize>> {
    let generators = Search::run(q, None).autos;
    let mut group = vec![(0..q.num_vertices()).collect::<Vec<usize>>()];
    let mut seen: std::collections::HashSet<Vec<usize>> = group.iter().cloned().collect();
    let mut i = 0;
    while let Some(a) = group.get(i) {
        let images: Vec<Vec<usize>> = (generators.iter())
            .map(|g| a.iter().map(|&v| g[v]).collect())
            .collect();
        group.extend(images.into_iter().filter(|b| seen.insert(b.clone())));
        i += 1;
    }
    group
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
        let path = patterns::directed_path(9);
        let search = Search::run(&path, None);
        assert_eq!(search.leaves, 1);
        assert_eq!(search.best.perm.len(), 9);
        for j in 1..=14 {
            let q = patterns::benchmark_query(j);
            let visits = Search::run(&q, None).leaves;
            let orbit_bound: usize = automorphisms(&q).len().max(1) * 24;
            assert!(visits <= orbit_bound, "Q{j}: {visits} candidates");
        }
        // A symmetric pattern pays for its symmetry only, linearly: refinement cannot split a
        // star's leaves, a cycle's or a clique's vertices, and automorphisms prune the
        // arrangements of that one cell.
        for n in 3..=crate::MAX_QUERY_VERTICES {
            let leaves = |q: &QueryGraph| Search::run(q, None).leaves;
            assert!(leaves(&ring(n)) <= 2, "{n}-cycle");
            assert!(leaves(&patterns::out_star(n)) <= n, "{n}-vertex star");
            assert!(leaves(&bidirectional_clique(n)) <= n, "{n}-clique");
        }
    }

    /// The directed cycle `0 -> 1 -> ... -> k-1 -> 0`: `k` rotations, no other symmetry.
    fn ring(k: usize) -> QueryGraph {
        let mut q = QueryGraph::new();
        for _ in 0..k {
            q.add_default_vertex();
        }
        for i in 0..k {
            q.add_edge(i, (i + 1) % k, EdgeLabel(0));
        }
        q
    }

    /// `k` vertices with an edge each way between every two: every permutation is an automorphism.
    fn bidirectional_clique(k: usize) -> QueryGraph {
        let mut q = QueryGraph::new();
        for _ in 0..k {
            q.add_default_vertex();
        }
        for a in 0..k {
            for b in (0..k).filter(|&b| b != a) {
                q.add_edge(a, b, EdgeLabel(0));
            }
        }
        q
    }

    /// `copies` copies of a random digraph on `n / copies` vertices, each vertex joined to its
    /// twin in the next copy round a cycle: rotating the copies is an automorphism, so large
    /// patterns with many equivalent leaves are common.
    fn random_symmetric(rng: &mut rand::rngs::StdRng, n: usize) -> QueryGraph {
        use rand::Rng;
        let copies = rng.gen_range(2..5usize);
        let base = random_digraph(rng, (n / copies).max(2));
        let m = base.num_vertices();
        let mut q = QueryGraph::new();
        for i in 0..m * copies {
            q.add_vertex(format!("v{i}"), base.vertex(i % m).label);
        }
        for c in 0..copies {
            for e in base.edges() {
                q.add_edge(c * m + e.src, c * m + e.dst, e.label);
            }
            for v in 0..m {
                q.add_edge(c * m + v, (c + 1) % copies * m + v, EdgeLabel(0));
            }
        }
        q
    }

    /// The edges of `q` renumbered by `map[vertex]`, sorted.
    fn mapped_edges(q: &QueryGraph, map: &[usize]) -> Vec<(usize, usize, u16)> {
        let mut edges: Vec<_> = (q.edges().iter())
            .map(|e| (map[e.src], map[e.dst], e.label.0))
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn large_patterns_agree_with_the_relabelling_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        // 8–31 vertices, beyond the brute force: a code must survive random relabelling, the
        // returned permutation must achieve it, and graphs sharing a code must map onto one
        // another, edge for edge, through their composed permutations.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A86E);
        let mut by_code: HashMap<Vec<u64>, (QueryGraph, Vec<usize>)> = HashMap::new();
        for i in 0..400 {
            let n = rng.gen_range(8..=crate::MAX_QUERY_VERTICES);
            let q = if i % 2 == 0 {
                random_digraph(&mut rng, n)
            } else {
                random_symmetric(&mut rng, n)
            };
            let copy = shuffled(&mut rng, &q);
            assert_eq!(canonical_code(&copy), canonical_code(&q), "relabelled: {q}");
            for g in [copy, q] {
                let (code, perm) = canonical_form(&g);
                assert_eq!(
                    encode_under(&g, &perm),
                    code.0,
                    "perm achieves the code: {g}"
                );
                let Some((h, h_perm)) = by_code.get(&code.0) else {
                    by_code.insert(code.0, (g, perm));
                    continue;
                };
                // h's vertex at each canonical position, then g's vertex -> h's vertex.
                let mut at = vec![0; perm.len()];
                for (v, &pos) in h_perm.iter().enumerate() {
                    at[pos] = v;
                }
                let map: Vec<usize> = perm.iter().map(|&pos| at[pos]).collect();
                let identity: Vec<usize> = (0..h.num_vertices()).collect();
                assert_eq!(
                    mapped_edges(&g, &map),
                    mapped_edges(h, &identity),
                    "{g} vs {h}"
                );
            }
        }
        // The group sizes of two shapes whose groups are known.
        for k in 1..=7 {
            assert_eq!(
                automorphisms(&patterns::out_star(k + 1)).len(),
                (1..=k).product()
            );
        }
        for k in 3..=crate::MAX_QUERY_VERTICES {
            assert_eq!(automorphisms(&ring(k)).len(), k, "{k}-cycle");
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
