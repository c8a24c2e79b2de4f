//! Canonical keys for catalogue entries.
//!
//! A catalogue entry describes extending a sub-query `Q_{k-1}` by one query vertex through a set
//! of adjacency-list descriptors `A` to a destination label `l_k` (paper Table 7). Two
//! extensions that are isomorphic — same `Q_{k-1}` shape and labels, same descriptor structure,
//! same destination label — must share an entry, so the key is a canonical code of the extended
//! sub-query `Q_k` in which the *new* query vertex is pinned to the last canonical position and
//! the remaining vertices are permuted to minimise the code.

use graphflow_query::canonical::{canonical_form_pinned, CanonicalCode};
use graphflow_query::QueryGraph;

/// The canonical key of an extension `(Q_{k-1}, A, a_k^{l_k})`.
pub type ExtensionKey = CanonicalCode;

/// Compute the canonical key of extending `q` minus `new_vertex` by `new_vertex`, together with
/// the permutation `perm[original index] = canonical position` that realises it.
///
/// The new vertex is always assigned the last canonical position, so isomorphic extensions get
/// identical keys even when the "old" part is relabelled, while extensions of the same `Q_k` by
/// *different* vertices get different keys. The search is the partition-bounded one of
/// [`graphflow_query::canonical`], with the new vertex as a cell of its own.
pub fn extension_key(q: &QueryGraph, new_vertex: usize) -> (ExtensionKey, Vec<usize>) {
    assert!(
        q.num_vertices() >= 2,
        "an extension has a prefix and a new vertex"
    );
    canonical_form_pinned(q, new_vertex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::EdgeLabel;
    use graphflow_query::patterns;

    #[test]
    fn isomorphic_extensions_share_keys() {
        // Diamond-X: extending the triangle {a1,a2,a3} by a4, written two ways.
        let dx = patterns::diamond_x();
        let (k1, _) = extension_key(&dx, 3);

        // The same shape with vertices listed in a different order.
        let mut q = graphflow_query::QueryGraph::new();
        for _ in 0..4 {
            q.add_default_vertex();
        }
        // relabel: new triangle is (b1=a2, b2=a3, b3=a1), new vertex b4 = a4
        // edges: a1->a2 => b3->b1 ; a1->a3 => b3->b2 ; a2->a3 => b1->b2 ; a2->a4 => b1->b4 ;
        // a3->a4 => b2->b4
        q.add_edge(2, 0, EdgeLabel(0));
        q.add_edge(2, 1, EdgeLabel(0));
        q.add_edge(0, 1, EdgeLabel(0));
        q.add_edge(0, 3, EdgeLabel(0));
        q.add_edge(1, 3, EdgeLabel(0));
        let (k2, _) = extension_key(&q, 3);
        assert_eq!(k1, k2);
    }

    #[test]
    fn different_new_vertex_gives_different_key() {
        // Extending the path a1->a2->a3 by a1 vs by a3 differ (one adds an out-edge to the
        // middle, the other an in-edge... actually they are symmetric-by-reversal but not
        // isomorphic since edge directions are preserved): extending {a2,a3} by a1 attaches a
        // source, extending {a1,a2} by a3 attaches a sink. The keys differ because the pinned
        // new vertex has different incident-edge directions.
        let p = patterns::directed_path(3);
        let (k_sink, _) = extension_key(&p, 2);
        let (k_source, _) = extension_key(&p, 0);
        assert_ne!(k_sink, k_source);
    }

    #[test]
    fn perm_maps_new_vertex_last() {
        let dx = patterns::diamond_x();
        let (_, perm) = extension_key(&dx, 2);
        assert_eq!(perm[2], 3);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn labels_distinguish_keys() {
        let dx = patterns::diamond_x();
        let labelled = dx.relabel_edges(|i| EdgeLabel(i as u16));
        let (k1, _) = extension_key(&dx, 3);
        let (k2, _) = extension_key(&labelled, 3);
        assert_ne!(k1, k2);
    }
}
