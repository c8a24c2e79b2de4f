//! The subgraph catalogue: construction, lookup and the estimation services used by the
//! cost-based optimizer.

use crate::entry::{CanonDescriptor, CatalogueEntry};
use crate::key::{extension_key, ExtensionKey};
use crate::matcher::{count_matches, sample_extension_stats};
use graphflow_graph::{Direction, EdgeLabel, Graph, GraphView, Snapshot, VertexLabel};
use graphflow_query::canonical::{canonical_code, CanonicalCode};
use graphflow_query::extension::{descriptors_for_extension, ExtensionSpec};
use graphflow_query::querygraph::{set_iter, set_len, set_of, set_rank, singleton, VertexSet};
use graphflow_query::QueryGraph;
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact per-vertex-label counts, sorted by label, as exported for a durability snapshot.
pub type VertexCounts = Vec<(VertexLabel, u64)>;
/// Exact per-`(edge label, src label, dst label)` counts, sorted, as exported for a
/// durability snapshot.
pub type EdgeCounts = Vec<((EdgeLabel, VertexLabel, VertexLabel), u64)>;
use std::sync::Arc;

type Triple = (EdgeLabel, VertexLabel, VertexLabel);

/// Configuration of catalogue construction (paper Section 5.1 and Appendix B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogueConfig {
    /// Maximum number of vertices of the sub-queries `Q_{k-1}` for which entries are stored
    /// (`h` in the paper; default 3).
    pub h: usize,
    /// Number of edges sampled in the SCAN operator while measuring an entry (`z`; default 1000).
    pub z: usize,
    /// Upper bound on the number of `Q_{k-1}` matches measured per entry, so one skewed sample
    /// cannot dominate construction time.
    pub sample_cap: usize,
    /// RNG seed, making construction fully deterministic.
    pub seed: u64,
    /// A memoised (sampled) entry is considered stale — and lazily resampled on its next
    /// lookup — once more than this many graph updates have been recorded since it was
    /// computed. Exact per-label counts are maintained incrementally and never go stale; this
    /// only bounds the drift of the *sampled* statistics.
    pub refresh_after: u64,
}

impl Default for CatalogueConfig {
    fn default() -> Self {
        CatalogueConfig {
            h: 3,
            z: 1000,
            sample_cap: 100_000,
            seed: 42,
            refresh_after: 1024,
        }
    }
}

/// The estimate the optimizer receives for one E/I extension.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionEstimate {
    /// Estimated average size of each intersected adjacency list, aligned with the descriptor
    /// order returned by [`descriptors_for_extension`] for the same `(prefix, target)` pair.
    pub avg_list_sizes: Vec<f64>,
    /// Estimated number of extensions per prefix match (`µ`).
    pub mu: f64,
    /// Whether the estimate came from a directly stored entry (false when the fallback rule for
    /// sub-queries larger than `h` was applied).
    pub exact_entry: bool,
}

/// A memoised sampled entry together with the update tick it was computed at, so drift can be
/// detected lazily on lookup.
#[derive(Clone)]
struct MemoEntry {
    entry: CatalogueEntry,
    tick: u64,
}

#[derive(Default, Clone)]
struct Caches {
    entries: FxHashMap<ExtensionKey, MemoEntry>,
    cardinalities: FxHashMap<CanonicalCode, (f64, u64)>,
    /// Stale memoised values that were lazily recomputed after drifting past `refresh_after`.
    refreshes: u64,
}

/// The subgraph catalogue for one data graph (or live snapshot).
///
/// A catalogue built for a dynamic database stays useful across updates through two mechanisms:
/// the **exact** per-label counts (edge triples and vertex labels) are maintained
/// *incrementally* by [`Catalogue::record_edge_insert`] and friends, while the **sampled**
/// entries are *lazily refreshed*: each memoised entry remembers the update tick it was sampled
/// at, and a lookup more than [`CatalogueConfig::refresh_after`] updates later resamples it
/// against the current snapshot. Per-label-pair update counters
/// ([`Catalogue::update_count`]) expose where the churn happened.
pub struct Catalogue {
    snap: Snapshot,
    config: CatalogueConfig,
    caches: Mutex<Caches>,
    /// Estimation requests received from outside the catalogue
    /// ([`Catalogue::extension_estimate`] and [`Catalogue::estimate_cardinality`] calls; the
    /// catalogue's own recursion is not counted). A statistic, hence relaxed; clones share
    /// it, so the count stays monotonic across the facade's copy-on-write swaps.
    lookups: Arc<AtomicU64>,
    /// `edge_counts[(el, src label, dst label)]` — exact edge counts per label triple,
    /// maintained incrementally under updates.
    edge_counts: FxHashMap<Triple, u64>,
    /// `edge_counts` summed over the far endpoint's label: edges in the `(direction, edge
    /// label, neighbour label)` adjacency partition, over all vertices. Kept beside the
    /// triples by the same `record_edge_*` calls.
    list_counts: FxHashMap<(Direction, EdgeLabel, VertexLabel), u64>,
    /// Number of vertices per vertex label, maintained incrementally under updates.
    vertex_counts: FxHashMap<VertexLabel, u64>,
    /// Updates recorded per `(edge label, src label, dst label)` triple since construction.
    update_counts: FxHashMap<(EdgeLabel, VertexLabel, VertexLabel), u64>,
    /// Total updates recorded since construction (the staleness clock of sampled entries).
    update_tick: u64,
    /// Version of the snapshot the catalogue most recently observed.
    graph_version: u64,
}

impl Clone for Catalogue {
    /// Deep copy, including the memoised sample caches (taken under their lock); only the
    /// lookup counter is shared with the original. Backs
    /// copy-on-write sharing of a catalogue between a committing writer and in-flight
    /// readers (`Arc::make_mut` in the `graphflow-core` facade).
    fn clone(&self) -> Self {
        Catalogue {
            snap: self.snap.clone(),
            config: self.config,
            caches: Mutex::new(self.caches.lock().clone()),
            lookups: self.lookups.clone(),
            edge_counts: self.edge_counts.clone(),
            list_counts: self.list_counts.clone(),
            vertex_counts: self.vertex_counts.clone(),
            update_counts: self.update_counts.clone(),
            update_tick: self.update_tick,
            graph_version: self.graph_version,
        }
    }
}

impl Catalogue {
    /// Create a catalogue for a frozen `graph` (entries are sampled on demand and memoised).
    pub fn new(graph: Arc<Graph>, config: CatalogueConfig) -> Self {
        Self::for_snapshot(Snapshot::new(graph), config)
    }

    /// Create a catalogue over a live [`Snapshot`] (base CSR + pending deltas).
    pub fn for_snapshot(snap: Snapshot, config: CatalogueConfig) -> Self {
        let mut edge_counts: FxHashMap<Triple, u64> = FxHashMap::default();
        for el in 0..snap.num_edge_labels() {
            for &(s, d, l) in snap.scan_edges(EdgeLabel(el)).iter() {
                *edge_counts
                    .entry((l, snap.vertex_label(s), snap.vertex_label(d)))
                    .or_insert(0) += 1;
            }
        }
        let mut vertex_counts: FxHashMap<VertexLabel, u64> = FxHashMap::default();
        for v in 0..snap.num_vertices() as u32 {
            *vertex_counts.entry(snap.vertex_label(v)).or_insert(0) += 1;
        }
        Self::for_snapshot_with_counts(snap, config, vertex_counts, edge_counts)
    }

    /// Create a catalogue over a live [`Snapshot`] with **restored** exact counts instead of
    /// the O(V + E) recount of [`Catalogue::for_snapshot`] — the crash-recovery path, where
    /// the counts come from a snapshot file that persisted them (see
    /// [`Catalogue::exact_counts`]). The caller is responsible for the counts actually
    /// matching the snapshot.
    pub fn for_snapshot_with_counts(
        snap: Snapshot,
        config: CatalogueConfig,
        vertex_counts: impl IntoIterator<Item = (VertexLabel, u64)>,
        edge_counts: impl IntoIterator<Item = (Triple, u64)>,
    ) -> Self {
        let graph_version = snap.version();
        let edge_counts: FxHashMap<Triple, u64> = edge_counts.into_iter().collect();
        let mut list_counts = FxHashMap::default();
        for (&(el, src, dst), &c) in &edge_counts {
            *list_counts.entry((Direction::Fwd, el, dst)).or_insert(0) += c;
            *list_counts.entry((Direction::Bwd, el, src)).or_insert(0) += c;
        }
        Catalogue {
            snap,
            config,
            caches: Mutex::new(Caches::default()),
            lookups: Arc::default(),
            edge_counts,
            list_counts,
            vertex_counts: vertex_counts.into_iter().collect(),
            update_counts: FxHashMap::default(),
            update_tick: 0,
            graph_version,
        }
    }

    /// Export the exact per-label counts in deterministic (sorted) order, for persistence in
    /// a durability snapshot. Zero entries (a label whose last edge was deleted) are skipped —
    /// absence already means zero on restore.
    pub fn exact_counts(&self) -> (VertexCounts, EdgeCounts) {
        let mut vertex: Vec<_> = self
            .vertex_counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&l, &c)| (l, c))
            .collect();
        vertex.sort_unstable_by_key(|&(l, _)| l.0);
        let mut edge: Vec<_> = self
            .edge_counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .collect();
        edge.sort_unstable_by_key(|&((el, sl, dl), _)| (el.0, sl.0, dl.0));
        (vertex, edge)
    }

    /// Build a catalogue with the default configuration.
    pub fn with_defaults(graph: Arc<Graph>) -> Self {
        Self::new(graph, CatalogueConfig::default())
    }

    /// The base CSR of the graph this catalogue describes (excluding pending deltas; sampling
    /// and estimation run against the full [`snapshot`](Catalogue::snapshot)).
    pub fn graph(&self) -> &Arc<Graph> {
        self.snap.base()
    }

    /// The snapshot (base + delta epoch) sampling currently runs against. May lag the live
    /// graph by up to one staleness window: the facade republishes it at statistics refresh
    /// points rather than per mutation (exact counts never lag — they are maintained
    /// incrementally).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The construction configuration.
    pub fn config(&self) -> CatalogueConfig {
        self.config
    }

    /// Number of materialised (memoised) entries.
    pub fn num_entries(&self) -> usize {
        self.caches.lock().entries.len()
    }

    /// Approximate in-memory size of the materialised entries, in bytes.
    pub fn memory_footprint_bytes(&self) -> usize {
        let caches = self.caches.lock();
        caches
            .entries
            .iter()
            .map(|(k, e)| {
                k.0.len() * 8
                    + e.entry.avg_list_sizes.len() * (std::mem::size_of::<CanonDescriptor>() + 8)
                    + 40
            })
            .sum()
    }

    // --- incremental maintenance (driven by the graphflow-core mutation API) ----------------

    /// Point sampling at a new snapshot epoch (called by the facade at statistics refresh
    /// points and after compaction, not per mutation). Memoised entries survive — they are
    /// refreshed lazily once they drift past [`CatalogueConfig::refresh_after`] recorded
    /// updates.
    pub fn set_snapshot(&mut self, snap: Snapshot) {
        self.graph_version = snap.version();
        self.snap = snap;
    }

    /// Record the insertion of an edge with the given label triple, keeping the exact counts
    /// current and advancing the staleness clock.
    pub fn record_edge_insert(&mut self, el: EdgeLabel, src: VertexLabel, dst: VertexLabel) {
        *self.edge_counts.entry((el, src, dst)).or_insert(0) += 1;
        *self
            .list_counts
            .entry((Direction::Fwd, el, dst))
            .or_insert(0) += 1;
        *self
            .list_counts
            .entry((Direction::Bwd, el, src))
            .or_insert(0) += 1;
        self.bump_update((el, src, dst));
    }

    /// Record the deletion of an edge with the given label triple.
    pub fn record_edge_delete(&mut self, el: EdgeLabel, src: VertexLabel, dst: VertexLabel) {
        if let Some(c) = self
            .edge_counts
            .get_mut(&(el, src, dst))
            .filter(|c| **c > 0)
        {
            *c -= 1;
            for key in [(Direction::Fwd, el, dst), (Direction::Bwd, el, src)] {
                *self.list_counts.get_mut(&key).expect("sums cover triples") -= 1;
            }
        }
        self.bump_update((el, src, dst));
    }

    /// Record the insertion of a vertex carrying `label`.
    pub fn record_vertex_insert(&mut self, label: VertexLabel) {
        *self.vertex_counts.entry(label).or_insert(0) += 1;
        self.update_tick += 1;
    }

    fn bump_update(&mut self, triple: Triple) {
        *self.update_counts.entry(triple).or_insert(0) += 1;
        self.update_tick += 1;
    }

    /// The version of the snapshot the catalogue most recently observed.
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// Total updates recorded since construction.
    pub fn total_updates(&self) -> u64 {
        self.update_tick
    }

    /// Updates recorded for one `(edge label, src label, dst label)` triple.
    pub fn update_count(&self, el: EdgeLabel, src: VertexLabel, dst: VertexLabel) -> u64 {
        self.update_counts
            .get(&(el, src, dst))
            .copied()
            .unwrap_or(0)
    }

    /// Number of memoised values that were lazily resampled after going stale.
    pub fn num_refreshes(&self) -> u64 {
        self.caches.lock().refreshes
    }

    /// Whether a value memoised at `tick` has drifted past the refresh threshold.
    fn is_stale(&self, tick: u64) -> bool {
        self.update_tick.saturating_sub(tick) > self.config.refresh_after
    }

    /// Exact number of data edges consistent with `(edge label, source label, destination
    /// label)` — the selectivity `µ(l_e)` used to seed 2-vertex sub-queries in Algorithm 1.
    pub fn edge_count(&self, el: EdgeLabel, src: VertexLabel, dst: VertexLabel) -> u64 {
        self.edge_counts.get(&(el, src, dst)).copied().unwrap_or(0)
    }

    /// Number of data vertices with the given label.
    pub fn vertex_count(&self, vl: VertexLabel) -> u64 {
        self.vertex_counts.get(&vl).copied().unwrap_or(0)
    }

    /// Average adjacency-list size for a `(direction, edge label, neighbour label)` partition
    /// over all vertices — the coarse fallback used when a descriptor's source vertex was
    /// removed by the larger-than-`h` fallback rule.
    pub fn avg_list_size(&self, dir: Direction, el: EdgeLabel, nbr_label: VertexLabel) -> f64 {
        let n = self.snap.num_vertices().max(1) as f64;
        // Forward lists point at `nbr_label` destinations, backward lists at sources.
        let count = self.list_counts.get(&(dir, el, nbr_label)).copied();
        count.unwrap_or(0) as f64 / n
    }

    /// Number of estimation requests ([`Catalogue::extension_estimate`] and
    /// [`Catalogue::estimate_cardinality`]) received so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Eagerly materialise every entry needed to estimate the given queries (all of their
    /// connected sub-query extensions up to `h + 1` vertices). Returns the number of entries
    /// that were computed. This mirrors the paper's eager construction for the purposes of the
    /// construction-time experiments (Tables 10 and 11).
    pub fn prepopulate(&self, queries: &[QueryGraph]) -> usize {
        let before = self.num_entries();
        for q in queries {
            let m = q.num_vertices();
            let full = q.full_set();
            // Enumerate connected subsets of size 2..=min(h, m-1)+1 and their extensions.
            for subset in 1u32..=full {
                if subset & full != subset {
                    continue;
                }
                let k = set_len(subset);
                if k < 2 || k > self.config.h.min(m - 1) {
                    continue;
                }
                if !q.is_connected_subset(subset) {
                    continue;
                }
                let prefix: Vec<usize> = set_iter(subset).collect();
                for target in 0..m {
                    if subset & singleton(target) != 0 {
                        continue;
                    }
                    let _ = self.extension(q, &prefix, target);
                }
            }
        }
        self.num_entries() - before
    }

    /// Estimate the statistics of extending the sub-query induced by `prefix` (query-vertex
    /// indices of `q`, in match order) by `target`.
    ///
    /// Returns `None` when the extension has no descriptors (a Cartesian extension, which no
    /// plan in the paper's plan space performs).
    pub fn extension_estimate(
        &self,
        q: &QueryGraph,
        prefix: &[usize],
        target: usize,
    ) -> Option<ExtensionEstimate> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.extension(q, prefix, target)
    }

    /// [`Catalogue::extension_estimate`] for the catalogue's own recursion (not a lookup).
    fn extension(
        &self,
        q: &QueryGraph,
        prefix: &[usize],
        target: usize,
    ) -> Option<ExtensionEstimate> {
        let spec = descriptors_for_extension(q, prefix, target)?;
        Some(if prefix.len() <= self.config.h {
            self.direct_estimate(q, prefix, &spec)
        } else {
            self.fallback_estimate(q, prefix, &spec)
        })
    }

    /// Read the (possibly memoised) entry of extending the sub-query induced by `prefix_set`
    /// by `target`. `read` gets the entry and the canonical position of each vertex of `q`.
    ///
    /// An entry sampled more than `refresh_after` updates ago is treated as missing and
    /// resampled against the current snapshot (lazy refresh).
    fn with_entry<R>(
        &self,
        q: &QueryGraph,
        prefix_set: VertexSet,
        target: usize,
        read: impl FnOnce(&CatalogueEntry, &dyn Fn(usize) -> u8) -> R,
    ) -> R {
        // Project q onto prefix ∪ {target}; projections number their vertices in ascending
        // order of the original index.
        let set = prefix_set | singleton(target);
        let (proj, _) = q.project(set);
        let proj_target = set_rank(set, target);
        let (key, perm) = extension_key(&proj, proj_target);
        let canon_pos = |v: usize| perm[set_rank(set, v)] as u8;

        let stale = {
            let caches = self.caches.lock();
            match caches.entries.get(&key) {
                Some(memo) if !self.is_stale(memo.tick) => return read(&memo.entry, &canon_pos),
                memo => memo.is_some(),
            }
        };
        // Sample outside the lock.
        let entry = self.compute_entry(&proj, proj_target, &perm);
        let out = read(&entry, &canon_pos);
        let mut caches = self.caches.lock();
        caches.refreshes += u64::from(stale);
        let tick = self.update_tick;
        caches.entries.insert(key, MemoEntry { entry, tick });
        out
    }

    /// Direct (possibly memoised) entry lookup for prefixes of at most `h` vertices.
    fn direct_estimate(
        &self,
        q: &QueryGraph,
        prefix: &[usize],
        spec: &ExtensionSpec,
    ) -> ExtensionEstimate {
        self.with_entry(q, set_of(prefix), spec.target_vertex, |entry, canon_pos| {
            // Align the entry's canonical descriptors with the caller's descriptor order.
            let sizes = spec.descriptors.iter().map(|d| {
                let canon = CanonDescriptor {
                    canon_pos: canon_pos(prefix[d.tuple_idx]),
                    dir: d.dir,
                    edge_label: d.edge_label,
                };
                entry
                    .size_for(&canon)
                    .unwrap_or_else(|| self.avg_list_size(d.dir, d.edge_label, spec.target_label))
            });
            ExtensionEstimate {
                avg_list_sizes: sizes.collect(),
                mu: entry.mu,
                exact_entry: true,
            }
        })
    }

    /// Sample a new entry for the projected extension (the new vertex is `proj_target`).
    fn compute_entry(
        &self,
        proj: &QueryGraph,
        proj_target: usize,
        perm: &[usize],
    ) -> CatalogueEntry {
        // Any connected ordering of the prefix works for sampling; the first one starts from a
        // query edge (its second vertex attaches to the first).
        let prefix_set = proj.full_set() & !singleton(proj_target);
        let first = graphflow_query::qvo::orderings_extending(proj, 0, prefix_set, 1).pop();
        let ordering = first.unwrap_or_else(|| set_iter(prefix_set).collect());

        let stats = sample_extension_stats(
            &self.snap,
            proj,
            &ordering,
            proj_target,
            self.config.z,
            self.config.sample_cap,
            self.config.seed,
        );
        let spec = descriptors_for_extension(proj, &ordering, proj_target);
        match (stats, spec) {
            (Some(stats), Some(spec)) => {
                let mut avg_list_sizes: Vec<(CanonDescriptor, f64)> = spec
                    .descriptors
                    .iter()
                    .zip(stats.avg_list_sizes.iter())
                    .map(|(d, &s)| {
                        (
                            CanonDescriptor {
                                canon_pos: perm[ordering[d.tuple_idx]] as u8,
                                dir: d.dir,
                                edge_label: d.edge_label,
                            },
                            s,
                        )
                    })
                    .collect();
                avg_list_sizes.sort_by_key(|a| a.0);
                CatalogueEntry {
                    avg_list_sizes,
                    mu: stats.mu,
                    samples: stats.samples,
                }
            }
            _ => CatalogueEntry {
                avg_list_sizes: Vec::new(),
                mu: 0.0,
                samples: 0,
            },
        }
    }

    /// The paper's fallback rule for prefixes larger than `h`: drop every `(|prefix| - h)`-sized
    /// subset of prefix vertices (together with the descriptors referring to them), estimate the
    /// reduced extension, and keep the minimum `µ` (Section 5.2, case 1).
    fn fallback_estimate(
        &self,
        q: &QueryGraph,
        prefix: &[usize],
        spec: &ExtensionSpec,
    ) -> ExtensionEstimate {
        let target = spec.target_vertex;
        let prefix_set = set_of(prefix);
        let mut best: Option<f64> = None;
        // Every combination of `excess` prefix positions to remove, in lexicographic order.
        let mut removed: Vec<usize> = (0..prefix.len() - self.config.h).collect();
        loop {
            let reduced = removed
                .iter()
                .fold(prefix_set, |acc, &i| acc & !singleton(prefix[i]));
            // The reduced prefix must stay connected and keep at least one descriptor to target.
            if q.is_connected_subset(reduced)
                && spec
                    .descriptors
                    .iter()
                    .any(|d| reduced & singleton(prefix[d.tuple_idx]) != 0)
            {
                let mu = self.with_entry(q, reduced, target, |entry, _| entry.mu);
                if best.is_none_or(|b| mu < b) {
                    best = Some(mu);
                }
            }
            if !next_combination(&mut removed, prefix.len()) {
                break;
            }
        }

        // Sizes are reported conservatively for every original descriptor: the coarse
        // per-label average.
        let coarse: Vec<f64> = spec
            .descriptors
            .iter()
            .map(|d| self.avg_list_size(d.dir, d.edge_label, spec.target_label))
            .collect();
        ExtensionEstimate {
            // No valid reduction: fall back to the smallest coarse list size as `µ` proxy.
            mu: best.unwrap_or_else(|| {
                coarse
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
                    .max(0.0)
            }),
            avg_list_sizes: coarse,
            exact_entry: false,
        }
    }

    /// Estimated cardinality of the sub-query of `q` induced by `set` (paper Section 5.2,
    /// "Cardinality of Q_k"): pick a WCO ordering of the sub-query and multiply the `µ` of its
    /// extension entries, seeded by the exact count of the first matched query edge.
    pub fn estimate_cardinality(&self, q: &QueryGraph, set: VertexSet) -> f64 {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.cardinality(q, set)
    }

    /// [`Catalogue::estimate_cardinality`] for the catalogue's own recursion (not a lookup).
    fn cardinality(&self, q: &QueryGraph, set: VertexSet) -> f64 {
        let k = set_len(set);
        if k <= 1 {
            return match set_iter(set).next() {
                Some(v) => self.vertex_count(q.vertex(v).label) as f64,
                None => 0.0,
            };
        }
        let (proj, _mapping) = q.project(set);
        let code = canonical_code(&proj);
        let cached = self.caches.lock().cardinalities.get(&code).copied();
        if let Some((c, tick)) = cached {
            if !self.is_stale(tick) {
                return c;
            }
        }
        let card = self.sampled_cardinality(q, set, &proj);
        let mut caches = self.caches.lock();
        if cached.is_some() {
            caches.refreshes += 1;
        }
        caches.cardinalities.insert(code, (card, self.update_tick));
        card
    }

    /// The estimate `cardinality` caches; `proj` is `q` projected onto `set`.
    fn sampled_cardinality(&self, q: &QueryGraph, set: VertexSet, proj: &QueryGraph) -> f64 {
        if !q.is_connected_subset(set) {
            // Disconnected sub-queries are Cartesian products of their components.
            return self.cartesian_cardinality(q, set);
        }
        if set_len(set) == 2 {
            return self.two_vertex_cardinality(proj);
        }
        // Pick the lexicographically first connected ordering: its first two vertices share a
        // query edge.
        let sigma = graphflow_query::qvo::first_connected_ordering(proj);

        // Seed with the exact count of the first edge, then multiply the µ of each extension.
        let first_set = singleton(sigma[0]) | singleton(sigma[1]);
        let (first_proj, _) = proj.project(first_set);
        let mut card = self.two_vertex_cardinality(&first_proj);
        for kk in 2..sigma.len() {
            let est = self
                .extension(proj, &sigma[..kk], sigma[kk])
                .map(|e| e.mu)
                .unwrap_or(0.0);
            card *= est;
            if card == 0.0 {
                break;
            }
        }
        card
    }

    /// Exact cardinality of a 2-vertex sub-query from the label-triple edge counts (including
    /// the antiparallel-pair case, estimated with an independence correction).
    fn two_vertex_cardinality(&self, proj: &QueryGraph) -> f64 {
        debug_assert_eq!(proj.num_vertices(), 2);
        if proj.num_edges() == 0 {
            let a = self.vertex_count(proj.vertex(0).label) as f64;
            let b = self.vertex_count(proj.vertex(1).label) as f64;
            return a * b;
        }
        let counts: Vec<f64> = proj
            .edges()
            .iter()
            .map(|e| {
                self.edge_count(e.label, proj.vertex(e.src).label, proj.vertex(e.dst).label) as f64
            })
            .collect();
        if counts.len() == 1 {
            counts[0]
        } else {
            // Multiple (antiparallel / multi-labelled) edges between the same pair: assume
            // independence across the possible vertex pairs.
            let a = self.vertex_count(proj.vertex(0).label).max(1) as f64;
            let b = self.vertex_count(proj.vertex(1).label).max(1) as f64;
            let pairs = a * b;
            pairs * counts.iter().map(|c| c / pairs).product::<f64>()
        }
    }

    fn cartesian_cardinality(&self, q: &QueryGraph, set: VertexSet) -> f64 {
        // Split into connected components and multiply.
        let mut remaining: Vec<usize> = set_iter(set).collect();
        let mut product = 1.0;
        while let Some(&start) = remaining.first() {
            let mut comp = singleton(start);
            let mut frontier = vec![start];
            while let Some(v) = frontier.pop() {
                for e in q.edges() {
                    let other = if e.src == v {
                        e.dst
                    } else if e.dst == v {
                        e.src
                    } else {
                        continue;
                    };
                    if set & singleton(other) != 0 && comp & singleton(other) == 0 {
                        comp |= singleton(other);
                        frontier.push(other);
                    }
                }
            }
            product *= self.cardinality(q, comp);
            remaining.retain(|&v| comp & singleton(v) == 0);
        }
        product
    }

    /// Exact cardinality of the sub-query induced by `set`, by running the reference matcher —
    /// used by the estimation-quality experiments as ground truth.
    pub fn exact_cardinality(&self, q: &QueryGraph, set: VertexSet) -> u64 {
        let (proj, _) = q.project(set);
        count_matches(&self.snap, &proj)
    }
}

/// Advance `combo` (ascending indices below `n`) to the next combination in lexicographic
/// order; `false` when it was the last one.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let Some(i) = (0..k).rev().find(|&i| combo[i] < n - k + i) else {
        return false;
    };
    combo[i] += 1;
    for j in i + 1..k {
        combo[j] = combo[j - 1] + 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_graph::GraphBuilder;
    use graphflow_query::patterns;

    fn complete_graph(n: usize) -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    b.add_edge(i, j);
                }
            }
        }
        Arc::new(b.build())
    }

    #[test]
    fn edge_and_vertex_counts() {
        let g = complete_graph(5);
        let cat = Catalogue::with_defaults(g);
        assert_eq!(
            cat.edge_count(EdgeLabel(0), VertexLabel(0), VertexLabel(0)),
            20
        );
        assert_eq!(cat.vertex_count(VertexLabel(0)), 5);
        assert_eq!(cat.vertex_count(VertexLabel(3)), 0);
        assert!(
            (cat.avg_list_size(Direction::Fwd, EdgeLabel(0), VertexLabel(0)) - 4.0).abs() < 1e-9
        );
    }

    #[test]
    fn list_size_sums_follow_the_triples_under_updates() {
        // `avg_list_size` reads sums kept beside the triple counts; they must equal a scan of
        // the triples after any mix of inserts and deletes (a delete of a triple that is
        // absent or already at zero changes neither).
        let mut cat = Catalogue::with_defaults(complete_graph(4));
        let (l0, l1, l2) = (VertexLabel(0), VertexLabel(1), VertexLabel(2));
        cat.record_edge_insert(EdgeLabel(1), l0, l1);
        cat.record_edge_insert(EdgeLabel(1), l2, l1);
        cat.record_edge_insert(EdgeLabel(1), l0, l2);
        cat.record_edge_delete(EdgeLabel(1), l2, l1);
        cat.record_edge_delete(EdgeLabel(1), l2, l1); // already zero
        cat.record_edge_delete(EdgeLabel(2), l1, l1); // never seen
        cat.record_edge_delete(EdgeLabel(0), l0, l0);
        let n = cat.snapshot().num_vertices() as f64;
        for el in 0..3 {
            for nbr in [l0, l1, l2] {
                for dir in [Direction::Fwd, Direction::Bwd] {
                    let scanned: u64 = cat
                        .edge_counts
                        .iter()
                        .filter(|((l, s, d), _)| {
                            l.0 == el && nbr == if dir == Direction::Fwd { *d } else { *s }
                        })
                        .map(|(_, c)| *c)
                        .sum();
                    assert_eq!(
                        cat.avg_list_size(dir, EdgeLabel(el), nbr),
                        scanned as f64 / n,
                        "{dir:?} {el} {nbr:?}"
                    );
                }
            }
        }
        assert_eq!(
            cat.avg_list_size(Direction::Fwd, EdgeLabel(0), l0),
            11.0 / 4.0
        );
        assert_eq!(
            cat.avg_list_size(Direction::Bwd, EdgeLabel(1), l0),
            2.0 / 4.0
        );
        // Restoring from exported counts rebuilds the same sums.
        let (vertex, edge) = cat.exact_counts();
        let restored =
            Catalogue::for_snapshot_with_counts(cat.snapshot().clone(), cat.config(), vertex, edge);
        assert_eq!(
            restored.avg_list_size(Direction::Fwd, EdgeLabel(1), l1),
            cat.avg_list_size(Direction::Fwd, EdgeLabel(1), l1)
        );
    }

    #[test]
    fn lookups_count_requests_from_outside_only() {
        let cat = Catalogue::with_defaults(complete_graph(6));
        let q = patterns::directed_clique(5);
        assert_eq!(cat.lookups(), 0);
        // One request, however much the catalogue recurses to answer it (a 5-vertex
        // cardinality multiplies three extension estimates, the last through the fallback).
        cat.estimate_cardinality(&q, q.full_set());
        assert_eq!(cat.lookups(), 1);
        cat.extension_estimate(&q, &[0, 1, 2, 3], 4);
        assert_eq!(cat.lookups(), 2);
        cat.estimate_cardinality(&patterns::diamond_x(), 0b1001); // Cartesian: two components
        assert_eq!(cat.lookups(), 3);
        cat.prepopulate(&[patterns::diamond_x()]);
        assert_eq!(cat.lookups(), 3);
        // A copy-on-write clone keeps counting into the same total.
        let clone = cat.clone();
        clone.estimate_cardinality(&q, 0b11);
        assert_eq!(cat.lookups(), 4);
    }

    #[test]
    fn combinations_come_in_lexicographic_order() {
        let mut combo = vec![0, 1];
        let mut seen = vec![combo.clone()];
        while next_combination(&mut combo, 4) {
            seen.push(combo.clone());
        }
        assert_eq!(
            seen,
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]].map(|c| c.to_vec())
        );
        assert!(!next_combination(&mut [0, 1, 2], 3));
    }

    #[test]
    fn triangle_extension_estimate_on_complete_graph() {
        let g = complete_graph(6);
        let cat = Catalogue::with_defaults(g);
        let q = patterns::asymmetric_triangle();
        let est = cat.extension_estimate(&q, &[0, 1], 2).unwrap();
        assert!(est.exact_entry);
        assert_eq!(est.avg_list_sizes.len(), 2);
        assert!((est.avg_list_sizes[0] - 5.0).abs() < 1e-9);
        assert!((est.mu - 4.0).abs() < 1e-9);
        // Entry is memoised.
        assert_eq!(cat.num_entries(), 1);
        let _ = cat.extension_estimate(&q, &[0, 1], 2).unwrap();
        assert_eq!(cat.num_entries(), 1);
    }

    #[test]
    fn cardinality_estimates_are_close_on_complete_graph() {
        let n = 7usize;
        let g = complete_graph(n);
        let cat = Catalogue::with_defaults(g);
        let q = patterns::asymmetric_triangle();
        let est = cat.estimate_cardinality(&q, q.full_set());
        let exact = cat.exact_cardinality(&q, q.full_set()) as f64;
        // On a vertex-transitive graph sampling is exact.
        assert!(
            (est - exact).abs() / exact < 0.05,
            "est {est} exact {exact}"
        );

        let dx = patterns::diamond_x();
        let est = cat.estimate_cardinality(&dx, dx.full_set());
        let exact = cat.exact_cardinality(&dx, dx.full_set()) as f64;
        assert!(
            (est - exact).abs() / exact < 0.05,
            "est {est} exact {exact}"
        );
    }

    #[test]
    fn two_vertex_and_single_vertex_cardinalities() {
        let g = complete_graph(4);
        let cat = Catalogue::with_defaults(g);
        let q = patterns::asymmetric_triangle();
        assert_eq!(cat.estimate_cardinality(&q, 0b001), 4.0);
        assert_eq!(cat.estimate_cardinality(&q, 0b011), 12.0);
    }

    #[test]
    fn cartesian_subsets_multiply() {
        let g = complete_graph(4);
        let cat = Catalogue::with_defaults(g);
        let dx = patterns::diamond_x();
        // {a1, a4} has no query edge: cardinality is the product of the single-vertex counts.
        let c = cat.estimate_cardinality(&dx, 0b1001);
        assert_eq!(c, 16.0);
    }

    #[test]
    fn fallback_rule_applies_beyond_h() {
        let g = complete_graph(8);
        let cat = Catalogue::new(
            g,
            CatalogueConfig {
                h: 2,
                z: 200,
                sample_cap: 10_000,
                seed: 1,
                ..Default::default()
            },
        );
        // 5-clique: extending a 4-vertex prefix exceeds h = 2, so the fallback rule kicks in.
        let q = patterns::directed_clique(5);
        let est = cat.extension_estimate(&q, &[0, 1, 2, 3], 4).unwrap();
        assert!(!est.exact_entry);
        assert_eq!(est.avg_list_sizes.len(), 4);
        assert!(est.mu >= 0.0);
    }

    #[test]
    fn prepopulate_materialises_entries() {
        let g = complete_graph(5);
        let cat = Catalogue::with_defaults(g);
        let added = cat.prepopulate(&[patterns::diamond_x()]);
        assert!(added > 0);
        assert_eq!(cat.num_entries(), added);
        assert!(cat.memory_footprint_bytes() > 0);
        // Prepopulating again adds nothing new.
        assert_eq!(cat.prepopulate(&[patterns::diamond_x()]), 0);
    }

    #[test]
    fn zero_matches_shape_estimates_zero() {
        // A DAG-ish graph with no symmetric edges: the symmetric diamond-X has no matches and
        // the catalogue should estimate (close to) zero.
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            for j in (i + 1)..20u32 {
                if (i + j) % 3 == 0 {
                    b.add_edge(i, j);
                }
            }
        }
        let g = Arc::new(b.build());
        let cat = Catalogue::with_defaults(g);
        let q = patterns::symmetric_diamond_x();
        let est = cat.estimate_cardinality(&q, q.full_set());
        assert_eq!(est, 0.0);
        assert_eq!(cat.exact_cardinality(&q, q.full_set()), 0);
    }
}
