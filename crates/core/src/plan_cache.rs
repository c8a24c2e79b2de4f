//! The LRU plan cache behind [`GraphflowDB::prepare`](crate::GraphflowDB::prepare).
//!
//! The paper's premise is that parse → canonicalize → optimize dominates execution for
//! serving-style workloads, so the facade runs the DP optimizer **once per distinct query
//! shape**: plans are cached under the canonical code of the query graph
//! ([`graphflow_query::canonical`]), which makes every isomorphic rewriting of a pattern — same
//! shape, different vertex names or clause order — a cache hit. Entries are evicted least
//! recently used once the configured capacity is exceeded.

use graphflow_plan::PlanHandle;
use graphflow_query::CanonicalCode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Point-in-time counters of the plan cache behind [`GraphflowDB::plan_cache_stats`](crate::GraphflowDB::plan_cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (optimizer skipped).
    pub hits: u64,
    /// Lookups that had to run the optimizer. This is exactly the number of optimizer
    /// invocations made through the cache.
    pub misses: u64,
    /// Entries evicted because the cache was full.
    pub evictions: u64,
    /// Entries dropped because they were optimized under an older graph statistics version
    /// (the graph drifted past the staleness threshold, so the plan was re-optimized instead
    /// of silently reusing dead statistics).
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
}

/// The `(statistics version, optimizer-configuration epoch)` pair an entry was optimized
/// under. Read by the facade *before* the optimizer runs, so a plan whose optimization
/// straddled a configuration change is keyed under the old epoch and never served after it.
pub(crate) type CacheVersion = (u64, u64);

struct Entry {
    plan: PlanHandle,
    /// The canonicalising permutation of the *cached* plan's query
    /// (`perm[plan query vertex] = canonical position`), kept so later isomorphic queries can
    /// be mapped onto the cached plan's vertex numbering.
    perm: Vec<usize>,
    /// The version pair the plan was optimized under; a lookup with a different pair drops
    /// the entry (the logical key is `(canonical query, statistics version, config epoch)`).
    version: CacheVersion,
    last_used: u64,
}

struct Inner {
    map: HashMap<CanonicalCode, Entry>,
    invalidations: u64,
    /// First-level index: the cheap identity-permutation encoding of a query
    /// ([`graphflow_query::exact_code`]) mapped to its canonical code and canonicalising
    /// permutation. A repeated byte-identical pattern resolves through this map and skips the
    /// canonical search (about half a microsecond for a small pattern); only novel vertex
    /// numberings pay for canonicalisation. Bounded by `4 * capacity` (cleared wholesale when
    /// exceeded).
    exact_index: HashMap<Vec<u64>, (CanonicalCode, Vec<usize>)>,
    tick: u64,
    evictions: u64,
}

/// A thread-safe LRU cache of optimized plans keyed by canonical query form.
pub(crate) struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                invalidations: 0,
                exact_index: HashMap::new(),
                tick: 0,
                evictions: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Resolve a cheap exact (identity-permutation) code to the canonical form recorded for
    /// it, if this byte-identical query structure has been seen before.
    pub(crate) fn canonical_for_exact(&self, exact: &[u64]) -> Option<(CanonicalCode, Vec<usize>)> {
        if self.capacity == 0 {
            return None;
        }
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.exact_index.get(exact).cloned()
    }

    /// Record the canonical form of an exact code so future identical queries skip the
    /// canonical search.
    pub(crate) fn remember_exact(&self, exact: Vec<u64>, code: CanonicalCode, perm: Vec<usize>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.exact_index.len() >= self.capacity.saturating_mul(4) {
            inner.exact_index.clear();
        }
        inner.exact_index.insert(exact, (code, perm));
    }

    /// Look up a plan optimized under the `version` pair, marking the entry as recently
    /// used. Returns the plan and the cached query's canonicalising permutation. An entry
    /// carrying a different version pair is dropped (counted as an invalidation) and reported
    /// as a miss, so the caller re-optimizes against current statistics and configuration. A miss only bumps the miss
    /// counter; the caller is expected to optimize and [`insert`](PlanCache::insert).
    pub(crate) fn get(
        &self,
        code: &CanonicalCode,
        version: CacheVersion,
    ) -> Option<(PlanHandle, Vec<usize>)> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(code) {
            Some(entry) if entry.version == version => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.plan.clone(), entry.perm.clone()))
            }
            Some(_) => {
                inner.map.remove(code);
                inner.invalidations += 1;
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a plan freshly optimized under the `version` pair, evicting the least recently
    /// used entry if full.
    pub(crate) fn insert(
        &self,
        code: CanonicalCode,
        plan: PlanHandle,
        perm: Vec<usize>,
        version: CacheVersion,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&code) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            code,
            Entry {
                plan,
                perm,
                version,
                last_used: tick,
            },
        );
    }

    /// Drop every entry (used when the cost model or plan space changes: cached plans would no
    /// longer reflect the optimizer's configuration). Counters are preserved.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        // The exact index only maps to canonical codes (not plans), so it could survive a
        // clear — but dropping it too keeps the invariant simple: clear() forgets everything.
        inner.exact_index.clear();
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphflow_plan::Plan;
    use graphflow_query::{canonical_form, patterns};
    use std::sync::Arc;

    fn dummy_plan(q: &graphflow_query::QueryGraph) -> PlanHandle {
        let edge = q.edges()[0];
        let mut node = graphflow_plan::PlanNode::scan(edge);
        for v in 0..q.num_vertices() {
            if let Some(next) = graphflow_plan::PlanNode::extend(q, node.clone(), v) {
                node = next;
            }
        }
        // The exact tree does not matter for cache tests; cover the query if possible.
        Arc::new(Plan {
            query: q.clone(),
            root: node,
            estimated_cost: 0.0,
        })
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let cache = PlanCache::new(2);
        let queries = [
            patterns::asymmetric_triangle(),
            patterns::diamond_x(),
            patterns::directed_path(3),
        ];
        let forms: Vec<_> = queries.iter().map(canonical_form).collect();
        for (q, (code, perm)) in queries.iter().zip(forms.iter()) {
            assert!(cache.get(code, (0, 0)).is_none());
            cache.insert(code.clone(), dummy_plan(q), perm.clone(), (0, 0));
        }
        // Capacity 2: the triangle (oldest, never touched again) must be gone.
        assert!(cache.get(&forms[0].0, (0, 0)).is_none());
        assert!(cache.get(&forms[1].0, (0, 0)).is_some());
        assert!(cache.get(&forms[2].0, (0, 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn recently_used_entry_survives_eviction() {
        let cache = PlanCache::new(2);
        let q1 = patterns::asymmetric_triangle();
        let q2 = patterns::diamond_x();
        let q3 = patterns::directed_path(3);
        let (c1, p1) = canonical_form(&q1);
        let (c2, p2) = canonical_form(&q2);
        let (c3, p3) = canonical_form(&q3);
        cache.insert(c1.clone(), dummy_plan(&q1), p1, (0, 0));
        cache.insert(c2.clone(), dummy_plan(&q2), p2, (0, 0));
        // Touch q1 so q2 becomes the LRU victim.
        assert!(cache.get(&c1, (0, 0)).is_some());
        cache.insert(c3, dummy_plan(&q3), p3, (0, 0));
        assert!(cache.get(&c1, (0, 0)).is_some());
        assert!(cache.get(&c2, (0, 0)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        let q = patterns::asymmetric_triangle();
        let (code, perm) = canonical_form(&q);
        cache.insert(code.clone(), dummy_plan(&q), perm, (0, 0));
        assert!(cache.get(&code, (0, 0)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn version_mismatch_invalidates_entry() {
        let cache = PlanCache::new(4);
        let q = patterns::asymmetric_triangle();
        let (code, perm) = canonical_form(&q);
        cache.insert(code.clone(), dummy_plan(&q), perm.clone(), (0, 0));
        assert!(cache.get(&code, (0, 0)).is_some(), "same version hits");
        // The graph drifted: version 1 lookups must not reuse the version-0 plan.
        assert!(cache.get(&code, (1, 0)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0, "stale entry is dropped eagerly");
        // Re-inserting under the new version serves version-1 lookups again.
        cache.insert(code.clone(), dummy_plan(&q), perm.clone(), (1, 0));
        assert!(cache.get(&code, (1, 0)).is_some());
        // The configuration epoch is the second half of the key: a plan inserted under an
        // old epoch (e.g. its optimizer run straddled a set_plan_space that cleared the
        // cache) is invalidated by the first post-change lookup, not served.
        cache.insert(code.clone(), dummy_plan(&q), perm, (1, 0));
        assert!(cache.get(&code, (1, 1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
