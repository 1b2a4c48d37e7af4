//! Content-addressed graph cache with LRU eviction: one entry per graph.
//!
//! Clients of a long-running matching service solve the same instance many
//! times (parameter sweeps, algorithm ablations).  The cache keys each graph
//! by [`BipartiteCsr::fingerprint`], so a repeat upload is recognized as the
//! same content regardless of the order its edges arrived in, and a job can
//! name a graph by its 64-bit key instead of re-shipping megabytes of edges.
//!
//! An entry also holds the graph's warm-start state: the matching its last
//! solve produced and, for a graph `patch_graph` made, the parent and delta
//! it was made from.  A solve of a patched child repairs its parent's
//! matching through the delta instead of starting cold.  Graph and warm
//! state share one fate: the LRU evicts them together, and rebalancing
//! moves whole entries between shards.

use gpm_graph::{BipartiteCsr, GraphDelta, Matching};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Snapshot of the cache's counters, serialized into service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Maximum number of graphs the cache holds (0 disables caching).
    pub capacity: usize,
    /// Graphs currently cached.
    pub len: usize,
    /// Lookups that found the graph.
    pub hits: u64,
    /// Lookups that missed (never inserted, or evicted).
    pub misses: u64,
    /// Inserts of content not already present.
    pub insertions: u64,
    /// Graphs evicted to make room.
    pub evictions: u64,
    /// Same-fingerprint inserts whose content differed (64-bit hash
    /// collisions); the newest content replaced the old.
    pub collisions: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups, or 0.0 before the first lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another cache's counters into this one (the service aggregates
    /// its per-shard caches this way; capacities and lengths add).
    pub fn merge(&mut self, other: &CacheStats) {
        self.capacity += other.capacity;
        self.len += other.len;
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.collisions += other.collisions;
    }
}

/// One cached graph and its warm-start state.
#[derive(Clone, Debug)]
pub(crate) struct CacheEntry {
    pub(crate) graph: Arc<BipartiteCsr>,
    /// Fingerprint of the graph's patch-chain root: its own unless
    /// `patch_graph` made it.  Shards home a whole chain on its root.
    pub(crate) root: u64,
    /// The parent fingerprint and the delta `patch_graph` applied to it.
    parent: Option<(u64, Arc<GraphDelta>)>,
    /// The matching the graph's last solve produced.
    matching: Option<Arc<Matching>>,
    /// Tick of the last insert or counted lookup (the LRU order).
    touched: u64,
}

impl CacheEntry {
    fn new(fingerprint: u64, graph: Arc<BipartiteCsr>) -> Self {
        Self { graph, root: fingerprint, parent: None, matching: None, touched: 0 }
    }
}

/// An LRU cache of [`BipartiteCsr`]s keyed by content fingerprint, each
/// entry carrying its graph's warm-start state.
///
/// Not internally synchronized — the service wraps it in a mutex shared by
/// the worker pool and the front-end.
#[derive(Debug)]
pub struct GraphCache {
    capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    collisions: u64,
}

impl GraphCache {
    /// A cache holding up to `capacity` graphs (0 disables caching: every
    /// insert is dropped and every lookup misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Inserts `graph`, returning its fingerprint.  Re-inserting content
    /// already present only refreshes its recency.  Evicts the
    /// least-recently-used graph when full.
    pub fn insert(&mut self, graph: Arc<BipartiteCsr>) -> u64 {
        let fingerprint = graph.fingerprint();
        self.insert_keyed(fingerprint, graph);
        fingerprint
    }

    /// [`Self::insert`] with the fingerprint already computed (callers that
    /// share the cache across threads hash outside the lock).  Returns the
    /// graph now cached under `fingerprint` — the earlier copy when the
    /// content was already present — so a caller that solves it can later
    /// [`Self::store_matching`] against the same allocation.
    ///
    /// `fingerprint` **must** be `graph.fingerprint()`.  If the slot holds
    /// *different* content under the same 64-bit fingerprint — a hash
    /// collision, which a non-cryptographic fingerprint cannot rule out for
    /// untrusted input — the newest upload wins and the event is counted in
    /// [`CacheStats::collisions`], so the most recent uploader always solves
    /// the graph it shipped.  The slot's warm state belonged to the old
    /// content and is cleared with it.
    pub(crate) fn insert_keyed(
        &mut self,
        fingerprint: u64,
        graph: Arc<BipartiteCsr>,
    ) -> Arc<BipartiteCsr> {
        match self.upsert(fingerprint, Arc::clone(&graph)) {
            Some(entry) => Arc::clone(&entry.graph),
            None => graph,
        }
    }

    /// Caches `graph`, which `patch_graph` made by applying `delta` to the
    /// cached graph `parent` of the patch chain rooted at `root`.
    pub(crate) fn insert_patched(
        &mut self,
        fingerprint: u64,
        graph: Arc<BipartiteCsr>,
        parent: u64,
        root: u64,
        delta: Arc<GraphDelta>,
    ) {
        if let Some(entry) = self.upsert(fingerprint, graph) {
            entry.root = root;
            entry.parent = Some((parent, delta));
        }
    }

    /// Installs an entry moved from another shard's cache, warm state
    /// included (rebalancing).
    pub(crate) fn insert_entry(&mut self, fingerprint: u64, moved: CacheEntry) {
        if let Some(entry) = self.upsert(fingerprint, Arc::clone(&moved.graph)) {
            *entry = CacheEntry { touched: entry.touched, ..moved };
        }
    }

    /// The entry for `fingerprint`, created for `graph` (evicting the
    /// least-recently-used entry when full) or refreshed; see
    /// [`Self::insert_keyed`] for collisions.  `None` when caching is
    /// disabled.
    fn upsert(&mut self, fingerprint: u64, graph: Arc<BipartiteCsr>) -> Option<&mut CacheEntry> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        if !self.entries.contains_key(&fingerprint) {
            if self.entries.len() >= self.capacity {
                // O(len) scan: capacities are small (graphs are megabytes).
                if let Some(&lru) =
                    self.entries.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k)
                {
                    self.entries.remove(&lru);
                    self.evictions += 1;
                }
            }
            self.insertions += 1;
        }
        let entry = self
            .entries
            .entry(fingerprint)
            .or_insert_with(|| CacheEntry::new(fingerprint, Arc::clone(&graph)));
        if !Arc::ptr_eq(&entry.graph, &graph) && *entry.graph != *graph {
            *entry = CacheEntry::new(fingerprint, graph);
            self.collisions += 1;
        }
        entry.touched = self.tick;
        Some(entry)
    }

    /// Looks up a graph by fingerprint, refreshing its recency.  Counts a
    /// hit or a miss.
    pub fn get(&mut self, fingerprint: u64) -> Option<Arc<BipartiteCsr>> {
        self.tick += 1;
        match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                entry.touched = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.graph))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// `true` iff the fingerprint is cached.  Does not touch recency or
    /// the hit/miss counters.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Copies an entry out without touching recency or the hit/miss
    /// counters.
    ///
    /// Shards use this to probe *each other's* caches: a remote fetch must
    /// not pollute the owner's LRU order or its hit ratio — the per-shard
    /// counters are how placement quality is measured, so only the owning
    /// shard's own lookups may count.
    pub(crate) fn peek(&self, fingerprint: u64) -> Option<CacheEntry> {
        self.entries.get(&fingerprint).cloned()
    }

    /// The warm-start material for a solve of `fingerprint`: the delta that
    /// made it and its parent's last matching, when both are cached here.
    /// One lineage step only: a child whose parent was never solved, or was
    /// evicted, starts cold.
    ///
    /// Touches neither recency nor the counters.  The child's own lookup
    /// keeps the live chain head hot; refreshing the parent it supersedes
    /// would keep two entries per chain hot and crowd out other chains.
    pub(crate) fn warm_start(&self, fingerprint: u64) -> Option<(Arc<GraphDelta>, Arc<Matching>)> {
        let (parent, delta) = self.entries.get(&fingerprint)?.parent.as_ref()?;
        let matching = self.entries.get(parent)?.matching.as_ref()?;
        Some((Arc::clone(delta), Arc::clone(matching)))
    }

    /// Records `matching` as the last solve of `fingerprint`, provided the
    /// entry still holds `graph`, the graph that was solved (a colliding
    /// insert may have replaced it meanwhile).  Does not touch recency.
    pub(crate) fn store_matching(
        &mut self,
        fingerprint: u64,
        graph: &Arc<BipartiteCsr>,
        matching: Matching,
    ) {
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            if Arc::ptr_eq(&entry.graph, graph) {
                entry.matching = Some(Arc::new(matching));
            }
        }
    }

    /// Removes a graph with its warm state (rebalancing moves entries
    /// between shard caches).  Not counted as an eviction: the graph is
    /// leaving by policy, not by pressure.
    pub(crate) fn remove(&mut self, fingerprint: u64) {
        self.entries.remove(&fingerprint);
    }

    /// The fingerprints currently cached, in unspecified order.
    pub(crate) fn fingerprints(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// Number of graphs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no graphs are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.capacity,
            len: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            collisions: self.collisions,
        }
    }
}

impl Serialize for GraphCache {
    fn to_value(&self) -> Value {
        self.stats().to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;

    fn graph(seed: u64) -> Arc<BipartiteCsr> {
        Arc::new(gen::uniform_random(20, 20, 60, seed).unwrap())
    }

    /// A graph of seed 1, a child patched out of it, and the delta.
    fn parent_and_child() -> (Arc<BipartiteCsr>, Arc<BipartiteCsr>, Arc<GraphDelta>) {
        let parent = graph(1);
        let mut delta = GraphDelta::new();
        let (r, c) = parent.edges().next().unwrap();
        delta.remove_edge(r, c);
        let child = Arc::new(parent.apply_delta(&delta).unwrap());
        (parent, child, Arc::new(delta))
    }

    #[test]
    fn insert_then_get_hits() {
        let mut cache = GraphCache::new(4);
        let g = graph(1);
        let fp = cache.insert(Arc::clone(&g));
        assert_eq!(fp, g.fingerprint());
        assert!(cache.contains(fp));
        let got = cache.get(fp).unwrap();
        assert_eq!(got.fingerprint(), fp);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
        assert!(cache.get(fp ^ 1).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reinserting_same_content_is_idempotent() {
        let mut cache = GraphCache::new(4);
        let fp1 = cache.insert(graph(1));
        let fp2 = cache.insert(graph(1)); // same seed → same content
        assert_eq!(fp1, fp2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = GraphCache::new(2);
        let a = cache.insert(graph(1));
        let b = cache.insert(graph(2));
        // Touch `a` so `b` becomes the LRU entry.
        cache.get(a).unwrap();
        let c = cache.insert(graph(3));
        assert!(cache.contains(a));
        assert!(!cache.contains(b), "LRU entry should have been evicted");
        assert!(cache.contains(c));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_drops_graph_matching_and_lineage_together() {
        let mut cache = GraphCache::new(2);
        let (a, b, delta) = parent_and_child();
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        cache.insert(Arc::clone(&a));
        cache.store_matching(fa, &a, Matching::empty_for(&a));
        cache.insert_patched(fb, Arc::clone(&b), fa, fa, delta);
        assert!(cache.warm_start(fb).is_some());
        // The warm-start read neither counted nor refreshed the parent, so
        // `a` is still the LRU entry and leaves with its matching.
        assert_eq!(cache.stats().hits, 0);
        cache.insert(graph(3));
        assert!(!cache.contains(fa));
        assert!(cache.warm_start(fb).is_none(), "the parent's matching left with its graph");
        // `a` comes back (evicting `b`), solved again; `b` comes back as a
        // plain upload.  Its lineage left with it, so it has no warm start.
        cache.insert(Arc::clone(&a));
        cache.store_matching(fa, &a, Matching::empty_for(&a));
        assert!(!cache.contains(fb));
        cache.insert(Arc::clone(&b));
        assert!(cache.contains(fa) && cache.contains(fb));
        assert!(cache.warm_start(fb).is_none(), "the child's lineage left with its graph");
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn colliding_fingerprint_replaces_content_and_is_counted() {
        // Simulate a 64-bit collision by inserting different content under
        // the same key (insert_keyed trusts its caller's fingerprint).
        let mut cache = GraphCache::new(4);
        let g1 = graph(1);
        let g2 = graph(2);
        let fp = cache.insert(Arc::clone(&g1));
        cache.insert_keyed(fp, Arc::clone(&g2));
        // Newest content wins: the slot now holds g2.
        let got = cache.get(fp).unwrap();
        assert_eq!(*got, *g2);
        assert_eq!(cache.stats().collisions, 1);
        assert_eq!(cache.len(), 1);
        // Re-inserting identical content is not a collision.
        cache.insert_keyed(fp, g2);
        assert_eq!(cache.stats().collisions, 1);
    }

    #[test]
    fn colliding_insert_clears_matching_and_lineage() {
        let mut cache = GraphCache::new(4);
        let (a, b, delta) = parent_and_child();
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        cache.insert(Arc::clone(&a));
        cache.store_matching(fa, &a, Matching::empty_for(&a));
        cache.insert_patched(fb, Arc::clone(&b), fa, fa, delta);
        assert!(cache.warm_start(fb).is_some());
        // New content under the parent's key: the old matching is not one
        // of the new graph, and a late store for the old graph is refused.
        cache.insert_keyed(fa, graph(8));
        assert!(cache.warm_start(fb).is_none());
        cache.store_matching(fa, &a, Matching::empty_for(&a));
        assert!(cache.peek(fa).unwrap().matching.is_none());
        // New content under the child's key: its lineage and root go too.
        cache.insert_keyed(fb, graph(9));
        let entry = cache.peek(fb).unwrap();
        assert!(entry.parent.is_none());
        assert_eq!(entry.root, fb);
        assert_eq!(cache.stats().collisions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = GraphCache::new(0);
        let g = graph(7);
        let fp = cache.insert(Arc::clone(&g));
        assert_eq!(fp, g.fingerprint());
        assert!(cache.is_empty());
        assert!(cache.get(fp).is_none());
        assert_eq!(cache.stats().insertions, 0);
        // Nor any warm state.
        let (a, b, delta) = parent_and_child();
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        cache.insert(Arc::clone(&a));
        cache.store_matching(fa, &a, Matching::empty_for(&a));
        cache.insert_patched(fb, b, fa, fa, delta);
        assert!(cache.is_empty());
        assert!(cache.warm_start(fb).is_none());
    }

    #[test]
    fn stats_serialize_as_a_json_object() {
        let mut cache = GraphCache::new(2);
        cache.insert(graph(1));
        let json = serde_json::to_string(&cache).unwrap();
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\"insertions\":1"), "{json}");
    }
}
