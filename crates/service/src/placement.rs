//! Job placement across device shards: fingerprint affinity with
//! least-loaded spill, deterministic and capacity-respecting.
//!
//! The decision itself is a pure function over per-shard load snapshots
//! ([`decide`]), so it is directly property-testable; the
//! `ShardRegistry` (crate-private) wraps it with the lock discipline that makes the
//! decision stick under concurrency (decide from lock-free snapshots, then
//! re-check capacity under the one target shard's queue lock, retrying
//! against a corrected snapshot on a race).
//!
//! ## Placement rules
//!
//! Given a job keyed by its graph's content fingerprint:
//!
//! 1. Only non-draining shards are candidates.  No candidates at all means
//!    the whole service is quiesced ([`Placement::NoActiveShards`]).
//! 2. **Affinity first**: among candidates *with room* whose cache holds
//!    the fingerprint, pick the least-loaded (`queue_depth + running`);
//!    ties break to the lowest shard id.
//! 3. **Spill**: otherwise, the least-loaded candidate with room, same
//!    tie-break.
//! 4. **Reject**: if every candidate is full, reject — reporting the depth
//!    and identity of the *least-loaded* shard, so the `Overloaded` error's
//!    queue depth and retry hint describe where a retry would actually
//!    land, not whichever hot shard happened to be probed.
//!
//! "Room" is `queue_depth < capacity`; running jobs do not count against
//! the cap (they occupy a worker, not a queue slot), exactly as in the
//! single-pool service.

use crate::error::ServiceError;
use crate::job::{GraphSource, JobHandle, JobSlot, JobSpec};
use crate::shard::{lock, DeviceShard, QueuedJob};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One shard's load snapshot, as seen by [`decide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard's index.
    pub id: usize,
    /// `true` while the control plane is draining the shard: it finishes
    /// its work but receives no new placements.
    pub draining: bool,
    /// Jobs waiting in the shard's queue.
    pub queue_depth: usize,
    /// Jobs currently executing on the shard's workers.
    pub running: usize,
    /// The shard's admission cap (`None` = unbounded).
    pub capacity: Option<usize>,
    /// `true` iff the shard's cache holds the job's graph.
    pub holds_graph: bool,
}

impl ShardLoad {
    fn load(&self) -> usize {
        self.queue_depth + self.running
    }

    fn has_room(&self) -> bool {
        self.capacity.is_none_or(|cap| self.queue_depth < cap)
    }
}

/// What [`decide`] concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Place the job on this shard.
    Shard(usize),
    /// Every active shard is full; reject with the least-loaded shard's
    /// numbers.
    Reject {
        /// The least-loaded active shard (where a retry would land).
        least_loaded: usize,
        /// Its queue depth at decision time.
        queue_depth: usize,
    },
    /// Every shard is draining: the service is quiesced and accepts no new
    /// jobs.
    NoActiveShards,
}

/// Places one job given per-shard load snapshots.  Pure and deterministic:
/// equal inputs give equal outputs, and ties always break to the lowest
/// shard id (see the module docs for the full rules).
pub fn decide(loads: &[ShardLoad]) -> Placement {
    let candidates = || loads.iter().filter(|l| !l.draining);
    if candidates().count() == 0 {
        return Placement::NoActiveShards;
    }
    // Affinity: least-loaded non-full holder of the graph.
    let affinity =
        candidates().filter(|l| l.holds_graph && l.has_room()).min_by_key(|l| (l.load(), l.id));
    if let Some(shard) = affinity {
        return Placement::Shard(shard.id);
    }
    // Spill: least-loaded non-full candidate.
    let spill = candidates().filter(|l| l.has_room()).min_by_key(|l| (l.load(), l.id));
    if let Some(shard) = spill {
        return Placement::Shard(shard.id);
    }
    // All full: report the least-loaded candidate's depth.
    let least = candidates()
        .min_by_key(|l| (l.queue_depth, l.id))
        .expect("candidates is non-empty: checked above");
    Placement::Reject { least_loaded: least.id, queue_depth: least.queue_depth }
}

/// Picks the destination for a job displaced by a drain: the least-loaded
/// non-draining shard (lowest id on ties), **ignoring capacity** — the job
/// was already admitted and must not be lost or re-rejected.  `None` means
/// every shard is draining and the job stays where it is.
pub fn decide_requeue(loads: &[ShardLoad]) -> Option<usize> {
    loads.iter().filter(|l| !l.draining).min_by_key(|l| (l.load(), l.id)).map(|l| l.id)
}

/// The shard set plus the admission logic over it.  This is the service's
/// spine: submission, the control plane, and the stats fold all go through
/// here, and nothing in it is shared mutable state beyond the shards
/// themselves.
pub(crate) struct ShardRegistry {
    pub(crate) shards: Vec<Arc<DeviceShard>>,
    /// Service-wide shutdown (distinct from per-shard draining).
    shutdown: AtomicBool,
    /// How many shards are draining.  Kept by [`ShardRegistry::mark_draining`]
    /// so the admission fast path can skip the per-shard draining scan in
    /// the common all-active case.
    draining_count: AtomicUsize,
    /// Routing hints for patched graphs: child fingerprint → the
    /// fingerprint of its chain's *root* (the originally uploaded graph).
    /// Home-shard placement keys on the root, so a whole patch chain shares
    /// one home — the warm-start state a child needs (its parent's matching)
    /// is on its own shard.  The root itself lives in the child's cache
    /// entry, which `patch_graph` and `rebalance` read; this index only
    /// steers the admission fast path, and a missing hint falls through to
    /// affinity placement, which still finds the shard holding the graph.
    /// So it starts over when it reaches `lineage_cap` hints instead of
    /// growing with the patch stream.
    lineage: parking_lot::Mutex<HashMap<u64, u64>>,
    /// Entry count of `lineage`, kept in step so the admission fast path
    /// can skip the lock entirely while no graph was ever patched.
    lineage_len: AtomicUsize,
    lineage_cap: usize,
}

/// Routing hints kept per graph the shard caches can hold in aggregate.
pub(crate) const LINEAGE_HINTS_PER_CACHED_GRAPH: usize = 4;

impl ShardRegistry {
    pub(crate) fn new(shards: Vec<Arc<DeviceShard>>, cache_capacity: usize) -> Self {
        let lineage_cap = LINEAGE_HINTS_PER_CACHED_GRAPH * shards.len() * cache_capacity;
        Self {
            shards,
            shutdown: AtomicBool::new(false),
            draining_count: AtomicUsize::new(0),
            lineage: parking_lot::Mutex::new(HashMap::new()),
            lineage_len: AtomicUsize::new(0),
            lineage_cap,
        }
    }

    /// Records that `child` belongs to the patch chain rooted at `root`,
    /// dropping every older hint first when the index is full.
    pub(crate) fn record_lineage(&self, child: u64, root: u64) {
        let mut lineage = self.lineage.lock();
        if lineage.len() >= self.lineage_cap {
            lineage.clear();
        }
        lineage.insert(child, root);
        self.lineage_len.store(lineage.len(), Ordering::Relaxed);
    }

    /// How many routing hints the lineage index holds.
    #[cfg(test)]
    pub(crate) fn lineage_hints(&self) -> usize {
        self.lineage_len.load(Ordering::Relaxed)
    }

    /// Flips one shard to draining, keeping the drained-shard count in
    /// step.  All draining transitions must go through here.  Idempotent.
    pub(crate) fn mark_draining(&self, shard: usize) {
        if !self.shards[shard].draining.swap(true, Ordering::SeqCst) {
            self.draining_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the service-wide shutdown flag and wakes every worker so it
    /// can observe it.  Idempotent.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            lock(&shard.queue).shutdown = true;
            shard.available.notify_all();
        }
    }

    /// Snapshots every shard's load for a job keyed by `fingerprint`
    /// (`None` when the fingerprint was not computed — no affinity, pure
    /// load balancing).  Lock-free except for the `contains` probe of each
    /// shard's cache.
    pub(crate) fn loads(&self, fingerprint: Option<u64>) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| ShardLoad {
                id: s.id,
                draining: s.draining.load(Ordering::Relaxed),
                queue_depth: s.depth.load(Ordering::Relaxed),
                running: s.running.load(Ordering::Relaxed),
                capacity: s.capacity,
                holds_graph: fingerprint.is_some_and(|fp| s.cache.lock().contains(fp)),
            })
            .collect()
    }

    /// Admits one job: decide from snapshots, then confirm under the target
    /// shard's queue lock (capacity and shutdown re-checked where they are
    /// authoritative).  On a lost race the snapshot is corrected and the
    /// decision retried; the retry count is bounded by the shard count, so
    /// admission can degrade to a rejection but never to a livelock.
    pub(crate) fn submit(&self, spec: JobSpec) -> JobHandle {
        if self.is_shutdown() {
            return JobHandle::completed(Err(ServiceError::ShuttingDown));
        }
        // The O(E) fingerprint of inline graphs is computed here, outside
        // every lock, by the submitting thread — and only when placement
        // can use it: on a single-shard service there is no affinity
        // decision to inform, so the hash is deferred to the worker and
        // inline submission stays O(1).
        let fingerprint = match &spec.graph {
            GraphSource::Inline(_) if self.shards.len() == 1 => None,
            GraphSource::Inline(graph) => Some(graph.fingerprint()),
            GraphSource::Cached(fp) => Some(*fp),
        };
        let slot = Arc::new(JobSlot::default());
        let handle = JobHandle { slot: Arc::clone(&slot), cancel: spec.cancel.clone() };
        // Home-first fast path: `put_graph` and `rebalance` keep every
        // cached graph on its home shard, so in the steady state a keyed
        // job needs exactly one cache probe and one queue push — both on
        // its home shard.  Admission stays O(1) in the shard count and
        // touches no shared lock, instead of probing every shard's cache.
        // Any miss (graph elsewhere, home full or draining) falls through
        // to the general decision.
        if let Some(fp) = fingerprint {
            if let Some(id) = self.home_shard(fp) {
                let shard = &self.shards[id];
                if !shard.draining.load(Ordering::Relaxed) && shard.cache.lock().contains(fp) {
                    let mut queue = lock(&shard.queue);
                    if queue.shutdown {
                        return JobHandle::completed(Err(ServiceError::ShuttingDown));
                    }
                    let full = shard.capacity.is_some_and(|cap| queue.jobs.len() >= cap);
                    if !full && !shard.draining.load(Ordering::Relaxed) {
                        shard.push_new(&mut queue, spec, slot, fingerprint);
                        drop(queue);
                        shard.counters.submitted.fetch_add(1, Ordering::Relaxed);
                        shard.available.notify_one();
                        return handle;
                    }
                }
            }
        }
        let mut loads = self.loads(fingerprint);
        // One attempt per shard plus one: each failed attempt marks that
        // shard full in the local snapshot, so the loop strictly shrinks
        // its candidate set.
        for _ in 0..=self.shards.len() {
            match decide(&loads) {
                Placement::NoActiveShards => {
                    return JobHandle::completed(Err(ServiceError::ShuttingDown));
                }
                Placement::Reject { least_loaded, queue_depth } => {
                    let shard = &self.shards[least_loaded];
                    shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return JobHandle::completed(Err(ServiceError::Overloaded {
                        queue_depth,
                        retry_after_hint: shard.retry_after_hint(),
                    }));
                }
                Placement::Shard(id) => {
                    let shard = &self.shards[id];
                    let mut queue = lock(&shard.queue);
                    if queue.shutdown {
                        return JobHandle::completed(Err(ServiceError::ShuttingDown));
                    }
                    let full = shard.capacity.is_some_and(|cap| queue.jobs.len() >= cap);
                    let draining = shard.draining.load(Ordering::Relaxed);
                    if full || draining {
                        // Lost a race (a burst filled the shard, or the
                        // control plane started draining it): correct the
                        // snapshot and re-decide.
                        drop(queue);
                        for l in loads.iter_mut().filter(|l| l.id == id) {
                            l.queue_depth = shard.depth.load(Ordering::Relaxed);
                            l.draining = draining;
                        }
                        continue;
                    }
                    shard.push_new(&mut queue, spec, slot, fingerprint);
                    drop(queue);
                    shard.counters.submitted.fetch_add(1, Ordering::Relaxed);
                    shard.available.notify_one();
                    return handle;
                }
            }
        }
        // Every retry lost its race: the service really is saturated.
        let least = loads
            .iter()
            .filter(|l| !l.draining)
            .min_by_key(|l| (l.queue_depth, l.id))
            .map(|l| l.id)
            .unwrap_or(0);
        let shard = &self.shards[least];
        shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
        JobHandle::completed(Err(ServiceError::Overloaded {
            queue_depth: shard.depth.load(Ordering::Relaxed),
            retry_after_hint: shard.retry_after_hint(),
        }))
    }

    /// Requeues a drained job onto the least-loaded active shard, or back
    /// onto `origin` when every shard is draining (its own workers then
    /// finish it).  Returns `true` iff the job left `origin`.
    pub(crate) fn requeue(&self, origin: usize, job: QueuedJob) -> bool {
        let loads: Vec<ShardLoad> = self
            .shards
            .iter()
            .map(|s| ShardLoad {
                id: s.id,
                draining: s.draining.load(Ordering::Relaxed),
                queue_depth: s.depth.load(Ordering::Relaxed),
                running: s.running.load(Ordering::Relaxed),
                capacity: s.capacity,
                holds_graph: false,
            })
            .collect();
        match decide_requeue(&loads) {
            Some(dest) if dest != origin => {
                self.shards[dest].push_requeued(job);
                true
            }
            _ => {
                self.shards[origin].push_requeued(job);
                false
            }
        }
    }

    /// The active (non-draining) shard ids, ascending.
    pub(crate) fn active_shards(&self) -> Vec<usize> {
        self.shards.iter().filter(|s| !s.draining.load(Ordering::Relaxed)).map(|s| s.id).collect()
    }

    /// The home shard of a fingerprint among the currently active shards:
    /// the [`ShardRegistry::root_home`] of its patch chain's root as the
    /// routing hints know it — the fingerprint itself when it was never
    /// produced by `patch_graph` or its hint was dropped.  Allocation-free,
    /// and lock-free while no graph was ever patched: it sits on the
    /// admission fast path.
    pub(crate) fn home_shard(&self, fingerprint: u64) -> Option<usize> {
        let root = if self.lineage_len.load(Ordering::Relaxed) == 0 {
            fingerprint
        } else {
            self.lineage.lock().get(&fingerprint).copied().unwrap_or(fingerprint)
        };
        self.root_home(root)
    }

    /// The home shard of the patch chain rooted at `root`:
    /// `active[root mod |active|]` — so every graph in a chain homes with
    /// its ancestor and warm-start state stays local.  This is the
    /// invariant `rebalance` restores and `put_graph` and `patch_graph`
    /// establish.  `None` when every shard is draining.
    pub(crate) fn root_home(&self, root: u64) -> Option<usize> {
        // Common case: nothing draining, the home is a plain modulo.
        if self.draining_count.load(Ordering::Relaxed) == 0 {
            return Some((root % self.shards.len() as u64) as usize);
        }
        let active = || self.shards.iter().filter(|s| !s.draining.load(Ordering::Relaxed));
        let count = active().count() as u64;
        if count == 0 {
            return None;
        }
        active().nth((root % count) as usize).map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: usize) -> ShardLoad {
        ShardLoad {
            id,
            draining: false,
            queue_depth: 0,
            running: 0,
            capacity: None,
            holds_graph: false,
        }
    }

    #[test]
    fn affinity_wins_over_emptier_spill_targets() {
        // Shard 2 holds the graph but is busier; affinity still wins.
        let mut loads = vec![load(0), load(1), load(2)];
        loads[2].holds_graph = true;
        loads[2].queue_depth = 3;
        assert_eq!(decide(&loads), Placement::Shard(2));
    }

    #[test]
    fn full_affinity_holder_spills_to_least_loaded() {
        let mut loads = vec![load(0), load(1), load(2)];
        loads[1].holds_graph = true;
        loads[1].capacity = Some(2);
        loads[1].queue_depth = 2; // full
        loads[0].queue_depth = 1;
        assert_eq!(decide(&loads), Placement::Shard(2));
    }

    #[test]
    fn ties_break_to_the_lowest_id() {
        assert_eq!(decide(&[load(0), load(1), load(2)]), Placement::Shard(0));
        let mut loads = vec![load(0), load(1), load(2)];
        loads[1].holds_graph = true;
        loads[2].holds_graph = true;
        assert_eq!(decide(&loads), Placement::Shard(1));
    }

    #[test]
    fn running_jobs_count_toward_load_but_not_capacity() {
        let mut loads = vec![load(0), load(1)];
        loads[0].running = 5;
        assert_eq!(decide(&loads), Placement::Shard(1));
        // A shard whose queue is empty but whose workers are busy still has
        // room.
        loads[0].capacity = Some(1);
        loads[1].capacity = Some(1);
        loads[1].queue_depth = 1;
        assert_eq!(decide(&loads), Placement::Shard(0));
    }

    #[test]
    fn all_full_rejects_with_the_least_loaded_depth() {
        let mut loads = vec![load(0), load(1)];
        loads[0].capacity = Some(8);
        loads[0].queue_depth = 8;
        loads[1].capacity = Some(2);
        loads[1].queue_depth = 2;
        assert_eq!(decide(&loads), Placement::Reject { least_loaded: 1, queue_depth: 2 });
    }

    #[test]
    fn draining_shards_are_invisible_to_placement() {
        let mut loads = vec![load(0), load(1)];
        loads[0].holds_graph = true;
        loads[0].draining = true;
        assert_eq!(decide(&loads), Placement::Shard(1));
        loads[1].draining = true;
        assert_eq!(decide(&loads), Placement::NoActiveShards);
        // Requeue ignores capacity but not draining.
        loads[1].draining = false;
        loads[1].capacity = Some(1);
        loads[1].queue_depth = 9;
        assert_eq!(decide_requeue(&loads), Some(1));
        loads[1].draining = true;
        assert_eq!(decide_requeue(&loads), None);
    }
}
