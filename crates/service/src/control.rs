//! The control plane: per-shard introspection, draining, and cache
//! rebalancing.
//!
//! These operations are exposed three ways — on [`Service`] directly
//! ([`Service::shard_stats`], [`Service::drain_shard`],
//! [`Service::rebalance`]), as the `shards` / `drain` / `rebalance` ops of
//! the wire protocol, and on the [`crate::Client`].  They are *management*
//! operations: none of them sits on the job hot path, and none of them can
//! lose or duplicate an admitted job.
//!
//! ## Shard lifecycle
//!
//! A shard is **active** from service start: placement may pick it, its
//! workers pull from its queue.  `drain` moves it to **draining**: placement
//! skips it permanently, its queued jobs are re-homed onto active shards
//! (capacity ignored — they were already admitted), and its in-flight jobs
//! finish where they run.  Its workers stay alive but idle once the queue
//! is empty, and its cache keeps answering sibling peeks.  Draining the
//! last active shard quiesces the service: new submissions are rejected
//! with [`crate::ServiceError::ShuttingDown`], and a drain's displaced jobs
//! stay put (the draining shard's own workers finish them).  Service
//! shutdown is the separate, terminal state that ends the workers.

use crate::service::Service;
use crate::stats::ServiceStats;
use serde::{Serialize, Value};
use std::fmt;

/// One shard's control-plane view: identity, lifecycle, and a
/// [`ServiceStats`]-shaped snapshot of just this shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard's index (0-based, stable for the service's lifetime).
    pub id: usize,
    /// `true` once the shard has been drained: it finishes its work but
    /// receives no new placements.
    pub draining: bool,
    /// Jobs currently executing on this shard's workers.
    pub running: usize,
    /// The shard's snapshot (its `shards` field is 1; `workers` is this
    /// shard's worker count).
    pub stats: ServiceStats,
}

impl Serialize for ShardStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), Value::U64(self.id as u64)),
            ("draining".to_string(), Value::Bool(self.draining)),
            ("running".to_string(), Value::U64(self.running as u64)),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

/// What a drain accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct DrainOutcome {
    /// The drained shard.
    pub shard: usize,
    /// Queued jobs re-homed onto other shards.
    pub requeued: usize,
    /// Queued jobs that had nowhere to go (every shard draining) and will
    /// be finished by the drained shard's own workers.
    pub kept: usize,
    /// Jobs that were mid-solve on the shard when the drain ran; they
    /// finish there.
    pub in_flight: usize,
}

/// What a rebalance accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RebalanceOutcome {
    /// Cached graphs moved to their home shard.
    pub moved: usize,
    /// Active (non-draining) shards the fingerprint space was spread over.
    pub active_shards: usize,
}

/// Failure modes of control-plane operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// The request named a shard the service does not have.
    UnknownShard {
        /// The shard index asked for.
        shard: usize,
        /// How many shards the service runs (valid ids are `0..shards`).
        shards: usize,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::UnknownShard { shard, shards } => {
                write!(f, "no shard {shard}: this service runs {shards} shard(s), ids 0..{shards}")
            }
        }
    }
}

impl std::error::Error for ControlError {}

impl Service {
    /// Per-shard snapshots, ascending by shard id.  Purely observational:
    /// reads atomics and per-shard cache/per-algorithm locks, never a queue
    /// mutex, so it cannot stall admission or workers.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let registry = self.registry();
        registry
            .shards
            .iter()
            .map(|shard| ShardStats {
                id: shard.id,
                draining: shard.draining.load(std::sync::atomic::Ordering::Relaxed),
                running: shard.running.load(std::sync::atomic::Ordering::Relaxed),
                stats: shard.stats(self.workers_per_shard()),
            })
            .collect()
    }

    /// Drains one shard: placement stops immediately, queued jobs are
    /// re-homed onto the least-loaded active shards (capacity ignored —
    /// they were already admitted, so they must not be lost or
    /// re-rejected), in-flight jobs finish where they run.  Idempotent:
    /// draining a draining shard just re-homes whatever queued since.
    ///
    /// Ordering guarantee: the draining flag is set *before* the queue is
    /// flushed, so a submission racing the drain either placed its job
    /// before the flush (and is re-homed with the rest) or re-decides onto
    /// another shard.  Either way the job runs exactly once.
    pub fn drain_shard(&self, shard: usize) -> Result<DrainOutcome, ControlError> {
        let registry = self.registry();
        let Some(target) = registry.shards.get(shard) else {
            return Err(ControlError::UnknownShard { shard, shards: registry.shards.len() });
        };
        registry.mark_draining(shard);
        let displaced = target.take_queued();
        let mut requeued = 0;
        let mut kept = 0;
        for job in displaced {
            if registry.requeue(shard, job) {
                requeued += 1;
            } else {
                kept += 1;
            }
        }
        // Wake the drained shard's workers: with `kept` jobs they have work,
        // otherwise they go back to sleep having observed an empty queue.
        target.available.notify_all();
        Ok(DrainOutcome {
            shard,
            requeued,
            kept,
            in_flight: target.running.load(std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Moves every cached graph, with its warm-start state, to its home
    /// shard (`active[root mod |active|]` over the non-draining shards,
    /// where `root` is the graph's patch-chain root — its own fingerprint
    /// unless `patch_graph` made it), so affinity placement converges to an
    /// even spread of the cached fingerprint space after shards were
    /// drained or caches grew lopsided.
    ///
    /// Each move inserts at the destination *before* removing from the
    /// origin, so a concurrent job resolving that fingerprint always finds
    /// the graph in at least one cache.
    pub fn rebalance(&self) -> RebalanceOutcome {
        let registry = self.registry();
        let active = registry.active_shards();
        if active.is_empty() {
            return RebalanceOutcome { moved: 0, active_shards: 0 };
        }
        let mut moved = 0;
        for shard in &registry.shards {
            // Collect first: a `for` over `lock().fingerprints()` would keep
            // the guard alive across the body, deadlocking on the re-locks.
            let fingerprints = shard.cache.lock().fingerprints();
            for fingerprint in fingerprints {
                let Some(entry) = shard.cache.lock().peek(fingerprint) else {
                    continue; // moved or evicted under us
                };
                // Home on the patch chain's root, not the fingerprint
                // itself: a whole lineage chain re-homes together so
                // warm-start state stays shard-local.
                let home = active[(entry.root % active.len() as u64) as usize];
                if home == shard.id {
                    continue;
                }
                // The entry moves whole: graph, matching and lineage.
                registry.shards[home].cache.lock().insert_entry(fingerprint, entry);
                shard.cache.lock().remove(fingerprint);
                moved += 1;
            }
        }
        RebalanceOutcome { moved, active_shards: active.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_errors_and_outcomes_render() {
        let e = ControlError::UnknownShard { shard: 9, shards: 4 };
        assert!(e.to_string().contains("no shard 9"));
        assert!(e.to_string().contains("0..4"));
        let json =
            serde_json::to_string(&DrainOutcome { shard: 1, requeued: 3, kept: 0, in_flight: 2 })
                .unwrap();
        assert!(json.contains("\"requeued\":3"), "{json}");
        let json = serde_json::to_string(&RebalanceOutcome { moved: 5, active_shards: 3 }).unwrap();
        assert!(json.contains("\"moved\":5"), "{json}");
    }
}
