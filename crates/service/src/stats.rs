//! Aggregate service statistics: job counts, queue depth, and latency
//! aggregates, serialized to JSON for the `stats` request of the wire
//! protocol.

use crate::cache::CacheStats;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Online aggregate of a latency population (seconds).
///
/// Keeps count/total/min/max — enough for a service dashboard without
/// storing samples.  `min`/`max` report 0.0 while the population is empty so
/// the JSON stays free of nulls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyAgg {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples, in seconds.
    pub total_seconds: f64,
    /// Smallest sample, in seconds (0.0 when empty).
    pub min_seconds: f64,
    /// Largest sample, in seconds (0.0 when empty).
    pub max_seconds: f64,
}

impl LatencyAgg {
    /// Folds one sample into the aggregate.
    pub fn record(&mut self, seconds: f64) {
        if self.count == 0 {
            self.min_seconds = seconds;
            self.max_seconds = seconds;
        } else {
            self.min_seconds = self.min_seconds.min(seconds);
            self.max_seconds = self.max_seconds.max(seconds);
        }
        self.count += 1;
        self.total_seconds += seconds;
    }

    /// Arithmetic mean, or 0.0 while empty.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// Folds another aggregate into this one, as if every sample of `other`
    /// had been recorded here (the service merges per-shard aggregates this
    /// way).  An empty side contributes nothing, so the 0.0 placeholder
    /// extremes of an empty population never leak into a merged min/max.
    pub fn merge(&mut self, other: &LatencyAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_seconds += other.total_seconds;
        self.min_seconds = self.min_seconds.min(other.min_seconds);
        self.max_seconds = self.max_seconds.max(other.max_seconds);
    }
}

impl Serialize for LatencyAgg {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("total_seconds".to_string(), Value::F64(self.total_seconds)),
            ("mean_seconds".to_string(), Value::F64(self.mean_seconds())),
            ("min_seconds".to_string(), Value::F64(self.min_seconds)),
            ("max_seconds".to_string(), Value::F64(self.max_seconds)),
        ])
    }
}

/// Per-algorithm job accounting.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct AlgorithmStats {
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Solve-time aggregate over successful jobs (seconds spent in the
    /// solver, excluding queue wait).
    pub solve: LatencyAgg,
}

impl AlgorithmStats {
    /// Folds another shard's accounting for the same algorithm into this
    /// one.
    pub fn merge(&mut self, other: &AlgorithmStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.solve.merge(&other.solve);
    }
}

/// A point-in-time snapshot of the whole service.
///
/// On a sharded service this is the fold of every shard's snapshot:
/// counters and cache stats add, latency aggregates [`LatencyAgg::merge`],
/// `queue_depth` sums, and `peak_queue_depth` is the largest single-shard
/// peak (per-shard queues are independent, so a global depth was never
/// observed anywhere).  Per-shard snapshots are available through
/// [`crate::control::ShardStats`].
#[derive(Clone, Debug, Serialize)]
pub struct ServiceStats {
    /// Number of device shards the service runs (1 unless configured
    /// otherwise).
    pub shards: usize,
    /// Number of pool workers (total across all shards).
    pub workers: usize,
    /// Jobs accepted so far (including ones still queued or running).
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs rejected at admission because the queue was full
    /// (`ServiceBuilder::max_queue_depth`).  Not counted in `submitted`.
    pub rejected: u64,
    /// Jobs that ended with [`crate::ServiceError::Cancelled`] (also counted
    /// in `failed`).
    pub cancelled: u64,
    /// Jobs that ended with [`crate::ServiceError::DeadlineExceeded`] (also
    /// counted in `failed`).
    pub deadline_exceeded: u64,
    /// Graphs created by `patch_graph` (a delta applied to a cached parent).
    pub patched: u64,
    /// Successful jobs whose matching was warm-started from a recorded
    /// parent matching + delta instead of the job's init heuristic (counts
    /// warm attempts that internally fell back to a cold solve too).
    pub resolved: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Largest queue depth observed.
    pub peak_queue_depth: usize,
    /// Queue-wait aggregate over all dequeued jobs.
    pub queue_wait: LatencyAgg,
    /// Graph-cache counters.
    pub cache: CacheStats,
    /// Accounting keyed by the algorithm's label without its numeric
    /// parameters ([`gpm_core::Algorithm::label_without_parameters`]:
    /// `G-PR-Shr@adaptive`, `G-HKDW+blocked`, `PR`, `P-DBFS`), so clients
    /// cycling parameters cannot grow it past 69 keys.
    pub per_algorithm: BTreeMap<String, AlgorithmStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_agg_tracks_extremes_and_mean() {
        let mut agg = LatencyAgg::default();
        assert_eq!(agg.mean_seconds(), 0.0);
        for s in [0.5, 0.1, 0.9] {
            agg.record(s);
        }
        assert_eq!(agg.count, 3);
        assert!((agg.min_seconds - 0.1).abs() < 1e-12);
        assert!((agg.max_seconds - 0.9).abs() < 1e-12);
        assert!((agg.mean_seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_populations_and_ignores_empty_sides() {
        let mut a = LatencyAgg::default();
        a.record(0.2);
        a.record(0.4);
        let mut b = LatencyAgg::default();
        b.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert!((a.min_seconds - 0.1).abs() < 1e-12);
        assert!((a.max_seconds - 0.9).abs() < 1e-12);
        assert!((a.mean_seconds() - 0.4).abs() < 1e-12);
        // Empty sides contribute nothing — in either direction.
        let before = a;
        a.merge(&LatencyAgg::default());
        assert_eq!(a, before);
        let mut empty = LatencyAgg::default();
        empty.merge(&a);
        assert_eq!(empty, a);

        let mut alg = AlgorithmStats { completed: 1, ..AlgorithmStats::default() };
        alg.solve.record(0.5);
        let mut other = AlgorithmStats { completed: 2, failed: 1, ..AlgorithmStats::default() };
        other.solve.record(0.25);
        alg.merge(&other);
        assert_eq!(alg.completed, 3);
        assert_eq!(alg.failed, 1);
        assert_eq!(alg.solve.count, 2);
    }

    #[test]
    fn snapshot_serializes_with_per_algorithm_keys() {
        let mut per_algorithm = BTreeMap::new();
        let mut hk = AlgorithmStats { completed: 2, ..AlgorithmStats::default() };
        hk.solve.record(0.25);
        per_algorithm.insert("HK".to_string(), hk);
        let stats = ServiceStats {
            shards: 1,
            workers: 4,
            submitted: 3,
            completed: 2,
            failed: 1,
            rejected: 5,
            cancelled: 1,
            deadline_exceeded: 0,
            patched: 0,
            resolved: 0,
            queue_depth: 0,
            peak_queue_depth: 3,
            queue_wait: LatencyAgg::default(),
            cache: CacheStats::default(),
            per_algorithm,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"shards\":1"), "{json}");
        assert!(json.contains("\"workers\":4"), "{json}");
        assert!(json.contains("\"HK\""), "{json}");
        assert!(json.contains("\"mean_seconds\""), "{json}");
        assert!(json.contains("\"peak_queue_depth\":3"), "{json}");
        assert!(json.contains("\"rejected\":5"), "{json}");
        assert!(json.contains("\"cancelled\":1"), "{json}");
        assert!(json.contains("\"deadline_exceeded\":0"), "{json}");
    }
}
