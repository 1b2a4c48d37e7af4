//! [`DeviceShard`]: one independent virtual device inside the service.
//!
//! A shard owns everything a single-pool service used to own globally — a
//! bounded priority queue, a pool of worker threads with warm [`Solver`]
//! sessions, a private [`GraphCache`], and its own statistics — so M shards
//! share **nothing** on the hot path.  The old global queue mutex and cache
//! lock are gone, not wrapped: admission touches only the target shard's
//! queue, graph resolution only that shard's cache (with a lock-free-read
//! *peek* of sibling caches as a fallback), and every counter a submitter or
//! the `stats` op reads is an atomic, so an admission storm on shard 0
//! cannot stall a worker or a stats snapshot on shard 3.
//!
//! The shard's executor pool is equally private: each worker's solver is
//! built with the shard's [`ExecutorConfig`], whose `pool_tag` is the shard
//! id, so the pool threads of shard 3 show up as `gpm-gpu-t3-worker-*` in
//! a thread dump instead of blending into one global pool (beside the
//! shard's `gpm-service-s3-worker-*` threads, which run chunks of the
//! launches they issue).
//!
//! The cache holds one entry per graph: the graph, the matching its last
//! solve produced, and the parent and delta `patch_graph` made it from.  A
//! worker solving a patched child reads the child and its parent's matching
//! under one cache lock and warm-starts from that matching; afterwards it
//! stores its own result in the child's entry.  The cache's one LRU evicts
//! a graph together with its warm state, and `rebalance` moves whole
//! entries between shards.

use crate::cache::GraphCache;
use crate::error::ServiceError;
use crate::job::{GraphSource, JobOutcome, JobSlot, JobSpec};
use crate::stats::{AlgorithmStats, LatencyAgg, ServiceStats};
use gpm_core::{DevicePolicy, ExecutorConfig, SolveCtx, SolveRequest, Solver, Start};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A latency aggregate whose samples are recorded lock-free.
///
/// Workers record queue waits and solve times straight into atomics; the
/// `stats` op folds them into a [`LatencyAgg`] on read.  Nothing on the
/// admission path ever takes a statistics lock (the fix this type exists
/// for: the old service updated `LatencyAgg` under the same mutex the
/// submit path used for `retry_after_hint`).
///
/// Samples are clamped to whole nanoseconds, which is far below the
/// scheduling noise of anything this service measures.
#[derive(Debug, Default)]
pub(crate) struct AtomicLatencyAgg {
    count: AtomicU64,
    total_nanos: AtomicU64,
    /// `u64::MAX` while empty, so `fetch_min` needs no init special case.
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl AtomicLatencyAgg {
    pub(crate) fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one sample.  Wait-free: three `fetch_*` ops, no CAS loops.
    pub(crate) fn record(&self, seconds: f64) {
        let nanos = (seconds.max(0.0) * 1e9).round() as u64;
        self.count.fetch_add(1, AtomicOrdering::Relaxed);
        self.total_nanos.fetch_add(nanos, AtomicOrdering::Relaxed);
        self.min_nanos.fetch_min(nanos, AtomicOrdering::Relaxed);
        self.max_nanos.fetch_max(nanos, AtomicOrdering::Relaxed);
    }

    /// Folds the counters into a value snapshot.  Concurrent recorders can
    /// make the fields mutually slightly stale (a snapshot is not a
    /// linearization point), which is fine for a monitoring aggregate.
    pub(crate) fn snapshot(&self) -> LatencyAgg {
        let count = self.count.load(AtomicOrdering::Relaxed);
        if count == 0 {
            return LatencyAgg::default();
        }
        LatencyAgg {
            count,
            total_seconds: self.total_nanos.load(AtomicOrdering::Relaxed) as f64 / 1e9,
            min_seconds: self.min_nanos.load(AtomicOrdering::Relaxed) as f64 / 1e9,
            max_seconds: self.max_nanos.load(AtomicOrdering::Relaxed) as f64 / 1e9,
        }
    }
}

/// One queued job, owned by exactly one shard's heap at a time.  Draining
/// moves the whole struct to another shard, preserving the enqueue
/// timestamp (queue-wait accounting) and the absolute deadline; only the
/// heap sequence number is reassigned by the destination.
pub(crate) struct QueuedJob {
    pub(crate) spec: JobSpec,
    pub(crate) slot: Arc<JobSlot>,
    /// The graph's content fingerprint — computed at admission when
    /// placement needed it (cached jobs always; inline jobs only on a
    /// multi-shard service, where affinity wants it).  `None` means the
    /// worker computes it lazily before registering the inline upload.
    pub(crate) fingerprint: Option<u64>,
    pub(crate) enqueued: Instant,
    pub(crate) seq: u64,
    /// Absolute deadline, computed from `spec.deadline` at enqueue time.
    pub(crate) deadline: Option<Instant>,
}

// Max-heap order: highest priority first, FIFO (lowest seq) within a
// priority.  `seq` is unique per shard queue, so equality can key on it.
impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> Ordering {
        self.spec.priority.cmp(&other.spec.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The mutex-guarded part of a shard: its job heap and shutdown flag.
pub(crate) struct ShardQueue {
    pub(crate) jobs: BinaryHeap<QueuedJob>,
    pub(crate) shutdown: bool,
    /// Monotonic enqueue counter; ties on priority dequeue FIFO by it.
    next_seq: u64,
}

/// One device shard.  Everything here is shard-private except through the
/// registry's explicit cross-shard operations (peek, drain, rebalance).
pub(crate) struct DeviceShard {
    pub(crate) id: usize,
    /// Per-shard admission cap (`None` = unbounded).
    pub(crate) capacity: Option<usize>,
    pub(crate) queue: Mutex<ShardQueue>,
    pub(crate) available: Condvar,
    pub(crate) cache: parking_lot::Mutex<GraphCache>,
    /// Mirrors `queue.jobs.len()`, maintained at every push/pop, so
    /// placement reads load without touching any queue mutex.
    pub(crate) depth: AtomicUsize,
    /// Jobs currently executing on this shard's workers.
    pub(crate) running: AtomicUsize,
    /// Set by the control plane: placement skips this shard.
    pub(crate) draining: AtomicBool,
    pub(crate) counters: ShardCounters,
    /// Touched only at job completion and on `stats()` — never on the
    /// admission path.
    pub(crate) per_algorithm: parking_lot::Mutex<BTreeMap<String, AlgorithmStats>>,
}

/// Lock-free shard statistics.  Everything the submit path or the `stats`
/// op reads concurrently with workers lives here as an atomic.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    /// Graphs created on this shard by `patch_graph`.
    pub(crate) patched: AtomicU64,
    /// Solves that warm-started from a lineage parent's matching instead of
    /// a cold initial matching (includes warm starts that internally fell
    /// back to a cold heuristic because the delta was too large).
    pub(crate) resolved: AtomicU64,
    pub(crate) peak_queue_depth: AtomicUsize,
    pub(crate) queue_wait: AtomicLatencyAgg,
}

impl DeviceShard {
    pub(crate) fn new(id: usize, cache_capacity: usize, capacity: Option<usize>) -> Self {
        Self {
            id,
            capacity,
            queue: Mutex::new(ShardQueue { jobs: BinaryHeap::new(), shutdown: false, next_seq: 0 }),
            available: Condvar::new(),
            cache: parking_lot::Mutex::new(GraphCache::new(cache_capacity)),
            depth: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            counters: ShardCounters { queue_wait: AtomicLatencyAgg::new(), ..Default::default() },
            per_algorithm: parking_lot::Mutex::new(BTreeMap::new()),
        }
    }

    /// Backoff hint for [`ServiceError::Overloaded`]: this shard's mean
    /// observed queue wait, clamped to a sane band, or 100 ms before any
    /// job has drained.  Lock-free (the whole point of [`AtomicLatencyAgg`]).
    pub(crate) fn retry_after_hint(&self) -> Duration {
        let wait = self.counters.queue_wait.snapshot();
        if wait.count == 0 {
            return Duration::from_millis(100);
        }
        Duration::from_secs_f64(wait.mean_seconds().clamp(0.010, 5.0))
    }

    /// Pushes a fresh job under the queue lock (the enqueue timestamp — the
    /// base of the queue-wait metric and the absolute deadline — is taken
    /// here) and updates the lock-free depth mirror.  The caller has already
    /// checked capacity under this same lock.
    pub(crate) fn push_new(
        &self,
        queue: &mut ShardQueue,
        spec: JobSpec,
        slot: Arc<JobSlot>,
        fingerprint: Option<u64>,
    ) {
        let enqueued = Instant::now();
        let deadline = spec.deadline.map(|d| enqueued + d);
        let seq = queue.next_seq;
        queue.next_seq += 1;
        queue.jobs.push(QueuedJob { spec, slot, fingerprint, enqueued, seq, deadline });
        let depth = queue.jobs.len();
        self.depth.store(depth, AtomicOrdering::Relaxed);
        self.counters.peak_queue_depth.fetch_max(depth, AtomicOrdering::Relaxed);
    }

    /// Re-homes a job drained from another shard: keeps its enqueue
    /// timestamp and absolute deadline, reassigns only the heap sequence
    /// number (the job joins the back of its priority class here).  Ignores
    /// capacity — the job was already admitted once and must not be lost or
    /// re-rejected.
    pub(crate) fn push_requeued(&self, mut job: QueuedJob) {
        let mut queue = lock(&self.queue);
        job.seq = queue.next_seq;
        queue.next_seq += 1;
        queue.jobs.push(job);
        let depth = queue.jobs.len();
        self.depth.store(depth, AtomicOrdering::Relaxed);
        self.counters.peak_queue_depth.fetch_max(depth, AtomicOrdering::Relaxed);
        drop(queue);
        self.available.notify_one();
    }

    /// Flushes every queued job out of the heap (drain's first step),
    /// leaving in-flight jobs untouched.
    pub(crate) fn take_queued(&self) -> Vec<QueuedJob> {
        let mut queue = lock(&self.queue);
        let jobs = std::mem::take(&mut queue.jobs).into_vec();
        self.depth.store(0, AtomicOrdering::Relaxed);
        jobs
    }

    /// This shard's point-in-time snapshot, shaped like a single-shard
    /// service's stats.
    pub(crate) fn stats(&self, workers: usize) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            shards: 1,
            workers,
            submitted: c.submitted.load(AtomicOrdering::Relaxed),
            completed: c.completed.load(AtomicOrdering::Relaxed),
            failed: c.failed.load(AtomicOrdering::Relaxed),
            rejected: c.rejected.load(AtomicOrdering::Relaxed),
            cancelled: c.cancelled.load(AtomicOrdering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(AtomicOrdering::Relaxed),
            patched: c.patched.load(AtomicOrdering::Relaxed),
            resolved: c.resolved.load(AtomicOrdering::Relaxed),
            queue_depth: self.depth.load(AtomicOrdering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(AtomicOrdering::Relaxed),
            queue_wait: c.queue_wait.snapshot(),
            cache: self.cache.lock().stats(),
            per_algorithm: self.per_algorithm.lock().clone(),
        }
    }
}

/// Locks a `std::sync` mutex, ignoring poison (worker panics are contained
/// by `catch_unwind`; a poisoned queue lock never means torn data).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds one worker's solver session.  The executor configuration was
/// validated by `ServiceBuilder::build` before any worker thread existed,
/// so this cannot fail at a distance.  The shard id becomes the executor's
/// pool tag, so the shard's kernel threads are attributable in thread
/// dumps.
fn new_worker_solver(shard_id: usize, policy: DevicePolicy, executor: ExecutorConfig) -> Solver {
    Solver::builder()
        .device_policy(policy)
        .executor_config(executor.with_pool_tag(shard_id))
        .build()
        .expect("executor config validated by ServiceBuilder::build")
}

/// One shard worker: owns a warm [`Solver`] for its whole lifetime and
/// pulls only from its own shard's queue.  `siblings` is every shard in the
/// service (including its own), used solely for the read-only remote-cache
/// fallback.
pub(crate) fn worker_loop(
    shard: &DeviceShard,
    siblings: &[Arc<DeviceShard>],
    index: usize,
    policy: DevicePolicy,
    executor: ExecutorConfig,
) {
    let mut solver = new_worker_solver(shard.id, policy, executor);
    loop {
        let job = {
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.jobs.pop() {
                    shard.depth.store(queue.jobs.len(), AtomicOrdering::Relaxed);
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shard.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        shard.running.fetch_add(1, AtomicOrdering::Relaxed);
        let queue_seconds = job.enqueued.elapsed().as_secs_f64();
        let started = Instant::now();
        // Fail fast before touching the solver: a job cancelled or expired
        // while queued costs the shard nothing.  Cancellation dominates when
        // both fired (mirrors SolveCtx::check).
        let result = if job.spec.cancel.is_cancelled() {
            Err(ServiceError::Cancelled { rounds_completed: 0, partial_cardinality: 0 })
        } else if job.deadline.is_some_and(|d| Instant::now() >= d) {
            Err(ServiceError::DeadlineExceeded { rounds_completed: 0, partial_cardinality: 0 })
        } else {
            // A panicking solve must not hang the waiting client (the slot
            // would never complete) or kill the worker: catch it, fail the
            // job, and rebuild the session, whose warm state the unwind may
            // have torn.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(shard, siblings, index, &mut solver, &job, queue_seconds, started)
            }))
            .unwrap_or_else(|payload| {
                solver = new_worker_solver(shard.id, policy, executor);
                Err(ServiceError::JobPanicked { message: panic_message(payload.as_ref()) })
            })
        };
        record(shard, &job.spec, queue_seconds, &result);
        shard.running.fetch_sub(1, AtomicOrdering::Relaxed);
        job.slot.complete(result);
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves the job's graph and solves it with one request on the worker's
/// warm session — from the job's init heuristic, or warm from its parent's
/// matching — under the job's cancellation token and absolute deadline
/// (both polled by the engines at worklist-round granularity).
///
/// Graph resolution order for `Cached` sources: this shard's cache (counts
/// a hit or a miss — the per-shard hit rate is the placement-quality
/// metric), then a non-counting peek of every sibling's cache.  The remote
/// fallback exists for jobs in flight across a drain or rebalance: the
/// graph moved shards after the job was placed, and failing it with
/// `UnknownGraph` would turn a control-plane action into client-visible
/// errors.  Such a job starts cold.
fn run_job(
    shard: &DeviceShard,
    siblings: &[Arc<DeviceShard>],
    index: usize,
    solver: &mut Solver,
    job: &QueuedJob,
    queue_seconds: f64,
    started: Instant,
) -> Result<JobOutcome, ServiceError> {
    let spec = &job.spec;
    // The graph and its warm start (the delta that made it and its parent's
    // matching) are read under one cache lock.
    let (graph, cache_hit, fingerprint, warm) = match &spec.graph {
        GraphSource::Inline(graph) => {
            // Register inline uploads in this shard's cache so follow-up
            // jobs can go by key — and will be routed here by affinity.
            // Single-shard admission skips the O(E) hash; compute it here.
            let fingerprint = job.fingerprint.unwrap_or_else(|| graph.fingerprint());
            let mut cache = shard.cache.lock();
            let graph = cache.insert_keyed(fingerprint, Arc::clone(graph));
            (graph, false, fingerprint, cache.warm_start(fingerprint))
        }
        GraphSource::Cached(fingerprint) => {
            let local = {
                let mut cache = shard.cache.lock();
                cache.get(*fingerprint).map(|graph| (graph, cache.warm_start(*fingerprint)))
            };
            match local {
                Some((graph, warm)) => (graph, true, *fingerprint, warm),
                None => match peek_siblings(shard, siblings, *fingerprint) {
                    // A remote fetch still completes the job, but was
                    // counted a local miss: misplaced work stays visible in
                    // the per-shard hit rate.
                    Some(graph) => (graph, true, *fingerprint, None),
                    None => return Err(ServiceError::UnknownGraph { fingerprint: *fingerprint }),
                },
            }
        }
    };
    // Warm path: this graph came from `patch_graph` and its parent's
    // matching is cached — repair that matching through the delta instead
    // of building the job's initial matching.  A warm start that cannot help
    // (the delta churned too much of the graph) starts from the job's own
    // init heuristic instead.
    let start = match &warm {
        Some((delta, previous)) => Start::Warm { previous, delta, fallback: spec.init },
        None => Start::Heuristic(spec.init),
    };
    let ctx = SolveCtx { cancel: Some(spec.cancel.clone()), deadline: job.deadline };
    let request = SolveRequest { algorithm: spec.algorithm, start, ctx };
    let report = solver.run(&graph, request).map_err(ServiceError::from)?;
    if warm.is_some() {
        shard.counters.resolved.fetch_add(1, AtomicOrdering::Relaxed);
    }
    // Whatever path ran, the result is the freshest matching for this
    // graph: its future children warm-start from it.  Copy it before
    // taking the lock.
    let matching = report.matching.clone();
    shard.cache.lock().store_matching(fingerprint, &graph, matching);
    Ok(JobOutcome {
        report,
        shard: shard.id,
        worker: index,
        cache_hit,
        queue_seconds,
        service_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Probes every other shard's cache without disturbing its counters or LRU
/// order.
fn peek_siblings(
    shard: &DeviceShard,
    siblings: &[Arc<DeviceShard>],
    fingerprint: u64,
) -> Option<Arc<gpm_graph::BipartiteCsr>> {
    siblings
        .iter()
        .filter(|s| s.id != shard.id)
        .find_map(|s| s.cache.lock().peek(fingerprint))
        .map(|entry| entry.graph)
}

fn record(
    shard: &DeviceShard,
    spec: &JobSpec,
    queue_seconds: f64,
    result: &Result<JobOutcome, ServiceError>,
) {
    let c = &shard.counters;
    c.queue_wait.record(queue_seconds);
    let key = spec.algorithm.label_without_parameters();
    match result {
        Ok(outcome) => {
            c.completed.fetch_add(1, AtomicOrdering::Relaxed);
            let mut per_algorithm = shard.per_algorithm.lock();
            let per_alg = per_algorithm.entry(key).or_default();
            per_alg.completed += 1;
            per_alg.solve.record(outcome.report.wall_seconds);
        }
        Err(e) => {
            c.failed.fetch_add(1, AtomicOrdering::Relaxed);
            match e {
                ServiceError::Cancelled { .. } => {
                    c.cancelled.fetch_add(1, AtomicOrdering::Relaxed);
                }
                ServiceError::DeadlineExceeded { .. } => {
                    c.deadline_exceeded.fetch_add(1, AtomicOrdering::Relaxed);
                }
                _ => {}
            }
            shard.per_algorithm.lock().entry(key).or_default().failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_latency_agg_matches_its_locked_counterpart() {
        let atomic = AtomicLatencyAgg::new();
        let mut reference = LatencyAgg::default();
        assert_eq!(atomic.snapshot(), reference);
        for s in [0.5, 0.1, 0.9, 0.3] {
            atomic.record(s);
            reference.record(s);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count, reference.count);
        // Nanosecond clamping loses < 1e-9 per sample.
        assert!((snap.total_seconds - reference.total_seconds).abs() < 1e-6);
        assert!((snap.min_seconds - reference.min_seconds).abs() < 1e-6);
        assert!((snap.max_seconds - reference.max_seconds).abs() < 1e-6);
        assert!((snap.mean_seconds() - reference.mean_seconds()).abs() < 1e-6);
    }

    #[test]
    fn atomic_latency_agg_is_safe_under_concurrent_recorders() {
        let agg = Arc::new(AtomicLatencyAgg::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let agg = Arc::clone(&agg);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        agg.record((t * 250 + i) as f64 * 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = agg.snapshot();
        assert_eq!(snap.count, 1000);
        assert!((snap.min_seconds - 0.0).abs() < 1e-9);
        assert!((snap.max_seconds - 999e-6).abs() < 1e-9);
        let expected_total: f64 = (0..1000).map(|i| i as f64 * 1e-6).sum();
        assert!((snap.total_seconds - expected_total).abs() < 1e-6);
    }

    #[test]
    fn queued_jobs_order_by_priority_then_fifo() {
        use gpm_core::Algorithm;
        let shard = DeviceShard::new(0, 4, None);
        let g = Arc::new(gpm_graph::gen::uniform_random(4, 4, 8, 1).unwrap());
        let mut queue = lock(&shard.queue);
        for (i, priority) in [0u8, 5, 5, 1].iter().enumerate() {
            let spec =
                JobSpec::new(Arc::clone(&g), Algorithm::HopcroftKarp).with_priority(*priority);
            let _ = i;
            shard.push_new(&mut queue, spec, Arc::new(JobSlot::default()), Some(g.fingerprint()));
        }
        let order: Vec<(u8, u64)> =
            std::iter::from_fn(|| queue.jobs.pop().map(|j| (j.spec.priority, j.seq))).collect();
        assert_eq!(order, vec![(5, 1), (5, 2), (1, 3), (0, 0)]);
    }
}
