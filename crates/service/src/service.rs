//! The [`Service`]: M independent device shards behind one submission API.
//!
//! Each shard owns its own worker pool of warm
//! [`Solver`](gpm_core::Solver) sessions, bounded priority queue, and private
//! [`crate::GraphCache`]; the [`crate::placement`] registry routes every
//! job to one shard by graph-fingerprint affinity, spilling to the
//! least-loaded shard.  There is no global queue and no global cache lock:
//! submission contends only on the target shard, and all cross-shard reads
//! (placement load snapshots, `stats`) are atomics.
//!
//! Submitting is non-blocking: [`Service::submit`] places and returns a
//! [`JobHandle`]; any number of client threads may submit concurrently.
//! Admission is bounded when [`ServiceBuilder::max_queue_depth`] is set — a
//! service whose every shard is full rejects with
//! [`ServiceError::Overloaded`](crate::ServiceError::Overloaded), reporting the least-loaded shard's depth
//! and retry hint.  Workers pull the highest-priority job (FIFO within a
//! priority) from their own shard, honour cancellation and deadlines before
//! touching a solver, resolve the graph through their shard's cache, run
//! the solve on their private warm session, and complete the handle.
//! Dropping the service drains every shard: already-accepted jobs still
//! complete, then the workers exit.
//!
//! The control plane — per-shard stats, drain, rebalance — lives in
//! [`crate::control`].

use crate::cache::CacheStats;
use crate::job::{JobHandle, JobSpec};
use crate::placement::ShardRegistry;
use crate::shard::{worker_loop, DeviceShard};
use crate::stats::{LatencyAgg, ServiceStats};
use gpm_core::{DevicePolicy, ExecutorConfig};
use gpm_graph::BipartiteCsr;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configures and starts a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceBuilder {
    shards: usize,
    workers: usize,
    device_policy: DevicePolicy,
    executor: ExecutorConfig,
    cache_capacity: usize,
    max_queue_depth: Option<usize>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self {
            shards: 1,
            workers: 2,
            device_policy: DevicePolicy::Sequential,
            executor: ExecutorConfig::default(),
            cache_capacity: 32,
            max_queue_depth: None,
        }
    }
}

impl ServiceBuilder {
    /// Sets the number of device shards (default 1).  Each shard gets its
    /// own worker pool, queue, and graph cache; jobs are placed across
    /// shards by fingerprint affinity.  A count of 0 is treated as 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the number of workers **per shard** (each owns one warm
    /// [`Solver`](gpm_core::Solver)).  A count of 0 is treated as 1.  The service's total
    /// worker count is `shards × workers`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the device policy each worker's solver is built with.
    ///
    /// The default is [`DevicePolicy::Sequential`]: with N workers solving
    /// concurrently, per-worker sequential devices keep results reproducible
    /// and avoid oversubscribing the host with N × cores kernel threads.
    pub fn device_policy(mut self, policy: DevicePolicy) -> Self {
        self.device_policy = policy;
        self
    }

    /// Tunes the persistent kernel executor of every worker's device — most
    /// importantly the pool sizing implied by the device policy and the
    /// inline threshold.  With N service workers each owning a
    /// [`DevicePolicy::Parallel`] device, this is how the deployment keeps
    /// N × device-workers within the host's core budget instead of
    /// oversubscribing it.  The config's `pool_tag` is overridden per shard
    /// (the shard id), so kernel threads are attributable to their shard.
    pub fn executor_config(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// Sets how many graphs **each shard's** content-addressed cache holds
    /// (0 disables caching; jobs must then carry their graph inline).  An
    /// M-shard service therefore holds up to `M × capacity` graphs in
    /// aggregate — affinity placement keeps the shard caches disjoint
    /// rather than M copies of the same working set.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Bounds **each shard's** queue: a submission that finds every active
    /// shard holding `depth` queued jobs is rejected immediately with
    /// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded) instead of growing a backlog.
    /// Submission never blocks either way; while any shard has room, the
    /// job is placed there.  A depth of 0 is treated as 1 (a queue that can
    /// never admit would deadlock every client).  Unset means unbounded,
    /// the previous behaviour.
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth.max(1));
        self
    }

    /// Starts the shards and their worker pools.
    ///
    /// # Panics
    /// Panics when the executor configuration is invalid (e.g. a zero chunk
    /// size) — the same condition `Solver::builder()` reports as a
    /// structured `InvalidConfig` error; it is checked here, before any
    /// worker thread exists, so a misconfiguration cannot take down the
    /// pool at a distance.
    pub fn build(self) -> Service {
        if let Err(reason) = self.executor.validate() {
            panic!("invalid executor configuration for service workers: {reason}");
        }
        let shards: Vec<Arc<DeviceShard>> = (0..self.shards)
            .map(|id| Arc::new(DeviceShard::new(id, self.cache_capacity, self.max_queue_depth)))
            .collect();
        let registry = Arc::new(ShardRegistry::new(shards, self.cache_capacity));
        let mut workers = Vec::with_capacity(self.shards * self.workers);
        for shard_id in 0..self.shards {
            for index in 0..self.workers {
                let registry = Arc::clone(&registry);
                let policy = self.device_policy;
                let executor = self.executor;
                let handle = std::thread::Builder::new()
                    .name(format!("gpm-service-s{shard_id}-worker-{index}"))
                    .spawn(move || {
                        let shard = Arc::clone(&registry.shards[shard_id]);
                        worker_loop(&shard, &registry.shards, index, policy, executor);
                    })
                    .expect("spawn service worker");
                workers.push(handle);
            }
        }
        Service { registry, workers, workers_per_shard: self.workers, executor: self.executor }
    }
}

/// A concurrent matching service over sharded warm solver pools.
///
/// See the [crate docs](crate) for the architecture; in short:
///
/// ```
/// use gpm_core::Algorithm;
/// use gpm_service::{JobSpec, Service};
/// use gpm_graph::gen;
///
/// let service = Service::builder().shards(2).workers(1).build();
/// let graph = gen::planted_perfect(100, 400, 7).unwrap();
/// let fingerprint = service.put_graph(graph.clone());
///
/// // Submit by value or by cache key; wait in any order.  Cached jobs are
/// // routed to the shard holding the graph.
/// let a = service.submit(JobSpec::new(graph, Algorithm::HopcroftKarp));
/// let b = service.submit(JobSpec::new(
///     gpm_service::GraphSource::Cached(fingerprint),
///     Algorithm::gpr_default(),
/// ));
/// assert_eq!(b.wait().unwrap().report.cardinality, 100);
/// assert_eq!(a.wait().unwrap().report.cardinality, 100);
/// ```
pub struct Service {
    registry: Arc<ShardRegistry>,
    workers: Vec<JoinHandle<()>>,
    workers_per_shard: usize,
    executor: ExecutorConfig,
}

impl Service {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A single-shard service with `workers` pool threads and default
    /// cache/device settings.
    pub fn new(workers: usize) -> Self {
        Self::builder().workers(workers).build()
    }

    pub(crate) fn registry(&self) -> &ShardRegistry {
        &self.registry
    }

    /// Number of pool workers across all shards.
    pub fn worker_count(&self) -> usize {
        self.workers_per_shard * self.registry.shards.len()
    }

    /// Number of device shards.
    pub fn shard_count(&self) -> usize {
        self.registry.shards.len()
    }

    /// Workers each shard runs.
    pub(crate) fn workers_per_shard(&self) -> usize {
        self.workers_per_shard
    }

    /// The executor tuning every worker's solver (and hence device) was
    /// built with (before the per-shard pool tag is applied).
    pub fn executor_config(&self) -> ExecutorConfig {
        self.executor
    }

    /// Places one job on a shard and returns a handle on its result.
    ///
    /// Placement is fingerprint-affine: the shard whose cache holds the
    /// job's graph gets it (least-loaded such shard on ties), otherwise the
    /// least-loaded shard with queue room.  Never blocks on the solve — nor
    /// on admission: after shutdown has begun the job is rejected with an
    /// already-completed handle carrying [`ServiceError::ShuttingDown`](crate::ServiceError::ShuttingDown),
    /// and when every shard's queue is full (see
    /// [`ServiceBuilder::max_queue_depth`]) with
    /// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded) describing the least-loaded shard.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        self.registry.submit(spec)
    }

    /// Places a batch, returning one handle per job in order.
    ///
    /// The specs are collected **before** any placement work — a slow
    /// caller iterator cannot stall concurrent submitters or the workers —
    /// then placed one by one, so an N-shard service starts fanning out
    /// over the batch immediately.  Jobs that find every shard full reject
    /// individually with [`ServiceError::Overloaded`](crate::ServiceError::Overloaded); only jobs actually
    /// enqueued count as submitted.
    pub fn submit_batch(&self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<JobHandle> {
        let specs: Vec<JobSpec> = specs.into_iter().collect();
        specs.into_iter().map(|spec| self.registry.submit(spec)).collect()
    }

    /// `true` iff the service caches graphs (built with a non-zero cache
    /// capacity).  When `false`, [`Service::put_graph`] is a no-op and only
    /// inline jobs can solve.
    pub fn cache_enabled(&self) -> bool {
        self.registry.shards[0].cache.lock().stats().capacity > 0
    }

    /// Registers `graph` in its home shard's cache without solving,
    /// returning its fingerprint for use in
    /// [`crate::GraphSource::Cached`] jobs.  The home shard —
    /// `active[fingerprint mod |active|]` — is the same one `rebalance`
    /// would move it to, so affinity routing is stable from the first
    /// upload.
    ///
    /// On a service built with `cache_capacity(0)` the graph is **not**
    /// retained (the fingerprint is still returned); check
    /// [`Service::cache_enabled`] first when that configuration is
    /// possible.
    pub fn put_graph(&self, graph: impl Into<Arc<BipartiteCsr>>) -> u64 {
        let graph = graph.into();
        // Hash outside the lock: the fingerprint walk is O(E).
        let fingerprint = graph.fingerprint();
        let home = self.registry.home_shard(fingerprint).unwrap_or(0);
        self.registry.shards[home].cache.lock().insert_keyed(fingerprint, graph);
        fingerprint
    }

    /// `true` iff a graph with this fingerprint is cached on any shard.
    pub fn contains_graph(&self, fingerprint: u64) -> bool {
        self.registry.shards.iter().any(|s| s.cache.lock().contains(fingerprint))
    }

    /// Applies `delta` to the cached graph with fingerprint `parent` and
    /// caches the patched child — no re-upload of the full graph.  Returns
    /// the lineage record; jobs may then solve against either fingerprint.
    ///
    /// The child is cached on the **chain's home shard** (the home of the
    /// chain's root fingerprint), its cache entry recording the parent and
    /// the delta itself, so a subsequent solve of the child on that shard
    /// warm-starts from the parent's last matching while the parent's entry
    /// is cached (a [`gpm_core::Start::Warm`] solve: repair, then
    /// finish; counted in [`ServiceStats::resolved`]).  `rebalance` keeps
    /// whole chains together for the same reason.
    ///
    /// # Errors
    ///
    /// [`crate::ServiceError::UnknownGraph`] when no shard caches `parent`;
    /// [`crate::ServiceError::BadDelta`] when the delta does not apply (the
    /// parent is left untouched).  On a service built with
    /// `cache_capacity(0)` patching is pointless (nothing is retained);
    /// callers should check [`Service::cache_enabled`] first.
    pub fn patch_graph(
        &self,
        parent: u64,
        delta: &gpm_graph::GraphDelta,
    ) -> Result<gpm_graph::DeltaLineage, crate::ServiceError> {
        let entry = self
            .registry
            .shards
            .iter()
            .find_map(|s| s.cache.lock().peek(parent))
            .ok_or(crate::ServiceError::UnknownGraph { fingerprint: parent })?;
        let child = entry
            .graph
            .apply_delta(delta)
            .map_err(|e| crate::ServiceError::BadDelta { reason: e.to_string() })?;
        // The cache is keyed by fingerprint, so `parent` already is the
        // parent's: hash only the child.
        let lineage = gpm_graph::DeltaLineage { parent, child: child.fingerprint() };
        // The child homes with its chain's root, read from the parent's
        // entry, keeping warm-start state and routing shard-local.
        self.registry.record_lineage(lineage.child, entry.root);
        let home = self.registry.root_home(entry.root).unwrap_or(0);
        let shard = &self.registry.shards[home];
        shard.cache.lock().insert_patched(
            lineage.child,
            Arc::new(child),
            parent,
            entry.root,
            Arc::new(delta.clone()),
        );
        shard.counters.patched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(lineage)
    }

    /// A point-in-time snapshot of the whole service: the fold of every
    /// shard's counters (see [`ServiceStats`] for the fold rules).
    /// Lock-free against admission and solving — only per-shard cache and
    /// per-algorithm mutexes are touched, never a queue mutex.
    pub fn stats(&self) -> ServiceStats {
        let shards = &self.registry.shards;
        let mut total = ServiceStats {
            shards: shards.len(),
            workers: self.worker_count(),
            submitted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            cancelled: 0,
            deadline_exceeded: 0,
            patched: 0,
            resolved: 0,
            queue_depth: 0,
            peak_queue_depth: 0,
            queue_wait: LatencyAgg::default(),
            cache: CacheStats::default(),
            per_algorithm: BTreeMap::new(),
        };
        for shard in shards.iter() {
            let s = shard.stats(self.workers_per_shard);
            total.submitted += s.submitted;
            total.completed += s.completed;
            total.failed += s.failed;
            total.rejected += s.rejected;
            total.cancelled += s.cancelled;
            total.deadline_exceeded += s.deadline_exceeded;
            total.patched += s.patched;
            total.resolved += s.resolved;
            total.queue_depth += s.queue_depth;
            total.peak_queue_depth = total.peak_queue_depth.max(s.peak_queue_depth);
            total.queue_wait.merge(&s.queue_wait);
            total.cache.merge(&s.cache);
            for (algorithm, stats) in &s.per_algorithm {
                total.per_algorithm.entry(algorithm.clone()).or_default().merge(stats);
            }
        }
        total
    }

    /// Stops admission without consuming the service: subsequent submits
    /// reject with [`ServiceError::ShuttingDown`](crate::ServiceError::ShuttingDown), already-accepted jobs
    /// still drain.  Idempotent.  Workers are joined by the eventual drop
    /// (or [`Service::shutdown`]); this only flips the flag, so it is safe
    /// to call from another thread racing live submitters.
    pub fn begin_shutdown(&self) {
        self.registry.begin_shutdown();
    }

    /// Stops accepting jobs, drains every shard's queue, and joins the
    /// workers.  Equivalent to dropping the service, but explicit at call
    /// sites.
    pub fn shutdown(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            // A worker that panicked already completed no further jobs;
            // propagating the panic out of Drop would abort, so swallow it.
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.registry.shards.len())
            .field("workers", &self.worker_count())
            .field("queue_depth", &self.stats().queue_depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServiceError;
    use crate::job::{GraphSource, JobOutcome};
    use crate::shard::panic_message;
    use gpm_core::{Algorithm, GprVariant, GrStrategy, InitHeuristic, SolveError};
    use gpm_graph::gen;
    use gpm_graph::verify::maximum_matching_cardinality;
    use std::time::{Duration, Instant};

    #[test]
    fn submit_solves_and_reports() {
        let service = Service::builder().workers(2).build();
        let g = gen::uniform_random(60, 60, 300, 11).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let outcome = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap();
        assert_eq!(outcome.report.cardinality, opt);
        assert!(!outcome.cache_hit);
        assert!(outcome.queue_seconds >= 0.0);
        assert!(outcome.service_seconds >= 0.0);
        assert!(outcome.worker < 2);
        assert_eq!(outcome.shard, 0);
        let stats = service.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.per_algorithm["HK"].completed, 1);
    }

    #[test]
    fn per_algorithm_stats_are_keyed_by_labels_without_parameters() {
        // A thousand adaptive factors are a thousand labels but one stats
        // entry, so clients cycling parameters cannot grow the server's
        // stats or its `stats` responses.
        let service = Service::builder().workers(1).device_policy(DevicePolicy::Sequential).build();
        let fingerprint = service.put_graph(gen::planted_perfect(8, 8, 4).unwrap());
        for i in 1..=1000 {
            let strategy = GrStrategy::Adaptive(f64::from(i) / 100.0);
            let algorithm = Algorithm::gpr(GprVariant::Shrink, strategy);
            service
                .submit(JobSpec::new(GraphSource::Cached(fingerprint), algorithm))
                .wait()
                .unwrap();
        }
        let stats = service.stats();
        let keys: Vec<&String> = stats.per_algorithm.keys().collect();
        assert_eq!(keys, ["G-PR-Shr@adaptive"]);
        assert_eq!(stats.per_algorithm["G-PR-Shr@adaptive"].completed, 1000);
    }

    #[test]
    fn cached_jobs_hit_after_put_graph() {
        let service = Service::builder().workers(1).build();
        let g = gen::planted_perfect(50, 200, 3).unwrap();
        let fp = service.put_graph(g);
        assert!(service.contains_graph(fp));
        let outcome = service
            .submit(JobSpec::new(GraphSource::Cached(fp), Algorithm::PothenFan))
            .wait()
            .unwrap();
        assert_eq!(outcome.report.cardinality, 50);
        assert!(outcome.cache_hit);
        assert_eq!(service.stats().cache.hits, 1);
    }

    #[test]
    fn unknown_fingerprint_fails_the_job_not_the_pool() {
        let service = Service::builder().workers(1).build();
        let err = service
            .submit(JobSpec::new(GraphSource::Cached(0xdead_beef), Algorithm::HopcroftKarp))
            .wait()
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownGraph { fingerprint: 0xdead_beef });
        // The worker survives and keeps serving.
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let ok = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap();
        assert_eq!(ok.report.cardinality, opt);
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn invalid_algorithms_and_gpu_without_device_fail_structurally() {
        let service = Service::builder().workers(1).device_policy(DevicePolicy::CpuOnly).build();
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        let err = service.submit(JobSpec::new(g.clone(), Algorithm::Pdbfs(0))).wait().unwrap_err();
        assert!(matches!(err, ServiceError::Solve(SolveError::InvalidConfig { .. })));
        let err = service.submit(JobSpec::new(g, Algorithm::gpr_default())).wait().unwrap_err();
        assert!(matches!(err, ServiceError::Solve(SolveError::DeviceRequired { .. })));
    }

    #[test]
    fn batch_fans_out_and_preserves_order() {
        let service = Service::builder().workers(4).build();
        let graphs: Vec<_> =
            (0..8).map(|i| gen::uniform_random(40, 40, 180, 100 + i).unwrap()).collect();
        let expected: Vec<_> = graphs.iter().map(maximum_matching_cardinality).collect();
        let handles = service
            .submit_batch(graphs.iter().map(|g| JobSpec::new(g.clone(), Algorithm::HopcroftKarp)));
        assert_eq!(handles.len(), 8);
        for (handle, want) in handles.into_iter().zip(expected) {
            assert_eq!(handle.wait().unwrap().report.cardinality, want);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert!(stats.peak_queue_depth >= 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn init_heuristic_is_honored_per_job() {
        let service = Service::builder().workers(1).build();
        let g = gen::uniform_random(50, 50, 240, 9).unwrap();
        let outcome = service
            .submit(JobSpec::new(g, Algorithm::HopcroftKarp).with_init(InitHeuristic::Empty))
            .wait()
            .unwrap();
        assert_eq!(outcome.report.initial_cardinality, 0);
    }

    #[test]
    fn drop_drains_accepted_jobs() {
        let service = Service::builder().workers(2).build();
        let g = gen::uniform_random(80, 80, 400, 21).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let handles =
            service.submit_batch((0..16).map(|_| JobSpec::new(g.clone(), Algorithm::HopcroftKarp)));
        drop(service); // begins shutdown; queued jobs must still complete
        for handle in handles {
            assert_eq!(handle.wait().unwrap().report.cardinality, opt);
        }
    }

    #[test]
    fn panic_payloads_become_messages() {
        let p = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p = std::panic::catch_unwind(|| panic!("{} {}", "boom", 2)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom 2");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    /// A job that keeps a single worker busy until the returned handle is
    /// cancelled: a Table-I-scale RMAT instance solved from an empty
    /// initial matching takes far longer than the test's enqueue work.
    fn blocker(service: &Service) -> crate::JobHandle {
        submit_blocker(service, blocker_graph(29))
    }

    /// A blocker's graph, by RMAT seed.
    fn blocker_graph(seed: u64) -> gpm_graph::BipartiteCsr {
        gen::rmat(gen::RmatParams::graph500(15, 16), seed).unwrap()
    }

    fn submit_blocker(service: &Service, g: impl Into<GraphSource>) -> crate::JobHandle {
        service.submit(JobSpec::new(g, Algorithm::HopcroftKarp).with_init(InitHeuristic::Empty))
    }

    /// One blocker per shard of a two-shard service, in shard order, both
    /// submitted before either can finish.  Generating a blocker graph or
    /// hashing it for an inline submit takes about as long as solving one,
    /// so the first blocker could otherwise finish and free its shard
    /// before the second is placed, which then queues behind it.  So all
    /// that work happens up front: graphs are uploaded, as many seeds as it
    /// takes for each shard to be home to one, and the blockers submitted
    /// by fingerprint, an O(1) admission onto each graph's home.
    fn submit_blockers_on_both_shards(service: &Service) -> (crate::JobHandle, crate::JobHandle) {
        let mut homes = [None, None];
        for seed in 28.. {
            let fp = service.put_graph(blocker_graph(seed));
            let home = service.registry().home_shard(fp).expect("no shard is draining");
            homes[home].get_or_insert(fp);
            if let [Some(fp0), Some(fp1)] = homes {
                return (
                    submit_blocker(service, GraphSource::Cached(fp0)),
                    submit_blocker(service, GraphSource::Cached(fp1)),
                );
            }
        }
        unreachable!("the seed range is unbounded")
    }

    #[test]
    fn full_queue_rejects_with_overloaded_without_blocking() {
        let service = Service::builder().workers(1).max_queue_depth(2).build();
        let big = blocker(&service);
        // Flood far more jobs than the cap while the worker chews on the
        // blocker; submission is lock-push only, so the worker cannot drain
        // the tiny backlog faster than we refill it.
        let g = gen::uniform_random(10, 10, 40, 7).unwrap();
        let handles =
            service.submit_batch((0..30).map(|_| JobSpec::new(g.clone(), Algorithm::HopcroftKarp)));
        let overloaded: Vec<_> = handles
            .iter()
            .filter(|h| {
                h.is_done() // only rejected handles are complete mid-flood
            })
            .collect();
        assert!(!overloaded.is_empty(), "expected rejections at depth cap 2");
        big.cancel();
        let mut rejected = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(outcome) => assert!(outcome.report.cardinality > 0),
                Err(ServiceError::Overloaded { queue_depth, retry_after_hint }) => {
                    assert_eq!(queue_depth, 2);
                    assert!(retry_after_hint > Duration::ZERO);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let _ = big.wait();
        let stats = service.stats();
        assert_eq!(stats.rejected, rejected);
        assert!(rejected > 0);
        // Rejected jobs are not "submitted": the ledger still balances.
        assert_eq!(stats.submitted, 1 + 30 - rejected);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
    }

    #[test]
    fn queued_jobs_past_their_deadline_fail_fast_without_a_solver() {
        let service = Service::builder().workers(1).build();
        let big = blocker(&service);
        // An already-expired deadline: by the time any worker can look at
        // this job its deadline has passed, whatever the blocker does.
        let g = gen::uniform_random(10, 10, 40, 7).unwrap();
        let doomed =
            service.submit(JobSpec::new(g, Algorithm::HopcroftKarp).with_deadline(Duration::ZERO));
        big.cancel();
        let err = doomed.wait().unwrap_err();
        assert_eq!(
            err,
            ServiceError::DeadlineExceeded { rounds_completed: 0, partial_cardinality: 0 }
        );
        let _ = big.wait();
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.failed, stats.cancelled + stats.deadline_exceeded);
    }

    #[test]
    fn cancelled_while_queued_never_touches_a_solver() {
        let service = Service::builder().workers(1).build();
        let g = gen::uniform_random(10, 10, 40, 7).unwrap();
        let spec = JobSpec::new(g, Algorithm::HopcroftKarp);
        spec.cancel.cancel(); // cancelled before the pool ever sees it
        let err = service.submit(spec).wait().unwrap_err();
        assert_eq!(err, ServiceError::Cancelled { rounds_completed: 0, partial_cardinality: 0 });
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn cancelling_a_running_solve_stops_it_within_rounds() {
        let service = Service::builder().workers(1).build();
        let handle = blocker(&service);
        std::thread::sleep(Duration::from_millis(5));
        handle.cancel();
        match handle.wait() {
            Err(ServiceError::Cancelled { .. }) => {
                assert_eq!(service.stats().cancelled, 1);
            }
            // The solve can win the race; it must then be a clean success.
            Ok(outcome) => assert!(outcome.report.cardinality > 0),
            Err(other) => panic!("unexpected error: {other}"),
        }
        // The worker survives cancellation and keeps serving.
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let ok = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap();
        assert_eq!(ok.report.cardinality, opt);
    }

    #[test]
    fn higher_priority_jobs_dequeue_first_fifo_within_a_priority() {
        let service = Service::builder().workers(1).build();
        let big = blocker(&service);
        // Order probe via the cache: the low-priority inline job registers
        // the graph; a by-fingerprint job only succeeds if it runs AFTER it.
        // The high-priority fingerprint job must therefore fail
        // (UnknownGraph — it jumped the queue), while the equal-priority
        // one submitted later succeeds (FIFO within priority 0).
        let g = gen::uniform_random(30, 30, 120, 17).unwrap();
        let fp = g.fingerprint();
        let low_inline = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp));
        let high_cached = service.submit(
            JobSpec::new(GraphSource::Cached(fp), Algorithm::HopcroftKarp).with_priority(9),
        );
        let low_cached =
            service.submit(JobSpec::new(GraphSource::Cached(fp), Algorithm::HopcroftKarp));
        big.cancel();
        assert_eq!(
            high_cached.wait().unwrap_err(),
            ServiceError::UnknownGraph { fingerprint: fp },
            "priority 9 job should have run before the inline upload"
        );
        assert!(low_inline.wait().is_ok());
        assert!(low_cached.wait().unwrap().cache_hit);
        let _ = big.wait();
    }

    #[test]
    fn shutdown_rejections_do_not_count_as_submitted() {
        let service = Service::builder().workers(1).build();
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp)).wait().unwrap();
        service.begin_shutdown();
        // Regression (submit_batch used to count these): rejected batches
        // must leave `submitted` untouched on both submit paths.
        let handles =
            service.submit_batch((0..4).map(|_| JobSpec::new(g.clone(), Algorithm::HopcroftKarp)));
        assert_eq!(handles.len(), 4);
        for handle in handles {
            assert_eq!(handle.wait().unwrap_err(), ServiceError::ShuttingDown);
        }
        assert_eq!(
            service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap_err(),
            ServiceError::ShuttingDown
        );
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.submitted, stats.completed + stats.failed + stats.queue_depth as u64);
    }

    #[test]
    fn slow_batch_iterators_do_not_stall_concurrent_submitters() {
        let service = Arc::new(Service::builder().workers(1).build());
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        // While the batch iterator dawdles (3 × 150 ms), a concurrent
        // submitter must get in and out quickly: the specs are collected
        // before any placement work happens.
        let concurrent = {
            let service = Arc::clone(&service);
            let g = g.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                let started = Instant::now();
                service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap();
                started.elapsed()
            })
        };
        let batch_started = Instant::now();
        let handles = service.submit_batch((0..3).map(|_| {
            std::thread::sleep(Duration::from_millis(150));
            JobSpec::new(g.clone(), Algorithm::HopcroftKarp)
        }));
        let batch_elapsed = batch_started.elapsed();
        let concurrent_elapsed = concurrent.join().unwrap();
        assert!(
            concurrent_elapsed < batch_elapsed / 2,
            "concurrent submit took {concurrent_elapsed:?} against a {batch_elapsed:?} batch"
        );
        for handle in handles {
            let outcome = handle.wait().unwrap();
            // Regression: `enqueued` used to be stamped before the iterator
            // was drained, charging the iterator's dawdling (≥ 300 ms for
            // the first job) to queue wait.
            assert!(
                outcome.queue_seconds < 0.140,
                "queue wait {:.3}s includes iterator time",
                outcome.queue_seconds
            );
        }
    }

    #[test]
    fn warm_workers_reuse_engines_across_jobs() {
        // Same algorithm on one worker: the second job must not re-create
        // the engine (observable through identical results and a fast path,
        // here just correctness under repetition).
        let service = Service::builder().workers(1).build();
        let g = gen::planted_perfect(64, 256, 13).unwrap();
        let fp = service.put_graph(g);
        for _ in 0..3 {
            let outcome = service
                .submit(JobSpec::new(GraphSource::Cached(fp), Algorithm::gpr_default()))
                .wait()
                .unwrap();
            assert_eq!(outcome.report.cardinality, 64);
            assert!(outcome.cache_hit);
        }
        assert_eq!(service.stats().cache.hits, 3);
    }

    // ---- dynamic graphs ---------------------------------------------------

    /// Solves a cached graph by fingerprint.
    fn solve_cached(service: &Service, fingerprint: u64, algorithm: Algorithm) -> JobOutcome {
        service.submit(JobSpec::new(GraphSource::Cached(fingerprint), algorithm)).wait().unwrap()
    }

    #[test]
    fn patch_graph_caches_the_child_and_warm_starts_its_solve() {
        let service = Service::builder().workers(1).build();
        let g = gen::uniform_random(40, 40, 200, 19).unwrap();
        let parent = service.put_graph(g.clone());
        // Solve the parent first so its matching is on file for warm starts.
        let outcome = service
            .submit(JobSpec::new(GraphSource::Cached(parent), Algorithm::HopcroftKarp))
            .wait()
            .unwrap();
        assert_eq!(outcome.report.cardinality, maximum_matching_cardinality(&g));
        // Patch: drop a real edge (possibly matched), add a fresh vertex
        // with one edge.
        let (r, c) = g.edges().next().unwrap();
        let mut delta = gpm_graph::GraphDelta::new();
        delta.remove_edge(r, c);
        delta.add_rows(1);
        delta.insert_edge(40, 0);
        let lineage = service.patch_graph(parent, &delta).unwrap();
        assert_eq!(lineage.parent, parent);
        assert!(service.contains_graph(lineage.child), "patched child must be cached");
        assert!(service.contains_graph(parent), "parent stays cached too");
        let child_opt = maximum_matching_cardinality(&g.apply_delta(&delta).unwrap());
        // Both fingerprints in the chain are solvable; the child's solve
        // warm-starts from the parent's matching.
        let child_outcome = service
            .submit(JobSpec::new(GraphSource::Cached(lineage.child), Algorithm::HopcroftKarp))
            .wait()
            .unwrap();
        assert_eq!(child_outcome.report.cardinality, child_opt);
        let again = service
            .submit(JobSpec::new(GraphSource::Cached(parent), Algorithm::PothenFan))
            .wait()
            .unwrap();
        assert_eq!(again.report.cardinality, maximum_matching_cardinality(&g));
        let stats = service.stats();
        assert_eq!(stats.patched, 1);
        assert_eq!(stats.resolved, 1, "the child's solve must have warm-started");
    }

    #[test]
    fn a_warm_start_that_falls_back_starts_from_the_jobs_own_init() {
        let service = Service::builder().workers(1).build();
        let g = gen::uniform_random(40, 40, 200, 23).unwrap();
        let parent = service.put_graph(g.clone());
        service
            .submit(JobSpec::new(GraphSource::Cached(parent), Algorithm::HopcroftKarp))
            .wait()
            .unwrap();
        // Remove more than half of the edges: past the churn limit, so the
        // child's warm start falls back to a cold start.
        let mut delta = gpm_graph::GraphDelta::new();
        delta.extend_removes(g.edges().take(g.num_edges() * 3 / 5));
        let child = service.patch_graph(parent, &delta).unwrap().child;
        let spec = JobSpec::new(GraphSource::Cached(child), Algorithm::HopcroftKarp)
            .with_init(InitHeuristic::Empty);
        let outcome = service.submit(spec).wait().unwrap();
        assert_eq!(outcome.report.initial_cardinality, 0, "the job's empty init, not cheap");
        assert!(outcome.report.fell_back_to_cold);
        let child_opt = maximum_matching_cardinality(&g.apply_delta(&delta).unwrap());
        assert_eq!(outcome.report.cardinality, child_opt);
        assert_eq!(service.stats().resolved, 1, "the solve went through the warm path");
    }

    #[test]
    fn patch_graph_rejects_unknown_parents_and_bad_deltas() {
        let service = Service::builder().workers(1).build();
        let g = gen::planted_perfect(20, 80, 3).unwrap();
        let parent = service.put_graph(g);
        let delta = gpm_graph::GraphDelta::new();
        assert_eq!(
            service.patch_graph(0xdead_beef, &delta).unwrap_err(),
            ServiceError::UnknownGraph { fingerprint: 0xdead_beef }
        );
        // Out-of-bounds insert: rejected, parent untouched, nothing counted.
        let mut bad = gpm_graph::GraphDelta::new();
        bad.insert_edge(1_000, 0);
        assert!(matches!(
            service.patch_graph(parent, &bad).unwrap_err(),
            ServiceError::BadDelta { .. }
        ));
        assert!(service.contains_graph(parent));
        assert_eq!(service.stats().patched, 0);
    }

    #[test]
    fn patch_chains_home_together_and_survive_rebalance() {
        let service = Service::builder().shards(3).workers(1).build();
        let g = gen::uniform_random(30, 30, 150, 23).unwrap();
        let parent = service.put_graph(g.clone());
        // Grow a chain of patches; every link must home with the root.
        let mut fingerprints = vec![parent];
        let mut current = g;
        for step in 0..4u32 {
            let mut delta = gpm_graph::GraphDelta::new();
            let (r, c) = current.edges().nth(step as usize).unwrap();
            delta.remove_edge(r, c);
            let lineage = service.patch_graph(*fingerprints.last().unwrap(), &delta).unwrap();
            current = current.apply_delta(&delta).unwrap();
            fingerprints.push(lineage.child);
        }
        let root_home = service.registry().home_shard(parent).unwrap();
        for &fp in &fingerprints {
            assert_eq!(
                service.registry().home_shard(fp),
                Some(root_home),
                "chain member {fp:#x} homed away from its root"
            );
            let holder: Vec<usize> = service
                .registry()
                .shards
                .iter()
                .filter(|s| s.cache.lock().contains(fp))
                .map(|s| s.id)
                .collect();
            assert_eq!(holder, vec![root_home], "chain member {fp:#x} cached off-home");
        }
        // Rebalance finds nothing to move: the chain is already home.
        assert_eq!(service.rebalance().moved, 0);
        // Solve the tail so its matching is cached for its next child.
        let tail = *fingerprints.last().unwrap();
        let outcome = solve_cached(&service, tail, Algorithm::HopcroftKarp);
        assert_eq!(outcome.shard, root_home);
        assert_eq!(outcome.report.cardinality, maximum_matching_cardinality(&current));
        // Drain the home shard: the whole chain re-homes together.
        service.drain_shard(root_home).unwrap();
        let new_home = service.registry().home_shard(parent).unwrap();
        assert_ne!(new_home, root_home);
        service.rebalance();
        for &fp in &fingerprints {
            assert_eq!(service.registry().home_shard(fp), Some(new_home));
        }
        // The tail's matching moved with it: its next child warm-starts on
        // the new home.
        let mut delta = gpm_graph::GraphDelta::new();
        let (r, c) = current.edges().next().unwrap();
        delta.remove_edge(r, c);
        let child = service.patch_graph(tail, &delta).unwrap().child;
        current = current.apply_delta(&delta).unwrap();
        let outcome = solve_cached(&service, child, Algorithm::HopcroftKarp);
        assert_eq!(outcome.shard, new_home);
        assert_eq!(outcome.report.cardinality, maximum_matching_cardinality(&current));
        let stats = service.stats();
        assert_eq!(stats.patched, 5);
        assert_eq!(stats.resolved, 1, "the rebalanced chain's next child must warm-start");
    }

    #[test]
    fn interleaved_patch_chains_warm_start_every_child_at_cache_capacity() {
        // Eight chains in a 16-graph cache: each chain's live head plus the
        // parent it superseded.  Between two visits to a chain the other
        // seven insert one child each, so under one LRU every head survives
        // to be its next child's warm start.
        let service = Service::builder().workers(1).cache_capacity(16).build();
        let solve = |fp| solve_cached(&service, fp, Algorithm::gpr_default());
        let mut chains: Vec<(u64, BipartiteCsr)> = (0..8)
            .map(|seed| {
                let graph = gen::uniform_random(30, 30, 150, 60 + seed).unwrap();
                let root = service.put_graph(graph.clone());
                solve(root);
                (root, graph)
            })
            .collect();
        for step in 0..20 {
            for (head, graph) in &mut chains {
                let mut delta = gpm_graph::GraphDelta::new();
                let (r, c) = graph.edges().nth(step).unwrap();
                delta.remove_edge(r, c);
                *head = service.patch_graph(*head, &delta).unwrap().child;
                *graph = graph.apply_delta(&delta).unwrap();
                let outcome = solve(*head);
                assert_eq!(outcome.report.cardinality, maximum_matching_cardinality(graph));
            }
        }
        let stats = service.stats();
        assert_eq!(stats.patched, 160);
        assert_eq!(stats.resolved, 160, "every child must warm-start from its parent");
    }

    #[test]
    fn lineage_hints_stay_bounded_down_a_long_patch_chain() {
        let service = Service::builder().shards(2).workers(1).cache_capacity(4).build();
        let cap = crate::placement::LINEAGE_HINTS_PER_CACHED_GRAPH * 2 * 4;
        // A perfect diagonal plus edges (bit, 15) toggled in Gray-code
        // order: every patch yields a graph no earlier patch produced.
        let diagonal: Vec<(u32, u32)> = (0..16).map(|i| (i, i)).collect();
        let root = service.put_graph(BipartiteCsr::from_edges(16, 16, &diagonal).unwrap());
        let home = service.registry().home_shard(root).unwrap();
        let mut present = [false; 14];
        let mut head = root;
        let mut patch = |step: usize| {
            let bit = step.trailing_zeros() as usize;
            let mut delta = gpm_graph::GraphDelta::new();
            if present[bit] {
                delta.remove_edge(bit as u32, 15);
            } else {
                delta.insert_edge(bit as u32, 15);
            }
            present[bit] = !present[bit];
            head = service.patch_graph(head, &delta).unwrap().child;
            assert!(service.registry().lineage_hints() <= cap, "step {step}");
            head
        };
        let mut penultimate = root;
        for step in 1..10_000 {
            penultimate = patch(step);
        }
        let solve = |fp| solve_cached(&service, fp, Algorithm::gpr_default());
        // The 9,999th child starts cold (its parent was never solved); the
        // 10,000th warm-starts from it.
        assert_eq!(solve(penultimate).report.cardinality, 16);
        let last = solve(patch(10_000));
        assert_eq!(last.shard, home, "the chain's last child left the chain's shard");
        assert_eq!(last.report.cardinality, 16);
        assert_eq!(service.stats().resolved, 1, "the last child must warm-start");
    }

    // ---- sharded behaviour ------------------------------------------------

    /// Polls until `predicate` holds or the timeout expires.
    fn wait_until(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if predicate() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn cached_jobs_follow_their_graph_to_one_shard() {
        let service = Service::builder().shards(4).workers(1).build();
        assert_eq!(service.shard_count(), 4);
        assert_eq!(service.worker_count(), 4);
        let g = gen::planted_perfect(40, 160, 5).unwrap();
        let fp = service.put_graph(g);
        let home = service.registry().home_shard(fp).unwrap();
        for _ in 0..6 {
            let outcome = service
                .submit(JobSpec::new(GraphSource::Cached(fp), Algorithm::HopcroftKarp))
                .wait()
                .unwrap();
            assert_eq!(outcome.shard, home, "affinity should pin the job to the holder");
            assert!(outcome.cache_hit);
        }
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 6);
        assert_eq!(stats.cache.misses, 0);
        let per_shard = service.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard[home].stats.completed, 6);
        for s in per_shard.iter().filter(|s| s.id != home) {
            assert_eq!(s.stats.completed, 0, "shard {} ran a misrouted job", s.id);
        }
    }

    #[test]
    fn hot_shard_full_spills_to_empty_shard_and_hint_names_the_least_loaded() {
        let service = Service::builder().shards(2).workers(1).max_queue_depth(1).build();
        // Occupy both workers so queued jobs stay queued.
        let (b0, b1) = submit_blockers_on_both_shards(&service);
        assert!(
            wait_until(Duration::from_secs(20), || {
                service.shard_stats().iter().all(|s| s.running == 1)
            }),
            "blockers never started running"
        );
        let g = gen::uniform_random(10, 10, 40, 7).unwrap();
        // Queue slot 1 of 1 on the first shard…
        let c1 = service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp));
        assert!(!c1.is_done(), "first small job must queue, not reject");
        // …so this one MUST spill to the other (empty-queued) shard rather
        // than reject: one hot shard being full is not "overloaded".
        let c2 = service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp));
        assert!(!c2.is_done(), "second small job must spill to the empty shard, not reject");
        // Now every queue is full: rejection, with the least-loaded depth.
        let c3 = service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp));
        match c3.wait() {
            Err(ServiceError::Overloaded { queue_depth, retry_after_hint }) => {
                assert_eq!(queue_depth, 1, "hint must describe the least-loaded shard");
                assert!(retry_after_hint > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        b0.cancel();
        b1.cancel();
        assert!(c1.wait().is_ok());
        assert!(c2.wait().is_ok());
        // The blockers either succumbed to the cancel or won the race with
        // a clean solve; either way the ledger must balance.
        for b in [b0, b1] {
            match b.wait() {
                Ok(_) | Err(ServiceError::Cancelled { .. }) => {}
                Err(other) => panic!("unexpected blocker error: {other}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!(stats.completed + stats.failed, 4);
    }

    #[test]
    fn drained_shard_requeues_queued_jobs_and_finishes_in_flight() {
        let service = Service::builder().shards(2).workers(1).build();
        let (b0, b1) = submit_blockers_on_both_shards(&service);
        assert!(
            wait_until(Duration::from_secs(20), || {
                service.shard_stats().iter().all(|s| s.running == 1)
            }),
            "blockers never started running"
        );
        // Queue small jobs; placement alternates by load, so both shards
        // hold some.
        let g = gen::uniform_random(20, 20, 80, 5).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let handles =
            service.submit_batch((0..6).map(|_| JobSpec::new(g.clone(), Algorithm::HopcroftKarp)));
        let queued_on_0 = service.shard_stats()[0].stats.queue_depth;
        assert!(queued_on_0 > 0, "expected jobs queued on shard 0");
        let outcome = service.drain_shard(0).unwrap();
        assert_eq!(outcome.shard, 0);
        assert_eq!(outcome.requeued, queued_on_0);
        assert_eq!(outcome.kept, 0);
        assert_eq!(outcome.in_flight, 1, "the blocker is still running on shard 0");
        assert_eq!(service.shard_stats()[0].stats.queue_depth, 0);
        // New submissions go to shard 1 only.
        let extra = service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp));
        b0.cancel();
        b1.cancel();
        // Every accepted job completes exactly once, nothing lost.
        for handle in handles {
            assert_eq!(handle.wait().unwrap().report.cardinality, opt);
        }
        let extra_outcome = extra.wait().unwrap();
        assert_eq!(extra_outcome.shard, 1, "draining shard must not receive placements");
        let _ = b0.wait();
        let _ = b1.wait();
        let stats = service.stats();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        // The drained shard finished its in-flight blocker itself (the
        // cancel may lose the race to a clean solve; either way it ends on
        // shard 0 and nowhere else).
        let s0 = service.shard_stats()[0].stats.clone();
        assert_eq!(s0.completed + s0.failed, 1, "shard 0's blocker finished on shard 0");
        // Draining the last shard quiesces the service.
        service.drain_shard(1).unwrap();
        let err = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap_err();
        assert_eq!(err, ServiceError::ShuttingDown);
        assert!(matches!(
            service.drain_shard(7),
            Err(crate::control::ControlError::UnknownShard { shard: 7, shards: 2 })
        ));
    }

    #[test]
    fn rebalance_moves_graphs_to_their_home_shards() {
        let service = Service::builder().shards(3).workers(1).build();
        // Upload via inline solves so the graphs land wherever their job
        // ran, not at their home shard.
        let graphs: Vec<_> =
            (0..9).map(|i| gen::uniform_random(15, 15, 50, 40 + i).unwrap()).collect();
        for g in &graphs {
            service.submit(JobSpec::new(g.clone(), Algorithm::HopcroftKarp)).wait().unwrap();
        }
        let outcome = service.rebalance();
        assert_eq!(outcome.active_shards, 3);
        // Every graph now sits exactly on its home shard.
        for g in &graphs {
            let fp = g.fingerprint();
            let home = service.registry().home_shard(fp).unwrap();
            for shard in &service.registry().shards {
                let holds = shard.cache.lock().contains(fp);
                assert_eq!(
                    holds,
                    shard.id == home,
                    "fingerprint {fp:#x} misplaced relative to shard {}",
                    shard.id
                );
            }
        }
        // A second rebalance is a no-op: the invariant already holds.
        assert_eq!(service.rebalance().moved, 0);
        // Cached solves still hit after the shuffle (remote peeks are not
        // needed once placement follows the graph).
        for g in &graphs {
            let outcome = service
                .submit(JobSpec::new(GraphSource::Cached(g.fingerprint()), Algorithm::PothenFan))
                .wait()
                .unwrap();
            assert!(outcome.cache_hit);
        }
    }

    #[test]
    fn remote_peek_resolves_graphs_cached_on_a_sibling_shard() {
        let service = Service::builder().shards(2).workers(1).build();
        let g = gen::planted_perfect(30, 120, 11).unwrap();
        let fp = g.fingerprint();
        let home = service.registry().home_shard(fp).unwrap();
        let away = 1 - home;
        // Plant the graph on the wrong shard, bypassing put_graph.
        service.registry().shards[away].cache.lock().insert_keyed(fp, Arc::new(g));
        // Drain the holder so placement must send the job to the other
        // shard — wait: drain the *home* is unnecessary; affinity already
        // routes to the actual holder.  Instead drain the holder to force a
        // remote peek.
        service.drain_shard(away).unwrap();
        let outcome = service
            .submit(JobSpec::new(GraphSource::Cached(fp), Algorithm::HopcroftKarp))
            .wait()
            .unwrap();
        assert_eq!(outcome.shard, home, "only the non-draining shard may run the job");
        assert_eq!(outcome.report.cardinality, 30);
        assert!(outcome.cache_hit, "remote peek should still resolve the graph");
        // The local miss stays visible in the running shard's stats.
        let per_shard = service.shard_stats();
        assert_eq!(per_shard[home].stats.cache.misses, 1);
        assert_eq!(per_shard[away].stats.cache.hits, 0, "peek must not count on the owner");
    }
}
