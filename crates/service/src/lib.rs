//! # gpm-service — a sharded concurrent matching service
//!
//! The paper's workload (conf_icpp_DeveciKUC13) is batch sweeps over many
//! instances; this crate turns the single-threaded [`gpm_core::Solver`]
//! session into a multi-client, multi-device service that amortizes warm
//! solver state across a stream of jobs:
//!
//! * Shard-per-device execution — the service runs M independent
//!   **device shards** ([`ServiceBuilder::shards`], default 1).  Each shard
//!   owns its own worker pool (each worker a warm `Solver`: device + one
//!   workspace per engine family, kernel pool threads tagged with the shard
//!   id), its own bounded priority queue (highest [`JobSpec::priority`]
//!   first, FIFO within a priority), its own private
//!   [`cache::GraphCache`], and its own lock-free statistics.  There is no
//!   global queue and no global cache lock: submissions contend only on
//!   the shard they are placed on.
//! * [`placement`] — jobs are routed by graph-fingerprint **affinity**: a
//!   fast path admits a job straight onto its *home shard*
//!   (`fingerprint mod active shards`) when that shard holds the graph and
//!   has room — O(1) in the shard count; otherwise the shard whose cache
//!   holds the job's graph gets the job, misses spill to the least-loaded
//!   shard with queue room, and ties break to the lowest shard id, so
//!   placement is deterministic given a load snapshot.
//!   [`Service::submit`] / [`Service::submit_batch`] never block on the
//!   solve — nor on admission: with [`ServiceBuilder::max_queue_depth`]
//!   set, a service whose every shard is full rejects with
//!   [`ServiceError::Overloaded`] describing the *least-loaded* shard.
//! * [`control`] — the control plane: per-shard snapshots
//!   ([`Service::shard_stats`]), [`Service::drain_shard`] (queued jobs
//!   re-homed, in-flight jobs finish in place, nothing lost or
//!   duplicated), and [`Service::rebalance`] (cached graphs move to their
//!   home shard `active[fingerprint mod |active|]`).
//! * [`job::JobSpec`] — algorithm (round-trippable label), init heuristic,
//!   a graph **by value or by cache key**, plus priority, deadline, and a
//!   [`CancelToken`].  Cancellation and deadlines reach running engines at
//!   worklist-round granularity and surface as [`ServiceError::Cancelled`]
//!   / [`ServiceError::DeadlineExceeded`] with the rounds completed and
//!   the partial matching cardinality at the stop.
//! * [`cache::GraphCache`] — content-addressed by
//!   [`gpm_graph::BipartiteCsr::fingerprint`], LRU-evicted, hit/miss
//!   counted: repeated solves on the same instance skip re-upload, and the
//!   per-shard hit rate doubles as a placement-quality metric.  One entry
//!   per graph holds the graph, the matching its last solve produced, and
//!   the parent and delta `patch_graph` made it from; the LRU evicts all
//!   three together.
//! * [`stats::ServiceStats`] — per-algorithm job counts, queue depth, and
//!   latency aggregates, kept in per-shard atomics and folded on demand,
//!   serialized as JSON.
//! * [`Service::patch_graph`] — dynamic graphs: applies a
//!   [`gpm_graph::GraphDelta`] to a cached parent server-side, caches the
//!   child under its own fingerprint on the **lineage's home shard**
//!   (placement keys descendants by their root fingerprint, so patch
//!   chains stay with their warm state, and rebalance re-homes chains
//!   together, whole cache entries at a time).  A later solve of the child
//!   warm-starts from the parent's last matching (a
//!   [`gpm_core::Start::Warm`] request that falls back to the job's own
//!   init heuristic) while the parent's entry is cached on the child's
//!   shard; the `patched` / `resolved` stats counters report how often.
//! * [`server`]/[`client`] — a JSON-lines protocol over
//!   `std::net::TcpListener` (see [`proto`] for the grammar, including the
//!   `patch_graph` op and the `shards`/`drain`/`rebalance` control ops)
//!   and the matching blocking client; the `gpm-service` binary serves it
//!   (`--shards M`).
//!
//! ```
//! use gpm_core::Algorithm;
//! use gpm_service::{JobSpec, Service};
//! use gpm_graph::gen;
//!
//! let service = Service::builder().workers(4).build();
//! let graph = gen::planted_perfect(200, 800, 7).unwrap();
//! let fingerprint = service.put_graph(graph);
//!
//! // Eight jobs fan out over four warm solvers; the graph is fetched from
//! // the cache by key each time.
//! let handles = service.submit_batch((0..8).map(|_| {
//!     JobSpec::new(gpm_service::GraphSource::Cached(fingerprint), Algorithm::HopcroftKarp)
//! }));
//! for handle in handles {
//!     assert_eq!(handle.wait().unwrap().report.cardinality, 200);
//! }
//! assert_eq!(service.stats().cache.hits, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod control;
pub mod error;
pub mod job;
pub mod placement;
pub mod proto;
pub mod server;
pub mod service;
pub(crate) mod shard;
pub mod stats;

pub use cache::{CacheStats, GraphCache};
pub use client::{Client, SolveOptions};
pub use control::{ControlError, DrainOutcome, RebalanceOutcome, ShardStats};
pub use error::ServiceError;
pub use gpm_core::CancelToken;
pub use gpm_graph::{DeltaLineage, GraphDelta};
pub use job::{GraphSource, JobHandle, JobOutcome, JobSpec};
pub use placement::{decide, decide_requeue, Placement, ShardLoad};
pub use server::{serve, ServerState};
pub use service::{Service, ServiceBuilder};
pub use stats::{AlgorithmStats, LatencyAgg, ServiceStats};
