//! Jobs: what clients submit ([`JobSpec`]) and what they wait on
//! ([`JobHandle`] → [`JobOutcome`]).

use crate::error::ServiceError;
use gpm_core::{Algorithm, CancelToken, InitHeuristic, SolveReport};
use gpm_graph::BipartiteCsr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How a job names its graph.
#[derive(Clone, Debug)]
pub enum GraphSource {
    /// The graph travels with the job.  The worker also registers it in the
    /// service's cache, so follow-up jobs can refer to it by fingerprint.
    Inline(Arc<BipartiteCsr>),
    /// The graph is expected in the cache under this
    /// [`BipartiteCsr::fingerprint`]; the job fails with
    /// [`ServiceError::UnknownGraph`] if it is absent.
    Cached(u64),
}

impl From<BipartiteCsr> for GraphSource {
    fn from(graph: BipartiteCsr) -> Self {
        GraphSource::Inline(Arc::new(graph))
    }
}

impl From<Arc<BipartiteCsr>> for GraphSource {
    fn from(graph: Arc<BipartiteCsr>) -> Self {
        GraphSource::Inline(graph)
    }
}

/// One unit of work for the pool: an algorithm, an initialization
/// heuristic, and a graph (by value or by cache key), plus the scheduling
/// attributes the admission-controlled queue acts on.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The algorithm to run (parsed from its round-trippable label on the
    /// wire; see [`Algorithm`]'s `FromStr`).
    pub algorithm: Algorithm,
    /// The initialization heuristic the starting matching is built with.
    pub init: InitHeuristic,
    /// The graph to solve.
    pub graph: GraphSource,
    /// Scheduling priority: higher values dequeue first; equal priorities
    /// keep submission order.  Defaults to 0.
    pub priority: u8,
    /// Deadline relative to submission.  A job whose deadline expires while
    /// queued fails fast with [`ServiceError::DeadlineExceeded`] without
    /// touching a solver; an expiry mid-solve stops the engine at the next
    /// worklist round.
    pub deadline: Option<Duration>,
    /// The job's cancellation token, shared with the [`JobHandle`] the
    /// submit returns (and with anything else holding a clone).  Fresh per
    /// [`JobSpec::new`]; override with [`JobSpec::with_cancel_token`] to
    /// pre-register the token elsewhere (the TCP server does this so a
    /// second connection can cancel by job id).
    pub cancel: CancelToken,
}

impl JobSpec {
    /// A job with the default (cheap greedy) initialization, priority 0,
    /// no deadline, and a fresh cancellation token.
    pub fn new(graph: impl Into<GraphSource>, algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            init: InitHeuristic::default(),
            graph: graph.into(),
            priority: 0,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// Replaces the initialization heuristic.
    pub fn with_init(mut self, init: InitHeuristic) -> Self {
        self.init = init;
        self
    }

    /// Sets the scheduling priority (higher dequeues first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline, measured from the moment the job is submitted.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the cancellation token (e.g. with one registered in a
    /// server-side job registry before submission).
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// What a finished job yields: the solve report plus service-side
/// observations.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The solver's report (matching, cardinality, timings).
    pub report: SolveReport,
    /// The shard the job ran on (0 on a single-shard service).
    pub shard: usize,
    /// Index of the worker within that shard's pool that ran the job.
    pub worker: usize,
    /// `true` iff the graph came out of the cache (a `Cached` source that
    /// hit); inline graphs are `false`.
    pub cache_hit: bool,
    /// Seconds the job sat in the queue before a worker picked it up.
    pub queue_seconds: f64,
    /// Seconds the worker spent resolving the graph, building the initial
    /// matching, and solving.
    pub service_seconds: f64,
}

/// Completion slot shared between a worker and the client holding the
/// [`JobHandle`]: a mutex-guarded `Option` plus a condvar to wake waiters.
#[derive(Debug, Default)]
pub(crate) struct JobSlot {
    result: Mutex<Option<Result<JobOutcome, ServiceError>>>,
    ready: Condvar,
}

impl JobSlot {
    pub(crate) fn complete(&self, result: Result<JobOutcome, ServiceError>) {
        {
            let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(slot.is_none(), "job completed twice");
            *slot = Some(result);
        }
        // Notify after the guard drops, so a waiter wakes into a free lock
        // instead of blocking on this one and waiting to be woken again.
        self.ready.notify_all();
    }
}

/// A claim on the result of one submitted job.
///
/// `JobHandle` is `Send`, so a client can fan handles out to other threads;
/// [`JobHandle::wait`] consumes the handle and blocks until a pool worker
/// completes the job.  [`JobHandle::cancel`] requests cancellation without
/// consuming the handle — the job then completes with
/// [`ServiceError::Cancelled`] (immediately if still queued, at the next
/// worklist round if already solving).
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) slot: Arc<JobSlot>,
    pub(crate) cancel: CancelToken,
}

impl JobHandle {
    /// A handle that is already complete (used for jobs rejected at submit
    /// time, e.g. after shutdown or on a full queue).
    pub(crate) fn completed(result: Result<JobOutcome, ServiceError>) -> Self {
        let slot = Arc::new(JobSlot::default());
        slot.complete(result);
        JobHandle { slot, cancel: CancelToken::new() }
    }

    /// Requests cancellation of this job.  Sticky and non-blocking: a queued
    /// job fails fast without touching a solver, a running solve stops at
    /// its next worklist round, and a finished job is unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the job's cancellation token, for cancelling from
    /// elsewhere after [`JobHandle::wait`] has consumed the handle.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn wait(self) -> Result<JobOutcome, ServiceError> {
        let mut slot = self.slot.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.slot.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// `true` iff the job has finished (successfully or not); never blocks.
    pub fn is_done(&self) -> bool {
        self.slot.result.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;

    #[test]
    fn completed_handles_resolve_immediately() {
        let h = JobHandle::completed(Err(ServiceError::ShuttingDown));
        assert!(h.is_done());
        assert_eq!(h.wait().unwrap_err(), ServiceError::ShuttingDown);
    }

    #[test]
    fn wait_blocks_until_a_worker_completes() {
        let slot = Arc::new(JobSlot::default());
        let handle = JobHandle { slot: Arc::clone(&slot), cancel: CancelToken::new() };
        assert!(!handle.is_done());
        let worker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            slot.complete(Err(ServiceError::UnknownGraph { fingerprint: 7 }));
        });
        assert_eq!(handle.wait().unwrap_err(), ServiceError::UnknownGraph { fingerprint: 7 });
        worker.join().unwrap();
    }

    #[test]
    fn handle_cancel_trips_the_spec_token() {
        let g = gen::uniform_random(5, 5, 10, 2).unwrap();
        let spec = JobSpec::new(g, Algorithm::HopcroftKarp)
            .with_priority(7)
            .with_deadline(Duration::from_millis(250));
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.deadline, Some(Duration::from_millis(250)));
        let handle = JobHandle { slot: Arc::new(JobSlot::default()), cancel: spec.cancel.clone() };
        assert!(!spec.cancel.is_cancelled());
        handle.cancel();
        assert!(spec.cancel.is_cancelled());
        assert!(handle.cancel_token().is_cancelled());
        // A replacement token swaps the shared flag.
        let other = CancelToken::new();
        let spec = spec.with_cancel_token(other.clone());
        assert!(!spec.cancel.is_cancelled());
        assert!(spec.cancel.same_token(&other));
    }

    #[test]
    fn graph_sources_convert_from_owned_and_shared() {
        let g = gen::uniform_random(5, 5, 10, 1).unwrap();
        let fp = g.fingerprint();
        let spec =
            JobSpec::new(g.clone(), Algorithm::HopcroftKarp).with_init(InitHeuristic::KarpSipser);
        assert_eq!(spec.init, InitHeuristic::KarpSipser);
        match &spec.graph {
            GraphSource::Inline(arc) => assert_eq!(arc.fingerprint(), fp),
            other => panic!("expected inline source, got {other:?}"),
        }
        let shared: GraphSource = Arc::new(g).into();
        assert!(matches!(shared, GraphSource::Inline(_)));
        let cached = JobSpec::new(GraphSource::Cached(fp), Algorithm::PothenFan);
        assert!(matches!(cached.graph, GraphSource::Cached(f) if f == fp));
    }
}
