//! The persistent kernel executor: a worker pool spawned at most once per
//! device.
//!
//! The original engine spawned and joined fresh OS threads via
//! `std::thread::scope` on **every** kernel launch.  The paper's algorithms
//! are launch-heavy — a single solve issues hundreds to thousands of
//! launches, one per BFS level or push-relabel sweep — so in the launch-bound
//! regime the cost model is calibrated for, host thread churn dominated the
//! kernel work itself.  This module replaces that with:
//!
//! * **A long-lived pool.** Worker threads are spawned once (lazily, on the
//!   first launch large enough to go parallel) and parked on a [`Condvar`]
//!   between launches.  Dropping the pool signals shutdown and joins every
//!   worker.
//! * **The launching thread works too.** A pooled launch on a device of
//!   `workers` threads runs on the thread that called it plus `workers − 1`
//!   pool threads.  The launcher posts the launch, wakes the pool and claims
//!   chunks at once; a pool thread joins when it is scheduled and finds
//!   chunks left, and one scheduled after the launcher closed the launch
//!   skips it.  No launch therefore waits for a parked thread to be woken:
//!   that wake-up costs tens of microseconds on an idle virtual CPU and
//!   more while other processes hold the CPUs, and launch-heavy solves would
//!   pay it hundreds of times, tying a solve's wall time to the host's load.
//! * **Dynamic chunk scheduling.** Instead of statically splitting the grid
//!   into one equal range per worker, workers claim fixed-size chunks of grid
//!   indices from a shared atomic cursor.  Divergent kernels — the very
//!   reason `G-PR-SHRKRNL` exists — no longer leave most workers idle behind
//!   the one that drew the expensive range.
//! * **Chunk-granular dispatch.** The pool never sees a logical thread: a
//!   launch hands it one erased closure that runs a whole chunk of the
//!   launch's items and returns their [`LaunchTotals`].  The engine builds
//!   that closure around each kernel, so every kernel's thread loop is
//!   monomorphic, pooled or inline, and the pool pays one indirect call per
//!   chunk instead of one per thread.
//! * **Lock-free work accounting.** Each host thread of a launch folds its
//!   chunks' totals locally and merges them into the launch's totals once at
//!   the end; the launch close is the only synchronization on the hot path.
//! * **Panic containment.** A panicking kernel thread poisons the launch (the
//!   other threads stop claiming chunks), and the payload is re-raised on the
//!   launcher thread after the launch closed.  The pool itself survives: the next
//!   launch on the same device runs normally.
//!
//! ## Why there is `unsafe` here (and why it is sound)
//!
//! A launch's chunk closure borrows the kernel and its captures
//! (`&DeviceBuffer`, `&BipartiteCsr`, …) from the launcher's stack, so it is
//! not `'static` — but persistent workers are `'static` threads.
//! `std::thread::scope` solves exactly this problem with `unsafe`
//! internally; a persistent pool has no safe standard building block, so
//! this module erases the chunk closure's lifetime behind a raw trait-object
//! pointer ([`ChunkPtr`]).  Soundness rests on the launch close: a pool
//! thread can take the pointer only from the dispatch slot, under its lock,
//! and counts itself in `remaining` in the same critical section.
//! [`WorkerPool::run`] clears the slot under that lock once its own chunks
//! are done and then waits for `remaining` to reach zero, so every thread
//! that took the pointer has finished with it before `run` returns, and none
//! can take it afterwards.  This is the only `unsafe` in the crate;
//! everything else remains `#![deny(unsafe_code)]`-clean.

#![allow(unsafe_code)]

use crate::engine::LaunchTotals;
use crate::primitives::QUEUE_BLOCK;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The per-launch chunk size the pool actually schedules with.
///
/// Two constraints on top of the configured [`chunk_size`]:
///
/// * every thread of the launch should be able to get a share of mid-sized
///   grids, so the chunk is capped at `grid / workers` (rounded up);
/// * chunks are aligned up to a multiple of [`QUEUE_BLOCK`] (one modelled
///   cache line) so a worker's chunk of grid indices and the queue-slot
///   blocks it claims tile the same granularity — in the cost model, an
///   executor chunk boundary never splits a blocked queue segment across
///   two workers' cache lines (no modelled false sharing between the chunk
///   cursor's claims and blocked appends).
///
/// Shared by [`WorkerPool::run`] and the engine's deterministic
/// chunk-cursor cost accounting, which must agree on the claim count.
///
/// [`chunk_size`]: crate::ExecutorConfig::chunk_size
pub(crate) fn effective_chunk(chunk: usize, grid: usize, workers: usize) -> usize {
    let chunk = chunk.max(1).min(grid.div_ceil(workers.max(1)).max(1));
    chunk.div_ceil(QUEUE_BLOCK) * QUEUE_BLOCK
}

/// Locks a `std::sync` mutex, ignoring poison: a kernel panic is contained
/// by `catch_unwind` and re-raised on the launcher, so a poisoned lock only
/// ever means "a previous launch failed", never "this data is torn".
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One launch's work as the pool sees it: runs the items of a chunk and
/// returns their totals.
type ChunkFn<'a> = dyn Fn(Range<usize>) -> LaunchTotals + Sync + 'a;

/// A chunk closure with its lifetime erased so the long-lived workers can
/// hold it for the duration of one launch.  See the module docs for the
/// soundness argument.
#[derive(Clone, Copy)]
struct ChunkPtr(*const ChunkFn<'static>);

impl ChunkPtr {
    /// Erases the borrow's lifetime.  Callers must guarantee the pointer is
    /// never dereferenced after the borrow ends; `WorkerPool::run` does so
    /// by closing the launch before it returns.
    fn erase(chunks: &ChunkFn<'_>) -> Self {
        // SAFETY: a reference-to-reference transmute that only widens the
        // lifetime; layout is identical, and the launch-close argument above
        // bounds every actual use to the original lifetime.
        let chunks: &'static ChunkFn<'static> = unsafe { std::mem::transmute(chunks) };
        Self(chunks)
    }
}

// SAFETY: the pointee is `Sync` (shared calls from many threads are allowed),
// and the launch close in `WorkerPool::run` guarantees the pointer is never
// dereferenced outside the lifetime of the borrow it was created from.
unsafe impl Send for ChunkPtr {}
// SAFETY: as above; `&ChunkPtr` only ever exposes the `Sync` pointee.
unsafe impl Sync for ChunkPtr {}

/// Shared per-launch state: the chunk cursor and the lock-free aggregation
/// targets the workers fold their local counters into.
struct LaunchBody {
    /// Items in the launch: its threads, or the members that run.
    items: usize,
    /// Items claimed per cursor increment.
    chunk: usize,
    /// Next unclaimed item.
    cursor: AtomicUsize,
    /// Work and atomic counters, folded in once per host thread at launch
    /// end.
    totals: Mutex<LaunchTotals>,
    /// Set by the first panicking worker; stops further chunk claims.
    poisoned: AtomicBool,
    /// The first panic payload, re-raised on the launcher after the close.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One dispatched launch: the erased chunk closure plus its shared state.
#[derive(Clone)]
struct Job {
    chunks: ChunkPtr,
    body: Arc<LaunchBody>,
}

/// Dispatch slot the workers wait on.
struct Dispatch {
    /// Bumped once per launch; a worker looks at each epoch at most once.
    epoch: u64,
    /// The current launch, present from its post until the launcher closes
    /// it.
    job: Option<Job>,
    /// Workers that took the current launch and have not finished it.
    remaining: usize,
    /// Set by `Drop`; workers exit instead of waiting for the next epoch.
    shutdown: bool,
}

struct PoolShared {
    dispatch: Mutex<Dispatch>,
    /// Signalled when a new epoch is posted (or shutdown begins).
    go: Condvar,
    /// Signalled by the last worker to finish a closed launch.
    done: Condvar,
}

/// The persistent worker pool owned by a `VirtualGpu` with a parallel
/// backend.  Spawned at most once per device; dropped with the device.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes launches on one device, like CUDA's default stream.
    gate: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    /// Host threads a launch runs on: the launcher and the pool's threads.
    threads: usize,
}

impl WorkerPool {
    /// Sets up launches on `threads` host threads: spawns `threads − 1`
    /// workers, parked until the first launch, to run beside the launching
    /// thread.
    ///
    /// `tag` is baked into the host thread names so pools belonging to
    /// different owners (e.g. service shards) are distinguishable in thread
    /// dumps.  Tag 0 keeps the historical `gpm-gpu-worker-<i>` names.
    pub(crate) fn spawn_tagged(threads: usize, tag: usize) -> Self {
        debug_assert!(threads >= 1, "a launch needs at least one thread");
        let shared = Arc::new(PoolShared {
            dispatch: Mutex::new(Dispatch { epoch: 0, job: None, remaining: 0, shutdown: false }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                let name = if tag == 0 {
                    format!("gpm-gpu-worker-{index}")
                } else {
                    format!("gpm-gpu-t{tag}-worker-{index}")
                };
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn virtual GPU worker")
            })
            .collect();
        Self { shared, gate: Mutex::new(()), handles, threads: threads.max(1) }
    }

    /// Number of host threads this pool owns (the launcher is not one).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs one launch of `items` items on the calling thread and the pool,
    /// handing `chunks` one claimed range of `0..items` at a time, and
    /// blocks until every range has run (the implicit device-wide barrier of
    /// a CUDA launch).  Returns the launch's aggregated [`LaunchTotals`].
    ///
    /// Re-raises the payload of the first panicking chunk, after the launch
    /// closed, leaving the pool intact for the next launch.
    pub(crate) fn run(&self, items: usize, chunk: usize, chunks: &ChunkFn<'_>) -> LaunchTotals {
        let _gate = lock(&self.gate);
        // `effective_chunk` leaves a share of mid-sized launches for every
        // thread that arrives in time and keeps chunks aligned to the
        // modelled cache line.
        let chunk = effective_chunk(chunk, items, self.threads);
        let body = Arc::new(LaunchBody {
            items,
            chunk,
            cursor: AtomicUsize::new(0),
            totals: Mutex::new(LaunchTotals::default()),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let job = Job { chunks: ChunkPtr::erase(chunks), body: Arc::clone(&body) };
        let mut dispatch = lock(&self.shared.dispatch);
        dispatch.job = Some(job.clone());
        dispatch.epoch += 1;
        drop(dispatch);
        self.shared.go.notify_all();
        run_chunks(&job);
        // Close the launch: with the erased pointer gone from the slot no
        // worker can take it, and once the workers that did have finished,
        // the chunk closure's borrow may safely end.
        let mut dispatch = lock(&self.shared.dispatch);
        dispatch.job = None;
        while dispatch.remaining > 0 {
            dispatch = self.shared.done.wait(dispatch).unwrap_or_else(PoisonError::into_inner);
        }
        drop(dispatch);
        body.reap()
    }
}

impl LaunchBody {
    /// Consumes the launch outcome: re-raises the first panic, or returns
    /// the aggregated totals.
    fn reap(&self) -> LaunchTotals {
        if self.poisoned.load(Ordering::Relaxed) {
            let payload =
                lock(&self.panic).take().unwrap_or_else(|| Box::new("virtual GPU kernel panicked"));
            resume_unwind(payload);
        }
        std::mem::take(&mut *lock(&self.totals))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut dispatch = lock(&self.shared.dispatch);
            dispatch.shutdown = true;
        }
        self.shared.go.notify_all();
        for handle in self.handles.drain(..) {
            // Workers never panic outside `catch_unwind`, but a failed join
            // must not abort the program from Drop.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut dispatch = lock(&shared.dispatch);
            loop {
                if dispatch.shutdown {
                    return;
                }
                if dispatch.epoch != seen_epoch {
                    seen_epoch = dispatch.epoch;
                    // A launch already closed has no chunks left: skip it.
                    if let Some(job) = dispatch.job.clone() {
                        dispatch.remaining += 1;
                        break job;
                    }
                }
                dispatch = shared.go.wait(dispatch).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_chunks(&job);
        let mut dispatch = lock(&shared.dispatch);
        dispatch.remaining -= 1;
        // Only a closed launch has a launcher waiting for the count.
        if dispatch.remaining == 0 && dispatch.job.is_none() {
            shared.done.notify_all();
        }
    }
}

/// Claims chunks from the shared cursor until the items are exhausted (or
/// the launch was poisoned by a panic elsewhere), folding each chunk's
/// totals locally and merging them into the launch's totals once.
fn run_chunks(job: &Job) {
    // SAFETY: on the launcher the borrow is its own and live; a worker took
    // the job under the dispatch lock and counted itself in `remaining`,
    // which it decrements only after this function returns, and
    // `WorkerPool::run` waits for that count before returning, so the chunk
    // closure behind the erased pointer is live for the whole call.
    let chunks = unsafe { &*job.chunks.0 };
    let body = &*job.body;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut totals = LaunchTotals::default();
        while !body.poisoned.load(Ordering::Relaxed) {
            let start = body.cursor.fetch_add(body.chunk, Ordering::Relaxed);
            if start >= body.items {
                break;
            }
            totals.merge(&chunks(start..(start + body.chunk).min(body.items)));
        }
        totals
    }));
    match outcome {
        Ok(totals) => {
            lock(&body.totals).merge(&totals);
        }
        Err(payload) => {
            body.poisoned.store(true, Ordering::Relaxed);
            let mut slot = lock(&body.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use crate::engine::{run_threads, ThreadCtx};

    /// The chunk closure a plain launch of `grid` threads hands the pool:
    /// `kernel` once per item, folded by the engine's thread loop (32 lanes
    /// per warp).
    fn per_thread<'a>(
        grid: usize,
        kernel: &'a (dyn Fn(&ThreadCtx) + Sync),
    ) -> impl Fn(Range<usize>) -> LaunchTotals + Sync + 'a {
        move |items| run_threads(items, grid, 32, kernel)
    }

    #[test]
    fn pool_covers_the_grid_with_dynamic_chunks() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        let grid = 10_007; // not a multiple of any chunk size
        let out = DeviceBuffer::<u32>::new(grid, 0);
        for chunk in [1usize, 7, 64, 1024, 20_000] {
            out.fill(0);
            let kernel = |ctx: &ThreadCtx| out.set(ctx.global_id, out.get(ctx.global_id) + 1);
            pool.run(grid, chunk, &per_thread(grid, &kernel));
            assert!(out.to_vec().iter().all(|&v| v == 1), "chunk = {chunk}");
        }
    }

    #[test]
    fn work_counters_aggregate_across_workers() {
        let pool = WorkerPool::spawn_tagged(4, 0);
        let kernel = |ctx: &ThreadCtx| ctx.add_work(ctx.global_id as u64);
        let totals = pool.run(1000, 16, &per_thread(1000, &kernel));
        assert_eq!(totals.work, (0..1000u64).sum());
        assert_eq!(totals.max_thread_work, 999);
    }

    #[test]
    fn atomic_counters_aggregate_per_word_across_workers() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        let hot = DeviceBuffer::<u64>::new(1, 0);
        let spread = DeviceBuffer::<u64>::new(1000, 0);
        let kernel = |ctx: &ThreadCtx| {
            // Every thread hits the shared word; even threads also hit a
            // private word, so the totals must separate "all RMWs" from
            // "RMWs on the hottest word".
            hot.fetch_add(0, 1);
            ctx.add_atomic(hot.word_id(0));
            if ctx.global_id.is_multiple_of(2) {
                spread.fetch_add(ctx.global_id, 1);
                ctx.add_atomic(spread.word_id(ctx.global_id));
            }
        };
        let totals = pool.run(1000, 16, &per_thread(1000, &kernel));
        assert_eq!(totals.atomics, 1500);
        assert_eq!(totals.hot_word_atomics(), 1000);
    }

    #[test]
    fn effective_chunk_is_cache_line_aligned_and_capped() {
        // Alignment: every effective chunk is a whole number of modelled
        // cache lines, so executor chunks and blocked queue segments never
        // share a line.
        for (chunk, grid, workers) in [(1, 10_007, 3), (7, 64, 2), (1024, 100_000, 4)] {
            let eff = effective_chunk(chunk, grid, workers);
            assert_eq!(eff % QUEUE_BLOCK, 0, "chunk {chunk} grid {grid} workers {workers}");
            assert!(eff >= 1);
        }
        // The per-worker cap still engages before alignment.
        assert_eq!(effective_chunk(1024, 64, 4), QUEUE_BLOCK * 2);
        // Degenerate inputs stay sane.
        assert_eq!(effective_chunk(0, 0, 0), QUEUE_BLOCK);
    }

    #[test]
    fn panic_poisons_the_launch_but_not_the_pool() {
        let pool = WorkerPool::spawn_tagged(2, 0);
        let boom = |ctx: &ThreadCtx| {
            if ctx.global_id == 123 {
                panic!("injected");
            }
        };
        let err = catch_unwind(AssertUnwindSafe(|| pool.run(1000, 8, &per_thread(1000, &boom))))
            .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"injected"));
        // The same pool still runs the next launch to completion.
        let out = DeviceBuffer::<u32>::new(500, 0);
        let kernel = |ctx: &ThreadCtx| out.set(ctx.global_id, 1);
        pool.run(500, 8, &per_thread(500, &kernel));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 500);
    }

    #[test]
    fn tagged_pool_names_threads_after_the_tag() {
        // Three launch threads: the launcher and two named pool threads.
        let pool = WorkerPool::spawn_tagged(3, 7);
        let names: Vec<_> =
            pool.handles.iter().map(|h| h.thread().name().unwrap_or("").to_string()).collect();
        assert_eq!(names, ["gpm-gpu-t7-worker-0", "gpm-gpu-t7-worker-1"]);
    }

    #[test]
    fn the_launcher_runs_the_launch_when_no_worker_joins() {
        // A one-thread pool owns no worker, so only the launcher can claim
        // chunks; the launch must still cover its grid.
        let pool = WorkerPool::spawn_tagged(1, 0);
        assert_eq!(pool.workers(), 0);
        let me = std::thread::current().id();
        let out = DeviceBuffer::<u32>::new(1000, 0);
        let kernel = |ctx: &ThreadCtx| {
            assert_eq!(std::thread::current().id(), me);
            out.set(ctx.global_id, 1);
        };
        let totals = pool.run(1000, 8, &per_thread(1000, &kernel));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 1000);
        assert_eq!(totals.work, 0);
    }

    #[test]
    fn back_to_back_launches_survive_late_workers() {
        // Launches small enough to finish before a woken worker is
        // scheduled: workers join some, find others closed and skip them,
        // and every launch still covers its grid exactly once.
        let pool = WorkerPool::spawn_tagged(4, 0);
        let out = DeviceBuffer::<u32>::new(64, 0);
        for launch in 1..=2000u32 {
            let kernel = |ctx: &ThreadCtx| {
                out.set(ctx.global_id, out.get(ctx.global_id) + 1);
                ctx.add_work(1);
            };
            assert_eq!(pool.run(64, 8, &per_thread(64, &kernel)).work, 64, "launch {launch}");
            assert!(out.to_vec().iter().all(|&v| v == launch), "launch {launch}");
        }
    }

    #[test]
    fn zero_grid_run_returns_immediately() {
        let pool = WorkerPool::spawn_tagged(2, 0);
        let kernel = |_ctx: &ThreadCtx| panic!("no threads should run");
        let totals = pool.run(0, 8, &per_thread(0, &kernel));
        assert_eq!(totals.work, 0);
        assert_eq!(totals.atomics, 0);
    }
}
