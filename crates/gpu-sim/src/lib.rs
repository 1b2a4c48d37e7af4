//! # gpm-gpu — a virtual SIMT GPU
//!
//! The paper's algorithms are CUDA kernels running on an NVIDIA Tesla C2050.
//! No GPU (and no mature Rust toolchain for custom kernels) is available in
//! this reproduction, so this crate provides a **virtual GPU**: a software
//! device that preserves the three properties the paper's results depend on,
//! while running on CPU threads.
//!
//! 1. **Bulk-synchronous kernels on a persistent executor.** A launch
//!    executes one logical thread per grid index and returns only after
//!    every thread finished — the implicit device-wide barrier of CUDA's
//!    default stream.  With a parallel [`Backend`] the threads run on a
//!    **worker pool spawned at most once per device** (the internal `exec`
//!    module): workers
//!    park on a condition variable between launches, and the launching
//!    thread and every worker that wakes in time claim fixed-size grid
//!    chunks from a shared atomic cursor, so divergent kernels load-balance
//!    dynamically, the per-launch host cost is a pointer handoff, not a
//!    `thread::spawn`/`join` round trip, and no launch waits for a parked
//!    worker to be scheduled.  The pool calls one closure per chunk, and
//!    every launch — pooled or inline — runs its threads in one loop
//!    compiled for its kernel.  (The sequential backend runs
//!    every thread inline in id order, for deterministic interleavings.)  A
//!    kernel panic fails its launch but leaves the pool intact; dropping the
//!    device joins every worker.
//! 2. **Lock- and atomic-free kernel semantics.** Device memory is exposed as
//!    [`buffer::DeviceBuffer`]s of 32/64-bit words whose loads and stores are
//!    individually indivisible but carry **no ordering and no mutual
//!    exclusion** — exactly the guarantees naturally-aligned word accesses
//!    have on a real GPU.  (Under the hood each word is a Rust atomic used
//!    with `Ordering::Relaxed`; this is the only way to express the paper's
//!    *benign races* without undefined behaviour.  No read-modify-write
//!    operation is ever used by the matching kernels.)
//! 3. **A calibrated cost model.** Each launch is charged launch overhead,
//!    warp issue cost, per-work-item memory cost scaled by a divergence
//!    penalty on its longest thread, and — for the kernels that do use
//!    read-modify-writes, like the queue append — a per-atomic throughput
//!    cost plus a serialization surcharge on the launch's most contended
//!    word ([`perfmodel::PerfModel`]), so that *modelled device time* can be
//!    compared across algorithms the same way the paper compares
//!    wall-clock seconds on the C2050.  A thread reports a list longer than
//!    a warp through [`ThreadCtx::add_gather`]: its warp reads it together,
//!    so the launch's longest thread is its largest own work plus the
//!    largest warp share, ⌈Σ gathered units of a warp's lanes / warp
//!    size⌉, while the units still count in full toward its work.
//!    Wall-clock host time is recorded as well, and
//!    per-kernel statistics are queued off the launch hot path and merged
//!    only when [`VirtualGpu::stats`] snapshots them.
//!
//! The crate also ships device-wide primitives ([`primitives`]) — reduction,
//! exclusive prefix sum, and an atomic-append [`primitives::DeviceQueue`] —
//! implemented as multi-pass kernels (the paper's shrink kernel
//! `G-PR-SHRKRNL` needs a device prefix sum; the queue backs the worklist's
//! atomic-append representation).  Their working buffers come from a
//! per-device [`scratch::ScratchArena`], so the launch-heavy shrink path
//! stops allocating once warm.
//!
//! On top of the primitives sits the [`worklist`] module: a [`Worklist`]
//! type that owns the *active set* every frontier-driven engine iterates,
//! behind four interchangeable [`WorklistMode`] representations —
//! dense stamp scans, `G-PR-SHRKRNL`-style compaction, a device-side
//! atomic-append queue, and a blocked-claim variant of that queue that
//! amortizes the contended tail `fetch_add` over cache-line-sized slot
//! blocks.  A dense BFS level is priced as the paper's full grid but runs
//! only its frontier's members on the host, and a slot round is priced as
//! its full list but runs only the slots that still hold an item.  See that
//! module's docs for the round protocols, the host bookkeeping of dense
//! frontiers and slot lists, and the queue memory model under the pooled
//! executor.
//!
//! Executor tuning (inline threshold, chunk size, pool tag)
//! lives in [`ExecutorConfig`] and is plumbed upward through `gpm-core`'s
//! `Solver::builder()` and `gpm-service`'s `Service::builder()`.
//!
//! Finally, the device can **price persistent (megakernel) execution**:
//! inside a [`VirtualGpu::resident`] scope, launches execute exactly as
//! they always do but are recorded as device-resident rounds of one entry
//! launch, so launch-bound round loops pay
//! [`PerfModel::global_barrier_cost_ns`] per round instead of
//! [`PerfModel::kernel_launch_overhead_ns`].  The barrier exists only in
//! the model; there is one executor.  Engines select this pricing with
//! [`ExecMode`], threaded end-to-end like [`WorklistMode`].  Every launch,
//! fused tail and resident round is recorded through one
//! [`DeviceStats::record`], tagged with its [`LaunchKind`].

#![deny(unsafe_code)]
// re-allowed only in `exec` for the lifetime erasure the
// persistent pool needs; see that module's soundness argument.
#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub(crate) mod exec;
pub mod perfmodel;
pub mod primitives;
pub mod scratch;
pub mod stats;
pub mod stop;
pub mod worklist;

pub use buffer::{DeviceBuffer, DeviceScalar};
pub use engine::{
    Backend, ExecMode, ExecutorConfig, GpuConfig, LaunchRecord, ParseExecModeError, StatsMark,
    ThreadCtx, VirtualGpu,
};
pub use perfmodel::PerfModel;
pub use scratch::{ScratchArena, ScratchBuffer, ScratchStats};
pub use stats::{DeviceStats, KernelStats, LaunchKind};
pub use stop::StopCheck;
pub use worklist::{
    ActiveView, DomainMarker, FrontierView, ParseWorklistModeError, SlotAction, Worklist,
    WorklistKernels, WorklistMode, WL_EMPTY,
};
