//! The virtual GPU device and its kernel-launch engine.

use crate::buffer::DeviceBuffer;
use crate::exec::WorkerPool;
use crate::perfmodel::PerfModel;
use crate::scratch::ScratchArena;
use crate::stats::{DeviceStats, LaunchKind};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

/// How kernel threads are executed on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// All logical threads run on the calling host thread, in increasing
    /// thread-id order.  Fully deterministic; used by tests that need a
    /// reproducible interleaving and as the reference for cross-backend
    /// equivalence checks.
    Sequential,
    /// Logical threads run truly concurrently on `workers` persistent host
    /// threads, so the benign races the paper's kernels allow actually
    /// happen.  This is the default for benchmarks.  A launch runs inline
    /// instead when the threads it runs — for a dense BFS level or a slot
    /// list, only its members or live slots — number fewer than
    /// [`ExecutorConfig::parallel_threshold`].
    Parallel {
        /// Number of host threads a pooled launch runs on: the thread that
        /// issues it plus `workers − 1` persistent pool threads.  0 and 1
        /// run every launch inline.
        workers: usize,
    },
}

impl Backend {
    /// A parallel backend sized to the host's available parallelism.
    pub fn parallel_auto() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Backend::Parallel { workers }
    }
}

/// How an engine's round loop drives the device.
///
/// Threaded end-to-end the way [`crate::WorklistMode`] is: through
/// `GprConfig` / `Solver::builder()`, the `@resident` algorithm-label
/// suffix, the service wire format, and the bench sweep axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One kernel launch per round — the paper's execution model: the host
    /// relaunches the round kernel until the termination condition holds,
    /// paying [`PerfModel::kernel_launch_overhead_ns`] every round.
    #[default]
    LaunchPerRound,
    /// Persistent (megakernel) pricing: the round loop runs inside a
    /// [`VirtualGpu::resident`] scope, which executes every round exactly
    /// like a launch-per-round launch but prices it as a round of one
    /// resident grid — one entry launch for the whole loop, then
    /// [`PerfModel::global_barrier_cost_ns`] per round instead of
    /// [`PerfModel::kernel_launch_overhead_ns`].
    Persistent,
}

impl ExecMode {
    /// Both execution modes, launch-per-round first (the paper baseline).
    pub fn all() -> [ExecMode; 2] {
        [ExecMode::LaunchPerRound, ExecMode::Persistent]
    }

    /// The round-trippable label used in `Algorithm` specs: the default
    /// `launch`, or `resident` (spelled `@resident` as a label suffix).
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::LaunchPerRound => "launch",
            ExecMode::Persistent => "resident",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when a string is not an [`ExecMode`] label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseExecModeError {
    /// The string that failed to parse.
    pub input: String,
}

impl std::fmt::Display for ParseExecModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot parse exec mode '{}': expected one of launch, resident", self.input)
    }
}

impl std::error::Error for ParseExecModeError {}

impl std::str::FromStr for ExecMode {
    type Err = ParseExecModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "launch" => Ok(ExecMode::LaunchPerRound),
            "resident" => Ok(ExecMode::Persistent),
            _ => Err(ParseExecModeError { input: s.to_string() }),
        }
    }
}

/// Tuning knobs of the persistent kernel executor (the internal `exec`
/// module).
///
/// All knobs are plumbed upward: `gpm-core`'s `Solver::builder()` and
/// `gpm-service`'s `Service::builder()` accept an `ExecutorConfig` and apply
/// it to every device they create, so a service with N workers can size its
/// N devices to the host instead of oversubscribing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Grids smaller than this run inline on the calling thread even with a
    /// parallel backend; mirrors the fact that tiny CUDA grids cannot fill
    /// the device and their cost is dominated by launch overhead.  The two
    /// halves of that rule look at different counts when a launch runs
    /// fewer threads than it prices — a dense BFS level, which runs only its
    /// frontier's members, and a slot-list round (`G-PR-INITKRNL`,
    /// `G-PR-PUSHKRNL`), which runs only its live slots: the host's choice
    /// between inline and the pool counts the threads that run, while the
    /// price of a pooled launch (its chunk-cursor claims) follows the grid.
    pub parallel_threshold: usize,
    /// Grid indices per chunk that the threads of a pooled launch claim
    /// from its shared cursor.  Smaller chunks balance divergent kernels better;
    /// larger chunks amortize the cursor increment.  Must be at least 1
    /// ([`ExecutorConfig::validate`]; `Solver::builder()` rejects 0 with a
    /// structured error, and the executor itself clamps to 1 as a last
    /// resort).  The effective chunk is capped per launch at
    /// `grid / workers` (rounded up) so every thread of a pooled launch can
    /// get a share of mid-sized grids.
    pub chunk_size: usize,
    /// Tag baked into the pool's host thread names
    /// (`gpm-gpu-t<tag>-worker-<i>`; tag 0, the default, keeps the plain
    /// `gpm-gpu-worker-<i>` names).  A deployment running several executor
    /// pools — one per `gpm-service` shard — sets a distinct tag per pool so
    /// kernel threads are attributable to their shard in thread dumps and
    /// profilers.  Purely observational: scheduling is unaffected.
    pub pool_tag: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self { parallel_threshold: 2048, chunk_size: 1024, pool_tag: 0 }
    }
}

impl ExecutorConfig {
    /// Same configuration with a different inline threshold.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// Same configuration with a different chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Same configuration with a different pool-name tag (see
    /// [`ExecutorConfig::pool_tag`]).
    pub fn with_pool_tag(mut self, tag: usize) -> Self {
        self.pool_tag = tag;
        self
    }

    /// Checks the configuration for values the executor cannot run with.
    /// Builders (`Solver::builder()`, `Service::builder()`) call this before
    /// a device is created so a zero chunk size becomes a structured
    /// configuration error instead of surprising clamping in the launch
    /// loop.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size == 0 {
            return Err("executor chunk_size must be at least 1 (pool workers claim grid chunks)"
                .to_string());
        }
        Ok(())
    }
}

/// Configuration of a virtual GPU device.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Human-readable device name (shows up in reports).
    pub name: String,
    /// Host execution backend.
    pub backend: Backend,
    /// Analytical cost model used for modelled device time.
    pub perf: PerfModel,
    /// Persistent-executor tuning (inline threshold, chunk size, pool
    /// tag).
    pub executor: ExecutorConfig,
}

impl GpuConfig {
    /// Tesla C2050-like configuration with the given backend.
    pub fn tesla_c2050(backend: Backend) -> Self {
        Self {
            name: "Virtual Tesla C2050".to_string(),
            backend,
            perf: PerfModel::tesla_c2050(),
            executor: ExecutorConfig::default(),
        }
    }

    /// Same configuration with different executor tuning.
    pub fn with_executor(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::tesla_c2050(Backend::parallel_auto())
    }
}

/// Per-logical-thread execution context handed to kernels.
///
/// `global_id` plays the role of
/// `blockIdx.x * blockDim.x + threadIdx.x` in the CUDA kernels of the paper.
pub struct ThreadCtx {
    /// Global thread index within the launch (0-based).
    pub global_id: usize,
    /// Total number of logical threads in the launch.
    pub grid_size: usize,
    /// The device's SIMT width ([`PerfModel::warp_size`], at least 1).
    warp_size: usize,
    work: Cell<u64>,
    /// Units of lists longer than a warp, gathered by this thread's warp.
    gathered: Cell<u64>,
    atomics: Cell<u64>,
    /// Per-word RMW counts, `(word_id, count)`.  A kernel thread touches at
    /// most a couple of contended words (a queue tail, an overflow flag), so
    /// a tiny inline array beats any map; counts beyond the last slot are
    /// still in `atomics` but lose their word attribution.
    atomic_words: Cell<[(u64, u64); ThreadCtx::ATOMIC_WORD_SLOTS]>,
}

impl ThreadCtx {
    /// Distinct contended words tracked per thread.
    const ATOMIC_WORD_SLOTS: usize = 4;

    fn new(global_id: usize, grid_size: usize, warp_size: usize) -> Self {
        Self {
            global_id,
            grid_size,
            warp_size: warp_size.max(1),
            work: Cell::new(0),
            gathered: Cell::new(0),
            atomics: Cell::new(0),
            atomic_words: Cell::new([(0, 0); Self::ATOMIC_WORD_SLOTS]),
        }
    }

    /// Reports `units` of memory work (one unit ≈ one adjacency entry /
    /// global-memory transaction).  Feeds the cost model; has no effect on
    /// algorithm semantics.
    #[inline]
    pub fn add_work(&self, units: u64) {
        self.work.set(self.work.get() + units);
    }

    /// Reports a list of `len` entries read on this thread's behalf, one
    /// unit per entry.  A list longer than the device's warp is gathered by
    /// the whole warp, the lanes striding through it together, so its units
    /// belong to the warp (`global_id / warp_size`) instead of this thread:
    /// the launch prices the warp's gathered units as
    /// ⌈Σ units of its lanes / warp_size⌉ steps of its critical path (see
    /// [`LaunchRecord::max_thread_work`]).  A shorter list counts exactly
    /// like [`ThreadCtx::add_work`].  Either way the units add to the
    /// launch's total work; like `add_work`, purely observational.
    #[inline]
    pub fn add_gather(&self, len: u64) {
        if len > self.warp_size as u64 {
            self.gathered.set(self.gathered.get() + len);
        } else {
            self.add_work(len);
        }
    }

    /// Work reported so far by this thread through [`ThreadCtx::add_work`]
    /// (lists it reported through [`ThreadCtx::add_gather`] count only when
    /// no longer than a warp).
    #[inline]
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    /// Reports one atomic read-modify-write on the given word (see
    /// [`crate::DeviceBuffer::word_id`]).  The launch folds these into a
    /// total RMW count and a per-word histogram; the cost model charges
    /// throughput for every RMW and serialization for RMWs that pile onto a
    /// single word.  Like [`ThreadCtx::add_work`], purely observational.
    #[inline]
    pub fn add_atomic(&self, word: u64) {
        self.atomics.set(self.atomics.get() + 1);
        let mut words = self.atomic_words.get();
        for slot in words.iter_mut() {
            if slot.1 == 0 {
                *slot = (word, 1);
                break;
            }
            if slot.0 == word {
                slot.1 += 1;
                break;
            }
        }
        self.atomic_words.set(words);
    }

    /// Reports one atomic read-modify-write on a word of a per-item array,
    /// such as a worklist's per-vertex stamps.  It costs throughput like
    /// [`ThreadCtx::add_atomic`] but stays out of the per-word histogram: a
    /// launch touches one such word per item, each seeing only the few RMWs
    /// of the threads racing on that item, so none rivals the shared word
    /// beside it — and tracking them all would make the launch's fold
    /// quadratic in its item count.
    #[inline]
    pub(crate) fn add_item_atomic(&self) {
        self.atomics.set(self.atomics.get() + 1);
    }

    /// Atomics reported so far by this thread.
    #[inline]
    pub fn atomics(&self) -> u64 {
        self.atomics.get()
    }
}

/// Outcome of a single kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaunchRecord {
    /// Grid size of the launch.
    pub threads: usize,
    /// Total work units reported by all threads.
    pub work: u64,
    /// Longest critical path of a thread (divergence indicator): the
    /// largest work any thread reported as its own, plus the largest share
    /// of a warp's gathered lists, ⌈Σ gathered units of its lanes /
    /// warp_size⌉ ([`ThreadCtx::add_gather`]).  An upper bound of every
    /// warp's critical path; a launch whose threads gather nothing records
    /// the largest own work alone.
    pub max_thread_work: u64,
    /// Total atomic RMW operations, kernel-reported plus the executor's
    /// modelled chunk-cursor claims.
    pub atomics: u64,
    /// RMWs on the single most contended word of the launch.
    pub hot_word_atomics: u64,
    /// Modelled device time of the launch, nanoseconds.
    pub modelled_time_ns: f64,
    /// Host wall-clock time of the launch, nanoseconds.
    pub wall_time_ns: f64,
}

/// Work and atomic counters aggregated over the threads of one launch.
/// Workers fold thread counters in locally and merge once per worker, so
/// the only cross-thread traffic on the hot path is the final merge.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct LaunchTotals {
    /// Sum of per-thread work units, gathered units included.
    pub(crate) work: u64,
    /// Maximum single-thread own work (gathered units excluded).
    pub(crate) max_thread_work: u64,
    /// Gathered units per warp, `(warp, units)`, for the warps of which a
    /// lane gathered a list.  A chunk runs its threads in increasing id, so
    /// its entries are sorted and one per warp; merged chunks may split a
    /// warp over several entries, which [`LaunchTotals::max_warp_share`]
    /// folds.
    pub(crate) warp_gathers: Vec<(u64, u64)>,
    /// Total RMW operations reported by kernel threads.
    pub(crate) atomics: u64,
    /// Per-word RMW counts, `(word_id, count)`.  A launch touches at most a
    /// handful of contended words, so linear search is the fast path.
    pub(crate) atomic_words: Vec<(u64, u64)>,
}

impl LaunchTotals {
    /// Folds one finished thread's counters in and zeroes them for the next
    /// logical thread of the chunk.  Most threads gather no list and report
    /// no atomics, and theirs is the hot path: one branch skips the warp
    /// entries and the word slots.
    pub(crate) fn absorb_thread(&mut self, ctx: &ThreadCtx) {
        let work = ctx.work.take();
        self.work += work;
        self.max_thread_work = self.max_thread_work.max(work);
        if ctx.gathered.get() | ctx.atomics.get() != 0 {
            self.absorb_gathers_and_atomics(ctx);
        }
    }

    /// The rest of [`LaunchTotals::absorb_thread`] for a thread that gathered
    /// a list or reported an atomic.  Kept out of line: inlined, it slowed
    /// every thread of a trivial kernel by about half.
    #[cold]
    #[inline(never)]
    fn absorb_gathers_and_atomics(&mut self, ctx: &ThreadCtx) {
        let gathered = ctx.gathered.take();
        if gathered > 0 {
            self.work += gathered;
            self.add_gather((ctx.global_id / ctx.warp_size) as u64, gathered);
        }
        let atomics = ctx.atomics.take();
        if atomics == 0 {
            return;
        }
        self.atomics += atomics;
        for (word, count) in ctx.atomic_words.take() {
            if count > 0 {
                self.add_word(word, count);
            }
        }
    }

    /// Folds another worker's totals in.
    pub(crate) fn merge(&mut self, other: &LaunchTotals) {
        self.work += other.work;
        self.max_thread_work = self.max_thread_work.max(other.max_thread_work);
        for &(warp, units) in &other.warp_gathers {
            self.add_gather(warp, units);
        }
        self.atomics += other.atomics;
        for &(word, count) in &other.atomic_words {
            self.add_word(word, count);
        }
    }

    /// Adds `units` gathered by a lane of `warp`, folding them into the last
    /// entry when it is the same warp's.
    fn add_gather(&mut self, warp: u64, units: u64) {
        match self.warp_gathers.last_mut() {
            Some((last, total)) if *last == warp => *total += units,
            _ => self.warp_gathers.push((warp, units)),
        }
    }

    /// The largest warp share of the launch, ⌈Σ gathered units of a warp's
    /// lanes / `warp_size`⌉ over its warps; 0 when no thread gathered.
    /// Pool chunks may split a warp, so its entries are summed by warp id
    /// first, and every chunk size gives the same share.
    pub(crate) fn max_warp_share(&mut self, warp_size: usize) -> u64 {
        if self.warp_gathers.is_empty() {
            return 0;
        }
        self.warp_gathers.sort_unstable_by_key(|&(warp, _)| warp);
        let warp_size = warp_size.max(1) as u64;
        self.warp_gathers
            .chunk_by(|a, b| a.0 == b.0)
            .map(|lanes| lanes.iter().map(|&(_, units)| units).sum::<u64>().div_ceil(warp_size))
            .max()
            .unwrap_or(0)
    }

    fn add_word(&mut self, word: u64, count: u64) {
        if let Some(entry) = self.atomic_words.iter_mut().find(|(w, _)| *w == word) {
            entry.1 += count;
        } else {
            self.atomic_words.push((word, count));
        }
    }

    /// RMW count on the launch's most contended word.
    pub(crate) fn hot_word_atomics(&self) -> u64 {
        self.atomic_words.iter().map(|&(_, count)| count).max().unwrap_or(0)
    }
}

/// One launch's raw statistics, queued off the hot path and merged into the
/// per-kernel [`DeviceStats`] only when a snapshot is requested.
#[derive(Clone, Copy)]
struct LaunchEvent {
    name: &'static str,
    kind: LaunchKind,
    record: LaunchRecord,
}

/// Pending launch events plus the merged per-kernel aggregate.  `record` is
/// a plain `Vec` push; the `BTreeMap` lookups and string allocations happen
/// in `flush`, i.e. on `stats()` / `reset()` or every `FLUSH_AT` launches.
#[derive(Default)]
struct StatsAccum {
    merged: DeviceStats,
    /// Each kernel's largest grid and largest per-thread work since the last
    /// [`VirtualGpu::stats_mark`]: a maximum cannot be subtracted from a
    /// snapshot.
    maxima_since_mark: BTreeMap<&'static str, Maxima>,
    pending: Vec<LaunchEvent>,
}

/// A kernel's largest grid and largest per-thread work over some launches.
#[derive(Clone, Copy, Default)]
struct Maxima {
    grid: u64,
    thread_work: u64,
}

impl StatsAccum {
    /// Bound on the pending queue so a snapshot-free workload cannot grow it
    /// without limit.
    const FLUSH_AT: usize = 1024;

    fn record(&mut self, event: LaunchEvent) {
        self.pending.push(event);
        if self.pending.len() >= Self::FLUSH_AT {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for event in self.pending.drain(..) {
            self.merged.record(event.name, event.kind, &event.record);
            let maxima = self.maxima_since_mark.entry(event.name).or_default();
            maxima.grid = maxima.grid.max(event.record.threads as u64);
            maxima.thread_work = maxima.thread_work.max(event.record.max_thread_work);
        }
    }

    fn snapshot(&mut self) -> DeviceStats {
        self.flush();
        self.merged.clone()
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.merged = DeviceStats::default();
        self.maxima_since_mark.clear();
    }
}

/// A point in a device's statistics that [`VirtualGpu::stats_since`]
/// measures from: one solve's launches on a device that ran others before.
#[derive(Clone, Debug)]
pub struct StatsMark {
    base: DeviceStats,
}

/// Ambient state of an open [`VirtualGpu::resident`] scope on the current
/// host thread.  `launch_inner` consults it when pricing: launches issued on
/// the scope's device while it is open are recorded as resident rounds.
struct ResidentScope {
    /// Identity of the device that opened the scope (its address), so
    /// launches on *other* devices keep their launch price.
    device: usize,
    /// Resident threads the entry launch kept alive; what each round's
    /// barrier crossing is priced for.
    participants: usize,
}

thread_local! {
    static RESIDENT: RefCell<Option<ResidentScope>> = const { RefCell::new(None) };
}

/// Panic-safe occupancy of the thread-local resident slot: entering twice
/// is a programming error, and the slot is cleared even when the scope body
/// unwinds.
struct ResidentScopeGuard;

impl ResidentScopeGuard {
    fn enter(scope: ResidentScope) -> Self {
        RESIDENT.with(|slot| {
            let mut slot = slot.borrow_mut();
            assert!(
                slot.is_none(),
                "nested VirtualGpu::resident scopes on one thread are not supported"
            );
            *slot = Some(scope);
        });
        ResidentScopeGuard
    }
}

impl Drop for ResidentScopeGuard {
    fn drop(&mut self) {
        RESIDENT.with(|slot| slot.borrow_mut().take());
    }
}

/// The virtual GPU device.
///
/// A `VirtualGpu` owns no user-visible memory; [`crate::DeviceBuffer`]s are
/// created independently and captured by kernel closures, mirroring how CUDA
/// kernels receive device pointers.  What it does own is its **execution
/// engine**: with a parallel backend, a persistent worker pool is spawned on
/// the first launch that is large enough to go parallel and reused for every
/// later launch (the internal `exec` module); dropping the device shuts the
/// pool
/// down and joins every worker.  It also owns a [`ScratchArena`] the device
/// primitives draw their working buffers from.
pub struct VirtualGpu {
    config: GpuConfig,
    stats: Mutex<StatsAccum>,
    scratch: ScratchArena,
    pool: OnceLock<WorkerPool>,
}

impl VirtualGpu {
    /// Creates a device with the given configuration.  No host threads are
    /// spawned until the first launch that needs them.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            stats: Mutex::new(StatsAccum::default()),
            scratch: ScratchArena::new(),
            pool: OnceLock::new(),
        }
    }

    /// Tesla C2050-like device with the given backend.
    pub fn tesla_c2050(backend: Backend) -> Self {
        Self::new(GpuConfig::tesla_c2050(backend))
    }

    /// Tesla C2050-like device with a deterministic sequential backend.
    pub fn sequential() -> Self {
        Self::tesla_c2050(Backend::Sequential)
    }

    /// Tesla C2050-like device with an auto-sized parallel backend.
    pub fn parallel() -> Self {
        Self::tesla_c2050(Backend::parallel_auto())
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The device's scratch-buffer arena (used by [`crate::primitives`];
    /// available to any multi-pass kernel sequence needing short-lived `u64`
    /// working buffers).
    pub fn scratch(&self) -> &ScratchArena {
        &self.scratch
    }

    /// Number of persistent worker threads this device has spawned: 0 before
    /// the first pooled launch, one less than the backend's worker count
    /// afterwards (the launching thread is the launch's other thread) —
    /// never more, no matter how many launches run.
    pub fn worker_threads_spawned(&self) -> usize {
        self.pool.get().map(WorkerPool::workers).unwrap_or(0)
    }

    /// Launches a kernel over `grid` logical threads and blocks until every
    /// thread has finished (the implicit barrier at the end of a CUDA launch
    /// on the default stream).  Concurrent *pooled* launches on one device
    /// serialize on the pool, like work on the default stream; launches that
    /// run inline (sequential backend, or grids under
    /// [`ExecutorConfig::parallel_threshold`]) execute on the calling thread
    /// and make no cross-launch ordering promise.
    ///
    /// The kernel closure is invoked once per logical thread with a
    /// [`ThreadCtx`]; it typically captures [`crate::DeviceBuffer`]
    /// references and indexes them with `ctx.global_id`.
    ///
    /// # Panics
    /// A panic in the kernel fails this launch (the payload is re-raised on
    /// the caller) but leaves the device and its worker pool usable: the
    /// next launch runs normally.
    pub fn launch<F>(&self, name: &'static str, grid: usize, kernel: F) -> LaunchRecord
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        let warp = self.config.perf.warp_size;
        self.launch_inner(
            name,
            grid,
            grid,
            grid,
            &|ids| run_threads(ids, grid, warp, &kernel),
            false,
        )
    }

    /// Launches a kernel as the **fused tail** of the immediately preceding
    /// launch of the same `name`: the threads run exactly like
    /// [`VirtualGpu::launch`], but the modelled cost omits the per-launch
    /// overhead and the statistics fold the work into the preceding kernel's
    /// row without counting a new launch (only
    /// [`crate::KernelStats::fused_tails`] is bumped).
    ///
    /// This models the CUDA last-block-done idiom: the final thread block of
    /// a kernel detects a condition (e.g. "the append queue stayed empty")
    /// and performs an epilogue sweep inside the same kernel, so no second
    /// launch and no second 7 µs of driver latency exist on the device.
    pub fn launch_fused<F>(&self, name: &'static str, grid: usize, kernel: F) -> LaunchRecord
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        let warp = self.config.perf.warp_size;
        self.launch_inner(
            name,
            grid,
            grid,
            grid,
            &|ids| run_threads(ids, grid, warp, &kernel),
            true,
        )
    }

    /// Launches `kernel` as a launch of `grid` threads of which only the
    /// `count` members set in the bitmap `members` (bit `id % 64` of word
    /// `id / 64`, each id below `grid`; words from `grid.div_ceil(64)` on
    /// are not read) run on the host, in increasing id order.  The launch is
    /// recorded exactly as the full grid in which every other thread
    /// reported one work unit and nothing else — the stamp-reading threads
    /// of a dense frontier scan, the empty slots of a slot list — so its
    /// record, price and statistics equal those of the full-grid launch
    /// whose non-member threads behave that way.  Only the host's choice
    /// between running inline and on the pool looks at `count`; the pooled
    /// price (the chunk cursor's claims) follows `grid`.
    ///
    /// Each word is read once, just before its members run, so a member may
    /// clear its own bit during the launch without changing which threads
    /// run.
    pub(crate) fn launch_members<F>(
        &self,
        name: &'static str,
        grid: usize,
        members: &DeviceBuffer<u64>,
        count: usize,
        kernel: F,
    ) -> LaunchRecord
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        // The pool splits the bitmap's words; each word runs its set bits.
        let warp = self.config.perf.warp_size;
        let chunks = |words: Range<usize>| {
            let ids = words.flat_map(|word| {
                let mut bits = members.get(word);
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(word * 64 + bit)
                })
            });
            run_threads(ids, grid, warp, &kernel)
        };
        self.launch_inner(name, grid, grid.div_ceil(64), count, &chunks, false)
    }

    /// Opens a **persistent (megakernel) scope**: one resident launch named
    /// `name` enters the device and stays alive while `body` runs, and every
    /// launch `body` issues *on this device from this thread* is priced as a
    /// device-resident round of that grid until the scope closes.
    ///
    /// Cost-model view: entering charges one real launch of
    /// `min(domain, resident_capacity)` threads (the megakernel's single
    /// driver round-trip); each round then pays its work/atomic terms plus
    /// one [`PerfModel::global_barrier_cost_ns`] crossing *instead of*
    /// [`PerfModel::kernel_launch_overhead_ns`].  Rounds are accounted as
    /// [`crate::KernelStats::resident_rounds`] under their own kernel names;
    /// fused tails ([`VirtualGpu::launch_fused`]) still fuse (same round, no
    /// extra barrier).
    ///
    /// Execution view: nothing changes.  Every round executes exactly like a
    /// launch-per-round launch — inline below
    /// [`ExecutorConfig::parallel_threshold`], otherwise on the device's
    /// pool — so kernels, memory images and counters are identical in both
    /// modes; only the price differs.
    ///
    /// # Panics
    /// Panics if a resident scope is already open on this thread.  A panic
    /// inside `body` (host code or kernel) closes the scope cleanly.
    pub fn resident<R>(&self, name: &'static str, domain: usize, body: impl FnOnce() -> R) -> R {
        let participants = domain.clamp(1, self.config.perf.resident_capacity());
        let _guard = ResidentScopeGuard::enter(ResidentScope {
            device: self as *const VirtualGpu as usize,
            participants,
        });
        // The megakernel's one driver round-trip: a real launch of the
        // resident grid, with no work yet (the rounds report their own).
        let entry = LaunchRecord {
            threads: participants,
            work: 0,
            max_thread_work: 0,
            atomics: 0,
            hot_word_atomics: 0,
            modelled_time_ns: self.config.perf.launch_cost_ns(participants, 0, 0),
            wall_time_ns: 0.0,
        };
        self.stats.lock().record(LaunchEvent { name, kind: LaunchKind::Launch, record: entry });
        body()
    }

    /// The participant count of the resident scope the calling thread has
    /// open on this device, if any.
    fn resident_participants(&self) -> Option<usize> {
        RESIDENT.with(|slot| {
            let slot = slot.borrow();
            let scope = slot.as_ref()?;
            (scope.device == self as *const VirtualGpu as usize).then_some(scope.participants)
        })
    }

    /// Runs a launch of `grid` threads whose `count` running threads are
    /// spread over `items` — inline, or on the pool (which hands `chunks`
    /// one range of `0..items` at a time) when `count` reaches the threshold
    /// — and records it as `grid` threads, the `grid − count` that did not
    /// run having reported one work unit each.
    fn launch_inner<C>(
        &self,
        name: &'static str,
        grid: usize,
        items: usize,
        count: usize,
        chunks: &C,
        fused: bool,
    ) -> LaunchRecord
    where
        C: Fn(Range<usize>) -> LaunchTotals + Sync,
    {
        let start = std::time::Instant::now();
        let executor = self.config.executor;
        // The price of a pooled launch follows the grid; where the host runs
        // it follows the threads that actually run.
        let pooled_workers = match self.config.backend {
            Backend::Parallel { workers } if workers > 1 && grid >= executor.parallel_threshold => {
                workers
            }
            _ => 0,
        };
        let mut totals = if pooled_workers > 0 && count >= executor.parallel_threshold {
            self.pool(pooled_workers).run(items, executor.chunk_size, chunks)
        } else {
            chunks(0..items)
        };
        let idle = (grid - count) as u64;
        if idle > 0 {
            totals.work += idle;
            totals.max_thread_work = totals.max_thread_work.max(1);
        }
        let perf = &self.config.perf;
        let max_thread_work = totals.max_thread_work + totals.max_warp_share(perf.warp_size);
        // The executor's chunk cursor is itself a contended RMW word: every
        // pooled chunk claim is one fetch_add.  Charge it through the same
        // model, deterministically (the claim count is a function of the
        // grid and the effective chunk, not of scheduling).  Inline and
        // sequential paths have no cursor, so they charge nothing and the
        // deterministic bench cells stay structurally unchanged.
        let cursor_claims = if pooled_workers > 0 {
            grid.div_ceil(crate::exec::effective_chunk(executor.chunk_size, grid, pooled_workers))
                as u64
        } else {
            0
        };
        let atomics = totals.atomics + cursor_claims;
        // The cursor lives on its own cache line, away from any kernel word,
        // so it competes for "hottest word" only with its own claim count.
        let hot_word_atomics = totals.hot_word_atomics().max(cursor_claims);
        let wall_time_ns = start.elapsed().as_nanos() as f64;
        let mut modelled_time_ns = perf.launch_cost_with_atomics_ns(
            grid,
            totals.work,
            max_thread_work,
            atomics,
            hot_word_atomics,
        );
        let (kind, barrier_ns) = match (fused, self.resident_participants()) {
            // A fused tail rides the previous launch or round: no driver
            // round-trip and no extra barrier.
            (true, _) => (LaunchKind::FusedTail, 0.0),
            // Inside a resident scope a launch is a round of the persistent
            // grid: a barrier crossing replaces the driver round-trip.
            (false, Some(participants)) => {
                (LaunchKind::ResidentRound, perf.global_barrier_cost_ns(participants))
            }
            (false, None) => (LaunchKind::Launch, 0.0),
        };
        if kind != LaunchKind::Launch {
            modelled_time_ns =
                (modelled_time_ns - perf.kernel_launch_overhead_ns).max(0.0) + barrier_ns;
        }
        let record = LaunchRecord {
            threads: grid,
            work: totals.work,
            max_thread_work,
            atomics,
            hot_word_atomics,
            modelled_time_ns,
            wall_time_ns,
        };
        self.stats.lock().record(LaunchEvent { name, kind, record });
        record
    }

    /// The persistent pool, spawned on first use and reused afterwards.
    fn pool(&self, workers: usize) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::spawn_tagged(workers, self.config.executor.pool_tag))
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats.lock().snapshot()
    }

    /// Marks the start of a measured window, such as one solve, for
    /// [`VirtualGpu::stats_since`].  A device keeps one window: a later mark
    /// restarts the largest-grid and largest-thread-work records of an
    /// earlier one.
    pub fn stats_mark(&self) -> StatsMark {
        let mut accum = self.stats.lock();
        let base = accum.snapshot();
        accum.maxima_since_mark.clear();
        StatsMark { base }
    }

    /// The statistics of the launches recorded since `mark`: every counter
    /// is its growth since the mark, and each kernel's
    /// [`max_grid`](crate::KernelStats::max_grid) and
    /// [`max_thread_work`](crate::KernelStats::max_thread_work) are the
    /// largest grid and per-thread work of its launches since.  Kernels that
    /// recorded nothing since are left out.
    pub fn stats_since(&self, mark: &StatsMark) -> DeviceStats {
        let mut accum = self.stats.lock();
        let mut stats = accum.snapshot();
        for (name, k) in &mut stats.kernels {
            if let Some(b) = mark.base.kernels.get(name) {
                k.launches -= b.launches;
                k.fused_tails -= b.fused_tails;
                k.resident_rounds -= b.resident_rounds;
                k.total_threads -= b.total_threads;
                k.total_work -= b.total_work;
                k.total_atomics -= b.total_atomics;
                k.hot_word_atomics -= b.hot_word_atomics;
                k.modelled_time_ns -= b.modelled_time_ns;
                k.wall_time_ns -= b.wall_time_ns;
            }
            let maxima = accum.maxima_since_mark.get(name.as_str()).copied().unwrap_or_default();
            k.max_grid = maxima.grid;
            k.max_thread_work = maxima.thread_work;
        }
        stats.kernels.retain(|_, k| k.launches > 0 || k.fused_tails > 0 || k.resident_rounds > 0);
        stats
    }

    /// Clears the accumulated statistics.
    pub fn reset_stats(&self) {
        self.stats.lock().reset();
    }
}

/// The one thread loop of every launch, inline or one pooled chunk at a
/// time: runs logical threads `ids` of a `grid`-sized launch on a device of
/// `warp_size` lanes per warp and returns their aggregated [`LaunchTotals`].  The chunk's threads share one
/// context, zeroed between them; a kernel cannot keep the reference, so
/// each thread still sees a fresh one.
pub(crate) fn run_threads<F>(
    ids: impl Iterator<Item = usize>,
    grid: usize,
    warp_size: usize,
    kernel: &F,
) -> LaunchTotals
where
    F: Fn(&ThreadCtx) + ?Sized,
{
    let mut totals = LaunchTotals::default();
    let mut ctx = ThreadCtx::new(0, grid, warp_size);
    for id in ids {
        ctx.global_id = id;
        kernel(&ctx);
        totals.absorb_thread(&ctx);
    }
    totals
}

impl std::fmt::Debug for VirtualGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualGpu")
            .field("name", &self.config.name)
            .field("backend", &self.config.backend)
            .field("executor", &self.config.executor)
            .field("workers_spawned", &self.worker_threads_spawned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;

    /// A parallel device whose pool engages even for small test grids.
    fn pooled(workers: usize, threshold: usize, chunk: usize) -> VirtualGpu {
        VirtualGpu::new(GpuConfig::tesla_c2050(Backend::Parallel { workers }).with_executor(
            ExecutorConfig {
                parallel_threshold: threshold,
                chunk_size: chunk,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn launch_runs_every_thread_exactly_once() {
        for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel(), pooled(3, 16, 64)] {
            let out = DeviceBuffer::<u32>::new(10_000, 0);
            gpu.launch("mark", out.len(), |ctx| {
                out.set(ctx.global_id, ctx.global_id as u32 + 1);
            });
            let host = out.to_vec();
            for (i, v) in host.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1);
            }
        }
    }

    #[test]
    fn zero_grid_launch_is_fine() {
        let gpu = VirtualGpu::parallel();
        let rec = gpu.launch("empty", 0, |_ctx| panic!("no threads should run"));
        assert_eq!(rec.threads, 0);
        assert_eq!(rec.work, 0);
        assert_eq!(gpu.stats().launches_of("empty"), 1);
    }

    #[test]
    fn work_accounting_sums_and_maxes() {
        let gpu = VirtualGpu::sequential();
        let rec = gpu.launch("work", 4, |ctx| {
            ctx.add_work(ctx.global_id as u64);
            assert_eq!(ctx.work(), ctx.global_id as u64);
        });
        // Work accumulated across thread ids 0..4.
        assert_eq!(rec.work, 1 + 2 + 3);
        assert_eq!(rec.max_thread_work, 3);
        assert!(rec.modelled_time_ns > 0.0);
    }

    #[test]
    fn work_accounting_agrees_across_execution_strategies() {
        let grid = 50_000;
        let kernel = |ctx: &ThreadCtx| ctx.add_work((ctx.global_id % 97) as u64);
        let strategies = [VirtualGpu::sequential(), pooled(4, 8, 128)];
        let records: Vec<LaunchRecord> =
            strategies.iter().map(|gpu| gpu.launch("acct", grid, kernel)).collect();
        for rec in &records {
            assert_eq!(rec.work, records[0].work);
            assert_eq!(rec.max_thread_work, records[0].max_thread_work);
        }
    }

    #[test]
    fn a_gathered_list_charges_its_warp_a_share_not_its_thread_the_list() {
        let gpu = VirtualGpu::sequential();
        let own = |ctx: &ThreadCtx| ctx.add_work(1 + ctx.global_id as u64 % 4);
        let per_entry = gpu.launch("entries", 64, |ctx| {
            own(ctx);
            if ctx.global_id == 5 {
                (0..1000).for_each(|_| ctx.add_work(1));
            }
        });
        let gathered = gpu.launch("gather", 64, |ctx| {
            own(ctx);
            if ctx.global_id == 5 {
                ctx.add_gather(1000);
            }
        });
        assert_eq!(gathered.work, per_entry.work);
        assert_eq!(per_entry.max_thread_work, 1002);
        // The largest own work (4) plus the warp's share, ⌈1000 / 32⌉.
        assert_eq!(gathered.max_thread_work, 4 + 1000u64.div_ceil(32));
        assert!(gathered.modelled_time_ns < per_entry.modelled_time_ns);
        let perf = gpu.config().perf;
        assert_eq!(gathered.modelled_time_ns, perf.launch_cost_ns(64, gathered.work, 36));
        assert_eq!(gpu.stats().kernels["gather"].max_thread_work, 36);
    }

    #[test]
    fn lanes_of_one_warp_add_their_shares_and_lanes_of_two_do_not() {
        let gpu = VirtualGpu::sequential();
        let lanes = |a: usize, b: usize| {
            move |ctx: &ThreadCtx| {
                if ctx.global_id == a || ctx.global_id == b {
                    ctx.add_gather(100);
                }
            }
        };
        // Lanes 3 and 17 of warp 0: one share of ⌈200 / 32⌉.
        let same = gpu.launch("same", 64, lanes(3, 17));
        assert_eq!((same.work, same.max_thread_work), (200, 7));
        // Lanes 3 and 35 sit in warps 0 and 1: a share of ⌈100 / 32⌉ each.
        let apart = gpu.launch("apart", 64, lanes(3, 35));
        assert_eq!((apart.work, apart.max_thread_work), (200, 4));
    }

    #[test]
    fn a_list_no_longer_than_a_warp_prices_like_add_work() {
        let gpu = VirtualGpu::sequential();
        for len in [0, 1, 31, 32] {
            let gather =
                gpu.launch("gather", 100, |ctx| ctx.add_gather(len * (ctx.global_id as u64 % 2)));
            let work =
                gpu.launch("work", 100, |ctx| ctx.add_work(len * (ctx.global_id as u64 % 2)));
            assert_eq!(
                (gather.work, gather.max_thread_work),
                (work.work, work.max_thread_work),
                "{len}"
            );
            assert_eq!(gather.modelled_time_ns.to_bits(), work.modelled_time_ns.to_bits(), "{len}");
        }
        let longer =
            gpu.launch("gather", 100, |ctx| ctx.add_gather(33 * (ctx.global_id as u64 % 2)));
        // 33 entries are a warp's gather: each warp's 16 odd lanes share
        // ⌈16 × 33 / 32⌉ steps.
        assert_eq!((longer.work, longer.max_thread_work), (50 * 33, 17));
    }

    #[test]
    fn warp_shares_agree_across_sequential_and_pooled_chunks_that_split_warps() {
        let grid = 1000;
        let kernel = |ctx: &ThreadCtx| {
            let id = ctx.global_id as u64;
            ctx.add_work(1);
            ctx.add_gather(if id.is_multiple_of(7) { 33 + id % 300 } else { id % 33 });
        };
        let seq = VirtualGpu::sequential().launch("mix", grid, kernel);
        assert!(seq.max_thread_work > 33, "some warp gathered: {}", seq.max_thread_work);
        for chunk in [8, 24] {
            let workers = 3;
            let gpu = pooled(workers, 1, chunk);
            let rec = gpu.launch("mix", grid, kernel);
            assert_eq!(
                (rec.threads, rec.work, rec.max_thread_work),
                (seq.threads, seq.work, seq.max_thread_work),
                "chunk {chunk}"
            );
            let claims = grid.div_ceil(crate::exec::effective_chunk(chunk, grid, workers)) as u64;
            assert_eq!((rec.atomics, rec.hot_word_atomics), (claims, claims), "chunk {chunk}");
            let perf = gpu.config().perf;
            let cursor_ns = claims as f64 * (perf.atomic_cost_ns + perf.hot_word_serialization_ns);
            let gap = rec.modelled_time_ns - seq.modelled_time_ns - cursor_ns;
            assert!(gap.abs() < 1e-6, "chunk {chunk}: {gap}");
        }
    }

    #[test]
    fn merged_totals_sum_a_split_warp_before_sharing() {
        // Two workers' totals, each holding a part of warp 2, merged in the
        // order the workers finished.
        let mut a = LaunchTotals { warp_gathers: vec![(2, 40), (5, 10)], ..Default::default() };
        let b = LaunchTotals { warp_gathers: vec![(0, 10), (2, 30)], ..Default::default() };
        a.merge(&b);
        assert_eq!(a.max_warp_share(32), 70u64.div_ceil(32));
        assert_eq!(LaunchTotals::default().max_warp_share(32), 0);
    }

    #[test]
    fn parallel_backend_covers_all_threads_above_threshold() {
        let gpu = pooled(4, 8, 1024);
        let grid = 100_000;
        let out = DeviceBuffer::<u32>::new(grid, 0);
        gpu.launch("cover", grid, |ctx| out.set(ctx.global_id, 1));
        assert_eq!(out.to_vec().iter().map(|&v| v as usize).sum::<usize>(), grid);
        // Four launch threads: the launcher and three pool workers.
        assert_eq!(gpu.worker_threads_spawned(), 3);
    }

    #[test]
    fn stats_accumulate_across_launches_and_reset() {
        let gpu = VirtualGpu::sequential();
        gpu.launch("a", 10, |_| {});
        gpu.launch("a", 20, |_| {});
        gpu.launch("b", 5, |ctx| ctx.add_work(2));
        let s = gpu.stats();
        assert_eq!(s.total_launches(), 3);
        assert_eq!(s.launches_of("a"), 2);
        assert_eq!(s.kernels["a"].total_threads, 30);
        assert_eq!(s.kernels["b"].total_work, 10);
        assert!(s.modelled_time_secs() > 0.0);
        gpu.reset_stats();
        assert_eq!(gpu.stats().total_launches(), 0);
    }

    #[test]
    fn deferred_stats_survive_the_flush_boundary() {
        // More launches than the pending-queue flush threshold: snapshots
        // must see every one of them exactly once.
        let gpu = VirtualGpu::sequential();
        let launches = StatsAccum::FLUSH_AT * 2 + 17;
        for _ in 0..launches {
            gpu.launch("flush_me", 3, |ctx| ctx.add_work(1));
        }
        let s = gpu.stats();
        assert_eq!(s.launches_of("flush_me"), launches as u64);
        assert_eq!(s.kernels["flush_me"].total_work, 3 * launches as u64);
        assert_eq!(gpu.stats().launches_of("flush_me"), launches as u64);
    }

    #[test]
    fn atomic_accounting_separates_hot_word_from_total() {
        let gpu = VirtualGpu::sequential();
        let tail = DeviceBuffer::<u64>::new(1, 0);
        let spread = DeviceBuffer::<u64>::new(64, 0);
        let rec = gpu.launch("atomics", 64, |ctx| {
            tail.fetch_add(0, 1);
            ctx.add_atomic(tail.word_id(0));
            spread.fetch_add(ctx.global_id, 1);
            ctx.add_atomic(spread.word_id(ctx.global_id));
        });
        // Sequential backend: no executor cursor, so the counts are exactly
        // what the kernel reported.
        assert_eq!(rec.atomics, 128);
        assert_eq!(rec.hot_word_atomics, 64);
        let s = gpu.stats();
        assert_eq!(s.kernels["atomics"].total_atomics, 128);
        assert_eq!(s.kernels["atomics"].hot_word_atomics, 64);
        // And the model charged for them.
        let base = gpu.config().perf.launch_cost_ns(64, 0, 0);
        assert!(rec.modelled_time_ns > base);
    }

    #[test]
    fn pooled_launches_charge_the_chunk_cursor() {
        let workers = 4;
        let chunk = 64;
        let grid = 10_000;
        let gpu = pooled(workers, 8, chunk);
        let rec = gpu.launch("cursor", grid, |_ctx| {});
        let claims = grid.div_ceil(crate::exec::effective_chunk(chunk, grid, workers)) as u64;
        assert!(claims > 0);
        assert_eq!(rec.atomics, claims);
        assert_eq!(rec.hot_word_atomics, claims);
        // The sequential device charges nothing for the cursor it does not
        // have, keeping deterministic runs structurally unchanged.
        let seq = VirtualGpu::sequential().launch("cursor", grid, |_ctx| {});
        assert_eq!(seq.atomics, 0);
    }

    #[test]
    fn fused_launch_skips_launch_overhead_and_launch_count() {
        let gpu = VirtualGpu::sequential();
        let normal = gpu.launch("tail", 1000, |ctx| ctx.add_work(1));
        let fused = gpu.launch_fused("tail", 1000, |ctx| ctx.add_work(1));
        let overhead = gpu.config().perf.kernel_launch_overhead_ns;
        assert!((normal.modelled_time_ns - fused.modelled_time_ns - overhead).abs() < 1e-6);
        let s = gpu.stats();
        assert_eq!(s.launches_of("tail"), 1);
        assert_eq!(s.fused_tails_of("tail"), 1);
        assert_eq!(s.kernels["tail"].total_threads, 2000);
        assert_eq!(s.kernels["tail"].total_work, 2000);
        // A fused tail cheaper than the overhead clamps at zero rather than
        // crediting time back.
        let tiny = gpu.launch_fused("tiny", 0, |_ctx| {});
        assert_eq!(tiny.modelled_time_ns, 0.0);
    }

    #[test]
    fn grid_size_is_visible_to_threads() {
        let gpu = VirtualGpu::sequential();
        gpu.launch("grid", 17, |ctx| assert_eq!(ctx.grid_size, 17));
    }

    #[test]
    fn sequential_and_parallel_agree_on_data_parallel_kernels() {
        // For kernels with disjoint writes the two backends must produce the
        // same memory image.
        let input: Vec<i64> = (0..50_000).map(|i| (i * 7919) % 1000 - 500).collect();
        let mut images = Vec::new();
        for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel(), pooled(3, 16, 256)] {
            let src = DeviceBuffer::from_slice(&input);
            let dst = DeviceBuffer::<i64>::new(input.len(), 0);
            gpu.launch("map", input.len(), |ctx| {
                let i = ctx.global_id;
                dst.set(i, src.get(i).abs() * 2);
                ctx.add_work(2);
            });
            images.push(dst.to_vec());
        }
        assert_eq!(images[0], images[1]);
        assert_eq!(images[0], images[2]);
    }

    #[test]
    fn backend_parallel_auto_has_at_least_one_worker() {
        match Backend::parallel_auto() {
            Backend::Parallel { workers } => assert!(workers >= 1),
            _ => panic!("expected parallel backend"),
        }
    }

    #[test]
    fn debug_formatting_mentions_device_name() {
        let gpu = VirtualGpu::sequential();
        let s = format!("{gpu:?}");
        assert!(s.contains("C2050"));
    }

    #[test]
    fn exec_mode_labels_round_trip() {
        for mode in ExecMode::all() {
            assert_eq!(mode.label().parse::<ExecMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(ExecMode::default(), ExecMode::LaunchPerRound);
        let err = "megakernel".parse::<ExecMode>().unwrap_err();
        assert!(err.to_string().contains("launch, resident"), "{err}");
    }

    #[test]
    fn resident_scope_turns_launches_into_rounds() {
        for gpu in [VirtualGpu::sequential(), pooled(3, 16, 64)] {
            let grid = 10_000;
            let out = DeviceBuffer::<u32>::new(grid, 0);
            let rounds = 7u32;
            gpu.resident("MEGA", grid, || {
                for _ in 0..rounds {
                    gpu.launch("STEP", grid, |ctx| {
                        out.set(ctx.global_id, out.get(ctx.global_id) + 1);
                        ctx.add_work(1);
                    });
                }
            });
            assert!(out.to_vec().iter().all(|&v| v == rounds));
            let s = gpu.stats();
            // One real launch enters the megakernel; the rounds are
            // barrier crossings, not launches.
            assert_eq!(s.total_launches(), 1);
            assert_eq!(s.launches_of("MEGA"), 1);
            assert_eq!(s.launches_of("STEP"), 0);
            assert_eq!(s.resident_rounds_of("STEP"), u64::from(rounds));
            assert_eq!(s.total_barriers(), u64::from(rounds));
            assert_eq!(s.kernels["STEP"].total_work, u64::from(rounds) * grid as u64);
        }
    }

    #[test]
    fn resident_rounds_price_barriers_instead_of_launches() {
        // A round executes where its launch-per-round twin does — inline
        // below the threshold, on the pool above it — so its counters (the
        // pool's chunk-cursor claims included) are the launch's, and only
        // the overhead term is swapped for a barrier crossing.
        let devices =
            [(VirtualGpu::sequential(), 1000), (pooled(3, 16, 64), 8), (pooled(3, 16, 64), 10_000)];
        for (gpu, grid) in devices {
            let launch = gpu.launch("lpr", grid, |ctx| ctx.add_work(1));
            let round =
                gpu.resident("scope", grid, || gpu.launch("res", grid, |ctx| ctx.add_work(1)));
            assert_eq!(
                (round.work, round.atomics, round.hot_word_atomics),
                (launch.work, launch.atomics, launch.hot_word_atomics),
                "grid {grid}"
            );
            let perf = gpu.config().perf;
            let participants = grid.clamp(1, perf.resident_capacity());
            let expected = launch.modelled_time_ns - perf.kernel_launch_overhead_ns
                + perf.global_barrier_cost_ns(participants);
            let cost = round.modelled_time_ns;
            assert!((cost - expected).abs() < 1e-6, "grid {grid}: {cost} vs {expected}");
            // The entry launch is priced as a real launch of the resident grid.
            let entry = gpu.stats().kernels["scope"].modelled_time_ns;
            assert_eq!(entry, perf.launch_cost_ns(participants, 0, 0), "grid {grid}");
        }
    }

    #[test]
    fn fused_tails_inside_a_resident_scope_stay_fused() {
        let gpu = VirtualGpu::sequential();
        gpu.resident("scope", 500, || {
            gpu.launch("host_kernel", 500, |ctx| ctx.add_work(1));
            let rec = gpu.launch_fused("tail", 500, |ctx| ctx.add_work(1));
            // No launch overhead and no *extra* barrier: the tail rides its
            // host kernel's round.
            let work_only = gpu.config().perf.launch_cost_ns(500, 500, 1)
                - gpu.config().perf.kernel_launch_overhead_ns;
            assert!((rec.modelled_time_ns - work_only).abs() < 1e-6);
        });
        let s = gpu.stats();
        assert_eq!(s.fused_tails_of("tail"), 1);
        assert_eq!(s.resident_rounds_of("tail"), 0);
        assert_eq!(s.resident_rounds_of("host_kernel"), 1);
    }

    #[test]
    fn resident_participants_clamp_to_device_capacity() {
        let gpu = VirtualGpu::sequential();
        let cap = gpu.config().perf.resident_capacity();
        gpu.resident("huge", 10 * cap, || {});
        gpu.resident("tiny", 0, || {});
        let s = gpu.stats();
        assert_eq!(s.kernels["huge"].max_grid, cap as u64);
        assert_eq!(s.kernels["tiny"].max_grid, 1);
    }

    #[test]
    fn launches_on_other_devices_ignore_the_scope() {
        let a = VirtualGpu::sequential();
        let b = VirtualGpu::sequential();
        a.resident("scope", 100, || {
            b.launch("other", 100, |_| {});
        });
        assert_eq!(b.stats().launches_of("other"), 1);
        assert_eq!(b.stats().total_resident_rounds(), 0);
        assert_eq!(a.stats().resident_rounds_of("other"), 0);
    }

    #[test]
    fn resident_scope_results_match_launch_per_round() {
        // The same kernel sequence produces identical memory images and
        // work counters under both execution modes, on both backends.
        let grid = 30_000;
        let mut images = Vec::new();
        for resident in [false, true] {
            for gpu in [VirtualGpu::sequential(), pooled(4, 8, 128)] {
                let data = DeviceBuffer::<u64>::new(grid, 1);
                let run = || {
                    for shift in 0..4u64 {
                        gpu.launch("STEP", grid, |ctx| {
                            let v = data.get(ctx.global_id);
                            data.set(ctx.global_id, v + (ctx.global_id as u64 >> shift));
                            ctx.add_work(1 + shift);
                        });
                    }
                };
                if resident {
                    gpu.resident("scope", grid, run);
                } else {
                    run();
                }
                let stats = gpu.stats();
                assert_eq!(stats.kernels["STEP"].total_work, grid as u64 * (1 + 2 + 3 + 4));
                images.push(data.to_vec());
            }
        }
        for image in &images[1..] {
            assert_eq!(image, &images[0]);
        }
    }

    #[test]
    fn panicking_kernel_inside_resident_scope_leaves_device_usable() {
        let gpu = pooled(3, 8, 64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.resident("scope", 1000, || {
                gpu.launch("ok", 1000, |_| {});
                gpu.launch("boom", 1000, |ctx| {
                    if ctx.global_id == 500 {
                        panic!("resident kernel panic");
                    }
                });
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"resident kernel panic"));
        // Scope unwound: both resident state and the pool are clean.
        let out = DeviceBuffer::<u32>::new(1000, 0);
        gpu.launch("after", 1000, |ctx| out.set(ctx.global_id, 1));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 1000);
        assert_eq!(gpu.stats().launches_of("after"), 1);
    }

    #[test]
    fn host_panic_inside_a_resident_scope_closes_it() {
        // Host code failing between rounds unwinds through the scope: the
        // thread-local slot is cleared, so later launches are priced as
        // launches again and a new scope can open.
        let gpu = pooled(2, 8, 64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.resident("scope", 64, || {
                gpu.launch("round", 64, |_| {});
                panic!("host-side failure");
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"host-side failure"));
        gpu.launch("after", 100, |_| {});
        gpu.resident("again", 64, || gpu.launch("round", 64, |_| {}));
        let s = gpu.stats();
        assert_eq!(s.launches_of("after"), 1);
        assert_eq!(s.resident_rounds_of("round"), 2);
    }

    #[test]
    #[should_panic(expected = "nested VirtualGpu::resident")]
    fn nested_resident_scopes_panic() {
        let gpu = VirtualGpu::sequential();
        gpu.resident("outer", 10, || {
            gpu.resident("inner", 10, || {});
        });
    }
}
