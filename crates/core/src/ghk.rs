//! G-HK and G-HKDW — the GPU augmenting-path baselines.
//!
//! The paper compares G-PR against the authors' earlier GPU implementations
//! of Hopcroft–Karp (G-HK) and its Duff–Wiberg variant (G-HKDW).  Those
//! codes locate shortest augmenting paths with level-synchronous BFS kernels
//! and then augment along a maximal set of vertex-disjoint paths with
//! DFS-based searches restricted to the BFS layers.
//!
//! The reproduction keeps the same kernel structure on the virtual GPU:
//!
//! * `G-HK-BFS-KRNL` — one launch per BFS level, one thread per column,
//!   labelling columns with their layer (like `G-GR-KRNL` but rooted at the
//!   unmatched *columns*); a frontier column whose adjacency list is longer
//!   than a warp has it gathered by its whole warp (see below);
//! * `G-HK-DFS-KRNL` — one thread per unmatched column builds a tentative
//!   level-respecting augmenting path; a thread that finds one appends it,
//!   tagged with its thread id, to the kernel's found-path list;
//! * a commit pass applies the tentative paths in increasing thread id,
//!   skipping any path that conflicts with one already committed in this
//!   phase (those columns are simply retried in the next phase).  The
//!   commit is executed on the host because it is inherently sequential,
//!   but it is charged to the cost model as a kernel (`G-HK-COMMIT`) whose
//!   work is the total committed path length, so modelled device time
//!   accounts for it.
//! * G-HKDW adds an extra sweep (`G-HKDW-DW-KRNL`) that builds unrestricted
//!   augmenting paths from the remaining unmatched *rows* before the next
//!   BFS, mirroring HKDW's extra DFS set.  Its paths go through the same
//!   commit, uncharged, as in the original codes.  It runs only while it
//!   pays (see below).
//!
//! # Deviations from the original codes
//!
//! * *The host-side commit.*  The original G-HK/G-HKDW resolve conflicting
//!   tentative paths on the device with re-traversals whose cost is of the
//!   same order as the committed path length that `G-HK-COMMIT` charges.
//! * *The warp gather in `G-HK-BFS-KRNL`.*  The original BFS kernel walks a
//!   column's whole list in its one thread, so on a skewed graph one hub
//!   column per level sets the level's critical path while most threads
//!   read a stamp and exit (kron_g500-logn20's column lists reach 1,492
//!   entries at Small scale, coPapersDBLP's 1,840).  Here a list longer
//!   than a warp is gathered by the column's whole warp, the lanes striding
//!   through it together, as Fermi-era GPU BFS does (Merrill, Garland &
//!   Grimshaw, "Scalable GPU Graph Traversal", PPoPP 2012; Hong et al.,
//!   "Accelerating CUDA Graph Algorithms at Maximum Warp", PPoPP 2011): the
//!   kernel reports it through [`gpm_gpu::ThreadCtx::add_gather`], which
//!   prices it as ⌈Σ gathered units of the warp / 32⌉ steps of the warp's
//!   critical path instead of the full list on one thread.  Only the price
//!   changes: the host still walks the list in the column's thread, so the
//!   pushes, their order, the layers and every matching are those of the
//!   per-thread walk, and the level's work is the same.  On the Small
//!   mini suite this cut G-HKDW's modelled time on kron_g500-logn20 from
//!   53.3 to 24.8 ms and on coPapersDBLP from 17.3 to 3.9 ms.
//!
//! # When G-HKDW sweeps
//!
//! G-HKDW follows an HK phase with a Duff–Wiberg sweep only while the
//! previous sweep of the same solve committed at least one path: the first
//! sweep that commits none ends the sweeps for the rest of the solve.  The
//! HK phases alone end at a maximum matching, so the rule changes only how
//! many sweeps a solve pays for.  It holds for every worklist, execution
//! mode and backend; the committed count is deterministic on pooled devices
//! too (the commit applies paths in thread order), so every backend makes
//! the same choice.
//!
//! The sweep gives each free row its own depth-first search, which gives up
//! at 64 frames, and on skewed graphs the threads that give up carry nearly
//! all of its work.  With a sweep after every phase, on the Small stand-ins
//! of the mini suite on a sequential device:
//!
//! * kron_g500-logn20's sweeps committed no path in any of its 24 phases
//!   (the CPU reference HKDW's sweep finds 94) yet cost 13.5 of the solve's
//!   65.3 modelled ms and about two thirds of its host time;
//! * amazon0505's 18 sweeps committed 7 paths, all in the first two;
//! * on 7 of the 8 families, every sweep after the first empty one was
//!   empty too.
//!
//! The early sweeps that do pay are kept: hugetrace-00000's first four
//! sweeps commit 192 paths and its last twelve none.  Under the rule the
//! suite's sweeps fall from 107 to 22.  The CPU reference HKDW
//! (`gpm_cpu::hkdw`) still sweeps after every phase.
//!
//! # Per-thread scratch
//!
//! Both path kernels run a private DFS per virtual thread.  Its working
//! memory — the DFS stack and, for the Duff–Wiberg sweep, the set of
//! columns this thread has visited — lives in a `thread_local!` scratch of
//! the OS thread executing the virtual thread, so a thread allocates
//! nothing and tests a column's visited mark in O(1).  The marks are
//! `gpm_cpu::EpochMarks`, the CPU baselines' visited marks: each virtual
//! thread starts an empty set by advancing the epoch, and the stamps are
//! cleared only when the `u32` epoch wraps.  An OS thread keeps 4 bytes per
//! column of the largest graph it has swept, plus stacks as deep as its
//! longest path, for as long as it lives.
//!
//! A virtual thread runs start to finish on one OS thread under every
//! backend and execution mode, so "visited by this thread" keeps its
//! meaning.  The marks are deliberately *not* a shared device buffer: on a
//! pooled device another thread could overwrite a mark, the sweep would
//! re-enter a column already on its stack, and the committed path would
//! match that column twice.
//!
//! # Found paths
//!
//! A path kernel's threads hand their paths to the commit through one host
//! list, the found-path list of [`GhkWorkspace`]: a thread that finds a
//! path appends it, tagged with its thread id, under a lock; a thread that
//! finds none writes nothing.  Like the `PathScratch` stacks, the list lives
//! on the host and is not charged to the cost model.  The threads of a
//! pooled launch finish in any order, so the commit sorts the list by
//! thread id and applies the paths in the order of the thread grid, which
//! keeps every sequential-device result identical to per-thread slots read
//! in thread order.  The list holds the paths found — two words per pair
//! and a tag per path — not a slot of `2·depth+2` words for every thread:
//! a Duff–Wiberg sweep that finds no path keeps nothing.
//!
//! The rest of the phase's host-side memory is recycled through the
//! workspace too: the DFS dead-end flags, the kernels' root lists and the
//! commit's row/column marks.

use crate::device::{DeviceState, MU_UNMATCHED};
use crate::roundloop::{drive_rounds, resident_scope, RoundOutcome};
use gpm_cpu::EpochMarks;
use gpm_gpu::{
    DeviceBuffer, DeviceStats, ExecMode, StopCheck, VirtualGpu, Worklist, WorklistKernels,
    WorklistMode,
};
use gpm_graph::{BipartiteCsr, Matching};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

const INF: u32 = u32::MAX;

/// Kernel names the G-HK BFS frontier worklist charges its maintenance to.
const GHK_WORKLIST_KERNELS: WorklistKernels = WorklistKernels {
    init: "G-HK-WL-INIT",
    compact_count: "G-HK-WL-COMPACT",
    compact_scatter: "G-HK-WL-SCATTER",
    refill: "G-HK-WL-REFILL",
    stitch: "G-HK-WL-STITCH",
};

/// Which GPU augmenting-path baseline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhkVariant {
    /// Plain Hopcroft–Karp phases.
    Hk,
    /// HK plus the Duff–Wiberg extra sweep from unmatched rows.
    Hkdw,
}

impl GhkVariant {
    /// Name used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GhkVariant::Hk => "G-HK",
            GhkVariant::Hkdw => "G-HKDW",
        }
    }

    /// The BFS-frontier representation the original codes hand-rolled: a
    /// dense per-level scan.  Used when no explicit mode is configured.
    pub fn default_worklist(&self) -> WorklistMode {
        WorklistMode::DenseStamp
    }
}

/// Counters and outcome of a G-HK / G-HKDW run.
#[derive(Clone, Debug, Default)]
pub struct GhkRunStats {
    /// Variant label.
    pub variant: &'static str,
    /// Number of BFS phases executed.
    pub phases: u64,
    /// Number of augmenting paths applied.
    pub augmentations: u64,
    /// Number of tentative paths discarded because of conflicts.
    pub conflicts: u64,
    /// Total atomic read-modify-write operations charged during this run
    /// (queue-tail claims plus the executor's chunk-cursor claims).
    pub atomics: u64,
    /// Device statistics for this run.
    pub device: DeviceStats,
    /// Host wall-clock time, seconds.
    pub seconds: f64,
    /// `true` when the run was stopped early by its
    /// [`gpm_gpu::StopCheck`] (cancellation or deadline): the matching is a
    /// consistent partial matching, not necessarily maximum.
    pub stopped: bool,
}

/// Result of a G-HK / G-HKDW run.
#[derive(Clone, Debug)]
pub struct GhkResult {
    /// The maximum matching.
    pub matching: Matching,
    /// Run statistics.
    pub stats: GhkRunStats,
}

/// Reusable G-HK/G-HKDW working memory: the device matching/label state,
/// the per-phase BFS level array and DFS dead-end flags, and the path
/// kernels' roots, found-path list and commit marks.  Warm solver sessions
/// reuse it across solves; the path memory is reused across every phase of
/// a solve.
#[derive(Debug, Default)]
pub struct GhkWorkspace {
    state: Option<DeviceState>,
    dist_col: Option<DeviceBuffer<u32>>,
    dead: Option<DeviceBuffer<bool>>,
    /// Roots of the current path kernel, one per thread.
    roots: Vec<usize>,
    /// The paths the current path kernel found (see the module docs).
    found: Mutex<FoundPaths>,
    commit: Commit,
}

impl GhkWorkspace {
    /// A fresh (cold) workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the workspace's buffers are shaped for this graph (its
    /// last solve had this shape).  A solve of any other shape reuses the
    /// same buffers too, reshaped, and allocates only to grow past the
    /// largest graph they have held.
    pub fn is_warm_for(&self, graph: &BipartiteCsr) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.num_rows() == graph.num_rows() && s.num_cols() == graph.num_cols())
    }
}

/// Configuration of a G-HK / G-HKDW run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhkConfig {
    /// Which baseline to run.
    pub variant: GhkVariant,
    /// How the BFS frontier is represented on the device (see
    /// [`WorklistMode`]); all representations locate the same shortest
    /// augmenting paths.
    pub worklist: WorklistMode,
    /// How the phase loop is priced.  Under [`ExecMode::Persistent`] the
    /// whole loop — BFS levels, DFS kernels, commit charges, and the
    /// Duff–Wiberg sweep — executes inside one
    /// [`gpm_gpu::VirtualGpu::resident`] scope, so every per-phase kernel is
    /// priced as a global-barrier crossing instead of a fresh launch.
    pub exec: ExecMode,
}

impl GhkConfig {
    /// `variant` with its default dense BFS frontier, one kernel launch per
    /// round.
    pub fn new(variant: GhkVariant) -> Self {
        Self { variant, worklist: variant.default_worklist(), exec: ExecMode::LaunchPerRound }
    }

    /// Same configuration but with an explicit BFS-frontier representation.
    pub fn with_worklist(mut self, worklist: WorklistMode) -> Self {
        self.worklist = worklist;
        self
    }

    /// Same configuration but with an explicit execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

/// Runs G-HK or G-HKDW on the virtual GPU, starting from `initial`, reusing
/// `workspace` buffers from previous solves whatever the graph's shape
/// (pass a fresh [`GhkWorkspace`] for a cold run).
///
/// `stop` is polled at every phase and between BFS levels.  G-HK keeps µ
/// consistent at all times, so a stopped run simply downloads the matching
/// as it stands and returns with [`GhkRunStats::stopped`] set.
pub fn run(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GhkConfig,
    workspace: &mut GhkWorkspace,
    stop: &StopCheck,
) -> GhkResult {
    let GhkConfig { variant, worklist: mode, exec } = config;
    let start = std::time::Instant::now();
    let mark = gpu.stats_mark();
    let GhkWorkspace {
        state: state_slot,
        dist_col: dist_slot,
        dead: dead_slot,
        roots,
        found,
        commit,
    } = workspace;
    let state = DeviceState::upload_into(state_slot, graph, initial);
    let mut stats = GhkRunStats { variant: variant.label(), ..Default::default() };

    let n = graph.num_cols();
    let m = graph.num_rows();
    let dist_col = DeviceBuffer::recycle(dist_slot, n, INF);
    let found_free_row = DeviceBuffer::<bool>::new(1, false);
    // The BFS frontier (columns at the current layer) is worklist-managed;
    // the layer array itself stays algorithm state, feeding the DFS.
    let mut frontier = Worklist::new(gpu, mode, n, GHK_WORKLIST_KERNELS);

    // G-HKDW sweeps until its first sweep that commits no path (see
    // `dw_sweep`); G-HK never does.
    let mut sweeping = variant == GhkVariant::Hkdw;

    let resident = resident_scope(exec, "G-HK-RESIDENT", n.max(m));
    stats.stopped = drive_rounds(gpu, resident, stop, || {
        // ---- BFS phase (level-synchronous kernels over columns) ----
        gpu.launch("G-HK-BFS-INIT", n, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            let level = if state.mu_col.get(v) == MU_UNMATCHED { 0 } else { INF };
            dist_col.set(v, level);
        });
        roots.clear();
        roots.extend((0..n).filter(|&v| state.mu_col.get(v) == MU_UNMATCHED));
        frontier.seed(roots.iter().copied());
        found_free_row.set(0, false);
        let mut level = 0u32;
        // The inner level loop shares the driver (and under a persistent
        // launch, the ambient resident scope — hence no scope of its own).
        let bfs_stopped = drive_rounds(gpu, None, stop, || {
            frontier.for_each_frontier("G-HK-BFS-KRNL", |ctx, v, frontier| {
                // A list longer than a warp is the warp's to gather (see the
                // module docs); the host still walks it here, in order.
                let neighbors = graph.col_neighbors(v as u32);
                ctx.add_gather(neighbors.len() as u64);
                for &u in neighbors {
                    let mate = state.mu_row.get(u as usize);
                    if mate == MU_UNMATCHED {
                        found_free_row.set(0, true);
                    } else {
                        let w = mate as usize;
                        if dist_col.get(w) == INF {
                            dist_col.set(w, level + 1);
                            frontier.push(ctx, w);
                        }
                    }
                }
            });
            if found_free_row.get(0) || !frontier.advance_frontier() {
                return RoundOutcome::Done;
            }
            level += 1;
            RoundOutcome::Continue
        });
        if bfs_stopped {
            return RoundOutcome::Stopped;
        }
        if !found_free_row.get(0) {
            return RoundOutcome::Done; // no augmenting path: maximum reached
        }
        stats.phases += 1;

        // ---- DFS kernel: tentative level-respecting paths ----
        let dead = DeviceBuffer::recycle(dead_slot, n, false);
        build_paths_kernel(gpu, graph, state, dist_col, dead, roots, found);

        // ---- Commit pass ----
        let (applied, conflicts, committed_work) = commit.apply(state, found);
        #[cfg(test)]
        tests::record_commit("G-HK-DFS-KRNL", found, applied);
        gpu.launch("G-HK-COMMIT", applied.max(1), |ctx| {
            // The commit's cost is proportional to the total committed path
            // length; charge it to the thread representing each applied path.
            if ctx.global_id == 0 {
                ctx.add_work(committed_work);
            }
        });
        stats.augmentations += applied as u64;
        stats.conflicts += conflicts as u64;

        // ---- Duff–Wiberg extra sweep from unmatched rows, while it pays ----
        let mut progress = applied as u64;
        if sweeping {
            let extra = dw_sweep(gpu, graph, state, roots, found, commit);
            sweeping = extra > 0;
            stats.augmentations += extra;
            progress += extra;
        }

        if progress == 0 {
            // Every tentative path conflicted (which should be impossible for
            // a non-empty phase, but is guarded against so that a bug cannot
            // turn into a hang): apply a single host-side augmentation or
            // stop if none exists.
            if host_augment_one(graph, state) {
                stats.augmentations += 1;
            } else {
                return RoundOutcome::Done;
            }
        }
        RoundOutcome::Continue
    });

    // G-HK/G-HKDW keep µ consistent; download directly.
    let matching = state.download_matching();
    let run_device = gpu.stats_since(&mark);
    stats.atomics = run_device.total_atomics();
    stats.device = run_device;
    stats.seconds = start.elapsed().as_secs_f64();
    GhkResult { matching, stats }
}

/// One level of a path kernel's DFS: the vertex, the index of its next
/// neighbour to try, and the neighbour it last stepped through (meaningful
/// once it has stepped).
#[derive(Clone, Copy)]
struct Frame {
    vertex: usize,
    next: usize,
    via: usize,
}

impl Frame {
    fn new(vertex: usize) -> Self {
        Self { vertex, next: 0, via: usize::MAX }
    }
}

/// What one OS thread's path-kernel threads work in (see the module docs).
#[derive(Default)]
struct PathScratch {
    frames: Vec<Frame>,
    /// Columns the current Duff–Wiberg thread has visited.
    visited: EpochMarks,
}

thread_local! {
    static SCRATCH: RefCell<PathScratch> = RefCell::new(PathScratch::default());
}

/// The paths one path kernel found, in the order their threads appended
/// them (see the module docs).
#[derive(Debug, Default)]
struct FoundPaths {
    /// Each path's thread id and the range of its pairs in `pairs`.
    paths: Vec<(usize, Range<usize>)>,
    /// The `(row, column)` pairs of every path, path after path.
    pairs: Vec<(usize, usize)>,
}

impl FoundPaths {
    /// The list emptied for a new kernel, keeping its allocations.
    fn cleared(found: &mut Mutex<FoundPaths>) -> &Mutex<FoundPaths> {
        let list = found.get_mut().unwrap_or_else(PoisonError::into_inner);
        list.paths.clear();
        list.pairs.clear();
        found
    }

    /// Appends thread `thread`'s path, taking the list's lock.
    fn append(
        found: &Mutex<FoundPaths>,
        thread: usize,
        path: impl Iterator<Item = (usize, usize)>,
    ) {
        let mut list = found.lock().unwrap_or_else(PoisonError::into_inner);
        let start = list.pairs.len();
        list.pairs.extend(path);
        let end = list.pairs.len();
        list.paths.push((thread, start..end));
    }
}

/// Runs the DFS kernel: one thread per free column in `roots` builds a
/// tentative level-respecting augmenting path and appends it to `found`
/// when it finds one.
fn build_paths_kernel(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    dist_col: &DeviceBuffer<u32>,
    dead: &DeviceBuffer<bool>,
    roots: &[usize],
    found: &mut Mutex<FoundPaths>,
) {
    let found = FoundPaths::cleared(found);
    // `dead` is the dead-end marker shared by all threads.  Whether a column
    // can reach a free row through level-increasing edges depends only on
    // (ψ levels, µ), which are constant during this kernel, so the flag is
    // thread-agnostic and the racy (unordered, same-value) writes are benign
    // — the same argument the paper makes for its own kernels.  Without it a
    // DFS on a grid-like layered graph revisits columns exponentially often.
    gpu.launch("G-HK-DFS-KRNL", roots.len(), |ctx| {
        let i = ctx.global_id;
        SCRATCH.with_borrow_mut(|PathScratch { frames, .. }| {
            // Iterative level-respecting DFS over column frames.  Levels
            // strictly increase along the stack, so no cycle check is needed.
            frames.clear();
            frames.push(Frame::new(roots[i]));
            'search: while let Some(top) = frames.len().checked_sub(1) {
                let Frame { vertex: c, next, .. } = frames[top];
                let child_level = dist_col.get(c).saturating_add(1);
                for (j, &u) in graph.col_neighbors(c as u32).iter().enumerate().skip(next) {
                    ctx.add_work(1);
                    let mate = state.mu_row.get(u as usize);
                    let free = mate == MU_UNMATCHED;
                    let w = mate as usize;
                    if free || (!dead.get(w) && dist_col.get(w) == child_level) {
                        frames[top].next = j + 1;
                        frames[top].via = u as usize;
                        if free {
                            FoundPaths::append(found, i, frames.iter().map(|f| (f.via, f.vertex)));
                            return;
                        }
                        frames.push(Frame::new(w));
                        continue 'search;
                    }
                }
                dead.set(c, true);
                frames.pop();
            }
        });
    });
}

/// Host state of the commit pass: the rows and columns matched so far in
/// this commit.
#[derive(Debug, Default)]
struct Commit {
    rows: EpochMarks,
    cols: EpochMarks,
}

impl Commit {
    /// Applies the non-conflicting paths of `found` to the device matching,
    /// in increasing thread id.  Returns (paths applied, paths discarded,
    /// total committed pairs).
    ///
    /// The tentative paths were built against the matching as it stood when
    /// their kernel ran; the only writers since then are earlier iterations
    /// of this very loop, so tracking the rows/columns they touched is
    /// sufficient to detect every conflict.
    fn apply(&mut self, state: &DeviceState, found: &mut Mutex<FoundPaths>) -> (usize, usize, u64) {
        let Commit { rows, cols } = self;
        rows.begin(state.num_rows());
        cols.begin(state.num_cols());
        let FoundPaths { paths, pairs } = found.get_mut().unwrap_or_else(PoisonError::into_inner);
        paths.sort_unstable_by_key(|&(thread, _)| thread);
        let mut applied = 0usize;
        let mut conflicts = 0usize;
        let mut committed_pairs = 0u64;
        for (_, range) in paths.iter() {
            let path = &pairs[range.clone()];
            if path.iter().any(|&(u, c)| rows.contains(u) || cols.contains(c)) {
                conflicts += 1;
                continue;
            }
            for &(u, c) in path {
                state.mu_row.set(u, c as i64);
                state.mu_col.set(c, u as i64);
                rows.insert(u);
                cols.insert(c);
            }
            committed_pairs += path.len() as u64;
            applied += 1;
        }
        (applied, conflicts, committed_pairs)
    }
}

/// The Duff–Wiberg extra sweep: one thread per unmatched row builds an
/// unrestricted alternating path toward a free column; paths are committed
/// like the HK phase's, but uncharged and with conflicts uncounted.
/// Returns the number of augmentations.
///
/// [`run`] calls it after every HK phase until a sweep returns 0, and never
/// again in that solve (see "When G-HKDW sweeps" in the module docs).
fn dw_sweep(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    roots: &mut Vec<usize>,
    found: &mut Mutex<FoundPaths>,
    commit: &mut Commit,
) -> u64 {
    let num_cols = graph.num_cols();
    roots.clear();
    roots.extend((0..graph.num_rows()).filter(|&u| state.mu_row.get(u) == MU_UNMATCHED));
    if roots.is_empty() {
        return 0;
    }
    // Tentative paths are depth-bounded to keep the sweep cheap — longer
    // paths are left for the next BFS phase.
    const MAX_DEPTH: usize = 64;
    let list = FoundPaths::cleared(found);
    let roots = &roots[..];

    gpu.launch("G-HKDW-DW-KRNL", roots.len(), |ctx| {
        let i = ctx.global_id;
        SCRATCH.with_borrow_mut(|PathScratch { frames, visited }| {
            // Iterative alternating DFS row → column → matched row …,
            // depth-bounded, entering each column at most once.
            visited.begin(num_cols);
            frames.clear();
            frames.push(Frame::new(roots[i]));
            'search: while frames.len() <= MAX_DEPTH {
                let Some(top) = frames.len().checked_sub(1) else { break };
                let Frame { vertex: r, next, .. } = frames[top];
                for (j, &c) in graph.row_neighbors(r as u32).iter().enumerate().skip(next) {
                    let c = c as usize;
                    ctx.add_work(1);
                    if !visited.insert(c) {
                        continue;
                    }
                    let mate = state.mu_col.get(c);
                    let free = mate == MU_UNMATCHED;
                    if free || (mate >= 0 && state.mu_row.get(mate as usize) == c as i64) {
                        frames[top].next = j + 1;
                        frames[top].via = c;
                        if free {
                            FoundPaths::append(list, i, frames.iter().map(|f| (f.vertex, f.via)));
                            return;
                        }
                        frames.push(Frame::new(mate as usize));
                        continue 'search;
                    }
                }
                frames.pop();
            }
        });
    });

    let applied = commit.apply(state, found).0;
    #[cfg(test)]
    tests::record_commit("G-HKDW-DW-KRNL", found, applied);
    applied as u64
}

/// Host-side single augmentation fallback used only if every tentative path
/// of a phase conflicted.  Returns `true` if an augmenting path was applied.
fn host_augment_one(graph: &BipartiteCsr, state: &DeviceState) -> bool {
    let n = graph.num_cols();
    for root in 0..n {
        if state.mu_col.get(root) != MU_UNMATCHED {
            continue;
        }
        // Plain alternating BFS with parent tracking.
        let mut parent_col_of_row: Vec<i64> = vec![-2; graph.num_rows()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut seen_cols = vec![false; n];
        seen_cols[root] = true;
        while let Some(v) = queue.pop_front() {
            for &u in graph.col_neighbors(v as u32) {
                let u = u as usize;
                if parent_col_of_row[u] != -2 {
                    continue;
                }
                parent_col_of_row[u] = v as i64;
                let mate = state.mu_row.get(u);
                if mate == MU_UNMATCHED {
                    // augment
                    let mut cur_row = u;
                    loop {
                        let via = parent_col_of_row[cur_row] as usize;
                        let next = state.mu_col.get(via);
                        state.mu_row.set(cur_row, via as i64);
                        state.mu_col.set(via, cur_row as i64);
                        if next == MU_UNMATCHED || via == root {
                            return true;
                        }
                        cur_row = next as usize;
                    }
                }
                let w = mate as usize;
                if !seen_cols[w] {
                    seen_cols[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_gpu::{Backend, ExecutorConfig, GpuConfig};
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};
    use gpm_testutil::{arb_bipartite_with, augmenting_chain};
    use proptest::prelude::*;

    type Path = Vec<(usize, usize)>;

    /// The kernel whose paths a Duff–Wiberg commit applies.
    const SWEEP: &str = "G-HKDW-DW-KRNL";

    /// One commit: the kernel whose paths it took, its tentative paths with
    /// their thread ids in the order it tried them, and how many it applied.
    #[derive(Debug, PartialEq)]
    struct CommitLog {
        kernel: &'static str,
        paths: Vec<(usize, Path)>,
        applied: usize,
    }

    thread_local! {
        /// Every commit run on this thread while a [`recording`] is open.
        static TENTATIVE: RefCell<Option<Vec<CommitLog>>> = const { RefCell::new(None) };
    }

    pub(super) fn record_commit(
        kernel: &'static str,
        found: &mut Mutex<FoundPaths>,
        applied: usize,
    ) {
        let FoundPaths { paths, pairs } = found.get_mut().unwrap_or_else(PoisonError::into_inner);
        TENTATIVE.with_borrow_mut(|log| {
            if let Some(log) = log {
                let paths = paths.iter().map(|(t, range)| (*t, pairs[range.clone()].to_vec()));
                log.push(CommitLog { kernel, paths: paths.collect(), applied });
            }
        });
    }

    /// How many paths each Duff–Wiberg sweep of `commits` applied, in order.
    fn sweeps(commits: &[CommitLog]) -> Vec<usize> {
        commits.iter().filter(|c| c.kernel == SWEEP).map(|c| c.applied).collect()
    }

    /// A 3-worker pooled device; threshold 1 sends every launch to the pool
    /// and small chunks interleave its threads.
    fn pooled(chunk_size: usize) -> VirtualGpu {
        VirtualGpu::new(GpuConfig::tesla_c2050(Backend::Parallel { workers: 3 }).with_executor(
            ExecutorConfig::default().with_parallel_threshold(1).with_chunk_size(chunk_size),
        ))
    }

    /// A run that never stops, on a cold workspace.
    fn cold(gpu: &VirtualGpu, g: &BipartiteCsr, init: &Matching, config: GhkConfig) -> GhkResult {
        run(gpu, g, init, config, &mut GhkWorkspace::new(), &StopCheck::never())
    }

    /// Runs `f`, returning its result and the commits it ran.
    fn recording<R>(f: impl FnOnce() -> R) -> (R, Vec<CommitLog>) {
        TENTATIVE.with_borrow_mut(|log| *log = Some(Vec::new()));
        let result = f();
        (result, TENTATIVE.with_borrow_mut(Option::take).expect("recording open"))
    }

    /// Everything a sequential-device run must reproduce exactly: the
    /// matching, the phase counters, and each kernel's launches, threads,
    /// work, atomics and modelled time.
    fn outcome(r: &GhkResult) -> impl PartialEq + std::fmt::Debug {
        let kernels: Vec<_> = r
            .stats
            .device
            .kernels
            .iter()
            .map(|(name, k)| {
                let counts = [k.launches, k.resident_rounds, k.total_threads, k.total_work];
                (name.clone(), counts, k.total_atomics, k.modelled_time_ns.to_bits())
            })
            .collect();
        let s = &r.stats;
        (r.matching.clone(), [s.phases, s.augmentations, s.conflicts, s.atomics], kernels)
    }

    /// A valid matching of `g` grown greedily from the edges `picks` select.
    fn arb_matching(g: &BipartiteCsr, picks: &[usize]) -> Matching {
        let edges: Vec<_> = g.edges().collect();
        let mut matching = Matching::empty_for(g);
        for &pick in picks.iter().filter(|_| !edges.is_empty()) {
            let (r, c) = edges[pick % edges.len()];
            if !matching.is_row_matched(r) && !matching.is_col_matched(c) {
                matching.match_pair(r, c);
            }
        }
        matching
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tentative_paths_are_simple_and_matchings_valid(
            g in arb_bipartite_with(30, 30, 150),
            picks in proptest::collection::vec(0usize..1000, 0..40),
        ) {
            let init = arb_matching(&g, &picks);
            let opt = maximum_matching_cardinality(&g);
            for gpu in [&VirtualGpu::sequential(), &pooled(2)] {
                for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                    for exec in ExecMode::all() {
                        let tag = format!("{} {exec} {:?}", variant.label(), gpu.config().backend);
                        let config = GhkConfig::new(variant).with_exec(exec);
                        let (r, commits) = recording(|| cold(gpu, &g, &init, config));
                        for (_, path) in commits.iter().flat_map(|c| &c.paths) {
                            let mut rows: Vec<usize> = path.iter().map(|&(u, _)| u).collect();
                            let mut cols: Vec<usize> = path.iter().map(|&(_, c)| c).collect();
                            rows.sort_unstable();
                            rows.dedup();
                            cols.sort_unstable();
                            cols.dedup();
                            prop_assert!(
                                rows.len() == path.len() && cols.len() == path.len(),
                                "{tag}: tentative path {path:?} repeats a vertex"
                            );
                            for &(u, c) in path {
                                prop_assert!(g.has_edge(u as u32, c as u32), "{tag}: {path:?}");
                            }
                        }
                        prop_assert_eq!(r.matching.validate_against(&g), Ok(()), "{}", tag);
                        prop_assert_eq!(r.matching.cardinality(), opt, "{}", tag);
                    }
                }
            }
        }

        #[test]
        fn sweeps_end_at_the_first_sweep_that_applies_no_path(
            g in arb_bipartite_with(30, 30, 150),
            picks in proptest::collection::vec(0usize..1000, 0..40),
        ) {
            let (g, init) = beside_long_chains(&g, &arb_matching(&g, &picks));
            let opt = maximum_matching_cardinality(&g);
            for gpu in [&VirtualGpu::sequential(), &pooled(2)] {
                for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                    for exec in ExecMode::all() {
                        let tag = format!("{} {exec} {:?}", variant.label(), gpu.config().backend);
                        let config = GhkConfig::new(variant).with_exec(exec);
                        let (r, commits) = recording(|| cold(gpu, &g, &init, config));
                        let sweeps = sweeps(&commits);
                        let device = &r.stats.device;
                        let launched = device.launches_of(SWEEP) + device.resident_rounds_of(SWEEP);
                        prop_assert_eq!(launched, sweeps.len() as u64, "{}", tag);
                        if variant == GhkVariant::Hk {
                            prop_assert!(sweeps.is_empty(), "{tag}: {sweeps:?}");
                        }
                        // Only the last sweep may apply nothing.
                        if let Some((_, paying)) = sweeps.split_last() {
                            prop_assert!(paying.iter().all(|&n| n > 0), "{tag}: {sweeps:?}");
                        }
                        prop_assert_eq!(r.matching.cardinality(), opt, "{}", tag);
                    }
                }
            }
        }
    }

    /// `g` matched as `init`, beside augmenting chains of 65, 67 and 69
    /// rows (see [`gpm_testutil::augmenting_chain`]) matched as the cheap
    /// matching would.  A sweep is a complete search on `g`, which is
    /// smaller than its 64 frames, so it applies nothing only once `g`'s
    /// matching is maximum; the chains' paths are too long for it, and the
    /// HK phases then augment them one per phase.
    fn beside_long_chains(g: &BipartiteCsr, init: &Matching) -> (BipartiteCsr, Matching) {
        let mut edges: Vec<_> = g.edges().collect();
        let mut pairs: Vec<_> =
            (0..g.num_rows() as u32).filter_map(|r| Some((r, init.row_mate(r)?))).collect();
        let (mut rows, mut cols) = (g.num_rows() as u32, g.num_cols() as u32);
        for k in [64, 66, 68] {
            let chain = augmenting_chain(k);
            edges.extend(chain.edges().map(|(r, c)| (rows + r, cols + c)));
            pairs.extend((0..k as u32).map(|i| (rows + i, cols + i)));
            rows += chain.num_rows() as u32;
            cols += chain.num_cols() as u32;
        }
        let joined = BipartiteCsr::from_edges(rows as usize, cols as usize, &edges).unwrap();
        let mut matching = Matching::empty_for(&joined);
        for (r, c) in pairs {
            matching.match_pair(r, c);
        }
        (joined, matching)
    }

    #[test]
    fn skewed_graph_stops_sweeping_before_its_phases_end() {
        // On this R-MAT graph from the cheap start, a sweep after each of
        // its 15 phases commits 1, 1, then 13 times nothing.
        let g = gen::rmat(gen::RmatParams::graph500(10, 32), 2).unwrap();
        let init = cheap_matching(&g);
        let opt = maximum_matching_cardinality(&g);
        for exec in ExecMode::all() {
            let config = GhkConfig::new(GhkVariant::Hkdw).with_exec(exec);
            let gpu = VirtualGpu::sequential();
            let (r, commits) = recording(|| cold(&gpu, &g, &init, config));
            let sweeps = sweeps(&commits);
            let device = &r.stats.device;
            let launched = device.launches_of(SWEEP) + device.resident_rounds_of(SWEEP);
            assert_eq!(launched, sweeps.len() as u64, "{exec}");
            assert!(launched < r.stats.phases, "{exec}: {sweeps:?} over {} phases", r.stats.phases);
            assert_eq!(sweeps.last(), Some(&0), "{exec}: {sweeps:?}");
            assert!(sweeps[0] > 0, "{exec}: {sweeps:?}");
            assert_eq!(r.matching.cardinality(), opt, "{exec}");
        }
    }

    #[test]
    fn reused_scratch_and_workspace_match_fresh_threads() {
        let large = gen::rmat(gen::RmatParams::graph500(10, 8), 3).unwrap();
        let small = gen::uniform_random(60, 50, 300, 8).unwrap();
        let gpu = VirtualGpu::sequential();
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let mut ws = GhkWorkspace::new();
            for g in [&large, &small, &large] {
                let init = cheap_matching(g);
                let (reused, reused_paths) = recording(|| {
                    run(&gpu, g, &init, GhkConfig::new(variant), &mut ws, &StopCheck::never())
                });
                let config = GhkConfig::new(variant);
                let (fresh, fresh_paths) = std::thread::scope(|s| {
                    s.spawn(|| recording(|| cold(&VirtualGpu::sequential(), g, &init, config)))
                        .join()
                        .unwrap()
                });
                let tag = format!("{} on {}x{}", variant.label(), g.num_rows(), g.num_cols());
                assert_eq!(outcome(&reused), outcome(&fresh), "{tag}");
                assert_eq!(reused_paths, fresh_paths, "{tag}");
            }
        }
    }

    #[test]
    fn pooled_commits_apply_paths_in_increasing_thread_id() {
        // The pool's threads append their paths in whatever order they
        // finish.
        let pooled = pooled(4);
        let g = gen::uniform_random(400, 400, 1_600, 17).unwrap();
        let init = Matching::empty_for(&g);
        let opt = maximum_matching_cardinality(&g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let label = variant.label();
            let (r, commits) = recording(|| cold(&pooled, &g, &init, GhkConfig::new(variant)));
            assert!(commits.iter().any(|commit| commit.paths.len() > 100), "{label}");
            for commit in &commits {
                let threads: Vec<usize> = commit.paths.iter().map(|&(thread, _)| thread).collect();
                assert!(threads.windows(2).all(|w| w[0] < w[1]), "{label}: {threads:?}");
            }
            assert_eq!(r.matching.cardinality(), opt, "{label}");
            assert!(is_maximum(&g, &r.matching), "{label}");
        }
    }

    #[test]
    fn visit_epoch_wrap_keeps_paths_identical() {
        let g = gen::uniform_random(120, 110, 600, 5).unwrap();
        let init = Matching::empty_for(&g);
        // Solves on a fresh OS thread; with `wrap_from`, the epoch starts
        // there and every column carries a stale stamp equal to the first
        // epoch after the wrap, which the wrap must clear.
        let solve = |wrap_from: Option<u32>| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    if let Some(epoch) = wrap_from {
                        SCRATCH.with_borrow_mut(|s| {
                            let (stamps, current) = s.visited.raw_parts_mut();
                            *stamps = vec![1; g.num_cols()];
                            *current = epoch;
                        });
                    }
                    let gpu = VirtualGpu::sequential();
                    let (r, paths) =
                        recording(|| cold(&gpu, &g, &init, GhkConfig::new(GhkVariant::Hkdw)));
                    (outcome(&r), paths, SCRATCH.with_borrow_mut(|s| *s.visited.raw_parts_mut().1))
                })
                .join()
                .unwrap()
            })
        };
        let (plain, plain_paths, _) = solve(None);
        let (wrapped, wrapped_paths, end_epoch) = solve(Some(u32::MAX - 2));
        assert!(end_epoch < u32::MAX - 2, "the epoch must wrap during the solve");
        assert!(plain_paths.iter().any(|c| c.kernel == SWEEP && c.applied > 0));
        assert_eq!(wrapped_paths, plain_paths);
        assert_eq!(wrapped, plain);
    }

    fn check(g: &BipartiteCsr, gpu: &VirtualGpu) {
        let opt = maximum_matching_cardinality(g);
        let init = cheap_matching(g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let r = cold(gpu, g, &init, GhkConfig::new(variant));
            assert_eq!(
                r.matching.cardinality(),
                opt,
                "{} found {} instead of {}",
                variant.label(),
                r.matching.cardinality(),
                opt
            );
            assert!(is_maximum(g, &r.matching));
            r.matching.validate_against(g).unwrap();
        }
    }

    #[test]
    fn small_square_both_variants() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        check(&g, &VirtualGpu::sequential());
        check(&g, &VirtualGpu::parallel());
    }

    #[test]
    fn random_graphs_both_backends() {
        for seed in 0..3u64 {
            let g = gen::uniform_random(70, 65, 350, seed + 11).unwrap();
            check(&g, &VirtualGpu::sequential());
            check(&g, &VirtualGpu::parallel());
        }
    }

    #[test]
    fn structured_families() {
        let gpu = VirtualGpu::parallel();
        for g in [
            gen::road_network(18, 18, 0.1, 6).unwrap(),
            gen::rmat(gen::RmatParams::graph500(8, 4), 6).unwrap(),
            gen::delaunay_like(12, 12, 6).unwrap(),
        ] {
            check(&g, &gpu);
        }
    }

    #[test]
    fn planted_perfect_found() {
        let gpu = VirtualGpu::parallel();
        let g = gen::planted_perfect(200, 600, 13).unwrap();
        check(&g, &gpu);
    }

    #[test]
    fn empty_graph_and_perfect_initial() {
        let gpu = VirtualGpu::sequential();
        let g = BipartiteCsr::empty(5, 5);
        let r = cold(&gpu, &g, &Matching::empty_for(&g), GhkConfig::new(GhkVariant::Hkdw));
        assert_eq!(r.matching.cardinality(), 0);

        let g = gen::planted_perfect(64, 0, 7).unwrap();
        let init = cheap_matching(&g);
        let r = cold(&gpu, &g, &init, GhkConfig::new(GhkVariant::Hk));
        assert_eq!(r.matching.cardinality(), 64);
        assert_eq!(r.stats.phases, 0);
    }

    #[test]
    fn warm_workspace_matches_cold_runs() {
        let gpu = VirtualGpu::sequential();
        let mut ws = GhkWorkspace::new();
        let g1 = gen::uniform_random(50, 50, 260, 21).unwrap();
        let g2 = gen::uniform_random(50, 50, 280, 22).unwrap();
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            for g in [&g1, &g2] {
                let init = cheap_matching(g);
                let warm =
                    run(&gpu, g, &init, GhkConfig::new(variant), &mut ws, &StopCheck::never());
                let fresh = cold(&gpu, g, &init, GhkConfig::new(variant));
                assert_eq!(warm.matching.cardinality(), fresh.matching.cardinality());
            }
            assert!(ws.is_warm_for(&g1));
        }
        let g3 = gen::uniform_random(20, 30, 100, 23).unwrap();
        assert!(!ws.is_warm_for(&g3));
        let config = GhkConfig::new(GhkVariant::Hk);
        let r = run(&gpu, &g3, &cheap_matching(&g3), config, &mut ws, &StopCheck::never());
        assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g3));
    }

    #[test]
    fn every_frontier_mode_finds_the_maximum() {
        for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel()] {
            for seed in 0..2u64 {
                let g = gen::uniform_random(60, 55, 300, seed + 41).unwrap();
                let opt = maximum_matching_cardinality(&g);
                let init = cheap_matching(&g);
                for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                    for mode in WorklistMode::all() {
                        let r = cold(&gpu, &g, &init, GhkConfig::new(variant).with_worklist(mode));
                        assert_eq!(
                            r.matching.cardinality(),
                            opt,
                            "{} with {mode} frontier",
                            variant.label()
                        );
                        r.matching.validate_against(&g).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_modes_run_identical_phase_counts() {
        // The three representations hold the same frontier sets, so on the
        // deterministic sequential backend every phase finds the same
        // augmenting paths and the phase/augmentation counters agree.
        // (Regression test: stale frontier stamps surviving a re-seed once
        // inflated the dense mode's phase count.)
        let gpu = VirtualGpu::sequential();
        for seed in 0..5u64 {
            let g = gen::uniform_random(120, 110, 600, seed).unwrap();
            let init = cheap_matching(&g);
            for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                let runs: Vec<GhkRunStats> = WorklistMode::all()
                    .into_iter()
                    .map(|mode| {
                        cold(&gpu, &g, &init, GhkConfig::new(variant).with_worklist(mode)).stats
                    })
                    .collect();
                for r in &runs[1..] {
                    assert_eq!(r.phases, runs[0].phases, "seed {seed}, {}", variant.label());
                    assert_eq!(
                        r.augmentations,
                        runs[0].augmentations,
                        "seed {seed}, {}",
                        variant.label()
                    );
                    assert_eq!(r.conflicts, runs[0].conflicts, "seed {seed}, {}", variant.label());
                }
            }
        }
    }

    #[test]
    fn persistent_exec_matches_launch_per_round() {
        let gpu = VirtualGpu::sequential();
        for seed in 0..2u64 {
            let g = gen::uniform_random(70, 65, 340, seed + 70).unwrap();
            let opt = maximum_matching_cardinality(&g);
            let init = cheap_matching(&g);
            for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                for mode in WorklistMode::all() {
                    let base = GhkConfig::new(variant).with_worklist(mode);
                    let lpr = cold(&gpu, &g, &init, base);
                    let per = cold(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
                    let tag = format!("{} + {mode}, seed {seed}", variant.label());
                    assert_eq!(per.matching.cardinality(), opt, "{tag}");
                    per.matching.validate_against(&g).unwrap();
                    assert_eq!(per.stats.phases, lpr.stats.phases, "{tag}");
                    assert_eq!(per.stats.augmentations, lpr.stats.augmentations, "{tag}");
                    assert_eq!(per.stats.conflicts, lpr.stats.conflicts, "{tag}");
                    assert!(!per.stats.stopped, "{tag}");
                }
            }
        }
    }

    #[test]
    fn persistent_runs_keep_launches_to_the_entry_kernel() {
        let gpu = VirtualGpu::parallel();
        let g = gen::uniform_random(200, 200, 900, 31).unwrap();
        let init = cheap_matching(&g);
        let config = GhkConfig::new(GhkVariant::Hkdw)
            .with_worklist(WorklistMode::BlockedQueue)
            .with_exec(ExecMode::Persistent);
        let r = cold(&gpu, &g, &init, config);
        assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
        // One resident entry launch; every per-phase kernel became a round.
        assert_eq!(r.stats.device.total_launches(), 1);
        assert_eq!(r.stats.device.launches_of("G-HK-RESIDENT"), 1);
        assert_eq!(r.stats.device.launches_of("G-HK-BFS-KRNL"), 0);
        assert!(r.stats.device.resident_rounds_of("G-HK-BFS-KRNL") >= r.stats.phases);
        assert!(r.stats.device.total_barriers() > 0);
    }

    #[test]
    fn queue_frontier_launches_fewer_bfs_threads_than_dense() {
        let g = gen::uniform_random(400, 400, 2000, 9).unwrap();
        let init = cheap_matching(&g);
        let dense_gpu = VirtualGpu::sequential();
        let dense = cold(&dense_gpu, &g, &init, GhkConfig::new(GhkVariant::Hk));
        let queue_gpu = VirtualGpu::sequential();
        let config = GhkConfig::new(GhkVariant::Hk).with_worklist(WorklistMode::AtomicQueue);
        let queue = cold(&queue_gpu, &g, &init, config);
        assert_eq!(dense.matching.cardinality(), queue.matching.cardinality());
        let dense_threads = dense.stats.device.kernels["G-HK-BFS-KRNL"].total_threads;
        let queue_threads = queue.stats.device.kernels["G-HK-BFS-KRNL"].total_threads;
        assert!(
            queue_threads < dense_threads,
            "queue frontier should launch fewer BFS threads ({queue_threads} vs {dense_threads})"
        );
    }

    #[test]
    fn stop_check_halts_within_one_phase() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gpu = VirtualGpu::sequential();
        let g = gen::rmat(gen::RmatParams::graph500(10, 4), 8).unwrap();
        let init = cheap_matching(&g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let polls = Arc::new(AtomicU64::new(0));
            let p = Arc::clone(&polls);
            let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 2);
            let r = run(&gpu, &g, &init, GhkConfig::new(variant), &mut GhkWorkspace::new(), &stop);
            assert!(r.stats.stopped, "{}", variant.label());
            // Every phase polls at least twice (phase head + first BFS
            // level), so a signal tripped at poll 2 stops within phase 1.
            assert!(r.stats.phases <= 1, "{}: {} phases", variant.label(), r.stats.phases);
            // µ stays consistent at all times in G-HK.
            r.matching.validate_against(&g).unwrap();
            assert!(r.matching.cardinality() >= init.cardinality());
        }

        // A pre-tripped stop performs no phase at all.
        let stop = StopCheck::from_fn(|| true);
        let config = GhkConfig::new(GhkVariant::Hk);
        let r = run(&gpu, &g, &init, config, &mut GhkWorkspace::new(), &stop);
        assert!(r.stats.stopped);
        assert_eq!(r.stats.phases, 0);
        assert_eq!(r.matching.cardinality(), init.cardinality());
    }

    #[test]
    fn a_hub_columns_level_is_priced_as_its_warps_gather() {
        // A sparse random graph (column lists of at most 11 entries) plus
        // one column adjacent to every row.
        let sparse = gen::uniform_random(1000, 1000, 3000, 19).unwrap();
        let rows = sparse.num_rows();
        let edges: Vec<_> = sparse.edges().chain((0..rows as u32).map(|r| (r, 0))).collect();
        let g = BipartiteCsr::from_edges(rows, sparse.num_cols(), &edges).unwrap();
        let deg = g.col_degree(0) as u64;
        assert_eq!(deg, 1000);
        let init = cheap_matching(&g);
        // Matching, phases and the BFS kernel's work as when every thread
        // walked its own list (pinned from that pricing).
        let pinned = [
            (GhkVariant::Hk, WorklistMode::DenseStamp, 14, 142_016),
            (GhkVariant::Hk, WorklistMode::Compacted, 14, 21_240),
            (GhkVariant::Hkdw, WorklistMode::DenseStamp, 11, 91_496),
            (GhkVariant::Hkdw, WorklistMode::Compacted, 11, 13_583),
        ];
        for (variant, mode, phases, work) in pinned {
            let tag = format!("{} + {mode}", variant.label());
            let config = GhkConfig::new(variant).with_worklist(mode);
            let r = cold(&VirtualGpu::sequential(), &g, &init, config);
            let bfs = &r.stats.device.kernels["G-HK-BFS-KRNL"];
            assert_eq!((r.matching.cardinality(), r.stats.phases), (920, phases), "{tag}");
            assert_eq!(bfs.total_work, work, "{tag}");
            // At most a thread's stamp read and a list of one warp, plus the
            // hub warp's share; at least that share, so the hub's level ran.
            let share = deg.div_ceil(32);
            assert!(bfs.max_thread_work <= 33 + share, "{tag}: {}", bfs.max_thread_work);
            assert!(bfs.max_thread_work > share, "{tag}: {}", bfs.max_thread_work);
        }
    }

    #[test]
    fn stats_record_bfs_kernels() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(150, 150, 700, 4).unwrap();
        let r = cold(&gpu, &g, &cheap_matching(&g), GhkConfig::new(GhkVariant::Hkdw));
        assert!(r.stats.device.launches_of("G-HK-BFS-KRNL") >= 1);
        assert!(r.stats.device.launches_of("G-HK-DFS-KRNL") >= r.stats.phases);
        assert_eq!(r.stats.variant, "G-HKDW");
        assert!(r.stats.device.modelled_time_secs() > 0.0);
    }
}
