//! G-PR — the paper's GPU push-relabel bipartite matching algorithm.
//!
//! Three variants are implemented, matching the three curves of Figure 1:
//!
//! * [`GprVariant::First`] — Algorithm 3 with the kernel of Algorithm 6: every
//!   column vertex gets a thread in every iteration; active columns perform a
//!   push-relabel step, others return immediately.
//! * [`GprVariant::ActiveList`] ("G-PR-NoShr") — Algorithm 7 with the
//!   `G-PR-INITKRNL` (Algorithm 8) and `G-PR-PUSHKRNL` (Algorithm 9) kernels:
//!   threads are launched only for the entries of an active-column list,
//!   maintained with the two-array `A_c`/`A_p` scheme plus the `iA` stamp
//!   array that prevents duplicate processing.
//! * [`GprVariant::Shrink`] ("G-PR-Shr") — additionally compacts the
//!   active-column arrays with `G-PR-SHRKRNL` (a count / prefix-sum / scatter
//!   pass) after every global relabeling, as long as the list still has at
//!   least [`GprConfig::shrink_threshold`] entries.
//!
//! All kernels are lock- and atomic-free: device words are written with plain
//! (relaxed) stores, races are benign by the paper's argument, and remaining
//! matching inconsistencies are repaired by `FIXMATCHING` at the very end.
//! (The optional queue representations are the one exception:
//! [`WorklistMode::AtomicQueue`] appends to the next active list with an
//! atomic fetch-add — the worklist-centric design of the GPU BFS
//! literature — and [`WorklistMode::BlockedQueue`] amortizes that fetch-add
//! over cache-line-sized slot blocks; both skip the per-iteration
//! `G-PR-INITKRNL` scan entirely, and both guard the append with an atomic
//! swap on the column's stamp, so no column is pushed from two threads in
//! one round.)
//!
//! The active-column machinery itself — the two-array `A_c`/`A_p` scheme,
//! the `iA` stamps, and the `G-PR-SHRKRNL` compaction — lives in the shared
//! [`Worklist`] subsystem of `gpm-gpu`; this module only decides *when* to
//! relabel, shrink, and push.  The representation is selected by
//! [`GprConfig::worklist`].

use crate::device::{DeviceState, MU_UNMATCHABLE, MU_UNMATCHED};
use crate::ggr::global_relabel;
use crate::roundloop::{drive_rounds, resident_scope, RoundOutcome};
use crate::strategy::GrStrategy;
use gpm_gpu::{
    ActiveView, DeviceStats, ExecMode, SlotAction, StopCheck, VirtualGpu, Worklist,
    WorklistKernels, WorklistMode,
};
use gpm_graph::{BipartiteCsr, Matching};

/// Kernel names the G-PR active-column worklist charges its maintenance to
/// (matching the paper's kernel names for the default representations).
const GPR_WORKLIST_KERNELS: WorklistKernels = WorklistKernels {
    init: "G-PR-INITKRNL",
    compact_count: "G-PR-SHRKRNL_count",
    compact_scatter: "G-PR-SHRKRNL_scatter",
    refill: "G-PR-WL-REFILL",
    stitch: "G-PR-WL-STITCH",
};

/// Which G-PR variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GprVariant {
    /// Algorithm 3/6: one thread per column every iteration ("G-PR-First").
    First,
    /// Algorithm 7/8/9 without list shrinking ("G-PR-NoShr").
    ActiveList,
    /// Algorithm 7/8/9 with `G-PR-SHRKRNL` list compaction ("G-PR-Shr").
    Shrink,
}

impl GprVariant {
    /// Name used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GprVariant::First => "G-PR-First",
            GprVariant::ActiveList => "G-PR-NoShr",
            GprVariant::Shrink => "G-PR-Shr",
        }
    }

    /// The worklist representation this variant historically hand-rolled:
    /// dense stamp-guarded lists for `First`/`NoShr`, compacted lists for
    /// `Shr`.  Used as the default when no explicit mode is configured, so
    /// plain variant labels keep their paper behavior.
    pub fn default_worklist(&self) -> WorklistMode {
        match self {
            GprVariant::First | GprVariant::ActiveList => WorklistMode::DenseStamp,
            GprVariant::Shrink => WorklistMode::Compacted,
        }
    }
}

/// Configuration of a G-PR run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GprConfig {
    /// Which variant to run.
    pub variant: GprVariant,
    /// Global-relabeling schedule.
    pub strategy: GrStrategy,
    /// How the active-column set is represented on the device (also governs
    /// the global-relabeling BFS frontier).  [`GprVariant::First`] predates
    /// active lists and ignores this knob for its main loop.
    pub worklist: WorklistMode,
    /// How the round loop is priced: one kernel launch per round (the
    /// default), or a persistent megakernel whose rounds each pay a global
    /// barrier crossing ([`ExecMode::Persistent`]) — the whole main loop,
    /// global relabelings included, then runs inside one
    /// [`gpm_gpu::VirtualGpu::resident`] scope and only `FIXMATCHING` pays a
    /// separate launch.  Both modes execute identically.
    pub exec: ExecMode,
    /// Minimum active-list length for which the shrink kernel is worth its
    /// overhead (the paper uses 512; line 11 of Algorithm 7).  Must be at
    /// least 1 ([`GprConfig::validate`]).
    pub shrink_threshold: usize,
    /// Safety cap on main-loop iterations.  The algorithm terminates long
    /// before this in theory and practice; the cap turns a hypothetical
    /// livelock (e.g. from a future modification) into a loud panic instead
    /// of a hang.
    pub max_loops: u64,
}

impl GprConfig {
    /// The paper's best configuration: G-PR-Shr with (adaptive, 0.7) and
    /// compacted active lists.
    pub fn paper_default() -> Self {
        Self {
            variant: GprVariant::Shrink,
            strategy: GrStrategy::paper_default(),
            worklist: GprVariant::Shrink.default_worklist(),
            exec: ExecMode::LaunchPerRound,
            shrink_threshold: 512,
            max_loops: 0, // 0 = derive from graph size at run time
        }
    }

    /// Same configuration but for a specific variant (with that variant's
    /// natural worklist representation).
    pub fn with_variant(variant: GprVariant) -> Self {
        Self { variant, worklist: variant.default_worklist(), ..Self::paper_default() }
    }

    /// Same configuration but for a specific GR strategy.
    pub fn with_strategy(strategy: GrStrategy) -> Self {
        Self { strategy, ..Self::paper_default() }
    }

    /// Same configuration but with an explicit worklist representation.
    pub fn with_worklist(mut self, worklist: WorklistMode) -> Self {
        self.worklist = worklist;
        self
    }

    /// Same configuration but with an explicit execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Checks the tuning parameters, returning a human-readable reason when
    /// a value cannot reach the device loop (`Solver::builder()` maps this
    /// to a structured `InvalidConfig` error).
    pub fn validate(&self) -> Result<(), String> {
        if self.shrink_threshold == 0 {
            return Err(
                "shrink_threshold must be at least 1 (a zero threshold would compact empty lists)"
                    .to_string(),
            );
        }
        Ok(())
    }

    fn effective_max_loops(&self, graph: &BipartiteCsr) -> u64 {
        if self.max_loops > 0 {
            self.max_loops
        } else {
            16 * (graph.num_vertices() as u64) + 4096
        }
    }
}

impl Default for GprConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Counters and outcome of a G-PR run.
#[derive(Clone, Debug, Default)]
pub struct GprRunStats {
    /// Variant label.
    pub variant: &'static str,
    /// Worklist-representation label (`dense`, `compacted`, `queue`,
    /// `blocked`).
    pub worklist: &'static str,
    /// Execution-mode label (`launch` or `resident`).
    pub exec: &'static str,
    /// GR-strategy label.
    pub strategy: String,
    /// Number of main-loop iterations executed.
    pub loops: u64,
    /// Number of global relabelings performed.
    pub global_relabels: u64,
    /// Number of shrink (list compaction) passes performed.
    pub shrinks: u64,
    /// Total atomic read-modify-write operations charged during this run
    /// (queue-tail claims plus the executor's chunk-cursor claims) — the
    /// contention the blocked representation exists to amortize.
    pub atomics: u64,
    /// Device statistics accumulated during this run (kernel launches,
    /// modelled time, wall time).
    pub device: DeviceStats,
    /// Host wall-clock time of the whole solve, seconds.
    pub seconds: f64,
    /// `true` when the run was stopped early by its
    /// [`gpm_gpu::StopCheck`] (cancellation or deadline): the matching is a
    /// consistent partial matching, not necessarily maximum.
    pub stopped: bool,
}

/// Result of a G-PR run: the maximum matching plus counters.
#[derive(Clone, Debug)]
pub struct GprResult {
    /// The (consistent, repaired) maximum matching.
    pub matching: Matching,
    /// Run statistics.
    pub stats: GprRunStats,
}

/// Reusable G-PR working memory: the device-resident matching/label state.
/// A warm [`crate::solver::Solver`] session keeps one workspace per engine
/// so repeated solves on same-shaped graphs reuse these allocations.  The
/// active-list arrays, `iA` stamps, and staging that used to live here are
/// now owned by the per-solve [`Worklist`], which draws every buffer from
/// the device's scratch arena — warm solves reuse those allocations through
/// the arena instead of through this struct.
#[derive(Debug, Default)]
pub struct GprWorkspace {
    state: Option<DeviceState>,
}

impl GprWorkspace {
    /// A fresh (cold) workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the workspace holds buffers for a graph of this shape, so
    /// the next solve will reuse them instead of allocating.
    pub fn is_warm_for(&self, graph: &BipartiteCsr) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.num_rows() == graph.num_rows() && s.num_cols() == graph.num_cols())
    }
}

/// Runs G-PR on the given virtual GPU, starting from `initial` (normally the
/// cheap greedy matching, as in the paper), reusing `workspace` buffers from
/// previous solves wherever the graph shape allows (pass a fresh
/// [`GprWorkspace`] for a cold run).
///
/// `stop` is polled at every main-loop round (and between global-relabeling
/// BFS levels).  When it fires, the run finishes its current round, repairs
/// the matching with `FIXMATCHING`, and returns with
/// [`GprRunStats::stopped`] set — the matching is a valid partial matching
/// of whatever cardinality was reached.
pub fn run(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GprConfig,
    workspace: &mut GprWorkspace,
    stop: &StopCheck,
) -> GprResult {
    let start = std::time::Instant::now();
    let mark = gpu.stats_mark();
    let GprWorkspace { state: state_slot } = workspace;
    let state = DeviceState::upload_into(state_slot, graph, initial);
    let mut stats = GprRunStats {
        variant: config.variant.label(),
        worklist: config.worklist.label(),
        exec: config.exec.label(),
        strategy: config.strategy.label(),
        ..Default::default()
    };

    match config.variant {
        GprVariant::First => run_first(gpu, graph, state, &config, &mut stats, stop),
        GprVariant::ActiveList | GprVariant::Shrink => {
            run_active_list(gpu, graph, state, &config, &mut stats, stop)
        }
    }

    fix_matching(gpu, state);
    let matching = state.download_matching();

    // Report only the device work done by this run, even if the caller
    // reuses one VirtualGpu across runs.
    let run_device = gpu.stats_since(&mark);
    stats.atomics = run_device.total_atomics();
    stats.device = run_device;
    stats.seconds = start.elapsed().as_secs_f64();
    GprResult { matching, stats }
}

/// The push-relabel step shared by Algorithm 6 and Algorithm 9: scans `Γ(v)`
/// for the row with minimum `ψ`, then either performs the (racy) push and
/// relabel or reports that `v` is unmatchable.
///
/// Returns `Some(Some(w))` when a push happened and displaced column `w`,
/// `Some(None)` when a push happened without displacing anyone (single push),
/// and `None` when no push was possible (`ψ_min = m + n`).
#[inline]
fn push_relabel_step(
    graph: &BipartiteCsr,
    state: &DeviceState,
    ctx: &gpm_gpu::ThreadCtx,
    v: usize,
    guard: Option<&ActiveView<'_>>,
) -> PushOutcome {
    let unreachable = state.unreachable;
    let mut psi_min = unreachable;
    let mut best: i64 = -1;
    let target = state.psi_col.get(v).saturating_sub(1);
    for &u in graph.col_neighbors(v as u32) {
        ctx.add_work(1);
        let pu = state.psi_row.get(u as usize);
        if pu < psi_min {
            psi_min = pu;
            best = u as i64;
            if psi_min == target {
                break;
            }
        }
    }
    if psi_min >= unreachable {
        state.mu_col.set(v, MU_UNMATCHABLE);
        return PushOutcome::Unmatchable;
    }
    let u = best as usize;
    let displaced = state.mu_row.get(u);
    if let Some(view) = guard {
        // Algorithm 9 line 13: do not displace a column that is itself being
        // processed in this very iteration (the worklist's `iA` stamps).
        if displaced >= 0 && view.in_current_round(displaced as usize) {
            return PushOutcome::Deferred;
        }
    }
    state.mu_row.set(u, v as i64);
    state.mu_col.set(v, u as i64);
    state.psi_col.set(v, psi_min + 1);
    state.psi_row.set(u, psi_min + 2);
    if displaced >= 0 {
        PushOutcome::Pushed(Some(displaced))
    } else {
        PushOutcome::Pushed(None)
    }
}

/// Outcome of one push-relabel attempt on a column.
enum PushOutcome {
    /// Push performed; holds the displaced column (double push) or `None`
    /// (single push).
    Pushed(Option<i64>),
    /// `ψ_min = m + n`: the column was marked unmatchable.
    Unmatchable,
    /// The push was deferred because the target row's mate is active in the
    /// current iteration (active-list variants only).
    Deferred,
}

// ---------------------------------------------------------------------------
// Variant 1: G-PR-First (Algorithms 3 and 6)
// ---------------------------------------------------------------------------

fn run_first(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    config: &GprConfig,
    stats: &mut GprRunStats,
    stop: &StopCheck,
) {
    let n = graph.num_cols();
    let mut loop_iter: u64 = 0;
    let mut iter_gr: u64 = 0;
    let max_loops = config.effective_max_loops(graph);
    // G-PR-First predates active lists: every column gets a thread in every
    // iteration, so the worklist is used only as the domain-scan helper
    // (the configured representation cannot change the launch shape).
    let mut worklist = Worklist::new(gpu, WorklistMode::DenseStamp, n, GPR_WORKLIST_KERNELS);

    let resident = resident_scope(config.exec, "G-PR-RESIDENT", n.max(graph.num_rows()));
    let mut active_exists = true;
    stats.stopped = drive_rounds(gpu, resident, stop, || {
        if !active_exists {
            return RoundOutcome::Done;
        }
        assert!(
            loop_iter < max_loops,
            "G-PR-First exceeded the safety iteration cap ({max_loops}); this indicates a bug"
        );
        if loop_iter == iter_gr {
            // Inside a persistent solve the relabeling inherits its scope.
            let outcome =
                global_relabel(gpu, graph, state, config.worklist, ExecMode::LaunchPerRound, stop);
            stats.global_relabels += 1;
            if outcome.stopped {
                return RoundOutcome::Stopped;
            }
            iter_gr = config.strategy.next_relabel_iteration(outcome.max_level, loop_iter);
        }
        active_exists = worklist.scan_domain("G-PR-KRNL", |ctx, v, marker| {
            if !state.is_col_active(v as u32) {
                return;
            }
            marker.mark_active();
            let _ = push_relabel_step(graph, state, ctx, v, None);
        });
        loop_iter += 1;
        RoundOutcome::Continue
    });
    stats.loops = loop_iter;
}

// ---------------------------------------------------------------------------
// Variants 2 and 3: active-column lists (Algorithms 7, 8, 9) and shrinking
// ---------------------------------------------------------------------------

fn run_active_list(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    config: &GprConfig,
    stats: &mut GprRunStats,
    stop: &StopCheck,
) {
    let n = graph.num_cols();
    let max_loops = config.effective_max_loops(graph);

    // The worklist owns the A_c/A_p slot arrays, the iA stamps, and (in
    // queue mode) the append queue; seeding stages the unmatched columns to
    // the device as part of the one-time setup transfer, so it costs no
    // kernel launch.  Under a warm start (an almost-complete initial
    // matching repaired after a graph delta) this filter selects
    // only the columns whose matching state the graph change disturbed, so
    // the first round's frontier is proportional to the delta, not to `n`.
    let mut worklist = Worklist::new(gpu, config.worklist, n, GPR_WORKLIST_KERNELS);
    worklist.seed((0..n).filter(|&v| state.mu_col.get(v) == MU_UNMATCHED));
    if worklist.is_empty() {
        stats.loops = 0;
        return;
    }

    let is_active = |v: usize| state.is_col_active(v as u32);
    let mut loop_iter: u64 = 0;
    let mut iter_gr: u64 = 0;
    let mut shrink_pending = false;

    let resident = resident_scope(config.exec, "G-PR-RESIDENT", n.max(graph.num_rows()));
    stats.stopped = drive_rounds(gpu, resident, stop, || {
        assert!(
            loop_iter < max_loops,
            "G-PR active-list variant exceeded the safety iteration cap ({max_loops}); this indicates a bug"
        );
        if loop_iter == iter_gr {
            // Inside a persistent solve the relabeling inherits its scope.
            let outcome =
                global_relabel(gpu, graph, state, config.worklist, ExecMode::LaunchPerRound, stop);
            stats.global_relabels += 1;
            if outcome.stopped {
                return RoundOutcome::Stopped;
            }
            iter_gr = config.strategy.next_relabel_iteration(outcome.max_level, loop_iter);
            shrink_pending = true;
        }

        // Line 11 of Algorithm 7: compact after a global relabeling, while
        // the list is still long enough to pay for the shrink kernels.  The
        // request only takes effect in the Compacted representation; the
        // queue rebuilds itself and the dense representation never shrinks.
        let want_shrink = config.variant == GprVariant::Shrink
            && shrink_pending
            && worklist.len() >= config.shrink_threshold;
        // The in-loop transition: close the previous round (the A_c/A_p
        // swap) and open the next in one step — under a persistent launch
        // this whole edge sits between two barrier crossings.
        let active_exists = worklist.round_transition(is_active, want_shrink);
        if worklist.compacted_last_round() {
            stats.shrinks += 1;
            shrink_pending = false;
        }
        if !active_exists {
            loop_iter += 1;
            return RoundOutcome::Done;
        }

        // G-PR-PUSHKRNL (Algorithm 9), with the drained-queue refill
        // fused into the kernel tail: a queue round that ends empty
        // re-scans by predicate without paying another launch.
        worklist.for_each_active_refill(
            "G-PR-PUSHKRNL",
            |ctx, v, view| match push_relabel_step(graph, state, ctx, v, Some(view)) {
                PushOutcome::Pushed(Some(displaced)) => SlotAction::Push(displaced as usize),
                PushOutcome::Pushed(None) => SlotAction::Finish,
                PushOutcome::Unmatchable => SlotAction::Retire,
                PushOutcome::Deferred => SlotAction::Defer,
            },
            is_active,
        );
        loop_iter += 1;
        RoundOutcome::Continue
    });
    stats.loops = loop_iter;
}

/// The `FIXMATCHING` kernel: `µ(v) ← −1` for every column whose mate does not
/// point back at it.
fn fix_matching(gpu: &VirtualGpu, state: &DeviceState) {
    gpu.launch("FIXMATCHING", state.num_cols(), |ctx| {
        let v = ctx.global_id;
        ctx.add_work(1);
        let mu_v = state.mu_col.get(v);
        if mu_v >= 0 && state.mu_row.get(mu_v as usize) != v as i64 {
            state.mu_col.set(v, MU_UNMATCHED);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};

    /// A run that never stops, on a cold workspace.
    fn cold(gpu: &VirtualGpu, g: &BipartiteCsr, init: &Matching, config: GprConfig) -> GprResult {
        run(gpu, g, init, config, &mut GprWorkspace::new(), &StopCheck::never())
    }

    fn all_variants() -> Vec<GprVariant> {
        vec![GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink]
    }

    fn check_graph(g: &BipartiteCsr, gpu: &VirtualGpu) {
        let opt = maximum_matching_cardinality(g);
        let init = cheap_matching(g);
        for variant in all_variants() {
            let result = cold(gpu, g, &init, GprConfig::with_variant(variant));
            assert_eq!(
                result.matching.cardinality(),
                opt,
                "{} found {} instead of {}",
                variant.label(),
                result.matching.cardinality(),
                opt
            );
            assert!(is_maximum(g, &result.matching), "{} not maximum", variant.label());
            result.matching.validate_against(g).unwrap();
        }
    }

    #[test]
    fn tiny_square_graph_all_variants() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        check_graph(&g, &VirtualGpu::sequential());
        check_graph(&g, &VirtualGpu::parallel());
    }

    #[test]
    fn random_graphs_sequential_backend() {
        let gpu = VirtualGpu::sequential();
        for seed in 0..4u64 {
            let g = gen::uniform_random(60, 55, 300, seed).unwrap();
            check_graph(&g, &gpu);
        }
    }

    #[test]
    fn random_graphs_parallel_backend() {
        let gpu = VirtualGpu::parallel();
        for seed in 0..4u64 {
            let g = gen::uniform_random(80, 80, 480, seed + 40).unwrap();
            check_graph(&g, &gpu);
        }
    }

    #[test]
    fn structured_families_all_variants() {
        let gpu = VirtualGpu::parallel();
        let graphs = vec![
            gen::road_network(20, 20, 0.1, 3).unwrap(),
            gen::delaunay_like(14, 14, 3).unwrap(),
            gen::rmat(gen::RmatParams::graph500(8, 5), 3).unwrap(),
            gen::power_law(300, 300, 1500, 2.2, 3).unwrap(),
        ];
        for g in &graphs {
            check_graph(g, &gpu);
        }
    }

    #[test]
    fn planted_perfect_matching_is_found() {
        let gpu = VirtualGpu::parallel();
        let g = gen::planted_perfect(256, 768, 11).unwrap();
        let init = cheap_matching(&g);
        for variant in all_variants() {
            let r = cold(&gpu, &g, &init, GprConfig::with_variant(variant));
            assert_eq!(r.matching.cardinality(), 256, "{}", variant.label());
        }
    }

    #[test]
    fn empty_initial_matching_works() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(50, 50, 250, 5).unwrap();
        let opt = maximum_matching_cardinality(&g);
        for variant in all_variants() {
            let r = cold(&gpu, &g, &Matching::empty_for(&g), GprConfig::with_variant(variant));
            assert_eq!(r.matching.cardinality(), opt, "{}", variant.label());
        }
    }

    #[test]
    fn graphs_with_unmatchable_columns() {
        // More columns than rows: at least 3 columns must end unmatchable.
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(10, 13, 60, 8).unwrap();
        check_graph(&g, &gpu);
    }

    #[test]
    fn empty_graph_and_no_active_columns() {
        let gpu = VirtualGpu::sequential();
        let g = BipartiteCsr::empty(6, 6);
        for variant in all_variants() {
            let r = cold(&gpu, &g, &Matching::empty_for(&g), GprConfig::with_variant(variant));
            assert_eq!(r.matching.cardinality(), 0);
        }
        // A graph whose cheap matching is already perfect: the active-list
        // variants must exit without any push kernel.
        let g = gen::planted_perfect(64, 0, 1).unwrap();
        let init = cheap_matching(&g);
        assert_eq!(init.cardinality(), 64);
        let r = cold(&gpu, &g, &init, GprConfig::with_variant(GprVariant::Shrink));
        assert_eq!(r.matching.cardinality(), 64);
    }

    #[test]
    fn all_figure1_strategies_give_maximum() {
        let gpu = VirtualGpu::parallel();
        let g = gen::rmat(gen::RmatParams::web_like(8, 4), 9).unwrap();
        let init = cheap_matching(&g);
        let opt = maximum_matching_cardinality(&g);
        for strategy in crate::strategy::figure1_strategies() {
            for variant in all_variants() {
                let config = GprConfig { variant, strategy, ..GprConfig::paper_default() };
                let r = cold(&gpu, &g, &init, config);
                assert_eq!(
                    r.matching.cardinality(),
                    opt,
                    "{} with {}",
                    variant.label(),
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn stats_report_kernels_and_relabels() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(200, 200, 900, 14).unwrap();
        let init = cheap_matching(&g);
        let r = cold(&gpu, &g, &init, GprConfig::with_variant(GprVariant::First));
        assert!(r.stats.global_relabels >= 1);
        assert!(r.stats.loops >= 1);
        assert!(r.stats.device.launches_of("G-PR-KRNL") >= 1);
        assert!(r.stats.device.launches_of("FIXMATCHING") == 1);
        assert!(r.stats.device.modelled_time_secs() > 0.0);
        assert_eq!(r.stats.variant, "G-PR-First");

        let r = cold(&gpu, &g, &init, GprConfig::with_variant(GprVariant::ActiveList));
        assert!(r.stats.device.launches_of("G-PR-PUSHKRNL") >= 1);
        assert!(r.stats.device.launches_of("G-PR-INITKRNL") >= 1);
        assert_eq!(r.stats.device.launches_of("G-PR-SHRKRNL_count"), 0);
    }

    #[test]
    fn shrink_variant_uses_shrink_kernel_on_large_lists() {
        let gpu = VirtualGpu::sequential();
        // RMAT graphs have a large deficiency, so the active list starts with
        // well over 512 entries at this scale.
        let g = gen::rmat(gen::RmatParams::graph500(11, 4), 4).unwrap();
        let init = cheap_matching(&g);
        let config = GprConfig::with_variant(GprVariant::Shrink);
        let r = cold(&gpu, &g, &init, config);
        assert!(r.stats.shrinks >= 1, "expected at least one shrink pass");
        assert!(r.stats.device.launches_of("G-PR-SHRKRNL_count") >= 1);
        assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
    }

    #[test]
    fn active_list_variant_launches_fewer_threads_than_first() {
        let gpu = VirtualGpu::sequential();
        let g = gen::rmat(gen::RmatParams::web_like(10, 4), 6).unwrap();
        let init = cheap_matching(&g);
        let first = cold(&gpu, &g, &init, GprConfig::with_variant(GprVariant::First));
        let active = cold(&gpu, &g, &init, GprConfig::with_variant(GprVariant::ActiveList));
        let first_threads = first.stats.device.kernels["G-PR-KRNL"].total_threads;
        let active_threads = active.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
        assert!(
            active_threads < first_threads,
            "active-list should launch fewer threads ({active_threads} vs {first_threads})"
        );
    }

    #[test]
    fn every_worklist_mode_finds_the_maximum() {
        for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel()] {
            for seed in 0..3u64 {
                let g = gen::uniform_random(70, 65, 340, seed + 30).unwrap();
                let opt = maximum_matching_cardinality(&g);
                let init = cheap_matching(&g);
                for variant in [GprVariant::ActiveList, GprVariant::Shrink] {
                    for mode in WorklistMode::all() {
                        let config = GprConfig::with_variant(variant).with_worklist(mode);
                        let r = cold(&gpu, &g, &init, config);
                        assert_eq!(
                            r.matching.cardinality(),
                            opt,
                            "{} with {mode} worklist",
                            variant.label()
                        );
                        r.matching.validate_against(&g).unwrap();
                        assert_eq!(r.stats.worklist, mode.label());
                    }
                }
            }
        }
    }

    #[test]
    fn queue_worklist_skips_the_init_kernel() {
        for mode in [WorklistMode::AtomicQueue, WorklistMode::BlockedQueue] {
            let gpu = VirtualGpu::sequential();
            let g = gen::rmat(gen::RmatParams::web_like(9, 4), 17).unwrap();
            let init = cheap_matching(&g);
            let config = GprConfig::with_variant(GprVariant::Shrink).with_worklist(mode);
            let r = cold(&gpu, &g, &init, config);
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g), "{mode}");
            // No per-iteration scan of any kind: neither INITKRNL nor the
            // shrink kernels ever launch, and the drained-queue termination
            // checks run fused into the push kernel's tail — zero refill
            // launches, only fused tails.
            assert_eq!(r.stats.device.launches_of("G-PR-INITKRNL"), 0, "{mode}");
            assert_eq!(r.stats.device.launches_of("G-PR-SHRKRNL_count"), 0, "{mode}");
            assert_eq!(r.stats.device.launches_of("G-PR-WL-REFILL"), 0, "{mode}");
            assert!(r.stats.device.fused_tails_of("G-PR-WL-REFILL") >= 1, "{mode}");
            assert_eq!(r.stats.shrinks, 0, "{mode}");
            assert!(r.stats.atomics > 0, "{mode}: queue pushes must charge atomics");
        }
    }

    #[test]
    fn queue_worklist_launches_fewer_push_threads_than_dense() {
        // The launch-bound regime: after the first few iterations only a
        // handful of columns stay active, and the queue representation
        // launches exactly that many threads while the dense list keeps its
        // full width.
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(600, 600, 3600, 5).unwrap();
        let init = cheap_matching(&g);
        let dense = cold(
            &gpu,
            &g,
            &init,
            GprConfig::with_variant(GprVariant::ActiveList).with_worklist(WorklistMode::DenseStamp),
        );
        let queue = cold(
            &gpu,
            &g,
            &init,
            GprConfig::with_variant(GprVariant::ActiveList)
                .with_worklist(WorklistMode::AtomicQueue),
        );
        assert_eq!(dense.matching.cardinality(), queue.matching.cardinality());
        let dense_threads = dense.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
        let queue_threads = queue.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
        assert!(
            queue_threads <= dense_threads,
            "queue should not launch more push threads ({queue_threads} vs {dense_threads})"
        );
    }

    #[test]
    fn persistent_exec_matches_launch_per_round() {
        // Same code path drives both modes, so matching, round counts, and
        // relabel/shrink schedules must agree exactly.
        let gpu = VirtualGpu::sequential();
        for seed in 0..2u64 {
            let g = gen::uniform_random(70, 65, 340, seed + 60).unwrap();
            let init = cheap_matching(&g);
            for variant in all_variants() {
                for mode in WorklistMode::all() {
                    let base = GprConfig::with_variant(variant).with_worklist(mode);
                    let lpr = cold(&gpu, &g, &init, base);
                    let per = cold(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
                    let tag = format!("{} + {mode}, seed {seed}", variant.label());
                    assert_eq!(per.matching.cardinality(), lpr.matching.cardinality(), "{tag}");
                    per.matching.validate_against(&g).unwrap();
                    assert_eq!(per.stats.loops, lpr.stats.loops, "{tag}");
                    assert_eq!(per.stats.global_relabels, lpr.stats.global_relabels, "{tag}");
                    assert_eq!(per.stats.shrinks, lpr.stats.shrinks, "{tag}");
                    assert!(!per.stats.stopped, "{tag}");
                    assert_eq!(per.stats.exec, "resident", "{tag}");
                    assert_eq!(lpr.stats.exec, "launch", "{tag}");
                }
            }
        }
    }

    #[test]
    fn persistent_runs_launch_a_small_constant_number_of_kernels() {
        for make_gpu in [VirtualGpu::sequential as fn() -> VirtualGpu, VirtualGpu::parallel] {
            let gpu = make_gpu();
            let g = gen::rmat(gen::RmatParams::graph500(9, 4), 4).unwrap();
            let init = cheap_matching(&g);
            let config = GprConfig::paper_default().with_exec(ExecMode::Persistent);
            let r = cold(&gpu, &g, &init, config);
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
            // The whole solve is one resident launch plus FIXMATCHING; every
            // round loop kernel is priced as a barrier crossing instead.
            assert_eq!(r.stats.device.launches_of("G-PR-RESIDENT"), 1);
            assert_eq!(r.stats.device.launches_of("FIXMATCHING"), 1);
            assert_eq!(r.stats.device.total_launches(), 2);
            assert!(r.stats.device.total_resident_rounds() > 0);
            assert!(r.stats.device.total_barriers() > 0);
            assert_eq!(r.stats.device.launches_of("G-PR-PUSHKRNL"), 0);
            assert!(r.stats.device.resident_rounds_of("G-PR-PUSHKRNL") >= r.stats.loops - 1);
        }
    }

    #[test]
    fn persistent_exec_is_cheaper_when_launch_bound() {
        // A long, narrow solve: many rounds over small frontiers, the
        // regime where launch overhead dominates and the barrier wins.
        let gpu = VirtualGpu::sequential();
        let g = gen::road_network(40, 40, 0.1, 5).unwrap();
        let init = cheap_matching(&g);
        let base = GprConfig::paper_default().with_worklist(WorklistMode::BlockedQueue);
        let lpr = cold(&gpu, &g, &init, base);
        let per = cold(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
        assert_eq!(lpr.matching.cardinality(), per.matching.cardinality());
        assert!(
            per.stats.device.modelled_time_secs() < lpr.stats.device.modelled_time_secs(),
            "persistent ({:.6}s) should beat launch-per-round ({:.6}s)",
            per.stats.device.modelled_time_secs(),
            lpr.stats.device.modelled_time_secs()
        );
    }

    #[test]
    fn persistent_stop_check_still_lands_within_one_round() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gpu = VirtualGpu::sequential();
        let g = gen::rmat(gen::RmatParams::graph500(10, 4), 4).unwrap();
        let init = cheap_matching(&g);
        for variant in all_variants() {
            let polls = Arc::new(AtomicU64::new(0));
            let p = Arc::clone(&polls);
            let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 3);
            let config = GprConfig::with_variant(variant).with_exec(ExecMode::Persistent);
            let r = run(&gpu, &g, &init, config, &mut GprWorkspace::new(), &stop);
            assert!(r.stats.stopped, "{}", variant.label());
            assert!(r.stats.loops <= 3, "{}: {} rounds", variant.label(), r.stats.loops);
            r.matching.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn config_validation_rejects_zero_shrink_threshold() {
        let bad = GprConfig { shrink_threshold: 0, ..GprConfig::paper_default() };
        assert!(bad.validate().is_err());
        assert!(GprConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn variant_default_worklists_match_the_paper() {
        assert_eq!(GprVariant::First.default_worklist(), WorklistMode::DenseStamp);
        assert_eq!(GprVariant::ActiveList.default_worklist(), WorklistMode::DenseStamp);
        assert_eq!(GprVariant::Shrink.default_worklist(), WorklistMode::Compacted);
        assert_eq!(
            GprConfig::with_variant(GprVariant::ActiveList).worklist,
            WorklistMode::DenseStamp
        );
    }

    #[test]
    fn warm_workspace_matches_cold_runs_across_shapes() {
        let gpu = VirtualGpu::sequential();
        let mut ws = GprWorkspace::new();
        let g1 = gen::uniform_random(60, 60, 300, 1).unwrap();
        let g2 = gen::uniform_random(60, 60, 320, 2).unwrap();
        for variant in all_variants() {
            let config = GprConfig::with_variant(variant);
            let init1 = cheap_matching(&g1);
            let warm1 = run(&gpu, &g1, &init1, config, &mut ws, &StopCheck::never());
            assert_eq!(
                warm1.matching.cardinality(),
                cold(&gpu, &g1, &init1, config).matching.cardinality()
            );
            // Same shape: the second solve reuses the workspace buffers.
            assert!(ws.is_warm_for(&g2));
            let init2 = cheap_matching(&g2);
            let warm2 = run(&gpu, &g2, &init2, config, &mut ws, &StopCheck::never());
            assert_eq!(
                warm2.matching.cardinality(),
                cold(&gpu, &g2, &init2, config).matching.cardinality()
            );
        }
        // Shape change: the workspace transparently re-allocates.
        let g3 = gen::uniform_random(30, 45, 200, 3).unwrap();
        assert!(!ws.is_warm_for(&g3));
        let r3 = run(
            &gpu,
            &g3,
            &cheap_matching(&g3),
            GprConfig::paper_default(),
            &mut ws,
            &StopCheck::never(),
        );
        assert_eq!(r3.matching.cardinality(), maximum_matching_cardinality(&g3));
        assert!(ws.is_warm_for(&g3));
    }

    #[test]
    fn stop_check_halts_within_one_round() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gpu = VirtualGpu::sequential();
        // Table-I-scale-ish RMAT instance: plenty of rounds to interrupt.
        let g = gen::rmat(gen::RmatParams::graph500(11, 4), 4).unwrap();
        let init = cheap_matching(&g);
        let opt = maximum_matching_cardinality(&g);
        for variant in all_variants() {
            // Trip the signal on the fourth poll: at most three rounds (plus
            // GR level polls, which only shrink the budget) may have run.
            let polls = Arc::new(AtomicU64::new(0));
            let p = Arc::clone(&polls);
            let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 3);
            let r = run(
                &gpu,
                &g,
                &init,
                GprConfig::with_variant(variant),
                &mut GprWorkspace::new(),
                &stop,
            );
            assert!(r.stats.stopped, "{}", variant.label());
            // Each completed round burned at least one poll, so the round
            // count bounds how far past the signal the engine ran: within
            // one round of the poll that tripped.
            assert!(
                r.stats.loops <= 3,
                "{} ran {} rounds past a signal tripped at poll 3",
                variant.label(),
                r.stats.loops
            );
            // The partial matching is consistent (FIXMATCHING ran) and no
            // better than the optimum.
            r.matching.validate_against(&g).unwrap();
            assert!(r.matching.cardinality() <= opt);
            assert!(r.matching.cardinality() >= init.cardinality().saturating_sub(1));
        }
    }

    #[test]
    fn pre_tripped_stop_completes_zero_rounds() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(100, 100, 500, 3).unwrap();
        let init = cheap_matching(&g);
        for variant in all_variants() {
            let stop = StopCheck::from_fn(|| true);
            let r = run(
                &gpu,
                &g,
                &init,
                GprConfig::with_variant(variant),
                &mut GprWorkspace::new(),
                &stop,
            );
            assert!(r.stats.stopped, "{}", variant.label());
            assert_eq!(r.stats.loops, 0, "{}", variant.label());
            r.matching.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn never_stop_matches_plain_run() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(80, 80, 400, 7).unwrap();
        let init = cheap_matching(&g);
        let plain = cold(&gpu, &g, &init, GprConfig::paper_default());
        let stopped = run(
            &gpu,
            &g,
            &init,
            GprConfig::paper_default(),
            &mut GprWorkspace::new(),
            &StopCheck::never(),
        );
        assert!(!plain.stats.stopped);
        assert!(!stopped.stats.stopped);
        assert_eq!(plain.matching.cardinality(), stopped.matching.cardinality());
        assert_eq!(plain.stats.loops, stopped.stats.loops);
    }

    #[test]
    fn per_run_device_stats_are_isolated() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(80, 80, 400, 3).unwrap();
        let init = cheap_matching(&g);
        let a = cold(&gpu, &g, &init, GprConfig::paper_default());
        let b = cold(&gpu, &g, &init, GprConfig::paper_default());
        // Same work both times: the second run's stats must not include the
        // first run's launches.
        assert_eq!(
            a.stats.device.launches_of("G-PR-PUSHKRNL"),
            b.stats.device.launches_of("G-PR-PUSHKRNL")
        );
    }
}
