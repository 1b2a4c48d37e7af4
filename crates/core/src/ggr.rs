//! GPU global relabeling (Algorithms 4 and 5 of the paper).
//!
//! `G-GR` recomputes exact distance labels with a level-synchronous BFS that
//! starts simultaneously from every unmatched row:
//!
//! 1. `INITRELABEL` sets `ψ(u) = 0` for unmatched rows and `ψ = m + n` for
//!    every other vertex;
//! 2. `G-GR-KRNL` is launched once per BFS level; every thread owns one row
//!    vertex `u` and, when `ψ(u)` equals the current level, labels its
//!    unvisited column neighbours with `cLevel + 1` and their matched rows
//!    with `cLevel + 2`.
//!
//! Several threads may write the same `ψ` entry, but always with the same
//! value, so the kernel needs no atomics — exactly the argument of the paper.
//!
//! The BFS frontier itself is managed by the shared [`Worklist`] subsystem:
//! the default [`WorklistMode::DenseStamp`] reproduces the paper's full-grid
//! level-synchronous scan exactly, while the compacted and queue
//! representations launch only over the frontier rows
//! ([`global_relabel_with`]).  Those three seed the unmatched rows with one
//! device-side gather and then build every next level by device-side
//! append, so a relabeling costs work in proportion to the rows it reaches,
//! not `levels × m`.

use crate::device::{DeviceState, MU_UNMATCHED};
use crate::roundloop::{drive_rounds, resident_scope, RoundOutcome};
use gpm_gpu::{ExecMode, StopCheck, VirtualGpu, Worklist, WorklistKernels, WorklistMode};
use gpm_graph::BipartiteCsr;

/// Kernel names the G-GR frontier worklist charges its maintenance to.
const GGR_WORKLIST_KERNELS: WorklistKernels = WorklistKernels {
    init: "G-GR-WL-INIT",
    compact_count: "G-GR-WL-COMPACT",
    compact_scatter: "G-GR-WL-SCATTER",
    refill: "G-GR-WL-REFILL",
    stitch: "G-GR-WL-STITCH",
};

/// Result of one global relabeling pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalRelabelOutcome {
    /// The deepest label assigned (`maxLevel` in Algorithm 4); feeds the
    /// adaptive scheduling strategy.
    pub max_level: u32,
    /// Number of BFS level kernels launched.
    pub levels: u32,
    /// `true` when the BFS was abandoned mid-way by a
    /// [`gpm_gpu::StopCheck`].  The labels are then incomplete (some ψ may
    /// remain at `m + n`); the matching arrays are untouched either way, so
    /// the caller can stop the whole solve safely.
    pub stopped: bool,
}

/// Runs `G-GR` on the device, overwriting `ψ` with exact distances, with the
/// paper's dense frontier representation.
pub fn global_relabel(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
) -> GlobalRelabelOutcome {
    global_relabel_with(gpu, graph, state, WorklistMode::DenseStamp)
}

/// Runs `G-GR` with an explicit frontier representation.  All modes write
/// identical labels; they differ in how the row frontier of each BFS level
/// is stored and launched over.
pub fn global_relabel_with(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    mode: WorklistMode,
) -> GlobalRelabelOutcome {
    global_relabel_with_stop(gpu, graph, state, mode, &StopCheck::never())
}

/// Runs `G-GR` like [`global_relabel_with`], polling `stop` between BFS
/// levels.  A long relabeling (the deepest alternating path can span the
/// whole graph) is abandoned at level granularity with
/// [`GlobalRelabelOutcome::stopped`] set.
pub fn global_relabel_with_stop(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    mode: WorklistMode,
    stop: &StopCheck,
) -> GlobalRelabelOutcome {
    global_relabel_with_exec(gpu, graph, state, mode, ExecMode::LaunchPerRound, stop)
}

/// Runs `G-GR` like [`global_relabel_with_stop`] under an explicit
/// [`ExecMode`].  Under [`ExecMode::Persistent`] the whole BFS — the init
/// kernels and every level — executes inside one
/// [`gpm_gpu::VirtualGpu::resident`] scope, so each level is priced as a
/// global-barrier crossing instead of a kernel launch.
///
/// This is the entry point for a *standalone* persistent relabeling.  When
/// G-GR runs inside a persistent G-PR solve, the engine passes
/// [`ExecMode::LaunchPerRound`] here instead: the kernels then inherit the
/// enclosing solve's resident scope (nesting scopes is an error).
pub fn global_relabel_with_exec(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    mode: WorklistMode,
    exec: ExecMode,
    stop: &StopCheck,
) -> GlobalRelabelOutcome {
    match resident_scope(exec, "G-GR-RESIDENT", graph.num_rows().max(graph.num_cols())) {
        Some((name, domain)) => {
            gpu.resident(name, domain, || global_relabel_body(gpu, graph, state, mode, stop))
        }
        None => global_relabel_body(gpu, graph, state, mode, stop),
    }
}

fn global_relabel_body(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    mode: WorklistMode,
    stop: &StopCheck,
) -> GlobalRelabelOutcome {
    let m = graph.num_rows();
    let unreachable = state.unreachable;

    // INITRELABEL: one thread per row plus one per column.
    gpu.launch("INITRELABEL_rows", m, |ctx| {
        let u = ctx.global_id;
        ctx.add_work(1);
        if state.mu_row.get(u) == MU_UNMATCHED {
            state.psi_row.set(u, 0);
        } else {
            state.psi_row.set(u, unreachable);
        }
    });
    gpu.launch("INITRELABEL_cols", state.num_cols(), |ctx| {
        ctx.add_work(1);
        state.psi_col.set(ctx.global_id, unreachable);
    });

    // Level-synchronous BFS: one G-GR-KRNL launch per level, the frontier
    // (rows at the current level) managed by the worklist.  The seed (the
    // unmatched rows, ψ = 0) is gathered device-side — no host scan, and
    // the cost is charged to the device model like INITRELABEL itself.
    let mut frontier = Worklist::new(gpu, mode, m, GGR_WORKLIST_KERNELS);
    frontier.seed_by_predicate(|u| state.mu_row.get(u) == MU_UNMATCHED);
    let mut c_level: u32 = 0;
    let mut levels = 0u32;
    let stopped = drive_rounds(gpu, None, stop, || {
        frontier.for_each_frontier("G-GR-KRNL", |ctx, u, frontier| {
            for &v in graph.row_neighbors(u as u32) {
                ctx.add_work(1);
                let v = v as usize;
                if state.psi_col.get(v) == unreachable {
                    state.psi_col.set(v, c_level + 1);
                    let mate = state.mu_col.get(v);
                    if mate > MU_UNMATCHED && state.mu_row.get(mate as usize) == v as i64 {
                        state.psi_row.set(mate as usize, c_level + 2);
                        frontier.push(ctx, mate as usize);
                    }
                }
            }
        });
        c_level += 2;
        levels += 1;
        if frontier.advance_frontier() {
            RoundOutcome::Continue
        } else {
            RoundOutcome::Done
        }
    });

    // maxLevel is the level counter reached when the BFS stopped adding rows
    // (Algorithm 4 line 8).
    GlobalRelabelOutcome { max_level: c_level, levels, stopped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::{gen, BipartiteCsr, Matching};

    fn exact_labels_host(g: &BipartiteCsr, m: &Matching) -> (Vec<u32>, Vec<u32>) {
        // Reference BFS on the host (same as the sequential GR).
        let unreachable = (g.num_rows() + g.num_cols()) as u32;
        let mut psi_row = vec![unreachable; g.num_rows()];
        let mut psi_col = vec![unreachable; g.num_cols()];
        let mut queue = std::collections::VecDeque::new();
        for r in 0..g.num_rows() as u32 {
            if !m.is_row_matched(r) {
                psi_row[r as usize] = 0;
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = psi_row[u as usize];
            for &v in g.row_neighbors(u) {
                if psi_col[v as usize] == unreachable {
                    psi_col[v as usize] = du + 1;
                    if let Some(w) = m.col_mate(v) {
                        if psi_row[w as usize] == unreachable {
                            psi_row[w as usize] = du + 2;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        (psi_row, psi_col)
    }

    #[test]
    fn labels_match_host_bfs_on_random_graphs() {
        for seed in 0..4u64 {
            let g = gen::uniform_random(50, 50, 220, seed).unwrap();
            let matching = cheap_matching(&g);
            for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel()] {
                let state = DeviceState::upload(&g, &matching);
                global_relabel(&gpu, &g, &state);
                let (er, ec) = exact_labels_host(&g, &matching);
                assert_eq!(state.psi_row.to_vec(), er, "rows, seed {seed}");
                assert_eq!(state.psi_col.to_vec(), ec, "cols, seed {seed}");
            }
        }
    }

    #[test]
    fn every_worklist_mode_writes_identical_labels() {
        for seed in 0..3u64 {
            let g = gen::power_law(60, 55, 260, 2.0, seed).unwrap();
            let matching = cheap_matching(&g);
            let (er, ec) = exact_labels_host(&g, &matching);
            for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel()] {
                for mode in gpm_gpu::WorklistMode::all() {
                    let state = DeviceState::upload(&g, &matching);
                    let dense_out = global_relabel(&gpu, &g, &state);
                    let state = DeviceState::upload(&g, &matching);
                    let out = global_relabel_with(&gpu, &g, &state, mode);
                    assert_eq!(state.psi_row.to_vec(), er, "{mode}, seed {seed}");
                    assert_eq!(state.psi_col.to_vec(), ec, "{mode}, seed {seed}");
                    // The level count (and hence maxLevel, which feeds the
                    // adaptive GR schedule) is representation-independent.
                    assert_eq!(out.max_level, dense_out.max_level, "{mode}");
                    assert_eq!(out.levels, dense_out.levels, "{mode}");
                }
            }
        }
    }

    #[test]
    fn queue_frontier_avoids_full_grid_bfs_scans() {
        let g = gen::uniform_random(400, 400, 1600, 11).unwrap();
        let matching = cheap_matching(&g);
        let dense_gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &matching);
        global_relabel(&dense_gpu, &g, &state);
        let queue_gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &matching);
        global_relabel_with(&queue_gpu, &g, &state, gpm_gpu::WorklistMode::AtomicQueue);
        let dense_threads = dense_gpu.stats().kernels["G-GR-KRNL"].total_threads;
        let queue_threads = queue_gpu.stats().kernels["G-GR-KRNL"].total_threads;
        assert!(
            queue_threads < dense_threads,
            "queue frontier should launch fewer BFS threads ({queue_threads} vs {dense_threads})"
        );
    }

    #[test]
    fn compacted_frontier_rebuilds_no_level_from_a_domain_scan() {
        // After the seed gather, every level of a compacted BFS is appended
        // like the per-item queue's: the same refill and scan launches (the
        // seed's alone) and the same G-GR-KRNL thread total.
        let g = gen::road_network(20, 20, 0.1, 5).unwrap();
        let matching = cheap_matching(&g);
        let runs: Vec<_> = [WorklistMode::Compacted, WorklistMode::AtomicQueue]
            .into_iter()
            .map(|mode| {
                let gpu = VirtualGpu::sequential();
                let state = DeviceState::upload(&g, &matching);
                let out = global_relabel_with(&gpu, &g, &state, mode);
                (out.levels, gpu.stats())
            })
            .collect();
        let (levels, compacted) = &runs[0];
        let queue = &runs[1].1;
        assert!(*levels > 3, "need a deep BFS for this test, got {levels}");
        assert!(compacted.launches_of("G-GR-WL-REFILL") <= 2, "seed gather only");
        for kernel in ["G-GR-WL-REFILL", "scan_block", "scan_uniform_add"] {
            assert_eq!(compacted.launches_of(kernel), queue.launches_of(kernel), "{kernel}");
        }
        assert_eq!(
            compacted.kernels["G-GR-KRNL"].total_threads,
            queue.kernels["G-GR-KRNL"].total_threads
        );
    }

    #[test]
    fn empty_matching_gives_level_one_columns() {
        let g = gen::uniform_random(20, 20, 80, 9).unwrap();
        let gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &Matching::empty_for(&g));
        let out = global_relabel(&gpu, &g, &state);
        // every row unmatched → ψ(u) = 0; every column with a neighbor → 1
        for u in 0..20 {
            assert_eq!(state.psi_row.get(u), 0);
        }
        for c in 0..20u32 {
            let expected = if g.col_degree(c) > 0 { 1 } else { 40 };
            assert_eq!(state.psi_col.get(c as usize), expected);
        }
        assert!(out.levels >= 1);
    }

    #[test]
    fn unreachable_vertices_get_m_plus_n() {
        // Perfect matching on a 1x1 component plus an isolated matched pair
        // that cannot reach any unmatched row.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let mut m = Matching::empty_for(&g);
        m.match_pair(0, 0);
        m.match_pair(1, 1);
        let gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &m);
        let out = global_relabel(&gpu, &g, &state);
        assert_eq!(state.psi_row.to_vec(), vec![4, 4]);
        assert_eq!(state.psi_col.to_vec(), vec![4, 4]);
        assert_eq!(out.max_level, 2); // loop ran once with no additions
    }

    #[test]
    fn max_level_tracks_longest_alternating_path() {
        // Path graph: c0-r0-c1-r1-c2-r2 with matching {r0-c1, r1-c2}; the
        // only unmatched row r2 is 4 alternating levels away from c0.
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]).unwrap();
        let mut m = Matching::empty_for(&g);
        m.match_pair(0, 1);
        m.match_pair(1, 2);
        let gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &m);
        let out = global_relabel(&gpu, &g, &state);
        // r2 = 0, c2 = 1, r1 = 2, c1 = 3, r0 = 4, c0 = 5
        assert_eq!(state.psi_row.to_vec(), vec![4, 2, 0]);
        assert_eq!(state.psi_col.to_vec(), vec![5, 3, 1]);
        assert!(out.max_level >= 4);
    }

    #[test]
    fn stop_check_abandons_bfs_between_levels() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // Long alternating path → many BFS levels, so a stop firing on the
        // third poll must leave the deepest labels unwritten.
        let n = 40;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, i));
            if i + 1 < n {
                edges.push((i, i + 1));
            }
        }
        let g = BipartiteCsr::from_edges(n as usize, n as usize, &edges).unwrap();
        let mut m = Matching::empty_for(&g);
        for i in 0..n - 1 {
            m.match_pair(i, i + 1);
        }
        let gpu = VirtualGpu::sequential();

        let state = DeviceState::upload(&g, &m);
        let full = global_relabel(&gpu, &g, &state);
        assert!(!full.stopped);
        assert!(full.levels > 3, "need a deep BFS for this test, got {}", full.levels);

        let state = DeviceState::upload(&g, &m);
        let polls = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&polls);
        let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 3);
        let out = global_relabel_with_stop(&gpu, &g, &state, WorklistMode::DenseStamp, &stop);
        assert!(out.stopped);
        // Stopped within one level of the signal: exactly the polls that
        // returned `false` ran a level kernel.
        assert_eq!(out.levels, 3);
        assert!(out.levels < full.levels);
    }

    #[test]
    fn persistent_relabeling_writes_identical_labels_without_launches() {
        let g = gen::uniform_random(80, 80, 360, 13).unwrap();
        let matching = cheap_matching(&g);
        let (er, ec) = exact_labels_host(&g, &matching);
        for make_gpu in [VirtualGpu::sequential as fn() -> VirtualGpu, VirtualGpu::parallel] {
            for mode in WorklistMode::all() {
                let lpr_gpu = make_gpu();
                let state = DeviceState::upload(&g, &matching);
                let lpr = global_relabel_with(&lpr_gpu, &g, &state, mode);

                let gpu = make_gpu();
                let state = DeviceState::upload(&g, &matching);
                let out = global_relabel_with_exec(
                    &gpu,
                    &g,
                    &state,
                    mode,
                    ExecMode::Persistent,
                    &StopCheck::never(),
                );
                assert!(!out.stopped);
                assert_eq!(state.psi_row.to_vec(), er, "{mode}");
                assert_eq!(state.psi_col.to_vec(), ec, "{mode}");
                assert_eq!(out.max_level, lpr.max_level, "{mode}");
                assert_eq!(out.levels, lpr.levels, "{mode}");
                // Every level kernel was priced as a device-resident round;
                // only the scope entry launched.
                let stats = gpu.stats();
                assert_eq!(stats.launches_of("G-GR-KRNL"), 0, "{mode}");
                assert_eq!(stats.resident_rounds_of("G-GR-KRNL"), out.levels as u64, "{mode}");
                assert_eq!(stats.launches_of("G-GR-RESIDENT"), 1, "{mode}");
                assert!(stats.total_barriers() >= out.levels as u64, "{mode}");
            }
        }
    }

    #[test]
    fn kernel_launch_counts_are_recorded() {
        let g = gen::uniform_random(30, 30, 100, 2).unwrap();
        let gpu = VirtualGpu::sequential();
        let state = DeviceState::upload(&g, &cheap_matching(&g));
        global_relabel(&gpu, &g, &state);
        let stats = gpu.stats();
        assert_eq!(stats.launches_of("INITRELABEL_rows"), 1);
        assert_eq!(stats.launches_of("INITRELABEL_cols"), 1);
        assert!(stats.launches_of("G-GR-KRNL") >= 1);
    }
}
