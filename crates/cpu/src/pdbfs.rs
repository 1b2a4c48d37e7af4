//! P-DBFS — multicore matching via vertex-disjoint parallel BFS.
//!
//! The paper compares against the multicore algorithms of Azad et al. and
//! reports that **P-DBFS**, "which employs vertex disjoint BFSs to find the
//! augmenting paths, obtained the best performance".  This module implements
//! that scheme:
//!
//! * the unmatched columns are distributed over `threads` worker threads;
//! * each worker grows a BFS tree from its columns, *claiming* every visited
//!   row and column with an atomic compare-and-swap so trees stay vertex
//!   disjoint (this is where the multicore algorithm uses atomics — the very
//!   thing the paper's GPU algorithm is designed to avoid);
//! * when a tree reaches an unmatched row the discovered augmenting path is
//!   applied; the tree owns all its vertices, so the augmentation is safe;
//! * rounds repeat; once a round finds no augmenting path the few remaining
//!   unmatched columns are finished sequentially so the result is
//!   guaranteed maximum (disjoint claiming alone can starve a column whose
//!   only augmenting paths run through another tree's claim).  The cleanup
//!   is PF+'s pass loop from the matching the rounds left: the searches of
//!   one pass share their visited rows, so a pass scans O(E) edges however
//!   many columns stay free, and passes repeat until one augments nothing.

use crate::pfp::augment_in_passes;
use crate::{CpuRunResult, CpuStats};
use gpm_graph::{BipartiteCsr, Matching, VertexId, UNMATCHED};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Configuration for the multicore P-DBFS solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdbfsConfig {
    /// Number of worker threads.  The paper uses 8.
    pub threads: usize,
}

impl Default for PdbfsConfig {
    fn default() -> Self {
        Self { threads: 8 }
    }
}

const FREE: i64 = -1;

/// One BFS tree grown from `root`, restricted to unclaimed vertices.
/// Returns the augmenting path (column-first, alternating) if one was found.
#[allow(clippy::too_many_arguments)]
fn grow_tree(
    g: &BipartiteCsr,
    row_mate: &[AtomicI64],
    col_mate: &[AtomicI64],
    row_owner: &[AtomicI64],
    col_owner: &[AtomicI64],
    owner_id: i64,
    root: VertexId,
    edges_scanned: &AtomicU64,
) -> Option<Vec<(VertexId, VertexId)>> {
    // parent_of[u] = column from which row u was reached.
    let mut parent_of: std::collections::HashMap<VertexId, VertexId> =
        std::collections::HashMap::new();
    let mut queue: VecDeque<VertexId> = VecDeque::new();

    if col_owner[root as usize]
        .compare_exchange(FREE, owner_id, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return None;
    }
    queue.push_back(root);
    let mut scanned = 0u64;

    let result = 'search: {
        while let Some(v) = queue.pop_front() {
            for &u in g.col_neighbors(v) {
                scanned += 1;
                // claim row u
                if row_owner[u as usize]
                    .compare_exchange(FREE, owner_id, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue;
                }
                parent_of.insert(u, v);
                let mate = row_mate[u as usize].load(Ordering::Acquire);
                if mate == UNMATCHED {
                    // Augmenting path found: walk back through parents.
                    let mut path = Vec::new();
                    let mut cur_row = u;
                    loop {
                        let via_col = parent_of[&cur_row];
                        path.push((cur_row, via_col));
                        let next = col_mate[via_col as usize].load(Ordering::Acquire);
                        if next == UNMATCHED {
                            break;
                        }
                        cur_row = next as VertexId;
                    }
                    break 'search Some(path);
                } else {
                    // continue through the matched column of u's mate? No —
                    // u is matched to column `mate`; the alternating path
                    // continues from that column.
                    let w = mate as VertexId;
                    if col_owner[w as usize]
                        .compare_exchange(FREE, owner_id, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        queue.push_back(w);
                    }
                }
            }
        }
        None
    };
    edges_scanned.fetch_add(scanned, Ordering::Relaxed);
    result
}

/// Runs P-DBFS with the given configuration, starting from `initial`.
pub fn pdbfs(g: &BipartiteCsr, initial: &Matching, config: PdbfsConfig) -> CpuRunResult {
    let start = std::time::Instant::now();
    let mut stats = CpuStats { algorithm: "P-DBFS", ..Default::default() };
    let threads = config.threads.max(1);

    // Shared mate arrays (atomics: the multicore algorithm is allowed to use
    // them, unlike the GPU algorithm).
    let row_mate: Vec<AtomicI64> = initial.row_mates().iter().map(|&v| AtomicI64::new(v)).collect();
    let col_mate: Vec<AtomicI64> = initial.col_mates().iter().map(|&v| AtomicI64::new(v)).collect();
    let edges_scanned = AtomicU64::new(0);
    let augmentations = AtomicU64::new(0);

    let mut unmatched: Vec<VertexId> = (0..g.num_cols() as VertexId)
        .filter(|&c| col_mate[c as usize].load(Ordering::Relaxed) == UNMATCHED)
        .collect();

    loop {
        stats.phases += 1;
        let row_owner: Vec<AtomicI64> = (0..g.num_rows()).map(|_| AtomicI64::new(FREE)).collect();
        let col_owner: Vec<AtomicI64> = (0..g.num_cols()).map(|_| AtomicI64::new(FREE)).collect();
        let round_augmented = AtomicU64::new(0);

        let chunk = unmatched.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (tid, cols) in unmatched.chunks(chunk).enumerate() {
                let row_mate = &row_mate;
                let col_mate = &col_mate;
                let row_owner = &row_owner;
                let col_owner = &col_owner;
                let edges_scanned = &edges_scanned;
                let round_augmented = &round_augmented;
                let augmentations = &augmentations;
                scope.spawn(move || {
                    let owner_id = tid as i64 + 1;
                    for &c in cols {
                        if col_mate[c as usize].load(Ordering::Acquire) != UNMATCHED {
                            continue;
                        }
                        if let Some(path) = grow_tree(
                            g,
                            row_mate,
                            col_mate,
                            row_owner,
                            col_owner,
                            owner_id,
                            c,
                            edges_scanned,
                        ) {
                            // Apply the augmenting path: every vertex on it is
                            // owned by this thread, so plain stores suffice.
                            for &(u, v) in &path {
                                row_mate[u as usize].store(v as i64, Ordering::Release);
                                col_mate[v as usize].store(u as i64, Ordering::Release);
                            }
                            round_augmented.fetch_add(1, Ordering::Relaxed);
                            augmentations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        unmatched.retain(|&c| col_mate[c as usize].load(Ordering::Relaxed) == UNMATCHED);
        if round_augmented.load(Ordering::Relaxed) == 0 || unmatched.is_empty() {
            break;
        }
    }

    // Sequential cleanup: the disjointness restriction can starve columns, so
    // finish with PF+'s passes to guarantee maximality.
    let mut matching = Matching::from_raw(
        row_mate.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
        col_mate.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
    );
    augment_in_passes(g, &mut matching, &mut stats);

    stats.pushes = 0;
    stats.augmentations += augmentations.load(Ordering::Relaxed);
    stats.edges_scanned += edges_scanned.load(Ordering::Relaxed);
    stats.seconds = start.elapsed().as_secs_f64();
    CpuRunResult { matching, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};

    fn solve(g: &BipartiteCsr, threads: usize) -> CpuRunResult {
        pdbfs(g, &cheap_matching(g), PdbfsConfig { threads })
    }

    #[test]
    fn maximum_on_small_square() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let r = pdbfs(&g, &Matching::empty_for(&g), PdbfsConfig::default());
        assert_eq!(r.matching.cardinality(), 2);
        assert!(is_maximum(&g, &r.matching));
    }

    #[test]
    fn maximum_on_random_graphs_multiple_thread_counts() {
        for seed in 0..4u64 {
            let g = gen::uniform_random(120, 110, 700, seed + 7).unwrap();
            let opt = maximum_matching_cardinality(&g);
            for threads in [1, 2, 8] {
                let r = solve(&g, threads);
                assert_eq!(r.matching.cardinality(), opt, "seed {seed} threads {threads}");
                assert!(r.matching.is_consistent());
                r.matching.validate_against(&g).unwrap();
            }
        }
    }

    #[test]
    fn maximum_on_structured_families() {
        let graphs = vec![
            gen::road_network(26, 26, 0.1, 3).unwrap(),
            gen::rmat(gen::RmatParams::graph500(8, 6), 4).unwrap(),
            gen::delaunay_like(14, 14, 5).unwrap(),
        ];
        for g in graphs {
            let r = solve(&g, 4);
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
        }
    }

    #[test]
    fn planted_perfect_found() {
        let g = gen::planted_perfect(300, 900, 5).unwrap();
        let r = solve(&g, 8);
        assert_eq!(r.matching.cardinality(), 300);
    }

    #[test]
    fn empty_graph_and_single_thread() {
        let g = BipartiteCsr::empty(4, 4);
        let r = pdbfs(&g, &Matching::empty_for(&g), PdbfsConfig { threads: 1 });
        assert_eq!(r.matching.cardinality(), 0);
    }

    #[test]
    fn stats_record_phases_and_edges() {
        let g = gen::uniform_random(200, 200, 1000, 2).unwrap();
        let r = solve(&g, 4);
        assert!(r.stats.phases >= 1);
        assert!(r.stats.edges_scanned > 0);
        assert_eq!(r.stats.algorithm, "P-DBFS");
    }
}
