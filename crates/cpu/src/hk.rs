//! Hopcroft–Karp maximum cardinality bipartite matching.
//!
//! The `O(τ√(n+m))` algorithm: each *phase* runs a BFS from all unmatched
//! columns to build the layered graph of shortest alternating paths, then a
//! restricted DFS augments along a maximal set of vertex-disjoint shortest
//! augmenting paths.  Phases repeat until no augmenting path exists.
//!
//! The implementation follows the classic formulation with a virtual NIL
//! vertex: columns carry BFS levels, a free row is represented by NIL, and
//! the DFS only follows edges whose endpoint level increases by exactly one —
//! which guarantees every phase augments along at least one (shortest) path
//! and therefore terminates.
//!
//! HK is the algorithmic base of the paper's GPU comparator G-HK/G-HKDW and
//! doubles as a fast oracle for the test suites (its result cardinality is
//! cross-checked against `gpm_graph::verify`).

use crate::search::{Rules, Search, Side};
use crate::{CpuRunResult, CpuStats, EpochMarks};
use gpm_graph::{BipartiteCsr, Matching, VertexId};
use std::collections::VecDeque;

const INF: u32 = u32::MAX;

/// Internal state of one HK run.
struct HkState {
    /// BFS level of each column (distance from an unmatched column).
    dist_col: Vec<u32>,
    /// Level of the virtual NIL vertex = length (in column layers) of the
    /// shortest augmenting path found by the last BFS.
    dist_nil: u32,
}

impl HkState {
    fn new(g: &BipartiteCsr) -> Self {
        Self { dist_col: vec![INF; g.num_cols()], dist_nil: INF }
    }

    /// BFS phase: layers columns by shortest alternating-path distance from
    /// any unmatched column.  Returns `true` when an augmenting path exists.
    fn bfs(&mut self, g: &BipartiteCsr, m: &Matching, stats: &mut CpuStats) -> bool {
        let mut queue = VecDeque::new();
        for c in 0..g.num_cols() as VertexId {
            if !m.is_col_matched(c) {
                self.dist_col[c as usize] = 0;
                queue.push_back(c);
            } else {
                self.dist_col[c as usize] = INF;
            }
        }
        self.dist_nil = INF;
        while let Some(v) = queue.pop_front() {
            let dv = self.dist_col[v as usize];
            if dv >= self.dist_nil {
                continue;
            }
            for &u in g.col_neighbors(v) {
                stats.edges_scanned += 1;
                match m.row_mate(u) {
                    None => {
                        // free row: reached the virtual NIL vertex
                        if self.dist_nil == INF {
                            self.dist_nil = dv + 1;
                        }
                    }
                    Some(w) => {
                        if self.dist_col[w as usize] == INF {
                            self.dist_col[w as usize] = dv + 1;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        self.dist_nil != INF
    }
}

/// HK's search rules: step only to the next BFS level, and prune a dead-end
/// column for the rest of the phase.
impl Rules for HkState {
    #[inline]
    fn admit(&mut self, c: VertexId, _u: VertexId, mate: Option<VertexId>) -> bool {
        // Level of the vertex behind row u: its matched column, or NIL.
        let behind_level = mate.map_or(self.dist_nil, |w| self.dist_col[w as usize]);
        behind_level == self.dist_col[c as usize].saturating_add(1)
    }

    fn dead_end(&mut self, c: VertexId) {
        self.dist_col[c as usize] = INF;
    }
}

/// Runs Hopcroft–Karp starting from `initial`.
pub fn hopcroft_karp(g: &BipartiteCsr, initial: &Matching) -> CpuRunResult {
    phases(g, initial, "HK", false)
}

/// The phase loop HK and HKDW share: a BFS layering, then the HK step along
/// a maximal set of disjoint shortest augmenting paths, then, with `sweep`,
/// HKDW's Duff–Wiberg sweep from the free rows (see [`crate::hkdw`]).
pub(crate) fn phases(
    g: &BipartiteCsr,
    initial: &Matching,
    algorithm: &'static str,
    sweep: bool,
) -> CpuRunResult {
    let start = std::time::Instant::now();
    let mut stats = CpuStats { algorithm, ..Default::default() };
    let mut matching = initial.clone();
    let mut state = HkState::new(g);
    let mut search = Search::default();
    let mut visited_col = EpochMarks::default();

    while state.bfs(g, &matching, &mut stats) {
        stats.phases += 1;
        for c in 0..g.num_cols() as VertexId {
            if !matching.is_col_matched(c)
                && search.augment(g, &mut matching, Side::Cols, c, &mut state, &mut stats)
            {
                stats.augmentations += 1;
            }
        }
        if !sweep {
            continue;
        }
        visited_col.begin(g.num_cols());
        for r in 0..g.num_rows() as VertexId {
            if !matching.is_row_matched(r)
                && search.augment(g, &mut matching, Side::Rows, r, &mut visited_col, &mut stats)
            {
                stats.augmentations += 1;
                stats.pushes += 1; // counts extra-sweep augmentations separately
            }
        }
    }

    stats.seconds = start.elapsed().as_secs_f64();
    CpuRunResult { matching, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};

    #[test]
    fn maximum_on_small_square() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let r = hopcroft_karp(&g, &Matching::empty_for(&g));
        assert_eq!(r.matching.cardinality(), 2);
        assert!(is_maximum(&g, &r.matching));
    }

    #[test]
    fn maximum_on_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::uniform_random(90, 80, 450, seed).unwrap();
            let r = hopcroft_karp(&g, &cheap_matching(&g));
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g), "seed {seed}");
            r.matching.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn maximum_on_skewed_rmat_graphs() {
        for seed in 0..3u64 {
            let g = gen::rmat(gen::RmatParams::graph500(8, 5), seed).unwrap();
            let r = hopcroft_karp(&g, &cheap_matching(&g));
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
        }
    }

    #[test]
    fn empty_initial_and_cheap_initial_agree() {
        let g = gen::rmat(gen::RmatParams::web_like(8, 5), 2).unwrap();
        let a = hopcroft_karp(&g, &Matching::empty_for(&g));
        let b = hopcroft_karp(&g, &cheap_matching(&g));
        assert_eq!(a.matching.cardinality(), b.matching.cardinality());
    }

    #[test]
    fn planted_perfect_is_found() {
        let g = gen::planted_perfect(200, 400, 9).unwrap();
        let r = hopcroft_karp(&g, &cheap_matching(&g));
        assert_eq!(r.matching.cardinality(), 200);
    }

    #[test]
    fn stats_track_phases() {
        let g = gen::uniform_random(200, 200, 800, 3).unwrap();
        let r = hopcroft_karp(&g, &Matching::empty_for(&g));
        assert!(r.stats.phases >= 1);
        assert!(r.stats.augmentations as usize >= r.matching.cardinality() / 2);
        assert!(r.stats.edges_scanned > 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = BipartiteCsr::empty(4, 6);
        let r = hopcroft_karp(&g, &Matching::empty_for(&g));
        assert_eq!(r.matching.cardinality(), 0);
        assert_eq!(r.stats.phases, 0);
    }

    #[test]
    fn already_maximum_initial_matching_terminates_immediately() {
        let g = gen::planted_perfect(50, 0, 4).unwrap();
        let opt = hopcroft_karp(&g, &Matching::empty_for(&g)).matching;
        let r = hopcroft_karp(&g, &opt);
        assert_eq!(r.matching.cardinality(), 50);
        assert_eq!(r.stats.augmentations, 0);
    }

    #[test]
    fn phase_count_is_within_hopcroft_karp_bound() {
        // The number of phases is O(√V); allow a generous constant.
        let g = gen::uniform_random(400, 400, 2400, 8).unwrap();
        let r = hopcroft_karp(&g, &Matching::empty_for(&g));
        let bound = 2.5 * (800f64).sqrt() + 4.0;
        assert!(
            (r.stats.phases as f64) <= bound,
            "phases {} exceeds bound {bound}",
            r.stats.phases
        );
    }
}
