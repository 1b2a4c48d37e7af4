//! Pothen–Fan with lookahead (PF+).
//!
//! The classic DFS-based augmenting-path algorithm: for every unmatched
//! column a DFS looks for an augmenting path, but before descending into a
//! row's matched column it first *looks ahead* for any unmatched row among
//! the current column's neighbors (the "cheap" step that gives the algorithm
//! its practical speed).  Passes over the unmatched columns repeat until one
//! full pass finds no augmenting path, at which point the matching is maximum
//! by Berge's theorem.
//!
//! The paper uses PF+ (together with HK and PR) to filter its instance set to
//! graphs where sequential algorithms need more than one second.

use crate::search::{Rules, Search, Side};
use crate::{CpuRunResult, CpuStats, EpochMarks};
use gpm_graph::{BipartiteCsr, Matching, VertexId};

/// PF+'s search rules for one pass: the rows it has visited (augmenting
/// paths of one pass stay disjoint) and each column's lookahead cursor.
struct Pass {
    visited_row: EpochMarks,
    lookahead_ptr: Vec<usize>,
}

impl Rules for Pass {
    #[inline]
    fn admit(&mut self, _c: VertexId, u: VertexId, _mate: Option<VertexId>) -> bool {
        self.visited_row.insert(u as usize)
    }

    /// Lookahead: scan for an unmatched row first, resuming where the last
    /// lookahead on this column stopped (the "pointer" trick of PF+).
    fn enter(
        &mut self,
        g: &BipartiteCsr,
        m: &Matching,
        c: VertexId,
        stats: &mut CpuStats,
    ) -> Option<VertexId> {
        let nbrs = g.col_neighbors(c);
        let ptr = &mut self.lookahead_ptr[c as usize];
        for (offset, &u) in nbrs.iter().enumerate().skip(*ptr) {
            stats.edges_scanned += 1;
            if !m.is_row_matched(u) && self.visited_row.insert(u as usize) {
                *ptr = offset + 1;
                return Some(u);
            }
        }
        *ptr = nbrs.len();
        None
    }
}

/// Runs Pothen–Fan with lookahead starting from `initial`.
pub fn pothen_fan(g: &BipartiteCsr, initial: &Matching) -> CpuRunResult {
    let start = std::time::Instant::now();
    let mut stats = CpuStats { algorithm: "PFP", ..Default::default() };
    let mut matching = initial.clone();
    stats.phases = augment_in_passes(g, &mut matching, &mut stats);
    stats.seconds = start.elapsed().as_secs_f64();
    CpuRunResult { matching, stats }
}

/// PF+'s pass loop, which also finishes P-DBFS: each pass searches from
/// every free column in turn, its searches sharing one set of visited rows,
/// and passes repeat until one augments nothing.  A pass that augments
/// nothing ran on one matching, so a row its searches visited reaches no
/// free row, and no free column roots an augmenting path: the matching is
/// maximum (Berge).  Counts augmentations and scanned edges in `stats` and
/// returns the number of passes.
pub(crate) fn augment_in_passes(
    g: &BipartiteCsr,
    matching: &mut Matching,
    stats: &mut CpuStats,
) -> u64 {
    let mut search = Search::default();
    let mut pass =
        Pass { visited_row: EpochMarks::default(), lookahead_ptr: vec![0; g.num_cols()] };
    let mut passes = 0;
    loop {
        passes += 1;
        // Disjointness and the lookahead pointers hold within one pass only
        // (edges may have been re-matched since).
        pass.visited_row.begin(g.num_rows());
        pass.lookahead_ptr.fill(0);
        let before = stats.augmentations;
        for c in 0..g.num_cols() as VertexId {
            if !matching.is_col_matched(c)
                && search.augment(g, matching, Side::Cols, c, &mut pass, stats)
            {
                stats.augmentations += 1;
            }
        }
        if stats.augmentations == before {
            return passes;
        }
    }
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
        let r = pothen_fan(&g, &Matching::empty_for(&g));
        assert_eq!(r.matching.cardinality(), 2);
        assert!(is_maximum(&g, &r.matching));
    }

    #[test]
    fn maximum_on_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::uniform_random(70, 90, 500, seed + 100).unwrap();
            let r = pothen_fan(&g, &cheap_matching(&g));
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g), "seed {seed}");
            r.matching.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn maximum_on_structured_families() {
        let road = gen::road_network(24, 24, 0.1, 4).unwrap();
        let mesh = gen::delaunay_like(16, 16, 4).unwrap();
        for g in [road, mesh] {
            let r = pothen_fan(&g, &cheap_matching(&g));
            assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
        }
    }

    #[test]
    fn planted_perfect_found() {
        let g = gen::planted_perfect(150, 300, 12).unwrap();
        let r = pothen_fan(&g, &cheap_matching(&g));
        assert_eq!(r.matching.cardinality(), 150);
    }

    #[test]
    fn terminates_in_one_extra_pass_when_initial_is_maximum() {
        let g = gen::planted_perfect(60, 0, 8).unwrap();
        let first = pothen_fan(&g, &Matching::empty_for(&g));
        let again = pothen_fan(&g, &first.matching);
        assert_eq!(again.stats.augmentations, 0);
        assert_eq!(again.stats.phases, 1);
        assert_eq!(again.matching.cardinality(), 60);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteCsr::empty(3, 3);
        let r = pothen_fan(&g, &Matching::empty_for(&g));
        assert_eq!(r.matching.cardinality(), 0);
    }
}
