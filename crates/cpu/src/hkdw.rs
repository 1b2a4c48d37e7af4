//! HKDW — Hopcroft–Karp with the Duff–Wiberg extra DFS sweep.
//!
//! The paper describes HKDW as "a variant of HK \[that\] incorporates
//! techniques to improve the practical running time while having the same
//! worst-case time complexity": after the regular HK phase (BFS layering plus
//! restricted DFS along shortest augmenting paths), an additional set of
//! *unrestricted* DFS searches is run from the remaining unmatched rows, so
//! that augmenting paths longer than the phase's shortest length can also be
//! exploited before paying for another BFS.
//!
//! This CPU implementation is the reference for the GPU G-HKDW baseline in
//! `gpm-core`.
//!
//! HKDW shares HK's phase loop; its sweep is the crate's one augmenting-path
//! search started from the free rows, entering each column at most once per
//! phase.

use crate::hk::phases;
use crate::CpuRunResult;
use gpm_graph::{BipartiteCsr, Matching};

/// Runs HKDW starting from `initial`.
pub fn hkdw(g: &BipartiteCsr, initial: &Matching) -> CpuRunResult {
    phases(g, initial, "HKDW", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hk::hopcroft_karp;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};

    #[test]
    fn maximum_on_small_square() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let r = hkdw(&g, &Matching::empty_for(&g));
        assert_eq!(r.matching.cardinality(), 2);
        assert!(is_maximum(&g, &r.matching));
    }

    #[test]
    fn agrees_with_hk_on_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::uniform_random(100, 100, 700, seed + 50).unwrap();
            let init = cheap_matching(&g);
            let a = hkdw(&g, &init);
            let b = hopcroft_karp(&g, &init);
            assert_eq!(a.matching.cardinality(), b.matching.cardinality(), "seed {seed}");
            assert_eq!(a.matching.cardinality(), maximum_matching_cardinality(&g));
            a.matching.validate_against(&g).unwrap();
        }
    }

    #[test]
    fn extra_sweep_reduces_phases_on_skewed_graphs() {
        // On graphs with long augmenting paths HKDW should need at most as
        // many BFS phases as plain HK.
        let g = gen::road_network(30, 30, 0.12, 7).unwrap();
        let init = cheap_matching(&g);
        let a = hkdw(&g, &init);
        let b = hopcroft_karp(&g, &init);
        assert_eq!(a.matching.cardinality(), b.matching.cardinality());
        assert!(a.stats.phases <= b.stats.phases);
    }

    #[test]
    fn planted_perfect_found() {
        let g = gen::planted_perfect(180, 360, 21).unwrap();
        let r = hkdw(&g, &cheap_matching(&g));
        assert_eq!(r.matching.cardinality(), 180);
    }

    #[test]
    fn empty_graph_and_maximum_initial() {
        let g = BipartiteCsr::empty(3, 3);
        assert_eq!(hkdw(&g, &Matching::empty_for(&g)).matching.cardinality(), 0);

        let g = gen::planted_perfect(40, 0, 2).unwrap();
        let opt = hopcroft_karp(&g, &Matching::empty_for(&g)).matching;
        let r = hkdw(&g, &opt);
        assert_eq!(r.stats.augmentations, 0);
        assert_eq!(r.matching.cardinality(), 40);
    }
}
