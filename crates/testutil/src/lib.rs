//! # gpm-testutil — shared test support
//!
//! The one strategy every proptest suite in the workspace needs: arbitrary
//! bipartite graphs. Implemented as a *native* [`Strategy`] (not a
//! `prop_flat_map` chain) so that shrinking works directly on the generated
//! [`BipartiteCsr`]: failing graphs shrink by dropping edge subsets and
//! trimming the vertex sets, converging on small witnesses instead of
//! replaying giant random instances.
//!
//! Beside it, three chain graphs whose one alternating path runs through
//! every vertex ([`augmenting_chain`], [`dead_end_chain`], [`sweep_chain`]):
//! a search that spends a call-stack frame per path edge overflows on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpm_graph::{BipartiteCsr, Matching, VertexId};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Strategy generating arbitrary bipartite graphs: `1..=max_rows` rows,
/// `1..=max_cols` columns, and up to `max_edges` random edges (duplicates
/// collapse in CSR construction, so dense shapes stay well-formed).
#[derive(Clone, Debug)]
pub struct ArbBipartite {
    /// Maximum number of row vertices (inclusive).
    pub max_rows: usize,
    /// Maximum number of column vertices (inclusive).
    pub max_cols: usize,
    /// Maximum number of edge draws (inclusive).
    pub max_edges: usize,
}

/// An arbitrary bipartite graph with the default bounds (≤ 40×40, ≤ 200
/// edge draws) — the shape the seed suites used ad hoc.
pub fn arb_bipartite() -> ArbBipartite {
    ArbBipartite { max_rows: 40, max_cols: 40, max_edges: 200 }
}

/// An arbitrary bipartite graph with explicit bounds.
pub fn arb_bipartite_with(max_rows: usize, max_cols: usize, max_edges: usize) -> ArbBipartite {
    assert!(max_rows >= 1 && max_cols >= 1, "graphs need at least one vertex per side");
    ArbBipartite { max_rows, max_cols, max_edges }
}

impl Strategy for ArbBipartite {
    type Value = BipartiteCsr;

    fn sample(&self, rng: &mut StdRng) -> BipartiteCsr {
        let m = rng.gen_range(1..=self.max_rows);
        let n = rng.gen_range(1..=self.max_cols);
        let target = rng.gen_range(0..=self.max_edges);
        let edges: Vec<(VertexId, VertexId)> = (0..target)
            .map(|_| (rng.gen_range(0..m) as VertexId, rng.gen_range(0..n) as VertexId))
            .collect();
        BipartiteCsr::from_edges(m, n, &edges).expect("in-bounds edges")
    }

    fn shrink(&self, value: &BipartiteCsr) -> Vec<BipartiteCsr> {
        let edges: Vec<(VertexId, VertexId)> = value.edges().collect();
        let m = value.num_rows();
        let n = value.num_cols();
        let mut out = Vec::new();
        let mut push = |m: usize, n: usize, edges: &[(VertexId, VertexId)]| {
            if let Ok(g) = BipartiteCsr::from_edges(m, n, edges) {
                out.push(g);
            }
        };
        // Edge-set shrinks: empty, halves, drop-one (bounded).
        if !edges.is_empty() {
            push(m, n, &[]);
            push(m, n, &edges[..edges.len() / 2]);
            push(m, n, &edges[edges.len() / 2..]);
            for i in 0..edges.len().min(8) {
                let mut fewer = edges.clone();
                fewer.remove(i);
                push(m, n, &fewer);
            }
        }
        // Dimension shrinks: halve each side, keeping only surviving edges.
        for (m2, n2) in [(m.div_ceil(2), n), (m, n.div_ceil(2)), (1, n), (m, 1)] {
            if (m2, n2) != (m, n) {
                let kept: Vec<_> = edges
                    .iter()
                    .copied()
                    .filter(|&(r, c)| (r as usize) < m2 && (c as usize) < n2)
                    .collect();
                push(m2, n2, &kept);
            }
        }
        // Drop shrinks that fail to change the graph (e.g. duplicate-only
        // edge removals), otherwise the runner loops on equal candidates.
        out.retain(|g| g != value);
        out
    }
}

/// Column `i < k` of a chain: rows `i` and `i + 1`, the second only below
/// `rows`.
fn chain_edges(k: usize, rows: usize) -> Vec<(VertexId, VertexId)> {
    let mut edges: Vec<(VertexId, VertexId)> = (0..k)
        .flat_map(|i| [(i, i), (i + 1, i)])
        .filter(|&(r, _)| r < rows)
        .map(|(r, c)| (r as VertexId, c as VertexId))
        .collect();
    edges.push((0, k as VertexId));
    edges
}

/// The augmenting chain of `k`: `k + 1` rows and `k + 1` columns; column
/// `i < k` has rows `i` and `i + 1`, and column `k` has row 0.  The cheap
/// matching pairs column `i` with row `i`, which leaves one augmenting path
/// through every vertex: column `k`, row 0, column 0, row 1, …, row `k`.
pub fn augmenting_chain(k: usize) -> BipartiteCsr {
    BipartiteCsr::from_edges(k + 1, k + 1, &chain_edges(k, k + 1)).expect("in-bounds edges")
}

/// The dead-end chain of `k`: `k` rows and `k + 1` columns; column `i < k`
/// has row `i`, plus row `i + 1` when `i + 1 < k`, and column `k` has row 0.
/// The cheap matching is maximum, yet column `k` still roots an alternating
/// path through every vertex, with no free row at its end.
pub fn dead_end_chain(k: usize) -> BipartiteCsr {
    BipartiteCsr::from_edges(k, k + 1, &chain_edges(k, k)).expect("in-bounds edges")
}

/// The sweep chain of `k` and its starting matching: the augmenting chain
/// plus a disjoint edge (row `k + 1`, column `k + 1`), matched as
/// `{(row i, column i) : i < k}`.  Hopcroft–Karp's first phase then stops
/// at length 1 (column `k + 1`), so HKDW's Duff–Wiberg sweep walks the
/// whole chain from row `k`.
pub fn sweep_chain(k: usize) -> (BipartiteCsr, Matching) {
    let mut edges = chain_edges(k, k + 1);
    edges.push((k as VertexId + 1, k as VertexId + 1));
    let g = BipartiteCsr::from_edges(k + 2, k + 2, &edges).expect("in-bounds edges");
    let mut m = Matching::empty_for(&g);
    for i in 0..k as VertexId {
        m.match_pair(i, i);
    }
    (g, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn samples_are_valid_and_within_bounds() {
        let strat = arb_bipartite_with(10, 15, 60);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let g = strat.sample(&mut rng);
            g.validate().unwrap();
            assert!((1..=10).contains(&g.num_rows()));
            assert!((1..=15).contains(&g.num_cols()));
            assert!(g.num_edges() <= 60);
        }
    }

    #[test]
    fn shrink_candidates_are_valid_and_different() {
        let strat = arb_bipartite();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let g = strat.sample(&mut rng);
            for s in strat.shrink(&g) {
                s.validate().unwrap();
                assert!(s != g, "shrink produced an identical graph");
                assert!(s.num_edges() <= g.num_edges(), "shrinking must not add edges");
            }
        }
    }

    #[test]
    fn chains_have_their_documented_matchings() {
        use gpm_graph::heuristics::cheap_matching;
        use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
        let k = 5;
        let g = augmenting_chain(k);
        let cheap = cheap_matching(&g);
        assert_eq!(cheap.cardinality(), k);
        assert!(!cheap.is_col_matched(k as VertexId));
        assert_eq!(maximum_matching_cardinality(&g), k + 1);
        let g = dead_end_chain(k);
        assert!(is_maximum(&g, &cheap_matching(&g)));
        assert_eq!(g.col_degree(k as VertexId - 1), 1);
        let (g, start) = sweep_chain(k);
        start.validate_against(&g).unwrap();
        assert_eq!((start.cardinality(), maximum_matching_cardinality(&g)), (k, k + 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn usable_from_the_proptest_macro(g in arb_bipartite()) {
            g.validate().unwrap();
            prop_assert!(g.num_rows() >= 1 && g.num_cols() >= 1);
        }
    }
}
