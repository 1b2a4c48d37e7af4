//! Property-based tests for the graph substrate.
//!
//! These exercise the core invariants every downstream crate relies on:
//! CSR structural validity, Matrix Market round-tripping, matching/oracle
//! consistency, and heuristic bounds.

use gpm_graph::gen;
use gpm_graph::heuristics::{cheap_matching, karp_sipser};
use gpm_graph::io::{read_matrix_market, write_matrix_market};
use gpm_graph::verify::{
    is_maximal, is_maximum, is_valid_matching, koenig_cover, maximum_matching_cardinality,
    reference_maximum_matching,
};
use gpm_graph::{BipartiteCsr, GraphBuilder, GraphDelta, GraphError, VertexId};
use gpm_testutil::arb_bipartite;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Raw material for an arbitrary [`GraphDelta`]: coordinate lists that the
/// test clamps into the (graph-dependent) valid range before applying.
#[derive(Clone, Debug)]
struct RawDelta {
    inserts: Vec<(VertexId, VertexId)>,
    removes: Vec<(VertexId, VertexId)>,
    clear_rows: Vec<VertexId>,
    clear_cols: Vec<VertexId>,
    add_rows: usize,
    add_cols: usize,
}

fn arb_raw_delta() -> impl Strategy<Value = RawDelta> {
    (
        proptest::collection::vec((0u32..45, 0u32..45), 0..40),
        proptest::collection::vec((0u32..45, 0u32..45), 0..40),
        proptest::collection::vec(0u32..45, 0..6),
        proptest::collection::vec(0u32..45, 0..6),
        0usize..4,
        0usize..4,
    )
        .prop_map(|(inserts, removes, clear_rows, clear_cols, add_rows, add_cols)| RawDelta {
            inserts,
            removes,
            clear_rows,
            clear_cols,
            add_rows,
            add_cols,
        })
}

/// Builds an in-bounds [`GraphDelta`] for `g` from raw material.  Removals
/// are biased towards edges that actually exist so deletions get exercised.
fn make_delta(g: &BipartiteCsr, raw: &RawDelta) -> GraphDelta {
    let new_rows = g.num_rows() + raw.add_rows;
    let new_cols = g.num_cols() + raw.add_cols;
    let mut d = GraphDelta::new();
    d.add_rows(raw.add_rows).add_cols(raw.add_cols);
    d.extend_inserts(
        raw.inserts
            .iter()
            .filter(|&&(r, c)| (r as usize) < new_rows && (c as usize) < new_cols)
            .copied(),
    );
    let all_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    for (i, &(r, c)) in raw.removes.iter().enumerate() {
        if i % 2 == 0 && !all_edges.is_empty() {
            // target a real edge
            let (er, ec) = all_edges[(r as usize + c as usize) % all_edges.len()];
            d.remove_edge(er, ec);
        } else if (r as usize) < new_rows && (c as usize) < new_cols {
            d.remove_edge(r, c);
        }
    }
    for &r in raw.clear_rows.iter().filter(|&&r| (r as usize) < new_rows) {
        d.clear_row(r);
    }
    for &c in raw.clear_cols.iter().filter(|&&c| (c as usize) < new_cols) {
        d.clear_col(c);
    }
    d
}

/// Oracle: apply the delta through a naive edge-set rebuild.
fn rebuild_oracle(g: &BipartiteCsr, d: &GraphDelta) -> BipartiteCsr {
    let d = d.to_canonical();
    let mut edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(r, c)| {
            d.cleared_rows().binary_search(&r).is_err()
                && d.cleared_cols().binary_search(&c).is_err()
                && d.removes().binary_search(&(r, c)).is_err()
        })
        .collect();
    edges.extend_from_slice(d.inserts());
    BipartiteCsr::from_edges(g.num_rows() + d.added_rows(), g.num_cols() + d.added_cols(), &edges)
        .unwrap()
}

/// A graph's four CSR arrays: `row_ptr`, `col_idx`, `col_ptr`, `row_idx`.
type CsrArrays = (Vec<usize>, Vec<VertexId>, Vec<usize>, Vec<VertexId>);

fn csr_arrays(g: &BipartiteCsr) -> CsrArrays {
    (g.row_ptr().to_vec(), g.col_idx().to_vec(), g.col_ptr().to_vec(), g.row_idx().to_vec())
}

/// Oracle for `from_edges`: the CSR arrays of the edge set alone, or the
/// error of the first out-of-bounds edge in list order.
fn reference_csr(
    rows: usize,
    cols: usize,
    edges: &[(VertexId, VertexId)],
) -> Result<CsrArrays, GraphError> {
    for &(r, c) in edges {
        if r as usize >= rows {
            return Err(GraphError::RowOutOfBounds { row: r, num_rows: rows });
        }
        if c as usize >= cols {
            return Err(GraphError::ColOutOfBounds { col: c, num_cols: cols });
        }
    }
    let orient = |n: usize, pairs: BTreeSet<(VertexId, VertexId)>| {
        let mut ptr = vec![0usize; n + 1];
        for &(a, _) in &pairs {
            ptr[a as usize + 1] += 1;
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        (ptr, pairs.into_iter().map(|(_, b)| b).collect::<Vec<_>>())
    };
    let (row_ptr, col_idx) = orient(rows, edges.iter().copied().collect());
    let (col_ptr, row_idx) = orient(cols, edges.iter().map(|&(r, c)| (c, r)).collect());
    Ok((row_ptr, col_idx, col_ptr, row_idx))
}

/// Strategy: an arbitrary small bipartite graph (≤ 40×40, ≤ 200 edge
/// draws), from the workspace-wide shrinking-friendly strategy.
fn arb_graph() -> impl Strategy<Value = BipartiteCsr> {
    arb_bipartite()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_always_validates(g in arb_graph()) {
        g.validate().unwrap();
    }

    #[test]
    fn edge_iterator_matches_both_orientations(g in arb_graph()) {
        let from_rows: usize = (0..g.num_rows() as VertexId).map(|r| g.row_degree(r)).sum();
        let from_cols: usize = (0..g.num_cols() as VertexId).map(|c| g.col_degree(c)).sum();
        prop_assert_eq!(from_rows, g.num_edges());
        prop_assert_eq!(from_cols, g.num_edges());
        for (r, c) in g.edges() {
            prop_assert!(g.col_neighbors(c).contains(&r));
        }
    }

    #[test]
    fn transpose_is_involutive(g in arb_graph()) {
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn matrix_market_round_trip(g in arb_graph()) {
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn cheap_matching_is_valid_maximal_and_at_most_maximum(g in arb_graph()) {
        let m = cheap_matching(&g);
        prop_assert!(is_valid_matching(&g, &m));
        prop_assert!(is_maximal(&g, &m));
        let opt = maximum_matching_cardinality(&g);
        prop_assert!(m.cardinality() <= opt);
        // The König certificate tells a maximum matching from a smaller one.
        prop_assert_eq!(is_maximum(&g, &m), m.cardinality() == opt);
        // A maximal matching is at least half the maximum.
        prop_assert!(2 * m.cardinality() >= opt);
    }

    #[test]
    fn karp_sipser_is_valid_maximal_and_at_most_maximum(g in arb_graph()) {
        let m = karp_sipser(&g);
        prop_assert!(is_valid_matching(&g, &m));
        prop_assert!(is_maximal(&g, &m));
        let opt = maximum_matching_cardinality(&g);
        prop_assert!(m.cardinality() <= opt);
        // The König certificate tells a maximum matching from a smaller one.
        prop_assert_eq!(is_maximum(&g, &m), m.cardinality() == opt);
        prop_assert!(2 * m.cardinality() >= opt);
    }

    #[test]
    fn reference_matching_is_maximum_with_koenig_certificate(g in arb_graph()) {
        let m = reference_maximum_matching(&g);
        prop_assert!(is_valid_matching(&g, &m));
        prop_assert!(is_maximum(&g, &m));
        let cover = koenig_cover(&g, &m);
        prop_assert!(cover.covers(&g));
        prop_assert_eq!(cover.size(), m.cardinality());
    }

    #[test]
    fn planted_perfect_generator_always_has_perfect_matching(
        n in 1usize..60,
        extra in 0usize..120,
        seed in any::<u64>(),
    ) {
        let g = gen::planted_perfect(n, extra, seed).unwrap();
        prop_assert_eq!(maximum_matching_cardinality(&g), n);
    }

    #[test]
    fn uniform_generator_is_valid_and_within_bounds(
        m in 1usize..50,
        n in 1usize..50,
        edges in 0usize..300,
        seed in any::<u64>(),
    ) {
        let g = gen::uniform_random(m, n, edges, seed).unwrap();
        g.validate().unwrap();
        prop_assert!(g.num_edges() <= edges);
        prop_assert!(g.num_edges() <= m * n);
    }

    #[test]
    fn apply_delta_equals_rebuild_from_scratch(g in arb_graph(), raw in arb_raw_delta()) {
        let d = make_delta(&g, &raw);
        let (patched, lineage) = g.apply_delta_lineage(&d).unwrap();
        let oracle = rebuild_oracle(&g, &d);

        // Structural equality covers neighbor sets in both orientations.
        prop_assert_eq!(&patched, &oracle);
        prop_assert_eq!(patched.fingerprint(), oracle.fingerprint());
        prop_assert_eq!(lineage.parent, g.fingerprint());
        prop_assert_eq!(lineage.child, patched.fingerprint());

        // Every invariant (sortedness, pointer monotonicity, orientation
        // agreement) holds on the patched result.
        patched.validate().unwrap();
        prop_assert_eq!(patched.transpose().transpose(), patched.clone());

        // Canonical and non-canonical forms of the same delta agree.
        let canon = d.to_canonical();
        prop_assert_eq!(g.apply_delta(&canon).unwrap(), patched);
    }

    #[test]
    fn empty_delta_preserves_fingerprint(g in arb_graph()) {
        let patched = g.apply_delta(&GraphDelta::new()).unwrap();
        prop_assert_eq!(patched.fingerprint(), g.fingerprint());
        prop_assert_eq!(patched, g);
    }

    #[test]
    fn builder_dedups_and_preserves_membership(
        m in 1usize..20,
        n in 1usize..20,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..100),
    ) {
        let in_bounds: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .filter(|&(r, c)| (r as usize) < m && (c as usize) < n)
            .collect();
        let mut b = GraphBuilder::new(m, n);
        b.extend_edges(in_bounds.iter().copied()).unwrap();
        let g = b.build();
        for &(r, c) in &in_bounds {
            prop_assert!(g.has_edge(r, c));
        }
        let mut unique = in_bounds.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(g.num_edges(), unique.len());
    }

    #[test]
    fn from_edges_builds_the_same_csr_from_any_order(
        rows in 1usize..12,
        cols in 1usize..12,
        raw in proptest::collection::vec((0u32..14, 0u32..14), 0..60),
        swaps in proptest::collection::vec(0usize..60, 0..60),
    ) {
        let in_bounds: Vec<(VertexId, VertexId)> = raw
            .iter()
            .copied()
            .filter(|&(r, c)| (r as usize) < rows && (c as usize) < cols)
            .collect();
        let mut sorted = in_bounds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut shuffled = sorted.clone();
        let len = shuffled.len();
        for (i, &j) in swaps.iter().enumerate().filter(|&(i, _)| i < len) {
            shuffled.swap(i, j % len);
        }
        let doubled: Vec<_> = sorted.iter().flat_map(|&e| [e, e]).collect();
        let mut sorted_then_out = sorted.clone();
        sorted_then_out.push((rows as VertexId, 0));
        let mut sorted_then_out_col = sorted.clone();
        sorted_then_out_col.push((rows as VertexId - 1, cols as VertexId));
        for edges in
            [&sorted, &shuffled, &doubled, &in_bounds, &raw, &sorted_then_out, &sorted_then_out_col]
        {
            let built = BipartiteCsr::from_edges(rows, cols, edges).map(|g| csr_arrays(&g));
            prop_assert_eq!(built, reference_csr(rows, cols, edges), "{:?}", edges);
        }
    }
}
