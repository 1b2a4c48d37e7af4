//! Failure-injection tests: malformed inputs and degenerate graphs must
//! produce errors (or correct trivial results), never panics or wrong
//! matchings.

use gpu_pr_matching::core::solver::{
    paper_comparison_set, Algorithm, SolveReport, SolveRequest, Solver,
};
use gpu_pr_matching::core::SolveError;
use gpu_pr_matching::graph::{gen, io, BipartiteCsr, GraphBuilder, GraphError};
use std::io::Cursor;

/// One solve from the cheap matching on a throwaway default session.
fn solve(graph: &BipartiteCsr, algorithm: Algorithm) -> Result<SolveReport, SolveError> {
    Solver::new().run(graph, SolveRequest::new(algorithm))
}

#[test]
fn malformed_matrix_market_inputs_are_rejected_with_errors() {
    let cases: Vec<(&str, &str)> = vec![
        ("empty file", ""),
        ("not matrix market", "hello world\n1 1 1\n1 1\n"),
        ("array format", "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n"),
        ("bad field", "%%MatrixMarket matrix coordinate colors general\n1 1 1\n1 1\n"),
        ("bad symmetry", "%%MatrixMarket matrix coordinate pattern diagonal\n1 1 1\n1 1\n"),
        ("missing size", "%%MatrixMarket matrix coordinate pattern general\n"),
        ("short size", "%%MatrixMarket matrix coordinate pattern general\n3 3\n"),
        ("entry out of range", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n"),
        ("zero-based entry", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n"),
        ("garbage entry", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\none two\n"),
        ("entry count mismatch", "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 1\n"),
        (
            "symmetric but rectangular",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 3\n",
        ),
    ];
    for (label, data) in cases {
        let result = io::read_matrix_market(Cursor::new(data));
        assert!(result.is_err(), "{label} should be rejected");
    }
}

#[test]
fn builder_and_csr_reject_out_of_bounds_input() {
    let mut b = GraphBuilder::new(3, 3);
    assert!(matches!(b.add_edge(3, 0), Err(GraphError::RowOutOfBounds { .. })));
    assert!(matches!(b.add_edge(0, 3), Err(GraphError::ColOutOfBounds { .. })));
    assert!(BipartiteCsr::from_row_csr(2, 2, vec![0, 3, 2], vec![0, 1]).is_err());
    assert!(BipartiteCsr::from_edges(2, 2, &[(9, 9)]).is_err());
}

#[test]
fn generators_reject_impossible_configurations() {
    assert!(gen::uniform_random(0, 5, 10, 1).is_err());
    assert!(gen::planted_perfect(0, 10, 1).is_err());
    assert!(gen::road_network(1, 5, 0.0, 1).is_err());
    assert!(gen::road_network(5, 5, 1.5, 1).is_err());
    assert!(gen::delaunay_like(5, 1, 1).is_err());
    assert!(gen::near_perfect_mesh(2, 1, 1).is_err());
    assert!(gen::power_law(10, 10, 10, 0.5, 1).is_err());
    assert!(
        gen::rmat(gen::RmatParams { scale: 0, edge_factor: 1, a: 0.5, b: 0.2, c: 0.2 }, 1).is_err()
    );
}

#[test]
fn graphs_with_isolated_vertices_and_duplicate_edges_solve_correctly() {
    // Heavy duplication plus isolated vertices on both sides.
    let edges: Vec<(u32, u32)> = (0..500).map(|i| (i % 7, i % 5)).collect();
    let graph = BipartiteCsr::from_edges(20, 20, &edges).unwrap();
    assert!(graph.isolated_rows() > 0);
    assert!(graph.isolated_cols() > 0);
    let expected = gpu_pr_matching::graph::verify::maximum_matching_cardinality(&graph);
    for alg in paper_comparison_set() {
        let report = solve(&graph, alg).unwrap();
        assert_eq!(report.cardinality, expected, "{}", report.algorithm);
    }
}

#[test]
fn star_and_chain_pathological_shapes() {
    // A star: many rows, one column.
    let star =
        BipartiteCsr::from_edges(64, 1, &(0..64u32).map(|r| (r, 0)).collect::<Vec<_>>()).unwrap();
    for alg in paper_comparison_set() {
        assert_eq!(solve(&star, alg).unwrap().cardinality, 1);
    }

    // A long alternating chain, worst case for augmenting-path length.
    let n = 200u32;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, i));
        if i + 1 < n {
            edges.push((i + 1, i));
        }
    }
    let chain = BipartiteCsr::from_edges(n as usize, n as usize, &edges).unwrap();
    for alg in paper_comparison_set() {
        assert_eq!(solve(&chain, alg).unwrap().cardinality, n as usize, "{}", alg.label());
    }
}

#[test]
fn unmatchable_columns_are_reported_not_matched() {
    // 3 rows, 6 columns: at least 3 columns can never be matched.
    let graph = gen::uniform_random(3, 6, 15, 2).unwrap();
    for alg in paper_comparison_set() {
        let report = solve(&graph, alg).unwrap();
        assert!(report.cardinality <= 3);
        assert!(report.matching.is_consistent());
    }
}
