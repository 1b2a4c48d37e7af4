//! Cross-crate integration tests: the full pipeline from graph construction
//! (or Matrix Market input) through the unified solver on both virtual-GPU
//! backends, verified with the independent oracles.

use gpu_pr_matching::core::solver::{
    paper_comparison_set, Algorithm, DevicePolicy, SolveReport, SolveRequest, Solver, Start,
};
use gpu_pr_matching::core::{GhkVariant, GprVariant, GrStrategy, SolveError};
use gpu_pr_matching::cpu;
use gpu_pr_matching::graph::heuristics::cheap_matching;
use gpu_pr_matching::graph::instances::{mini_suite, Scale};
use gpu_pr_matching::graph::verify::{is_maximum, koenig_cover, maximum_matching_cardinality};
use gpu_pr_matching::graph::{gen, io, BipartiteCsr, Matching};

/// One solve from the cheap matching on a throwaway default session.
fn solve(graph: &BipartiteCsr, algorithm: Algorithm) -> Result<SolveReport, SolveError> {
    Solver::new().run(graph, SolveRequest::new(algorithm))
}

/// A session whose GPU algorithms run on a device of `policy`.
fn session(policy: DevicePolicy) -> Solver {
    Solver::builder().device_policy(policy).build().expect("valid solver config")
}

/// One solve from `initial` on `solver`.
fn solve_from(
    solver: &mut Solver,
    graph: &BipartiteCsr,
    initial: &Matching,
    algorithm: Algorithm,
) -> Result<SolveReport, SolveError> {
    solver.run(
        graph,
        SolveRequest { start: Start::Matching(initial), ..SolveRequest::new(algorithm) },
    )
}

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default()),
        Algorithm::gpr_default(),
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::ghk(GhkVariant::Hkdw),
        Algorithm::SequentialPushRelabel(0.5),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(4),
    ]
}

#[test]
fn every_algorithm_agrees_on_every_mini_suite_instance() {
    for spec in mini_suite() {
        let graph = spec.generate(Scale::Tiny).expect("generator");
        let initial = cheap_matching(&graph);
        let reference = cpu::hopcroft_karp(&graph, &initial).matching.cardinality();
        for alg in all_algorithms() {
            let report = solve_from(&mut Solver::new(), &graph, &initial, alg).unwrap();
            assert_eq!(
                report.cardinality, reference,
                "{} disagrees on {}",
                report.algorithm, spec.name
            );
            assert!(is_maximum(&graph, &report.matching), "{} on {}", report.algorithm, spec.name);
            report.matching.validate_against(&graph).unwrap();
        }
    }
}

#[test]
fn koenig_cover_certifies_gpu_results() {
    let graph = gen::rmat(gen::RmatParams::graph500(9, 6), 17).unwrap();
    let report = solve(&graph, Algorithm::gpr_default()).unwrap();
    let cover = koenig_cover(&graph, &report.matching);
    assert!(cover.covers(&graph));
    assert_eq!(cover.size(), report.cardinality);
}

#[test]
fn matrix_market_round_trip_through_the_solver() {
    let graph = gen::power_law(400, 380, 2500, 2.2, 5).unwrap();
    let path = std::env::temp_dir().join("gpm_integration_roundtrip.mtx");
    io::write_matrix_market_file(&graph, &path).unwrap();
    let reread = io::read_matrix_market_file(&path).unwrap();
    assert_eq!(graph, reread);
    let a = solve(&graph, Algorithm::gpr_default()).unwrap();
    let b = solve(&reread, Algorithm::HopcroftKarp).unwrap();
    assert_eq!(a.cardinality, b.cardinality);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sequential_and_parallel_backends_agree_on_cardinality() {
    // The matched edge sets may differ between backends (the paper makes the
    // same observation about racy executions); the cardinality may not.
    for seed in 0..3u64 {
        let graph = gen::uniform_random(300, 300, 2000, seed).unwrap();
        let initial = cheap_matching(&graph);
        let mut seq = session(DevicePolicy::Sequential);
        let mut par = session(DevicePolicy::Auto);
        for alg in [Algorithm::gpr_default(), Algorithm::ghk(GhkVariant::Hkdw)] {
            let s = solve_from(&mut seq, &graph, &initial, alg).unwrap();
            let p = solve_from(&mut par, &graph, &initial, alg).unwrap();
            assert_eq!(s.cardinality, p.cardinality, "seed {seed}");
        }
    }
}

#[test]
fn repeated_runs_are_deterministic_on_the_sequential_backend() {
    let graph = gen::rmat(gen::RmatParams::web_like(9, 4), 23).unwrap();
    let initial = cheap_matching(&graph);
    let run = || {
        let mut solver = session(DevicePolicy::Sequential);
        let report = solve_from(&mut solver, &graph, &initial, Algorithm::gpr_default()).unwrap();
        let launches =
            solver.device().expect("a GPU solve made the device").stats().total_launches();
        (report.cardinality, report.matching.row_mates().to_vec(), launches)
    };
    let (card1, mates1, launches1) = run();
    let (card2, mates2, launches2) = run();
    assert_eq!(card1, card2);
    assert_eq!(mates1, mates2);
    assert_eq!(launches1, launches2);
}

#[test]
fn solver_statistics_are_consistent_with_the_strategy() {
    let graph = gen::rmat(gen::RmatParams::graph500(10, 6), 3).unwrap();
    let initial = cheap_matching(&graph);
    let mut solver = session(DevicePolicy::Auto);
    let report = solve_from(&mut solver, &graph, &initial, Algorithm::gpr_default()).unwrap();
    let stats = report.device_stats.expect("gpu stats");
    assert!(stats.launches_of("G-PR-PUSHKRNL") >= 1);
    assert!(stats.launches_of("G-GR-KRNL") >= 1);
    assert_eq!(stats.launches_of("FIXMATCHING"), 1);
    assert!(stats.modelled_time_secs() > 0.0);
    assert!(stats.wall_time_secs() > 0.0);
}

#[test]
fn rectangular_and_degenerate_graphs_through_the_full_api() {
    // Rectangular (GL7d19-like), empty, and single-edge graphs must all flow
    // through the public API without panics.
    let rect = gen::uniform_random(50, 200, 600, 4).unwrap();
    let expected = maximum_matching_cardinality(&rect);
    for alg in paper_comparison_set() {
        assert_eq!(solve(&rect, alg).unwrap().cardinality, expected);
    }

    let empty = BipartiteCsr::empty(10, 10);
    for alg in paper_comparison_set() {
        assert_eq!(solve(&empty, alg).unwrap().cardinality, 0);
    }

    let single = BipartiteCsr::from_edges(1, 1, &[(0, 0)]).unwrap();
    for alg in paper_comparison_set() {
        assert_eq!(solve(&single, alg).unwrap().cardinality, 1);
    }
}

#[test]
fn initial_matching_is_respected_and_never_worsened() {
    let graph = gen::planted_perfect(300, 1200, 9).unwrap();
    // A deliberately poor partial matching.
    let mut initial = Matching::empty_for(&graph);
    for r in 0..5u32 {
        for &c in graph.row_neighbors(r).iter().take(1) {
            if !initial.is_col_matched(c) {
                initial.match_pair(r, c);
            }
        }
    }
    let baseline = initial.cardinality();
    let report =
        solve_from(&mut Solver::new(), &graph, &initial, Algorithm::gpr_default()).unwrap();
    assert!(report.cardinality >= baseline);
    assert_eq!(report.cardinality, 300);
    assert_eq!(report.initial_cardinality, baseline);
}
