//! Cross-algorithm equivalence: every `Algorithm` variant in
//! `gpm_core::solver` must return the same maximum cardinality — equal to
//! the independent oracle's — and a matching that passes the `gpm_graph`
//! verification oracles, across a corpus of structurally diverse instances.

use gpu_pr_matching::core::solver::{Algorithm, SolveReport, SolveRequest, Solver, Start};
use gpu_pr_matching::core::{GhkVariant, GprVariant, GrStrategy, SolveError, WorklistMode};
use gpu_pr_matching::graph::heuristics::{cheap_matching, karp_sipser};
use gpu_pr_matching::graph::verify::{
    is_maximum, is_valid_matching, koenig_cover, maximum_matching_cardinality,
};
use gpu_pr_matching::graph::{gen, BipartiteCsr, Matching};

/// One solve from the cheap matching on a throwaway default session.
fn solve(graph: &BipartiteCsr, algorithm: Algorithm) -> Result<SolveReport, SolveError> {
    Solver::new().run(graph, SolveRequest::new(algorithm))
}

/// One configuration per `Algorithm` variant, plus extra G-PR coverage so
/// all three kernel variants, both strategy families, and all three device
/// worklist representations are exercised.
fn every_algorithm() -> Vec<Algorithm> {
    vec![
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(10)),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(0.7)),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(0.7))
            .with_worklist(WorklistMode::DenseStamp),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(0.7))
            .with_worklist(WorklistMode::AtomicQueue),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default())
            .with_worklist(WorklistMode::AtomicQueue),
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::ghk(GhkVariant::Hkdw),
        Algorithm::ghk(GhkVariant::Hk).with_worklist(WorklistMode::AtomicQueue),
        Algorithm::ghk(GhkVariant::Hkdw).with_worklist(WorklistMode::Compacted),
        Algorithm::SequentialPushRelabel(0.5),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(1),
        Algorithm::Pdbfs(4),
    ]
}

/// The corpus named by the issue: planted-perfect, sparse random,
/// degree-skewed, and rectangular instances, plus a mesh for structure.
fn corpus() -> Vec<(&'static str, BipartiteCsr)> {
    vec![
        ("planted_perfect", gen::planted_perfect(90, 350, 11).unwrap()),
        ("sparse_random", gen::uniform_random(100, 100, 260, 22).unwrap()),
        ("degree_skewed", gen::power_law(110, 90, 500, 2.2, 33).unwrap()),
        ("rectangular_wide", gen::uniform_random(60, 150, 520, 44).unwrap()),
        ("rectangular_tall", gen::uniform_random(150, 60, 520, 55).unwrap()),
        ("mesh", gen::delaunay_like(12, 9, 66).unwrap()),
    ]
}

#[test]
fn all_algorithms_agree_with_the_oracle_on_the_corpus() {
    for (name, g) in corpus() {
        let opt = maximum_matching_cardinality(&g);
        for alg in every_algorithm() {
            let report = solve(&g, alg).unwrap();
            assert_eq!(
                report.cardinality, opt,
                "{} returned {} on {name}, oracle says {opt}",
                report.algorithm, report.cardinality
            );
            assert!(
                is_valid_matching(&g, &report.matching),
                "{} returned an inconsistent matching on {name}",
                report.algorithm
            );
            assert!(
                is_maximum(&g, &report.matching),
                "{} matching is not maximum on {name}",
                report.algorithm
            );
        }
    }
}

#[test]
fn agreement_holds_from_every_initialization() {
    let g = gen::planted_perfect(70, 280, 77).unwrap();
    let opt = maximum_matching_cardinality(&g);
    let inits = [
        ("empty", Matching::empty_for(&g)),
        ("cheap", cheap_matching(&g)),
        ("karp_sipser", karp_sipser(&g)),
    ];
    for (init_name, init) in &inits {
        for alg in every_algorithm() {
            let request = SolveRequest { start: Start::Matching(init), ..SolveRequest::new(alg) };
            let report = Solver::new().run(&g, request).unwrap();
            assert_eq!(
                report.cardinality, opt,
                "{} from {init_name} init returned {} (oracle {opt})",
                report.algorithm, report.cardinality
            );
        }
    }
}

#[test]
fn winner_carries_a_koenig_certificate() {
    // One algorithm's output per corpus entry is certified optimal by a
    // König vertex cover of equal size — a proof, not just oracle agreement.
    for (name, g) in corpus() {
        let report = solve(&g, Algorithm::gpr_default()).unwrap();
        let cover = koenig_cover(&g, &report.matching);
        assert!(cover.covers(&g), "cover misses an edge on {name}");
        assert_eq!(cover.size(), report.cardinality, "cover size mismatch on {name}");
    }
}
