//! Property-based tests for the GPU algorithms: on arbitrary random bipartite
//! graphs, every variant of G-PR and G-HK/G-HKDW must return a valid matching
//! whose cardinality equals the independent oracle's, on both virtual-GPU
//! backends, from both an empty and a greedy initial matching.  Every
//! `Start` of a solve request must also equal the explicit matching it
//! stands for.

use gpm_core::ghk::GhkResult;
use gpm_core::gpr::{self, GprConfig, GprResult, GprVariant, GprWorkspace};
use gpm_core::solver::{Algorithm, DevicePolicy, SolveReport, SolveRequest, Solver, Start};
use gpm_core::{
    ghk, ExecMode, GhkConfig, GhkVariant, GhkWorkspace, GrStrategy, InitHeuristic, WorklistMode,
};
use gpm_gpu::{StopCheck, VirtualGpu};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
use gpm_graph::{BipartiteCsr, GraphDelta, Matching, VertexId};
use gpm_testutil::arb_bipartite_with;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = BipartiteCsr> {
    arb_bipartite_with(30, 30, 150)
}

/// One G-PR run that never stops, on a cold workspace.
fn run_gpr(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GprConfig,
) -> GprResult {
    gpr::run(gpu, graph, initial, config, &mut GprWorkspace::new(), &StopCheck::never())
}

/// One G-HK / G-HKDW run that never stops, on a cold workspace.
fn run_ghk(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GhkConfig,
) -> GhkResult {
    ghk::run(gpu, graph, initial, config, &mut GhkWorkspace::new(), &StopCheck::never())
}

/// An in-bounds delta of `g` built from drawn parts: inserts inside the
/// grown shape, removals of real edges (picked by index), vertex clears,
/// and dimension growth.
fn build_delta(
    g: &BipartiteCsr,
    inserts: &[(u32, u32)],
    remove_picks: &[usize],
    clear_rows: &[u32],
    clear_cols: &[u32],
    (add_rows, add_cols): (usize, usize),
) -> GraphDelta {
    let new_rows = g.num_rows() + add_rows;
    let new_cols = g.num_cols() + add_cols;
    let mut delta = GraphDelta::new();
    delta.add_rows(add_rows).add_cols(add_cols);
    delta.extend_inserts(
        inserts
            .iter()
            .filter(|&&(r, c)| (r as usize) < new_rows && (c as usize) < new_cols)
            .copied(),
    );
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    if !edges.is_empty() {
        delta.extend_removes(remove_picks.iter().map(|&i| edges[i % edges.len()]));
    }
    for &r in clear_rows.iter().filter(|&&r| (r as usize) < new_rows) {
        delta.clear_row(r);
    }
    for &c in clear_cols.iter().filter(|&&c| (c as usize) < new_cols) {
        delta.clear_col(c);
    }
    delta
}

/// G-PR First/NoShr/Shr over every worklist, G-HK, G-HKDW, and the five
/// CPU labels (P-DBFS on one thread, so its matchings are deterministic).
fn start_equivalence_algorithms() -> Vec<Algorithm> {
    let mut algorithms = vec![
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::ghk(GhkVariant::Hkdw),
        Algorithm::SequentialPushRelabel(0.5),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(1),
    ];
    for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
        for mode in WorklistMode::all() {
            algorithms.push(Algorithm::gpr(variant, GrStrategy::Fixed(4)).with_worklist(mode));
        }
    }
    algorithms
}

/// Two solves are the same solve: identical matchings and, for the GPU
/// labels, identical modelled device seconds, bit for bit.
fn same_solve(a: &SolveReport, b: &SolveReport) -> bool {
    a.matching == b.matching
        && a.modelled_device_seconds.map(f64::to_bits)
            == b.modelled_device_seconds.map(f64::to_bits)
}

/// The documented repair of a warm start: `previous` projected onto
/// `child`, keeping unmatchable sentinels only when the delta inserts no
/// edge and the projection drops no pair.  Returns it with the dropped
/// pairs.
fn repaired(previous: &Matching, child: &BipartiteCsr, delta: &GraphDelta) -> (Matching, usize) {
    let keep_sentinels = !delta.inserts_edges();
    let (matching, dropped) = previous.project_onto(child, keep_sentinels);
    if keep_sentinels && dropped > 0 {
        (previous.project_onto(child, false).0, dropped)
    } else {
        (matching, dropped)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gpr_variants_match_oracle_on_sequential_backend(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
            let r = run_gpr(&gpu, &g, &init, GprConfig::with_variant(variant));
            prop_assert_eq!(r.matching.cardinality(), opt, "{}", variant.label());
            prop_assert!(is_maximum(&g, &r.matching));
            prop_assert!(r.matching.validate_against(&g).is_ok());
        }
    }

    #[test]
    fn gpr_shrink_matches_oracle_on_parallel_backend(g in arb_graph()) {
        let gpu = VirtualGpu::parallel();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        let r = run_gpr(&gpu, &g, &init, GprConfig::paper_default());
        prop_assert_eq!(r.matching.cardinality(), opt);
        prop_assert!(is_maximum(&g, &r.matching));
        prop_assert_eq!(r.matching.validate_against(&g), Ok(()));
    }

    #[test]
    fn gpr_from_empty_matching_matches_oracle(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let r = run_gpr(&gpu, &g, &Matching::empty_for(&g), GprConfig::paper_default());
        prop_assert_eq!(r.matching.cardinality(), opt);
        prop_assert_eq!(r.matching.validate_against(&g), Ok(()));
    }

    #[test]
    fn ghk_variants_match_oracle(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let r = run_ghk(&gpu, &g, &init, GhkConfig::new(variant));
            prop_assert_eq!(r.matching.cardinality(), opt, "{}", variant.label());
            prop_assert!(is_maximum(&g, &r.matching));
            prop_assert_eq!(r.matching.validate_against(&g), Ok(()), "{}", variant.label());
        }
    }

    #[test]
    fn persistent_exec_is_equivalent_for_every_gpu_engine(g in arb_graph()) {
        // The persistent megakernel loop is the same round loop as
        // launch-per-round, merely device-resident: on arbitrary graphs,
        // every GPU engine × worklist mode must produce the same
        // cardinality and (sequential backend, deterministic counters) the
        // same per-round kernel work, with the whole resident solve issuing
        // at most entry + fix-up launches.
        let gpu = VirtualGpu::sequential();
        let init = cheap_matching(&g);
        for mode in WorklistMode::all() {
            for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
                let base = GprConfig::with_variant(variant).with_worklist(mode);
                let launch = run_gpr(&gpu, &g, &init, base);
                let resident = run_gpr(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
                for r in [&launch, &resident] {
                    prop_assert_eq!(
                        r.matching.validate_against(&g), Ok(()), "{} + {}", variant.label(), mode
                    );
                }
                prop_assert_eq!(
                    launch.matching.cardinality(),
                    resident.matching.cardinality(),
                    "{} + {}", variant.label(), mode
                );
                prop_assert_eq!(
                    launch.stats.loops, resident.stats.loops,
                    "{} + {}", variant.label(), mode
                );
                prop_assert!(resident.stats.device.total_launches() <= 2);
            }
            for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                let base = GhkConfig::new(variant).with_worklist(mode);
                let launch = run_ghk(&gpu, &g, &init, base);
                let resident = run_ghk(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
                for r in [&launch, &resident] {
                    prop_assert_eq!(
                        r.matching.validate_against(&g), Ok(()), "{} + {}", variant.label(), mode
                    );
                }
                prop_assert_eq!(
                    launch.matching.cardinality(),
                    resident.matching.cardinality(),
                    "{} + {}", variant.label(), mode
                );
                prop_assert_eq!(
                    launch.stats.phases, resident.stats.phases,
                    "{} + {}", variant.label(), mode
                );
                prop_assert!(!launch.stats.stopped && !resident.stats.stopped);
                prop_assert!(resident.stats.device.total_launches() <= 1);
            }
        }
    }

    #[test]
    fn resolve_cardinality_matches_cold_oracle_for_every_engine(
        g in arb_graph(),
        inserts in proptest::collection::vec((0u32..35, 0u32..35), 0..15),
        remove_picks in proptest::collection::vec(0usize..1000, 0..8),
        clear_rows in proptest::collection::vec(0u32..35, 0..3),
        clear_cols in proptest::collection::vec(0u32..35, 0..3),
        dims in (0usize..3, 0usize..3),
    ) {
        // An in-bounds delta that mixes inserts, removals of real edges
        // (including a matched one, forced below), vertex clears, and
        // dimension growth.
        let delta = build_delta(&g, &inserts, &remove_picks, &clear_rows, &clear_cols, dims);
        // The full engine matrix: every family, every worklist mode, and
        // both the sequential and the pooled virtual-GPU executor.
        let mut algorithms = vec![
            Algorithm::SequentialPushRelabel(0.5),
            Algorithm::PothenFan,
            Algorithm::HopcroftKarp,
            Algorithm::Pdbfs(2),
            Algorithm::gpr(GprVariant::First, GrStrategy::Fixed(4)),
            Algorithm::ghk(GhkVariant::Hk),
        ];
        for mode in WorklistMode::all() {
            algorithms.push(
                Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(4)).with_worklist(mode),
            );
            algorithms.push(
                Algorithm::gpr(GprVariant::Shrink, GrStrategy::Fixed(4)).with_worklist(mode),
            );
            algorithms.push(Algorithm::ghk(GhkVariant::Hkdw).with_worklist(mode));
        }

        for policy in [DevicePolicy::Sequential, DevicePolicy::Parallel(2)] {
            let mut solver = Solver::builder().device_policy(policy).build().unwrap();
            let base = solver.run(&g, SolveRequest::new(Algorithm::HopcroftKarp)).unwrap();
            // Force the delta to delete a matched edge when one exists.
            let mut delta = delta.clone();
            if let Some((r, c)) = base.matching.pairs().next() {
                delta.remove_edge(r, c);
            }
            let child = g.apply_delta(&delta).unwrap();
            let oracle = maximum_matching_cardinality(&child);
            for &algorithm in &algorithms {
                let start = Start::Warm {
                    previous: &base.matching,
                    delta: &delta,
                    fallback: InitHeuristic::Cheap,
                };
                let report =
                    solver.run(&child, SolveRequest { start, ..SolveRequest::new(algorithm) });
                let report = report.unwrap();
                prop_assert_eq!(report.cardinality, oracle, "{} under {:?}", algorithm, policy);
                prop_assert!(report.matching.validate_against(&child).is_ok());
            }
        }
    }

    #[test]
    fn all_gr_strategies_agree(g in arb_graph(), k in 1u32..20) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for strategy in [GrStrategy::Fixed(k), GrStrategy::Adaptive(f64::from(k) / 5.0)] {
            let r = run_gpr(&gpu, &g, &init, GprConfig::with_strategy(strategy));
            prop_assert_eq!(r.matching.cardinality(), opt, "{}", strategy.label());
            prop_assert_eq!(r.matching.validate_against(&g), Ok(()), "{}", strategy.label());
        }
    }
}

proptest! {
    // Each case runs 12 solves of each of 19 labels; a few cases cover the
    // three starts without moving the suite's time.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_start_equals_its_explicit_matching(
        g in arb_graph(),
        inserts in proptest::collection::vec((0u32..35, 0u32..35), 0..6),
        remove_picks in proptest::collection::vec(0usize..1000, 0..4),
        clear_rows in proptest::collection::vec(0u32..35, 0..2),
        clear_cols in proptest::collection::vec(0u32..35, 0..2),
        dims in (0usize..2, 0usize..2),
    ) {
        let delta = build_delta(&g, &inserts, &remove_picks, &clear_rows, &clear_cols, dims);
        let child = g.apply_delta(&delta).unwrap();
        let mut solver =
            Solver::builder().device_policy(DevicePolicy::Sequential).build().unwrap();
        let previous = solver.run(&g, SolveRequest::new(Algorithm::HopcroftKarp)).unwrap().matching;
        let (repaired, dropped) = repaired(&previous, &child, &delta);
        let heuristics = [InitHeuristic::Empty, InitHeuristic::Cheap, InitHeuristic::KarpSipser];
        for algorithm in start_equivalence_algorithms() {
            let mut run = |graph: &BipartiteCsr, start: Start<'_>| {
                solver.run(graph, SolveRequest { start, ..SolveRequest::new(algorithm) }).unwrap()
            };
            for h in heuristics {
                let built = h.build(&g);
                let by_heuristic = run(&g, Start::Heuristic(h));
                let explicit = run(&g, Start::Matching(&built));
                prop_assert!(same_solve(&by_heuristic, &explicit), "{} from {}", algorithm, h);
            }
            for fallback in heuristics {
                let warm = run(&child, Start::Warm { previous: &previous, delta: &delta, fallback });
                let (explicit, dropped) = if warm.fell_back_to_cold {
                    (run(&child, Start::Heuristic(fallback)), 0)
                } else {
                    (run(&child, Start::Matching(&repaired)), dropped)
                };
                prop_assert!(same_solve(&warm, &explicit), "{} warm, {} fallback", algorithm, fallback);
                prop_assert_eq!(warm.dropped_pairs, dropped, "{} warm, {} fallback", algorithm, fallback);
                prop_assert_eq!(warm.initial_cardinality, explicit.initial_cardinality);
                prop_assert_eq!(warm.seeded_frontier, explicit.seeded_frontier);
            }
        }
    }
}
