//! Property-based tests for the GPU algorithms: on arbitrary random bipartite
//! graphs, every variant of G-PR and G-HK/G-HKDW must return a valid matching
//! whose cardinality equals the independent oracle's, on both virtual-GPU
//! backends, from both an empty and a greedy initial matching.

use gpm_core::gpr::{self, GprConfig, GprVariant};
use gpm_core::solver::{Algorithm, DevicePolicy, Solver};
use gpm_core::{ghk, ExecMode, GhkVariant, GrStrategy, WorklistMode};
use gpm_gpu::VirtualGpu;
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
use gpm_graph::{BipartiteCsr, GraphDelta, Matching, VertexId};
use gpm_testutil::arb_bipartite_with;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = BipartiteCsr> {
    arb_bipartite_with(30, 30, 150)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gpr_variants_match_oracle_on_sequential_backend(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
            let r = gpr::run(&gpu, &g, &init, GprConfig::with_variant(variant));
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
        let r = gpr::run(&gpu, &g, &init, GprConfig::paper_default());
        prop_assert_eq!(r.matching.cardinality(), opt);
        prop_assert!(is_maximum(&g, &r.matching));
        prop_assert_eq!(r.matching.validate_against(&g), Ok(()));
    }

    #[test]
    fn gpr_from_empty_matching_matches_oracle(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let r = gpr::run(&gpu, &g, &Matching::empty_for(&g), GprConfig::paper_default());
        prop_assert_eq!(r.matching.cardinality(), opt);
        prop_assert_eq!(r.matching.validate_against(&g), Ok(()));
    }

    #[test]
    fn ghk_variants_match_oracle(g in arb_graph()) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let r = ghk::run(&gpu, &g, &init, variant);
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
                let launch = gpr::run(&gpu, &g, &init, base);
                let resident = gpr::run(&gpu, &g, &init, base.with_exec(ExecMode::Persistent));
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
                let launch = ghk::run_with_exec_stop(
                    &gpu, &g, &init, variant, mode, ExecMode::LaunchPerRound,
                    &mut gpm_core::GhkWorkspace::new(), &gpm_gpu::StopCheck::never(),
                );
                let resident = ghk::run_with_exec_stop(
                    &gpu, &g, &init, variant, mode, ExecMode::Persistent,
                    &mut gpm_core::GhkWorkspace::new(), &gpm_gpu::StopCheck::never(),
                );
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
        let (add_rows, add_cols) = dims;
        // Build an in-bounds delta that mixes inserts, removals of real
        // edges (including a matched one, forced below), vertex clears, and
        // dimension growth.
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
            let base = solver.solve(&g, Algorithm::HopcroftKarp).unwrap();
            // Force the delta to delete a matched edge when one exists.
            let mut delta = delta.clone();
            if let Some((r, c)) = base.matching.pairs().next() {
                delta.remove_edge(r, c);
            }
            let oracle = maximum_matching_cardinality(&g.apply_delta(&delta).unwrap());
            for &algorithm in &algorithms {
                let out = solver
                    .resolve(&g, &base.matching, &delta, algorithm)
                    .unwrap();
                prop_assert_eq!(
                    out.report.report.cardinality, oracle,
                    "{} under {:?}", algorithm, policy
                );
                prop_assert!(out.report.report.matching.validate_against(&out.graph).is_ok());
            }
        }
    }

    #[test]
    fn all_gr_strategies_agree(g in arb_graph(), k in 1u32..20) {
        let gpu = VirtualGpu::sequential();
        let opt = maximum_matching_cardinality(&g);
        let init = cheap_matching(&g);
        for strategy in [GrStrategy::Fixed(k), GrStrategy::Adaptive(f64::from(k) / 5.0)] {
            let r = gpr::run(&gpu, &g, &init, GprConfig::with_strategy(strategy));
            prop_assert_eq!(r.matching.cardinality(), opt, "{}", strategy.label());
            prop_assert_eq!(r.matching.validate_against(&g), Ok(()), "{}", strategy.label());
        }
    }
}
