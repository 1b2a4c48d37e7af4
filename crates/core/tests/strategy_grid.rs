//! `GrStrategy` schedules under the G-PR solver: the paper's Figure-1
//! strategy grid plus the degenerate schedules and graphs the schedule
//! logic must survive (interval 0/1, empty graphs, already-perfect initial
//! matchings).

use gpm_core::gpr::{self, GprConfig, GprResult, GprWorkspace};
use gpm_core::strategy::figure1_strategies;
use gpm_core::GrStrategy;
use gpm_gpu::{StopCheck, VirtualGpu};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::verify::{maximum_matching_cardinality, reference_maximum_matching};
use gpm_graph::{gen, BipartiteCsr, Matching};

/// One G-PR run that never stops, on a cold workspace.
fn run_gpr(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GprConfig,
) -> GprResult {
    gpr::run(gpu, graph, initial, config, &mut GprWorkspace::new(), &StopCheck::never())
}

#[test]
fn figure1_grid_matches_the_paper() {
    let grid = figure1_strategies();
    assert_eq!(grid.len(), 7);
    assert_eq!(grid.iter().filter(|s| matches!(s, GrStrategy::Adaptive(_))).count(), 5);
    assert_eq!(grid.iter().filter(|s| matches!(s, GrStrategy::Fixed(_))).count(), 2);
    let labels: Vec<String> = grid.iter().map(GrStrategy::label).collect();
    for expected in [
        "adaptive, 0.3",
        "adaptive, 0.7",
        "adaptive, 1",
        "adaptive, 1.5",
        "adaptive, 2",
        "fix, 10",
        "fix, 50",
    ] {
        assert!(
            labels.iter().any(|l| l == expected),
            "missing strategy {expected:?} in {labels:?}"
        );
    }
}

#[test]
fn every_grid_strategy_reaches_the_optimum() {
    let gpu = VirtualGpu::sequential();
    let g = gen::planted_perfect(60, 240, 9).unwrap();
    let init = cheap_matching(&g);
    let opt = maximum_matching_cardinality(&g);
    for strategy in figure1_strategies() {
        let r = run_gpr(&gpu, &g, &init, GprConfig::with_strategy(strategy));
        assert_eq!(r.matching.cardinality(), opt, "strategy {} fell short", strategy.label());
    }
}

#[test]
fn degenerate_intervals_zero_and_one_still_terminate() {
    let gpu = VirtualGpu::sequential();
    let g = gen::uniform_random(40, 40, 160, 3).unwrap();
    let init = cheap_matching(&g);
    let opt = maximum_matching_cardinality(&g);
    for strategy in [
        GrStrategy::Fixed(0),                    // clamped to 1 by the schedule
        GrStrategy::Fixed(1),                    // relabel on every kernel execution
        GrStrategy::Adaptive(f64::MIN_POSITIVE), // ceil() clamps to 1 iteration
    ] {
        let r = run_gpr(&gpu, &g, &init, GprConfig::with_strategy(strategy));
        assert_eq!(r.matching.cardinality(), opt, "strategy {} fell short", strategy.label());
    }
}

#[test]
fn empty_and_edgeless_graphs_are_handled() {
    let gpu = VirtualGpu::sequential();
    // Smallest legal graph, no edges; and a wider edgeless graph.
    for g in
        [BipartiteCsr::from_edges(1, 1, &[]).unwrap(), BipartiteCsr::from_edges(7, 3, &[]).unwrap()]
    {
        for strategy in figure1_strategies() {
            let r = run_gpr(&gpu, &g, &Matching::empty_for(&g), GprConfig::with_strategy(strategy));
            assert_eq!(r.matching.cardinality(), 0, "strategy {}", strategy.label());
        }
    }
}

#[test]
fn already_perfect_initial_matching_is_preserved() {
    let gpu = VirtualGpu::sequential();
    let g = gen::planted_perfect(50, 200, 17).unwrap();
    let perfect = reference_maximum_matching(&g);
    assert_eq!(perfect.cardinality(), 50);
    for strategy in figure1_strategies() {
        let r = run_gpr(&gpu, &g, &perfect, GprConfig::with_strategy(strategy));
        assert_eq!(r.matching.cardinality(), 50, "strategy {}", strategy.label());
        assert!(r.matching.validate_against(&g).is_ok());
    }
}

#[test]
fn schedule_arithmetic_edge_cases() {
    // maxLevel 0 (before any relabel has run) must still advance.
    assert_eq!(GrStrategy::Adaptive(0.7).next_relabel_iteration(0, 0), 1);
    assert_eq!(GrStrategy::Fixed(0).next_relabel_iteration(0, 10), 11);
    // Large maxLevel values must not overflow the iteration counter.
    let far = GrStrategy::Adaptive(2.0).next_relabel_iteration(u32::MAX, 1_000_000);
    assert!(far > 1_000_000);
    // Fixed ignores maxLevel entirely; adaptive scales with it.
    assert_eq!(
        GrStrategy::Fixed(10).next_relabel_iteration(1, 0),
        GrStrategy::Fixed(10).next_relabel_iteration(1_000, 0),
    );
    assert!(
        GrStrategy::Adaptive(1.0).next_relabel_iteration(1_000, 0)
            > GrStrategy::Adaptive(1.0).next_relabel_iteration(1, 0)
    );
}
