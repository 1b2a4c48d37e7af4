//! "Shape" tests: qualitative claims of the paper that the reproduction is
//! expected to preserve, checked at small scale.  These are deliberately
//! conservative — absolute numbers depend on the host — but the *direction*
//! of each comparison is what the paper's conclusions rest on.

use gpu_pr_matching::core::gpr::{self, GprConfig, GprResult, GprVariant, GprWorkspace};
use gpu_pr_matching::core::solver::{Algorithm, DevicePolicy, SolveRequest, Solver, Start};
use gpu_pr_matching::core::GrStrategy;
use gpu_pr_matching::gpu::{StopCheck, VirtualGpu};
use gpu_pr_matching::graph::heuristics::cheap_matching;
use gpu_pr_matching::graph::instances::{by_name, Scale};
use gpu_pr_matching::graph::{BipartiteCsr, Matching};

/// One G-PR run that never stops, on a cold workspace.
fn run_gpr(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GprConfig,
) -> GprResult {
    gpr::run(gpu, graph, initial, config, &mut GprWorkspace::new(), &StopCheck::never())
}

/// Section III-C: "the proposed G-PR-active algorithm improves the
/// performance of each configuration … as it decreased the divergence of the
/// GPU threads."  At the kernel level this shows up as far fewer threads
/// launched by the push kernel than the all-columns kernel.
#[test]
fn active_list_kernels_launch_fewer_threads_than_all_columns() {
    let spec = by_name("kron_g500-logn20").unwrap();
    let graph = spec.generate(Scale::Tiny).unwrap();
    let initial = cheap_matching(&graph);
    let gpu = VirtualGpu::sequential();
    let first = run_gpr(&gpu, &graph, &initial, GprConfig::with_variant(GprVariant::First));
    let active = run_gpr(&gpu, &graph, &initial, GprConfig::with_variant(GprVariant::ActiveList));
    let first_threads = first.stats.device.kernels["G-PR-KRNL"].total_threads;
    let active_threads = active.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
    // At Tiny scale the gap is modest (the deficiency is a large fraction of
    // the columns); at paper scale it is 14–84%.  The direction is what the
    // design argument rests on.
    assert!(
        active_threads < first_threads,
        "active-list should launch fewer threads: {active_threads} vs {first_threads}"
    );
}

/// Section III-C2: shrinking keeps the active arrays at "the exact number of
/// active columns", so the shrink variant launches no more push-kernel
/// threads than the non-shrinking one.
#[test]
fn shrinking_never_increases_push_kernel_threads() {
    let spec = by_name("kron_g500-logn21").unwrap();
    let graph = spec.generate(Scale::Tiny).unwrap();
    let initial = cheap_matching(&graph);
    let gpu = VirtualGpu::sequential();
    let noshr = run_gpr(&gpu, &graph, &initial, GprConfig::with_variant(GprVariant::ActiveList));
    let mut shr_config = GprConfig::with_variant(GprVariant::Shrink);
    shr_config.shrink_threshold = 64; // make sure shrinking actually triggers at tiny scale
    let shr = run_gpr(&gpu, &graph, &initial, shr_config);
    assert!(shr.stats.shrinks >= 1, "expected the shrink kernel to run");
    let noshr_threads = noshr.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
    let shr_threads = shr.stats.device.kernels["G-PR-PUSHKRNL"].total_threads;
    assert!(
        shr_threads <= noshr_threads,
        "shrinking should not increase push threads: {shr_threads} vs {noshr_threads}"
    );
}

/// Section III-A: global relabeling frequency matters, and the adaptive
/// strategy adapts it to the graph.  A strategy that relabels almost never
/// must do much more push-kernel work than the paper's (adaptive, 0.7) on a
/// graph with large deficiency.
#[test]
fn rare_global_relabeling_costs_more_push_work() {
    let spec = by_name("flickr").unwrap();
    let graph = spec.generate(Scale::Tiny).unwrap();
    let initial = cheap_matching(&graph);
    let gpu = VirtualGpu::sequential();
    let tuned =
        run_gpr(&gpu, &graph, &initial, GprConfig::with_strategy(GrStrategy::paper_default()));
    let rare = run_gpr(&gpu, &graph, &initial, GprConfig::with_strategy(GrStrategy::Fixed(50)));
    assert!(tuned.stats.global_relabels >= rare.stats.global_relabels);
    let tuned_work = tuned.stats.device.kernels["G-PR-PUSHKRNL"].total_work;
    let rare_work = rare.stats.device.kernels["G-PR-PUSHKRNL"].total_work;
    assert!(
        rare_work >= tuned_work,
        "rare relabeling should scan at least as many edges: {rare_work} vs {tuned_work}"
    );
}

/// Figure 4 / Table I: the structural contrast behind the speedups — on
/// Kronecker-like graphs the GPU algorithm needs few main-loop iterations
/// relative to the remaining deficiency, while on huge near-perfect meshes
/// the augmenting paths are long and the loop count per augmentation is much
/// higher.  This is the mechanism that makes `hugetrace` the paper's worst
/// case (0.31 speedup) and `kron`/`delaunay` its best cases.
#[test]
fn long_path_instances_need_more_loops_per_augmentation_than_kron() {
    use gpu_pr_matching::graph::gen;
    let gpu = VirtualGpu::sequential();
    let loops_per_aug = |graph: &gpu_pr_matching::graph::BipartiteCsr| {
        let initial = cheap_matching(graph);
        let deficiency =
            gpu_pr_matching::cpu::hopcroft_karp(graph, &initial).matching.cardinality()
                - initial.cardinality();
        assert!(deficiency > 0, "test instance must leave some work for the solver");
        let run = run_gpr(&gpu, graph, &initial, GprConfig::paper_default());
        run.stats.loops as f64 / deficiency as f64
    };
    // Kronecker family: huge deficiency, short augmenting paths.
    let kron = loops_per_aug(&gen::rmat(gen::RmatParams::graph500(11, 8), 5).unwrap());
    // Road/mesh family: small deficiency, very long augmenting paths.
    let road = loops_per_aug(&gen::road_network(80, 80, 0.12, 2).unwrap());
    assert!(
        road > kron,
        "long-path family should need more loops per augmentation: road {road:.2} vs kron {kron:.2}"
    );
}

/// The headline claim of the paper, at the modelled-cost level: on a
/// Kronecker instance (large deficiency, short augmenting paths) G-PR's
/// modelled device time beats the measured wall-clock of the sequential PR
/// baseline is *not* something we can assert on arbitrary hosts — but G-PR
/// must at least beat the *GPU* baseline G-HKDW in modelled time on that
/// family, which is the comparison both sides of the paper's Figure 2 share
/// a clock for.
#[test]
fn gpr_beats_ghkdw_in_modelled_time_on_kron_family() {
    let spec = by_name("kron_g500-logn21").unwrap();
    let graph = spec.generate(Scale::Tiny).unwrap();
    let initial = cheap_matching(&graph);
    let mut solver =
        Solver::builder().device_policy(DevicePolicy::Auto).build().expect("valid solver config");
    let mut solve = |algorithm| {
        let request =
            SolveRequest { start: Start::Matching(&initial), ..SolveRequest::new(algorithm) };
        solver.run(&graph, request).unwrap()
    };
    let gpr_report = solve(Algorithm::gpr_default());
    let ghkdw_report = solve(Algorithm::ghk(gpu_pr_matching::core::GhkVariant::Hkdw));
    let gpr_secs = gpr_report.modelled_device_seconds.unwrap();
    let ghkdw_secs = ghkdw_report.modelled_device_seconds.unwrap();
    assert!(
        gpr_secs < ghkdw_secs,
        "G-PR should beat G-HKDW in modelled time on kron: {gpr_secs:.6} vs {ghkdw_secs:.6}"
    );
}
