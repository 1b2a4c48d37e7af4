//! Tests of the session-style solve API: `Algorithm` label round-tripping
//! (property-based), warm-session vs cold-solve agreement across every
//! algorithm family, many jobs on one session, and the structured error
//! paths.

use gpm_core::solver::{
    paper_comparison_set, Algorithm, DevicePolicy, InitHeuristic, SolveRequest, Solver, Start,
};
use gpm_core::{
    CancelToken, ExecMode, ExecutorConfig, GhkVariant, GprVariant, GrStrategy, SolveCtx, SolveError,
};
use gpm_gpu::primitives::QUEUE_BLOCK;
use gpm_gpu::WorklistMode;
use gpm_graph::gen;
use gpm_graph::instances::{by_name, mini_suite, Scale};
use gpm_graph::verify::maximum_matching_cardinality;
use gpm_graph::{BipartiteCsr, Matching};
use proptest::prelude::*;

/// Arbitrary valid algorithm covering all seven families with varied
/// parameters, including every worklist representation and both execution
/// modes of the GPU families (so the `+mode` and `@resident` label suffixes
/// are exercised by the round-trip property).
fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0usize..10, 1u32..100, 1u32..40, 1usize..16, 0usize..4, 0usize..2).prop_map(
        |(which, fix_k, tenths, threads, mode, exec)| {
            let adaptive = GrStrategy::Adaptive(f64::from(tenths) / 10.0);
            let mode = WorklistMode::all()[mode];
            let exec = ExecMode::all()[exec];
            match which {
                0 => Algorithm::GpuPushRelabel(GprVariant::First, adaptive, mode, exec),
                1 => Algorithm::GpuPushRelabel(
                    GprVariant::ActiveList,
                    GrStrategy::Fixed(fix_k),
                    mode,
                    exec,
                ),
                2 => Algorithm::GpuPushRelabel(GprVariant::Shrink, adaptive, mode, exec),
                3 => Algorithm::GpuHopcroftKarp(GhkVariant::Hk, mode, exec),
                4 => Algorithm::GpuHopcroftKarp(GhkVariant::Hkdw, mode, exec),
                5 => Algorithm::SequentialPushRelabel(f64::from(tenths) / 10.0),
                6 => Algorithm::PothenFan,
                7 => Algorithm::HopcroftKarp,
                8 => Algorithm::Hkdw,
                _ => Algorithm::Pdbfs(threads),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm_labels_round_trip_through_display_and_fromstr(alg in arb_algorithm()) {
        let label = alg.to_string();
        let parsed: Algorithm = label.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
        prop_assert_eq!(parsed, alg, "{}", label);
        // The round-trippable label is also what serde emits.
        let json = serde_json::to_string(&alg).unwrap();
        prop_assert_eq!(json, format!("\"{label}\""));
        // Default representations stay suffix-free (paper-compatible labels);
        // non-default ones carry the '+' suffix.
        if let Some(mode) = alg.worklist() {
            let default_mode = match alg {
                Algorithm::GpuPushRelabel(v, ..) => v.default_worklist(),
                Algorithm::GpuHopcroftKarp(v, ..) => v.default_worklist(),
                _ => unreachable!(),
            };
            prop_assert_eq!(label.contains('+'), mode != default_mode, "{}", label);
        }
        // The persistent execution mode always prints (and only it does).
        if let Some(exec) = alg.exec() {
            prop_assert_eq!(
                label.ends_with("@resident"), exec == ExecMode::Persistent, "{}", label);
        }
    }
}

/// Every algorithm in the workspace: the paper's comparison set plus every
/// CPU baseline and the remaining GPU variants.
fn every_algorithm() -> Vec<Algorithm> {
    let mut algorithms = paper_comparison_set();
    algorithms.extend([
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(10)),
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(2),
    ]);
    algorithms
}

fn corpus() -> Vec<BipartiteCsr> {
    vec![
        gen::planted_perfect(60, 240, 5).unwrap(),
        gen::uniform_random(80, 80, 400, 6).unwrap(),
        gen::uniform_random(80, 80, 450, 7).unwrap(), // same shape as above: warm path
        gen::power_law(90, 70, 420, 2.2, 8).unwrap(),
        gen::uniform_random(40, 110, 390, 9).unwrap(),
    ]
}

#[test]
fn warm_solver_matches_cold_solves_across_all_algorithms() {
    let mut warm = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for g in corpus() {
        let opt = maximum_matching_cardinality(&g);
        for alg in every_algorithm() {
            let warm_report = warm.run(&g, SolveRequest::new(alg)).unwrap();
            let cold_report = Solver::new().run(&g, SolveRequest::new(alg)).unwrap();
            assert_eq!(warm_report.cardinality, opt, "warm {alg}");
            assert_eq!(cold_report.cardinality, opt, "cold {alg}");
            assert_eq!(warm_report.initial_cardinality, cold_report.initial_cardinality, "{alg}");
        }
    }
    // The session kept exactly one warm engine per distinct algorithm.
    assert_eq!(warm.warm_engine_count(), every_algorithm().len());
}

#[test]
fn one_session_batch_solves_the_full_comparison_over_a_corpus() {
    // The acceptance scenario: a single Solver runs the paper's comparison
    // set plus all CPU baselines over a multi-graph corpus, one run per
    // job, returning per-job Results.
    let graphs = corpus();
    let mut solver = Solver::builder().build().expect("valid solver config");
    let jobs: Vec<(&BipartiteCsr, Algorithm)> = graphs
        .iter()
        .flat_map(|g| every_algorithm().into_iter().map(move |alg| (g, alg)))
        .collect();
    let expected_jobs = jobs.len();
    let results: Vec<_> =
        jobs.into_iter().map(|(g, alg)| solver.run(g, SolveRequest::new(alg))).collect();
    assert_eq!(results.len(), expected_jobs);
    for (i, result) in results.iter().enumerate() {
        let report = result.as_ref().unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        let g = &graphs[i / every_algorithm().len()];
        assert_eq!(report.cardinality, maximum_matching_cardinality(g), "job {i}");
    }
}

#[test]
fn invalid_pr_factor_is_a_structured_error() {
    let g = gen::uniform_random(20, 20, 80, 1).unwrap();
    let mut solver = Solver::new();
    for bad_k in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
        let err =
            solver.run(&g, SolveRequest::new(Algorithm::SequentialPushRelabel(bad_k))).unwrap_err();
        match err {
            SolveError::InvalidConfig { algorithm, reason } => {
                assert_eq!(algorithm, "PR");
                assert!(reason.contains("global-relabel factor"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    // A fresh session reports the same error.
    assert!(matches!(
        Solver::new().run(&g, SolveRequest::new(Algorithm::SequentialPushRelabel(f64::NAN))),
        Err(SolveError::InvalidConfig { .. })
    ));
}

#[test]
fn zero_thread_pdbfs_is_a_structured_error() {
    let g = gen::uniform_random(20, 20, 80, 2).unwrap();
    let mut solver = Solver::new();
    match solver.run(&g, SolveRequest::new(Algorithm::Pdbfs(0))).unwrap_err() {
        SolveError::InvalidConfig { algorithm, reason } => {
            assert_eq!(algorithm, "P-DBFS");
            assert!(reason.contains("thread count"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // A failed job does not poison the session.
    assert!(solver.run(&g, SolveRequest::new(Algorithm::Pdbfs(1))).is_ok());
}

#[test]
fn device_required_instead_of_panic_on_cpu_only_sessions() {
    let g = gen::uniform_random(15, 15, 60, 3).unwrap();
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::CpuOnly)
        .build()
        .expect("valid solver config");
    let results: Vec<_> =
        [Algorithm::gpr_default(), Algorithm::ghk(GhkVariant::Hkdw), Algorithm::HopcroftKarp]
            .into_iter()
            .map(|algorithm| {
                let start = Start::Heuristic(InitHeuristic::KarpSipser);
                solver.run(&g, SolveRequest { start, ..SolveRequest::new(algorithm) })
            })
            .collect();
    assert!(matches!(results[0], Err(SolveError::DeviceRequired { .. })));
    assert!(matches!(results[1], Err(SolveError::DeviceRequired { .. })));
    assert_eq!(results[2].as_ref().unwrap().cardinality, maximum_matching_cardinality(&g));
    assert!(solver.device().is_none());

    // Parameter validation runs before device resolution: an invalid GPU
    // config on a CPU-only session is InvalidConfig, not DeviceRequired.
    let bad = Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(f64::NAN));
    assert!(matches!(
        solver.run(&g, SolveRequest::new(bad)),
        Err(SolveError::InvalidConfig { .. })
    ));
}

#[test]
fn shape_mismatch_is_reported_with_both_shapes() {
    let g = gen::uniform_random(12, 14, 50, 4).unwrap();
    let wrong = Matching::empty(12, 13);
    let mut solver = Solver::new();
    match solver
        .run(
            &g,
            SolveRequest {
                start: Start::Matching(&wrong),
                ..SolveRequest::new(Algorithm::HopcroftKarp)
            },
        )
        .unwrap_err()
    {
        SolveError::ShapeMismatch { graph, initial } => {
            assert_eq!(graph, (12, 14));
            assert_eq!(initial, (12, 13));
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

/// Compile-time `Send` guarantee: the service layer moves `Solver` sessions
/// into worker threads, so a future non-`Send` field (an `Rc`, a raw device
/// handle) must fail this build, not the service at a distance.
#[test]
fn solver_and_components_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<Algorithm>();
    assert_send::<InitHeuristic>();
    assert_send::<gpm_core::SolveReport>();
    assert_send::<SolveError>();
    // A warm session (device + engines populated) must stay movable too.
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let g = gen::uniform_random(10, 10, 40, 3).unwrap();
    solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
    let report = std::thread::spawn(move || {
        solver.run(&g, SolveRequest::new(Algorithm::HopcroftKarp)).unwrap()
    })
    .join()
    .unwrap();
    assert!(report.cardinality > 0);
}

#[test]
fn worklist_labels_parse_and_reject_junk() {
    // Explicit suffixes on GPU algorithms.
    assert_eq!(
        "G-PR-Shr@adaptive:0.7+queue".parse::<Algorithm>().unwrap(),
        Algorithm::gpr_default().with_worklist(WorklistMode::AtomicQueue)
    );
    assert_eq!(
        "G-PR-NoShr+compacted".parse::<Algorithm>().unwrap(),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default())
            .with_worklist(WorklistMode::Compacted)
    );
    assert_eq!(
        "G-HK+queue".parse::<Algorithm>().unwrap(),
        Algorithm::ghk(GhkVariant::Hk).with_worklist(WorklistMode::AtomicQueue)
    );
    assert_eq!(
        "G-HK+blocked".parse::<Algorithm>().unwrap(),
        Algorithm::ghk(GhkVariant::Hk).with_worklist(WorklistMode::BlockedQueue)
    );
    assert_eq!(
        "G-PR-Shr@adaptive:0.7+blocked".parse::<Algorithm>().unwrap(),
        Algorithm::gpr_default().with_worklist(WorklistMode::BlockedQueue)
    );
    // A default-mode suffix parses to the same algorithm as no suffix.
    assert_eq!(
        "G-PR-Shr+compacted".parse::<Algorithm>().unwrap(),
        "G-PR-Shr".parse::<Algorithm>().unwrap()
    );
    // Defaults print without the suffix; overrides print with it.
    assert_eq!(Algorithm::gpr_default().to_string(), "G-PR-Shr@adaptive:0.7");
    assert_eq!(
        Algorithm::gpr_default().with_worklist(WorklistMode::AtomicQueue).to_string(),
        "G-PR-Shr@adaptive:0.7+queue"
    );
    assert_eq!(
        Algorithm::ghk(GhkVariant::Hkdw).with_worklist(WorklistMode::Compacted).to_string(),
        "G-HKDW+compacted"
    );
    // Junk modes and CPU algorithms with modes are rejected.
    assert!("G-PR-Shr+stack".parse::<Algorithm>().is_err());
    assert!("HK+queue".parse::<Algorithm>().is_err());
    assert!("PR@0.5+dense".parse::<Algorithm>().is_err());
    assert!("P-DBFS+compacted".parse::<Algorithm>().is_err());
    // Plus-signed numeric parameters are not mistaken for worklist modes.
    assert_eq!("PR@+0.5".parse::<Algorithm>().unwrap(), Algorithm::SequentialPushRelabel(0.5));
    assert_eq!("P-DBFS@+8".parse::<Algorithm>().unwrap(), Algorithm::Pdbfs(8));
    assert_eq!(
        "G-PR-Shr@fix:+10+queue".parse::<Algorithm>().unwrap(),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::Fixed(10))
            .with_worklist(WorklistMode::AtomicQueue)
    );
}

#[test]
fn exec_mode_labels_parse_and_reject_junk() {
    // The full grammar: strategy, worklist, and execution-mode suffixes.
    let full = Algorithm::gpr_default()
        .with_worklist(WorklistMode::BlockedQueue)
        .with_exec(ExecMode::Persistent);
    assert_eq!(full.to_string(), "G-PR-Shr@adaptive:0.7+blocked@resident");
    assert_eq!("G-PR-Shr@adaptive:0.7+blocked@resident".parse::<Algorithm>().unwrap(), full);
    // Resident without a worklist suffix.
    assert_eq!(
        "G-HK@resident".parse::<Algorithm>().unwrap(),
        Algorithm::ghk(GhkVariant::Hk).with_exec(ExecMode::Persistent)
    );
    assert_eq!(
        Algorithm::ghk(GhkVariant::Hkdw).with_exec(ExecMode::Persistent).to_string(),
        "G-HKDW@resident"
    );
    // The default mode may be spelled out and parses to the suffix-free form.
    assert_eq!(
        "G-PR-Shr@launch".parse::<Algorithm>().unwrap(),
        "G-PR-Shr".parse::<Algorithm>().unwrap()
    );
    assert_eq!(Algorithm::gpr_default().with_exec(ExecMode::LaunchPerRound), {
        let alg: Algorithm = "G-PR-Shr".parse().unwrap();
        alg
    });
    // Launch-per-round is the default, so it never prints.
    assert_eq!(
        Algorithm::gpr_default().with_exec(ExecMode::LaunchPerRound).to_string(),
        "G-PR-Shr@adaptive:0.7"
    );
    // CPU algorithms have no device round loop to make resident.
    assert!("HK@resident".parse::<Algorithm>().is_err());
    assert!("PR@0.5@resident".parse::<Algorithm>().is_err());
    assert!("P-DBFS@8@launch".parse::<Algorithm>().is_err());
    // Junk exec modes fall through to (and fail) ordinary parsing.
    assert!("G-HK@megakernel".parse::<Algorithm>().is_err());
    // Suffix order is fixed: worklist, then exec.
    assert!("G-PR-Shr@resident+blocked".parse::<Algorithm>().is_err());
}

/// Every family of the mini suite at Tiny scale, with its maximum
/// matching cardinality.
fn tiny_mini_suite() -> Vec<(&'static str, BipartiteCsr, usize)> {
    mini_suite()
        .iter()
        .map(|spec| {
            let g = spec.generate(Scale::Tiny).expect("generate mini instance");
            let opt = maximum_matching_cardinality(&g);
            (spec.name, g, opt)
        })
        .collect()
}

/// The cross-representation acceptance test: every worklist mode, under both
/// the sequential and the pooled executor, produces a valid matching of the
/// oracle cardinality on every instance family of the mini suite.
#[test]
fn all_worklist_modes_match_the_oracle_over_the_mini_suite() {
    let instances = tiny_mini_suite();
    for policy in [DevicePolicy::Sequential, DevicePolicy::Parallel(3)] {
        let mut solver =
            Solver::builder().device_policy(policy).build().expect("valid solver config");
        for mode in WorklistMode::all() {
            for (name, g, opt) in &instances {
                for alg in [
                    Algorithm::gpr_default().with_worklist(mode),
                    Algorithm::ghk(GhkVariant::Hkdw).with_worklist(mode),
                ] {
                    let report = solver.run(g, SolveRequest::new(alg)).unwrap();
                    assert_eq!(report.cardinality, *opt, "{alg} on {name} under {policy:?}");
                    assert_eq!(
                        report.matching.validate_against(g),
                        Ok(()),
                        "{alg} on {name} under {policy:?}"
                    );
                }
            }
        }
    }
}

/// The persistent-execution acceptance test: on every instance family of
/// the mini suite, every GPU engine × worklist mode solved `@resident`
/// agrees with its launch-per-round twin — valid matchings of the same
/// cardinality under both the sequential and the pooled executor, and
/// (sequential executor, where the modelled counters are deterministic) the
/// same number of device rounds, with the whole solve riding on a small
/// constant number of launches.
#[test]
fn persistent_exec_matches_launch_per_round_over_the_mini_suite() {
    let instances = tiny_mini_suite();
    for policy in [DevicePolicy::Sequential, DevicePolicy::Parallel(3)] {
        let mut solver =
            Solver::builder().device_policy(policy).build().expect("valid solver config");
        for mode in WorklistMode::all() {
            for (name, g, opt) in &instances {
                for base in [
                    Algorithm::gpr_default().with_worklist(mode),
                    Algorithm::ghk(GhkVariant::Hkdw).with_worklist(mode),
                ] {
                    let launch = solver.run(g, SolveRequest::new(base)).unwrap();
                    let resident = solver
                        .run(g, SolveRequest::new(base.with_exec(ExecMode::Persistent)))
                        .unwrap();
                    for (report, exec) in [(&launch, "launch-per-round"), (&resident, "resident")] {
                        assert_eq!(
                            report.matching.validate_against(g),
                            Ok(()),
                            "{base} {exec} on {name} under {policy:?}"
                        );
                    }
                    assert_eq!(
                        launch.cardinality, resident.cardinality,
                        "{base} on {name} under {policy:?}"
                    );
                    assert_eq!(launch.cardinality, *opt, "{base} on {name} under {policy:?}");
                    let stats = resident.device_stats.as_ref().expect("GPU solve has stats");
                    assert!(
                        stats.total_launches() <= 2,
                        "{base}@resident on {name} under {policy:?}: {} launches",
                        stats.total_launches()
                    );
                    if policy == DevicePolicy::Sequential {
                        // Same rounds, just resident: the per-round kernel
                        // launches of the one mode reappear one-for-one as
                        // resident rounds of the other.
                        let launch_stats = launch.device_stats.as_ref().unwrap();
                        let lpr_rounds: u64 =
                            launch_stats.kernels.values().map(|k| k.launches).sum();
                        let res_rounds: u64 =
                            stats.kernels.values().map(|k| k.resident_rounds).sum();
                        // Every launch-per-round kernel invocation reappears
                        // either as a resident round or (the out-of-scope
                        // fix-up) as one of the surviving launches; the one
                        // launch that is new is the resident entry kernel.
                        assert_eq!(
                            lpr_rounds,
                            res_rounds + stats.total_launches() - 1,
                            "{base} on {name}: launch-per-round kernel launches should equal \
                             resident rounds plus the non-entry launches"
                        );
                    }
                }
            }
        }
    }
}

/// The pricing rule of `@resident`: both execution modes run the same
/// launches on the same executor, so a resident solve's modelled time is
/// its launch-per-round twin's with every in-scope launch repriced — its
/// driver round-trip (`kernel_launch_overhead_ns`) swapped for one
/// global-barrier crossing by the scope's `p` participants — plus the one
/// entry launch of `p` threads.  Checked per kernel and per solve, on the
/// deterministic sequential executor, for G-PR and G-HKDW × every worklist
/// mode over the Tiny mini suite.
#[test]
fn resident_price_is_the_launch_price_with_barriers_for_launches() {
    let perf = gpm_gpu::PerfModel::tesla_c2050();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for mode in WorklistMode::all() {
        for (name, g, _) in &tiny_mini_suite() {
            let p = g.num_rows().max(g.num_cols()).clamp(1, perf.resident_capacity());
            let repriced = perf.global_barrier_cost_ns(p) - perf.kernel_launch_overhead_ns;
            let entry_ns = perf.launch_cost_ns(p, 0, 0);
            for base in [
                Algorithm::gpr_default().with_worklist(mode),
                Algorithm::ghk(GhkVariant::Hkdw).with_worklist(mode),
            ] {
                let launch = solver.run(g, SolveRequest::new(base)).unwrap();
                let resident =
                    solver.run(g, SolveRequest::new(base.with_exec(ExecMode::Persistent))).unwrap();
                assert_eq!(launch.matching, resident.matching, "{base} on {name}");
                let (lpr, res) = (launch.device_stats.unwrap(), resident.device_stats.unwrap());
                for (kernel, l) in &lpr.kernels {
                    let r = &res.kernels[kernel];
                    assert_eq!(l.resident_rounds, 0, "{base} on {name}: {kernel}");
                    let split = r.launches + r.resident_rounds;
                    assert_eq!(l.launches, split, "{base} on {name}: {kernel}");
                    assert_eq!(
                        (l.fused_tails, l.total_threads, l.total_work, l.total_atomics),
                        (r.fused_tails, r.total_threads, r.total_work, r.total_atomics),
                        "{base} on {name}: {kernel}"
                    );
                    let priced = l.modelled_time_ns + r.resident_rounds as f64 * repriced;
                    assert!(
                        close(r.modelled_time_ns, priced),
                        "{base} on {name}: {kernel} resident {} ns, priced {priced} ns",
                        r.modelled_time_ns
                    );
                }
                // The one row the twin lacks is the entry launch.
                let entries: Vec<_> =
                    res.kernels.iter().filter(|(k, _)| !lpr.kernels.contains_key(*k)).collect();
                assert_eq!(entries.len(), 1, "{base} on {name}: {entries:?}");
                let (entry, e) = entries[0];
                assert!(entry.ends_with("-RESIDENT"), "{base} on {name}: {entry}");
                assert_eq!((e.launches, e.total_threads), (1, p as u64), "{base} on {name}");
                assert!(close(e.modelled_time_ns, entry_ns), "{base} on {name}");
                let rounds = res.total_resident_rounds() as f64;
                let priced =
                    launch.modelled_device_seconds.unwrap() * 1e9 + rounds * repriced + entry_ns;
                let resident_ns = resident.modelled_device_seconds.unwrap() * 1e9;
                assert!(close(resident_ns, priced), "{base} on {name}: {resident_ns} vs {priced}");
            }
        }
    }
}

/// Regression: on the pooled executor the queue representations could
/// append one column twice in a G-PR round when two threads displaced it at
/// once.  The next round then pushed it from two threads, each claiming a
/// row, and the downloaded matching came out larger than the maximum and
/// invalid.  A parallel threshold of 1 sends every launch of these small
/// solves to the pool, where the race lives; four workers and
/// one-cache-line chunks interleave the claims finely enough that a handful
/// of passes over the Tiny mini suite catches it.
#[test]
fn pooled_resident_queue_solves_return_valid_matchings() {
    let instances = tiny_mini_suite();
    let executor =
        ExecutorConfig { parallel_threshold: 1, chunk_size: QUEUE_BLOCK, ..Default::default() };
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Parallel(4))
        .executor_config(executor)
        .build()
        .expect("valid solver config");
    for pass in 0..6 {
        for mode in [WorklistMode::AtomicQueue, WorklistMode::BlockedQueue] {
            let alg = Algorithm::gpr_default().with_worklist(mode).with_exec(ExecMode::Persistent);
            for (name, g, opt) in &instances {
                let report = solver.run(g, SolveRequest::new(alg)).unwrap();
                assert_eq!(
                    report.matching.validate_against(g),
                    Ok(()),
                    "{alg} on {name}, pass {pass}"
                );
                assert_eq!(report.cardinality, *opt, "{alg} on {name}, pass {pass}");
            }
        }
    }
}

#[test]
fn pre_cancelled_solves_fail_fast_for_every_algorithm_family() {
    // An already-tripped token never touches an engine: zero rounds, zero
    // partial cardinality, for GPU and CPU families alike.
    let g = gen::uniform_random(50, 50, 250, 12).unwrap();
    let initial = Matching::empty_for(&g);
    let token = CancelToken::new();
    token.cancel();
    let ctx = SolveCtx::with_cancel(token);
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let start = Start::Matching(&initial);
    for alg in every_algorithm() {
        let request = SolveRequest { start, ctx: ctx.clone(), ..SolveRequest::new(alg) };
        match solver.run(&g, request).unwrap_err() {
            SolveError::Cancelled { rounds_completed, partial_cardinality } => {
                assert_eq!(rounds_completed, 0, "{alg}");
                assert_eq!(partial_cardinality, 0, "{alg}");
            }
            other => panic!("{alg}: expected Cancelled, got {other:?}"),
        }
    }
    // The session is not poisoned: the same solver still solves.
    let report = solver.run(&g, SolveRequest::new(Algorithm::HopcroftKarp)).unwrap();
    assert_eq!(report.cardinality, maximum_matching_cardinality(&g));
}

#[test]
fn expired_deadline_is_deadline_exceeded_not_cancelled() {
    let g = gen::uniform_random(40, 40, 200, 13).unwrap();
    let initial = Matching::empty_for(&g);
    let ctx =
        SolveCtx::with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let start = Start::Matching(&initial);
    for alg in [Algorithm::gpr_default(), Algorithm::HopcroftKarp] {
        let request = SolveRequest { start, ctx: ctx.clone(), ..SolveRequest::new(alg) };
        assert!(
            matches!(
                solver.run(&g, request).unwrap_err(),
                SolveError::DeadlineExceeded { rounds_completed: 0, partial_cardinality: 0 }
            ),
            "{alg}"
        );
    }
}

#[test]
fn mid_solve_cancellation_reports_rounds_and_partial_progress() {
    // Cancel from a clone of the token on another thread after the engine
    // has started: the G-PR solve must stop at a round boundary and report
    // how far it got.
    let g = gen::rmat(gen::RmatParams::graph500(11, 4), 21).unwrap();
    let initial = Matching::empty_for(&g);
    let opt = maximum_matching_cardinality(&g);

    let token = CancelToken::new();
    let trip = {
        let token = token.clone();
        std::thread::spawn(move || {
            // Wait until the solve is plausibly inside its round loop.
            std::thread::sleep(std::time::Duration::from_millis(2));
            token.cancel();
        })
    };

    let ctx = SolveCtx::with_cancel(token.clone());
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let start = Start::Matching(&initial);
    let result =
        solver.run(&g, SolveRequest { start, ctx, ..SolveRequest::new(Algorithm::gpr_default()) });
    trip.join().unwrap();
    match result {
        // The usual outcome at this scale: cancelled mid-run with a
        // consistent partial matching no better than the optimum.
        Err(SolveError::Cancelled { partial_cardinality, .. }) => {
            assert!(partial_cardinality <= opt);
        }
        // On a very fast machine the solve may legitimately finish first.
        Ok(report) => assert_eq!(report.cardinality, opt),
        Err(other) => panic!("expected Cancelled or success, got {other:?}"),
    }
    // Either way the session keeps working afterwards.
    let report = solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
    assert_eq!(report.cardinality, opt);
}

#[test]
fn builder_rejects_zero_chunk_size_and_zero_shrink_threshold() {
    let bad_exec = ExecutorConfig { chunk_size: 0, ..Default::default() };
    match Solver::builder().executor_config(bad_exec).build() {
        Err(SolveError::InvalidConfig { algorithm, reason }) => {
            assert_eq!(algorithm, "device executor");
            assert!(reason.contains("chunk_size"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn executor_config_reaches_the_session_device() {
    // The builder's executor tuning must be applied verbatim to the device
    // the session creates on its first GPU solve — this is the contract the
    // service layer relies on to keep N workers from oversubscribing the
    // host.
    let exec = ExecutorConfig { parallel_threshold: 32, chunk_size: 64, ..Default::default() };
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Parallel(2))
        .executor_config(exec)
        .build()
        .expect("valid solver config");
    assert_eq!(solver.executor_config(), exec);
    assert!(solver.device().is_none(), "device is created lazily");

    let g = gen::uniform_random(60, 60, 300, 17).unwrap();
    let report = solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
    assert_eq!(report.cardinality, maximum_matching_cardinality(&g));

    let device = solver.device().expect("GPU solve created the device");
    assert_eq!(device.config().executor, exec);
    // The pooled executor respects the backend sizing: at most the two
    // configured workers were ever spawned.
    assert!(device.worker_threads_spawned() <= 2);

    // Warm solves on the same session keep the same device (and pool).
    let before = device as *const _;
    solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
    assert!(std::ptr::eq(solver.device().unwrap(), before));
}

#[test]
fn a_reused_device_reports_each_solves_own_max_grid() {
    // A solve's device statistics cover only its own launches, the largest
    // grid per kernel included, however large the earlier solves on the
    // same device were.
    let big = by_name("hugetrace-00000").unwrap().generate(Scale::Small).unwrap();
    let small = by_name("amazon0505").unwrap().generate(Scale::Tiny).unwrap();
    assert_eq!((small.num_rows(), small.num_cols()), (256, 256));
    let sequential = || {
        Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("valid solver config")
    };
    let max_grids = |solver: &mut Solver, alg: Algorithm| -> Vec<(String, u64)> {
        let report = solver.run(&small, SolveRequest::new(alg)).unwrap();
        let stats = report.device_stats.expect("a GPU solve reports device stats");
        stats.kernels.into_iter().map(|(name, k)| (name, k.max_grid)).collect()
    };
    for label in ["G-PR-Shr@adaptive:0.7+dense@resident", "G-HKDW"] {
        let alg: Algorithm = label.parse().unwrap();
        let mut reused = sequential();
        reused.run(&big, SolveRequest::new(alg)).unwrap();
        assert_eq!(max_grids(&mut reused, alg), max_grids(&mut sequential(), alg), "{label}");
    }
}
