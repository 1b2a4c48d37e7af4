//! Cold-per-call vs warm-session solving: how much of a solve is the common
//! setup (device creation, buffer allocation, engine construction) that a
//! reusable [`Solver`] session amortizes away.
//!
//! `cold` builds a fresh `Solver` for every solve — the behaviour of the old
//! free-function API.  `warm` reuses one session, so same-shaped solves hit
//! the per-algorithm buffer pools.
//!
//! Run with `cargo bench -p gpm-bench --bench solver_reuse`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::solver::{Algorithm, DevicePolicy, SolveRequest, Solver, Start};
use gpm_core::GhkVariant;
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{by_name, Scale};

fn bench_solver_reuse(c: &mut Criterion) {
    let spec = by_name("kron_g500-logn20").expect("known instance");
    let graph = spec.generate(Scale::Tiny).expect("generation");
    let initial = cheap_matching(&graph);
    let start = Start::Matching(&initial);
    let algorithms = [
        Algorithm::gpr_default(),
        Algorithm::ghk(GhkVariant::Hkdw),
        Algorithm::SequentialPushRelabel(0.5),
    ];
    let mut group = c.benchmark_group("solver_reuse");
    group.sample_size(10);
    for alg in algorithms {
        group.bench_with_input(BenchmarkId::new("cold", alg.label()), &alg, |b, &alg| {
            b.iter(|| {
                // A fresh session per call: pays device + workspace setup.
                let mut solver = Solver::builder()
                    .device_policy(DevicePolicy::Sequential)
                    .build()
                    .expect("valid solver config");
                let request = SolveRequest { start, ..SolveRequest::new(alg) };
                solver.run(&graph, request).expect("solve").cardinality
            })
        });
        group.bench_with_input(BenchmarkId::new("warm", alg.label()), &alg, |b, &alg| {
            let mut solver = Solver::builder()
                .device_policy(DevicePolicy::Sequential)
                .build()
                .expect("valid solver config");
            // Prime the session so the measured solves reuse warm buffers.
            solver.run(&graph, SolveRequest { start, ..SolveRequest::new(alg) }).expect("solve");
            b.iter(|| {
                let request = SolveRequest { start, ..SolveRequest::new(alg) };
                solver.run(&graph, request).expect("solve").cardinality
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver_reuse);
criterion_main!(benches);
