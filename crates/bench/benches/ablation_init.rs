//! Ablation: sensitivity of G-PR and sequential PR to the initialization
//! heuristic (no initial matching, the paper's cheap matching, Karp–Sipser).
//!
//! Run with `cargo bench -p gpm-bench --bench ablation_init`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::solver::{Algorithm, SolveRequest, Solver, Start};
use gpm_graph::heuristics::{cheap_matching, karp_sipser};
use gpm_graph::instances::{by_name, Scale};
use gpm_graph::Matching;

fn bench_initialization(c: &mut Criterion) {
    let spec = by_name("flickr").expect("known instance");
    let graph = spec.generate(Scale::Tiny).expect("generation");
    let inits: Vec<(&str, Matching)> = vec![
        ("none", Matching::empty_for(&graph)),
        ("cheap", cheap_matching(&graph)),
        ("karp-sipser", karp_sipser(&graph)),
    ];
    let mut group = c.benchmark_group("initialization");
    group.sample_size(10);
    let mut solver = Solver::builder().build().expect("valid solver config");
    for algorithm in [Algorithm::gpr_default(), Algorithm::SequentialPushRelabel(0.5)] {
        for (init_name, init) in &inits {
            group.bench_with_input(
                BenchmarkId::new(algorithm.label(), init_name),
                init,
                |b, init| {
                    let start = Start::Matching(init);
                    b.iter(|| {
                        let request = SolveRequest { start, ..SolveRequest::new(algorithm) };
                        solver.run(&graph, request).expect("solve").cardinality
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_initialization);
criterion_main!(benches);
