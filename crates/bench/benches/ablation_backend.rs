//! Ablation: virtual-GPU backend (deterministic sequential interleaving vs
//! truly concurrent worker pool).  The parallel backend is the realistic one;
//! the sequential backend quantifies how much host-side concurrency the
//! reproduction gains on top of the kernel-count structure.
//!
//! Run with `cargo bench -p gpm-bench --bench ablation_backend`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::gpr::{self, GprConfig, GprWorkspace};
use gpm_gpu::{Backend, StopCheck, VirtualGpu};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{by_name, Scale};

fn bench_backends(c: &mut Criterion) {
    let spec = by_name("com-livejournal").expect("known instance");
    let graph = spec.generate(Scale::Tiny).expect("generation");
    let initial = cheap_matching(&graph);
    let mut group = c.benchmark_group("vgpu_backend");
    group.sample_size(10);
    let backends: Vec<(&str, VirtualGpu)> = vec![
        ("sequential", VirtualGpu::sequential()),
        ("parallel-2", VirtualGpu::tesla_c2050(Backend::Parallel { workers: 2 })),
        ("parallel-auto", VirtualGpu::parallel()),
    ];
    for (name, gpu) in &backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), gpu, |b, gpu| {
            b.iter(|| {
                gpr::run(
                    gpu,
                    &graph,
                    &initial,
                    GprConfig::paper_default(),
                    &mut GprWorkspace::new(),
                    &StopCheck::never(),
                )
                .matching
                .cardinality()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
