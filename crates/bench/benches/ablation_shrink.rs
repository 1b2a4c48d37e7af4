//! Ablation: the shrink threshold (the paper only compacts the active-column
//! list while it has at least 512 entries; this sweep varies that cutoff).
//!
//! Run with `cargo bench -p gpm-bench --bench ablation_shrink`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::gpr::{self, GprConfig, GprVariant, GprWorkspace};
use gpm_gpu::{StopCheck, VirtualGpu};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{by_name, Scale};

fn bench_shrink_threshold(c: &mut Criterion) {
    let spec = by_name("kron_g500-logn21").expect("known instance");
    let graph = spec.generate(Scale::Tiny).expect("generation");
    let initial = cheap_matching(&graph);
    let gpu = VirtualGpu::parallel();
    let mut group = c.benchmark_group("shrink_threshold");
    group.sample_size(10);
    for &threshold in &[usize::MAX, 4096, 512, 64, 1] {
        let label = if threshold == usize::MAX { "off".to_string() } else { threshold.to_string() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &threshold, |b, &threshold| {
            b.iter(|| {
                let config = GprConfig {
                    variant: GprVariant::Shrink,
                    shrink_threshold: threshold,
                    ..GprConfig::paper_default()
                };
                gpr::run(
                    &gpu,
                    &graph,
                    &initial,
                    config,
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

criterion_group!(benches, bench_shrink_threshold);
criterion_main!(benches);
