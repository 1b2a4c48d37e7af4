//! Launch overhead: launches/second under each execution strategy.
//!
//! The paper's algorithms are launch-bound — one kernel per BFS level or
//! push-relabel sweep — so the host cost of *starting* a launch matters as
//! much as the kernel work.  This bench pits two strategies against each
//! other on a tiny and a large grid:
//!
//! * `sequential` — everything inline on the calling thread (no threads);
//! * `pooled`     — the persistent worker pool with dynamic chunking.
//!
//! The second group times one G-PR solve on a fixed instance with the
//! pooled executor.
//!
//! Run with `cargo bench -p gpm-bench --bench launch_overhead`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::gpr::{self, GprConfig};
use gpm_gpu::{Backend, DeviceBuffer, ExecutorConfig, GpuConfig, VirtualGpu};
use gpm_graph::gen;
use gpm_graph::heuristics::cheap_matching;

fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 4)
}

/// A pooled parallel device with the inline threshold dropped so every
/// launch above it actually exercises the pool.
fn pooled(parallel_threshold: usize) -> VirtualGpu {
    VirtualGpu::new(
        GpuConfig::tesla_c2050(Backend::Parallel { workers: workers() })
            .with_executor(ExecutorConfig { parallel_threshold, ..Default::default() }),
    )
}

fn bench_launch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("launch_overhead");
    for grid in [256usize, 65_536] {
        let strategies = [("sequential", VirtualGpu::sequential()), ("pooled", pooled(1))];
        for (label, gpu) in strategies {
            let out = DeviceBuffer::<u32>::new(grid, 0);
            group.bench_with_input(BenchmarkId::new(label, grid), &grid, |b, _| {
                b.iter(|| gpu.launch("bench_launch", out.len(), |ctx| out.set(ctx.global_id, 1)))
            });
        }
    }
    group.finish();

    // End-to-end datapoint: one G-PR solve, with a threshold low enough
    // that the solve's many mid-sized kernels go parallel.
    let graph = gen::rmat(gen::RmatParams::web_like(10, 4), 3).expect("instance");
    let initial = cheap_matching(&graph);
    let mut group = c.benchmark_group("gpr_end_to_end");
    group.sample_size(10);
    let gpu = pooled(256);
    group.bench_function("pooled", |b| {
        b.iter(|| {
            gpr::run(&gpu, &graph, &initial, GprConfig::paper_default()).matching.cardinality()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_launch_overhead);
criterion_main!(benches);
