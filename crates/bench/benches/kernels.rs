//! Criterion microbenches of the virtual-GPU building blocks: kernel launch
//! overhead, device prefix sum, the global-relabeling BFS kernels, two
//! whole G-HKDW solves (on kron its Duff–Wiberg path kernel dominates the
//! host time, on hugetrace its dense BFS levels do), and a whole dense-list
//! G-PR solve on a pooled device, whose slot rounds sweep a long list of
//! mostly empty slots.
//!
//! Run with `cargo bench -p gpm-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::device::DeviceState;
use gpm_core::ggr::global_relabel;
use gpm_core::ghk::{self, GhkConfig, GhkVariant, GhkWorkspace};
use gpm_core::{Algorithm, DevicePolicy, SolveRequest, Solver, Start};
use gpm_gpu::{primitives, DeviceBuffer, ExecMode, StopCheck, VirtualGpu, WorklistMode};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{by_name, Scale};

fn bench_launch_overhead(c: &mut Criterion) {
    let gpu = VirtualGpu::parallel();
    let mut group = c.benchmark_group("kernel_launch");
    for &n in &[1usize, 1_000, 100_000] {
        let buf = DeviceBuffer::<u32>::new(n, 0);
        group.bench_with_input(BenchmarkId::new("identity_kernel", n), &n, |b, _| {
            b.iter(|| gpu.launch("bench_identity", buf.len(), |ctx| buf.set(ctx.global_id, 1)))
        });
    }
    group.finish();
}

fn bench_prefix_sum(c: &mut Criterion) {
    let gpu = VirtualGpu::parallel();
    let mut group = c.benchmark_group("prefix_sum");
    for &n in &[1_000usize, 100_000] {
        let data: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        let buf = DeviceBuffer::from_slice(&data);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| primitives::exclusive_prefix_sum(&gpu, &buf).1)
        });
    }
    group.finish();
}

fn bench_global_relabel(c: &mut Criterion) {
    let gpu = VirtualGpu::parallel();
    let spec = by_name("roadNet-PA").expect("known instance");
    let graph = spec.generate(Scale::Tiny).expect("generation");
    let matching = cheap_matching(&graph);
    c.bench_function("global_relabel_roadnet_tiny", |b| {
        b.iter(|| {
            let state = DeviceState::upload(&graph, &matching);
            let (mode, exec) = (WorklistMode::DenseStamp, ExecMode::LaunchPerRound);
            global_relabel(&gpu, &graph, &state, mode, exec, &StopCheck::never()).max_level
        })
    });
}

fn bench_ghkdw_solve(c: &mut Criterion) {
    // The sequential device runs every path-kernel thread on this thread, so
    // the sample is the host cost of the kernels themselves, not the pool's.
    let gpu = VirtualGpu::sequential();
    let spec = by_name("kron_g500-logn20").expect("known instance");
    let graph = spec.generate(Scale::Small).expect("generation");
    let matching = cheap_matching(&graph);
    let mut workspace = GhkWorkspace::new();
    c.bench_function("ghkdw_kron_small_sequential", |b| {
        b.iter(|| {
            let config = GhkConfig::new(GhkVariant::Hkdw);
            ghk::run(&gpu, &graph, &matching, config, &mut workspace, &StopCheck::never())
                .matching
                .cardinality()
        })
    });
}

fn bench_ghkdw_dense_bfs(c: &mut Criterion) {
    // hugetrace's long, thin BFS levels make G-HK-BFS-KRNL's dense frontier
    // the bulk of a G-HKDW solve: the sample is the host cost of its levels,
    // which grows with the members run, not with the grid priced.
    let gpu = VirtualGpu::sequential();
    let spec = by_name("hugetrace-00000").expect("known instance");
    let graph = spec.generate(Scale::Small).expect("generation");
    let matching = cheap_matching(&graph);
    let mut workspace = GhkWorkspace::new();
    c.bench_function("ghkdw_hugetrace_small_sequential", |b| {
        b.iter(|| {
            let config = GhkConfig::new(GhkVariant::Hkdw);
            ghk::run(&gpu, &graph, &matching, config, &mut workspace, &StopCheck::never())
                .matching
                .cardinality()
        })
    });
}

fn bench_gpr_dense_pooled(c: &mut Criterion) {
    // The request a `parallel:2` service shard runs for hugetrace under the
    // dense list: 1,263 rounds over a 1,414-slot list that holds few live
    // slots in most of them, so the sample follows the live slots that
    // `G-PR-INITKRNL` and `G-PR-PUSHKRNL` run, not the list they are priced
    // as.
    let spec = by_name("hugetrace-00000").expect("known instance");
    let graph = spec.generate(Scale::Small).expect("generation");
    let matching = cheap_matching(&graph);
    let algorithm: Algorithm = "G-PR-Shr@adaptive:0.7+dense".parse().expect("known label");
    let mut solver =
        Solver::builder().device_policy(DevicePolicy::Parallel(2)).build().expect("valid config");
    let start = Start::Matching(&matching);
    c.bench_function("gpr_dense_hugetrace_small_pooled", |b| {
        b.iter(|| {
            let request = SolveRequest { start, ..SolveRequest::new(algorithm) };
            solver.run(&graph, request).expect("solve").cardinality
        })
    });
}

criterion_group!(
    benches,
    bench_launch_overhead,
    bench_prefix_sum,
    bench_global_relabel,
    bench_ghkdw_solve,
    bench_ghkdw_dense_bfs,
    bench_gpr_dense_pooled
);
criterion_main!(benches);
