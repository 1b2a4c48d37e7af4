//! Persistent-executor lifecycle and equivalence tests: the pool is spawned
//! at most once per device, a kernel panic fails its launch without killing
//! the pool, and — property-tested over arbitrary data and chunk sizes —
//! the pooled parallel backend is indistinguishable from the deterministic
//! sequential backend for disjoint-write kernels and for all three device
//! primitives.  (`Drop` joining every worker is covered by the dedicated
//! `executor_drop` test binary, which needs the process thread count to
//! itself.)

use gpm_gpu::{primitives, Backend, DeviceBuffer, ExecutorConfig, GpuConfig, VirtualGpu};
use proptest::prelude::*;

/// A parallel device whose pool engages even for tiny test grids.
fn pooled(workers: usize, threshold: usize, chunk: usize) -> VirtualGpu {
    VirtualGpu::new(GpuConfig::tesla_c2050(Backend::Parallel { workers }).with_executor(
        ExecutorConfig { parallel_threshold: threshold, chunk_size: chunk, ..Default::default() },
    ))
}

#[test]
fn host_threads_are_spawned_at_most_once_per_device() {
    let gpu = pooled(3, 4, 8);
    // Lazy: a fresh device owns no threads.
    assert_eq!(gpu.worker_threads_spawned(), 0);
    for round in 0..200 {
        let out = DeviceBuffer::<u32>::new(997, 0);
        gpu.launch("spawn_once", out.len(), |ctx| out.set(ctx.global_id, 1));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 997, "round {round}");
        // Every launch after the first reuses the same 2 workers, which run
        // beside the launching thread.
        assert_eq!(gpu.worker_threads_spawned(), 2, "round {round}");
    }
}

#[test]
fn sub_threshold_grids_never_spawn_workers() {
    let gpu = pooled(3, 1_000_000, 8);
    for _ in 0..20 {
        gpu.launch("inline_only", 512, |ctx| ctx.add_work(1));
    }
    assert_eq!(gpu.worker_threads_spawned(), 0);
}

#[test]
fn kernel_panic_fails_the_launch_but_the_next_launch_succeeds() {
    let gpu = pooled(2, 2, 4);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gpu.launch("boom", 1_000, |ctx| {
            if ctx.global_id == 517 {
                panic!("injected kernel fault");
            }
        });
    }))
    .expect_err("the launch must propagate the kernel panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected kernel fault"));

    // Same device, same pool: the next launch covers the whole grid.
    let out = DeviceBuffer::<u32>::new(1_000, 0);
    gpu.launch("after_boom", out.len(), |ctx| out.set(ctx.global_id, 1));
    assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 1_000);
    assert_eq!(gpu.worker_threads_spawned(), 1);

    // And it keeps surviving repeated faults.
    for _ in 0..3 {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch("boom_again", 64, |_| panic!("again"));
        }));
        assert!(err.is_err());
    }
    let rec = gpu.launch("final", 64, |ctx| ctx.add_work(1));
    assert_eq!(rec.work, 64);
}

#[test]
fn launch_statistics_flow_through_the_pooled_path() {
    let gpu = pooled(2, 2, 16);
    gpu.launch("pooled_stats", 4_096, |ctx| ctx.add_work(2));
    let stats = gpu.stats();
    assert_eq!(stats.launches_of("pooled_stats"), 1);
    assert_eq!(stats.kernels["pooled_stats"].total_work, 2 * 4_096);
    assert_eq!(stats.kernels["pooled_stats"].total_threads, 4_096);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Disjoint-write kernels must leave the exact same memory image on the
    /// deterministic sequential backend and on the pooled parallel backend,
    /// whatever the chunk size does to the work distribution.
    #[test]
    fn backends_produce_identical_memory_images(
        data in proptest::collection::vec(any::<i64>(), 1..4_000),
        chunk in 1usize..600,
        workers in 2usize..5,
    ) {
        let sequential = VirtualGpu::sequential();
        let parallel = pooled(workers, 8, chunk);
        let mut images = Vec::new();
        for gpu in [&sequential, &parallel] {
            let src = DeviceBuffer::from_slice(&data);
            let dst = DeviceBuffer::<i64>::new(data.len(), 0);
            gpu.launch("prop_image", data.len(), |ctx| {
                let i = ctx.global_id;
                dst.set(i, src.get(i).wrapping_mul(3) ^ 0x5a);
                ctx.add_work(1);
            });
            images.push(dst.to_vec());
        }
        prop_assert_eq!(&images[0], &images[1]);
    }

    /// All three device primitives agree across backends (and with the
    /// host) for arbitrary inputs and chunk sizes.
    #[test]
    fn primitives_agree_across_backends(
        data in proptest::collection::vec(0u64..10_000, 0..3_000),
        chunk in 1usize..600,
    ) {
        let sequential = VirtualGpu::sequential();
        let parallel = pooled(3, 4, chunk);
        let a = DeviceBuffer::from_slice(&data);
        let b = DeviceBuffer::from_slice(&data);

        let host_sum: u64 = data.iter().sum();
        prop_assert_eq!(primitives::reduce_sum(&sequential, &a), host_sum);
        prop_assert_eq!(primitives::reduce_sum(&parallel, &b), host_sum);

        let host_max = data.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(primitives::reduce_max(&sequential, &a), host_max);
        prop_assert_eq!(primitives::reduce_max(&parallel, &b), host_max);

        let (scan_seq, total_seq) = primitives::exclusive_prefix_sum(&sequential, &a);
        let (scan_par, total_par) = primitives::exclusive_prefix_sum(&parallel, &b);
        prop_assert_eq!(total_seq, host_sum);
        prop_assert_eq!(total_par, host_sum);
        prop_assert_eq!(scan_seq.to_vec(), scan_par.to_vec());
    }

    /// Both append representations — per-item and blocked claims — collect
    /// the same multiset of items under the pooled executor as under the
    /// sequential backend, whatever the chunk size does to the claim
    /// pattern.  Order is unspecified, membership is not.
    #[test]
    fn queue_appends_agree_across_backends(
        data in proptest::collection::vec(0u64..50_000, 0..3_000),
        chunk in 1usize..600,
        workers in 2usize..5,
    ) {
        let mut expected: Vec<u64> = data.iter().copied().filter(|v| v % 2 == 0).collect();
        expected.sort_unstable();
        for blocked in [false, true] {
            let sequential = VirtualGpu::sequential();
            let parallel = pooled(workers, 4, chunk);
            for gpu in [&sequential, &parallel] {
                let src = DeviceBuffer::from_slice(&data);
                // Blocked claims round the tail up to whole blocks, so give
                // every potential claimant (workers + the inline path) one
                // spare block of slack past the exact item count.
                let cap = data.len() + (workers + 1) * primitives::QUEUE_BLOCK;
                let items = DeviceBuffer::<u64>::new(cap, u64::MAX);
                let tail = DeviceBuffer::<u64>::new(1, 0);
                let overflow = DeviceBuffer::<u64>::new(1, 0);
                let queue = if blocked {
                    primitives::DeviceQueue::new_blocked(&items, &tail, &overflow)
                } else {
                    primitives::DeviceQueue::new(&items, &tail, &overflow)
                };
                gpu.launch("prop_queue", data.len(), |ctx| {
                    // Only even values are appended, so the claim pattern is
                    // data-dependent and divergent across chunks.
                    let v = src.get(ctx.global_id);
                    if v % 2 == 0 {
                        assert!(queue.push(ctx, v), "queue with block slack cannot overflow");
                    }
                    ctx.add_work(1);
                });
                prop_assert!(!queue.overflowed());
                // Blocked claims leave hole markers in partial blocks; the
                // live items are everything under the tail that isn't one.
                let mut got: Vec<u64> = items.to_vec()[..queue.len().min(cap)]
                    .iter()
                    .copied()
                    .filter(|&v| v != primitives::QUEUE_EMPTY)
                    .collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &expected, "blocked={}", blocked);
            }
        }
    }

    /// A full worklist BFS reaches the same vertices at the same depths
    /// under both backends and under three representations — the dense
    /// stamp scan, the per-item queue tail, and the blocked-claim tail.
    /// Small domains force the blocked variant through its overflow path
    /// (block claims round past capacity and rebuild from stamps), so
    /// membership survives that too.
    #[test]
    fn worklist_queue_bfs_agrees_across_backends(
        n in 2usize..400,
        stride in 1usize..5,
        chunk in 1usize..300,
    ) {
        use gpm_gpu::{Worklist, WorklistKernels, WorklistMode};
        const NAMES: WorklistKernels = WorklistKernels {
            init: "wl_init",
            compact_count: "wl_count",
            compact_scatter: "wl_scatter",
            refill: "wl_refill",
            stitch: "wl_stitch",
        };
        let mut depths = Vec::new();
        for mode in WorklistMode::all() {
            let sequential = VirtualGpu::sequential();
            let parallel = pooled(3, 4, chunk);
            for gpu in [&sequential, &parallel] {
                let dist = DeviceBuffer::<u64>::new(n, u64::MAX);
                dist.set(0, 0);
                let mut wl = Worklist::new(gpu, mode, n, NAMES);
                wl.seed([0]);
                let mut level = 0u64;
                loop {
                    wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                        ctx.add_work(1);
                        for w in [v.wrapping_sub(stride), v + stride, v + 1] {
                            if w < n && dist.get(w) == u64::MAX {
                                dist.set(w, level + 1);
                                frontier.push(ctx, w);
                            }
                        }
                    });
                    if !wl.advance_frontier() {
                        break;
                    }
                    level += 1;
                }
                depths.push(dist.to_vec());
            }
        }
        for d in &depths[1..] {
            prop_assert_eq!(&depths[0], d);
        }
    }
}
