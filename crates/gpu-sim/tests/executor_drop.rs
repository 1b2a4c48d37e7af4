//! Dropping a `VirtualGpu` joins every pool worker.
//!
//! The only observable a joined-versus-leaked worker leaves behind is the
//! process's thread table, so this test counts `gpm-gpu-worker-*` entries in
//! `/proc/self/task`.  It lives in its own test binary: cargo runs test
//! binaries one at a time, so no other test can create or drop pools while
//! this one is counting.

use gpm_gpu::{Backend, DeviceBuffer, ExecutorConfig, GpuConfig, VirtualGpu};

/// Counts live threads of this process whose name marks them as virtual-GPU
/// pool workers.  `comm` is truncated to 15 bytes by the kernel, so match on
/// the (exactly 15-byte) prefix.
fn live_pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| {
                let comm = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
                comm.starts_with("gpm-gpu-worker").then_some(())
            })
            .count(),
    )
}

/// Polls [`live_pool_threads`] for up to a second until it reads `want`,
/// and returns the last reading.  A worker names itself when it first runs,
/// and a launch no longer waits for every worker to be scheduled; an
/// exiting thread may leave the task table a beat after `join` returns.
fn settled_pool_threads(want: usize) -> Option<usize> {
    let mut seen = live_pool_threads();
    for _ in 0..100 {
        if seen == Some(want) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        seen = live_pool_threads();
    }
    seen
}

#[test]
fn drop_joins_all_pool_workers() {
    let Some(before) = live_pool_threads() else {
        // No /proc (non-Linux): Drop's join is still exercised — a leak or
        // deadlock would hang the test — but the count can't be asserted.
        let gpu = VirtualGpu::tesla_c2050(Backend::Parallel { workers: 3 });
        gpu.launch("touch", 4_096, |_| {});
        drop(gpu);
        return;
    };
    assert_eq!(before, 0, "no pool may exist before the device");

    let gpu = VirtualGpu::new(
        GpuConfig::tesla_c2050(Backend::Parallel { workers: 3 })
            .with_executor(ExecutorConfig::default().with_parallel_threshold(8)),
    );
    assert_eq!(live_pool_threads(), Some(0), "pool is spawned lazily");

    let out = DeviceBuffer::<u32>::new(1_000, 0);
    gpu.launch("touch", out.len(), |ctx| out.set(ctx.global_id, 1));
    // Three launch threads: the launching thread and two pool workers.
    assert_eq!(settled_pool_threads(2), Some(2), "first pooled launch spawns the workers");
    gpu.launch("touch", out.len(), |ctx| out.set(ctx.global_id, 2));
    assert_eq!(settled_pool_threads(2), Some(2), "later launches reuse them");

    drop(gpu);
    assert_eq!(settled_pool_threads(0), Some(0), "drop must join every worker");
}
