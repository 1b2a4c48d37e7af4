//! Execution statistics collected by the virtual GPU.

use crate::engine::LaunchRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How one recorded launch counts in the per-kernel statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchKind {
    /// An ordinary kernel launch: counted in [`KernelStats::launches`].
    Launch,
    /// Work fused into the tail of the preceding launch (the CUDA
    /// last-block-done idiom): counted in [`KernelStats::fused_tails`], not
    /// as a launch.
    FusedTail,
    /// A launch issued inside a persistent scope (`VirtualGpu::resident`)
    /// and priced as one of its rounds: counted in
    /// [`KernelStats::resident_rounds`], not as a launch.
    ResidentRound,
}

/// Per-kernel aggregate statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Number of launches of this kernel.
    pub launches: u64,
    /// Number of fused tail passes charged to this kernel: device-side work
    /// that piggybacks on an already-running launch (the CUDA
    /// last-block-done idiom) and therefore pays no launch overhead and does
    /// not count as a launch.
    pub fused_tails: u64,
    /// Number of device-resident rounds charged to this kernel: launches
    /// issued inside a persistent scope (`VirtualGpu::resident`), each priced
    /// as one global-barrier crossing instead of a launch and not counted as
    /// a launch.
    pub resident_rounds: u64,
    /// Total threads across all launches.
    pub total_threads: u64,
    /// Total work items (memory transactions) reported by kernel threads.
    pub total_work: u64,
    /// Total atomic read-modify-write operations reported by kernel threads
    /// (plus the executor's modelled chunk-cursor claims).
    pub total_atomics: u64,
    /// Total RMWs charged at the hot-word serialization rate: for each
    /// launch, the RMW count of its single most contended word.
    pub hot_word_atomics: u64,
    /// Total modelled device time in nanoseconds.
    pub modelled_time_ns: f64,
    /// Total host wall-clock time spent executing the launches, nanoseconds.
    pub wall_time_ns: f64,
    /// Largest single-launch grid size seen.
    pub max_grid: u64,
    /// Largest per-thread work of a single launch seen
    /// ([`LaunchRecord::max_thread_work`]): the divergence that launch was
    /// priced for.
    pub max_thread_work: u64,
}

/// Device-wide statistics: per-kernel breakdown plus totals.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Statistics keyed by kernel name.
    pub kernels: BTreeMap<String, KernelStats>,
}

impl DeviceStats {
    /// Records one launch of `kernel`, counted as `kind`.
    pub fn record(&mut self, kernel: &str, kind: LaunchKind, launch: &LaunchRecord) {
        let entry = self.kernels.entry(kernel.to_string()).or_default();
        match kind {
            LaunchKind::Launch => entry.launches += 1,
            LaunchKind::FusedTail => entry.fused_tails += 1,
            LaunchKind::ResidentRound => entry.resident_rounds += 1,
        }
        entry.total_threads += launch.threads as u64;
        entry.total_work += launch.work;
        entry.total_atomics += launch.atomics;
        entry.hot_word_atomics += launch.hot_word_atomics;
        entry.modelled_time_ns += launch.modelled_time_ns;
        entry.wall_time_ns += launch.wall_time_ns;
        entry.max_grid = entry.max_grid.max(launch.threads as u64);
        entry.max_thread_work = entry.max_thread_work.max(launch.max_thread_work);
    }

    /// Total number of kernel launches.
    pub fn total_launches(&self) -> u64 {
        self.kernels.values().map(|k| k.launches).sum()
    }

    /// Total modelled device time across all kernels, in seconds.
    pub fn modelled_time_secs(&self) -> f64 {
        self.kernels.values().map(|k| k.modelled_time_ns).sum::<f64>() / 1e9
    }

    /// Total host wall-clock time spent inside kernel launches, in seconds.
    pub fn wall_time_secs(&self) -> f64 {
        self.kernels.values().map(|k| k.wall_time_ns).sum::<f64>() / 1e9
    }

    /// Total work items across all kernels.
    pub fn total_work(&self) -> u64 {
        self.kernels.values().map(|k| k.total_work).sum()
    }

    /// Total atomic RMW operations across all kernels.
    pub fn total_atomics(&self) -> u64 {
        self.kernels.values().map(|k| k.total_atomics).sum()
    }

    /// Launch count for a specific kernel (0 if it never ran).
    pub fn launches_of(&self, kernel: &str) -> u64 {
        self.kernels.get(kernel).map(|k| k.launches).unwrap_or(0)
    }

    /// Fused-tail count for a specific kernel (0 if it never ran fused).
    pub fn fused_tails_of(&self, kernel: &str) -> u64 {
        self.kernels.get(kernel).map(|k| k.fused_tails).unwrap_or(0)
    }

    /// Resident-round count for a specific kernel (0 if it never ran inside
    /// a persistent launch).
    pub fn resident_rounds_of(&self, kernel: &str) -> u64 {
        self.kernels.get(kernel).map(|k| k.resident_rounds).unwrap_or(0)
    }

    /// Total device-resident rounds across all kernels.
    pub fn total_resident_rounds(&self) -> u64 {
        self.kernels.values().map(|k| k.resident_rounds).sum()
    }

    /// Total modelled global-barrier crossings across all kernels: one per
    /// resident round, so this equals [`DeviceStats::total_resident_rounds`].
    pub fn total_barriers(&self) -> u64 {
        self.total_resident_rounds()
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &DeviceStats) {
        for (name, k) in &other.kernels {
            let entry = self.kernels.entry(name.clone()).or_default();
            entry.launches += k.launches;
            entry.fused_tails += k.fused_tails;
            entry.resident_rounds += k.resident_rounds;
            entry.total_threads += k.total_threads;
            entry.total_work += k.total_work;
            entry.total_atomics += k.total_atomics;
            entry.hot_word_atomics += k.hot_word_atomics;
            entry.modelled_time_ns += k.modelled_time_ns;
            entry.wall_time_ns += k.wall_time_ns;
            entry.max_grid = entry.max_grid.max(k.max_grid);
            entry.max_thread_work = entry.max_thread_work.max(k.max_thread_work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LaunchKind::{FusedTail, Launch, ResidentRound};

    /// A launch record with the given counters and no per-thread work
    /// maximum.
    fn rec(
        threads: usize,
        work: u64,
        atomics: u64,
        hot: u64,
        model: f64,
        wall: f64,
    ) -> LaunchRecord {
        LaunchRecord {
            threads,
            work,
            max_thread_work: 0,
            atomics,
            hot_word_atomics: hot,
            modelled_time_ns: model,
            wall_time_ns: wall,
        }
    }

    #[test]
    fn record_accumulates_per_kernel() {
        let mut s = DeviceStats::default();
        let widest = LaunchRecord { max_thread_work: 40, ..rec(100, 500, 40, 10, 1000.0, 2000.0) };
        s.record("push", Launch, &widest);
        s.record(
            "push",
            Launch,
            &LaunchRecord { max_thread_work: 7, ..rec(50, 100, 10, 5, 500.0, 700.0) },
        );
        s.record("relabel", Launch, &rec(10, 10, 0, 0, 10.0, 20.0));
        assert_eq!(s.total_launches(), 3);
        assert_eq!(s.launches_of("push"), 2);
        assert_eq!(s.launches_of("relabel"), 1);
        assert_eq!(s.launches_of("missing"), 0);
        let push = &s.kernels["push"];
        assert_eq!(push.total_threads, 150);
        assert_eq!(push.total_work, 600);
        assert_eq!(push.total_atomics, 50);
        assert_eq!(push.hot_word_atomics, 15);
        assert_eq!(push.max_grid, 100);
        assert_eq!(push.max_thread_work, 40);
        assert_eq!(push.fused_tails, 0);
        assert!((s.modelled_time_secs() - 1.51e-6).abs() < 1e-12);
        assert!((s.wall_time_secs() - 2.72e-6).abs() < 1e-12);
        assert_eq!(s.total_work(), 610);
        assert_eq!(s.total_atomics(), 50);
    }

    #[test]
    fn fused_tails_accumulate_without_counting_as_launches() {
        let mut s = DeviceStats::default();
        s.record("push", Launch, &rec(100, 500, 0, 0, 1000.0, 2000.0));
        s.record("push", FusedTail, &rec(200, 50, 8, 8, 100.0, 150.0));
        let push = &s.kernels["push"];
        assert_eq!(push.launches, 1);
        assert_eq!(push.fused_tails, 1);
        assert_eq!(s.fused_tails_of("push"), 1);
        assert_eq!(s.fused_tails_of("missing"), 0);
        assert_eq!(push.total_threads, 300);
        assert_eq!(push.total_work, 550);
        assert_eq!(push.total_atomics, 8);
        assert_eq!(push.max_grid, 200);
        assert_eq!(s.total_launches(), 1);
        // A fused pass on a never-launched kernel still creates the row.
        s.record("stitch", FusedTail, &rec(16, 4, 2, 2, 10.0, 10.0));
        assert_eq!(s.launches_of("stitch"), 0);
        assert_eq!(s.fused_tails_of("stitch"), 1);
    }

    #[test]
    fn merge_combines_blocks() {
        let mut a = DeviceStats::default();
        a.record("k", Launch, &rec(10, 10, 3, 1, 1.0, 1.0));
        let mut b = DeviceStats::default();
        b.record("k", Launch, &LaunchRecord { max_thread_work: 5, ..rec(20, 5, 2, 2, 2.0, 2.0) });
        b.record("j", Launch, &rec(1, 1, 0, 0, 1.0, 1.0));
        b.record("k", FusedTail, &rec(5, 5, 1, 1, 1.0, 1.0));
        b.record("k", ResidentRound, &rec(7, 2, 1, 1, 3.0, 3.0));
        a.merge(&b);
        assert_eq!(a.total_launches(), 3);
        assert_eq!(a.kernels["k"].total_threads, 42);
        assert_eq!(a.kernels["k"].total_atomics, 7);
        assert_eq!(a.kernels["k"].hot_word_atomics, 5);
        assert_eq!(a.kernels["k"].fused_tails, 1);
        assert_eq!(a.kernels["k"].resident_rounds, 1);
        assert_eq!(a.kernels["k"].max_grid, 20);
        assert_eq!(a.kernels["k"].max_thread_work, 5);
        assert_eq!(a.launches_of("j"), 1);
        assert_eq!(a.total_barriers(), 1);
    }

    #[test]
    fn resident_rounds_accumulate_without_counting_as_launches() {
        let mut s = DeviceStats::default();
        s.record("loop", Launch, &rec(100, 500, 0, 0, 7000.0, 100.0));
        s.record("loop", ResidentRound, &rec(100, 400, 14, 14, 800.0, 90.0));
        s.record("loop", ResidentRound, &rec(100, 300, 14, 14, 700.0, 80.0));
        let k = &s.kernels["loop"];
        assert_eq!(k.launches, 1);
        assert_eq!(k.resident_rounds, 2);
        assert_eq!(k.total_threads, 300);
        assert_eq!(k.total_work, 1200);
        assert_eq!(s.total_launches(), 1);
        assert_eq!(s.resident_rounds_of("loop"), 2);
        assert_eq!(s.resident_rounds_of("missing"), 0);
        assert_eq!(s.total_resident_rounds(), 2);
        assert_eq!(s.total_barriers(), 2);
    }

    #[test]
    fn default_is_empty() {
        let s = DeviceStats::default();
        assert_eq!(s.total_launches(), 0);
        assert_eq!(s.modelled_time_secs(), 0.0);
        assert_eq!(s.total_work(), 0);
        assert_eq!(s.total_atomics(), 0);
    }
}
