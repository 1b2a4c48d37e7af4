//! Device performance model.
//!
//! The reproduction cannot measure CUDA kernel times, so the virtual GPU
//! charges each launch an analytical cost and the harness reports the
//! accumulated *modelled device time* next to host wall-clock time.  The
//! model is deliberately simple — the paper's comparisons hinge on operation
//! counts (number of kernel launches, threads per launch, edges scanned), not
//! on microarchitectural subtleties:
//!
//! ```text
//! launch_cost = kernel_launch_overhead
//!             + ceil(threads / (num_sms × warp_size)) × warp_round_cost
//!             + work_items × memory_cost × divergence_penalty
//!             + atomics × atomic_cost
//!             + hot_word_atomics × hot_word_serialization_cost
//! ```
//!
//! * `threads` is the grid size of the launch;
//! * `work_items` is whatever the kernel reports through
//!   [`crate::ThreadCtx::add_work`] — the matching kernels report one unit
//!   per adjacency-list entry they touch, i.e. per memory transaction;
//! * `divergence_penalty` grows with the imbalance between the average and
//!   maximum per-thread work of the launch, modelling SIMT divergence:
//!   `1 + divergence_weight × (max_thread_work / avg_work − 1)`, so on the
//!   default model a launch pays about 0.5 ns × `max_thread_work` per thread
//!   of its grid on top of its work.  `max_thread_work` is the largest work
//!   a thread reported as its own plus the largest *warp share*: a list
//!   longer than a warp that a thread reports through
//!   [`crate::ThreadCtx::add_gather`] is read by its whole warp, so its
//!   units count toward `work_items` but toward the critical path only as
//!   ⌈Σ gathered units of the warp's lanes / `warp_size`⌉ steps (the
//!   warp-cooperative gather of Merrill et al.'s and Hong et al.'s GPU
//!   BFS).  A list of at most `warp_size` entries counts as the thread's
//!   own, and a launch that gathers nothing is priced as before;
//! * `atomics` is the total number of read-modify-write operations the
//!   launch reported through [`crate::ThreadCtx::add_atomic`] — a
//!   throughput term: every atomic occupies an L2 slot whether or not it
//!   contends;
//! * `hot_word_atomics` is the largest number of those RMWs that landed on
//!   a *single* word.  Fermi's L2 serializes same-address atomics, so a
//!   kernel that funnels every append through one queue-tail word pays this
//!   term linearly in the append count no matter how many SMs it fills —
//!   the single-tail bottleneck the blocked-append worklist exists to
//!   break.
//!
//! Constants default to values derived from the Tesla C2050's published
//! characteristics and are identical for every algorithm, so ratios between
//! algorithms are meaningful even though absolute values are approximate:
//!
//! * kernel launch overhead ≈ 7 µs (typical measured CUDA launch latency on
//!   Fermi-era hardware and drivers);
//! * warp round cost: issuing one full round of 14 SMs × 32 lanes costs a few
//!   hundred ns once pipelining is accounted for — 300 ns per 448-thread
//!   round (≈ 0.7 ns/thread of issue overhead);
//! * memory cost per touched adjacency word: the C2050 sustains ≈ 144 GB/s;
//!   un-coalesced 4–8-byte accesses occupy a 32-byte transaction each, so the
//!   effective random-access throughput is ≈ 18–36 GB/s, i.e. ≈ 1–2 ns per
//!   useful word when the device is saturated.  The default uses 2 ns — the
//!   pessimistic end of that range — because the matching kernels rarely
//!   saturate all SMs;
//! * atomic cost: an uncontended Fermi `atomicAdd` costs about one L2
//!   round-trip amortized across the in-flight window — ≈ 1 ns of device
//!   throughput per operation;
//! * hot-word serialization: same-address atomics serialize in the L2
//!   atomic unit at a handful of ns each (Fermi sustains on the order of
//!   one same-word RMW per few clocks), charged on top of the throughput
//!   term for every RMW on the launch's most contended word.  The default
//!   of 4 ns keeps the model conservative while still making a
//!   single-tail queue visibly slower than a blocked-append one.

use serde::{Deserialize, Serialize};

/// Analytical per-launch cost model (all times in nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// Fixed host-side cost of launching a kernel.
    pub kernel_launch_overhead_ns: f64,
    /// Cost of issuing one full round of warps across all SMs.
    pub warp_round_cost_ns: f64,
    /// Cost of one global-memory transaction (one adjacency entry touched).
    pub memory_cost_ns: f64,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// SIMT width (threads per warp).
    pub warp_size: usize,
    /// Weight of the divergence penalty: 0.0 disables it, 1.0 applies the
    /// full max/avg imbalance factor.
    pub divergence_weight: f64,
    /// Throughput cost of one atomic read-modify-write operation.
    pub atomic_cost_ns: f64,
    /// Extra serialization cost per RMW on the launch's hottest word
    /// (same-address atomics serialize in the L2 atomic unit).
    pub hot_word_serialization_ns: f64,
}

impl PerfModel {
    /// Model of the NVIDIA Tesla C2050 used in the paper's experiments.
    pub fn tesla_c2050() -> Self {
        Self {
            kernel_launch_overhead_ns: 7_000.0,
            warp_round_cost_ns: 300.0,
            memory_cost_ns: 2.0,
            num_sms: 14,
            warp_size: 32,
            divergence_weight: 0.25,
            atomic_cost_ns: 1.0,
            hot_word_serialization_ns: 4.0,
        }
    }

    /// A cost model with zero overheads; useful in unit tests that only care
    /// about operation counts.
    pub fn zero() -> Self {
        Self {
            kernel_launch_overhead_ns: 0.0,
            warp_round_cost_ns: 0.0,
            memory_cost_ns: 0.0,
            num_sms: 14,
            warp_size: 32,
            divergence_weight: 0.0,
            atomic_cost_ns: 0.0,
            hot_word_serialization_ns: 0.0,
        }
    }

    /// Number of resident threads processed per "round" of the device.
    pub fn threads_per_round(&self) -> usize {
        (self.num_sms * self.warp_size).max(1)
    }

    /// Largest grid a persistent (megakernel) launch keeps resident on the
    /// device: Fermi sustains up to 48 warps per SM, and a persistent grid
    /// must not exceed what can be co-resident, because blocks beyond that
    /// would never be scheduled and a software global barrier would
    /// deadlock on a real GPU.  `VirtualGpu::resident` clamps its
    /// participant count here.
    pub fn resident_capacity(&self) -> usize {
        (self.num_sms * self.warp_size * 48).max(1)
    }

    /// Modelled cost (ns) of one software global-barrier crossing by
    /// `threads` resident threads — the centralized arrival-counter barrier
    /// a persistent CUDA kernel synchronizes its rounds with.  The virtual
    /// GPU only prices this barrier; it executes every round as a launch.
    ///
    /// Per crossing, each warp's leader lane performs one RMW on the shared
    /// arrival word — all on the *same* word, so every one of them pays both
    /// the atomic throughput and the L2 same-address serialization rate —
    /// and the release broadcast costs one warp round of issue latency while
    /// the spinning warps re-read the generation word.  This is the quantity
    /// a persistent round pays *instead of*
    /// [`PerfModel::kernel_launch_overhead_ns`]: a barrier crossing is an
    /// on-device L2 round-trip affair (hundreds of ns), not a host driver
    /// round-trip (microseconds), which is the entire payoff of
    /// persistent execution on launch-bound solves.
    pub fn global_barrier_cost_ns(&self, threads: usize) -> f64 {
        let warps = threads.div_ceil(self.warp_size.max(1)).max(1);
        warps as f64 * (self.atomic_cost_ns + self.hot_word_serialization_ns)
            + self.warp_round_cost_ns
    }

    /// Modelled cost (ns) of one kernel launch with no reported atomic
    /// traffic.
    ///
    /// * `threads`: grid size;
    /// * `work_items`: total work units reported by the kernel's threads;
    /// * `max_thread_work`: longest per-thread critical path observed, own
    ///   work plus the largest warp share of gathered lists (0 if unknown).
    pub fn launch_cost_ns(&self, threads: usize, work_items: u64, max_thread_work: u64) -> f64 {
        self.launch_cost_with_atomics_ns(threads, work_items, max_thread_work, 0, 0)
    }

    /// Modelled cost (ns) of one kernel launch including its atomic traffic.
    ///
    /// On top of [`PerfModel::launch_cost_ns`]'s terms:
    ///
    /// * `atomics`: total RMW operations reported by the launch's threads
    ///   (each charged [`PerfModel::atomic_cost_ns`] of device throughput);
    /// * `hot_word_atomics`: RMWs landing on the single most contended word
    ///   (each additionally charged
    ///   [`PerfModel::hot_word_serialization_ns`], modelling the L2's
    ///   same-address serialization).
    pub fn launch_cost_with_atomics_ns(
        &self,
        threads: usize,
        work_items: u64,
        max_thread_work: u64,
        atomics: u64,
        hot_word_atomics: u64,
    ) -> f64 {
        let atomic_cost = atomics as f64 * self.atomic_cost_ns
            + hot_word_atomics as f64 * self.hot_word_serialization_ns;
        if threads == 0 {
            return self.kernel_launch_overhead_ns + atomic_cost;
        }
        let rounds = threads.div_ceil(self.threads_per_round());
        let avg_work = work_items as f64 / threads as f64;
        let divergence = if avg_work > 0.0 && max_thread_work > 0 {
            1.0 + self.divergence_weight * ((max_thread_work as f64 / avg_work) - 1.0).max(0.0)
        } else {
            1.0
        };
        self.kernel_launch_overhead_ns
            + rounds as f64 * self.warp_round_cost_ns
            + work_items as f64 * self.memory_cost_ns * divergence
            + atomic_cost
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::tesla_c2050()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_nothing() {
        let m = PerfModel::zero();
        assert_eq!(m.launch_cost_ns(1000, 5000, 50), 0.0);
    }

    #[test]
    fn empty_launch_still_pays_overhead() {
        let m = PerfModel::tesla_c2050();
        assert_eq!(m.launch_cost_ns(0, 0, 0), m.kernel_launch_overhead_ns);
    }

    #[test]
    fn cost_grows_with_threads_and_work() {
        let m = PerfModel::tesla_c2050();
        let small = m.launch_cost_ns(448, 448, 1);
        let more_threads = m.launch_cost_ns(44_800, 44_800, 1);
        let more_work = m.launch_cost_ns(448, 44_800, 100);
        assert!(more_threads > small);
        assert!(more_work > small);
    }

    #[test]
    fn divergence_penalty_increases_cost() {
        let m = PerfModel::tesla_c2050();
        let balanced = m.launch_cost_ns(1000, 10_000, 10);
        let skewed = m.launch_cost_ns(1000, 10_000, 5_000);
        assert!(skewed > balanced);
    }

    #[test]
    fn atomics_add_throughput_and_hot_word_serialization() {
        let m = PerfModel::tesla_c2050();
        let base = m.launch_cost_ns(1000, 10_000, 10);
        let spread = m.launch_cost_with_atomics_ns(1000, 10_000, 10, 1000, 0);
        let funneled = m.launch_cost_with_atomics_ns(1000, 10_000, 10, 1000, 1000);
        assert_eq!(spread, base + 1000.0 * m.atomic_cost_ns);
        assert_eq!(funneled, spread + 1000.0 * m.hot_word_serialization_ns);
        // Blocked append: same payload, one claim per 8-slot block, and the
        // hot word only sees the block claims — an 8x cut of both terms.
        let blocked = m.launch_cost_with_atomics_ns(1000, 10_000, 10, 125, 125);
        assert!(blocked < funneled);
    }

    #[test]
    fn zero_model_charges_no_atomics() {
        let m = PerfModel::zero();
        assert_eq!(m.launch_cost_with_atomics_ns(1000, 5000, 50, 777, 777), 0.0);
    }

    #[test]
    fn empty_launch_still_charges_atomics() {
        // A zero-grid launch can still carry modelled atomic traffic (the
        // executor's chunk cursor never does, but the formula must not lose
        // the term).
        let m = PerfModel::tesla_c2050();
        assert_eq!(
            m.launch_cost_with_atomics_ns(0, 0, 0, 10, 10),
            m.kernel_launch_overhead_ns + 10.0 * (m.atomic_cost_ns + m.hot_word_serialization_ns)
        );
    }

    #[test]
    fn threads_per_round_matches_c2050() {
        let m = PerfModel::tesla_c2050();
        assert_eq!(m.threads_per_round(), 14 * 32);
    }

    #[test]
    fn resident_capacity_matches_fermi_occupancy() {
        let m = PerfModel::tesla_c2050();
        assert_eq!(m.resident_capacity(), 14 * 32 * 48);
    }

    #[test]
    fn barrier_crossing_is_far_cheaper_than_a_launch() {
        let m = PerfModel::tesla_c2050();
        // Even a full-occupancy resident grid crosses the software barrier
        // for less than the driver latency of one kernel launch — the
        // premise of persistent mode.
        let full = m.global_barrier_cost_ns(m.resident_capacity());
        assert!(full < m.kernel_launch_overhead_ns, "{full}");
        // The cost scales with the number of arriving warps.
        let small = m.global_barrier_cost_ns(448);
        assert!(small < full);
        assert_eq!(
            small,
            14.0 * (m.atomic_cost_ns + m.hot_word_serialization_ns) + m.warp_round_cost_ns
        );
        // Degenerate grids still pay for one warp's crossing.
        assert_eq!(m.global_barrier_cost_ns(0), m.global_barrier_cost_ns(1));
    }

    #[test]
    fn zero_model_charges_no_barrier() {
        assert_eq!(PerfModel::zero().global_barrier_cost_ns(21_504), 0.0);
    }

    #[test]
    fn default_is_c2050() {
        assert_eq!(PerfModel::default(), PerfModel::tesla_c2050());
    }
}
