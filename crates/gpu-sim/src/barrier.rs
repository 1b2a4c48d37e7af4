//! A software **global barrier** for persistent (device-resident) kernels.
//!
//! CUDA has no device-wide barrier inside a launch: `__syncthreads()` stops
//! at the thread block.  Persistent-threads codes — including the GPU
//! matching and BFS implementations this reproduction follows — therefore
//! synchronize their resident blocks with a *software* barrier built from
//! global-memory atomics: every block atomically bumps an arrival counter,
//! then spins on a generation word until the last arriver (or a designated
//! leader) flips it.  Crossing such a barrier costs a few atomic round-trips
//! instead of a full kernel launch, which is the entire point of the
//! persistent execution mode ([`crate::VirtualGpu::resident`]).
//!
//! ## The sense-reversing protocol
//!
//! [`GlobalBarrier`] is the classic centralized sense-reversing barrier, with
//! the sense bit generalized to a monotonically increasing **generation
//! counter** (`sense`); the counter's parity *is* the classic sense bit, and
//! keeping the whole counter lets waiters that oversleep an epoch still make
//! progress (`sense > my_epoch` instead of `sense != my_sense`).
//!
//! * `participants` threads each [`arrive`](GlobalBarrier::arrive) by
//!   fetch-adding the **arrival counter** — the crate's one
//!   read-modify-write, [`crate::DeviceBuffer::fetch_add`] — and then
//!   [`wait_past`](GlobalBarrier::wait_past) the generation they observed on
//!   entry.
//! * When the arrival counter reaches `participants`, the **leader** (either
//!   the last arriver in [`arrive_and_wait`](GlobalBarrier::arrive_and_wait)
//!   or an external driver, as in the resident executor) runs its
//!   between-rounds work, [`depart_all`](GlobalBarrier::depart_all)s to reset
//!   the arrival counter, and [`release`](GlobalBarrier::release)s by
//!   bumping the generation counter, which frees every spinning waiter.
//! * Because waiters of epoch *e* spin on `sense > e` and never touch the
//!   arrival counter until released, the counter can be reset and reused for
//!   epoch *e + 1* without the double-buffering a non-sense-reversing
//!   counter barrier would need.
//!
//! ## Memory-model assumptions under the pooled executor
//!
//! On a real GPU the barrier's ordering comes from `__threadfence()` around
//! the atomics.  Host-side, [`crate::DeviceBuffer`] words are relaxed
//! atomics by design (they model unordered device memory), so the barrier
//! supplies the ordering itself with explicit fences:
//!
//! * [`arrive`](GlobalBarrier::arrive) issues a `Release` fence *before* the
//!   arrival fetch-add, so every write a worker made during its round is
//!   ordered before its arrival;
//! * the leader's [`await_full`](GlobalBarrier::await_full) issues an
//!   `Acquire` fence *after* observing the full arrival count, making all of
//!   those round writes visible to the leader's between-rounds work
//!   (fence-to-fence synchronization through the RMW chain on the arrival
//!   word);
//! * [`release`](GlobalBarrier::release) issues a `Release` fence before
//!   bumping the generation word, and
//!   [`wait_past`](GlobalBarrier::wait_past) issues an `Acquire` fence after
//!   observing the bump, so the leader's work (including
//!   [`depart_all`](GlobalBarrier::depart_all)'s counter reset and any
//!   worklist round transition) is visible to every worker before its next
//!   round begins.
//!
//! The net guarantee is exactly a device-wide happens-before edge per
//! crossing: *everything before the barrier, on every participant, is
//! visible to everything after it, on every participant.*
//!
//! ## Failure containment
//!
//! A panicking participant would deadlock a naive spin barrier.  Two layers
//! prevent that: the resident executor makes panicking workers arrive anyway
//! (the poisoned round still completes, and the payload is re-raised on the
//! launcher after the crossing), and the barrier itself can be
//! [`poison`](GlobalBarrier::poison)ed, which unblocks every current and
//! future waiter with a failure return instead of a successful crossing.
//!
//! Misuse — more arrivals than participants, releasing while threads are
//! still arriving, departing a barrier that is not full — is caught by debug
//! assertions rather than runtime checks, keeping the crossing cheap in
//! release builds.

use crate::buffer::DeviceBuffer;
use std::sync::atomic::{fence, AtomicBool, Ordering};

/// What [`GlobalBarrier::arrive_and_wait`] made of the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierRole {
    /// This thread was the last arriver: it reset the barrier and released
    /// the others.  Exactly one participant per crossing is the leader.
    Leader,
    /// This thread waited for the leader's release.
    Follower,
    /// The barrier was poisoned while waiting; the crossing never completed.
    Poisoned,
}

/// A sense-reversing software global barrier for a fixed set of
/// `participants` threads; see the [module docs](self) for the protocol and
/// its memory-model guarantees.
///
/// Both counters live in [`DeviceBuffer`] words so the arrival traffic is
/// the same modelled RMW the worklist queues use; the cost model prices one
/// crossing through [`crate::PerfModel::global_barrier_cost_ns`].
pub struct GlobalBarrier {
    participants: usize,
    /// Arrivals in the current epoch; reset by the leader each crossing.
    arrived: DeviceBuffer<u64>,
    /// Generation counter: number of completed releases.  Its parity is the
    /// classic sense bit.
    sense: DeviceBuffer<u64>,
    poisoned: AtomicBool,
}

impl GlobalBarrier {
    /// Creates a barrier for exactly `participants` threads.
    ///
    /// # Panics
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "a global barrier needs at least one participant");
        Self {
            participants,
            arrived: DeviceBuffer::new(1, 0),
            sense: DeviceBuffer::new(1, 0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of threads that must arrive to complete one crossing.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Completed crossings (releases) so far — the current generation.
    pub fn epoch(&self) -> u64 {
        self.sense.get(0)
    }

    /// Arrivals recorded in the current epoch (diagnostic; racy by nature).
    pub fn arrived(&self) -> u64 {
        self.arrived.get(0)
    }

    /// Registers this thread's arrival at the barrier and returns its
    /// 0-based arrival ticket.  A `Release` fence orders all of the
    /// thread's prior writes before the arrival.
    ///
    /// The ticket `participants - 1` identifies the last arriver, which
    /// self-elects as leader in [`GlobalBarrier::arrive_and_wait`].
    pub fn arrive(&self) -> u64 {
        fence(Ordering::Release);
        let ticket = self.arrived.fetch_add(0, 1);
        debug_assert!(
            ticket < self.participants as u64,
            "global barrier misuse: arrival #{ticket} exceeds {} participants \
             (arrived twice in one epoch, or released before full?)",
            self.participants
        );
        ticket
    }

    /// Spins until the generation counter passes `epoch` (i.e. the epoch the
    /// caller arrived in has been released).  Returns `true` on a successful
    /// crossing — with an `Acquire` fence, so everything the leader did
    /// before [`GlobalBarrier::release`] is visible — or `false` if the
    /// barrier was poisoned first.
    pub fn wait_past(&self, epoch: u64) -> bool {
        let mut spins = 0u32;
        loop {
            if self.sense.get(0) > epoch {
                fence(Ordering::Acquire);
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            backoff(&mut spins);
        }
    }

    /// Leader-side: spins until every participant has arrived.  Returns
    /// `true` once full — with an `Acquire` fence, so every worker's round
    /// writes are visible to the leader — or `false` if the barrier was
    /// poisoned before filling.
    pub fn await_full(&self) -> bool {
        let mut spins = 0u32;
        loop {
            let arrived = self.arrived.get(0);
            debug_assert!(
                arrived <= self.participants as u64,
                "global barrier misuse: {arrived} arrivals for {} participants",
                self.participants
            );
            if arrived == self.participants as u64 {
                fence(Ordering::Acquire);
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            backoff(&mut spins);
        }
    }

    /// Leader-side: resets the arrival counter of a **full** barrier so the
    /// next epoch can reuse it.  Must be followed by
    /// [`GlobalBarrier::release`]; waiters stay blocked in between, which is
    /// the window where the leader runs its between-rounds work.
    pub fn depart_all(&self) {
        debug_assert_eq!(
            self.arrived.get(0),
            self.participants as u64,
            "global barrier misuse: departing a barrier that is not full"
        );
        self.arrived.set(0, 0);
    }

    /// Leader-side: bumps the generation counter, releasing every waiter of
    /// the previous epoch.  A `Release` fence orders the leader's work
    /// (including the [`GlobalBarrier::depart_all`] reset) before the bump.
    pub fn release(&self) {
        debug_assert_eq!(
            self.arrived.get(0),
            0,
            "global barrier misuse: releasing before depart_all reset the arrivals"
        );
        fence(Ordering::Release);
        self.sense.fetch_add(0, 1);
    }

    /// The symmetric all-worker crossing: arrive, and either lead (last
    /// arriver: reset + release) or wait for the release.  One full
    /// [`BarrierRole::Leader`] is reported per crossing; everyone else is a
    /// [`BarrierRole::Follower`].
    ///
    /// The resident executor does **not** use this — its leader is the
    /// launcher thread driving [`GlobalBarrier::await_full`] /
    /// [`GlobalBarrier::depart_all`] / [`GlobalBarrier::release`] directly —
    /// but standalone persistent kernels can.
    pub fn arrive_and_wait(&self) -> BarrierRole {
        if self.is_poisoned() {
            return BarrierRole::Poisoned;
        }
        let epoch = self.epoch();
        let ticket = self.arrive();
        if ticket + 1 == self.participants as u64 {
            self.depart_all();
            self.release();
            BarrierRole::Leader
        } else if self.wait_past(epoch) {
            BarrierRole::Follower
        } else {
            BarrierRole::Poisoned
        }
    }

    /// Marks the barrier as failed: every current and future waiter returns
    /// unsuccessfully instead of spinning forever.  Used when a participant
    /// panics out of the protocol.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// `true` once the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for GlobalBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalBarrier")
            .field("participants", &self.participants)
            .field("epoch", &self.epoch())
            .field("arrived", &self.arrived())
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

/// Spin-wait backoff: busy-spin briefly (a barrier crossing is normally
/// shorter than a context switch), then start yielding the time slice so
/// oversubscribed hosts — more pool workers than cores — still converge.
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_always_leads() {
        let b = GlobalBarrier::new(1);
        for expected_epoch in 1..=5 {
            assert_eq!(b.arrive_and_wait(), BarrierRole::Leader);
            assert_eq!(b.epoch(), expected_epoch);
            assert_eq!(b.arrived(), 0);
        }
    }

    #[test]
    fn reuse_across_epochs_with_symmetric_crossings() {
        const THREADS: usize = 4;
        const EPOCHS: u64 = 100;
        let b = Arc::new(GlobalBarrier::new(THREADS));
        // One tally per epoch parity: threads released from crossing `e`
        // may already add for `e + 1` while its leader checks, but none can
        // add for `e + 2` before that leader arrives at the next crossing.
        let tally = Arc::new(DeviceBuffer::<u64>::new(2, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let b = Arc::clone(&b);
                let tally = Arc::clone(&tally);
                std::thread::spawn(move || {
                    let mut led = 0u64;
                    for e in 0..EPOCHS {
                        let parity = (e % 2) as usize;
                        tally.fetch_add(parity, 1);
                        match b.arrive_and_wait() {
                            BarrierRole::Leader => {
                                led += 1;
                                // The leader crosses with an acquire fence,
                                // so it must observe every arrival's add.
                                assert_eq!(tally.get(parity), (e / 2 + 1) * THREADS as u64);
                            }
                            BarrierRole::Follower => {}
                            BarrierRole::Poisoned => panic!("unexpected poison"),
                        }
                    }
                    led
                })
            })
            .collect();
        let total_leads: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Exactly one leader per crossing, and every crossing completed.
        assert_eq!(total_leads, EPOCHS);
        assert_eq!(b.epoch(), EPOCHS);
        assert_eq!(tally.get(0) + tally.get(1), EPOCHS * THREADS as u64);
    }

    #[test]
    fn external_leader_drives_workers_through_rounds() {
        // The resident executor's shape: the launcher is the leader; workers
        // only arrive and wait.
        const WORKERS: usize = 3;
        const ROUNDS: u64 = 50;
        let b = Arc::new(GlobalBarrier::new(WORKERS));
        let sum = Arc::new(DeviceBuffer::<u64>::new(1, 0));
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let b = Arc::clone(&b);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    for epoch in 0..ROUNDS {
                        assert!(b.wait_past(epoch), "poisoned mid-protocol");
                        sum.fetch_add(0, epoch + 1);
                        b.arrive();
                    }
                })
            })
            .collect();
        let mut expected = 0u64;
        for round in 0..ROUNDS {
            b.release(); // open round `round`
            assert!(b.await_full());
            expected += (round + 1) * WORKERS as u64;
            // Leader observes all the round's writes after the crossing.
            assert_eq!(sum.get(0), expected);
            b.depart_all();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.epoch(), ROUNDS);
    }

    #[test]
    fn poison_unblocks_current_and_future_waiters() {
        let b = Arc::new(GlobalBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let epoch = b.epoch();
                b.arrive();
                b.wait_past(epoch)
            })
        };
        // Give the waiter time to actually block, then poison instead of
        // supplying the second arrival.
        while b.arrived() == 0 {
            std::thread::yield_now();
        }
        b.poison();
        assert!(!waiter.join().unwrap(), "poisoned wait must fail, not hang");
        assert!(b.is_poisoned());
        // Future waits fail immediately too.
        assert!(!b.wait_past(b.epoch()));
        assert!(!b.await_full());
        assert_eq!(b.arrive_and_wait(), BarrierRole::Poisoned);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "global barrier misuse")]
    fn over_arrival_is_caught_in_debug_builds() {
        let b = GlobalBarrier::new(1);
        b.arrive(); // fills the barrier (leader duties not performed)
        b.arrive(); // second arrival in the same epoch: misuse
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not full")]
    fn departing_a_non_full_barrier_is_caught_in_debug_builds() {
        let b = GlobalBarrier::new(2);
        b.arrive();
        b.depart_all();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before depart_all")]
    fn releasing_with_pending_arrivals_is_caught_in_debug_builds() {
        let b = GlobalBarrier::new(2);
        b.arrive();
        b.release();
    }

    #[test]
    fn debug_format_shows_protocol_state() {
        let b = GlobalBarrier::new(3);
        let s = format!("{b:?}");
        assert!(s.contains("participants: 3"), "{s}");
        assert!(s.contains("epoch: 0"), "{s}");
    }
}
