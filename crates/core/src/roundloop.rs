//! The shared round-loop driver every GPU engine's solve loop runs on.
//!
//! All three GPU engine families (G-PR, G-HK/G-HKDW, and G-GR's BFS) share
//! the same scaffolding: a loop that polls a [`StopCheck`] before each
//! round, runs the round's kernels, and exits either because the algorithm
//! converged or because the check fired.  [`drive_rounds`] owns that
//! scaffolding once, for both execution modes:
//!
//! * **Launch-per-round** ([`ExecMode::LaunchPerRound`]): the loop runs on
//!   the host and every kernel pays the full launch overhead — the classic
//!   bulk-synchronous structure.
//! * **Persistent** ([`ExecMode::Persistent`]): the whole loop runs inside a
//!   [`VirtualGpu::resident`] scope, which prices it as one megakernel: one
//!   entry launch, then each kernel as a device-resident round that pays a
//!   global-barrier crossing instead of launch overhead.  The stop poll
//!   sits where a megakernel would poll it: between two rounds.
//!
//! Both modes execute the *same* round closure on the same executor, so
//! their results are identical by construction; only the modelled launch
//! cost differs.

use gpm_gpu::{ExecMode, StopCheck, VirtualGpu};

/// What one round of a [`drive_rounds`] loop decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Work remains: run another round (after the next stop poll).
    Continue,
    /// The algorithm converged; leave the loop with `stopped = false`.
    Done,
    /// A nested stop fired inside the round (e.g. during a global
    /// relabeling); leave the loop with `stopped = true`.
    Stopped,
}

/// Runs `round` until it reports [`RoundOutcome::Done`], polling `stop`
/// before every invocation.  Returns `true` iff the loop was stopped early —
/// by the poll or by a [`RoundOutcome::Stopped`] from inside a round.
///
/// When `resident` is `Some((name, domain))` the whole loop executes inside
/// a [`VirtualGpu::resident`] scope of that name: one entry launch of
/// `domain` device threads (clamped to the device's resident capacity) is
/// charged, and every kernel the rounds issue on this device is priced as a
/// resident round instead of a fresh launch.  Callers
/// already inside a resident scope (e.g. a global relabeling invoked from a
/// persistent G-PR loop) must pass `None` — their kernels inherit the
/// ambient scope, and nesting scopes is an error.
pub fn drive_rounds(
    gpu: &VirtualGpu,
    resident: Option<(&'static str, usize)>,
    stop: &StopCheck,
    mut round: impl FnMut() -> RoundOutcome,
) -> bool {
    let mut run = move || loop {
        if stop.should_stop() {
            return true;
        }
        match round() {
            RoundOutcome::Continue => {}
            RoundOutcome::Done => return false,
            RoundOutcome::Stopped => return true,
        }
    };
    match resident {
        Some((name, domain)) => gpu.resident(name, domain, run),
        None => run(),
    }
}

/// The `resident` argument [`drive_rounds`] expects for `exec`: the scope
/// spec under [`ExecMode::Persistent`], `None` under
/// [`ExecMode::LaunchPerRound`].
pub fn resident_scope(
    exec: ExecMode,
    name: &'static str,
    domain: usize,
) -> Option<(&'static str, usize)> {
    match exec {
        ExecMode::Persistent => Some((name, domain.max(1))),
        ExecMode::LaunchPerRound => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_rounds_runs_until_done() {
        let gpu = VirtualGpu::sequential();
        let mut rounds = 0;
        let stopped = drive_rounds(&gpu, None, &StopCheck::never(), || {
            rounds += 1;
            if rounds == 5 {
                RoundOutcome::Done
            } else {
                RoundOutcome::Continue
            }
        });
        assert!(!stopped);
        assert_eq!(rounds, 5);
    }

    #[test]
    fn drive_rounds_polls_stop_before_each_round() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gpu = VirtualGpu::sequential();
        let polls = Arc::new(AtomicU64::new(0));
        let p = Arc::clone(&polls);
        let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 3);
        let mut rounds = 0;
        let stopped = drive_rounds(&gpu, None, &stop, || {
            rounds += 1;
            RoundOutcome::Continue
        });
        assert!(stopped);
        // Polls 1..=3 returned false, each preceding one round; poll 4 fired.
        assert_eq!(rounds, 3);
    }

    #[test]
    fn drive_rounds_propagates_inner_stops() {
        let gpu = VirtualGpu::sequential();
        let mut rounds = 0;
        let stopped = drive_rounds(&gpu, None, &StopCheck::never(), || {
            rounds += 1;
            RoundOutcome::Stopped
        });
        assert!(stopped);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn resident_spec_turns_round_launches_into_resident_rounds() {
        let gpu = VirtualGpu::sequential();
        let buf = gpm_gpu::DeviceBuffer::<u64>::new(64, 0);
        let spec = resident_scope(ExecMode::Persistent, "RL-TEST", 64);
        assert_eq!(spec, Some(("RL-TEST", 64)));
        let mut rounds = 0;
        let stopped = drive_rounds(&gpu, spec, &StopCheck::never(), || {
            gpu.launch("RL-STEP", 64, |ctx| {
                ctx.add_work(1);
                buf.fetch_add(ctx.global_id, 1);
            });
            rounds += 1;
            if rounds == 4 {
                RoundOutcome::Done
            } else {
                RoundOutcome::Continue
            }
        });
        assert!(!stopped);
        let stats = gpu.stats();
        assert_eq!(stats.launches_of("RL-STEP"), 0);
        assert_eq!(stats.resident_rounds_of("RL-STEP"), 4);
        assert_eq!(stats.launches_of("RL-TEST"), 1);
        assert!((0..64).all(|i| buf.get(i) == 4));

        assert_eq!(resident_scope(ExecMode::LaunchPerRound, "RL-TEST", 64), None);
        assert_eq!(resident_scope(ExecMode::Persistent, "RL-TEST", 0), Some(("RL-TEST", 1)));
    }
}
