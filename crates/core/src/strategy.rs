//! Global-relabeling scheduling strategies (`GETITERGR` in Algorithm 3/7).
//!
//! Sequential push-relabel implementations trigger a global relabel every
//! `k·(m+n)` *pushes*, but counting pushes inside GPU kernels is expensive,
//! so the paper proposes two kernel-level strategies:
//!
//! * **Fixed(k)** — relabel after every `k` push-relabel kernel executions;
//! * **Adaptive(k)** — relabel after `k × maxLevel` kernel executions, where
//!   `maxLevel` is the deepest BFS level reached by the previous global
//!   relabeling.  The rationale (Theorem 2 of the paper) is that `maxLevel`
//!   tracks the length of the remaining augmenting paths, i.e. how many more
//!   kernel iterations are likely needed before labels go stale.
//!
//! Figure 1 of the paper sweeps `k ∈ {0.3, 0.7, 1, 1.5, 2}` for the adaptive
//! strategy and `k ∈ {10, 50}` for the fixed one; (adaptive, 0.7) wins.

use crate::error::ParseAlgorithmError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// When to run the next global relabeling.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum GrStrategy {
    /// Relabel after every `k` push-relabel kernel executions.
    Fixed(u32),
    /// Relabel after `k × maxLevel` push-relabel kernel executions, where
    /// `maxLevel` comes from the previous global relabeling.
    Adaptive(f64),
}

// Equality and hashing go through the bit pattern of the adaptive factor so
// the strategy (and the `Algorithm` carrying it) can key maps.  The solver
// rejects NaN factors before a strategy ever runs, so bit equality and
// semantic equality coincide in practice.
impl PartialEq for GrStrategy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (GrStrategy::Fixed(a), GrStrategy::Fixed(b)) => a == b,
            (GrStrategy::Adaptive(a), GrStrategy::Adaptive(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for GrStrategy {}

impl Hash for GrStrategy {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            GrStrategy::Fixed(k) => {
                0u8.hash(state);
                k.hash(state);
            }
            GrStrategy::Adaptive(k) => {
                1u8.hash(state);
                k.to_bits().hash(state);
            }
        }
    }
}

/// Compact round-trippable form used inside [`crate::solver::Algorithm`]
/// labels: `adaptive:0.7` or `fix:10`.
impl fmt::Display for GrStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GrStrategy::Fixed(k) => write!(f, "fix:{k}"),
            GrStrategy::Adaptive(k) => write!(f, "adaptive:{k}"),
        }
    }
}

impl FromStr for GrStrategy {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |expected| ParseAlgorithmError { input: s.to_string(), expected };
        let (kind, value) = s.split_once(':').ok_or_else(|| err("'adaptive:<k>' or 'fix:<k>'"))?;
        match kind {
            "adaptive" => value
                .parse::<f64>()
                .map(GrStrategy::Adaptive)
                .map_err(|_| err("a floating-point adaptive factor")),
            "fix" => value
                .parse::<u32>()
                .map(GrStrategy::Fixed)
                .map_err(|_| err("an integer fixed interval")),
            _ => Err(err("'adaptive:<k>' or 'fix:<k>'")),
        }
    }
}

impl GrStrategy {
    /// The configuration the paper selects for all cross-algorithm
    /// comparisons: (adaptive, 0.7).
    pub fn paper_default() -> Self {
        GrStrategy::Adaptive(0.7)
    }

    /// The `GETITERGR` function: given the `maxLevel` of the relabeling that
    /// just ran and the current loop iteration, returns the iteration at
    /// which the next global relabeling should run.
    pub fn next_relabel_iteration(&self, max_level: u32, loop_iter: u64) -> u64 {
        let delta = match *self {
            GrStrategy::Fixed(k) => u64::from(k.max(1)),
            GrStrategy::Adaptive(k) => {
                let d = (k * f64::from(max_level.max(1))).ceil();
                (d as u64).max(1)
            }
        };
        loop_iter + delta
    }

    /// Short label used in reports and figures, e.g. `"adaptive, 0.7"`.
    pub fn label(&self) -> String {
        match *self {
            GrStrategy::Fixed(k) => format!("fix, {k}"),
            GrStrategy::Adaptive(k) => format!("adaptive, {k}"),
        }
    }
}

/// The strategy grid of Figure 1: adaptive k ∈ {0.3, 0.7, 1, 1.5, 2} and
/// fixed k ∈ {10, 50}.
pub fn figure1_strategies() -> Vec<GrStrategy> {
    vec![
        GrStrategy::Adaptive(0.3),
        GrStrategy::Adaptive(0.7),
        GrStrategy::Adaptive(1.0),
        GrStrategy::Adaptive(1.5),
        GrStrategy::Adaptive(2.0),
        GrStrategy::Fixed(10),
        GrStrategy::Fixed(50),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_strategy_ignores_max_level() {
        let s = GrStrategy::Fixed(10);
        assert_eq!(s.next_relabel_iteration(3, 0), 10);
        assert_eq!(s.next_relabel_iteration(1000, 0), 10);
        assert_eq!(s.next_relabel_iteration(5, 42), 52);
    }

    #[test]
    fn adaptive_strategy_scales_with_max_level() {
        let s = GrStrategy::Adaptive(0.5);
        assert_eq!(s.next_relabel_iteration(10, 0), 5);
        assert_eq!(s.next_relabel_iteration(100, 0), 50);
        assert_eq!(s.next_relabel_iteration(100, 7), 57);
    }

    #[test]
    fn next_iteration_always_advances() {
        for s in figure1_strategies() {
            for max_level in [0u32, 1, 3, 17] {
                for loop_iter in [0u64, 1, 99] {
                    assert!(
                        s.next_relabel_iteration(max_level, loop_iter) > loop_iter,
                        "{s:?} did not advance at maxLevel {max_level}, loop {loop_iter}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_fixed_interval_is_clamped() {
        let s = GrStrategy::Fixed(0);
        assert_eq!(s.next_relabel_iteration(5, 3), 4);
    }

    #[test]
    fn labels_match_figure_1_captions() {
        assert_eq!(GrStrategy::Adaptive(0.7).label(), "adaptive, 0.7");
        assert_eq!(GrStrategy::Fixed(50).label(), "fix, 50");
    }

    #[test]
    fn figure1_grid_has_seven_strategies() {
        assert_eq!(figure1_strategies().len(), 7);
    }

    #[test]
    fn paper_default_is_adaptive_07() {
        assert_eq!(GrStrategy::paper_default(), GrStrategy::Adaptive(0.7));
    }

    #[test]
    fn compact_form_round_trips() {
        for s in figure1_strategies() {
            let parsed: GrStrategy = s.to_string().parse().unwrap();
            assert_eq!(parsed, s, "{s} did not round-trip");
        }
        assert_eq!("adaptive:0.7".parse::<GrStrategy>().unwrap(), GrStrategy::Adaptive(0.7));
        assert_eq!("fix:50".parse::<GrStrategy>().unwrap(), GrStrategy::Fixed(50));
        assert!("adaptive".parse::<GrStrategy>().is_err());
        assert!("adaptive:xyz".parse::<GrStrategy>().is_err());
        assert!("fix:1.5".parse::<GrStrategy>().is_err());
        assert!("every:3".parse::<GrStrategy>().is_err());
    }

    #[test]
    fn strategies_are_hashable_keys() {
        let mut set = std::collections::HashSet::new();
        for s in figure1_strategies() {
            assert!(set.insert(s));
        }
        assert!(!set.insert(GrStrategy::Adaptive(0.7)));
        assert_eq!(set.len(), 7);
    }
}
