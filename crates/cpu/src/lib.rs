//! # gpm-cpu — sequential and multicore matching baselines
//!
//! Every comparator the paper measures against, re-implemented from its
//! published description:
//!
//! * [`pr`] — the sequential push-relabel algorithm (Algorithm 1 of the
//!   paper, "PR"), FIFO processing of active columns, with periodic global
//!   relabeling (Algorithm 2, "GR") every `k·(m+n)` pushes.  This is the
//!   baseline every speedup in the paper is measured against.
//! * [`pfp`] — Pothen–Fan with lookahead (PF+), the classic DFS-based
//!   augmenting-path algorithm, used by the paper for instance filtering.
//! * [`hk`] — Hopcroft–Karp, the `O(τ√(n+m))` BFS/DFS phase algorithm.
//! * [`mod@hkdw`] — HKDW, the Duff–Wiberg variant of HK with an extra DFS sweep
//!   per phase; the CPU counterpart of the GPU baseline G-HKDW.
//! * [`mod@pdbfs`] — P-DBFS, the multicore algorithm (vertex-disjoint parallel
//!   BFS) the paper compares against with 8 threads.
//!
//! All solvers take the graph and an initial matching (the paper always uses
//! the cheap greedy matching from `gpm_graph::heuristics`) and return a
//! [`CpuRunResult`] containing the final matching and operation counts.
//!
//! ## One augmenting-path search
//!
//! HK, HKDW, PF+ and P-DBFS's cleanup pass run one depth-first
//! augmenting-path search (crate-private, `search.rs`).  It keeps its path
//! on a reused heap stack of `(vertex, neighbour cursor)` frames, so no
//! path, however long, recurses; it visits in the order of the textbook
//! recursion and rewrites a found path deepest pair first.  Each engine
//! passes it the side its roots are on and the rules that make it that
//! engine's search:
//!
//! * HK (and HKDW's HK step) start from free columns and step only to the
//!   next BFS level; a column whose neighbours all fail is pruned for the
//!   rest of the phase (its level becomes infinite).
//! * HKDW's Duff–Wiberg sweep starts from free rows and enters each column
//!   at most once per phase.
//! * PF+ starts from free columns, enters each row at most once per pass,
//!   and runs its lookahead (a free row among the column's neighbours,
//!   resuming where the column's last lookahead stopped) as it enters each
//!   column, the root included.
//! * P-DBFS's cleanup is PF+'s pass loop, run from the matching its
//!   parallel rounds left.
//!
//! The visited marks are one type, [`EpochMarks`]: starting a new set costs
//! O(1), and the stamps are cleared only when the `u32` epoch wraps.
//! `gpm-core`'s G-HK path kernels use it too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hk;
pub mod hkdw;
pub mod pdbfs;
pub mod pfp;
pub mod pr;
mod search;

pub use search::EpochMarks;

use gpm_graph::Matching;

/// Operation counters reported by the CPU solvers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpuStats {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Number of augmenting paths applied (or matched-size increase for PR).
    pub augmentations: u64,
    /// Number of push operations (PR) or tree-growth steps, algorithm specific.
    pub pushes: u64,
    /// Number of global relabels (PR) or BFS phases (HK/HKDW/P-DBFS) run.
    pub phases: u64,
    /// Total edges scanned (a proxy for memory traffic).
    pub edges_scanned: u64,
    /// Wall-clock time of the solve, in seconds (excludes initialization).
    pub seconds: f64,
}

/// Result of running a CPU matching algorithm.
#[derive(Clone, Debug)]
pub struct CpuRunResult {
    /// The final matching (always consistent; callers may verify maximality).
    pub matching: Matching,
    /// Operation counters.
    pub stats: CpuStats,
}

pub use hk::hopcroft_karp;
pub use hkdw::hkdw;
pub use pdbfs::{pdbfs, PdbfsConfig};
pub use pfp::pothen_fan;
pub use pr::{sequential_pr, sequential_pr_with, PrConfig, PrWorkspace};
