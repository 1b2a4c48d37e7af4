//! # gpm-core — GPU push-relabel bipartite matching (the paper's contribution)
//!
//! This crate implements the algorithms of Deveci, Kaya, Uçar, Çatalyürek,
//! *"A Push-Relabel-Based Maximum Cardinality Bipartite Matching Algorithm on
//! GPUs"* (ICPP 2013) on the virtual GPU provided by `gpm-gpu`:
//!
//! * [`gpr`] — **G-PR**, the paper's lock- and atomic-free push-relabel
//!   kernels, in all three variants (Figure 1): `G-PR-First`, `G-PR-NoShr`
//!   (active-column lists) and `G-PR-Shr` (dynamic list compression).
//! * [`ggr`] — **G-GR**, the GPU global relabeling (level-synchronous BFS
//!   kernels, Algorithms 4–5).
//! * [`strategy`] — the global-relabeling schedules (`GETITERGR`): fixed
//!   intervals and the adaptive `k × maxLevel` rule the paper introduces.
//! * [`ghk`] — **G-HK / G-HKDW**, the GPU augmenting-path baselines the paper
//!   compares against.
//! * [`solver`] — the session-style front-end: [`solver::Solver`] built via
//!   `Solver::builder()`, with one way into a solve, [`Solver::run`] of a
//!   [`SolveRequest`].  The session keeps one warm engine per algorithm, so
//!   repeated solves skip the setup cost.
//! * [`resolve`] — warm starts: re-solving a patched graph from its
//!   parent's matching ([`Start::Warm`]).
//!
//! ## Quick start
//!
//! ```
//! use gpm_core::{Algorithm, InitHeuristic, SolveRequest, Solver, Start};
//! use gpm_graph::gen;
//!
//! // One session, many solves: the solver owns the virtual device and a
//! // warm workspace per algorithm, so repeated solves skip the setup cost.
//! // `build()` validates the configuration, hence the `Result`.
//! let mut solver = Solver::builder().build().unwrap();
//!
//! let graph = gen::planted_perfect(500, 2_000, 7).unwrap();
//! let report = solver.run(&graph, SolveRequest::new(Algorithm::gpr_default())).unwrap();
//! assert_eq!(report.cardinality, 500);
//! println!("{} matched {} pairs using {:.3} ms of modelled device time",
//!     report.algorithm, report.cardinality,
//!     report.modelled_device_seconds.unwrap() * 1e3);
//!
//! // Every solve returns a Result instead of panicking; a request names
//! // its start (here an empty matching) and may carry a deadline or a
//! // cancellation token in `ctx`:
//! let other = gen::planted_perfect(200, 800, 8).unwrap();
//! let request = SolveRequest {
//!     start: Start::Heuristic(InitHeuristic::Empty),
//!     ..SolveRequest::new("P-DBFS@4".parse().unwrap())
//! };
//! assert_eq!(solver.run(&other, request).unwrap().initial_cardinality, 0);
//! ```
//!
//! Each engine also has one entry point of its own for callers that drive
//! a [`gpm_gpu::VirtualGpu`] directly: [`gpr::run`], [`ghk::run`] and
//! [`ggr::global_relabel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod device;
mod engine;
pub mod error;
pub mod ggr;
pub mod ghk;
pub mod gpr;
pub mod resolve;
pub mod roundloop;
pub mod solver;
pub mod strategy;

pub use cancel::{CancelToken, SolveCtx, StopReason};
pub use error::{ParseAlgorithmError, ParseInitHeuristicError, SolveError};
pub use ghk::{GhkConfig, GhkVariant, GhkWorkspace};
pub use gpm_gpu::{ExecMode, ExecutorConfig, WorklistMode};
pub use gpr::{GprConfig, GprResult, GprVariant, GprWorkspace};
pub use resolve::WARM_START_CHURN_LIMIT;
pub use roundloop::{drive_rounds, resident_scope, RoundOutcome};
pub use solver::{
    Algorithm, DevicePolicy, InitHeuristic, SolveReport, SolveRequest, Solver, Start,
};
pub use strategy::GrStrategy;
