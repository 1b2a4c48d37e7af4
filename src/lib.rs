//! # gpu-pr-matching — umbrella crate
//!
//! Re-exports the public API of the workspace crates.  See the README for a
//! tour; the individual crates are:
//!
//! * [`graph`] (`gpm-graph`) — bipartite graph substrate, generators, I/O,
//!   verification oracles, initialization heuristics.
//! * [`gpu`] (`gpm-gpu`) — the virtual SIMT GPU the kernels run on.
//! * [`cpu`] (`gpm-cpu`) — sequential and multicore baselines (PR, PF+, HK,
//!   HKDW, P-DBFS).
//! * [`core`] (`gpm-core`) — the paper's G-PR algorithm family and the
//!   G-HK/G-HKDW GPU baselines, plus the unified [`core::solver`] front-end.
//! * [`service`] (`gpm-service`) — the concurrent matching service: a warm
//!   solver pool behind [`service::Service`], a content-addressed graph
//!   cache, and a JSON-lines TCP front-end (`gpm-service` binary).
//!
//! ## Quick start
//!
//! ```
//! use gpu_pr_matching::core::solver::{Algorithm, SolveRequest, Solver, Start};
//! use gpu_pr_matching::graph::{gen, verify};
//!
//! // A solver session: owns the virtual GPU and a warm workspace per
//! // algorithm, so repeated solves skip the per-call setup.
//! let mut solver = Solver::builder().build().unwrap();
//!
//! // A 300-row graph with a planted perfect matching plus 1 200 noise edges.
//! let graph = gen::planted_perfect(300, 1_200, 7).unwrap();
//!
//! // The paper's headline algorithm: G-PR-Shr with the (adaptive, 0.7)
//! // global-relabeling strategy, run on the virtual GPU from the cheap
//! // greedy matching.
//! let report = solver.run(&graph, SolveRequest::new(Algorithm::gpr_default())).unwrap();
//!
//! assert_eq!(report.cardinality, 300);
//! assert!(verify::is_maximum(&graph, &report.matching));
//!
//! // Algorithms have round-trippable labels, and a request can start from
//! // a matching of its own (or a heuristic, or warm from a parent graph's
//! // matching); every solve returns a Result:
//! let alg: Algorithm = "HK".parse().unwrap();
//! let request = SolveRequest { start: Start::Matching(&report.matching), ..SolveRequest::new(alg) };
//! assert_eq!(solver.run(&graph, request).unwrap().cardinality, 300);
//! ```
//!
//! Every solve goes through [`core::Solver::run`]; the engines themselves
//! are reachable one level down as `core::gpr::run`, `core::ghk::run` and
//! `core::ggr::global_relabel`.

pub use gpm_core as core;
pub use gpm_cpu as cpu;
pub use gpm_gpu as gpu;
pub use gpm_graph as graph;
pub use gpm_service as service;
