//! The warm engines behind [`crate::solver::Solver`]: one per algorithm a
//! session has run, each owning the working memory it reuses between
//! solves.
//!
//! Each of the paper's seven families — the three G-PR variants, G-HK /
//! G-HKDW, sequential PR, PF+, HK, HKDW, and P-DBFS — runs behind one
//! [`Engine`].  The two GPU families keep their device workspaces; the five
//! CPU baselines share one arm, which holds the baseline's solve as a
//! closure owning its warm state.  Repeated solves on same-shaped graphs
//! therefore skip the setup cost the paper excludes from its reported
//! runtimes.

use crate::cancel::SolveCtx;
use crate::error::SolveError;
use crate::ghk::{self, GhkConfig, GhkWorkspace};
use crate::gpr::{self, GprConfig, GprWorkspace};
use crate::solver::Algorithm;
use gpm_cpu::{
    hkdw, hopcroft_karp, pdbfs, pothen_fan, sequential_pr_with, CpuRunResult, PdbfsConfig,
    PrConfig, PrWorkspace,
};
use gpm_gpu::{DeviceStats, VirtualGpu};
use gpm_graph::{BipartiteCsr, Matching};

/// What an engine returns: the matching plus the measurements the
/// [`crate::solver::SolveReport`] is assembled from.
#[derive(Debug)]
pub(crate) struct EngineOutput {
    /// The computed (consistent, maximum) matching.
    pub(crate) matching: Matching,
    /// Host wall-clock seconds spent inside the engine.
    pub(crate) wall_seconds: f64,
    /// Per-kernel device statistics (GPU engines only).
    pub(crate) device_stats: Option<DeviceStats>,
}

/// One solve of a CPU baseline, owning whatever warm state the baseline
/// keeps between solves (sequential PR's label arrays; the others none).
type CpuSolve = dyn FnMut(&BipartiteCsr, &Matching) -> CpuRunResult + Send;

/// An algorithm with its warm working memory.
pub(crate) enum Engine {
    /// G-PR (all three kernel variants).
    Gpr(GprConfig, GprWorkspace),
    /// G-HK / G-HKDW.
    Ghk(GhkConfig, GhkWorkspace),
    /// A CPU baseline.
    Cpu(Box<CpuSolve>),
}

impl Engine {
    /// A cold engine for `algorithm` with the paper's default tuning,
    /// validating the algorithm's parameters first
    /// ([`SolveError::InvalidConfig`] on NaN/negative global-relabel factors
    /// or zero thread counts).
    pub(crate) fn new(algorithm: Algorithm) -> Result<Self, SolveError> {
        algorithm.validate()?;
        Ok(match algorithm {
            Algorithm::GpuPushRelabel(variant, strategy, worklist, exec) => Engine::Gpr(
                GprConfig { variant, strategy, worklist, exec, ..GprConfig::paper_default() },
                GprWorkspace::new(),
            ),
            Algorithm::GpuHopcroftKarp(variant, worklist, exec) => {
                Engine::Ghk(GhkConfig { variant, worklist, exec }, GhkWorkspace::new())
            }
            Algorithm::SequentialPushRelabel(k) => {
                let config = PrConfig { global_relabel_k: k, ..PrConfig::default() };
                let mut workspace = PrWorkspace::new();
                cpu(move |g, m| sequential_pr_with(g, m, config, &mut workspace))
            }
            Algorithm::PothenFan => cpu(pothen_fan),
            Algorithm::HopcroftKarp => cpu(hopcroft_karp),
            Algorithm::Hkdw => cpu(hkdw),
            Algorithm::Pdbfs(threads) => cpu(move |g, m| pdbfs(g, m, PdbfsConfig { threads })),
        })
    }

    /// Solves one instance from `initial`, reusing any warm state from
    /// earlier solves.  GPU engines run on `device`
    /// ([`SolveError::DeviceRequired`] without one) and stop at a round
    /// boundary when `ctx` fires; CPU engines run to completion.
    pub(crate) fn solve(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        device: Option<&VirtualGpu>,
        ctx: &SolveCtx,
    ) -> Result<EngineOutput, SolveError> {
        let require = |label: &str| {
            device.ok_or_else(|| SolveError::DeviceRequired { algorithm: label.to_string() })
        };
        // `stopped_after`: the rounds a GPU run completed before its stop
        // check fired.
        let (matching, wall_seconds, device_stats, stopped_after) = match self {
            Engine::Gpr(config, workspace) => {
                let gpu = require(config.variant.label())?;
                let r = gpr::run(gpu, graph, initial, *config, workspace, &ctx.stop_check());
                let stopped_after = r.stats.stopped.then_some(r.stats.loops);
                (r.matching, r.stats.seconds, Some(r.stats.device), stopped_after)
            }
            Engine::Ghk(config, workspace) => {
                let gpu = require(config.variant.label())?;
                let r = ghk::run(gpu, graph, initial, *config, workspace, &ctx.stop_check());
                let stopped_after = r.stats.stopped.then_some(r.stats.phases);
                (r.matching, r.stats.seconds, Some(r.stats.device), stopped_after)
            }
            Engine::Cpu(solve) => {
                let r = solve(graph, initial);
                (r.matching, r.stats.seconds, None, None)
            }
        };
        if let Some(rounds) = stopped_after {
            return Err(ctx.stop_error(rounds, matching.cardinality()));
        }
        Ok(EngineOutput { matching, wall_seconds, device_stats })
    }
}

/// The engine of a CPU baseline that `solve` runs.
fn cpu(solve: impl FnMut(&BipartiteCsr, &Matching) -> CpuRunResult + Send + 'static) -> Engine {
    Engine::Cpu(Box::new(solve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghk::GhkVariant;
    use crate::strategy::GrStrategy;
    use gpm_graph::gen;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::maximum_matching_cardinality;

    fn seven_families() -> Vec<Algorithm> {
        vec![
            Algorithm::gpr_default(),
            Algorithm::ghk(GhkVariant::Hkdw),
            Algorithm::SequentialPushRelabel(0.5),
            Algorithm::PothenFan,
            Algorithm::HopcroftKarp,
            Algorithm::Hkdw,
            Algorithm::Pdbfs(2),
        ]
    }

    #[test]
    fn every_engine_solves_through_the_uniform_interface() {
        let g = gen::uniform_random(60, 60, 320, 9).unwrap();
        let initial = cheap_matching(&g);
        let opt = maximum_matching_cardinality(&g);
        let gpu = VirtualGpu::sequential();
        let ctx = SolveCtx::default();
        for alg in seven_families() {
            let mut engine = Engine::new(alg).unwrap();
            let out = engine.solve(&g, &initial, Some(&gpu), &ctx).unwrap();
            assert_eq!(out.matching.cardinality(), opt, "{alg}");
            assert_eq!(out.device_stats.is_some(), alg.is_gpu(), "{alg}");
            // A second call on the same engine (now warm) agrees.
            let again = engine.solve(&g, &initial, Some(&gpu), &ctx).unwrap();
            assert_eq!(again.matching.cardinality(), opt, "{alg} warm");
        }
    }

    #[test]
    fn gpu_engines_fail_without_a_device() {
        let g = gen::uniform_random(10, 10, 40, 1).unwrap();
        let initial = cheap_matching(&g);
        for alg in [
            Algorithm::gpr(crate::gpr::GprVariant::First, GrStrategy::paper_default()),
            Algorithm::ghk(GhkVariant::Hk),
        ] {
            let mut engine = Engine::new(alg).unwrap();
            let err = engine.solve(&g, &initial, None, &SolveCtx::default()).unwrap_err();
            assert!(matches!(err, SolveError::DeviceRequired { .. }), "{alg}");
        }
    }

    #[test]
    fn engine_for_rejects_invalid_parameters() {
        assert!(matches!(Engine::new(Algorithm::Pdbfs(0)), Err(SolveError::InvalidConfig { .. })));
        assert!(matches!(
            Engine::new(Algorithm::SequentialPushRelabel(f64::NAN)),
            Err(SolveError::InvalidConfig { .. })
        ));
    }
}
