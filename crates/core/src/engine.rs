//! The warm working memory behind [`crate::solver::Solver`], and the one
//! dispatch from an [`Algorithm`] to its engine.
//!
//! Of the paper's seven families — the three G-PR variants, G-HK / G-HKDW,
//! sequential PR, PF+, HK, HKDW, and P-DBFS — three keep working memory
//! between solves: G-PR's device state, G-HK/G-HKDW's device state and
//! path-kernel memory, and sequential PR's label arrays.  A session keeps
//! one [`Workspaces`] entry per such family, created on the family's first
//! solve and shared by every label of it: each solve builds its engine's
//! configuration from its [`Algorithm`] (variant, strategy, worklist, exec
//! mode, `PR@k` factor), and every engine re-initializes its workspace from
//! the solve's graph and starting matching, so sharing changes no result.
//! A workspace reshapes its buffers to each graph in their own allocations,
//! and the device's scratch arena ([`gpm_gpu::scratch`]) hands out the
//! frontier and shrink buffers best-fit, so a session's warm memory —
//! workspaces and device scratch alike — is bounded by its largest graph,
//! not by the labels or the graph shapes it has run.  PF+, HK, HKDW and
//! P-DBFS keep no state.  Repeated solves skip the setup cost the paper
//! excludes from its reported runtimes.

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

/// A session's warm workspaces: at most one per engine family that keeps
/// state between solves.
#[derive(Debug, Default)]
pub(crate) struct Workspaces {
    gpr: Option<GprWorkspace>,
    ghk: Option<GhkWorkspace>,
    pr: Option<PrWorkspace>,
}

impl Workspaces {
    /// The number of families holding a warm workspace (at most 3).
    pub(crate) fn len(&self) -> usize {
        [self.gpr.is_some(), self.ghk.is_some(), self.pr.is_some()]
            .into_iter()
            .filter(|&warm| warm)
            .count()
    }

    /// Solves one instance with `algorithm` from `initial`, validating the
    /// algorithm's parameters first ([`SolveError::InvalidConfig`]) and
    /// reusing its family's workspace.  GPU engines run on `device`
    /// ([`SolveError::DeviceRequired`] without one) and stop at a round
    /// boundary when `ctx` fires; CPU engines run to completion.
    pub(crate) fn solve(
        &mut self,
        algorithm: Algorithm,
        graph: &BipartiteCsr,
        initial: &Matching,
        device: Option<&VirtualGpu>,
        ctx: &SolveCtx,
    ) -> Result<EngineOutput, SolveError> {
        algorithm.validate()?;
        let require = |label: &str| {
            device.ok_or_else(|| SolveError::DeviceRequired { algorithm: label.to_string() })
        };
        let cpu = |r: CpuRunResult| (r.matching, r.stats.seconds, None, None);
        // `stopped_after`: the rounds a GPU run completed before its stop
        // check fired.
        let (matching, wall_seconds, device_stats, stopped_after) = match algorithm {
            Algorithm::GpuPushRelabel(variant, strategy, worklist, exec) => {
                let gpu = require(variant.label())?;
                let config =
                    GprConfig { variant, strategy, worklist, exec, ..GprConfig::paper_default() };
                let workspace = self.gpr.get_or_insert_with(GprWorkspace::new);
                let r = gpr::run(gpu, graph, initial, config, workspace, &ctx.stop_check());
                let stopped_after = r.stats.stopped.then_some(r.stats.loops);
                (r.matching, r.stats.seconds, Some(r.stats.device), stopped_after)
            }
            Algorithm::GpuHopcroftKarp(variant, worklist, exec) => {
                let gpu = require(variant.label())?;
                let config = GhkConfig { variant, worklist, exec };
                let workspace = self.ghk.get_or_insert_with(GhkWorkspace::new);
                let r = ghk::run(gpu, graph, initial, config, workspace, &ctx.stop_check());
                let stopped_after = r.stats.stopped.then_some(r.stats.phases);
                (r.matching, r.stats.seconds, Some(r.stats.device), stopped_after)
            }
            Algorithm::SequentialPushRelabel(k) => {
                let config = PrConfig { global_relabel_k: k, ..PrConfig::default() };
                let workspace = self.pr.get_or_insert_with(PrWorkspace::new);
                cpu(sequential_pr_with(graph, initial, config, workspace))
            }
            Algorithm::PothenFan => cpu(pothen_fan(graph, initial)),
            Algorithm::HopcroftKarp => cpu(hopcroft_karp(graph, initial)),
            Algorithm::Hkdw => cpu(hkdw(graph, initial)),
            Algorithm::Pdbfs(threads) => cpu(pdbfs(graph, initial, PdbfsConfig { threads })),
        };
        if let Some(rounds) = stopped_after {
            return Err(ctx.stop_error(rounds, matching.cardinality()));
        }
        Ok(EngineOutput { matching, wall_seconds, device_stats })
    }
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
            let mut workspaces = Workspaces::default();
            let out = workspaces.solve(alg, &g, &initial, Some(&gpu), &ctx).unwrap();
            assert_eq!(out.matching.cardinality(), opt, "{alg}");
            assert_eq!(out.device_stats.is_some(), alg.is_gpu(), "{alg}");
            // A second call on the same workspaces (now warm) agrees.
            let again = workspaces.solve(alg, &g, &initial, Some(&gpu), &ctx).unwrap();
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
            let mut workspaces = Workspaces::default();
            let err = workspaces.solve(alg, &g, &initial, None, &SolveCtx::default()).unwrap_err();
            assert!(matches!(err, SolveError::DeviceRequired { .. }), "{alg}");
            // A solve that never ran leaves no workspace behind.
            assert_eq!(workspaces.len(), 0, "{alg}");
        }
    }

    #[test]
    fn engine_for_rejects_invalid_parameters() {
        let g = gen::uniform_random(10, 10, 40, 1).unwrap();
        let initial = cheap_matching(&g);
        let gpu = VirtualGpu::sequential();
        for alg in [Algorithm::Pdbfs(0), Algorithm::SequentialPushRelabel(f64::NAN)] {
            let mut workspaces = Workspaces::default();
            let err =
                workspaces.solve(alg, &g, &initial, Some(&gpu), &SolveCtx::default()).unwrap_err();
            assert!(matches!(err, SolveError::InvalidConfig { .. }), "{alg}");
            assert_eq!(workspaces.len(), 0, "{alg}");
        }
    }
}
