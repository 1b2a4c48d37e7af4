//! The [`Engine`] abstraction: one uniform, fallible interface over every
//! algorithm family in the workspace.
//!
//! Each of the paper's seven families — the three G-PR variants, G-HK /
//! G-HKDW, sequential PR, PF+, HK, HKDW, and P-DBFS — is wrapped in an
//! engine that owns its **warm workspace** (device state, label arrays,
//! active-list staging).  The two GPU families have an engine type each;
//! the five CPU baselines share one, which holds the baseline's solve as a
//! closure owning its warm state.  A [`crate::solver::Solver`] session keeps
//! one engine per [`Algorithm`] it has run, so repeated solves on
//! same-shaped graphs skip the setup cost the paper excludes from its
//! reported runtimes.

use crate::cancel::SolveCtx;
use crate::error::SolveError;
use crate::ghk::{self, GhkVariant, GhkWorkspace};
use crate::gpr::{self, GprConfig, GprWorkspace};
use crate::solver::Algorithm;
use gpm_cpu::{
    hkdw, hopcroft_karp, pdbfs, pothen_fan, sequential_pr_with, CpuRunResult, PdbfsConfig,
    PrConfig, PrWorkspace,
};
use gpm_gpu::{DeviceStats, VirtualGpu};
use gpm_graph::{BipartiteCsr, Matching};

/// Per-solve context handed to an engine: the (optional) virtual device the
/// solver session resolved for this call, plus the cancellation/deadline
/// signals the round loops poll.
pub struct EngineCtx<'a> {
    /// The device GPU engines run on; `None` under a CPU-only policy.
    pub device: Option<&'a VirtualGpu>,
    /// Cancellation and deadline for this solve (default: unbounded).
    pub stop: SolveCtx,
}

impl EngineCtx<'_> {
    /// The device, or [`SolveError::DeviceRequired`] for `algorithm`.
    pub fn require_device(&self, algorithm: &Algorithm) -> Result<&VirtualGpu, SolveError> {
        self.device.ok_or_else(|| SolveError::DeviceRequired { algorithm: algorithm.label() })
    }
}

/// What every engine returns: the matching plus the measurements the
/// [`crate::solver::SolveReport`] is assembled from.
#[derive(Debug)]
pub struct EngineOutput {
    /// The computed (consistent, maximum) matching.
    pub matching: Matching,
    /// Host wall-clock seconds spent inside the engine.
    pub wall_seconds: f64,
    /// Per-kernel device statistics (GPU engines only).
    pub device_stats: Option<DeviceStats>,
}

/// A matching algorithm behind the uniform, fallible solve interface.
///
/// `solve` takes `&mut self` so the engine can reuse its warm workspace
/// across calls; engines are cheap to create cold via [`engine_for`].
pub trait Engine {
    /// The algorithm this engine runs.
    fn algorithm(&self) -> Algorithm;

    /// Solves one instance, reusing any warm state from previous calls.
    fn solve(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        ctx: &mut EngineCtx<'_>,
    ) -> Result<EngineOutput, SolveError>;
}

/// Builds the engine for `algorithm` with the paper's default tuning,
/// validating the algorithm's parameters first
/// ([`SolveError::InvalidConfig`] on NaN/negative global-relabel factors or
/// zero thread counts).
pub fn engine_for(algorithm: Algorithm) -> Result<Box<dyn Engine + Send>, SolveError> {
    engine_for_tuned(algorithm, &GprConfig::paper_default())
}

/// Builds the engine for `algorithm` over a caller-supplied G-PR tuning
/// template (`Solver::builder().gpr_config(..)`): the template's shrink
/// threshold and loop cap apply, while the variant, strategy, and worklist
/// representation come from the algorithm itself.
pub fn engine_for_tuned(
    algorithm: Algorithm,
    gpr_base: &GprConfig,
) -> Result<Box<dyn Engine + Send>, SolveError> {
    algorithm.validate()?;
    Ok(match algorithm {
        Algorithm::GpuPushRelabel(variant, strategy, worklist, exec) => Box::new(GprEngine {
            algorithm,
            config: GprConfig { variant, strategy, worklist, exec, ..*gpr_base },
            workspace: GprWorkspace::new(),
        }),
        Algorithm::GpuHopcroftKarp(variant, worklist, exec) => Box::new(GhkEngine {
            algorithm,
            variant,
            worklist,
            exec,
            workspace: GhkWorkspace::new(),
        }),
        Algorithm::SequentialPushRelabel(k) => {
            let config = PrConfig { global_relabel_k: k, ..PrConfig::default() };
            let mut workspace = PrWorkspace::new();
            cpu_engine(algorithm, move |g, m| sequential_pr_with(g, m, config, &mut workspace))
        }
        Algorithm::PothenFan => cpu_engine(algorithm, pothen_fan),
        Algorithm::HopcroftKarp => cpu_engine(algorithm, hopcroft_karp),
        Algorithm::Hkdw => cpu_engine(algorithm, hkdw),
        Algorithm::Pdbfs(threads) => {
            cpu_engine(algorithm, move |g, m| pdbfs(g, m, PdbfsConfig { threads }))
        }
    })
}

/// The engine of a CPU baseline that `run` solves.
fn cpu_engine(
    algorithm: Algorithm,
    run: impl FnMut(&BipartiteCsr, &Matching) -> CpuRunResult + Send + 'static,
) -> Box<dyn Engine + Send> {
    Box::new(CpuEngine { algorithm, run: Box::new(run) })
}

/// G-PR (all three kernel variants) with a warm device workspace.
struct GprEngine {
    algorithm: Algorithm,
    config: GprConfig,
    workspace: GprWorkspace,
}

impl Engine for GprEngine {
    fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    fn solve(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        ctx: &mut EngineCtx<'_>,
    ) -> Result<EngineOutput, SolveError> {
        let device = ctx.require_device(&self.algorithm)?;
        let stop = ctx.stop.stop_check();
        let r = gpr::run_with_stop(device, graph, initial, self.config, &mut self.workspace, &stop);
        if r.stats.stopped {
            return Err(ctx.stop.stop_error(r.stats.loops, r.matching.cardinality()));
        }
        Ok(EngineOutput {
            matching: r.matching,
            wall_seconds: r.stats.seconds,
            device_stats: Some(r.stats.device),
        })
    }
}

/// G-HK / G-HKDW with a warm device workspace.
struct GhkEngine {
    algorithm: Algorithm,
    variant: GhkVariant,
    worklist: gpm_gpu::WorklistMode,
    exec: gpm_gpu::ExecMode,
    workspace: GhkWorkspace,
}

impl Engine for GhkEngine {
    fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    fn solve(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        ctx: &mut EngineCtx<'_>,
    ) -> Result<EngineOutput, SolveError> {
        let device = ctx.require_device(&self.algorithm)?;
        let stop = ctx.stop.stop_check();
        let r = ghk::run_with_exec_stop(
            device,
            graph,
            initial,
            self.variant,
            self.worklist,
            self.exec,
            &mut self.workspace,
            &stop,
        );
        if r.stats.stopped {
            return Err(ctx.stop.stop_error(r.stats.phases, r.matching.cardinality()));
        }
        Ok(EngineOutput {
            matching: r.matching,
            wall_seconds: r.stats.seconds,
            device_stats: Some(r.stats.device),
        })
    }
}

/// One solve of a CPU baseline, owning whatever warm state the baseline
/// keeps between solves (sequential PR's label arrays; the others none).
type CpuSolve = dyn FnMut(&BipartiteCsr, &Matching) -> CpuRunResult + Send;

/// A CPU baseline.
struct CpuEngine {
    algorithm: Algorithm,
    run: Box<CpuSolve>,
}

impl Engine for CpuEngine {
    fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    fn solve(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        _ctx: &mut EngineCtx<'_>,
    ) -> Result<EngineOutput, SolveError> {
        let r = (self.run)(graph, initial);
        Ok(EngineOutput { matching: r.matching, wall_seconds: r.stats.seconds, device_stats: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for alg in seven_families() {
            let mut engine = engine_for(alg).unwrap();
            assert_eq!(engine.algorithm(), alg);
            let mut ctx = EngineCtx { device: Some(&gpu), stop: SolveCtx::default() };
            let out = engine.solve(&g, &initial, &mut ctx).unwrap();
            assert_eq!(out.matching.cardinality(), opt, "{alg}");
            assert_eq!(out.device_stats.is_some(), alg.is_gpu(), "{alg}");
            // A second call on the same engine (now warm) agrees.
            let again = engine.solve(&g, &initial, &mut ctx).unwrap();
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
            let mut engine = engine_for(alg).unwrap();
            let mut ctx = EngineCtx { device: None, stop: SolveCtx::default() };
            let err = engine.solve(&g, &initial, &mut ctx).unwrap_err();
            assert!(matches!(err, SolveError::DeviceRequired { .. }), "{alg}");
        }
    }

    #[test]
    fn engine_for_rejects_invalid_parameters() {
        assert!(matches!(engine_for(Algorithm::Pdbfs(0)), Err(SolveError::InvalidConfig { .. })));
        assert!(matches!(
            engine_for(Algorithm::SequentialPushRelabel(f64::NAN)),
            Err(SolveError::InvalidConfig { .. })
        ));
    }
}
