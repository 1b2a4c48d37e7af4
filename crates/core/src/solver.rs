//! The unified, session-style front-end over every matching algorithm.
//!
//! The center of the API is [`Solver`], built via [`Solver::builder`]: a
//! reusable session that owns the device policy (which [`VirtualGpu`] GPU
//! algorithms run on), the initialization heuristic, and one warm
//! [`Engine`] per algorithm it has executed — so
//! repeated solves on same-shaped graphs reuse the warm working buffers, the
//! setup cost the paper excludes from its reported runtimes.  Every solve is
//! fallible and returns `Result<SolveReport, SolveError>`; batch pipelines
//! use [`Solver::solve_batch`] to keep going past bad jobs.
//!
//! ```
//! use gpm_core::solver::{Algorithm, Solver};
//! use gpm_graph::gen;
//!
//! let mut solver = Solver::builder().build().unwrap();
//! let graph = gen::planted_perfect(300, 1_200, 7).unwrap();
//! let report = solver.solve(&graph, Algorithm::gpr_default()).unwrap();
//! assert_eq!(report.cardinality, 300);
//! // The same session solves again with warm buffers, any algorithm:
//! let again = solver.solve(&graph, Algorithm::HopcroftKarp).unwrap();
//! assert_eq!(again.cardinality, 300);
//! ```
//!
//! The free functions [`solve`] and [`solve_with_initial`] of the original
//! API remain as thin shims over a throwaway `Solver`.

use crate::cancel::SolveCtx;
use crate::engine::{engine_for, engine_for_tuned, Engine, EngineCtx};
use crate::error::{ParseAlgorithmError, ParseInitHeuristicError, SolveError};
use crate::ghk::GhkVariant;
use crate::gpr::{GprConfig, GprVariant};
use crate::strategy::GrStrategy;
use gpm_gpu::{
    Backend, DeviceStats, ExecMode, ExecutorConfig, GpuConfig, VirtualGpu, WorklistMode,
};
use gpm_graph::heuristics::{cheap_matching, karp_sipser};
use gpm_graph::{BipartiteCsr, Matching};
use serde::{Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Every matching algorithm available in the workspace.
///
/// `Algorithm` is a small value type: `Copy`, hashable (it keys the solver's
/// warm-engine map), and round-trippable through [`fmt::Display`] /
/// [`FromStr`] with labels like `G-PR-Shr@adaptive:0.7` or
/// `G-PR-Shr@adaptive:0.7+queue` (see the `FromStr` impl for the grammar).
/// The GPU algorithms carry a [`WorklistMode`] selecting how their active
/// set / BFS frontier is represented on the device, and an [`ExecMode`]
/// selecting launch-per-round or persistent (megakernel) execution; the
/// `+mode` suffix is omitted from labels when it equals the variant's paper
/// default, and the trailing `@resident` suffix appears only under
/// [`ExecMode::Persistent`].
#[derive(Clone, Copy, Debug)]
pub enum Algorithm {
    /// G-PR (GPU push-relabel), any of the three variants, with a GR
    /// strategy, a worklist representation, and an execution mode.
    GpuPushRelabel(GprVariant, GrStrategy, WorklistMode, ExecMode),
    /// G-HK or G-HKDW (GPU augmenting path) with a BFS-frontier
    /// representation and an execution mode.
    GpuHopcroftKarp(GhkVariant, WorklistMode, ExecMode),
    /// Sequential push-relabel (the paper's "PR" baseline), with the GR
    /// frequency factor `k` (the paper uses 0.5).
    SequentialPushRelabel(f64),
    /// Pothen–Fan with lookahead (PF+).
    PothenFan,
    /// Hopcroft–Karp.
    HopcroftKarp,
    /// HKDW (HK with the Duff–Wiberg extra sweep).
    Hkdw,
    /// Multicore P-DBFS with the given number of threads (the paper uses 8).
    Pdbfs(usize),
}

impl Algorithm {
    /// The paper's headline configuration of G-PR: shrinking lists and the
    /// (adaptive, 0.7) global-relabeling strategy.
    pub fn gpr_default() -> Self {
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::paper_default())
    }

    /// A G-PR algorithm with the variant's default worklist representation.
    pub fn gpr(variant: GprVariant, strategy: GrStrategy) -> Self {
        Algorithm::GpuPushRelabel(
            variant,
            strategy,
            variant.default_worklist(),
            ExecMode::default(),
        )
    }

    /// A G-HK / G-HKDW algorithm with the default dense BFS frontier.
    pub fn ghk(variant: GhkVariant) -> Self {
        Algorithm::GpuHopcroftKarp(variant, variant.default_worklist(), ExecMode::default())
    }

    /// Same algorithm with a different worklist representation.
    ///
    /// # Panics
    /// Panics for CPU algorithms, which have no device worklist.
    pub fn with_worklist(self, mode: WorklistMode) -> Self {
        match self {
            Algorithm::GpuPushRelabel(v, s, _, e) => Algorithm::GpuPushRelabel(v, s, mode, e),
            Algorithm::GpuHopcroftKarp(v, _, e) => Algorithm::GpuHopcroftKarp(v, mode, e),
            other => panic!("{} has no device worklist", other.label()),
        }
    }

    /// Same algorithm with a different execution mode (launch-per-round vs
    /// persistent megakernel).
    ///
    /// # Panics
    /// Panics for CPU algorithms, which have no device round loop.
    pub fn with_exec(self, exec: ExecMode) -> Self {
        match self {
            Algorithm::GpuPushRelabel(v, s, w, _) => Algorithm::GpuPushRelabel(v, s, w, exec),
            Algorithm::GpuHopcroftKarp(v, w, _) => Algorithm::GpuHopcroftKarp(v, w, exec),
            other => panic!("{} has no device round loop", other.label()),
        }
    }

    /// The worklist representation of a GPU algorithm (`None` for CPU
    /// algorithms).
    pub fn worklist(&self) -> Option<WorklistMode> {
        match self {
            Algorithm::GpuPushRelabel(_, _, mode, _) | Algorithm::GpuHopcroftKarp(_, mode, _) => {
                Some(*mode)
            }
            _ => None,
        }
    }

    /// The execution mode of a GPU algorithm (`None` for CPU algorithms).
    pub fn exec(&self) -> Option<ExecMode> {
        match self {
            Algorithm::GpuPushRelabel(.., exec) | Algorithm::GpuHopcroftKarp(.., exec) => {
                Some(*exec)
            }
            _ => None,
        }
    }

    /// Short display name, matching the labels used in the paper's figures.
    /// For the full round-trippable form use [`fmt::Display`].
    pub fn label(&self) -> String {
        match self {
            Algorithm::GpuPushRelabel(variant, ..) => variant.label().to_string(),
            Algorithm::GpuHopcroftKarp(variant, ..) => variant.label().to_string(),
            Algorithm::SequentialPushRelabel(_) => "PR".to_string(),
            Algorithm::PothenFan => "PFP".to_string(),
            Algorithm::HopcroftKarp => "HK".to_string(),
            Algorithm::Hkdw => "HKDW".to_string(),
            Algorithm::Pdbfs(_) => "P-DBFS".to_string(),
        }
    }

    /// `true` for the algorithms that run on the virtual GPU.
    pub fn is_gpu(&self) -> bool {
        matches!(self, Algorithm::GpuPushRelabel(..) | Algorithm::GpuHopcroftKarp(..))
    }

    /// Checks the algorithm's parameters, returning
    /// [`SolveError::InvalidConfig`] for values the solvers cannot run with
    /// (NaN/negative global-relabel factors, zero P-DBFS threads).
    pub fn validate(&self) -> Result<(), SolveError> {
        let invalid =
            |reason: String| SolveError::InvalidConfig { algorithm: self.label(), reason };
        match *self {
            Algorithm::SequentialPushRelabel(k) if !k.is_finite() => {
                Err(invalid(format!("global-relabel factor k must be finite, got {k}")))
            }
            Algorithm::SequentialPushRelabel(k) if k < 0.0 => {
                Err(invalid(format!("global-relabel factor k must be non-negative, got {k}")))
            }
            Algorithm::Pdbfs(0) => Err(invalid("thread count must be at least 1".to_string())),
            Algorithm::GpuPushRelabel(_, GrStrategy::Adaptive(k), ..)
                if !k.is_finite() || k <= 0.0 =>
            {
                Err(invalid(format!("adaptive GR factor must be finite and positive, got {k}")))
            }
            _ => Ok(()),
        }
    }

    /// A collision-free key: variant discriminants plus the bit patterns of
    /// numeric parameters.  Backs `Eq`/`Hash` so algorithms can key the
    /// solver's engine map (NaN parameters never get that far — they are
    /// rejected by [`Algorithm::validate`]).  The last byte packs the
    /// worklist mode in its low nibble and the exec mode in its high nibble.
    fn key(&self) -> (u8, u8, u64, u8) {
        let pack = |w: WorklistMode, e: ExecMode| (w as u8) | ((e as u8) << 4);
        match *self {
            Algorithm::GpuPushRelabel(v, GrStrategy::Fixed(k), w, e) => {
                (0, v as u8, u64::from(k), pack(w, e))
            }
            Algorithm::GpuPushRelabel(v, GrStrategy::Adaptive(k), w, e) => {
                (1, v as u8, k.to_bits(), pack(w, e))
            }
            Algorithm::GpuHopcroftKarp(v, w, e) => (2, v as u8, 0, pack(w, e)),
            Algorithm::SequentialPushRelabel(k) => (3, 0, k.to_bits(), 0),
            Algorithm::PothenFan => (4, 0, 0, 0),
            Algorithm::HopcroftKarp => (5, 0, 0, 0),
            Algorithm::Hkdw => (6, 0, 0, 0),
            Algorithm::Pdbfs(t) => (7, 0, t as u64, 0),
        }
    }
}

impl PartialEq for Algorithm {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Algorithm {}

impl Hash for Algorithm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Round-trippable label: `G-PR-Shr@adaptive:0.7`, `G-HKDW`, `PR@0.5`,
/// `P-DBFS@8`, `PFP`, `HK`, `HKDW`.  GPU algorithms append `+dense`,
/// `+compacted`, `+queue`, or `+blocked` when the worklist representation
/// differs from the variant's default (e.g. `G-PR-Shr@adaptive:0.7+queue`,
/// `G-HK+blocked`), and a final `@resident` suffix when the persistent
/// execution mode is selected (e.g. `G-PR-Shr@adaptive:0.7+blocked@resident`).
impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let exec_suffix = |f: &mut fmt::Formatter<'_>, exec: &ExecMode| {
            if *exec == ExecMode::Persistent {
                write!(f, "@{}", exec.label())
            } else {
                Ok(())
            }
        };
        match self {
            Algorithm::GpuPushRelabel(variant, strategy, worklist, exec) => {
                write!(f, "{}@{strategy}", variant.label())?;
                if *worklist != variant.default_worklist() {
                    write!(f, "+{worklist}")?;
                }
                exec_suffix(f, exec)
            }
            Algorithm::GpuHopcroftKarp(variant, worklist, exec) => {
                f.write_str(variant.label())?;
                if *worklist != variant.default_worklist() {
                    write!(f, "+{worklist}")?;
                }
                exec_suffix(f, exec)
            }
            Algorithm::SequentialPushRelabel(k) => write!(f, "PR@{k}"),
            Algorithm::PothenFan => f.write_str("PFP"),
            Algorithm::HopcroftKarp => f.write_str("HK"),
            Algorithm::Hkdw => f.write_str("HKDW"),
            Algorithm::Pdbfs(threads) => write!(f, "P-DBFS@{threads}"),
        }
    }
}

/// Parses the labels produced by [`fmt::Display`].  Parameters may be
/// omitted, in which case the paper's defaults apply: `G-PR-Shr` ≡
/// `G-PR-Shr@adaptive:0.7`, `PR` ≡ `PR@0.5`, `P-DBFS` ≡ `P-DBFS@8`.  GPU
/// algorithms accept a trailing `+dense` / `+compacted` / `+queue` /
/// `+blocked` worklist
/// suffix (default: the variant's paper representation) and a final
/// `@resident` / `@launch` execution-mode suffix (default: `launch`, one
/// kernel launch per round).
impl FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |expected| ParseAlgorithmError { input: s.to_string(), expected };
        // The execution-mode suffix is appended last by `Display`, so it is
        // stripped first.  Only the exact mode labels count — every other
        // '@' segment (strategy parameters, thread counts) parses as before.
        let (rest, exec) = match s.rsplit_once('@') {
            Some((rest, mode)) => match mode.parse::<ExecMode>() {
                Ok(mode) => (rest, Some(mode)),
                Err(_) => (s, None),
            },
            None => (s, None),
        };
        // A worklist suffix is the text after the *last* '+', and only when
        // it is a mode label — numeric parameters may legitimately carry a
        // leading '+' sign (`PR@+0.5`), which must keep parsing as before.
        let (body, worklist) = match rest.rsplit_once('+') {
            Some((body, mode)) => match mode.parse::<WorklistMode>() {
                Ok(mode) => (body, Some(mode)),
                Err(_) => (rest, None),
            },
            None => (rest, None),
        };
        let (name, param) = match body.split_once('@') {
            Some((name, param)) => (name, Some(param)),
            None => (body, None),
        };
        let gpr_variant = |variant: GprVariant| -> Result<Algorithm, ParseAlgorithmError> {
            let strategy = match param {
                Some(p) => p.parse::<GrStrategy>()?,
                None => GrStrategy::paper_default(),
            };
            Ok(Algorithm::GpuPushRelabel(
                variant,
                strategy,
                worklist.unwrap_or_else(|| variant.default_worklist()),
                exec.unwrap_or_default(),
            ))
        };
        let ghk_variant = |variant: GhkVariant| -> Result<Algorithm, ParseAlgorithmError> {
            if param.is_some() {
                Err(err("no '@' parameter for this algorithm"))
            } else {
                Ok(Algorithm::GpuHopcroftKarp(
                    variant,
                    worklist.unwrap_or_else(|| variant.default_worklist()),
                    exec.unwrap_or_default(),
                ))
            }
        };
        let cpu = |alg: Result<Algorithm, ParseAlgorithmError>| {
            if worklist.is_some() {
                Err(err("no '+' worklist mode for a CPU algorithm"))
            } else if exec.is_some() {
                Err(err("no '@' execution mode for a CPU algorithm"))
            } else {
                alg
            }
        };
        let no_param = |alg: Algorithm| -> Result<Algorithm, ParseAlgorithmError> {
            if param.is_some() {
                Err(err("no '@' parameter for this algorithm"))
            } else {
                Ok(alg)
            }
        };
        match name {
            "G-PR-First" => gpr_variant(GprVariant::First),
            "G-PR-NoShr" => gpr_variant(GprVariant::ActiveList),
            "G-PR-Shr" => gpr_variant(GprVariant::Shrink),
            "G-HK" => ghk_variant(GhkVariant::Hk),
            "G-HKDW" => ghk_variant(GhkVariant::Hkdw),
            "PR" => cpu(match param {
                Some(p) => p
                    .parse::<f64>()
                    .map(Algorithm::SequentialPushRelabel)
                    .map_err(|_| err("a floating-point global-relabel factor")),
                None => Ok(Algorithm::SequentialPushRelabel(0.5)),
            }),
            "PFP" => cpu(no_param(Algorithm::PothenFan)),
            "HK" => cpu(no_param(Algorithm::HopcroftKarp)),
            "HKDW" => cpu(no_param(Algorithm::Hkdw)),
            "P-DBFS" => cpu(match param {
                Some(p) => p
                    .parse::<usize>()
                    .map(Algorithm::Pdbfs)
                    .map_err(|_| err("an integer thread count")),
                None => Ok(Algorithm::Pdbfs(8)),
            }),
            _ => Err(err(
                "one of G-PR-First, G-PR-NoShr, G-PR-Shr, G-HK, G-HKDW, PR, PFP, HK, HKDW, P-DBFS",
            )),
        }
    }
}

/// Serialized as the round-trippable [`fmt::Display`] label.
impl Serialize for Algorithm {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Algorithm {}

/// Outcome of one solve.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Algorithm label.
    pub algorithm: String,
    /// The computed matching (consistent; maximum cardinality).
    pub matching: Matching,
    /// Cardinality of the matching.
    pub cardinality: usize,
    /// Cardinality of the initial matching the solver started from.
    pub initial_cardinality: usize,
    /// Host wall-clock seconds spent in the solver (excluding the common
    /// initialization, matching the paper's methodology).
    pub wall_seconds: f64,
    /// Modelled device seconds (GPU algorithms only).
    pub modelled_device_seconds: Option<f64>,
    /// Per-kernel device statistics (GPU algorithms only).
    pub device_stats: Option<DeviceStats>,
}

impl SolveReport {
    /// The time used for cross-algorithm comparisons: modelled device time
    /// for GPU algorithms, host wall-clock time for CPU algorithms.  This is
    /// the quantity the benchmark harness treats as the analogue of the
    /// paper's reported seconds.
    pub fn comparable_seconds(&self) -> f64 {
        self.modelled_device_seconds.unwrap_or(self.wall_seconds)
    }
}

/// Serialized with the scalar summary the report pipeline consumes: the
/// algorithm label, cardinalities, and timings.  The matching itself and the
/// per-kernel statistics are deliberately omitted (they are bulky and have
/// dedicated accessors).
impl Serialize for SolveReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("algorithm".to_string(), Value::Str(self.algorithm.clone())),
            ("cardinality".to_string(), Value::U64(self.cardinality as u64)),
            ("initial_cardinality".to_string(), Value::U64(self.initial_cardinality as u64)),
            ("wall_seconds".to_string(), Value::F64(self.wall_seconds)),
            (
                "modelled_device_seconds".to_string(),
                match self.modelled_device_seconds {
                    Some(s) => Value::F64(s),
                    None => Value::Null,
                },
            ),
            ("comparable_seconds".to_string(), Value::F64(self.comparable_seconds())),
        ])
    }
}

impl Deserialize for SolveReport {}

/// Which virtual device a [`Solver`] session owns for its GPU algorithms.
/// The device is created lazily on the first GPU solve and shared by every
/// GPU engine of the session afterwards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DevicePolicy {
    /// No device: GPU algorithms fail with [`SolveError::DeviceRequired`].
    CpuOnly,
    /// Deterministic sequential device (reproducible interleavings).
    Sequential,
    /// Concurrent device with an explicit worker count: a pooled launch runs
    /// on the launching thread plus `count − 1` pool threads (a count of 0
    /// is treated as 1, which runs every launch inline).
    Parallel(usize),
    /// Concurrent device sized to the host's available parallelism.
    #[default]
    Auto,
}

impl DevicePolicy {
    fn create_device(self, executor: ExecutorConfig) -> Option<VirtualGpu> {
        let backend = match self {
            DevicePolicy::CpuOnly => return None,
            DevicePolicy::Sequential => Backend::Sequential,
            DevicePolicy::Parallel(workers) => Backend::Parallel { workers: workers.max(1) },
            DevicePolicy::Auto => Backend::parallel_auto(),
        };
        Some(VirtualGpu::new(GpuConfig::tesla_c2050(backend).with_executor(executor)))
    }
}

/// The initialization heuristic [`Solver::solve`] uses to build the starting
/// matching (the paper's "common initialization").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InitHeuristic {
    /// Start from the empty matching.
    Empty,
    /// The cheap greedy matching the paper uses everywhere.
    #[default]
    Cheap,
    /// Karp–Sipser (better quality, slightly more expensive).
    KarpSipser,
}

impl InitHeuristic {
    /// Builds the initial matching for `graph`.
    pub fn build(&self, graph: &BipartiteCsr) -> Matching {
        match self {
            InitHeuristic::Empty => Matching::empty_for(graph),
            InitHeuristic::Cheap => cheap_matching(graph),
            InitHeuristic::KarpSipser => karp_sipser(graph),
        }
    }
}

/// Round-trippable label: `empty`, `cheap`, or `karp-sipser` — the form job
/// specs and the `gpm-service` JSON protocol name heuristics with.
impl fmt::Display for InitHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InitHeuristic::Empty => "empty",
            InitHeuristic::Cheap => "cheap",
            InitHeuristic::KarpSipser => "karp-sipser",
        })
    }
}

/// Parses the labels produced by [`fmt::Display`] (case-sensitive).
impl FromStr for InitHeuristic {
    type Err = ParseInitHeuristicError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "empty" => Ok(InitHeuristic::Empty),
            "cheap" => Ok(InitHeuristic::Cheap),
            "karp-sipser" => Ok(InitHeuristic::KarpSipser),
            _ => Err(ParseInitHeuristicError { input: s.to_string() }),
        }
    }
}

/// Configures and creates a [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverBuilder {
    policy: DevicePolicy,
    init: InitHeuristic,
    executor: ExecutorConfig,
    gpr: GprConfig,
}

impl SolverBuilder {
    /// Sets the device policy (default: [`DevicePolicy::Auto`]).
    pub fn device_policy(mut self, policy: DevicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the initialization heuristic (default: [`InitHeuristic::Cheap`]).
    pub fn init_heuristic(mut self, init: InitHeuristic) -> Self {
        self.init = init;
        self
    }

    /// Tunes the persistent kernel executor of the session's device (inline
    /// threshold, chunk size, pool tag).  Applied when the
    /// device is created on the first GPU solve; irrelevant under
    /// [`DevicePolicy::CpuOnly`].  Validated by [`SolverBuilder::build`].
    pub fn executor_config(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// Sets the session-wide G-PR tuning template (shrink threshold, loop
    /// cap).  The variant, GR strategy, and worklist representation of each
    /// solve still come from its [`Algorithm`]; this template supplies the
    /// remaining knobs.  Validated by [`SolverBuilder::build`].
    pub fn gpr_config(mut self, gpr: GprConfig) -> Self {
        self.gpr = gpr;
        self
    }

    /// Builds the solver session, validating the configuration first:
    /// a zero executor chunk size or a zero G-PR shrink threshold is a
    /// structured [`SolveError::InvalidConfig`] here instead of a surprise
    /// inside the device loop.  No device or engine is allocated until the
    /// first solve that needs it.
    pub fn build(self) -> Result<Solver, SolveError> {
        if let Err(reason) = self.executor.validate() {
            return Err(SolveError::InvalidConfig { algorithm: "device executor".into(), reason });
        }
        if let Err(reason) = self.gpr.validate() {
            return Err(SolveError::InvalidConfig { algorithm: "G-PR".into(), reason });
        }
        Ok(Solver {
            policy: self.policy,
            init: self.init,
            executor: self.executor,
            gpr: self.gpr,
            device: None,
            engines: HashMap::new(),
        })
    }
}

/// A reusable solve session: owns the device, the init heuristic, and one
/// warm engine (with its buffer workspace) per algorithm it has run.
pub struct Solver {
    policy: DevicePolicy,
    init: InitHeuristic,
    executor: ExecutorConfig,
    gpr: GprConfig,
    device: Option<VirtualGpu>,
    engines: HashMap<Algorithm, Box<dyn Engine + Send>>,
}

impl Solver {
    /// Starts configuring a solver session.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// A solver with the default policy (auto-parallel device, cheap
    /// greedy initialization).
    pub fn new() -> Self {
        Self::builder().build().expect("default solver configuration is valid")
    }

    /// The session's device policy.
    pub fn device_policy(&self) -> DevicePolicy {
        self.policy
    }

    /// The session's initialization heuristic.
    pub fn init_heuristic(&self) -> InitHeuristic {
        self.init
    }

    /// The executor tuning the session's device is (or will be) created
    /// with.
    pub fn executor_config(&self) -> ExecutorConfig {
        self.executor
    }

    /// The session-wide G-PR tuning template.
    pub fn gpr_config(&self) -> GprConfig {
        self.gpr
    }

    /// The session's device, if one has been created by a GPU solve.
    /// Useful for inspecting accumulated [`DeviceStats`].
    pub fn device(&self) -> Option<&VirtualGpu> {
        self.device.as_ref()
    }

    /// Number of warm engines the session holds (one per algorithm run).
    pub fn warm_engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Drops all warm engines and the device, returning the session to its
    /// just-built state.
    pub fn clear(&mut self) {
        self.engines.clear();
        self.device = None;
    }

    /// Solves `graph` with `algorithm`, starting from the matching produced
    /// by the session's [`InitHeuristic`].
    pub fn solve(
        &mut self,
        graph: &BipartiteCsr,
        algorithm: Algorithm,
    ) -> Result<SolveReport, SolveError> {
        // Validate before paying for the init heuristic.
        algorithm.validate()?;
        let initial = self.init.build(graph);
        self.solve_with_initial(graph, &initial, algorithm)
    }

    /// Solves `graph` with `algorithm`, starting from `initial`.
    pub fn solve_with_initial(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        algorithm: Algorithm,
    ) -> Result<SolveReport, SolveError> {
        self.solve_with_initial_ctx(graph, initial, algorithm, &SolveCtx::unbounded())
    }

    /// Solves `graph` with `algorithm`, starting from `initial`, under the
    /// cancellation/deadline signals of `ctx`.
    ///
    /// GPU engines poll the signals at worklist-round granularity and return
    /// [`SolveError::Cancelled`] / [`SolveError::DeadlineExceeded`] with the
    /// rounds completed and the cardinality of the consistent partial
    /// matching they stopped at.  CPU engines are not round-interruptible;
    /// for them (and for everything else) an already-tripped signal fails
    /// fast before the engine runs, reporting zero rounds.
    pub fn solve_with_initial_ctx(
        &mut self,
        graph: &BipartiteCsr,
        initial: &Matching,
        algorithm: Algorithm,
        ctx: &SolveCtx,
    ) -> Result<SolveReport, SolveError> {
        // Validate before creating a device, so an invalid GPU config is
        // InvalidConfig even on a CPU-only session.
        algorithm.validate()?;
        if algorithm.is_gpu() && self.device.is_none() {
            self.device = self.policy.create_device(self.executor);
        }
        let device = match (algorithm.is_gpu(), self.device.as_ref()) {
            (true, Some(d)) => Some(d),
            (true, None) => {
                return Err(SolveError::DeviceRequired { algorithm: algorithm.label() })
            }
            (false, _) => None,
        };
        let engine = match self.engines.entry(algorithm) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(engine_for_tuned(algorithm, &self.gpr)?),
        };
        run_engine(engine.as_mut(), graph, initial, device, ctx)
    }

    /// Solves a batch of `(graph, algorithm)` jobs with warm state reuse
    /// across the whole batch.  One failed job does not abort the rest —
    /// each job gets its own `Result`.
    pub fn solve_batch<'g, I>(&mut self, jobs: I) -> Vec<Result<SolveReport, SolveError>>
    where
        I: IntoIterator<Item = (&'g BipartiteCsr, Algorithm)>,
    {
        jobs.into_iter().map(|(graph, algorithm)| self.solve(graph, algorithm)).collect()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("policy", &self.policy)
            .field("init", &self.init)
            .field("warm_engines", &self.engines.len())
            .finish()
    }
}

/// Shared solve path: shape-checks the initial matching, runs the engine,
/// and assembles the report.
fn run_engine(
    engine: &mut (dyn Engine + Send),
    graph: &BipartiteCsr,
    initial: &Matching,
    device: Option<&VirtualGpu>,
    stop: &SolveCtx,
) -> Result<SolveReport, SolveError> {
    if initial.num_rows() != graph.num_rows() || initial.num_cols() != graph.num_cols() {
        return Err(SolveError::ShapeMismatch {
            graph: (graph.num_rows(), graph.num_cols()),
            initial: (initial.num_rows(), initial.num_cols()),
        });
    }
    // Fail fast on an already-tripped signal so even the CPU engines (which
    // run uninterruptibly) honour a pre-start cancel or an expired deadline.
    if let Some(reason) = stop.check() {
        return Err(reason.into_error(0, 0));
    }
    let initial_cardinality = initial.cardinality();
    let mut ctx = EngineCtx { device, stop: stop.clone() };
    let out = engine.solve(graph, initial, &mut ctx)?;
    let cardinality = out.matching.cardinality();
    let modelled_device_seconds = out.device_stats.as_ref().map(|s| s.modelled_time_secs());
    Ok(SolveReport {
        algorithm: engine.algorithm().label(),
        matching: out.matching,
        cardinality,
        initial_cardinality,
        wall_seconds: out.wall_seconds,
        modelled_device_seconds,
        device_stats: out.device_stats,
    })
}

/// Solves with the given algorithm, starting from the cheap greedy matching
/// (the paper's common initialization).
///
/// Thin shim over a throwaway [`Solver`] session; for repeated solves build
/// one `Solver` and reuse it — its warm workspaces make this call's
/// per-solve setup disappear.
pub fn solve(graph: &BipartiteCsr, algorithm: Algorithm) -> Result<SolveReport, SolveError> {
    Solver::new().solve(graph, algorithm)
}

/// Solves with the given algorithm and initial matching; GPU algorithms run
/// on `gpu` when provided (otherwise on a fresh auto-sized parallel device).
///
/// Thin shim kept for the original free-function API; see [`Solver`].
pub fn solve_with_initial(
    graph: &BipartiteCsr,
    initial: &Matching,
    algorithm: Algorithm,
    gpu: Option<&VirtualGpu>,
) -> Result<SolveReport, SolveError> {
    match gpu {
        None => Solver::new().solve_with_initial(graph, initial, algorithm),
        Some(device) => {
            let mut engine = engine_for(algorithm)?;
            run_engine(engine.as_mut(), graph, initial, Some(device), &SolveCtx::unbounded())
        }
    }
}

/// The algorithm set compared in the paper's Figures 2–4 and Table I:
/// G-PR (best configuration), G-HKDW, P-DBFS (8 threads), and sequential PR.
pub fn paper_comparison_set() -> Vec<Algorithm> {
    vec![
        Algorithm::gpr_default(),
        Algorithm::ghk(GhkVariant::Hkdw),
        Algorithm::Pdbfs(8),
        Algorithm::SequentialPushRelabel(0.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use serde_json::to_string;

    fn all_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
            Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(10)),
            Algorithm::gpr_default(),
            Algorithm::ghk(GhkVariant::Hk),
            Algorithm::ghk(GhkVariant::Hkdw),
            Algorithm::SequentialPushRelabel(0.5),
            Algorithm::PothenFan,
            Algorithm::HopcroftKarp,
            Algorithm::Hkdw,
            Algorithm::Pdbfs(4),
        ]
    }

    #[test]
    fn every_algorithm_finds_the_same_maximum() {
        let g = gen::uniform_random(120, 110, 650, 42).unwrap();
        let opt = maximum_matching_cardinality(&g);
        for alg in all_algorithms() {
            let report = solve(&g, alg).unwrap();
            assert_eq!(report.cardinality, opt, "{}", report.algorithm);
            assert!(is_maximum(&g, &report.matching), "{}", report.algorithm);
            assert!(report.initial_cardinality <= opt);
            assert!(report.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn gpu_algorithms_report_device_stats() {
        let g = gen::rmat(gen::RmatParams::web_like(8, 4), 3).unwrap();
        let report = solve(&g, Algorithm::gpr_default()).unwrap();
        assert!(report.device_stats.is_some());
        assert!(report.modelled_device_seconds.unwrap() > 0.0);
        assert!(report.comparable_seconds() > 0.0);

        let report = solve(&g, Algorithm::SequentialPushRelabel(0.5)).unwrap();
        assert!(report.device_stats.is_none());
        assert_eq!(report.comparable_seconds(), report.wall_seconds);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Algorithm::gpr_default().label(), "G-PR-Shr");
        assert_eq!(Algorithm::ghk(GhkVariant::Hkdw).label(), "G-HKDW");
        assert_eq!(Algorithm::SequentialPushRelabel(0.5).label(), "PR");
        assert_eq!(Algorithm::Pdbfs(8).label(), "P-DBFS");
        assert!(Algorithm::gpr_default().is_gpu());
        assert!(!Algorithm::PothenFan.is_gpu());
    }

    #[test]
    fn display_labels_round_trip() {
        for alg in all_algorithms() {
            let label = alg.to_string();
            let parsed: Algorithm = label.parse().unwrap();
            assert_eq!(parsed, alg, "{label}");
        }
        assert_eq!(Algorithm::gpr_default().to_string(), "G-PR-Shr@adaptive:0.7");
        assert_eq!(Algorithm::Pdbfs(8).to_string(), "P-DBFS@8");
        assert_eq!(Algorithm::SequentialPushRelabel(0.5).to_string(), "PR@0.5");
    }

    #[test]
    fn parsing_accepts_defaults_and_rejects_junk() {
        assert_eq!("G-PR-Shr".parse::<Algorithm>().unwrap(), Algorithm::gpr_default());
        assert_eq!("PR".parse::<Algorithm>().unwrap(), Algorithm::SequentialPushRelabel(0.5));
        assert_eq!("P-DBFS".parse::<Algorithm>().unwrap(), Algorithm::Pdbfs(8));
        assert_eq!("G-HK".parse::<Algorithm>().unwrap(), Algorithm::ghk(GhkVariant::Hk));
        assert!("G-XX".parse::<Algorithm>().is_err());
        assert!("HK@3".parse::<Algorithm>().is_err());
        assert!("PR@fast".parse::<Algorithm>().is_err());
        assert!("P-DBFS@-1".parse::<Algorithm>().is_err());
        assert!("G-PR-Shr@every:3".parse::<Algorithm>().is_err());
    }

    #[test]
    fn algorithms_are_hashable_map_keys() {
        let mut set = std::collections::HashSet::new();
        for alg in all_algorithms() {
            assert!(set.insert(alg));
        }
        assert!(!set.insert(Algorithm::gpr_default()));
        assert_eq!(set.len(), all_algorithms().len());
    }

    #[test]
    fn algorithm_and_report_serialize() {
        let json = to_string(&Algorithm::gpr_default()).unwrap();
        assert_eq!(json, "\"G-PR-Shr@adaptive:0.7\"");
        let g = gen::uniform_random(20, 20, 80, 7).unwrap();
        let report = solve(&g, Algorithm::HopcroftKarp).unwrap();
        let json = to_string(&report).unwrap();
        assert!(json.contains("\"algorithm\""));
        assert!(json.contains("\"cardinality\""));
        assert!(json.contains("\"modelled_device_seconds\":null"));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Algorithm::SequentialPushRelabel(f64::NAN).validate().is_err());
        assert!(Algorithm::SequentialPushRelabel(-0.5).validate().is_err());
        assert!(Algorithm::SequentialPushRelabel(0.5).validate().is_ok());
        assert!(Algorithm::Pdbfs(0).validate().is_err());
        assert!(Algorithm::Pdbfs(1).validate().is_ok());
        assert!(Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(f64::NAN))
            .validate()
            .is_err());
        assert!(Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(-1.0)).validate().is_err());
        assert!(Algorithm::gpr_default().validate().is_ok());
    }

    #[test]
    fn solver_session_reuses_warm_engines() {
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("valid solver config");
        let g = gen::uniform_random(80, 80, 420, 5).unwrap();
        let opt = maximum_matching_cardinality(&g);
        assert_eq!(solver.warm_engine_count(), 0);
        for _ in 0..3 {
            let report = solver.solve(&g, Algorithm::gpr_default()).unwrap();
            assert_eq!(report.cardinality, opt);
        }
        assert_eq!(solver.warm_engine_count(), 1);
        solver.solve(&g, Algorithm::HopcroftKarp).unwrap();
        assert_eq!(solver.warm_engine_count(), 2);
        solver.clear();
        assert_eq!(solver.warm_engine_count(), 0);
        assert!(solver.device().is_none());
    }

    #[test]
    fn cpu_only_policy_rejects_gpu_algorithms() {
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::CpuOnly)
            .build()
            .expect("valid solver config");
        let g = gen::uniform_random(30, 30, 120, 6).unwrap();
        let err = solver.solve(&g, Algorithm::gpr_default()).unwrap_err();
        assert!(matches!(err, SolveError::DeviceRequired { .. }));
        // CPU algorithms still work.
        let report = solver.solve(&g, Algorithm::PothenFan).unwrap();
        assert_eq!(report.cardinality, maximum_matching_cardinality(&g));
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let g = gen::uniform_random(10, 10, 40, 8).unwrap();
        let wrong = Matching::empty(9, 10);
        let mut solver = Solver::new();
        let err = solver.solve_with_initial(&g, &wrong, Algorithm::HopcroftKarp).unwrap_err();
        assert!(matches!(err, SolveError::ShapeMismatch { .. }));
        let err = solve_with_initial(&g, &wrong, Algorithm::PothenFan, None).unwrap_err();
        assert!(matches!(err, SolveError::ShapeMismatch { .. }));
    }

    #[test]
    fn solve_batch_mixes_successes_and_failures() {
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("valid solver config");
        let g1 = gen::uniform_random(40, 40, 200, 1).unwrap();
        let g2 = gen::planted_perfect(30, 90, 2).unwrap();
        let jobs = vec![
            (&g1, Algorithm::gpr_default()),
            (&g2, Algorithm::Pdbfs(0)), // invalid: zero threads
            (&g2, Algorithm::HopcroftKarp),
        ];
        let results = solver.solve_batch(jobs);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SolveError::InvalidConfig { .. })));
        assert_eq!(results[2].as_ref().unwrap().cardinality, 30);
    }

    #[test]
    fn init_heuristics_are_pluggable() {
        let g = gen::uniform_random(50, 50, 260, 4).unwrap();
        let opt = maximum_matching_cardinality(&g);
        for init in [InitHeuristic::Empty, InitHeuristic::Cheap, InitHeuristic::KarpSipser] {
            let mut solver = Solver::builder()
                .device_policy(DevicePolicy::Sequential)
                .init_heuristic(init)
                .build()
                .expect("valid solver config");
            let report = solver.solve(&g, Algorithm::gpr_default()).unwrap();
            assert_eq!(report.cardinality, opt, "{init:?}");
            if init == InitHeuristic::Empty {
                assert_eq!(report.initial_cardinality, 0);
            }
        }
    }

    #[test]
    fn init_heuristic_labels_round_trip() {
        for init in [InitHeuristic::Empty, InitHeuristic::Cheap, InitHeuristic::KarpSipser] {
            let label = init.to_string();
            assert_eq!(label.parse::<InitHeuristic>().unwrap(), init, "{label}");
        }
        assert_eq!("cheap".parse::<InitHeuristic>().unwrap(), InitHeuristic::Cheap);
        let err = "greedy".parse::<InitHeuristic>().unwrap_err();
        assert!(err.to_string().contains("greedy"));
        assert!(err.to_string().contains("karp-sipser"));
    }

    #[test]
    fn paper_comparison_set_has_four_algorithms() {
        let set = paper_comparison_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().filter(|a| a.is_gpu()).count(), 2);
    }

    #[test]
    fn shared_gpu_device_can_be_reused() {
        let g = gen::uniform_random(80, 80, 400, 5).unwrap();
        let init = cheap_matching(&g);
        let gpu = VirtualGpu::sequential();
        let a = solve_with_initial(&g, &init, Algorithm::gpr_default(), Some(&gpu)).unwrap();
        let b = solve_with_initial(&g, &init, Algorithm::ghk(GhkVariant::Hk), Some(&gpu)).unwrap();
        assert_eq!(a.cardinality, b.cardinality);
        // The device accumulated launches from both runs, but each report
        // contains only its own.
        let total = gpu.stats().total_launches();
        let sum =
            a.device_stats.unwrap().total_launches() + b.device_stats.unwrap().total_launches();
        assert_eq!(total, sum);
    }
}
