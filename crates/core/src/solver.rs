//! The unified, session-style front-end over every matching algorithm.
//!
//! The center of the API is [`Solver`], built via [`Solver::builder`]: a
//! reusable session that owns the device policy (which [`VirtualGpu`] GPU
//! algorithms run on) and one warm workspace per engine family it has run —
//! G-PR's, G-HK/G-HKDW's and sequential PR's, each shared by every label of
//! its family — so repeated solves reuse the warm working buffers, the setup
//! cost the paper excludes from its reported runtimes.  Workspace buffers
//! are reshaped to each graph and the device's scratch buffers are reused
//! best-fit, so the session's warm memory is bounded by its largest graph
//! however many labels and graph shapes it runs.
//!
//! Every solve goes through [`Solver::run`] with a [`SolveRequest`]: the
//! algorithm, where the solve [`Start`]s (an init heuristic, a given
//! matching, or a warm start from a parent graph's matching and the delta
//! that made this graph), and the cancellation/deadline context.  Every
//! solve is fallible and returns `Result<SolveReport, SolveError>`.
//!
//! ```
//! use gpm_core::solver::{Algorithm, SolveRequest, Solver, Start};
//! use gpm_core::InitHeuristic;
//! use gpm_graph::gen;
//!
//! let mut solver = Solver::builder().build().unwrap();
//! let graph = gen::planted_perfect(300, 1_200, 7).unwrap();
//! let report = solver.run(&graph, SolveRequest::new(Algorithm::gpr_default())).unwrap();
//! assert_eq!(report.cardinality, 300);
//! // The same session solves again with warm buffers, any algorithm and
//! // any start:
//! let request = SolveRequest {
//!     start: Start::Heuristic(InitHeuristic::KarpSipser),
//!     ..SolveRequest::new(Algorithm::HopcroftKarp)
//! };
//! assert_eq!(solver.run(&graph, request).unwrap().cardinality, 300);
//! ```

use crate::cancel::SolveCtx;
use crate::engine::Workspaces;
use crate::error::{ParseAlgorithmError, ParseInitHeuristicError, SolveError};
use crate::ghk::GhkVariant;
use crate::gpr::GprVariant;
use crate::resolve::warm_start;
use crate::strategy::GrStrategy;
use gpm_gpu::{
    Backend, DeviceStats, ExecMode, ExecutorConfig, GpuConfig, VirtualGpu, WorklistMode,
};
use gpm_graph::heuristics::{cheap_matching, karp_sipser};
use gpm_graph::{BipartiteCsr, GraphDelta, Matching};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// The most threads a P-DBFS label may ask for (`P-DBFS@256`):
/// [`Algorithm::validate`] rejects more.  P-DBFS runs one OS thread per
/// chunk of free columns in every phase, so without a bound one label could
/// ask a service worker for millions of threads.  The paper uses 8, as does
/// every P-DBFS run of the benchmarks.
pub const MAX_PDBFS_THREADS: usize = 256;

/// Every matching algorithm available in the workspace.
///
/// `Algorithm` is a small value type: `Copy`, hashable, and round-trippable
/// through [`fmt::Display`] / [`FromStr`] with labels like
/// `G-PR-Shr@adaptive:0.7` or `G-PR-Shr@adaptive:0.7+queue` (see the
/// `FromStr` impl for the grammar).
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

    /// The round-trippable label without the numbers in it: the G-PR
    /// strategy keeps only its kind, `PR` and `P-DBFS` lose their
    /// parameter, and the worklist and exec suffixes stay
    /// (`G-PR-Shr@adaptive`, `G-PR-NoShr@fix+blocked@resident`,
    /// `G-HKDW+queue`, `PR`, `P-DBFS`).  Labels that differ only in a
    /// number share it, so it takes at most 69 distinct values: a
    /// bounded key for per-algorithm accounting.
    pub fn label_without_parameters(&self) -> String {
        let mut label = String::new();
        self.write_label(&mut label, false).expect("writing to a String cannot fail");
        label
    }

    /// Writes the [`fmt::Display`] label, or with `parameters` false
    /// [`Algorithm::label_without_parameters`].
    fn write_label(&self, out: &mut dyn fmt::Write, parameters: bool) -> fmt::Result {
        let gpu_suffixes = |out: &mut dyn fmt::Write, worklist, default, exec| {
            if worklist != default {
                write!(out, "+{worklist}")?;
            }
            match exec {
                ExecMode::Persistent => write!(out, "@{exec}"),
                ExecMode::LaunchPerRound => Ok(()),
            }
        };
        match *self {
            Algorithm::GpuPushRelabel(variant, strategy, worklist, exec) => {
                write!(out, "{}@", variant.label())?;
                match strategy {
                    _ if parameters => write!(out, "{strategy}")?,
                    GrStrategy::Fixed(_) => out.write_str("fix")?,
                    GrStrategy::Adaptive(_) => out.write_str("adaptive")?,
                }
                gpu_suffixes(out, worklist, variant.default_worklist(), exec)
            }
            Algorithm::GpuHopcroftKarp(variant, worklist, exec) => {
                out.write_str(variant.label())?;
                gpu_suffixes(out, worklist, variant.default_worklist(), exec)
            }
            Algorithm::SequentialPushRelabel(k) if parameters => write!(out, "PR@{k}"),
            Algorithm::Pdbfs(threads) if parameters => write!(out, "P-DBFS@{threads}"),
            _ => out.write_str(&self.label()),
        }
    }

    /// `true` for the algorithms that run on the virtual GPU.
    pub fn is_gpu(&self) -> bool {
        matches!(self, Algorithm::GpuPushRelabel(..) | Algorithm::GpuHopcroftKarp(..))
    }

    /// Checks the algorithm's parameters, returning
    /// [`SolveError::InvalidConfig`] for values the solvers cannot run with
    /// (NaN/negative global-relabel factors, and P-DBFS thread counts of
    /// zero or above [`MAX_PDBFS_THREADS`]).
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
            Algorithm::Pdbfs(t) if t > MAX_PDBFS_THREADS => {
                Err(invalid(format!("thread count must be at most {MAX_PDBFS_THREADS}, got {t}")))
            }
            Algorithm::GpuPushRelabel(_, GrStrategy::Adaptive(k), ..)
                if !k.is_finite() || k <= 0.0 =>
            {
                Err(invalid(format!("adaptive GR factor must be finite and positive, got {k}")))
            }
            _ => Ok(()),
        }
    }

    /// A collision-free key: variant discriminants plus the bit patterns of
    /// numeric parameters.  Backs `Eq`/`Hash` so algorithms can key maps
    /// (NaN parameters compare by their bits; [`Algorithm::validate`]
    /// rejects them).  The last byte packs the worklist mode in its low
    /// nibble and the exec mode in its high nibble.
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
        self.write_label(f, true)
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
    /// Columns the initial matching left unmatched (columns it marks
    /// unmatchable excluded): the frontier the engines seed their worklists
    /// from.  After a warm start it is proportional to the delta, not to
    /// the graph.
    pub seeded_frontier: usize,
    /// Matched pairs of a warm start's previous matching that the delta
    /// invalidated (0 for every other start, and when the warm start fell
    /// back).
    pub dropped_pairs: usize,
    /// `true` when a warm start discarded its repaired matching and started
    /// from its fallback heuristic instead: delta churn above
    /// [`crate::WARM_START_CHURN_LIMIT`], or a repaired frontier not
    /// [`crate::resolve::WARM_START_FRONTIER_ADVANTAGE`]× smaller than the
    /// heuristic's.  `false` for every other start.
    pub fell_back_to_cold: bool,
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
/// algorithm label, cardinalities, and timings.  The matching itself, the
/// per-kernel statistics, and the warm-start facts are deliberately omitted
/// (they are bulky or have dedicated fields).
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

/// The initialization heuristic a [`Start`] builds the starting matching
/// with (the paper's "common initialization").
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

/// Where a solve starts.
#[derive(Clone, Copy, Debug)]
pub enum Start<'a> {
    /// The matching an initialization heuristic builds.
    Heuristic(InitHeuristic),
    /// A given matching of the graph ([`SolveError::ShapeMismatch`] when
    /// its shape differs from the graph's).
    Matching(&'a Matching),
    /// A warm start: `previous`, a matching of the graph `delta` was applied
    /// to, projected onto this graph, dropping only the pairs the delta
    /// invalidated.  The engines seed their worklists with the unmatched
    /// columns, so the work is proportional to the change, not to the
    /// graph.  The start falls back to the `fallback` heuristic when the
    /// delta churned more than [`crate::WARM_START_CHURN_LIMIT`] of this
    /// graph's edges, or when the repaired frontier is not
    /// [`crate::resolve::WARM_START_FRONTIER_ADVANTAGE`]× smaller than the
    /// heuristic's; see [`crate::resolve`].
    Warm {
        /// The last matching of the parent graph.
        previous: &'a Matching,
        /// The change that made this graph from the parent.
        delta: &'a GraphDelta,
        /// The heuristic of the cold start the warm start falls back to.
        fallback: InitHeuristic,
    },
}

impl<'a> Start<'a> {
    /// The starting matching for `graph`, the pairs a warm start dropped,
    /// and whether it fell back to its heuristic.
    fn initial(self, graph: &BipartiteCsr) -> (Cow<'a, Matching>, usize, bool) {
        match self {
            Start::Heuristic(init) => (Cow::Owned(init.build(graph)), 0, false),
            Start::Matching(initial) => (Cow::Borrowed(initial), 0, false),
            Start::Warm { previous, delta, fallback } => {
                let (initial, dropped, fell_back) = warm_start(graph, previous, delta, fallback);
                (Cow::Owned(initial), dropped, fell_back)
            }
        }
    }
}

/// One solve for [`Solver::run`]: build it with [`SolveRequest::new`] and
/// struct-update syntax, e.g.
/// `SolveRequest { start: Start::Matching(&m), ..SolveRequest::new(alg) }`.
#[derive(Clone, Debug)]
pub struct SolveRequest<'a> {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Where the solve starts (default: the cheap greedy heuristic).
    pub start: Start<'a>,
    /// Cancellation and deadline signals (default: unbounded).  GPU engines
    /// poll them at worklist-round granularity and fail with
    /// [`SolveError::Cancelled`] / [`SolveError::DeadlineExceeded`], naming
    /// the rounds completed and the cardinality of the consistent partial
    /// matching they stopped at.  CPU engines are not round-interruptible;
    /// for them (and for everything else) an already-tripped signal fails
    /// fast before the engine runs, reporting zero rounds.
    pub ctx: SolveCtx,
}

impl SolveRequest<'_> {
    /// A request for `algorithm` from the cheap greedy matching (the
    /// paper's common initialization), with no deadline or cancellation.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            start: Start::Heuristic(InitHeuristic::default()),
            ctx: SolveCtx::unbounded(),
        }
    }
}

/// Configures and creates a [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverBuilder {
    policy: DevicePolicy,
    executor: ExecutorConfig,
}

impl SolverBuilder {
    /// Sets the device policy (default: [`DevicePolicy::Auto`]).
    pub fn device_policy(mut self, policy: DevicePolicy) -> Self {
        self.policy = policy;
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

    /// Builds the solver session, validating the configuration first: a
    /// zero executor chunk size is a structured
    /// [`SolveError::InvalidConfig`] here instead of a surprise inside the
    /// device loop.  No device or workspace is allocated until the first
    /// solve that needs it.
    pub fn build(self) -> Result<Solver, SolveError> {
        if let Err(reason) = self.executor.validate() {
            return Err(SolveError::InvalidConfig { algorithm: "device executor".into(), reason });
        }
        Ok(Solver {
            policy: self.policy,
            executor: self.executor,
            device: None,
            workspaces: Workspaces::default(),
        })
    }
}

/// A reusable solve session: owns the device and one warm workspace per
/// engine family it has run (G-PR, G-HK/G-HKDW, sequential PR), shared by
/// every label of the family.  PF+, HK, HKDW and P-DBFS keep no state
/// between solves.
pub struct Solver {
    policy: DevicePolicy,
    executor: ExecutorConfig,
    device: Option<VirtualGpu>,
    workspaces: Workspaces,
}

impl Solver {
    /// Starts configuring a solver session.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// A solver with the default policy (auto-parallel device).
    pub fn new() -> Self {
        Self::builder().build().expect("default solver configuration is valid")
    }

    /// The session's device policy.
    pub fn device_policy(&self) -> DevicePolicy {
        self.policy
    }

    /// The executor tuning the session's device is (or will be) created
    /// with.
    pub fn executor_config(&self) -> ExecutorConfig {
        self.executor
    }

    /// The session's device, if one has been created by a GPU solve.
    /// Useful for inspecting accumulated [`DeviceStats`].
    pub fn device(&self) -> Option<&VirtualGpu> {
        self.device.as_ref()
    }

    /// Number of warm workspaces the session holds: one per engine family
    /// that keeps state and has run, so at most 3 whatever the labels.
    pub fn warm_workspace_count(&self) -> usize {
        self.workspaces.len()
    }

    /// Drops all warm workspaces and the device, returning the session to
    /// its just-built state.
    pub fn clear(&mut self) {
        self.workspaces = Workspaces::default();
        self.device = None;
    }

    /// Solves `graph` as `request` asks: builds the starting matching,
    /// runs the algorithm's engine from it on its family's warm workspace,
    /// and reports the result.
    pub fn run(
        &mut self,
        graph: &BipartiteCsr,
        request: SolveRequest<'_>,
    ) -> Result<SolveReport, SolveError> {
        let SolveRequest { algorithm, start, ctx } = request;
        // Validate before paying for the start or creating a device, so an
        // invalid GPU config is InvalidConfig even on a CPU-only session.
        algorithm.validate()?;
        let (initial, dropped_pairs, fell_back_to_cold) = start.initial(graph);
        if initial.num_rows() != graph.num_rows() || initial.num_cols() != graph.num_cols() {
            return Err(SolveError::ShapeMismatch {
                graph: (graph.num_rows(), graph.num_cols()),
                initial: (initial.num_rows(), initial.num_cols()),
            });
        }
        // Fail fast on an already-tripped signal so even the CPU engines
        // (which run uninterruptibly) honour a pre-start cancel or an
        // expired deadline.
        if let Some(reason) = ctx.check() {
            return Err(reason.into_error(0, 0));
        }
        if algorithm.is_gpu() && self.device.is_none() {
            self.device = self.policy.create_device(self.executor);
        }
        let out = self.workspaces.solve(algorithm, graph, &initial, self.device.as_ref(), &ctx)?;
        Ok(SolveReport {
            algorithm: algorithm.label(),
            cardinality: out.matching.cardinality(),
            matching: out.matching,
            initial_cardinality: initial.cardinality(),
            seeded_frontier: initial.unmatched_cols(false).len(),
            dropped_pairs,
            fell_back_to_cold,
            wall_seconds: out.wall_seconds,
            modelled_device_seconds: out.device_stats.as_ref().map(|s| s.modelled_time_secs()),
            device_stats: out.device_stats,
        })
    }

    /// Solves `child` warm from `previous`, a matching of the graph `delta`
    /// made it from, falling back to the cheap heuristic: a shim over
    /// [`Solver::run`] with a [`Start::Warm`] request.
    pub fn resolve_prepared_ctx(
        &mut self,
        child: &BipartiteCsr,
        previous: &Matching,
        delta: &GraphDelta,
        algorithm: Algorithm,
        ctx: &SolveCtx,
    ) -> Result<SolveReport, SolveError> {
        let fallback = InitHeuristic::Cheap;
        let start = Start::Warm { previous, delta, fallback };
        self.run(child, SolveRequest { algorithm, start, ctx: ctx.clone() })
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
            .field("warm_workspaces", &self.workspaces.len())
            .finish()
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
    use std::collections::HashSet;

    #[test]
    fn labels_without_parameters_drop_only_the_numbers() {
        let label = |s: &str| s.parse::<Algorithm>().unwrap().label_without_parameters();
        assert_eq!(label("G-PR-Shr@adaptive:0.7"), "G-PR-Shr@adaptive");
        assert_eq!(
            label("G-PR-Shr@adaptive:0.35+blocked@resident"),
            "G-PR-Shr@adaptive+blocked@resident"
        );
        assert_eq!(label("G-PR-NoShr@fix:10+queue"), "G-PR-NoShr@fix+queue");
        assert_eq!(label("G-HKDW+compacted"), "G-HKDW+compacted");
        assert_eq!(label("PR@0.25"), "PR");
        assert_eq!(label("P-DBFS@4"), "P-DBFS");
        assert_eq!(label("HKDW"), "HKDW");
        // Every combination of variant, strategy kind, worklist and exec
        // mode, plus the five CPU families: 69 keys, however many
        // parameters each takes.
        let mut keys = HashSet::new();
        for exec in ExecMode::all() {
            for worklist in WorklistMode::all() {
                for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
                    for strategy in [1, 2]
                        .map(GrStrategy::Fixed)
                        .into_iter()
                        .chain([0.5, 0.7].map(GrStrategy::Adaptive))
                    {
                        keys.insert(Algorithm::GpuPushRelabel(variant, strategy, worklist, exec));
                    }
                }
                for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                    keys.insert(Algorithm::GpuHopcroftKarp(variant, worklist, exec));
                }
            }
        }
        keys.extend([0.5, 1.0].map(Algorithm::SequentialPushRelabel));
        keys.extend([1, 8].map(Algorithm::Pdbfs));
        keys.extend([Algorithm::PothenFan, Algorithm::HopcroftKarp, Algorithm::Hkdw]);
        let labels: HashSet<String> =
            keys.iter().map(Algorithm::label_without_parameters).collect();
        assert_eq!((keys.len(), labels.len()), (119, 69));
    }

    /// One solve on a throwaway session.
    fn solve(graph: &BipartiteCsr, algorithm: Algorithm) -> Result<SolveReport, SolveError> {
        Solver::new().run(graph, SolveRequest::new(algorithm))
    }

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
        assert!(Algorithm::Pdbfs(MAX_PDBFS_THREADS).validate().is_ok());
        assert!(Algorithm::Pdbfs(MAX_PDBFS_THREADS + 1).validate().is_err());
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
        assert_eq!(solver.warm_workspace_count(), 0);
        for _ in 0..3 {
            let report = solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
            assert_eq!(report.cardinality, opt);
        }
        assert_eq!(solver.warm_workspace_count(), 1);
        // HK keeps no state; another G-PR label shares G-PR's workspace.
        solver.run(&g, SolveRequest::new(Algorithm::HopcroftKarp)).unwrap();
        let fixed = Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(10));
        solver.run(&g, SolveRequest::new(fixed)).unwrap();
        assert_eq!(solver.warm_workspace_count(), 1);
        solver.run(&g, SolveRequest::new(Algorithm::ghk(GhkVariant::Hk))).unwrap();
        solver.run(&g, SolveRequest::new(Algorithm::SequentialPushRelabel(0.5))).unwrap();
        assert_eq!(solver.warm_workspace_count(), 3);
        solver.clear();
        assert_eq!(solver.warm_workspace_count(), 0);
        assert!(solver.device().is_none());
    }

    #[test]
    fn cpu_only_policy_rejects_gpu_algorithms() {
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::CpuOnly)
            .build()
            .expect("valid solver config");
        let g = gen::uniform_random(30, 30, 120, 6).unwrap();
        let err = solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap_err();
        assert!(matches!(err, SolveError::DeviceRequired { .. }));
        // CPU algorithms still work.
        let report = solver.run(&g, SolveRequest::new(Algorithm::PothenFan)).unwrap();
        assert_eq!(report.cardinality, maximum_matching_cardinality(&g));
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let g = gen::uniform_random(10, 10, 40, 8).unwrap();
        let wrong = Matching::empty(9, 10);
        let mut solver = Solver::new();
        for algorithm in [Algorithm::HopcroftKarp, Algorithm::PothenFan] {
            let request =
                SolveRequest { start: Start::Matching(&wrong), ..SolveRequest::new(algorithm) };
            let err = solver.run(&g, request).unwrap_err();
            assert!(matches!(err, SolveError::ShapeMismatch { .. }), "{algorithm}");
        }
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
        // One failed job does not abort the rest: each gets its own Result.
        let results: Vec<_> =
            jobs.into_iter().map(|(g, alg)| solver.run(g, SolveRequest::new(alg))).collect();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SolveError::InvalidConfig { .. })));
        assert_eq!(results[2].as_ref().unwrap().cardinality, 30);
    }

    #[test]
    fn init_heuristics_are_pluggable() {
        let g = gen::uniform_random(50, 50, 260, 4).unwrap();
        let opt = maximum_matching_cardinality(&g);
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("valid solver config");
        for init in [InitHeuristic::Empty, InitHeuristic::Cheap, InitHeuristic::KarpSipser] {
            let start = Start::Heuristic(init);
            let report = solver
                .run(&g, SolveRequest { start, ..SolveRequest::new(Algorithm::gpr_default()) });
            let report = report.unwrap();
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
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("valid solver config");
        let a = solver.run(&g, SolveRequest::new(Algorithm::gpr_default())).unwrap();
        let b = solver.run(&g, SolveRequest::new(Algorithm::ghk(GhkVariant::Hk))).unwrap();
        assert_eq!(a.cardinality, b.cardinality);
        // The session's device accumulated launches from both runs, but
        // each report contains only its own.
        let total = solver.device().unwrap().stats().total_launches();
        let sum =
            a.device_stats.unwrap().total_launches() + b.device_stats.unwrap().total_launches();
        assert_eq!(total, sum);
    }
}
