//! Minimal command-line parsing shared by the figure/table binaries.
//!
//! All binaries accept:
//!
//! * `--scale tiny|small|medium|large` — instance scale (default: `small`);
//! * `--suite mini|full` — the 8-instance mini suite or the full 28-instance
//!   suite (default: `full`);
//! * `--algorithms <spec,...>` — comma-separated algorithm labels parsed via
//!   `Algorithm::from_str` (e.g. `G-PR-Shr@adaptive:0.7,P-DBFS@4,PR`),
//!   overriding the paper's four-algorithm comparison set;
//! * `--json <path>` — additionally write the raw measurements as JSON.

use gpm_core::solver::{self, Algorithm};
use gpm_graph::instances::{self, InstanceSpec, Scale};

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Instance scale.
    pub scale: Scale,
    /// Selected instance specs.
    pub suite: Vec<InstanceSpec>,
    /// Human-readable suite name ("full" or "mini").
    pub suite_name: String,
    /// Algorithm selection from `--algorithms`, if given.
    pub algorithms: Option<Vec<Algorithm>>,
    /// Optional path for a JSON dump of the measurements.
    pub json_path: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            suite: instances::paper_suite(),
            suite_name: "full".to_string(),
            algorithms: None,
            json_path: None,
        }
    }
}

impl Options {
    /// The algorithms to compare: the `--algorithms` selection, or the
    /// paper's four-algorithm comparison set.
    pub fn comparison_algorithms(&self) -> Vec<Algorithm> {
        self.algorithms.clone().unwrap_or_else(solver::paper_comparison_set)
    }
}

/// Parses options from an argument iterator (excluding the program name).
/// Unknown arguments produce an error message listing the supported flags.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let value = it.next().ok_or("--scale requires a value")?;
                opts.scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--suite" => {
                let value = it.next().ok_or("--suite requires a value")?;
                match value.as_str() {
                    "full" => {
                        opts.suite = instances::paper_suite();
                        opts.suite_name = "full".into();
                    }
                    "mini" => {
                        opts.suite = instances::mini_suite();
                        opts.suite_name = "mini".into();
                    }
                    other => return Err(format!("unknown suite '{other}'")),
                }
            }
            "--algorithms" => {
                let value = it.next().ok_or("--algorithms requires a comma-separated list")?;
                let algorithms: Vec<Algorithm> = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        let alg: Algorithm = s.parse().map_err(|e| format!("{e}"))?;
                        alg.validate().map_err(|e| format!("{e}"))?;
                        Ok(alg)
                    })
                    .collect::<Result<_, String>>()?;
                if algorithms.is_empty() {
                    return Err("--algorithms requires at least one algorithm".into());
                }
                opts.algorithms = Some(algorithms);
            }
            "--json" => {
                opts.json_path = Some(it.next().ok_or("--json requires a path")?);
            }
            "--help" | "-h" => {
                return Err(usage());
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Usage string shared by all binaries.
pub fn usage() -> String {
    "usage: <binary> [--scale tiny|small|medium|large] [--suite full|mini] \
     [--algorithms <spec,...>] [--json <path>]\n\
     algorithm specs: G-PR-First|G-PR-NoShr|G-PR-Shr[@adaptive:<k>|@fix:<k>], \
     G-HK, G-HKDW, PR[@<k>], PFP, HK, HKDW, P-DBFS[@<threads>]\n\
     GPU specs accept a worklist suffix +dense|+compacted|+queue|+blocked \
     (e.g. G-PR-Shr@adaptive:0.7+queue, G-HKDW+blocked) and a final \
     execution-mode suffix @launch|@resident \
     (e.g. G-PR-Shr@adaptive:0.7+blocked@resident); \
     see gpm-bench --list-algorithms for the full grammar"
        .to_string()
}

/// The full algorithm-label grammar, enumerated: the grammar rule, then
/// every GPU family × worklist mode × execution mode, then the CPU
/// baselines.  Every non-comment line after a section header is a
/// round-trippable [`Algorithm`] label (`gpm-bench --list-algorithms`).
pub fn label_grammar() -> String {
    use gpm_core::{ExecMode, GhkVariant, GprVariant, GrStrategy, WorklistMode};
    let mut out = String::from(
        "algorithm label grammar:\n\
         \u{20} <family>[@<strategy>][+<worklist>][@<exec>]\n\
         \u{20} families:  G-PR-First | G-PR-NoShr | G-PR-Shr  \
         (strategy @adaptive:<k> | @fix:<k>, default @adaptive:0.7)\n\
         \u{20}            G-HK | G-HKDW | PR[@<k>] | PFP | HK | HKDW | P-DBFS[@<threads>]\n\
         \u{20} worklist (GPU only):  +dense | +compacted | +queue | +blocked  \
         (default: the family's paper representation, printed suffix-free)\n\
         \u{20} exec (GPU only):  @launch (default: one kernel launch per round) | \
         @resident (same execution, priced as one persistent megakernel: \
         an entry launch, then a global-barrier crossing per round)\n",
    );
    out.push_str("\nGPU labels (family x worklist x exec):\n");
    for algorithm in [
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::paper_default()),
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::ghk(GhkVariant::Hkdw),
    ] {
        for mode in WorklistMode::all() {
            for exec in ExecMode::all() {
                out.push_str("  ");
                out.push_str(&algorithm.with_worklist(mode).with_exec(exec).to_string());
                out.push('\n');
            }
        }
    }
    out.push_str("\nCPU labels (shown with their defaults spelled out):\n");
    for algorithm in [
        Algorithm::SequentialPushRelabel(0.5),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(8),
    ] {
        out.push_str("  ");
        out.push_str(&algorithm.to_string());
        out.push('\n');
    }
    out
}

/// Parses `std::env::args()` and exits with a message on error.
pub fn parse_or_exit() -> Options {
    match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Writes measurements as JSON if `--json` was given.
pub fn maybe_write_json<T: serde::Serialize>(opts: &Options, value: &T) {
    if let Some(path) = &opts.json_path {
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("warning: could not write {path}: {e}");
                }
            }
            Err(e) => eprintln!("warning: could not serialize results: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_small_full() {
        let o = parse(args(&[])).unwrap();
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.suite.len(), 28);
        assert_eq!(o.suite_name, "full");
        assert!(o.json_path.is_none());
    }

    #[test]
    fn parses_scale_suite_and_json() {
        let o =
            parse(args(&["--scale", "tiny", "--suite", "mini", "--json", "/tmp/x.json"])).unwrap();
        assert_eq!(o.scale, Scale::Tiny);
        assert!(o.suite.len() < 28);
        assert_eq!(o.json_path.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn rejects_unknown_arguments_and_values() {
        assert!(parse(args(&["--scale", "huge"])).is_err());
        assert!(parse(args(&["--suite", "everything"])).is_err());
        assert!(parse(args(&["--frobnicate"])).is_err());
        assert!(parse(args(&["--scale"])).is_err());
        assert!(parse(args(&["--help"])).is_err());
    }

    #[test]
    fn parses_algorithm_specs_via_fromstr() {
        let o = parse(args(&["--algorithms", "G-PR-Shr@adaptive:0.7,P-DBFS@4,PR"])).unwrap();
        let algs = o.algorithms.unwrap();
        assert_eq!(algs.len(), 3);
        assert_eq!(algs[0], gpm_core::solver::Algorithm::gpr_default());
        assert_eq!(algs[1], gpm_core::solver::Algorithm::Pdbfs(4));
        assert_eq!(algs[2], gpm_core::solver::Algorithm::SequentialPushRelabel(0.5));
    }

    #[test]
    fn parses_worklist_mode_suffixes() {
        let o =
            parse(args(&["--algorithms", "G-PR-Shr@adaptive:0.7+queue,G-HKDW+blocked"])).unwrap();
        let algs = o.algorithms.unwrap();
        assert_eq!(
            algs[0],
            gpm_core::solver::Algorithm::gpr_default()
                .with_worklist(gpm_core::WorklistMode::AtomicQueue)
        );
        assert_eq!(
            algs[1],
            gpm_core::solver::Algorithm::ghk(gpm_core::GhkVariant::Hkdw)
                .with_worklist(gpm_core::WorklistMode::BlockedQueue)
        );
        // Junk suffixes are rejected with a parse error.
        assert!(parse(args(&["--algorithms", "G-PR-Shr+stack"])).is_err());
        assert!(parse(args(&["--algorithms", "HK+queue"])).is_err());
    }

    #[test]
    fn parses_exec_mode_suffixes() {
        let o = parse(args(&[
            "--algorithms",
            "G-PR-Shr@adaptive:0.7+blocked@resident,G-HKDW@resident",
        ]))
        .unwrap();
        let algs = o.algorithms.unwrap();
        assert_eq!(
            algs[0],
            gpm_core::solver::Algorithm::gpr_default()
                .with_worklist(gpm_core::WorklistMode::BlockedQueue)
                .with_exec(gpm_core::ExecMode::Persistent)
        );
        assert_eq!(
            algs[1],
            gpm_core::solver::Algorithm::ghk(gpm_core::GhkVariant::Hkdw)
                .with_exec(gpm_core::ExecMode::Persistent)
        );
        assert!(parse(args(&["--algorithms", "HK@resident"])).is_err());
    }

    #[test]
    fn every_enumerated_grammar_label_round_trips() {
        let grammar = label_grammar();
        let mut labels = Vec::new();
        let mut in_labels = false;
        for line in grammar.lines() {
            if line.ends_with(':') {
                in_labels = line.starts_with("GPU labels") || line.starts_with("CPU labels");
                continue;
            }
            if in_labels && !line.trim().is_empty() {
                labels.push(line.trim());
            }
        }
        // 5 GPU families × 4 worklist modes × 2 exec modes + 5 CPU labels.
        assert_eq!(labels.len(), 45, "{grammar}");
        for label in labels {
            let alg: Algorithm = label.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
            // Default suffixes are allowed to vanish when re-printed, but
            // re-parsing the printed form must be a fixed point.
            let printed = alg.to_string();
            assert_eq!(printed.parse::<Algorithm>().unwrap(), alg, "{label}");
        }
        assert!(grammar.contains("@resident"), "{grammar}");
    }

    #[test]
    fn default_comparison_set_is_the_papers() {
        let o = parse(args(&[])).unwrap();
        assert!(o.algorithms.is_none());
        assert_eq!(o.comparison_algorithms().len(), 4);
    }

    #[test]
    fn rejects_bad_or_invalid_algorithm_specs() {
        assert!(parse(args(&["--algorithms", "G-XYZ"])).is_err());
        assert!(parse(args(&["--algorithms", ""])).is_err());
        assert!(parse(args(&["--algorithms"])).is_err());
        // Parses but fails validation: zero threads.
        assert!(parse(args(&["--algorithms", "P-DBFS@0"])).is_err());
    }
}
