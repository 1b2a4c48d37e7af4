//! Instance preparation and measurement plumbing shared by all figure/table
//! binaries and the Criterion benches.

use gpm_core::solver::{self, Algorithm, SolveRequest, Solver, Start};
use gpm_core::{GhkVariant, SolveError};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{InstanceSpec, Scale};
use gpm_graph::{BipartiteCsr, Matching};
use serde::Serialize;

/// A generated instance, ready to be solved: the scaled stand-in graph, the
/// common cheap initial matching, and the maximum cardinality (computed once
/// with Hopcroft–Karp and reused to verify every solver).
pub struct InstanceRun {
    /// The Table I entry this instance stands in for.
    pub spec: InstanceSpec,
    /// Scale at which the stand-in was generated.
    pub scale: Scale,
    /// The generated graph.
    pub graph: BipartiteCsr,
    /// The cheap greedy initial matching (common to all algorithms).
    pub initial: Matching,
    /// Cardinality of the initial matching ("IM" in Table I).
    pub initial_cardinality: usize,
    /// Maximum matching cardinality ("MM" in Table I), computed with HK.
    pub maximum_cardinality: usize,
}

/// Prepares one instance: generates the graph, builds the cheap matching,
/// and computes the reference maximum with Hopcroft–Karp.
pub fn prepare_instance(spec: &InstanceSpec, scale: Scale) -> InstanceRun {
    let graph =
        spec.generate(scale).unwrap_or_else(|e| panic!("generating {} failed: {e}", spec.name));
    let initial = cheap_matching(&graph);
    let initial_cardinality = initial.cardinality();
    let maximum_cardinality = gpm_cpu::hopcroft_karp(&graph, &initial).matching.cardinality();
    InstanceRun {
        spec: spec.clone(),
        scale,
        graph,
        initial,
        initial_cardinality,
        maximum_cardinality,
    }
}

/// One measured (instance, algorithm) pair.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Instance id (1–28, the x-axis of Figure 4).
    pub instance_id: u32,
    /// Instance name (the original UFL matrix it stands in for).
    pub instance_name: String,
    /// Algorithm label (G-PR-Shr, G-HKDW, P-DBFS, PR, …).
    pub algorithm: String,
    /// Full round-trippable algorithm spec (e.g. `G-PR-Shr@adaptive:0.7`),
    /// parseable back with `Algorithm::from_str`.
    pub algorithm_spec: String,
    /// Comparable seconds: modelled device time for GPU algorithms, host
    /// wall-clock for CPU algorithms.
    pub seconds: f64,
    /// Host wall-clock seconds (for reference).
    pub wall_seconds: f64,
    /// Cardinality found by the solver.
    pub cardinality: usize,
    /// Reference maximum cardinality (from HK); always equals `cardinality`.
    pub maximum_cardinality: usize,
    /// Cardinality of the common initial matching.
    pub initial_cardinality: usize,
}

impl Measurement {
    /// The clock [`Measurement::seconds`] is read from: `"modelled"` (the
    /// C2050 cost model) for GPU algorithms, `"host wall"` for CPU ones.
    pub fn clock(&self) -> &'static str {
        match self.algorithm_spec.parse::<Algorithm>().is_ok_and(|a| a.is_gpu()) {
            true => "modelled",
            false => "host wall",
        }
    }
}

/// Solves `instance` with `algorithm` on the given warm [`Solver`] session,
/// verifies the result against the reference maximum, and returns the
/// measurement.  Reusing one session across a suite makes the per-call setup
/// (device creation, buffer allocation) disappear from the harness, matching
/// the paper's methodology of excluding common setup from reported times.
///
/// # Panics
/// Panics if the solver returns a non-maximum matching — a benchmark result
/// from a wrong answer is worse than no result.  Configuration errors are
/// returned as [`SolveError`]s instead.
pub fn measure(
    instance: &InstanceRun,
    algorithm: Algorithm,
    solver: &mut Solver,
) -> Result<Measurement, SolveError> {
    let report = solver.run(
        &instance.graph,
        SolveRequest { start: Start::Matching(&instance.initial), ..SolveRequest::new(algorithm) },
    )?;
    assert_eq!(
        report.cardinality, instance.maximum_cardinality,
        "{} returned a non-maximum matching on {} ({} vs {})",
        report.algorithm, instance.spec.name, report.cardinality, instance.maximum_cardinality
    );
    Ok(Measurement {
        instance_id: instance.spec.id,
        instance_name: instance.spec.name.to_string(),
        algorithm: report.algorithm.clone(),
        algorithm_spec: algorithm.to_string(),
        seconds: report.comparable_seconds(),
        wall_seconds: report.wall_seconds,
        cardinality: report.cardinality,
        maximum_cardinality: instance.maximum_cardinality,
        initial_cardinality: instance.initial_cardinality,
    })
}

/// The four algorithms of the paper's headline comparison (Figures 2–4,
/// Table I): G-PR-Shr (adaptive, 0.7), G-HKDW, P-DBFS (8 threads), PR.
pub fn paper_algorithms() -> Vec<Algorithm> {
    solver::paper_comparison_set()
}

/// Convenience: G-HKDW as an [`Algorithm`].
pub fn ghkdw() -> Algorithm {
    Algorithm::ghk(GhkVariant::Hkdw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::instances;

    #[test]
    fn prepare_and_measure_one_instance() {
        let spec = instances::by_name("amazon0505").unwrap();
        let instance = prepare_instance(&spec, Scale::Tiny);
        assert!(instance.maximum_cardinality >= instance.initial_cardinality);
        assert!(instance.graph.num_rows() >= 256);

        let mut solver = Solver::new();
        for alg in paper_algorithms() {
            let m = measure(&instance, alg, &mut solver).unwrap();
            assert_eq!(m.cardinality, instance.maximum_cardinality);
            assert!(m.seconds >= 0.0);
            assert_eq!(m.instance_id, 1);
            assert_eq!(m.algorithm_spec.parse::<Algorithm>().unwrap(), alg);
        }
        // One warm workspace per family that keeps state (G-PR, G-HKDW and
        // PR; P-DBFS keeps none) was retained by the session.
        assert_eq!(solver.warm_workspace_count(), 3);
    }

    #[test]
    fn measure_surfaces_config_errors_instead_of_panicking() {
        let spec = instances::by_name("amazon0505").unwrap();
        let instance = prepare_instance(&spec, Scale::Tiny);
        let mut solver = Solver::new();
        let err = measure(&instance, Algorithm::Pdbfs(0), &mut solver).unwrap_err();
        assert!(matches!(err, SolveError::InvalidConfig { .. }));
    }

    #[test]
    fn paper_algorithm_labels() {
        let labels: Vec<String> = paper_algorithms().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["G-PR-Shr", "G-HKDW", "P-DBFS", "PR"]);
    }
}
