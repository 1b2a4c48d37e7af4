//! Incremental re-solve: repair the previous matching after a
//! [`GraphDelta`] instead of solving from scratch.
//!
//! The push-relabel formulation is warm-startable — any valid matching is a
//! legal starting state — so when a graph mutates, the cheapest route to the
//! new maximum matching is usually:
//!
//! 1. patch the graph with [`BipartiteCsr::apply_delta`];
//! 2. project the previous matching onto the patched graph
//!    ([`Matching::project_onto`]), dropping only the pairs the delta
//!    invalidated;
//! 3. run the normal engine from that almost-complete matching.  The
//!    engines seed their worklists with the *unmatched* columns of the
//!    initial matching, so the first frontier contains exactly the columns
//!    the delta disturbed — work is proportional to the change, not to the
//!    graph.
//!
//! [`Solver::resolve`] packages those steps; [`ResolveReport`] records how
//! much warm state survived (dropped pairs, seeded frontier, device rounds)
//! so callers — and the test suite — can verify the work really was
//! sub-linear.  When a warm start cannot help — the delta is too large, or
//! the repaired matching would start the engine from no smaller a frontier
//! than the init heuristic does — the solver falls back to a cold solve and
//! says so in the report.

use crate::cancel::SolveCtx;
use crate::error::SolveError;
use crate::solver::{Algorithm, SolveReport, Solver};
use gpm_graph::{BipartiteCsr, DeltaLineage, GraphDelta, Matching};

/// When the delta's touched-edge bound exceeds this fraction of the patched
/// graph's edges, [`Solver::resolve`] skips the warm start: repairing and
/// re-converging a mostly-invalidated matching costs more than the cheap
/// initialization heuristic it would replace.
pub const WARM_START_CHURN_LIMIT: f64 = 0.5;

/// The warm start must leave a frontier (unmatched, not-proven-unmatchable
/// columns) at least this many times smaller than the init heuristic's
/// before [`Solver::resolve`] prefers it.  The engines' work scales with
/// the frontier they must drain, so a repaired matching that is no better
/// a starting point than a fresh greedy pass — large churn, or a sentinel
/// reset that re-opens a deficient graph's whole unmatchable set — is
/// discarded and the resolve runs the identical-to-cold path instead.
pub const WARM_START_FRONTIER_ADVANTAGE: usize = 2;

/// Outcome of one incremental re-solve.
#[derive(Clone, Debug)]
pub struct ResolveReport {
    /// The underlying solve outcome (matching, cardinality, timings).
    pub report: SolveReport,
    /// `true` when the solver discarded the warm state and ran the normal
    /// cold path: delta churn above [`WARM_START_CHURN_LIMIT`], or a
    /// repaired matching whose frontier was not
    /// [`WARM_START_FRONTIER_ADVANTAGE`]× smaller than the init
    /// heuristic's.
    pub fell_back_to_cold: bool,
    /// Matched pairs of the previous matching invalidated by the delta
    /// (zero on the cold path).
    pub dropped_pairs: usize,
    /// Cardinality of the starting matching the engine was given — the
    /// repaired previous matching on the warm path, the init heuristic's
    /// matching on the cold path.
    pub warm_cardinality: usize,
    /// Columns left unmatched by the starting matching: the exact frontier
    /// the engines seed their worklists from.  Tests assert this is
    /// proportional to the delta, not to the graph.
    pub seeded_frontier: usize,
    /// Device rounds the re-solve needed: kernel launches plus
    /// device-resident rounds (0 for CPU algorithms) — the round-granular
    /// work measure under either execution mode.
    pub rounds: u64,
}

/// Result of [`Solver::resolve`]: the patched graph, its lineage record, and
/// the re-solve report.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// The patched graph (`parent.apply_delta(delta)`).
    pub graph: BipartiteCsr,
    /// Parent → child fingerprint record for cache/lineage keying.
    pub lineage: DeltaLineage,
    /// What the re-solve did and how much warm state it reused.
    pub report: ResolveReport,
}

impl Solver {
    /// Applies `delta` to `parent` and computes a maximum matching of the
    /// patched graph by repairing `previous` (a matching of `parent`,
    /// typically the last solve's result) instead of starting over.
    ///
    /// Equivalent to [`Solver::resolve_ctx`] with an unbounded context.
    pub fn resolve(
        &mut self,
        parent: &BipartiteCsr,
        previous: &Matching,
        delta: &GraphDelta,
        algorithm: Algorithm,
    ) -> Result<ResolveOutcome, SolveError> {
        self.resolve_ctx(parent, previous, delta, algorithm, &SolveCtx::unbounded())
    }

    /// [`Solver::resolve`] under the cancellation/deadline signals of `ctx`
    /// (same round-granular semantics as
    /// [`Solver::solve_with_initial_ctx`]).
    ///
    /// Graph-side errors (a delta referencing vertices outside the patched
    /// shape) surface as [`SolveError::InvalidConfig`].
    pub fn resolve_ctx(
        &mut self,
        parent: &BipartiteCsr,
        previous: &Matching,
        delta: &GraphDelta,
        algorithm: Algorithm,
        ctx: &SolveCtx,
    ) -> Result<ResolveOutcome, SolveError> {
        let (graph, lineage) =
            parent.apply_delta_lineage(delta).map_err(|e| SolveError::InvalidConfig {
                algorithm: algorithm.label(),
                reason: format!("delta does not apply: {e}"),
            })?;
        let report = self.resolve_prepared_ctx(&graph, previous, delta, algorithm, ctx)?;
        Ok(ResolveOutcome { graph, lineage, report })
    }

    /// The re-solve core for callers that have already patched the graph
    /// (e.g. the `gpm-service` shards, which patch at `patch_graph` time and
    /// re-solve later): computes a maximum matching of `child` starting from
    /// `previous`, a matching of the *parent* graph.
    ///
    /// `delta` is consulted for the fallback decision (churn bound,
    /// evaluated against `child` — a delta that only clears vertices scores
    /// low because the cleared vertices are already isolated in `child`,
    /// which is correct: each clear invalidates at most one matched pair)
    /// and for the sentinel policy: previously proven unmatchable columns
    /// stay marked only when the delta inserts no edges *and* the
    /// projection dropped no matched pairs.  New edges anywhere can create
    /// augmenting paths to columns whose own adjacency never changed, and a
    /// dropped pair frees a row whose remaining edges can do the same — in
    /// either case the old proofs no longer hold and the sentinels are
    /// reset.
    pub fn resolve_prepared_ctx(
        &mut self,
        child: &BipartiteCsr,
        previous: &Matching,
        delta: &GraphDelta,
        algorithm: Algorithm,
        ctx: &SolveCtx,
    ) -> Result<ResolveReport, SolveError> {
        let churn = delta.touched_edge_bound(child) as f64;
        let warm_ok = churn <= WARM_START_CHURN_LIMIT * child.num_edges().max(1) as f64;
        // The heuristic initial is always built: it is the fallback start,
        // and its frontier is the yardstick the repaired matching must beat.
        let cold_initial = self.init_heuristic().build(child);
        let cold_frontier = cold_initial.unmatched_cols(false).len();
        let (initial, dropped, fell_back_to_cold) = if warm_ok {
            let keep_sentinels = !delta.inserts_edges();
            let (repaired, dropped) = previous.project_onto(child, keep_sentinels);
            // A dropped pair frees a row: its surviving edges may now open
            // augmenting paths to columns proven unmatchable under the old
            // matching, so those proofs are void and the sentinels must go.
            let repaired = if keep_sentinels && dropped > 0 {
                previous.project_onto(child, false).0
            } else {
                repaired
            };
            let warm_frontier = repaired.unmatched_cols(false).len();
            if warm_frontier * WARM_START_FRONTIER_ADVANTAGE <= cold_frontier {
                (repaired, dropped, false)
            } else {
                (cold_initial, 0, true)
            }
        } else {
            (cold_initial, 0, true)
        };
        let warm_cardinality = initial.cardinality();
        let seeded_frontier = initial.unmatched_cols(false).len();
        let report = self.solve_with_initial_ctx(child, &initial, algorithm, ctx)?;
        let rounds = report
            .device_stats
            .as_ref()
            .map_or(0, |s| s.total_launches() + s.total_resident_rounds());
        Ok(ResolveReport {
            report,
            fell_back_to_cold,
            dropped_pairs: dropped,
            warm_cardinality,
            seeded_frontier,
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::DevicePolicy;
    use gpm_graph::gen;
    use gpm_graph::verify::maximum_matching_cardinality;
    use gpm_graph::VertexId;

    fn solver() -> Solver {
        Solver::builder().device_policy(DevicePolicy::Sequential).build().unwrap()
    }

    #[test]
    fn resolve_matches_cold_oracle_after_edge_churn() {
        let parent = gen::uniform_random(120, 110, 700, 11).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::gpr_default()).unwrap();

        let mut delta = GraphDelta::new();
        // Remove a few edges (including matched ones) and add a few.
        let edges: Vec<_> = parent.edges().collect();
        for i in [0usize, 13, 44, 101] {
            let (r, c) = edges[i % edges.len()];
            delta.remove_edge(r, c);
        }
        delta.insert_edge(3, 107).insert_edge(99, 0);

        let out = s.resolve(&parent, &base.matching, &delta, Algorithm::gpr_default()).unwrap();
        assert!(!out.report.fell_back_to_cold);
        let oracle = maximum_matching_cardinality(&out.graph);
        assert_eq!(out.report.report.cardinality, oracle);
        out.report.report.matching.validate_against(&out.graph).unwrap();
        assert_eq!(out.lineage.parent, parent.fingerprint());
        assert_eq!(out.lineage.child, out.graph.fingerprint());
    }

    #[test]
    fn warm_start_work_is_proportional_to_the_delta() {
        // A planted-perfect graph: the base solve matches everything, so
        // after a tiny delta the warm frontier must be tiny too.
        let parent = gen::planted_perfect(400, 1600, 3).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::gpr_default()).unwrap();
        assert_eq!(base.cardinality, 400);

        // Drop two matched edges.
        let pairs: Vec<_> = base.matching.pairs().collect();
        let mut delta = GraphDelta::new();
        for &(r, c) in pairs.iter().take(2) {
            delta.remove_edge(r, c);
        }
        let out = s.resolve(&parent, &base.matching, &delta, Algorithm::gpr_default()).unwrap();
        assert!(!out.report.fell_back_to_cold);
        assert_eq!(out.report.dropped_pairs, 2);
        // The engine started from the repaired matching, not from scratch…
        assert_eq!(out.report.warm_cardinality, 398);
        // …and seeded only the two disturbed columns.
        assert!(out.report.seeded_frontier <= 2, "frontier {}", out.report.seeded_frontier);
        let oracle = maximum_matching_cardinality(&out.graph);
        assert_eq!(out.report.report.cardinality, oracle);

        // A cold solve of the same child does strictly more device rounds.
        let cold = s.solve(&out.graph, Algorithm::gpr_default()).unwrap();
        let cold_rounds = cold.device_stats.as_ref().unwrap().total_launches();
        assert!(
            out.report.rounds < cold_rounds,
            "warm {} rounds vs cold {cold_rounds}",
            out.report.rounds
        );
        assert_eq!(cold.cardinality, out.report.report.cardinality);
    }

    #[test]
    fn resident_rounds_count_as_resolve_rounds() {
        // Both execution modes run the same round closure, so a `@resident`
        // re-solve does its launch-per-round twin's rounds plus the one
        // entry launch of the persistent kernel.
        let parent = gen::planted_perfect(400, 1600, 3).unwrap();
        let mut s = solver();
        for algorithm in [Algorithm::gpr_default(), Algorithm::ghk(crate::ghk::GhkVariant::Hkdw)] {
            let base = s.solve(&parent, algorithm).unwrap();
            let mut delta = GraphDelta::new();
            for (r, c) in base.matching.pairs().take(2) {
                delta.remove_edge(r, c);
            }
            let launch = s.resolve(&parent, &base.matching, &delta, algorithm).unwrap().report;
            let resident = algorithm.with_exec(crate::ExecMode::Persistent);
            let resident = s.resolve(&parent, &base.matching, &delta, resident).unwrap().report;
            let stats = resident.report.device_stats.as_ref().unwrap();
            assert!(stats.total_resident_rounds() > 0, "{algorithm}");
            assert_eq!(resident.rounds, launch.rounds + 1, "{algorithm}");
        }
    }

    #[test]
    fn huge_delta_falls_back_to_cold() {
        let parent = gen::uniform_random(60, 60, 300, 5).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::HopcroftKarp).unwrap();
        // Remove most of the graph's edges — far past the churn limit.
        let mut delta = GraphDelta::new();
        let victims: Vec<_> = parent.edges().take(parent.num_edges() * 4 / 5).collect();
        delta.extend_removes(victims);
        let out = s.resolve(&parent, &base.matching, &delta, Algorithm::HopcroftKarp).unwrap();
        assert!(out.report.fell_back_to_cold);
        assert_eq!(out.report.dropped_pairs, 0);
        assert_eq!(out.report.report.cardinality, maximum_matching_cardinality(&out.graph));
    }

    #[test]
    fn vertex_additions_and_clears_resolve_correctly() {
        // `planted_perfect(n, extra, seed)` is an n×n graph.
        let parent = gen::planted_perfect(80, 320, 9).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::ghk(crate::ghk::GhkVariant::Hkdw)).unwrap();
        let mut delta = GraphDelta::new();
        delta.add_rows(3).add_cols(2);
        // New rows get edges to both old and new columns.
        delta.insert_edge(80, 0).insert_edge(81, 80).insert_edge(82, 81);
        // And one old vertex goes away.
        delta.clear_col(5);
        let out = s
            .resolve(&parent, &base.matching, &delta, Algorithm::ghk(crate::ghk::GhkVariant::Hkdw))
            .unwrap();
        assert_eq!(out.graph.num_rows(), 83);
        assert_eq!(out.graph.num_cols(), 82);
        assert_eq!(out.report.report.cardinality, maximum_matching_cardinality(&out.graph));
        out.report.report.matching.validate_against(&out.graph).unwrap();
    }

    #[test]
    fn unmatchable_sentinels_reset_when_delta_inserts() {
        // Column 1 is unmatchable in the parent (no edges at all); an insert
        // elsewhere must still allow it to be re-proven, and an insert *to*
        // it must let it match.
        let parent = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::gpr_default()).unwrap();
        assert_eq!(base.cardinality, 1);
        let mut delta = GraphDelta::new();
        delta.insert_edge(1, 1);
        let out = s.resolve(&parent, &base.matching, &delta, Algorithm::gpr_default()).unwrap();
        assert_eq!(out.report.report.cardinality, 2);
    }

    #[test]
    fn unmatchable_sentinels_reset_when_a_matched_edge_is_removed() {
        // Only row 0 reaches columns 0 and 1; the base solve matches one of
        // them and proves the other unmatchable.  Removing the *matched*
        // edge frees the row, which re-opens a path to the sentinel column —
        // the warm start must not trust the stale proof.
        //
        // The three extra gadgets (cols `A_i = {2i+1, 2i+2}`, `B_i =
        // {2i+1}`) trap the column-order greedy init — it hands `A_i` the
        // only row `B_i` can use — so the cold frontier is large enough for
        // the frontier-advantage rule to pick the warm path this test is
        // about.
        let mut edges = vec![(0, 0), (0, 1)];
        for i in 0..3u32 {
            let (r0, r1, a, b) = (1 + 2 * i, 2 + 2 * i, 2 + 2 * i, 3 + 2 * i);
            edges.extend([(r0, a), (r1, a), (r0, b)]);
        }
        let parent = BipartiteCsr::from_edges(7, 8, &edges).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::gpr_default()).unwrap();
        assert_eq!(base.cardinality, 7);
        let matched_col = base.matching.row_mate(0).unwrap();
        assert!(matched_col <= 1, "row 0 can only match column 0 or 1");
        let mut delta = GraphDelta::new();
        delta.remove_edge(0, matched_col);
        let out = s.resolve(&parent, &base.matching, &delta, Algorithm::gpr_default()).unwrap();
        assert!(!out.report.fell_back_to_cold, "the repaired frontier is far below the greedy one");
        assert_eq!(out.report.report.cardinality, 7, "row 0 re-matches the other column");
    }

    #[test]
    fn bad_delta_is_a_structured_error() {
        let parent = gen::uniform_random(10, 10, 40, 1).unwrap();
        let mut s = solver();
        let base = s.solve(&parent, Algorithm::HopcroftKarp).unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(99, 0);
        let err = s.resolve(&parent, &base.matching, &delta, Algorithm::HopcroftKarp).unwrap_err();
        assert!(matches!(err, SolveError::InvalidConfig { .. }));
        assert!(err.to_string().contains("delta does not apply"));
    }

    #[test]
    fn chained_resolves_track_lineage() {
        let g0 = gen::planted_perfect(100, 400, 21).unwrap();
        let mut s = solver();
        let mut graph = g0.clone();
        let mut matching = s.solve(&graph, Algorithm::gpr_default()).unwrap().matching;
        let mut parent_fp = graph.fingerprint();
        for step in 0..5u32 {
            let mut delta = GraphDelta::new();
            delta.remove_edge(step, matching.row_mate(step).unwrap());
            delta.insert_edge(step, (step + 50) as VertexId % 100);
            let out = s.resolve(&graph, &matching, &delta, Algorithm::gpr_default()).unwrap();
            assert_eq!(out.lineage.parent, parent_fp);
            assert_eq!(
                out.report.report.cardinality,
                maximum_matching_cardinality(&out.graph),
                "step {step}"
            );
            parent_fp = out.lineage.child;
            graph = out.graph;
            matching = out.report.report.matching;
        }
    }
}
