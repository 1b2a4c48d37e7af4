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
//! A [`Start::Warm`](crate::solver::Start::Warm) request to
//! [`Solver::run`](crate::solver::Solver::run) runs steps 2 and 3 on a graph
//! the caller has patched.  Its [`SolveReport`](crate::solver::SolveReport)
//! records how much warm state survived (dropped pairs, seeded frontier)
//! so callers — and the test suite — can verify the work really was
//! sub-linear.  When a warm start cannot help — the delta is too large, or
//! the repaired matching would start the engine from no smaller a frontier
//! than the fallback heuristic does — the solve starts from that heuristic
//! instead and the report says so.

use crate::solver::InitHeuristic;
use gpm_graph::{BipartiteCsr, GraphDelta, Matching};

/// When the delta's touched-edge bound exceeds this fraction of the patched
/// graph's edges, a warm start falls back to its heuristic: repairing and
/// re-converging a mostly-invalidated matching costs more than the
/// initialization heuristic it would replace.
pub const WARM_START_CHURN_LIMIT: f64 = 0.5;

/// The warm start must leave a frontier (unmatched, not-proven-unmatchable
/// columns) at least this many times smaller than its fallback heuristic's
/// before it is used.  The engines' work scales with the frontier they must
/// drain, so a repaired matching that is no better a starting point than a
/// fresh greedy pass — large churn, or a sentinel reset that re-opens a
/// deficient graph's whole unmatchable set — is discarded and the solve
/// runs the identical-to-cold path instead.
pub const WARM_START_FRONTIER_ADVANTAGE: usize = 2;

/// The starting matching of a warm start on `child`, the graph `delta` made
/// from the one `previous` matches, with the pairs the projection dropped
/// and whether the start fell back to `fallback`'s matching (then 0 pairs
/// dropped).
///
/// `delta` is consulted for the fallback decision (churn bound, evaluated
/// against `child` — a delta that only clears vertices scores low because
/// the cleared vertices are already isolated in `child`, which is correct:
/// each clear invalidates at most one matched pair) and for the sentinel
/// policy: previously proven unmatchable columns stay marked only when the
/// delta inserts no edges *and* the projection dropped no matched pairs.
/// New edges anywhere can create augmenting paths to columns whose own
/// adjacency never changed, and a dropped pair frees a row whose remaining
/// edges can do the same — in either case the old proofs no longer hold and
/// the sentinels are reset.
pub(crate) fn warm_start(
    child: &BipartiteCsr,
    previous: &Matching,
    delta: &GraphDelta,
    fallback: InitHeuristic,
) -> (Matching, usize, bool) {
    let churn = delta.touched_edge_bound(child) as f64;
    // The heuristic initial is always built: it is the fallback start,
    // and its frontier is the yardstick the repaired matching must beat.
    let cold_initial = fallback.build(child);
    if churn > WARM_START_CHURN_LIMIT * child.num_edges().max(1) as f64 {
        return (cold_initial, 0, true);
    }
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
    let cold_frontier = cold_initial.unmatched_cols(false).len();
    if warm_frontier * WARM_START_FRONTIER_ADVANTAGE <= cold_frontier {
        (repaired, dropped, false)
    } else {
        (cold_initial, 0, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Algorithm, DevicePolicy, SolveReport, SolveRequest, Solver, Start};
    use gpm_graph::gen;
    use gpm_graph::verify::maximum_matching_cardinality;
    use gpm_graph::{DeltaLineage, VertexId};

    fn solver() -> Solver {
        Solver::builder().device_policy(DevicePolicy::Sequential).build().unwrap()
    }

    fn solve(s: &mut Solver, graph: &BipartiteCsr, algorithm: Algorithm) -> SolveReport {
        s.run(graph, SolveRequest::new(algorithm)).unwrap()
    }

    /// A patched graph, its lineage, and its warm re-solve.
    struct Resolved {
        graph: BipartiteCsr,
        lineage: DeltaLineage,
        report: SolveReport,
    }

    /// Patches `parent` with `delta` and solves the child warm from
    /// `previous`, with the cheap heuristic as the fallback.
    fn resolve(
        s: &mut Solver,
        parent: &BipartiteCsr,
        previous: &Matching,
        delta: &GraphDelta,
        algorithm: Algorithm,
    ) -> Resolved {
        let (graph, lineage) = parent.apply_delta_lineage(delta).unwrap();
        let start = Start::Warm { previous, delta, fallback: InitHeuristic::Cheap };
        let report = s.run(&graph, SolveRequest { start, ..SolveRequest::new(algorithm) }).unwrap();
        Resolved { graph, lineage, report }
    }

    /// Device rounds of a solve: kernel launches plus device-resident
    /// rounds (0 for CPU algorithms).
    fn rounds(report: &SolveReport) -> u64 {
        report.device_stats.as_ref().map_or(0, |s| s.total_launches() + s.total_resident_rounds())
    }

    #[test]
    fn resolve_matches_cold_oracle_after_edge_churn() {
        let parent = gen::uniform_random(120, 110, 700, 11).unwrap();
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::gpr_default());

        let mut delta = GraphDelta::new();
        // Remove a few edges (including matched ones) and add a few.
        let edges: Vec<_> = parent.edges().collect();
        for i in [0usize, 13, 44, 101] {
            let (r, c) = edges[i % edges.len()];
            delta.remove_edge(r, c);
        }
        delta.insert_edge(3, 107).insert_edge(99, 0);

        let out = resolve(&mut s, &parent, &base.matching, &delta, Algorithm::gpr_default());
        assert!(!out.report.fell_back_to_cold);
        let oracle = maximum_matching_cardinality(&out.graph);
        assert_eq!(out.report.cardinality, oracle);
        out.report.matching.validate_against(&out.graph).unwrap();
        assert_eq!(out.lineage.parent, parent.fingerprint());
        assert_eq!(out.lineage.child, out.graph.fingerprint());
    }

    #[test]
    fn warm_start_work_is_proportional_to_the_delta() {
        // A planted-perfect graph: the base solve matches everything, so
        // after a tiny delta the warm frontier must be tiny too.
        let parent = gen::planted_perfect(400, 1600, 3).unwrap();
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::gpr_default());
        assert_eq!(base.cardinality, 400);

        // Drop two matched edges.
        let pairs: Vec<_> = base.matching.pairs().collect();
        let mut delta = GraphDelta::new();
        for &(r, c) in pairs.iter().take(2) {
            delta.remove_edge(r, c);
        }
        let out = resolve(&mut s, &parent, &base.matching, &delta, Algorithm::gpr_default());
        assert!(!out.report.fell_back_to_cold);
        assert_eq!(out.report.dropped_pairs, 2);
        // The engine started from the repaired matching, not from scratch…
        assert_eq!(out.report.initial_cardinality, 398);
        // …and seeded only the two disturbed columns.
        assert!(out.report.seeded_frontier <= 2, "frontier {}", out.report.seeded_frontier);
        let oracle = maximum_matching_cardinality(&out.graph);
        assert_eq!(out.report.cardinality, oracle);

        // A cold solve of the same child does strictly more device rounds.
        let cold = solve(&mut s, &out.graph, Algorithm::gpr_default());
        let cold_rounds = cold.device_stats.as_ref().unwrap().total_launches();
        assert!(
            rounds(&out.report) < cold_rounds,
            "warm {} rounds vs cold {cold_rounds}",
            rounds(&out.report)
        );
        assert_eq!(cold.cardinality, out.report.cardinality);
    }

    #[test]
    fn resident_rounds_count_as_resolve_rounds() {
        // Both execution modes run the same round closure, so a `@resident`
        // re-solve does its launch-per-round twin's rounds plus the one
        // entry launch of the persistent kernel.
        let parent = gen::planted_perfect(400, 1600, 3).unwrap();
        let mut s = solver();
        for algorithm in [Algorithm::gpr_default(), Algorithm::ghk(crate::ghk::GhkVariant::Hkdw)] {
            let base = solve(&mut s, &parent, algorithm);
            let mut delta = GraphDelta::new();
            for (r, c) in base.matching.pairs().take(2) {
                delta.remove_edge(r, c);
            }
            let launch = resolve(&mut s, &parent, &base.matching, &delta, algorithm).report;
            let resident = algorithm.with_exec(crate::ExecMode::Persistent);
            let resident = resolve(&mut s, &parent, &base.matching, &delta, resident).report;
            let stats = resident.device_stats.as_ref().unwrap();
            assert!(stats.total_resident_rounds() > 0, "{algorithm}");
            assert_eq!(rounds(&resident), rounds(&launch) + 1, "{algorithm}");
        }
    }

    #[test]
    fn huge_delta_falls_back_to_cold() {
        let parent = gen::uniform_random(60, 60, 300, 5).unwrap();
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::HopcroftKarp);
        // Remove most of the graph's edges — far past the churn limit.
        let mut delta = GraphDelta::new();
        let victims: Vec<_> = parent.edges().take(parent.num_edges() * 4 / 5).collect();
        delta.extend_removes(victims);
        let out = resolve(&mut s, &parent, &base.matching, &delta, Algorithm::HopcroftKarp);
        assert!(out.report.fell_back_to_cold);
        assert_eq!(out.report.dropped_pairs, 0);
        assert_eq!(out.report.cardinality, maximum_matching_cardinality(&out.graph));
    }

    #[test]
    fn vertex_additions_and_clears_resolve_correctly() {
        // `planted_perfect(n, extra, seed)` is an n×n graph.
        let parent = gen::planted_perfect(80, 320, 9).unwrap();
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::ghk(crate::ghk::GhkVariant::Hkdw));
        let mut delta = GraphDelta::new();
        delta.add_rows(3).add_cols(2);
        // New rows get edges to both old and new columns.
        delta.insert_edge(80, 0).insert_edge(81, 80).insert_edge(82, 81);
        // And one old vertex goes away.
        delta.clear_col(5);
        let algorithm = Algorithm::ghk(crate::ghk::GhkVariant::Hkdw);
        let out = resolve(&mut s, &parent, &base.matching, &delta, algorithm);
        assert_eq!(out.graph.num_rows(), 83);
        assert_eq!(out.graph.num_cols(), 82);
        assert_eq!(out.report.cardinality, maximum_matching_cardinality(&out.graph));
        out.report.matching.validate_against(&out.graph).unwrap();
    }

    #[test]
    fn unmatchable_sentinels_reset_when_delta_inserts() {
        // Column 1 is unmatchable in the parent (no edges at all); an insert
        // elsewhere must still allow it to be re-proven, and an insert *to*
        // it must let it match.
        let parent = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::gpr_default());
        assert_eq!(base.cardinality, 1);
        let mut delta = GraphDelta::new();
        delta.insert_edge(1, 1);
        let out = resolve(&mut s, &parent, &base.matching, &delta, Algorithm::gpr_default());
        assert_eq!(out.report.cardinality, 2);
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
        let base = solve(&mut s, &parent, Algorithm::gpr_default());
        assert_eq!(base.cardinality, 7);
        let matched_col = base.matching.row_mate(0).unwrap();
        assert!(matched_col <= 1, "row 0 can only match column 0 or 1");
        let mut delta = GraphDelta::new();
        delta.remove_edge(0, matched_col);
        let out = resolve(&mut s, &parent, &base.matching, &delta, Algorithm::gpr_default());
        assert!(!out.report.fell_back_to_cold, "the repaired frontier is far below the greedy one");
        assert_eq!(out.report.cardinality, 7, "row 0 re-matches the other column");
    }

    #[test]
    fn bad_delta_is_a_structured_error() {
        // Patching is the caller's step: a delta naming a row outside the
        // parent fails there with a structured error, not a panic…
        let parent = gen::uniform_random(10, 10, 40, 1).unwrap();
        let mut delta = GraphDelta::new();
        delta.insert_edge(99, 0);
        let err = parent.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, gpm_graph::GraphError::RowOutOfBounds { row: 99, .. }), "{err}");
        // …and a warm start handed that delta with the unpatched graph
        // still solves it.
        let mut s = solver();
        let base = solve(&mut s, &parent, Algorithm::HopcroftKarp);
        let start =
            Start::Warm { previous: &base.matching, delta: &delta, fallback: InitHeuristic::Cheap };
        let request = SolveRequest { start, ..SolveRequest::new(Algorithm::HopcroftKarp) };
        let report = s.run(&parent, request).unwrap();
        assert_eq!(report.cardinality, maximum_matching_cardinality(&parent));
    }

    #[test]
    fn chained_resolves_track_lineage() {
        let g0 = gen::planted_perfect(100, 400, 21).unwrap();
        let mut s = solver();
        let mut graph = g0.clone();
        let mut matching = solve(&mut s, &graph, Algorithm::gpr_default()).matching;
        let mut parent_fp = graph.fingerprint();
        for step in 0..5u32 {
            let mut delta = GraphDelta::new();
            delta.remove_edge(step, matching.row_mate(step).unwrap());
            delta.insert_edge(step, (step + 50) as VertexId % 100);
            let out = resolve(&mut s, &graph, &matching, &delta, Algorithm::gpr_default());
            assert_eq!(out.lineage.parent, parent_fp);
            assert_eq!(
                out.report.cardinality,
                maximum_matching_cardinality(&out.graph),
                "step {step}"
            );
            parent_fp = out.lineage.child;
            graph = out.graph;
            matching = out.report.matching;
        }
    }
}
