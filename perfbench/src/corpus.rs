//! The benchmark's inputs: the eight Table-I family stand-ins at
//! `Scale::Small`, their Hopcroft–Karp oracle, and seeded patch chains.
//!
//! Everything here runs before any timed phase.

use gpm_cpu::hopcroft_karp;
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{mini_suite, Scale};
use gpm_graph::{BipartiteCsr, GraphDelta, Matching, VertexId};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One corpus graph with its oracle.
pub struct Instance {
    pub name: &'static str,
    pub graph: Arc<BipartiteCsr>,
    pub fingerprint: u64,
    /// Maximum matching cardinality (Hopcroft–Karp).
    pub max_cardinality: usize,
    /// The oracle's maximum matching: the warm start for patched children.
    pub max_matching: Matching,
    /// Seconds `gpm_cpu::hopcroft_karp` took from the cheap initial matching.
    pub hk_seconds: f64,
}

/// The eight `mini_suite()` stand-ins at `Scale::Small`, in Table-I order.
pub fn build_corpus() -> Result<Vec<Instance>, String> {
    mini_suite()
        .iter()
        .map(|spec| {
            let graph = spec
                .generate(Scale::Small)
                .map_err(|e| format!("generating {}: {e}", spec.name))?;
            let initial = cheap_matching(&graph);
            let started = Instant::now();
            let result = hopcroft_karp(&graph, &initial);
            let hk_seconds = started.elapsed().as_secs_f64();
            Ok(Instance {
                name: spec.name,
                fingerprint: graph.fingerprint(),
                max_cardinality: result.matching.cardinality(),
                max_matching: result.matching,
                graph: Arc::new(graph),
                hk_seconds,
            })
        })
        .collect()
}

/// One patch of a chain: the delta, the child it yields, and the child's
/// oracle.
pub struct Step {
    pub parent_fingerprint: u64,
    pub delta: GraphDelta,
    pub child: Arc<BipartiteCsr>,
    pub child_fingerprint: u64,
    pub max_cardinality: usize,
    /// The maximum matching of the parent: what a warm re-solve repairs.
    pub parent_matching: Matching,
}

/// Fraction of a graph's edges one patch removes (and, again, inserts).
const CHURN: f64 = 0.001;

/// A chain of `steps` seeded patches starting at `root`, each applied to the
/// previous child.  Every child's fingerprint and maximum cardinality are
/// computed here, locally, so the benchmark can check the server's answers.
pub fn patch_chain(root: &Instance, steps: usize, rng: &mut Rng) -> Result<Vec<Step>, String> {
    let mut graph = Arc::clone(&root.graph);
    let mut matching = root.max_matching.clone();
    let mut fingerprint = root.fingerprint;
    let mut chain = Vec::with_capacity(steps);
    for _ in 0..steps {
        let delta = churn_delta(&graph, rng);
        let child = graph.apply_delta(&delta).map_err(|e| format!("{}: {e}", root.name))?;
        let child_fingerprint = child.fingerprint();
        // Warm oracle: the parent's maximum matching minus removed edges is a
        // valid start, and Hopcroft–Karp finishes it to a maximum one.
        let (initial, _) = matching.project_onto(&child, false);
        let child_matching = hopcroft_karp(&child, &initial).matching;
        chain.push(Step {
            parent_fingerprint: fingerprint,
            delta,
            max_cardinality: child_matching.cardinality(),
            parent_matching: std::mem::replace(&mut matching, child_matching),
            child_fingerprint,
            child: Arc::new(child),
        });
        graph = Arc::clone(&chain.last().expect("just pushed").child);
        fingerprint = child_fingerprint;
    }
    Ok(chain)
}

/// Removes `k` distinct present edges and inserts `k` distinct absent ones,
/// `k = max(1, round(CHURN × edges))`.
fn churn_delta(graph: &BipartiteCsr, rng: &mut Rng) -> GraphDelta {
    let k = ((graph.num_edges() as f64 * CHURN).round() as usize).max(1);
    let row_ptr = graph.row_ptr();
    let col_idx = graph.col_idx();
    let mut removes = Vec::with_capacity(k);
    let mut seen = HashSet::with_capacity(2 * k);
    while removes.len() < k {
        let e = rng.below(col_idx.len());
        // The row owning edge slot `e`: the last row whose start is <= e.
        let r = row_ptr.partition_point(|&start| start <= e) - 1;
        let edge = (r as VertexId, col_idx[e]);
        if seen.insert(edge) {
            removes.push(edge);
        }
    }
    let mut inserts = Vec::with_capacity(k);
    while inserts.len() < k {
        let edge =
            (rng.below(graph.num_rows()) as VertexId, rng.below(graph.num_cols()) as VertexId);
        if !graph.has_edge(edge.0, edge.1) && seen.insert(edge) {
            inserts.push(edge);
        }
    }
    let mut delta = GraphDelta::new();
    delta.extend_removes(removes).extend_inserts(inserts);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_graph::verify::maximum_matching_cardinality;

    fn instance(graph: BipartiteCsr) -> Instance {
        let m = hopcroft_karp(&graph, &Matching::empty_for(&graph)).matching;
        Instance {
            name: "test",
            fingerprint: graph.fingerprint(),
            max_cardinality: m.cardinality(),
            max_matching: m,
            graph: Arc::new(graph),
            hk_seconds: 0.0,
        }
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn chains_track_fingerprints_and_oracle() {
        let root = instance(gen::uniform_random(300, 300, 3000, 5).unwrap());
        let chain = patch_chain(&root, 4, &mut Rng::new(1, 0)).unwrap();
        let mut parent = root.fingerprint;
        let mut graph = (*root.graph).clone();
        for step in &chain {
            assert_eq!(step.parent_fingerprint, parent);
            assert_eq!(step.delta.removes().len(), 3);
            assert_eq!(step.delta.inserts().len(), 3);
            graph = graph.apply_delta(&step.delta).unwrap();
            assert_eq!(graph.fingerprint(), step.child_fingerprint);
            assert_eq!(step.max_cardinality, maximum_matching_cardinality(&graph));
            assert_eq!(graph.num_edges(), root.graph.num_edges());
            parent = step.child_fingerprint;
        }
    }
}
