//! The four workloads: server settings, connection count, and every request
//! line, generated from the seed before anything is timed.

use crate::corpus::{patch_chain, Instance, Rng, Step};
use gpm_core::{Algorithm, DevicePolicy};
use gpm_graph::{BipartiteCsr, VertexId};
use std::fmt::Write as _;

/// The engines the workloads name, by the labels the docs use.
///
/// `solve-pooled` pairs the paper's dense list with its `@resident` twin
/// rather than `+blocked` with `+blocked@resident`: on a `parallel:2`
/// device, `+blocked@resident` solves replayed back to back return
/// matchings larger than the maximum, that is, invalid ones (see README.md),
/// and the benchmark runs only operations that succeed.
pub const ENGINES: [(&str, &str); 6] = [
    ("gpr", "G-PR-Shr@adaptive:0.7"),
    ("gpr-blocked", "G-PR-Shr@adaptive:0.7+blocked"),
    ("gpr-dense", "G-PR-Shr@adaptive:0.7+dense"),
    ("gpr-dense-resident", "G-PR-Shr@adaptive:0.7+dense@resident"),
    ("ghkdw", "G-HKDW"),
    ("ghkdw-resident", "G-HKDW@resident"),
];
const GPR: usize = 0;
const GPR_BLOCKED: usize = 1;
const GPR_DENSE: usize = 2;
const GPR_DENSE_RESIDENT: usize = 3;
const GHKDW: usize = 4;
const GHKDW_RESIDENT: usize = 5;

/// Pairs of engine indices that differ only in execution mode
/// (launch per round, resident).
pub const EXEC_MODE_PAIRS: [(usize, usize); 2] =
    [(GPR_DENSE, GPR_DENSE_RESIDENT), (GHKDW, GHKDW_RESIDENT)];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveCached,
    UploadInline,
    PatchStream,
    SolvePooled,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveCached,
        Workload::UploadInline,
        Workload::PatchStream,
        Workload::SolvePooled,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCached => "solve-cached",
            Workload::UploadInline => "upload-inline",
            Workload::PatchStream => "patch-stream",
            Workload::SolvePooled => "solve-pooled",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}': expected one of {}", names.join(", "))
        })
    }

    /// Service workers and device policy: the server flags and the
    /// in-process builder settings of the traced replay.
    pub fn server(self) -> (usize, DevicePolicy, &'static str) {
        match self {
            Workload::SolvePooled => (1, DevicePolicy::Parallel(2), "parallel:2"),
            _ => (2, DevicePolicy::Sequential, "sequential"),
        }
    }

    pub fn connections(self) -> usize {
        match self {
            Workload::SolvePooled => 1,
            _ => 2,
        }
    }
}

/// What a request line asks for, and the answer the oracle expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Upload corpus graph `graph`; expects its fingerprint.
    Put { graph: usize },
    /// Solve a graph with `ENGINES[engine]`; expects `cardinality`.
    Solve { target: Target, engine: usize, cardinality: usize },
    /// Apply step `step` of chain `chain`; expects the child's fingerprint.
    Patch { chain: usize, step: usize },
}

/// A graph a request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    Corpus(usize),
    /// The child produced by `steps[chain][step]`.
    Child {
        chain: usize,
        step: usize,
    },
}

impl Target {
    /// The corpus graph this target descends from (its Table-I family).
    pub fn family(self) -> usize {
        match self {
            Target::Corpus(g) | Target::Child { chain: g, .. } => g,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Request {
    /// The request line, newline included, ready for a single write.
    pub line: String,
    pub op: Op,
}

/// Everything one run sends, in the order each connection sends it.
pub struct Plan {
    pub workload: Workload,
    /// `put_graph` for every corpus graph, sent once during set-up.
    pub setup: Vec<Request>,
    /// One request stream per connection.
    pub streams: Vec<Vec<Request>>,
    /// Whether a connection that reaches the end of its stream starts over.
    pub cyclic: bool,
    /// Requests per round of a patch stream: one patch and one solve per
    /// chain a connection owns.
    pub round_len: usize,
    /// Patch chains, indexed by corpus graph (empty unless patch-stream).
    pub chains: Vec<Vec<Step>>,
}

impl Plan {
    /// The expected fingerprint of an upload or patch request.
    pub fn expected_fingerprint(&self, corpus: &[Instance], op: Op) -> Option<u64> {
        match op {
            Op::Put { graph } => Some(corpus[graph].fingerprint),
            Op::Patch { chain, step } => Some(self.chains[chain][step].child_fingerprint),
            Op::Solve { .. } => None,
        }
    }

    pub fn graph<'a>(&'a self, corpus: &'a [Instance], target: Target) -> &'a BipartiteCsr {
        match target {
            Target::Corpus(g) => &corpus[g].graph,
            Target::Child { chain, step } => &self.chains[chain][step].child,
        }
    }
}

/// Patch-stream steps prepared per chain.  Every response pays the
/// server's transport floor (about 44 ms, see README.md), so a connection
/// serving four chains with a patch and a solve per step advances each
/// chain at most about three steps a second; this prepares twice that.  A
/// connection that runs out stops early, and the run reports what it
/// completed.
fn patch_steps(seconds: f64) -> usize {
    (seconds * 6.0).ceil() as usize + 8
}

/// Builds the plan for `workload` under `seed`.  The same seed gives
/// byte-identical lines; another seed reorders requests and changes the
/// patch deltas, but not the corpus or the number of lines.
pub fn build_plan(
    workload: Workload,
    seed: u64,
    seconds: f64,
    corpus: &[Instance],
) -> Result<Plan, String> {
    for (_, label) in ENGINES {
        let parsed: Algorithm = label.parse().map_err(|e| format!("engine label {label}: {e}"))?;
        assert_eq!(parsed.to_string(), label, "engine labels must round-trip");
    }
    let setup: Vec<Request> = (0..corpus.len())
        .map(|g| Request { line: put_line(&corpus[g].graph), op: Op::Put { graph: g } })
        .collect();
    let connections = workload.connections();
    let solve = |target: Target, engine: usize, line: String, cardinality: usize| Request {
        line,
        op: Op::Solve { target, engine, cardinality },
    };
    let mut chains = Vec::new();
    let mut round_len = 0;
    let streams: Vec<Vec<Request>> = match workload {
        Workload::SolveCached | Workload::SolvePooled | Workload::UploadInline => {
            let engines: &[usize] = match workload {
                Workload::SolveCached => &[GPR, GHKDW],
                Workload::SolvePooled => &[GPR_DENSE, GPR_DENSE_RESIDENT, GHKDW, GHKDW_RESIDENT],
                _ => &[GPR_BLOCKED],
            };
            let mut cycle = Vec::new();
            for (g, instance) in corpus.iter().enumerate() {
                for &e in engines {
                    let line = if workload == Workload::UploadInline {
                        inline_line(ENGINES[e].1, &instance.graph)
                    } else {
                        solve_line(ENGINES[e].1, instance.fingerprint)
                    };
                    cycle.push(solve(Target::Corpus(g), e, line, instance.max_cardinality));
                }
            }
            (0..connections).map(|c| connection_order(&cycle, seed, c)).collect()
        }
        Workload::PatchStream => {
            let steps = patch_steps(seconds);
            for (g, instance) in corpus.iter().enumerate() {
                chains.push(patch_chain(instance, steps, &mut Rng::new(seed, 200 + g as u64))?);
            }
            // Connection c owns the chains of every other corpus graph and
            // visits them round-robin in a seeded order; each visit patches
            // the chain's latest child and then solves the new child.
            let owned: Vec<Vec<usize>> = (0..connections)
                .map(|c| {
                    let mine: Vec<usize> =
                        (0..corpus.len()).filter(|g| g % connections == c).collect();
                    connection_order(&mine, seed, c)
                })
                .collect();
            round_len = 2 * owned[0].len();
            let visit = |chain: usize, step: usize| {
                let s = &chains[chain][step];
                let line = solve_line(ENGINES[GPR].1, s.child_fingerprint);
                [
                    Request { line: patch_line(s), op: Op::Patch { chain, step } },
                    solve(Target::Child { chain, step }, GPR, line, s.max_cardinality),
                ]
            };
            owned
                .iter()
                .map(|mine| {
                    (0..steps)
                        .flat_map(|step| mine.iter().flat_map(move |&chain| visit(chain, step)))
                        .collect()
                })
                .collect()
        }
    };
    let cyclic = workload != Workload::PatchStream;
    Ok(Plan { workload, setup, streams, cyclic, round_len, chains })
}

/// `items` in connection `connection`'s seeded order.
fn connection_order<T: Clone>(items: &[T], seed: u64, connection: usize) -> Vec<T> {
    let mut ordered = items.to_vec();
    Rng::new(seed, 100 + connection as u64).shuffle(&mut ordered);
    ordered
}

fn solve_line(algorithm: &str, fingerprint: u64) -> String {
    format!("{{\"op\":\"solve\",\"algorithm\":\"{algorithm}\",\"fingerprint\":\"{fingerprint:#018x}\"}}\n")
}

fn put_line(graph: &BipartiteCsr) -> String {
    let mut line = String::from("{\"op\":\"put_graph\",");
    push_graph_fields(&mut line, graph);
    line.push_str("}\n");
    line
}

fn inline_line(algorithm: &str, graph: &BipartiteCsr) -> String {
    let mut line = format!("{{\"op\":\"solve\",\"algorithm\":\"{algorithm}\",");
    push_graph_fields(&mut line, graph);
    line.push_str("}\n");
    line
}

fn patch_line(step: &Step) -> String {
    let mut line =
        format!("{{\"op\":\"patch_graph\",\"parent\":\"{:#018x}\"", step.parent_fingerprint);
    line.push_str(",\"remove\":");
    push_pairs(&mut line, step.delta.removes().iter().copied());
    line.push_str(",\"insert\":");
    push_pairs(&mut line, step.delta.inserts().iter().copied());
    line.push_str("}\n");
    line
}

fn push_graph_fields(line: &mut String, graph: &BipartiteCsr) {
    write!(line, "\"rows\":{},\"cols\":{},\"edges\":", graph.num_rows(), graph.num_cols())
        .expect("writing to a String cannot fail");
    push_pairs(line, graph.edges());
}

fn push_pairs(line: &mut String, pairs: impl Iterator<Item = (VertexId, VertexId)>) {
    line.push('[');
    for (i, (r, c)) in pairs.enumerate() {
        if i > 0 {
            line.push(',');
        }
        write!(line, "[{r},{c}]").expect("writing to a String cannot fail");
    }
    line.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Instance;
    use gpm_cpu::hopcroft_karp;
    use gpm_graph::{gen, Matching};
    use gpm_service::proto::{parse_request, Request as Wire};
    use std::sync::Arc;

    /// Eight small graphs standing in for the Small-scale corpus, which
    /// takes seconds to build.
    fn small_corpus() -> Vec<Instance> {
        (0..8)
            .map(|i| {
                let graph = gen::uniform_random(60 + i, 70, 400, i as u64).unwrap();
                let m = hopcroft_karp(&graph, &Matching::empty_for(&graph)).matching;
                Instance {
                    name: "test",
                    fingerprint: graph.fingerprint(),
                    max_cardinality: m.cardinality(),
                    max_matching: m,
                    graph: Arc::new(graph),
                    hk_seconds: 0.0,
                }
            })
            .collect()
    }

    fn lines(plan: &Plan) -> Vec<&str> {
        plan.setup.iter().chain(plan.streams.iter().flatten()).map(|r| r.line.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        let corpus = small_corpus();
        for workload in Workload::ALL {
            let a = build_plan(workload, 42, 1.0, &corpus).unwrap();
            let b = build_plan(workload, 42, 1.0, &corpus).unwrap();
            assert_eq!(lines(&a), lines(&b), "{}", workload.name());
        }
    }

    #[test]
    fn another_seed_changes_order_and_deltas_not_corpus_or_counts() {
        let corpus = small_corpus();
        for workload in Workload::ALL {
            let a = build_plan(workload, 1, 1.0, &corpus).unwrap();
            let b = build_plan(workload, 2, 1.0, &corpus).unwrap();
            assert_eq!(a.setup.len(), b.setup.len());
            let counts = |p: &Plan| p.streams.iter().map(Vec::len).collect::<Vec<_>>();
            assert_eq!(counts(&a), counts(&b), "{}", workload.name());
            assert_eq!(
                a.setup.iter().map(|r| &r.line).collect::<Vec<_>>(),
                b.setup.iter().map(|r| &r.line).collect::<Vec<_>>(),
                "the corpus does not depend on the seed"
            );
            assert_ne!(lines(&a), lines(&b), "{}", workload.name());
        }
        // Patch deltas differ between seeds, not just their order.
        let a = build_plan(Workload::PatchStream, 1, 1.0, &corpus).unwrap();
        let b = build_plan(Workload::PatchStream, 2, 1.0, &corpus).unwrap();
        assert_ne!(a.chains[0][0].delta, b.chains[0][0].delta);
    }

    #[test]
    fn every_line_parses_as_the_wire_request_it_stands_for() {
        let corpus = small_corpus();
        for workload in Workload::ALL {
            let plan = build_plan(workload, 3, 1.0, &corpus).unwrap();
            for request in plan.setup.iter().chain(plan.streams.iter().flatten()) {
                assert!(request.line.ends_with('\n') && request.line.matches('\n').count() == 1);
                let parsed = parse_request(request.line.trim_end()).unwrap();
                match (request.op, parsed) {
                    (Op::Put { graph }, Wire::PutGraph(g)) => assert_eq!(*corpus[graph].graph, g),
                    (Op::Patch { chain, step }, Wire::PatchGraph { parent, delta }) => {
                        let s = &plan.chains[chain][step];
                        assert_eq!(parent, s.parent_fingerprint);
                        assert_eq!(delta.to_canonical(), s.delta.to_canonical());
                    }
                    (Op::Solve { engine, .. }, Wire::Solve { algorithm, .. }) => {
                        assert_eq!(algorithm.to_string(), ENGINES[engine].1);
                    }
                    (op, parsed) => panic!("{op:?} parsed as {parsed:?}"),
                }
            }
        }
    }
}
