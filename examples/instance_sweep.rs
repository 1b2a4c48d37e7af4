//! Instance sweep: run the paper's comparison algorithms over the mini suite
//! (one stand-in per structural family of Table I) and print a compact table.
//!
//! ```text
//! cargo run --release --example instance_sweep
//! ```

use gpu_pr_matching::core::solver::{paper_comparison_set, SolveRequest, Solver, Start};
use gpu_pr_matching::graph::heuristics::cheap_matching;
use gpu_pr_matching::graph::instances::{mini_suite, Scale};

fn main() {
    let scale = Scale::Tiny;
    println!(
        "{:<20} {:>8} {:>9} {:>8} {:>8}   {:>10} {:>10} {:>10} {:>10}",
        "instance", "rows", "edges", "IM", "MM", "G-PR", "G-HKDW", "P-DBFS", "PR"
    );
    // One warm solver session sweeps the whole suite: the device and all
    // per-algorithm buffers are created once and reused.
    let mut solver = Solver::builder().build().expect("valid solver config");
    for spec in mini_suite() {
        let graph = spec.generate(scale).expect("generator");
        let initial = cheap_matching(&graph);
        let mut times = Vec::new();
        let mut mm = 0;
        for alg in paper_comparison_set() {
            let start = Start::Matching(&initial);
            let report = solver
                .run(&graph, SolveRequest { start, ..SolveRequest::new(alg) })
                .expect("solve");
            mm = report.cardinality;
            times.push(report.comparable_seconds() * 1e3);
        }
        println!(
            "{:<20} {:>8} {:>9} {:>8} {:>8}   {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.2}ms",
            spec.name,
            graph.num_rows(),
            graph.num_edges(),
            initial.cardinality(),
            mm,
            times[0],
            times[1],
            times[2],
            times[3]
        );
    }
    println!("\n(times: modelled device ms for GPU algorithms, host ms for CPU algorithms)");
}
