//! Quickstart: build a bipartite graph, run the paper's G-PR algorithm on the
//! virtual GPU, and verify the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_pr_matching::core::solver::{Algorithm, SolveRequest, Solver};
use gpu_pr_matching::graph::verify;
use gpu_pr_matching::graph::{gen, heuristics};

fn main() {
    // A Kronecker-style bipartite graph with a heavy-tailed degree
    // distribution, like the kron_g500 instances of the paper.
    let graph = gen::rmat(gen::RmatParams::graph500(12, 8), 42).expect("generator");
    println!(
        "graph: {} rows, {} cols, {} edges",
        graph.num_rows(),
        graph.num_cols(),
        graph.num_edges()
    );

    // The paper initializes every algorithm with the cheap greedy matching.
    let initial = heuristics::cheap_matching(&graph);
    println!("cheap initial matching: {} pairs", initial.cardinality());

    // A solver session owns the virtual GPU and warm per-algorithm buffers;
    // run G-PR (shrinking active lists, adaptive global relabeling) on it.
    let mut solver = Solver::builder().build().expect("valid solver config");
    let report = solver.run(&graph, SolveRequest::new(Algorithm::gpr_default())).expect("solve");
    println!(
        "{}: maximum matching of {} pairs ({} found by the initializer)",
        report.algorithm, report.cardinality, report.initial_cardinality
    );
    println!(
        "host time {:.3} ms, modelled device time {:.3} ms",
        report.wall_seconds * 1e3,
        report.modelled_device_seconds.unwrap_or(0.0) * 1e3
    );

    // Verify with the independent oracle: no augmenting path may remain.
    assert!(verify::is_maximum(&graph, &report.matching), "result must be maximum");
    println!("verified: the matching is maximum (Berge certificate)");

    // Kernel-level breakdown.
    if let Some(stats) = &report.device_stats {
        println!("\nper-kernel device statistics:");
        for (name, k) in &stats.kernels {
            println!(
                "  {:<22} launches {:>5}  threads {:>9}  modelled {:>8.3} ms",
                name,
                k.launches,
                k.total_threads,
                k.modelled_time_ns / 1e6
            );
        }
    }
}
