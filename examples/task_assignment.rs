//! Task assignment: match workers to tasks under eligibility constraints and
//! compare the GPU algorithm against the CPU baselines.
//!
//! The scheduling use case from the paper's introduction: `m` workers, `n`
//! tasks, an edge when a worker is qualified for a task; a maximum matching
//! is a largest set of simultaneous assignments.
//!
//! ```text
//! cargo run --release --example task_assignment [workers] [tasks]
//! ```

use gpu_pr_matching::core::solver::{paper_comparison_set, SolveRequest, Solver};
use gpu_pr_matching::graph::{heuristics, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let workers: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let tasks: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(22_000);

    // Eligibility model: most workers are generalists qualified for a handful
    // of random tasks; a few specialists are qualified for one rare task
    // only, which is what makes greedy assignment suboptimal.
    let mut rng = StdRng::seed_from_u64(99);
    let mut builder = GraphBuilder::with_capacity(workers, tasks, workers * 6);
    for w in 0..workers as u32 {
        let skills = 1 + rng.gen_range(0..6);
        for _ in 0..skills {
            // Skewed task popularity: low-index tasks are requested more.
            let t = (rng.gen_range(0.0f64..1.0).powi(2) * tasks as f64) as u32;
            builder.add_edge(w, t.min(tasks as u32 - 1)).expect("in bounds");
        }
    }
    let graph = builder.build();
    println!(
        "{} workers, {} tasks, {} eligibility pairs",
        graph.num_rows(),
        graph.num_cols(),
        graph.num_edges()
    );

    // Reference upper bound from a plain generator-independent oracle (HK).
    let mut best: Option<usize> = None;
    println!("\n{:<10} {:>12} {:>14} {:>14}", "algorithm", "assignments", "host ms", "device ms");
    // Solve the whole comparison on one warm session: one Result per job,
    // so a misconfigured algorithm would not abort the sweep.
    let mut solver = Solver::builder().build().expect("valid solver config");
    for algorithm in paper_comparison_set() {
        let report = solver.run(&graph, SolveRequest::new(algorithm)).expect("solve");
        println!(
            "{:<10} {:>12} {:>14.3} {:>14.3}",
            report.algorithm,
            report.cardinality,
            report.wall_seconds * 1e3,
            report.modelled_device_seconds.map(|s| s * 1e3).unwrap_or(f64::NAN)
        );
        if let Some(prev) = best {
            assert_eq!(prev, report.cardinality, "all algorithms must agree");
        }
        best = Some(report.cardinality);
    }

    // How much better than naive greedy assignment?
    let greedy = heuristics::cheap_matching(&graph).cardinality();
    let optimal = best.unwrap_or(0);
    println!(
        "\ngreedy assignment covers {greedy} tasks; maximum matching covers {optimal} \
         (+{} assignments recovered)",
        optimal - greedy
    );
}
