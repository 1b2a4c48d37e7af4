//! Maximum transversal of a sparse matrix: permute columns so that the
//! diagonal has as few zeros as possible.
//!
//! This is the sparse-linear-solver use case from the paper's introduction
//! ("maximum cardinality bipartite matching is also employed routinely in
//! sparse linear solvers"): a maximum matching between rows and columns of
//! the nonzero pattern gives a column permutation with a maximum number of
//! nonzero diagonal entries, a standard preprocessing step (MC21/`dmperm`).
//!
//! ```text
//! cargo run --release --example sparse_matrix_diagonal [path/to/matrix.mtx]
//! ```
//!
//! Without an argument a synthetic planted-transversal matrix is used.

use gpu_pr_matching::core::solver::{Algorithm, SolveRequest, Solver};
use gpu_pr_matching::graph::{gen, io, BipartiteCsr};

fn load_graph() -> BipartiteCsr {
    match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path}");
            io::read_matrix_market_file(&path).unwrap_or_else(|e| {
                eprintln!("could not read {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            println!("no .mtx given, generating a synthetic 5000x5000 sparse pattern");
            gen::planted_perfect(5_000, 35_000, 7).expect("generator")
        }
    }
}

fn main() {
    let graph = load_graph();
    println!(
        "pattern: {} x {} with {} nonzeros",
        graph.num_rows(),
        graph.num_cols(),
        graph.num_edges()
    );

    let mut solver = Solver::builder().build().expect("valid solver config");
    let report =
        solver.run(&graph, SolveRequest::new(Algorithm::gpr_default())).unwrap_or_else(|e| {
            eprintln!("solve failed: {e}");
            std::process::exit(1);
        });
    let matching = &report.matching;
    let structural_rank = report.cardinality;
    println!(
        "structural rank (maximum transversal size): {} of {}",
        structural_rank,
        graph.num_rows().min(graph.num_cols())
    );
    if structural_rank < graph.num_rows().min(graph.num_cols()) {
        println!("the matrix is structurally singular (no zero-free diagonal exists)");
    }

    // Build the column permutation: column perm[r] is moved to position r, so
    // entry (r, perm[r]) lands on the diagonal.
    let mut perm: Vec<Option<u32>> = vec![None; graph.num_rows()];
    for r in 0..graph.num_rows() as u32 {
        perm[r as usize] = matching.row_mate(r);
    }
    let on_diagonal = perm.iter().filter(|p| p.is_some()).count();
    println!("column permutation places {on_diagonal} nonzeros on the diagonal");

    // Show the head of the permutation.
    print!("perm head: ");
    for (r, p) in perm.iter().take(10).enumerate() {
        match p {
            Some(c) => print!("{r}->{c} "),
            None => print!("{r}->* "),
        }
    }
    println!();
    println!(
        "solved with {} in {:.3} ms of modelled device time",
        report.algorithm,
        report.modelled_device_seconds.unwrap_or(0.0) * 1e3
    );
}
