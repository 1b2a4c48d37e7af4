//! Kernel-level anatomy of GPU solves: how many times each kernel launched,
//! how many threads and work units it used, its longest thread (the
//! divergence the cost model priced), and where the modelled device time
//! went — the kind of breakdown the paper uses to motivate the active-list
//! and shrinking optimizations.
//!
//! ```text
//! cargo run --release --example gpu_stats [instance] [algorithm] [--scale tiny|small|medium|large]
//! ```
//!
//! The defaults are kron_g500-logn20 at Small scale and the paper's three
//! G-PR variants; any GPU label `gpm-bench --list-algorithms` prints (for
//! example `G-HKDW`) runs alone.  Every solve starts from the cheap matching
//! on the `Sequential` device, so the modelled figures do not depend on the
//! host.

use gpu_pr_matching::core::solver::{Algorithm, DevicePolicy, SolveRequest, Solver};
use gpu_pr_matching::core::{GprVariant, GrStrategy};
use gpu_pr_matching::graph::instances::{by_name, Scale};

fn usage() -> ! {
    eprintln!("usage: gpu_stats [instance] [algorithm] [--scale tiny|small|medium|large]");
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Small;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != "--scale" {
            positional.push(arg);
            continue;
        }
        scale = match args.next().as_deref() {
            Some("tiny") => Scale::Tiny,
            Some("small") => Scale::Small,
            Some("medium") => Scale::Medium,
            Some("large") => Scale::Large,
            _ => usage(),
        };
    }
    if positional.len() > 2 {
        usage();
    }
    let name = positional.first().map_or("kron_g500-logn20", String::as_str);
    let spec = by_name(name).unwrap_or_else(|| {
        eprintln!("unknown instance '{name}'; see gpm_graph::instances::paper_suite()");
        std::process::exit(1);
    });
    let algorithms: Vec<Algorithm> = match positional.get(1) {
        Some(label) => vec![label.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })],
        None => [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink]
            .into_iter()
            .map(|variant| Algorithm::gpr(variant, GrStrategy::paper_default()))
            .collect(),
    };
    let graph = spec.generate(scale).expect("generator");
    println!("{name} ({scale:?}): {} rows, {} edges", graph.num_rows(), graph.num_edges());

    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for algorithm in algorithms {
        let report = solver.run(&graph, SolveRequest::new(algorithm)).unwrap_or_else(|e| {
            eprintln!("{algorithm}: {e}");
            std::process::exit(1);
        });
        let Some(device) = &report.device_stats else {
            eprintln!("{algorithm} is a CPU algorithm: it launches no kernels");
            std::process::exit(2);
        };
        println!(
            "\n=== {} ===  IM {}  matching {}",
            report.algorithm, report.initial_cardinality, report.cardinality
        );
        println!(
            "{:<22} {:>8} {:>12} {:>12} {:>9} {:>12}",
            "kernel", "launches", "threads", "work", "max work", "modelled ms"
        );
        for (kernel, k) in &device.kernels {
            println!(
                "{:<22} {:>8} {:>12} {:>12} {:>9} {:>12.3}",
                kernel,
                k.launches,
                k.total_threads,
                k.total_work,
                k.max_thread_work,
                k.modelled_time_ns / 1e6
            );
        }
        println!(
            "total modelled device time: {:.3} ms (host {:.3} ms)",
            device.modelled_time_secs() * 1e3,
            report.wall_seconds * 1e3
        );
    }
}
