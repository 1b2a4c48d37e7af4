//! Kernel-level anatomy of one G-PR run: how many times each kernel launched,
//! how many threads it used, and where the modelled device time went — the
//! kind of breakdown the paper uses to motivate the active-list and shrinking
//! optimizations.
//!
//! ```text
//! cargo run --release --example gpu_stats [instance-name]
//! ```

use gpu_pr_matching::core::gpr::{self, GprConfig, GprVariant, GprWorkspace};
use gpu_pr_matching::core::GrStrategy;
use gpu_pr_matching::gpu::{StopCheck, VirtualGpu};
use gpu_pr_matching::graph::heuristics::cheap_matching;
use gpu_pr_matching::graph::instances::{by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "kron_g500-logn20".to_string());
    let spec = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown instance '{name}'; see gpm_graph::instances::paper_suite()");
        std::process::exit(1);
    });
    let graph = spec.generate(Scale::Small).expect("generator");
    let initial = cheap_matching(&graph);
    println!(
        "{name}: {} rows, {} edges, IM = {}",
        graph.num_rows(),
        graph.num_edges(),
        initial.cardinality()
    );

    for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
        let gpu = VirtualGpu::parallel();
        let config = GprConfig {
            variant,
            strategy: GrStrategy::paper_default(),
            ..GprConfig::paper_default()
        };
        let result =
            gpr::run(&gpu, &graph, &initial, config, &mut GprWorkspace::new(), &StopCheck::never());
        println!(
            "\n=== {} ===  matching {}  loops {}  global relabels {}  shrinks {}",
            variant.label(),
            result.matching.cardinality(),
            result.stats.loops,
            result.stats.global_relabels,
            result.stats.shrinks
        );
        println!(
            "{:<22} {:>8} {:>12} {:>12} {:>12}",
            "kernel", "launches", "threads", "work", "modelled ms"
        );
        for (kernel, k) in &result.stats.device.kernels {
            println!(
                "{:<22} {:>8} {:>12} {:>12} {:>12.3}",
                kernel,
                k.launches,
                k.total_threads,
                k.total_work,
                k.modelled_time_ns / 1e6
            );
        }
        println!(
            "total modelled device time: {:.3} ms (host {:.3} ms)",
            result.stats.device.modelled_time_secs() * 1e3,
            result.stats.seconds * 1e3
        );
    }
}
