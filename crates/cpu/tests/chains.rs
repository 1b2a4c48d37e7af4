//! Chain graphs whose one alternating path runs through every vertex.
//! Every CPU baseline and the oracle solve them on a 256 KiB stack, which
//! a search spending a call-stack frame per path edge overflows: such a
//! search overflows a 512 KiB stack on a 5,001-column chain already.

use gpm_cpu::{hkdw, hopcroft_karp, pdbfs, pothen_fan, sequential_pr, PdbfsConfig, PrConfig};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::verify::{is_maximum, reference_maximum_matching};
use gpm_graph::BipartiteCsr;
use gpm_testutil::{augmenting_chain, dead_end_chain, sweep_chain};

/// Chain length: far past what recursion survives on the test stack, and
/// small enough to build quickly in a debug build.
const K: usize = 200_000;

/// Runs `f` on a thread with a 256 KiB stack.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let thread = std::thread::Builder::new().stack_size(256 << 10);
        thread.spawn_scoped(s, f).expect("spawn").join().expect("the small-stack thread panicked")
    })
}

/// Every CPU baseline, from the cheap matching, and the oracle find a
/// maximum matching of `g` of cardinality `maximum`.
fn all_solve(g: &BipartiteCsr, maximum: usize) {
    on_small_stack(|| {
        let init = cheap_matching(g);
        let pdbfs_on = |threads| pdbfs(g, &init, PdbfsConfig { threads });
        let runs = [
            hopcroft_karp(g, &init),
            hkdw(g, &init),
            pothen_fan(g, &init),
            pdbfs_on(1),
            pdbfs_on(8),
            sequential_pr(g, &init, PrConfig::default()),
        ];
        for r in runs {
            assert_eq!(r.matching.cardinality(), maximum, "{}", r.stats.algorithm);
            assert!(is_maximum(g, &r.matching), "{}", r.stats.algorithm);
        }
        let oracle = reference_maximum_matching(g);
        assert_eq!(oracle.cardinality(), maximum, "oracle");
        assert!(is_maximum(g, &oracle), "oracle");
    });
}

#[test]
fn baselines_and_oracle_solve_the_augmenting_chain() {
    all_solve(&augmenting_chain(K), K + 1);
}

#[test]
fn baselines_and_oracle_solve_the_dead_end_chain() {
    all_solve(&dead_end_chain(K), K);
}

#[test]
fn hkdw_sweeps_the_whole_chain_in_one_augmentation() {
    let (g, start) = sweep_chain(K);
    let r = on_small_stack(|| hkdw(&g, &start));
    assert_eq!(r.matching.cardinality(), K + 2);
    assert!(is_maximum(&g, &r.matching));
    assert_eq!(r.stats.pushes, 1, "one sweep augmentation");
}

/// P-DBFS's cleanup shares its visited rows across the free columns of a
/// pass: `M` extra columns on the dead-end chain's row 0 each root an
/// alternating path through the whole chain, and a cleanup that walked it
/// once per column would scan about `M · K_SHORT` edges.
#[test]
fn pdbfs_cleanup_walks_the_dead_end_chain_once_per_pass() {
    const K_SHORT: usize = 10_000;
    const M: usize = 100;
    let chain = dead_end_chain(K_SHORT);
    let mut edges: Vec<(u32, u32)> = (0..chain.num_cols() as u32)
        .flat_map(|c| chain.col_neighbors(c).iter().map(move |&r| (r, c)))
        .collect();
    edges.extend((0..M as u32).map(|j| (0, (K_SHORT + 1) as u32 + j)));
    let g = BipartiteCsr::from_edges(K_SHORT, K_SHORT + 1 + M, &edges).expect("in-bounds edges");
    let maximum = reference_maximum_matching(&g).cardinality();
    assert_eq!(maximum, K_SHORT);
    for threads in [1, 8] {
        let r = pdbfs(&g, &cheap_matching(&g), PdbfsConfig { threads });
        assert_eq!(r.matching.cardinality(), maximum, "P-DBFS@{threads}");
        assert!(
            r.stats.edges_scanned < 8 * (K_SHORT + M) as u64,
            "P-DBFS@{threads} scanned {} edges",
            r.stats.edges_scanned
        );
    }
}
