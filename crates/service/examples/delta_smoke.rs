//! End-to-end smoke test of the dynamic-graph path, driven over the wire
//! against a running multi-shard `gpm-service` server whose caches are
//! small enough to be under pressure:
//!
//! ```text
//! cargo run --release -p gpm-service -- --shards 2 --cache 8 &
//! cargo run --release -p gpm-service --example delta_smoke
//! ```
//!
//! Pass a different address as the first argument.  The example uploads
//! four root graphs and solves each, then advances four interleaved patch
//! chains, 25 `patch_graph` deltas each — edge removals with an occasional
//! column addition — solving every child by its new fingerprint as it goes.
//! It asserts that every child is placed on its chain root's home shard
//! (chain affinity), that each solve hits the cache the patch populated,
//! that the answers match a client-side oracle, and that the
//! `patched`/`resolved` counters show every child's solve warm-started from
//! its parent's matching: even with all four chains on one shard, an
//! 8-graph cache holds each chain's head and the parent it superseded.
//! Exits non-zero on any broken invariant, so CI can gate on it (set
//! `KEEP_SERVER=1` to leave the server running).

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::verify::maximum_matching_cardinality;
use gpm_graph::{gen, BipartiteCsr, GraphDelta};
use gpm_service::Client;
use serde::Value;

const CHAINS: usize = 4;
const PATCHES_PER_CHAIN: usize = 25;

/// One patch chain: its head's fingerprint, a client-side mirror of the
/// head (so each delta can name edges that exist and each solve can be
/// checked against a local oracle), and the root's home shard.
struct Chain {
    head: u64,
    mirror: BipartiteCsr,
    home: u64,
}

fn main() -> std::io::Result<()> {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let mut client = Client::connect(&addr)?;
    println!("connected to gpm-service at {addr}");
    let shard_count = client.shard_stats()?.len();
    assert!(shard_count >= 2, "delta smoke needs a multi-shard server (got {shard_count})");

    let mut chains = Vec::with_capacity(CHAINS);
    for seed in 0..CHAINS as u64 {
        let mirror = gen::planted_perfect(60, 240, 7 + seed).expect("generate graph");
        let root = client.put_graph(&mirror)?;
        let response = client.solve_cached(root, Algorithm::gpr_default(), InitHeuristic::Cheap)?;
        let home = response.get("shard").and_then(Value::as_u64).expect("solve names its shard");
        println!("root {root:#018x} solved on its home shard {home}");
        chains.push(Chain { head: root, mirror, home });
    }

    for step in 0..PATCHES_PER_CHAIN {
        for (index, chain) in chains.iter_mut().enumerate() {
            // Mostly single-edge removals, with a fresh column (plus an edge
            // reaching it) every tenth step so the shape changes too.
            let mut delta = GraphDelta::new();
            let mirror = &chain.mirror;
            let (r, c) = mirror
                .edges()
                .nth(step * 7 % mirror.num_edges())
                .expect("the mirror never runs out of edges");
            delta.remove_edge(r, c);
            if step % 10 == 9 {
                delta.add_cols(1);
                delta.insert_edge(r, mirror.num_cols() as u32);
            }

            let child = client.patch_graph(chain.head, &delta)?;
            chain.mirror = chain.mirror.apply_delta(&delta).expect("mirror accepts its own delta");
            let at = format!("chain {index} step {step}");
            assert_eq!(child, chain.mirror.fingerprint(), "server and mirror disagree at {at}");

            let response =
                client.solve_cached(child, Algorithm::gpr_default(), InitHeuristic::Cheap)?;
            let cardinality =
                response.get("report").and_then(|r| r.get("cardinality")).and_then(Value::as_u64);
            assert_eq!(
                cardinality,
                Some(maximum_matching_cardinality(&chain.mirror) as u64),
                "wrong cardinality at {at}"
            );
            assert_eq!(
                response.get("cache_hit").and_then(Value::as_bool),
                Some(true),
                "child at {at} must be served from the cache its patch populated"
            );
            let landed = response.get("shard").and_then(Value::as_u64).expect("shard");
            assert_eq!(landed, chain.home, "{at} left the chain's home shard {}", chain.home);
            chain.head = child;
        }
    }
    let children = CHAINS * PATCHES_PER_CHAIN;
    println!("{children} patches solved, every chain on its root's home shard");

    let stats = client.stats()?;
    let patched = stats.get("patched").and_then(Value::as_u64).unwrap_or(0);
    let resolved = stats.get("resolved").and_then(Value::as_u64).unwrap_or(0);
    println!("stats: patched {patched}, resolved {resolved}");
    assert_eq!(patched, children as u64, "every patch_graph must be counted");
    assert_eq!(resolved, children as u64, "only {resolved}/{children} solves warm-started");

    if std::env::var_os("KEEP_SERVER").is_none() {
        client.shutdown()?;
        println!("sent shutdown; server is stopping");
    }
    println!("delta smoke passed");
    Ok(())
}
