//! Cross-connection cancellation smoke test against a running
//! `gpm-service` server (CI runs this with a timeout guard):
//!
//! 1. Connection B uploads a deliberately huge graph (a Table-I-scale RMAT
//!    instance); connection A then solves it by fingerprint from an empty
//!    initial matching, tagged.
//! 2. Connection B waits until `shards` reports the job running, then
//!    cancels it by tag, so the cancel lands in the round loop rather than
//!    in the queue.
//! 3. The solve must come back as a prompt `cancelled` error naming at
//!    least one completed round — engines honour the token at
//!    worklist-round granularity, so a cancel lands within one round, not
//!    after the full solve.
//!
//! ```text
//! cargo run --release -p gpm-service &               # listens on 127.0.0.1:7878
//! cargo run --release -p gpm-service --example cancel_smoke
//! ```
//!
//! Pass a different address as the first argument.  Set `KEEP_SERVER=1` to
//! skip the final shutdown request.

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::gen;
use gpm_service::{Client, SolveOptions};
use serde::Value;
use std::time::{Duration, Instant};

/// Polls the per-shard snapshots until a job is running, so a cancel sent
/// next lands in the solve's round loop rather than in the queue.
fn wait_until_running(client: &mut Client) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let shards = client.shard_stats()?;
        if shards.iter().any(|s| s.get("running").and_then(Value::as_u64).unwrap_or(0) > 0) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::other("the tagged job never started running"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The round count a `job cancelled after N rounds …` error names.
fn rounds_completed(message: &str) -> u64 {
    message
        .split("after ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no round count in: {message}"))
}

fn main() -> std::io::Result<()> {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".to_string());

    // Connection B uploads the graph; scale 18 keeps the solve running
    // several times longer than the polls and the cancel take to arrive.
    let graph = gen::rmat(gen::RmatParams::graph500(18, 16), 7).expect("generate graph");
    let mut b = Client::connect(&addr)?;
    let fingerprint = b.put_graph(&graph)?;
    // Connection A: a big tagged solve, run on its own thread because the
    // protocol is blocking request/response per connection.
    println!(
        "submitting {}x{} RMAT solve ({} edges) tagged 'smoke-victim' …",
        graph.num_rows(),
        graph.num_cols(),
        graph.num_edges()
    );
    let solve_addr = addr.clone();
    let started = Instant::now();
    let solve = std::thread::spawn(move || -> std::io::Result<std::io::Error> {
        let mut a = Client::connect(&solve_addr)?;
        let options = SolveOptions { tag: Some("smoke-victim".to_string()), ..Default::default() };
        // G-PR is a device engine: it polls the cancel token at worklist-round
        // granularity, unlike the CPU algorithms which only fail fast when the
        // token is already tripped before they start.
        match a.solve_cached_with(
            fingerprint,
            Algorithm::gpr_default(),
            InitHeuristic::Empty,
            &options,
        ) {
            // The whole point is that this must NOT complete normally.
            Ok(_) => Err(std::io::Error::other("solve finished before the cancel landed")),
            Err(e) => Ok(e),
        }
    });

    // Connection B: cancel by tag once the solve runs.
    wait_until_running(&mut b)?;
    let cancelled = b.cancel_tag("smoke-victim")?;
    println!("cancel reached {cancelled} job(s) after {:?}", started.elapsed());
    assert_eq!(cancelled, 1, "the running job must be cancellable by its tag");

    let err = solve.join().expect("solve thread panicked")?;
    let message = err.to_string();
    assert!(message.contains("cancelled"), "expected a cancelled error, got: {message}");
    let rounds = rounds_completed(&message);
    assert!(rounds >= 1, "the cancel must land inside the round loop, got: {message}");
    println!("solve failed as expected: {message}");
    println!("cancelled end-to-end in {:?}", started.elapsed());

    if std::env::var("KEEP_SERVER").is_err() {
        b.shutdown()?;
        println!("server shut down");
    }
    Ok(())
}
