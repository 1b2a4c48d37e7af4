//! Persistent-execution smoke test against a running `gpm-service` server
//! (CI runs this with a timeout guard):
//!
//! 1. Uploads a launch-bound road-network-style instance and solves it
//!    twice by fingerprint — once launch-per-round, once priced as the
//!    `@resident` persistent megakernel — and asserts both reach the same
//!    cardinality and that the resident price is the lower one: the whole
//!    label grammar, execution-mode suffix included, works over the wire.
//! 2. Uploads a deliberately huge graph, solves it by fingerprint with a
//!    tagged `@resident` label on a second connection, and cancels it by
//!    tag once `shards` reports the job running.  The round loop polls the
//!    stop signal before every round, so the cancel must land within one
//!    device round — after at least one completed round, and long before
//!    the full solve ends.
//!
//! ```text
//! cargo run --release -p gpm-service &               # listens on 127.0.0.1:7878
//! cargo run --release -p gpm-service --example resident_smoke
//! ```
//!
//! Pass a different address as the first argument.  Set `KEEP_SERVER=1` to
//! skip the final shutdown request.

use gpm_core::{Algorithm, ExecMode, InitHeuristic, WorklistMode};
use gpm_graph::gen;
use gpm_service::{Client, SolveOptions};
use serde::Value;
use std::time::{Duration, Instant};

fn cardinality(response: &Value) -> u64 {
    response
        .get("report")
        .and_then(|r| r.get("cardinality"))
        .and_then(Value::as_u64)
        .expect("solve response carries report.cardinality")
}

fn modelled_device_seconds(response: &Value) -> f64 {
    response
        .get("report")
        .and_then(|r| r.get("modelled_device_seconds"))
        .and_then(Value::as_f64)
        .expect("GPU solve response carries report.modelled_device_seconds")
}

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
    let mut client = Client::connect(&addr)?;
    println!("connected to gpm-service at {addr}");

    // Part 1: the persistent pricing agrees with launch-per-round over the
    // wire.  A long-diameter mesh-like instance is the launch-bound regime
    // the resident mode exists for.
    let graph = gen::road_network(220, 220, 0.05, 11).expect("generate graph");
    let fingerprint = client.put_graph(&graph)?;
    let launch = Algorithm::gpr_default().with_worklist(WorklistMode::BlockedQueue);
    let resident = launch.with_exec(ExecMode::Persistent);
    println!(
        "solving {}x{} road grid with '{launch}' and '{resident}' …",
        graph.num_rows(),
        graph.num_cols()
    );
    let launch_response = client.solve_cached(fingerprint, launch, InitHeuristic::Cheap)?;
    let resident_response = client.solve_cached(fingerprint, resident, InitHeuristic::Cheap)?;
    let (launch_card, resident_card) =
        (cardinality(&launch_response), cardinality(&resident_response));
    assert_eq!(
        launch_card, resident_card,
        "persistent and launch-per-round must agree over the wire"
    );
    // The report echoes the paper's family label; the full spec (worklist
    // and exec suffixes included) lives in the request grammar.
    let echoed = resident_response
        .get("report")
        .and_then(|r| r.get("algorithm"))
        .and_then(Value::as_str)
        .map(str::to_string);
    assert_eq!(echoed.as_deref(), Some("G-PR-Shr"), "unexpected report label");
    println!("both execution modes matched {launch_card} pairs");
    // Both modes execute the same launches; only the price differs, and on
    // this many near-empty rounds a barrier crossing beats a launch.
    let (launch_s, resident_s) =
        (modelled_device_seconds(&launch_response), modelled_device_seconds(&resident_response));
    println!(
        "modelled device time: launch-per-round {:.3} ms, resident {:.3} ms",
        launch_s * 1e3,
        resident_s * 1e3
    );
    assert!(
        resident_s < launch_s,
        "the resident price ({resident_s} s) must undercut launch-per-round ({launch_s} s)"
    );

    // Part 2: cancellation stays round-granular under the megakernel
    // pricing: the round loop's stop poll honours this cancel mid-solve.
    // The graph is uploaded first, so the solve starts as soon as it is
    // submitted and the cancel cannot overtake it in the queue.
    // Scale 18 keeps the solve running several times longer than the
    // polls and the cancel take to reach the server.
    let huge = gen::rmat(gen::RmatParams::graph500(18, 16), 7).expect("generate graph");
    let victim_fingerprint = client.put_graph(&huge)?;
    println!(
        "submitting {}x{} RMAT '@resident' solve ({} edges) tagged 'resident-victim' …",
        huge.num_rows(),
        huge.num_cols(),
        huge.num_edges()
    );
    let solve_addr = addr.clone();
    let started = Instant::now();
    let solve = std::thread::spawn(move || -> std::io::Result<std::io::Error> {
        let mut a = Client::connect(&solve_addr)?;
        let options =
            SolveOptions { tag: Some("resident-victim".to_string()), ..Default::default() };
        let victim = Algorithm::gpr_default().with_exec(ExecMode::Persistent);
        match a.solve_cached_with(victim_fingerprint, victim, InitHeuristic::Empty, &options) {
            Ok(_) => Err(std::io::Error::other("solve finished before the cancel landed")),
            Err(e) => Ok(e),
        }
    });

    wait_until_running(&mut client)?;
    let cancelled = client.cancel_tag("resident-victim")?;
    println!("cancel reached {cancelled} job(s) after {:?}", started.elapsed());
    assert_eq!(cancelled, 1, "the running job must be cancellable by its tag");

    let err = solve.join().expect("solve thread panicked")?;
    let message = err.to_string();
    assert!(message.contains("cancelled"), "expected a cancelled error, got: {message}");
    let rounds = rounds_completed(&message);
    assert!(rounds >= 1, "the cancel must land inside the round loop, got: {message}");
    println!("resident solve failed as expected: {message}");
    println!("cancelled end-to-end in {:?}", started.elapsed());

    if std::env::var("KEEP_SERVER").is_err() {
        client.shutdown()?;
        println!("server shut down");
    }
    Ok(())
}
