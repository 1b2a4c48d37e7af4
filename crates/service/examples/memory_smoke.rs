//! Memory smoke test, driven over the wire against a running one-worker
//! `gpm-service` server whose graph cache is off:
//!
//! ```text
//! cargo run --release -p gpm-service -- --workers 1 --cache 0 &
//! cargo run --release -p gpm-service --example memory_smoke -- 127.0.0.1:7878 <server pid>
//! ```
//!
//! The example solves inline graphs of 24 distinct sizes, largest first
//! (uniform random, 20,000 rows down to 8,500, three edges per row), each
//! under `G-PR-Shr@adaptive:0.7`, `G-HKDW` and
//! `G-PR-Shr@adaptive:0.7+blocked`, and checks every answer against a
//! client-side oracle.  A worker's device memory should follow its largest
//! graph, so once the first graph has been solved the server's peak
//! resident set (`VmHWM` in `/proc/<pid>/status`) must grow by less than
//! 4 MiB over the other 23; a worker that kept buffers per graph shape
//! grows it by tens of MiB.  With the cache off, no cached graph adds to
//! the figure.  Exits non-zero on any broken invariant, so CI can gate on
//! it (set `KEEP_SERVER=1` to leave the server running).

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::gen;
use gpm_graph::verify::maximum_matching_cardinality;
use gpm_service::Client;
use serde::Value;

const SIZES: usize = 24;
const LARGEST_ROWS: usize = 20_000;
const ROW_STEP: usize = 500;
const MAX_GROWTH_KIB: u64 = 4 * 1024;

/// The server's peak resident set, in KiB.
fn peak_rss_kib(pid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("reading /proc/{pid}/status: {e}"));
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM in kB in the server's status")
}

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let pid = args.next().expect("usage: memory_smoke <addr> <server pid>");
    let mut client = Client::connect(&addr)?;
    println!("connected to gpm-service at {addr} (pid {pid})");

    let labels = ["G-PR-Shr@adaptive:0.7", "G-HKDW", "G-PR-Shr@adaptive:0.7+blocked"];
    let algorithms: Vec<Algorithm> = labels.iter().map(|l| l.parse().expect("label")).collect();
    let mut after_first = None;
    for (i, rows) in (0..SIZES).map(|i| (i, LARGEST_ROWS - ROW_STEP * i)) {
        let graph = gen::uniform_random(rows, rows, 3 * rows, i as u64).expect("generate graph");
        let opt = maximum_matching_cardinality(&graph) as u64;
        for &algorithm in &algorithms {
            let response = client.solve_inline(&graph, algorithm, InitHeuristic::Cheap)?;
            let report = response.get("report").expect("solve response carries a report");
            let cardinality = report.get("cardinality").and_then(Value::as_u64);
            assert_eq!(cardinality, Some(opt), "{algorithm} on the {rows}-row graph");
        }
        let peak = peak_rss_kib(&pid);
        println!("{rows:>6} rows: VmHWM {:.1} MiB", peak as f64 / 1024.0);
        after_first.get_or_insert(peak);
    }

    let first = after_first.expect("at least one graph");
    let growth = peak_rss_kib(&pid) - first;
    println!(
        "VmHWM grew by {:.1} MiB after the first graph (bound {:.1} MiB)",
        growth as f64 / 1024.0,
        MAX_GROWTH_KIB as f64 / 1024.0
    );
    assert!(growth < MAX_GROWTH_KIB, "a worker's memory grew with the graph shapes it solved");

    if std::env::var_os("KEEP_SERVER").is_none() {
        client.shutdown()?;
        println!("server shut down");
    }
    Ok(())
}
