//! The `gpm-service` server binary: a JSON-lines matching service over TCP.
//!
//! ```text
//! gpm-service [--addr HOST:PORT] [--shards M] [--workers N] [--cache N]
//!             [--device POLICY] [--max-queue-depth N]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7878`; port 0 picks a
//!   free port, printed on startup).
//! * `--shards` — device shards; each owns its own worker pool, queue, and
//!   graph cache, and jobs are placed by fingerprint affinity (default 1).
//! * `--workers` — pool size **per shard**; each worker owns a warm solver
//!   (default 2).
//! * `--cache` — graph-cache capacity **per shard**, in graphs (default
//!   32).
//! * `--device` — `cpu-only`, `sequential`, `parallel:N`, or `auto`
//!   (default `sequential`).
//! * `--max-queue-depth` — bound each shard's queue; submissions finding
//!   every shard full are rejected with an `overloaded` error instead of
//!   queuing (default: unbounded).
//!
//! Request lines may be up to 64 MiB long
//! (`gpm_service::server::MAX_REQUEST_LINE_BYTES`); a longer line is
//! answered with an error and its connection closed.  The process exits
//! after a client sends `{"op":"shutdown"}`.

use gpm_core::DevicePolicy;
use gpm_service::{serve, Service};
use std::net::TcpListener;
use std::process::ExitCode;

fn parse_device(s: &str) -> Result<DevicePolicy, String> {
    match s {
        "cpu-only" => Ok(DevicePolicy::CpuOnly),
        "sequential" => Ok(DevicePolicy::Sequential),
        "auto" => Ok(DevicePolicy::Auto),
        other => match other.strip_prefix("parallel:") {
            Some(n) => n
                .parse::<usize>()
                .map(DevicePolicy::Parallel)
                .map_err(|_| format!("bad worker count in '{other}'")),
            None => Err(format!(
                "bad device policy '{other}': expected cpu-only, sequential, parallel:N, or auto"
            )),
        },
    }
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shards = 1usize;
    let mut workers = 2usize;
    let mut cache = 32usize;
    let mut device = DevicePolicy::Sequential;
    let mut max_queue_depth: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards requires an integer".to_string())?;
            }
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers requires an integer".to_string())?;
            }
            "--cache" => {
                cache = value("--cache")?
                    .parse()
                    .map_err(|_| "--cache requires an integer".to_string())?;
            }
            "--device" => device = parse_device(&value("--device")?)?,
            "--max-queue-depth" => {
                max_queue_depth = Some(
                    value("--max-queue-depth")?
                        .parse()
                        .map_err(|_| "--max-queue-depth requires an integer".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "gpm-service [--addr HOST:PORT] [--shards M] [--workers N] [--cache N] \
                     [--device POLICY] [--max-queue-depth N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let mut builder = Service::builder()
        .shards(shards)
        .workers(workers)
        .cache_capacity(cache)
        .device_policy(device);
    if let Some(depth) = max_queue_depth {
        builder = builder.max_queue_depth(depth);
    }
    let service = builder.build();
    // Scripts (and the CI smoke test) wait for this line before connecting.
    println!(
        "gpm-service listening on {local} ({} shard(s), {workers} workers/shard, \
         cache {cache}/shard)",
        service.shard_count()
    );
    serve(listener, service).map_err(|e| format!("server error: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gpm-service: {message}");
            ExitCode::FAILURE
        }
    }
}
