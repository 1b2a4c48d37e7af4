//! The `gpm-bench` front door: produce the canonical `BENCH_<n>.json`
//! perf dump, or diff two dumps as the CI regression gate.
//!
//! ```text
//! gpm-bench --dump-bench BENCH_7.json [--scale tiny|small|medium|large]
//! gpm-bench --diff BENCH_6.json BENCH_7.json [--max-regression 0.15] [--require-pinned]
//! gpm-bench --list-algorithms
//! ```
//!
//! `--list-algorithms` prints the full algorithm-label grammar — every GPU
//! family × worklist mode × execution mode plus the CPU baselines — each
//! line a label `--algorithms` (and the service wire protocol) accepts.
//!
//! The dump's GPU cells carry modelled device seconds (deterministic, so
//! `pinned: true`); `--diff` fails (exit 1) when any pinned cell present
//! in both dumps is slower by more than the allowed fraction.  It prints a
//! summary line counting the faster and slower cells, then a `REGRESSION`
//! line per cell slower beyond the allowed fraction, a `SLOWER` line per
//! cell slower within it and a `FASTER` line per faster one.  A pinned
//! cell of the old dump *missing* from the new one is a warning by
//! default (renamed sweeps shouldn't brick a local run) and a failure
//! under `--require-pinned`, which is what CI passes.

use gpm_bench::dump;
use gpm_graph::instances::Scale;
use serde::Value;

fn usage() -> String {
    "usage: gpm-bench --dump-bench <path> [--scale tiny|small|medium|large]\n\
     \u{20}      gpm-bench --diff <old.json> <new.json> [--max-regression <fraction>] \
     [--require-pinned]\n\
     \u{20}      gpm-bench --list-algorithms"
        .to_string()
}

struct Cli {
    dump_path: Option<String>,
    diff_paths: Option<(String, String)>,
    list_algorithms: bool,
    scale: Scale,
    max_regression: f64,
    require_pinned: bool,
}

fn parse(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        dump_path: None,
        diff_paths: None,
        list_algorithms: false,
        scale: Scale::Tiny,
        max_regression: 0.15,
        require_pinned: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dump-bench" => {
                cli.dump_path = Some(it.next().ok_or("--dump-bench requires a path")?);
            }
            "--list-algorithms" => cli.list_algorithms = true,
            "--diff" => {
                let old = it.next().ok_or("--diff requires two paths")?;
                let new = it.next().ok_or("--diff requires two paths")?;
                cli.diff_paths = Some((old, new));
            }
            "--scale" => {
                cli.scale = match it.next().ok_or("--scale requires a value")?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--max-regression" => {
                let raw = it.next().ok_or("--max-regression requires a fraction")?;
                cli.max_regression =
                    raw.parse().map_err(|e| format!("bad --max-regression '{raw}': {e}"))?;
                if !(0.0..10.0).contains(&cli.max_regression) {
                    return Err(format!("--max-regression {raw} out of range"));
                }
            }
            "--require-pinned" => cli.require_pinned = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    let modes = usize::from(cli.dump_path.is_some())
        + usize::from(cli.diff_paths.is_some())
        + usize::from(cli.list_algorithms);
    if modes != 1 {
        return Err(format!(
            "exactly one of --dump-bench / --diff / --list-algorithms is required\n{}",
            usage()
        ));
    }
    Ok(cli)
}

fn read_dump(path: &str) -> Value {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("{path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let cli = match parse(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if cli.list_algorithms {
        print!("{}", gpm_bench::cli::label_grammar());
        return;
    }

    if let Some(path) = cli.dump_path {
        let produced = dump::produce(cli.scale);
        let pinned = produced.cells.iter().filter(|c| c.pinned).count();
        println!(
            "sweep: {} cells ({} pinned) at scale {}",
            produced.cells.len(),
            pinned,
            produced.scale
        );
        for run in [&produced.service.baseline, &produced.service.sharded] {
            println!(
                "service {}x{}: hit rate {:.3}, {} reuploads, {:.0} submits/s, {:.0} jobs/s",
                run.shards,
                run.workers_per_shard,
                run.cache_hit_rate,
                run.reuploads,
                run.submit_throughput_jobs_per_sec,
                run.throughput_jobs_per_sec,
            );
        }
        let json = serde_json::to_string_pretty(&produced).expect("dump serializes");
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
        return;
    }

    let (old_path, new_path) = cli.diff_paths.expect("parse guarantees one mode");
    let report = dump::diff(
        &read_dump(&old_path),
        &read_dump(&new_path),
        cli.max_regression,
        cli.require_pinned,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot diff {old_path} vs {new_path}: {e}");
        std::process::exit(2);
    });
    print!("{}", report.render(&old_path, &new_path));
    if !report.passed() {
        eprintln!(
            "{}: {} regression(s), {} missing pinned cell(s)",
            new_path,
            report.regressions.len(),
            report.missing.len()
        );
        std::process::exit(1);
    }
    println!("{new_path}: pinned cells within budget");
}
