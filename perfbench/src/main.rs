//! `perfbench`: the wall-clock service benchmark.
//!
//! ```text
//! perfbench --server PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives a real `gpm-service` (the binary at `--server`)
//! over TCP and reports the end-to-end metrics; with `--trace 1` it replays
//! the same request lines in process and reports the per-layer metrics.
//! The last line of standard output is the result object; progress goes to
//! standard error.  See `README.md` beside this package.

mod corpus;
mod load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

pub struct Args {
    pub server: PathBuf,
    pub out: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut server = None;
        let mut out = None;
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
            let number = |what: &str| format!("{flag} requires {what}, got '{value}'");
            match flag.as_str() {
                "--server" => server = Some(PathBuf::from(&value)),
                "--out" => out = Some(PathBuf::from(&value)),
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => {
                    // Negative seeds name the same 64-bit pattern.
                    let parsed =
                        value.parse::<u64>().or_else(|_| value.parse::<i64>().map(|s| s as u64));
                    seed = Some(parsed.map_err(|_| number("an integer"))?);
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| number("a positive number"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(number("0 or 1")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let missing = |flag: &str| format!("missing {flag}");
        Ok(Args {
            server: server.ok_or_else(|| missing("--server"))?,
            out: out.ok_or_else(|| missing("--out"))?,
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<stats::Metric>,
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let started = Instant::now();
    let corpus = corpus::build_corpus()?;
    let plan = workload::build_plan(args.workload, args.seed, args.seconds, &corpus)?;
    eprintln!(
        "perfbench: {} seed {}: inputs and oracle ready in {:.2} s",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        trace::run(&args, &corpus, &plan)?
    } else {
        load::run(&args, &corpus, &plan)?
    };
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
