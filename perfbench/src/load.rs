//! The untraced run: a real `gpm-service` process driven over TCP by a
//! closed-loop load generator, one connection per client thread.

use crate::corpus::Instance;
use crate::stats::{median, percentile, Metric};
use crate::workload::{Op, Plan, Request};
use crate::{Args, Outcome};
use gpm_service::proto::fingerprint_from_hex;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A request with no response after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The stats op: the cheapest request, used for the transport floors.
pub const STATS_LINE: &str = "{\"op\":\"stats\"}\n";

/// A spawned `gpm-service`.  Dropping it kills the process if it is still
/// running and waits for it, so no exit path leaves a server behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server on a free loopback port with the workload's
    /// settings and waits for its "listening on" line.
    pub fn spawn(path: &Path, workers: usize, device: &str) -> Result<Server, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0", "--shards", "1", "--cache", "32"])
            .args(["--workers", &workers.to_string(), "--device", device])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        match addr {
            Some(addr) => Ok(Server { child, addr, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (first line: {line:?})"))
            }
        }
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }

    /// Asks the server to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acknowledged = Conn::open(self.addr)
            .and_then(|mut conn| conn.round_trip("{\"op\":\"shutdown\"}\n").map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => {
                    return acknowledged.map_err(|e| format!("shutdown request failed: {e}"))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not exit within 10 s of a shutdown request".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection: TCP_NODELAY, and each request line goes out in
/// a single write, so latency measures the server rather than client-side
/// framing.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    response: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn { stream, reader, response: String::new() })
    }

    /// Sends one newline-terminated line and reads the response line.
    /// Returns the seconds from the write to the end of the response, and
    /// the response without its newline.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<(f64, &str)> {
        self.response.clear();
        let started = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok((started.elapsed().as_secs_f64(), self.response.trim_end()))
    }
}

/// Checks one response against the oracle.  A solve answers with its
/// modelled device seconds (when the engine reports them).
pub fn check(
    plan: &Plan,
    corpus: &[Instance],
    op: Op,
    response: &str,
) -> Result<Option<f64>, String> {
    let v = serde_json::from_str(response).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = v.get("error").and_then(Value::as_str).unwrap_or("no error message");
        return Err(format!("server error: {error}"));
    }
    match op {
        Op::Solve { cardinality, .. } => {
            let report = v.get("report").ok_or("solve response without a report")?;
            let got = report.get("cardinality").and_then(Value::as_u64);
            if got != Some(cardinality as u64) {
                return Err(format!("cardinality {got:?}, oracle says {cardinality}"));
            }
            Ok(report.get("modelled_device_seconds").and_then(Value::as_f64))
        }
        Op::Put { .. } | Op::Patch { .. } => {
            let got = v
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("response without a fingerprint")
                .and_then(|hex| fingerprint_from_hex(hex).map_err(|_| "bad fingerprint"))?;
            let want = plan.expected_fingerprint(corpus, op).expect("uploads and patches");
            if got != want {
                return Err(format!("fingerprint {got:#018x}, expected {want:#018x}"));
            }
            Ok(None)
        }
    }
}

/// Outcomes of the timed requests.
#[derive(Debug, Default)]
pub struct Tally {
    /// Seconds from write to response, successful requests only.
    pub latencies: Vec<f64>,
    /// Modelled device seconds of each successful solve.
    pub modelled: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, seconds: f64, outcome: Result<Option<f64>, String>) {
        self.attempted += 1;
        match outcome {
            Ok(modelled) => {
                self.latencies.push(seconds);
                self.modelled.extend(modelled);
            }
            Err(reason) => {
                self.failed += 1;
                // Report the first few so a broken run explains itself.
                if self.failed <= 3 {
                    eprintln!("perfbench: request failed: {reason}");
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.modelled.extend(other.modelled);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Sends one stream's requests in a closed loop: each request goes out
/// when the previous response is in.  A warm-up (one pass of a cyclic
/// stream, one round of a patch stream) lets the workers build their
/// engines and touch every graph; then all connections start the timed
/// phase together and send until `seconds` have passed.  Warm-up requests
/// are checked and count as attempted, but not in the latencies.  A dropped
/// or timed-out connection fails its request and is reopened.
///
/// Returns the tally and the connection's throughput.  Both cover whole
/// passes (rounds) only: request kinds differ in cost by two orders of
/// magnitude, and the kinds a cut-off last pass happens to include would
/// otherwise tilt the percentiles and the rate from run to run.  Modelled
/// seconds cover every timed solve.
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    corpus: &[Instance],
    stream: &[Request],
    start: &Barrier,
    seconds: f64,
) -> (Tally, f64) {
    let mut conn = Conn::open(addr);
    let mut send = |request: &Request, tally: &mut Tally| {
        let result = match &mut conn {
            Ok(c) => c.round_trip(&request.line).map_err(|e| e.to_string()),
            Err(e) => Err(format!("no connection: {e}")),
        };
        match result {
            Ok((secs, response)) => tally.record(secs, check(plan, corpus, request.op, response)),
            Err(e) => {
                tally.record(0.0, Err(format!("transport: {e}")));
                conn = Conn::open(addr);
            }
        }
    };
    let pass = if plan.cyclic { stream.len() } else { plan.round_len };
    let mut warm = Tally::default();
    for request in &stream[..pass] {
        send(request, &mut warm);
    }
    start.wait();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    // (successful requests, seconds) at the end of the last whole pass.
    let mut whole = (0, 0.0);
    let mut requests =
        stream[pass..].iter().chain(stream.iter().cycle().take_while(|_| plan.cyclic));
    for sent in 1.. {
        let Some(request) = requests.next().filter(|_| Instant::now() < deadline) else { break };
        send(request, &mut tally);
        if sent % pass == 0 {
            whole = (tally.latencies.len(), started.elapsed().as_secs_f64());
        }
    }
    tally.latencies.truncate(whole.0);
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    (tally, crate::stats::ratio(whole.0 as f64, whole.1))
}

/// Spawns the server and uploads the corpus; returns the server and the
/// seconds from spawn until the last upload was acknowledged.
fn set_up(args: &Args, corpus: &[Instance], plan: &Plan) -> Result<(Server, f64), String> {
    let (workers, _, device) = plan.workload.server();
    let started = Instant::now();
    let server = Server::spawn(&args.server, workers, device)?;
    let mut conn = Conn::open(server.addr).map_err(|e| format!("connecting: {e}"))?;
    for request in &plan.setup {
        let (_, response) =
            conn.round_trip(&request.line).map_err(|e| format!("uploading the corpus: {e}"))?;
        check(plan, corpus, request.op, response).map_err(|e| format!("uploading: {e}"))?;
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, corpus: &[Instance], plan: &Plan) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let (server, seconds) = set_up(args, corpus, plan)?;
        setups.push(seconds);
        if i + 1 < SETUPS {
            server.shutdown()?;
        } else {
            kept = Some(server);
        }
    }
    let server = kept.expect("at least one set-up");

    let start = Barrier::new(plan.streams.len());
    let results: Vec<(Tally, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                let start = &start;
                s.spawn(move || drive(server.addr, plan, corpus, stream, start, args.seconds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let throughput: f64 = results.iter().map(|r| r.1).sum();
    let mut tally = Tally::default();
    for (t, _) in results {
        tally.merge(t);
    }
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;

    let ms = |s: f64| s * 1e3;
    let metrics = vec![
        Metric::new("throughput_rps", throughput, "1/s"),
        Metric::new("latency_p50_ms", ms(percentile(&tally.latencies, 0.5)?), "ms"),
        Metric::new("latency_p90_ms", ms(percentile(&tally.latencies, 0.9)?), "ms"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("server_peak_rss_mb", rss, "MiB"),
        Metric::new("modelled_device_ms_per_solve", ms(crate::stats::mean(&tally.modelled)), "ms"),
    ];
    eprintln!(
        "perfbench: {} requests over {} connection(s), error_rate {}",
        tally.attempted,
        plan.streams.len(),
        tally.error_rate()
    );
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_plan, Target, Workload};
    use gpm_cpu::hopcroft_karp;
    use gpm_graph::{gen, Matching};
    use std::sync::Arc;

    #[test]
    fn an_injected_wrong_cardinality_shows_up_in_error_rate() {
        let graph = gen::uniform_random(40, 40, 200, 9).unwrap();
        let m = hopcroft_karp(&graph, &Matching::empty_for(&graph)).matching;
        let corpus = vec![Instance {
            name: "test",
            fingerprint: graph.fingerprint(),
            max_cardinality: m.cardinality(),
            max_matching: m,
            graph: Arc::new(graph),
            hk_seconds: 0.0,
        }];
        let plan = build_plan(Workload::SolveCached, 1, 1.0, &corpus).unwrap();
        let card = corpus[0].max_cardinality;
        let op = Op::Solve { target: Target::Corpus(0), engine: 0, cardinality: card };
        let response = |c: usize| {
            format!(
                r#"{{"ok":true,"report":{{"cardinality":{c},"modelled_device_seconds":0.002}}}}"#
            )
        };
        let mut tally = Tally::default();
        for _ in 0..3 {
            tally.record(0.01, check(&plan, &corpus, op, &response(card)));
        }
        tally.record(0.01, check(&plan, &corpus, op, &response(card - 1)));
        tally.record(0.01, check(&plan, &corpus, op, r#"{"ok":false,"error":"boom"}"#));
        assert_eq!((tally.attempted, tally.failed), (5, 2));
        assert!((tally.error_rate() - 0.4).abs() < 1e-12);
        assert_eq!(tally.latencies.len(), 3);
        assert_eq!(tally.modelled, vec![0.002; 3]);

        let put = Op::Put { graph: 0 };
        let fp = format!(r#"{{"ok":true,"fingerprint":"{:#018x}"}}"#, corpus[0].fingerprint);
        assert_eq!(check(&plan, &corpus, put, &fp), Ok(None));
        let wrong = format!(r#"{{"ok":true,"fingerprint":"{:#018x}"}}"#, corpus[0].fingerprint ^ 1);
        assert!(check(&plan, &corpus, put, &wrong).unwrap_err().contains("fingerprint"));
    }
}
