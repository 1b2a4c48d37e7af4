//! The traced run: per-layer metrics.
//!
//! The workload's request lines are replayed in process against a
//! [`Service`] built with the server's settings, with one thread per
//! connection.  Each request is timed from outside, around the calls the
//! server makes for it: `proto::parse_request`, the `Service` call
//! (`put_graph`, `patch_graph`, or `submit` then `wait`), and
//! `proto::ok_response`.  Queue wait, service time, engine time and device
//! counters are read off each `JobOutcome`.  Spans stay in memory and are
//! written out at the end.
//!
//! Work the service does inside those calls (fingerprinting, CSR building,
//! the init heuristic, patching, warm re-solves) is timed by calling the
//! same public functions again on the same inputs after the replay; those
//! shadow timings are not part of any request span.  The transport floors
//! are probed against a real server process.

use crate::corpus::Instance;
use crate::load::{Conn, Server, STATS_LINE};
use crate::stats::{mean, percentile, ratio, Metric};
use crate::workload::{Op, Plan, Request, Target, ENGINES, EXEC_MODE_PAIRS};
use crate::{Args, Outcome};
use gpm_core::{Algorithm, DevicePolicy, InitHeuristic, SolveCtx, Solver};
use gpm_gpu::DeviceStats;
use gpm_graph::BipartiteCsr;
use gpm_service::proto::{
    fingerprint_to_hex, ok_response, parse_request, Request as Wire, RequestGraph,
};
use gpm_service::{GraphSource, JobSpec, Service};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stats round trips per transport-floor probe (p50 needs 20).
const FLOOR_PROBES: usize = 21;

/// The attribution check: across the replay, the part of the traced request
/// time that no layer's self time covers must stay below this share.  The
/// remainder is the hand-off between the replay thread and the pool worker
/// (condition-variable wake-ups) plus the gaps between timer reads.
const UNATTRIBUTED_BOUND: f64 = 0.10;

/// Graphs (and patch steps) the shadow timings visit at most.
const SHADOW_CAP: usize = 32;

/// The kernels the workloads' engines launch, reported one by one.  A
/// kernel missing here is named on standard error.
const KERNELS: [&str; 21] = [
    "FIXMATCHING",
    "G-GR-KRNL",
    "G-GR-WL-REFILL",
    "G-GR-WL-STITCH",
    "G-HK-BFS-INIT",
    "G-HK-BFS-KRNL",
    "G-HK-COMMIT",
    "G-HK-DFS-KRNL",
    "G-HK-RESIDENT",
    "G-HKDW-DW-KRNL",
    "G-PR-INITKRNL",
    "G-PR-PUSHKRNL",
    "G-PR-RESIDENT",
    "G-PR-SHRKRNL_count",
    "G-PR-SHRKRNL_scatter",
    "G-PR-WL-REFILL",
    "G-PR-WL-STITCH",
    "INITRELABEL_cols",
    "INITRELABEL_rows",
    "scan_block",
    "scan_uniform_add",
];

/// What the service did for one solve.
struct SolveCall {
    engine: usize,
    submit: f64,
    wait: f64,
    queue: f64,
    service: f64,
    /// `report.wall_seconds`: the engine, excluding the init heuristic.
    engine_wall: f64,
    modelled: Option<f64>,
    device: Option<DeviceStats>,
}

enum Call {
    Put(f64),
    Patch(f64),
    Solve(Box<SolveCall>),
}

/// One traced request.  Times are seconds; `start` counts from the start
/// of the replay.
struct Traced {
    id: u64,
    op: Op,
    start: f64,
    total: f64,
    parse: f64,
    call: Call,
    render: f64,
    request_bytes: usize,
    response_bytes: usize,
    ok: bool,
}

impl Traced {
    /// Sum of the layers' self times.  A solve's job (queue wait plus
    /// service time) starts at the enqueue inside `submit` and ends before
    /// `wait` returns, so it nests in the submit-and-wait interval; when the
    /// submitting thread is preempted after the enqueue, the two overlap,
    /// and submit's self time is its span minus that overlap.  What is left
    /// of the interval is the hand-off from the worker back to the caller,
    /// which no layer reports.
    fn attributed(&self) -> f64 {
        let call = match &self.call {
            Call::Put(s) | Call::Patch(s) => *s,
            Call::Solve(c) => {
                let job = c.queue + c.service;
                let submit_self = c.submit.min((c.submit + c.wait - job).max(0.0));
                submit_self + job
            }
        };
        self.parse + call + self.render
    }
}

/// Replays one request line: parse, service call, render.
fn replay(
    service: &Service,
    corpus: &[Instance],
    plan: &Plan,
    request: &Request,
    id: u64,
    epoch: Instant,
) -> Traced {
    let line = request.line.trim_end_matches('\n');
    let t0 = Instant::now();
    let parsed = parse_request(line);
    let t1 = Instant::now();
    let (call, fields, ok) = match parsed {
        Ok(Wire::PutGraph(graph)) => {
            let fingerprint = service.put_graph(graph);
            let seconds = t1.elapsed().as_secs_f64();
            let ok = plan.expected_fingerprint(corpus, request.op) == Some(fingerprint);
            let fields = vec![
                ("op".to_string(), Value::Str("put_graph".to_string())),
                ("fingerprint".to_string(), Value::Str(fingerprint_to_hex(fingerprint))),
            ];
            (Call::Put(seconds), fields, ok)
        }
        Ok(Wire::PatchGraph { parent, delta }) => {
            let result = service.patch_graph(parent, &delta);
            let seconds = t1.elapsed().as_secs_f64();
            let lineage = result.map_err(|e| eprintln!("perfbench: traced patch failed: {e}")).ok();
            let ok = lineage.map(|l| l.child) == plan.expected_fingerprint(corpus, request.op);
            let child = lineage.map_or(0, |l| l.child);
            let fields = vec![
                ("op".to_string(), Value::Str("patch_graph".to_string())),
                ("parent".to_string(), Value::Str(fingerprint_to_hex(parent))),
                ("fingerprint".to_string(), Value::Str(fingerprint_to_hex(child))),
            ];
            (Call::Patch(seconds), fields, ok)
        }
        Ok(Wire::Solve { algorithm, init, graph, priority, .. }) => {
            let source = match graph {
                RequestGraph::Fingerprint(fp) => GraphSource::Cached(fp),
                RequestGraph::Inline(g) => GraphSource::Inline(Arc::new(g)),
            };
            let spec = JobSpec::new(source, algorithm).with_init(init).with_priority(priority);
            let handle = service.submit(spec);
            let t2 = Instant::now();
            let result = handle.wait();
            let wait = t2.elapsed().as_secs_f64();
            let Op::Solve { engine, cardinality, .. } = request.op else {
                unreachable!("solve lines carry solve ops")
            };
            match result {
                Ok(outcome) => {
                    let report = &outcome.report;
                    let fields = vec![
                        ("op".to_string(), Value::Str("solve".to_string())),
                        ("job_id".to_string(), Value::U64(id)),
                        ("report".to_string(), report.to_value()),
                        ("shard".to_string(), Value::U64(outcome.shard as u64)),
                        ("worker".to_string(), Value::U64(outcome.worker as u64)),
                        ("cache_hit".to_string(), Value::Bool(outcome.cache_hit)),
                        ("queue_seconds".to_string(), Value::F64(outcome.queue_seconds)),
                        ("service_seconds".to_string(), Value::F64(outcome.service_seconds)),
                    ];
                    let call = SolveCall {
                        engine,
                        submit: (t2 - t1).as_secs_f64(),
                        wait,
                        queue: outcome.queue_seconds,
                        service: outcome.service_seconds,
                        engine_wall: report.wall_seconds,
                        modelled: report.modelled_device_seconds,
                        device: outcome.report.device_stats.clone(),
                    };
                    let ok = report.cardinality == cardinality;
                    if !ok {
                        eprintln!(
                            "perfbench: traced {} on {:?} found {}, oracle says {cardinality}",
                            report.algorithm, request.op, report.cardinality
                        );
                    }
                    (Call::Solve(Box::new(call)), fields, ok)
                }
                Err(e) => {
                    eprintln!("perfbench: traced solve failed: {e}");
                    let call = SolveCall {
                        engine,
                        submit: (t2 - t1).as_secs_f64(),
                        wait,
                        queue: 0.0,
                        service: 0.0,
                        engine_wall: 0.0,
                        modelled: None,
                        device: None,
                    };
                    (Call::Solve(Box::new(call)), Vec::new(), false)
                }
            }
        }
        Ok(other) => panic!("the workloads send no {other:?}"),
        Err(e) => {
            eprintln!("perfbench: traced request did not parse: {e}");
            (Call::Put(0.0), Vec::new(), false)
        }
    };
    let t3 = Instant::now();
    let response = ok_response(fields);
    let t4 = Instant::now();
    Traced {
        id,
        op: request.op,
        start: (t0 - epoch).as_secs_f64(),
        total: (t4 - t0).as_secs_f64(),
        parse: (t1 - t0).as_secs_f64(),
        call,
        render: (t4 - t3).as_secs_f64(),
        request_bytes: request.line.len(),
        response_bytes: response.len() + 1,
        ok,
    }
}

/// Keeps the replay threads of a patch stream in step.  Over TCP every
/// response pays the transport floor, so the connections advance their
/// chains at about the same rate; replayed in process, one thread can run
/// many rounds ahead, and its patches then evict the other thread's chain
/// heads from the 32-graph cache before they are patched again.
struct Lockstep {
    barrier: std::sync::Barrier,
    stop: std::sync::atomic::AtomicBool,
}

impl Lockstep {
    fn new(threads: usize) -> Self {
        Lockstep { barrier: std::sync::Barrier::new(threads), stop: false.into() }
    }

    /// Waits for every thread to finish its round; `false` once `deadline`
    /// has passed, the same answer for all of them.
    fn next_round(&self, deadline: Instant) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        if self.barrier.wait().is_leader() {
            self.stop.store(Instant::now() >= deadline, SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(SeqCst)
    }
}

/// Replays one stream.  A cyclic stream runs until `deadline` and for at
/// least one full pass, so every request kind is seen.  A patch stream
/// advances one step of each of its chains per round, in lockstep with the
/// other threads, until `deadline` or the end of its chains.
#[allow(clippy::too_many_arguments)]
fn replay_stream(
    service: &Service,
    corpus: &[Instance],
    plan: &Plan,
    stream: &[Request],
    first_id: u64,
    epoch: Instant,
    deadline: Instant,
    lockstep: &Lockstep,
) -> Vec<Traced> {
    let mut traced = Vec::new();
    let mut replay_one = |i: usize, request: &Request| {
        traced.push(replay(service, corpus, plan, request, first_id + i as u64, epoch));
    };
    if plan.cyclic {
        for (i, request) in stream.iter().cycle().enumerate() {
            if i >= stream.len() && Instant::now() >= deadline {
                break;
            }
            replay_one(i, request);
        }
    } else {
        for (round, requests) in stream.chunks(plan.round_len).enumerate() {
            for (j, request) in requests.iter().enumerate() {
                replay_one(round * plan.round_len + j, request);
            }
            if !lockstep.next_round(deadline) {
                break;
            }
        }
    }
    traced
}

/// p50 of `probes` stats round trips made by `round_trip`.
fn floor_ms(mut round_trip: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let samples = (0..FLOOR_PROBES).map(|_| round_trip()).collect::<Result<Vec<_>, _>>()?;
    Ok(percentile(&samples, 0.5)? * 1e3)
}

/// The transport floors against a real server: this generator's
/// single-write TCP_NODELAY socket, and the bundled `Client`.
fn transport_floors(args: &Args, plan: &Plan) -> Result<(f64, f64), String> {
    let (workers, _, device) = plan.workload.server();
    let server = Server::spawn(&args.server, workers, device)?;
    let mut conn = Conn::open(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let server_floor = floor_ms(|| {
        conn.round_trip(STATS_LINE).map(|(seconds, _)| seconds).map_err(|e| e.to_string())
    })?;
    let mut client = gpm_service::Client::connect(server.addr).map_err(|e| e.to_string())?;
    let client_floor = floor_ms(|| {
        let started = Instant::now();
        client.stats().map_err(|e| e.to_string())?;
        Ok(started.elapsed().as_secs_f64())
    })?;
    drop((conn, client));
    server.shutdown()?;
    Ok((server_floor, client_floor))
}

/// Median seconds of three calls of `f`.
fn time3<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Shadow timings of the layers below the service, in seconds per call.
#[derive(Default)]
struct Shadows {
    fingerprint: Vec<f64>,
    from_edges: Vec<f64>,
    init: Vec<f64>,
    apply_delta: Vec<f64>,
    resolve: Vec<f64>,
}

fn shadow_timings(
    corpus: &[Instance],
    plan: &Plan,
    traced: &[Traced],
    policy: DevicePolicy,
) -> Result<Shadows, String> {
    let mut shadows = Shadows::default();
    let mut graphs = BTreeSet::new();
    let mut patches = BTreeSet::new();
    for t in traced {
        match t.op {
            Op::Put { graph } => {
                graphs.insert(Target::Corpus(graph));
            }
            Op::Solve { target, .. } => {
                graphs.insert(target);
            }
            Op::Patch { chain, step } => {
                patches.insert((chain, step));
            }
        }
    }
    for target in graphs.into_iter().take(SHADOW_CAP) {
        let graph = plan.graph(corpus, target);
        shadows.fingerprint.push(time3(|| graph.fingerprint()));
        let edges: Vec<_> = graph.edges().collect();
        shadows
            .from_edges
            .push(time3(|| BipartiteCsr::from_edges(graph.num_rows(), graph.num_cols(), &edges)));
        shadows.init.push(time3(|| InitHeuristic::Cheap.build(graph)));
    }
    let algorithm: Algorithm = ENGINES[0].1.parse().map_err(|e| format!("{e}"))?;
    let mut solver = Solver::builder()
        .device_policy(policy)
        .build()
        .map_err(|e| format!("building the shadow solver: {e}"))?;
    for (chain, step) in patches.into_iter().take(SHADOW_CAP) {
        let s = &plan.chains[chain][step];
        let parent = match step {
            0 => &corpus[chain].graph,
            _ => &plan.chains[chain][step - 1].child,
        };
        shadows.apply_delta.push(time3(|| parent.apply_delta(&s.delta)));
        let started = Instant::now();
        solver
            .resolve_prepared_ctx(
                &s.child,
                &s.parent_matching,
                &s.delta,
                algorithm,
                &SolveCtx::unbounded(),
            )
            .map_err(|e| format!("shadow re-solve: {e}"))?;
        shadows.resolve.push(started.elapsed().as_secs_f64());
    }
    Ok(shadows)
}

/// Writes every request's spans as JSON lines: request id, span id, parent
/// span id, name, start and duration in microseconds.  Spans read off a
/// `JobOutcome` (queue wait, job, engine) are durations; they are placed
/// back to back inside the wait.
fn write_spans<'a>(
    path: &std::path::Path,
    traced: impl IntoIterator<Item = &'a Traced>,
) -> Result<(), String> {
    let mut out = String::new();
    for t in traced {
        let mut next_span = 0u32;
        let mut span = |out: &mut String, parent: Option<u32>, name: &str, start: f64, dur: f64| {
            let id = next_span;
            next_span += 1;
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"req":{},"span":{id},"parent":{parent},"name":"{name}","start_us":{:.3},"dur_us":{:.3}}}"#,
                t.id,
                start * 1e6,
                dur * 1e6
            )
            .expect("writing to a String cannot fail");
            id
        };
        let root = span(&mut out, None, "request", t.start, t.total);
        span(&mut out, Some(root), "proto.parse", t.start, t.parse);
        let mut at = t.start + t.parse;
        match &t.call {
            Call::Put(s) => {
                span(&mut out, Some(root), "service.put_graph", at, *s);
                at += s;
            }
            Call::Patch(s) => {
                span(&mut out, Some(root), "service.patch_graph", at, *s);
                at += s;
            }
            Call::Solve(c) => {
                span(&mut out, Some(root), "service.submit", at, c.submit);
                at += c.submit;
                let wait = span(&mut out, Some(root), "service.wait", at, c.wait);
                span(&mut out, Some(wait), "service.queue_wait", at, c.queue);
                let job = span(&mut out, Some(wait), "service.job", at + c.queue, c.service);
                span(&mut out, Some(job), "core.engine", at + c.queue, c.engine_wall);
                at += c.wait;
            }
        }
        span(&mut out, Some(root), "proto.render", at, t.render);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn run(args: &Args, corpus: &[Instance], plan: &Plan) -> Result<Outcome, String> {
    let (server_floor, client_floor) = transport_floors(args, plan)?;

    let (workers, policy, _) = plan.workload.server();
    let service =
        Service::builder().workers(workers).device_policy(policy).cache_capacity(32).build();
    let epoch = Instant::now();
    let setup: Vec<Traced> = plan
        .setup
        .iter()
        .enumerate()
        .map(|(i, r)| replay(&service, corpus, plan, r, i as u64, epoch))
        .collect();
    let lockstep = Lockstep::new(plan.streams.len());
    let replay_start = Instant::now();
    let deadline = replay_start + Duration::from_secs_f64(args.seconds);
    let per_stream: Vec<Vec<Traced>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (service, lockstep) = (&service, &lockstep);
                let first_id = (c as u64 + 1) << 32;
                s.spawn(move || {
                    replay_stream(
                        service, corpus, plan, stream, first_id, epoch, deadline, lockstep,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let elapsed = replay_start.elapsed().as_secs_f64();
    let stats = service.stats();
    drop(service);
    let traced: Vec<Traced> = per_stream.into_iter().flatten().collect();
    let shadows = shadow_timings(corpus, plan, &traced, policy)?;

    let failed = setup.iter().chain(&traced).filter(|t| !t.ok).count() as u64;
    let attempted = (setup.len() + traced.len()) as u64;
    let total: f64 = traced.iter().map(|t| t.total).sum();
    let unattributed: f64 = traced.iter().map(|t| t.total - t.attributed()).sum();
    let unattributed_share = ratio(unattributed, total);
    let attribution_holds = unattributed_share.abs() <= UNATTRIBUTED_BOUND;
    if !attribution_holds {
        eprintln!(
            "perfbench: layer self times leave {unattributed_share:.4} of the traced request \
             time unattributed; the bound is {UNATTRIBUTED_BOUND}"
        );
    }

    let ms = 1e3;
    let of = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let solves: Vec<&SolveCall> = traced
        .iter()
        .filter(|t| t.ok)
        .filter_map(|t| match &t.call {
            Call::Solve(c) => Some(c.as_ref()),
            _ => None,
        })
        .collect();
    let over_solves =
        |f: &dyn Fn(&SolveCall) -> f64| mean(&solves.iter().map(|c| f(c)).collect::<Vec<_>>());
    let devices: Vec<(&SolveCall, &DeviceStats)> =
        solves.iter().filter_map(|c| c.device.as_ref().map(|d| (*c, d))).collect();
    let over_devices = |f: &dyn Fn(&SolveCall, &DeviceStats) -> f64| {
        mean(&devices.iter().map(|(c, d)| f(c, d)).collect::<Vec<_>>())
    };
    let calls = |d: &DeviceStats| (d.total_launches() + d.total_resident_rounds()) as f64;
    let patches: Vec<f64> = traced
        .iter()
        .filter_map(|t| match t.call {
            Call::Patch(s) => Some(s),
            _ => None,
        })
        .collect();
    let puts: Vec<f64> = setup
        .iter()
        .filter_map(|t| match t.call {
            Call::Put(s) => Some(s),
            _ => None,
        })
        .collect();

    let mut metrics = vec![
        Metric::new("proto.parse_ms", mean(&of(&|t| t.parse)) * ms, "ms"),
        Metric::new("proto.request_bytes", mean(&of(&|t| t.request_bytes as f64)), "bytes"),
        Metric::new("proto.render_ms", mean(&of(&|t| t.render)) * ms, "ms"),
        Metric::new("proto.response_bytes", mean(&of(&|t| t.response_bytes as f64)), "bytes"),
        Metric::new("server.floor_ms", server_floor, "ms"),
        Metric::new("client.floor_ms", client_floor, "ms"),
        Metric::new("service.submit_ms", over_solves(&|c| c.submit) * ms, "ms"),
        Metric::new("service.queue_wait_ms", over_solves(&|c| c.queue) * ms, "ms"),
        Metric::new(
            "service.job_overhead_ms",
            over_solves(&|c| c.service - c.engine_wall) * ms,
            "ms",
        ),
        Metric::new("cache.hit_ratio", stats.cache.hit_ratio(), "ratio"),
        Metric::new("service.put_graph_ms", mean(&puts) * ms, "ms"),
        Metric::new("graph.fingerprint_ms", mean(&shadows.fingerprint) * ms, "ms"),
        Metric::new("service.patch_graph_ms", mean(&patches) * ms, "ms"),
        Metric::new("graph.apply_delta_ms", mean(&shadows.apply_delta) * ms, "ms"),
        Metric::new(
            "service.warm_start_ratio",
            ratio(stats.resolved as f64, stats.completed as f64),
            "ratio",
        ),
        Metric::new("core.resolve_ms", mean(&shadows.resolve) * ms, "ms"),
        Metric::new("graph.from_edges_ms", mean(&shadows.from_edges) * ms, "ms"),
        Metric::new("graph.init_ms", mean(&shadows.init) * ms, "ms"),
        Metric::new("core.solve_ms", over_solves(&|c| c.engine_wall) * ms, "ms"),
    ];
    for (e, (key, _)) in ENGINES.iter().enumerate() {
        let walls: Vec<f64> =
            solves.iter().filter(|c| c.engine == e).map(|c| c.engine_wall).collect();
        metrics.push(Metric::new(format!("core.{key}.solve_ms"), mean(&walls) * ms, "ms"));
    }
    metrics.extend([
        Metric::new("gpu.launches", over_devices(&|_, d| d.total_launches() as f64), "count"),
        Metric::new(
            "gpu.resident_rounds",
            over_devices(&|_, d| d.total_resident_rounds() as f64),
            "count",
        ),
        Metric::new("gpu.barriers", over_devices(&|_, d| d.total_barriers() as f64), "count"),
        Metric::new(
            "gpu.fused_tails",
            over_devices(&|_, d| d.kernels.values().map(|k| k.fused_tails).sum::<u64>() as f64),
            "count",
        ),
        Metric::new("gpu.work_items", over_devices(&|_, d| d.total_work() as f64), "count"),
        Metric::new("gpu.atomics", over_devices(&|_, d| d.total_atomics() as f64), "count"),
        Metric::new("gpu.kernel_wall_ms", over_devices(&|_, d| d.wall_time_secs()) * ms, "ms"),
        Metric::new(
            "gpu.host_gap_ms",
            over_devices(&|c, d| c.engine_wall - d.wall_time_secs()) * ms,
            "ms",
        ),
        Metric::new(
            "gpu.wall_per_launch_us",
            ratio(
                devices.iter().map(|(_, d)| d.wall_time_secs()).sum(),
                devices.iter().map(|(_, d)| calls(d)).sum(),
            ) * 1e6,
            "us",
        ),
    ]);
    let mut seen = BTreeSet::new();
    for (_, d) in &devices {
        seen.extend(d.kernels.keys().cloned());
    }
    for kernel in &seen {
        if !KERNELS.contains(&kernel.as_str()) {
            eprintln!("perfbench: kernel {kernel} is not in the reported list");
        }
    }
    for kernel in KERNELS {
        let stats = |d: &DeviceStats| d.kernels.get(kernel).cloned().unwrap_or_default();
        metrics.push(Metric::new(
            format!("gpu.kernel.{kernel}.wall_ms"),
            over_devices(&|_, d| stats(d).wall_time_ns / 1e6),
            "ms",
        ));
        metrics.push(Metric::new(
            format!("gpu.kernel.{kernel}.calls"),
            over_devices(&|_, d| {
                let k = stats(d);
                (k.launches + k.fused_tails + k.resident_rounds) as f64
            }),
            "count",
        ));
    }
    let modelled: f64 = devices.iter().filter_map(|(c, _)| c.modelled).sum();
    let wall: f64 = devices.iter().map(|(c, _)| c.engine_wall).sum();
    metrics.extend([
        Metric::new("gpu.model_over_wall", ratio(modelled, wall), "ratio"),
        Metric::new("gpu.exec_mode_agreement", exec_mode_agreement(corpus, &traced), "ratio"),
        Metric::new(
            "cpu.hk_ms",
            mean(&corpus.iter().map(|i| i.hk_seconds).collect::<Vec<_>>()) * ms,
            "ms",
        ),
        Metric::new("trace.unattributed_share", unattributed_share, "ratio"),
        Metric::new(
            "trace.throughput_rps",
            traced.iter().filter(|t| t.ok).count() as f64 / elapsed,
            "1/s",
        ),
    ]);

    let path = args.out.join(format!("trace-{}-seed{}.jsonl", plan.workload.name(), args.seed));
    write_spans(&path, setup.iter().chain(&traced))?;
    eprintln!("perfbench: {} traced requests, spans in {}", traced.len(), path.display());
    Ok(Outcome { correct: failed == 0 && attribution_holds, attempted, failed, metrics })
}

/// Share of (family, engine pair) cells where modelled and wall seconds
/// agree on which execution mode is faster; 0 when the workload runs no
/// such pair.  Each cell is printed to standard error.
fn exec_mode_agreement(corpus: &[Instance], traced: &[Traced]) -> f64 {
    // (family, engine) → (Σ wall, Σ modelled, n)
    let mut cells: BTreeMap<(usize, usize), (f64, f64, f64)> = BTreeMap::new();
    for t in traced.iter().filter(|t| t.ok) {
        if let (Op::Solve { target, .. }, Call::Solve(c)) = (t.op, &t.call) {
            let cell = cells.entry((target.family(), c.engine)).or_default();
            cell.0 += c.engine_wall;
            cell.1 += c.modelled.unwrap_or(0.0);
            cell.2 += 1.0;
        }
    }
    let mut pairs = 0usize;
    let mut agree = 0usize;
    let families: BTreeSet<usize> = cells.keys().map(|k| k.0).collect();
    for family in families {
        for (launch, resident) in EXEC_MODE_PAIRS {
            let (Some(l), Some(r)) = (cells.get(&(family, launch)), cells.get(&(family, resident)))
            else {
                continue;
            };
            let (wall_l, wall_r) = (l.0 / l.2, r.0 / r.2);
            let (model_l, model_r) = (l.1 / l.2, r.1 / r.2);
            let agrees = (wall_r < wall_l) == (model_r < model_l);
            pairs += 1;
            agree += usize::from(agrees);
            eprintln!(
                "perfbench: {:<14} {:<22} resident/launch wall {:>6.3} model {:>6.3} {}",
                corpus[family].name,
                ENGINES[launch].0,
                wall_r / wall_l,
                model_r / model_l,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
    }
    ratio(agree as f64, pairs as f64)
}
