//! The canonical benchmark dump (`BENCH_<n>.json`) and its regression diff.
//!
//! One dump per PR captures the repo's perf trajectory in two sections:
//!
//! * **cells** — the canonical sweep: every Table I family (one
//!   representative instance each, [`mini_suite`]) × the paper's
//!   comparison algorithms, with the GPU algorithms expanded over all
//!   four worklist modes (`dense`, `compacted`, `queue`, `blocked`) and
//!   both execution modes (launch-per-round and the persistent
//!   `@resident` megakernel loop, keyed apart by the label suffix).  GPU
//!   cells
//!   report *modelled device seconds* — a deterministic function of the
//!   engine's round/work counters, independent of the host — and are
//!   marked `pinned: true`: CI diffs them strictly across dumps and fails
//!   on a >15 % regression.  CPU cells report host wall-clock and are
//!   informational only.
//! * **service** — the sharding comparison on the stress corpus: the same
//!   cached-job burst pushed through a single-pool baseline and a
//!   4-shard service with the same total worker count, the same
//!   *per-shard* cache capacity (deliberately smaller than the corpus, so
//!   the baseline thrashes while fingerprint-affinity placement keeps
//!   every graph resident on its home shard), and the same *per-shard*
//!   admission bound (so the shards also provide proportionally wider
//!   admission).  Clients retry rejected submissions, exactly like a real
//!   client facing `Overloaded`, so the submit metric measures how fast
//!   the service actually absorbs the burst under backpressure.  Clients
//!   follow the check-then-submit protocol: a graph absent from every
//!   cache is re-materialized from its edge list and shipped inline, so a
//!   miss costs what it costs a real client — and costs it in the submit
//!   phase, where the miss happens.
//!
//! Produce a dump with `gpm-bench --dump-bench BENCH_<n>.json`; gate a PR
//! with `gpm-bench --diff BENCH_<a>.json BENCH_<b>.json`.  By default a
//! pinned cell of the old dump that is *missing* from the new one is only
//! warned about (renamed sweeps should not hard-fail a lenient local run);
//! pass `--require-pinned` — CI does — to make vanished pinned cells fail
//! the gate.

use crate::runner::{measure, prepare_instance};
use gpm_core::solver::{self, Algorithm, DevicePolicy, SolveRequest, Solver, Start};
use gpm_core::{ExecMode, InitHeuristic, WorklistMode};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{mini_suite, InstanceSpec, Scale};
use gpm_graph::{BipartiteCsr, GraphDelta};
use gpm_service::{GraphSource, JobSpec, Service, ServiceError};
use serde::{Serialize, Value};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Dump format version, bumped on breaking shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured cell of the canonical sweep.
#[derive(Clone, Debug, Serialize)]
pub struct BenchCell {
    /// Instance name (the Table I matrix the stand-in represents).
    pub instance: String,
    /// Structural family of the instance.
    pub family: String,
    /// Round-trippable algorithm spec (without the worklist suffix, but
    /// *with* the `@resident` execution-mode suffix when the cell ran the
    /// persistent megakernel loop — persistent cells are distinct keys in
    /// the regression diff).
    pub algorithm: String,
    /// Worklist mode (`dense` / `compacted` / `queue` / `blocked`) or
    /// `host` for CPU algorithms.
    pub worklist: String,
    /// Comparable seconds: modelled device time for GPU cells, host
    /// wall-clock for CPU cells.
    pub seconds: f64,
    /// Host wall-clock seconds (informational).
    pub wall_seconds: f64,
    /// `true` iff `seconds` is deterministic (modelled) and therefore
    /// diffed strictly by the CI regression gate.
    pub pinned: bool,
}

/// One service configuration's results on the cached-burst workload.
#[derive(Clone, Debug, Serialize)]
pub struct ServiceRun {
    /// Shard count.
    pub shards: usize,
    /// Workers per shard (total workers = `shards * workers_per_shard`).
    pub workers_per_shard: usize,
    /// Graph-cache capacity *per shard*.
    pub cache_capacity_per_shard: usize,
    /// Jobs in the burst (clients × rounds × corpus size).
    pub jobs: u64,
    /// Jobs whose graph was served from a shard cache.
    pub cache_hits: u64,
    /// Aggregate cache hit rate over the burst (`cache_hits / jobs`).
    pub cache_hit_rate: f64,
    /// Jobs whose graph had been evicted and had to be re-materialized
    /// from its edge list and re-uploaded inline.
    pub reuploads: u64,
    /// Admission bound *per shard* ([`ServiceBuilder::max_queue_depth`]).
    ///
    /// [`ServiceBuilder::max_queue_depth`]: gpm_service::ServiceBuilder::max_queue_depth
    pub queue_depth_per_shard: usize,
    /// `Overloaded` rejections clients had to retry through during the
    /// burst.
    pub admission_retries: u64,
    /// Mean per-client wall seconds until all of its jobs were *admitted*
    /// (rejection retries included).
    pub submit_seconds: f64,
    /// `jobs / submit_seconds`.
    pub submit_throughput_jobs_per_sec: f64,
    /// Wall seconds until every job (including re-uploads) completed.
    pub total_seconds: f64,
    /// `jobs / total_seconds`.
    pub throughput_jobs_per_sec: f64,
}

/// The single-pool baseline vs the sharded service on the same workload.
#[derive(Clone, Debug, Serialize)]
pub struct ServiceComparison {
    /// One shard owning all workers and the whole (per-shard-sized) cache.
    pub baseline: ServiceRun,
    /// Four shards, same total workers, same per-shard cache capacity.
    pub sharded: ServiceRun,
}

/// One delta-vs-cold comparison: the same patched graph solved cold (from
/// the cheap initial matching) and warm (the parent's matching repaired
/// through the delta by a [`Start::Warm`] solve), in one worklist mode.
#[derive(Clone, Debug, Serialize)]
pub struct DeltaComparison {
    /// Parent instance name (a Table I family representative).
    pub instance: String,
    /// Structural family of the instance.
    pub family: String,
    /// Worklist mode of both measurements.
    pub worklist: String,
    /// Churn as a fraction of the parent's edges (`0.0001` = 0.01 %).
    pub churn_fraction: f64,
    /// Edges the delta actually touched.
    pub touched_edges: usize,
    /// Modelled device seconds of the cold solve of the patched graph.
    pub cold_seconds: f64,
    /// Modelled device seconds of the warm resolve.
    pub warm_seconds: f64,
    /// `cold_seconds / warm_seconds`, the headline ratio (>1 means the warm
    /// resolve won).  A zero-cost warm resolve divides by a small epsilon so
    /// the JSON stays finite.
    pub speedup: f64,
    /// `true` when the churn bound tripped the fallback and the "warm"
    /// measurement is really a cold solve from the fallback heuristic.
    pub fell_back_to_cold: bool,
}

/// A complete dump.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDump {
    /// Dump format version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Instance scale the sweep ran at.
    pub scale: String,
    /// The canonical sweep (plus, from BENCH_8 on, the delta-vs-cold cells;
    /// both halves of every comparison are pinned — modelled seconds).
    pub cells: Vec<BenchCell>,
    /// The delta-vs-cold summary: speedups and fallback flags per
    /// (family × churn × worklist mode), backing the cells.
    pub deltas: Vec<DeltaComparison>,
    /// The sharding comparison.
    pub service: ServiceComparison,
}

/// Runs the canonical sweep over `specs`: GPU algorithms × all worklist
/// modes × both execution modes (pinned, modelled seconds) plus the CPU
/// comparison algorithms (unpinned, wall-clock).
///
/// Launch-per-round cells keep their historical keys (the exec mode never
/// appears in a default-mode label); persistent cells carry the `@resident`
/// suffix in their `algorithm` field and therefore arrive as *new* keys in
/// the diff, pinned against the next dump.
pub fn sweep_cells(specs: &[InstanceSpec], scale: Scale) -> Vec<BenchCell> {
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let mut cells = Vec::new();
    for spec in specs {
        let instance = prepare_instance(spec, scale);
        for algorithm in solver::paper_comparison_set() {
            let gpu = algorithm.label().starts_with("G-");
            let variants: Vec<(Algorithm, &'static str)> = if gpu {
                ExecMode::all()
                    .into_iter()
                    .flat_map(|exec| {
                        WorklistMode::all().into_iter().map(move |mode| {
                            (algorithm.with_worklist(mode).with_exec(exec), mode.label())
                        })
                    })
                    .collect()
            } else {
                vec![(algorithm, "host")]
            };
            for (variant, worklist) in variants {
                let m = measure(&instance, variant, &mut solver)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", variant, spec.name));
                let spec_label = match variant.exec() {
                    Some(exec) => algorithm.with_exec(exec).to_string(),
                    None => algorithm.to_string(),
                };
                cells.push(BenchCell {
                    instance: spec.name.to_string(),
                    family: format!("{:?}", spec.family),
                    algorithm: spec_label,
                    worklist: worklist.to_string(),
                    seconds: m.seconds,
                    wall_seconds: m.wall_seconds,
                    pinned: gpu,
                });
            }
        }
    }
    cells
}

/// The churn fractions of the delta sweep: 0.01 % to 10 % of the parent's
/// edges, the range the issue sweeps (a live-service patch is almost always
/// at the small end).
const DELTA_FRACTIONS: [(f64, &str); 4] =
    [(0.0001, "0.01%"), (0.001, "0.1%"), (0.01, "1%"), (0.1, "10%")];

/// Runs the delta-vs-cold sweep over `specs`: per family × churn fraction ×
/// worklist mode, solve the patched graph cold and warm-resolve it from the
/// parent's matching, both measured in modelled device seconds (pinned).
///
/// The delta removes `fraction × E` edges spaced evenly through the edge
/// list — deterministic, so the modelled seconds of both halves are exactly
/// reproducible across runs and machines.
pub fn sweep_delta(specs: &[InstanceSpec], scale: Scale) -> (Vec<BenchCell>, Vec<DeltaComparison>) {
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let algorithm_base = Algorithm::gpr_default();
    let mut cells = Vec::new();
    let mut comparisons = Vec::new();
    for spec in specs {
        let parent =
            spec.generate(scale).unwrap_or_else(|e| panic!("generating {} failed: {e}", spec.name));
        // The state a live service holds: the parent's last (maximum)
        // matching, computed once with the same engine family.
        let base = solver
            .run(&parent, SolveRequest::new(algorithm_base))
            .unwrap_or_else(|e| panic!("base solve on {}: {e}", spec.name));
        let edges: Vec<(u32, u32)> = parent.edges().collect();
        for (fraction, churn_label) in DELTA_FRACTIONS {
            let k = ((edges.len() as f64 * fraction).round() as usize).clamp(1, edges.len());
            let stride = (edges.len() / k).max(1);
            let mut delta = GraphDelta::new();
            delta.extend_removes(edges.iter().step_by(stride).take(k).copied());
            let (child, _) = parent
                .apply_delta_lineage(&delta)
                .unwrap_or_else(|e| panic!("delta on {}: {e}", spec.name));
            let touched = delta.touched_edge_bound(&child);
            let child_initial = cheap_matching(&child);
            let child_max = gpm_cpu::hopcroft_karp(&child, &child_initial).matching.cardinality();
            let instance = format!("{}+d{churn_label}", spec.name);
            for mode in WorklistMode::all() {
                let worklist = mode.label();
                let algorithm = algorithm_base.with_worklist(mode);
                let start = Start::Matching(&child_initial);
                let cold = solver
                    .run(&child, SolveRequest { start, ..SolveRequest::new(algorithm) })
                    .unwrap_or_else(|e| panic!("cold {} on {instance}: {e}", algorithm));
                assert_eq!(cold.cardinality, child_max, "cold solve wrong on {instance}");
                let previous = &base.matching;
                let start = Start::Warm { previous, delta: &delta, fallback: InitHeuristic::Cheap };
                let warm = solver
                    .run(&child, SolveRequest { start, ..SolveRequest::new(algorithm) })
                    .unwrap_or_else(|e| panic!("resolve {} on {instance}: {e}", algorithm));
                assert_eq!(warm.cardinality, child_max, "warm resolve wrong on {instance}");
                let cold_seconds = cold.modelled_device_seconds.expect("GPU cell is modelled");
                let warm_seconds = warm.modelled_device_seconds.expect("GPU cell is modelled");
                for (tag, seconds, wall) in [
                    ("cold", cold_seconds, cold.wall_seconds),
                    ("resolve", warm_seconds, warm.wall_seconds),
                ] {
                    cells.push(BenchCell {
                        instance: instance.clone(),
                        family: format!("{:?}", spec.family),
                        algorithm: format!("{tag}({algorithm_base})"),
                        worklist: worklist.to_string(),
                        seconds,
                        wall_seconds: wall,
                        pinned: true,
                    });
                }
                comparisons.push(DeltaComparison {
                    instance: spec.name.to_string(),
                    family: format!("{:?}", spec.family),
                    worklist: worklist.to_string(),
                    churn_fraction: fraction,
                    touched_edges: touched,
                    cold_seconds,
                    warm_seconds,
                    speedup: cold_seconds / warm_seconds.max(1e-12),
                    fell_back_to_cold: warm.fell_back_to_cold,
                });
            }
        }
    }
    (cells, comparisons)
}

/// The burst parameters of the service comparison.
const BURST_CLIENTS: usize = 8;
const BURST_ROUNDS: usize = 24;
/// Per-shard cache capacity: smaller than the 8-graph corpus, so a single
/// pool cannot keep the working set resident but 4 shards (4 × capacity
/// slots, ~2 resident graphs each under affinity) can.
const CACHE_PER_SHARD: usize = 4;
/// Per-shard admission bound: well under the burst size, so admission is
/// governed by how fast the service drains — the single pool by one
/// queue's bound, the shards by four.
const QUEUE_DEPTH_PER_SHARD: usize = 48;

/// A graph's wire form: shape plus edge list, what a client would hold.
type WireGraph = (usize, usize, Vec<(u32, u32)>);

/// Pushes the cached-job burst through one service configuration.
fn run_service(
    shards: usize,
    workers_per_shard: usize,
    graphs: &[Arc<BipartiteCsr>],
) -> ServiceRun {
    let service = Arc::new(
        Service::builder()
            .shards(shards)
            .workers(workers_per_shard)
            .cache_capacity(CACHE_PER_SHARD)
            .max_queue_depth(QUEUE_DEPTH_PER_SHARD)
            .device_policy(DevicePolicy::Sequential)
            .build(),
    );
    let fingerprints: Vec<u64> = graphs.iter().map(|g| service.put_graph(Arc::clone(g))).collect();
    // What a re-upload costs a real client: the graph only exists as its
    // wire form (shape + edge list) and must be re-materialized.
    let uploads: Vec<WireGraph> =
        graphs.iter().map(|g| (g.num_rows(), g.num_cols(), g.edges().collect())).collect();

    // A submission that may already have resolved: admission rejections
    // complete the handle synchronously, so a retrying client learns its
    // fate without blocking on the solve.
    enum Pending {
        Done(Result<gpm_service::JobOutcome, ServiceError>),
        Wait(gpm_service::JobHandle),
    }

    /// Submits until admitted, yielding to the workers on every
    /// `Overloaded` rejection.  Returns the admitted job plus how many
    /// rejections were retried through.
    fn submit_admitted(service: &Service, mut spec: impl FnMut() -> JobSpec) -> (Pending, u64) {
        let mut retries = 0u64;
        loop {
            let handle = service.submit(spec());
            if !handle.is_done() {
                return (Pending::Wait(handle), retries);
            }
            match handle.wait() {
                Err(ServiceError::Overloaded { .. }) => {
                    retries += 1;
                    std::thread::yield_now();
                }
                done => return (Pending::Done(done), retries),
            }
        }
    }

    let jobs = (BURST_CLIENTS * BURST_ROUNDS * graphs.len()) as u64;
    let start_line = Barrier::new(BURST_CLIENTS);
    let mut submit_sum = Duration::ZERO;
    let mut total_seconds = Duration::ZERO;
    let mut cache_hits = 0u64;
    let mut reuploads = 0u64;
    let mut admission_retries = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST_CLIENTS)
            .map(|client| {
                let service = Arc::clone(&service);
                let fingerprints = &fingerprints;
                let uploads = &uploads;
                let start_line = &start_line;
                scope.spawn(move || {
                    start_line.wait();
                    let started = Instant::now();
                    let mut retries = 0u64;
                    let mut reuploaded = 0u64;
                    // Submit the whole burst back-to-back before waiting on
                    // any result, retrying rejections until admitted: with
                    // every client hammering a bounded service at once, the
                    // submit metric measures how fast admission actually
                    // absorbs the burst — queue width plus drain rate —
                    // not an idle-service sprint.
                    let pending: Vec<(usize, Pending)> = (0..BURST_ROUNDS)
                        .flat_map(|round| {
                            (0..fingerprints.len())
                                .map(move |offset| (offset + client + round) % fingerprints.len())
                        })
                        .map(|i| {
                            // Check-then-submit: refer to the graph by
                            // fingerprint while some shard holds it, else
                            // pay the miss right here — re-materialize
                            // from the wire form and ship it inline.
                            let (admitted, rejections) = if service.contains_graph(fingerprints[i])
                            {
                                submit_admitted(&service, || {
                                    JobSpec::new(
                                        GraphSource::Cached(fingerprints[i]),
                                        Algorithm::HopcroftKarp,
                                    )
                                })
                            } else {
                                let (rows, cols, edges) = &uploads[i];
                                let graph = Arc::new(
                                    BipartiteCsr::from_edges(*rows, *cols, edges)
                                        .expect("re-materialize upload"),
                                );
                                reuploaded += 1;
                                submit_admitted(&service, || {
                                    JobSpec::new(Arc::clone(&graph), Algorithm::HopcroftKarp)
                                })
                            };
                            retries += rejections;
                            (i, admitted)
                        })
                        .collect();
                    let submitted = started.elapsed();
                    let mut hits = 0u64;
                    for (i, admitted) in pending {
                        let result = match admitted {
                            Pending::Done(result) => result,
                            Pending::Wait(handle) => handle.wait(),
                        };
                        match result {
                            Ok(outcome) => hits += u64::from(outcome.cache_hit),
                            Err(ServiceError::UnknownGraph { .. }) => {
                                // Evicted: pay the real miss penalty —
                                // rebuild from the wire form and re-upload.
                                let (rows, cols, edges) = &uploads[i];
                                let graph = Arc::new(
                                    BipartiteCsr::from_edges(*rows, *cols, edges)
                                        .expect("re-materialize upload"),
                                );
                                reuploaded += 1;
                                let (resubmitted, rejections) = submit_admitted(&service, || {
                                    JobSpec::new(Arc::clone(&graph), Algorithm::HopcroftKarp)
                                });
                                retries += rejections;
                                let result = match resubmitted {
                                    Pending::Done(result) => result,
                                    Pending::Wait(handle) => handle.wait(),
                                };
                                result.expect("re-uploaded solve");
                            }
                            Err(other) => panic!("burst job on graph {i}: {other}"),
                        }
                    }
                    (submitted, started.elapsed(), hits, reuploaded, retries)
                })
            })
            .collect();
        for handle in handles {
            let (submitted, total, hits, reuploaded, retries) =
                handle.join().expect("burst client");
            submit_sum += submitted;
            total_seconds = total_seconds.max(total);
            cache_hits += hits;
            reuploads += reuploaded;
            admission_retries += retries;
        }
    });

    // The submit metric is the *mean* per-client time to get its share of
    // the burst admitted; with bounded queues this phase lasts long enough
    // (hundreds of milliseconds) to be robust against scheduler noise.
    let submit_seconds = submit_sum.as_secs_f64() / BURST_CLIENTS as f64;
    ServiceRun {
        shards,
        workers_per_shard,
        cache_capacity_per_shard: CACHE_PER_SHARD,
        jobs,
        cache_hits,
        cache_hit_rate: cache_hits as f64 / jobs as f64,
        reuploads,
        queue_depth_per_shard: QUEUE_DEPTH_PER_SHARD,
        admission_retries,
        submit_seconds,
        submit_throughput_jobs_per_sec: jobs as f64 / submit_seconds,
        total_seconds: total_seconds.as_secs_f64(),
        throughput_jobs_per_sec: jobs as f64 / total_seconds.as_secs_f64(),
    }
}

/// Samples one configuration [`SERVICE_SAMPLES`] times and keeps the
/// peak-admission sample: the submit metric is the one at the mercy of
/// scheduler noise (a preempted client thread inflates its submit time by
/// a whole quantum), and best-of-N is the standard way to report peak
/// throughput.
fn best_service_run(
    shards: usize,
    workers_per_shard: usize,
    graphs: &[Arc<BipartiteCsr>],
) -> ServiceRun {
    (0..SERVICE_SAMPLES)
        .map(|_| run_service(shards, workers_per_shard, graphs))
        .max_by(|a, b| {
            a.submit_throughput_jobs_per_sec.total_cmp(&b.submit_throughput_jobs_per_sec)
        })
        .expect("at least one sample")
}

/// Samples per service configuration (best one is reported).
const SERVICE_SAMPLES: usize = 3;

/// Runs the sharding comparison: single pool vs 4 shards, equal total
/// workers, equal per-shard cache capacity.
pub fn service_comparison() -> ServiceComparison {
    let graphs: Vec<Arc<BipartiteCsr>> = mini_suite()
        .iter()
        .map(|spec| Arc::new(spec.generate(Scale::Tiny).expect("generate")))
        .collect();
    ServiceComparison {
        baseline: best_service_run(1, 4, &graphs),
        sharded: best_service_run(4, 1, &graphs),
    }
}

/// Produces the full dump at `scale`.
pub fn produce(scale: Scale) -> BenchDump {
    let mut cells = sweep_cells(&mini_suite(), scale);
    let (delta_cells, deltas) = sweep_delta(&mini_suite(), scale);
    cells.extend(delta_cells);
    BenchDump {
        schema: SCHEMA_VERSION,
        scale: format!("{scale:?}").to_lowercase(),
        cells,
        deltas,
        service: service_comparison(),
    }
}

/// The outcome of diffing two dumps' pinned cells.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Pinned cells present in both dumps.
    pub compared: usize,
    /// `(cell key, old seconds, new seconds)` for cells slower by more
    /// than the allowed factor.
    pub regressions: Vec<(String, f64, f64)>,
    /// Pinned cells of the old dump missing from the new one.  Whether
    /// these fail the gate is decided by `require_pinned`.
    pub missing: Vec<String>,
    /// `true` when missing pinned cells fail the gate (CI's
    /// `--require-pinned`); `false` degrades them to warnings.
    pub require_pinned: bool,
    /// `(cell key, old seconds, new seconds)` for cells that got faster.
    pub improvements: Vec<(String, f64, f64)>,
    /// Cells that exist only in the newer dump.  Informational — a new cell
    /// has no baseline, so it cannot regress; it is reported (rather than
    /// silently ignored) so freshly added sweeps are visible in the gate
    /// output, and becomes pinned against the *next* dump.
    pub new_cells: Vec<String>,
}

impl DiffReport {
    /// `true` iff the new dump passes the gate: no regression, and — under
    /// `require_pinned` — no pinned cell of the old dump missing from the
    /// new one.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && (!self.require_pinned || self.missing.is_empty())
    }
}

fn pinned_cells(dump: &Value) -> Result<Vec<(String, f64)>, String> {
    let cells = dump
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or_else(|| "dump has no 'cells' array".to_string())?;
    let mut out = Vec::new();
    for cell in cells {
        if cell.get("pinned").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let field = |name: &str| {
            cell.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("pinned cell missing '{name}'"))
        };
        let key =
            format!("{} / {} + {}", field("instance")?, field("algorithm")?, field("worklist")?);
        let seconds = cell
            .get("seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("cell '{key}' has no numeric 'seconds'"))?;
        out.push((key, seconds));
    }
    Ok(out)
}

/// Diffs two parsed dumps: every pinned cell of `old` present in `new`
/// must be no more than `max_regression` (fractional, e.g. `0.15`) slower.
/// With `require_pinned`, a pinned `old` cell absent from `new` also fails
/// the gate; without it, missing cells are reported but only warn.
pub fn diff(
    old: &Value,
    new: &Value,
    max_regression: f64,
    require_pinned: bool,
) -> Result<DiffReport, String> {
    let old_cells = pinned_cells(old)?;
    let new_cells: std::collections::BTreeMap<String, f64> =
        pinned_cells(new)?.into_iter().collect();
    let mut report = DiffReport { require_pinned, ..DiffReport::default() };
    let old_keys: std::collections::BTreeSet<String> =
        old_cells.iter().map(|(key, _)| key.clone()).collect();
    report.new_cells = new_cells.keys().filter(|key| !old_keys.contains(*key)).cloned().collect();
    for (key, old_seconds) in old_cells {
        let Some(&new_seconds) = new_cells.get(&key) else {
            report.missing.push(key);
            continue;
        };
        report.compared += 1;
        // A zero-cost old cell can only regress by becoming non-zero.
        let regressed = if old_seconds > 0.0 {
            (new_seconds - old_seconds) / old_seconds > max_regression
        } else {
            new_seconds > 0.0
        };
        if regressed {
            report.regressions.push((key, old_seconds, new_seconds));
        } else if new_seconds < old_seconds {
            report.improvements.push((key, old_seconds, new_seconds));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::instances;

    fn dump_with(cells: &[(&str, f64, bool)]) -> Value {
        serde_json::from_str(
            &serde_json::to_string(&Value::Map(vec![(
                "cells".to_string(),
                Value::Seq(
                    cells
                        .iter()
                        .map(|(name, seconds, pinned)| {
                            Value::Map(vec![
                                ("instance".to_string(), Value::Str(name.to_string())),
                                ("algorithm".to_string(), Value::Str("G-PR-Shr".to_string())),
                                ("worklist".to_string(), Value::Str("dense".to_string())),
                                ("seconds".to_string(), Value::F64(*seconds)),
                                ("pinned".to_string(), Value::Bool(*pinned)),
                            ])
                        })
                        .collect(),
                ),
            )]))
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn diff_flags_regressions_missing_cells_and_improvements() {
        let old = dump_with(&[("a", 1.0, true), ("b", 2.0, true), ("c", 9.0, false)]);
        let new = dump_with(&[("a", 1.2, true), ("d", 1.0, true)]);
        let report = diff(&old, &new, 0.15, true).unwrap();
        assert_eq!(report.compared, 1);
        assert_eq!(report.regressions.len(), 1, "a regressed 20% > 15%");
        assert_eq!(report.missing.len(), 1, "pinned cell b vanished");
        assert!(!report.passed());
        // Newer-only cells are reported, not silently ignored — and they
        // never fail the gate (no baseline to regress against).
        assert_eq!(report.new_cells.len(), 1, "cell d is new");
        assert!(report.new_cells[0].starts_with("d /"), "{:?}", report.new_cells);

        let ok = diff(&old, &dump_with(&[("a", 1.1, true), ("b", 1.5, true)]), 0.15, true).unwrap();
        assert_eq!(ok.compared, 2);
        assert!(ok.passed());
        assert_eq!(ok.improvements.len(), 1, "b sped up");
        // Unpinned cells are never part of the gate.
        assert!(ok.missing.is_empty());
        assert!(ok.new_cells.is_empty());
    }

    #[test]
    fn missing_pinned_cells_fail_only_under_require_pinned() {
        let old = dump_with(&[("a", 1.0, true), ("b", 2.0, true)]);
        let new = dump_with(&[("a", 1.0, true)]);
        // Lenient default: the vanished cell is reported but only warns.
        let lenient = diff(&old, &new, 0.15, false).unwrap();
        assert_eq!(lenient.missing.len(), 1);
        assert!(lenient.passed(), "lenient diff warns on missing cells");
        // CI's strict mode: the same diff fails.
        let strict = diff(&old, &new, 0.15, true).unwrap();
        assert_eq!(strict.missing.len(), 1);
        assert!(!strict.passed(), "--require-pinned fails on missing cells");
        // Regressions fail either way.
        let regressed =
            diff(&old, &dump_with(&[("a", 2.0, true), ("b", 2.0, true)]), 0.15, false).unwrap();
        assert!(!regressed.passed());
    }

    #[test]
    fn diff_rejects_malformed_dumps() {
        let bad: Value = serde_json::from_str("{\"cells\": 3}").unwrap();
        assert!(diff(&bad, &bad, 0.15, true).is_err());
    }

    #[test]
    fn sweep_emits_pinned_gpu_cells_for_every_worklist_and_exec_mode() {
        let specs = vec![instances::by_name("amazon0505").unwrap()];
        let cells = sweep_cells(&specs, Scale::Tiny);
        // 2 GPU algorithms × 4 worklist modes × 2 exec modes + 2 CPU
        // algorithms.
        assert_eq!(cells.len(), 18);
        assert_eq!(cells.iter().filter(|c| c.pinned).count(), 16);
        for mode in WorklistMode::all() {
            assert_eq!(cells.iter().filter(|c| c.worklist == mode.label()).count(), 4, "{mode}");
        }
        // Persistent cells are keyed apart by the `@resident` suffix; the
        // launch-per-round cells keep their historical suffix-free keys.
        assert_eq!(cells.iter().filter(|c| c.algorithm.ends_with("@resident")).count(), 8);
        // The dump round-trips through serde_json and keeps its cell keys.
        let json = serde_json::to_string(&Value::Map(vec![(
            "cells".to_string(),
            Value::Seq(cells.iter().map(Serialize::to_value).collect()),
        )]))
        .unwrap();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(pinned_cells(&parsed).unwrap().len(), 16);
    }

    #[test]
    fn delta_sweep_is_deterministic_and_covers_every_fraction_and_mode() {
        let specs = vec![instances::by_name("amazon0505").unwrap()];
        let (cells, comparisons) = sweep_delta(&specs, Scale::Tiny);
        // 4 churn fractions × 4 worklist modes × {cold, resolve}.
        assert_eq!(cells.len(), 32);
        assert!(cells.iter().all(|c| c.pinned), "delta cells are all pinned");
        assert_eq!(comparisons.len(), 16);
        for (fraction, label) in DELTA_FRACTIONS {
            assert_eq!(
                comparisons.iter().filter(|c| c.churn_fraction == fraction).count(),
                4,
                "{label}"
            );
            assert_eq!(
                cells.iter().filter(|c| c.instance.ends_with(&format!("+d{label}"))).count(),
                8,
                "{label}"
            );
        }
        // The strided removals are deterministic: a second sweep reproduces
        // the modelled seconds exactly, so the cells are safe to pin.
        let (again, _) = sweep_delta(&specs, Scale::Tiny);
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.seconds, b.seconds, "{} / {} + {}", a.instance, a.algorithm, a.worklist);
        }
    }
}
