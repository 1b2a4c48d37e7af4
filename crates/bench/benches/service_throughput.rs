//! Throughput of the `gpm-service` warm solver pool vs cold per-job solving.
//!
//! Each iteration pushes the same mixed batch of jobs — every mini-suite
//! instance × the CPU algorithms — through three execution models:
//!
//! * `cold` — per-job graph reconstruction from its edge list (what a
//!   cache-less service does with every inline request) plus a fresh
//!   `Solver` per job: every job pays upload and setup;
//! * `pool/1` — one `Service` worker: graphs uploaded once into the
//!   content-addressed cache, jobs go by fingerprint, the worker's session
//!   stays warm (amortization without parallelism);
//! * `pool/N` — N workers (N = host parallelism, capped at 4): the same,
//!   plus concurrent draining of the queue.
//!
//! `pool/N` beating `cold` is the subsystem's reason to exist; the margin
//! between `pool/1` and `pool/N` is the scaling headroom on this host.
//!
//! `parse_inline_gl7d19_small` times the ingest half of an inline request
//! on its own: `proto::parse_request`, CSR build included, on the inline
//! `solve` line of GL7d19 at Small scale (1.66 MB, the largest the
//! `upload-inline` workload sends), written as the bundled client and the
//! wall-clock benchmark write it: compact, edges in row-major order.
//!
//! Run with `cargo bench -p gpm-bench --bench service_throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_core::solver::{Algorithm, DevicePolicy, Solver};
use gpm_graph::instances::{mini_suite, Scale};
use gpm_graph::BipartiteCsr;
use gpm_service::proto::parse_request;
use gpm_service::{GraphSource, JobSpec, Service};
use std::fmt::Write;
use std::hint::black_box;
use std::sync::Arc;

fn corpus() -> Vec<Arc<BipartiteCsr>> {
    mini_suite()
        .iter()
        .map(|spec| Arc::new(spec.generate(Scale::Tiny).expect("generate")))
        .collect()
}

fn algorithms() -> Vec<Algorithm> {
    // CPU algorithms only: the batch cycles 8 distinct graph shapes through
    // every engine, so GPU workspace reuse cannot kick in (buffers resize
    // on every shape change) and would only measure queue overhead.  The
    // same-shape warm win for GPU engines is measured by `solver_reuse`.
    vec![Algorithm::HopcroftKarp, Algorithm::PothenFan, Algorithm::Pdbfs(2)]
}

fn jobs(graphs: &[Arc<BipartiteCsr>]) -> Vec<(Arc<BipartiteCsr>, Algorithm)> {
    graphs
        .iter()
        .flat_map(|g| algorithms().into_iter().map(move |alg| (Arc::clone(g), alg)))
        .collect()
}

fn bench_service_throughput(c: &mut Criterion) {
    let graphs = corpus();
    let batch = jobs(&graphs);
    let pool_n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 4);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    // What each cold job receives: the raw upload (shape + edge list), the
    // form every request arrives in over the wire.
    struct Upload {
        rows: usize,
        cols: usize,
        edges: Vec<(u32, u32)>,
    }
    let uploads: Vec<Upload> = batch
        .iter()
        .map(|(g, _)| Upload { rows: g.num_rows(), cols: g.num_cols(), edges: g.edges().collect() })
        .collect();

    group.bench_function(BenchmarkId::new("cold", batch.len()), |b| {
        b.iter(|| {
            // The cache-less execution model: every job re-materializes its
            // graph from the upload and builds a session from scratch.
            let mut total = 0usize;
            for (upload, (_, alg)) in uploads.iter().zip(&batch) {
                let graph = BipartiteCsr::from_edges(upload.rows, upload.cols, &upload.edges)
                    .expect("re-materialize");
                let mut solver = Solver::builder()
                    .device_policy(DevicePolicy::Sequential)
                    .build()
                    .expect("valid solver config");
                total += solver.solve(&graph, *alg).expect("solve").cardinality;
            }
            total
        })
    });

    for workers in [1usize, pool_n] {
        group.bench_function(BenchmarkId::new(format!("pool/{workers}"), batch.len()), |b| {
            let service = Service::builder()
                .workers(workers)
                .cache_capacity(graphs.len())
                .device_policy(DevicePolicy::Sequential)
                .build();
            // Register the corpus once; jobs then go by fingerprint, the
            // steady-state shape of a sweep client.
            let fingerprints: Vec<u64> =
                graphs.iter().map(|g| service.put_graph(Arc::clone(g))).collect();
            let specs: Vec<JobSpec> = batch
                .iter()
                .enumerate()
                .map(|(i, (_, alg))| {
                    JobSpec::new(GraphSource::Cached(fingerprints[i / algorithms().len()]), *alg)
                })
                .collect();
            // Prime the pool so measured iterations see warm engines.
            for handle in service.submit_batch(specs.iter().cloned()) {
                handle.wait().expect("prime");
            }
            b.iter(|| {
                let mut total = 0usize;
                for handle in service.submit_batch(specs.iter().cloned()) {
                    total += handle.wait().expect("solve").report.cardinality;
                }
                total
            })
        });
    }
    group.finish();
}

/// The inline `solve` line of GL7d19 at Small scale.
fn gl7d19_inline_line() -> String {
    let spec = mini_suite().into_iter().find(|s| s.name == "GL7d19").expect("in the mini suite");
    let g = spec.generate(Scale::Small).expect("generate");
    let mut line = format!(
        "{{\"op\":\"solve\",\"algorithm\":\"G-PR-Shr@adaptive:0.7+blocked\",\"rows\":{},\"cols\":{},\"edges\":[",
        g.num_rows(),
        g.num_cols()
    );
    for (i, (r, c)) in g.edges().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        write!(line, "{comma}[{r},{c}]").expect("writing to a String cannot fail");
    }
    line.push_str("]}");
    line
}

fn bench_parse_inline(c: &mut Criterion) {
    let line = gl7d19_inline_line();
    c.bench_function("parse_inline_gl7d19_small", |b| {
        b.iter(|| parse_request(black_box(&line)).expect("parses"))
    });
}

criterion_group!(benches, bench_parse_inline, bench_service_throughput);
criterion_main!(benches);
