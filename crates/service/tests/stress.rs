//! Concurrency stress test: one shared [`Service`], 8 client threads
//! hammering the mixed `mini_suite()` corpus, every returned matching
//! verified against a single-threaded [`Solver`] oracle and
//! [`verify::check_matching`].
//!
//! This is the acceptance gate for the pool: concurrent results must be
//! *identical in cardinality* to the single-threaded session and must be
//! structurally valid matchings of their graph — a data race in the queue,
//! the cache, or a shared workspace shows up here as a corrupt or
//! sub-optimal matching.

use gpm_core::solver::{Algorithm, DevicePolicy, SolveRequest, Solver};
use gpm_core::{ExecutorConfig, InitHeuristic};
use gpm_graph::gen;
use gpm_graph::instances::{mini_suite, Scale};
use gpm_graph::{verify, BipartiteCsr};
use gpm_service::{Client, GraphSource, JobSpec, Service, ServiceError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::HopcroftKarp,
        Algorithm::PothenFan,
        Algorithm::Pdbfs(2),
        Algorithm::gpr_default(),
    ]
}

#[test]
fn eight_clients_agree_with_the_single_threaded_oracle() {
    // The corpus: every mini-suite family at tiny scale.
    let graphs: Vec<Arc<BipartiteCsr>> = mini_suite()
        .iter()
        .map(|spec| Arc::new(spec.generate(Scale::Tiny).expect("generate")))
        .collect();
    assert!(graphs.len() >= 8, "mini suite should cover all families");

    // Single-threaded oracle: one warm Solver session, same algorithms.
    let mut oracle = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let mut expected = Vec::new();
    for graph in &graphs {
        let mut per_graph = Vec::new();
        for &alg in algorithms().iter() {
            let report = oracle.run(graph, SolveRequest::new(alg)).expect("oracle solve");
            verify::check_matching(graph, &report.matching).expect("oracle matching valid");
            per_graph.push(report.cardinality);
        }
        // All algorithms are exact: they must agree with each other.
        assert!(per_graph.windows(2).all(|w| w[0] == w[1]), "oracle disagreement");
        expected.push(per_graph[0]);
    }

    let service = Arc::new(Service::builder().workers(4).cache_capacity(graphs.len()).build());
    // Pre-register the corpus so clients can submit by fingerprint.
    let fingerprints: Vec<u64> = graphs.iter().map(|g| service.put_graph(Arc::clone(g))).collect();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = Arc::clone(&service);
            let graphs = &graphs;
            let expected = &expected;
            let fingerprints = &fingerprints;
            scope.spawn(move || {
                // Each client interleaves differently: rotate the corpus by
                // its index and alternate cached/inline submission.
                for (offset, _) in graphs.iter().enumerate() {
                    let i = (offset + client) % graphs.len();
                    let algorithm = algorithms()[(offset + client) % algorithms().len()];
                    let source = if (client + offset) % 2 == 0 {
                        GraphSource::Cached(fingerprints[i])
                    } else {
                        GraphSource::Inline(Arc::clone(&graphs[i]))
                    };
                    let outcome = service
                        .submit(JobSpec::new(source, algorithm))
                        .wait()
                        .unwrap_or_else(|e| panic!("client {client} job {offset}: {e}"));
                    // The matching is a valid matching of *this* graph…
                    verify::check_matching(&graphs[i], &outcome.report.matching)
                        .unwrap_or_else(|e| panic!("client {client} graph {i} {algorithm}: {e}"));
                    // …and exactly as large as the single-threaded result.
                    assert_eq!(
                        outcome.report.cardinality, expected[i],
                        "client {client} graph {i} {algorithm}"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    let total = (CLIENTS * graphs.len()) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.cache.hits > 0, "cached submissions must hit");
    // Batch path under contention too: one big mixed batch from the main
    // thread, fanned over all workers.
    let batch = service.submit_batch(
        graphs
            .iter()
            .enumerate()
            .map(|(i, g)| JobSpec::new(Arc::clone(g), algorithms()[i % algorithms().len()])),
    );
    for (i, handle) in batch.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap().report.cardinality, expected[i], "batch job {i}");
    }
}

#[test]
fn oversubscribed_executor_config_is_honored_and_stays_correct() {
    // Deliberate oversubscription: 4 service workers, each owning a
    // 4-worker parallel device — 16 kernel threads however many cores the
    // host has — with an inline threshold low enough that even the tiny test
    // graphs actually dispatch to the persistent pools.  The plumbed-down
    // ExecutorConfig must reach every worker's device, and the results must
    // still pin to the single-threaded oracle.
    let exec = ExecutorConfig { parallel_threshold: 16, chunk_size: 32, ..Default::default() };
    let graphs: Vec<Arc<BipartiteCsr>> = mini_suite()
        .iter()
        .take(6)
        .map(|spec| Arc::new(spec.generate(Scale::Tiny).expect("generate")))
        .collect();
    let gpu_algorithms = [Algorithm::gpr_default(), Algorithm::ghk(gpm_core::GhkVariant::Hkdw)];

    let mut oracle = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let expected: Vec<usize> = graphs
        .iter()
        .map(|g| {
            oracle.run(g, SolveRequest::new(Algorithm::HopcroftKarp)).expect("oracle").cardinality
        })
        .collect();

    let service = Service::builder()
        .workers(4)
        .device_policy(DevicePolicy::Parallel(4))
        .executor_config(exec)
        .cache_capacity(graphs.len())
        .build();
    assert_eq!(service.executor_config(), exec);

    let specs: Vec<JobSpec> = graphs
        .iter()
        .flat_map(|g| {
            gpu_algorithms
                .iter()
                .map(|&alg| JobSpec::new(GraphSource::Inline(Arc::clone(g)), alg))
                .collect::<Vec<_>>()
        })
        .collect();
    let handles = service.submit_batch(specs);

    for (j, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait().unwrap_or_else(|e| panic!("job {j}: {e}"));
        let graph_index = j / gpu_algorithms.len();
        verify::check_matching(&graphs[graph_index], &outcome.report.matching)
            .unwrap_or_else(|e| panic!("job {j}: {e}"));
        assert_eq!(outcome.report.cardinality, expected[graph_index], "job {j}");
    }
    assert_eq!(service.stats().failed, 0);
}

#[test]
fn burst_admission_against_a_small_queue_rejects_cleanly() {
    // 8 threads burst 25 jobs each at a 2-worker pool capped at 4 queued
    // jobs.  Submission must never block, every accepted job must still
    // match the oracle, and the rejected/submitted ledger must balance.
    let graph = Arc::new(gen::uniform_random(300, 300, 3000, 41).unwrap());
    let opt = verify::maximum_matching_cardinality(&graph);
    let service = Arc::new(Service::builder().workers(2).max_queue_depth(4).build());

    let mut accepted_total = 0u64;
    let mut rejected_total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let service = Arc::clone(&service);
                let graph = Arc::clone(&graph);
                scope.spawn(move || {
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    for burst in 0..5 {
                        // Five back-to-back submissions, waited on only after
                        // the whole burst is in: 8 such threads keep far more
                        // jobs outstanding than cap + workers can absorb.
                        let burst_handles: Vec<_> = (0..5)
                            .map(|i| {
                                service.submit(
                                    JobSpec::new(Arc::clone(&graph), Algorithm::HopcroftKarp)
                                        .with_priority(((client + burst + i) % 3) as u8),
                                )
                            })
                            .collect();
                        for handle in burst_handles {
                            match handle.wait() {
                                Ok(outcome) => {
                                    assert_eq!(outcome.report.cardinality, opt);
                                    accepted += 1;
                                }
                                Err(ServiceError::Overloaded { queue_depth, retry_after_hint }) => {
                                    assert_eq!(queue_depth, 4);
                                    assert!(retry_after_hint > Duration::ZERO);
                                    rejected += 1;
                                }
                                Err(other) => panic!("client {client}: {other}"),
                            }
                        }
                    }
                    (accepted, rejected)
                })
            })
            .collect();
        for handle in handles {
            let (accepted, rejected) = handle.join().unwrap();
            accepted_total += accepted;
            rejected_total += rejected;
        }
    });

    assert_eq!(accepted_total + rejected_total, 8 * 25);
    assert!(rejected_total > 0, "a 40-deep burst against cap 4 must reject");
    let stats = service.stats();
    assert_eq!(stats.submitted, accepted_total);
    assert_eq!(stats.rejected, rejected_total);
    assert_eq!(stats.completed, accepted_total);
    assert_eq!(stats.failed, 0);
    assert!(stats.peak_queue_depth <= 4, "cap breached: {}", stats.peak_queue_depth);
}

#[test]
fn cancel_storm_leaves_the_pool_healthy() {
    // A dozen heavyweight solves, each cancelled from its own thread while
    // (probably) running.  Whatever the races resolve to, every handle must
    // complete, the counters must balance, and the pool must keep solving
    // correctly afterwards.
    let big = Arc::new(gen::rmat(gen::RmatParams::graph500(13, 8), 5).unwrap());
    let service = Arc::new(Service::builder().workers(2).build());

    let handles: Vec<_> = (0..12)
        .map(|_| {
            service.submit(
                JobSpec::new(Arc::clone(&big), Algorithm::HopcroftKarp)
                    .with_init(InitHeuristic::Empty),
            )
        })
        .collect();
    let cancellers: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(i, handle)| {
            let token = handle.cancel_token();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(i as u64));
                token.cancel();
            })
        })
        .collect();
    let mut cancelled = 0u64;
    let mut completed = 0u64;
    for handle in handles {
        match handle.wait() {
            Err(ServiceError::Cancelled { .. }) => cancelled += 1,
            Ok(outcome) => {
                assert!(outcome.report.cardinality > 0);
                completed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    for canceller in cancellers {
        canceller.join().unwrap();
    }
    assert_eq!(cancelled + completed, 12);
    assert!(cancelled > 0, "a storm of 12 cancels should catch at least one job");
    let stats = service.stats();
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.submitted, stats.completed + stats.failed);

    // The pool survived: a fresh job still matches the oracle.
    let g = gen::uniform_random(100, 100, 600, 77).unwrap();
    let opt = verify::maximum_matching_cardinality(&g);
    let outcome = service.submit(JobSpec::new(g, Algorithm::HopcroftKarp)).wait().unwrap();
    assert_eq!(outcome.report.cardinality, opt);
}

#[test]
fn drain_mid_burst_keeps_the_ledger_balanced_and_results_exact() {
    // 4 shards × 1 worker each, 6 client threads bursting the mixed
    // mini-suite corpus while the control plane drains two shards
    // mid-flight.  The acceptance bar: no accepted job may be lost,
    // duplicated, or wrong — every handle resolves exactly once with the
    // single-threaded oracle's cardinality, and the per-shard ledgers fold
    // to the aggregate totals.
    let graphs: Vec<Arc<BipartiteCsr>> = mini_suite()
        .iter()
        .map(|spec| Arc::new(spec.generate(Scale::Tiny).expect("generate")))
        .collect();
    let mut oracle = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let expected: Vec<usize> = graphs
        .iter()
        .map(|g| {
            oracle.run(g, SolveRequest::new(Algorithm::HopcroftKarp)).expect("oracle").cardinality
        })
        .collect();

    let service =
        Arc::new(Service::builder().shards(4).workers(1).cache_capacity(graphs.len()).build());
    let fingerprints: Vec<u64> = graphs.iter().map(|g| service.put_graph(Arc::clone(g))).collect();

    const BURST_CLIENTS: usize = 6;
    const ROUNDS: usize = 4;
    std::thread::scope(|scope| {
        for client in 0..BURST_CLIENTS {
            let service = Arc::clone(&service);
            let graphs = &graphs;
            let expected = &expected;
            let fingerprints = &fingerprints;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Burst-submit a full corpus pass, then wait: keeping
                    // whole rounds outstanding is what gives the drain real
                    // queued jobs to displace.
                    let handles: Vec<_> = (0..graphs.len())
                        .map(|offset| {
                            let i = (offset + client) % graphs.len();
                            let source = if (client + round + offset) % 2 == 0 {
                                GraphSource::Cached(fingerprints[i])
                            } else {
                                GraphSource::Inline(Arc::clone(&graphs[i]))
                            };
                            let algorithm = algorithms()[(offset + round) % algorithms().len()];
                            (i, service.submit(JobSpec::new(source, algorithm)))
                        })
                        .collect();
                    for (i, handle) in handles {
                        let outcome = handle
                            .wait()
                            .unwrap_or_else(|e| panic!("client {client} graph {i}: {e}"));
                        verify::check_matching(&graphs[i], &outcome.report.matching)
                            .unwrap_or_else(|e| panic!("client {client} graph {i}: {e}"));
                        assert_eq!(outcome.report.cardinality, expected[i], "graph {i}");
                    }
                }
            });
        }
        // Mid-burst, the control plane takes half the capacity away.
        let service = Arc::clone(&service);
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            let drain = service.drain_shard(0).expect("shard 0 exists");
            assert_eq!(drain.shard, 0);
            assert_eq!(drain.kept, 0, "3 shards stayed active, nothing may stay behind");
            std::thread::sleep(Duration::from_millis(20));
            service.drain_shard(2).expect("shard 2 exists");
        });
    });

    let total = (BURST_CLIENTS * ROUNDS * graphs.len()) as u64;
    let stats = service.stats();
    assert_eq!(stats.submitted, total, "unbounded queues must accept the whole burst");
    assert_eq!(stats.completed, total, "every accepted job completes exactly once");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.queue_depth, 0);

    // The per-shard ledgers fold to the totals (a lost or double-counted
    // requeue would break one of these sums), and the drained shards are
    // marked and empty.
    let shards = service.shard_stats();
    assert_eq!(shards.len(), 4);
    assert_eq!(shards.iter().map(|s| s.stats.submitted).sum::<u64>(), total);
    assert_eq!(shards.iter().map(|s| s.stats.completed).sum::<u64>(), total);
    assert_eq!(shards.iter().map(|s| s.stats.failed).sum::<u64>(), 0);
    for id in [0usize, 2] {
        assert!(shards[id].draining, "shard {id} was drained");
        assert_eq!(shards[id].stats.queue_depth, 0, "drained shard {id} must end empty");
    }
    for id in [1usize, 3] {
        assert!(!shards[id].draining);
        assert!(shards[id].stats.completed > 0, "active shard {id} should have taken load");
    }

    // The drained shards' cached graphs stay reachable (remote peek), and a
    // rebalance re-homes them onto the two remaining active shards.
    let outcome = service
        .submit(JobSpec::new(GraphSource::Cached(fingerprints[0]), Algorithm::HopcroftKarp))
        .wait()
        .expect("cached submission after drain");
    assert_eq!(outcome.report.cardinality, expected[0]);
    assert!([1usize, 3].contains(&outcome.shard), "job placed on a drained shard");
    let rebalance = service.rebalance();
    assert_eq!(rebalance.active_shards, 2);
}

#[test]
fn slow_loris_client_does_not_wedge_the_server() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::builder().workers(1).build();
    let server = std::thread::spawn(move || gpm_service::serve(listener, service));

    // Connection 1: connects and never sends a byte.
    let mut idle = TcpStream::connect(addr).unwrap();
    // Connection 2: dribbles a stats request one byte at a time.
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        for byte in b"{\"op\":\"stats\"}\n" {
            stream.write_all(&[*byte]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(15));
        }
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    });

    // A well-behaved client must get served promptly in the meantime: the
    // server is one-thread-per-connection, so the loris can only wedge it
    // by corrupting shared state, not by starving the accept loop.
    let graph = gen::uniform_random(50, 50, 240, 3).unwrap();
    let opt = verify::maximum_matching_cardinality(&graph) as u64;
    let started = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    let response =
        client.solve_inline(&graph, Algorithm::HopcroftKarp, InitHeuristic::Cheap).unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(serde::Value::as_u64),
        Some(opt)
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "well-behaved client starved behind a slow-loris"
    );

    // The dribbled request still completes once fully delivered.
    let loris_line = loris.join().unwrap();
    assert!(loris_line.contains("\"ok\":true"), "{loris_line}");

    // Shutdown must tear down the idle connection instead of hanging on it.
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(idle.read(&mut buf).unwrap(), 0, "idle connection should see EOF");
}
