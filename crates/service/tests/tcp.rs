//! End-to-end test of the JSON-lines protocol over a real localhost socket:
//! server thread, multiple client connections, graph upload → cached solve →
//! stats → shutdown.

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::gen;
use gpm_graph::verify::maximum_matching_cardinality;
use gpm_service::server::MAX_REQUEST_LINE_BYTES;
use gpm_service::{serve, Client, Service};
use gpm_testutil::{augmenting_chain, dead_end_chain};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Compile-time `Send` guarantees for everything the service moves across
/// threads: a future non-`Send` field must fail this build.
#[test]
fn service_types_are_send() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<gpm_service::JobHandle>();
    assert_send::<gpm_service::JobSpec>();
    assert_send::<gpm_service::JobOutcome>();
    assert_send::<gpm_service::ServiceError>();
    assert_send_sync::<Service>();
    assert_send_sync::<gpm_service::CancelToken>();
    assert_send_sync::<gpm_service::ServerState>();
    assert_send::<gpm_service::SolveOptions>();
}

#[test]
fn full_protocol_round_trip_over_localhost() {
    // Port 0: the OS picks a free port, so parallel test runs never clash.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let service = Service::builder().workers(2).cache_capacity(8).build();
    let server = std::thread::spawn(move || serve(listener, service).expect("serve"));

    let graph = gen::planted_perfect(40, 160, 9).unwrap();
    let opt = maximum_matching_cardinality(&graph) as u64;

    // First connection: upload, then solve by fingerprint (cache hit) and
    // inline (no hit).
    let mut client = Client::connect(addr).expect("connect");
    let fingerprint = client.put_graph(&graph).expect("put_graph");
    assert_eq!(fingerprint, graph.fingerprint());

    let response =
        client.solve_cached(fingerprint, Algorithm::HopcroftKarp, InitHeuristic::Cheap).unwrap();
    let report = response.get("report").unwrap();
    assert_eq!(report.get("cardinality").and_then(Value::as_u64), Some(opt));
    assert_eq!(response.get("cache_hit").and_then(Value::as_bool), Some(true));

    let response =
        client.solve_inline(&graph, Algorithm::PothenFan, InitHeuristic::KarpSipser).unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(Value::as_u64),
        Some(opt)
    );
    assert_eq!(response.get("cache_hit").and_then(Value::as_bool), Some(false));

    // Second, concurrent connection shares the same cache and pool.
    let mut other = Client::connect(addr).expect("second connect");
    let response =
        other.solve_cached(fingerprint, Algorithm::gpr_default(), InitHeuristic::Cheap).unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(Value::as_u64),
        Some(opt)
    );

    // Bad requests surface as errors on the same connection, which stays up.
    let err = other.solve_cached(0xbad, Algorithm::HopcroftKarp, InitHeuristic::Cheap).unwrap_err();
    assert!(err.to_string().contains("0x0000000000000bad"), "{err}");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(3));
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("workers").and_then(Value::as_u64), Some(2));
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(2));
    let per_alg = stats.get("per_algorithm").unwrap();
    assert!(per_alg.get("HK").is_some());
    assert!(per_alg.get("G-PR-Shr@adaptive").is_some());

    // Scheduling fields ride along and the response correlates by job_id;
    // cancelling an already-finished job is a counted no-op.
    let options = gpm_service::SolveOptions {
        priority: 3,
        deadline_ms: Some(60_000),
        tag: Some("tcp-test".to_string()),
    };
    let response = other
        .solve_cached_with(fingerprint, Algorithm::HopcroftKarp, InitHeuristic::Cheap, &options)
        .unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(Value::as_u64),
        Some(opt)
    );
    let job_id = response.get("job_id").and_then(Value::as_u64).expect("job_id in response");
    assert_eq!(client.cancel_job(job_id).unwrap(), 0, "finished job is no longer cancellable");
    assert_eq!(client.cancel_tag("tcp-test").unwrap(), 0);

    // patch_graph: mutate the cached graph server-side, solve the child by
    // its new fingerprint, and confirm the resolved counter ticked (the
    // parent was already solved above, so the child's solve warm-starts).
    let (r, c) = graph.edges().next().unwrap();
    let mut delta = gpm_service::GraphDelta::new();
    delta.remove_edge(r, c);
    delta.add_cols(1);
    delta.insert_edge(r, graph.num_cols() as u32);
    let child = client.patch_graph(fingerprint, &delta).expect("patch_graph");
    let patched = graph.apply_delta(&delta).unwrap();
    assert_eq!(child, patched.fingerprint());
    let child_opt = maximum_matching_cardinality(&patched) as u64;
    let response =
        client.solve_cached(child, Algorithm::HopcroftKarp, InitHeuristic::Cheap).unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(Value::as_u64),
        Some(child_opt)
    );
    assert_eq!(response.get("cache_hit").and_then(Value::as_bool), Some(true));
    let stats = client.stats().expect("stats after patch");
    assert_eq!(stats.get("patched").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("resolved").and_then(Value::as_u64), Some(1));
    // A delta that does not apply is an error; the connection stays up.
    let mut bad = gpm_service::GraphDelta::new();
    bad.insert_edge(10_000, 0);
    let err = client.patch_graph(fingerprint, &bad).unwrap_err();
    assert!(err.to_string().contains("does not apply"), "{err}");

    // An impossible deadline surfaces as a deadline error over the wire.
    let strict = gpm_service::SolveOptions { deadline_ms: Some(0), ..Default::default() };
    let err = other
        .solve_cached_with(fingerprint, Algorithm::HopcroftKarp, InitHeuristic::Cheap, &strict)
        .unwrap_err();
    assert!(err.to_string().contains("deadline exceeded"), "{err}");

    // Shutdown stops the accept loop; serve() returns and the thread joins.
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn client_round_trips_skip_the_delayed_ack() {
    // A responder that answers each request line in one write, so any stall
    // left in a round trip is the client's own write pattern: a request
    // split over two writes waits on the responder's delayed ACK (about
    // 40 ms on Linux) unless it leaves in one segment.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let responder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            if line.is_err() || writer.write_all(b"{\"ok\":true}\n").is_err() {
                break;
            }
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut round_trip = || {
        let start = Instant::now();
        client.request(vec![("op".to_string(), Value::Str("stats".to_string()))]).unwrap();
        start.elapsed()
    };
    // Warm-up: Linux acknowledges the first segments of a connection at once.
    for _ in 0..5 {
        round_trip();
    }
    let mut samples: Vec<Duration> = (0..20).map(|_| round_trip()).collect();
    drop(client);
    responder.join().unwrap();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(median < Duration::from_millis(20), "median round trip {median:?}: {samples:?}");
}

/// A server on a free loopback port; join the handle after a client sends
/// `shutdown`.
fn spawn_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().unwrap();
    let service = Service::builder().workers(1).build();
    (addr, std::thread::spawn(move || serve(listener, service).expect("serve")))
}

/// A raw connection that sends each request in one write with Nagle off,
/// as a well-behaved client does, and reads response lines with a timeout
/// so a server that never answers fails the test instead of hanging it.
fn raw_connection(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a response line");
    serde_json::from_str(line.trim_end()).unwrap_or_else(|e| panic!("{e}: {line:?}"))
}

#[test]
fn oversize_line_is_refused_and_closed_while_other_connections_solve() {
    let (addr, server) = spawn_server();
    let (mut stream, mut reader) = raw_connection(addr);
    // One byte over the limit, with no newline: the server must give up on
    // the line instead of buffering until one arrives.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..MAX_REQUEST_LINE_BYTES / chunk.len() {
        stream.write_all(&chunk).unwrap();
    }
    stream.write_all(&chunk[..MAX_REQUEST_LINE_BYTES % chunk.len() + 1]).unwrap();

    // Another connection is served meanwhile.
    let graph = gen::planted_perfect(20, 60, 4).unwrap();
    let mut client = Client::connect(addr).expect("connect");
    let response =
        client.solve_inline(&graph, Algorithm::HopcroftKarp, InitHeuristic::Cheap).unwrap();
    assert_eq!(
        response.get("report").unwrap().get("cardinality").and_then(Value::as_u64),
        Some(20)
    );

    let response = read_response(&mut reader);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false), "{response:?}");
    let error = response.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains(&MAX_REQUEST_LINE_BYTES.to_string()), "{error}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("EOF after the error"), 0);

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn non_utf8_line_gets_an_error_and_the_connection_keeps_serving() {
    let (addr, server) = spawn_server();
    let (mut stream, mut reader) = raw_connection(addr);
    stream.write_all(b"{\"op\":\"stats\",\"tag\":\"\xff\"}\n").unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false), "{response:?}");
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("UTF-8"));

    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let response = read_response(&mut reader);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{response:?}");
    assert!(response.get("stats").is_some());

    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    read_response(&mut reader);
    server.join().unwrap();
}

#[test]
fn hostile_dimensions_get_errors_and_the_server_keeps_serving() {
    let (addr, server) = spawn_server();
    let (mut stream, mut reader) = raw_connection(addr);
    let mut ask = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        read_response(&mut reader)
    };
    let put = ask(r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0,0],[1,1]]}"#);
    let parent = put.get("fingerprint").and_then(Value::as_str).expect("fingerprint").to_string();
    // A side of 10^14 vertices once aborted the server allocating for it,
    // and one of 9·10^18 panicked its connection thread on a capacity
    // overflow; the patch twins grow a graph to the same sizes, the last
    // past usize::MAX.  The P-DBFS labels ask a worker for more threads than
    // `MAX_PDBFS_THREADS`; the graph has no free column, so even an
    // unchecked solve would spawn none.
    let hostile = [
        r#"{"op":"put_graph","rows":100000000000000,"cols":1,"edges":[]}"#.to_string(),
        r#"{"op":"put_graph","rows":9000000000000000000,"cols":1,"edges":[]}"#.to_string(),
        format!(r#"{{"op":"patch_graph","parent":"{parent}","add_rows":100000000000000}}"#),
        format!(r#"{{"op":"patch_graph","parent":"{parent}","add_rows":18446744073709551615}}"#),
        format!(r#"{{"op":"solve","algorithm":"P-DBFS@257","fingerprint":"{parent}"}}"#),
        format!(
            r#"{{"op":"solve","algorithm":"P-DBFS@18446744073709551615","fingerprint":"{parent}"}}"#
        ),
    ];
    for line in &hostile {
        let response = ask(line);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(false),
            "{line}: {response:?}"
        );
        assert!(response.get("error").and_then(Value::as_str).is_some(), "{line}: {response:?}");
    }
    let solved = ask(&format!(r#"{{"op":"solve","algorithm":"HK","fingerprint":"{parent}"}}"#));
    let report = solved.get("report").unwrap_or_else(|| panic!("{solved:?}"));
    assert_eq!(report.get("cardinality").and_then(Value::as_u64), Some(2));
    ask(r#"{"op":"shutdown"}"#);
    server.join().unwrap();
}

#[test]
fn chains_through_every_vertex_get_the_maximum_and_the_server_keeps_serving() {
    // Each chain's one alternating path runs through all its ~40,000
    // vertices: a search spending a call-stack frame per path edge overflows
    // the shard worker's stack on it, which aborts the whole server.
    let k = 20_000;
    let (addr, server) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    for (graph, maximum) in [(augmenting_chain(k), k + 1), (dead_end_chain(k), k)] {
        for label in ["HK", "HKDW", "PFP", "P-DBFS", "PR"] {
            let algorithm: Algorithm = label.parse().unwrap();
            let response = client.solve_inline(&graph, algorithm, InitHeuristic::Cheap).unwrap();
            let report = response.get("report").unwrap_or_else(|| panic!("{label}: {response:?}"));
            let cardinality = report.get("cardinality").and_then(Value::as_u64);
            assert_eq!(cardinality, Some(maximum as u64), "{label} on {} columns", k + 1);
        }
    }
    let stats = client.stats().expect("stats after the chains");
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(10), "{stats:?}");
    client.shutdown().unwrap();
    server.join().unwrap();
}
