//! JSON-lines TCP front-end over a [`Service`].
//!
//! Each accepted connection gets its own thread reading request lines and
//! writing response lines; the actual solving happens on the service's
//! worker pool, so N connections share the warm solvers and the graph
//! cache.  A shared job registry maps server-assigned job ids and
//! client-chosen tags to cancellation tokens, so a `cancel` request on one
//! connection stops a solve running on behalf of another.  A `shutdown`
//! request stops the accept loop and joins every connection; a fatal accept
//! failure exits through the same teardown, so handler threads are never
//! leaked.
//!
//! A connection reads its request lines into one reused buffer that stops
//! at [`MAX_REQUEST_LINE_BYTES`] (64 MiB): a longer line gets one
//! `{"ok":false,"error":…}` naming the limit, and then its connection
//! closes; a line that is not UTF-8 gets an error response and the
//! connection keeps serving.
//!
//! Each response leaves in two writes, the line and then its newline, on a
//! socket with Nagle's algorithm on, so the newline waits for the client to
//! acknowledge the line: a client that delays its ACKs (about 40 ms on
//! Linux) sees that floor under every round trip.

use crate::job::{GraphSource, JobSpec};
use crate::proto::{
    error_response, error_response_with, fingerprint_to_hex, ok_response, parse_request, Request,
    RequestGraph,
};
use crate::service::Service;
use gpm_core::{CancelToken, SolveReport};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the server shares across connection handlers: the solver pool and
/// the id/tag → cancellation-token registry.
#[derive(Debug)]
pub struct ServerState {
    service: Service,
    registry: JobRegistry,
}

impl ServerState {
    /// Wraps a service for serving.
    pub fn new(service: Service) -> Self {
        ServerState { service, registry: JobRegistry::default() }
    }

    /// The wrapped service (e.g. for submitting outside the protocol).
    pub fn service(&self) -> &Service {
        &self.service
    }
}

/// In-flight solves addressable for cancellation: server-assigned id →
/// (token, optional client tag).  Entries live exactly as long as the solve
/// — registered before submit, deregistered after the handle resolves — so
/// cancelling a finished or unknown job is a harmless no-op.
#[derive(Debug, Default)]
struct JobRegistry {
    next_id: AtomicU64,
    active: Mutex<HashMap<u64, RegisteredJob>>,
}

#[derive(Debug)]
struct RegisteredJob {
    token: CancelToken,
    tag: Option<String>,
}

impl JobRegistry {
    fn register(&self, tag: Option<String>) -> (u64, CancelToken) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let token = CancelToken::new();
        let job = RegisteredJob { token: token.clone(), tag };
        self.active.lock().unwrap_or_else(|e| e.into_inner()).insert(id, job);
        (id, token)
    }

    fn deregister(&self, id: u64) {
        self.active.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
    }

    /// Trips every active job matching the id or the tag; returns how many.
    fn cancel(&self, job_id: Option<u64>, tag: Option<&str>) -> u64 {
        let active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let mut cancelled = 0;
        for (id, job) in active.iter() {
            let by_id = job_id == Some(*id);
            let by_tag = tag.is_some() && job.tag.as_deref() == tag;
            if by_id || by_tag {
                job.token.cancel();
                cancelled += 1;
            }
        }
        cancelled
    }
}

/// What the accept loop needs from a listener; real servers use
/// [`TcpListener`], tests inject failures to exercise the fatal-error path.
trait Accept {
    fn accept_stream(&self) -> std::io::Result<TcpStream>;
    fn local_addr(&self) -> std::io::Result<SocketAddr>;
}

impl Accept for TcpListener {
    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        TcpListener::local_addr(self)
    }
}

/// Serves `service` on `listener` until a client sends
/// `{"op":"shutdown"}`.  Blocks the calling thread; returns once every
/// connection thread has been joined.
pub fn serve(listener: TcpListener, service: Service) -> std::io::Result<()> {
    serve_inner(&listener, Arc::new(ServerState::new(service)), 100, Duration::from_millis(10))
}

/// The accept loop behind [`serve`].  Every exit — client-requested
/// shutdown, a persistently failing listener, a failed stream clone — falls
/// through to the same teardown that unblocks and joins the connection
/// handlers; an early `return` here would leak them blocked on idle
/// clients.
fn serve_inner<A: Accept>(
    listener: &A,
    state: Arc<ServerState>,
    max_accept_errors: u32,
    accept_retry_delay: Duration,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let local_addr = listener.local_addr()?;
    let mut connections: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    let mut consecutive_accept_errors = 0u32;
    let mut fatal: Option<std::io::Error> = None;
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept_stream() {
            Ok(stream) => {
                consecutive_accept_errors = 0;
                stream
            }
            // A transient accept failure (client RST before accept, fd
            // pressure) must not kill the server and every in-flight
            // connection; only a persistently failing listener is fatal.
            Err(e) => {
                consecutive_accept_errors += 1;
                if consecutive_accept_errors >= max_accept_errors {
                    fatal = Some(e);
                    break;
                }
                std::thread::sleep(accept_retry_delay);
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Prune finished connections so a long-running server does not
        // accumulate one fd + join handle per connection ever accepted.
        connections.retain(|(handle, _)| !handle.is_finished());
        let conn = match stream.try_clone() {
            Ok(conn) => conn,
            Err(e) => {
                fatal = Some(e);
                break;
            }
        };
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // A failed connection only loses that client.
            let _ = handle_connection(stream, &state, &stop, local_addr);
        });
        connections.push((handle, conn));
    }
    for (handle, conn) in connections {
        // Unblock handlers still reading an idle connection: without this a
        // lingering client would keep the server alive past shutdown.
        let _ = conn.shutdown(std::net::Shutdown::Both);
        let _ = handle.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The longest request line a connection may send, in bytes before its
/// newline.  It sits above the largest line an in-repo client ships (a
/// 51 MiB scale-18 R-MAT upload); a longer line gets one error response
/// naming this limit, and then its connection closes.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// The read buffer of one connection.  Inline graphs arrive as lines of up
/// to megabytes (1.66 MB for GL7d19 at Small scale), which an 8 KiB buffer
/// would take in hundreds of `read` calls.
const READ_BUFFER_BYTES: usize = 64 << 10;

fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    stop: &AtomicBool,
    local_addr: SocketAddr,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    // One buffer per connection, reused for every line.
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let oversize = line.len() > MAX_REQUEST_LINE_BYTES && line.last() != Some(&b'\n');
        let (response, is_shutdown) = if oversize {
            let message = format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; closing the connection"
            );
            (error_response(&message), false)
        } else {
            match std::str::from_utf8(line.strip_suffix(b"\n").unwrap_or(&line)) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_request_line(state, text),
                Err(e) => (error_response(&format!("request line is not UTF-8: {e}")), false),
            }
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if oversize {
            // The accept loop holds a clone of this socket, so returning
            // alone would not close it.
            writer.shutdown(std::net::Shutdown::Both)?;
            break;
        }
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            // The accept loop is blocked in `accept`; poke it awake so it
            // observes the stop flag and exits.  A wildcard bind address
            // (0.0.0.0 / ::) is not connectable everywhere — aim the poke
            // at the loopback of the same family instead.
            let mut poke = local_addr;
            if poke.ip().is_unspecified() {
                poke.set_ip(match poke.ip() {
                    std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(poke);
            break;
        }
    }
    Ok(())
}

/// Handles one request line, returning the response line (no newline) and
/// whether the server should stop.  Pure apart from the service calls, so
/// tests drive it without sockets.
pub fn handle_request_line(state: &ServerState, line: &str) -> (String, bool) {
    let service = &state.service;
    match parse_request(line) {
        Err(message) => (error_response(&message), false),
        Ok(Request::PutGraph(graph)) => {
            if !service.cache_enabled() {
                // Without a cache the upload would be silently discarded and
                // every later solve-by-fingerprint would fail; tell the
                // client now instead.
                return (
                    error_response(
                        "graph caching is disabled on this server (cache capacity 0); \
                         ship graphs inline with each solve request",
                    ),
                    false,
                );
            }
            let fingerprint = service.put_graph(graph);
            (
                ok_response(vec![
                    ("op".to_string(), Value::Str("put_graph".to_string())),
                    ("fingerprint".to_string(), Value::Str(fingerprint_to_hex(fingerprint))),
                ]),
                false,
            )
        }
        Ok(Request::Solve {
            algorithm,
            init,
            graph,
            include_matching,
            priority,
            deadline_ms,
            tag,
        }) => {
            let source = match graph {
                RequestGraph::Fingerprint(fp) => GraphSource::Cached(fp),
                RequestGraph::Inline(g) => GraphSource::Inline(Arc::new(g)),
            };
            // Register before submit so a concurrent `cancel` (by tag, from
            // any connection) can already reach the job while it is queued.
            let (job_id, token) = state.registry.register(tag);
            let mut spec = JobSpec::new(source, algorithm)
                .with_init(init)
                .with_priority(priority)
                .with_cancel_token(token);
            if let Some(ms) = deadline_ms {
                spec = spec.with_deadline(Duration::from_millis(ms));
            }
            let result = service.submit(spec).wait();
            state.registry.deregister(job_id);
            match result {
                Err(e) => (
                    error_response_with(
                        &e.to_string(),
                        vec![("job_id".to_string(), Value::U64(job_id))],
                    ),
                    false,
                ),
                Ok(outcome) => {
                    let mut fields = vec![
                        ("op".to_string(), Value::Str("solve".to_string())),
                        ("job_id".to_string(), Value::U64(job_id)),
                        ("report".to_string(), outcome.report.to_value()),
                        ("shard".to_string(), Value::U64(outcome.shard as u64)),
                        ("worker".to_string(), Value::U64(outcome.worker as u64)),
                        ("cache_hit".to_string(), Value::Bool(outcome.cache_hit)),
                        ("queue_seconds".to_string(), Value::F64(outcome.queue_seconds)),
                        ("service_seconds".to_string(), Value::F64(outcome.service_seconds)),
                    ];
                    if include_matching {
                        fields.push(("row_mates".to_string(), row_mates_value(&outcome.report)));
                    }
                    (ok_response(fields), false)
                }
            }
        }
        Ok(Request::Cancel { job_id, tag }) => {
            let cancelled = state.registry.cancel(job_id, tag.as_deref());
            (
                ok_response(vec![
                    ("op".to_string(), Value::Str("cancel".to_string())),
                    ("cancelled".to_string(), Value::U64(cancelled)),
                ]),
                false,
            )
        }
        Ok(Request::PatchGraph { parent, delta }) => {
            if !service.cache_enabled() {
                return (
                    error_response(
                        "graph caching is disabled on this server (cache capacity 0); \
                         there is no cached parent to patch",
                    ),
                    false,
                );
            }
            match service.patch_graph(parent, &delta) {
                Err(e) => (error_response(&e.to_string()), false),
                Ok(lineage) => (
                    ok_response(vec![
                        ("op".to_string(), Value::Str("patch_graph".to_string())),
                        ("parent".to_string(), Value::Str(fingerprint_to_hex(lineage.parent))),
                        ("fingerprint".to_string(), Value::Str(fingerprint_to_hex(lineage.child))),
                    ]),
                    false,
                ),
            }
        }
        Ok(Request::Stats) => (
            ok_response(vec![
                ("op".to_string(), Value::Str("stats".to_string())),
                ("stats".to_string(), service.stats().to_value()),
            ]),
            false,
        ),
        Ok(Request::Shards) => (
            ok_response(vec![
                ("op".to_string(), Value::Str("shards".to_string())),
                (
                    "shards".to_string(),
                    Value::Seq(service.shard_stats().iter().map(Serialize::to_value).collect()),
                ),
            ]),
            false,
        ),
        Ok(Request::Drain { shard }) => match service.drain_shard(shard) {
            Err(e) => (error_response(&e.to_string()), false),
            Ok(outcome) => (
                ok_response(vec![
                    ("op".to_string(), Value::Str("drain".to_string())),
                    ("shard".to_string(), Value::U64(outcome.shard as u64)),
                    ("requeued".to_string(), Value::U64(outcome.requeued as u64)),
                    ("kept".to_string(), Value::U64(outcome.kept as u64)),
                    ("in_flight".to_string(), Value::U64(outcome.in_flight as u64)),
                ]),
                false,
            ),
        },
        Ok(Request::Rebalance) => {
            let outcome = service.rebalance();
            (
                ok_response(vec![
                    ("op".to_string(), Value::Str("rebalance".to_string())),
                    ("moved".to_string(), Value::U64(outcome.moved as u64)),
                    ("active_shards".to_string(), Value::U64(outcome.active_shards as u64)),
                ]),
                false,
            )
        }
        Ok(Request::Shutdown) => {
            (ok_response(vec![("op".to_string(), Value::Str("shutdown".to_string()))]), true)
        }
    }
}

/// The matching as a row-mate array: `row_mates[r]` is the matched column
/// of row `r`, or -1 when unmatched.
fn row_mates_value(report: &SolveReport) -> Value {
    Value::Seq(report.matching.row_mates().iter().map(|&m| Value::I64(m)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::fingerprint_from_hex;
    use gpm_graph::gen;
    use gpm_graph::verify::maximum_matching_cardinality;

    fn parsed_ok(response: &str) -> Value {
        let v = serde_json::from_str(response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        v
    }

    #[test]
    fn put_solve_stats_flow_without_sockets() {
        let state = ServerState::new(Service::builder().workers(2).build());
        let g = gen::planted_perfect(30, 120, 5).unwrap();
        let mut put_line = format!(
            r#"{{"op":"put_graph","rows":{},"cols":{},"edges":["#,
            g.num_rows(),
            g.num_cols()
        );
        let edges: Vec<String> = g.edges().map(|(r, c)| format!("[{r},{c}]")).collect();
        put_line.push_str(&edges.join(","));
        put_line.push_str("]}");
        let (response, stop) = handle_request_line(&state, &put_line);
        assert!(!stop);
        let fp_hex =
            parsed_ok(&response).get("fingerprint").and_then(Value::as_str).unwrap().to_string();
        assert_eq!(fingerprint_from_hex(&fp_hex).unwrap(), g.fingerprint());

        let solve_line = format!(
            r#"{{"op":"solve","algorithm":"HK","fingerprint":"{fp_hex}","include_matching":true}}"#
        );
        let (response, stop) = handle_request_line(&state, &solve_line);
        assert!(!stop);
        let v = parsed_ok(&response);
        let report = v.get("report").unwrap();
        assert_eq!(report.get("cardinality").and_then(Value::as_u64), Some(30));
        assert_eq!(v.get("cache_hit").and_then(Value::as_bool), Some(true));
        assert!(v.get("job_id").and_then(Value::as_u64).is_some());
        let mates = v.get("row_mates").and_then(Value::as_seq).unwrap();
        assert_eq!(mates.len(), 30);
        assert!(mates.iter().all(|m| m.as_i64().is_some()));

        let (response, _) = handle_request_line(&state, r#"{"op":"stats"}"#);
        let v = parsed_ok(&response);
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("cache").unwrap().get("hits").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn inline_solve_and_error_envelopes() {
        let state = ServerState::new(Service::builder().workers(1).build());
        let g = gen::uniform_random(10, 10, 40, 2).unwrap();
        let opt = maximum_matching_cardinality(&g) as u64;
        let edges: Vec<String> = g.edges().map(|(r, c)| format!("[{r},{c}]")).collect();
        let line = format!(
            r#"{{"op":"solve","algorithm":"PFP","rows":10,"cols":10,"edges":[{}]}}"#,
            edges.join(",")
        );
        let (response, _) = handle_request_line(&state, &line);
        let v = parsed_ok(&response);
        assert_eq!(v.get("report").unwrap().get("cardinality").and_then(Value::as_u64), Some(opt));

        // Unknown fingerprint: an error envelope (still carrying the
        // assigned job id), not a dead server.
        let (response, stop) = handle_request_line(
            &state,
            r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1234"}"#,
        );
        assert!(!stop);
        let v = serde_json::from_str(&response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").and_then(Value::as_str).unwrap().contains("0x0000000000001234"));
        assert!(v.get("job_id").and_then(Value::as_u64).is_some());

        // Garbage line: ditto.
        let (response, stop) = handle_request_line(&state, "garbage");
        assert!(!stop);
        assert!(response.starts_with(r#"{"ok":false"#));
    }

    #[test]
    fn put_graph_on_cacheless_server_is_rejected_up_front() {
        let state = ServerState::new(Service::builder().workers(1).cache_capacity(0).build());
        let (response, stop) =
            handle_request_line(&state, r#"{"op":"put_graph","rows":1,"cols":1,"edges":[[0,0]]}"#);
        assert!(!stop);
        let v = serde_json::from_str(&response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").and_then(Value::as_str).unwrap().contains("caching is disabled"));
        // Inline solving still works without a cache.
        let (response, _) = handle_request_line(
            &state,
            r#"{"op":"solve","algorithm":"HK","rows":1,"cols":1,"edges":[[0,0]]}"#,
        );
        let v = parsed_ok(&response);
        assert_eq!(v.get("report").unwrap().get("cardinality").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn control_ops_flow_without_sockets() {
        let state = ServerState::new(Service::builder().shards(3).workers(1).build());
        let (response, stop) = handle_request_line(&state, r#"{"op":"shards"}"#);
        assert!(!stop);
        let v = parsed_ok(&response);
        let shards = v.get("shards").and_then(Value::as_seq).unwrap();
        assert_eq!(shards.len(), 3);
        for (i, entry) in shards.iter().enumerate() {
            assert_eq!(entry.get("id").and_then(Value::as_u64), Some(i as u64));
            assert_eq!(entry.get("draining").and_then(Value::as_bool), Some(false));
            assert!(entry.get("stats").unwrap().get("submitted").is_some());
        }

        let (response, _) = handle_request_line(&state, r#"{"op":"drain","shard":1}"#);
        let v = parsed_ok(&response);
        assert_eq!(v.get("shard").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("requeued").and_then(Value::as_u64), Some(0));
        let (response, _) = handle_request_line(&state, r#"{"op":"shards"}"#);
        let v = parsed_ok(&response);
        let shards = v.get("shards").and_then(Value::as_seq).unwrap();
        assert_eq!(shards[1].get("draining").and_then(Value::as_bool), Some(true));

        let (response, _) = handle_request_line(&state, r#"{"op":"drain","shard":9}"#);
        let v = serde_json::from_str(&response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").and_then(Value::as_str).unwrap().contains("no shard 9"));

        let (response, _) = handle_request_line(&state, r#"{"op":"rebalance"}"#);
        let v = parsed_ok(&response);
        assert_eq!(v.get("active_shards").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("moved").and_then(Value::as_u64), Some(0));

        // Solve responses name the shard that ran the job.
        let (response, _) = handle_request_line(
            &state,
            r#"{"op":"solve","algorithm":"HK","rows":1,"cols":1,"edges":[[0,0]]}"#,
        );
        let v = parsed_ok(&response);
        let shard = v.get("shard").and_then(Value::as_u64).unwrap();
        assert_ne!(shard, 1, "draining shard must not run new jobs");
    }

    #[test]
    fn shutdown_request_signals_stop() {
        let state = ServerState::new(Service::builder().workers(1).build());
        let (response, stop) = handle_request_line(&state, r#"{"op":"shutdown"}"#);
        assert!(stop);
        parsed_ok(&response);
    }

    #[test]
    fn cancel_by_tag_reaches_a_solve_on_another_thread() {
        let state = Arc::new(ServerState::new(Service::builder().workers(1).build()));
        // A big instance so the solve is still running when the cancel
        // lands; the assertion tolerates the race where it finished first.
        let g = gen::rmat(gen::RmatParams::graph500(12, 8), 3).unwrap();
        let edges: Vec<String> = g.edges().map(|(r, c)| format!("[{r},{c}]")).collect();
        let line = format!(
            r#"{{"op":"solve","algorithm":"HK","tag":"victim","rows":{},"cols":{},"edges":[{}]}}"#,
            g.num_rows(),
            g.num_cols(),
            edges.join(",")
        );
        let solver_state = Arc::clone(&state);
        let solve = std::thread::spawn(move || handle_request_line(&solver_state, &line).0);
        // Second "connection": spin until the tag is registered, then cancel.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let cancelled = loop {
            let (response, stop) = handle_request_line(&state, r#"{"op":"cancel","tag":"victim"}"#);
            assert!(!stop);
            let n = parsed_ok(&response).get("cancelled").and_then(Value::as_u64).unwrap();
            if n > 0 || std::time::Instant::now() > deadline {
                break n;
            }
            std::thread::yield_now();
        };
        let response = solve.join().unwrap();
        let v = serde_json::from_str(&response).unwrap();
        if cancelled > 0 && v.get("ok").and_then(Value::as_bool) == Some(false) {
            assert!(v.get("error").and_then(Value::as_str).unwrap().contains("cancelled"));
            assert!(v.get("job_id").and_then(Value::as_u64).is_some());
        } else {
            // The solve beat the cancel (or finished before registration
            // was observed): it must then be a normal success.
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{response}");
        }
        // Either way the registry is drained and the pool still serves.
        assert_eq!(state.registry.active.lock().unwrap().len(), 0);
        let (response, _) = handle_request_line(
            &state,
            r#"{"op":"solve","algorithm":"HK","rows":1,"cols":1,"edges":[[0,0]]}"#,
        );
        parsed_ok(&response);
    }

    /// Regression: a fatal accept failure used to `return Err` straight out
    /// of the accept loop, leaking every connection handler blocked on an
    /// idle client.  The fatal path must run the same teardown as a normal
    /// shutdown: connections get shut down and joined, so `serve_inner`
    /// returning implies the handler is gone and the client sees EOF.
    #[test]
    fn fatal_accept_error_still_tears_down_live_connections() {
        use std::io::Read;

        struct FailingAcceptor {
            streams: Mutex<Vec<TcpStream>>,
            addr: SocketAddr,
        }

        impl Accept for FailingAcceptor {
            fn accept_stream(&self) -> std::io::Result<TcpStream> {
                match self.streams.lock().unwrap().pop() {
                    Some(stream) => Ok(stream),
                    None => Err(std::io::Error::other("listener broke")),
                }
            }

            fn local_addr(&self) -> std::io::Result<SocketAddr> {
                Ok(self.addr)
            }
        }

        // A real socket pair: the server side is handed out by the acceptor
        // once, the client side sits idle (never writes a request).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let acceptor = FailingAcceptor { streams: Mutex::new(vec![server_side]), addr };

        let state = Arc::new(ServerState::new(Service::builder().workers(1).build()));
        let err = serve_inner(&acceptor, state, 3, Duration::from_millis(1)).unwrap_err();
        assert_eq!(err.to_string(), "listener broke");

        // The handler was joined and its stream shut down, so the idle
        // client reads EOF instead of hanging forever.
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 16];
        let n = (&client).read(&mut buf).unwrap();
        assert_eq!(n, 0, "expected EOF from a torn-down connection");
    }
}
