//! The JSON-lines wire protocol: one JSON object per line, request in,
//! response out.
//!
//! Requests (`op` selects the operation):
//!
//! * `{"op":"put_graph","rows":M,"cols":N,"edges":[[r,c],…]}` — upload a
//!   graph (0-based endpoints) into the cache.  Response carries its
//!   `fingerprint` as a `0x…` hex string (JSON numbers cannot hold all
//!   64-bit values exactly).
//! * `{"op":"solve","algorithm":"G-PR-Shr@adaptive:0.7","init":"cheap",
//!   "fingerprint":"0x…"}` — solve a cached graph; or inline the graph with
//!   `rows`/`cols`/`edges` instead of `fingerprint`.  `init` is optional
//!   (default `cheap`); `"include_matching":true` adds the row-mate array.
//!   Scheduling fields, all optional: `"priority"` (0–255, higher dequeues
//!   first), `"deadline_ms"` (queue + solve budget in milliseconds), and
//!   `"tag"` (a client-chosen label the job can be cancelled by from any
//!   connection).  The response — success or error — carries the
//!   server-assigned `job_id` for correlation.
//! * `{"op":"cancel","job_id":7}` or `{"op":"cancel","tag":"batch-3"}` —
//!   request cancellation of in-flight solves; the response reports how many
//!   jobs were signalled.  Engines stop at worklist-round granularity, so
//!   the cancelled solve fails promptly with a `cancelled` error.
//! * `{"op":"patch_graph","parent":"0x…","insert":[[r,c],…],
//!   "remove":[[r,c],…],"add_rows":n,"add_cols":n,"clear_rows":[r,…],
//!   "clear_cols":[c,…]}` — apply a delta to the cached graph `parent`
//!   without re-uploading it; every delta field is optional.  The response
//!   echoes `parent` and carries the patched child's `fingerprint` — solve
//!   against either.  The child is cached on its chain's home shard
//!   together with the delta, so solving it warm-starts from the parent's
//!   last matching when one is on file.
//! * `{"op":"stats"}` — service counters snapshot (the fold across all
//!   shards).
//! * `{"op":"shards"}` — control plane: one entry per shard with its id,
//!   lifecycle (`draining`), `running` count, and per-shard stats.
//! * `{"op":"drain","shard":2}` — control plane: stop placing jobs on
//!   shard 2, re-home its queued jobs onto active shards, let its in-flight
//!   jobs finish.  Response reports `requeued`/`kept`/`in_flight`.
//! * `{"op":"rebalance"}` — control plane: move every cached graph to its
//!   home shard (`active[fingerprint mod |active|]`); response reports how
//!   many graphs `moved` across how many `active_shards`.
//! * `{"op":"shutdown"}` — acknowledge, then stop the server.
//!
//! Responses always carry `"ok"`: `{"ok":true,…}` or
//! `{"ok":false,"error":"…"}` (plus `job_id` on solve errors).
//!
//! A request line holds at most
//! [`MAX_REQUEST_LINE_BYTES`](crate::server::MAX_REQUEST_LINE_BYTES)
//! (64 MiB) before its newline; the server refuses a longer one and closes
//! its connection.  [`parse_request`] reads a line in one pass with the
//! vendored [`serde_json::Reader`]: the `edges`, `insert` and `remove` pair
//! arrays go straight into edge lists, without a [`Value`] per number, and
//! the other fields become a small [`Value`] map.  A pair array that is
//! valid JSON but not pairs is reported only by an op that reads it.
//!
//! Each pair array is one call of [`Reader::pairs`]: a single loop that
//! reads an element written as `[r,c]` with plain digits, the form the
//! bundled [`Client`](crate::Client) writes, straight from the bytes, and
//! hands any other element to the tree reader, so what is accepted and every
//! error stay as they were.  An inline graph whose edges arrive strictly
//! increasing in `(row, col)` order, as the client sends them, is built into
//! CSR from the parsed list itself ([`BipartiteCsr::from_edges`] skips its
//! sort).  On a 2-vCPU host the 1.66 MB inline `solve` line of GL7d19 at
//! Small scale parses, CSR build included, in 3.2–4.3 ms (about 400 MB/s),
//! against 9.7–17.0 ms with a closure call per element and per endpoint and
//! a sorted copy of every edge list.

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::{BipartiteCsr, GraphDelta, VertexId};
use serde::Value;
use serde_json::{PairsDefect, Reader};
use std::fmt::Write;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Upload a graph into the cache.
    PutGraph(BipartiteCsr),
    /// Solve a graph (cached or inline).
    Solve {
        /// The algorithm, parsed from its round-trippable label.
        algorithm: Algorithm,
        /// Initialization heuristic (wire default: `cheap`).
        init: InitHeuristic,
        /// Cached fingerprint or inline graph.
        graph: RequestGraph,
        /// Include the row-mate array in the response.
        include_matching: bool,
        /// Scheduling priority (wire default: 0; higher dequeues first).
        priority: u8,
        /// Optional queue + solve budget in milliseconds.
        deadline_ms: Option<u64>,
        /// Optional client-chosen label for cross-connection cancellation.
        tag: Option<String>,
    },
    /// Cancel in-flight solves by server-assigned id or client tag (at
    /// least one is present).
    Cancel {
        /// The `job_id` a solve response reported.
        job_id: Option<u64>,
        /// The `tag` the solve request carried.
        tag: Option<String>,
    },
    /// Apply a delta to a cached graph, caching the patched child.
    PatchGraph {
        /// Fingerprint of the cached graph the delta applies to.
        parent: u64,
        /// The batched mutation.
        delta: GraphDelta,
    },
    /// Snapshot the service counters.
    Stats,
    /// Snapshot every shard (control plane).
    Shards,
    /// Drain one shard (control plane).
    Drain {
        /// The shard id to drain.
        shard: usize,
    },
    /// Move cached graphs to their home shards (control plane).
    Rebalance,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// How a solve request names its graph.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestGraph {
    /// By cache key.
    Fingerprint(u64),
    /// By value.
    Inline(BipartiteCsr),
}

/// Renders a fingerprint the way the protocol ships it: `0x` + 16 hex
/// digits.
pub fn fingerprint_to_hex(fingerprint: u64) -> String {
    format!("{fingerprint:#018x}")
}

/// Parses a `0x…` fingerprint produced by [`fingerprint_to_hex`] (plain
/// hex without the prefix is accepted too).
pub fn fingerprint_from_hex(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).map_err(|_| format!("bad fingerprint '{s}': expected hex"))
}

/// Parses one request line.  Errors are human-readable strings ready to be
/// wrapped in an error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Fields { value, edges, insert, remove } =
        read_fields(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field 'op'".to_string())?;
    match op {
        "put_graph" => Ok(Request::PutGraph(parse_graph(&value, edges)?)),
        "solve" => {
            let algorithm_label = value
                .get("algorithm")
                .and_then(Value::as_str)
                .ok_or_else(|| "solve: missing string field 'algorithm'".to_string())?;
            let algorithm: Algorithm =
                algorithm_label.parse().map_err(|e| format!("solve: {e}"))?;
            let init = match value.get("init").and_then(Value::as_str) {
                Some(label) => label.parse().map_err(|e| format!("solve: {e}"))?,
                None => InitHeuristic::default(),
            };
            let graph = match value.get("fingerprint").and_then(Value::as_str) {
                Some(hex) => RequestGraph::Fingerprint(fingerprint_from_hex(hex)?),
                None => RequestGraph::Inline(parse_graph(&value, edges)?),
            };
            let include_matching =
                value.get("include_matching").and_then(Value::as_bool).unwrap_or(false);
            let priority = match value.get("priority") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .and_then(|n| u8::try_from(n).ok())
                    .ok_or_else(|| "solve: 'priority' must be an integer in 0..=255".to_string())?,
            };
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "solve: 'deadline_ms' must be a non-negative integer".to_string()
                })?),
            };
            let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
            Ok(Request::Solve {
                algorithm,
                init,
                graph,
                include_matching,
                priority,
                deadline_ms,
                tag,
            })
        }
        "cancel" => {
            let job_id = match value.get("job_id") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "cancel: 'job_id' must be a non-negative integer".to_string()
                })?),
            };
            let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
            if job_id.is_none() && tag.is_none() {
                return Err("cancel: provide 'job_id' and/or 'tag'".to_string());
            }
            Ok(Request::Cancel { job_id, tag })
        }
        "patch_graph" => {
            let parent = value
                .get("parent")
                .and_then(Value::as_str)
                .ok_or_else(|| "patch_graph: missing string field 'parent'".to_string())?;
            Ok(Request::PatchGraph {
                parent: fingerprint_from_hex(parent)?,
                delta: parse_delta(&value, insert, remove)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "shards" => Ok(Request::Shards),
        "drain" => {
            let shard = value
                .get("shard")
                .and_then(Value::as_u64)
                .ok_or_else(|| "drain: missing non-negative integer field 'shard'".to_string())?;
            Ok(Request::Drain { shard: shard as usize })
        }
        "rebalance" => Ok(Request::Rebalance),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op '{other}': expected put_graph, patch_graph, solve, cancel, stats, shards, \
             drain, rebalance, or shutdown"
        )),
    }
}

/// Extracts `rows`/`cols` and the `edges` read by [`read_fields`] into a
/// validated graph.
fn parse_graph(value: &Value, edges: Option<Pairs>) -> Result<BipartiteCsr, String> {
    let dim = |field: &str| -> Result<usize, String> {
        value
            .get(field)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("missing non-negative integer field '{field}'"))
    };
    let rows = dim("rows")?;
    let cols = dim("cols")?;
    let edges = edges.unwrap_or(Err(PairsDefect::NotArray)).map_err(|defect| match defect {
        PairsDefect::NotArray => "missing array field 'edges'".to_string(),
        PairsDefect::NotPair(i) => {
            format!("edges[{i}]: expected a [row, col] pair of non-negative integers")
        }
        PairsDefect::BadFirst(i) => format!("edges[{i}]: bad row endpoint"),
        PairsDefect::BadSecond(i) => format!("edges[{i}]: bad column endpoint"),
    })?;
    BipartiteCsr::from_edges(rows, cols, &edges).map_err(|e| format!("bad graph: {e}"))
}

/// Extracts the (all-optional) delta fields of a `patch_graph` request:
/// `insert`/`remove` (arrays of `[row, col]` pairs, read by
/// [`read_fields`]), `add_rows`/`add_cols` (non-negative integers),
/// `clear_rows`/`clear_cols` (arrays of vertex ids).
fn parse_delta(
    value: &Value,
    insert: Option<Pairs>,
    remove: Option<Pairs>,
) -> Result<GraphDelta, String> {
    let id = |v: &Value, what: &str| -> Result<VertexId, String> {
        v.as_u64()
            .and_then(|n| VertexId::try_from(n).ok())
            .ok_or_else(|| format!("{what}: expected a non-negative vertex id"))
    };
    let pairs = |field: &str, pairs: Option<Pairs>| -> Result<Vec<Pair>, String> {
        pairs.unwrap_or(Ok(Vec::new())).map_err(|defect| match defect {
            PairsDefect::NotArray => {
                format!("patch_graph: '{field}' must be an array of [row, col]")
            }
            PairsDefect::NotPair(i) => {
                format!("{field}[{i}]: expected a [row, col] pair of non-negative integers")
            }
            PairsDefect::BadFirst(i) => {
                format!("{field}[{i}] row: expected a non-negative vertex id")
            }
            PairsDefect::BadSecond(i) => {
                format!("{field}[{i}] column: expected a non-negative vertex id")
            }
        })
    };
    let ids = |field: &str| -> Result<Vec<VertexId>, String> {
        let Some(seq) = value.get(field) else { return Ok(Vec::new()) };
        let seq = seq
            .as_seq()
            .ok_or_else(|| format!("patch_graph: '{field}' must be an array of vertex ids"))?;
        seq.iter().enumerate().map(|(i, v)| id(v, &format!("{field}[{i}]"))).collect()
    };
    let count = |field: &str| -> Result<usize, String> {
        match value.get(field) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("patch_graph: '{field}' must be a non-negative integer")),
        }
    };
    let mut delta = GraphDelta::new();
    delta.add_rows(count("add_rows")?).add_cols(count("add_cols")?);
    delta.extend_inserts(pairs("insert", insert)?);
    delta.extend_removes(pairs("remove", remove)?);
    for r in ids("clear_rows")? {
        delta.clear_row(r);
    }
    for c in ids("clear_cols")? {
        delta.clear_col(c);
    }
    Ok(delta)
}

/// A `[row, col]` pair as a request carries it.
type Pair = (VertexId, VertexId);

/// A pair-array field as [`read_fields`] found it: its pairs, or its first
/// defect.  The op that reads the field words the defect, so an op that
/// ignores the field never reports it.
type Pairs = Result<Vec<Pair>, PairsDefect>;

/// The fields of one request line, read in one pass.
struct Fields {
    /// Every field but the pair arrays, as a map in line order.
    value: Value,
    edges: Option<Pairs>,
    insert: Option<Pairs>,
    remove: Option<Pairs>,
}

/// Reads a request line.  The pair arrays (`edges`, `insert`, `remove`) go
/// straight into edge lists, with no [`Value`] per element; the other
/// fields become a map.  As with [`Value::get`], the first of duplicate
/// keys wins.  Any JSON document is accepted; one that is not an object has
/// no fields.
fn read_fields(line: &str) -> Result<Fields, serde_json::Error> {
    let mut entries = Vec::new();
    let (mut edges, mut insert, mut remove) = (None, None, None);
    let mut reader = Reader::new(line);
    if reader.lookahead() == Some(b'{') {
        reader.object(|r, key| {
            let slot = match key.as_str() {
                "edges" => &mut edges,
                "insert" => &mut insert,
                "remove" => &mut remove,
                _ => {
                    entries.push((key, r.value()?));
                    return Ok(());
                }
            };
            let pairs = r.pairs()?;
            slot.get_or_insert(pairs);
            Ok(())
        })?;
    } else {
        reader.value()?;
    }
    reader.finish()?;
    Ok(Fields { value: Value::Map(entries), edges, insert, remove })
}

/// Renders a request line, newline excluded: `fields` (at least the `op`)
/// as a JSON object, then the fields `tail` appends before its closing
/// brace.  The client writes pair arrays this way, straight into the line,
/// with [`push_graph_fields`] and [`push_delta_fields`] as the tail.
pub(crate) fn request_line(fields: Vec<(String, Value)>, tail: impl FnOnce(&mut String)) -> String {
    let mut line = render(Value::Map(fields));
    line.pop(); // the object's closing brace
    tail(&mut line);
    line.push('}');
    line
}

/// Appends a graph's fields the way requests inline it, each led by a
/// comma: `,"rows":M,"cols":N,"edges":[[r,c],…]`, edges in row-major order.
pub(crate) fn push_graph_fields(line: &mut String, graph: &BipartiteCsr) {
    write!(line, ",\"rows\":{},\"cols\":{},\"edges\":", graph.num_rows(), graph.num_cols())
        .expect("writing to a String cannot fail");
    push_pairs(line, graph.edges());
}

/// Appends a delta's fields the way `patch_graph` requests carry it, each
/// led by a comma.  Empty lists and zero counts are omitted: every field is
/// optional on the wire.
pub(crate) fn push_delta_fields(line: &mut String, delta: &GraphDelta) {
    for (key, pairs) in [("insert", delta.inserts()), ("remove", delta.removes())] {
        if !pairs.is_empty() {
            write!(line, ",\"{key}\":").expect("writing to a String cannot fail");
            push_pairs(line, pairs.iter().copied());
        }
    }
    for (key, count) in [("add_rows", delta.added_rows()), ("add_cols", delta.added_cols())] {
        if count > 0 {
            write!(line, ",\"{key}\":{count}").expect("writing to a String cannot fail");
        }
    }
    for (key, ids) in [("clear_rows", delta.cleared_rows()), ("clear_cols", delta.cleared_cols())] {
        if !ids.is_empty() {
            write!(line, ",\"{key}\":[").expect("writing to a String cannot fail");
            for (i, id) in ids.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                write!(line, "{comma}{id}").expect("writing to a String cannot fail");
            }
            line.push(']');
        }
    }
}

/// Appends `pairs` as a JSON array of `[row,col]` arrays.
fn push_pairs(line: &mut String, pairs: impl Iterator<Item = Pair>) {
    line.push('[');
    for (i, (r, c)) in pairs.enumerate() {
        let comma = if i > 0 { "," } else { "" };
        write!(line, "{comma}[{r},{c}]").expect("writing to a String cannot fail");
    }
    line.push(']');
}

/// Builds a `{"ok":true, …}` response line (no trailing newline).
pub fn ok_response(fields: Vec<(String, Value)>) -> String {
    let mut entries = vec![("ok".to_string(), Value::Bool(true))];
    entries.extend(fields);
    render(Value::Map(entries))
}

/// Builds a `{"ok":false,"error":…}` response line (no trailing newline).
pub fn error_response(message: &str) -> String {
    error_response_with(message, Vec::new())
}

/// Builds a `{"ok":false,"error":…, …}` response line carrying extra
/// fields (e.g. the `job_id` of a failed solve, so a client can correlate
/// the error with what it cancelled).
pub fn error_response_with(message: &str, fields: Vec<(String, Value)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ];
    entries.extend(fields);
    render(Value::Map(entries))
}

fn render(value: Value) -> String {
    serde_json::to_string(&value).expect("JSON emission cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;

    #[test]
    fn fingerprints_round_trip_through_hex() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(fp)).unwrap(), fp);
        }
        assert_eq!(fingerprint_from_hex("ff").unwrap(), 255);
        assert!(fingerprint_from_hex("xyz").is_err());
    }

    #[test]
    fn parses_put_graph_and_round_trips_inline_graphs() {
        let g = gen::uniform_random(6, 7, 20, 3).unwrap();
        let fields = vec![("op".to_string(), Value::Str("put_graph".to_string()))];
        let line = request_line(fields, |line| push_graph_fields(line, &g));
        match parse_request(&line).unwrap() {
            Request::PutGraph(parsed) => assert_eq!(parsed, g),
            other => panic!("expected PutGraph, got {other:?}"),
        }
    }

    #[test]
    fn pair_arrays_render_like_the_value_tree() {
        // The client writes graph and delta fields straight into the line;
        // the bytes must be those of the same fields rendered as a tree.
        let mut draw = Draw(11);
        for case in 0..200 {
            let (rows, cols) = (draw.below(40), draw.below(40));
            let g = match rows * cols {
                0 => BipartiteCsr::empty(rows, cols),
                _ => gen::uniform_random(rows, cols, draw.below(3 * (rows + cols)), case).unwrap(),
            };
            let mut delta = GraphDelta::new();
            // Ids of every width, up to `VertexId::MAX`.
            let id = |draw: &mut Draw| {
                let bits = draw.below(33);
                draw.below(1 << bits) as VertexId
            };
            for _ in 0..draw.below(4) {
                delta.insert_edge(id(&mut draw), id(&mut draw));
            }
            for _ in 0..draw.below(4) {
                delta.remove_edge(id(&mut draw), id(&mut draw));
            }
            delta.add_rows(draw.below(3)).add_cols(draw.below(3));
            for _ in 0..draw.below(3) {
                delta.clear_row(id(&mut draw));
            }
            for _ in 0..draw.below(3) {
                delta.clear_col(id(&mut draw));
            }
            let op = vec![("op".to_string(), Value::Str("x".to_string()))];
            let tree = |tail: Vec<(String, Value)>| {
                render(Value::Map(op.iter().cloned().chain(tail).collect()))
            };
            assert_eq!(
                request_line(op.clone(), |line| push_graph_fields(line, &g)),
                tree(reference::graph_to_fields(&g)),
            );
            assert_eq!(
                request_line(op.clone(), |line| push_delta_fields(line, &delta)),
                tree(reference::delta_to_fields(&delta)),
            );
        }
        let op = vec![("op".to_string(), Value::Str("x".to_string()))];
        let line = request_line(op, |line| push_delta_fields(line, &GraphDelta::new()));
        assert_eq!(line, r#"{"op":"x"}"#);
    }

    #[test]
    fn parses_solve_with_defaults_and_options() {
        let r = parse_request(r#"{"op":"solve","algorithm":"HK","fingerprint":"0xff"}"#).unwrap();
        match r {
            Request::Solve {
                algorithm,
                init,
                graph,
                include_matching,
                priority,
                deadline_ms,
                tag,
            } => {
                assert_eq!(algorithm, Algorithm::HopcroftKarp);
                assert_eq!(init, InitHeuristic::Cheap);
                assert_eq!(graph, RequestGraph::Fingerprint(255));
                assert!(!include_matching);
                assert_eq!(priority, 0);
                assert_eq!(deadline_ms, None);
                assert_eq!(tag, None);
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request(
            r#"{"op":"solve","algorithm":"PFP","init":"karp-sipser","rows":2,"cols":2,
               "edges":[[0,0],[1,1]],"include_matching":true}"#,
        )
        .unwrap();
        match r {
            Request::Solve { init, graph, include_matching, .. } => {
                assert_eq!(init, InitHeuristic::KarpSipser);
                assert!(matches!(graph, RequestGraph::Inline(g) if g.num_edges() == 2));
                assert!(include_matching);
            }
            other => panic!("{other:?}"),
        }
        // Wire labels carry the whole algorithm grammar, including the
        // persistent execution-mode suffix.
        let r = parse_request(
            r#"{"op":"solve","algorithm":"G-PR-Shr@adaptive:0.7+blocked@resident","fingerprint":"0x1"}"#,
        )
        .unwrap();
        match r {
            Request::Solve { algorithm, .. } => {
                assert_eq!(
                    algorithm,
                    Algorithm::gpr_default()
                        .with_worklist(gpm_core::WorklistMode::BlockedQueue)
                        .with_exec(gpm_core::ExecMode::Persistent)
                );
                assert_eq!(algorithm.to_string(), "G-PR-Shr@adaptive:0.7+blocked@resident");
            }
            other => panic!("{other:?}"),
        }
        // CPU algorithms reject the suffix at the wire boundary.
        assert!(parse_request(r#"{"op":"solve","algorithm":"HK@resident","fingerprint":"0x1"}"#)
            .unwrap_err()
            .contains("execution mode"));
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(parse_request(r#"{"op":"shards"}"#).unwrap(), Request::Shards);
        assert_eq!(parse_request(r#"{"op":"rebalance"}"#).unwrap(), Request::Rebalance);
        assert_eq!(
            parse_request(r#"{"op":"drain","shard":2}"#).unwrap(),
            Request::Drain { shard: 2 }
        );
        assert!(parse_request(r#"{"op":"drain"}"#).unwrap_err().contains("'shard'"));
    }

    #[test]
    fn parses_patch_graph_and_round_trips_deltas() {
        let mut delta = GraphDelta::new();
        delta.insert_edge(3, 4).remove_edge(0, 1).add_rows(2).clear_col(5);
        let fields = vec![
            ("op".to_string(), Value::Str("patch_graph".to_string())),
            ("parent".to_string(), Value::Str(fingerprint_to_hex(0xabcd))),
        ];
        let line = request_line(fields, |line| push_delta_fields(line, &delta));
        match parse_request(&line).unwrap() {
            Request::PatchGraph { parent, delta: parsed } => {
                assert_eq!(parent, 0xabcd);
                assert_eq!(parsed, delta);
            }
            other => panic!("expected PatchGraph, got {other:?}"),
        }
        // Every delta field is optional: a bare patch is the empty delta.
        match parse_request(r#"{"op":"patch_graph","parent":"0x1"}"#).unwrap() {
            Request::PatchGraph { parent, delta } => {
                assert_eq!(parent, 1);
                assert!(delta.is_empty());
            }
            other => panic!("{other:?}"),
        }
        for (line, want) in [
            (r#"{"op":"patch_graph"}"#, "'parent'"),
            (r#"{"op":"patch_graph","parent":"xyz"}"#, "bad fingerprint"),
            (r#"{"op":"patch_graph","parent":"0x1","insert":[[0]]}"#, "insert[0]"),
            (r#"{"op":"patch_graph","parent":"0x1","clear_rows":[-1]}"#, "clear_rows[0]"),
            (r#"{"op":"patch_graph","parent":"0x1","add_rows":-2}"#, "add_rows"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn parses_scheduling_fields_and_cancel() {
        let r = parse_request(
            r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1",
               "priority":9,"deadline_ms":2500,"tag":"batch-3"}"#,
        )
        .unwrap();
        match r {
            Request::Solve { priority, deadline_ms, tag, .. } => {
                assert_eq!(priority, 9);
                assert_eq!(deadline_ms, Some(2500));
                assert_eq!(tag.as_deref(), Some("batch-3"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"cancel","job_id":7}"#).unwrap(),
            Request::Cancel { job_id: Some(7), tag: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","tag":"batch-3"}"#).unwrap(),
            Request::Cancel { job_id: None, tag: Some("batch-3".to_string()) }
        );
        for (line, want) in [
            (r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1","priority":256}"#, "0..=255"),
            (
                r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1","deadline_ms":-3}"#,
                "deadline_ms",
            ),
            (r#"{"op":"cancel"}"#, "'job_id' and/or 'tag'"),
            (r#"{"op":"cancel","job_id":"seven"}"#, "job_id"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn error_responses_can_carry_extra_fields() {
        let e = error_response_with(
            "job cancelled after 3 rounds",
            vec![("job_id".to_string(), Value::U64(12))],
        );
        assert!(e.starts_with(r#"{"ok":false"#), "{e}");
        assert!(e.contains(r#""job_id":12"#), "{e}");
    }

    #[test]
    fn rejects_malformed_requests_with_explanations() {
        let cases = [
            ("not json", "bad JSON"),
            (r#"{"no_op":1}"#, "missing string field 'op'"),
            (r#"{"op":"fly"}"#, "unknown op 'fly'"),
            (r#"{"op":"solve","algorithm":"G-XX","fingerprint":"0x1"}"#, "cannot parse"),
            (r#"{"op":"solve","algorithm":"HK","init":"magic","fingerprint":"0x1"}"#, "magic"),
            (r#"{"op":"solve","algorithm":"HK"}"#, "missing non-negative integer field 'rows'"),
            (r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0]]}"#, "edges[0]"),
            (r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0,9]]}"#, "bad graph"),
        ];
        for (line, want) in cases {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    /// Holds `parse_request` to the reference parser on one line: both
    /// accept it or both reject it; accepted lines give equal requests, and
    /// rejected lines that are valid JSON give the same error.
    fn assert_parity(line: &str) -> Result<Request, String> {
        let want = reference::parse_request(line);
        let got = parse_request(line);
        match (&want, &got) {
            (Ok(want), Ok(got)) => assert_eq!(got, want, "{line}"),
            (Err(want), Err(got)) if serde_json::from_str(line).is_ok() => {
                assert_eq!(got, want, "{line}")
            }
            (Err(_), Err(_)) => {}
            _ => panic!("{line}\n reference: {want:?}\n new: {got:?}"),
        }
        got
    }

    /// Tokens that stand in for a pair endpoint, a whole pair, or a whole
    /// pair array.  `-0` and `01` are integers to the reference.
    const MUTANTS: [&str; 11] =
        ["-0", "01", "1.0", "1e0", "-1", "4294967296", "\"1\"", "null", "[1]", "[1,2,3]", "{}"];

    /// Whitespace drawn between tokens.
    const SPACES: [&str; 5] = ["", "", " ", "\t", " \r\n "];

    /// SplitMix64, drawing the parts of a generated request line.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick(&mut self, items: &[&str]) -> String {
            items[self.below(items.len())].to_string()
        }

        /// A pair-array value as tokens: up to five pairs with endpoints
        /// up to `bound`, now and then a mutant in place of an endpoint, a
        /// pair, or the whole array.
        fn pairs(&mut self, bound: usize) -> Vec<String> {
            if self.chance(3) {
                return vec![self.pick(&MUTANTS)];
            }
            let mut tokens = vec!["[".to_string()];
            for i in 0..self.below(6) {
                if i > 0 {
                    tokens.push(",".to_string());
                }
                if self.chance(4) {
                    tokens.push(self.pick(&MUTANTS));
                    continue;
                }
                let mut end = || match self.chance(4) {
                    true => self.pick(&MUTANTS),
                    false => self.below(bound + 1).to_string(),
                };
                let (row, col) = (end(), end());
                tokens.extend(["[".to_string(), row, ",".to_string(), col, "]".to_string()]);
            }
            tokens.push("]".to_string());
            tokens
        }

        /// A `put_graph`, inline or by-fingerprint `solve`, `patch_graph`
        /// or `stats` line, with fields in any order, duplicate and missing
        /// keys, whitespace between tokens, and now and then cut short.
        fn request_line(&mut self) -> String {
            let (rows, cols) = (1 + self.below(5), 1 + self.below(5));
            let bound = rows.max(cols);
            let text = |s: &str| vec![format!("\"{s}\"")];
            let mut fields: Vec<(&str, Vec<String>)> = Vec::new();
            match self.below(5) {
                0 => {
                    fields.push(("op", text("put_graph")));
                    fields.push(("rows", vec![rows.to_string()]));
                    fields.push(("cols", vec![cols.to_string()]));
                    fields.push(("edges", self.pairs(bound)));
                }
                op @ (1 | 2) => {
                    let label = self.pick(&["HK", "G-PR-Shr@adaptive:0.7+blocked", "G-XX"]);
                    fields.push(("op", text("solve")));
                    fields.push(("algorithm", text(&label)));
                    if op == 1 {
                        fields.push(("rows", vec![rows.to_string()]));
                        fields.push(("cols", vec![cols.to_string()]));
                        fields.push(("edges", self.pairs(bound)));
                    } else {
                        fields.push(("fingerprint", text("0xff")));
                        if self.chance(50) {
                            fields.push(("edges", self.pairs(bound)));
                        }
                    }
                    if self.chance(30) {
                        fields.push(("init", text(&self.pick(&["cheap", "karp-sipser", "magic"]))));
                    }
                    if self.chance(30) {
                        fields.push(("include_matching", vec!["true".to_string()]));
                    }
                    if self.chance(30) {
                        fields.push(("priority", vec![self.pick(&["3", "256", "-0"])]));
                    }
                }
                3 => {
                    fields.push(("op", text("patch_graph")));
                    fields.push(("parent", text(&self.pick(&["0xabcd", "xyz"]))));
                    for key in ["insert", "remove"] {
                        if self.chance(60) {
                            fields.push((key, self.pairs(bound)));
                        }
                    }
                    for key in ["add_rows", "add_cols"] {
                        if self.chance(30) {
                            fields.push((key, vec![self.pick(&["1", "2", "-2"])]));
                        }
                    }
                    for key in ["clear_rows", "clear_cols"] {
                        if self.chance(30) {
                            fields.push((key, vec![self.pick(&["[0]", "[1,0]", "[-1]"])]));
                        }
                    }
                }
                _ => {
                    fields.push(("op", text("stats")));
                    for key in ["edges", "insert", "remove"] {
                        if self.chance(40) {
                            fields.push((key, self.pairs(bound)));
                        }
                    }
                }
            }
            if self.chance(25) {
                let (key, _) = fields[self.below(fields.len())];
                let value = match key {
                    "edges" | "insert" | "remove" => self.pairs(bound),
                    _ => vec![self.pick(&["0", "2", "\"HK\"", "null", "[[0,0]]"])],
                };
                fields.push((key, value));
            }
            if self.chance(10) {
                fields.remove(self.below(fields.len()));
            }
            for i in (1..fields.len()).rev() {
                fields.swap(i, self.below(i + 1));
            }
            let mut tokens = vec!["{".to_string()];
            for (i, (key, value)) in fields.into_iter().enumerate() {
                if i > 0 {
                    tokens.push(",".to_string());
                }
                tokens.extend([format!("\"{key}\""), ":".to_string()]);
                tokens.extend(value);
            }
            tokens.push("}".to_string());
            let mut line = String::new();
            for token in tokens {
                line.push_str(&self.pick(&SPACES));
                line.push_str(&token);
            }
            line.push_str(&self.pick(&SPACES));
            if self.chance(5) {
                line.truncate(self.below(line.len() + 1));
            }
            line
        }

        /// A `put_graph`, inline `solve` or `patch_graph` line as the
        /// bundled client writes it: compact, edges sorted.
        fn canonical_line(&mut self) -> String {
            let (rows, cols) = (1 + self.below(12), 1 + self.below(12));
            let graph = gen::uniform_random(rows, cols, self.below(30), self.0).unwrap();
            let text = |s: &str| Value::Str(s.to_string());
            let id = |draw: &mut Self| draw.below(rows.max(cols) + 2) as VertexId;
            match self.below(3) {
                0 => super::request_line(vec![("op".to_string(), text("put_graph"))], |line| {
                    push_graph_fields(line, &graph)
                }),
                1 => {
                    let label = self.pick(&["HK", "G-PR-Shr@adaptive:0.7+blocked"]);
                    let fields = vec![
                        ("op".to_string(), text("solve")),
                        ("algorithm".to_string(), text(&label)),
                    ];
                    super::request_line(fields, |line| push_graph_fields(line, &graph))
                }
                _ => {
                    let mut delta = GraphDelta::new();
                    for _ in 0..self.below(6) {
                        delta.insert_edge(id(self), id(self));
                    }
                    for _ in 0..self.below(6) {
                        delta.remove_edge(id(self), id(self));
                    }
                    delta.add_rows(self.below(3)).add_cols(self.below(3));
                    if self.chance(30) {
                        delta.clear_row(id(self)).clear_col(id(self));
                    }
                    let fields = vec![
                        ("op".to_string(), text("patch_graph")),
                        ("parent".to_string(), text("0xabcd")),
                    ];
                    super::request_line(fields, |line| push_delta_fields(line, &delta))
                }
            }
        }

        /// `line` with one to four byte mutations (flip a bit, insert a
        /// byte, delete a byte, truncate; one alone half the time), then
        /// made valid UTF-8 again, as the server only parses lines that are.
        fn mutate(&mut self, line: String) -> String {
            const INSERTS: &[u8] = b"[]{},:\"-+.0123456789eE \t\r\nx\\\xc3";
            let mut bytes = line.into_bytes();
            for _ in 0..1 + self.below(2) * self.below(4) {
                let at = self.below(bytes.len() + 1);
                match self.below(20) {
                    0..=6 if at < bytes.len() => bytes[at] ^= 1 << self.below(8),
                    7..=12 => bytes.insert(at, INSERTS[self.below(INSERTS.len())]),
                    13..=18 if at < bytes.len() => drop(bytes.remove(at)),
                    19 => bytes.truncate(at),
                    _ => {}
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }

        /// Up to 32 tokens drawn at random, some with a space before them,
        /// half the time after the head of a `put_graph` line whose first
        /// field is a pair array, so the pair reader sees them.
        fn token_soup(&mut self) -> String {
            const TOKENS: &str = r#"{ } [ ] [ ] , , : "op" "put_graph" "patch_graph" "rows" "cols"
                "edges" "insert" "remove" "parent" "0x1" 0 1 7 -0 01 1.5 1e2 -1 4294967296 null
                true [0,1] [[0,0],[1,1]]"#;
            let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
            let mut line = String::new();
            if self.chance(50) {
                let key = self.pick(&["edges", "insert", "remove"]);
                line.push_str(&format!(r#"{{"op":"put_graph","rows":3,"cols":3,"{key}":"#));
            }
            for _ in 0..self.below(33) {
                if self.chance(10) {
                    line.push(' ');
                }
                line.push_str(&self.pick(&tokens));
            }
            line
        }

        /// A byte-mutated canonical line or a token soup.
        fn fuzzed_line(&mut self) -> String {
            match self.chance(70) {
                true => {
                    let line = self.canonical_line();
                    self.mutate(line)
                }
                false => self.token_soup(),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn pair_arrays_parse_like_the_value_walk(seed in proptest::any::<u64>()) {
            let _ = assert_parity(&Draw(seed).request_line());
        }

        #[test]
        fn fuzzed_lines_parse_like_the_reference(seed in proptest::any::<u64>()) {
            fuzz_case(seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(100_000))]

        /// The long run of `fuzzed_lines_parse_like_the_reference`, on other
        /// seeds (`cargo test --release -p gpm-service --lib -- --ignored`).
        #[test]
        #[ignore = "long fuzz run"]
        fn fuzzed_lines_parse_like_the_reference_long(seed in proptest::any::<u64>()) {
            fuzz_case(seed);
        }
    }

    /// One fuzz case: the line parses without a panic, in parity with the
    /// reference, and even a line that is not JSON gets the reference's
    /// error, byte offset included.
    fn fuzz_case(seed: u64) {
        let line = Draw(seed).fuzzed_line();
        assert_eq!(assert_parity(&line), reference::parse_request(&line), "{line}");
    }

    #[test]
    fn generated_lines_cover_acceptance_and_every_pair_error() {
        // The generator must reach both verdicts and every pair defect of
        // every pair field, or the parity property checks little.
        let mut draw = Draw(7);
        let (mut accepted, mut errors) = (0, std::collections::BTreeSet::new());
        for _ in 0..4096 {
            match assert_parity(&draw.request_line()) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    let field = ["edges", "insert", "remove"].into_iter().find(|f| e.contains(f));
                    let kinds = ["pair of", " row", " column", "must be an array", "missing array"];
                    if let (Some(field), Some(kind)) =
                        (field, kinds.iter().find(|k| e.contains(*k)))
                    {
                        errors.insert((field, *kind));
                    }
                }
            }
        }
        assert!(accepted > 400, "{accepted} of 4096 accepted");
        assert_eq!(errors.len(), 12, "{errors:?}");
    }

    #[test]
    fn pair_array_edge_cases_match_the_reference() {
        // A stray pair array is read and dropped by ops that do not use it.
        assert_eq!(assert_parity(r#"{"op":"stats","edges":[[0]]}"#).unwrap(), Request::Stats);
        assert_eq!(
            assert_parity(r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1","edges":7}"#)
                .unwrap(),
            Request::Solve {
                algorithm: Algorithm::HopcroftKarp,
                init: InitHeuristic::Cheap,
                graph: RequestGraph::Fingerprint(1),
                include_matching: false,
                priority: 0,
                deadline_ms: None,
                tag: None,
            }
        );
        // `-0` and `01` are integers; the first of duplicate keys wins.
        let Ok(Request::PutGraph(g)) = assert_parity(
            r#"{"edges":[[-0,01]],"op":"put_graph","rows":2,"cols":2,"edges":[[9,9]]}"#,
        ) else {
            panic!("expected PutGraph")
        };
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1)]);
        // Only `-0` and `01` pass as endpoints; no mutant passes as a pair
        // or as the array.
        for mutant in MUTANTS {
            let endpoint_ok = matches!(mutant, "-0" | "01");
            for (edges, ok) in [
                (format!("[[{mutant},0]]"), endpoint_ok),
                (format!("[[0,{mutant}]]"), endpoint_ok),
                (format!("[[0,0],{mutant}]"), false),
                (mutant.to_string(), false),
            ] {
                for line in [
                    format!(r#"{{"op":"put_graph","rows":2,"cols":2,"edges":{edges}}}"#),
                    format!(r#"{{"op":"patch_graph","parent":"0x1","remove":{edges}}}"#),
                ] {
                    assert_eq!(assert_parity(&line).is_ok(), ok, "{line}");
                }
            }
        }
        // A later defect never hides an earlier one, and a JSON error
        // anywhere beats a defect in a pair array.
        let err = assert_parity(r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0,-1],[0]]}"#);
        assert_eq!(err.unwrap_err(), "edges[0]: bad column endpoint");
        let err = parse_request(r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0]],"x":}"#);
        assert!(err.unwrap_err().starts_with("bad JSON"));
        // Documents that are not objects have no `op`.
        for line in ["[[0,1]]", "7", "null"] {
            assert_eq!(assert_parity(line).unwrap_err(), "missing string field 'op'");
        }
    }

    #[test]
    fn responses_have_the_ok_envelope() {
        let ok = ok_response(vec![("op".to_string(), Value::Str("stats".to_string()))]);
        assert!(ok.starts_with(r#"{"ok":true"#), "{ok}");
        let err = error_response("boom \"quoted\"");
        assert!(err.starts_with(r#"{"ok":false"#), "{err}");
        assert!(err.contains(r#"\"quoted\""#), "{err}");
        // Response lines must be single-line (JSON-lines framing).
        assert!(!ok.contains('\n'));
        assert!(!err.contains('\n'));
    }
}

/// The tree-walking parser: the whole line into a [`Value`] tree with
/// `serde_json::from_str`, then a walk over it.  It is the reference the
/// parity tests hold [`parse_request`] to.
#[cfg(test)]
mod reference {
    use super::{fingerprint_from_hex, Request, RequestGraph};
    use gpm_core::{Algorithm, InitHeuristic};
    use gpm_graph::{BipartiteCsr, GraphDelta, VertexId};
    use serde::Value;

    /// Parses one request line.  Errors are human-readable strings ready to be
    /// wrapped in an error response.
    pub(super) fn parse_request(line: &str) -> Result<Request, String> {
        let value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing string field 'op'".to_string())?;
        match op {
            "put_graph" => Ok(Request::PutGraph(parse_graph(&value)?)),
            "solve" => {
                let algorithm_label = value
                    .get("algorithm")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "solve: missing string field 'algorithm'".to_string())?;
                let algorithm: Algorithm =
                    algorithm_label.parse().map_err(|e| format!("solve: {e}"))?;
                let init = match value.get("init").and_then(Value::as_str) {
                    Some(label) => label.parse().map_err(|e| format!("solve: {e}"))?,
                    None => InitHeuristic::default(),
                };
                let graph = match value.get("fingerprint").and_then(Value::as_str) {
                    Some(hex) => RequestGraph::Fingerprint(fingerprint_from_hex(hex)?),
                    None => RequestGraph::Inline(parse_graph(&value)?),
                };
                let include_matching =
                    value.get("include_matching").and_then(Value::as_bool).unwrap_or(false);
                let priority = match value.get("priority") {
                    None => 0,
                    Some(v) => v
                        .as_u64()
                        .and_then(|n| u8::try_from(n).ok())
                        .ok_or_else(|| "solve: 'priority' must be an integer in 0..=255".to_string())?,
                };
                let deadline_ms = match value.get("deadline_ms") {
                    None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "solve: 'deadline_ms' must be a non-negative integer".to_string()
                    })?),
                };
                let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
                Ok(Request::Solve {
                    algorithm,
                    init,
                    graph,
                    include_matching,
                    priority,
                    deadline_ms,
                    tag,
                })
            }
            "cancel" => {
                let job_id = match value.get("job_id") {
                    None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "cancel: 'job_id' must be a non-negative integer".to_string()
                    })?),
                };
                let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
                if job_id.is_none() && tag.is_none() {
                    return Err("cancel: provide 'job_id' and/or 'tag'".to_string());
                }
                Ok(Request::Cancel { job_id, tag })
            }
            "patch_graph" => {
                let parent = value
                    .get("parent")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "patch_graph: missing string field 'parent'".to_string())?;
                Ok(Request::PatchGraph {
                    parent: fingerprint_from_hex(parent)?,
                    delta: parse_delta(&value)?,
                })
            }
            "stats" => Ok(Request::Stats),
            "shards" => Ok(Request::Shards),
            "drain" => {
                let shard = value
                    .get("shard")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| "drain: missing non-negative integer field 'shard'".to_string())?;
                Ok(Request::Drain { shard: shard as usize })
            }
            "rebalance" => Ok(Request::Rebalance),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op '{other}': expected put_graph, patch_graph, solve, cancel, stats, shards, \
                 drain, rebalance, or shutdown"
            )),
        }
    }

    /// A graph's fields as a tree, the way requests inline it.
    pub(super) fn graph_to_fields(graph: &BipartiteCsr) -> Vec<(String, Value)> {
        vec![
            ("rows".to_string(), Value::U64(graph.num_rows() as u64)),
            ("cols".to_string(), Value::U64(graph.num_cols() as u64)),
            ("edges".to_string(), pair_seq(graph.edges())),
        ]
    }

    /// A delta's fields as a tree, the way `patch_graph` requests carry it:
    /// empty lists and zero counts omitted.
    pub(super) fn delta_to_fields(delta: &GraphDelta) -> Vec<(String, Value)> {
        let id_seq =
            |ids: &[VertexId]| Value::Seq(ids.iter().map(|&v| Value::U64(u64::from(v))).collect());
        let mut fields = Vec::new();
        if !delta.inserts().is_empty() {
            fields.push(("insert".to_string(), pair_seq(delta.inserts().iter().copied())));
        }
        if !delta.removes().is_empty() {
            fields.push(("remove".to_string(), pair_seq(delta.removes().iter().copied())));
        }
        if delta.added_rows() > 0 {
            fields.push(("add_rows".to_string(), Value::U64(delta.added_rows() as u64)));
        }
        if delta.added_cols() > 0 {
            fields.push(("add_cols".to_string(), Value::U64(delta.added_cols() as u64)));
        }
        if !delta.cleared_rows().is_empty() {
            fields.push(("clear_rows".to_string(), id_seq(delta.cleared_rows())));
        }
        if !delta.cleared_cols().is_empty() {
            fields.push(("clear_cols".to_string(), id_seq(delta.cleared_cols())));
        }
        fields
    }

    fn pair_seq(pairs: impl Iterator<Item = (VertexId, VertexId)>) -> Value {
        let pair = |(r, c): (VertexId, VertexId)| {
            Value::Seq(vec![Value::U64(u64::from(r)), Value::U64(u64::from(c))])
        };
        Value::Seq(pairs.map(pair).collect())
    }

    /// Extracts `rows`/`cols`/`edges` fields into a validated graph.
    fn parse_graph(value: &Value) -> Result<BipartiteCsr, String> {
        let dim = |field: &str| -> Result<usize, String> {
            value
                .get(field)
                .and_then(Value::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("missing non-negative integer field '{field}'"))
        };
        let rows = dim("rows")?;
        let cols = dim("cols")?;
        let edges_value = value
            .get("edges")
            .and_then(Value::as_seq)
            .ok_or_else(|| "missing array field 'edges'".to_string())?;
        let mut edges = Vec::with_capacity(edges_value.len());
        for (i, pair) in edges_value.iter().enumerate() {
            let pair = pair.as_seq().filter(|p| p.len() == 2).ok_or_else(|| {
                format!("edges[{i}]: expected a [row, col] pair of non-negative integers")
            })?;
            let endpoint = |v: &Value, which: &str| -> Result<VertexId, String> {
                v.as_u64()
                    .and_then(|n| VertexId::try_from(n).ok())
                    .ok_or_else(|| format!("edges[{i}]: bad {which} endpoint"))
            };
            edges.push((endpoint(&pair[0], "row")?, endpoint(&pair[1], "column")?));
        }
        BipartiteCsr::from_edges(rows, cols, &edges).map_err(|e| format!("bad graph: {e}"))
    }

    /// Extracts the (all-optional) delta fields of a `patch_graph` request:
    /// `insert`/`remove` (arrays of `[row, col]` pairs), `add_rows`/`add_cols`
    /// (non-negative integers), `clear_rows`/`clear_cols` (arrays of vertex
    /// ids).
    fn parse_delta(value: &Value) -> Result<GraphDelta, String> {
        let id = |v: &Value, what: &str| -> Result<VertexId, String> {
            v.as_u64()
                .and_then(|n| VertexId::try_from(n).ok())
                .ok_or_else(|| format!("{what}: expected a non-negative vertex id"))
        };
        let pairs = |field: &str| -> Result<Vec<(VertexId, VertexId)>, String> {
            let Some(seq) = value.get(field) else { return Ok(Vec::new()) };
            let seq = seq
                .as_seq()
                .ok_or_else(|| format!("patch_graph: '{field}' must be an array of [row, col]"))?;
            seq.iter()
                .enumerate()
                .map(|(i, pair)| {
                    let pair = pair.as_seq().filter(|p| p.len() == 2).ok_or_else(|| {
                        format!("{field}[{i}]: expected a [row, col] pair of non-negative integers")
                    })?;
                    Ok((
                        id(&pair[0], &format!("{field}[{i}] row"))?,
                        id(&pair[1], &format!("{field}[{i}] column"))?,
                    ))
                })
                .collect()
        };
        let ids = |field: &str| -> Result<Vec<VertexId>, String> {
            let Some(seq) = value.get(field) else { return Ok(Vec::new()) };
            let seq = seq
                .as_seq()
                .ok_or_else(|| format!("patch_graph: '{field}' must be an array of vertex ids"))?;
            seq.iter().enumerate().map(|(i, v)| id(v, &format!("{field}[{i}]"))).collect()
        };
        let count = |field: &str| -> Result<usize, String> {
            match value.get(field) {
                None => Ok(0),
                Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
                    format!("patch_graph: '{field}' must be a non-negative integer")
                }),
            }
        };
        let mut delta = GraphDelta::new();
        delta.add_rows(count("add_rows")?).add_cols(count("add_cols")?);
        delta.extend_inserts(pairs("insert")?);
        delta.extend_removes(pairs("remove")?);
        for r in ids("clear_rows")? {
            delta.clear_row(r);
        }
        for c in ids("clear_cols")? {
            delta.clear_col(c);
        }
        Ok(delta)
    }
}
