//! A minimal blocking client for the JSON-lines protocol, used by the
//! in-repo example, the TCP integration tests, and the CI smoke run.

use crate::proto::{
    fingerprint_from_hex, fingerprint_to_hex, push_delta_fields, push_graph_fields, request_line,
};
use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::{BipartiteCsr, GraphDelta};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected client.  One request is in flight at a time (the protocol is
/// strictly request/response per connection); open more clients for
/// concurrency.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running `gpm-service` server.  Nagle's algorithm is
    /// off: each request is one complete write, so there is nothing to
    /// coalesce, and holding it back would wait on the server's delayed ACK.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Sends one request object and returns the parsed response map.
    /// Protocol-level failures (`"ok":false`) become `io::Error`s carrying
    /// the server's message.
    pub fn request(&mut self, fields: Vec<(String, Value)>) -> std::io::Result<Value> {
        self.request_with(fields, |_| {})
    }

    /// [`Client::request`] with further fields that `tail` writes straight
    /// into the line, after `fields`: a graph's or a delta's pair arrays,
    /// which would cost a [`Value`] per pair and per endpoint otherwise.
    fn request_with(
        &mut self,
        fields: Vec<(String, Value)>,
        tail: impl FnOnce(&mut String),
    ) -> std::io::Result<Value> {
        let mut line = request_line(fields, tail);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let value = serde_json::from_str(response.trim_end()).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response: {e}"))
        })?;
        if value.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(value)
        } else {
            let message = value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("malformed error response")
                .to_string();
            Err(std::io::Error::other(message))
        }
    }

    /// Uploads `graph` into the server's cache, returning its fingerprint.
    pub fn put_graph(&mut self, graph: &BipartiteCsr) -> std::io::Result<u64> {
        let fields = vec![("op".to_string(), Value::Str("put_graph".to_string()))];
        let response = self.request_with(fields, |line| push_graph_fields(line, graph))?;
        let hex = response.get("fingerprint").and_then(Value::as_str).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no fingerprint")
        })?;
        fingerprint_from_hex(hex)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Applies `delta` to the cached graph `parent` on the server, without
    /// re-uploading it; returns the patched child's fingerprint.  Solves may
    /// then name either fingerprint, and a solve of the child warm-starts
    /// from the parent's last matching when the server has one on file.
    pub fn patch_graph(&mut self, parent: u64, delta: &GraphDelta) -> std::io::Result<u64> {
        let fields = vec![
            ("op".to_string(), Value::Str("patch_graph".to_string())),
            ("parent".to_string(), Value::Str(fingerprint_to_hex(parent))),
        ];
        let response = self.request_with(fields, |line| push_delta_fields(line, delta))?;
        let hex = response.get("fingerprint").and_then(Value::as_str).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no fingerprint")
        })?;
        fingerprint_from_hex(hex)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Solves a previously uploaded graph by fingerprint.  Returns the full
    /// response map (`report`, `worker`, `cache_hit`, `job_id`, …).
    pub fn solve_cached(
        &mut self,
        fingerprint: u64,
        algorithm: Algorithm,
        init: InitHeuristic,
    ) -> std::io::Result<Value> {
        self.solve_cached_with(fingerprint, algorithm, init, &SolveOptions::default())
    }

    /// [`Client::solve_cached`] with explicit scheduling options.
    pub fn solve_cached_with(
        &mut self,
        fingerprint: u64,
        algorithm: Algorithm,
        init: InitHeuristic,
        options: &SolveOptions,
    ) -> std::io::Result<Value> {
        let mut fields = vec![
            ("op".to_string(), Value::Str("solve".to_string())),
            ("algorithm".to_string(), Value::Str(algorithm.to_string())),
            ("init".to_string(), Value::Str(init.to_string())),
            ("fingerprint".to_string(), Value::Str(fingerprint_to_hex(fingerprint))),
        ];
        options.extend_fields(&mut fields);
        self.request(fields)
    }

    /// Solves a graph shipped inline with the request.
    pub fn solve_inline(
        &mut self,
        graph: &BipartiteCsr,
        algorithm: Algorithm,
        init: InitHeuristic,
    ) -> std::io::Result<Value> {
        self.solve_inline_with(graph, algorithm, init, &SolveOptions::default())
    }

    /// [`Client::solve_inline`] with explicit scheduling options.
    pub fn solve_inline_with(
        &mut self,
        graph: &BipartiteCsr,
        algorithm: Algorithm,
        init: InitHeuristic,
        options: &SolveOptions,
    ) -> std::io::Result<Value> {
        let mut fields = vec![
            ("op".to_string(), Value::Str("solve".to_string())),
            ("algorithm".to_string(), Value::Str(algorithm.to_string())),
            ("init".to_string(), Value::Str(init.to_string())),
        ];
        options.extend_fields(&mut fields);
        self.request_with(fields, |line| push_graph_fields(line, graph))
    }

    /// Cancels the in-flight solve with this server-assigned job id.
    /// Returns how many jobs were signalled (0 when already finished).
    pub fn cancel_job(&mut self, job_id: u64) -> std::io::Result<u64> {
        let response = self.request(vec![
            ("op".to_string(), Value::Str("cancel".to_string())),
            ("job_id".to_string(), Value::U64(job_id)),
        ])?;
        cancelled_count(&response)
    }

    /// Cancels every in-flight solve carrying this tag (submitted from any
    /// connection).  Returns how many jobs were signalled.
    pub fn cancel_tag(&mut self, tag: &str) -> std::io::Result<u64> {
        let response = self.request(vec![
            ("op".to_string(), Value::Str("cancel".to_string())),
            ("tag".to_string(), Value::Str(tag.to_string())),
        ])?;
        cancelled_count(&response)
    }

    /// Fetches the service stats snapshot (the `stats` sub-object).
    pub fn stats(&mut self) -> std::io::Result<Value> {
        let response = self.request(vec![("op".to_string(), Value::Str("stats".to_string()))])?;
        response.get("stats").cloned().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no stats in response")
        })
    }

    /// Fetches the per-shard control-plane snapshots (the `shards` array:
    /// one map per shard with `id`, `draining`, `running`, and `stats`).
    pub fn shard_stats(&mut self) -> std::io::Result<Vec<Value>> {
        let response = self.request(vec![("op".to_string(), Value::Str("shards".to_string()))])?;
        response.get("shards").and_then(Value::as_seq).map(<[Value]>::to_vec).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no shards in response")
        })
    }

    /// Drains one shard: placement stops, queued jobs are re-homed,
    /// in-flight jobs finish in place.  Returns the response map
    /// (`requeued`, `kept`, `in_flight`).
    pub fn drain(&mut self, shard: usize) -> std::io::Result<Value> {
        self.request(vec![
            ("op".to_string(), Value::Str("drain".to_string())),
            ("shard".to_string(), Value::U64(shard as u64)),
        ])
    }

    /// Moves every cached graph to its home shard; returns the response map
    /// (`moved`, `active_shards`).
    pub fn rebalance(&mut self) -> std::io::Result<Value> {
        self.request(vec![("op".to_string(), Value::Str("rebalance".to_string()))])
    }

    /// Asks the server to stop after acknowledging.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.request(vec![("op".to_string(), Value::Str("shutdown".to_string()))]).map(|_| ())
    }
}

/// Optional scheduling attributes of a solve request: priority, deadline,
/// and a tag for cross-connection cancellation.  The default is the
/// protocol default (priority 0, no deadline, no tag).
#[derive(Clone, Debug, Default)]
pub struct SolveOptions {
    /// Scheduling priority (0–255; higher dequeues first).
    pub priority: u8,
    /// Queue + solve budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Client-chosen label; `cancel` by tag reaches this solve from any
    /// connection.
    pub tag: Option<String>,
}

impl SolveOptions {
    fn extend_fields(&self, fields: &mut Vec<(String, Value)>) {
        if self.priority != 0 {
            fields.push(("priority".to_string(), Value::U64(u64::from(self.priority))));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::U64(ms)));
        }
        if let Some(tag) = &self.tag {
            fields.push(("tag".to_string(), Value::Str(tag.clone())));
        }
    }
}

fn cancelled_count(response: &Value) -> std::io::Result<u64> {
    response.get("cancelled").and_then(Value::as_u64).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no cancelled count in response")
    })
}
