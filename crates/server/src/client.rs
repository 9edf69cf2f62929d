//! A blocking protocol client: one connection, strict request→response.
//!
//! Shared by the `fuzzymatch client`/`ping` CLI verbs, the `bench_load`
//! load generator, the protocol tests, and the `xtask ci` smoke test —
//! one implementation of framing and reply parsing instead of four.

use std::io;
use std::net::TcpStream;

use fm_core::Record;

use crate::json::Json;
use crate::protocol::{self, FrameError, FrameEvent, FrameReader, MAX_FRAME};

/// Why a request failed client-side.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The server closed the connection before replying (expected after
    /// a drain; unexpected otherwise).
    Disconnected,
    /// The reply frame was not a valid protocol response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One match inside a [`LookupReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMatch {
    pub tid: u32,
    pub similarity: f64,
    pub record: Vec<Option<String>>,
}

/// A parsed `lookup` response (success or protocol-level error).
#[derive(Debug, Clone, PartialEq)]
pub struct LookupReply {
    pub ok: bool,
    /// Error code (`0` on success).
    pub code: u16,
    /// Error message (empty on success).
    pub error: String,
    /// Server-side receive→reply latency.
    pub latency_us: u64,
    /// Matcher-side lookup latency (success only).
    pub lookup_us: u64,
    pub matches: Vec<ReplyMatch>,
}

impl LookupReply {
    /// Interpret a raw reply document.
    pub fn from_json(doc: &Json) -> Result<LookupReply, ClientError> {
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("reply missing \"ok\"".into()))?;
        let latency_us = doc.get("latency_us").and_then(Json::as_u64).unwrap_or(0);
        if !ok {
            return Ok(LookupReply {
                ok: false,
                code: doc.get("code").and_then(Json::as_u64).unwrap_or(0) as u16,
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                latency_us,
                lookup_us: 0,
                matches: Vec::new(),
            });
        }
        let mut matches = Vec::new();
        if let Some(items) = doc.get("matches").and_then(Json::as_arr) {
            for item in items {
                let tid = item
                    .get("tid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ClientError::Protocol("match missing tid".into()))?;
                let similarity = item
                    .get("similarity")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ClientError::Protocol("match missing similarity".into()))?;
                let record = item
                    .get("record")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ClientError::Protocol("match missing record".into()))?
                    .iter()
                    .map(|cell| cell.as_str().map(str::to_string))
                    .collect();
                matches.push(ReplyMatch {
                    tid: u32::try_from(tid)
                        .map_err(|_| ClientError::Protocol(format!("tid {tid} out of range")))?,
                    similarity,
                    record,
                });
            }
        }
        Ok(LookupReply {
            ok: true,
            code: 0,
            error: String::new(),
            latency_us,
            lookup_us: doc.get("lookup_us").and_then(Json::as_u64).unwrap_or(0),
            matches,
        })
    }
}

/// Serialize a [`Record`] as the protocol's string-or-null array.
#[must_use]
pub fn record_to_json(record: &Record) -> Json {
    Json::Arr(
        record
            .values()
            .iter()
            .map(|v| match v {
                Some(s) => Json::from(s.as_str()),
                None => Json::Null,
            })
            .collect(),
    )
}

/// A blocking client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Send one request document and block for its reply.
    pub fn request(&mut self, doc: &Json) -> Result<Json, ClientError> {
        protocol::write_json(&mut self.stream, doc)?;
        loop {
            match self.reader.next_frame(&mut self.stream, MAX_FRAME) {
                Ok(FrameEvent::Frame(payload)) => {
                    let text = std::str::from_utf8(&payload)
                        .map_err(|_| ClientError::Protocol("reply is not UTF-8".into()))?;
                    return crate::json::parse(text).map_err(ClientError::Protocol);
                }
                Ok(FrameEvent::Eof) => return Err(ClientError::Disconnected),
                Ok(FrameEvent::Idle) => {} // no read timeout set; defensive
                Err(FrameError::Oversized(n)) => {
                    return Err(ClientError::Protocol(format!(
                        "oversized reply ({n} bytes)"
                    )))
                }
                Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// `lookup` with the default deadline and no sleep hook.
    pub fn lookup(&mut self, input: &Record, k: usize, c: f64) -> Result<LookupReply, ClientError> {
        self.lookup_with(input, k, c, None, 0)
    }

    /// `lookup` with an explicit deadline override and/or the `sleep_ms`
    /// test hook.
    pub fn lookup_with(
        &mut self,
        input: &Record,
        k: usize,
        c: f64,
        deadline_ms: Option<u64>,
        sleep_ms: u64,
    ) -> Result<LookupReply, ClientError> {
        let mut fields = vec![
            ("verb", Json::from("lookup")),
            ("input", record_to_json(input)),
            ("k", Json::from(k)),
            ("c", Json::from(c)),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Json::from(ms)));
        }
        if sleep_ms > 0 {
            fields.push(("sleep_ms", Json::from(sleep_ms)));
        }
        let reply = self.request(&Json::obj(fields))?;
        LookupReply::from_json(&reply)
    }

    /// `health`: the server's status string (`serving` / `draining`).
    pub fn health(&mut self) -> Result<String, ClientError> {
        let reply = self.request(&Json::obj(vec![("verb", Json::from("health"))]))?;
        reply
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("health reply missing status".into()))
    }

    /// `stats`: the raw snapshot document.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("verb", Json::from("stats"))]))
    }

    /// `metrics`: the Prometheus text exposition body.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let reply = self.request(&Json::obj(vec![("verb", Json::from("metrics"))]))?;
        reply
            .get("exposition")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics reply missing exposition".into()))
    }

    /// `trace_slowest`: the raw trace listing.
    pub fn trace_slowest(&mut self, k: usize) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![
            ("verb", Json::from("trace_slowest")),
            ("k", Json::from(k)),
        ]))
    }

    /// `shutdown`: ask the server to drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let reply = self.request(&Json::obj(vec![("verb", Json::from("shutdown"))]))?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("shutdown refused: {reply}")))
        }
    }
}
