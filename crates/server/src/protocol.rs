//! Wire protocol: length-prefixed JSON frames and the request grammar.
//!
//! # Frame format
//!
//! Every message in both directions is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 (BE)  | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! The payload is a UTF-8 JSON object. Frames larger than [`MAX_FRAME`]
//! are rejected with a `413` reply and the connection is closed (the
//! stream cannot be resynchronised past a length prefix we refuse to
//! read). A malformed payload inside a well-formed frame gets a `400`
//! reply and the connection stays usable — framing survives bad JSON.
//!
//! # Requests
//!
//! ```json
//! {"verb":"lookup","input":["Beoing Company","Seattle",null],"k":1,"c":0.0}
//! {"verb":"lookup_batch","inputs":[["a"],["b"]],"k":1,"c":0.0}
//! {"verb":"stats"}
//! {"verb":"trace_slowest","k":10}
//! {"verb":"metrics"}
//! {"verb":"health"}
//! {"verb":"shutdown"}
//! ```
//!
//! `lookup`/`lookup_batch` accept an optional `"deadline_ms"` (overrides
//! the server default; `0` = no deadline) and `lookup` a `"sleep_ms"`
//! test hook the server only honours when started with `allow_sleep`.
//!
//! # Responses
//!
//! Every response carries `"ok"` and `"latency_us"` (server-side
//! receive→reply time — the field the load generator aggregates).
//! Failures are `{"ok":false,"code":N,"error":"...","latency_us":N}`
//! with HTTP-flavoured codes: `400` bad request, `408` deadline
//! exceeded, `413` frame too large, `500` internal, `503` overloaded or
//! shutting down.

use std::io::{self, Read, Write};

use fm_core::Record;

use crate::json::{self, Json};

/// Hard cap on frame payload size, both directions (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// HTTP-flavoured status codes used in error replies.
pub mod code {
    pub const BAD_REQUEST: u16 = 400;
    pub const DEADLINE_EXCEEDED: u16 = 408;
    pub const FRAME_TOO_LARGE: u16 = 413;
    pub const INTERNAL: u16 = 500;
    pub const OVERLOADED: u16 = 503;
}

/// Write one frame: 4-byte big-endian length then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Encode and write a JSON frame.
pub fn write_json(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    write_frame(w, doc.encode().as_bytes())
}

/// One observation from [`FrameReader::next_frame`].
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete payload.
    Frame(Vec<u8>),
    /// Peer closed the connection at a frame boundary (or mid-frame —
    /// either way there is nothing more to serve).
    Eof,
    /// The read timed out with no complete frame buffered. The caller
    /// polls its shutdown flag and calls again; buffered partial data is
    /// preserved across `Idle` returns.
    Idle,
}

/// Why a frame could not be produced.
#[derive(Debug)]
pub enum FrameError {
    /// Length prefix announced more than the permitted maximum. The
    /// connection must be closed after replying: the oversized payload
    /// is never read, so the stream position is unrecoverable.
    Oversized(usize),
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Io(e) => write!(f, "io error reading frame: {e}"),
        }
    }
}

/// Incremental frame decoder that tolerates read timeouts.
///
/// `std::io::Read::read_exact` may discard bytes already consumed when a
/// timeout interrupts it mid-frame; this reader instead appends whatever
/// arrives to an internal buffer and only slices complete frames out, so
/// a server thread can use short read timeouts as a shutdown poll
/// without corrupting the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Pull the next complete frame out of `stream`.
    pub fn next_frame(
        &mut self,
        stream: &mut impl Read,
        max: usize,
    ) -> Result<FrameEvent, FrameError> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > max {
                    return Err(FrameError::Oversized(len));
                }
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(FrameEvent::Frame(payload));
                }
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(FrameEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FrameEvent::Idle)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Lookup {
        input: Record,
        k: usize,
        c: f64,
        /// Per-request deadline override; `None` = server default,
        /// `Some(0)` = explicitly no deadline.
        deadline_ms: Option<u64>,
        /// Test hook: hold the worker for this long before the lookup
        /// (ignored unless the server enables `allow_sleep`).
        sleep_ms: u64,
    },
    LookupBatch {
        inputs: Vec<Record>,
        k: usize,
        c: f64,
        deadline_ms: Option<u64>,
    },
    Stats,
    TraceSlowest {
        k: usize,
    },
    /// Cumulative counters/gauges/histograms as Prometheus text
    /// exposition (in the reply's `"exposition"` field).
    Metrics,
    Health,
    Shutdown,
}

fn parse_record(value: &Json) -> Result<Record, String> {
    let cells = value.as_arr().ok_or("input must be an array of strings")?;
    if cells.is_empty() {
        return Err("input record has no columns".into());
    }
    let mut fields = Vec::with_capacity(cells.len());
    for cell in cells {
        match cell {
            Json::Str(s) => fields.push(Some(s.clone())),
            Json::Null => fields.push(None),
            other => return Err(format!("input cell must be string or null, got {other}")),
        }
    }
    Ok(Record::from_options(fields))
}

fn parse_k(doc: &Json) -> Result<usize, String> {
    match doc.get("k") {
        None => Ok(1),
        Some(v) => {
            let k = v.as_u64().ok_or("k must be a non-negative integer")? as usize;
            if k == 0 {
                return Err("k must be at least 1".into());
            }
            Ok(k)
        }
    }
}

fn parse_c(doc: &Json) -> Result<f64, String> {
    match doc.get("c") {
        None => Ok(0.0),
        Some(v) => {
            let c = v.as_f64().ok_or("c must be a number")?;
            if !(0.0..1.0).contains(&c) {
                return Err(format!("c must be in [0,1), got {c}"));
            }
            Ok(c)
        }
    }
}

fn parse_deadline(doc: &Json) -> Result<Option<u64>, String> {
    match doc.get("deadline_ms") {
        None => Ok(None),
        Some(v) => Ok(Some(
            v.as_u64()
                .ok_or("deadline_ms must be a non-negative integer")?,
        )),
    }
}

/// Parse one frame payload into a [`Request`].
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let doc = json::parse(text)?;
    let verb = doc
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing string field \"verb\"")?;
    match verb {
        "lookup" => Ok(Request::Lookup {
            input: parse_record(doc.get("input").ok_or("lookup: missing \"input\"")?)?,
            k: parse_k(&doc)?,
            c: parse_c(&doc)?,
            deadline_ms: parse_deadline(&doc)?,
            sleep_ms: match doc.get("sleep_ms") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .ok_or("sleep_ms must be a non-negative integer")?,
            },
        }),
        "lookup_batch" => {
            let items = doc
                .get("inputs")
                .and_then(Json::as_arr)
                .ok_or("lookup_batch: missing array field \"inputs\"")?;
            let inputs = items
                .iter()
                .map(parse_record)
                .collect::<Result<Vec<_>, _>>()?;
            if inputs.is_empty() {
                return Err("lookup_batch: \"inputs\" is empty".into());
            }
            Ok(Request::LookupBatch {
                inputs,
                k: parse_k(&doc)?,
                c: parse_c(&doc)?,
                deadline_ms: parse_deadline(&doc)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "trace_slowest" => Ok(Request::TraceSlowest {
            k: match doc.get("k") {
                None => 10,
                Some(v) => v.as_u64().ok_or("k must be a non-negative integer")? as usize,
            },
        }),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// An error reply frame body.
#[must_use]
pub fn error_reply(code: u16, message: &str, latency_us: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::from(u64::from(code))),
        ("error", Json::from(message)),
        ("latency_us", Json::from(latency_us)),
    ])
}

/// A success reply: `{"ok":true,"latency_us":N,...fields}`.
#[must_use]
pub fn ok_reply(latency_us: u64, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![
        ("ok", Json::Bool(true)),
        ("latency_us", Json::from(latency_us)),
    ];
    all.extend(fields);
    Json::obj(all)
}

/// A counter set's `(name, value)` pairs as JSON object fields — how
/// every reply and log line spells counters, so each keeps its declared
/// name.
#[must_use]
pub fn counter_fields(counters: impl Iterator<Item = (&'static str, u64)>) -> Vec<(String, Json)> {
    counters
        .map(|(name, value)| (name.to_string(), Json::from(value)))
        .collect()
}

/// One lookup's trace: every counter, then `tid_list_max`, `osc_round`
/// (`null` without a short circuit) and `latency_us`.
#[must_use]
pub fn trace_to_json(trace: &fm_core::LookupTrace) -> Json {
    let round = trace
        .osc_round
        .map_or(Json::Null, |r| Json::from(u64::from(r)));
    let mut fields = counter_fields(trace.named());
    fields.extend([
        ("tid_list_max".into(), Json::from(trace.tid_list_max)),
        ("osc_round".into(), round),
        ("latency_us".into(), Json::from(trace.latency_us)),
    ]);
    Json::Obj(fields)
}

/// One flight-recorder trace as the `trace_slowest` verb reports it.
#[must_use]
pub fn completed_trace_to_json(trace: &fm_core::CompletedTrace) -> Json {
    let mut fields = vec![
        ("seq", Json::from(trace.seq)),
        ("kind", Json::from(trace.kind.as_str())),
        ("total_us", Json::from(trace.total_us())),
        ("spans", Json::from(trace.spans.len())),
    ];
    if let Some(counters) = &trace.counters {
        fields.push(("counters", trace_to_json(counters)));
    }
    Json::obj(fields)
}

/// Serialize the matches of a [`fm_core::MatchResult`].
#[must_use]
pub fn matches_to_json(result: &fm_core::MatchResult) -> Json {
    Json::Arr(
        result
            .matches
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("tid", Json::from(u64::from(m.tid))),
                    ("similarity", Json::from(m.similarity)),
                    (
                        "record",
                        Json::Arr(
                            m.record
                                .values()
                                .iter()
                                .map(|v| match v {
                                    Some(s) => Json::from(s.as_str()),
                                    None => Json::Null,
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"verb\":\"health\"}").expect("write");
        write_frame(&mut wire, b"").expect("write empty");
        let mut reader = FrameReader::new();
        let mut stream = io::Cursor::new(wire);
        match reader.next_frame(&mut stream, MAX_FRAME).expect("frame 1") {
            FrameEvent::Frame(p) => assert_eq!(p, b"{\"verb\":\"health\"}"),
            other => panic!("expected frame, got {other:?}"),
        }
        match reader.next_frame(&mut stream, MAX_FRAME).expect("frame 2") {
            FrameEvent::Frame(p) => assert!(p.is_empty()),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(
            reader.next_frame(&mut stream, MAX_FRAME).expect("eof"),
            FrameEvent::Eof
        ));
    }

    #[test]
    fn frames_survive_fragmented_reads() {
        // A reader that yields one byte per call, interleaved with
        // timeouts, must still reassemble the frame.
        struct Trickle {
            data: Vec<u8>,
            pos: usize,
            tick: usize,
        }
        impl Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                self.tick += 1;
                if self.tick % 2 == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                }
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").expect("write");
        let mut stream = Trickle {
            data: wire,
            pos: 0,
            tick: 0,
        };
        let mut reader = FrameReader::new();
        let mut idles = 0;
        loop {
            match reader.next_frame(&mut stream, MAX_FRAME).expect("read") {
                FrameEvent::Frame(p) => {
                    assert_eq!(p, b"abcdef");
                    break;
                }
                FrameEvent::Idle => idles += 1,
                FrameEvent::Eof => panic!("eof before frame"),
            }
        }
        assert!(idles > 0, "trickle reader should have idled");
    }

    #[test]
    fn oversized_prefix_is_rejected_without_reading_payload() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut reader = FrameReader::new();
        let mut stream = io::Cursor::new(wire);
        match reader.next_frame(&mut stream, MAX_FRAME) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected oversized error, got {other:?}"),
        }
    }

    #[test]
    fn parses_lookup() {
        let req = parse_request(
            br#"{"verb":"lookup","input":["Boeing Company",null],"k":3,"c":0.5,"deadline_ms":250}"#,
        )
        .expect("parse");
        match req {
            Request::Lookup {
                input,
                k,
                c,
                deadline_ms,
                sleep_ms,
            } => {
                assert_eq!(input.get(0), Some("Boeing Company"));
                assert_eq!(input.get(1), None);
                assert_eq!(k, 3);
                assert!((c - 0.5).abs() < 1e-12);
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(sleep_ms, 0);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            &b"not json"[..],
            br#"{"verb":"fly"}"#,
            br#"{"verb":"lookup"}"#,
            br#"{"verb":"lookup","input":[]}"#,
            br#"{"verb":"lookup","input":[1]}"#,
            br#"{"verb":"lookup","input":["a"],"k":0}"#,
            br#"{"verb":"lookup","input":["a"],"c":1.5}"#,
            br#"{"verb":"lookup_batch","inputs":[]}"#,
            b"\xff\xfe",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn error_reply_shape() {
        let reply = error_reply(code::OVERLOADED, "overloaded", 12);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(reply.get("code").and_then(Json::as_u64), Some(503));
        assert_eq!(reply.get("latency_us").and_then(Json::as_u64), Some(12));
    }
}
