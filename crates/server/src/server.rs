//! The TCP serving loop: accept → frame → admit → permit → lookup →
//! reply, all on the connection thread.
//!
//! # Threading model
//!
//! ```text
//! acceptor thread ──spawns──▶ connection threads (one per socket)
//!                                  │ parse frame, admission control
//!                                  ▼
//!                           permit gate  (`workers` permits,
//!                                  │      `queue_depth` FIFO waiters)
//!                                  ▼
//!                           the same connection thread runs the
//!                           matcher call, gives the permit back,
//!                           writes the reply frame
//! ```
//!
//! A connection thread does all the work of its requests: framing,
//! parsing, control verbs, and its own lookups. There is no hand-off
//! between threads on the lookup path. The gate ([`crate::gate`]) bounds
//! concurrency against the store: at most `workers` matcher calls run at
//! once, no matter how many sockets are open, and callers beyond that
//! wait for a permit in arrival order. Every lookup uses the one
//! `Arc<FuzzyMatcher>` the server was started with: lookups are `&self`,
//! and each takes its scratch from fm-core's pool, so scratch memory
//! follows the permits, not the connections.
//!
//! # Admission control and overload semantics
//!
//! A lookup is admitted only if (a) the server is not draining, (b) the
//! number of admitted-but-unanswered lookups (permits out plus waiters)
//! is below `max_inflight`, and (c) fewer than `queue_depth` callers
//! already wait for a permit. Anything else is answered immediately
//! with a `503` error frame — the caller learns about overload in
//! microseconds instead of waiting behind an unbounded backlog (the
//! "fail fast under overload" discipline of production lookup services).
//!
//! # Deadlines
//!
//! Each lookup carries a deadline (request `deadline_ms`, defaulting to
//! the server's `--deadline-ms`), checked when the permit is granted: a
//! request that spent its budget waiting is answered with `408` and
//! never touches the matcher, which sheds exactly the work that can no
//! longer meet its latency target. The wait from frame decode to grant
//! is the request's queue phase.
//!
//! # Graceful drain
//!
//! `shutdown` (the verb, or [`Server::shutdown`]) flips the drain flag
//! and wakes the acceptor. New lookups are refused with `503`; lookups
//! already running or waiting for a permit are still served, each by its
//! own connection thread. Connection threads close on their next idle
//! poll, and [`Server::wait`] joins them and returns the final counter
//! and metrics snapshot.
//!
//! # Slow requests
//!
//! The server keeps no slow-query record of its own. Every lookup runs
//! under the process-wide flight recorder (`fm_core::tracing`), which
//! keeps the span tree and `LookupTrace` counters of recent lookups and,
//! in a slow ring, of each lookup at or above its threshold (`fuzzymatch
//! serve --slow-us`). The `trace_slowest` verb returns the K slowest of
//! the recent and slow rings together, so it can list lookups under the
//! threshold when fewer than K are above it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fm_core::telemetry::PromText;
use fm_core::{FuzzyMatcher, MatchResult, MetricsSnapshot, Record};
use fm_store::lockorder::{blocking_point, Flag, Ranked, CONNS};
use fm_store::Database;

use crate::gate::{Gate, Permit, Refused};
use crate::json::Json;
use crate::protocol::{self, code, FrameError, FrameEvent, FrameReader, Request, MAX_FRAME};
use crate::telemetry::{verb, ServerTelemetry};

/// How often a blocked connection read wakes up to poll the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lookup permits: matcher calls that may run at once.
    pub workers: usize,
    /// Callers that may wait for a permit.
    pub queue_depth: usize,
    /// Max admitted-but-unanswered lookups; `0` derives
    /// `workers + queue_depth`.
    pub max_inflight: usize,
    /// Default per-request deadline in milliseconds (`0` = none).
    pub deadline_ms: u64,
    /// Honour the `sleep_ms` request field (test hook for holding a
    /// permit provably long; off in production).
    pub allow_sleep: bool,
    /// Ignored: every lookup runs on the one matcher handle. Kept
    /// only because the benchmark package still sets it.
    pub replicas: usize,
    /// Ignored: the server keeps no time series (a window is the
    /// difference of two `metrics` scrapes). Kept only because the
    /// benchmark package still sets it.
    pub telemetry_window_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_inflight: 0,
            deadline_ms: 0,
            allow_sleep: false,
            replicas: 0,
            telemetry_window_ms: 0,
        }
    }
}

fm_core::counters! {
    /// Point-in-time copy of the serving-layer counters; [`Counters`] is
    /// the live tally (all relaxed: independent totals).
    pub struct CountersSnapshot / Counters {
        /// Sockets accepted.
        pub connections: u64,
        /// Request frames decoded.
        pub frames: u64,
        /// Response frames written successfully.
        pub responses: u64,
        /// Response frames that failed to write (peer gone mid-reply).
        pub write_failures: u64,
        /// Lookups refused with `503 overloaded`.
        pub rejected_overload: u64,
        /// Lookups refused with `503 shutting down`.
        pub rejected_shutdown: u64,
        /// Lookups answered `408` because their deadline passed while
        /// they waited for a permit.
        pub deadline_expired: u64,
        /// Frames whose payload failed to parse (`400`).
        pub malformed: u64,
        /// Length prefixes beyond [`MAX_FRAME`] (`413`, connection closed).
        pub oversized: u64,
        /// High-water mark of the callers waiting for a permit (0 if no
        /// lookup ever waited).
        pub max_queue_depth: u64,
        /// Total time admitted lookups spent from frame decode to permit
        /// grant, µs: the timestamp the 408 deadline check takes anyway.
        pub queue_wait_us: u64,
        /// Permits granted (the divisor for a mean queue wait).
        pub queue_waits: u64,
    }
}

impl CountersSnapshot {
    /// The graceful-drain ledger: after `Server::wait` returns, every
    /// decoded request frame must have produced exactly one reply
    /// *attempt* — written (`responses`) or failed because the peer went
    /// away mid-reply (`write_failures`). A client hanging up during the
    /// drain leaves its reply in `write_failures`, and that is still a
    /// balanced ledger.
    #[must_use]
    pub fn ledger_balanced(&self) -> bool {
        self.frames == self.responses + self.write_failures
    }
}

/// Everything [`Server::wait`] hands back after the drain completes.
#[derive(Debug, Clone)]
pub struct ServerReport {
    pub counters: CountersSnapshot,
    /// Final matcher metrics (the "flush a final snapshot" half of
    /// graceful shutdown).
    pub metrics: MetricsSnapshot,
    /// Final store IO accounting.
    pub store: fm_store::StoreStats,
}

struct Inner {
    /// The one matcher handle every lookup and control verb uses.
    matcher: Arc<FuzzyMatcher>,
    db: Arc<Database>,
    config: ServerConfig,
    max_inflight: usize,
    local_addr: SocketAddr,
    gate: Gate,
    /// Swapped (AcqRel) once by `begin_shutdown`, which then wakes the
    /// acceptor; read (Acquire) by the acceptor, the connection threads
    /// and admission.
    shutting_down: Flag,
    counters: Counters,
    conns: Ranked<Mutex<Vec<JoinHandle<()>>>, CONNS>,
    telemetry: ServerTelemetry,
}

/// A running fuzzy-lookup server. Construct with [`Server::start`];
/// consume with [`Server::wait`].
pub struct Server {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawn
    /// the acceptor, and return immediately.
    pub fn start(
        addr: &str,
        matcher: Arc<FuzzyMatcher>,
        db: Arc<Database>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot listen on {addr}: {e}")))?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let max_inflight = if config.max_inflight == 0 {
            workers + config.queue_depth
        } else {
            config.max_inflight
        };
        let inner = Arc::new(Inner {
            matcher,
            db,
            gate: Gate::new(workers, config.queue_depth.max(1), max_inflight),
            config,
            max_inflight,
            local_addr,
            shutting_down: Flag::new(false),
            counters: Counters::default(),
            conns: Ranked::new(Mutex::new(Vec::new())),
            telemetry: ServerTelemetry::default(),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, &listener))
        };
        Ok(Server {
            inner,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Begin the graceful drain (idempotent). Equivalent to a client
    /// sending the `shutdown` verb.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Block until the drain completes: acceptor gone, every connection
    /// closed, every admitted lookup answered. Returns the final
    /// counters + metrics + IO snapshot.
    pub fn wait(mut self) -> ServerReport {
        if let Some(handle) = self.acceptor.take() {
            blocking_point("join");
            let _ = handle.join();
        }
        // Connection threads can no longer be spawned (acceptor is
        // gone); drain the handle list until it stays empty.
        loop {
            let handles = std::mem::take(&mut *self.inner.conns.lock());
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                blocking_point("join");
                let _ = handle.join();
            }
        }
        ServerReport {
            counters: self.inner.counters.snapshot(),
            metrics: self.inner.matcher.metrics_snapshot(),
            store: self.inner.db.stats(),
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        blocking_point("accept");
        let conn = listener.accept();
        if inner.is_shutting_down() {
            break; // the wake-up connection (or any racer) ends the loop
        }
        let Ok((stream, _)) = conn else { continue };
        inner.counters.connections.add(1);
        let inner_conn = Arc::clone(inner);
        let handle = std::thread::spawn(move || conn_loop(&inner_conn, stream));
        inner.conns.lock().push(handle);
    }
}

fn conn_loop(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let mut reader = FrameReader::new();
    loop {
        match reader.next_frame(&mut stream, MAX_FRAME) {
            Ok(FrameEvent::Frame(payload)) => {
                let received = Instant::now();
                inner.counters.frames.add(1);
                let (reply, verb_idx) = inner.handle_frame(&payload, received);
                let write_start = Instant::now();
                let usable = inner.write_reply(&mut stream, &reply);
                if let Some(v) = verb_idx {
                    inner.telemetry.record_write(v, elapsed_us(write_start));
                }
                if !usable {
                    return;
                }
            }
            Ok(FrameEvent::Idle) => {
                if inner.is_shutting_down() {
                    return;
                }
            }
            Ok(FrameEvent::Eof) => return,
            Err(FrameError::Oversized(n)) => {
                // Count it as a request we answered: the reply below
                // balances the frames/responses ledger.
                inner.counters.frames.add(1);
                inner.counters.oversized.add(1);
                let reply = protocol::error_reply(
                    code::FRAME_TOO_LARGE,
                    &format!("frame of {n} bytes exceeds the {MAX_FRAME} byte limit"),
                    0,
                );
                inner.write_reply(&mut stream, &reply);
                return; // cannot resync past an unread oversized payload
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

impl Inner {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load()
    }

    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true) {
            return;
        }
        // Stop admitting (lookups already admitted still finish on their
        // connection threads) and poke the acceptor out of its accept.
        blocking_point("connect");
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Write one reply frame; returns whether the connection is still
    /// usable.
    fn write_reply(&self, stream: &mut TcpStream, reply: &Json) -> bool {
        match protocol::write_json(stream, reply) {
            Ok(()) => {
                self.counters.responses.add(1);
                true
            }
            Err(_) => {
                self.counters.write_failures.add(1);
                false
            }
        }
    }

    /// Serve one decoded frame. Returns the reply plus the verb's
    /// telemetry index (`None` for malformed frames), so the connection
    /// thread can attribute the write phase. Control verbs record their
    /// service phase as the whole of their handling; lookups only their
    /// matcher call.
    fn handle_frame(&self, payload: &[u8], received: Instant) -> (Json, Option<usize>) {
        let request = match protocol::parse_request(payload) {
            Ok(request) => request,
            Err(message) => {
                self.counters.malformed.add(1);
                return (
                    protocol::error_reply(code::BAD_REQUEST, &message, elapsed_us(received)),
                    None,
                );
            }
        };
        let inline = |verb_idx: usize, reply: Json| {
            self.telemetry
                .record_service(verb_idx, elapsed_us(received));
            (reply, Some(verb_idx))
        };
        match request {
            Request::Health => inline(
                verb::HEALTH,
                protocol::ok_reply(
                    elapsed_us(received),
                    vec![(
                        "status",
                        Json::from(if self.is_shutting_down() {
                            "draining"
                        } else {
                            "serving"
                        }),
                    )],
                ),
            ),
            Request::Stats => inline(verb::STATS, self.stats_reply(received)),
            Request::TraceSlowest { k } => {
                inline(verb::TRACE_SLOWEST, self.traces_reply(k, received))
            }
            Request::Metrics => inline(verb::METRICS, self.metrics_reply(received)),
            Request::Shutdown => {
                self.begin_shutdown();
                inline(
                    verb::SHUTDOWN,
                    protocol::ok_reply(elapsed_us(received), vec![("draining", Json::Bool(true))]),
                )
            }
            Request::Lookup {
                input,
                k,
                c,
                deadline_ms,
                sleep_ms,
            } => {
                let arity = self.matcher.config().arity();
                if input.arity() != arity {
                    self.counters.malformed.add(1);
                    return (
                        protocol::error_reply(
                            code::BAD_REQUEST,
                            &format!("input has {} columns, reference has {arity}", input.arity()),
                            elapsed_us(received),
                        ),
                        Some(verb::LOOKUP),
                    );
                }
                let reply = match self.admit(verb::LOOKUP, deadline_ms, received) {
                    Ok(permit) => self.serve_single(permit, &input, k, c, sleep_ms, received),
                    Err(reply) => reply,
                };
                (reply, Some(verb::LOOKUP))
            }
            Request::LookupBatch {
                inputs,
                k,
                c,
                deadline_ms,
            } => {
                let arity = self.matcher.config().arity();
                if let Some(bad) = inputs.iter().find(|r| r.arity() != arity) {
                    self.counters.malformed.add(1);
                    return (
                        protocol::error_reply(
                            code::BAD_REQUEST,
                            &format!("input has {} columns, reference has {arity}", bad.arity()),
                            elapsed_us(received),
                        ),
                        Some(verb::LOOKUP_BATCH),
                    );
                }
                let reply = match self.admit(verb::LOOKUP_BATCH, deadline_ms, received) {
                    Ok(permit) => self.serve_batch(permit, &inputs, k, c, received),
                    Err(reply) => reply,
                };
                (reply, Some(verb::LOOKUP_BATCH))
            }
        }
    }

    /// Admission control: drain flag, then the gate's in-flight cap and
    /// waiter bound. An admitted lookup waits for its permit here, and its
    /// deadline is checked when the permit is granted. `Err` is the reply.
    fn admit(
        &self,
        verb_idx: usize,
        deadline_ms: Option<u64>,
        received: Instant,
    ) -> Result<Permit<'_>, Json> {
        if self.is_shutting_down() {
            self.counters.rejected_shutdown.add(1);
            return Err(protocol::error_reply(
                code::OVERLOADED,
                "shutting down",
                elapsed_us(received),
            ));
        }
        let (permit, waiters) = self.gate.acquire().map_err(|refused| {
            self.counters.rejected_overload.add(1);
            let message = match refused {
                Refused::Inflight => {
                    format!("overloaded: {} lookups in flight", self.max_inflight)
                }
                Refused::Full => format!(
                    "overloaded: queue depth {} reached",
                    self.config.queue_depth
                ),
            };
            protocol::error_reply(code::OVERLOADED, &message, elapsed_us(received))
        })?;
        self.counters.max_queue_depth.max(waiters as u64);
        let waited = elapsed_us(received);
        self.counters.queue_wait_us.add(waited);
        self.counters.queue_waits.add(1);
        self.telemetry.record_queue(verb_idx, waited);
        let ms = deadline_ms.unwrap_or(self.config.deadline_ms);
        if ms > 0 && waited >= ms.saturating_mul(1000) {
            self.counters.deadline_expired.add(1);
            return Err(protocol::error_reply(
                code::DEADLINE_EXCEEDED,
                "deadline exceeded while queued",
                elapsed_us(received),
            ));
        }
        Ok(permit)
    }

    fn lookup_reply(result: &MatchResult, received: Instant) -> Json {
        protocol::ok_reply(
            elapsed_us(received),
            vec![
                ("lookup_us", Json::from(result.trace.latency_us)),
                ("matches", protocol::matches_to_json(result)),
            ],
        )
    }

    fn serve_single(
        &self,
        permit: Permit<'_>,
        input: &Record,
        k: usize,
        c: f64,
        sleep_ms: u64,
        received: Instant,
    ) -> Json {
        if sleep_ms > 0 && self.config.allow_sleep {
            // Test hook: hold the permit provably long. Lookups waiting
            // for it see their queue phase grow, but the sleep lands in
            // neither this request's service histogram nor its
            // flight-recorder trace: both time only the matcher call.
            blocking_point("sleep");
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
        let service_start = Instant::now();
        let outcome = self.matcher.lookup(input, k, c);
        drop(permit);
        self.telemetry
            .record_service(verb::LOOKUP, elapsed_us(service_start));
        match outcome {
            Ok(result) => Self::lookup_reply(&result, received),
            Err(e) => protocol::error_reply(
                code::INTERNAL,
                &format!("lookup failed: {e}"),
                elapsed_us(received),
            ),
        }
    }

    /// A client-issued `lookup_batch`: one admission unit, one reply
    /// frame carrying per-input result arrays.
    fn serve_batch(
        &self,
        permit: Permit<'_>,
        inputs: &[Record],
        k: usize,
        c: f64,
        received: Instant,
    ) -> Json {
        let service_start = Instant::now();
        let outcome = self.matcher.lookup_batch(inputs, k, c, 1);
        drop(permit);
        self.telemetry
            .record_service(verb::LOOKUP_BATCH, elapsed_us(service_start));
        match outcome {
            Ok(results) => protocol::ok_reply(
                elapsed_us(received),
                vec![(
                    "results",
                    Json::Arr(
                        results
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("lookup_us", Json::from(r.trace.latency_us)),
                                    ("matches", protocol::matches_to_json(r)),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            Err(e) => protocol::error_reply(
                code::INTERNAL,
                &format!("batch lookup failed: {e}"),
                elapsed_us(received),
            ),
        }
    }

    fn stats_reply(&self, received: Instant) -> Json {
        let m = self.matcher.metrics_snapshot();
        let io = self.db.stats();
        let c = self.counters.snapshot();
        protocol::ok_reply(
            elapsed_us(received),
            vec![
                ("metrics", {
                    let mut fields = protocol::counter_fields(m.named());
                    let latency = Json::obj(vec![
                        ("count", Json::from(m.latency.count)),
                        ("sum_us", Json::from(m.latency.sum_us)),
                        ("mean_us", Json::from(m.latency.mean_us())),
                        ("p50_us", Json::from(m.latency.p50_us())),
                        ("p95_us", Json::from(m.latency.p95_us())),
                        ("p99_us", Json::from(m.latency.p99_us())),
                    ]);
                    fields.push(("latency".into(), latency));
                    Json::Obj(fields)
                }),
                ("store", Json::Obj(protocol::counter_fields(io.named()))),
                // The same `named()` pairs the exposition uses, plus the
                // point-in-time gauges. `batched_lookups` is
                // always 0: the server fuses no lookups, and the key stays
                // because the benchmark package reads it.
                (
                    "server",
                    Json::Obj(protocol::counter_fields(c.named().chain([
                        ("queue_len", self.gate.waiting() as u64),
                        ("batched_lookups", 0),
                    ]))),
                ),
            ],
        )
    }

    /// The `metrics` verb: the full cumulative state rendered as
    /// Prometheus text exposition. Scraped in one quiesced moment, its
    /// `_count`/`_sum` totals equal the JSON `stats` counters exactly —
    /// both read the same atomics.
    fn metrics_reply(&self, received: Instant) -> Json {
        let m = self.matcher.metrics_snapshot();
        let io = self.db.stats();
        let c = self.counters.snapshot();
        let mut prom = PromText::new();
        for (name, value) in m.named() {
            prom.counter(
                &format!("fm_{name}_total"),
                "Matcher query-processor counter (see fm-core::metrics).",
                &[],
                value,
            );
        }
        prom.histogram(
            "fm_lookup_latency_us",
            "Matcher-side lookup latency, microseconds.",
            &[],
            &m.latency,
        );
        for (name, value) in io.named() {
            prom.counter(
                &format!("fm_store_{name}_total"),
                "Store IO counter (buffer pool and WAL).",
                &[],
                value,
            );
        }
        for (name, value) in c.named() {
            prom.counter(
                &format!("fm_server_{name}_total"),
                "Serving-layer counter.",
                &[],
                value,
            );
        }
        prom.gauge(
            "fm_server_queue_len",
            "Lookups waiting for a permit.",
            &[],
            self.gate.waiting() as f64,
        );
        prom.gauge(
            "fm_server_inflight",
            "Admitted but unanswered lookups.",
            &[],
            self.gate.inflight() as f64,
        );
        for snap in self.telemetry.verb_snapshots() {
            for (phase, hist) in [
                ("queue", &snap.queue),
                ("service", &snap.service),
                ("write", &snap.write),
            ] {
                if hist.count > 0 {
                    prom.histogram(
                        "fm_server_phase_us",
                        "Per-verb request phase time (queue-wait, service, reply write), µs.",
                        &[("verb", snap.verb), ("phase", phase)],
                        hist,
                    );
                }
            }
        }
        protocol::ok_reply(
            elapsed_us(received),
            vec![("exposition", Json::from(prom.finish()))],
        )
    }

    fn traces_reply(&self, k: usize, received: Instant) -> Json {
        let traces = self.matcher.slowest_traces(k);
        protocol::ok_reply(
            elapsed_us(received),
            vec![(
                "traces",
                Json::Arr(
                    traces
                        .iter()
                        .map(protocol::completed_trace_to_json)
                        .collect(),
                ),
            )],
        )
    }
}
