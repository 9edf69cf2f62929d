//! Server-side continuous telemetry: per-verb phase histograms, the
//! rolling time-series the sampler thread feeds, and the bounded
//! structured slow-query log.
//!
//! The serving path records three phases per request into
//! [`fm_core::metrics::LatencyHistogram`]s keyed by verb:
//!
//! * **queue** — decode→dequeue, taken by the worker from the same
//!   `received` timestamp it already uses for 408 deadlines (control
//!   verbs never queue, so they record nothing here);
//! * **service** — dequeue→reply-built (worker), or the inline
//!   handling time for control verbs (connection thread);
//! * **write** — the reply frame's socket write (connection thread).
//!
//! The sampler thread in [`crate::server`] closes one window per
//! configured interval: it snapshots every cumulative counter source
//! (matcher registry, serving counters, store IO, per-verb service
//! histograms), publishes the deltas of every named counter plus
//! queue-depth/inflight gauges into a [`Ring`] of [`WindowSnapshot`]s,
//! and the `timeseries` verb serves the newest N
//! windows as JSON. The `metrics` verb renders the cumulative state as
//! Prometheus text exposition instead.
//!
//! Requests slower than `slow_us` are counted and, when a slow-log file
//! is configured, append one JSON line to it (bounded): verb, per-phase
//! timings, and the query's trace — the same counters the flight
//! recorder attaches to its traces, so a slow-log line can be
//! correlated with `trace_slowest` output by latency and counters.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fm_core::metrics::{LatencyHistogram, LatencySnapshot};
use fm_core::telemetry::{Ring, WindowSnapshot};
use fm_core::LookupTrace;

use crate::json::Json;
use crate::protocol::trace_to_json;

/// Every protocol verb, in the order used for per-verb indexing.
pub const VERBS: &[&str] = &[
    "lookup",
    "lookup_batch",
    "stats",
    "trace_slowest",
    "health",
    "shutdown",
    "metrics",
    "timeseries",
];

/// Indexes into [`VERBS`] for the recording call sites.
pub mod verb {
    pub const LOOKUP: usize = 0;
    pub const LOOKUP_BATCH: usize = 1;
    pub const STATS: usize = 2;
    pub const TRACE_SLOWEST: usize = 3;
    pub const HEALTH: usize = 4;
    pub const SHUTDOWN: usize = 5;
    pub const METRICS: usize = 6;
    pub const TIMESERIES: usize = 7;
}

/// The three phase histograms of one verb.
#[derive(Debug, Default)]
pub struct VerbPhases {
    pub queue: LatencyHistogram,
    pub service: LatencyHistogram,
    pub write: LatencyHistogram,
}

/// One verb's cumulative phase snapshots, for exposition and windowing.
#[derive(Debug, Clone, Copy)]
pub struct VerbSnapshot {
    pub verb: &'static str,
    pub queue: LatencySnapshot,
    pub service: LatencySnapshot,
    pub write: LatencySnapshot,
}

/// All server-side telemetry state shared between connection threads,
/// workers, the sampler, and the reporting verbs.
#[derive(Debug)]
pub struct ServerTelemetry {
    verbs: Vec<VerbPhases>,
    /// The rolling window ring the sampler publishes into.
    pub series: Ring<WindowSnapshot>,
    slow: SlowLog,
}

impl ServerTelemetry {
    #[must_use]
    pub fn new(windows: usize, slow: SlowLog) -> ServerTelemetry {
        ServerTelemetry {
            verbs: (0..VERBS.len()).map(|_| VerbPhases::default()).collect(),
            series: Ring::with_capacity(windows),
            slow,
        }
    }

    pub fn record_queue(&self, verb: usize, us: u64) {
        self.verbs[verb].queue.observe(us);
    }

    pub fn record_service(&self, verb: usize, us: u64) {
        self.verbs[verb].service.observe(us);
    }

    pub fn record_write(&self, verb: usize, us: u64) {
        self.verbs[verb].write.observe(us);
    }

    /// Cumulative phase snapshots for every verb.
    #[must_use]
    pub fn verb_snapshots(&self) -> Vec<VerbSnapshot> {
        VERBS
            .iter()
            .zip(&self.verbs)
            .map(|(&verb, phases)| VerbSnapshot {
                verb,
                queue: phases.queue.snapshot(),
                service: phases.service.snapshot(),
                write: phases.write.snapshot(),
            })
            .collect()
    }

    /// The slow-query log.
    #[must_use]
    pub fn slow(&self) -> &SlowLog {
        &self.slow
    }
}

/// Structured slow-query log: a count of the requests at or above the
/// threshold, each optionally appended to a JSONL file as one line. The
/// file is bounded too (at most [`SlowLog::FILE_CAP_LINES`] lines), so a
/// misbehaving workload cannot grow it without limit.
#[derive(Debug)]
pub struct SlowLog {
    /// Requests at or above this many µs are logged; `0` disables.
    threshold_us: u64,
    logged: AtomicU64,
    file: Option<Mutex<std::fs::File>>,
}

impl SlowLog {
    /// The file stops growing after this many lines.
    pub const FILE_CAP_LINES: u64 = 16_384;

    /// `threshold_us == 0` disables logging entirely. `path`, when
    /// given, is opened for append and receives every record as one JSON
    /// line; a path that cannot be opened is an error naming the path,
    /// not a log that silently writes nowhere.
    pub fn new(threshold_us: u64, path: Option<&std::path::Path>) -> std::io::Result<SlowLog> {
        let file = match path {
            Some(p) if threshold_us > 0 => {
                let opened = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p);
                let file = opened.map_err(|e| {
                    let message = format!("cannot open slow log {}: {e}", p.display());
                    std::io::Error::new(e.kind(), message)
                })?;
                Some(Mutex::new(file))
            }
            _ => None,
        };
        Ok(SlowLog {
            threshold_us,
            logged: AtomicU64::new(0),
            file,
        })
    }

    /// The configured threshold (0 = disabled).
    #[must_use]
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Total records logged since boot, including any past the file cap.
    #[must_use]
    pub fn logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    /// Record one slow request: decode to reply-built, so the reply's
    /// write phase (later, on the connection thread) is not included.
    pub fn record(
        &self,
        verb: &str,
        queue_us: u64,
        service_us: u64,
        total_us: u64,
        trace: Option<&LookupTrace>,
    ) {
        if self.threshold_us == 0 || total_us < self.threshold_us {
            return;
        }
        // `seq` is the record's 1-based sequence number: it equals
        // `logged()` at the moment this record was admitted.
        let seq = self.logged.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(file) = &self.file else {
            return;
        };
        if seq > Self::FILE_CAP_LINES {
            return;
        }
        let mut fields = vec![
            ("seq", Json::from(seq)),
            ("verb", Json::from(verb)),
            ("total_us", Json::from(total_us)),
            ("queue_us", Json::from(queue_us)),
            ("service_us", Json::from(service_us)),
            ("threshold_us", Json::from(self.threshold_us)),
        ];
        if let Some(t) = trace {
            fields.push(("counters", trace_to_json(t)));
        }
        let line = Json::obj(fields).encode();
        let mut f = match file.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        // A failed write loses only this line; `logged()` still counts it.
        let _ = writeln!(f, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_indices_match_the_verb_table() {
        assert_eq!(VERBS[verb::LOOKUP], "lookup");
        assert_eq!(VERBS[verb::LOOKUP_BATCH], "lookup_batch");
        assert_eq!(VERBS[verb::STATS], "stats");
        assert_eq!(VERBS[verb::TRACE_SLOWEST], "trace_slowest");
        assert_eq!(VERBS[verb::HEALTH], "health");
        assert_eq!(VERBS[verb::SHUTDOWN], "shutdown");
        assert_eq!(VERBS[verb::METRICS], "metrics");
        assert_eq!(VERBS[verb::TIMESERIES], "timeseries");
        assert_eq!(VERBS.len(), 8);
    }

    #[test]
    fn phases_record_independently() {
        let t = ServerTelemetry::new(8, SlowLog::new(0, None).unwrap());
        t.record_queue(verb::LOOKUP, 50);
        t.record_service(verb::LOOKUP, 500);
        t.record_write(verb::LOOKUP, 5);
        t.record_service(verb::STATS, 20);
        let snaps = t.verb_snapshots();
        let lookup = &snaps[verb::LOOKUP];
        assert_eq!(lookup.queue.count, 1);
        assert_eq!(lookup.service.count, 1);
        assert_eq!(lookup.write.count, 1);
        assert_eq!(lookup.service.sum_us, 500);
        assert_eq!(snaps[verb::STATS].service.count, 1);
        assert_eq!(
            snaps[verb::STATS].queue.count,
            0,
            "control verbs never queue"
        );
    }

    /// A fresh, empty `slow.jsonl` path in a directory of its own.
    fn temp_log_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fm_slowlog_test_{}_{tag}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn remove_log(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }

    #[test]
    fn slow_log_is_bounded_and_structured() {
        let path = temp_log_path("bounded");
        let log = SlowLog::new(100, Some(&path)).unwrap();
        log.record("lookup", 1, 2, 50, None); // under threshold: ignored
        let over = SlowLog::FILE_CAP_LINES + 3;
        for i in 0..over {
            log.record(
                "lookup",
                10,
                190 + i,
                200 + i,
                Some(&LookupTrace::default()),
            );
        }
        assert_eq!(log.logged(), over, "the count does not stop at the cap");
        let text = std::fs::read_to_string(&path).expect("slow log file");
        assert_eq!(
            text.lines().count() as u64,
            SlowLog::FILE_CAP_LINES,
            "the file keeps only the first cap records"
        );
        // The newest kept record is last and parses as our own JSON.
        let last = text.lines().last().expect("a kept line");
        let doc = crate::json::parse(last).expect("slow line parses");
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("lookup"));
        assert_eq!(
            doc.get("total_us").and_then(Json::as_u64),
            Some(200 + SlowLog::FILE_CAP_LINES - 1)
        );
        assert_eq!(
            doc.get("seq").and_then(Json::as_u64),
            Some(SlowLog::FILE_CAP_LINES)
        );
        assert!(doc.get("counters").is_some());
        remove_log(&path);
    }

    #[test]
    fn slow_log_disabled_records_nothing() {
        let log = SlowLog::new(0, None).unwrap();
        log.record("lookup", 0, 0, u64::MAX, None);
        assert_eq!(log.logged(), 0);
    }

    #[test]
    fn slow_log_mirrors_to_file() {
        let path = temp_log_path("mirror");
        let log = SlowLog::new(10, Some(&path)).unwrap();
        log.record("lookup", 1, 2, 5, None); // under threshold: ignored
        log.record("lookup", 5, 20, 25, Some(&LookupTrace::default()));
        log.record("stats", 0, 30, 30, None);
        assert_eq!(log.logged(), 2);
        let text = std::fs::read_to_string(&path).expect("slow log file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let doc = crate::json::parse(lines[0]).expect("slow line parses");
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("lookup"));
        assert_eq!(doc.get("total_us").and_then(Json::as_u64), Some(25));
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(1));
        assert!(doc.get("counters").is_some());
        let doc = crate::json::parse(lines[1]).expect("slow line parses");
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("stats"));
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(2));

        // A file that cannot be opened is an error at construction.
        let missing = path.with_file_name("no-such-dir").join("slow.jsonl");
        assert!(SlowLog::new(10, Some(&missing)).is_err());
        // With logging disabled the path is never opened.
        assert!(SlowLog::new(0, Some(&missing)).is_ok());
        remove_log(&path);
    }
}
