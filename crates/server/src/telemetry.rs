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
//! Requests slower than `slow_us` append one JSON line to a bounded
//! in-memory [`Ring`] (and optionally a JSONL file): verb, per-phase
//! timings, and the query's trace — the same counters the flight
//! recorder attaches to its traces, so a slow-log line can be
//! correlated with `trace_slowest` output by latency and counters.

use std::io::Write as _;
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

/// Bounded structured slow-query log: newest `cap` records in a [`Ring`]
/// (so a worker never blocks on a reader of the log), optionally mirrored
/// to a JSONL file (also bounded — a misbehaving workload must not grow
/// the log without limit).
#[derive(Debug)]
pub struct SlowLog {
    /// Requests at or above this many µs are logged; `0` disables.
    threshold_us: u64,
    records: Ring<String>,
    file: Option<Mutex<std::fs::File>>,
}

impl SlowLog {
    /// `threshold_us == 0` disables logging entirely. `path`, when
    /// given, receives every retained record as one JSON line (the file
    /// stops growing once `cap * FILE_CAP_FACTOR` lines are written).
    pub fn new(threshold_us: u64, cap: usize, path: Option<&std::path::Path>) -> SlowLog {
        let file = match path {
            Some(p) if threshold_us > 0 => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .ok()
                .map(Mutex::new),
            _ => None,
        };
        SlowLog {
            threshold_us,
            records: Ring::with_capacity(cap),
            file,
        }
    }

    /// The file keeps at most this many times the in-memory cap.
    pub const FILE_CAP_FACTOR: u64 = 64;

    /// The configured threshold (0 = disabled).
    #[must_use]
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Total records logged since boot (including ones the ring has
    /// since evicted).
    #[must_use]
    pub fn logged(&self) -> u64 {
        self.records.pushed()
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
        // `seq` is the record's 1-based ring sequence number: it equals
        // `logged()` at the moment this record was admitted.
        let mut line = String::new();
        let seq = self.records.push_with(|seq, slot| {
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
            *slot = Json::obj(fields).encode();
            line.clone_from(slot);
        });
        if let Some(file) = &self.file {
            let cap = self.records.capacity() as u64;
            if !line.is_empty() && seq <= cap * Self::FILE_CAP_FACTOR {
                let mut f = match file.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                // A failed mirror write loses only the file copy; the ring
                // keeps the record.
                let _ = writeln!(f, "{line}");
            }
        }
    }

    /// The newest retained records, oldest first.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.records.recent(usize::MAX)
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
        let t = ServerTelemetry::new(8, SlowLog::new(0, 4, None));
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

    #[test]
    fn slow_log_is_bounded_and_structured() {
        let log = SlowLog::new(100, 3, None);
        log.record("lookup", 1, 2, 50, None); // under threshold: ignored
        for i in 0..5u64 {
            log.record(
                "lookup",
                10,
                190 + i,
                200 + i,
                Some(&LookupTrace::default()),
            );
        }
        assert_eq!(log.logged(), 5);
        let lines = log.lines();
        assert_eq!(lines.len(), 3, "ring keeps only the newest cap records");
        // Newest record is last and parses as our own JSON.
        let doc = crate::json::parse(&lines[2]).expect("slow line parses");
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("lookup"));
        assert_eq!(doc.get("total_us").and_then(Json::as_u64), Some(204));
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(5));
        assert!(doc.get("counters").is_some());
    }

    #[test]
    fn slow_log_disabled_records_nothing() {
        let log = SlowLog::new(0, 4, None);
        log.record("lookup", 0, 0, u64::MAX, None);
        assert_eq!(log.logged(), 0);
        assert!(log.lines().is_empty());
    }

    #[test]
    fn slow_log_mirrors_to_file() {
        let dir = std::env::temp_dir().join(format!(
            "fm_slowlog_test_{}_{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = SlowLog::new(10, 4, Some(&path));
            log.record("lookup", 5, 20, 25, None);
            log.record("stats", 0, 30, 30, None);
        }
        let text = std::fs::read_to_string(&path).expect("slow log file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"verb\":\"lookup\""));
        assert!(lines[1].contains("\"verb\":\"stats\""));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
