//! Server-side continuous telemetry: per-verb phase histograms.
//!
//! The serving path records three phases per request into
//! [`fm_core::metrics::LatencyHistogram`]s keyed by verb:
//!
//! * **queue** — decode→permit grant, from the same `received`
//!   timestamp the 408 deadline check uses (control verbs take no
//!   permit, so they record nothing here);
//! * **service** — a lookup's matcher call, or the whole handling time
//!   of a control verb;
//! * **write** — the reply frame's socket write.
//!
//! All three are recorded on the connection thread that served the
//! request.
//!
//! The server keeps cumulative state only. The `metrics` verb renders it
//! (matcher registry, serving counters, store IO, these histograms) as
//! Prometheus text exposition; a window is the difference of two scrapes,
//! which the reader takes (`fuzzymatch top`, or any Prometheus scraper).
//! A slow request's span tree and counters are the flight recorder's
//! (`fm_core::tracing`), read back through the `trace_slowest` verb.

use fm_core::metrics::{LatencyHistogram, LatencySnapshot};

/// Every protocol verb, in the order used for per-verb indexing.
pub const VERBS: &[&str] = &[
    "lookup",
    "lookup_batch",
    "stats",
    "trace_slowest",
    "health",
    "shutdown",
    "metrics",
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
}

/// The three phase histograms of one verb.
#[derive(Debug, Default)]
pub struct VerbPhases {
    pub queue: LatencyHistogram,
    pub service: LatencyHistogram,
    pub write: LatencyHistogram,
}

/// One verb's cumulative phase snapshots, for exposition.
#[derive(Debug, Clone, Copy)]
pub struct VerbSnapshot {
    pub verb: &'static str,
    pub queue: LatencySnapshot,
    pub service: LatencySnapshot,
    pub write: LatencySnapshot,
}

/// All server-side telemetry state shared between connection threads
/// and the reporting verbs.
#[derive(Debug)]
pub struct ServerTelemetry {
    verbs: Vec<VerbPhases>,
}

impl Default for ServerTelemetry {
    fn default() -> ServerTelemetry {
        ServerTelemetry {
            verbs: (0..VERBS.len()).map(|_| VerbPhases::default()).collect(),
        }
    }
}

impl ServerTelemetry {
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
        assert_eq!(VERBS.len(), 7);
    }

    #[test]
    fn phases_record_independently() {
        let t = ServerTelemetry::default();
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
}
