//! What the benchmark measures: the workloads and every metric name with
//! its unit, direction and regression bound. `/BENCHMARK.json` repeats
//! these tables for the driver; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics, each with the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("throughput_per_s", "1/s", Better::Higher), 0.25),
    (m("lookup_p50_us", "us", Better::Lower), 0.25),
    (m("lookup_p99_us", "us", Better::Lower), 0.25),
    (m("accuracy", "fraction", Better::Higher), 0.03),
    (m("space_amp", "ratio", Better::Lower), 0.05),
    (m("peak_rss_mb", "MB", Better::Lower), 0.10),
];

/// Per-layer metrics, prefix = the crate that owns the cost. A value of 0
/// means the workload does not enter that layer (no server on the direct
/// workloads, no writes on the read-only ones).
pub const PER_LAYER: &[Metric] = &[
    m("text.tokens_per_tuple", "count", Better::Lower),
    m("text.tokenize_ns", "ns", Better::Lower),
    m("text.qgram_set_ns", "ns", Better::Lower),
    m("text.minhash_signature_ns", "ns", Better::Lower),
    m("text.band_keys_ns", "ns", Better::Lower),
    m("text.edit_distance_ns", "ns", Better::Lower),
    m("store.file_pages", "pages", Better::Lower),
    m("store.page_requests_per_lookup", "count", Better::Lower),
    m("store.pool_hit_ratio", "ratio", Better::Higher),
    m("store.pages_read_per_lookup", "count", Better::Lower),
    m("store.evictions_per_lookup", "count", Better::Lower),
    m("store.btree_get_us", "us", Better::Lower),
    m("store.btree_get_eti_us", "us", Better::Lower),
    m("store.table_get_us", "us", Better::Lower),
    m("store.pages_written_per_write", "count", Better::Lower),
    m("store.wal_bytes_per_write", "bytes", Better::Lower),
    m("store.write_amp", "ratio", Better::Lower),
    m("store.pages_per_flush", "count", Better::Lower),
    m("store.commit_p50_ms", "ms", Better::Lower),
    m("store.reopen_ms", "ms", Better::Lower),
    m("core.build_s", "s", Better::Lower),
    m("core.build_tuples_per_s", "1/s", Better::Higher),
    m("core.eti_entries", "count", Better::Lower),
    m("core.lookup_us", "us", Better::Lower),
    m("core.qgrams_probed_per_lookup", "count", Better::Lower),
    m("core.eti_rows_per_lookup", "count", Better::Lower),
    m("core.tid_list_max", "count", Better::Lower),
    m("core.tids_processed_per_lookup", "count", Better::Lower),
    m("core.candidates_per_lookup", "count", Better::Lower),
    m("core.fetches_per_lookup", "count", Better::Lower),
    m("core.fms_evals_per_lookup", "count", Better::Lower),
    m("core.osc_success_ratio", "ratio", Better::Higher),
    m("core.fetch_useful_ratio", "ratio", Better::Higher),
    m("core.eti_lookup_us", "us", Better::Lower),
    m("core.fetch_reference_us", "us", Better::Lower),
    m("core.fms_us", "us", Better::Lower),
    m("core.residual_us", "us", Better::Lower),
    m("core.insert_reference_us", "us", Better::Lower),
    m("core.delete_reference_us", "us", Better::Lower),
    m("core.write_p99_us", "us", Better::Lower),
    m("server.inside_us", "us", Better::Lower),
    m("server.transport_us", "us", Better::Lower),
    m("server.queue_wait_us", "us", Better::Lower),
    m("server.service_us", "us", Better::Lower),
    m("server.write_us", "us", Better::Lower),
    m("server.overhead_us", "us", Better::Lower),
    m("server.max_queue_depth", "count", Better::Lower),
    m("server.batched_lookups", "count", Better::Higher),
    m("server.parse_request_ns", "ns", Better::Lower),
    m("server.encode_reply_ns", "ns", Better::Lower),
    m("bench.datagen_s", "s", Better::Lower),
    m("bench.trace_overhead_pct", "%", Better::Lower),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client connections against an in-process `fm_server::Server`.
    Served,
    /// One thread calling `FuzzyMatcher::lookup`.
    Direct,
    /// One thread on a fixed 80/10/10 lookup/insert/delete schedule.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Reference tuples.
    pub tuples: usize,
    /// Buffer-pool frames the workload runs with (the build always uses
    /// [`BUILD_POOL_FRAMES`]).
    pub pool_frames: usize,
    /// Distinct dirty inputs generated; loops wrap around when they run out.
    pub inputs: usize,
    /// Untimed lookups at the end of every set-up.
    pub warmup: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Inputs of the traced run's layer replay (a fixed count, so the
    /// per-lookup counters repeat exactly for a seed).
    pub replay: usize,
    /// `correct` is false when top-1 accuracy falls below this.
    pub accuracy_floor: f64,
}

/// `run_seconds` of `/BENCHMARK.json`, and `--seconds` when not given.
pub const RUN_SECONDS: f64 = 15.0;

/// Pool for builds and for every workload whose working set should fit:
/// 8,192 frames = 64 MiB against a 26 MB file at 100,000 tuples.
pub const BUILD_POOL_FRAMES: usize = 8192;

/// Closed-loop clients (and server workers = replicas) on served workloads.
pub const MAX_CLIENTS: usize = 2;

/// `mixed_rw` runs `Database::flush` after every this-many writes.
pub const WRITES_PER_FLUSH: usize = 25;

/// Inputs of the served-vs-in-process answer check.
pub const SERVED_SAMPLE: usize = 200;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "served_large",
        why: "100k-tuple file, pool fits, 2 closed-loop clients via fm-server: core probe/verify dominates, server share <5%",
        kind: Kind::Served,
        tuples: 100_000,
        pool_frames: BUILD_POOL_FRAMES,
        inputs: 16_384,
        warmup: 300,
        setup_reps: 3,
        replay: 400,
        accuracy_floor: 0.84,
    },
    Workload {
        name: "served_small",
        why: "1k-tuple dictionary via fm-server: lookups are ~200us, so framing/JSON/queue is the largest share it ever gets",
        kind: Kind::Served,
        tuples: 1_000,
        pool_frames: BUILD_POOL_FRAMES,
        inputs: 32_768,
        warmup: 2_000,
        setup_reps: 5,
        replay: 1_000,
        accuracy_floor: 0.84,
    },
    Workload {
        name: "direct_cold",
        why: "100k-tuple file behind a 128-frame pool (4% of it), one thread in-process: exercises pool miss/evict/read, bypasses fm-server",
        kind: Kind::Direct,
        tuples: 100_000,
        pool_frames: 128,
        inputs: 16_384,
        warmup: 200,
        setup_reps: 3,
        replay: 400,
        accuracy_floor: 0.84,
    },
    Workload {
        name: "mixed_rw",
        why: "100k tuples, one thread, 80% lookup 10% insert 10% delete, flush every 25th write: maintenance and checkpoints beside reads",
        kind: Kind::Mixed,
        tuples: 100_000,
        pool_frames: BUILD_POOL_FRAMES,
        inputs: 16_384,
        warmup: 200,
        setup_reps: 3,
        replay: 400,
        accuracy_floor: 0.84,
    },
];

impl Workload {
    /// `--smoke`: the same shapes at sizes a test can afford.
    pub fn smoke(mut self) -> Workload {
        self.tuples = self.tuples.min(2_000);
        self.pool_frames = self.pool_frames.min(1_024);
        self.inputs = 512;
        self.warmup = 20;
        self.setup_reps = 1;
        self.replay = 40;
        self
    }
}
