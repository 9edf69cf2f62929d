//! Query-path observability (the quantities behind the paper's Figures
//! 7–10).
//!
//! Three pieces, all std-only:
//!
//! * [`counters!`](crate::counters) — a counter set declared once. From
//!   one list of names it generates a plain `Copy` struct of `u64` fields
//!   (what a caller reads) and a `Sync` tally of relaxed atomics (what
//!   threads bump), plus `named()`, the `(name, value)` iterator every
//!   report, exposition and window walks. No field list is copied by
//!   hand anywhere else.
//! * [`LookupTrace`] — a per-query record of everything the query processor
//!   did: signature coordinates probed against the ETI, stop q-grams
//!   skipped, physical ETI rows scanned, tid-list lengths, score-table
//!   traffic, candidates admitted past the min-hash filter, candidates
//!   pruned by the `fms_apx`-style score bound, examined candidates, how
//!   many of them were ruled out unread and how many needed a full `fms`
//!   evaluation, and the OSC short-circuit round. It is a plain `Copy` struct of
//!   scalar counters bumped on the query's own stack — collecting it costs
//!   a handful of register increments, so it is always on.
//! * [`MetricsRegistry`] — a `Sync` aggregate fed one [`LookupTrace`] per
//!   query: its [`LookupTally`], the query and short-circuit totals, and a
//!   fixed-bucket latency histogram. Worker threads of
//!   `FuzzyMatcher::lookup_batch` record into the same registry; relaxed
//!   ordering is sufficient because each counter is an independent
//!   monotone sum read only by [`MetricsRegistry::snapshot`].
//!
//! Relaxed ordering is right for monotone counters like these and wrong
//! for a flag that publishes other writes; a flag is an
//! `fm_store::lockorder::Flag`, which has no relaxed operations, and
//! clippy rejects any other `AtomicBool::new` (`clippy.toml`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{CoreError, Result};

/// Declare a set of monotone `u64` counters once.
///
/// ```
/// fm_core::counters! {
///     /// Docs for the snapshot struct.
///     pub struct Snapshot / Tally {
///         /// Docs for one counter.
///         pub frames: u64,
///         pub replies: u64,
///     }
///     // Optional: plain fields that are not counters (maxima, options).
///     extra {
///         pub slowest_us: u64,
///     }
/// }
///
/// let tally = Tally::default();
/// tally.add(&Snapshot { frames: 2, replies: 1, slowest_us: 90 });
/// tally.frames.add(1);
/// let snapshot = tally.snapshot();
/// assert_eq!(snapshot.slowest_us, 0, "extras are not tallied");
/// assert!(snapshot.named().eq([("frames", 3), ("replies", 1)]));
/// ```
///
/// generates `Snapshot` (`Copy`, `Default`, public fields in declaration
/// order, then the extras) with `named()`, and `Tally` (one public
/// [`Counter`] per counter) with `add(&Snapshot)` and `snapshot()`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $snap:ident / $tally:ident {
            $( $(#[$doc:meta])* pub $name:ident: u64, )+
        }
        $( extra { $( $(#[$xdoc:meta])* pub $xname:ident: $xty:ty, )+ } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$doc])* pub $name: u64, )+
            $($( $(#[$xdoc])* pub $xname: $xty, )+)?
        }

        impl $snap {
            /// Every counter as `(name, value)`, in declaration order —
            /// the one list reports, expositions and windows iterate.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($name), self.$name) ),+].into_iter()
            }
        }

        #[doc = concat!("Relaxed atomic tally of [`", stringify!($snap), "`]'s counters.")]
        #[derive(Debug, Default)]
        pub struct $tally {
            $( $(#[$doc])* pub $name: $crate::metrics::Counter, )+
        }

        impl $tally {
            /// Add every counter of `values`.
            pub fn add(&self, values: &$snap) {
                $( self.$name.add(values.$name); )+
            }

            /// The counters read one by one (extras at their defaults).
            #[must_use]
            #[allow(clippy::needless_update)]
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: self.$name.get(), )+
                    ..$snap::default()
                }
            }
        }
    };
}

counters! {
    /// Everything one K-fuzzy-match query did, layer by layer. See each
    /// field for the paper figure it supports. Summed over queries (the
    /// registry's [`MetricsSnapshot::totals`]) the counters are totals and
    /// the extras stay at their defaults.
    pub struct LookupTrace / LookupTally {
        /// Signature coordinates probed against the ETI — one logical ETI
        /// lookup each (the x-axis work unit of Figures 9–10).
        pub qgrams_probed: u64,
        /// Probes that hit a stop q-gram (NULL tid-list, §4.2.2) and were
        /// skipped.
        pub stop_qgrams: u64,
        /// Physical chunk rows scanned in the ETI B+-tree (a logical lookup
        /// touches one row per `TIDS_PER_CHUNK` chunk of its tid-list).
        pub eti_rows: u64,
        /// Total length of all non-stop tid-lists returned by the probes.
        pub tid_list_entries: u64,
        /// Tid-list entries absorbed into the score table (increments plus
        /// insertions) — the paper's "#tids processed per input tuple"
        /// (Figure 9).
        pub tids_processed: u64,
        /// Distinct tids admitted into the score table — the candidate set
        /// that survived the min-hash filter (Figure 8's "candidate set
        /// size").
        pub candidates: u64,
        /// Candidates never fetched because the score-derived
        /// `fms_apx`-style upper bound ruled them out (Figure 3 steps
        /// 11–13 early exits).
        pub apx_pruned: u64,
        /// Candidates verification examined — Figure 8's count of
        /// candidates fetched, the OSC rounds' included. Of these,
        /// `candidates_fetched − sketch_rejected` were read from the heap.
        pub candidates_fetched: u64,
        /// Examined candidates ruled out from their in-memory token
        /// sketches, with no heap read (DESIGN §4.2).
        pub sketch_rejected: u64,
        /// Full `fms` evaluations: examined tuples that were read,
        /// tokenized and run through the token DP. `candidates_fetched −
        /// sketch_rejected − fms_evals` is the number the verification
        /// bounds rejected from the raw row alone, against the K-th
        /// verified similarity (DESIGN §4.2).
        pub fms_evals: u64,
        /// Times the OSC fetching test fired (§4.3.2).
        pub osc_attempts: u64,
    }
    extra {
        /// Longest single tid-list seen.
        pub tid_list_max: u64,
        /// Index of the signature coordinate after which OSC
        /// short-circuited, or `None` if the query ran to the ordered
        /// verification phase.
        pub osc_round: Option<u32>,
        /// Wall-clock latency of the whole lookup, microseconds.
        pub latency_us: u64,
    }
}

impl LookupTrace {
    /// Whether the query was answered by a successful short circuit.
    #[must_use]
    pub fn osc_succeeded(&self) -> bool {
        self.osc_round.is_some()
    }

    /// Check the cross-field invariants every well-formed trace obeys.
    /// The property suite runs this on random queries; `deepcheck` runs it
    /// on a churned matcher.
    pub fn check_consistent(&self) -> Result<()> {
        let checks: [(&str, bool); 6] = [
            (
                "stop_qgrams <= qgrams_probed",
                self.stop_qgrams <= self.qgrams_probed,
            ),
            (
                "tids_processed <= tid_list_entries",
                self.tids_processed <= self.tid_list_entries,
            ),
            (
                "candidates <= tids_processed",
                self.candidates <= self.tids_processed,
            ),
            (
                "candidates_fetched <= candidates",
                self.candidates_fetched <= self.candidates,
            ),
            (
                "sketch_rejected + fms_evals <= candidates_fetched",
                self.sketch_rejected + self.fms_evals <= self.candidates_fetched,
            ),
            (
                "apx_pruned <= candidates",
                self.apx_pruned <= self.candidates,
            ),
        ];
        for (rule, ok) in checks {
            if !ok {
                return Err(CoreError::BadState(format!(
                    "inconsistent lookup trace: {rule} violated in {self:?}"
                )));
            }
        }
        Ok(())
    }
}

/// Number of latency histogram buckets: bucket `i` counts lookups with
/// `latency_us < 2^i`, the last bucket is a catch-all.
pub const LATENCY_BUCKETS: usize = 20;

/// A `Sync` monotone counter. Relaxed ordering: the value is an
/// independent sum, never used to order other memory operations.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the value to `n` if it is lower (a high-water mark).
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket power-of-two latency histogram (microsecond resolution).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [Counter; LATENCY_BUCKETS],
    count: Counter,
    sum_us: Counter,
}

impl LatencyHistogram {
    pub fn observe(&self, latency_us: u64) {
        let bucket = (u64::BITS - latency_us.leading_zeros()) as usize;
        self.buckets[bucket.min(LATENCY_BUCKETS - 1)].add(1);
        self.count.add(1);
        self.sum_us.add(latency_us);
    }

    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.get();
        }
        LatencySnapshot {
            buckets,
            count: self.count.get(),
            sum_us: self.sum_us.get(),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// `buckets[i]` counts lookups with `latency_us < 2^i` (last bucket:
    /// everything slower).
    pub buckets: [u64; LATENCY_BUCKETS],
    pub count: u64,
    pub sum_us: u64,
}

impl LatencySnapshot {
    /// Mean lookup latency in microseconds (0 when nothing was recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) in microseconds from the
    /// power-of-two buckets: locate the nearest-rank sample's bucket,
    /// then interpolate linearly by rank position inside it. Exact for
    /// bucket boundaries; off by at most the bucket width otherwise.
    /// Returns 0 when nothing was recorded.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based nearest rank.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let into = (rank - seen) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * into).round() as u64;
            }
            seen += n;
        }
        Self::bucket_bounds(LATENCY_BUCKETS - 1).1
    }

    /// Value range covered by bucket `i`: `[lo, hi]` inclusive. Bucket 0
    /// holds only 0; bucket `i` holds `[2^(i-1), 2^i)`; the last bucket
    /// is a catch-all reported at its nominal upper edge. Public so the
    /// telemetry exposition can emit the exact inclusive upper bound as
    /// a Prometheus `le` label.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Median lookup latency, microseconds.
    #[must_use]
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 95th-percentile lookup latency, microseconds.
    #[must_use]
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// 99th-percentile lookup latency, microseconds.
    #[must_use]
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// The matcher-wide metrics registry: the [`LookupTally`] of every
/// recorded query, the query and short-circuit totals, and the latency
/// histogram. [`MetricsRegistry::record`] is a handful of relaxed
/// `fetch_add`s — the whole observability layer's per-query overhead.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    lookups: Counter,
    osc_short_circuits: Counter,
    totals: LookupTally,
    latency: LatencyHistogram,
}

impl MetricsRegistry {
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fold one finished query into the aggregate.
    pub fn record(&self, trace: &LookupTrace) {
        self.lookups.add(1);
        self.totals.add(trace);
        if trace.osc_succeeded() {
            self.osc_short_circuits.add(1);
        }
        self.latency.observe(trace.latency_us);
    }

    /// A consistent-enough copy for reporting: each counter is read
    /// atomically; the set is not a single atomic cut, which is fine for
    /// monotone sums read at quiescent points (tests snapshot after the
    /// batch joins).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            lookups: self.lookups.get(),
            osc_short_circuits: self.osc_short_circuits.get(),
            totals: self.totals.snapshot(),
            latency: self.latency.snapshot(),
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries recorded.
    pub lookups: u64,
    /// Queries answered by a successful OSC short circuit.
    pub osc_short_circuits: u64,
    /// Every [`LookupTrace`] counter summed over the recorded queries.
    pub totals: LookupTrace,
    pub latency: LatencySnapshot,
}

impl MetricsSnapshot {
    /// Every scalar counter as `(name, value)`: `lookups`, the trace
    /// counters, `osc_short_circuits` — what the `stats` reply, the
    /// Prometheus exposition and the CLI report print.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        std::iter::once(("lookups", self.lookups))
            .chain(self.totals.named())
            .chain(std::iter::once((
                "osc_short_circuits",
                self.osc_short_circuits,
            )))
    }
}

/// Report from [`MetricsSnapshot::check_invariants`] (run by
/// `cargo xtask deepcheck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsCheck {
    /// Queries recorded in the registry.
    pub lookups: u64,
    /// Exact `fms` evaluations across all of them.
    pub fms_evals: u64,
    /// Events in the latency histogram (must equal `lookups`).
    pub histogram_events: u64,
}

impl MetricsSnapshot {
    /// Validate the aggregate against the same monotone relationships a
    /// single trace obeys (sums of per-query invariants), plus histogram
    /// conservation: every recorded query landed in exactly one bucket.
    pub fn check_invariants(&self) -> Result<MetricsCheck> {
        self.totals.check_consistent()?;
        if self.osc_short_circuits > self.totals.osc_attempts {
            return Err(CoreError::BadState(format!(
                "metrics registry records {} short circuits over only {} \
                 attempts",
                self.osc_short_circuits, self.totals.osc_attempts
            )));
        }
        if self.osc_short_circuits > self.lookups {
            return Err(CoreError::BadState(format!(
                "metrics registry records {} short circuits over {} lookups",
                self.osc_short_circuits, self.lookups
            )));
        }
        if self.latency.count != self.lookups {
            return Err(CoreError::BadState(format!(
                "latency histogram holds {} events for {} lookups",
                self.latency.count, self.lookups
            )));
        }
        let bucketed: u64 = self.latency.buckets.iter().sum();
        if bucketed != self.latency.count {
            return Err(CoreError::BadState(format!(
                "latency histogram buckets sum to {bucketed}, count says {}",
                self.latency.count
            )));
        }
        Ok(MetricsCheck {
            lookups: self.lookups,
            fms_evals: self.totals.fms_evals,
            histogram_events: self.latency.count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> LookupTrace {
        LookupTrace {
            qgrams_probed: 12,
            stop_qgrams: 2,
            eti_rows: 14,
            tid_list_entries: 40,
            tid_list_max: 9,
            tids_processed: 30,
            candidates: 8,
            apx_pruned: 5,
            candidates_fetched: 5,
            sketch_rejected: 2,
            fms_evals: 3,
            osc_attempts: 1,
            osc_round: Some(4),
            latency_us: 123,
        }
    }

    #[test]
    fn trace_consistency_accepts_well_formed() {
        sample_trace().check_consistent().unwrap();
        LookupTrace::default().check_consistent().unwrap();
    }

    #[test]
    fn trace_consistency_rejects_impossible_counts() {
        let mut t = sample_trace();
        t.fms_evals = t.candidates_fetched + 1;
        let err = t.check_consistent().unwrap_err().to_string();
        assert!(err.contains("fms_evals"), "got: {err}");

        let mut t = sample_trace();
        t.sketch_rejected += 1;
        let err = t.check_consistent().unwrap_err().to_string();
        assert!(err.contains("sketch_rejected"), "got: {err}");

        let mut t = sample_trace();
        t.candidates = t.tids_processed + 1;
        assert!(t.check_consistent().is_err());
    }

    #[test]
    fn registry_aggregates_traces_and_passes_invariants() {
        let registry = MetricsRegistry::new();
        let t = sample_trace();
        registry.record(&t);
        registry.record(&LookupTrace::default());
        let snap = registry.snapshot();
        assert_eq!(snap.lookups, 2);
        // One list drives both sides: every trace counter reaches the
        // totals under its own name, and only the extras are left out.
        assert!(snap.totals.named().eq(t.named()));
        assert_eq!(
            snap.totals,
            LookupTrace {
                tid_list_max: 0,
                osc_round: None,
                latency_us: 0,
                ..t
            }
        );
        let names: Vec<&str> = snap.named().map(|(name, _)| name).collect();
        assert_eq!(names.len(), 13);
        assert_eq!(names.first(), Some(&"lookups"));
        assert_eq!(names.last(), Some(&"osc_short_circuits"));
        assert_eq!(snap.osc_short_circuits, 1);
        assert_eq!(snap.latency.count, 2);
        assert_eq!(snap.latency.sum_us, t.latency_us);
        let check = snap.check_invariants().unwrap();
        assert_eq!(check.lookups, 2);
        assert_eq!(check.histogram_events, 2);
    }

    #[test]
    fn registry_is_sync_across_threads() {
        let registry = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        registry.record(&sample_trace());
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.lookups, 4000);
        assert_eq!(
            snap.totals.qgrams_probed,
            4000 * sample_trace().qgrams_probed
        );
        assert_eq!(snap.latency.count, 4000);
        snap.check_invariants().unwrap();
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1 (1 < 2)
        h.observe(900); // bucket 10 (900 < 1024)
        h.observe(u64::MAX); // clamped into the last bucket
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.count, 4);
    }

    #[test]
    fn quantiles_of_empty_snapshot_are_zero() {
        let snap = LatencySnapshot::default();
        assert_eq!(snap.p50_us(), 0);
        assert_eq!(snap.p95_us(), 0);
        assert_eq!(snap.p99_us(), 0);
        assert_eq!(snap.quantile_us(0.0), 0);
        assert_eq!(snap.quantile_us(1.0), 0);
        assert_eq!(snap.mean_us(), 0.0);
    }

    #[test]
    fn quantiles_of_single_bucket_stay_inside_it() {
        // 100 samples, all in bucket 7 ([64, 127] µs): every quantile
        // interpolates within that one bucket's bounds.
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.observe(100);
        }
        let snap = h.snapshot();
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            let v = snap.quantile_us(q);
            assert!((64..=127).contains(&v), "q={q} escaped the bucket: {v}");
        }
        // Rank interpolation is monotone inside the bucket too.
        assert!(snap.p50_us() <= snap.p95_us());
        assert!(snap.p95_us() <= snap.p99_us());
    }

    #[test]
    fn single_sample_quantiles_all_agree() {
        let h = LatencyHistogram::default();
        h.observe(900); // bucket 10: [512, 1023]
        let snap = h.snapshot();
        let p50 = snap.p50_us();
        assert_eq!(p50, snap.p95_us());
        assert_eq!(p50, snap.p99_us());
        assert!((512..=1023).contains(&p50), "got {p50}");
    }

    #[test]
    fn tail_quantiles_find_the_slow_bucket() {
        // 95 fast lookups (~100 µs) and 5 slow ones (~50 ms): the median
        // sits in the fast bucket, the p99 in the slow one.
        let h = LatencyHistogram::default();
        for _ in 0..95 {
            h.observe(100);
        }
        for _ in 0..5 {
            h.observe(50_000);
        }
        let snap = h.snapshot();
        assert!((64..=127).contains(&snap.p50_us()), "p50={}", snap.p50_us());
        assert!(snap.p99_us() >= 32_768, "p99={}", snap.p99_us());
        assert!(snap.p50_us() <= snap.p95_us() && snap.p95_us() <= snap.p99_us());
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = LatencyHistogram::default();
        h.observe(10);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_us(-3.0), snap.quantile_us(0.0));
        assert_eq!(snap.quantile_us(7.5), snap.quantile_us(1.0));
    }

    #[test]
    fn check_catches_dropped_histogram_updates() {
        let registry = MetricsRegistry::new();
        registry.record(&sample_trace());
        let mut snap = registry.snapshot();
        snap.lookups += 1; // simulate a lost histogram observation
        let err = snap.check_invariants().unwrap_err().to_string();
        assert!(err.contains("histogram"), "got: {err}");
    }
}
