//! Continuous telemetry: rolling time-series windows and Prometheus
//! text exposition over the [`crate::metrics`] primitives.
//!
//! [`crate::metrics`] answers "what happened since boot"; this module
//! answers "what is happening *right now*". Three std-only pieces:
//!
//! * [`Ring`] — the one fixed-capacity ring of the newest published
//!   values: a relaxed `fetch_add` claims a slot, a `try_lock` guards it,
//!   so a writer never blocks behind a reader — a contended push is
//!   dropped and counted instead. The flight recorder keeps its recent
//!   and slow traces in two of them, the server sampler its
//!   [`WindowSnapshot`]s (counter deltas, gauge samples and per-verb
//!   latency-histogram deltas of one sampling window each), and the
//!   server's slow-query log its lines.
//! * Delta/merge helpers ([`histogram_delta`], [`histogram_merge`]) that
//!   derive windowed quantiles from cumulative [`LatencySnapshot`]s. A
//!   window's histogram delta is itself a `LatencySnapshot`, so all the
//!   quantile machinery applies to "the last 10 seconds" exactly as it
//!   does to "since boot".
//! * [`PromText`] — a Prometheus text-exposition writer for counters,
//!   gauges, and histograms with cumulative `le` buckets, plus
//!   [`validate_exposition`], which re-checks a rendered exposition's
//!   structural invariants (bucket monotonicity, `+Inf` equals
//!   `_count`, `_sum` present). CI runs the validator against a live
//!   scrape.
//!
//! The power-of-two buckets of [`crate::metrics::LatencyHistogram`] map
//! *exactly* onto Prometheus cumulative buckets: bucket `i` counts
//! samples `< 2^i` µs, i.e. `≤ 2^i − 1`, so the exposition emits
//! `le="0"`, `le="1"`, `le="3"`, … `le="2^18−1"`, `le="+Inf"` with no
//! rebinning error, and `_count`/`_sum` equal the registry totals.
//!
//! Like `metrics` and `tracing`, this module uses relaxed atomics: the
//! ring cursor and drop counter are independent monotone values, never
//! used to order other memory operations; the slot mutex publishes the
//! value. (A relaxed *flag* would be a bug; flags are
//! `fm_store::lockorder::Flag`, which has no relaxed operations.)

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::metrics::{LatencySnapshot, LATENCY_BUCKETS};

/// A fixed-capacity ring of the most recent published values.
///
/// Any number of writers and readers. A writer claims the next slot with
/// a relaxed `fetch_add` and fills it under `try_lock`; if a reader holds
/// the slot at that instant the value is dropped and counted — a writer
/// never blocks on an observer. A slot keeps its value between pushes, so
/// [`Ring::push_with`] can overwrite it in place (the flight recorder
/// reuses each slot's span buffer instead of allocating per trace).
#[derive(Debug)]
pub struct Ring<T> {
    /// `(seq, value)`; `seq == 0` marks a slot never written or cleared.
    slots: Box<[Mutex<(u64, T)>]>,
    next: AtomicU64,
    dropped: AtomicU64,
}

impl<T: Clone + Default> Ring<T> {
    /// A ring keeping the newest `capacity` values (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        let slots = (0..capacity.max(1))
            .map(|_| Mutex::new((0, T::default())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Values ever pushed (including any dropped on contention).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Pushes dropped because a reader (or a later writer) held the slot.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publish one value over the oldest slot: `fill` receives the
    /// value's 1-based sequence number — contiguous across wraparound, so
    /// readers can detect gaps — and the slot's previous value to
    /// overwrite. Returns the sequence number, whether or not the value
    /// landed.
    pub fn push_with(&self, fill: impl FnOnce(u64, &mut T)) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[((seq - 1) % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            // A writer that lapped this one already filled the slot with a
            // newer value; keep it.
            Some(mut held) if held.0 < seq => {
                held.0 = seq;
                fill(seq, &mut held.1);
            }
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }

    /// The newest `n` retained values, oldest first. Fewer are returned
    /// while the ring is still filling (or when pushes were dropped).
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<T> {
        let mut held: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let slot = slot.lock();
                (slot.0 != 0).then(|| slot.clone())
            })
            .collect();
        held.sort_by_key(|&(seq, _)| seq);
        let skip = held.len().saturating_sub(n);
        held.into_iter()
            .skip(skip)
            .map(|(_, value)| value)
            .collect()
    }

    /// Forget every retained value (the counters are kept).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.lock().0 = 0;
        }
    }
}

/// Everything one sampling window observed: counter deltas over the
/// window, point-in-time gauge samples, and per-verb latency-histogram
/// deltas. Names are owned strings so callers can build them
/// (`store_`-prefixed counters, one histogram per verb).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSnapshot {
    /// 1-based window number: the [`Ring`] sequence number it was
    /// published under, so readers can detect gaps.
    pub seq: u64,
    /// Window start, microseconds since the sampler's epoch.
    pub start_us: u64,
    /// Actual window duration (the sampler's sleep is inexact; rates
    /// divide by this, not by the nominal window).
    pub dur_us: u64,
    /// Monotone counter deltas across the window.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauge values sampled at window close.
    pub gauges: Vec<(String, f64)>,
    /// Per-verb service-latency histogram deltas for the window.
    pub verbs: Vec<(String, LatencySnapshot)>,
}

impl Ring<WindowSnapshot> {
    /// Publish one sampler window, numbering it with its sequence number.
    pub fn push_window(&self, window: WindowSnapshot) -> u64 {
        self.push_with(|seq, slot| *slot = WindowSnapshot { seq, ..window })
    }
}

/// Per-field saturating difference of two cumulative histogram
/// snapshots: the histogram of everything observed between `prev` and
/// `cur`. Saturating, so a reset (or torn read) degrades to a partial
/// window instead of an underflow panic.
#[must_use]
pub fn histogram_delta(cur: &LatencySnapshot, prev: &LatencySnapshot) -> LatencySnapshot {
    let mut buckets = [0u64; LATENCY_BUCKETS];
    for (out, (c, p)) in buckets
        .iter_mut()
        .zip(cur.buckets.iter().zip(prev.buckets.iter()))
    {
        *out = c.saturating_sub(*p);
    }
    LatencySnapshot {
        buckets,
        count: cur.count.saturating_sub(prev.count),
        sum_us: cur.sum_us.saturating_sub(prev.sum_us),
    }
}

/// Sum histogram snapshots (e.g. one verb's deltas over the last N
/// windows) into one, so windowed quantiles come from the same
/// [`LatencySnapshot::quantile_us`] machinery as cumulative ones.
#[must_use]
pub fn histogram_merge<'a>(
    snapshots: impl IntoIterator<Item = &'a LatencySnapshot>,
) -> LatencySnapshot {
    let mut merged = LatencySnapshot::default();
    for snap in snapshots {
        for (out, b) in merged.buckets.iter_mut().zip(snap.buckets.iter()) {
            *out = out.saturating_add(*b);
        }
        merged.count = merged.count.saturating_add(snap.count);
        merged.sum_us = merged.sum_us.saturating_add(snap.sum_us);
    }
    merged
}

// ------------------------------------------------- Prometheus exposition

/// Incremental Prometheus text-exposition writer.
///
/// Emits `# HELP`/`# TYPE` headers once per family (labelled series of
/// one family may be appended across multiple calls), counters with the
/// conventional `_total` suffix left to the caller, and histograms with
/// cumulative `le` buckets derived exactly from the power-of-two
/// [`LatencySnapshot`] bins.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    families: Vec<String>,
}

impl PromText {
    #[must_use]
    pub fn new() -> PromText {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.families.iter().any(|f| f == name) {
            return;
        }
        self.families.push(name.to_string());
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        self.out.push_str(&render_labels(labels));
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// One monotone counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        self.sample(name, labels, &value.to_string());
    }

    /// One gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.header(name, help, "gauge");
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "0".to_string()
        };
        self.sample(name, labels, &rendered);
    }

    /// One histogram series: cumulative `le` buckets (inclusive upper
    /// bounds `0, 1, 3, …, 2^(B−1) − 1`, then `+Inf`), `_sum`, and
    /// `_count`. The `+Inf` bucket and `_count` are the snapshot's
    /// total count by construction.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: &LatencySnapshot,
    ) {
        self.header(name, help, "histogram");
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate().take(LATENCY_BUCKETS - 1) {
            cumulative += n;
            let le = LatencySnapshot::bucket_bounds(i).1.to_string();
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket_name, &with_le, &cumulative.to_string());
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.sample(&bucket_name, &with_inf, &snap.count.to_string());
        self.sample(&format!("{name}_sum"), labels, &snap.sum_us.to_string());
        self.sample(&format!("{name}_count"), labels, &snap.count.to_string());
    }

    /// The finished exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// What [`validate_exposition`] measured on its way to a verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Sample lines (non-comment, non-blank).
    pub samples: usize,
    /// Distinct histogram series (family × label set) validated.
    pub histogram_series: usize,
}

/// Structurally validate a Prometheus text exposition: every sample
/// line parses, every histogram series has monotonically non-decreasing
/// cumulative buckets ending in `+Inf`, the `+Inf` bucket equals
/// `_count`, and `_sum` is present. This is the check CI runs against a
/// live scrape of the `metrics` verb.
pub fn validate_exposition(text: &str) -> Result<ExpositionSummary, String> {
    struct Series {
        buckets: Vec<(f64, f64)>, // (le, cumulative count)
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut series: Vec<(String, Series)> = Vec::new();
    let mut samples = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, labels, value) =
            parse_sample(line).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
        samples += 1;
        let (family, role) = if let Some(f) = name.strip_suffix("_bucket") {
            (f, "bucket")
        } else if let Some(f) = name.strip_suffix("_sum") {
            (f, "sum")
        } else if let Some(f) = name.strip_suffix("_count") {
            (f, "count")
        } else {
            continue; // plain counter/gauge: nothing more to check
        };
        let le = labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.clone());
        let key_labels: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let key = format!("{family}|{}", key_labels.join(","));
        if role == "bucket" && le.is_none() {
            // A `_bucket`-suffixed counter without `le` is not a
            // histogram bucket; leave it alone.
            continue;
        }
        let idx = match series.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                series.push((
                    key.clone(),
                    Series {
                        buckets: Vec::new(),
                        sum: None,
                        count: None,
                    },
                ));
                series.len() - 1
            }
        };
        let entry = &mut series[idx].1;
        match role {
            "bucket" => {
                let le = le.unwrap_or_default();
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {}: bad le {le:?}", lineno + 1))?
                };
                entry.buckets.push((bound, value));
            }
            "sum" => entry.sum = Some(value),
            _ => entry.count = Some(value),
        }
    }
    let mut histogram_series = 0usize;
    for (key, s) in &mut series {
        if s.buckets.is_empty() {
            continue; // `_sum`/`_count`-looking names without buckets
        }
        histogram_series += 1;
        s.buckets
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut prev = -1.0f64;
        for &(le, v) in &s.buckets {
            if v < prev {
                return Err(format!(
                    "histogram {key}: bucket le={le} count {v} < previous {prev} \
                     (cumulative buckets must be non-decreasing)"
                ));
            }
            prev = v;
        }
        let Some(&(last_le, inf_count)) = s.buckets.last() else {
            continue;
        };
        if last_le.is_finite() {
            return Err(format!("histogram {key}: missing le=\"+Inf\" bucket"));
        }
        let Some(count) = s.count else {
            return Err(format!("histogram {key}: missing _count"));
        };
        if (inf_count - count).abs() > 1e-9 {
            return Err(format!(
                "histogram {key}: +Inf bucket {inf_count} != _count {count}"
            ));
        }
        if s.sum.is_none() {
            return Err(format!("histogram {key}: missing _sum"));
        }
    }
    Ok(ExpositionSummary {
        samples,
        histogram_series,
    })
}

/// One parsed sample line: `(name, labels, value)`.
type Sample = (String, Vec<(String, String)>, f64);

/// Split one sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label block".to_string())?;
            if close < brace {
                return Err("unclosed label block".to_string());
            }
            (&line[..brace], &line[close + 1..])
        }
        None => match line.find(char::is_whitespace) {
            Some(space) => (&line[..space], &line[space..]),
            None => return Err("sample line has no value".to_string()),
        },
    };
    let name = name_part.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    let labels = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').unwrap_or(brace);
            parse_labels(&line[brace + 1..close])?
        }
        None => Vec::new(),
    };
    let value = rest
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("bad sample value {:?}", rest.trim()))?;
    Ok((name.to_string(), labels, value))
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(' ') | Some(',')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} has no quoted value"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        for c in chars.by_ref() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("label {key:?} has an unterminated value"));
        }
        labels.push((key.trim().to_string(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencyHistogram;

    fn window(seq_hint: u64, counter: u64) -> WindowSnapshot {
        WindowSnapshot {
            seq: 0, // push assigns
            start_us: seq_hint * 1_000_000,
            dur_us: 1_000_000,
            counters: vec![("frames".to_string(), counter)],
            gauges: vec![("queue_len".to_string(), 2.0)],
            verbs: Vec::new(),
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_windows_in_order() {
        let series = Ring::<WindowSnapshot>::with_capacity(4);
        for i in 0..10 {
            series.push_window(window(i, i));
        }
        assert_eq!(series.pushed(), 10);
        assert_eq!(series.dropped(), 0);
        let last = series.recent(10);
        assert_eq!(last.len(), 4, "ring keeps only its capacity");
        let seqs: Vec<u64> = last.iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "newest windows, oldest first");
        // A smaller ask trims from the old end.
        let two = series.recent(2);
        assert_eq!(two.iter().map(|w| w.seq).collect::<Vec<_>>(), vec![9, 10],);
        // Window payloads survive the wraparound intact.
        assert_eq!(last[3].counters, vec![("frames".to_string(), 9)]);
        assert_eq!(last[3].gauges, vec![("queue_len".to_string(), 2.0)]);
    }

    #[test]
    fn ring_seq_is_contiguous_across_wraparound() {
        let series = Ring::<WindowSnapshot>::with_capacity(3);
        for i in 0..7 {
            series.push_window(window(i, i));
        }
        let seqs: Vec<u64> = series.recent(3).iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        for pair in seqs.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "no gaps without contention");
        }
    }

    #[test]
    fn zero_traffic_window_deltas_are_zero_not_garbage() {
        let h = LatencyHistogram::default();
        h.observe(100);
        h.observe(5_000);
        let before = h.snapshot();
        // No traffic between the two sampler ticks.
        let after = h.snapshot();
        let delta = histogram_delta(&after, &before);
        assert_eq!(delta.count, 0);
        assert_eq!(delta.sum_us, 0);
        assert!(delta.buckets.iter().all(|&b| b == 0));
        assert_eq!(delta.quantile_us(0.99), 0, "empty window has no quantile");
        assert_eq!(delta.mean_us(), 0.0);
    }

    #[test]
    fn histogram_delta_isolates_the_window() {
        let h = LatencyHistogram::default();
        h.observe(100);
        let before = h.snapshot();
        h.observe(100);
        h.observe(100);
        h.observe(9_000);
        let after = h.snapshot();
        let delta = histogram_delta(&after, &before);
        assert_eq!(delta.count, 3);
        assert_eq!(delta.sum_us, 100 + 100 + 9_000);
        // The delta's median is in the 100µs bucket even though the
        // cumulative snapshot now holds older samples too.
        assert!(
            (64..=127).contains(&delta.p50_us()),
            "p50={}",
            delta.p50_us()
        );
    }

    #[test]
    fn histogram_delta_saturates_on_counter_reset() {
        let h = LatencyHistogram::default();
        h.observe(10);
        let was_bigger = h.snapshot();
        let fresh = LatencySnapshot::default();
        let delta = histogram_delta(&fresh, &was_bigger);
        assert_eq!(delta.count, 0);
        assert_eq!(delta.sum_us, 0);
    }

    #[test]
    fn merge_of_window_deltas_matches_cumulative() {
        let h = LatencyHistogram::default();
        let mut cuts = vec![h.snapshot()];
        for us in [10u64, 100, 1_000, 50_000] {
            h.observe(us);
            cuts.push(h.snapshot());
        }
        let deltas: Vec<LatencySnapshot> = cuts
            .windows(2)
            .map(|pair| histogram_delta(&pair[1], &pair[0]))
            .collect();
        let merged = histogram_merge(deltas.iter());
        assert_eq!(merged, h.snapshot(), "sum of window deltas == cumulative");
    }

    #[test]
    fn quantiles_at_exact_bucket_edges() {
        // Samples pinned to exact power-of-two edges: 2^i lands in
        // bucket i+1 (the histogram counts `latency < 2^(i+1)`), and the
        // quantile must stay inside that bucket's inclusive bounds.
        for i in 3..10u32 {
            let edge = 1u64 << i;
            let h = LatencyHistogram::default();
            for _ in 0..100 {
                h.observe(edge);
            }
            let snap = h.snapshot();
            let (lo, hi) = LatencySnapshot::bucket_bounds(i as usize + 1);
            assert_eq!((lo, hi), (edge, 2 * edge - 1));
            for q in [0.0, 0.5, 0.99, 1.0] {
                let v = snap.quantile_us(q);
                assert!(
                    (lo..=hi).contains(&v),
                    "edge {edge}, q {q}: {v} escaped [{lo}, {hi}]"
                );
            }
        }
        // One µs below the edge falls in the previous bucket.
        let h = LatencyHistogram::default();
        h.observe(63);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[6], 1, "63 < 2^6 lands in bucket 6");
        assert!((32..=63).contains(&snap.quantile_us(0.5)));
    }

    #[test]
    fn push_is_safe_under_concurrent_readers() {
        let series = std::sync::Arc::new(Ring::<WindowSnapshot>::with_capacity(8));
        std::thread::scope(|scope| {
            let writer = std::sync::Arc::clone(&series);
            scope.spawn(move || {
                for i in 0..500 {
                    writer.push_window(window(i, i));
                }
            });
            for _ in 0..3 {
                let reader = std::sync::Arc::clone(&series);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let windows = reader.recent(8);
                        for pair in windows.windows(2) {
                            assert!(pair[0].seq < pair[1].seq);
                        }
                    }
                });
            }
        });
        // Every push either landed or was counted as dropped.
        assert_eq!(series.pushed(), 500);
        assert!(series.recent(8).len() <= 8);
    }

    #[test]
    fn a_push_into_a_held_slot_is_dropped_and_counted() {
        let ring = Ring::<u64>::with_capacity(2);
        ring.push_with(|_, slot| *slot = 10);
        {
            // A reader holds the slot the next push claims.
            let _held = ring.slots[1].lock();
            assert_eq!(
                ring.push_with(|_, slot| *slot = 20),
                2,
                "the sequence number is still claimed"
            );
        }
        assert_eq!((ring.pushed(), ring.dropped()), (2, 1));
        assert_eq!(ring.recent(8), vec![10]);
    }

    #[test]
    fn a_lapped_writer_keeps_the_newer_value() {
        // Seq 3 reuses seq 1's slot; when the writer of seq 1 finally takes
        // the lock it finds seq 3 there and must not overwrite it.
        let ring = Ring::<u64>::with_capacity(2);
        *ring.slots[0].lock() = (3, 30);
        ring.push_with(|_, slot| *slot = 10);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.recent(8), vec![30]);
        ring.clear();
        assert!(ring.recent(8).is_empty());
        assert_eq!(ring.push_with(|_, slot| *slot = 40), 2);
        assert_eq!(ring.recent(8), vec![40]);
    }

    #[test]
    fn prom_text_renders_and_validates() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 100, 5_000, 1 << 30] {
            h.observe(us);
        }
        let mut prom = PromText::new();
        prom.counter("fm_lookups_total", "Queries recorded.", &[], 5);
        prom.gauge("fm_queue_len", "Queued jobs.", &[], 3.0);
        prom.histogram("fm_latency_us", "Lookup latency.", &[], &h.snapshot());
        prom.histogram(
            "fm_phase_us",
            "Per-verb phase time.",
            &[("verb", "lookup"), ("phase", "service")],
            &h.snapshot(),
        );
        prom.histogram(
            "fm_phase_us",
            "Per-verb phase time.",
            &[("verb", "lookup"), ("phase", "queue")],
            &h.snapshot(),
        );
        let text = prom.finish();
        // One header per family even with two labelled series.
        assert_eq!(text.matches("# TYPE fm_phase_us histogram").count(), 1);
        assert!(text.contains("fm_latency_us_bucket{le=\"0\"} 1"));
        assert!(text.contains("fm_latency_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("fm_latency_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("fm_latency_us_count 5"));
        let summary = validate_exposition(&text).expect("valid exposition");
        assert_eq!(summary.histogram_series, 3);
        assert!(summary.samples > 3 * LATENCY_BUCKETS);
    }

    #[test]
    fn validator_rejects_structural_violations() {
        // Non-monotone cumulative buckets.
        let bad = "x_bucket{le=\"1\"} 5\nx_bucket{le=\"3\"} 4\n\
                   x_bucket{le=\"+Inf\"} 5\nx_sum 10\nx_count 5\n";
        let err = validate_exposition(bad).expect_err("must reject");
        assert!(err.contains("non-decreasing"), "got: {err}");

        // +Inf disagrees with _count.
        let bad = "x_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 5\nx_sum 10\nx_count 6\n";
        let err = validate_exposition(bad).expect_err("must reject");
        assert!(err.contains("_count"), "got: {err}");

        // Missing +Inf.
        let bad = "x_bucket{le=\"1\"} 5\nx_sum 10\nx_count 5\n";
        let err = validate_exposition(bad).expect_err("must reject");
        assert!(err.contains("+Inf"), "got: {err}");

        // Missing _sum.
        let bad = "x_bucket{le=\"+Inf\"} 5\nx_count 5\n";
        let err = validate_exposition(bad).expect_err("must reject");
        assert!(err.contains("_sum"), "got: {err}");

        // Garbage line.
        assert!(validate_exposition("not a metric line").is_err());
    }

    #[test]
    fn validator_handles_escaped_label_values() {
        let mut prom = PromText::new();
        prom.counter(
            "fm_weird_total",
            "Labels with quotes.",
            &[("path", "a\"b\\c")],
            1,
        );
        let text = prom.finish();
        validate_exposition(&text).expect("escaped labels still parse");
    }
}
