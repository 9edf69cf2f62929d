//! Continuous telemetry over the [`crate::metrics`] primitives: the
//! bounded ring the flight recorder keeps its traces in, and Prometheus
//! text exposition.
//!
//! [`crate::metrics`] answers "what happened since boot"; a window ("what
//! happened in the last minute") is the difference of two such cumulative
//! readings, taken by whoever reads them. Three std-only pieces:
//!
//! * [`Ring`] — a fixed-capacity ring of the newest published values: a
//!   relaxed `fetch_add` claims a slot, a `try_lock` guards it, so a
//!   writer never blocks behind a reader — a contended push is dropped
//!   and counted instead. The flight recorder keeps its recent and slow
//!   traces in two of them.
//! * [`histogram_delta`], which derives a window's histogram from two
//!   cumulative [`LatencySnapshot`]s. The delta is itself a
//!   `LatencySnapshot`, so all the quantile machinery applies to "the last
//!   10 seconds" exactly as it does to "since boot".
//! * [`PromText`] — a Prometheus text-exposition writer for counters,
//!   gauges, and histograms with cumulative `le` buckets; its reader
//!   [`parse_exposition`], and [`histogram_from_samples`], which rebuilds
//!   the `LatencySnapshot` a histogram series was written from. On top of
//!   the reader, [`validate_exposition`] re-checks a rendered exposition's
//!   structural invariants (bucket monotonicity, `+Inf` equals `_count`,
//!   `_sum` present). CI runs the validator against a live scrape, and
//!   `fuzzymatch top` diffs two scrapes.
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

/// One sample line of a text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if the sample carries it.
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the sample's labels, `le` aside, are exactly `labels`.
    fn has_labels(&self, labels: &[(&str, &str)]) -> bool {
        self.labels.iter().filter(|(k, _)| k != "le").count() == labels.len()
            && labels.iter().all(|&(k, v)| self.label(k) == Some(v))
    }
}

/// Parse a Prometheus text exposition into its sample lines, in order;
/// blank lines and `#` comments are skipped. An error names the first
/// line that does not parse.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    text.lines()
        .enumerate()
        .map(|(lineno, raw)| (lineno, raw.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(lineno, line)| {
            parse_sample(line).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))
        })
        .collect()
}

/// The value of the sample `name` whose labels are exactly `labels`.
#[must_use]
pub fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.has_labels(labels))
        .map(|s| s.value)
}

/// The inverse of [`PromText::histogram`]: the [`LatencySnapshot`] that
/// the histogram series `name` with exactly `labels` was written from, or
/// `None` when the exposition has no such series (a `_count` sample) or
/// one of its `le` bounds is not a bucket edge of [`LATENCY_BUCKETS`].
#[must_use]
pub fn histogram_from_samples(
    samples: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<LatencySnapshot> {
    let mut snap = LatencySnapshot {
        count: sample_value(samples, &format!("{name}_count"), labels)? as u64,
        sum_us: sample_value(samples, &format!("{name}_sum"), labels).unwrap_or(0.0) as u64,
        ..LatencySnapshot::default()
    };
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = [0u64; LATENCY_BUCKETS];
    for s in samples
        .iter()
        .filter(|s| s.name == bucket_name && s.has_labels(labels))
    {
        let i = match s.label("le")? {
            "+Inf" => LATENCY_BUCKETS - 1,
            le => {
                let le: u64 = le.parse().ok()?;
                (0..LATENCY_BUCKETS - 1).find(|&i| LatencySnapshot::bucket_bounds(i).1 == le)?
            }
        };
        cumulative[i] = s.value as u64;
    }
    let mut below = 0u64;
    for (out, cum) in snap.buckets.iter_mut().zip(cumulative) {
        *out = cum.saturating_sub(below);
        below = below.max(cum);
    }
    Some(snap)
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
    let samples = parse_exposition(text)?;
    // Every histogram series, as its family and its labels but `le`.
    let mut series: Vec<(&str, Vec<(&str, &str)>)> = Vec::new();
    for s in &samples {
        let (Some(family), Some(_)) = (s.name.strip_suffix("_bucket"), s.label("le")) else {
            continue; // a counter, gauge, `_sum` or `_count`
        };
        let labels: Vec<(&str, &str)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        if !series.iter().any(|(f, l)| *f == family && *l == labels) {
            series.push((family, labels));
        }
    }
    for (family, labels) in &series {
        let key = format!("{family} {labels:?}");
        let bucket_name = format!("{family}_bucket");
        let mut buckets = Vec::new(); // (le, cumulative count)
        for s in samples
            .iter()
            .filter(|s| s.name == bucket_name && s.has_labels(labels))
        {
            let le = s.label("le").unwrap_or_default();
            let bound = match le {
                "+Inf" => f64::INFINITY,
                _ => le
                    .parse::<f64>()
                    .map_err(|_| format!("histogram {key}: bad le {le:?}"))?,
            };
            buckets.push((bound, s.value));
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = -1.0f64;
        for &(le, v) in &buckets {
            if v < prev {
                return Err(format!(
                    "histogram {key}: bucket le={le} count {v} < previous {prev} \
                     (cumulative buckets must be non-decreasing)"
                ));
            }
            prev = v;
        }
        let Some(&(_, inf_count)) = buckets.last().filter(|b| b.0.is_infinite()) else {
            return Err(format!("histogram {key}: missing le=\"+Inf\" bucket"));
        };
        let Some(count) = sample_value(&samples, &format!("{family}_count"), labels) else {
            return Err(format!("histogram {key}: missing _count"));
        };
        if (inf_count - count).abs() > 1e-9 {
            return Err(format!(
                "histogram {key}: +Inf bucket {inf_count} != _count {count}"
            ));
        }
        if sample_value(&samples, &format!("{family}_sum"), labels).is_none() {
            return Err(format!("histogram {key}: missing _sum"));
        }
    }
    Ok(ExpositionSummary {
        samples: samples.len(),
        histogram_series: series.len(),
    })
}

/// Split one sample line into its name, labels and value.
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
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
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

    /// A ring of `capacity` slots after `pushes` pushes of `i * 10`.
    fn filled(capacity: usize, pushes: u64) -> Ring<u64> {
        let ring = Ring::with_capacity(capacity);
        for i in 0..pushes {
            ring.push_with(|_, slot| *slot = i * 10);
        }
        ring
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_windows_in_order() {
        let ring = filled(4, 10);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            ring.recent(10),
            vec![60, 70, 80, 90],
            "ring keeps only its capacity, newest values oldest first"
        );
        // A smaller ask trims from the old end.
        assert_eq!(ring.recent(2), vec![80, 90]);
    }

    #[test]
    fn ring_seq_is_contiguous_across_wraparound() {
        let ring = Ring::<u64>::with_capacity(3);
        let seqs: Vec<u64> = (0..7)
            .map(|_| ring.push_with(|seq, slot| *slot = seq))
            .collect();
        assert_eq!(seqs, (1..=7).collect::<Vec<u64>>());
        // Each retained value is the seq it was pushed under: no gaps.
        assert_eq!(ring.recent(3), vec![5, 6, 7]);
    }

    #[test]
    fn zero_traffic_window_deltas_are_zero_not_garbage() {
        let h = LatencyHistogram::default();
        h.observe(100);
        h.observe(5_000);
        let before = h.snapshot();
        // No traffic between the two scrapes.
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
        let ring = std::sync::Arc::new(Ring::<u64>::with_capacity(8));
        std::thread::scope(|scope| {
            let writer = std::sync::Arc::clone(&ring);
            scope.spawn(move || {
                for _ in 0..500 {
                    writer.push_with(|seq, slot| *slot = seq);
                }
            });
            for _ in 0..3 {
                let reader = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let values = reader.recent(8);
                        for pair in values.windows(2) {
                            assert!(pair[0] < pair[1]);
                        }
                    }
                });
            }
        });
        // Every push either landed or was counted as dropped.
        assert_eq!(ring.pushed(), 500);
        assert!(ring.recent(8).len() <= 8);
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
    fn histogram_from_samples_inverts_prom_text() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 100, 100, 5_000, 1 << 30] {
            h.observe(us);
        }
        let service = [("verb", "lookup"), ("phase", "service")];
        let mut prom = PromText::new();
        prom.counter("fm_lookups_total", "Queries.", &[], 6);
        prom.histogram("fm_phase_us", "Phase time.", &service, &h.snapshot());
        prom.histogram(
            "fm_phase_us",
            "Phase time.",
            &[("verb", "lookup"), ("phase", "queue")],
            &LatencySnapshot::default(),
        );
        let samples = parse_exposition(&prom.finish()).expect("parses");
        assert_eq!(
            histogram_from_samples(&samples, "fm_phase_us", &service),
            Some(h.snapshot())
        );
        assert_eq!(
            histogram_from_samples(
                &samples,
                "fm_phase_us",
                &[("phase", "queue"), ("verb", "lookup")]
            ),
            Some(LatencySnapshot::default()),
            "label order does not matter"
        );
        assert_eq!(
            histogram_from_samples(
                &samples,
                "fm_phase_us",
                &[("verb", "stats"), ("phase", "service")]
            ),
            None
        );
        assert_eq!(sample_value(&samples, "fm_lookups_total", &[]), Some(6.0));
        assert_eq!(
            sample_value(&samples, "fm_phase_us_count", &[("verb", "lookup")]),
            None,
            "labels must match exactly"
        );
        assert!(parse_exposition("fm_x_total 1\nnot a metric line\n")
            .expect_err("must reject")
            .starts_with("line 2:"));
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
