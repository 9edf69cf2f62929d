//! Structured tracing: RAII spans, a per-thread span slab, and a
//! fixed-capacity "flight recorder" of recent and slow traces.
//!
//! [`metrics`](crate::metrics) answers *how much* work a query did;
//! this module answers *where the time went* — the per-phase cost
//! decomposition behind the paper's Figures 6–10. Design constraints,
//! in order:
//!
//! * **Always on, allocation-free on the hot path.** Every thread owns a
//!   preallocated span slab ([`MAX_SPANS`] records); opening a span is a
//!   `thread_local` borrow, a bump, and one monotonic clock read. A query
//!   that would overflow the slab keeps running and counts the overflow
//!   in `dropped_spans` instead of allocating.
//! * **Wait-free publication.** A finished trace is copied into a
//!   [`Ring`] slot claimed with a relaxed `fetch_add`; the copy itself is
//!   guarded by a per-slot `try_lock` so a *writer never blocks* — under
//!   contention the trace is dropped and counted. (`fm-core` is
//!   `forbid(unsafe_code)`, so this is the honest std-only approximation
//!   of a seqlock: readers lock, writers try-lock.) The relaxed slot
//!   claim orders nothing else; the `try_lock` publishes the copy.
//! * **Two retention classes.** The `recent` ring keeps the last
//!   [`RECENT_CAPACITY`] completed traces of any speed; the `slow` ring
//!   keeps the last [`SLOW_CAPACITY`] traces whose root span exceeded the
//!   configurable slow-query threshold, so a burst of fast queries cannot
//!   evict the one you care about.
//!
//! A trace is a tree: span 0 is the root (`query` or `build`), every
//! other span holds the index of its parent, and timestamps are
//! microseconds since a process-wide epoch. The query root additionally
//! carries the query's [`LookupTrace`] counters, so counters and timings
//! travel together. Exporters: [`chrome_trace_json`] (loadable in
//! Perfetto / `chrome://tracing`) and [`flame_summary`] (per-phase
//! totals plus p50/p95/p99 from the latency histogram).
//!
//! [`set_enabled`] is the one switch: with tracing off every entry point
//! costs one relaxed load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::{LatencySnapshot, LookupTrace};
use crate::telemetry::Ring;

/// Per-thread span slab capacity: a trace keeps at most this many spans;
/// extras are counted in [`CompletedTrace::dropped_spans`].
pub const MAX_SPANS: usize = 512;

/// Completed traces retained regardless of speed.
pub const RECENT_CAPACITY: usize = 64;

/// Slow traces retained (root duration ≥ the slow threshold).
pub const SLOW_CAPACITY: usize = 32;

/// Default slow-query threshold, microseconds (10 ms).
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Sentinel parent index for the root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Which pipeline a trace covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// One `FuzzyMatcher` lookup: tokenize → signature probe → score
    /// table → prune → fetch → `fms` verify (→ OSC rounds).
    #[default]
    Query,
    /// One ETI build / maintenance pass: pre-ETI generation, external
    /// sort runs + merge, streaming group-by, WAL checkpoint.
    Build,
}

impl TraceKind {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Query => "query",
            TraceKind::Build => "build",
        }
    }
}

/// One closed span: a named interval with a parent link. Timestamps are
/// microseconds since the process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (static: `"tokenize"`, `"probe"`, `"fms"`, …).
    pub name: &'static str,
    /// Index of the enclosing span in the trace, [`NO_PARENT`] for root.
    pub parent: u32,
    pub start_us: u64,
    pub end_us: u64,
}

impl SpanRecord {
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A finished trace as read back from the flight recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Monotone publication number (process-wide, 1-based).
    pub seq: u64,
    pub kind: TraceKind,
    /// Span tree in open order; index 0 is the root.
    pub spans: Vec<SpanRecord>,
    /// The query's scalar counters (query traces only).
    pub counters: Option<LookupTrace>,
    /// Spans discarded because the slab was full.
    pub dropped_spans: u32,
}

impl CompletedTrace {
    /// Root-span duration in microseconds (0 for an empty trace).
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.spans.first().map_or(0, SpanRecord::duration_us)
    }

    /// Structural invariants every recorded trace obeys: exactly one
    /// root at index 0, every child's parent precedes it, every child's
    /// interval nests inside its parent's, and no span ends before it
    /// starts. The property suite drives random span shapes through the
    /// recorder and asserts this on everything read back.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let Some(root) = self.spans.first() else {
            return Err("trace has no spans".into());
        };
        if root.parent != NO_PARENT {
            return Err(format!("span 0 is not a root (parent {})", root.parent));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_us < s.start_us {
                return Err(format!(
                    "span {i} `{}` ends at {} before starting at {}",
                    s.name, s.end_us, s.start_us
                ));
            }
            if i == 0 {
                continue;
            }
            if s.parent == NO_PARENT {
                return Err(format!("span {i} `{}` is an orphan second root", s.name));
            }
            let p = s.parent as usize;
            if p >= i {
                return Err(format!("span {i} `{}` links forward to parent {p}", s.name));
            }
            let parent = &self.spans[p];
            if s.start_us < parent.start_us || s.end_us > parent.end_us {
                return Err(format!(
                    "span {i} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    s.name, s.start_us, s.end_us, parent.name, parent.start_us, parent.end_us
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Clock

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch.
#[must_use]
pub fn now_us() -> u64 {
    // 2^64 µs ≈ 584k years; the u128 → u64 narrowing cannot saturate in
    // practice.
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Per-thread collector

struct Collector {
    spans: Vec<SpanRecord>,
    /// Open span indices, innermost last. Non-empty iff `active` (the
    /// root stays open for the whole trace).
    stack: Vec<u32>,
    dropped: u32,
    active: bool,
    kind: TraceKind,
    counters: Option<LookupTrace>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            spans: Vec::with_capacity(MAX_SPANS),
            stack: Vec::with_capacity(64),
            dropped: 0,
            active: false,
            kind: TraceKind::Query,
            counters: None,
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
    /// Test hook: a per-thread recorder that replaces the process-wide
    /// one inside [`with_recorder`].
    static OVERRIDE: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Runtime master switch (relaxed: an independent flag, not an ordering
/// edge). Disabled tracing costs one load per span.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable span collection process-wide. Traces already in the
/// flight recorder are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Root guard for one traced pipeline run. Dropping it closes the root
/// span and publishes the trace to the flight recorder.
#[must_use = "dropping the guard immediately records an empty trace"]
pub struct TraceGuard {
    armed: bool,
}

/// Open a root span and arm the current thread's collector. Returns an
/// inert guard when tracing is off or a trace is already active on this
/// thread (nested roots never clobber the outer trace).
pub fn start(kind: TraceKind) -> TraceGuard {
    if !enabled() {
        return TraceGuard { armed: false };
    }
    install_store_hooks();
    COLLECTOR.with(|cell| {
        let mut c = cell.borrow_mut();
        if c.active {
            return TraceGuard { armed: false };
        }
        c.active = true;
        c.kind = kind;
        c.counters = None;
        c.dropped = 0;
        c.spans.clear();
        c.stack.clear();
        c.spans.push(SpanRecord {
            name: kind.as_str(),
            parent: NO_PARENT,
            start_us: now_us(),
            end_us: 0,
        });
        c.stack.push(0);
        TraceGuard { armed: true }
    })
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        COLLECTOR.with(|cell| {
            let mut c = cell.borrow_mut();
            let end = now_us();
            // Close any spans a panic or early return left open, root last.
            while let Some(idx) = c.stack.pop() {
                c.spans[idx as usize].end_us = end;
            }
            c.active = false;
            let published = (c.kind, c.counters.take(), c.dropped);
            OVERRIDE.with(|o| {
                let o = o.borrow();
                let rec = o.as_deref().unwrap_or_else(|| recorder());
                rec.publish(published.0, &c.spans, published.1, published.2);
            });
        });
    }
}

/// Attach the query's scalar counters to the active trace (no-op when no
/// trace is active on this thread).
pub fn attach_counters(t: &LookupTrace) {
    COLLECTOR.with(|cell| {
        let mut c = cell.borrow_mut();
        if c.active {
            c.counters = Some(*t);
        }
    });
}

/// RAII handle for one phase span; closes on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct Span {
    idx: u32,
}

const INERT: u32 = u32::MAX;

/// Open a span under the innermost open span. Inert (and free beyond one
/// flag load) when tracing is off or no trace is active on this thread.
pub fn span(name: &'static str) -> Span {
    Span {
        idx: open_span(name),
    }
}

fn open_span(name: &'static str) -> u32 {
    COLLECTOR.with(|cell| {
        let mut c = cell.borrow_mut();
        if !c.active {
            return INERT;
        }
        if c.spans.len() >= MAX_SPANS {
            c.dropped += 1;
            return INERT;
        }
        let parent = c.stack.last().copied().unwrap_or(0);
        let idx = c.spans.len() as u32;
        c.spans.push(SpanRecord {
            name,
            parent,
            start_us: now_us(),
            end_us: 0,
        });
        c.stack.push(idx);
        idx
    })
}

fn close_span(idx: u32) {
    if idx == INERT {
        return;
    }
    COLLECTOR.with(|cell| {
        let mut c = cell.borrow_mut();
        let end = now_us();
        // Spans drop LIFO under RAII; if an inner span leaked past its
        // scope, close the stragglers on the way down (never the root).
        while let Some(&top) = c.stack.last() {
            if top < idx || top == 0 {
                break;
            }
            c.stack.pop();
            c.spans[top as usize].end_us = end;
            if top == idx {
                break;
            }
        }
    });
}

impl Drop for Span {
    fn drop(&mut self) {
        close_span(self.idx);
    }
}

/// Record a zero-duration marker span (e.g. `apx_prune` decision points).
pub fn instant(name: &'static str) {
    COLLECTOR.with(|cell| {
        let mut c = cell.borrow_mut();
        if !c.active {
            return;
        }
        if c.spans.len() >= MAX_SPANS {
            c.dropped += 1;
            return;
        }
        let parent = c.stack.last().copied().unwrap_or(0);
        let t = now_us();
        c.spans.push(SpanRecord {
            name,
            parent,
            start_us: t,
            end_us: t,
        });
    });
}

// ---------------------------------------------------------------------------
// fm-store bridge

/// Forwards `fm_store::hooks` span callbacks into the thread's collector.
/// `fm-store` sits below `fm-core` in the layering, so it exposes a sink
/// trait instead of calling us; tokens are slab indices.
struct CoreSink;

static CORE_SINK: CoreSink = CoreSink;

impl fm_store::hooks::SpanSink for CoreSink {
    fn begin(&self, name: &'static str) -> u64 {
        u64::from(open_span(name))
    }

    fn end(&self, token: u64) {
        close_span(token as u32);
    }
}

/// Install the `fm-store` span bridge (idempotent; called on first
/// recorder use and by the matcher entry points).
pub fn install_store_hooks() {
    fm_store::hooks::install_span_sink(&CORE_SINK);
}

// ---------------------------------------------------------------------------
// Flight recorder

/// The flight recorder: the recent and slow [`Ring`]s of completed traces.
/// Publication never blocks the query thread: a slot a reader holds drops
/// the trace and counts it.
pub struct FlightRecorder {
    recent: Ring<CompletedTrace>,
    slow: Ring<CompletedTrace>,
    slow_threshold_us: AtomicU64,
}

impl FlightRecorder {
    /// A standalone recorder (tests); production code shares the
    /// process-wide one behind [`recorder`].
    #[must_use]
    pub fn with_capacity(recent: usize, slow: usize) -> FlightRecorder {
        FlightRecorder {
            recent: Ring::with_capacity(recent),
            slow: Ring::with_capacity(slow),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
        }
    }

    /// Copy a finished trace into the recent ring — and into the slow
    /// ring under the same sequence number when its root was slow. The
    /// slot's span buffer is reused: publication allocates only for a
    /// trace longer than any that slot has held.
    fn publish(
        &self,
        kind: TraceKind,
        spans: &[SpanRecord],
        counters: Option<LookupTrace>,
        dropped_spans: u32,
    ) {
        let fill = |seq: u64, slot: &mut CompletedTrace| {
            slot.seq = seq;
            slot.kind = kind;
            slot.counters = counters;
            slot.dropped_spans = dropped_spans;
            slot.spans.clear();
            slot.spans.extend_from_slice(spans);
        };
        let seq = self.recent.push_with(fill);
        let total = spans.first().map_or(0, SpanRecord::duration_us);
        if total >= self.slow_threshold_us.load(Ordering::Relaxed) {
            self.slow.push_with(|_, slot| fill(seq, slot));
        }
    }

    /// Traces whose root lasted at least this many µs are additionally
    /// retained in the slow ring.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Traces published so far (including any dropped under contention).
    #[must_use]
    pub fn published(&self) -> u64 {
        self.recent.pushed()
    }

    /// Ring writes dropped because their slot was locked by a reader.
    #[must_use]
    pub fn contended_drops(&self) -> u64 {
        self.recent.dropped() + self.slow.dropped()
    }

    /// The retained recent traces, oldest first.
    #[must_use]
    pub fn recent(&self) -> Vec<CompletedTrace> {
        self.recent.recent(usize::MAX)
    }

    /// Recent ∪ slow, deduplicated by seq, oldest first.
    #[must_use]
    pub fn all(&self) -> Vec<CompletedTrace> {
        let mut out = self.recent();
        out.extend(self.slow.recent(usize::MAX));
        out.sort_by_key(|t| t.seq);
        out.dedup_by_key(|t| t.seq);
        out
    }

    /// The `k` slowest retained traces, slowest first.
    #[must_use]
    pub fn slowest(&self, k: usize) -> Vec<CompletedTrace> {
        let mut out = self.all();
        out.sort_by_key(|t| std::cmp::Reverse(t.total_us()));
        out.truncate(k);
        out
    }

    /// Forget all retained traces (threshold and counters are kept).
    pub fn clear(&self) {
        self.recent.clear();
        self.slow.clear();
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| {
        install_store_hooks();
        FlightRecorder::with_capacity(RECENT_CAPACITY, SLOW_CAPACITY)
    })
}

/// Run `f` with a per-thread recorder replacing the process-wide one —
/// the deterministic harness for the property suite and the CLI tests.
pub fn with_recorder<R>(rec: Arc<FlightRecorder>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<FlightRecorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            OVERRIDE.with(|o| *o.borrow_mut() = prev);
        }
    }
    install_store_hooks();
    let prev = OVERRIDE.with(|o| o.borrow_mut().replace(rec));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Exporters

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_counter_args(out: &mut String, t: &LookupTrace) {
    out.push('{');
    for (name, value) in t.named() {
        out.push_str(&format!("\"{name}\":{value},"));
    }
    let round = t.osc_round.map_or("null".to_string(), |r| r.to_string());
    out.push_str(&format!(
        "\"tid_list_max\":{},\"osc_round\":{round},\"latency_us\":{}}}",
        t.tid_list_max, t.latency_us
    ));
}

/// Serialize traces as Chrome trace-event JSON (`"X"` complete events;
/// open the file in Perfetto or `chrome://tracing`). Each trace gets its
/// own `tid` row; the root event carries the query counters as `args`.
#[must_use]
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        for (i, s) in trace.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_json(s.name, &mut out);
            out.push_str("\",\"cat\":\"");
            out.push_str(trace.kind.as_str());
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            out.push_str(&s.start_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&s.duration_us().to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&trace.seq.to_string());
            if i == 0 {
                if let Some(t) = &trace.counters {
                    out.push_str(",\"args\":");
                    push_counter_args(&mut out, t);
                }
            }
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// Per-phase totals aggregated over `spans` of one name.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAgg {
    calls: u64,
    total_us: u64,
    child_us: u64,
}

/// Human-readable flame summary: per-phase call counts, total and self
/// time, share of root time, plus latency percentiles when a histogram
/// snapshot is supplied.
#[must_use]
pub fn flame_summary(traces: &[CompletedTrace], latency: Option<&LatencySnapshot>) -> String {
    let mut order: Vec<&'static str> = Vec::new();
    let mut agg: std::collections::HashMap<&'static str, PhaseAgg> =
        std::collections::HashMap::new();
    let mut root_us = 0u64;
    let mut dropped = 0u64;
    for trace in traces {
        root_us += trace.total_us();
        dropped += u64::from(trace.dropped_spans);
        for s in &trace.spans {
            let e = agg.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                PhaseAgg::default()
            });
            e.calls += 1;
            e.total_us += s.duration_us();
            if s.parent != NO_PARENT {
                let parent = trace.spans[s.parent as usize].name;
                agg.entry(parent).or_default().child_us += s.duration_us();
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "flame summary over {} trace(s), {:.3} ms total\n",
        traces.len(),
        root_us as f64 / 1000.0
    ));
    out.push_str(&format!(
        "{:<20} {:>8} {:>12} {:>12} {:>7}\n",
        "phase", "calls", "total ms", "self ms", "share"
    ));
    order.sort_by_key(|name| std::cmp::Reverse(agg.get(name).map_or(0, |a| a.total_us)));
    for name in &order {
        let a = agg.get(name).copied().unwrap_or_default();
        let self_us = a.total_us.saturating_sub(a.child_us);
        let share = if root_us == 0 {
            0.0
        } else {
            100.0 * a.total_us as f64 / root_us as f64
        };
        out.push_str(&format!(
            "{:<20} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            a.calls,
            a.total_us as f64 / 1000.0,
            self_us as f64 / 1000.0,
            share
        ));
    }
    if dropped > 0 {
        out.push_str(&format!("({dropped} span(s) dropped: slab full)\n"));
    }
    if let Some(l) = latency {
        out.push_str(&format!(
            "latency over {} lookup(s): mean {:.1} µs, p50 {} µs, p95 {} µs, p99 {} µs\n",
            l.count,
            l.mean_us(),
            l.p50_us(),
            l.p95_us(),
            l.p99_us()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh recorder, plus a guard that keeps this module's tests from
    /// overlapping: `disabled_tracing_records_nothing` turns the
    /// process-wide switch off, which would blank a sibling's trace.
    fn sample_recorder() -> (std::sync::MutexGuard<'static, ()>, Arc<FlightRecorder>) {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let serial = SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (serial, Arc::new(FlightRecorder::with_capacity(4, 2)))
    }

    #[test]
    fn trace_round_trip_is_well_formed() {
        let (_serial, rec) = sample_recorder();
        with_recorder(rec.clone(), || {
            let guard = start(TraceKind::Query);
            {
                let _outer = span("probe");
                let _inner = span("fms");
            }
            attach_counters(&LookupTrace {
                qgrams_probed: 3,
                ..LookupTrace::default()
            });
            drop(guard);
        });
        let traces = rec.recent();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        t.check_well_formed().expect("well-formed");
        assert_eq!(t.kind, TraceKind::Query);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].name, "query");
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.counters.map(|c| c.qgrams_probed), Some(3));
    }

    #[test]
    fn ring_wraparound_keeps_latest() {
        let (_serial, rec) = sample_recorder();
        with_recorder(rec.clone(), || {
            for _ in 0..10 {
                let g = start(TraceKind::Query);
                let _s = span("probe");
                drop(_s);
                drop(g);
            }
        });
        let traces = rec.recent();
        assert_eq!(traces.len(), 4);
        assert_eq!(rec.published(), 10);
        // Oldest-first, contiguous tail of the publication sequence.
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        for t in &traces {
            t.check_well_formed().expect("well-formed after wrap");
        }
    }

    #[test]
    fn slow_ring_retains_past_recent_eviction() {
        let (_serial, rec) = sample_recorder();
        rec.set_slow_threshold_us(0); // everything is "slow"
        with_recorder(rec.clone(), || {
            let g = start(TraceKind::Build);
            drop(g);
        });
        rec.set_slow_threshold_us(u64::MAX);
        with_recorder(rec.clone(), || {
            for _ in 0..8 {
                let g = start(TraceKind::Query);
                drop(g);
            }
        });
        let all = rec.all();
        assert!(all.iter().any(|t| t.kind == TraceKind::Build));
        assert!(rec.recent().iter().all(|t| t.kind == TraceKind::Query));
    }

    #[test]
    fn spans_outside_a_trace_are_inert() {
        let (_serial, rec) = sample_recorder();
        with_recorder(rec.clone(), || {
            let _s = span("probe"); // no active trace
        });
        assert_eq!(rec.published(), 0);
    }

    #[test]
    fn slab_overflow_drops_and_counts() {
        let (_serial, rec) = sample_recorder();
        with_recorder(rec.clone(), || {
            let g = start(TraceKind::Query);
            for _ in 0..(MAX_SPANS + 10) {
                let s = span("probe");
                drop(s);
            }
            drop(g);
        });
        let traces = rec.recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), MAX_SPANS);
        assert_eq!(traces[0].dropped_spans as usize, 11);
        traces[0].check_well_formed().expect("well-formed at cap");
    }

    #[test]
    fn chrome_export_contains_all_spans() {
        let (_serial, rec) = sample_recorder();
        with_recorder(rec.clone(), || {
            let g = start(TraceKind::Query);
            let s = span("tokenize");
            drop(s);
            let s = span("probe");
            instant("apx_prune");
            drop(s);
            drop(g);
        });
        let json = chrome_trace_json(&rec.recent());
        for name in ["query", "tokenize", "probe", "apx_prune"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let (_serial, rec) = sample_recorder();
        set_enabled(false);
        with_recorder(rec.clone(), || {
            let g = start(TraceKind::Query);
            let _s = span("probe");
            drop(g);
        });
        set_enabled(true);
        assert_eq!(rec.published(), 0);
    }
}
