//! The benchmark's own spans, recorded around its calls into each layer
//! and kept in memory until the run ends (spans inside the program are a
//! later change). One recorder per thread; all share an epoch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one operation (or one replayed input) share this.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    /// Off for every end-to-end run: `open` and `close` then do nothing.
    enabled: bool,
    epoch: Instant,
    /// Chrome-trace thread lane.
    pub lane: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u32) -> Recorder {
        Recorder {
            enabled: true,
            epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].dur_ns()
    }
}

/// Per span name: how many, and their summed self time — a span's
/// duration minus the part its direct children cover.
pub fn self_times(recorders: &[Recorder]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        for (span, children) in rec.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns().saturating_sub(children);
        }
    }
    out
}

/// Write every span as a Chrome trace-event "complete" event (load the
/// file in Perfetto or chrome://tracing). Timestamps are microseconds with
/// nanosecond decimals.
pub fn write_chrome_trace(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for rec in recorders {
        for (idx, s) in rec.spans.iter().enumerate() {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            let cat = s.name.split('.').next().unwrap_or("bench");
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{idx},\"parent\":{parent},\"op_id\":{}}}}}",
                s.name,
                rec.lane,
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns() / 1000,
                s.dur_ns() % 1000,
                s.op_id
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op_id: 1,
            },
            Span {
                name: "core.lookup",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                op_id: 1,
            },
            Span {
                name: "core.lookup",
                start_ns: 70,
                end_ns: 90,
                parent: Some(0),
                op_id: 1,
            },
        ];
        let t = self_times(&[rec]);
        assert_eq!(t["op"], (1, 20));
        assert_eq!(t["core.lookup"], (2, 80));
    }

    #[test]
    fn open_close_nest() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let a = rec.open("op", 7);
        let b = rec.open("core.lookup", 7);
        rec.close(b);
        rec.close(a);
        assert_eq!(rec.spans[b].parent, Some(a));
        assert_eq!(rec.spans[a].parent, None);
        assert!(rec.spans[a].dur_ns() >= rec.spans[b].dur_ns());
    }
}
