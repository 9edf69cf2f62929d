//! The closed loops: every caller waits for its answer before it sends
//! the next request. Served workloads run one thread per client
//! connection; direct and mixed workloads run on the calling thread.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use fm_core::Record;
use fm_server::Client;
use fm_store::{StoreStats, PAGE_SIZE};

use crate::data::{value_bytes, Data};
use crate::spans::Recorder;
use crate::spec::{Kind, Workload, WRITES_PER_FLUSH};
use crate::stage::{BuildTimes, Stage};
use crate::stats::quantile_sorted;
use crate::Res;

/// When a loop ends: after a number of operations (warm-up) or at a time
/// (the measured phase).
#[derive(Clone, Copy)]
pub enum Stop {
    Ops(usize),
    At(Instant),
}

impl Stop {
    fn reached(self, done: usize) -> bool {
        match self {
            Stop::Ops(n) => done >= n,
            Stop::At(deadline) => Instant::now() >= deadline,
        }
    }
}

/// Buffer-pool and WAL traffic between two `Database::stats()` readings.
#[derive(Default, Clone, Copy)]
pub struct Io {
    pub requests: u64,
    pub misses: u64,
    pub evictions: u64,
    pub pages_read: u64,
    pub pages_written: u64,
    pub wal_bytes: u64,
}

impl Io {
    pub fn add_delta(&mut self, from: &StoreStats, to: &StoreStats) {
        self.requests += (to.hits + to.misses) - (from.hits + from.misses);
        self.misses += to.misses - from.misses;
        self.evictions += to.evictions - from.evictions;
        self.pages_read += to.pages_read - from.pages_read;
        self.pages_written += to.pages_written - from.pages_written;
        self.wal_bytes += to.wal_bytes - from.wal_bytes;
    }

    pub fn merge(&mut self, other: &Io) {
        self.requests += other.requests;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
        self.wal_bytes += other.wal_bytes;
    }

    /// Bytes that reached storage: page write-backs plus the log.
    pub fn bytes_written(&self) -> u64 {
        self.pages_written * PAGE_SIZE as u64 + self.wal_bytes
    }
}

/// What one phase did and observed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, 503/408 replies and dropped replies; none has a latency
    /// sample.
    pub failed: u64,
    pub lookups: u64,
    pub top1_correct: u64,
    /// Answers that broke a correctness rule (a deleted tid returned, …).
    pub violations: Vec<String>,
    /// Caller-observed latency of each answered lookup.
    pub lookup_ns: Vec<u64>,
    /// When each of those lookups completed, since the phase began.
    pub lookup_done_ns: Vec<u64>,
    /// When each successful write completed, since the phase began.
    pub write_done_ns: Vec<u64>,
    /// The reply's own `latency_us` (served workloads).
    pub inside_us: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
    pub lookup_io: Io,
    pub write_io: Io,
    pub flush_io: Io,
    /// Value bytes inserted plus value bytes deleted.
    pub user_bytes_written: u64,
    pub wall_s: f64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lookups += other.lookups;
        self.top1_correct += other.top1_correct;
        self.violations.extend(other.violations);
        self.lookup_ns.extend(other.lookup_ns);
        self.lookup_done_ns.extend(other.lookup_done_ns);
        self.write_done_ns.extend(other.write_done_ns);
        self.inside_us.extend(other.inside_us);
        self.insert_ns.extend(other.insert_ns);
        self.delete_ns.extend(other.delete_ns);
        self.flush_ns.extend(other.flush_ns);
        self.lookup_io.merge(&other.lookup_io);
        self.write_io.merge(&other.write_io);
        self.flush_io.merge(&other.flush_io);
        self.user_bytes_written += other.user_bytes_written;
        self.wall_s += other.wall_s;
    }

    pub fn writes(&self) -> u64 {
        (self.insert_ns.len() + self.delete_ns.len()) as u64
    }

    /// Successful operations per second of the phase's wall time.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s.max(1e-9)
    }
}

/// Throughput and lookup latency of a phase, taken from its quieter half.
pub struct Quiet {
    pub throughput_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Whole one-second windows in the phase, and how many were used.
    pub windows: usize,
    pub used: usize,
}

impl Tally {
    /// The sandbox shares its cores: for seconds at a time everything runs
    /// a quarter slower, and a whole-phase figure mostly measures how many
    /// such bursts the run caught. Interference only ever adds time, so the
    /// phase is cut into one-second windows and the half that completed the
    /// most operations stands for the run: throughput is their mean
    /// completion count, and the latency percentiles pool the lookups that
    /// completed in them. Phases shorter than two windows
    /// (smoke runs) use everything. Only meaningful on a single phase:
    /// [`Tally::merge`] concatenates completion times of different phases.
    pub fn quiet_half(&self) -> Quiet {
        const WINDOW_NS: u64 = 1_000_000_000;
        let windows = ((self.wall_s * 1e9) as u64 / WINDOW_NS) as usize;
        let window_of = |done_ns: &u64| (done_ns / WINDOW_NS) as usize;
        let mut counts = vec![0u64; windows];
        for done in self.lookup_done_ns.iter().chain(&self.write_done_ns) {
            if let Some(count) = counts.get_mut(window_of(done)) {
                *count += 1;
            }
        }
        let mut order: Vec<usize> = (0..windows).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(counts[w]));
        let used = if windows < 2 { 0 } else { windows.div_ceil(2) };
        let mut quiet = vec![windows < 2; windows + 1];
        for &w in &order[..used] {
            quiet[w] = true;
        }
        let mut latencies: Vec<u64> = self
            .lookup_ns
            .iter()
            .zip(&self.lookup_done_ns)
            .filter(|(_, done)| quiet[window_of(done).min(windows)])
            .map(|(latency, _)| *latency)
            .collect();
        latencies.sort_unstable();
        let completed: u64 = order[..used].iter().map(|&w| counts[w]).sum();
        Quiet {
            throughput_per_s: if used == 0 {
                self.throughput()
            } else {
                completed as f64 / used as f64
            },
            p50_us: quantile_sorted(&latencies, 0.50) / 1e3,
            p99_us: quantile_sorted(&latencies, 0.99) / 1e3,
            windows,
            used,
        }
    }
}

/// Position in the deterministic operation sequence; carried from warm-up
/// through every phase of a run.
#[derive(Default)]
pub struct Cursor {
    /// Next input index (wraps around the generated inputs).
    pub input: usize,
    /// Operations scheduled so far on `mixed_rw` (decides the op type).
    scheduled: usize,
    next_fresh: usize,
    next_pick: usize,
    writes_since_flush: usize,
    /// Tuples inserted by the run and still live, with their tids.
    pub inserted: Vec<(u32, usize)>,
    /// Tuples deleted by the run: tid → the record `delete_reference`
    /// returned.
    pub deleted: HashMap<u32, Record>,
}

fn ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn client_loop(
    client: &mut Client,
    data: &Data,
    first: usize,
    stride: usize,
    phase_start: Instant,
    stop: Stop,
    rec: &mut Recorder,
) -> Tally {
    let mut tally = Tally::default();
    let mut index = first;
    let mut done = 0;
    while !stop.reached(done) {
        let at = index % data.inputs.len();
        let op = rec.open("op", index as u64);
        let rtt = rec.open("server.rtt", index as u64);
        let started = Instant::now();
        let reply = client.lookup(&data.inputs[at], 1, 0.0);
        let elapsed = ns(started);
        rec.close(rtt);
        rec.close(op);
        tally.attempted += 1;
        match reply {
            Ok(reply) if reply.ok => {
                tally.lookups += 1;
                tally.lookup_ns.push(elapsed);
                tally.lookup_done_ns.push(ns(phase_start));
                tally.inside_us.push(reply.latency_us);
                if let Some(m) = reply.matches.first() {
                    tally.top1_correct += u64::from(data.top1_correct(at, m.tid, &m.record));
                }
            }
            _ => tally.failed += 1,
        }
        index += stride;
        done += 1;
    }
    tally
}

/// One phase of a served workload: every client loops on its own thread
/// and connection; client `c` of `n` takes inputs `c, c+n, c+2n, …`.
/// `Stop::Ops` counts per client.
pub fn served_phase(
    stage: &mut Stage,
    data: &Data,
    cursor: &mut Cursor,
    stop: Stop,
    recorders: &mut [Recorder],
) -> Res<Tally> {
    let clients = stage.clients.len();
    assert_eq!(clients, recorders.len(), "one recorder per client");
    let before = stage.db.stats();
    let started = Instant::now();
    let first = cursor.input;
    let tallies: Vec<std::thread::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stage
            .clients
            .iter_mut()
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(c, (client, rec))| {
                scope.spawn(move || {
                    client_loop(client, data, first + c, clients, started, stop, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut total = Tally::default();
    let mut most = 0;
    for tally in tallies {
        let tally = tally.map_err(|_| "client thread panicked".to_string())?;
        most = most.max(tally.attempted as usize);
        total.merge(tally);
    }
    total.wall_s = wall_s;
    total.lookup_io.add_delta(&before, &stage.db.stats());
    cursor.input = first + most * clients;
    Ok(total)
}

/// One phase on the calling thread, straight against the matcher. With
/// `writes`, operation `n` is an insert when `n % 10 == 3`, a delete when
/// `n % 10 == 7` and a lookup otherwise, and every
/// [`WRITES_PER_FLUSH`]-th write is followed by a durable flush.
pub fn local_phase(
    stage: &Stage,
    data: &Data,
    cursor: &mut Cursor,
    writes: bool,
    stop: Stop,
    rec: &mut Recorder,
) -> Tally {
    let mut tally = Tally::default();
    let matcher = &stage.matcher;
    let db = &stage.db;
    let started = Instant::now();
    let mut done = 0;
    while !stop.reached(done) {
        let slot = if writes { cursor.scheduled % 10 } else { 0 };
        cursor.scheduled += 1;
        done += 1;
        tally.attempted += 1;
        let is_write = slot == 3 || (slot == 7 && cursor.next_pick < data.delete_picks.len());
        // A lookup's op id is its input index, which the layer replay of
        // the same input shares; writes number from 2^32.
        let op_id = if is_write {
            (1 << 32) + cursor.scheduled as u64
        } else {
            cursor.input as u64
        };
        let before = db.stats();
        let op = rec.open("op", op_id);
        if is_write && slot == 3 {
            let fresh = cursor.next_fresh % data.fresh.len();
            cursor.next_fresh += 1;
            let span = rec.open("core.insert_reference", op_id);
            let t = Instant::now();
            let result = matcher.insert_reference(&data.fresh[fresh]);
            let elapsed = ns(t);
            rec.close(span);
            match result {
                Ok(tid) => {
                    tally.insert_ns.push(elapsed);
                    tally.write_done_ns.push(ns(started));
                    tally.user_bytes_written += value_bytes(&data.fresh[fresh]);
                    cursor.inserted.push((tid, fresh));
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.violations.push(format!("insert_reference: {e}"));
                }
            }
        } else if is_write {
            let tid = data.delete_picks[cursor.next_pick];
            cursor.next_pick += 1;
            let span = rec.open("core.delete_reference", op_id);
            let t = Instant::now();
            let result = matcher.delete_reference(tid);
            let elapsed = ns(t);
            rec.close(span);
            match result {
                Ok(record) => {
                    tally.delete_ns.push(elapsed);
                    tally.write_done_ns.push(ns(started));
                    tally.user_bytes_written += value_bytes(&record);
                    cursor.deleted.insert(tid, record);
                }
                Err(e) => {
                    tally.failed += 1;
                    tally
                        .violations
                        .push(format!("delete_reference({tid}): {e}"));
                }
            }
        } else {
            let at = cursor.input % data.inputs.len();
            cursor.input += 1;
            let span = rec.open("core.lookup", op_id);
            let t = Instant::now();
            let result = matcher.lookup(&data.inputs[at], 1, 0.0);
            let elapsed = ns(t);
            rec.close(span);
            match result {
                Ok(result) => {
                    tally.lookups += 1;
                    tally.lookup_ns.push(elapsed);
                    tally.lookup_done_ns.push(ns(started));
                    if let Some(m) = result.matches.first() {
                        tally.top1_correct +=
                            u64::from(data.top1_correct(at, m.tid, m.record.values()));
                        if cursor.deleted.contains_key(&m.tid) {
                            tally
                                .violations
                                .push(format!("lookup returned deleted tid {}", m.tid));
                        }
                    }
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.violations.push(format!("lookup: {e}"));
                }
            }
        }
        let after = db.stats();
        if is_write {
            tally.write_io.add_delta(&before, &after);
            cursor.writes_since_flush += 1;
        } else {
            tally.lookup_io.add_delta(&before, &after);
        }
        if cursor.writes_since_flush == WRITES_PER_FLUSH {
            cursor.writes_since_flush = 0;
            let span = rec.open("store.flush", op_id);
            let t = Instant::now();
            let result = db.flush();
            tally.flush_ns.push(ns(t));
            rec.close(span);
            if let Err(e) = result {
                tally.violations.push(format!("flush: {e}"));
            }
            tally.flush_io.add_delta(&after, &db.stats());
        }
        rec.close(op);
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    tally
}

/// One recorder per client lane (one lane on direct workloads): recording
/// from `epoch`, or switched off when there is none.
pub fn recorders(stage: &Stage, epoch: Option<Instant>) -> Vec<Recorder> {
    (0..stage.clients.len().max(1))
        .map(|lane| match epoch {
            Some(epoch) => Recorder::new(epoch, lane as u32),
            None => Recorder::disabled(),
        })
        .collect()
}

/// Run one phase of whichever kind the workload is. `Stop::Ops` counts
/// per client lane.
pub fn phase(
    workload: &Workload,
    stage: &mut Stage,
    data: &Data,
    cursor: &mut Cursor,
    stop: Stop,
    recorders: &mut [Recorder],
) -> Res<Tally> {
    match workload.kind {
        Kind::Served => served_phase(stage, data, cursor, stop, recorders),
        Kind::Direct | Kind::Mixed => Ok(local_phase(
            stage,
            data,
            cursor,
            workload.kind == Kind::Mixed,
            stop,
            &mut recorders[0],
        )),
    }
}

pub struct SetUp {
    pub stage: Stage,
    pub cursor: Cursor,
    pub times: BuildTimes,
    /// First call into the program → warm and ready.
    pub total_s: f64,
}

/// One full set-up: build into a fresh file, flush, reopen with the
/// workload's pool, start the server, and warm up with lookups only.
pub fn set_up(workload: &Workload, data: &Data, dir: &Path) -> Res<SetUp> {
    let started = Instant::now();
    let (mut stage, times) = Stage::build(workload, data, dir)?;
    let mut cursor = Cursor::default();
    // Warm-up never writes, so `mixed_rw` warms up as a direct workload.
    let reads_only = Workload {
        kind: match workload.kind {
            Kind::Mixed => Kind::Direct,
            kind => kind,
        },
        ..*workload
    };
    let mut off = recorders(&stage, None);
    let per_lane = workload.warmup.div_ceil(off.len());
    let warm = phase(
        &reads_only,
        &mut stage,
        data,
        &mut cursor,
        Stop::Ops(per_lane),
        &mut off,
    )?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up lookups failed", warm.failed));
    }
    Ok(SetUp {
        stage,
        cursor,
        times,
        total_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_reports_the_windows_with_the_most_completions() {
        // Four one-second windows: 10, 2, 8 and 4 lookups; latency (ms)
        // equals the window's number, so the quiet half is windows 0 and 2.
        let mut tally = Tally {
            wall_s: 4.5,
            ..Tally::default()
        };
        for (window, count) in [10u64, 2, 8, 4].into_iter().enumerate() {
            for i in 0..count {
                tally.lookup_done_ns.push(window as u64 * 1_000_000_000 + i);
                tally.lookup_ns.push((window as u64 + 1) * 1_000_000);
            }
        }
        tally.lookup_done_ns.push(4_200_000_000); // partial last window: ignored
        tally.lookup_ns.push(99_000_000);
        let quiet = tally.quiet_half();
        assert_eq!((quiet.windows, quiet.used), (4, 2));
        assert_eq!(quiet.throughput_per_s, 9.0);
        assert_eq!(quiet.p50_us, 1000.0);
        assert_eq!(quiet.p99_us, 3000.0);
    }

    #[test]
    fn a_phase_shorter_than_two_windows_uses_everything() {
        let tally = Tally {
            attempted: 3,
            wall_s: 0.5,
            lookup_ns: vec![1_000, 2_000, 3_000],
            lookup_done_ns: vec![1, 2, 3],
            ..Tally::default()
        };
        let quiet = tally.quiet_half();
        assert_eq!(quiet.used, 0);
        assert_eq!(quiet.throughput_per_s, 6.0);
        assert_eq!(quiet.p50_us, 2.0);
    }
}
