//! The repo's benchmark: four file-backed workloads, end-to-end and
//! per-layer metrics, and a traced run. See README.md beside Cargo.toml
//! for the workloads, every metric, and how the metrics interact.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//!           [--smoke] [--out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Each workload run prints its metrics by name with units and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` (the default) measures the
//! end-to-end metrics with span recording off; `--trace 1` is the separate
//! traced run that yields the per-layer metrics and
//! `target/benchmark/<workload>.trace.json`. `--out` appends each result
//! line to a file for `compare`.

mod compare;
mod data;
mod layers;
mod run;
mod spans;
mod spec;
mod stage;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fm_server::Json;
use fm_store::PAGE_SIZE;

use data::{value_bytes, Data};
use run::{recorders, Cursor, Stop, Tally};
use spec::{Kind, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SERVED_SAMPLE, WORKLOADS};
use stage::Stage;
use stats::{median_f64, median_u64, quantile_sorted};

pub type Res<T> = Result<T, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark --workload <served_large|served_small|direct_cold|mixed_rw|all> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--out FILE]\n       benchmark compare A.jsonl B.jsonl";

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seeded = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?;
                seeded = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() || !seeded {
        return Err("--workload and --seed are required".into());
    }
    Ok(args)
}

/// Everything the benchmark writes lives under here: inside the checkout
/// the command runs from, in a directory `.gitignore` names.
fn output_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// Process high-water RSS in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One workload run's result, as printed.
pub struct Outcome {
    workload: &'static str,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    /// Why `correct` is false; empty when every check passed.
    violations: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result line plus what `compare` groups by.
    fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            &self.json_line()[1..]
        )
    }
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Served workloads: a fixed sample of inputs must get the same top-1
/// tid and similarity over the wire as from the matcher in-process.
fn check_served_sample(stage: &mut Stage, data: &Data) -> Vec<String> {
    let mut violations = Vec::new();
    for input in data.inputs.iter().take(SERVED_SAMPLE) {
        let served = match stage.clients[0].lookup(input, 1, 0.0) {
            Ok(reply) if reply.ok => reply.matches.first().map(|m| (m.tid, m.similarity)),
            Ok(reply) => {
                violations.push(format!(
                    "sample lookup refused: {} {}",
                    reply.code, reply.error
                ));
                continue;
            }
            Err(e) => {
                violations.push(format!("sample lookup dropped: {e}"));
                continue;
            }
        };
        let local = match stage.matcher.lookup(input, 1, 0.0) {
            Ok(result) => result.matches.first().map(|m| (m.tid, m.similarity)),
            Err(e) => {
                violations.push(format!("in-process sample lookup: {e}"));
                continue;
            }
        };
        let same = match (served, local) {
            (Some((a, x)), Some((b, y))) => a == b && (x - y).abs() <= 1e-12,
            (None, None) => true,
            _ => false,
        };
        if !same {
            violations.push(format!(
                "served {served:?} != in-process {local:?} for {input:?}"
            ));
        }
    }
    violations
}

/// `mixed_rw`: after the final flush the file must reopen to a matcher
/// that passes its own invariants, holds exactly the surviving tuples,
/// finds inserted tuples exactly and never returns a deleted tid.
fn check_mixed_reopened(
    workload: &Workload,
    data: &Data,
    cursor: &Cursor,
    dir: &Path,
) -> Res<Vec<String>> {
    let mut violations = Vec::new();
    let stage = Stage::reopen(workload, dir)?;
    if let Err(e) = stage.matcher.check_invariants() {
        violations.push(format!("check_invariants after reopen: {e}"));
    }
    let expected = (workload.tuples + cursor.inserted.len() - cursor.deleted.len()) as u64;
    if stage.matcher.relation_size() != expected {
        violations.push(format!(
            "relation_size {} != {expected} after reopen",
            stage.matcher.relation_size()
        ));
    }
    let every = |len: usize| len.div_ceil(50).max(1);
    for (tid, fresh) in cursor.inserted.iter().step_by(every(cursor.inserted.len())) {
        let record = &data.fresh[*fresh];
        match stage.matcher.fetch_reference(*tid) {
            Ok(stored) if stored == *record => {}
            other => violations.push(format!("inserted tid {tid} reads back as {other:?}")),
        }
        // The top-1 may be another tuple with the same tokens (ties go to
        // the lower tid), but it must score exactly 1.
        match stage.matcher.lookup(record, 1, 0.0) {
            Ok(result) => match result.matches.first() {
                Some(m) if m.similarity >= 1.0 - 1e-12 => {}
                other => violations.push(format!(
                    "inserted tid {tid} not matched at similarity 1 after reopen: {other:?}"
                )),
            },
            Err(e) => violations.push(format!("lookup of inserted tid {tid}: {e}")),
        }
    }
    let mut deleted: Vec<_> = cursor.deleted.iter().collect();
    deleted.sort_by_key(|(tid, _)| **tid);
    for (tid, record) in deleted.iter().step_by(every(deleted.len())) {
        match stage.matcher.lookup(record, 3, 0.0) {
            Ok(result) => {
                for m in &result.matches {
                    if cursor.deleted.contains_key(&m.tid) {
                        violations.push(format!("deleted tid {} returned after reopen", m.tid));
                    }
                }
            }
            Err(e) => violations.push(format!("lookup of deleted tid {tid}: {e}")),
        }
    }
    stage.close();
    Ok(violations)
}

/// Bytes of user data live in the relation now.
fn live_bytes(data: &Data, cursor: &Cursor) -> u64 {
    let inserted: u64 = cursor
        .inserted
        .iter()
        .map(|(_, fresh)| value_bytes(&data.fresh[*fresh]))
        .sum();
    let deleted: u64 = cursor.deleted.values().map(value_bytes).sum();
    data.raw_bytes + inserted - deleted
}

struct Finish {
    violations: Vec<String>,
    disk_bytes: u64,
}

/// What the end of every run shares: final flush, the disk footprint, the
/// answer checks, and tearing the stage down (`run_workload` removes the
/// files).
fn finish(
    workload: &Workload,
    mut stage: Stage,
    data: &Data,
    cursor: &Cursor,
    tally: &Tally,
) -> Res<Finish> {
    let mut violations = tally.violations.clone();
    stage.db.flush().map_err(|e| format!("final flush: {e}"))?;
    let dir = stage.dir.clone();
    let disk_bytes = stage::disk_bytes(&dir)?;
    if workload.kind == Kind::Served {
        violations.extend(check_served_sample(&mut stage, data));
    }
    if let Some(report) = stage.close() {
        if !report.counters.ledger_balanced() {
            violations.push(format!("server ledger unbalanced: {:?}", report.counters));
        }
    }
    if workload.kind == Kind::Mixed {
        violations.extend(check_mixed_reopened(workload, data, cursor, &dir)?);
    }
    let accuracy = ratio(tally.top1_correct as f64, tally.lookups as f64);
    if accuracy < workload.accuracy_floor {
        violations.push(format!(
            "accuracy {accuracy:.4} below the floor {}",
            workload.accuracy_floor
        ));
    }
    Ok(Finish {
        violations,
        disk_bytes,
    })
}

/// The end-to-end run: span recording off, `setup_reps` set-ups, one
/// measured phase of `seconds`.
fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64, dir: &Path) -> Res<Outcome> {
    let data = data::generate(workload, seed);
    let mut ready = run::set_up(workload, &data, dir)?;
    let mut setups = vec![ready.total_s];
    for _ in 1..workload.setup_reps {
        ready.stage.close();
        ready = run::set_up(workload, &data, dir)?;
        setups.push(ready.total_s);
    }
    let run::SetUp {
        mut stage,
        mut cursor,
        ..
    } = ready;

    let mut off = recorders(&stage, None);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let tally = run::phase(
        workload,
        &mut stage,
        &data,
        &mut cursor,
        Stop::At(deadline),
        &mut off,
    )?;
    let done = finish(workload, stage, &data, &cursor, &tally)?;

    let quiet = tally.quiet_half();
    println!(
        "# timed phase: {:.2} s, {} one-second windows, the {} with the most completions reported",
        tally.wall_s, quiet.windows, quiet.used
    );
    let values = [
        median_f64(&mut setups),
        quiet.throughput_per_s,
        quiet.p50_us,
        quiet.p99_us,
        ratio(tally.top1_correct as f64, tally.lookups as f64),
        ratio(done.disk_bytes as f64, live_bytes(&data, &cursor) as f64),
        peak_rss_mb()?,
    ];
    Ok(Outcome {
        workload: workload.name,
        seed,
        trace: false,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: done.violations,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((metric, _), value)| (metric.name, metric.unit, finite(value)))
            .collect(),
    })
}

/// Server-side counters the traced run takes deltas of.
struct ServerReading {
    queue: (f64, f64),
    service: (f64, f64),
    write: (f64, f64),
    batched_lookups: f64,
    max_queue_depth: f64,
}

fn read_server(stage: &mut Stage) -> Res<Option<ServerReading>> {
    let Some(client) = stage.clients.first_mut() else {
        return Ok(None);
    };
    let exposition = client
        .metrics_text()
        .map_err(|e| format!("metrics verb: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats verb: {e}"))?;
    let counter = |name: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats reply has no server.{name}"))
    };
    Ok(Some(ServerReading {
        queue: layers::phase_sum_count(&exposition, "queue"),
        service: layers::phase_sum_count(&exposition, "service"),
        write: layers::phase_sum_count(&exposition, "write"),
        batched_lookups: counter("batched_lookups")?,
        max_queue_depth: counter("max_queue_depth")?,
    }))
}

/// The traced run: one set-up, half the time with span recording off and
/// half with it on (their throughput difference is the tracing overhead),
/// then the layer replay.
fn run_traced(workload: &Workload, seed: u64, seconds: f64, dir: &Path) -> Res<Outcome> {
    let data = data::generate(workload, seed);
    let run::SetUp {
        mut stage,
        mut cursor,
        times,
        ..
    } = run::set_up(workload, &data, dir)?;
    let server_before = read_server(&mut stage)?;

    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut off = recorders(&stage, None);
    let plain = run::phase(
        workload,
        &mut stage,
        &data,
        &mut cursor,
        Stop::At(Instant::now() + half),
        &mut off,
    )?;
    let mut on = recorders(&stage, Some(Instant::now()));
    let traced = run::phase(
        workload,
        &mut stage,
        &data,
        &mut cursor,
        Stop::At(Instant::now() + half),
        &mut on,
    )?;
    let overhead_pct = 100.0 * ratio(plain.throughput() - traced.throughput(), plain.throughput());
    let server_after = read_server(&mut stage)?;
    let mut tally = plain;
    tally.merge(traced);

    let mut values = layers::replay(workload, &stage, &data, &mut on[0])?;
    let file_pages = std::fs::metadata(stage::db_path(dir))
        .map_err(|e| format!("stat database file: {e}"))?
        .len()
        / PAGE_SIZE as u64;
    let done = finish(workload, stage, &data, &cursor, &tally)?;

    let lookups = tally.lookups as f64;
    let io = &tally.lookup_io;
    values.insert("store.file_pages", file_pages as f64);
    values.insert(
        "store.page_requests_per_lookup",
        ratio(io.requests as f64, lookups),
    );
    values.insert(
        "store.pool_hit_ratio",
        1.0 - ratio(io.misses as f64, io.requests as f64),
    );
    values.insert(
        "store.pages_read_per_lookup",
        ratio(io.pages_read as f64, lookups),
    );
    values.insert(
        "store.evictions_per_lookup",
        ratio(io.evictions as f64, lookups),
    );
    // Dirty pages reach storage at the flush (or an eviction), so a
    // write's storage cost is its own traffic plus its share of flushes.
    let writes = tally.writes() as f64;
    let mut write_io = tally.write_io;
    write_io.merge(&tally.flush_io);
    values.insert(
        "store.pages_written_per_write",
        ratio(write_io.pages_written as f64, writes),
    );
    values.insert(
        "store.wal_bytes_per_write",
        ratio(write_io.wal_bytes as f64, writes),
    );
    values.insert(
        "store.write_amp",
        ratio(
            write_io.bytes_written() as f64,
            tally.user_bytes_written as f64,
        ),
    );
    values.insert(
        "store.pages_per_flush",
        ratio(
            tally.flush_io.pages_written as f64,
            tally.flush_ns.len() as f64,
        ),
    );
    values.insert("store.commit_p50_ms", median_u64(&mut tally.flush_ns) / 1e6);
    values.insert("store.reopen_ms", times.reopen_ms);
    values.insert("core.build_s", times.build_s);
    values.insert(
        "core.build_tuples_per_s",
        ratio(workload.tuples as f64, times.build_s),
    );
    values.insert(
        "core.insert_reference_us",
        median_u64(&mut tally.insert_ns) / 1e3,
    );
    values.insert(
        "core.delete_reference_us",
        median_u64(&mut tally.delete_ns) / 1e3,
    );
    let mut write_ns = [tally.insert_ns.as_slice(), tally.delete_ns.as_slice()].concat();
    write_ns.sort_unstable();
    values.insert("core.write_p99_us", quantile_sorted(&write_ns, 0.99) / 1e3);

    let mut transport: Vec<u64> = tally
        .lookup_ns
        .iter()
        .zip(&tally.inside_us)
        .map(|(rtt, inside)| (rtt / 1000).saturating_sub(*inside))
        .collect();
    values.insert("server.inside_us", median_u64(&mut tally.inside_us));
    values.insert("server.transport_us", median_u64(&mut transport));
    let mean_delta = |pick: fn(&ServerReading) -> (f64, f64)| match (&server_before, &server_after)
    {
        (Some(before), Some(after)) => ratio(
            pick(after).0 - pick(before).0,
            pick(after).1 - pick(before).1,
        ),
        _ => 0.0,
    };
    values.insert("server.queue_wait_us", mean_delta(|r| r.queue));
    values.insert("server.service_us", mean_delta(|r| r.service));
    values.insert("server.write_us", mean_delta(|r| r.write));
    let (batched, depth) = match (&server_before, &server_after) {
        (Some(before), Some(after)) => (
            after.batched_lookups - before.batched_lookups,
            after.max_queue_depth,
        ),
        _ => (0.0, 0.0),
    };
    values.insert("server.batched_lookups", batched);
    values.insert("server.max_queue_depth", depth);
    values.insert(
        "server.overhead_us",
        if workload.kind == Kind::Served {
            median_u64(&mut tally.lookup_ns) / 1e3 - values["core.lookup_us"]
        } else {
            0.0
        },
    );
    values.insert("bench.datagen_s", data.datagen_s);
    values.insert("bench.trace_overhead_pct", overhead_pct);

    let trace_path = output_root().join(format!("{}.trace.json", workload.name));
    spans::write_chrome_trace(&trace_path, &on)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "# trace: {} (open in https://ui.perfetto.dev)",
        trace_path.display()
    );
    println!("# self time by span name (duration minus direct children):");
    for (name, (count, self_ns)) in spans::self_times(&on) {
        println!(
            "#   {name:<24} n={count:<7} self={:.3} ms",
            self_ns as f64 / 1e6
        );
    }

    Ok(Outcome {
        workload: workload.name,
        seed,
        trace: true,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: done.violations,
        metrics: PER_LAYER
            .iter()
            .map(|metric| {
                let value = values.get(metric.name).copied().unwrap_or(0.0);
                (metric.name, metric.unit, finite(value))
            })
            .collect(),
    })
}

fn run_workload(workload: &Workload, args: &Args) -> Res<Outcome> {
    let workload = if args.smoke {
        workload.smoke()
    } else {
        *workload
    };
    // End-to-end numbers are taken with the program's own span collection
    // off as well; spans inside the program are a later change.
    fm_core::tracing::set_enabled(false);
    let dir = output_root().join(format!("run-{}-{}", std::process::id(), workload.name));
    let result = if args.trace {
        run_traced(&workload, args.seed, args.seconds, &dir)
    } else {
        run_end_to_end(&workload, args.seed, args.seconds, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn print_outcome(outcome: &Outcome, why: &str, out: Option<&Path>) -> Res<()> {
    println!("# why this workload: {why}");
    println!(
        "# {} seed {} {}: attempted {} failed {} (nproc {}, {} closed-loop clients)",
        outcome.workload,
        outcome.seed,
        if outcome.trace {
            "traced"
        } else {
            "end-to-end"
        },
        outcome.attempted,
        outcome.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stage::parallelism(),
    );
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    for violation in &outcome.violations {
        println!("# INCORRECT: {violation}");
    }
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", outcome.record_line())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.json_line());
    Ok(())
}

fn run(argv: &[String]) -> Res<bool> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err(USAGE.into());
        };
        return compare::compare(Path::new(a), Path::new(b));
    }
    let args = parse_args(argv)?;
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    if chosen.is_empty() {
        return Err(format!("unknown workload {}\n{USAGE}", args.workload));
    }
    let mut all_correct = true;
    for workload in chosen {
        let outcome = run_workload(workload, &args)?;
        all_correct &= outcome.violations.is_empty();
        print_outcome(&outcome, workload.why, args.out.as_deref())?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
