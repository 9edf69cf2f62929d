//! `cargo xtask ci` — the full pre-PR gate, in dependency order:
//!
//! 1. `cargo fmt --all -- --check`
//! 2. `cargo clippy --workspace --all-targets -- -D warnings`
//! 3. `cargo xtask lint` (in-process)
//! 4. `cargo xtask analyze` (in-process)
//! 5. the line-count gate: `*.rs` lines under `crates`, `tests` and
//!    `examples` against the committed `xtask-lines.budget`
//! 6. `cargo xtask deepcheck` (in-process)
//! 7. an in-process tracing smoke test: build a small matcher, run traced
//!    lookups, export Chrome trace JSON, and re-parse it with
//!    [`fm_server::json`] — proving the observability surface end to end
//! 8. an in-process serving smoke test: start `fm-server` on an
//!    ephemeral port, run a traced lookup round-trip (the flight
//!    recorder must see it through the `trace_slowest` verb), scrape
//!    the `metrics` verb (the Prometheus exposition must validate and
//!    agree exactly with `stats` in the same quiesced state), round-trip
//!    the `timeseries` verb through [`fm_server::json`], provoke an
//!    explicit overload reply, then drain and assert the lossless
//!    shutdown ledger (every decoded frame answered)
//! 9. `cargo test --workspace -q --no-fail-fast` — every test binary runs
//!    even after one fails, so a failure in one suite cannot hide the
//!    results of the binaries that sort after it (`equivalence`,
//!    `persistence`, …)
//! 10. `cargo test --release --offline --manifest-path
//!     crates/bench/src/bin/benchmark/Cargo.toml` — the benchmark is a
//!     package of its own outside the workspace (the driver builds it from
//!     that manifest), so nothing above compiles it: this step is what
//!     turns an API break that would stop `BENCHMARK.json`'s command from
//!     building into a CI failure, and runs its `--smoke` workloads
//!
//! Everything runs offline. `scripts/ci.sh` wraps this for shell callers
//! and adds the CLI-level `fuzzymatch trace export --chrome` smoke.

use std::process::Command;

use fm_server::json::{self, Json};

pub fn run() -> i32 {
    let steps: &[(&str, &[&str])] = &[
        ("fmt", &["fmt", "--all", "--", "--check"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
    ];
    for (name, args) in steps {
        if let Some(code) = run_cargo(name, args) {
            return code;
        }
    }

    println!("ci: lint");
    let code = crate::lint::run();
    if code != 0 {
        return code;
    }
    println!("ci: analyze");
    let code = crate::analyze::run();
    if code != 0 {
        return code;
    }
    println!("ci: line budget");
    if let Err(e) = lines_gate() {
        eprintln!("ci: line-count gate failed: {e}");
        return 1;
    }
    println!("ci: deepcheck");
    let code = crate::deepcheck::run();
    if code != 0 {
        return code;
    }
    println!("ci: trace smoke");
    if let Err(e) = trace_smoke() {
        eprintln!("ci: trace smoke failed: {e}");
        return 1;
    }
    println!("ci: server smoke");
    if let Err(e) = server_smoke() {
        eprintln!("ci: server smoke failed: {e}");
        return 1;
    }

    if let Some(code) = run_cargo("test", &["test", "--workspace", "-q", "--no-fail-fast"]) {
        return code;
    }
    if let Some(code) = run_cargo(
        "benchmark test",
        &[
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            "crates/bench/src/bin/benchmark/Cargo.toml",
        ],
    ) {
        return code;
    }
    println!("ci: all checks passed");
    0
}

/// The number in a committed budget file at the workspace root: its first
/// line that is neither blank nor a `#` comment.
fn read_budget(name: &str) -> Result<usize, String> {
    std::fs::read_to_string(crate::workspace_root().join(name))
        .map_err(|e| format!("cannot read {name}: {e}"))?
        .lines()
        .find(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .ok_or(format!("{name} has no budget line"))?
        .trim()
        .parse()
        .map_err(|e| format!("{name} is not a number: {e}"))
}

/// Gate the size of the code base: the `*.rs` lines under `crates`,
/// `tests` and `examples` — what `find crates tests examples -name '*.rs'
/// | xargs wc -l` totals on a clean checkout — must not exceed the number
/// in `xtask-lines.budget`. Growing the workspace takes an edit of that
/// file; a PR that shrinks it lowers the number to its own count.
pub fn lines_gate() -> Result<(), String> {
    let root = crate::workspace_root();
    let mut count = 0;
    for dir in ["crates", "tests", "examples"] {
        for path in crate::lint::rs_files(&root.join(dir)) {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            count += bytes.iter().filter(|&&b| b == b'\n').count();
        }
    }
    let budget = read_budget("xtask-lines.budget")?;
    if count > budget {
        return Err(format!(
            "{count} lines of Rust exceed the budget of {budget}; delete as \
             much as the change adds, or raise xtask-lines.budget with \
             justification"
        ));
    }
    println!("ci: line budget ok ({count} lines of Rust within budget {budget})");
    Ok(())
}

/// Build a tiny matcher, run traced lookups, export Chrome trace JSON and
/// re-parse it: the whole observability pipeline in one in-process check.
pub fn trace_smoke() -> Result<(), String> {
    use fm_core::{Config, FuzzyMatcher, Record};

    let recorder = std::sync::Arc::new(fm_core::tracing::FlightRecorder::with_capacity(64, 32));
    let json = fm_core::tracing::with_recorder(std::sync::Arc::clone(&recorder), || {
        let db = fm_store::Database::in_memory().map_err(|e| e.to_string())?;
        let columns = ["name", "city", "state", "zip"];
        let rows = [
            Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
            Record::new(&["Companions", "Seattle", "WA", "98024"]),
        ];
        let matcher = FuzzyMatcher::build(
            &db,
            "ci_smoke",
            rows.into_iter(),
            Config::default().with_columns(&columns),
        )
        .map_err(|e| e.to_string())?;
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        matcher.lookup(&input, 2, 0.0).map_err(|e| e.to_string())?;
        Ok::<String, String>(fm_core::tracing::chrome_trace_json(&recorder.all()))
    })?;

    let doc = json::parse(&json).map_err(|e| format!("export is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("export has no traceEvents array")?;
    let mut query_phases: Vec<&str> = Vec::new();
    let mut build_phases: Vec<&str> = Vec::new();
    for ev in events {
        let (Some(name), Some(cat)) = (
            ev.get("name").and_then(Json::as_str),
            ev.get("cat").and_then(Json::as_str),
        ) else {
            return Err("trace event missing name/cat".into());
        };
        let bucket = match cat {
            "query" => &mut query_phases,
            "build" => &mut build_phases,
            other => return Err(format!("unexpected event category {other}")),
        };
        if !bucket.contains(&name) {
            bucket.push(name);
        }
    }
    if query_phases.len() < 6 {
        return Err(format!(
            "only {} distinct query phases in the export: {query_phases:?}",
            query_phases.len()
        ));
    }
    for expected in ["build", "pre_eti", "group_fill"] {
        if !build_phases.contains(&expected) {
            return Err(format!(
                "ETI-build span {expected} missing from the export: {build_phases:?}"
            ));
        }
    }
    println!(
        "ci: trace smoke ok ({} events, {} query phases, {} build phases)",
        events.len(),
        query_phases.len(),
        build_phases.len()
    );
    Ok(())
}

/// Start `fm-server` on an ephemeral port against an in-memory matcher,
/// then exercise the serving contract end to end: a lookup round-trip
/// that the flight recorder must surface through `trace_slowest`, an
/// explicit overload rejection, and a drain whose ledger proves no
/// decoded frame went unanswered.
pub fn server_smoke() -> Result<(), String> {
    use fm_core::{Config, FuzzyMatcher, Record};
    use fm_server::{Client, Server, ServerConfig};
    use std::sync::Arc;

    let db = Arc::new(fm_store::Database::in_memory().map_err(|e| e.to_string())?);
    let columns = ["name", "city", "state", "zip"];
    let rows = [
        Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
        Record::new(&["Companions", "Seattle", "WA", "98024"]),
    ];
    let matcher = Arc::new(
        FuzzyMatcher::build(
            &db,
            "ci_server_smoke",
            rows.into_iter(),
            Config::default().with_columns(&columns),
        )
        .map_err(|e| e.to_string())?,
    );
    // One worker, inflight cap of one: while the sleeper below holds the
    // worker, any other lookup must be rejected with an explicit 503
    // rather than silently queued.
    let server = Server::start(
        "127.0.0.1:0",
        matcher,
        db,
        ServerConfig {
            workers: 1,
            max_inflight: 1,
            allow_sleep: true,
            // Fast sampler windows so the smoke can observe published
            // time-series state without waiting out the 1 s default.
            telemetry_window_ms: 20,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr().to_string();

    // 1. Traced lookup round-trip.
    let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let reply = client
        .lookup(&input, 1, 0.0)
        .map_err(|e| format!("lookup failed: {e}"))?;
    if !reply.ok || reply.matches.is_empty() {
        return Err(format!("lookup round-trip returned no match: {reply:?}"));
    }
    let traces = client
        .trace_slowest(4)
        .map_err(|e| format!("trace_slowest failed: {e}"))?;
    let query_traces = traces
        .get("traces")
        .and_then(fm_server::Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter(|t| t.get("kind").and_then(fm_server::Json::as_str) == Some("query"))
                .count()
        })
        .unwrap_or(0);
    if query_traces == 0 {
        return Err(format!(
            "flight recorder saw no query trace from server traffic: {traces}"
        ));
    }

    // 1b. Telemetry: the Prometheus scrape must validate (bucket
    // monotonicity, +Inf/_count agreement) and, in this quiesced moment
    // (one client, every reply received), agree exactly with `stats`.
    let exposition = client
        .metrics_text()
        .map_err(|e| format!("metrics verb failed: {e}"))?;
    let summary = fm_core::telemetry::validate_exposition(&exposition)
        .map_err(|e| format!("invalid exposition: {e}"))?;
    let stats = client
        .stats()
        .map_err(|e| format!("stats verb failed: {e}"))?;
    let latency = stats
        .get("metrics")
        .and_then(|m| m.get("latency"))
        .ok_or("stats reply has no metrics.latency")?;
    let stat_u64 = |field: &str| latency.get(field).and_then(fm_server::Json::as_u64);
    let prom_u64 = |name: &str| -> Option<u64> {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
            .map(|v| v as u64)
    };
    if prom_u64("fm_lookup_latency_us_count") != stat_u64("count")
        || prom_u64("fm_lookup_latency_us_sum") != stat_u64("sum_us")
    {
        return Err(format!(
            "exposition disagrees with stats: count {:?} vs {:?}, sum {:?} vs {:?}",
            prom_u64("fm_lookup_latency_us_count"),
            stat_u64("count"),
            prom_u64("fm_lookup_latency_us_sum"),
            stat_u64("sum_us")
        ));
    }
    // The timeseries verb's reply must survive a round-trip through the
    // JSON parser, and the sampler must have published.
    std::thread::sleep(std::time::Duration::from_millis(60));
    let ts = client
        .timeseries(8)
        .map_err(|e| format!("timeseries verb failed: {e}"))?;
    let ts_doc =
        json::parse(&ts.encode()).map_err(|e| format!("timeseries JSON does not re-parse: {e}"))?;
    let windows = ts_doc
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or("timeseries reply has no windows array")?;
    if windows.is_empty() {
        return Err("sampler published no windows after 60 ms at 20 ms/window".into());
    }

    // 2. Overload probe: a sleeper occupies the only inflight slot...
    let sleeper_addr = addr.clone();
    let sleeper_input = input.clone();
    let sleeper = std::thread::spawn(move || -> Result<(), String> {
        let mut c = Client::connect(&sleeper_addr).map_err(|e| e.to_string())?;
        let reply = c
            .lookup_with(&sleeper_input, 1, 0.0, None, 300)
            .map_err(|e| e.to_string())?;
        if reply.ok {
            Ok(())
        } else {
            Err(format!("sleeper was rejected: {reply:?}"))
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // ...so a concurrent lookup must bounce with 503, not queue behind it.
    let reply = client
        .lookup(&input, 1, 0.0)
        .map_err(|e| format!("overload probe failed: {e}"))?;
    if reply.ok || reply.code != 503 {
        return Err(format!("expected a 503 overload reply, got {reply:?}"));
    }
    sleeper
        .join()
        .map_err(|_| "sleeper thread panicked".to_string())??;

    // 3. Graceful drain with a balanced response ledger.
    client
        .shutdown()
        .map_err(|e| format!("shutdown verb failed: {e}"))?;
    let report = server.wait();
    let c = &report.counters;
    // The replica-safe drain ledger: every decoded frame produced exactly
    // one reply attempt (a peer vanishing mid-reply counts as attempted).
    if !c.ledger_balanced() {
        return Err(format!(
            "drain lost responses: {} frames vs {} responses + {} write failures",
            c.frames, c.responses, c.write_failures
        ));
    }
    println!(
        "ci: server smoke ok ({} frames answered, {} query traces, {} overload \
         rejections, {} exposition samples, {} telemetry windows)",
        c.responses,
        query_traces,
        c.rejected_overload,
        summary.samples,
        windows.len()
    );
    Ok(())
}

/// Run a cargo subcommand from the workspace root; `Some(code)` on failure.
fn run_cargo(name: &str, args: &[&str]) -> Option<i32> {
    println!("ci: cargo {}", args.join(" "));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(args)
        .current_dir(crate::workspace_root())
        .status();
    match status {
        Ok(status) if status.success() => None,
        Ok(status) => {
            eprintln!("ci: `cargo {name}` failed with {status}");
            Some(status.code().unwrap_or(1))
        }
        Err(e) => {
            eprintln!("ci: cannot spawn cargo for `{name}`: {e}");
            Some(1)
        }
    }
}
