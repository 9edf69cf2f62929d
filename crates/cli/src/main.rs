//! `fuzzymatch` — fuzzy lookup against CSV reference data from the shell.
//!
//! ```text
//! fuzzymatch build  --db customers.fmdb --reference customers.csv
//! fuzzymatch query  --db customers.fmdb --input "Beoing Company,Seattle,WA,98004" [-k 3] [-c 0.8]
//! fuzzymatch batch  --db customers.fmdb --inputs dirty.csv [--out matched.csv] [-k 1] [-c 0.0]
//! fuzzymatch insert --db customers.fmdb --input "New Customer,Tacoma,WA,98401"
//! fuzzymatch info   --db customers.fmdb
//! ```
//!
//! The first CSV row is the header and defines the schema. `build` creates
//! a persistent database file holding the reference relation, its Error
//! Tolerant Index and the matcher configuration; `query`/`batch` reopen
//! it, counting the token frequencies from the relation.

mod csv;

use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fm_core::telemetry::{
    histogram_delta, histogram_from_samples, parse_exposition, sample_value, Sample,
};
use fm_core::{Config, FuzzyMatcher, LookupTrace, OscStopping, Record, SignatureScheme};
use fm_server::Json;
use fm_store::{Database, ObjectCheck};

const MATCHER_NAME: &str = "reference";
const USAGE: &str = "\
fuzzymatch — robust fuzzy match against CSV reference data (SIGMOD 2003)

USAGE:
  fuzzymatch build  --db FILE --reference FILE.csv [build options]
  fuzzymatch query  --db FILE --input \"v1,v2,...\" [-k N] [-c MIN_SIM] [--trace]
  fuzzymatch lookup (alias for query)
  fuzzymatch batch  --db FILE --inputs FILE.csv [--out FILE.csv] [-k N] [-c MIN_SIM]
  fuzzymatch insert --db FILE --input \"v1,v2,...\"
  fuzzymatch delete --db FILE --tid N
  fuzzymatch explain --db FILE --input \"v1,v2,...\" [-k N]
  fuzzymatch info   --db FILE [--prefix NAME]
  fuzzymatch stats  --db FILE [--inputs FILE.csv] [-k N] [-c MIN_SIM]
  fuzzymatch trace  dump    (--db FILE | --reference FILE.csv) [--inputs FILE.csv | --input \"...\"]
  fuzzymatch trace  export  (--db FILE | --reference FILE.csv) [--out FILE] [...]
  fuzzymatch trace  slowest [K] (--db FILE | --reference FILE.csv) [...]
  fuzzymatch trace  slowest [K] --addr HOST:PORT
  fuzzymatch trace  diff   A.json B.json
  fuzzymatch serve  --db FILE [--addr HOST:PORT] [serve options]
  fuzzymatch ping   --addr HOST:PORT
  fuzzymatch client (lookup|stats|health|shutdown) --addr HOST:PORT [...]
  fuzzymatch metrics --addr HOST:PORT [--check]
  fuzzymatch top    --addr HOST:PORT [--interval-ms N] [--iterations N]

BUILD OPTIONS:
  --q N                 q-gram size (default 4)
  --signature SCHEME    q_H or q+t_H, e.g. q+t_3 (default), q_2, q+t_0
  --cins X              token insertion factor in (0,1] (default 0.5)
  --stop-threshold N    stop q-gram threshold (default 10000)
  --seed N              min-hash seed (default paper seed)
  --column-weights CSV  per-column weights, e.g. 2.0,1.0,1.0,0.5
  --fast-osc            use the paper-example OSC bound (faster, less exact)

DATABASE FILE:
  every command opens --db FILE with its write-ahead log (FILE.wal), so a
  command's changes commit atomically and a crashed run's log is replayed

QUERY/BATCH OPTIONS:
  -k N                  return up to N matches (default 1)
  -c X                  minimum similarity threshold in [0,1) (default 0.0)
  --trace               print the per-query lookup trace (q-grams probed,
                        ETI rows, candidates, fms evaluations, ...) to stderr

STATS:
  prints IO accounting for the database file plus, when --inputs is given,
  the aggregated query metrics after running every input through lookup.

TRACE:
  runs the given inputs with the structured tracer on and reads the flight
  recorder back. With --reference the matcher is built in-process first, so
  the export also contains the ETI build spans (pre-ETI, extsort, group
  fill). Subcommands:
    dump              per-phase flame summary + p50/p95/p99 latency
    export            Chrome trace-event JSON (open in Perfetto or
                      chrome://tracing); --out FILE (default trace.json)
    slowest [K]       the K slowest retained traces (default 10); with
                      --addr, read from a running server instead (no other
                      flag: the server's recorder and threshold are its own)
    diff A B          per-phase delta between two Chrome exports (us / %)
  --slow-us N         slow-query threshold in microseconds: lookups at least
                      this slow are kept in the recorder's slow ring
                      (default 10000)

SERVE OPTIONS (fuzzymatch serve exposes lookups over TCP; see DESIGN.md \u{a7}9):
  --addr HOST:PORT      listen address (default 127.0.0.1:7407; port 0 = any)
  --workers N           lookup permits (default 4): matcher calls that run
                        at once, each on its connection's thread, all on
                        one matcher handle
  --queue-depth N       lookups that may wait for a permit, first come
                        first served (default 64)
  --max-inflight N      admission cap (default workers + queue depth)
  --deadline-ms N       default per-request deadline (default 0 = none)
  --port-file FILE      write the bound address to FILE once listening
  --debug-sleep         honour the sleep_ms test hook (tests/CI only)
  --slow-us N           the flight recorder's slow-query threshold in
                        microseconds (default 10000); read the slow lookups
                        with `trace slowest --addr`

CLIENT OPTIONS:
  --addr HOST:PORT      server to talk to (required)
  lookup: --input \"v1,v2,...\" [-k N] [-c MIN_SIM] [--deadline-ms N]
  stats:  print the server's metrics/store/serving counters as JSON

METRICS / TOP (continuous telemetry; see DESIGN.md \u{a7}7.2):
  metrics               scrape the server once and print Prometheus text
                        exposition; --check also validates it (bucket
                        monotonicity, +Inf/_count agreement) and fails
                        non-zero on malformed output
  top                   refreshing terminal view: scrapes `metrics` every
                        --interval-ms and shows the difference of the last
                        two scrapes: qps, per-verb count/p50/p99, queue
                        depth, pool hit rate and dropped frames
  --interval-ms N       time between scrapes (default 2000)
  --iterations N        stop after N refreshes (default 0 = run forever;
                        1 takes two scrapes and prints once)
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The flags `command` reads, space-separated (`None` for an unknown
/// command, which the dispatch then refuses by name).
fn accepted_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "build" => "db reference q signature cins stop-threshold seed column-weights fast-osc",
        "query" | "lookup" => "db input k c trace",
        "batch" => "db inputs out k c",
        "insert" => "db input",
        "delete" => "db tid",
        "explain" => "db input k",
        "info" => "db prefix",
        "stats" => "db inputs k c",
        "serve" => {
            "db addr port-file workers queue-depth max-inflight deadline-ms debug-sleep slow-us"
        }
        "ping" | "client stats" | "client health" | "client shutdown" => "addr",
        "metrics" => "addr check",
        "top" => "addr interval-ms iterations",
        "trace dump" => "db reference slow-us inputs input k c",
        "trace export" => "db reference slow-us inputs input k c out",
        "trace slowest" => "db reference slow-us inputs input k c",
        "trace slowest --addr" => "addr",
        "client lookup" => "addr input k c deadline-ms",
        _ => return None,
    })
}

/// Tiny flag parser: `--name value` pairs plus `-k`/`-c` shorthands.
struct Args {
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    /// Parse `command`'s flags, refusing any it does not read.
    fn parse(args: &[String], command: &str) -> Result<Args, String> {
        let accepted = accepted_flags(command);
        let mut flags = std::collections::HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .or_else(|| args[i].strip_prefix('-'))
                .ok_or_else(|| format!("unexpected argument {}", args[i]))?;
            if accepted.is_some_and(|names| !names.split_whitespace().any(|n| n == name)) {
                return Err(format!("unknown flag {} for {command}", args[i]));
            }
            if name == "fast-osc" || name == "trace" || name == "debug-sleep" || name == "check" {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{name}"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(Args { flags })
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        return Err("no command given".into());
    };
    if command == "--help" || command == "-h" || command == "help" {
        print!("{USAGE}");
        return Ok(());
    }
    if command == "trace" {
        let sub = argv
            .get(1)
            .map(String::as_str)
            .ok_or("trace: missing subcommand (dump|export|slowest|diff)")?;
        if sub == "diff" {
            let base = argv
                .get(2)
                .ok_or("trace diff: missing base export A.json")?;
            let new = argv.get(3).ok_or("trace diff: missing new export B.json")?;
            return cmd_trace_diff(base, new);
        }
        let mut rest = &argv[2..];
        let mut top = 10usize;
        if sub == "slowest" {
            if let Some(Ok(n)) = rest.first().map(|s| s.parse()) {
                top = n;
                rest = &rest[1..];
            }
        }
        // With --addr, `trace slowest` reads a running server's recorder,
        // so every local flag is refused rather than ignored.
        let command = if sub == "slowest" && rest.iter().any(|a| a == "--addr") {
            "trace slowest --addr".to_string()
        } else {
            format!("trace {sub}")
        };
        let args = Args::parse(rest, &command)?;
        return cmd_trace(sub, top, &args);
    }
    if command == "client" {
        let sub = argv
            .get(1)
            .map(String::as_str)
            .ok_or("client: missing subcommand (lookup|stats|health|shutdown)")?;
        let args = Args::parse(&argv[2..], &format!("client {sub}"))?;
        return cmd_client(sub, &args);
    }
    let args = Args::parse(&argv[1..], command)?;
    match command.as_str() {
        "build" => cmd_build(&args),
        "query" | "lookup" => cmd_query(&args),
        "batch" => cmd_batch(&args),
        "insert" => cmd_insert(&args),
        "delete" => cmd_delete(&args),
        "explain" => cmd_explain(&args),
        "info" => cmd_info(&args),
        "stats" => cmd_stats(&args),
        "serve" => cmd_serve(&args),
        "ping" => cmd_ping(&args),
        "metrics" => cmd_metrics(&args),
        "top" => cmd_top(&args),
        other => Err(format!("unknown command {other}; try --help")),
    }
}

/// Open the existing database `--db` with its write-ahead log, creating
/// nothing: every command but `build` reads a database, and a missing
/// file is refused by name. A plain open would read the main file and
/// ignore `<db>.wal`, which a crashed run can leave holding committed
/// pages the main file lacks.
fn open_db(args: &Args) -> Result<Database, String> {
    let path = PathBuf::from(args.require("db")?);
    if !path.exists() {
        return Err(format!(
            "no database at {}; create one with `fuzzymatch build`",
            path.display()
        ));
    }
    open_durable(&path)
}

/// Open `path` with its write-ahead log, creating both if missing.
fn open_durable(path: &Path) -> Result<Database, String> {
    Database::open_file_durable(path, 4096)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// `--slow-us N`: the flight recorder's slow-query threshold (default
/// [`fm_core::tracing::DEFAULT_SLOW_THRESHOLD_US`]). `serve` and `trace`
/// call it before they open a database, so a bad value touches nothing.
fn set_slow_threshold(args: &Args) -> Result<(), String> {
    let us = args.get_parsed("slow-us", fm_core::tracing::DEFAULT_SLOW_THRESHOLD_US)?;
    fm_core::tracing::recorder().set_slow_threshold_us(us);
    Ok(())
}

fn parse_signature(s: &str) -> Result<(SignatureScheme, usize), String> {
    let lower = s.to_lowercase();
    let (scheme, rest) = if let Some(rest) = lower.strip_prefix("q+t_") {
        (SignatureScheme::QGramsPlusToken, rest)
    } else if let Some(rest) = lower.strip_prefix("q_") {
        (SignatureScheme::QGrams, rest)
    } else {
        return Err(format!("bad signature {s}; expected e.g. q+t_3 or q_2"));
    };
    let h: usize = rest.parse().map_err(|_| format!("bad signature {s}"))?;
    Ok((scheme, h))
}

/// Read a reference CSV: the header row (schema) plus every data row.
fn read_reference_csv(path: &PathBuf) -> Result<(Vec<String>, Vec<Record>), String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    let header = csv::read_record(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("reference CSV is empty")?;
    let arity = header.len();
    let mut rows: Vec<Record> = Vec::new();
    let mut line_no = 1usize;
    while let Some(rec) = csv::read_record(&mut reader).map_err(|e| e.to_string())? {
        line_no += 1;
        if rec.len() != arity {
            return Err(format!(
                "row {line_no}: {} fields, header has {arity}",
                rec.len()
            ));
        }
        rows.push(Record::from_options(
            rec.into_iter()
                .map(|v| if v.is_empty() { None } else { Some(v) })
                .collect(),
        ));
    }
    Ok((header, rows))
}

fn cmd_build(args: &Args) -> Result<(), String> {
    let reference_path = PathBuf::from(args.require("reference")?);
    let (header, rows) = read_reference_csv(&reference_path)?;
    let columns: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut config = Config::default().with_columns(&columns);
    config.q = args.get_parsed("q", config.q)?;
    if let Some(sig) = args.get("signature") {
        let (scheme, h) = parse_signature(sig)?;
        config = config.with_signature(scheme, h);
    }
    config.cins = args.get_parsed("cins", config.cins)?;
    config.stop_qgram_threshold = args.get_parsed("stop-threshold", config.stop_qgram_threshold)?;
    config.seed = args.get_parsed("seed", config.seed)?;
    if let Some(w) = args.get("column-weights") {
        let weights: Result<Vec<f64>, _> = w.split(',').map(str::parse).collect();
        config =
            config.with_column_weights(&weights.map_err(|_| format!("bad --column-weights {w}"))?);
    }
    if args.get("fast-osc").is_some() {
        config = config.with_osc_stopping(OscStopping::PaperExample);
    }
    let n = rows.len();

    let db = open_durable(&PathBuf::from(args.require("db")?))?;
    let start = std::time::Instant::now();
    let matcher = FuzzyMatcher::build(&db, MATCHER_NAME, rows.into_iter(), config)
        .map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    let stats = matcher.build_stats().expect("fresh build");
    eprintln!(
        "built {} over {n} reference tuples in {:.2}s ({} ETI entries, {} pre-ETI rows, {} sort spills)",
        matcher.config().strategy_label(),
        start.elapsed().as_secs_f64(),
        matcher.eti_entry_count().map_err(|e| e.to_string())?,
        stats.pre_eti_records,
        stats.spilled_runs,
    );
    Ok(())
}

fn parse_input(input: &str, arity: usize) -> Result<Record, String> {
    let mut reader = BufReader::new(input.as_bytes());
    let fields = csv::read_record(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("empty input")?;
    if fields.len() != arity {
        return Err(format!(
            "input has {} fields, reference has {arity}",
            fields.len()
        ));
    }
    Ok(Record::from_options(
        fields
            .into_iter()
            .map(|v| if v.is_empty() { None } else { Some(v) })
            .collect(),
    ))
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let k: usize = args.get_parsed("k", 1)?;
    let c: f64 = args.get_parsed("c", 0.0)?;
    let input = parse_input(args.require("input")?, matcher.config().arity())?;
    let result = matcher.lookup(&input, k, c).map_err(|e| e.to_string())?;
    if result.matches.is_empty() {
        println!("no match above c = {c}");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for m in &result.matches {
        let mut fields = vec![format!("{:.4}", m.similarity), m.tid.to_string()];
        fields.extend(
            m.record
                .values()
                .iter()
                .map(|v| v.clone().unwrap_or_default()),
        );
        csv::write_record(&mut out, &fields).map_err(|e| e.to_string())?;
    }
    let t = &result.trace;
    eprintln!(
        "[{} ETI lookups, {} tuples verified, OSC {}]",
        t.qgrams_probed,
        t.candidates_fetched,
        if t.osc_succeeded() { "hit" } else { "miss" },
    );
    if args.get("trace").is_some() {
        eprintln!("trace:");
        for (name, value) in t.named() {
            eprintln!("  {name:<20}{value}");
        }
        eprintln!("  {:<20}{}", "tid_list_max", t.tid_list_max);
        eprintln!("{}", bound_rejected(t));
        match t.osc_round {
            Some(round) => eprintln!("  {:<20}after q-gram {}", "osc_round", round + 1),
            None => eprintln!("  {:<20}no short circuit", "osc_round"),
        }
        eprintln!("  {:<20}{} us", "latency", t.latency_us);
    }
    Ok(())
}

/// Read an inputs CSV with the `batch` header convention: a first row
/// equal to the schema is skipped.
fn read_inputs_csv(path: &str, matcher: &FuzzyMatcher) -> Result<Vec<Record>, String> {
    let arity = matcher.config().arity();
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let mut inputs: Vec<Record> = Vec::new();
    while let Some(rec) = csv::read_record(&mut reader).map_err(|e| e.to_string())? {
        if inputs.is_empty()
            && rec.iter().map(String::as_str).collect::<Vec<_>>()
                == matcher
                    .config()
                    .column_names
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
        {
            continue;
        }
        if rec.len() != arity {
            return Err(format!(
                "input has {} fields, reference has {arity}",
                rec.len()
            ));
        }
        inputs.push(Record::from_options(
            rec.into_iter()
                .map(|v| if v.is_empty() { None } else { Some(v) })
                .collect(),
        ));
    }
    Ok(inputs)
}

/// The `bound_rejected` report line: examined candidates the bounds ruled
/// out before the DP, split by what they were ruled out from.
fn bound_rejected(t: &LookupTrace) -> String {
    format!(
        "  {:<20}{} ({} from the sketch, no read; {} from the row)",
        "bound_rejected",
        t.candidates_fetched - t.fms_evals,
        t.sketch_rejected,
        t.candidates_fetched - t.sketch_rejected - t.fms_evals
    )
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("inputs") {
        let k: usize = args.get_parsed("k", 1)?;
        let c: f64 = args.get_parsed("c", 0.0)?;
        for input in &read_inputs_csv(path, &matcher)? {
            matcher.lookup(input, k, c).map_err(|e| e.to_string())?;
        }
    }
    let m = matcher.metrics_snapshot();
    println!("query metrics:");
    for (name, value) in m.named() {
        println!("  {name:<20}{value}");
    }
    println!("{}", bound_rejected(&m.totals));
    println!(
        "  {:<20}{:.1} us mean over {} queries",
        "latency",
        m.latency.mean_us(),
        m.latency.count
    );
    println!("store IO:");
    for (name, value) in db.stats().named() {
        println!("  {name:<20}{value}");
    }
    Ok(())
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let k: usize = args.get_parsed("k", 1)?;
    let c: f64 = args.get_parsed("c", 0.0)?;
    let arity = matcher.config().arity();

    let inputs_path = PathBuf::from(args.require("inputs")?);
    let file = std::fs::File::open(&inputs_path)
        .map_err(|e| format!("cannot open {}: {e}", inputs_path.display()))?;
    let mut reader = BufReader::new(file);
    // Optional header: if the first record equals the schema, skip it.
    let mut first = csv::read_record(&mut reader).map_err(|e| e.to_string())?;
    if let Some(rec) = &first {
        if rec.iter().map(String::as_str).collect::<Vec<_>>()
            == matcher
                .config()
                .column_names
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            first = None;
        }
    }

    let mut out: Box<dyn Write> = match args.get("out") {
        None => Box::new(BufWriter::new(std::io::stdout())),
        Some(path) => Box::new(BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
    };
    // Output header.
    let mut header = vec!["similarity".to_string(), "tid".to_string()];
    header.extend(matcher.config().column_names.iter().cloned());
    header.push("input".to_string());
    csv::write_record(&mut out, &header).map_err(|e| e.to_string())?;

    let start = std::time::Instant::now();
    let mut processed = 0usize;
    let mut matched = 0usize;
    let mut next = first;
    loop {
        let rec = match next.take() {
            Some(rec) => rec,
            None => match csv::read_record(&mut reader).map_err(|e| e.to_string())? {
                None => break,
                Some(rec) => rec,
            },
        };
        if rec.len() != arity {
            return Err(format!(
                "input row {}: {} fields, reference has {arity}",
                processed + 1,
                rec.len()
            ));
        }
        let joined = rec.join(",");
        let input = Record::from_options(
            rec.into_iter()
                .map(|v| if v.is_empty() { None } else { Some(v) })
                .collect(),
        );
        let result = matcher.lookup(&input, k, c).map_err(|e| e.to_string())?;
        processed += 1;
        if result.matches.is_empty() {
            let mut fields = vec![String::new(), String::new()];
            fields.extend((0..arity).map(|_| String::new()));
            fields.push(joined);
            csv::write_record(&mut out, &fields).map_err(|e| e.to_string())?;
        } else {
            matched += 1;
            for m in &result.matches {
                let mut fields = vec![format!("{:.4}", m.similarity), m.tid.to_string()];
                fields.extend(
                    m.record
                        .values()
                        .iter()
                        .map(|v| v.clone().unwrap_or_default()),
                );
                fields.push(joined.clone());
                csv::write_record(&mut out, &fields).map_err(|e| e.to_string())?;
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "matched {matched}/{processed} inputs in {:.2}s ({:.1}/s)",
        start.elapsed().as_secs_f64(),
        processed as f64 / start.elapsed().as_secs_f64().max(1e-9),
    );
    Ok(())
}

fn cmd_insert(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let input = parse_input(args.require("input")?, matcher.config().arity())?;
    let tid = matcher
        .insert_reference(&input)
        .map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!("inserted as tid {tid}");
    Ok(())
}

fn cmd_delete(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let tid: u32 = args
        .require("tid")?
        .parse()
        .map_err(|_| "bad --tid".to_string())?;
    let removed = matcher.delete_reference(tid).map_err(|e| e.to_string())?;
    db.flush().map_err(|e| e.to_string())?;
    println!("deleted tid {tid}: {removed}");
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let matcher = FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let limit: usize = args.get_parsed("k", 10)?;
    let input = parse_input(args.require("input")?, matcher.config().arity())?;
    let explain = matcher.explain(&input, limit).map_err(|e| e.to_string())?;
    print!("{explain}");
    Ok(())
}

/// `fuzzymatch trace <dump|export|slowest>`: run lookups (and optionally
/// an in-process build) with the structured tracer, then read the flight
/// recorder back.
fn cmd_trace(sub: &str, top: usize, args: &Args) -> Result<(), String> {
    if !matches!(sub, "dump" | "export" | "slowest") {
        return Err(format!(
            "unknown trace subcommand {sub}; expected dump|export|slowest|diff"
        ));
    }
    if let Some(addr) = args.get("addr") {
        // The flight recorder is per-process, so traces of server
        // traffic live in the server; fetch them over the protocol. Only
        // `trace slowest` accepts `--addr`.
        return remote_trace_slowest(addr, top);
    }
    set_slow_threshold(args)?;
    let recorder = fm_core::tracing::recorder();
    recorder.clear();

    // With --reference, build the matcher in-process (in memory unless
    // --db is also given) so the recorder captures the build-path spans;
    // with --db alone, reopen the existing database.
    let db = if args.get("reference").is_some() && args.get("db").is_none() {
        Database::in_memory().map_err(|e| e.to_string())?
    } else {
        open_db(args)?
    };
    let matcher = if let Some(path) = args.get("reference") {
        let (header, rows) = read_reference_csv(&PathBuf::from(path))?;
        let columns: Vec<&str> = header.iter().map(String::as_str).collect();
        let config = Config::default().with_columns(&columns);
        FuzzyMatcher::build(&db, MATCHER_NAME, rows.into_iter(), config)
            .map_err(|e| e.to_string())?
    } else {
        FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?
    };

    let k: usize = args.get_parsed("k", 1)?;
    let c: f64 = args.get_parsed("c", 0.0)?;
    let mut queries = 0usize;
    if let Some(path) = args.get("inputs") {
        for input in &read_inputs_csv(path, &matcher)? {
            matcher.lookup(input, k, c).map_err(|e| e.to_string())?;
            queries += 1;
        }
    }
    if let Some(input) = args.get("input") {
        let input = parse_input(input, matcher.config().arity())?;
        matcher.lookup(&input, k, c).map_err(|e| e.to_string())?;
        queries += 1;
    }

    let traces = matcher.recent_traces();
    match sub {
        "dump" => {
            let snapshot = matcher.metrics_snapshot();
            print!(
                "{}",
                fm_core::tracing::flame_summary(&traces, Some(&snapshot.latency))
            );
        }
        "export" => {
            let json = fm_core::tracing::chrome_trace_json(&traces);
            let out = args.get("out").unwrap_or("trace.json");
            std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "wrote {} trace(s) over {queries} quer(ies) to {out} \
                 (load in Perfetto or chrome://tracing)",
                traces.len()
            );
        }
        _ => {
            // "slowest"
            let slow: Vec<Json> = recorder
                .slowest(top)
                .iter()
                .map(fm_server::protocol::completed_trace_to_json)
                .collect();
            print_slowest(&slow);
        }
    }
    Ok(())
}

/// `fuzzymatch serve`: expose the matcher over TCP until a client sends
/// the `shutdown` verb, then print the drained final snapshot.
fn cmd_serve(args: &Args) -> Result<(), String> {
    // Every option is checked before the database opens.
    set_slow_threshold(args)?;
    let config = fm_server::ServerConfig {
        workers: args.get_parsed("workers", 4)?,
        queue_depth: args.get_parsed("queue-depth", 64)?,
        max_inflight: args.get_parsed("max-inflight", 0)?,
        deadline_ms: args.get_parsed("deadline-ms", 0)?,
        allow_sleep: args.get("debug-sleep").is_some(),
        ..fm_server::ServerConfig::default()
    };
    let db = std::sync::Arc::new(open_db(args)?);
    let matcher = fm_core::FuzzyMatcher::open(&db, MATCHER_NAME).map_err(|e| e.to_string())?;
    let matcher = std::sync::Arc::new(matcher);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7407");
    let server = fm_server::Server::start(addr, matcher, db, config).map_err(|e| e.to_string())?;
    let local = server.local_addr();
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, local.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("fuzzymatch serving on {local} (send the `shutdown` verb to drain)");
    let report = server.wait();
    let c = report.counters;
    eprintln!("drained: final snapshot");
    eprintln!(
        "  served:   {} responses over {} connections ({} lookups, {:.1} us mean)",
        c.responses,
        c.connections,
        report.metrics.lookups,
        report.metrics.latency.mean_us()
    );
    eprintln!(
        "  rejected: {} overload, {} shutdown, {} past deadline, {} malformed, {} oversized",
        c.rejected_overload, c.rejected_shutdown, c.deadline_expired, c.malformed, c.oversized
    );
    eprintln!(
        "  waiters:  high-water {} lookups waiting for a permit",
        c.max_queue_depth
    );
    eprintln!(
        "  store IO: {} reads, {} writes, {} WAL bytes",
        report.store.pages_read, report.store.pages_written, report.store.wal_bytes
    );
    Ok(())
}

/// `fuzzymatch ping`: one health round-trip with client-side timing.
fn cmd_ping(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let start = std::time::Instant::now();
    let mut client =
        fm_server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let status = client.health().map_err(|e| e.to_string())?;
    println!(
        "pong from {addr}: {status} ({} us round trip)",
        start.elapsed().as_micros()
    );
    Ok(())
}

/// `fuzzymatch metrics`: scrape the server once and print the
/// Prometheus text exposition, optionally validating it first.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let mut client =
        fm_server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let text = client.metrics_text().map_err(|e| e.to_string())?;
    if args.get("check").is_some() {
        let summary = fm_core::telemetry::validate_exposition(&text)
            .map_err(|e| format!("invalid exposition: {e}"))?;
        eprintln!(
            "[exposition ok: {} samples, {} histogram series]",
            summary.samples, summary.histogram_series
        );
    }
    print!("{text}");
    Ok(())
}

/// One `top` refresh: the difference of two `metrics` scrapes taken
/// `secs` apart, rendered as a small fixed-layout report. Counters and
/// the per-verb service histograms are diffed; the queue and inflight
/// gauges are the newer scrape's.
fn render_top(addr: &str, prev: &[Sample], cur: &[Sample], secs: f64) -> String {
    let delta = |name: &str| {
        let read = |samples: &[Sample]| sample_value(samples, name, &[]).unwrap_or(0.0) as u64;
        read(cur).saturating_sub(read(prev))
    };
    let gauge =
        |name: &str| sample_value(cur, name, &[]).map_or("-".to_string(), |v| format!("{v:.0}"));
    let qps = delta("fm_lookups_total") as f64 / secs.max(1e-9);
    let (hits, misses) = (delta("fm_store_hits_total"), delta("fm_store_misses_total"));
    let hit_rate = if hits + misses > 0 {
        format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
    } else {
        "-".to_string()
    };

    let mut out = format!("fuzzymatch top — {addr} — {secs:.1}s between scrapes\n");
    out.push_str(&format!(
        "  qps {qps:.1}   queue {}   inflight {}   pool hit rate {hit_rate}\n",
        gauge("fm_server_queue_len"),
        gauge("fm_server_inflight"),
    ));
    out.push_str(&format!(
        "  {:<14} {:>8} {:>10} {:>10}\n",
        "verb", "count", "p50 us", "p99 us"
    ));
    let mut quiet = true;
    for &verb in fm_server::telemetry::VERBS {
        let labels = [("verb", verb), ("phase", "service")];
        let service = |samples: &[Sample]| {
            histogram_from_samples(samples, "fm_server_phase_us", &labels).unwrap_or_default()
        };
        let window = histogram_delta(&service(cur), &service(prev));
        if window.count > 0 {
            quiet = false;
            out.push_str(&format!(
                "  {:<14} {:>8} {:>10} {:>10}\n",
                verb,
                window.count,
                window.p50_us(),
                window.p99_us()
            ));
        }
    }
    if quiet {
        out.push_str("  (no verb traffic)\n");
    }
    out.push_str(&format!(
        "  dropped frames: {}\n",
        delta("fm_server_write_failures_total")
    ));
    out
}

/// One `metrics` scrape, parsed, with the instant it was answered.
fn scrape(client: &mut fm_server::Client) -> Result<(std::time::Instant, Vec<Sample>), String> {
    let text = client.metrics_text().map_err(|e| e.to_string())?;
    let samples = parse_exposition(&text).map_err(|e| format!("invalid exposition: {e}"))?;
    Ok((std::time::Instant::now(), samples))
}

/// `fuzzymatch top`: a refreshing terminal view that scrapes `metrics`
/// every `--interval-ms` and reports the difference of the last two
/// scrapes, the way a Prometheus scraper computes a rate.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let interval_ms: u64 = args.get_parsed("interval-ms", 2000)?;
    let iterations: u64 = args.get_parsed("iterations", 0)?;
    let mut client =
        fm_server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut prev = scrape(&mut client)?;
    let mut iter = 0u64;
    loop {
        iter += 1;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        let cur = scrape(&mut client)?;
        let secs = cur.0.duration_since(prev.0).as_secs_f64();
        let text = render_top(addr, &prev.1, &cur.1, secs);
        if iterations != 1 {
            // Clear the screen between refreshes; a single-shot run
            // (tests, scripts) prints plainly.
            print!("\u{1b}[2J\u{1b}[H");
        }
        print!("{text}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if iterations > 0 && iter >= iterations {
            return Ok(());
        }
        prev = cur;
    }
}

/// Parse a CSV input without knowing the reference arity (the server
/// validates it).
fn parse_input_any_arity(input: &str) -> Result<Record, String> {
    let mut reader = BufReader::new(input.as_bytes());
    let fields = csv::read_record(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("empty input")?;
    Ok(Record::from_options(
        fields
            .into_iter()
            .map(|v| if v.is_empty() { None } else { Some(v) })
            .collect(),
    ))
}

/// `fuzzymatch client <lookup|stats|health|shutdown>`.
fn cmd_client(sub: &str, args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let mut client =
        fm_server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match sub {
        "lookup" => {
            let input = parse_input_any_arity(args.require("input")?)?;
            let k: usize = args.get_parsed("k", 1)?;
            let c: f64 = args.get_parsed("c", 0.0)?;
            let deadline_ms: u64 = args.get_parsed("deadline-ms", 0)?;
            let deadline = if deadline_ms == 0 {
                None
            } else {
                Some(deadline_ms)
            };
            let reply = client
                .lookup_with(&input, k, c, deadline, 0)
                .map_err(|e| e.to_string())?;
            if !reply.ok {
                return Err(format!("server error {}: {}", reply.code, reply.error));
            }
            if reply.matches.is_empty() {
                println!("no match above c = {c}");
            }
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for m in &reply.matches {
                let mut fields = vec![format!("{:.4}", m.similarity), m.tid.to_string()];
                fields.extend(m.record.iter().map(|v| v.clone().unwrap_or_default()));
                csv::write_record(&mut out, &fields).map_err(|e| e.to_string())?;
            }
            eprintln!(
                "[server {} us total, {} us in lookup]",
                reply.latency_us, reply.lookup_us
            );
            Ok(())
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("{stats}");
            Ok(())
        }
        "health" => {
            println!("{}", client.health().map_err(|e| e.to_string())?);
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("draining");
            Ok(())
        }
        other => Err(format!(
            "unknown client subcommand {other}; expected lookup|stats|health|shutdown"
        )),
    }
}

/// `fuzzymatch trace slowest K --addr`: read the flight recorder of a
/// running server through the `trace_slowest` verb.
fn remote_trace_slowest(addr: &str, top: usize) -> Result<(), String> {
    let mut client =
        fm_server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client.trace_slowest(top).map_err(|e| e.to_string())?;
    let traces = reply
        .get("traces")
        .and_then(fm_server::Json::as_arr)
        .ok_or_else(|| format!("malformed trace_slowest reply: {reply}"))?;
    print_slowest(traces);
    Ok(())
}

/// The `trace slowest` table, from traces as the `trace_slowest` verb
/// reports them (a local recorder's are converted the same way).
fn print_slowest(traces: &[Json]) {
    println!(
        "{:<6} {:<6} {:>12} {:>7}  root counters",
        "seq", "kind", "total ms", "spans"
    );
    for t in traces {
        let get_u64 = |field: &str| t.get(field).and_then(Json::as_u64).unwrap_or(0);
        let counters = t.get("counters").map_or_else(String::new, |c| {
            let cnt = |f: &str| c.get(f).and_then(Json::as_u64).unwrap_or(0);
            format!(
                "probed={} fetched={} fms={}",
                cnt("qgrams_probed"),
                cnt("candidates_fetched"),
                cnt("fms_evals")
            )
        });
        println!(
            "{:<6} {:<6} {:>12.3} {:>7}  {}",
            get_u64("seq"),
            t.get("kind").and_then(Json::as_str).unwrap_or("?"),
            get_u64("total_us") as f64 / 1000.0,
            get_u64("spans"),
            counters
        );
    }
}

/// Per-phase aggregate of one Chrome trace export: `name → (calls,
/// total µs)`.
fn load_chrome_phases(
    path: &str,
) -> Result<std::collections::BTreeMap<String, (u64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = fm_server::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(fm_server::Json::as_arr)
        .ok_or_else(|| format!("{path}: no traceEvents array (not a Chrome export?)"))?;
    let mut phases: std::collections::BTreeMap<String, (u64, f64)> =
        std::collections::BTreeMap::new();
    for event in events {
        let Some(name) = event.get("name").and_then(fm_server::Json::as_str) else {
            continue;
        };
        let dur = event
            .get("dur")
            .and_then(fm_server::Json::as_f64)
            .unwrap_or(0.0);
        let entry = phases.entry(name.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += dur;
    }
    Ok(phases)
}

/// `fuzzymatch trace diff A.json B.json`: per-phase total-time delta
/// between two Chrome exports.
fn cmd_trace_diff(base_path: &str, new_path: &str) -> Result<(), String> {
    let base = load_chrome_phases(base_path)?;
    let new = load_chrome_phases(new_path)?;
    let phases: std::collections::BTreeSet<&String> = base.keys().chain(new.keys()).collect();
    if phases.is_empty() {
        return Err("both exports are empty".into());
    }
    println!("trace diff: {base_path} -> {new_path}");
    println!(
        "{:<16} {:>8} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "phase", "calls A", "calls B", "A us", "B us", "delta us", "delta %"
    );
    let (mut total_a, mut total_b) = (0.0, 0.0);
    for phase in phases {
        let (calls_a, us_a) = base.get(phase).copied().unwrap_or((0, 0.0));
        let (calls_b, us_b) = new.get(phase).copied().unwrap_or((0, 0.0));
        total_a += us_a;
        total_b += us_b;
        let delta = us_b - us_a;
        let pct = if us_a > 0.0 {
            format!("{:+.1}%", 100.0 * delta / us_a)
        } else {
            "new".to_string()
        };
        println!(
            "{phase:<16} {calls_a:>8} {calls_b:>8} {us_a:>12.1} {us_b:>12.1} {delta:>+12.1} {pct:>9}"
        );
    }
    let total_delta = total_b - total_a;
    let total_pct = if total_a > 0.0 {
        format!("{:+.1}%", 100.0 * total_delta / total_a)
    } else {
        "new".to_string()
    };
    println!(
        "{:<16} {:>8} {:>8} {total_a:>12.1} {total_b:>12.1} {total_delta:>+12.1} {total_pct:>9}",
        "TOTAL", "", ""
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    // Pages first: they need no matcher, so they print for a file whose
    // matcher this build refuses to open.
    let check = db.check_invariants().map_err(|e| e.to_string())?;
    println!("file pages:      {}", db.pool().page_count());
    println!(
        "{:<16} {:>8} {:>8} {:>10}",
        "object", "pages", "leaves", "leaf fill"
    );
    for (name, object) in &check.objects {
        let (leaves, fill) = match object {
            ObjectCheck::Table(_) => (String::new(), String::new()),
            ObjectCheck::Index(tree) => {
                let bytes = (tree.leaf_pages * fm_store::PAGE_SIZE).max(1);
                let fill = tree.leaf_live_bytes as f64 / bytes as f64;
                (tree.leaf_pages.to_string(), format!("{fill:.3}"))
            }
        };
        println!("{name:<16} {:>8} {leaves:>8} {fill:>10}", object.pages());
    }
    let prefix = args.get("prefix").unwrap_or(MATCHER_NAME);
    let matcher = FuzzyMatcher::open(&db, prefix).map_err(|e| e.to_string())?;
    let cfg = matcher.config();
    println!("strategy:        {}", cfg.strategy_label());
    println!("q:               {}", cfg.q);
    println!("cins:            {}", cfg.cins);
    println!("stop threshold:  {}", cfg.stop_qgram_threshold);
    println!("columns:         {}", cfg.column_names.join(", "));
    println!("reference size:  {}", matcher.relation_size());
    println!(
        "eti entries:     {}",
        matcher.eti_entry_count().map_err(|e| e.to_string())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::metrics::{LatencyHistogram, LatencySnapshot};
    use fm_core::PromText;

    /// The samples of a `metrics` scrape with the counters and histograms
    /// `top` reads.
    fn scrape_of(lookups: u64, hits: u64, lookup: &LatencySnapshot) -> Vec<Sample> {
        let mut prom = PromText::new();
        prom.counter("fm_lookups_total", "", &[], lookups);
        prom.counter("fm_store_hits_total", "", &[], hits);
        prom.counter("fm_store_misses_total", "", &[], hits / 9);
        prom.counter("fm_server_write_failures_total", "", &[], 0);
        prom.gauge("fm_server_queue_len", "", &[], 2.0);
        prom.gauge("fm_server_inflight", "", &[], 1.0);
        let service = |verb| [("verb", verb), ("phase", "service")];
        prom.histogram("fm_server_phase_us", "", &service("lookup"), lookup);
        let stats = LatencyHistogram::default();
        stats.observe(40);
        prom.histogram(
            "fm_server_phase_us",
            "",
            &service("stats"),
            &stats.snapshot(),
        );
        parse_exposition(&prom.finish()).unwrap()
    }

    #[test]
    fn top_renders_the_difference_of_two_scrapes() {
        let lookup = LatencyHistogram::default();
        for _ in 0..10 {
            lookup.observe(100);
        }
        let prev = scrape_of(10, 90, &lookup.snapshot());
        for us in [100, 3_000] {
            for _ in 0..10 {
                lookup.observe(us);
            }
        }
        let cur = scrape_of(30, 180, &lookup.snapshot());

        let text = render_top("a:1", &prev, &cur, 2.0);
        assert!(text.contains("qps 10.0"), "{text}");
        assert!(text.contains("queue 2   inflight 1"), "{text}");
        assert!(text.contains("pool hit rate 90.0%"), "{text}");
        assert!(text.contains("dropped frames: 0"), "{text}");
        let row: Vec<u64> = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("lookup "))
            .expect("a lookup row")
            .split_whitespace()
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(row[0], 20, "only the window's lookups: {text}");
        assert!((64..=127).contains(&row[1]), "p50 {}", row[1]);
        assert!((2048..=4095).contains(&row[2]), "p99 {}", row[2]);
        assert!(
            !text.contains("stats "),
            "a verb without traffic in the window has no row: {text}"
        );

        let idle = render_top("a:1", &cur, &cur, 2.0);
        assert!(idle.contains("(no verb traffic)"), "{idle}");
        assert!(idle.contains("qps 0.0"), "{idle}");
        assert!(idle.contains("pool hit rate -"), "{idle}");
    }
}
