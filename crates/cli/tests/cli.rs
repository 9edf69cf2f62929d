//! End-to-end tests driving the `fuzzymatch` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fuzzymatch"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let mut p = std::env::temp_dir();
        p.push(format!("fm-cli-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const REFERENCE_CSV: &str = "\
name,city,state,zip
Boeing Company,Seattle,WA,98004
Bon Corporation,Seattle,WA,98014
Companions,Seattle,WA,98024
\"Smith, Jones & Co\",Tacoma,WA,98401
";

fn build_db(dir: &TempDir) -> PathBuf {
    let db = dir.path("ref.fmdb");
    std::fs::write(dir.path("ref.csv"), REFERENCE_CSV).unwrap();
    let out = bin()
        .args(["build", "--db"])
        .arg(&db)
        .arg("--reference")
        .arg(dir.path("ref.csv"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    db
}

#[test]
fn build_query_round_trip() {
    let dir = TempDir::new("roundtrip");
    let db = build_db(&dir);
    let out = bin()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--input", "Beoing Company,Seattle,WA,98004"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Boeing Company"), "got: {stdout}");
    assert!(
        stdout.starts_with("0.8") || stdout.starts_with("0.9"),
        "got: {stdout}"
    );
}

#[test]
fn query_with_quoted_commas_and_threshold() {
    let dir = TempDir::new("quoted");
    let db = build_db(&dir);
    let out = bin()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--input", "\"Smith Jones Co\",Tacoma,WA,98401", "-c", "0.5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Smith, Jones & Co"), "got: {stdout}");
    // A garbage query above the threshold returns nothing.
    let out = bin()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--input", "zzz,qqq,XX,00000", "-c", "0.9"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no match"), "got: {stdout}");
}

#[test]
fn batch_writes_csv_with_header() {
    let dir = TempDir::new("batch");
    let db = build_db(&dir);
    std::fs::write(
        dir.path("dirty.csv"),
        "Beoing Company,Seattle,WA,98004\nNonsense Entity,Nowhere,XX,00000\n",
    )
    .unwrap();
    let out_path = dir.path("matched.csv");
    let out = bin()
        .args(["batch", "--db"])
        .arg(&db)
        .arg("--inputs")
        .arg(dir.path("dirty.csv"))
        .arg("--out")
        .arg(&out_path)
        .args(["-c", "0.5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "similarity,tid,name,city,state,zip,input");
    assert!(lines[1].contains("Boeing Company"));
    assert!(
        lines[2].starts_with(",,"),
        "unmatched row should be empty: {}",
        lines[2]
    );
    let summary = String::from_utf8(out.stderr).unwrap();
    assert!(summary.contains("matched 1/2"), "got: {summary}");
}

#[test]
fn insert_then_match_persists() {
    let dir = TempDir::new("insert");
    let db = build_db(&dir);
    let out = bin()
        .args(["insert", "--db"])
        .arg(&db)
        .args(["--input", "Microsoft Corporation,Redmond,WA,98052"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("inserted as tid 5"));
    // New process, same file: the maintained tuple matches fuzzily.
    let out = bin()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--input", "Microsft Corp,Redmond,WA,98052"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Microsoft Corporation"), "got: {stdout}");
}

#[test]
fn info_reports_configuration() {
    let dir = TempDir::new("info");
    let db = build_db(&dir);
    let out = bin().args(["info", "--db"]).arg(&db).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Q+T_3"));
    assert!(stdout.contains("reference size:  4"));
    assert!(stdout.contains("name, city, state, zip"));
    // One row of pages per catalog object; indexes add leaves and fill.
    for object in ["ref", "tid", "eti", "state"] {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(&format!("reference.{object}")))
            .unwrap_or_else(|| panic!("no reference.{object} row in: {stdout}"));
        let fields = row.split_whitespace().count();
        assert_eq!(fields, if object == "ref" { 2 } else { 4 }, "{row}");
    }
    // The frequencies are counted at open, not stored.
    assert!(!stdout.contains("reference.freq"), "{stdout}");
}

#[test]
fn build_options_are_applied() {
    let dir = TempDir::new("options");
    let db = dir.path("opt.fmdb");
    std::fs::write(dir.path("ref.csv"), REFERENCE_CSV).unwrap();
    let out = bin()
        .args(["build", "--db"])
        .arg(&db)
        .arg("--reference")
        .arg(dir.path("ref.csv"))
        .args(["--signature", "q_2", "--q", "3", "--cins", "0.7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().args(["info", "--db"]).arg(&db).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Q_2"), "got: {stdout}");
    assert!(stdout.contains("q:               3"), "got: {stdout}");
    assert!(stdout.contains("cins:            0.7"), "got: {stdout}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = TempDir::new("errors");
    // Missing db: every command but `build` reads one, refuses a missing
    // path by name, and creates neither the file nor its WAL.
    let (missing, wal) = (dir.path("missing.fmdb"), dir.path("missing.fmdb.wal"));
    let input = "Beoing Company,Seattle,WA,98004";
    for command in [
        &["query", "--input", input][..],
        &["batch", "--inputs", "in.csv"],
        &["stats"],
        &["explain", "--input", input],
        &["insert", "--input", input],
        &["delete", "--tid", "1"],
        &["trace", "dump", "--input", input],
        &["serve", "--addr", "127.0.0.1:0"],
        &["info"],
    ] {
        let out = bin()
            .args(command)
            .arg("--db")
            .arg(&missing)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{command:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("no database at {}", missing.display());
        assert!(stderr.contains(&refusal), "{command:?}: got {stderr}");
        assert!(
            !missing.exists() && !wal.exists(),
            "{command:?} created a file"
        );
    }
    // Arity mismatch.
    let db = build_db(&dir);
    let out = bin()
        .args(["query", "--db"])
        .arg(&db)
        .args(["--input", "only,three,fields"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("fields"));
    // Unknown command.
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // Ragged reference CSV.
    std::fs::write(dir.path("bad.csv"), "a,b\n1,2,3\n").unwrap();
    let out = bin()
        .args(["build", "--db"])
        .arg(dir.path("bad.fmdb"))
        .arg("--reference")
        .arg(dir.path("bad.csv"))
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn delete_removes_reference() {
    let dir = TempDir::new("delete");
    let db = build_db(&dir);
    let out = bin()
        .args(["delete", "--db"])
        .arg(&db)
        .args(["--tid", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("Companions"));
    let out = bin().args(["info", "--db"]).arg(&db).output().unwrap();
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("reference size:  3"));
    // Deleting a missing tid fails cleanly.
    let out = bin()
        .args(["delete", "--db"])
        .arg(&db)
        .args(["--tid", "99"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn explain_shows_trace() {
    let dir = TempDir::new("explain");
    let db = build_db(&dir);
    let out = bin()
        .args(["explain", "--db"])
        .arg(&db)
        .args(["--input", "Beoing Company,Seattle,WA,98004", "-k", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("input tokens"), "got: {stdout}");
    assert!(
        stdout.contains("unseen"),
        "beoing should be flagged unseen: {stdout}"
    );
    assert!(stdout.contains("Boeing Company"), "got: {stdout}");
}

#[test]
fn help_prints_usage() {
    let out = bin().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

/// A flag the command does not read is refused by name before the
/// command touches anything: the database file is never created.
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let dir = TempDir::new("unknown-flags");
    let db = dir.path("never.fmdb");
    // (arguments, the refused flag and its command); `DB` is the path.
    let mut cases: Vec<(Vec<&str>, String)> = [
        (&["serve", "--batch-max", "1"][..], "--batch-max for serve"),
        (
            &["serve", "--telemetry-window-ms", "50"],
            "--telemetry-window-ms for serve",
        ),
        (
            &["serve", "--slow-log-cap", "16"],
            "--slow-log-cap for serve",
        ),
        (&["serve", "--replicas", "4"], "--replicas for serve"),
        (
            &["serve", "--slow-log", "slow.jsonl"],
            "--slow-log for serve",
        ),
        (
            &["build", "--durable", "--reference", "r.csv"],
            "--durable for build",
        ),
        (
            &["lookup", "--inptu", "Beoing Company,Seattle,WA,98004"],
            "--inptu for lookup",
        ),
        (
            &["lookup", "--durable", "--input", "a,b,c,d"],
            "--durable for lookup",
        ),
    ]
    .into_iter()
    .map(|(args, refused)| {
        let mut full = vec![args[0], "--db", "DB"];
        full.extend(&args[1..]);
        (full, refused.to_string())
    })
    .collect();
    // With --addr, `trace slowest` reads the server's recorder: every flag
    // of the local run is refused by name.
    for flag in [
        ["--db", "DB"],
        ["--reference", "r.csv"],
        ["--slow-us", "1"],
        ["--inputs", "in.csv"],
        ["--input", "a,b,c,d"],
        ["-k", "2"],
        ["-c", "0.5"],
    ] {
        let mut args = vec!["trace", "slowest", "5", "--addr", "127.0.0.1:1"];
        args.extend(flag);
        cases.push((args, format!("{} for trace slowest --addr", flag[0])));
    }
    for (args, refused) in cases {
        let out = bin()
            .args(args.iter().map(|&a| {
                if a == "DB" {
                    db.as_os_str()
                } else {
                    a.as_ref()
                }
            }))
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {refused}")),
            "{args:?}: got {stderr}"
        );
        assert!(!db.exists(), "{args:?} opened the database");
    }
}

/// `serve` and `trace` read `--slow-us` through one helper, which runs
/// before either opens the database: a bad value fails both commands
/// with the same message and creates no file.
#[test]
fn slow_us_is_checked_by_one_helper_before_the_database_opens() {
    let dir = TempDir::new("slow-us");
    let db = dir.path("never.fmdb");
    for command in [&["serve"][..], &["trace", "dump"]] {
        let out = bin()
            .args(command)
            .arg("--db")
            .arg(&db)
            .args(["--slow-us", "abc"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{command:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid value for --slow-us: abc"),
            "{command:?}: got {stderr}"
        );
        assert!(!db.exists(), "{command:?} opened the database");
    }
}

/// `serve` parses its serving options before it opens anything: a bad
/// value is reported as such even when `--db` names no file.
#[test]
fn serve_checks_its_options_before_the_database_opens() {
    let dir = TempDir::new("serve-options");
    let db = dir.path("never.fmdb");
    for flag in [
        "--workers",
        "--queue-depth",
        "--max-inflight",
        "--deadline-ms",
    ] {
        let out = bin()
            .args(["serve", "--db"])
            .arg(&db)
            .args(["--addr", "127.0.0.1:0", flag, "-1"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} -1 must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid value for {flag}: -1")),
            "{flag}: got {stderr}"
        );
        assert!(!db.exists(), "{flag} -1 opened the database");
    }
}

#[test]
fn trace_export_chrome_has_query_and_build_spans() {
    let dir = TempDir::new("trace-export");
    std::fs::write(dir.path("ref.csv"), REFERENCE_CSV).unwrap();
    let out_path = dir.path("trace.json");
    let out = bin()
        .args(["trace", "export", "--reference"])
        .arg(dir.path("ref.csv"))
        .args(["--input", "Beoing Company,Seattle,WA,98004"])
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "trace export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).unwrap();
    // The export parses as JSON, and every event is a query or build span.
    let doc = fm_server::json::parse(&json).expect("the export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(fm_server::Json::as_arr)
        .expect("a traceEvents array");
    for event in events {
        let cat = event.get("cat").and_then(fm_server::Json::as_str);
        assert!(
            matches!(cat, Some("query" | "build")),
            "event outside the query and build categories: {event}"
        );
    }
    // Query-path phases (the acceptance bar is >= 6 distinct ones).
    for phase in [
        "query",
        "tokenize",
        "plan",
        "probe",
        "fetch",
        "fms",
        "materialize",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{phase}\"")),
            "missing {phase}: {json}"
        );
    }
    // ETI-build phases from the in-process build.
    for phase in ["build", "pre_eti", "group_fill"] {
        assert!(
            json.contains(&format!("\"name\":\"{phase}\"")),
            "missing {phase}: {json}"
        );
    }
    // Root query event carries the LookupTrace counters.
    assert!(
        json.contains("\"qgrams_probed\""),
        "missing counters: {json}"
    );
}

#[test]
fn trace_dump_and_slowest_run_against_existing_db() {
    let dir = TempDir::new("trace-dump");
    let db = build_db(&dir);
    let out = bin()
        .args(["trace", "dump", "--db"])
        .arg(&db)
        .args(["--input", "Beoing Company,Seattle,WA,98004"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "trace dump failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("flame summary"), "got: {stdout}");
    assert!(stdout.contains("probe"), "got: {stdout}");
    assert!(stdout.contains("p95"), "got: {stdout}");

    let out = bin()
        .args(["trace", "slowest", "3", "--db"])
        .arg(&db)
        .args(["--input", "Beoing Company,Seattle,WA,98004"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "trace slowest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("query"), "got: {stdout}");

    // Chrome JSON is export's only format, so it has no format flag.
    let out = bin()
        .args(["trace", "export", "--db"])
        .arg(&db)
        .args(["--input", "Beoing Company,Seattle,WA,98004", "--chrome"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --chrome for trace export"),
        "got: {stderr}"
    );
}
