//! `cargo xtask analyze` — flow-aware static analysis over a real lexer.
//!
//! Where clippy and `xtask lint` judge lines and manifests, `analyze`
//! reasons about *function bodies*: it lexes every library source file
//! ([`lexer`]), extracts functions and struct field types ([`items`]), and
//! runs the project-specific rules on top:
//!
//! * [`walwrite`] — `wal-write`: page writes are confined to the WAL-aware
//!   layer, and the checkpoint syncs the WAL before touching the main file;
//! * [`lockio`] — `lock-across-io`: no guard of a listed lock live across a
//!   direct pager read/write or WAL append;
//! * [`atomics`] — `atomics-ordering`: no `Relaxed` on flag atomics
//!   outside the allowlisted metrics/tracing modules;
//! * [`blocking`] — `blocking-in-worker`: no blocking call in the serving
//!   layer while the queue or connection-registry lock is held.
//!
//! `analyze --explain <rule>` prints each rule's rationale and fix
//! guidance. There is no baseline: a finding fails the gate, and a vetted
//! site carries `// lint:allow(<rule>): <why>`. Every rule is proven live
//! by seeded-violation fixtures under `crates/xtask/tests/fixtures/` (see
//! DESIGN.md §8, which also says what each rule owns that rustc, clippy,
//! the ranked locks or a test does not).

pub mod atomics;
pub mod blocking;
pub mod items;
pub mod lexer;
pub mod lockio;
pub mod walwrite;

use std::fs;

use items::FileIndex;

/// Everything project-specific the rules need — kept as data so the
/// fixture tests can run the same rules against a synthetic project.
pub struct Config {
    /// Workspace-relative `src` directories of the analyzed crates.
    pub src_dirs: Vec<String>,
    /// The locks `lock-across-io` tracks, as `(declaring file, field)`.
    pub guarded_fields: Vec<(String, String)>,
    /// Files allowed to call `.write_page(` (the WAL-aware layer).
    pub wal_allowed_files: Vec<String>,
    /// The file holding the checkpoint (WAL → main copy).
    pub wal_checkpoint_file: String,
    /// Field naming the main (non-WAL) pager inside the checkpoint file.
    pub wal_main_field: String,
    /// The call that makes the WAL durable (`sync_data`).
    pub wal_sync_call: String,
    /// Method names that perform device IO (`lock-across-io`).
    pub io_methods: Vec<String>,
    /// Files exempt from `lock-across-io` (the WAL layer, whose lock is
    /// the IO serializer by design).
    pub lockio_exempt_files: Vec<String>,
    /// Files exempt from `atomics-ordering` (metrics/tracing, whose
    /// relaxed counters are the documented fast path).
    pub atomics_allowed_files: Vec<String>,
    /// Serving-layer files `blocking-in-worker` scans.
    pub worker_files: Vec<String>,
    /// Guarded fields in the worker files (acquired via `.lock()` etc.).
    pub worker_lock_fields: Vec<String>,
    /// Guard-returning helper functions in the worker files.
    pub worker_guard_fns: Vec<String>,
    /// Blocking verbs `blocking-in-worker` flags under a guard.
    pub blocking_calls: Vec<String>,
}

/// One rule finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// The real workspace's configuration. The lock order itself is not here:
/// it is `fm_store::lockorder::ORDER`, carried by each lock's type.
pub fn project_config() -> Config {
    let guarded = |file: &str, field: &str| (format!("crates/{file}"), field.to_string());
    Config {
        src_dirs: ["text", "store", "core", "datagen", "server"]
            .map(|dir| format!("crates/{dir}/src"))
            .to_vec(),
        guarded_fields: vec![
            guarded("core/src/matcher.rs", "weights"),
            guarded("store/src/catalog.rs", "objects"),
            guarded("store/src/btree.rs", "latch"),
            guarded("store/src/heap.rs", "tail_hint"),
            guarded("store/src/buffer.rs", "state"),
            guarded("store/src/buffer.rs", "data"),
            guarded("store/src/wal.rs", "wal"),
            guarded("store/src/pager.rs", "pages"),
        ],
        wal_allowed_files: vec![
            "crates/store/src/pager.rs".to_string(),
            "crates/store/src/wal.rs".to_string(),
            "crates/store/src/buffer.rs".to_string(),
        ],
        wal_checkpoint_file: "crates/store/src/wal.rs".to_string(),
        wal_main_field: "main".to_string(),
        wal_sync_call: "sync_data".to_string(),
        io_methods: [
            "read_page",
            "write_page",
            "read_exact_at",
            "write_all_at",
            "sync_data",
            "sync",
        ]
        .map(String::from)
        .to_vec(),
        lockio_exempt_files: vec!["crates/store/src/wal.rs".to_string()],
        atomics_allowed_files: vec![
            "crates/core/src/metrics.rs".to_string(),
            "crates/core/src/tracing.rs".to_string(),
            "crates/core/src/telemetry.rs".to_string(),
        ],
        worker_files: vec![
            "crates/server/src/server.rs".to_string(),
            "crates/server/src/queue.rs".to_string(),
        ],
        worker_lock_fields: vec!["state".to_string(), "conns".to_string()],
        worker_guard_fns: vec!["lock_state".to_string(), "lock_conns".to_string()],
        blocking_calls: [
            "sleep",
            "wait",
            "wait_timeout",
            "recv",
            "recv_timeout",
            "accept",
            "connect",
            "join",
        ]
        .map(String::from)
        .to_vec(),
    }
}

/// Run every rule over in-memory sources (`(path, source)` pairs). This is
/// the seam the fixture tests drive; [`run`] feeds it the real workspace.
pub fn analyze_sources(sources: Vec<(String, String)>, cfg: &Config) -> Vec<Finding> {
    let files: Vec<FileIndex> = sources
        .into_iter()
        .map(|(path, src)| FileIndex::build(path, src))
        .collect();
    let mut out = Vec::new();
    walwrite::check(&files, cfg, &mut out);
    lockio::check(&files, cfg, &mut out);
    atomics::check(&files, cfg, &mut out);
    blocking::check(&files, cfg, &mut out);
    out.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    out
}

/// Read the real workspace's sources for the configured crates.
fn workspace_sources(cfg: &Config) -> Vec<(String, String)> {
    let root = crate::workspace_root();
    let mut sources = Vec::new();
    for src_dir in &cfg.src_dirs {
        for file in crate::lint::rs_files(&root.join(src_dir)) {
            let Ok(src) = fs::read_to_string(&file) else {
                continue;
            };
            sources.push((crate::lint::rel(&root, &file), src));
        }
    }
    sources
}

pub fn run() -> i32 {
    let cfg = project_config();
    let findings = analyze_sources(workspace_sources(&cfg), &cfg);
    if findings.is_empty() {
        println!("analyze: ok");
        return 0;
    }
    for f in &findings {
        eprintln!("  {}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
    }
    eprintln!("analyze: FAILED ({} findings)", findings.len());
    1
}

/// Rationale and fix guidance for `analyze --explain <rule>`. One entry
/// per rule; kept here so the CLI and DESIGN.md §8 cannot
/// drift apart silently — the doc test in `tests/analyze.rs` walks it.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "wal-write",
        "`.write_page(` is confined to the WAL-aware layer, and the checkpoint \
         must `sync_data` the WAL before first touching the main file. A page \
         write that bypasses the WAL, or a checkpoint that copies before the \
         log is durable, breaks crash recovery (durable-at-commit).",
        "Route page writes through the buffer pool / WAL pager. In the \
         checkpoint, emit and fsync the COMMIT record before any \
         `main.write_page`.",
    ),
    (
        "lock-across-io",
        "A guard of a listed lock live across a direct pager read/write or WAL \
         append serializes every waiter behind a disk. The concurrent \
         read path cannot scale while a miss does IO under the pool mutex — \
         this rule pins each such site so the refactor can retire them.",
        "Stage the IO outside the critical section (copy out under the lock, \
         do IO, re-lock to publish), or justify the documented trade-off with \
         `// lint:allow(lock-across-io): <why>`. The WAL layer itself is \
         exempt by config: its lock is the IO serializer.",
    ),
    (
        "atomics-ordering",
        "`Ordering::Relaxed` on a flag atomic (an `AtomicBool` field) is \
         fence-free publication: a reader can see the flag without the writes \
         it publishes. Monotonic counters are the one case Relaxed is right, \
         and they are deliberately not flagged.",
        "Use `Release` for the store side and `Acquire` for the load side \
         (or `AcqRel`/`SeqCst` where both apply). If the flag truly orders \
         nothing, justify with `// lint:allow(atomics-ordering): <why>`.",
    ),
    (
        "blocking-in-worker",
        "Serving-layer code must not block (sleep, wait, recv, accept, join) \
         while holding the queue or connection-registry lock: one sleeping \
         thread convoys every producer and worker, and during drain it can \
         deadlock the join handshake.",
        "Move the blocking call outside the guard's scope (drop or block-scope \
         the guard first). A `Condvar::wait` that atomically releases the \
         handed-in mutex is the one legitimate shape — justify it with \
         `// lint:allow(blocking-in-worker): <why>`.",
    ),
];

/// `analyze --explain <rule>`.
pub fn explain(rule: &str) -> i32 {
    match RULES.iter().find(|(name, _, _)| *name == rule) {
        Some((name, why, fix)) => {
            println!("{name}");
            println!("\nrationale:\n  {}", rewrap(why));
            println!("\nfix:\n  {}", rewrap(fix));
            0
        }
        None => {
            eprintln!("analyze: unknown rule `{rule}`");
            explain_list();
            2
        }
    }
}

pub fn explain_list() {
    eprintln!("known rules:");
    for (name, _, _) in RULES {
        eprintln!("  {name}");
    }
}

/// Re-flow a rationale string to ~76 columns for terminal output.
fn rewrap(text: &str) -> String {
    let mut out = String::new();
    let mut col = 0usize;
    for word in text.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 74 {
            out.push_str("\n  ");
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out
}
