//! `cargo xtask ci` — the full pre-PR gate, in dependency order:
//!
//! 1. `cargo fmt --all -- --check`
//! 2. `cargo clippy --workspace --all-targets -- -D warnings`
//! 3. `cargo xtask lint` (in-process)
//! 4. the line-count gate: `*.rs` lines under `crates`, `tests` and
//!    `examples` against the committed `xtask-lines.budget`
//! 5. `cargo xtask deepcheck` (in-process)
//! 6. `cargo test --workspace -q --no-fail-fast` — every test binary runs
//!    even after one fails, so a failure in one suite cannot hide the
//!    results of the binaries that sort after it (`equivalence`,
//!    `persistence`, …). Debug test builds are where the lock-order and
//!    blocking-point assertions of `fm_store::lockorder` run.
//! 7. `cargo test --release --offline --manifest-path
//!    crates/bench/src/bin/benchmark/Cargo.toml` — the benchmark is a
//!    package of its own outside the workspace, so nothing above
//!    compiles it: this step is what turns an API break that would stop
//!    `BENCHMARK.json`'s command from building into a CI failure, and
//!    runs its `--smoke` workloads
//!
//! Everything runs offline. `scripts/ci.sh` wraps this for shell callers
//! and adds end-to-end smokes of the release binaries (a traced CLI
//! lookup, a `fuzzymatch serve` round trip).

use std::process::Command;

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
