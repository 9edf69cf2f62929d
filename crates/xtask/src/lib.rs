//! The workspace's own checker, as a library so the integration tests can
//! drive the analysis passes against fixture projects.
//!
//! Commands (dispatched by the `xtask` binary):
//!
//! * [`lint`] — the two structural lints clippy cannot express: crate
//!   layering direction and `#[must_use]` on boolean predicates. Panic,
//!   print and cast hygiene and unused dependencies are denied at the
//!   library crate roots, so `clippy -D warnings` owns them.
//! * [`analyze`] — flow-aware rules over a hand-rolled Rust lexer and call
//!   graph: lock ordering, lock-across-IO, WAL-before-write, float
//!   determinism, flag-atomic ordering, and blocking under the serving
//!   layer's locks.
//! * [`deepcheck`] — builds a reference relation, ETI, and weight tables,
//!   then runs every `check_invariants()` validator against them.
//! * [`bench`] — the performance gate: runs the fig6/fig8/fig9
//!   micro-harness (`bench_gate`), checks telemetry overhead and LSH
//!   recall, and fails on >20% drift of deterministic counters vs
//!   `BENCH_baseline.json`.
//! * [`ci`] — the pre-PR gate: fmt, clippy, lint, analyze, the line
//!   budget, deepcheck, a traced-lookup → Chrome-export smoke test, an
//!   `fm-server` round-trip/overload/drain smoke test, and the tests.
//!
//! `lint` and `analyze` keep no baseline: every finding fails, and a
//! vetted site carries `// lint:allow(<rule>): <why>`.

pub mod analyze;
pub mod bench;
pub mod ci;
pub mod deepcheck;
pub mod lint;

/// The workspace root (xtask lives at `<root>/crates/xtask`).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/xtask always sits two levels below the workspace root")
        .to_path_buf()
}
