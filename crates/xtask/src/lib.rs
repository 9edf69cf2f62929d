//! The workspace's own checker, as a library so the integration tests can
//! drive the lints against fixture projects.
//!
//! Commands (dispatched by the `xtask` binary):
//!
//! * [`lint`] — the two structural lints clippy cannot express: crate
//!   layering direction and `#[must_use]` on boolean predicates. Panic,
//!   print and cast hygiene and unused dependencies are denied at the
//!   library crate roots, so `clippy -D warnings` owns them.
//! * [`deepcheck`] — builds a reference relation, ETI, and weight tables,
//!   then runs every `check_invariants()` validator against them.
//! * [`ci`] — the pre-PR gate: fmt, clippy, lint, the line budget,
//!   deepcheck, and the tests.
//!
//! `lint` keeps no baseline: every finding fails, and a vetted site
//! carries `// lint:allow(<rule>): <why>`. The concurrency checks are not
//! here: lock order and blocking under a lock are the ranked locks'
//! debug assertions (`fm_store::lockorder`), flag orderings are
//! `lockorder::Flag`'s with clippy's `disallowed_methods`, float
//! determinism is clippy's `disallowed_types`, and the WAL checkpoint
//! order is a test in `fm_store::wal` (DESIGN.md §8). Nor is a bench
//! gate: the quick corpus's counters are fm-bench's `strategy_counters`
//! test.

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
