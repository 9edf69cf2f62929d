//! Liveness proof for every `xtask analyze` rule: each seeded-violation
//! fixture under `tests/fixtures/` must produce exactly the expected
//! findings when run through [`xtask::analyze::analyze_sources`] with a
//! synthetic project config — and the negative controls in the same
//! fixtures must stay silent. If a rule rots into a no-op, these fail.

use xtask::analyze::{analyze_sources, Config, Finding, LockClass};

/// The synthetic project the fixtures form: crate `fixa`, one file per rule.
fn fixture_config() -> Config {
    let class = |name: &str, file: &str, field: &str| LockClass {
        name: name.to_string(),
        file: format!("fixa/src/{file}"),
        field: field.to_string(),
    };
    Config {
        src_dirs: vec!["fixa/src".to_string()],
        lock_order: vec![
            class("alpha", "locks.rs", "alpha"),
            class("beta", "locks.rs", "beta"),
            class("gamma", "lockio.rs", "gamma"),
            class("delta", "exempt_io.rs", "delta"),
        ],
        wal_allowed_files: vec!["fixa/src/wal.rs".to_string()],
        wal_checkpoint_file: "fixa/src/wal.rs".to_string(),
        wal_main_field: "main".to_string(),
        wal_sync_call: "sync_data".to_string(),
        float_det_dirs: vec!["fixa/src/sim".to_string()],
        io_methods: vec!["read_page".to_string(), "sync_data".to_string()],
        lockio_exempt_files: vec!["fixa/src/exempt_io.rs".to_string()],
        atomics_allowed_files: vec!["fixa/src/metrics.rs".to_string()],
        worker_files: vec!["fixa/src/worker.rs".to_string()],
        worker_lock_fields: vec!["state".to_string()],
        worker_guard_fns: vec!["lock_state".to_string()],
        blocking_calls: vec![
            "sleep".to_string(),
            "recv".to_string(),
            "wait".to_string(),
            "join".to_string(),
        ],
    }
}

fn fixture_sources() -> Vec<(String, String)> {
    vec![
        (
            "fixa/src/locks.rs".to_string(),
            include_str!("fixtures/locks.rs").to_string(),
        ),
        (
            "fixa/src/wal.rs".to_string(),
            include_str!("fixtures/wal_checkpoint.rs").to_string(),
        ),
        (
            "fixa/src/bypass.rs".to_string(),
            include_str!("fixtures/wal_bypass.rs").to_string(),
        ),
        (
            "fixa/src/sim/kernel.rs".to_string(),
            include_str!("fixtures/float_kernel.rs").to_string(),
        ),
        (
            "fixa/src/lockio.rs".to_string(),
            include_str!("fixtures/lock_across_io.rs").to_string(),
        ),
        (
            "fixa/src/exempt_io.rs".to_string(),
            include_str!("fixtures/exempt_io.rs").to_string(),
        ),
        (
            "fixa/src/atomics.rs".to_string(),
            include_str!("fixtures/atomics_ordering.rs").to_string(),
        ),
        (
            "fixa/src/metrics.rs".to_string(),
            include_str!("fixtures/atomics_metrics.rs").to_string(),
        ),
        (
            "fixa/src/worker.rs".to_string(),
            include_str!("fixtures/blocking_worker.rs").to_string(),
        ),
    ]
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn lock_order_rule_catches_seeded_violations() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let locks = by_rule(&findings, "lock-order");
    assert_eq!(
        locks.len(),
        3,
        "expected inverted + reentrant + propagated, got: {locks:#?}"
    );
    assert!(
        locks
            .iter()
            .any(|f| f.message.contains("acquires `alpha` while holding `beta`")),
        "direct inversion not reported: {locks:#?}"
    );
    assert!(
        locks
            .iter()
            .any(|f| f.message.contains("re-acquires `alpha`")),
        "self-deadlock not reported: {locks:#?}"
    );
    assert!(
        locks
            .iter()
            .any(|f| f.message.contains("holds `beta` while calling")
                && f.message.contains("touch_alpha")
                && f.message.contains("may acquire `alpha`")),
        "propagated edge not reported: {locks:#?}"
    );
    // Negative controls: the well-ordered, dropped-early, and block-scoped
    // functions sit on specific lines; none of them may be flagged.
    let src = include_str!("fixtures/locks.rs");
    for control in ["balanced", "released", "scoped"] {
        let sig_line = 1 + src
            .lines()
            .position(|l| l.contains(&format!("pub fn {control}")))
            .expect("control fn present") as u32;
        let body_end = sig_line + 8;
        assert!(
            !locks
                .iter()
                .any(|f| f.line >= sig_line && f.line <= body_end),
            "control `{control}` (lines {sig_line}..{body_end}) was flagged: {locks:#?}"
        );
    }
}

#[test]
fn wal_write_rule_catches_bypass_and_checkpoint_order() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let wal = by_rule(&findings, "wal-write");
    assert_eq!(wal.len(), 2, "expected bypass + reorder, got: {wal:#?}");
    assert!(
        wal.iter()
            .any(|f| f.path == "fixa/src/bypass.rs"
                && f.message.contains("outside the WAL-aware layer")),
        "confinement breach not reported: {wal:#?}"
    );
    assert!(
        wal.iter()
            .any(|f| f.path == "fixa/src/wal.rs" && f.message.contains("sync_data")),
        "checkpoint reorder not reported: {wal:#?}"
    );
}

#[test]
fn float_det_rule_bans_hash_containers_in_kernels() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let float = by_rule(&findings, "float-det");
    assert_eq!(float.len(), 1, "got: {float:#?}");
    assert_eq!(float[0].path, "fixa/src/sim/kernel.rs");
    assert!(float[0].message.contains("HashMap"));
}

#[test]
fn lock_across_io_rule_catches_io_under_guard() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let io = by_rule(&findings, "lock-across-io");
    assert_eq!(
        io.len(),
        2,
        "expected read + sync under guard, got: {io:#?}"
    );
    assert!(
        io.iter()
            .any(|f| f.message.contains("`read_page`") && f.message.contains("`gamma`")),
        "read under guard not reported: {io:#?}"
    );
    assert!(
        io.iter().any(|f| f.message.contains("`sync_data`")),
        "sync under guard not reported: {io:#?}"
    );
    // The exempt file carries the same violating shape but is config-
    // exempted (the WAL-layer model) — nothing may come from it.
    assert!(
        io.iter().all(|f| f.path == "fixa/src/lockio.rs"),
        "exempt file leaked findings: {io:#?}"
    );
    // Negative controls: dropped-early, block-scoped, and allow-vetted
    // functions sit on specific lines; none of them may be flagged.
    let src = include_str!("fixtures/lock_across_io.rs");
    for control in ["staged", "scoped", "vetted"] {
        let sig_line = 1 + src
            .lines()
            .position(|l| l.contains(&format!("pub fn {control}")))
            .expect("control fn present") as u32;
        let body_end = sig_line + 8;
        assert!(
            !io.iter().any(|f| f.line >= sig_line && f.line <= body_end),
            "control `{control}` (lines {sig_line}..{body_end}) was flagged: {io:#?}"
        );
    }
}

#[test]
fn atomics_ordering_rule_catches_relaxed_flags_only() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let atomics = by_rule(&findings, "atomics-ordering");
    assert_eq!(
        atomics.len(),
        2,
        "expected Relaxed store + load on the flag, got: {atomics:#?}"
    );
    assert!(
        atomics
            .iter()
            .any(|f| f.message.contains("`running.store(… Relaxed …)`")),
        "Relaxed flag store not reported: {atomics:#?}"
    );
    assert!(
        atomics
            .iter()
            .any(|f| f.message.contains("`running.load(… Relaxed …)`")),
        "Relaxed flag load not reported: {atomics:#?}"
    );
    // Counter ops, Release/Acquire pairs, the allow-vetted site, and the
    // allowlisted metrics file must all stay silent.
    assert!(
        atomics.iter().all(|f| f.path == "fixa/src/atomics.rs"),
        "allowlisted file leaked findings: {atomics:#?}"
    );
    assert!(
        !atomics.iter().any(|f| f.message.contains("total")),
        "the Relaxed counter is a negative control: {atomics:#?}"
    );
    let src = include_str!("fixtures/atomics_ordering.rs");
    for control in ["stop_published", "is_running", "bump", "stop_vetted"] {
        let sig_line = 1 + src
            .lines()
            .position(|l| l.contains(&format!("pub fn {control}(")))
            .expect("control fn present") as u32;
        let body_end = sig_line + 4;
        assert!(
            !atomics
                .iter()
                .any(|f| f.line >= sig_line && f.line <= body_end),
            "control `{control}` (lines {sig_line}..{body_end}) was flagged: {atomics:#?}"
        );
    }
}

#[test]
fn blocking_in_worker_rule_catches_blocking_under_guard() {
    let findings = analyze_sources(fixture_sources(), &fixture_config());
    let blocking = by_rule(&findings, "blocking-in-worker");
    assert_eq!(
        blocking.len(),
        2,
        "expected sleep-under-helper-guard + recv-under-lock, got: {blocking:#?}"
    );
    assert!(
        blocking
            .iter()
            .any(|f| f.message.contains("`sleep`") && f.message.contains("`lock_state`")),
        "helper-guard acquisition not tracked: {blocking:#?}"
    );
    assert!(
        blocking
            .iter()
            .any(|f| f.message.contains("`recv`") && f.message.contains("`state`")),
        "direct .lock() acquisition not tracked: {blocking:#?}"
    );
    let src = include_str!("fixtures/blocking_worker.rs");
    for control in ["drain_then_sleep", "scoped", "wait_ready"] {
        let sig_line = 1 + src
            .lines()
            .position(|l| l.contains(&format!("pub fn {control}")))
            .expect("control fn present") as u32;
        let body_end = sig_line + 8;
        assert!(
            !blocking
                .iter()
                .any(|f| f.line >= sig_line && f.line <= body_end),
            "control `{control}` (lines {sig_line}..{body_end}) was flagged: {blocking:#?}"
        );
    }
}

#[test]
fn every_rule_has_an_explain_entry() {
    // `analyze --explain` and the per-module RULE constants must not
    // drift: each rule that can produce findings has rationale text.
    use xtask::analyze::{atomics, blocking, floatdet, lockio, locks, RULES};
    let documented: Vec<&str> = RULES.iter().map(|(name, _, _)| *name).collect();
    let rules = [
        locks::RULE,
        "wal-write",
        floatdet::RULE,
        lockio::RULE,
        atomics::RULE,
        blocking::RULE,
    ];
    for rule in rules {
        assert!(
            documented.contains(&rule),
            "rule `{rule}` has no --explain entry"
        );
    }
    // …and nothing documented that no module can emit: the table and the
    // RULE constants are the same set.
    assert_eq!(
        documented.len(),
        rules.len(),
        "RULES table drifted: {documented:?}"
    );
}

#[test]
fn clean_sources_produce_no_findings() {
    // No lock inversion, no IO under a guard, no hash-order floats — the analyzer
    // must stay silent (rules fire on violations, not style).
    let sources = vec![(
        "fixa/src/lib.rs".to_string(),
        "#![forbid(unsafe_code)]\n\npub fn answer() -> u32 {\n    42\n}\n".to_string(),
    )];
    let findings = analyze_sources(sources, &fixture_config());
    assert!(findings.is_empty(), "got: {findings:#?}");
}
