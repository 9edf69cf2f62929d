//! `cargo xtask bench` — the performance regression gate.
//!
//! Runs the `bench_gate` binary (`crates/bench/src/bin/bench_gate.rs`) in
//! release mode, which writes its report to `target/bench_gate.json`, then:
//!
//! 1. checks the server-telemetry overhead (sampler at 25 ms windows vs
//!    off) is under 5% — a paired-interleaved ratio, so host noise hits
//!    both sides of a pair. (The tracing overhead is not gated here: a
//!    5k-tuple ratio's noise is wider than any useful limit, so
//!    `bench.trace_overhead_pct` at 10^5 under `benchmark compare` owns
//!    it);
//! 2. checks the LSH candidate tier (`lsh` section): top-1 agreement
//!    with the exact ETI must stay at or above 0.95 and the banding index
//!    must fetch fewer candidates per input than the ETI — the
//!    accuracy/throughput contract of DESIGN §12. Both counters are
//!    deterministic given the seed. On the quick corpus the report must
//!    also record `auto_tier: "eti"` (5 000 tuples sit below the Auto
//!    cutover);
//! 3. compares every **deterministic** per-strategy counter against the
//!    committed `BENCH_baseline.json` and fails on >20% relative drift —
//!    these counters are exact functions of the seed, so drift means an
//!    algorithm change that must be acknowledged with `--rebaseline`;
//! 4. reports (but does not gate on) other wall-clock drift, which
//!    tracks the machine more than the code — wall-clock claims belong to
//!    `benchmark compare` (`BENCHMARK.json`).
//!
//! `--rebaseline` copies the fresh report over the baseline.

use std::process::Command;

use fm_server::json::{self, Json};

/// Deterministic per-strategy counters: exact given the seed.
const GATED_COUNTERS: &[&str] = &[
    "accuracy",
    "avg_fetches",
    "avg_tids",
    "avg_eti_lookups",
    "avg_eti_rows",
    "avg_fms_evals",
    "avg_apx_pruned",
];

/// Wall-clock fields: reported, never gated.
const TIMING_FIELDS: &[&str] = &["batch_ms", "throughput_per_s"];

const MAX_COUNTER_DRIFT: f64 = 0.20;
const MAX_OVERHEAD_PCT: f64 = 5.0;

pub fn run(args: &[String]) -> i32 {
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let skip_run = args.iter().any(|a| a == "--skip-run");
    let root = crate::workspace_root();
    let report_path = root.join("target").join("bench_gate.json");
    let baseline_path = root.join("BENCH_baseline.json");

    if !skip_run {
        println!("bench: cargo run --release -p fm-bench --bin bench_gate -- --quick");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args([
                "run",
                "--release",
                "-p",
                "fm-bench",
                "--bin",
                "bench_gate",
                "--",
                "--quick",
                "--out",
            ])
            .arg(&report_path)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench: bench_gate failed with {s}");
                return s.code().unwrap_or(1);
            }
            Err(e) => {
                eprintln!("bench: cannot spawn cargo: {e}");
                return 1;
            }
        }
    }

    let report = match read_report(&report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench: {}: {e}", report_path.display());
            return 1;
        }
    };

    // 1. Server-telemetry overhead gate.
    let mut failures = telemetry_gate(&report);

    // 2. LSH candidate-tier accuracy/efficiency gate.
    failures += lsh_gate(&report);

    // 3+4. Baseline comparison.
    if rebaseline {
        if let Err(e) = std::fs::copy(&report_path, &baseline_path) {
            eprintln!("bench: cannot write {}: {e}", baseline_path.display());
            return 1;
        }
        println!("bench: baseline rewritten from {}", report_path.display());
    } else if baseline_path.exists() {
        match read_report(&baseline_path) {
            Ok(baseline) => failures += compare(&baseline, &report),
            Err(e) => {
                eprintln!("bench: {}: {e}", baseline_path.display());
                return 1;
            }
        }
    } else {
        eprintln!(
            "bench: no {} — run `cargo xtask bench --rebaseline` once to commit one",
            baseline_path.display()
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("bench: {failures} failure(s)");
        1
    } else {
        println!("bench: ok");
        0
    }
}

/// Gate the report's `telemetry` section (sampler-on vs sampler-off
/// served qps); returns the failure count. Reports predating the
/// telemetry subsystem lack the section, so absence fails — the gate
/// must not silently stop measuring.
pub fn telemetry_gate(report: &Json) -> usize {
    match report
        .get("telemetry")
        .and_then(|t| t.get("overhead_pct"))
        .and_then(Json::as_f64)
    {
        Some(pct) if pct <= MAX_OVERHEAD_PCT => {
            println!("bench: telemetry overhead {pct:.2}% (limit {MAX_OVERHEAD_PCT}%)");
            0
        }
        Some(pct) => {
            eprintln!("bench: FAIL telemetry overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}%");
            1
        }
        None => {
            eprintln!("bench: FAIL report has no telemetry.overhead_pct");
            1
        }
    }
}

/// Floor on top-1 agreement between the LSH tier and the exact ETI.
const MIN_LSH_RECALL: f64 = 0.95;

/// Gate the report's `lsh` section; returns the failure count. Both
/// gated values are deterministic counters: recall-of-top-1 against the
/// exact ETI answer must hold the floor, and the banding index must
/// fetch strictly fewer candidates per input than the ETI (otherwise
/// the tier costs accuracy and buys nothing). Throughput is wall-clock
/// and only reported. A quick-corpus report must record that the Auto
/// policy resolves to `eti` — 5 000 tuples are below the cutover.
pub fn lsh_gate(report: &Json) -> usize {
    let Some(lsh) = report.get("lsh") else {
        eprintln!("bench: FAIL report has no lsh section");
        return 1;
    };
    let field = |key: &str| lsh.get(key).and_then(Json::as_f64);
    let (Some(recall), Some(eti_fetches), Some(lsh_fetches)) = (
        field("recall_top1"),
        field("eti_avg_fetches"),
        field("lsh_avg_fetches"),
    ) else {
        eprintln!("bench: FAIL lsh section is missing fields");
        return 1;
    };
    let mut failures = 0usize;
    if recall < MIN_LSH_RECALL {
        eprintln!("bench: FAIL lsh recall@1 {recall:.3} below the {MIN_LSH_RECALL} floor");
        failures += 1;
    }
    if lsh_fetches >= eti_fetches {
        eprintln!(
            "bench: FAIL lsh tier fetches {lsh_fetches:.2}/input, not fewer than \
             the eti's {eti_fetches:.2}"
        );
        failures += 1;
    }
    let quick = report.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let auto_tier = lsh.get("auto_tier").and_then(Json::as_str);
    if quick && auto_tier != Some("eti") {
        eprintln!("bench: FAIL quick-corpus auto tier resolved to {auto_tier:?}, expected \"eti\"");
        failures += 1;
    }
    if failures == 0 {
        let (eq, lq) = (
            field("eti_qps").unwrap_or(0.0),
            field("lsh_qps").unwrap_or(0.0),
        );
        println!(
            "bench: lsh tier recall@1 {recall:.3} (floor {MIN_LSH_RECALL}), fetches \
             {eti_fetches:.2} -> {lsh_fetches:.2}/input, {eq:.0} -> {lq:.0} qps \
             (wall-clock, not gated)"
        );
    }
    failures
}

fn read_report(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    json::parse(&text)
}

fn strategy_rows(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("strategies")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("strategy").and_then(Json::as_str).map(|s| (s, r)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compare a fresh report against the baseline; returns the failure count.
pub fn compare(baseline: &Json, report: &Json) -> usize {
    let mut failures = 0usize;
    let base_rows = strategy_rows(baseline);
    let new_rows = strategy_rows(report);
    if base_rows.is_empty() {
        eprintln!("bench: FAIL baseline has no strategy rows");
        return 1;
    }
    for (name, base) in &base_rows {
        let Some((_, fresh)) = new_rows.iter().find(|(n, _)| n == name) else {
            eprintln!("bench: FAIL strategy {name} missing from fresh report");
            failures += 1;
            continue;
        };
        for key in GATED_COUNTERS {
            let (Some(b), Some(f)) = (
                base.get(key).and_then(Json::as_f64),
                fresh.get(key).and_then(Json::as_f64),
            ) else {
                eprintln!("bench: FAIL {name}.{key} missing on one side");
                failures += 1;
                continue;
            };
            let drift = relative_drift(b, f);
            if drift > MAX_COUNTER_DRIFT {
                eprintln!(
                    "bench: FAIL {name}.{key}: {b:.4} -> {f:.4} ({:+.1}%, limit ±{:.0}%)",
                    drift * 100.0,
                    MAX_COUNTER_DRIFT * 100.0
                );
                failures += 1;
            }
        }
        for key in TIMING_FIELDS {
            if let (Some(b), Some(f)) = (
                base.get(key).and_then(Json::as_f64),
                fresh.get(key).and_then(Json::as_f64),
            ) {
                let drift = relative_drift(b, f);
                if drift > MAX_COUNTER_DRIFT {
                    println!(
                        "bench: note {name}.{key}: {b:.1} -> {f:.1} \
                         (wall-clock, not gated)"
                    );
                }
            }
        }
    }
    failures
}

fn relative_drift(base: f64, fresh: f64) -> f64 {
    if base == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (fresh - base).abs() / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fetches: f64, batch_ms: f64) -> Json {
        json::parse(&format!(
            r#"{{"strategies": [{{"strategy": "Q+T_3", "accuracy": 0.9,
                "avg_fetches": {fetches}, "avg_tids": 100.0,
                "avg_eti_lookups": 10.0, "avg_eti_rows": 9.0,
                "avg_fms_evals": {fetches}, "avg_apx_pruned": 5.0,
                "batch_ms": {batch_ms}, "throughput_per_s": 1000.0}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn telemetry_gate_arms_at_5pct() {
        let ok = json::parse(r#"{"telemetry": {"overhead_pct": 2.4}}"#).unwrap();
        assert_eq!(telemetry_gate(&ok), 0);
        let slow = json::parse(r#"{"telemetry": {"overhead_pct": 7.1}}"#).unwrap();
        assert_eq!(telemetry_gate(&slow), 1);
        let missing = json::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(telemetry_gate(&missing), 1);
    }

    fn lsh_report(recall: f64, eti_fetches: f64, lsh_fetches: f64, auto_tier: &str) -> Json {
        json::parse(&format!(
            r#"{{"quick": true, "lsh": {{"recall_top1": {recall},
                "eti_avg_fetches": {eti_fetches}, "lsh_avg_fetches": {lsh_fetches},
                "eti_qps": 2000.0, "lsh_qps": 1900.0, "auto_tier": "{auto_tier}"}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn lsh_gate_holds_recall_and_fetch_reduction() {
        assert_eq!(lsh_gate(&lsh_report(0.975, 40.66, 39.73, "eti")), 0);
        // Recall below the floor.
        assert_eq!(lsh_gate(&lsh_report(0.91, 40.66, 39.73, "eti")), 1);
        // Banding that fetches as much as the ETI buys nothing.
        assert_eq!(lsh_gate(&lsh_report(0.975, 40.0, 40.0, "eti")), 1);
        // Both regressions are counted separately.
        assert_eq!(lsh_gate(&lsh_report(0.90, 40.0, 41.0, "eti")), 2);
    }

    #[test]
    fn lsh_gate_pins_the_quick_corpus_auto_tier_to_eti() {
        assert_eq!(lsh_gate(&lsh_report(0.975, 40.66, 39.73, "lsh")), 1);
    }

    #[test]
    fn lsh_gate_fails_on_missing_section() {
        let missing = json::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(lsh_gate(&missing), 1);
        let partial = json::parse(r#"{"lsh": {"recall_top1": 0.99}}"#).unwrap();
        assert_eq!(lsh_gate(&partial), 1);
    }

    #[test]
    fn identical_reports_pass() {
        assert_eq!(compare(&report(40.0, 100.0), &report(40.0, 100.0)), 0);
    }

    #[test]
    fn counter_drift_over_20pct_fails() {
        // avg_fetches and avg_fms_evals both drift by 50% -> 2 failures.
        assert_eq!(compare(&report(40.0, 100.0), &report(60.0, 100.0)), 2);
    }

    #[test]
    fn wall_clock_drift_is_not_gated() {
        assert_eq!(compare(&report(40.0, 100.0), &report(40.0, 500.0)), 0);
    }

    #[test]
    fn missing_strategy_fails() {
        let empty = json::parse(r#"{"strategies": []}"#).unwrap();
        assert_eq!(compare(&report(40.0, 100.0), &empty), 1);
    }
}
