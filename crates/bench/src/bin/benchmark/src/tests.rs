//! Harness tests: the smoke run of every workload, and the metric tables
//! against `/BENCHMARK.json`.

use std::collections::HashSet;

use super::*;
use fm_server::json::parse;

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// All four workloads at `--smoke` sizes, end-to-end and traced: every
/// check passes, nothing fails, and each run emits exactly the metrics of
/// its table, once, with valid names and units.
#[test]
fn smoke_runs_emit_every_metric_once_and_pass_their_checks() {
    for trace in [false, true] {
        let args = Args {
            workload: "all".into(),
            seed: 2003,
            seconds: 0.4,
            trace,
            smoke: true,
            out: None,
        };
        for workload in &WORKLOADS {
            let outcome = run_workload(workload, &args)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name));
            assert_eq!(
                outcome.violations,
                Vec::<String>::new(),
                "{}",
                workload.name
            );
            assert_eq!(outcome.failed, 0, "{}", workload.name);
            assert!(outcome.attempted >= 1);

            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|(m, _)| m.name).collect()
            };
            let emitted: Vec<&str> = outcome.metrics.iter().map(|(name, _, _)| *name).collect();
            assert_eq!(emitted, expected, "{}", workload.name);
            let distinct: HashSet<&str> = emitted.iter().copied().collect();
            assert_eq!(distinct.len(), emitted.len(), "a metric name repeats");
            for (name, unit, value) in &outcome.metrics {
                assert!(valid_name(name), "bad metric name {name}");
                assert!(valid_unit(unit), "bad unit {unit} of {name}");
                assert!(value.is_finite(), "{name} is not finite");
                if !trace {
                    assert!(*value > 0.0, "end-to-end metric {name} must never be 0");
                }
            }

            // The result line is one JSON object with exactly the four keys.
            let line = parse(&outcome.json_line()).expect("result line parses");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(
                line.get("attempted").and_then(Json::as_u64),
                Some(outcome.attempted)
            );
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            let first = outcome.metrics[0];
            let metric = line
                .get("metrics")
                .and_then(|m| m.get(first.0))
                .expect("metric");
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(first.1));
            assert_eq!(metric.get("value").and_then(Json::as_f64), Some(first.2));
            assert!(parse(&outcome.record_line()).is_ok());
        }
    }
    let trace = output_root().join("mixed_rw.trace.json");
    let text = std::fs::read_to_string(&trace).expect("the traced run wrote its trace");
    let events = parse(&text).expect("trace parses as JSON");
    let events = events
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    for name in [
        "op",
        "core.lookup",
        "core.insert_reference",
        "store.flush",
        "replay",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name)),
            "trace has no {name} span"
        );
    }
}

/// `/BENCHMARK.json` is the driver's copy of the tables in `spec.rs`.
#[test]
fn benchmark_json_repeats_the_tables() {
    let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package
        .ancestors()
        .nth(5)
        .expect("the package sits five levels down");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .to_vec()
    };
    let text_of = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .expect("a string")
            .to_string()
    };

    let path = package.strip_prefix(root).expect("inside the repo");
    let paths = list("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), path.to_str());
    let command: Vec<String> = list("command")
        .iter()
        .map(|c| c.as_str().expect("a string").to_string())
        .collect();
    assert!(command.contains(&format!("{}/Cargo.toml", path.display())));
    assert_eq!(command.last().map(String::as_str), Some("--"));

    let workloads = list("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text_of(entry, "name"), workload.name);
        assert_eq!(text_of(entry, "why"), workload.why);
        assert!(valid_name(workload.name) && workload.why.len() <= 200);
    }
    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, (metric, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text_of(entry, "name"), metric.name);
        assert_eq!(text_of(entry, "unit"), metric.unit);
        assert_eq!(text_of(entry, "better"), metric.better.label());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(*bound));
        assert!(*bound > 0.0 && *bound <= 0.25);
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text_of(entry, "name"), metric.name);
        assert_eq!(text_of(entry, "unit"), metric.unit);
        assert_eq!(text_of(entry, "better"), metric.better.label());
    }
}

#[test]
fn arguments_parse_as_the_driver_passes_them() {
    let argv: Vec<String> = "--workload mixed_rw --seed 7 --seconds 10 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let args = parse_args(&argv).expect("driver arguments parse");
    assert_eq!(
        (args.workload.as_str(), args.seed, args.seconds, args.trace),
        ("mixed_rw", 7, 10.0, true)
    );
    assert!(!args.smoke && args.out.is_none());
    assert!(parse_args(&argv[..2]).is_err(), "--seed is required");
    assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
}
