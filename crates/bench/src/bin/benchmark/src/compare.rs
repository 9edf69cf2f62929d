//! `benchmark compare A.jsonl B.jsonl`: two sets of `--out` result lines
//! (A the base, B the candidate), judged per workload and end-to-end
//! metric against the bound the benchmark fixed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median_f64, quartiles};
use crate::Res;

/// workload → metric → the values of every end-to-end run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Res<Runs> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = || format!("{}:{}", path.display(), number + 1);
        let doc = fm_server::json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if doc.get("trace").and_then(|t| t.as_u64()) != Some(0) {
            continue; // per-layer metrics carry no bound
        }
        let workload = doc
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (metric, _) in END_TO_END {
            let value = doc
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{}: no metric {}", at(), metric.name))?;
            by_metric
                .entry(metric.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

struct Side {
    median: f64,
    /// Interquartile range as a share of the median; `None` below two runs.
    spread: Option<f64>,
    runs: usize,
}

fn side(values: &[f64]) -> Side {
    let median = median_f64(&mut values.to_vec());
    Side {
        median,
        spread: quartiles(values).map(|(q1, q3)| (q3 - q1) / median.abs().max(f64::MIN_POSITIVE)),
        runs: values.len(),
    }
}

/// `regressed` when B's median is worse than A's by more than the bound;
/// otherwise `unresolved` when either side's spread is wider than the
/// bound (the runs cannot show "unchanged"); otherwise `ok`.
fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> (&'static str, f64) {
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let wide = |s: &Side| s.spread.is_some_and(|spread| spread > bound);
    let label = if worse_by > bound {
        "regressed"
    } else if wide(a) || wide(b) {
        "unresolved"
    } else {
        "ok"
    };
    (label, worse_by)
}

/// Prints one row per workload and metric; `Ok(false)` on any regression.
pub fn compare(a_path: &Path, b_path: &Path) -> Res<bool> {
    let a_runs = load(a_path)?;
    let b_runs = load(b_path)?;
    println!(
        "{:<13} {:<17} {:>14} {:>8} {:>14} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "A median (n)", "A iqr", "B median (n)", "B iqr", "B/A", "bound"
    );
    let mut regressions = 0;
    let mut rows = 0;
    for workload in &WORKLOADS {
        let (Some(a), Some(b)) = (a_runs.get(workload.name), b_runs.get(workload.name)) else {
            continue;
        };
        for (metric, bound) in END_TO_END {
            let (a, b) = (side(&a[metric.name]), side(&b[metric.name]));
            let (label, worse_by) = verdict(&a, &b, metric.better, *bound);
            let spread = |s: &Side| {
                s.spread
                    .map_or("-".to_string(), |v| format!("{:.1}%", 100.0 * v))
            };
            println!(
                "{:<13} {:<17} {:>10.4} ({}) {:>8} {:>10.4} ({}) {:>8} {:>9.4} {:>6.0}%  {label} ({:+.1}% worse, {} is better, base A = {:.4} {})",
                workload.name,
                metric.name,
                a.median,
                a.runs,
                spread(&a),
                b.median,
                b.runs,
                spread(&b),
                b.median / a.median,
                100.0 * bound,
                100.0 * worse_by,
                metric.better.label(),
                a.median,
                metric.unit,
            );
            regressions += usize::from(label == "regressed");
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end runs".into());
    }
    println!("{rows} comparisons, {regressions} regressed");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(median: f64, spread: Option<f64>) -> Side {
        Side {
            median,
            spread,
            runs: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = one(100.0, Some(0.01));
        assert_eq!(
            verdict(&base, &one(109.0, Some(0.01)), Better::Lower, 0.10).0,
            "ok"
        );
        assert_eq!(
            verdict(&base, &one(111.0, Some(0.01)), Better::Lower, 0.10).0,
            "regressed"
        );
        assert_eq!(
            verdict(&base, &one(111.0, Some(0.01)), Better::Higher, 0.10).0,
            "ok"
        );
        assert_eq!(
            verdict(&base, &one(89.0, Some(0.01)), Better::Higher, 0.10).0,
            "regressed"
        );
        assert_eq!(
            verdict(&base, &one(101.0, Some(0.2)), Better::Lower, 0.10).0,
            "unresolved"
        );
        assert_eq!(
            verdict(&base, &one(150.0, Some(0.2)), Better::Lower, 0.10).0,
            "regressed"
        );
        assert_eq!(
            verdict(&base, &one(101.0, None), Better::Lower, 0.10).0,
            "ok"
        );
    }
}
