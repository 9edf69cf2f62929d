//! Shared experiment harness: strategies, datasets, matchers, metrics.

use std::time::{Duration, Instant};

use fm_core::config::OscStopping;
use fm_core::naive::{EditDistanceMatcher, NaiveMatcher};
use fm_core::{Config, FuzzyMatcher, MetricsRegistry, QueryMode, Record, SignatureScheme};
use fm_datagen::{
    generate_customers, make_inputs, ErrorModel, ErrorSpec, GeneratorConfig, InputDataset,
    CUSTOMER_COLUMNS,
};
use fm_store::Database;

use crate::opts::Opts;

/// One point on the paper's strategy axis (`Q_H` / `Q+T_H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    pub scheme: SignatureScheme,
    pub h: usize,
}

impl Strategy {
    pub fn label(&self) -> String {
        self.scheme.label(self.h)
    }

    /// Matcher configuration for this strategy with the paper's settings
    /// (q = 4, c_ins = 0.5, stop threshold 10 000).
    pub fn config(&self, seed: u64) -> Config {
        Config::default()
            .with_columns(&CUSTOMER_COLUMNS)
            .with_signature(self.scheme, self.h)
            .with_seed(seed)
    }

    /// Like [`Strategy::config`] with an explicit OSC stopping flavor.
    pub fn config_with(&self, seed: u64, osc: OscStopping) -> Config {
        self.config(seed).with_osc_stopping(osc)
    }
}

/// The paper's strategy axis in Figure 5–10 order:
/// `Q+T_0, Q_1, Q+T_1, Q_2, Q+T_2, Q_3, Q+T_3`.
pub fn default_strategies() -> Vec<Strategy> {
    let mut v = vec![Strategy {
        scheme: SignatureScheme::QGramsPlusToken,
        h: 0,
    }];
    for h in 1..=3 {
        v.push(Strategy {
            scheme: SignatureScheme::QGrams,
            h,
        });
        v.push(Strategy {
            scheme: SignatureScheme::QGramsPlusToken,
            h,
        });
    }
    v
}

/// Generate the synthetic Customer reference relation.
pub fn reference_records(opts: &Opts) -> Vec<Record> {
    generate_customers(&GeneratorConfig::new(opts.ref_size, opts.seed))
}

/// Generate an erroneous input dataset from the reference.
pub fn make_dataset(
    reference: &[Record],
    count: usize,
    probs: &[f64; 4],
    model: ErrorModel,
    seed: u64,
) -> InputDataset {
    make_inputs(reference, count, &ErrorSpec::new(probs, model, seed))
}

/// Shared state for one experiment run: the reference relation and the
/// database holding per-strategy matchers. Matchers are built once per
/// strategy and cached, so a suite touching several datasets pays each
/// build exactly once.
pub struct Workbench {
    pub db: Database,
    pub reference: Vec<Record>,
    pub opts: Opts,
    matchers: std::cell::RefCell<
        std::collections::HashMap<String, (std::sync::Arc<FuzzyMatcher>, Duration)>,
    >,
}

impl Workbench {
    pub fn new(opts: &Opts) -> Workbench {
        let reference = reference_records(opts);
        Workbench {
            db: Database::in_memory().expect("in-memory database"),
            reference,
            opts: opts.clone(),
            matchers: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }

    /// Build (or reuse) the matcher for a strategy under the default
    /// (sound) OSC stopping flavor.
    pub fn matcher(&self, strategy: &Strategy) -> (std::sync::Arc<FuzzyMatcher>, Duration) {
        self.matcher_with(strategy, OscStopping::Sound)
    }

    /// Build (or reuse) the matcher for a strategy and OSC stopping flavor;
    /// the build time is that of the original build.
    pub fn matcher_with(
        &self,
        strategy: &Strategy,
        osc: OscStopping,
    ) -> (std::sync::Arc<FuzzyMatcher>, Duration) {
        let label = format!("{}:{osc:?}", strategy.label());
        if let Some((m, d)) = self.matchers.borrow().get(&label) {
            return (std::sync::Arc::clone(m), *d);
        }
        let prefix = format!("cust_{}_{osc:?}", strategy.label().replace('+', "t"));
        let start = Instant::now();
        let matcher = FuzzyMatcher::build(
            &self.db,
            &prefix,
            self.reference.iter().cloned(),
            strategy.config_with(self.opts.seed, osc),
        )
        .expect("matcher build");
        let elapsed = start.elapsed();
        let matcher = std::sync::Arc::new(matcher);
        self.matchers
            .borrow_mut()
            .insert(label, (std::sync::Arc::clone(&matcher), elapsed));
        (matcher, elapsed)
    }
}

/// Was the answer correct? The paper counts an input correct when the seed
/// tuple is returned as the closest match; synthetic data can contain exact
/// duplicate tuples, so an answer identical in content to the seed also
/// counts (either tuple is "the" seed).
pub fn answer_correct(
    reference: &[Record],
    target_index: usize,
    answer_tid: Option<u32>,
    answer_record: Option<&Record>,
) -> bool {
    match answer_tid {
        None => false,
        Some(tid) => {
            if tid as usize == target_index + 1 {
                return true;
            }
            match answer_record {
                Some(rec) => rec.values() == reference[target_index].values(),
                None => {
                    let idx = tid as usize - 1;
                    idx < reference.len()
                        && reference[idx].values() == reference[target_index].values()
                }
            }
        }
    }
}

/// Accuracy of a matcher over a dataset (paper metric 2), K = 1, c = 0.
pub fn accuracy(
    matcher: &FuzzyMatcher,
    reference: &[Record],
    dataset: &InputDataset,
    mode: QueryMode,
) -> f64 {
    let mut correct = 0usize;
    for (i, input) in dataset.inputs.iter().enumerate() {
        let result = matcher.lookup_with(input, 1, 0.0, mode).expect("lookup");
        let m = result.matches.first();
        if answer_correct(
            reference,
            dataset.targets[i],
            m.map(|m| m.tid),
            m.map(|m| &m.record),
        ) {
            correct += 1;
        }
    }
    correct as f64 / dataset.inputs.len() as f64
}

/// Accuracy of the naive fms baseline.
pub fn naive_accuracy(naive: &NaiveMatcher, reference: &[Record], dataset: &InputDataset) -> f64 {
    let mut correct = 0usize;
    for (i, input) in dataset.inputs.iter().enumerate() {
        let hits = naive.lookup(input, 1, 0.0);
        if answer_correct(
            reference,
            dataset.targets[i],
            hits.first().map(|m| m.tid),
            None,
        ) {
            correct += 1;
        }
    }
    correct as f64 / dataset.inputs.len() as f64
}

/// Accuracy of the edit-distance baseline.
pub fn ed_accuracy(ed: &EditDistanceMatcher, reference: &[Record], dataset: &InputDataset) -> f64 {
    let mut correct = 0usize;
    for (i, input) in dataset.inputs.iter().enumerate() {
        let hits = ed.lookup(input, 1, 0.0);
        if answer_correct(
            reference,
            dataset.targets[i],
            hits.first().map(|m| m.tid),
            None,
        ) {
            correct += 1;
        }
    }
    correct as f64 / dataset.inputs.len() as f64
}

/// Mean elapsed time of a single naive full-scan lookup (the denominator of
/// the paper's *normalized elapsed time*).
pub fn naive_single_lookup_time(
    naive: &NaiveMatcher,
    dataset: &InputDataset,
    samples: usize,
) -> Duration {
    let n = samples.min(dataset.inputs.len()).max(1);
    let start = Instant::now();
    for input in dataset.inputs.iter().take(n) {
        std::hint::black_box(naive.lookup(input, 1, 0.0));
    }
    start.elapsed() / n as u32
}

/// Per-strategy measurements for the efficiency figures (6–10).
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    pub strategy: String,
    pub accuracy: f64,
    pub build_time: Duration,
    pub batch_time: Duration,
    /// batch time / naive single-lookup time (paper metric 1, Figure 6).
    pub normalized_time: f64,
    /// build time / naive single-lookup time (Figure 7).
    pub normalized_build: f64,
    /// Mean reference tuples fetched per input (Figure 8).
    pub avg_fetches: f64,
    /// Mean fetches among OSC-successful inputs (Figure 8 split).
    pub avg_fetches_osc_success: f64,
    /// Mean fetches among OSC-failed inputs (Figure 8 split).
    pub avg_fetches_osc_failure: f64,
    /// Mean tids processed per input (Figure 9).
    pub avg_tids: f64,
    /// Fraction of inputs answered by a successful short circuit (Fig 10).
    pub osc_success_fraction: f64,
    /// Mean logical ETI lookups per input.
    pub avg_eti_lookups: f64,
    /// Mean ETI rows (B+-tree chunk records) touched per input.
    pub avg_eti_rows: f64,
    /// Mean exact `fms` evaluations per input (equals fetches: every
    /// fetched candidate is verified exactly once).
    pub avg_fms_evals: f64,
    /// Mean candidates pruned by the `fms_apx` score bound per input.
    pub avg_apx_pruned: f64,
}

/// Run the full efficiency suite over one dataset for one strategy.
pub fn run_strategy(
    bench: &Workbench,
    strategy: &Strategy,
    dataset: &InputDataset,
    mode: QueryMode,
) -> EfficiencyRow {
    run_strategy_with(bench, strategy, dataset, mode, OscStopping::Sound)
}

/// Figures 8–10's runs, one row per default strategy as it completes:
/// the D2 Type-I inputs under OSC with the paper's own stopping test.
pub fn for_each_d2_paper_osc_row(opts: &Opts, mut f: impl FnMut(EfficiencyRow)) {
    let bench = Workbench::new(opts);
    let d2 = make_dataset(
        &bench.reference,
        opts.inputs,
        &fm_datagen::D2_PROBS,
        ErrorModel::TypeI,
        opts.seed + u64::from(b'2'),
    );
    for s in default_strategies() {
        f(run_strategy_with(
            &bench,
            &s,
            &d2,
            QueryMode::Osc,
            OscStopping::PaperExample,
        ));
    }
}

/// [`run_strategy`] with an explicit OSC stopping flavor.
pub fn run_strategy_with(
    bench: &Workbench,
    strategy: &Strategy,
    dataset: &InputDataset,
    mode: QueryMode,
    osc: OscStopping,
) -> EfficiencyRow {
    let (matcher, build_time) = bench.matcher_with(strategy, osc);
    let mut correct = 0usize;
    let mut fetches_success = 0u64;
    let registry = MetricsRegistry::new();
    let start = Instant::now();
    for (i, input) in dataset.inputs.iter().enumerate() {
        let result = matcher.lookup_with(input, 1, 0.0, mode).expect("lookup");
        let m = result.matches.first();
        if answer_correct(
            &bench.reference,
            dataset.targets[i],
            m.map(|m| m.tid),
            m.map(|m| &m.record),
        ) {
            correct += 1;
        }
        // Everything below comes straight off the query-path trace, summed
        // by a registry of this run's own; the harness recomputes no
        // counter the matcher already accounts for.
        let t = result.trace;
        registry.record(&t);
        if t.osc_succeeded() {
            fetches_success += t.candidates_fetched;
        }
    }
    let batch_time = start.elapsed();
    let metrics = registry.snapshot();
    let totals = metrics.totals;
    let n = dataset.inputs.len() as f64;
    let success = metrics.osc_short_circuits;
    let failures = metrics.lookups - success;
    let fetches_failure = totals.candidates_fetched - fetches_success;
    EfficiencyRow {
        strategy: strategy.label(),
        accuracy: correct as f64 / n,
        build_time,
        batch_time,
        normalized_time: 0.0, // filled by the caller once the naive time is known
        normalized_build: 0.0, // ditto
        avg_fetches: totals.candidates_fetched as f64 / n,
        avg_fetches_osc_success: if success > 0 {
            fetches_success as f64 / success as f64
        } else {
            0.0
        },
        avg_fetches_osc_failure: if failures > 0 {
            fetches_failure as f64 / failures as f64
        } else {
            0.0
        },
        avg_tids: totals.tids_processed as f64 / n,
        osc_success_fraction: success as f64 / n,
        avg_eti_lookups: totals.qgrams_probed as f64 / n,
        avg_eti_rows: totals.eti_rows as f64 / n,
        avg_fms_evals: totals.fms_evals as f64 / n,
        avg_apx_pruned: totals.apx_pruned as f64 / n,
    }
}

/// Fill the normalized columns given the measured naive unit time.
pub fn normalize(rows: &mut [EfficiencyRow], naive_unit: Duration) {
    let unit = naive_unit.as_secs_f64().max(1e-9);
    for r in rows {
        r.normalized_time = r.batch_time.as_secs_f64() / unit;
        r.normalized_build = r.build_time.as_secs_f64() / unit;
    }
}

/// Results of the full §6.2 efficiency/accuracy suite.
pub struct SuiteResult {
    /// `(dataset label, rows per strategy)` for D1, D2, D3.
    pub datasets: Vec<(String, Vec<EfficiencyRow>)>,
    /// Mean single-input naive scan time (the normalization unit).
    pub naive_unit: Duration,
}

/// Run every strategy over D1–D3 (Type I errors, Table 5 probabilities),
/// with the paper's parameters (K = 1, q = 4, c = 0, c_ins = 0.5). All of
/// Figures 5–10 are projections of this result; `osc` picks the OSC
/// stopping flavor.
pub fn run_full_suite_with(opts: &Opts, mode: QueryMode, osc: OscStopping) -> SuiteResult {
    let bench = Workbench::new(opts);
    let dataset_specs: [(&str, [f64; 4]); 3] = [
        ("D1", fm_datagen::D1_PROBS),
        ("D2", fm_datagen::D2_PROBS),
        ("D3", fm_datagen::D3_PROBS),
    ];

    // Naive unit time, measured once on D2-style inputs.
    let tuples: Vec<(u32, Record)> = bench
        .reference
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, r)| (i as u32 + 1, r))
        .collect();
    let naive_config = Strategy {
        scheme: SignatureScheme::QGramsPlusToken,
        h: 3,
    }
    .config(opts.seed);
    let naive = NaiveMatcher::from_records(&tuples, naive_config);
    let sample_ds = make_dataset(
        &bench.reference,
        opts.naive_samples.max(1),
        &fm_datagen::D2_PROBS,
        ErrorModel::TypeI,
        opts.seed ^ 0x7A11,
    );
    let naive_unit = naive_single_lookup_time(&naive, &sample_ds, opts.naive_samples);
    eprintln!(
        "[suite] reference = {} tuples, naive single-lookup = {:.1} ms",
        bench.reference.len(),
        naive_unit.as_secs_f64() * 1e3
    );

    let mut datasets = Vec::new();
    for (label, probs) in dataset_specs {
        let dataset = make_dataset(
            &bench.reference,
            opts.inputs,
            &probs,
            ErrorModel::TypeI,
            opts.seed + label.as_bytes()[1] as u64,
        );
        let mut rows = Vec::new();
        for strategy in default_strategies() {
            let row = run_strategy_with(&bench, &strategy, &dataset, mode, osc);
            eprintln!(
                "[suite] {label} {:>6}: accuracy {:.1}%, batch {:.2}s",
                row.strategy,
                row.accuracy * 100.0,
                row.batch_time.as_secs_f64()
            );
            rows.push(row);
        }
        normalize(&mut rows, naive_unit);
        datasets.push((label.to_string(), rows));
    }
    SuiteResult {
        datasets,
        naive_unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> Opts {
        Opts {
            ref_size: 400,
            inputs: 40,
            seed: 11,
            naive_samples: 5,
            out: "/tmp".into(),
        }
    }

    #[test]
    fn strategy_axis_matches_paper() {
        let labels: Vec<String> = default_strategies().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Q+T_0", "Q_1", "Q+T_1", "Q_2", "Q+T_2", "Q_3", "Q+T_3"]
        );
    }

    #[test]
    fn end_to_end_small_run() {
        let opts = small_opts();
        let bench = Workbench::new(&opts);
        let dataset = make_dataset(
            &bench.reference,
            opts.inputs,
            &fm_datagen::D3_PROBS,
            ErrorModel::TypeI,
            opts.seed,
        );
        let strategy = Strategy {
            scheme: SignatureScheme::QGramsPlusToken,
            h: 2,
        };
        let row = run_strategy(&bench, &strategy, &dataset, QueryMode::Osc);
        assert!(row.accuracy > 0.5, "accuracy {:.3} too low", row.accuracy);
        assert!(row.avg_eti_lookups > 0.0);
        assert!(row.avg_tids > 0.0);
        assert!(row.avg_fetches > 0.0);
        assert!(row.avg_eti_rows > 0.0);
        // A fetched candidate is evaluated in full at most once; the
        // verification bounds reject the rest from the raw row.
        assert!(row.avg_fms_evals > 0.0 && row.avg_fms_evals <= row.avg_fetches);
    }

    #[test]
    fn answer_correct_accepts_duplicate_content() {
        let refs = vec![
            Record::new(&["a b", "c", "d", "e"]),
            Record::new(&["a b", "c", "d", "e"]), // duplicate of 0
            Record::new(&["x", "y", "z", "w"]),
        ];
        // Target is tuple 0, but the matcher returned tid 2 (the duplicate).
        assert!(answer_correct(&refs, 0, Some(2), None));
        assert!(answer_correct(&refs, 0, Some(1), None));
        assert!(!answer_correct(&refs, 0, Some(3), None));
        assert!(!answer_correct(&refs, 0, None, None));
        // With an answer record, content comparison applies.
        let dup = refs[1].clone();
        assert!(answer_correct(&refs, 0, Some(2), Some(&dup)));
    }

    #[test]
    fn naive_baseline_runs() {
        let opts = small_opts();
        let bench = Workbench::new(&opts);
        let tuples: Vec<(u32, Record)> = bench
            .reference
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u32 + 1, r))
            .collect();
        let naive = NaiveMatcher::from_records(
            &tuples,
            Strategy {
                scheme: SignatureScheme::QGramsPlusToken,
                h: 2,
            }
            .config(opts.seed),
        );
        let dataset = make_dataset(
            &bench.reference,
            10,
            &fm_datagen::D3_PROBS,
            ErrorModel::TypeI,
            opts.seed,
        );
        let acc = naive_accuracy(&naive, &bench.reference, &dataset);
        assert!(acc > 0.5);
        let t = naive_single_lookup_time(&naive, &dataset, 3);
        assert!(t.as_nanos() > 0);
    }
}
