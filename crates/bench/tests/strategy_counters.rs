//! The paper's §6 counters on the 5 000-tuple quick corpus, held exactly.
//!
//! Three signature strategies (one light, one medium, one heavy) run the
//! 400 D2 Type-I inputs of seed 2003 under OSC through the harness path
//! every figure binary uses (`Workbench` → `make_dataset` →
//! `run_strategy`). Each count is a total over the 400 inputs:
//! accuracy (Figure 5), candidates fetched (Figure 8), tids processed
//! (Figure 9), ETI lookups and rows, exact `fms` evaluations and
//! `fms_apx` prunes. They are exact functions of the seed, so any
//! difference is an algorithm change. When the change is intended, copy
//! the fresh table this test prints into [`EXPECTED`] and say why in
//! CHANGES.md.

use fm_bench::{make_dataset, run_strategy, EfficiencyRow, Opts, Strategy, Workbench};
use fm_core::{QueryMode, SignatureScheme};
use fm_datagen::ErrorModel;

const REF_SIZE: usize = 5_000;
const INPUTS: usize = 400;
const SEED: u64 = 2003;

/// The counters of [`EXPECTED`], in order.
const COLUMNS: &str =
    "correct, candidates_fetched, tids_processed, qgrams_probed, eti_rows, fms_evals, apx_pruned";

/// Totals over the 400 inputs, in [`COLUMNS`] order.
const EXPECTED: [(&str, [u64; 7]); 3] = [
    ("Q_1", [381, 18_783, 472_650, 2_135, 2_251, 2_355, 137_190]),
    (
        "Q+T_2",
        [378, 16_756, 827_883, 5_279, 4_836, 2_429, 162_696],
    ),
    (
        "Q+T_3",
        [378, 16_735, 1_046_188, 6_841, 6_267, 2_418, 172_455],
    ),
];

/// The row's per-input means back as totals. Each mean is a total
/// divided by `INPUTS`, so rounding recovers the total exactly.
fn totals(row: &EfficiencyRow) -> [u64; 7] {
    [
        row.accuracy,
        row.avg_fetches,
        row.avg_tids,
        row.avg_eti_lookups,
        row.avg_eti_rows,
        row.avg_fms_evals,
        row.avg_apx_pruned,
    ]
    .map(|mean| (mean * INPUTS as f64).round() as u64)
}

#[test]
fn quick_corpus_counters_are_exact() {
    let opts = Opts {
        ref_size: REF_SIZE,
        inputs: INPUTS,
        seed: SEED,
        ..Opts::default()
    };
    let bench = Workbench::new(&opts);
    let dataset = make_dataset(
        &bench.reference,
        INPUTS,
        &fm_datagen::D2_PROBS,
        ErrorModel::TypeI,
        SEED,
    );
    let strategies = [
        (SignatureScheme::QGrams, 1),
        (SignatureScheme::QGramsPlusToken, 2),
        (SignatureScheme::QGramsPlusToken, 3),
    ];
    let fresh: Vec<(String, [u64; 7])> = strategies
        .iter()
        .map(|&(scheme, h)| {
            let row = run_strategy(&bench, &Strategy { scheme, h }, &dataset, QueryMode::Osc);
            (row.strategy.clone(), totals(&row))
        })
        .collect();
    if !fresh.iter().map(|(n, t)| (n.as_str(), *t)).eq(EXPECTED) {
        let rows: String = fresh.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!(
            "quick-corpus counters changed; fresh totals over {INPUTS} inputs \
             ({COLUMNS}):\n{rows}"
        );
    }
}
