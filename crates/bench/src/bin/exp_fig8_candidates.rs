//! Figure 8 — average number of reference tuples fetched per input tuple
//! (the candidate set actually verified with `fms`), split by OSC outcome.
//!
//! Paper observations to reproduce: fetches shrink as the signature grows
//! (more q-grams separate the scores better), and when OSC succeeds the
//! algorithm fetches ≈1 tuple per input.

use fm_bench::{
    default_strategies, make_dataset, run_strategy_with, write_csv, Opts, Table, Workbench,
};
use fm_core::{OscStopping, QueryMode};
use fm_datagen::{ErrorModel, D2_PROBS};

fn main() {
    let opts = Opts::from_args();
    let bench = Workbench::new(&opts);
    let dataset = make_dataset(
        &bench.reference,
        opts.inputs,
        &D2_PROBS,
        ErrorModel::TypeI,
        opts.seed + u64::from(b'2'),
    );
    let mut table = Table::new(
        "Figure 8 — reference tuples fetched per input tuple (D2)",
        &[
            "strategy",
            "avg fetches",
            "OSC success",
            "OSC failure",
            "fms evals",
            "apx pruned",
        ],
    );
    for strategy in default_strategies() {
        let row = run_strategy_with(
            &bench,
            &strategy,
            &dataset,
            QueryMode::Osc,
            OscStopping::PaperExample,
        );
        // Both counts come off the per-query LookupTrace; a fetched tuple
        // gets a full fms evaluation unless the verification bounds reject
        // it first, so the "fms evals" column can only be the smaller one.
        eprintln!(
            "[fig8] {:>6}: {:.2} fetches ({:.2} on success / {:.2} on failure), {:.2} apx-pruned",
            row.strategy,
            row.avg_fetches,
            row.avg_fetches_osc_success,
            row.avg_fetches_osc_failure,
            row.avg_apx_pruned,
        );
        table.row(vec![
            row.strategy.clone(),
            format!("{:.2}", row.avg_fetches),
            format!("{:.2}", row.avg_fetches_osc_success),
            format!("{:.2}", row.avg_fetches_osc_failure),
            format!("{:.2}", row.avg_fms_evals),
            format!("{:.2}", row.avg_apx_pruned),
        ]);
    }
    write_csv(&table, &opts.out, "fig8_candidates");
}
