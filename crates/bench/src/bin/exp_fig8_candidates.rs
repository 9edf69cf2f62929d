//! Figure 8 — average number of reference tuples fetched per input tuple
//! (the candidate set actually verified with `fms`), split by OSC outcome.
//!
//! Paper observations to reproduce: fetches shrink as the signature grows
//! (more q-grams separate the scores better), and when OSC succeeds the
//! algorithm fetches ≈1 tuple per input.

use fm_bench::{for_each_d2_paper_osc_row, write_csv, Opts, Table};

fn main() {
    let opts = Opts::from_args();
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
    for_each_d2_paper_osc_row(&opts, |row| {
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
    });
    write_csv(&table, &opts.out, "fig8_candidates");
}
