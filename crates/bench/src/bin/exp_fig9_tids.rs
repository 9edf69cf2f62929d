//! Figure 9 — average number of tids processed per input tuple on D2.
//!
//! Paper observation to reproduce: the count *rises* with signature size
//! (more coordinates mean more tid-lists to score) even as candidate
//! fetches (Figure 8) fall — the extra scoring is "more than compensated"
//! by the smaller candidate sets.

use fm_bench::{for_each_d2_paper_osc_row, write_csv, Opts, Table};

fn main() {
    let opts = Opts::from_args();
    let mut table = Table::new(
        "Figure 9 — tids processed per input tuple (D2)",
        &[
            "strategy",
            "avg tids processed",
            "avg ETI lookups",
            "avg ETI rows",
        ],
    );
    for_each_d2_paper_osc_row(&opts, |row| {
        // All three counters come off the per-query LookupTrace; a probe
        // can touch several chunked ETI rows, never fewer than zero.
        eprintln!(
            "[fig9] {:>6}: {:.0} tids, {:.1} lookups, {:.1} ETI rows",
            row.strategy, row.avg_tids, row.avg_eti_lookups, row.avg_eti_rows
        );
        table.row(vec![
            row.strategy.clone(),
            format!("{:.0}", row.avg_tids),
            format!("{:.1}", row.avg_eti_lookups),
            format!("{:.1}", row.avg_eti_rows),
        ]);
    });
    write_csv(&table, &opts.out, "fig9_tids");
}
