//! Figure 10 — fraction of input tuples answered by a successful optimistic
//! short circuit on D2.
//!
//! Paper observation to reproduce: OSC succeeds for 50–75% of inputs and
//! the success fraction grows with signature size (more q-grams separate
//! the top candidate from the rest earlier).

use fm_bench::{for_each_d2_paper_osc_row, write_csv, Opts, Table};

fn main() {
    let opts = Opts::from_args();
    let mut table = Table::new(
        "Figure 10 — OSC success and failure fractions (D2)",
        &["strategy", "success fraction", "failure fraction"],
    );
    for_each_d2_paper_osc_row(&opts, |row| {
        eprintln!(
            "[fig10] {:>6}: {:.2} success",
            row.strategy, row.osc_success_fraction
        );
        table.row(vec![
            row.strategy.clone(),
            format!("{:.2}", row.osc_success_fraction),
            format!("{:.2}", 1.0 - row.osc_success_fraction),
        ]);
    });
    write_csv(&table, &opts.out, "fig10_osc");
}
