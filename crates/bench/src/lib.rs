//! # fm-bench — the paper's evaluation, reproduced
//!
//! Shared harness behind the `exp_*` binaries, one per table/figure of the
//! paper's §6 (see DESIGN.md §3 for the experiment index):
//!
//! | binary               | reproduces                                     |
//! |----------------------|------------------------------------------------|
//! | `exp_ed_vs_fms`      | §6.2.1.1 accuracy table (ed vs fms, Type I/II) |
//! | `exp_fig5_accuracy`  | Figure 5 (accuracy per strategy, D1–D3)        |
//! | `exp_fig6_time`      | Figure 6 (normalized elapsed times)            |
//! | `exp_fig7_eti_build` | Figure 7 (normalized ETI build times)          |
//! | `exp_fig8_candidates`| Figure 8 (candidate fetches, OSC split)        |
//! | `exp_fig9_tids`      | Figure 9 (tids processed per input)            |
//! | `exp_fig10_osc`      | Figure 10 (OSC success fractions)              |
//! | `exp_all`            | everything above in one run, shared datasets   |
//! | `exp_ablations`      | design-choice ablations (DESIGN.md §10)        |
//!
//! Every binary accepts `--ref-size N --inputs N --seed N --out DIR` and
//! writes both an aligned table to stdout and CSV files under `--out`
//! (default `results/`).

pub mod harness;
pub mod opts;
pub mod report;

pub use harness::{
    accuracy, answer_correct, default_strategies, ed_accuracy, for_each_d2_paper_osc_row,
    make_dataset, naive_accuracy, naive_single_lookup_time, normalize, reference_records,
    run_full_suite_with, run_strategy, run_strategy_with, EfficiencyRow, Strategy, SuiteResult,
    Workbench,
};
pub use opts::Opts;
pub use report::{write_csv, Table};
