//! No-stale-budget gate: `xtask-mutmap.budget` must equal the *live*
//! mut-map count on the real tree, exactly.
//!
//! The CI gate (`cargo xtask ci` → `mutmap_gate`) only fails when the
//! live count *exceeds* the budget — that stops growth, but lets the
//! budget silently rot above reality when a refactor retires sites,
//! and a rotted ceiling hides the next regression inside the slack.
//! This test closes that gap: any drift in either direction means the
//! budget file must be edited (with its ratchet history) in the same
//! change that moved the count.

use xtask::analyze::mutmap_report;

#[test]
fn budget_file_matches_live_mut_map_exactly() {
    let report = mutmap_report();
    assert!(
        report.missing_roots.is_empty(),
        "mut-map roots not found: {} — fix analyze::project_config",
        report.missing_roots.join(", ")
    );
    let live = report.mutation_sites();
    let budget = xtask::ci::read_budget("xtask-mutmap.budget").expect("budget");
    assert_eq!(
        live, budget,
        "xtask-mutmap.budget ({budget}) does not match the live mut-map \
         count ({live}); run `cargo xtask analyze --mut-map` and set the \
         budget to the real number in the same change"
    );
}
