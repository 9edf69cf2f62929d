//! Quickstart: the paper's own running example, end to end.
//!
//! Builds a fuzzy matcher over the Organization reference relation of
//! Table 1 and matches the erroneous inputs of Table 2 against it —
//! spelling errors, abbreviations, convention swaps, missing values and
//! swapped tokens all resolve to the right reference tuple.
//!
//! Run with: `cargo run -p fm-examples --bin quickstart`

use fm_core::{Config, FuzzyMatcher, Record};
use fm_store::Database;

fn main() {
    // The reference relation (paper Table 1). In production this would be
    // a file-backed database (`Database::open_file`); in-memory keeps the
    // example self-contained.
    let db = Database::in_memory().expect("create database");
    let reference = vec![
        Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
        Record::new(&["Companions", "Seattle", "WA", "98024"]),
    ];
    let config = Config::default().with_columns(&["org name", "city", "state", "zipcode"]);
    let matcher =
        FuzzyMatcher::build(&db, "orgs", reference.into_iter(), config).expect("build matcher");
    println!(
        "built ETI over {} reference tuples ({} index entries)\n",
        matcher.relation_size(),
        matcher.eti_entry_count().expect("entry count"),
    );

    // The erroneous inputs (paper Table 2).
    let inputs = [
        (
            "I1",
            Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
        ),
        ("I2", Record::new(&["Beoing Co.", "Seattle", "WA", "98004"])),
        (
            "I3",
            Record::new(&["Boeing Corporation", "Seattle", "WA", "98004"]),
        ),
        (
            "I4",
            Record::from_options(vec![
                Some("Company Beoing".into()),
                Some("Seattle".into()),
                None, // missing state
                Some("98014".into()),
            ]),
        ),
    ];

    for (name, input) in inputs {
        let result = matcher.lookup(&input, 1, 0.0).expect("lookup");
        match result.matches.first() {
            Some(m) => println!(
                "{name} {input}\n  -> R{} {} (fms = {:.3}, {} ETI lookups, {} tuples verified)\n",
                m.tid,
                m.record,
                m.similarity,
                result.trace.qgrams_probed,
                result.trace.candidates_fetched,
            ),
            None => println!("{name} {input}\n  -> no match\n"),
        }
    }

    println!(
        "note: I4 (swapped tokens, missing state, zip pointing at R2) is the\n\
         paper's deliberately ambiguous case — on the 3-row Table 1 all name\n\
         tokens are equally rare, so the exact zip match legitimately wins.\n\
         With realistic IDF skew ('company' frequent and cheap to replace,\n\
         paper §4.1 example weights) R1 overtakes R2; the integration test\n\
         `i4_with_null_state_matches_r1_under_idf_skew` shows exactly that.\n"
    );

    // The similarity function is also directly accessible.
    let u = Record::new(&["Beoing Corporation", "Seattle", "WA", "98004"]);
    let v = Record::new(&["Boeing Company", "Seattle", "WA", "98004"]);
    println!(
        "fms(I3', R1) = {:.3} (paper §3.1 walks through this pair)",
        matcher.fms(&u, &v)
    );
}
