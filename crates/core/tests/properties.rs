//! Property-based tests for the similarity layer.

use std::sync::OnceLock;

use fm_core::config::{Config, TranspositionCost};
use fm_core::record::{Record, TokenizedRecord};
use fm_core::sim::{fms_apx, fms_t_apx, Similarity};
use fm_core::weights::{TokenFrequencies, UnitWeights, WeightProvider, WeightTable};
use fm_core::{FuzzyMatcher, QueryMode};
use fm_store::Database;
use fm_text::minhash::MinHasher;
use fm_text::Tokenizer;
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        1 => Just(None),
        6 => "[a-z0-9]{1,8}( [a-z0-9]{1,8}){0,3}".prop_map(Some),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    prop::collection::vec(value(), 3).prop_map(Record::from_options)
}

fn tokenize(r: &Record) -> TokenizedRecord {
    r.tokenize(&Tokenizer::new())
}

fn config() -> Config {
    Config::default().with_columns(&["a", "b", "c"])
}

/// A small shared matcher for trace-invariant properties. fm-core's tests
/// may not use fm-datagen (layering), so the reference relation is
/// hand-rolled: overlapping token pools give realistic tid-list sharing.
fn shared_matcher() -> &'static (Database, FuzzyMatcher) {
    static MATCHER: OnceLock<(Database, FuzzyMatcher)> = OnceLock::new();
    MATCHER.get_or_init(|| {
        let rows: Vec<Record> = (0..240)
            .map(|i| {
                Record::new(&[
                    &format!("alpha{} beta{} corp", i % 40, i % 11),
                    &format!("city{}", i % 17),
                    &format!("9{:04}", i),
                ])
            })
            .collect();
        let db = Database::in_memory().expect("in-memory db");
        let matcher = FuzzyMatcher::build(&db, "prop", rows.into_iter(), config()).expect("build");
        (db, matcher)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fms_bounded_and_reflexive(u in record(), v in record()) {
        let cfg = config();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let ut = tokenize(&u);
        let vt = tokenize(&v);
        let f = sim.fms(&ut, &vt);
        prop_assert!((0.0..=1.0).contains(&f), "fms {f} out of range");
        prop_assert_eq!(sim.fms(&ut, &ut), 1.0);
    }

    #[test]
    fn transformation_cost_nonnegative(u in record(), v in record()) {
        let cfg = config();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let tc = sim.transformation_cost(&tokenize(&u), &tokenize(&v));
        prop_assert!(tc >= 0.0);
    }

    #[test]
    fn transposition_never_increases_cost(u in record(), v in record()) {
        // The transposition operation adds a move to the DP; the optimum
        // can only improve or stay equal.
        let plain = config();
        let with_tr = config().with_transposition(TranspositionCost::Constant(0.1));
        let ut = tokenize(&u);
        let vt = tokenize(&v);
        let c_plain = Similarity::new(&UnitWeights, &plain).transformation_cost(&ut, &vt);
        let c_tr = Similarity::new(&UnitWeights, &with_tr).transformation_cost(&ut, &vt);
        prop_assert!(c_tr <= c_plain + 1e-12, "{c_tr} > {c_plain}");
    }

    #[test]
    fn idf_weights_are_finite_nonnegative(rows in prop::collection::vec(record(), 1..20)) {
        let mut freqs = TokenFrequencies::new(3);
        for r in &rows {
            freqs.observe(&tokenize(r));
        }
        let w = WeightTable::new(freqs);
        for r in &rows {
            for (col, t) in tokenize(r).iter_tokens() {
                let x = w.weight(col, t);
                prop_assert!(x.is_finite() && x >= 0.0);
            }
        }
        // Unseen tokens also finite and non-negative.
        for col in 0..3 {
            let x = w.weight(col, "unseen-token-zzz");
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn fms_apx_dominates_fms_at_large_h(u in record(), v in record(), seed in 0u64..64) {
        // With H = 48 the probability of fms_apx < fms is negligible for
        // these token sizes; allow a hair of slack for estimator variance.
        let cfg = config();
        let mh = MinHasher::new(48, cfg.q, seed);
        let ut = tokenize(&u);
        let vt = tokenize(&v);
        let apx = fms_apx(&ut, &vt, &UnitWeights, &cfg, &mh);
        let exact = Similarity::new(&UnitWeights, &cfg).fms(&ut, &vt);
        prop_assert!(apx >= exact - 0.12, "apx {apx} far below fms {exact}");
    }

    #[test]
    fn fms_t_apx_dominates_fms_t_at_large_h(u in record(), v in record(), seed in 0u64..64) {
        // §5.3 analogue of the fms_apx bound: with the transposition edit
        // enabled, fms_t_apx must upper-bound the transposition-enabled fms
        // (same slack for estimator variance at H = 48).
        let cfg = config().with_transposition(TranspositionCost::Constant(0.2));
        let mh = MinHasher::new(48, cfg.q, seed);
        let ut = tokenize(&u);
        let vt = tokenize(&v);
        let apx = fms_t_apx(&ut, &vt, &UnitWeights, &cfg, &mh);
        let exact = Similarity::new(&UnitWeights, &cfg).fms(&ut, &vt);
        prop_assert!(apx >= exact - 0.12, "fms_t_apx {apx} far below fms_t {exact}");
    }

    #[test]
    fn lookup_traces_satisfy_invariants(u in record(), k in 1usize..4, mode_osc in any::<bool>()) {
        // Every query, whatever the input, must leave a consistent trace:
        // the funnel only narrows (tid-list entries ≥ tids processed ≥
        // candidates ≥ fetched ≥ fms evaluations) and stop q-grams are a
        // subset of the probes.
        let (_db, matcher) = shared_matcher();
        let mode = if mode_osc { QueryMode::Osc } else { QueryMode::Basic };
        let result = matcher.lookup_with(&u, k, 0.0, mode).expect("lookup");
        let t = result.trace;
        if let Err(e) = t.check_consistent() {
            prop_assert!(false, "inconsistent trace {t:?}: {e}");
        }
        prop_assert!(t.fms_evals <= t.candidates_fetched + t.apx_pruned + t.candidates,
                     "evals beyond the candidate funnel: {t:?}");
        prop_assert!(t.fms_evals >= result.matches.len() as u64, "unverified match: {t:?}");
        prop_assert!(t.candidates_fetched <= t.candidates, "{t:?}");
        prop_assert!(t.candidates <= t.tids_processed, "{t:?}");
        prop_assert!(t.tids_processed <= t.tid_list_entries, "{t:?}");
        prop_assert!(t.stop_qgrams <= t.qgrams_probed, "{t:?}");
        prop_assert!(t.tid_list_max <= t.tid_list_entries, "{t:?}");
        prop_assert!(result.matches.len() <= k, "more matches than K");
    }

    #[test]
    fn column_weights_preserve_bounds(u in record(), v in record(),
                                      w1 in 0.1f64..4.0, w2 in 0.1f64..4.0, w3 in 0.1f64..4.0) {
        let cfg = config().with_column_weights(&[w1, w2, w3]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let f = sim.fms(&tokenize(&u), &tokenize(&v));
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(sim.fms(&tokenize(&u), &tokenize(&u)), 1.0);
    }

    #[test]
    fn more_corruption_never_helps_much(base in "[a-z]{4,10}", extra in "[a-z]{4,10}") {
        // fms(u, v) with v = u should beat fms(u', v) where u' has an extra
        // mismatched token (sanity of the cost model).
        let cfg = Config::default().with_columns(&["a"]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let v = Record::new(&[base.as_str()]);
        let clean = sim.fms(&tokenize(&v), &tokenize(&v));
        let dirty_rec = Record::new(&[format!("{base} {extra}").as_str()]);
        let dirty = sim.fms(&tokenize(&dirty_rec), &tokenize(&v));
        prop_assert!(clean >= dirty);
    }
}
