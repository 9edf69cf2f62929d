//! Equivalence of the retrieval algorithms with the naive ground truth
//! (the probabilistic guarantee of Theorems 1–2, checked empirically).

use fm_core::naive::NaiveMatcher;
use fm_core::{
    Config, CoreError, FuzzyMatcher, LookupTrace, OscStopping, QueryMode, Record, TranspositionCost,
};
use fm_datagen::{make_inputs, ErrorModel, ErrorSpec, D2_PROBS, D3_PROBS};
use fm_integration::{build, customer_config, customers};
use fm_store::{Database, FaultPager, MemPager, StoreError};

const N_REF: usize = 1500;
const N_INPUTS: usize = 150;

fn exactness_config(n_ref: usize) -> Config {
    // The settings under which the paper states its formal guarantees:
    // no stop q-grams (threshold ≥ |R|), no work caps.
    customer_config()
        .with_stop_threshold(n_ref + 1)
        .with_max_candidates(0)
}

fn naive_for(matcher: &FuzzyMatcher) -> NaiveMatcher {
    NaiveMatcher::from_matcher(matcher).expect("naive snapshot")
}

#[test]
fn basic_agrees_with_naive_on_clean_data() {
    let reference = customers(N_REF, 5);
    let (_db, matcher) = build(&reference, exactness_config(N_REF));
    let naive = naive_for(&matcher);
    let ds = make_inputs(
        &reference,
        N_INPUTS,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 9),
    );
    let mut agree = 0;
    for input in &ds.inputs {
        let ground = naive.lookup(input, 1, 0.0);
        let result = matcher
            .lookup_with(input, 1, 0.0, QueryMode::Basic)
            .expect("lookup");
        let same_tid = result.matches.first().map(|m| m.tid) == ground.first().map(|m| m.tid);
        // Ties (identical similarity) count as agreement.
        let same_sim = match (result.matches.first(), ground.first()) {
            (Some(a), Some(b)) => (a.similarity - b.similarity).abs() < 1e-9,
            (None, None) => true,
            _ => false,
        };
        if same_tid || same_sim {
            agree += 1;
        }
    }
    // Min-hash is probabilistic; demand near-perfect agreement.
    assert!(
        agree >= N_INPUTS * 97 / 100,
        "basic agreed with naive on only {agree}/{N_INPUTS} inputs"
    );
}

#[test]
fn sound_osc_matches_basic_result_quality() {
    let reference = customers(N_REF, 6);
    let (_db, matcher) = build(&reference, exactness_config(N_REF));
    let ds = make_inputs(
        &reference,
        N_INPUTS,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 10),
    );
    for input in &ds.inputs {
        let basic = matcher
            .lookup_with(input, 1, 0.0, QueryMode::Basic)
            .expect("basic");
        let osc = matcher
            .lookup_with(input, 1, 0.0, QueryMode::Osc)
            .expect("osc");
        match (basic.matches.first(), osc.matches.first()) {
            (Some(b), Some(o)) => assert!(
                (b.similarity - o.similarity).abs() < 1e-9,
                "sound OSC must return equal-quality answers: {} vs {} on {input}",
                b.similarity,
                o.similarity
            ),
            (None, None) => {}
            other => panic!("presence mismatch {other:?} on {input}"),
        }
    }
}

#[test]
fn top_k_is_prefix_consistent_and_sorted() {
    let reference = customers(N_REF, 7);
    let (_db, matcher) = build(&reference, exactness_config(N_REF));
    let ds = make_inputs(
        &reference,
        40,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 11),
    );
    for input in &ds.inputs {
        let top5 = matcher.lookup(input, 5, 0.0).expect("k=5").matches;
        let top1 = matcher.lookup(input, 1, 0.0).expect("k=1").matches;
        for w in top5.windows(2) {
            assert!(
                w[0].similarity >= w[1].similarity,
                "top-K not sorted on {input}"
            );
        }
        if let (Some(a), Some(b)) = (top1.first(), top5.first()) {
            assert!(
                (a.similarity - b.similarity).abs() < 1e-9,
                "k=1 answer quality differs from k=5 head on {input}"
            );
        }
        assert!(top5.len() <= 5);
        // No duplicate tids.
        let mut tids: Vec<u32> = top5.iter().map(|m| m.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), top5.len(), "duplicate tids in top-K");
    }
}

#[test]
fn threshold_results_are_threshold_filtered_and_consistent() {
    let reference = customers(N_REF, 8);
    let (_db, matcher) = build(&reference, exactness_config(N_REF));
    let naive = naive_for(&matcher);
    let ds = make_inputs(
        &reference,
        60,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 12),
    );
    for c in [0.5, 0.8, 0.95] {
        for input in ds.inputs.iter().take(30) {
            let result = matcher.lookup(input, 3, c).expect("lookup");
            for m in &result.matches {
                assert!(m.similarity >= c, "match below threshold {c}");
            }
            // If the matcher found nothing, naive's best must be below c
            // (up to min-hash failure; assert with slack by counting).
            let ground = naive.lookup(input, 1, c);
            if result.matches.is_empty() && !ground.is_empty() {
                // Allowed only rarely; tolerate via similarity proximity.
                assert!(
                    ground[0].similarity < c + 0.15,
                    "matcher missed a clear above-threshold match: {} >= {c} for {input}",
                    ground[0].similarity
                );
            }
        }
    }
}

#[test]
fn paper_settings_stay_close_to_naive() {
    // With the *paper's* experiment settings (stop threshold 10 000, the
    // default candidate cap) rather than the exactness settings, accuracy
    // against naive should still be high on moderately dirty data.
    let reference = customers(N_REF, 13);
    let (_db, matcher) = build(&reference, customer_config());
    let naive = naive_for(&matcher);
    let ds = make_inputs(
        &reference,
        N_INPUTS,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 14),
    );
    let mut agree = 0;
    for input in &ds.inputs {
        let ground = naive.lookup(input, 1, 0.0);
        let result = matcher.lookup(input, 1, 0.0).expect("lookup");
        let same = match (result.matches.first(), ground.first()) {
            (Some(a), Some(b)) => a.tid == b.tid || (a.similarity - b.similarity).abs() < 1e-9,
            (None, None) => true,
            _ => false,
        };
        if same {
            agree += 1;
        }
    }
    assert!(
        agree >= N_INPUTS * 90 / 100,
        "default settings agreed on only {agree}/{N_INPUTS}"
    );
}

#[test]
fn insert_pruning_does_not_change_results_at_c_zero() {
    // At c = 0 the admission threshold is 0, so pruning never rejects: both
    // configurations must return identical answers.
    let reference = customers(800, 15);
    let db1 = Database::in_memory().expect("db");
    let db2 = Database::in_memory().expect("db");
    let with = FuzzyMatcher::build(&db1, "a", reference.iter().cloned(), customer_config())
        .expect("build");
    let without = FuzzyMatcher::build(
        &db2,
        "b",
        reference.iter().cloned(),
        customer_config().without_insert_pruning(),
    )
    .expect("build");
    let ds = make_inputs(
        &reference,
        50,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 16),
    );
    for input in &ds.inputs {
        let a = with.lookup(input, 2, 0.0).expect("lookup");
        let b = without.lookup(input, 2, 0.0).expect("lookup");
        assert_eq!(
            a.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
            b.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
            "insert pruning changed results at c = 0 for {input}"
        );
    }
}

/// Differential check of one configuration against the naive scan: on every
/// input where the ETI path returns the same top-K tids as the ground truth,
/// the similarities must agree **to the bit** (both sides run the identical
/// `fms` dynamic program), and the per-query trace must be internally
/// consistent with one exact fms evaluation per fetched candidate.
fn assert_matches_naive_bitwise(config: Config, seed: u64, min_agree_pct: usize) {
    let reference = customers(N_REF, seed);
    let (_db, matcher) = build(&reference, config);
    let naive = naive_for(&matcher);
    let ds = make_inputs(
        &reference,
        N_INPUTS,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, seed ^ 0x5eed),
    );
    for mode in [QueryMode::Basic, QueryMode::Osc] {
        let mut agree = 0;
        for input in &ds.inputs {
            let ground = naive.lookup(input, 3, 0.0);
            let result = matcher.lookup_with(input, 3, 0.0, mode).expect("lookup");
            let t = result.trace;
            t.check_consistent().expect("trace invariants");
            // Agreement on the top answer, ties (equal similarity) counting,
            // as in the other differential tests: min-hash is probabilistic.
            let same = match (result.matches.first(), ground.first()) {
                (Some(a), Some(b)) => {
                    a.tid == b.tid || a.similarity.to_bits() == b.similarity.to_bits()
                }
                (None, None) => true,
                _ => false,
            };
            if same {
                agree += 1;
            }
            // Wherever both sides ranked the same tuple, the similarity must
            // be bit-identical — both run the identical fms program.
            let ground_sims: std::collections::HashMap<u32, f64> =
                ground.iter().map(|m| (m.tid, m.similarity)).collect();
            for m in &result.matches {
                if let Some(g) = ground_sims.get(&m.tid) {
                    assert_eq!(
                        m.similarity.to_bits(),
                        g.to_bits(),
                        "fms must be bit-identical on shared tid {} ({mode:?}, {input})",
                        m.tid
                    );
                }
            }
        }
        assert!(
            agree >= N_INPUTS * min_agree_pct / 100,
            "{mode:?} agreed with naive on only {agree}/{N_INPUTS} inputs"
        );
    }
}

#[test]
fn transposition_enabled_matches_naive_bitwise() {
    // §5.3: the token-transposition edit changes fms on both sides of the
    // differential; retrieval must still track the naive ground truth.
    assert_matches_naive_bitwise(
        exactness_config(N_REF).with_transposition(TranspositionCost::Constant(0.2)),
        21,
        90,
    );
}

#[test]
fn column_weights_match_naive_bitwise() {
    // §5.2: non-uniform column weights rescale every token weight; the ETI
    // path and the naive scan must rescale identically.
    assert_matches_naive_bitwise(
        exactness_config(N_REF).with_column_weights(&[2.0, 1.0, 1.0, 0.5]),
        22,
        90,
    );
}

#[test]
fn transposed_token_inputs_still_match_their_seed() {
    // Hand-built transposed inputs ("Company Boeing ..."): with the
    // transposition edit enabled the seed tuple must stay the best answer,
    // and basic/OSC must agree with naive bit-for-bit on it.
    let reference = customers(600, 23);
    let config = exactness_config(600).with_transposition(TranspositionCost::Constant(0.25));
    let (_db, matcher) = build(&reference, config);
    let naive = naive_for(&matcher);
    let mut checked = 0usize;
    for (i, record) in reference.iter().enumerate().step_by(37) {
        let mut values: Vec<Option<String>> = record.values().to_vec();
        let Some(Some(name)) = values.first_mut() else {
            continue;
        };
        let mut tokens: Vec<&str> = name.split_whitespace().collect();
        if tokens.len() < 2 {
            continue;
        }
        tokens.swap(0, 1);
        *name = tokens.join(" ");
        let input = fm_core::Record::from_options(values);
        let ground = naive.lookup(&input, 1, 0.0);
        let result = matcher.lookup(&input, 1, 0.0).expect("lookup");
        let (Some(g), Some(m)) = (ground.first(), result.matches.first()) else {
            panic!("no answer for transposed input of tuple {}", i + 1);
        };
        if m.tid == g.tid {
            assert_eq!(m.similarity.to_bits(), g.similarity.to_bits());
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} transposed inputs agreed");
}

#[test]
fn paper_example_osc_is_faster_but_can_differ() {
    // The PaperExample stopping bound must trade accuracy for fetches in
    // the direction documented in EXPERIMENTS.md: at least as many
    // short-circuit successes, no more candidate fetches.
    let reference = customers(N_REF, 17);
    let db = Database::in_memory().expect("db");
    let sound =
        FuzzyMatcher::build(&db, "s", reference.iter().cloned(), customer_config()).expect("build");
    let paper = FuzzyMatcher::build(
        &db,
        "p",
        reference.iter().cloned(),
        customer_config().with_osc_stopping(OscStopping::PaperExample),
    )
    .expect("build");
    let ds = make_inputs(
        &reference,
        N_INPUTS,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 18),
    );
    let mut sound_fetches = 0u64;
    let mut paper_fetches = 0u64;
    let mut sound_successes = 0u32;
    let mut paper_successes = 0u32;
    for input in &ds.inputs {
        let a = sound.lookup(input, 1, 0.0).expect("lookup");
        let b = paper.lookup(input, 1, 0.0).expect("lookup");
        sound_fetches += a.trace.candidates_fetched;
        paper_fetches += b.trace.candidates_fetched;
        sound_successes += u32::from(a.trace.osc_succeeded());
        paper_successes += u32::from(b.trace.osc_succeeded());
    }
    assert!(
        paper_successes >= sound_successes,
        "paper bound should short-circuit at least as often ({paper_successes} vs {sound_successes})"
    );
    assert!(
        paper_fetches <= sound_fetches,
        "paper bound should fetch no more ({paper_fetches} vs {sound_fetches})"
    );
}

/// Everything a lookup reports except how long it took: matches to the bit
/// and the whole trace.
type Answer = (Vec<(u32, u64)>, LookupTrace);

fn answer(
    matcher: &FuzzyMatcher,
    input: &Record,
    k: usize,
    c: f64,
    mode: QueryMode,
) -> Result<Answer, CoreError> {
    let result = matcher.lookup_with(input, k, c, mode)?;
    let mut trace = result.trace;
    trace.check_consistent().expect("trace invariants");
    trace.latency_us = 0;
    let matches = result
        .matches
        .iter()
        .map(|m| (m.tid, m.similarity.to_bits()))
        .collect();
    Ok((matches, trace))
}

/// The same lookup in a scratch of its own, allocated for it: nothing a
/// previous query did can show.
fn answer_on_a_fresh_scratch(
    matcher: &FuzzyMatcher,
    input: &Record,
    k: usize,
    c: f64,
    mode: QueryMode,
) -> Answer {
    fm_core::query::with_fresh_scratch(|| answer(matcher, input, k, c, mode)).expect("lookup")
}

#[test]
fn reused_scratch_answers_like_a_pristine_one_across_modes_k_and_c() {
    // Basic/Osc × K ∈ {1, 3, 10} × c ∈ {0, 0.8}: this thread runs the whole
    // matrix back to back, so each lookup inherits the pooled scratch of
    // one with another mode, K, threshold and candidate count; every
    // answer — matches and the whole trace — must equal the one a fresh
    // scratch gives. (The bitwise comparison of this pipeline with the
    // collect-and-sort score table it replaced runs inside fm-core, where
    // that oracle lives: matcher::tests::pipeline_equals_the_sorting_
    // oracle_with_unbounded_verification.)
    let reference = customers(N_REF, 31);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        12,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 32),
    );
    let (mut short_circuits, mut nonempty) = (0u32, 0usize);
    for input in &ds.inputs {
        for mode in [QueryMode::Basic, QueryMode::Osc] {
            for k in [1usize, 3, 10] {
                for c in [0.0, 0.8] {
                    let warm = answer(&matcher, input, k, c, mode).expect("lookup");
                    let cold = answer_on_a_fresh_scratch(&matcher, input, k, c, mode);
                    assert_eq!(warm, cold, "{mode:?} k={k} c={c} on {input}");
                    short_circuits += u32::from(warm.1.osc_succeeded());
                    nonempty += usize::from(!warm.0.is_empty());
                }
            }
        }
    }
    assert!(short_circuits > 0, "no OSC success in the matrix");
    assert!(nonempty > 0, "no lookup matched anything");
}

#[test]
fn a_small_query_after_a_huge_one_and_after_a_failed_one_sees_a_clean_scratch() {
    let big_ref = customers(4000, 33);
    let small_ref = customers(60, 34);
    let (_big_db, big) = build(&big_ref, customer_config());
    let (_small_db, small) = build(&small_ref, customer_config());
    let small_inputs = make_inputs(
        &small_ref,
        8,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 35),
    )
    .inputs;
    let cold: Vec<Answer> = small_inputs
        .iter()
        .map(|i| answer_on_a_fresh_scratch(&small, i, 3, 0.0, QueryMode::Osc))
        .collect();

    // A matcher whose store runs out of IO budget mid-query: a tiny pool
    // keeps every lookup reading pages, and the budget leaves the build
    // just enough. Sized by doubling, like failure_injection.rs.
    let faulty_ref = customers(2500, 36);
    let mut budget = 50_000u64;
    let (_faulty_db, faulty) = loop {
        let pager = Box::new(FaultPager::new(MemPager::new(), budget));
        let built = Database::with_pager(pager, 8)
            .map_err(CoreError::Store)
            .and_then(|db| {
                let m =
                    FuzzyMatcher::build(&db, "f", faulty_ref.iter().cloned(), customer_config())?;
                Ok((db, m))
            });
        match built {
            Ok(pair) => break pair,
            Err(CoreError::Store(StoreError::InjectedFault)) => budget *= 2,
            Err(e) => panic!("unexpected build error {e}"),
        }
    };

    // One thread in sequence, which the pool hands back the scratch it
    // returned last: huge query → small ones, then queries that die with
    // Err part-way → small ones again.
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let huge = answer(&big, &big_ref[17], 10, 0.0, QueryMode::Basic).expect("big");
                assert!(
                    huge.1.candidates > 20 * cold.iter().map(|a| a.1.candidates).max().unwrap_or(0),
                    "the first query must dwarf the second ({} candidates)",
                    huge.1.candidates
                );
                for (input, want) in small_inputs.iter().zip(&cold) {
                    let got = answer(&small, input, 3, 0.0, QueryMode::Osc).expect("small");
                    assert_eq!(&got, want, "after a much larger query, on {input}");
                }

                let mut failures = 0;
                'exhaust: for _ in 0..400 {
                    for input in &faulty_ref {
                        match answer(&faulty, input, 1, 0.0, QueryMode::Osc) {
                            Ok(_) => {}
                            Err(CoreError::Store(StoreError::InjectedFault)) => {
                                failures += 1;
                                // Whatever the dead query left in the
                                // scratch, the next one must not see it.
                                let i = failures % small_inputs.len();
                                let got = answer(&small, &small_inputs[i], 3, 0.0, QueryMode::Osc)
                                    .expect("small");
                                assert_eq!(got, cold[i], "after a failed query");
                                if failures == 6 {
                                    break 'exhaust;
                                }
                            }
                            Err(e) => panic!("unexpected lookup error {e}"),
                        }
                    }
                }
                assert_eq!(failures, 6, "the IO budget never ran out");
            })
            .join()
            .expect("sequence thread");
    });
}
