//! Direct tests of the query-processing layer against a hand-built ETI and
//! a mock reference store — no matcher, no datagen, every score visible.

use std::collections::HashMap;
use std::sync::Arc;

use fm_core::config::{Config, OscStopping, SignatureScheme};
use fm_core::eti::{token_signature, Eti};
use fm_core::query::{basic_lookup, osc_lookup, QueryContext, ReferenceFetch};
use fm_core::record::{Record, TokenizedRecord};
use fm_core::weights::UnitWeights;
use fm_core::Result;
use fm_store::{BTree, BufferPool, MemPager};
use fm_text::minhash::MinHasher;
use fm_text::Tokenizer;

struct MockRef {
    tuples: HashMap<u32, Record>,
    fetches: std::sync::atomic::AtomicU64,
}

impl ReferenceFetch for MockRef {
    fn fetch(&self, tid: u32) -> Result<Record> {
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(self.tuples.get(&tid).expect("known tid").clone())
    }
}

struct Fixture {
    config: Config,
    tokenizer: Tokenizer,
    minhasher: MinHasher,
    eti: Eti,
    reference: MockRef,
}

impl Fixture {
    /// Build an ETI + mock store over the given reference tuples.
    fn new(rows: &[(u32, &[&str])], config: Config) -> Fixture {
        let tokenizer = Tokenizer::new();
        let minhasher = MinHasher::new(config.h, config.q, config.seed);
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let eti = Eti::new(BTree::create(pool).unwrap(), config.stop_qgram_threshold);
        // Accumulate (gram, coord, col) → sorted tid set.
        let mut groups: HashMap<(String, u8, u8), Vec<u32>> = HashMap::new();
        let mut tuples = HashMap::new();
        for (tid, values) in rows {
            let record = Record::new(values);
            let tokens = record.tokenize(&tokenizer);
            for (col, token) in tokens.iter_tokens() {
                for e in token_signature(token, &minhasher, config.scheme) {
                    let v = groups.entry((e.gram, e.coordinate, col as u8)).or_default();
                    if v.last() != Some(tid) {
                        v.push(*tid);
                    }
                }
            }
            tuples.insert(*tid, record);
        }
        let mut keys: Vec<_> = groups.into_iter().collect();
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        for ((gram, coord, col), mut tids) in keys {
            tids.sort_unstable();
            tids.dedup();
            eti.insert_group(&gram, coord, col, &tids).unwrap();
        }
        Fixture {
            config,
            tokenizer,
            minhasher,
            eti,
            reference: MockRef {
                tuples,
                fetches: Default::default(),
            },
        }
    }

    fn ctx(&self) -> QueryContext<'_, UnitWeights, MockRef> {
        QueryContext {
            config: &self.config,
            weights: &UnitWeights,
            tokenizer: &self.tokenizer,
            minhasher: &self.minhasher,
            eti: &self.eti,
            reference: &self.reference,
        }
    }

    fn tokenize(&self, values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }
}

fn base_config() -> Config {
    Config::default().with_columns(&["name", "city"]).with_q(3)
}

const ROWS: &[(u32, &[&str])] = &[
    (1, &["boeing company", "seattle"]),
    (2, &["bon corporation", "seattle"]),
    (3, &["companions", "portland"]),
    (4, &["weyerhaeuser", "tacoma"]),
];

#[test]
fn basic_finds_exact_match_with_one_fetch() {
    let fx = Fixture::new(ROWS, base_config());
    let input = fx.tokenize(&["boeing company", "seattle"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
    assert_eq!(matches[0].tid, 1);
    assert!((matches[0].similarity - 1.0).abs() < 1e-12);
    // An exact match (fms = 1) dominates every unfetched bound, so the
    // ordered verification stops immediately.
    assert_eq!(stats.candidates_fetched, 1);
    assert!(stats.qgrams_probed > 0);
}

#[test]
fn osc_and_basic_agree_on_all_rows() {
    let fx = Fixture::new(ROWS, base_config());
    for (tid, values) in ROWS {
        let input = fx.tokenize(values);
        let (b, _) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
        let (o, _) = osc_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
        assert_eq!(b[0].tid, *tid);
        assert_eq!(o[0].tid, *tid);
    }
}

#[test]
fn k_zero_returns_nothing_without_work() {
    let fx = Fixture::new(ROWS, base_config());
    let input = fx.tokenize(&["boeing", "seattle"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 0, 0.0).unwrap();
    assert!(matches.is_empty());
    assert_eq!(stats.qgrams_probed, 0);
    let (matches, stats) = osc_lookup(&fx.ctx(), &input, 0, 0.0).unwrap();
    assert!(matches.is_empty());
    assert_eq!(stats.qgrams_probed, 0);
}

#[test]
fn empty_input_returns_nothing() {
    let fx = Fixture::new(ROWS, base_config());
    let input = Record::from_options(vec![None, None]).tokenize(&Tokenizer::new());
    for f in [
        basic_lookup::<UnitWeights, MockRef>,
        osc_lookup::<UnitWeights, MockRef>,
    ] {
        let (matches, stats) = f(&fx.ctx(), &input, 3, 0.0).unwrap();
        assert!(matches.is_empty());
        assert_eq!(stats.qgrams_probed, 0);
    }
}

#[test]
fn unknown_tokens_score_no_candidates() {
    let fx = Fixture::new(ROWS, base_config());
    let input = fx.tokenize(&["zzzzxxxx qqqqyyyy", "nowhere"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 3, 0.0).unwrap();
    assert!(matches.is_empty(), "{matches:?}");
    assert_eq!(stats.candidates_fetched, 0);
    assert!(stats.qgrams_probed > 0, "lookups still issued");
}

#[test]
fn max_candidates_cap_is_honored() {
    // Many rows sharing one token ensure lots of scored candidates.
    let rows: Vec<(u32, Vec<String>)> = (1..=50)
        .map(|i| (i, vec![format!("shared{} common", i), "city".to_string()]))
        .collect();
    let rows_ref: Vec<(u32, Vec<&str>)> = rows
        .iter()
        .map(|(t, v)| (*t, v.iter().map(|s| s.as_str()).collect()))
        .collect();
    let rows_slices: Vec<(u32, &[&str])> =
        rows_ref.iter().map(|(t, v)| (*t, v.as_slice())).collect();
    for cap in [3usize, 10] {
        let fx = Fixture::new(&rows_slices, base_config().with_max_candidates(cap));
        let input = fx.tokenize(&["sharedx common", "city"]);
        let (_, stats) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
        assert!(
            stats.candidates_fetched <= cap as u64,
            "cap {cap} violated: {} fetches",
            stats.candidates_fetched
        );
    }
}

#[test]
fn threshold_filters_results_and_bounds_fetches() {
    let fx = Fixture::new(ROWS, base_config());
    // Input sharing only the city token: nothing clears c = 0.99, but the
    // adjusted bound (score + d_q·w(u))/w(u) rightly keeps the shared-city
    // candidates *eligible* for verification (their fms could exceed their
    // score — that slack is the whole point of the adjustment term), so a
    // few fetches are expected; just no results.
    let input = fx.tokenize(&["unrelatedname", "seattle"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 3, 0.99).unwrap();
    assert!(matches.is_empty());
    assert!(stats.candidates_fetched <= stats.candidates, "{stats:?}");
    // An input matching no coordinate at all fetches nothing.
    let input = fx.tokenize(&["zzzzqqqq", "wwwwxxxx"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 3, 0.99).unwrap();
    assert!(matches.is_empty());
    assert_eq!(stats.candidates_fetched, 0);
}

#[test]
fn stop_qgrams_are_skipped_but_counted() {
    // Threshold 2 turns the shared 'city' token row (50 tids) into a stop
    // q-gram.
    let rows: Vec<(u32, Vec<String>)> = (1..=50)
        .map(|i| (i, vec![format!("unique{i:03}"), "metropolis".to_string()]))
        .collect();
    let rows_ref: Vec<(u32, Vec<&str>)> = rows
        .iter()
        .map(|(t, v)| (*t, v.iter().map(|s| s.as_str()).collect()))
        .collect();
    let rows_slices: Vec<(u32, &[&str])> =
        rows_ref.iter().map(|(t, v)| (*t, v.as_slice())).collect();
    let fx = Fixture::new(&rows_slices, base_config().with_stop_threshold(2));
    let input = fx.tokenize(&["unique007", "metropolis"]);
    let (matches, stats) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
    assert!(stats.stop_qgrams > 0, "city rows should be stop q-grams");
    assert_eq!(matches[0].tid, 7, "unique007 was generated as tid 7");
    assert!((matches[0].similarity - 1.0).abs() < 1e-12);
}

#[test]
fn paper_example_osc_short_circuits_on_clear_winner() {
    let config = base_config().with_osc_stopping(OscStopping::PaperExample);
    let fx = Fixture::new(ROWS, config);
    let input = fx.tokenize(&["weyerhaeuser", "tacoma"]);
    let (matches, stats) = osc_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
    assert_eq!(matches[0].tid, 4);
    assert!(
        stats.osc_succeeded(),
        "a unique heavy token should trigger the short circuit: {stats:?}"
    );
    // Short circuit skips the remaining coordinate lookups.
    let full_plan_grams = {
        let tokenizer = Tokenizer::new();
        Record::new(&["weyerhaeuser", "tacoma"])
            .tokenize(&tokenizer)
            .iter_tokens()
            .map(|(_, t)| token_signature(t, &fx.minhasher, fx.config.scheme).len() as u64)
            .sum::<u64>()
    };
    assert!(
        stats.qgrams_probed < full_plan_grams,
        "expected skipped lookups: {} vs {}",
        stats.qgrams_probed,
        full_plan_grams
    );
}

#[test]
fn k_larger_than_matches_returns_all_sorted() {
    let fx = Fixture::new(ROWS, base_config());
    let input = fx.tokenize(&["company", "seattle"]);
    let (matches, _) = basic_lookup(&fx.ctx(), &input, 10, 0.0).unwrap();
    assert!(matches.len() <= 4);
    for w in matches.windows(2) {
        assert!(w[0].similarity >= w[1].similarity);
    }
}

#[test]
fn q_scheme_without_tokens_still_matches() {
    let config = Config::default()
        .with_columns(&["name", "city"])
        .with_q(3)
        .with_signature(SignatureScheme::QGrams, 2);
    let fx = Fixture::new(ROWS, config);
    let input = fx.tokenize(&["beoing company", "seattle"]);
    let (matches, _) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
    assert_eq!(matches[0].tid, 1);
}

#[test]
fn stats_tids_processed_reflects_list_sizes() {
    let fx = Fixture::new(ROWS, base_config());
    let input = fx.tokenize(&["boeing company", "seattle"]);
    let (_, stats) = basic_lookup(&fx.ctx(), &input, 1, 0.0).unwrap();
    // 'seattle' lists contain 2 tids; name tokens 1 each; multiple
    // coordinates per token → strictly more tid-touches than tokens.
    assert!(stats.tids_processed >= 4, "{stats:?}");
    assert!(stats.candidates >= 2);
    assert!(stats.candidates <= 4);
}
