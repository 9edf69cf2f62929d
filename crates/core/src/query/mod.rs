//! Fuzzy match query processing (paper §4.3).
//!
//! Both algorithms share the same skeleton:
//!
//! 1. **Plan**: tokenize the input, weight every token (IDF × column
//!    factor), expand tokens into signature coordinates with per-coordinate
//!    weight shares, and pre-compute the adjustment term
//!    `Σ_t w(t)·(1 − 1/q)` that corrects for estimating edit distance with
//!    q-gram commonality (Figure 3, step 7).
//! 2. **Score**: look up each coordinate's tid-list in the ETI and
//!    accumulate per-tid scores (Figure 3, steps 5–10; an array indexed by
//!    tid where the paper uses a hash table) as the list streams off the
//!    index leaf — no list is ever materialized.
//!    New tids are admitted only while the weight still to be processed
//!    could lift them past the threshold (step 9b).
//! 3. **Verify**: fetch candidate reference tuples in decreasing score
//!    order and compute the exact `fms`, stopping as soon as the current
//!    K-th best verified similarity dominates the score-derived upper bound
//!    `(score + adjustment)/w(u)` of every unfetched candidate (step 11–13;
//!    see DESIGN.md on why the fetch must be ordered). Once K candidates
//!    are verified, a candidate is first bounded against the K-th of them
//!    and dropped when it provably loses: from the in-memory sketch of its
//!    tokens before its row is read, else from the raw row before it is
//!    tokenized (DESIGN.md §4.2).
//!
//! [`basic`] runs the phases in sequence; [`osc`] interleaves phase 3 into
//! phase 2 (optimistic short circuiting, §4.3.2). The score accumulator,
//! its always-current best K+1 and the lazily popped ranking are
//! [`scores`].

pub mod basic;
pub mod osc;
pub(crate) mod scores;

#[cfg(test)]
pub(crate) mod oracle;

use std::collections::HashMap;

use fm_text::minhash::MinHasher;
use fm_text::Tokenizer;

use crate::config::Config;
use crate::error::Result;
use crate::eti::{token_signature, Eti};
use crate::metrics::LookupTrace;
use crate::record::{Record, TokenizedRecord};
use crate::sim::{PreparedInput, RowSketch, Similarity};
use crate::weights::WeightProvider;

pub use basic::basic_lookup;
pub use osc::osc_lookup;

pub(crate) use crate::postings::Probed;
pub(crate) use scores::{with_scratch, Scratch, TidScores};

/// Which query algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Figure 3's basic algorithm.
    Basic,
    /// Basic + optimistic short circuiting (§4.3.2). The default — it is
    /// what the paper evaluates and ships.
    #[default]
    Osc,
}

/// A match produced by the query processor: reference tid + exact `fms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredMatch {
    pub tid: u32,
    pub similarity: f64,
}

/// Provides reference tuples by tid for the verification phase — raw, so
/// that verification can bound a tuple before paying to tokenize it — and,
/// optionally, an in-memory sketch of each, so that it can bound a tuple
/// before paying to read it.
pub trait ReferenceFetch {
    fn fetch(&self, tid: u32) -> Result<Record>;

    /// Whether `test` holds for `tid`'s [`RowSketch`]. A fetcher that keeps
    /// no sketch of `tid` answers `false` without calling it; the default
    /// keeps none, so verification reads every candidate it examines.
    #[must_use]
    fn sketch_test(&self, _tid: u32, _test: &mut dyn FnMut(RowSketch<'_>) -> bool) -> bool {
        false
    }
}

/// Everything a query needs, borrowed from the matcher.
pub struct QueryContext<'a, W: WeightProvider + ?Sized, F: ReferenceFetch + ?Sized> {
    pub config: &'a Config,
    pub weights: &'a W,
    /// The tokenizer the input was tokenized with (and the reference
    /// relation indexed with).
    pub tokenizer: &'a Tokenizer,
    pub minhasher: &'a MinHasher,
    pub eti: &'a Eti,
    pub reference: &'a F,
}

/// One signature coordinate scheduled for an ETI lookup.
#[derive(Debug, Clone)]
pub(crate) struct PlannedGram {
    pub column: u8,
    pub coordinate: u8,
    pub gram: String,
    /// Absolute weight of this coordinate: `w(t) × share`.
    pub weight: f64,
}

/// The ETI row a [`PlannedGram`] probes. Its order is the deterministic
/// tiebreak between grams of equal weight: the OSC ordering must be
/// reproducible across runs and threads.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct GramUnit<'p> {
    column: u8,
    coordinate: u8,
    gram: &'p str,
}

impl PlannedGram {
    pub(crate) fn unit(&self) -> GramUnit<'_> {
        GramUnit {
            column: self.column,
            coordinate: self.coordinate,
            gram: &self.gram,
        }
    }
}

/// The query plan for one input tuple.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pub grams: Vec<PlannedGram>,
    /// `w(u)`: total weight of the input token set.
    pub wu: f64,
    /// `Σ_t w(t)·(1 − 1/q)`: the full adjustment term.
    pub adjustment: f64,
}

/// Build the query plan (Figure 3, steps 2–4 and 7 precomputed).
pub(crate) fn plan_query<W: WeightProvider + ?Sized>(
    input: &TokenizedRecord,
    config: &Config,
    weights: &W,
    minhasher: &MinHasher,
) -> QueryPlan {
    let dq = 1.0 - 1.0 / config.q as f64;
    let mut grams = Vec::new();
    let mut wu = 0.0;
    let mut adjustment = 0.0;
    for (col, token) in input.iter_tokens() {
        let w = config.column_factor(col) * weights.weight(col, token);
        wu += w;
        adjustment += w * dq;
        for entry in token_signature(token, minhasher, config.scheme) {
            grams.push(PlannedGram {
                column: col as u8,
                coordinate: entry.coordinate,
                gram: entry.gram,
                weight: w * entry.share,
            });
        }
    }
    QueryPlan {
        grams,
        wu,
        adjustment,
    }
}

/// Probe one coordinate's ETI row and absorb its tid-list into the score
/// table as the chunks come off the index leaf (Figure 3, steps 5–10 for
/// one coordinate). `admit_new` is the caller's step-9b decision; `key`
/// is the query's reusable key buffer.
pub(crate) fn probe_into<T: TidScores>(
    eti: &Eti,
    gram: &PlannedGram,
    key: &mut Vec<u8>,
    table: &mut T,
    admit_new: bool,
    trace: &mut LookupTrace,
) -> Result<Probed> {
    let (probed, rows) = {
        let _scan = crate::tracing::span("probe.scan");
        trace.qgrams_probed += 1;
        eti.probe(&gram.gram, gram.coordinate, gram.column, key, |chunk| {
            let _absorb = crate::tracing::span("probe.absorb");
            table.absorb(chunk.tids(), gram.weight, admit_new);
        })?
    };
    trace.eti_rows += rows;
    match probed {
        Probed::Missing => {}
        Probed::Stop => trace.stop_qgrams += 1,
        Probed::List { len } => {
            trace.tid_list_entries += len;
            trace.tid_list_max = trace.tid_list_max.max(len);
        }
    }
    // The table counts for the query `trace` describes (both start at
    // zero together), so its totals are the trace's.
    trace.tids_processed = table.tids_processed();
    trace.candidates = table.len() as u64;
    Ok(probed)
}

/// The sound aggregate upper bound on a candidate's `fms` given its
/// accumulated score `s` (see DESIGN.md §4.0 (a) for the derivation):
///
/// `fms ≤ fms_apx ≤ (Σ_t w(t)·d_q + (2/q)·s) / w(u)`, capped at 1.
///
/// It follows from the per-token cap: each token contributes at most
/// `min(w(t), (2/q)·s_t + d_q·w(t))`, and the worst allocation of the
/// aggregate score saturates tokens one by one. The additive `d_q` floor is
/// irreducible — min-hash agreement genuinely cannot distinguish similarity
/// below `d_q` — which is why [`crate::config::Config::max_candidates`]
/// exists as a work cap for very dirty inputs.
#[inline]
pub(crate) fn score_bound(score: f64, wu: f64, adjustment: f64, q: usize) -> f64 {
    ((adjustment + (2.0 / q as f64) * score) / wu).min(1.0)
}

/// Verification phase (Figure 3 steps 11–13): fetch candidates in
/// decreasing score order, evaluate exact `fms`, early-stop on the upper
/// bound, return the top K at or above `c`.
///
/// The loop terminates when any of these holds for the next candidate:
///
/// * its [`score_bound`] is below `c` (nothing later can clear the
///   threshold; this is Figure 3's step 11 filter);
/// * the K-th verified `fms` already matches or beats its [`score_bound`]
///   (the K best are final, up to ties and min-hash failure probability);
/// * the fetch cap `max_candidates` is reached.
///
/// Candidates skipped by the first two exits are counted as
/// [`LookupTrace::apx_pruned`]: their `fms_apx`-style score bound — not an
/// exact evaluation — ruled them out.
///
/// A candidate only matters if its `fms` is at least `c` and, once K are
/// verified, at least the K-th of them (equal still matters: a smaller tid
/// wins the tie). That floor goes first to [`Similarity::sketch_rejects`],
/// which may prove the candidate below it from its in-memory sketch
/// ([`ReferenceFetch::sketch_test`]) with no read, and then, for a
/// candidate it keeps, to [`Similarity::fms_at_least`], which answers
/// exactly or proves it below — usually from the raw row. Either way the
/// candidate counts as examined ([`LookupTrace::candidates_fetched`]) and
/// against `max_candidates`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidates<W, F, T>(
    ctx: &QueryContext<'_, W, F>,
    sim: &mut Similarity<'_, W>,
    input: &PreparedInput<'_>,
    table: &mut T,
    k: usize,
    c: f64,
    wu: f64,
    adjustment: f64,
    fms_cache: &HashMap<u32, f64>,
    trace: &mut LookupTrace,
) -> Result<Vec<ScoredMatch>>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
    T: TidScores,
{
    {
        let _span = crate::tracing::span("rank");
        table.rank();
    }
    let _verify_span = crate::tracing::span("verify");
    let mut top: Vec<ScoredMatch> = Vec::with_capacity(k + 1);
    let cap = ctx.config.max_candidates;
    let mut fetched = 0usize;
    // Candidates come off the ranking one pop at a time: the loop usually
    // ends after a few dozen of the thousands scored.
    while let Some((tid, score)) = table.pop_best() {
        let bound = score_bound(score, wu, adjustment, ctx.config.q);
        // Either this candidate cannot clear the threshold, or the K-th
        // verified match dominates it — and with it everything unfetched.
        if bound < c || (top.len() == k && top[k - 1].similarity >= bound) {
            trace.apx_pruned += 1 + table.remaining() as u64;
            crate::tracing::instant("apx_prune");
            break;
        }
        if cap != 0 && fetched >= cap {
            break; // work cap
        }
        let similarity = match fms_cache.get(&tid) {
            Some(&f) => Some(f),
            None => {
                trace.candidates_fetched += 1;
                fetched += 1;
                let floor = verification_floor(&top, k, c);
                #[cfg(test)]
                let floor = if UNBOUNDED_VERIFY.get() { 0.0 } else { floor };
                let sketch_floor = floor;
                #[cfg(test)]
                let sketch_floor = if NO_SKETCHES.get() { 0.0 } else { sketch_floor };
                let mut rejects =
                    |sketch: RowSketch<'_>| sim.sketch_rejects(input, sketch, sketch_floor);
                if ctx.reference.sketch_test(tid, &mut rejects) {
                    trace.sketch_rejected += 1;
                    continue;
                }
                let row = {
                    let _span = crate::tracing::span("fetch");
                    ctx.reference.fetch(tid)?
                };
                sim.fms_at_least(input, &row, ctx.tokenizer, floor)
            }
        };
        if let Some(similarity) = similarity.filter(|&f| f >= c) {
            insert_match(&mut top, ScoredMatch { tid, similarity }, k);
        }
    }
    // `sim` was made for this query, so its evaluation count — the OSC
    // rounds' included — is the query's.
    trace.fms_evals = sim.evaluations();
    Ok(top)
}

/// The similarity a newly fetched candidate has to reach to change `top`:
/// the threshold, and the K-th verified match once there are K.
fn verification_floor(top: &[ScoredMatch], k: usize, c: f64) -> f64 {
    match top.get(k - 1) {
        Some(kth) => kth.similarity.max(c),
        None => c,
    }
}

// Test-only: make this thread's verification unbounded (floor 0, so every
// fetched candidate is evaluated in full, as before the bounds existed) —
// the reference the bounded pipeline is compared against.
// `NO_SKETCHES` makes it read every candidate, as before the sketches
// existed.
#[cfg(test)]
thread_local! {
    pub(crate) static UNBOUNDED_VERIFY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    pub(crate) static NO_SKETCHES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Insert into a K-bounded list kept sorted by (similarity desc, tid asc).
pub(crate) fn insert_match(top: &mut Vec<ScoredMatch>, m: ScoredMatch, k: usize) {
    let pos = top
        .iter()
        .position(|x| {
            m.similarity > x.similarity || (m.similarity == x.similarity && m.tid < x.tid)
        })
        .unwrap_or(top.len());
    top.insert(pos, m);
    top.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::weights::UnitWeights;
    use fm_text::Tokenizer;

    fn tok(values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }

    #[test]
    fn plan_weights_and_adjustment() {
        let cfg = Config::default()
            .with_columns(&["name", "city"])
            .with_q(4)
            .with_signature(crate::config::SignatureScheme::QGrams, 2);
        let mh = MinHasher::new(2, 4, 7);
        let input = tok(&["boeing company", "seattle"]);
        let plan = plan_query(&input, &cfg, &UnitWeights, &mh);
        // 3 unit-weight tokens.
        assert!((plan.wu - 3.0).abs() < 1e-12);
        assert!((plan.adjustment - 3.0 * 0.75).abs() < 1e-12);
        // Gram weights sum back to w(u) (shares sum to 1 per token).
        let wg: f64 = plan.grams.iter().map(|g| g.weight).sum();
        assert!((wg - plan.wu).abs() < 1e-9);
        // Every long token contributes H grams; all are 4-grams of their
        // token or whole short tokens.
        assert_eq!(plan.grams.len(), 6);
    }

    #[test]
    fn plan_empty_input() {
        let cfg = Config::default().with_columns(&["name"]);
        let mh = MinHasher::new(2, 4, 7);
        let input = Record::from_options(vec![None]).tokenize(&Tokenizer::new());
        let plan = plan_query(&input, &cfg, &UnitWeights, &mh);
        assert_eq!(plan.wu, 0.0);
        assert!(plan.grams.is_empty());
    }

    #[test]
    fn probe_into_carries_the_table_counters_into_the_trace() {
        let db = fm_store::Database::in_memory().unwrap();
        let eti = Eti::new(db.create_index("eti").unwrap(), 10_000);
        // (row, tid-list, probe weight, admit new tids)
        let lists: [(&str, &[u32], f64, bool); 3] = [
            ("a", &[1, 2, 3], 1.0, true),
            ("b", &[2, 3], 0.5, true),
            ("c", &[3, 4], 0.25, false),
        ];
        for (gram, tids, _, _) in lists {
            eti.insert_group(gram, 1, 0, tids).unwrap();
        }
        let mut trace = LookupTrace::default();
        let mut table = scores::ScoreTable::default();
        table.begin(1);
        let mut key = Vec::new();
        for (gram, _, weight, admit_new) in lists {
            let gram = PlannedGram {
                column: 0,
                coordinate: 1,
                gram: gram.to_string(),
                weight,
            };
            let probed =
                probe_into(&eti, &gram, &mut key, &mut table, admit_new, &mut trace).unwrap();
            assert!(matches!(probed, Probed::List { .. }));
        }
        assert_eq!((trace.qgrams_probed, trace.tid_list_entries), (3, 7));
        // Tid 4 was not admitted: 3 inserts + 2 bumps + 1 bump.
        assert_eq!(trace.candidates, 3);
        assert_eq!(trace.tids_processed, 6);
        assert_eq!(table.top(), &[(3, 1.75), (2, 1.5)]);
        // Probing never decides a short circuit; the OSC runner does.
        assert!(!trace.osc_succeeded());
        trace.check_consistent().unwrap();
    }

    #[test]
    fn insert_match_keeps_k_best_sorted() {
        let mut top = Vec::new();
        for (tid, s) in [(1, 0.5), (2, 0.9), (3, 0.7), (4, 0.9), (5, 0.2)] {
            insert_match(&mut top, ScoredMatch { tid, similarity: s }, 3);
        }
        let tids: Vec<u32> = top.iter().map(|m| m.tid).collect();
        // 0.9 (tid 2), 0.9 (tid 4), 0.7 (tid 3); tie broken by tid.
        assert_eq!(tids, vec![2, 4, 3]);
    }
}
