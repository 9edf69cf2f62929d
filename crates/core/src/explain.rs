//! Query explanation: a structured trace of what the matcher saw and why
//! it ranked candidates the way it did.
//!
//! `EXPLAIN` for fuzzy lookups — when a match looks wrong, the first three
//! questions are always: what weights did the input tokens get, which ETI
//! rows did the signature probe (and how long were their tid-lists), and
//! how did min-hash scores compare to the exact `fms` of the top
//! candidates. [`FuzzyMatcher::explain`] answers all three without touching
//! the production query paths.

use crate::error::Result;
use crate::eti::token_signature;
use crate::matcher::FuzzyMatcher;
use crate::query::scores::rank_cmp;
use crate::query::{score_bound, ReferenceFetch};
use crate::record::Record;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

/// One input token and its index signature.
#[derive(Debug, Clone)]
pub struct TokenExplain {
    pub column: usize,
    pub token: String,
    /// IDF weight × column factor.
    pub weight: f64,
    /// `freq(t, i)` in the reference relation (0 = unseen).
    pub frequency: u32,
    /// `(coordinate, gram, gram weight)` of each signature entry.
    pub signature: Vec<(u8, String, f64)>,
}

/// One ETI probe.
#[derive(Debug, Clone)]
pub struct GramExplain {
    pub column: usize,
    pub coordinate: u8,
    pub gram: String,
    pub weight: f64,
    /// Tid-list length; `None` when the row is absent.
    pub list_len: Option<usize>,
    /// The row is a stop q-gram (NULL tid-list).
    pub stop: bool,
}

/// One scored candidate, fms-verified.
#[derive(Debug, Clone)]
pub struct CandidateExplain {
    pub tid: u32,
    /// Accumulated min-hash score (absolute, out of `wu`).
    pub score: f64,
    /// The sound score→fms upper bound used by the early-stop logic.
    pub bound: f64,
    /// Exact similarity.
    pub fms: f64,
    /// A K = 1 lookup reaching this candidate after the ones listed above
    /// it would have dropped it from the raw row, without a full `fms`
    /// evaluation (DESIGN §4.2) — counted in `candidates_fetched` but not
    /// in `fms_evals`.
    pub bound_rejected: bool,
    /// Of those, one it would have dropped from its in-memory token
    /// sketch, without reading the row — counted in `sketch_rejected` too.
    /// Implies `bound_rejected`.
    pub sketch_rejected: bool,
    pub record: Record,
}

/// Full trace for one input tuple.
#[derive(Debug, Clone)]
pub struct Explain {
    pub tokens: Vec<TokenExplain>,
    /// `w(u)`.
    pub total_weight: f64,
    /// The full adjustment term `Σ w(t)(1 − 1/q)`.
    pub adjustment: f64,
    pub grams: Vec<GramExplain>,
    /// Top candidates by score (up to the requested limit), fms-verified,
    /// in score order.
    pub candidates: Vec<CandidateExplain>,
    /// Total distinct tids scored.
    pub distinct_tids: usize,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "input tokens (w(u) = {:.3}):", self.total_weight)?;
        for t in &self.tokens {
            writeln!(
                f,
                "  col {} {:<24} weight {:>7.3}  freq {:>6}{}",
                t.column,
                t.token,
                t.weight,
                t.frequency,
                if t.frequency == 0 {
                    "  (unseen → column avg)"
                } else {
                    ""
                }
            )?;
        }
        writeln!(f, "eti probes:")?;
        for g in &self.grams {
            let outcome = match (g.stop, g.list_len) {
                (true, _) => "STOP q-gram".to_string(),
                (false, Some(n)) => format!("{n} tids"),
                (false, None) => "no row".to_string(),
            };
            writeln!(
                f,
                "  ({}, c{}, col{}){:width$} weight {:>6.3}  {}",
                g.gram,
                g.coordinate,
                g.column,
                "",
                g.weight,
                outcome,
                width = 18usize.saturating_sub(g.gram.len()),
            )?;
        }
        writeln!(
            f,
            "candidates ({} distinct tids scored, adjustment {:.3}):",
            self.distinct_tids, self.adjustment
        )?;
        for c in &self.candidates {
            writeln!(
                f,
                "  tid {:>8} score {:>7.3} bound {:>5.3} fms {:>6.4}{} {}",
                c.tid,
                c.score,
                c.bound,
                c.fms,
                if c.sketch_rejected {
                    "#"
                } else if c.bound_rejected {
                    "*"
                } else {
                    " "
                },
                c.record
            )?;
        }
        writeln!(
            f,
            "  * bound-rejected at K = 1: {} of {} would skip the full fms evaluation, \
             # {} of them without reading the row",
            self.candidates.iter().filter(|c| c.bound_rejected).count(),
            self.candidates.len(),
            self.candidates.iter().filter(|c| c.sketch_rejected).count(),
        )
    }
}

impl FuzzyMatcher {
    /// Trace a lookup: token weights, ETI probes, and the top
    /// `candidate_limit` candidates by score with their exact `fms`.
    ///
    /// Runs the basic algorithm's scoring phase without pruning or early
    /// stops, so the trace is complete; cost is comparable to one
    /// un-short-circuited lookup plus `candidate_limit` fms evaluations.
    pub fn explain(&self, input: &Record, candidate_limit: usize) -> Result<Explain> {
        let config = self.config();
        let tokens = input.tokenize(self.tokenizer());
        let weights = self.weights_snapshot();
        let minhasher = self.minhasher();

        let dq = 1.0 - 1.0 / config.q as f64;
        let mut token_explains = Vec::new();
        let mut gram_explains = Vec::new();
        let mut total_weight = 0.0;
        let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for (col, token) in tokens.iter_tokens() {
            let weight = config.column_factor(col) * weights.weight(col, token);
            total_weight += weight;
            let frequency = weights.frequencies().freq(col, token);
            let mut signature = Vec::new();
            for entry in token_signature(token, minhasher, config.scheme) {
                let gram_weight = weight * entry.share;
                signature.push((entry.coordinate, entry.gram.clone(), gram_weight));
                let list = self.eti_lookup(&entry.gram, entry.coordinate, col as u8)?;
                let (list_len, stop) = match &list {
                    None => (None, false),
                    Some(l) => match &l.tids {
                        None => (Some(l.frequency as usize), true),
                        Some(tids) => {
                            for &tid in tids {
                                *scores.entry(tid).or_insert(0.0) += gram_weight;
                            }
                            (Some(tids.len()), false)
                        }
                    },
                };
                gram_explains.push(GramExplain {
                    column: col,
                    coordinate: entry.coordinate,
                    gram: entry.gram,
                    weight: gram_weight,
                    list_len,
                    stop,
                });
            }
            token_explains.push(TokenExplain {
                column: col,
                token: token.to_string(),
                weight,
                frequency,
                signature,
            });
        }
        let adjustment = total_weight * dq;

        let mut ranked: Vec<(u32, f64)> = scores.iter().map(|(&t, &s)| (t, s)).collect();
        ranked.sort_unstable_by(|&a, &b| rank_cmp(a, b));
        let mut sim = Similarity::new(&*weights, config);
        let prepared = sim.prepare(&tokens);
        let mut candidates = Vec::new();
        let mut best = 0.0f64;
        for &(tid, score) in ranked.iter().take(candidate_limit) {
            let sketch_rejected =
                self.sketch_test(tid, &mut |s| sim.sketch_rejects(&prepared, s, best));
            let record = self.fetch_reference(tid)?;
            let evaluations = sim.evaluations();
            let bounded = sim.fms_at_least(&prepared, &record, self.tokenizer(), best);
            let bound_rejected = bounded.is_none() && sim.evaluations() == evaluations;
            let fms = bounded
                .unwrap_or_else(|| sim.fms_prepared(&prepared, &record.tokenize(self.tokenizer())));
            best = best.max(fms);
            candidates.push(CandidateExplain {
                tid,
                score,
                bound: if total_weight > 0.0 {
                    score_bound(score, total_weight, adjustment, config.q)
                } else {
                    0.0
                },
                fms,
                bound_rejected,
                sketch_rejected,
                record,
            });
        }
        Ok(Explain {
            tokens: token_explains,
            total_weight,
            adjustment,
            grams: gram_explains,
            candidates,
            distinct_tids: scores.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use fm_store::Database;

    fn matcher() -> (Database, FuzzyMatcher) {
        let db = Database::in_memory().unwrap();
        let reference = vec![
            Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
            Record::new(&["Companions", "Seattle", "WA", "98024"]),
        ];
        let config = Config::default().with_columns(&["name", "city", "state", "zip"]);
        let m = FuzzyMatcher::build(&db, "org", reference.into_iter(), config).unwrap();
        (db, m)
    }

    #[test]
    fn explain_covers_all_tokens_and_probes() {
        let (_db, m) = matcher();
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let ex = m.explain(&input, 5).unwrap();
        assert_eq!(ex.tokens.len(), 5);
        // 'beoing' is unseen.
        let beoing = ex.tokens.iter().find(|t| t.token == "beoing").unwrap();
        assert_eq!(beoing.frequency, 0);
        // 'seattle' is in every tuple → weight 0.
        let seattle = ex.tokens.iter().find(|t| t.token == "seattle").unwrap();
        assert_eq!(seattle.frequency, 3);
        assert!(seattle.weight.abs() < 1e-12);
        // Every signature entry produced a probe record.
        let expected_probes: usize = ex.tokens.iter().map(|t| t.signature.len()).sum();
        assert_eq!(ex.grams.len(), expected_probes);
        // w(u) matches the token sum.
        let sum: f64 = ex.tokens.iter().map(|t| t.weight).sum();
        assert!((ex.total_weight - sum).abs() < 1e-9);
    }

    #[test]
    fn explain_ranks_the_target_first() {
        let (_db, m) = matcher();
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let ex = m.explain(&input, 3).unwrap();
        assert!(!ex.candidates.is_empty());
        let top = &ex.candidates[0];
        assert_eq!(top.tid, 1);
        assert!(top.fms > 0.8);
        assert!(top.bound >= top.fms - 1e-9, "bound must dominate fms");
        // Scores are in non-increasing order.
        for w in ex.candidates.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // A sketch rejection is a bound rejection.
        assert!(ex
            .candidates
            .iter()
            .all(|c| c.bound_rejected || !c.sketch_rejected));
        assert!(ex.distinct_tids >= ex.candidates.len());
    }

    #[test]
    fn explain_display_renders() {
        let (_db, m) = matcher();
        let input = Record::new(&["Beoing Co", "Seattle", "WA", "98004"]);
        let text = m.explain(&input, 2).unwrap().to_string();
        assert!(text.contains("input tokens"));
        assert!(text.contains("eti probes"));
        assert!(text.contains("candidates"));
        assert!(text.contains("beoing"));
    }

    #[test]
    fn explain_empty_input() {
        let (_db, m) = matcher();
        let input = Record::from_options(vec![None, None, None, None]);
        let ex = m.explain(&input, 5).unwrap();
        assert!(ex.tokens.is_empty());
        assert!(ex.candidates.is_empty());
        assert_eq!(ex.total_weight, 0.0);
    }
}
