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
use crate::query::score_bound;
use crate::query::scores::rank_cmp;
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

/// One LSH band probe for one input token (DESIGN §12). A band *collides*
/// when its key has a posting list in the index — the tier's unit of
/// recall; a token whose bands all miss is invisible to the LSH tier.
#[derive(Debug, Clone)]
pub struct BandExplain {
    pub column: usize,
    pub token: String,
    pub band: u8,
    /// The seeded band hash of the token's signature rows for this band.
    pub key: u64,
    /// Posting-list length; `None` when no reference token hashed here.
    pub list_len: Option<usize>,
    /// The posting list is a stop band (frequency above threshold,
    /// tid-list elided).
    pub stop: bool,
}

impl BandExplain {
    /// Whether this band found a posting list (stop bands count: the key
    /// collided, the list was merely too hot to store).
    #[must_use]
    pub fn collided(&self) -> bool {
        self.list_len.is_some()
    }
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
    /// Per-token LSH band probes (what the LSH candidate tier would see
    /// for this input, whatever tier actually serves lookups).
    pub bands: Vec<BandExplain>,
    /// The LSH shape `b` (bands per token).
    pub lsh_bands: usize,
    /// The LSH shape `r` (signature rows per band).
    pub lsh_rows: usize,
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
        writeln!(f, "lsh bands (b={}, r={}):", self.lsh_bands, self.lsh_rows)?;
        for b in &self.bands {
            let outcome = match (b.stop, b.list_len) {
                (true, _) => "STOP band".to_string(),
                (false, Some(n)) => format!("{n} tids"),
                (false, None) => "no collision".to_string(),
            };
            writeln!(
                f,
                "  col {} {:<24} band {} key {:016x}  {}",
                b.column, b.token, b.band, b.key, outcome
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
                if c.bound_rejected { "*" } else { " " },
                c.record
            )?;
        }
        writeln!(
            f,
            "  * bound-rejected at K = 1: {} of {} would skip the full fms evaluation",
            self.candidates.iter().filter(|c| c.bound_rejected).count(),
            self.candidates.len()
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
        let mut band_explains = Vec::new();
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
            for (band, key) in self.lsh().band_keys(token).into_iter().enumerate() {
                let list = self.lsh().lookup(col as u8, band as u8, key)?;
                let (list_len, stop) = match &list {
                    None => (None, false),
                    Some(l) => match &l.tids {
                        None => (Some(l.frequency as usize), true),
                        Some(tids) => (Some(tids.len()), false),
                    },
                };
                band_explains.push(BandExplain {
                    column: col,
                    token: token.to_string(),
                    band: band as u8,
                    key,
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
                record,
            });
        }
        Ok(Explain {
            tokens: token_explains,
            total_weight,
            adjustment,
            grams: gram_explains,
            bands: band_explains,
            lsh_bands: self.lsh().bands(),
            lsh_rows: self.lsh().rows(),
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
        assert!(ex.distinct_tids >= ex.candidates.len());
    }

    #[test]
    fn explain_display_renders() {
        let (_db, m) = matcher();
        let input = Record::new(&["Beoing Co", "Seattle", "WA", "98004"]);
        let text = m.explain(&input, 2).unwrap().to_string();
        assert!(text.contains("input tokens"));
        assert!(text.contains("eti probes"));
        assert!(text.contains("lsh bands"));
        assert!(text.contains("candidates"));
        assert!(text.contains("beoing"));
    }

    #[test]
    fn explain_reports_band_keys_and_collisions() {
        let (_db, m) = matcher();
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let ex = m.explain(&input, 3).unwrap();
        // Every token gets exactly b band probes.
        assert_eq!(ex.bands.len(), ex.tokens.len() * ex.lsh_bands);
        assert_eq!(ex.lsh_bands, m.config().lsh_bands);
        assert_eq!(ex.lsh_rows, m.config().lsh_rows);
        // 'seattle' is in every reference tuple, so all of its bands
        // collide with posting lists of length 3.
        let seattle: Vec<_> = ex.bands.iter().filter(|b| b.token == "seattle").collect();
        assert_eq!(seattle.len(), ex.lsh_bands);
        assert!(seattle
            .iter()
            .all(|b| b.collided() && b.list_len == Some(3)));
        // Band keys match the index's own hash family.
        let keys = m.lsh().band_keys("seattle");
        for (b, key) in seattle.iter().zip(keys) {
            assert_eq!(b.key, key);
        }
        // A token far from anything indexed misses on every band.
        let ex2 = m
            .explain(&Record::new(&["zzqqxxyyzz", "", "", ""]), 1)
            .unwrap();
        let miss: Vec<_> = ex2
            .bands
            .iter()
            .filter(|b| b.token == "zzqqxxyyzz")
            .collect();
        assert_eq!(miss.len(), ex2.lsh_bands);
        assert!(miss.iter().all(|b| !b.collided()));
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
