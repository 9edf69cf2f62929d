//! Baselines from the paper's evaluation.
//!
//! * [`NaiveMatcher`] — the naïve algorithm (§4): scan the whole reference
//!   relation computing `fms` per tuple. It defines the ground truth the
//!   indexed algorithms are compared against, and its per-tuple elapsed
//!   time is the denominator of the paper's *normalized elapsed time*
//!   metric (§6.1). The reference is pre-tokenized in memory, which makes
//!   the baseline *faster* than a fair disk-resident scan — i.e., our
//!   normalized numbers are conservative.
//! * [`EditDistanceMatcher`] — the edit-distance similarity baseline of
//!   §6.2.1.1: tuple-level `ed` (token sequences concatenated, character
//!   edit distance normalized by the longer string), scanned naïvely.

use crate::config::Config;
use crate::error::Result;
use crate::matcher::FuzzyMatcher;
use crate::query::ScoredMatch;
use crate::record::{Record, TokenizedRecord};
use crate::sim::Similarity;
use crate::weights::{TokenFrequencies, WeightTable};
use fm_text::{EditBuffer, Tokenizer};

/// Full-scan matcher under `fms`.
///
/// ```
/// use fm_core::naive::NaiveMatcher;
/// use fm_core::{Config, Record};
///
/// let reference = vec![
///     (1, Record::new(&["Boeing Company", "Seattle"])),
///     (2, Record::new(&["Bon Corporation", "Seattle"])),
/// ];
/// let config = Config::default().with_columns(&["name", "city"]);
/// let naive = NaiveMatcher::from_records(&reference, config);
/// let hits = naive.lookup(&Record::new(&["Beoing Company", "Seattle"]), 1, 0.0);
/// assert_eq!(hits[0].tid, 1);
/// ```
pub struct NaiveMatcher {
    config: Config,
    weights: WeightTable,
    reference: Vec<(u32, TokenizedRecord)>,
}

impl NaiveMatcher {
    /// Build directly from reference records (computes its own IDF
    /// weights — identical to the matcher's by construction).
    pub fn from_records(reference: &[(u32, Record)], config: Config) -> NaiveMatcher {
        let tokenizer = Tokenizer::new();
        let mut freqs = TokenFrequencies::new(config.arity());
        let tokenized: Vec<(u32, TokenizedRecord)> = reference
            .iter()
            .map(|(tid, r)| (*tid, r.tokenize(&tokenizer)))
            .collect();
        for (_, t) in &tokenized {
            freqs.observe(t);
        }
        NaiveMatcher {
            config,
            weights: WeightTable::new(freqs),
            reference: tokenized,
        }
    }

    /// Build by snapshotting an existing matcher's reference and weights,
    /// so both sides rank with the *same* similarity function.
    pub fn from_matcher(matcher: &FuzzyMatcher) -> Result<NaiveMatcher> {
        let tokenizer = Tokenizer::new();
        let reference = matcher
            .scan_reference()?
            .into_iter()
            .map(|(tid, r)| (tid, r.tokenize(&tokenizer)))
            .collect();
        Ok(NaiveMatcher {
            config: matcher.config().clone(),
            weights: matcher.clone_weights(),
            reference,
        })
    }

    /// Number of reference tuples.
    pub fn len(&self) -> usize {
        self.reference.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reference.is_empty()
    }

    /// Exact K-fuzzy-match by full scan: the ground truth.
    pub fn lookup(&self, input: &Record, k: usize, c: f64) -> Vec<ScoredMatch> {
        if k == 0 {
            return Vec::new();
        }
        let tokens = input.tokenize(&Tokenizer::new());
        let mut sim = Similarity::new(&self.weights, &self.config);
        let prepared = sim.prepare(&tokens);
        let mut top: Vec<ScoredMatch> = Vec::with_capacity(k + 1);
        for (tid, reference) in &self.reference {
            let similarity = sim.fms_prepared(&prepared, reference);
            if similarity >= c {
                crate::query::insert_match(
                    &mut top,
                    ScoredMatch {
                        tid: *tid,
                        similarity,
                    },
                    k,
                );
            }
        }
        top
    }
}

/// Full-scan matcher under tuple-level edit distance (§3.2 / §6.2.1.1).
pub struct EditDistanceMatcher {
    reference: Vec<(u32, String)>,
}

/// Flatten a record for tuple-level `ed`: tokens of all columns joined by
/// single spaces (NULL columns vanish), lowercased by tokenization — the
/// natural "tuple as one string" reading of the paper's `ed` baseline.
fn flatten(record: &Record, tokenizer: &Tokenizer) -> String {
    let mut parts: Vec<String> = Vec::new();
    for s in record.values().iter().flatten() {
        parts.extend(tokenizer.tokenize(s));
    }
    parts.join(" ")
}

impl EditDistanceMatcher {
    pub fn from_records(reference: &[(u32, Record)]) -> EditDistanceMatcher {
        let tokenizer = Tokenizer::new();
        EditDistanceMatcher {
            reference: reference
                .iter()
                .map(|(tid, r)| (*tid, flatten(r, &tokenizer)))
                .collect(),
        }
    }

    /// Similarity of one pair: `1 − ed(flat(u), flat(v))`.
    pub fn similarity(u: &Record, v: &Record) -> f64 {
        let tokenizer = Tokenizer::new();
        let fu = flatten(u, &tokenizer);
        let fv = flatten(v, &tokenizer);
        1.0 - EditBuffer::new().normalized(&fu, &fv)
    }

    /// K nearest under `1 − ed`, full scan.
    pub fn lookup(&self, input: &Record, k: usize, c: f64) -> Vec<ScoredMatch> {
        if k == 0 {
            return Vec::new();
        }
        let tokenizer = Tokenizer::new();
        let flat = flatten(input, &tokenizer);
        let mut edit = EditBuffer::new();
        let mut top: Vec<ScoredMatch> = Vec::with_capacity(k + 1);
        for (tid, reference) in &self.reference {
            let similarity = 1.0 - edit.normalized(&flat, reference);
            if similarity >= c {
                crate::query::insert_match(
                    &mut top,
                    ScoredMatch {
                        tid: *tid,
                        similarity,
                    },
                    k,
                );
            }
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Vec<(u32, Record)> {
        vec![
            (
                1,
                Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            ),
            (
                2,
                Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
            ),
            (3, Record::new(&["Companions", "Seattle", "WA", "98024"])),
        ]
    }

    fn config() -> Config {
        Config::default().with_columns(&["name", "city", "state", "zip"])
    }

    #[test]
    fn naive_finds_exact_match() {
        let m = NaiveMatcher::from_records(&table1(), config());
        let hits = m.lookup(
            &Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            1,
            0.0,
        );
        assert_eq!(hits[0].tid, 1);
        assert!((hits[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_section_1_ed_vs_fms_disagreement() {
        // The paper's motivating example: ed considers I3 = [Boeing
        // Corporation, …, 98004] closest to R2, while fms (with IDF
        // weights) picks the correct target R1.
        let refs = table1();
        let i3 = Record::new(&["Boeing Corporation", "Seattle", "WA", "98004"]);
        let ed = EditDistanceMatcher::from_records(&refs);
        let ed_hits = ed.lookup(&i3, 1, 0.0);
        assert_eq!(
            ed_hits[0].tid, 2,
            "ed should (wrongly) prefer Bon Corporation"
        );
        let fms = NaiveMatcher::from_records(&refs, config());
        let fms_hits = fms.lookup(&i3, 1, 0.0);
        assert_eq!(fms_hits[0].tid, 1, "fms should prefer Boeing Company");
    }

    #[test]
    fn ed_tuple_similarity_matches_hand_computation() {
        // flat(I1) = "beoing company seattle wa 98004"
        // flat(R1) = "boeing company seattle wa 98004" → 2 edits / 31 chars.
        let u = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let v = Record::new(&["Boeing Company", "Seattle", "WA", "98004"]);
        let s = EditDistanceMatcher::similarity(&u, &v);
        assert!((s - (1.0 - 2.0 / 31.0)).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn k_and_threshold_respected() {
        let m = NaiveMatcher::from_records(&table1(), config());
        let input = Record::new(&["Company", "Seattle", "WA", "98004"]);
        assert!(m.lookup(&input, 2, 0.0).len() <= 2);
        assert!(m.lookup(&input, 3, 0.999).len() <= 1);
        assert!(m.lookup(&input, 0, 0.0).is_empty());
        // Ordering is by decreasing similarity.
        let hits = m.lookup(&input, 3, 0.0);
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn null_columns_flatten_away() {
        let u = Record::from_options(vec![Some("boeing".into()), None]);
        let v = Record::new(&["boeing", ""]);
        assert_eq!(EditDistanceMatcher::similarity(&u, &v), 1.0);
    }

    #[test]
    fn from_matcher_agrees_with_from_records() {
        use fm_store::Database;
        let db = Database::in_memory().unwrap();
        let matcher =
            FuzzyMatcher::build(&db, "org", table1().into_iter().map(|(_, r)| r), config())
                .unwrap();
        let via_matcher = NaiveMatcher::from_matcher(&matcher).unwrap();
        let direct = NaiveMatcher::from_records(&table1(), config());
        let input = Record::new(&["Beoing Co", "Seattle", "WA", "98004"]);
        let a = via_matcher.lookup(&input, 3, 0.0);
        let b = direct.lookup(&input, 3, 0.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tid, y.tid);
            assert!((x.similarity - y.similarity).abs() < 1e-12);
        }
        assert_eq!(via_matcher.len(), 3);
        assert!(!via_matcher.is_empty());
    }
}
