//! Min-hash signatures (paper §4.1, "Min-hash Similarity").
//!
//! For `H` seeded hash functions `h_1..h_H`, the min-hash signature of a set
//! `S` is `[argmin_{a∈S} h_1(a), …, argmin_{a∈S} h_H(a)]`. The fraction of
//! agreeing coordinates between two signatures is an unbiased estimator of
//! the Jaccard coefficient of the underlying sets (Broder; Cohen).
//!
//! The paper applies this to the q-gram sets of tokens and **stores the
//! winning q-gram strings themselves** in the ETI (the signature coordinates
//! in Table 3 are q-grams like `oei`, `ing`), so [`MinHasher::signature`]
//! returns the argmin q-grams, not their hash values.
//!
//! A token shorter than `q` has no q-grams; per §4.2 its signature is the
//! token itself (a single coordinate).

use crate::hash::{derive_seeds, hash_str};
use crate::qgram::qgram_set;

/// A min-hash signature: the list of argmin q-grams, one per coordinate.
///
/// Either `H` coordinates (token length ≥ q) or a single coordinate holding
/// the whole token (short-token case).
pub type Signature = Vec<String>;

/// Computes min-hash signatures of tokens over their q-gram sets.
///
/// Deterministic: two `MinHasher`s constructed with the same `(h, q, seed)`
/// produce identical signatures, which is what lets the query processor
/// probe an ETI built in an earlier session.
///
/// ```
/// use fm_text::MinHasher;
///
/// let mh = MinHasher::new(3, 3, 42);
/// let sig = mh.signature("boeing");
/// assert_eq!(sig.len(), 3);                  // H coordinates
/// assert_eq!(mh.signature("boeing"), sig);   // deterministic
/// assert_eq!(mh.similarity("boeing", "boeing"), 1.0);
/// // Short tokens are their own signature (paper §4.2).
/// assert_eq!(mh.signature("wa"), vec!["wa"]);
/// ```
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
    q: usize,
}

impl MinHasher {
    /// A hasher producing `h` coordinates over `q`-gram sets, with all hash
    /// functions derived from `seed`.
    ///
    /// `h = 0` is allowed and yields empty signatures for long tokens; it is
    /// used by the paper's `Q+T_0` (token-only) strategy.
    pub fn new(h: usize, q: usize, seed: u64) -> Self {
        assert!(q > 0, "q must be positive");
        MinHasher {
            seeds: derive_seeds(seed ^ 0x6d68_6173_6865_7221, h),
            q,
        }
    }

    /// Number of coordinates `H`.
    pub fn h(&self) -> usize {
        self.seeds.len()
    }

    /// The q-gram size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The min-hash signature of `token`.
    ///
    /// Returns `[token]` when the token is shorter than `q` (paper §4.2),
    /// otherwise the `H` argmin q-grams.
    pub fn signature(&self, token: &str) -> Signature {
        let grams = qgram_set(token, self.q);
        if grams.is_empty() {
            return vec![token.to_string()];
        }
        // `grams` is non-empty, so every seed has an argmin.
        self.seeds
            .iter()
            .map(|&seed| {
                let argmin = grams.iter().min_by_key(|g| hash_str(seed, g));
                argmin.cloned().unwrap_or_default()
            })
            .collect()
    }

    /// `sim_mh(t1, t2)`: fraction of agreeing signature coordinates
    /// (paper §4.1). For short tokens this degenerates to exact equality.
    pub fn similarity(&self, t1: &str, t2: &str) -> f64 {
        let s1 = self.signature(t1);
        let s2 = self.signature(t2);
        signature_similarity(&s1, &s2)
    }
}

/// Fraction of agreeing coordinates between two signatures.
///
/// Signatures of different lengths (a short token vs a long one) share no
/// coordinate structure; the comparison then checks whether the single
/// short-token coordinate equals the other side's coordinates positionally —
/// in practice such pairs only agree when the tokens are equal.
pub fn signature_similarity(s1: &Signature, s2: &Signature) -> f64 {
    let n = s1.len().max(s2.len());
    if n == 0 {
        return 1.0;
    }
    let agree = s1.iter().zip(s2.iter()).filter(|(a, b)| a == b).count();
    agree as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard;

    #[test]
    fn deterministic_across_instances() {
        let a = MinHasher::new(4, 3, 42);
        let b = MinHasher::new(4, 3, 42);
        for t in ["boeing", "corporation", "seattle", "wa"] {
            assert_eq!(a.signature(t), b.signature(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MinHasher::new(8, 3, 1);
        let b = MinHasher::new(8, 3, 2);
        // With 8 coordinates over a 10-gram set, identical signatures under
        // different seeds would be astronomically unlikely.
        assert_ne!(a.signature("corporation"), b.signature("corporation"));
    }

    #[test]
    fn signature_coordinates_are_qgrams_of_the_token() {
        let mh = MinHasher::new(6, 3, 7);
        let grams = qgram_set("boeing", 3);
        for coord in mh.signature("boeing") {
            assert!(grams.contains(&coord), "{coord} not a 3-gram of boeing");
        }
    }

    #[test]
    fn short_token_signature_is_the_token() {
        let mh = MinHasher::new(4, 3, 7);
        assert_eq!(mh.signature("wa"), vec!["wa"]);
        assert_eq!(mh.signature(""), vec![""]);
        // Length exactly q-1.
        assert_eq!(mh.signature("ab"), vec!["ab"]);
    }

    #[test]
    fn h_zero_yields_empty_signature_for_long_tokens() {
        let mh = MinHasher::new(0, 3, 7);
        assert!(mh.signature("boeing").is_empty());
        // Short tokens still collapse to themselves.
        assert_eq!(mh.signature("wa"), vec!["wa"]);
    }

    #[test]
    fn identical_tokens_have_similarity_one() {
        let mh = MinHasher::new(4, 3, 9);
        assert_eq!(mh.similarity("seattle", "seattle"), 1.0);
        assert_eq!(mh.similarity("wa", "wa"), 1.0);
    }

    #[test]
    fn disjoint_tokens_have_similarity_zero() {
        let mh = MinHasher::new(4, 3, 9);
        assert_eq!(mh.similarity("aaaa", "zzzz"), 0.0);
    }

    #[test]
    fn short_vs_long_token_similarity_zero() {
        let mh = MinHasher::new(4, 3, 9);
        assert_eq!(mh.similarity("wa", "washington"), 0.0);
    }

    #[test]
    fn estimator_is_close_to_jaccard_for_large_h() {
        // E[sim_mh] = jaccard (paper §4.1); with H = 512 the estimate should
        // land within ±0.1 of the true coefficient.
        let mh = MinHasher::new(512, 3, 1234);
        let pairs = [
            ("boeing", "beoing"),
            ("corporation", "corporal"),
            ("company", "corporation"),
            ("seattle", "seattle"),
        ];
        for (a, b) in pairs {
            let truth = jaccard(&qgram_set(a, 3), &qgram_set(b, 3));
            let est = mh.similarity(a, b);
            assert!(
                (est - truth).abs() < 0.1,
                "minhash estimate {est} far from jaccard {truth} for {a}/{b}"
            );
        }
    }

    #[test]
    fn estimator_unbiasedness_over_seeds() {
        // Average the H=1 estimator over many independent seeds; the mean
        // must converge to the Jaccard coefficient.
        let (a, b) = ("corporation", "corporal");
        let truth = jaccard(&qgram_set(a, 3), &qgram_set(b, 3));
        let n = 2000;
        let mut sum = 0.0;
        for seed in 0..n {
            let mh = MinHasher::new(1, 3, seed);
            sum += mh.similarity(a, b);
        }
        let mean = sum / n as f64;
        assert!(
            (mean - truth).abs() < 0.05,
            "empirical mean {mean} not near jaccard {truth}"
        );
    }

    #[test]
    fn signature_similarity_edges() {
        assert_eq!(signature_similarity(&vec![], &vec![]), 1.0);
        let s = vec!["ing".to_string()];
        assert_eq!(signature_similarity(&s, &s), 1.0);
        let t = vec!["boe".to_string(), "ing".to_string()];
        // 1 agreement out of max(1, 2) = 2 positions... positions: s[0]=ing
        // vs t[0]=boe disagree; only overlap length compared => 0 agreements.
        assert_eq!(signature_similarity(&s, &t), 0.0);
    }
}
