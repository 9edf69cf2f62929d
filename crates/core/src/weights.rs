//! IDF token weights (paper §3, "Weight Function") and the token-frequency
//! cache (§4.4.1).
//!
//! Treating each tuple as a document of tokens, the weight of token `t` in
//! column `i` is `IDF(t, i) = log(|R| / freq(t, i))` where `freq(t, i)`
//! counts reference tuples whose `i`-th column contains `t`. A token never
//! seen in column `i` is presumed to be an erroneous version of *some*
//! reference token, so it gets the **average** weight of column `i`'s
//! tokens.
//!
//! Three cache representations mirror §4.4.1:
//!
//! * [`WeightTable`] — the plain in-memory map (the paper's default
//!   assumption: ~18 MB for 1.7 M tuples);
//! * [`HashedWeightTable`] — "cache without collisions": tokens replaced by
//!   a wide hash (the paper suggests MD5's 16 bytes; we store 64 bits, a
//!   ~10⁻⁸ collision probability at the paper's 367 500 distinct tokens);
//! * [`BoundedWeightTable`] — "cache with collisions": a fixed number of
//!   buckets, colliding tokens collapse and their weights go wrong — kept
//!   for the accuracy-vs-memory ablation.

use std::collections::HashMap;

use fm_text::hash::hash_str;
use fm_text::Tokenizer;

use crate::error::{CoreError, Result};
use crate::record::TokenizedRecord;

/// Raw per-column token frequencies, accumulated during the reference scan.
#[derive(Debug, Clone)]
pub struct TokenFrequencies {
    per_column: Vec<HashMap<String, u32>>,
    relation_size: u64,
}

impl TokenFrequencies {
    pub fn new(arity: usize) -> TokenFrequencies {
        TokenFrequencies {
            per_column: (0..arity).map(|_| HashMap::new()).collect(),
            relation_size: 0,
        }
    }

    /// Record one reference tuple. Tokens are already set-deduplicated per
    /// column by tokenization, so each `(tuple, column, token)` counts once —
    /// the paper's `freq(t, i)` is a *tuple* count.
    pub fn observe(&mut self, tuple: &TokenizedRecord) {
        assert_eq!(tuple.arity(), self.per_column.len(), "arity mismatch");
        self.relation_size += 1;
        for (col, token) in tuple.iter_tokens() {
            count(&mut self.per_column[col], token);
        }
    }

    /// Record one reference tuple from its attribute `values` (`None` =
    /// NULL), counting what [`TokenFrequencies::observe`] counts for its
    /// tokenization. Each token is built in `buf`, so only a token never
    /// counted before allocates: this is how `build`, `open` and
    /// `check_invariants` count the reference relation.
    pub(crate) fn observe_values<'v>(
        &mut self,
        tokenizer: &Tokenizer,
        values: impl Iterator<Item = Option<&'v str>>,
        buf: &mut String,
    ) {
        self.relation_size += 1;
        for (map, value) in self.per_column.iter_mut().zip(values) {
            tokenizer.for_each_token(value.unwrap_or(""), buf, |token| count(map, token));
        }
    }

    /// Insert a raw `(col, token, freq)` observation (used by
    /// maintenance). A frequency of 0 removes the token — `freq(t, i) = 0`
    /// *means* "not in the relation", and a zero entry would corrupt the
    /// column-average computation.
    pub fn set(&mut self, col: usize, token: &str, freq: u32) {
        if freq == 0 {
            self.per_column[col].remove(token);
        } else {
            self.per_column[col].insert(token.to_string(), freq);
        }
    }

    /// Set the relation size directly.
    pub fn set_relation_size(&mut self, n: u64) {
        self.relation_size = n;
    }

    /// Bump the relation size (ETI maintenance: a new reference tuple).
    pub fn bump_relation_size(&mut self) {
        self.relation_size += 1;
    }

    /// `freq(t, i)`; 0 when the token never occurs in the column.
    pub fn freq(&self, col: usize, token: &str) -> u32 {
        self.per_column[col].get(token).copied().unwrap_or(0)
    }

    /// Number of reference tuples `|R|`.
    pub fn relation_size(&self) -> u64 {
        self.relation_size
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.per_column.len()
    }

    /// Iterate all `(col, token, freq)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str, u32)> + '_ {
        self.per_column
            .iter()
            .enumerate()
            .flat_map(|(col, map)| map.iter().map(move |(t, &f)| (col, t.as_str(), f)))
    }

    /// Distinct token count (across all columns; same string in different
    /// columns counts twice, as the paper does).
    pub fn distinct_tokens(&self) -> usize {
        self.per_column.iter().map(|m| m.len()).sum()
    }
}

/// One more tuple holds `token`: a lookup first, so a token already
/// counted costs no allocation.
fn count(map: &mut HashMap<String, u32>, token: &str) {
    match map.get_mut(token) {
        Some(freq) => *freq += 1,
        None => {
            map.insert(token.to_owned(), 1);
        }
    }
}

/// Source of token weights for the similarity functions and the query
/// processor. Implementations differ only in how `freq` is stored.
pub trait WeightProvider: Send + Sync {
    /// `w(t, i)`: the IDF weight, or the column average for unseen tokens.
    fn weight(&self, col: usize, token: &str) -> f64;

    /// `|R|`.
    fn relation_size(&self) -> u64;
}

fn idf(relation_size: u64, freq: u32) -> f64 {
    debug_assert!(freq > 0);
    // Guard against freq > |R| (possible transiently during maintenance):
    // clamp to weight 0 rather than going negative.
    let ratio = relation_size as f64 / f64::from(freq);
    ratio.max(1.0).ln()
}

/// `Σ term(f)` over one column's token frequencies, added in increasing
/// order of `f`: the sum then depends on the frequencies alone, not on the
/// map's iteration order, which differs from process to process — and an
/// ulp of difference in the unseen-token weight is enough to flip a fetch
/// decision between two runs of one binary.
fn sum_over_freqs(map: &HashMap<String, u32>, term: impl Fn(u32) -> f64) -> f64 {
    let mut freqs: Vec<u32> = map.values().copied().collect();
    freqs.sort_unstable();
    freqs.into_iter().map(term).sum()
}

fn sum_ln_freq(map: &HashMap<String, u32>) -> f64 {
    sum_over_freqs(map, |f| f64::from(f).ln())
}

fn column_averages(freqs: &TokenFrequencies) -> Vec<f64> {
    freqs
        .per_column
        .iter()
        .map(|map| {
            if map.is_empty() {
                // A column with no tokens at all: fall back to a neutral
                // weight of 1 so unseen tokens still participate.
                return 1.0;
            }
            sum_over_freqs(map, |f| idf(freqs.relation_size, f)) / map.len() as f64
        })
        .collect()
}

/// The exact in-memory weight table (paper's default).
///
/// The unseen-token column average is maintained as running sums
/// (`Σ ln freq` per column), so ETI maintenance updates cost O(1) per token
/// instead of a full recomputation over all distinct tokens — at the
/// paper's 367 500 distinct tokens that difference is what makes
/// [`crate::matcher::FuzzyMatcher::insert_reference`] usable online.
/// Mathematically `avg(ln(N/f)) = ln N − avg(ln f)` whenever `f ≤ N`; the
/// clamped-at-zero edge (transient `f > N` during maintenance) is handled
/// by clamping the whole average.
#[derive(Debug, Clone)]
pub struct WeightTable {
    freqs: TokenFrequencies,
    /// Per column: Σ ln(freq) over distinct tokens.
    sum_ln_freq: Vec<f64>,
}

impl WeightTable {
    pub fn new(freqs: TokenFrequencies) -> WeightTable {
        let sum_ln_freq = freqs.per_column.iter().map(sum_ln_freq).collect();
        WeightTable { freqs, sum_ln_freq }
    }

    /// The underlying frequencies.
    pub fn frequencies(&self) -> &TokenFrequencies {
        &self.freqs
    }

    /// Mutable access to the frequencies. Callers that change entries this
    /// way must call [`WeightTable::refresh`]; prefer
    /// [`WeightTable::update_freq`], which maintains the running sums
    /// incrementally.
    pub fn frequencies_mut(&mut self) -> &mut TokenFrequencies {
        &mut self.freqs
    }

    /// Change one token's frequency, keeping the column average current in
    /// O(1). A `new_freq` of 0 removes the token.
    pub fn update_freq(&mut self, col: usize, token: &str, new_freq: u32) {
        let old = self.freqs.freq(col, token);
        if old > 0 {
            self.sum_ln_freq[col] -= f64::from(old).ln();
        }
        if new_freq > 0 {
            self.sum_ln_freq[col] += f64::from(new_freq).ln();
        }
        self.freqs.set(col, token, new_freq);
    }

    /// Bump `|R|` (a new reference tuple). The averages need no recompute:
    /// they are derived from `|R|` lazily.
    pub fn bump_relation_size(&mut self) {
        self.freqs.bump_relation_size();
    }

    /// Lower `|R|` (a deleted reference tuple).
    pub fn decrement_relation_size(&mut self) {
        let n = self.freqs.relation_size().saturating_sub(1);
        self.freqs.set_relation_size(n);
    }

    /// Recompute the running sums from scratch (after direct
    /// [`WeightTable::frequencies_mut`] edits).
    pub fn refresh(&mut self) {
        self.sum_ln_freq = self.freqs.per_column.iter().map(sum_ln_freq).collect();
    }

    /// Validate the table's internal bookkeeping at a quiescent point:
    ///
    /// * no zero-frequency entries (a 0 *means* absent; a stored 0 would
    ///   corrupt the column averages);
    /// * no frequency above `|R|` (each `freq(t, i)` counts tuples, so it
    ///   cannot exceed the relation size outside a mid-maintenance instant);
    /// * the O(1)-maintained running sums `Σ ln freq` agree with a full
    ///   recomputation, so the unseen-token column averages equal the
    ///   paper's direct `avg(IDF)` definition.
    pub fn check_invariants(&self) -> Result<()> {
        if self.sum_ln_freq.len() != self.freqs.arity() {
            return Err(CoreError::BadState(format!(
                "weight table tracks {} running sums for {} columns",
                self.sum_ln_freq.len(),
                self.freqs.arity()
            )));
        }
        let n = self.freqs.relation_size();
        for (col, token, f) in self.freqs.iter() {
            if f == 0 {
                return Err(CoreError::BadState(format!(
                    "weight table stores zero frequency for {token:?} in \
                     column {col}; zero means absent and must be removed"
                )));
            }
            if u64::from(f) > n {
                return Err(CoreError::BadState(format!(
                    "weight table frequency {f} for {token:?} in column {col} \
                     exceeds relation size {n}"
                )));
            }
        }
        for col in 0..self.freqs.arity() {
            let recomputed = sum_ln_freq(&self.freqs.per_column[col]);
            if (self.sum_ln_freq[col] - recomputed).abs() > 1e-6 {
                return Err(CoreError::BadState(format!(
                    "weight table running sum for column {col} is {} but the \
                     stored frequencies sum to {recomputed}; incremental \
                     maintenance drifted (call refresh() after direct edits)",
                    self.sum_ln_freq[col]
                )));
            }
        }
        Ok(())
    }

    /// Cross-check this table against independently observed frequencies
    /// (e.g. recounted from a scan of the reference relation): the IDF
    /// weights are consistent iff `|R|` and every `(column, token)`
    /// frequency agree exactly.
    pub fn check_consistent_with(&self, observed: &TokenFrequencies) -> Result<()> {
        if self.freqs.relation_size() != observed.relation_size() {
            return Err(CoreError::BadState(format!(
                "weight table thinks |R| = {} but the relation holds {} tuples",
                self.freqs.relation_size(),
                observed.relation_size()
            )));
        }
        if self.freqs.arity() != observed.arity() {
            return Err(CoreError::BadState(format!(
                "weight table has {} columns, observed frequencies {}",
                self.freqs.arity(),
                observed.arity()
            )));
        }
        for (col, token, f) in observed.iter() {
            let have = self.freqs.freq(col, token);
            if have != f {
                return Err(CoreError::BadState(format!(
                    "weight table frequency for {token:?} in column {col} is \
                     {have}, but the relation contains it in {f} tuples"
                )));
            }
        }
        if self.freqs.distinct_tokens() != observed.distinct_tokens() {
            return Err(CoreError::BadState(format!(
                "weight table tracks {} distinct tokens, the relation has {} \
                 (stale entries were not removed)",
                self.freqs.distinct_tokens(),
                observed.distinct_tokens()
            )));
        }
        Ok(())
    }

    /// Average IDF of column `col` (the unseen-token weight).
    pub fn column_average(&self, col: usize) -> f64 {
        let len = self.freqs.per_column[col].len();
        if len == 0 {
            // A column with no tokens at all: neutral weight 1 so unseen
            // tokens still participate.
            return 1.0;
        }
        let n = (self.freqs.relation_size.max(1)) as f64;
        (n.ln() - self.sum_ln_freq[col] / len as f64).max(0.0)
    }
}

impl WeightProvider for WeightTable {
    fn weight(&self, col: usize, token: &str) -> f64 {
        match self.freqs.freq(col, token) {
            0 => self.column_average(col),
            f => idf(self.freqs.relation_size, f),
        }
    }

    fn relation_size(&self) -> u64 {
        self.freqs.relation_size
    }
}

/// "Cache without collisions" (§4.4.1): token strings replaced by a wide
/// seeded hash. Cuts memory roughly in half for long tokens at a
/// negligible collision probability.
#[derive(Debug, Clone)]
pub struct HashedWeightTable {
    map: HashMap<(u8, u64), u32>,
    column_avg: Vec<f64>,
    relation_size: u64,
    seed: u64,
}

impl HashedWeightTable {
    pub fn new(freqs: &TokenFrequencies, seed: u64) -> HashedWeightTable {
        let column_avg = column_averages(freqs);
        let mut map = HashMap::with_capacity(freqs.distinct_tokens());
        for (col, token, f) in freqs.iter() {
            map.insert((col as u8, hash_str(seed, token)), f);
        }
        HashedWeightTable {
            map,
            column_avg,
            relation_size: freqs.relation_size,
            seed,
        }
    }
}

impl WeightProvider for HashedWeightTable {
    fn weight(&self, col: usize, token: &str) -> f64 {
        match self.map.get(&(col as u8, hash_str(self.seed, token))) {
            None => self.column_avg[col],
            Some(&f) => idf(self.relation_size, f),
        }
    }

    fn relation_size(&self) -> u64 {
        self.relation_size
    }
}

/// "Cache with collisions" (§4.4.1): at most `m` buckets per column;
/// colliding tokens collapse (their frequencies add), so weights can be
/// wrong. Exists to measure that accuracy cost.
#[derive(Debug, Clone)]
pub struct BoundedWeightTable {
    buckets: Vec<Vec<u32>>, // per column, m buckets of summed frequencies
    column_avg: Vec<f64>,
    relation_size: u64,
    seed: u64,
    m: usize,
}

impl BoundedWeightTable {
    pub fn new(freqs: &TokenFrequencies, m: usize, seed: u64) -> BoundedWeightTable {
        assert!(m > 0);
        let column_avg = column_averages(freqs);
        let mut buckets = vec![vec![0u32; m]; freqs.arity()];
        for (col, token, f) in freqs.iter() {
            let b = (hash_str(seed, token) % m as u64) as usize;
            buckets[col][b] = buckets[col][b].saturating_add(f);
        }
        BoundedWeightTable {
            buckets,
            column_avg,
            relation_size: freqs.relation_size,
            seed,
            m,
        }
    }

    /// Cross-check this bounded cache against the frequencies it was built
    /// from: every bucket must hold exactly the sum of its colliding tokens'
    /// frequencies, and the unseen-token averages must match the direct
    /// per-column `avg(IDF)` computation.
    pub fn check_consistent_with(&self, freqs: &TokenFrequencies) -> Result<()> {
        if self.relation_size != freqs.relation_size() {
            return Err(CoreError::BadState(format!(
                "bounded weight table thinks |R| = {} but the relation holds \
                 {} tuples",
                self.relation_size,
                freqs.relation_size()
            )));
        }
        if self.buckets.len() != freqs.arity() || self.column_avg.len() != freqs.arity() {
            return Err(CoreError::BadState(format!(
                "bounded weight table covers {} columns, observed frequencies \
                 {}",
                self.buckets.len(),
                freqs.arity()
            )));
        }
        let mut expected = vec![vec![0u32; self.m]; freqs.arity()];
        for (col, token, f) in freqs.iter() {
            let b = (hash_str(self.seed, token) % self.m as u64) as usize;
            expected[col][b] = expected[col][b].saturating_add(f);
        }
        if expected != self.buckets {
            for (col, (want, have)) in expected.iter().zip(&self.buckets).enumerate() {
                for (b, (w, h)) in want.iter().zip(have).enumerate() {
                    if w != h {
                        return Err(CoreError::BadState(format!(
                            "bounded weight table bucket {b} of column {col} \
                             holds {h}, expected {w} from the observed \
                             frequencies"
                        )));
                    }
                }
            }
        }
        let averages = column_averages(freqs);
        for (col, &want) in averages.iter().enumerate() {
            if (self.column_avg[col] - want).abs() > 1e-9 {
                return Err(CoreError::BadState(format!(
                    "bounded weight table unseen-token average for column \
                     {col} is {}, expected {want}",
                    self.column_avg[col]
                )));
            }
        }
        Ok(())
    }
}

impl WeightProvider for BoundedWeightTable {
    fn weight(&self, col: usize, token: &str) -> f64 {
        let b = (hash_str(self.seed, token) % self.m as u64) as usize;
        match self.buckets[col][b] {
            0 => self.column_avg[col],
            f => idf(self.relation_size, f),
        }
    }

    fn relation_size(&self) -> u64 {
        self.relation_size
    }
}

/// All tokens weigh 1.0 — the weight regime of the paper's worked examples
/// ("assuming unit weights on all tokens", §3.1). Useful in tests and when
/// demonstrating the similarity function in isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitWeights;

impl WeightProvider for UnitWeights {
    fn weight(&self, _col: usize, _token: &str) -> f64 {
        1.0
    }

    fn relation_size(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use fm_text::Tokenizer;

    fn observe_all(rows: &[&[&str]]) -> TokenFrequencies {
        let tokenizer = Tokenizer::new();
        let mut freqs = TokenFrequencies::new(rows[0].len());
        for row in rows {
            freqs.observe(&Record::new(row).tokenize(&tokenizer));
        }
        freqs
    }

    /// The paper's Table 1 reference relation.
    fn table1() -> TokenFrequencies {
        observe_all(&[
            &["Boeing Company", "Seattle", "WA", "98004"],
            &["Bon Corporation", "Seattle", "WA", "98014"],
            &["Companions", "Seattle", "WA", "98024"],
        ])
    }

    #[test]
    fn tables_do_not_depend_on_insertion_or_hash_order() {
        // 400 tokens with frequencies 1..=23, entered front to back and
        // back to front into maps that hash with different keys: a sum in
        // iteration order would differ in its last bits.
        let entries: Vec<(String, u32)> = (0..400u32)
            .map(|i| (format!("t{i}"), 1 + i * 7 % 23))
            .collect();
        let fill = |order: &mut dyn Iterator<Item = &(String, u32)>| {
            let mut freqs = TokenFrequencies::new(1);
            freqs.set_relation_size(1000);
            for (token, f) in order {
                freqs.set(0, token, *f);
            }
            freqs
        };
        let forward = fill(&mut entries.iter());
        let backward = fill(&mut entries.iter().rev());
        let (a, mut b) = (
            WeightTable::new(forward.clone()),
            WeightTable::new(backward.clone()),
        );
        assert_eq!(a.column_average(0).to_bits(), b.column_average(0).to_bits());
        b.refresh();
        assert_eq!(
            a.weight(0, "unseen").to_bits(),
            b.weight(0, "unseen").to_bits()
        );
        let (a, b) = (
            HashedWeightTable::new(&forward, 7),
            HashedWeightTable::new(&backward, 7),
        );
        assert_eq!(
            a.weight(0, "unseen").to_bits(),
            b.weight(0, "unseen").to_bits()
        );
    }

    #[test]
    fn frequency_counts() {
        let f = table1();
        assert_eq!(f.relation_size(), 3);
        assert_eq!(f.freq(0, "boeing"), 1);
        assert_eq!(f.freq(1, "seattle"), 3);
        assert_eq!(f.freq(2, "wa"), 3);
        assert_eq!(f.freq(0, "seattle"), 0); // column property separates
        assert_eq!(f.freq(0, "unknown"), 0);
    }

    #[test]
    fn duplicate_tokens_in_one_tuple_count_once() {
        let f = observe_all(&[&["new new york", "x"]]);
        assert_eq!(f.freq(0, "new"), 1);
    }

    #[test]
    fn idf_ordering_frequent_tokens_weigh_less() {
        let w = WeightTable::new(table1());
        // 'seattle' appears in all 3 tuples → weight 0; 'boeing' in 1 →
        // ln 3 ≈ 1.0986.
        assert!((w.weight(1, "seattle") - 0.0).abs() < 1e-12);
        assert!((w.weight(0, "boeing") - 3.0f64.ln()).abs() < 1e-12);
        assert!(w.weight(0, "boeing") > w.weight(1, "seattle"));
    }

    #[test]
    fn unseen_token_gets_column_average() {
        let w = WeightTable::new(table1());
        // Column 0 tokens: boeing(1), company(1), bon(1), corporation(1),
        // companions(1) — all IDF ln(3). Average = ln 3.
        let avg = w.column_average(0);
        assert!((avg - 3.0f64.ln()).abs() < 1e-12);
        assert_eq!(w.weight(0, "beoing"), avg);
        // Zip column: each zip unique → avg = ln 3 too; state column: wa in
        // all → avg = 0.
        assert!((w.weight(2, "xx") - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_column_average_is_neutral() {
        let tokenizer = Tokenizer::new();
        let mut f = TokenFrequencies::new(2);
        f.observe(&Record::from_options(vec![Some("a".into()), None]).tokenize(&tokenizer));
        let w = WeightTable::new(f);
        assert_eq!(w.weight(1, "anything"), 1.0);
    }

    #[test]
    fn weight_is_never_negative() {
        // freq > |R| can only happen transiently; clamp keeps weights >= 0.
        let mut f = TokenFrequencies::new(1);
        f.set(0, "t", 5);
        f.set_relation_size(3);
        let w = WeightTable::new(f);
        assert!(w.weight(0, "t") >= 0.0);
    }

    #[test]
    fn setting_zero_frequency_removes_the_token() {
        let mut f = table1();
        f.set(0, "boeing", 0);
        assert_eq!(f.freq(0, "boeing"), 0);
        // The averages stay well-defined (no zero-frequency entries).
        let w = WeightTable::new(f);
        assert!(w.column_average(0).is_finite());
        // 'boeing' now weighs like any unseen token.
        assert_eq!(w.weight(0, "boeing"), w.column_average(0));
    }

    #[test]
    fn refresh_after_mutation() {
        let mut w = WeightTable::new(table1());
        let before = w.weight(0, "unseen-token");
        // Add many occurrences of a frequent token; average drops.
        w.frequencies_mut().set(0, "company", 3);
        w.refresh();
        let after = w.weight(0, "unseen-token");
        assert!(after < before);
    }

    #[test]
    fn incremental_updates_match_full_recomputation() {
        let mut w = WeightTable::new(table1());
        // Apply a pile of maintenance-style changes incrementally.
        let changes: &[(usize, &str, u32)] = &[
            (0, "boeing", 3),
            (0, "newtoken", 2),
            (0, "company", 0), // removal
            (1, "seattle", 7),
            (3, "98004", 2),
            (0, "newtoken", 5), // re-update
        ];
        for &(col, token, f) in changes {
            w.update_freq(col, token, f);
        }
        w.bump_relation_size();
        w.bump_relation_size();
        w.decrement_relation_size();
        // A table built fresh from the same final frequencies must agree.
        let rebuilt = WeightTable::new(w.frequencies().clone());
        for col in 0..4 {
            assert!(
                (w.column_average(col) - rebuilt.column_average(col)).abs() < 1e-9,
                "column {col}: {} vs {}",
                w.column_average(col),
                rebuilt.column_average(col)
            );
        }
        for (col, token) in [
            (0usize, "boeing"),
            (0, "newtoken"),
            (0, "unseen"),
            (1, "seattle"),
        ] {
            assert!((w.weight(col, token) - rebuilt.weight(col, token)).abs() < 1e-9);
        }
    }

    #[test]
    fn refresh_restores_sums_after_direct_mutation() {
        let mut w = WeightTable::new(table1());
        w.frequencies_mut().set(0, "boeing", 2);
        w.refresh();
        let rebuilt = WeightTable::new(w.frequencies().clone());
        assert!((w.column_average(0) - rebuilt.column_average(0)).abs() < 1e-12);
    }

    #[test]
    fn hashed_table_agrees_with_exact() {
        let freqs = table1();
        let exact = WeightTable::new(freqs.clone());
        let hashed = HashedWeightTable::new(&freqs, 42);
        for (col, token) in [
            (0usize, "boeing"),
            (0, "corporation"),
            (1, "seattle"),
            (2, "wa"),
            (3, "98004"),
            (0, "unseen"),
        ] {
            assert!(
                (exact.weight(col, token) - hashed.weight(col, token)).abs() < 1e-12,
                "mismatch for {token}"
            );
        }
        assert_eq!(exact.relation_size(), hashed.relation_size());
    }

    #[test]
    fn bounded_table_with_ample_buckets_agrees() {
        let freqs = table1();
        let exact = WeightTable::new(freqs.clone());
        let bounded = BoundedWeightTable::new(&freqs, 1 << 16, 42);
        for (col, token) in [(0usize, "boeing"), (1, "seattle"), (3, "98014")] {
            assert!((exact.weight(col, token) - bounded.weight(col, token)).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_table_with_one_bucket_collapses_everything() {
        let freqs = table1();
        let bounded = BoundedWeightTable::new(&freqs, 1, 42);
        // All 5 name tokens collapse into one bucket of total frequency 5 >
        // |R| = 3 → clamped weight 0.
        assert_eq!(bounded.weight(0, "boeing"), 0.0);
    }

    #[test]
    fn check_invariants_accepts_maintained_table() {
        let mut w = WeightTable::new(table1());
        w.check_invariants().unwrap();
        // Incremental maintenance keeps it valid.
        w.bump_relation_size();
        w.update_freq(0, "boeing", 2);
        w.update_freq(0, "newtoken", 1);
        w.update_freq(0, "company", 0);
        w.check_invariants().unwrap();
        let snapshot = w.frequencies().clone();
        w.check_consistent_with(&snapshot).unwrap();
    }

    #[test]
    fn check_invariants_detects_drifted_running_sum() {
        let mut w = WeightTable::new(table1());
        // Direct edit without refresh(): the running sums go stale.
        w.frequencies_mut().set(0, "boeing", 3);
        let err = w.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("running sum") && err.contains("refresh"),
            "got: {err}"
        );
        w.refresh();
        w.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_detects_zero_frequency_entry() {
        let mut w = WeightTable::new(table1());
        w.freqs.per_column[0].insert("ghost".into(), 0);
        let err = w.check_invariants().unwrap_err().to_string();
        assert!(err.contains("ghost") && err.contains("zero"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_overcounted_frequency() {
        let mut w = WeightTable::new(table1());
        w.update_freq(1, "seattle", 99); // |R| is only 3
        let err = w.check_invariants().unwrap_err().to_string();
        assert!(err.contains("exceeds relation size"), "got: {err}");
    }

    #[test]
    fn check_consistent_with_detects_divergence() {
        let w = WeightTable::new(table1());
        let mut observed = table1();
        observed.set(0, "boeing", 2);
        let err = w.check_consistent_with(&observed).unwrap_err().to_string();
        assert!(err.contains("boeing"), "got: {err}");
        // A token the table tracks but the relation lost.
        let mut observed = table1();
        observed.set(0, "companions", 0);
        let err = w.check_consistent_with(&observed).unwrap_err().to_string();
        assert!(err.contains("distinct"), "got: {err}");
    }

    #[test]
    fn bounded_check_detects_tampered_bucket() {
        let freqs = table1();
        let mut bounded = BoundedWeightTable::new(&freqs, 64, 42);
        bounded.check_consistent_with(&freqs).unwrap();
        let tampered = bounded.buckets[0].iter().position(|&f| f > 0).unwrap();
        bounded.buckets[0][tampered] += 1;
        let err = bounded
            .check_consistent_with(&freqs)
            .unwrap_err()
            .to_string();
        assert!(err.contains("bucket"), "got: {err}");
    }

    #[test]
    fn iter_and_distinct_counts() {
        let f = table1();
        // name: boeing, company, bon, corporation, companions = 5
        // city: seattle = 1; state: wa = 1; zip: 3 → total 10.
        assert_eq!(f.distinct_tokens(), 10);
        assert_eq!(f.iter().count(), 10);
        let total: u32 = f.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 5 + 3 + 3 + 3);
    }
}
