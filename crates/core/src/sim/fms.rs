//! The fuzzy match similarity function `fms` (paper §3.1).
//!
//! `fms(u, v) = 1 − min(tc(u, v) / w(u), 1)` where the transformation cost
//! `tc` is the minimum total cost of turning the input tuple `u` into the
//! reference tuple `v` column by column using:
//!
//! * **token replacement** `t1 → t2`: `ed(t1, t2) · w(t1, i)`;
//! * **token insertion** of `t` (present in `v`, absent in `u`):
//!   `c_ins · w(t, i)` — deliberately cheaper than deletion because data
//!   entry drops tokens more often than it invents them;
//! * **token deletion** of `t` (present in `u`, absent in `v`): `w(t, i)`;
//! * optionally (§5.3) **token transposition** of adjacent tokens at cost
//!   `g(w(t1), w(t2))`.
//!
//! Per column the minimum-cost operation sequence is the classic edit
//! dynamic program over *token sequences* (the paper cites the
//! Smith–Waterman/Wagner–Fischer recurrence), extended with the
//! transposition move exactly like Damerau's.
//!
//! `fms` is asymmetric by design: we only ever transform dirty inputs into
//! clean reference tuples.

use fm_text::EditBuffer;

use crate::config::Config;
use crate::record::TokenizedRecord;
use crate::weights::WeightProvider;

/// Computes `fms` and transformation costs. Holds scratch buffers, so one
/// instance per thread; construction is cheap.
pub struct Similarity<'a, W: WeightProvider + ?Sized> {
    weights: &'a W,
    config: &'a Config,
    edit: EditBuffer,
    dp: Vec<f64>,
    /// Reference-token weights of the column being costed.
    wb: Vec<f64>,
}

/// The input side of `fms(u, ·)`, computed once per input tuple: `w(u)`
/// and every input token's weight. Verifying a query's candidates compares
/// one `u` against dozens of reference tuples; the input's weights (string-
/// hash lookups into the frequency tables) do not change between them.
#[derive(Debug, Clone)]
pub struct PreparedInput<'u> {
    u: &'u TokenizedRecord,
    wu: f64,
    /// Token weights, all columns concatenated in column order.
    wa: Vec<f64>,
}

impl<'a, W: WeightProvider + ?Sized> Similarity<'a, W> {
    pub fn new(weights: &'a W, config: &'a Config) -> Self {
        Similarity {
            weights,
            config,
            edit: EditBuffer::new(),
            dp: Vec::new(),
            wb: Vec::new(),
        }
    }

    /// Effective weight of `token` in `col`: IDF (or column average) times
    /// the §5.2 column factor.
    fn w(&self, col: usize, token: &str) -> f64 {
        self.config.column_factor(col) * self.weights.weight(col, token)
    }

    /// Total weight `w(u)` of the input tuple's token set.
    pub fn input_weight(&self, u: &TokenizedRecord) -> f64 {
        u.iter_tokens().map(|(col, t)| self.w(col, t)).sum()
    }

    /// Weigh the input tuple once, for any number of
    /// [`Similarity::fms_prepared`] calls against it.
    pub fn prepare<'u>(&self, u: &'u TokenizedRecord) -> PreparedInput<'u> {
        let mut wa = Vec::with_capacity(u.token_count());
        for col in 0..u.arity() {
            wa.extend(u.column(col).iter().map(|t| self.w(col, t)));
        }
        PreparedInput {
            u,
            wu: self.input_weight(u),
            wa,
        }
    }

    /// Transformation cost `tc(u, v)`: sum of per-column minimum costs.
    pub fn transformation_cost(&mut self, u: &TokenizedRecord, v: &TokenizedRecord) -> f64 {
        let prepared = self.prepare(u);
        self.cost_prepared(&prepared, v)
    }

    fn cost_prepared(&mut self, p: &PreparedInput<'_>, v: &TokenizedRecord) -> f64 {
        assert_eq!(p.u.arity(), v.arity(), "tuples must share a schema");
        let mut wa = p.wa.as_slice();
        (0..p.u.arity())
            .map(|col| {
                let a = p.u.column(col);
                let (wa_col, rest) = wa.split_at(a.len());
                wa = rest;
                self.column_cost(col, a, wa_col, v.column(col))
            })
            .sum()
    }

    /// `fms(u, v) = 1 − min(tc(u, v)/w(u), 1)`.
    ///
    /// Degenerate inputs: a token-less `u` (all columns NULL/empty) has
    /// `w(u) = 0`; it matches a token-less `v` perfectly and anything else
    /// not at all.
    pub fn fms(&mut self, u: &TokenizedRecord, v: &TokenizedRecord) -> f64 {
        let prepared = self.prepare(u);
        self.fms_prepared(&prepared, v)
    }

    /// [`Similarity::fms`] against an input weighed once with
    /// [`Similarity::prepare`] (by this instance's weights and config).
    /// Same floating-point operations in the same order, so the result is
    /// bitwise that of `fms`.
    pub fn fms_prepared(&mut self, p: &PreparedInput<'_>, v: &TokenizedRecord) -> f64 {
        if p.wu == 0.0 {
            return if v.token_count() == 0 { 1.0 } else { 0.0 };
        }
        let tc = self.cost_prepared(p, v);
        1.0 - (tc / p.wu).min(1.0)
    }

    /// Minimum transformation cost for one column: edit DP over token
    /// sequences `a` (input, weights `wa`) → `b` (reference).
    fn column_cost(&mut self, col: usize, a: &[String], wa: &[f64], b: &[String]) -> f64 {
        let m = a.len();
        let n = b.len();
        let mut wb = std::mem::take(&mut self.wb);
        wb.clear();
        wb.extend(b.iter().map(|t| self.w(col, t)));
        let cins = self.config.cins;
        let width = n + 1;
        self.dp.clear();
        self.dp.resize((m + 1) * width, 0.0);
        // dp[j * width + k] = cost of transforming a[..j] into b[..k].
        for j in 1..=m {
            self.dp[j * width] = self.dp[(j - 1) * width] + wa[j - 1];
        }
        for k in 1..=n {
            self.dp[k] = self.dp[k - 1] + cins * wb[k - 1];
        }
        for j in 1..=m {
            for k in 1..=n {
                let del = self.dp[(j - 1) * width + k] + wa[j - 1];
                let ins = self.dp[j * width + (k - 1)] + cins * wb[k - 1];
                let rep = self.dp[(j - 1) * width + (k - 1)]
                    + self.edit.normalized(&a[j - 1], &b[k - 1]) * wa[j - 1];
                let mut best = del.min(ins).min(rep);
                if let Some(g) = self.config.transposition {
                    if j >= 2 && k >= 2 && a[j - 1] == b[k - 2] && a[j - 2] == b[k - 1] {
                        let tr = self.dp[(j - 2) * width + (k - 2)] + g.cost(wa[j - 2], wa[j - 1]);
                        best = best.min(tr);
                    }
                }
                self.dp[j * width + k] = best;
            }
        }
        self.wb = wb;
        self.dp[m * width + n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TranspositionCost;
    use crate::record::Record;
    use crate::weights::{TokenFrequencies, UnitWeights, WeightTable};
    use fm_text::Tokenizer;

    fn config4() -> Config {
        Config::default().with_columns(&["name", "city", "state", "zip"])
    }

    fn tok(values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }

    #[test]
    fn identical_tuples_have_similarity_one() {
        let cfg = config4();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let v = tok(&["Boeing Company", "Seattle", "WA", "98004"]);
        assert_eq!(sim.fms(&v, &v), 1.0);
        assert_eq!(sim.transformation_cost(&v, &v), 0.0);
    }

    #[test]
    fn paper_worked_example_i3_r1() {
        // §3.1: u = [Beoing Corporation, Seattle, WA, 98004],
        //       v = [Boeing Company, Seattle, WA, 98004], unit weights.
        // tc = ed(beoing,boeing)·1 + ed(corporation,company)·1
        //    = 1/3 + 7/11 ≈ 0.97 ; w(u) = 5 ; fms ≈ 0.806.
        let cfg = config4();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let u = tok(&["Beoing Corporation", "Seattle", "WA", "98004"]);
        let v = tok(&["Boeing Company", "Seattle", "WA", "98004"]);
        let tc = sim.transformation_cost(&u, &v);
        assert!((tc - (1.0 / 3.0 + 7.0 / 11.0)).abs() < 1e-9, "tc = {tc}");
        let f = sim.fms(&u, &v);
        assert!((f - (1.0 - tc / 5.0)).abs() < 1e-12);
        assert!((f - 0.8061).abs() < 1e-3);
    }

    #[test]
    fn replacement_uses_input_token_weight() {
        // Paper: replacing 'corp' with 'corporation' should be cheaper than
        // replacing 'corporal' with 'corporation' *when weights say so* —
        // with IDF weights a rare input token is expensive to change.
        let tokenizer = Tokenizer::new();
        let mut freqs = TokenFrequencies::new(1);
        for _ in 0..99 {
            freqs.observe(&Record::new(&["corporation"]).tokenize(&tokenizer));
        }
        freqs.observe(&Record::new(&["corporal"]).tokenize(&tokenizer));
        let weights = WeightTable::new(freqs);
        let cfg = Config::default().with_columns(&["name"]);
        let mut sim = Similarity::new(&weights, &cfg);
        // 'corporal' is rare (high weight): replacing it is expensive.
        let u_rare = tok(&["corporal"]);
        // 'corporation' is frequent (low weight): replacing it is cheap.
        let u_freq = tok(&["corporation"]);
        let v = tok(&["corporal corporation"]); // force a replacement + insert
        let _ = v;
        let v2 = tok(&["company"]);
        let cost_rare = sim.transformation_cost(&u_rare, &v2);
        let cost_freq = sim.transformation_cost(&u_freq, &v2);
        assert!(
            cost_rare > cost_freq,
            "replacing rare token should cost more: {cost_rare} vs {cost_freq}"
        );
    }

    #[test]
    fn insertion_cheaper_than_deletion() {
        // §3.1: absence of tokens is not penalized heavily (cins < 1).
        let cfg = Config::default().with_columns(&["name"]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let short = tok(&["boeing"]);
        let long = tok(&["boeing company"]);
        // u shorter than v → insertion of 'company' at cins = 0.5.
        let ins_cost = sim.transformation_cost(&short, &long);
        assert!((ins_cost - 0.5).abs() < 1e-12);
        // u longer than v → deletion of 'company' at full weight.
        let del_cost = sim.transformation_cost(&long, &short);
        assert!((del_cost - 1.0).abs() < 1e-12);
        assert!(ins_cost < del_cost);
    }

    #[test]
    fn null_input_column_costs_only_insertions() {
        let cfg = config4();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let u = Record::from_options(vec![
            Some("Boeing Company".into()),
            Some("Seattle".into()),
            None, // missing state, like the paper's I4
            Some("98004".into()),
        ])
        .tokenize(&Tokenizer::new());
        let v = tok(&["Boeing Company", "Seattle", "WA", "98004"]);
        // Only cost: inserting 'wa' at 0.5.
        assert!((sim.transformation_cost(&u, &v) - 0.5).abs() < 1e-12);
        // w(u) = 4 tokens → fms = 1 - 0.5/4.
        assert!((sim.fms(&u, &v) - (1.0 - 0.5 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_input_edge_cases() {
        let cfg = Config::default().with_columns(&["name"]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let empty = Record::from_options(vec![None]).tokenize(&Tokenizer::new());
        let full = tok(&["boeing"]);
        assert_eq!(sim.fms(&empty, &empty), 1.0);
        assert_eq!(sim.fms(&empty, &full), 0.0);
        // Full input vs empty reference: everything deleted → fms 0.
        assert_eq!(sim.fms(&full, &empty), 0.0);
    }

    #[test]
    fn fms_is_bounded() {
        let cfg = config4();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let pairs = [
            (
                tok(&["Company Beoing", "Seattle", "WA", "98014"]),
                tok(&["Bon Corporation", "Tacoma", "OR", "11111"]),
            ),
            (
                tok(&["a", "b", "c", "d"]),
                tok(&["wwww xxxx yyyy zzzz", "qqqq", "rrrr", "ssss"]),
            ),
        ];
        for (u, v) in pairs {
            let f = sim.fms(&u, &v);
            assert!((0.0..=1.0).contains(&f), "fms {f} out of bounds");
        }
    }

    #[test]
    fn transposition_reduces_cost_when_enabled() {
        let base_cfg = Config::default().with_columns(&["name"]);
        let tr_cfg = base_cfg
            .clone()
            .with_transposition(TranspositionCost::Constant(0.1));
        let u = tok(&["company boeing"]); // I4-style swapped tokens
        let v = tok(&["boeing company"]);
        let cost_without = Similarity::new(&UnitWeights, &base_cfg).transformation_cost(&u, &v);
        let cost_with = Similarity::new(&UnitWeights, &tr_cfg).transformation_cost(&u, &v);
        assert!(
            (cost_with - 0.1).abs() < 1e-12,
            "transposition cost applies"
        );
        assert!(cost_with < cost_without);
    }

    #[test]
    fn transposition_not_used_when_replacement_cheaper() {
        // A flat transposition cost higher than the replacement route must
        // not be chosen.
        let cfg = Config::default()
            .with_columns(&["name"])
            .with_transposition(TranspositionCost::Constant(10.0));
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let u = tok(&["ab ba"]);
        let v = tok(&["ba ab"]);
        let cost = sim.transformation_cost(&u, &v);
        assert!(cost < 10.0);
    }

    #[test]
    fn column_weights_scale_contributions() {
        let plain = config4();
        let weighted = config4().with_column_weights(&[4.0, 1.0, 1.0, 1.0]);
        let u = tok(&["Beoing", "Seattle", "WA", "98004"]);
        let v = tok(&["Boeing", "Seattle", "WA", "98004"]);
        let f_plain = Similarity::new(&UnitWeights, &plain).fms(&u, &v);
        let f_weighted = Similarity::new(&UnitWeights, &weighted).fms(&u, &v);
        // The error is in the name column; up-weighting it lowers fms.
        assert!(f_weighted < f_plain);

        // Error in a *down*-weighted column raises fms.
        let u2 = tok(&["Boeing", "Seatle", "WA", "98004"]);
        let f2_plain = Similarity::new(&UnitWeights, &plain).fms(&u2, &v);
        let f2_weighted = Similarity::new(&UnitWeights, &weighted).fms(&u2, &v);
        assert!(f2_weighted > f2_plain);
    }

    #[test]
    fn order_preserving_replacements_found_by_dp() {
        // Multi-token alignment: (beoing→boeing)(co→company) beats deleting
        // and reinserting.
        let cfg = Config::default().with_columns(&["name"]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let u = tok(&["beoing co"]);
        let v = tok(&["boeing company"]);
        let tc = sim.transformation_cost(&u, &v);
        let expect = 1.0 / 3.0 + fm_text::normalized_edit_distance("co", "company");
        assert!((tc - expect).abs() < 1e-9, "tc {tc} vs expected {expect}");
    }

    /// `fms` as it was computed before the input side was prepared once
    /// per query: every weight looked up afresh, `wa`/`wb` allocated per
    /// column. The prepared path must reproduce it to the bit.
    fn reference_fms<W: WeightProvider + ?Sized>(
        weights: &W,
        config: &Config,
        u: &TokenizedRecord,
        v: &TokenizedRecord,
    ) -> f64 {
        let w = |col: usize, t: &str| config.column_factor(col) * weights.weight(col, t);
        let wu: f64 = u.iter_tokens().map(|(col, t)| w(col, t)).sum();
        if wu == 0.0 {
            return if v.token_count() == 0 { 1.0 } else { 0.0 };
        }
        let mut edit = EditBuffer::new();
        let tc: f64 = (0..u.arity())
            .map(|col| {
                let (a, b) = (u.column(col), v.column(col));
                let (m, n) = (a.len(), b.len());
                let wa: Vec<f64> = a.iter().map(|t| w(col, t)).collect();
                let wb: Vec<f64> = b.iter().map(|t| w(col, t)).collect();
                let cins = config.cins;
                let width = n + 1;
                let mut dp = vec![0.0; (m + 1) * width];
                for j in 1..=m {
                    dp[j * width] = dp[(j - 1) * width] + wa[j - 1];
                }
                for k in 1..=n {
                    dp[k] = dp[k - 1] + cins * wb[k - 1];
                }
                for j in 1..=m {
                    for k in 1..=n {
                        let del = dp[(j - 1) * width + k] + wa[j - 1];
                        let ins = dp[j * width + (k - 1)] + cins * wb[k - 1];
                        let rep = dp[(j - 1) * width + (k - 1)]
                            + edit.normalized(&a[j - 1], &b[k - 1]) * wa[j - 1];
                        let mut best = del.min(ins).min(rep);
                        if let Some(g) = config.transposition {
                            if j >= 2 && k >= 2 && a[j - 1] == b[k - 2] && a[j - 2] == b[k - 1] {
                                best = best.min(
                                    dp[(j - 2) * width + (k - 2)] + g.cost(wa[j - 2], wa[j - 1]),
                                );
                            }
                        }
                        dp[j * width + k] = best;
                    }
                }
                dp[m * width + n]
            })
            .sum();
        1.0 - (tc / wu).min(1.0)
    }

    mod prepared {
        use super::*;
        use proptest::prelude::*;

        /// Columns of 0–4 tokens from a six-word vocabulary (so adjacent
        /// swaps between `u` and `v` happen and the transposition move
        /// fires), or NULL.
        fn value() -> impl Strategy<Value = Option<String>> {
            prop_oneof![
                1 => Just(None),
                6 => "(ab|ba|abc|boeing|beoing|co)( (ab|ba|abc|boeing|beoing|co)){0,3}".prop_map(Some),
            ]
        }

        fn record() -> impl Strategy<Value = Record> {
            proptest::collection::vec(value(), 3).prop_map(Record::from_options)
        }

        proptest! {
            #[test]
            fn prepared_fms_is_bitwise_the_unprepared_one(
                reference in proptest::collection::vec(record(), 1..12),
                u in record(),
                candidates in proptest::collection::vec(record(), 1..6),
                transposition in any::<bool>(),
                column_weights in any::<bool>(),
            ) {
                let tokenizer = Tokenizer::new();
                // IDF weights from a random little relation: seen tokens get
                // distinct weights, unseen ones the column average.
                let mut freqs = TokenFrequencies::new(3);
                for r in &reference {
                    freqs.observe(&r.tokenize(&tokenizer));
                }
                let weights = WeightTable::new(freqs);
                let mut cfg = Config::default().with_columns(&["a", "b", "c"]);
                if transposition {
                    cfg = cfg.with_transposition(TranspositionCost::Constant(0.15));
                }
                if column_weights {
                    cfg = cfg.with_column_weights(&[2.0, 1.0, 0.5]);
                }
                let ut = u.tokenize(&tokenizer);
                // One Similarity, one prepared input, many candidates: the
                // reused `wb`/`dp` buffers must not leak between calls.
                let mut sim = Similarity::new(&weights, &cfg);
                let prepared = sim.prepare(&ut);
                for v in &candidates {
                    let vt = v.tokenize(&tokenizer);
                    let want = reference_fms(&weights, &cfg, &ut, &vt).to_bits();
                    prop_assert_eq!(sim.fms_prepared(&prepared, &vt).to_bits(), want);
                    prop_assert_eq!(sim.fms(&ut, &vt).to_bits(), want);
                }
            }
        }
    }

    #[test]
    fn asymmetry_of_fms() {
        let cfg = Config::default().with_columns(&["name"]);
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let a = tok(&["boeing"]);
        let b = tok(&["boeing company corporation"]);
        // Insertions (a→b) are cheap; deletions (b→a) are expensive, and
        // the normalizer w(u) also differs.
        assert!(sim.fms(&a, &b) != sim.fms(&b, &a));
    }
}
