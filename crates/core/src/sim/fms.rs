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

use fm_text::{EditBuffer, TokenPrint, Tokenizer};

use crate::config::Config;
use crate::record::{Record, TokenizedRecord};
use crate::weights::WeightProvider;

/// Slack, in similarity units, between what [`Similarity::fms_at_least`]'s
/// bounds prove and what they are allowed to reject. The bounds and the
/// exact cost add the same non-negative terms in different orders, so
/// their rounding errors differ by a few ulps of `w(u)` — about 10⁻¹⁵ of
/// it; demanding 10⁻⁹ more than `1 − floor` keeps a candidate whose exact
/// `fms` rounds to `floor` or above from ever being rejected.
const BOUND_SLACK: f64 = 1e-9;

/// Computes `fms` and transformation costs. Holds scratch buffers, so one
/// instance per thread; construction is cheap.
pub struct Similarity<'a, W: WeightProvider + ?Sized> {
    weights: &'a W,
    config: &'a Config,
    edit: EditBuffer,
    dp: Vec<f64>,
    /// Reference-token weights of the column being costed.
    wb: Vec<f64>,
    /// Per column: the cost of the tuple being compared — a lower bound
    /// while [`Similarity::fms_at_least`] is still deciding, the exact DP
    /// result once the column has been costed.
    col_cost: Vec<f64>,
    /// Tier-1 scratch of [`Similarity::fms_at_least`].
    nearest: Vec<f64>,
    evaluations: u64,
}

/// The input side of `fms(u, ·)`, computed once per input tuple: `w(u)`,
/// every input token's weight and fingerprint, and the order in which
/// columns are worth costing. Verifying a query's candidates compares one
/// `u` against dozens of reference tuples; none of this (string-hash
/// lookups into the frequency tables, mostly) changes between them.
#[derive(Debug, Clone)]
pub struct PreparedInput<'u> {
    u: &'u TokenizedRecord,
    wu: f64,
    /// Token weights, all columns concatenated in column order.
    wa: Vec<f64>,
    /// Token fingerprints, aligned with `wa`.
    prints: Vec<TokenPrint>,
    /// Column `col`'s tokens are `offsets[col]..offsets[col + 1]` of `wa`.
    offsets: Vec<usize>,
    /// Columns by decreasing total token weight: the order that moves a
    /// running cost past a budget soonest.
    heaviest_first: Vec<usize>,
}

impl PreparedInput<'_> {
    fn column(&self, col: usize) -> std::ops::Range<usize> {
        self.offsets[col]..self.offsets[col + 1]
    }
}

impl<'a, W: WeightProvider + ?Sized> Similarity<'a, W> {
    pub fn new(weights: &'a W, config: &'a Config) -> Self {
        Similarity {
            weights,
            config,
            edit: EditBuffer::new(),
            dp: Vec::new(),
            wb: Vec::new(),
            col_cost: Vec::new(),
            nearest: Vec::new(),
            evaluations: 0,
        }
    }

    /// Effective weight of `token` in `col`: IDF (or column average) times
    /// the §5.2 column factor.
    fn w(&self, col: usize, token: &str) -> f64 {
        self.config.column_factor(col) * self.weights.weight(col, token)
    }

    /// How many tuples this instance has run the token DP against — every
    /// [`Similarity::fms`]-family call except the
    /// [`Similarity::fms_at_least`] ones rejected from the raw row alone.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Weigh the input tuple once, for any number of
    /// [`Similarity::fms_prepared`] calls against it.
    pub fn prepare<'u>(&self, u: &'u TokenizedRecord) -> PreparedInput<'u> {
        let mut wa = Vec::with_capacity(u.token_count());
        let mut offsets = Vec::with_capacity(u.arity() + 1);
        for col in 0..u.arity() {
            offsets.push(wa.len());
            wa.extend(u.column(col).iter().map(|t| self.w(col, t)));
        }
        offsets.push(wa.len());
        let column_weight = |col: usize| wa[offsets[col]..offsets[col + 1]].iter().sum::<f64>();
        let mut heaviest_first: Vec<usize> = (0..u.arity()).collect();
        heaviest_first.sort_by(|&a, &b| column_weight(b).total_cmp(&column_weight(a)));
        PreparedInput {
            u,
            // `w(u)`: the token weights added in column-then-token order.
            wu: wa.iter().sum(),
            prints: u.iter_tokens().map(|(_, t)| TokenPrint::of(t)).collect(),
            wa,
            offsets,
            heaviest_first,
        }
    }

    /// Transformation cost `tc(u, v)`: sum of per-column minimum costs.
    pub fn transformation_cost(&mut self, u: &TokenizedRecord, v: &TokenizedRecord) -> f64 {
        assert_eq!(u.arity(), v.arity(), "tuples must share a schema");
        let p = self.prepare(u);
        (0..v.arity())
            .map(|col| self.column_cost(col, u.column(col), &p.wa[p.column(col)], v.column(col)))
            .sum()
    }

    /// `fms` from the per-column costs, added in column order — the one
    /// summation every exact result comes from, whatever order the columns
    /// were costed in.
    fn fms_of_costs(&self, wu: f64) -> f64 {
        let tc: f64 = self.col_cost.iter().sum();
        1.0 - (tc / wu).min(1.0)
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
        assert_eq!(p.u.arity(), v.arity(), "tuples must share a schema");
        if p.wu == 0.0 {
            return if v.token_count() == 0 { 1.0 } else { 0.0 };
        }
        // A token-DP evaluation: counted, and — inside a traced query —
        // timed as an `fms` span.
        self.evaluations += 1;
        let _span = crate::tracing::span("fms");
        self.col_cost.clear();
        for col in 0..v.arity() {
            let cost = self.column_cost(col, p.u.column(col), &p.wa[p.column(col)], v.column(col));
            self.col_cost.push(cost);
        }
        self.fms_of_costs(p.wu)
    }

    /// Exact-or-reject `fms` of the prepared input against the raw
    /// reference tuple `row` (tokenized with `tokenizer`, as the input
    /// was): `Some(f)` is bitwise `fms_prepared`'s result; `None` means
    /// `fms_prepared` would have returned something **below `floor`** —
    /// never something equal to it. A `floor` of 0 or less rejects nothing.
    ///
    /// A tuple is rejected when a lower bound on `tc` exceeds the budget
    /// `(1 − floor)·w(u)` (plus [`BOUND_SLACK`]), in two tiers
    /// (DESIGN.md §4.2):
    ///
    /// 1. from the raw row, before tokenizing it: every input token `t` is
    ///    deleted (`w(t)`) or replaced by some reference token `r` of its
    ///    column (`w(t)·ed(t, r)`), so it costs at least
    ///    `w(t)·min(1, min_r lb(t, r))` with `lb` the fingerprint bound on
    ///    `ed`; insertions and alignment only add to that, and a
    ///    transposition needs both tokens present verbatim, where the bound
    ///    is 0;
    /// 2. for survivors, columns are costed exactly, each result replacing
    ///    that column's tier-1 bound, stopping as soon as exact-so-far plus
    ///    bound-of-the-rest exceeds the budget.
    ///
    /// Both tiers take the columns heaviest first. Requires non-negative
    /// costs: weights are (IDF is clamped at 0), and [`Config::validate`]
    /// rejects a negative transposition constant.
    pub fn fms_at_least(
        &mut self,
        p: &PreparedInput<'_>,
        row: &Record,
        tokenizer: &Tokenizer,
        floor: f64,
    ) -> Option<f64> {
        assert_eq!(p.u.arity(), row.arity(), "tuples must share a schema");
        // `fms` is clamped at 0 and is all-or-nothing when `w(u) = 0`:
        // neither leaves anything a cost bound could rule out.
        if !(floor > 0.0 && p.wu > 0.0) {
            return Some(self.fms_prepared(p, &row.tokenize(tokenizer)));
        }
        let budget = (1.0 - floor + BOUND_SLACK) * p.wu;

        // Tier 1: `col_cost[col]` = the column's lower bound.
        let mut bound = 0.0;
        self.col_cost.clear();
        self.col_cost.resize(row.arity(), 0.0);
        for &col in &p.heaviest_first {
            let prints = &p.prints[p.column(col)];
            // Per input token, the least `ed` bound against any reference
            // token; 1 = "deleted", what it costs when nothing is near.
            let nearest = &mut self.nearest;
            nearest.clear();
            nearest.resize(prints.len(), 1.0);
            if let (Some(text), false) = (row.get(col), prints.is_empty()) {
                tokenizer.for_each_print(text, |r| {
                    for (least, t) in nearest.iter_mut().zip(prints) {
                        *least = least.min(t.ed_lower_bound(&r));
                    }
                });
            }
            let weights = &p.wa[p.column(col)];
            self.col_cost[col] = nearest.iter().zip(weights).map(|(d, w)| d * w).sum();
            bound += self.col_cost[col];
            if bound > budget {
                return None;
            }
        }

        // Tier 2: exact costs replace the bounds, one column at a time.
        let v = row.tokenize(tokenizer);
        self.evaluations += 1;
        let _span = crate::tracing::span("fms");
        let mut exact = 0.0;
        for &col in &p.heaviest_first {
            bound -= self.col_cost[col];
            self.col_cost[col] =
                self.column_cost(col, p.u.column(col), &p.wa[p.column(col)], v.column(col));
            exact += self.col_cost[col];
            if exact + bound > budget {
                return None;
            }
        }
        Some(self.fms_of_costs(p.wu))
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

        /// Columns of 0–4 tokens from a small mixed-case vocabulary (so
        /// adjacent swaps between `u` and `v` happen and the transposition
        /// move fires, and values repeat a token), NULL, or — rarely — a
        /// value with more tokens than any fixed-size scratch would hold.
        fn value() -> impl Strategy<Value = Option<String>> {
            prop_oneof![
                2 => Just(None),
                12 => "(ab|BA|abc|Boeing|beoing|co|İz)(  ?(ab|ba|abc|boeing|Beoing|CO|xyzzy)){0,3}"
                    .prop_map(Some),
                1 => "(ab|ba|co)( (ab|ba|co|abc|boeing)){30,40}".prop_map(Some),
            ]
        }

        fn record() -> impl Strategy<Value = Record> {
            proptest::collection::vec(value(), 3).prop_map(Record::from_options)
        }

        proptest! {
            #[test]
            fn prepared_and_bounded_fms_are_bitwise_the_unprepared_one(
                reference in proptest::collection::vec(record(), 1..12),
                u in record(),
                candidates in proptest::collection::vec(record(), 1..6),
                transposition in any::<bool>(),
                column_weights in any::<bool>(),
                null_input in any::<bool>(),
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
                // Now and then the degenerate `w(u) = 0` input.
                let u = if null_input && u.get(0).is_none() {
                    Record::from_options(vec![None, None, None])
                } else {
                    u
                };
                let ut = u.tokenize(&tokenizer);
                // One Similarity, one prepared input, many candidates: the
                // reused scratch buffers must not leak between calls.
                let mut sim = Similarity::new(&weights, &cfg);
                let prepared = sim.prepare(&ut);
                for v in &candidates {
                    let vt = v.tokenize(&tokenizer);
                    let exact = reference_fms(&weights, &cfg, &ut, &vt);
                    let want = exact.to_bits();
                    prop_assert_eq!(sim.fms_prepared(&prepared, &vt).to_bits(), want);
                    prop_assert_eq!(sim.fms(&ut, &vt).to_bits(), want);
                    // Exact or rejected, and rejected only strictly below
                    // the floor — the exact value itself is a floor that
                    // must accept (an equal similarity with a smaller tid
                    // still has to be ranked), the next float up need not.
                    let next_up = f64::from_bits(want + 1);
                    for floor in [0.0, 0.5, exact, next_up, 1.0] {
                        match sim.fms_at_least(&prepared, v, &tokenizer, floor) {
                            Some(f) => prop_assert_eq!(f.to_bits(), want, "floor {}", floor),
                            None => prop_assert!(exact < floor, "{} rejected at {}", exact, floor),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fms_at_least_rejects_from_the_raw_row_then_from_the_dp() {
        let cfg = config4();
        let tokenizer = Tokenizer::new();
        let mut sim = Similarity::new(&UnitWeights, &cfg);
        let u = tok(&["Beoing Corporation", "Seattle", "WA", "98004"]);
        let prepared = sim.prepare(&u);
        let best = Record::new(&["Boeing Company", "Seattle", "WA", "98004"]);
        let floor = sim.fms_prepared(&prepared, &best.tokenize(&tokenizer));
        assert_eq!(
            sim.fms_at_least(&prepared, &best, &tokenizer, floor),
            Some(floor)
        );
        assert_eq!(sim.evaluations(), 2);

        // Nothing resembles anything: the fingerprints alone rule it out,
        // so the row is neither tokenized nor costed.
        let far = Record::new(&["Bon Inc", "Tacoma", "OR", "11111"]);
        assert_eq!(sim.fms_at_least(&prepared, &far, &tokenizer, floor), None);
        assert_eq!(sim.evaluations(), 2);
        assert!(sim.fms_prepared(&prepared, &far.tokenize(&tokenizer)) < floor);

        // Anagrams fool a character bag, not the DP: costed, then rejected
        // once the first (heaviest) column alone exceeds the budget.
        let anagram = Record::new(&["gniobe noitaroproc", "elttaes", "AW", "40089"]);
        assert_eq!(
            sim.fms_at_least(&prepared, &anagram, &tokenizer, floor),
            None
        );
        assert_eq!(sim.evaluations(), 4);
        // Without a floor the same row is simply evaluated.
        let exact = sim.fms_prepared(&prepared, &anagram.tokenize(&tokenizer));
        assert_eq!(
            sim.fms_at_least(&prepared, &anagram, &tokenizer, 0.0),
            Some(exact)
        );
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
