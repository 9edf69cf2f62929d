//! The reference score table: a `HashMap` that is collected and fully
//! sorted whenever anyone asks for an order — what the query pipeline ran
//! on before [`ScoreTable`] replaced it, kept as the oracle the
//! incremental table and the pipeline built on it are tested against.

use std::collections::HashMap;

use crate::query::scores::TidScores;

#[derive(Debug, Default)]
pub(crate) struct OracleTable {
    scores: HashMap<u32, f64>,
    k: usize,
    processed: u64,
    /// `top()` hands out a slice, so the sorted prefix is refreshed after
    /// every absorb.
    top: Vec<(u32, f64)>,
    /// The full ranking, reversed (best last) so `pop_best` is `Vec::pop`.
    ranked: Vec<(u32, f64)>,
}

impl OracleTable {
    /// Scored tids in decreasing `(score, tid asc)` order.
    fn sorted(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self.scores.iter().map(|(&t, &s)| (t, s)).collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl TidScores for OracleTable {
    fn begin(&mut self, k: usize) {
        *self = OracleTable {
            k,
            ..OracleTable::default()
        };
    }

    fn absorb(&mut self, tids: impl Iterator<Item = u32>, weight: f64, admit_new: bool) {
        for tid in tids {
            match self.scores.get_mut(&tid) {
                Some(s) => {
                    *s += weight;
                    self.processed += 1;
                }
                None if admit_new => {
                    self.scores.insert(tid, weight);
                    self.processed += 1;
                }
                None => {}
            }
        }
        self.top = self.sorted();
        self.top.truncate(self.k + 1);
    }

    fn len(&self) -> usize {
        self.scores.len()
    }

    fn tids_processed(&self) -> u64 {
        self.processed
    }

    fn top(&self) -> &[(u32, f64)] {
        &self.top
    }

    fn rank(&mut self) {
        self.ranked = self.sorted();
        self.ranked.reverse();
    }

    fn pop_best(&mut self) -> Option<(u32, f64)> {
        self.ranked.pop()
    }

    fn remaining(&self) -> usize {
        self.ranked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::scores::ScoreTable;
    use proptest::prelude::*;

    fn bits(entries: &[(u32, f64)]) -> Vec<(u32, u64)> {
        entries.iter().map(|&(t, s)| (t, s.to_bits())).collect()
    }

    fn drain(table: &mut impl TidScores) -> Vec<(u32, u64)> {
        table.rank();
        let mut out = Vec::new();
        while let Some((tid, score)) = table.pop_best() {
            out.push((tid, score.to_bits()));
            assert_eq!(table.remaining() + out.len(), table.len());
        }
        out
    }

    #[test]
    fn absorb_rank_and_counters() {
        let mut table = ScoreTable::default();
        table.begin(1);
        table.absorb([1, 2, 3].into_iter(), 1.0, true);
        table.absorb([2, 3].into_iter(), 0.5, true);
        table.absorb([3, 4].into_iter(), 0.25, false); // 4 not admitted
        assert_eq!(table.len(), 3);
        assert_eq!(table.tids_processed(), 6); // 3 inserts + 2 bumps + 1 bump
        assert_eq!(table.top(), &[(3, 1.75), (2, 1.5)]);
        table.rank();
        assert_eq!(table.remaining(), 3);
        assert_eq!(table.pop_best(), Some((3, 1.75)));
        assert_eq!(table.pop_best(), Some((2, 1.5)));
        assert_eq!(table.pop_best(), Some((1, 1.0)));
        assert_eq!(table.pop_best(), None);
    }

    #[test]
    fn ties_break_by_ascending_tid() {
        let mut table = ScoreTable::default();
        table.begin(2);
        table.absorb([9, 4, 7, 5].into_iter(), 1.0, true);
        assert_eq!(table.top(), &[(4, 1.0), (5, 1.0), (7, 1.0)]);
        assert_eq!(
            drain(&mut table),
            bits(&[(4, 1.0), (5, 1.0), (7, 1.0), (9, 1.0)])
        );
    }

    #[test]
    fn top_is_short_while_few_tids_are_scored() {
        let mut table = ScoreTable::default();
        table.begin(3);
        assert!(table.top().is_empty());
        table.absorb([1].into_iter(), 2.0, true);
        assert_eq!(table.top(), &[(1, 2.0)]);
    }

    #[test]
    fn begin_forgets_the_previous_query_and_growth_keeps_every_score() {
        let mut table = ScoreTable::default();
        table.begin(1);
        // The list crosses into a second page mid-absorb.
        let tids = || (0..5000).chain(65_000..70_000);
        table.absorb(tids(), 1.0, true);
        table.absorb(tids().step_by(7), 0.5, true);
        assert_eq!(table.len(), 10_000);
        assert_eq!(table.top(), &[(0, 1.5), (7, 1.5)]);
        let mut oracle = OracleTable::default();
        oracle.begin(1);
        oracle.absorb(tids(), 1.0, true);
        oracle.absorb(tids().step_by(7), 0.5, true);
        assert_eq!(drain(&mut table), drain(&mut oracle));

        // The same storage, next query: nothing of the 10 000 shows.
        table.begin(1);
        assert_eq!((table.len(), table.tids_processed()), (0, 0));
        assert!(table.top().is_empty());
        table.absorb([3, 69_999].into_iter(), 0.25, false);
        assert_eq!(table.len(), 0, "leftover cells must read as empty");
        table.absorb([3, 69_999].into_iter(), 0.25, true);
        assert_eq!(drain(&mut table), bits(&[(3, 0.25), (69_999, 0.25)]));
    }

    /// Each step's `top()` and counters, then the drain.
    type Run = (Vec<(Vec<(u32, u64)>, usize, u64)>, Vec<(u32, u64)>);

    fn run(table: &mut impl TidScores, steps: &[(&[u32], f64, bool)]) -> Run {
        table.begin(2);
        let mut seen = Vec::new();
        for &(tids, weight, admit_new) in steps {
            table.absorb(tids.iter().copied(), weight, admit_new);
            seen.push((bits(table.top()), table.len(), table.tids_processed()));
        }
        (seen, drain(table))
    }

    #[test]
    fn storage_follows_the_tids_scored_not_the_candidate_count() {
        let page = 1 << 16;
        let mut table = ScoreTable::default();
        // 40 000 candidates below 2^16 fit one page; two, one far above,
        // add that one's page and none between; nothing is given back.
        run(&mut table, &[(&(0..40_000).collect::<Vec<_>>(), 1.0, true)]);
        assert_eq!(table.capacity(), page);
        run(&mut table, &[(&[7, 5 << 16], 1.0, true)]);
        assert_eq!(table.capacity(), 2 * page);
        // The warm table scores a low-tid query exactly as a fresh one.
        let low: &[(&[u32], f64, bool)] = &[(&[1, 2, 3], 1.0, true), (&[2, 3, 7], 0.5, false)];
        assert_eq!(run(&mut table, low), run(&mut ScoreTable::default(), low));
        assert_eq!(table.capacity(), 2 * page);
    }

    #[test]
    fn queries_on_both_sides_of_the_stamp_wrap_read_as_on_a_fresh_table() {
        // The first query runs at stamp 1 — the stamp the wrap hands out
        // next — and the second at `u32::MAX`; the third begins with the
        // wrap. Its non-admitting step would bump any leftover (or any
        // never-written cell, stamped 0) that read as live.
        let queries: [&[(&[u32], f64, bool)]; 3] = [
            &[(&[1, 4, 9, 70_000], 1.0, true), (&[4, 9], 0.5, true)],
            &[(&[2, 4, 8], 0.25, true), (&[1, 9, 70_000], 2.0, false)],
            &[(&[3, 9], 0.5, true), (&[1, 2, 4, 5, 8, 70_000], 1.0, false)],
        ];
        let mut warm = ScoreTable::default();
        let mut got = vec![run(&mut warm, queries[0])];
        warm.set_stamp(u32::MAX - 1);
        got.push(run(&mut warm, queries[1]));
        got.push(run(&mut warm, queries[2]));
        for (steps, got) in queries.iter().zip(got) {
            assert_eq!(got, run(&mut ScoreTable::default(), steps));
        }
    }

    /// One absorb call of a generated scenario.
    #[derive(Debug, Clone)]
    struct Step {
        tids: Vec<u32>,
        weight: f64,
        admit_new: bool,
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            // Sorted posting lists over a small tid universe, so lists
            // overlap heavily and scores collide — plus a few tids on the
            // next pages, so pages are added mid-absorb beside live scores.
            proptest::collection::btree_set(
                prop_oneof![12 => 0u32..60, 2 => 65_535u32..65_537, 1 => Just(131_075u32)],
                0..25,
            ),
            // Few distinct weights (0.0 included): exact ties are common.
            prop_oneof![Just(0.0), Just(0.25), Just(0.5), Just(1.0), 0.0f64..2.0],
            any::<bool>(),
        )
            .prop_map(|(tids, weight, admit_new)| Step {
                tids: tids.into_iter().collect(),
                weight,
                admit_new,
            })
    }

    proptest! {
        /// The incremental table is indistinguishable from collect-and-
        /// sort: the same top-(K+1) after every absorb, the same counters,
        /// and the same full drain order at the end — bit for bit, for
        /// K ∈ {1, 2, 5, 17}, on one reused table.
        #[test]
        fn incremental_table_equals_the_sorting_oracle(
            queries in proptest::collection::vec(
                (prop_oneof![Just(1usize), Just(2), Just(5), Just(17)],
                 proptest::collection::vec(step(), 0..12)),
                1..4,
            )
        ) {
            let mut table = ScoreTable::default();
            for (k, steps) in &queries {
                let mut oracle = OracleTable::default();
                table.begin(*k);
                oracle.begin(*k);
                for s in steps {
                    table.absorb(s.tids.iter().copied(), s.weight, s.admit_new);
                    oracle.absorb(s.tids.iter().copied(), s.weight, s.admit_new);
                    prop_assert_eq!(bits(table.top()), bits(oracle.top()));
                    prop_assert_eq!(table.len(), oracle.len());
                    prop_assert_eq!(table.tids_processed(), oracle.tids_processed());
                }
                prop_assert_eq!(drain(&mut table), drain(&mut oracle));
            }
        }
    }
}
