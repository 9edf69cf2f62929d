//! ETI construction (paper §4.2).
//!
//! The paper builds the ETI through a temporary **pre-ETI** relation with
//! schema `[QGram, Coordinate, Column, Tid]` — one row per signature
//! coordinate of every token of every reference tuple — because "the
//! combined size of all tid-lists is usually larger than the amount of
//! available main memory". The pre-ETI is then sorted ("the ETI-query …
//! ORDER BY QGram, Coordinate, Column, Tid") and the sorted stream is
//! grouped into ETI rows.
//!
//! Here the pre-ETI rows are pushed straight into an
//! [`fm_store::ExternalSorter`] (row bytes = order-preserving key encoding
//! of `(gram, coordinate, column)` followed by the big-endian tid, so
//! lexicographic record order *is* the ETI-query's ORDER BY), and
//! [`EtiBuilder::finish`] hands the merge output to the posting index, which
//! groups it on the key prefix and fills the B+-tree one row at a time.

use fm_store::keycode;
use fm_store::ExternalSorter;
use fm_text::minhash::MinHasher;

use crate::config::SignatureScheme;
use crate::error::Result;
use crate::eti::{token_signature, Eti};
use crate::record::TokenizedRecord;

/// Build-phase counters (reported by the Figure-7 experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Reference tuples scanned.
    pub reference_tuples: u64,
    /// Pre-ETI rows written (signature coordinates emitted).
    pub pre_eti_records: u64,
    /// Sort runs spilled to disk.
    pub spilled_runs: usize,
    /// Logical ETI rows (distinct `(gram, coordinate, column)` groups).
    pub eti_groups: u64,
    /// Groups classified as stop q-grams.
    pub stop_qgrams: u64,
}

/// Encode one pre-ETI row: the row's key prefix, then the tid.
fn pre_eti_record(gram: &str, coordinate: u8, column: u8, tid: u32) -> Vec<u8> {
    let mut rec = Eti::prefix(gram, coordinate, column);
    keycode::encode_u32(&mut rec, tid); // big-endian: ties ordered by tid
    rec
}

/// Incremental ETI builder: feed tokenized reference tuples, then
/// [`EtiBuilder::finish`] into the target index.
pub struct EtiBuilder {
    sorter: ExternalSorter,
    minhasher: MinHasher,
    scheme: SignatureScheme,
    stats: BuildStats,
}

impl EtiBuilder {
    /// A builder with the given signature parameters and sort memory
    /// budget in bytes.
    pub fn new(
        minhasher: MinHasher,
        scheme: SignatureScheme,
        sort_budget: usize,
    ) -> Result<EtiBuilder> {
        Ok(EtiBuilder {
            sorter: ExternalSorter::with_budget(sort_budget)?,
            minhasher,
            scheme,
            stats: BuildStats::default(),
        })
    }

    /// Emit the pre-ETI rows of one reference tuple.
    pub fn observe(&mut self, tid: u32, tuple: &TokenizedRecord) -> Result<()> {
        self.stats.reference_tuples += 1;
        for (col, token) in tuple.iter_tokens() {
            for entry in token_signature(token, &self.minhasher, self.scheme) {
                self.sorter.push(&pre_eti_record(
                    &entry.gram,
                    entry.coordinate,
                    col as u8,
                    tid,
                ))?;
                self.stats.pre_eti_records += 1;
            }
        }
        Ok(())
    }

    /// Sort, group, and bulk-load every ETI row into `eti`.
    ///
    /// The merge output arrives in exactly the clustered-index key order
    /// (gram, coordinate, column, tid), so the physical entries can be
    /// streamed straight into [`fm_store::BTree::bulk_fill`] — leaves packed
    /// to the fill factor, internal levels built bottom-up — without ever
    /// materializing the index in memory.
    pub fn finish(self, eti: &Eti) -> Result<BuildStats> {
        let mut stats = self.stats;
        stats.spilled_runs = self.sorter.spilled_runs();
        let sorted = self.sorter.finish()?;
        let _span = crate::tracing::span("group_fill");
        let filled = eti.postings.bulk_fill(sorted)?;
        stats.eti_groups = filled.groups;
        stats.stop_qgrams = filled.stop_groups;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use fm_store::{BTree, BufferPool, MemPager};
    use fm_text::Tokenizer;
    use std::sync::Arc;

    fn make_eti(stop: usize) -> Eti {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        Eti::new(BTree::create(pool).unwrap(), stop)
    }

    fn tok(values: &[&str]) -> TokenizedRecord {
        Record::new(values).tokenize(&Tokenizer::new())
    }

    #[test]
    fn pre_eti_record_round_trip() {
        // A build record is its row's key prefix plus the tid, so the fill
        // can group on the bytes without decoding them.
        let rec = pre_eti_record("oei", 1, 0, 42);
        let (prefix, tid) = rec.split_at(rec.len() - 4);
        assert_eq!(prefix, Eti::prefix("oei", 1, 0));
        assert_eq!(tid, 42u32.to_be_bytes());
    }

    #[test]
    fn pre_eti_record_sort_order_matches_eti_query() {
        // ORDER BY QGram, Coordinate, Column, Tid.
        let records = [
            pre_eti_record("com", 1, 0, 3),
            pre_eti_record("com", 1, 0, 10),
            pre_eti_record("com", 1, 1, 1),
            pre_eti_record("com", 2, 0, 1),
            pre_eti_record("ing", 1, 0, 1),
        ];
        for w in records.windows(2) {
            assert!(w[0] < w[1], "sort order violated");
        }
    }

    #[test]
    fn builds_paper_table_3_structure() {
        // Table 1's reference relation with q=3, H=2 (Q scheme) must produce
        // an ETI where (i) every token's signature coordinates appear with
        // the right tid-lists and (ii) shared tokens accumulate all tids.
        let mh = MinHasher::new(2, 3, 7);
        let mut builder = EtiBuilder::new(mh.clone(), SignatureScheme::QGrams, 1 << 20).unwrap();
        let rows = [
            tok(&["Boeing Company", "Seattle", "WA", "98004"]),
            tok(&["Bon Corporation", "Seattle", "WA", "98014"]),
            tok(&["Companions", "Seattle", "WA", "98024"]),
        ];
        for (i, row) in rows.iter().enumerate() {
            builder.observe(i as u32 + 1, row).unwrap();
        }
        let eti = make_eti(10_000);
        let stats = builder.finish(&eti).unwrap();
        assert_eq!(stats.reference_tuples, 3);
        assert_eq!(stats.stop_qgrams, 0);
        assert!(stats.eti_groups > 0);

        // 'seattle' is in all three tuples (column 1): both of its
        // coordinates list {1, 2, 3}.
        let sig = mh.signature("seattle");
        for (i, gram) in sig.iter().enumerate() {
            let list = eti.lookup(gram, i as u8 + 1, 1).unwrap().unwrap();
            assert_eq!(list.tids, Some(vec![1, 2, 3]), "gram {gram}");
            assert_eq!(list.frequency, 3);
        }
        // 'wa' is short: its signature is itself at coordinate 1.
        let list = eti.lookup("wa", 1, 2).unwrap().unwrap();
        assert_eq!(list.tids, Some(vec![1, 2, 3]));
        // 'boeing' is only in tuple 1 (column 0).
        for (i, gram) in mh.signature("boeing").iter().enumerate() {
            let list = eti.lookup(gram, i as u8 + 1, 0).unwrap().unwrap();
            assert!(list.tids.as_ref().unwrap().contains(&1), "gram {gram}");
        }
    }

    #[test]
    fn qt_scheme_also_indexes_whole_tokens() {
        let mh = MinHasher::new(2, 3, 7);
        let mut builder = EtiBuilder::new(mh, SignatureScheme::QGramsPlusToken, 1 << 20).unwrap();
        builder
            .observe(1, &tok(&["Boeing Company", "Seattle", "WA", "98004"]))
            .unwrap();
        let eti = make_eti(10_000);
        builder.finish(&eti).unwrap();
        // Token rows at coordinate 0.
        let list = eti
            .lookup("boeing", super::super::TOKEN_COORDINATE, 0)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![1]));
        let list = eti
            .lookup("98004", super::super::TOKEN_COORDINATE, 3)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![1]));
    }

    #[test]
    fn spilled_build_equals_in_memory_build() {
        // Force spilling with a tiny sort budget; resulting lookups must
        // match the in-memory build exactly.
        let rows: Vec<TokenizedRecord> = (0..200)
            .map(|i| {
                tok(&[
                    &format!("customer number{} common", i % 37),
                    "city",
                    "st",
                    "12345",
                ])
            })
            .collect();
        let build = |budget: usize| -> Eti {
            let mh = MinHasher::new(2, 3, 7);
            let mut b = EtiBuilder::new(mh, SignatureScheme::QGrams, budget).unwrap();
            for (i, row) in rows.iter().enumerate() {
                b.observe(i as u32 + 1, row).unwrap();
            }
            let eti = make_eti(10_000);
            b.finish(&eti).unwrap();
            eti
        };
        let spilled = build(256);
        let memory = build(64 << 20);
        let mh = MinHasher::new(2, 3, 7);
        for token in ["common", "number3", "city", "st", "12345"] {
            for (i, gram) in mh.signature(token).iter().enumerate() {
                for col in 0..4u8 {
                    assert_eq!(
                        spilled.lookup(gram, i as u8 + 1, col).unwrap(),
                        memory.lookup(gram, i as u8 + 1, col).unwrap(),
                        "mismatch at {token}/{gram}/{col}"
                    );
                }
            }
        }
    }

    #[test]
    fn stop_threshold_applied_during_build() {
        let mh = MinHasher::new(1, 3, 7);
        let mut builder = EtiBuilder::new(mh.clone(), SignatureScheme::QGrams, 1 << 20).unwrap();
        // 'common' appears in 20 tuples; threshold 10 → stop q-gram.
        for tid in 1..=20 {
            builder.observe(tid, &tok(&["common"])).unwrap();
        }
        let eti = make_eti(10);
        let stats = builder.finish(&eti).unwrap();
        assert_eq!(stats.stop_qgrams, 1);
        let gram = &mh.signature("common")[0];
        let list = eti.lookup(gram, 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 20);
        assert_eq!(list.tids, None);
    }

    #[test]
    fn bulk_fill_equals_incremental_appends() {
        // 450 tuples share "common" (rows of two chunks); every third also
        // carries a token of its own.
        let rows: Vec<TokenizedRecord> = (0..450)
            .map(|i| tok(&[&format!("common unit{}", i / 3), "city"]))
            .collect();
        let mh = MinHasher::new(2, 3, 7);
        let bulk = make_eti(10_000);
        let mut b = EtiBuilder::new(mh.clone(), SignatureScheme::QGramsPlusToken, 1 << 20).unwrap();
        let incremental = make_eti(10_000);
        for (i, row) in rows.iter().enumerate() {
            let tid = i as u32 + 1;
            b.observe(tid, row).unwrap();
            for (col, token) in row.iter_tokens() {
                for e in token_signature(token, &mh, SignatureScheme::QGramsPlusToken) {
                    incremental
                        .append_tid(&e.gram, e.coordinate, col as u8, tid)
                        .unwrap();
                }
            }
        }
        b.finish(&bulk).unwrap();
        let rows = |index: &crate::postings::PostingIndex| {
            let mut rows: Vec<Vec<u8>> = index
                .entries()
                .into_iter()
                .map(|(key, _)| key[..key.len() - 4].to_vec())
                .collect();
            rows.dedup();
            rows
        };
        let (bulk_rows, incremental_rows) = (rows(&bulk.postings), rows(&incremental.postings));
        assert_eq!(bulk_rows, incremental_rows);
        assert!(bulk_rows.len() > 10);
        for row in bulk_rows {
            assert_eq!(
                bulk.postings.lookup(&row).unwrap(),
                incremental.postings.lookup(&row).unwrap()
            );
        }
        let common = bulk.lookup("common", super::super::TOKEN_COORDINATE, 0);
        assert_eq!(common.unwrap().unwrap().frequency, 450);
    }

    #[test]
    fn duplicate_tuple_tokens_dedupe_in_tid_list() {
        // Two distinct tokens of one tuple can share a min-hash coordinate
        // value; the tid must appear once.
        let mh = MinHasher::new(1, 3, 7);
        let mut builder = EtiBuilder::new(mh, SignatureScheme::QGramsPlusToken, 1 << 20).unwrap();
        // Same token in two *columns* is fine (distinct rows), but we also
        // check a tuple observed once never double-lists its tid.
        builder.observe(5, &tok(&["aaa aaa-x"])).unwrap();
        let eti = make_eti(10_000);
        builder.finish(&eti).unwrap();
        let list = eti
            .lookup("aaa", super::super::TOKEN_COORDINATE, 0)
            .unwrap()
            .unwrap();
        assert_eq!(list.tids, Some(vec![5]));
    }
}
