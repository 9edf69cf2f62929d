//! The Error Tolerant Index (paper §4.2, extended per §5.1).
//!
//! The ETI is "a standard relation" with schema
//! `[QGram, Coordinate, Column, Frequency, Tid-list]` and a clustered index
//! on `[QGram, Coordinate, Column]`. Each row lists the tids of all
//! reference tuples containing a token (in `Column`) whose min-hash
//! signature has `QGram` as its `Coordinate`-th entry. Under the `Q+T`
//! scheme (§5.1), whole tokens are additionally indexed at coordinate 0.
//!
//! Representation here: rows live in a `PostingIndex` under the
//! order-preserving encoding of `(QGram, Coordinate, Column)`. Long
//! tid-lists are **chunked** across consecutive keys so every record stays
//! page-sized (DESIGN.md §4.5); one logical lookup is one short range scan.
//! Q-grams whose tid-list would exceed the stop threshold are *stop
//! q-grams*: their row keeps the frequency but a NULL tid-list, exactly as
//! the paper stores them. This module is only the key-scheme and the token
//! signature; chunking, maintenance and validation are the posting index's.

pub mod build;

use fm_store::keycode;
use fm_store::{BTree, StoreError};
use fm_text::minhash::MinHasher;

use crate::config::SignatureScheme;
use crate::error::Result;
use crate::postings::{Chunk, PostingCheck, PostingIndex, Probed};

pub use crate::postings::TIDS_PER_CHUNK;

/// Coordinate index used for whole-token entries under `Q+T` (§5.1: "say,
/// as the 0th coordinate in the signature"). Min-hash q-gram coordinates
/// are 1-based.
pub const TOKEN_COORDINATE: u8 = 0;

/// Maximum bytes of a token used as an ETI key component. Whole tokens are
/// indexed at coordinate 0 under `Q+T`, and a pathological kilobyte-long
/// "token" would otherwise overflow the page-sized B+-tree entry cap.
/// Clamping is applied identically at build and query time, so lookups stay
/// consistent; two tokens agreeing on their first 200 bytes are treated as
/// the same index key (they still differ under the exact `fms`
/// verification).
pub const MAX_GRAM_BYTES: usize = 200;

/// Clamp a gram/token to [`MAX_GRAM_BYTES`] on a character boundary.
fn clamp_gram(s: String) -> String {
    if s.len() <= MAX_GRAM_BYTES {
        return s;
    }
    let mut end = MAX_GRAM_BYTES;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let mut s = s;
    s.truncate(end);
    s
}

/// One coordinate of a token's index signature: which ETI rows this token
/// contributes to / probes, and what fraction of the token's weight rides
/// on the coordinate at query time.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureEntry {
    pub coordinate: u8,
    pub gram: String,
    /// Fraction of the token's weight assigned to this coordinate
    /// (`w(t)/|mh(t)|` for plain q-gram signatures; the 50/50 token split
    /// under `Q+T`). Shares always sum to 1 per token.
    pub share: f64,
}

/// The index signature of one token (paper §4.2 + §5.1):
///
/// * `Q_H`: the H min-hash q-grams at coordinates `1..=H`, each with share
///   `1/H`; a token shorter than `q` has the single-coordinate signature
///   `[t]` with share 1.
/// * `Q+T_H`: the token itself at coordinate 0 with share ½ plus the
///   q-gram signature at shares `½/H`. Degenerate cases collapse onto the
///   token coordinate alone (share 1): `H = 0` (tokens-only index) and
///   short tokens, whose "q-gram" signature would just repeat the token.
pub fn token_signature(
    token: &str,
    mh: &MinHasher,
    scheme: SignatureScheme,
) -> Vec<SignatureEntry> {
    let sig = mh.signature(token);
    match scheme {
        SignatureScheme::QGrams => {
            let share = 1.0 / sig.len().max(1) as f64;
            sig.into_iter()
                .enumerate()
                .map(|(i, gram)| SignatureEntry {
                    coordinate: i as u8 + 1,
                    // q-grams are q chars, but a short-token signature is
                    // the token itself and can be arbitrarily... no: short
                    // tokens are < q chars. The clamp guards q > MAX case.
                    gram: clamp_gram(gram),
                    share,
                })
                .collect()
        }
        SignatureScheme::QGramsPlusToken => {
            let degenerate = sig.is_empty() || (sig.len() == 1 && sig[0] == token);
            if degenerate {
                return vec![SignatureEntry {
                    coordinate: TOKEN_COORDINATE,
                    gram: clamp_gram(token.to_string()),
                    share: 1.0,
                }];
            }
            let mut entries = Vec::with_capacity(sig.len() + 1);
            entries.push(SignatureEntry {
                coordinate: TOKEN_COORDINATE,
                gram: clamp_gram(token.to_string()),
                share: 0.5,
            });
            let share = 0.5 / sig.len() as f64;
            entries.extend(sig.into_iter().enumerate().map(|(i, gram)| SignatureEntry {
                coordinate: i as u8 + 1,
                gram,
                share,
            }));
            entries
        }
    }
}

/// A logical ETI row, aggregated over chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidList {
    /// Number of tids in the full tid-list (stored even for stop q-grams).
    pub frequency: u32,
    /// The tids, or `None` for a stop q-gram (NULL tid-list in the paper).
    pub tids: Option<Vec<u32>>,
}

/// The ETI: the `(gram, coordinate, column)` key-scheme over a
/// `PostingIndex`, which owns the rows (DESIGN.md §4.5).
pub struct Eti {
    /// The rows; `pub(crate)` for the builder's bulk fill.
    pub(crate) postings: PostingIndex,
}

impl Eti {
    pub fn new(tree: BTree, stop_threshold: usize) -> Eti {
        Eti {
            postings: PostingIndex::new(tree, stop_threshold),
        }
    }

    /// Write the key prefix shared by all chunks of one logical row.
    fn write_prefix(key: &mut Vec<u8>, gram: &str, coordinate: u8, column: u8) {
        key.clear();
        keycode::encode_str(key, gram);
        keycode::encode_u8(key, coordinate);
        keycode::encode_u8(key, column);
    }

    pub(crate) fn prefix(gram: &str, coordinate: u8, column: u8) -> Vec<u8> {
        let mut key = Vec::with_capacity(gram.len() + 8);
        Self::write_prefix(&mut key, gram, coordinate, column);
        key
    }

    /// Look up the tid-list for `(gram, coordinate, column)`, materialized
    /// as one [`TidList`] — for maintenance, diagnostics and tests. Queries
    /// go through [`Eti::probe`], which never builds the list.
    pub fn lookup(&self, gram: &str, coordinate: u8, column: u8) -> Result<Option<TidList>> {
        self.postings
            .lookup(&Self::prefix(gram, coordinate, column))
    }

    /// One logical ETI lookup on the query path (the unit counted by the
    /// paper's efficiency metrics): stream the row's tids into `sink`
    /// chunk by chunk, straight off the pinned leaf. Returns the outcome
    /// and the number of physical chunk rows scanned, which the query
    /// processor accounts into its (stack-local) `LookupTrace`. `key` is
    /// the caller's reusable key buffer.
    pub(crate) fn probe(
        &self,
        gram: &str,
        coordinate: u8,
        column: u8,
        key: &mut Vec<u8>,
        sink: impl FnMut(Chunk<'_>),
    ) -> Result<(Probed, u64)> {
        Self::write_prefix(key, gram, coordinate, column);
        self.postings.probe(key, sink)
    }

    /// Insert the complete tid-list of one absent row (incremental build
    /// path). `tids` must be sorted and deduplicated. Applies the
    /// stop-q-gram rule.
    pub fn insert_group(&self, gram: &str, coordinate: u8, column: u8, tids: &[u32]) -> Result<()> {
        self.postings
            .insert_group(&Self::prefix(gram, coordinate, column), tids)
    }

    /// Append one tid to a row (ETI maintenance for a newly inserted
    /// reference tuple). Creates the row if absent; converts to a stop
    /// q-gram if the list outgrows the threshold; idempotent per tid.
    pub fn append_tid(&self, gram: &str, coordinate: u8, column: u8, tid: u32) -> Result<()> {
        self.postings
            .append_tid(&Self::prefix(gram, coordinate, column), tid)
    }

    /// Remove one tid from a row (ETI maintenance for a deleted reference
    /// tuple). Idempotent, except that a stop row — whose membership is
    /// unknowable — has its (approximate) frequency decremented regardless.
    pub fn remove_tid(&self, gram: &str, coordinate: u8, column: u8, tid: u32) -> Result<()> {
        self.postings
            .remove_tid(&Self::prefix(gram, coordinate, column), tid)
    }

    /// Number of physical entries (chunks) in the index.
    pub fn entry_count(&self) -> Result<usize> {
        self.postings.entry_count()
    }

    /// Validate the whole index: the B+-tree structure, the row rules of
    /// DESIGN.md §4.5 (rows start at chunk 0, tids sorted within and across
    /// chunks, chunk-0 frequency equals the stored count, stop rows are one
    /// NULL entry, the stop threshold holds), and this scheme's own rule:
    /// every key prefix decodes as `(gram, coordinate, column)` with no
    /// trailing bytes.
    pub fn check_invariants(&self) -> Result<PostingCheck> {
        self.postings.check_invariants("eti", |prefix| {
            let (gram, rest) = keycode::decode_str(prefix)?;
            let (coordinate, rest) = keycode::decode_u8(rest)?;
            let (column, rest) = keycode::decode_u8(rest)?;
            if !rest.is_empty() {
                return Err(StoreError::Corrupt("trailing bytes".into()).into());
            }
            Ok(format!("{:?}", (gram, coordinate, column)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_store::{BufferPool, MemPager};
    use std::sync::Arc;

    fn eti(stop: usize) -> Eti {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        Eti::new(BTree::create(pool).unwrap(), stop)
    }

    #[test]
    fn insert_group_and_lookup() {
        let e = eti(10_000);
        e.insert_group("ing", 2, 0, &[1, 5, 9]).unwrap();
        let list = e.lookup("ing", 2, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 3);
        assert_eq!(list.tids, Some(vec![1, 5, 9]));
        assert!(e.lookup("ing", 1, 0).unwrap().is_none());
        assert!(e.lookup("ing", 2, 1).unwrap().is_none());
        assert!(e.lookup("xyz", 2, 0).unwrap().is_none());
    }

    #[test]
    fn coordinate_and_column_are_part_of_the_key() {
        // Paper Table 3: 'sea' at coordinate 1 of column 2 is distinct from
        // any other (coordinate, column) combination.
        let e = eti(10_000);
        e.insert_group("sea", 1, 1, &[1, 2, 3]).unwrap();
        e.insert_group("sea", 2, 1, &[4]).unwrap();
        e.insert_group("sea", 1, 0, &[9]).unwrap();
        assert_eq!(
            e.lookup("sea", 1, 1).unwrap().unwrap().tids,
            Some(vec![1, 2, 3])
        );
        assert_eq!(e.lookup("sea", 2, 1).unwrap().unwrap().tids, Some(vec![4]));
        assert_eq!(e.lookup("sea", 1, 0).unwrap().unwrap().tids, Some(vec![9]));
    }

    #[test]
    fn chunking_across_many_tids() {
        let e = eti(10_000);
        let tids: Vec<u32> = (0..1500).collect();
        e.insert_group("com", 1, 0, &tids).unwrap();
        // 1500 tids / 400 per chunk = 4 physical entries.
        assert_eq!(e.entry_count().unwrap(), 4);
        let list = e.lookup("com", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 1500);
        assert_eq!(list.tids, Some(tids));
    }

    #[test]
    fn stop_qgram_rule() {
        let e = eti(10);
        let tids: Vec<u32> = (0..11).collect();
        e.insert_group("sto", 1, 0, &tids).unwrap();
        let list = e.lookup("sto", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 11);
        assert_eq!(list.tids, None, "stop q-gram has NULL tid-list");
        assert_eq!(e.entry_count().unwrap(), 1);
    }

    #[test]
    fn append_tid_creates_and_extends() {
        let e = eti(10_000);
        e.append_tid("boe", 1, 0, 7).unwrap();
        assert_eq!(e.lookup("boe", 1, 0).unwrap().unwrap().tids, Some(vec![7]));
        e.append_tid("boe", 1, 0, 9).unwrap();
        let list = e.lookup("boe", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 2);
        assert_eq!(list.tids, Some(vec![7, 9]));
        // Idempotent for the same tid (two tokens of one tuple can share a
        // coordinate).
        e.append_tid("boe", 1, 0, 9).unwrap();
        assert_eq!(e.lookup("boe", 1, 0).unwrap().unwrap().frequency, 2);
    }

    #[test]
    fn append_tid_spills_into_new_chunk() {
        let e = eti(10_000);
        let initial: Vec<u32> = (0..TIDS_PER_CHUNK as u32).collect();
        e.insert_group("ful", 1, 0, &initial).unwrap();
        assert_eq!(e.entry_count().unwrap(), 1);
        e.append_tid("ful", 1, 0, 5000).unwrap();
        assert_eq!(e.entry_count().unwrap(), 2);
        let list = e.lookup("ful", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, TIDS_PER_CHUNK as u32 + 1);
        assert_eq!(list.tids.unwrap().last(), Some(&5000));
    }

    #[test]
    fn append_tid_converts_to_stop() {
        let e = eti(5);
        e.insert_group("pop", 1, 0, &[1, 2, 3, 4, 5]).unwrap();
        e.append_tid("pop", 1, 0, 6).unwrap();
        let list = e.lookup("pop", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 6);
        assert_eq!(list.tids, None);
        // Further appends keep counting.
        e.append_tid("pop", 1, 0, 7).unwrap();
        assert_eq!(e.lookup("pop", 1, 0).unwrap().unwrap().frequency, 7);
    }

    #[test]
    fn remove_tid_from_middle_and_to_empty() {
        let e = eti(10_000);
        e.insert_group("rem", 1, 0, &[1, 2, 3]).unwrap();
        e.remove_tid("rem", 1, 0, 2).unwrap();
        let list = e.lookup("rem", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 2);
        assert_eq!(list.tids, Some(vec![1, 3]));
        // Removing a tid that is not there is a no-op.
        e.remove_tid("rem", 1, 0, 99).unwrap();
        assert_eq!(e.lookup("rem", 1, 0).unwrap().unwrap().frequency, 2);
        // Removing the rest drops the row entirely.
        e.remove_tid("rem", 1, 0, 1).unwrap();
        e.remove_tid("rem", 1, 0, 3).unwrap();
        assert!(e.lookup("rem", 1, 0).unwrap().is_none());
        // Removing from an absent row is a no-op.
        e.remove_tid("rem", 1, 0, 3).unwrap();
    }

    #[test]
    fn remove_tid_across_chunks() {
        let e = eti(10_000);
        let tids: Vec<u32> = (0..(TIDS_PER_CHUNK as u32 * 2 + 5)).collect();
        e.insert_group("chu", 1, 0, &tids).unwrap();
        // Remove one from the second chunk.
        let victim = TIDS_PER_CHUNK as u32 + 7;
        e.remove_tid("chu", 1, 0, victim).unwrap();
        let list = e.lookup("chu", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, tids.len() as u32 - 1);
        let got = list.tids.unwrap();
        assert!(!got.contains(&victim));
        assert_eq!(got.len(), tids.len() - 1);
        // Empty out the last (5-element) chunk: its entry disappears.
        let before = e.entry_count().unwrap();
        for t in (TIDS_PER_CHUNK as u32 * 2)..(TIDS_PER_CHUNK as u32 * 2 + 5) {
            e.remove_tid("chu", 1, 0, t).unwrap();
        }
        assert_eq!(e.entry_count().unwrap(), before - 1);
    }

    #[test]
    fn remove_tid_on_stop_row_decrements_frequency() {
        let e = eti(3);
        e.insert_group("stp", 1, 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(e.lookup("stp", 1, 0).unwrap().unwrap().tids, None);
        e.remove_tid("stp", 1, 0, 2).unwrap();
        let list = e.lookup("stp", 1, 0).unwrap().unwrap();
        assert_eq!(list.frequency, 3);
        assert_eq!(list.tids, None, "stop rows stay stop rows");
    }

    #[test]
    fn check_invariants_accepts_healthy_index() {
        let e = eti(10);
        e.insert_group("ing", 2, 0, &[1, 5, 9]).unwrap();
        e.insert_group("sea", 1, 1, &[4]).unwrap();
        e.insert_group("pop", 1, 0, &(0..11).collect::<Vec<u32>>())
            .unwrap(); // stop
        let check = e.check_invariants().unwrap();
        assert_eq!(
            check,
            PostingCheck {
                groups: 3,
                chunks: 3,
                stop_groups: 1,
                tids: 4
            }
        );
        // Chunked rows and maintenance churn stay valid too.
        let e = eti(10_000);
        let tids: Vec<u32> = (0..(TIDS_PER_CHUNK as u32 * 2 + 5)).collect();
        e.insert_group("chu", 1, 0, &tids).unwrap();
        e.append_tid("chu", 1, 0, 5000).unwrap();
        e.remove_tid("chu", 1, 0, 7).unwrap();
        let check = e.check_invariants().unwrap();
        assert_eq!(check.groups, 1);
        assert_eq!(check.chunks, 3);
        assert_eq!(check.tids, tids.len() + 1 - 1);
    }

    // The row rules are the posting index's; the cases below seed their
    // corruption through this key-scheme, whose validator has to name the
    // offending row as `(gram, coordinate, column)`.

    #[test]
    fn check_invariants_detects_a_malformed_chunk() {
        let two = crate::postings::encode_value(2, false, &[5, 9]);
        let wide = [&two[..11], &[33], &two[12..]].concat();
        // Two tids whose gap sum wraps past `u32::MAX` decode as 4294967294
        // then 3.
        let wrapping = crate::postings::encode_value(2, false, &[u32::MAX - 1, 3]);
        for (value, fragment) in [
            (wide, "gap width 33"),
            ([&two[..], &[0]].concat(), "length mismatch"),
            (wrapping, "strictly ascend"),
        ] {
            let e = eti(10_000);
            e.postings
                .put_raw_value(&Eti::prefix("bad", 1, 0), 0, &value);
            let err = e.check_invariants().unwrap_err().to_string();
            assert!(
                err.contains("\"bad\"") && err.contains(fragment),
                "got: {err}"
            );
        }
    }

    #[test]
    fn check_invariants_detects_wrong_frequency() {
        let e = eti(10_000);
        e.insert_group("oka", 1, 0, &[1, 2, 3]).unwrap();
        // Rewrite chunk 0 claiming 7 tids while storing 3.
        e.postings
            .put_raw(&Eti::prefix("oka", 1, 0), 0, 7, false, &[1, 2, 3]);
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("\"oka\"") && err.contains("frequency 7") && err.contains("3 stored tids"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_detects_missing_chunk_zero() {
        let e = eti(10_000);
        e.postings
            .put_raw(&Eti::prefix("gap", 1, 0), 2, 1, false, &[8]);
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("expected 0"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_stop_row_with_tids() {
        let e = eti(2);
        e.postings
            .put_raw(&Eti::prefix("stp", 1, 0), 0, 9, true, &[1, 2]);
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("NULL tid-list"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_threshold_violation() {
        let e = eti(3);
        // 5 tids in a non-stop row, over the threshold of 3.
        e.postings
            .put_raw(&Eti::prefix("ovr", 1, 0), 0, 5, false, &[1, 2, 3, 4, 5]);
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("stop threshold"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_undecodable_key() {
        let e = eti(10_000);
        // A prefix that is not (gram, coordinate, column).
        e.postings.put_raw(b"\x07garbage", 0, 1, false, &[1]);
        let err = e.check_invariants().unwrap_err().to_string();
        assert!(err.contains("does not decode"), "got: {err}");
    }

    #[test]
    fn q_scheme_signature_shares() {
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("corporation", &mh, SignatureScheme::QGrams);
        assert_eq!(sig.len(), 3);
        for (i, entry) in sig.iter().enumerate() {
            assert_eq!(entry.coordinate, i as u8 + 1);
            assert!((entry.share - 1.0 / 3.0).abs() < 1e-12);
        }
        let total: f64 = sig.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn q_scheme_short_token() {
        // |t| < q → signature is the token itself at coordinate 1, share 1.
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("wa", &mh, SignatureScheme::QGrams);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].gram, "wa");
        assert_eq!(sig[0].share, 1.0);
    }

    #[test]
    fn qt_scheme_splits_half_half() {
        let mh = MinHasher::new(2, 4, 42);
        let sig = token_signature("corporation", &mh, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 3);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].gram, "corporation");
        assert!((sig[0].share - 0.5).abs() < 1e-12);
        assert!((sig[1].share - 0.25).abs() < 1e-12);
        let total: f64 = sig.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qt_scheme_degenerate_cases_collapse_to_token() {
        // Tokens-only index (H = 0).
        let mh0 = MinHasher::new(0, 4, 42);
        let sig = token_signature("corporation", &mh0, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].share, 1.0);
        // Short token under Q+T.
        let mh = MinHasher::new(3, 4, 42);
        let sig = token_signature("wa", &mh, SignatureScheme::QGramsPlusToken);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].coordinate, TOKEN_COORDINATE);
        assert_eq!(sig[0].share, 1.0);
    }
}
