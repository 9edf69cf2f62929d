//! The LSH candidate tier (DESIGN §12): a min-hash banding index in front
//! of the ETI.
//!
//! The ETI probes every signature coordinate of every input token — exact,
//! but fetch-heavy as tid-lists grow. This index bands the same min-hash
//! machinery (its own [`MinHasher`] with `H = b·r` coordinates, seeded from
//! the matcher seed) into `b` band keys per token via [`fm_text::Bander`]
//! and stores one posting list per `(column, band, key)`. A query probes
//! `b` keys per token instead of `H + 1` ETI rows; two tokens land in the
//! same posting list with probability `1 - (1 - s^r)^b` of their coordinate
//! agreement `s` ([`fm_text::collision_probability`]).
//!
//! Representation is the ETI's (DESIGN.md §4.5): posting lists live in a
//! chunked posting index of their own under the order-preserving encoding
//! of `(Column, Band, Key)`, and lists that outgrow the stop threshold become
//! *stop bands* (frequency kept, NULL posting list) exactly like stop
//! q-grams — a band key shared by most of the table ("wa", "seattle")
//! selects nothing. This module is only the key-scheme and the hash family.

use fm_store::keycode;
use fm_store::{BTree, StoreError};
use fm_text::lsh::Bander;
use fm_text::minhash::MinHasher;

use crate::error::{CoreError, Result};
use crate::eti::TidList;
use crate::postings::{Chunk, PostingCheck, PostingIndex, Probed};

/// Salt folded into the matcher seed so the LSH tier's min-hash family is
/// independent of the ETI's ("lsh_minh").
const LSH_MINHASH_SALT: u64 = 0x6c73_685f_6d69_6e68;

/// The LSH banding index: the `(column, band, band-key)` key-scheme over a
/// `PostingIndex`, plus the hash family that derives the band keys.
pub struct LshIndex {
    /// The rows; `pub(crate)` for the builder's bulk fill.
    pub(crate) postings: PostingIndex,
    minhasher: MinHasher,
    bander: Bander,
}

impl LshIndex {
    /// Wrap `tree` as an LSH index of `bands` bands × `rows` rows over
    /// `q`-gram min-hash signatures. `seed` is the matcher seed; the tier
    /// derives its own independent hash family from it, so an index built
    /// in one session is probed identically in the next.
    pub fn new(
        tree: BTree,
        bands: usize,
        rows: usize,
        q: usize,
        seed: u64,
        stop_threshold: usize,
    ) -> LshIndex {
        LshIndex {
            postings: PostingIndex::new(tree, stop_threshold),
            minhasher: MinHasher::new(bands * rows, q, seed ^ LSH_MINHASH_SALT),
            bander: Bander::new(bands, rows, seed ^ LSH_MINHASH_SALT),
        }
    }

    /// Number of bands `b` (posting lists probed per token).
    pub fn bands(&self) -> usize {
        self.bander.bands()
    }

    /// Rows per band `r`.
    pub fn rows(&self) -> usize {
        self.bander.rows()
    }

    /// A second handle onto the same index (see
    /// [`fm_store::BTree::clone_handle`]).
    #[must_use]
    pub fn clone_handle(&self) -> LshIndex {
        LshIndex {
            postings: self.postings.clone_handle(),
            minhasher: self.minhasher.clone(),
            bander: self.bander.clone(),
        }
    }

    /// The `b` band keys of `token` under this index's hash family — the
    /// keys the token's tuples are posted under at build time and the keys
    /// a query probes. Deterministic per `(bands, rows, q, seed)`.
    pub fn band_keys(&self, token: &str) -> Vec<u64> {
        self.bander.band_keys(&self.minhasher.signature(token))
    }

    /// Write the key prefix shared by all chunks of one posting list.
    pub(crate) fn write_prefix(out: &mut Vec<u8>, column: u8, band: u8, key: u64) {
        out.clear();
        keycode::encode_u8(out, column);
        keycode::encode_u8(out, band);
        keycode::encode_u64(out, key);
    }

    pub(crate) fn prefix(column: u8, band: u8, key: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        Self::write_prefix(&mut out, column, band, key);
        out
    }

    /// Look up the posting list for `(column, band, key)`, materialized as
    /// one [`TidList`] (maintenance and diagnostics; queries go through
    /// [`LshIndex::probe`]).
    pub fn lookup(&self, column: u8, band: u8, key: u64) -> Result<Option<TidList>> {
        self.postings.lookup(&Self::prefix(column, band, key))
    }

    /// One band probe on the query path: stream the posting list's tids
    /// into `sink` chunk by chunk off the pinned leaf (the LSH mirror of
    /// [`Eti::probe`](crate::eti::Eti::probe)). `buf` is the caller's
    /// reusable key buffer.
    pub(crate) fn probe(
        &self,
        column: u8,
        band: u8,
        key: u64,
        buf: &mut Vec<u8>,
        sink: impl FnMut(Chunk<'_>),
    ) -> Result<(Probed, u64)> {
        Self::write_prefix(buf, column, band, key);
        self.postings.probe(buf, sink)
    }

    /// Insert the complete posting list of one absent `(column, band, key)`
    /// row. `tids` must be sorted and deduplicated. Applies the stop rule.
    pub fn insert_group(&self, column: u8, band: u8, key: u64, tids: &[u32]) -> Result<()> {
        self.postings
            .insert_group(&Self::prefix(column, band, key), tids)
    }

    /// Post `tid` under every band key of `token` in `column` (maintenance
    /// for a newly inserted reference tuple). Idempotent per tid.
    pub fn append_token(&self, column: u8, token: &str, tid: u32) -> Result<()> {
        for (band, key) in self.band_keys(token).into_iter().enumerate() {
            self.postings
                .append_tid(&Self::prefix(column, band as u8, key), tid)?;
        }
        Ok(())
    }

    /// Remove `tid` from every band key of `token` in `column` (maintenance
    /// for a deleted reference tuple). Idempotent.
    pub fn remove_token(&self, column: u8, token: &str, tid: u32) -> Result<()> {
        for (band, key) in self.band_keys(token).into_iter().enumerate() {
            self.postings
                .remove_tid(&Self::prefix(column, band as u8, key), tid)?;
        }
        Ok(())
    }

    /// Number of physical entries (chunks) in the index.
    pub fn entry_count(&self) -> Result<usize> {
        self.postings.entry_count()
    }

    /// Validate the whole index: the B+-tree structure, the row rules
    /// shared with [`Eti::check_invariants`](crate::eti::Eti::check_invariants)
    /// (DESIGN.md §4.5), and this scheme's own: every key prefix decodes as
    /// `(column, band, key)` with no trailing bytes, and the band index is
    /// under the configured band count.
    pub fn check_invariants(&self) -> Result<PostingCheck> {
        self.postings.check_invariants("lsh", |prefix| {
            let (column, rest) = keycode::decode_u8(prefix)?;
            let (band, rest) = keycode::decode_u8(rest)?;
            let (key, rest) = keycode::decode_u64(rest)?;
            if !rest.is_empty() {
                return Err(StoreError::Corrupt("trailing bytes".into()).into());
            }
            if usize::from(band) >= self.bands() {
                return Err(CoreError::BadState(format!(
                    "band {band} out of range (index has {} bands)",
                    self.bands()
                )));
            }
            Ok(format!("{:?}", (column, band, key)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_store::{BufferPool, MemPager};
    use std::sync::Arc;

    fn index(stop: usize) -> LshIndex {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        LshIndex::new(BTree::create(pool).unwrap(), 4, 2, 3, 42, stop)
    }

    #[test]
    fn band_keys_deterministic_and_independent_of_eti_family() {
        let a = index(10_000);
        let b = index(10_000);
        assert_eq!(a.band_keys("boeing"), b.band_keys("boeing"));
        assert_eq!(a.band_keys("boeing").len(), 4);
        // A different seed gives a different family.
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let c = LshIndex::new(BTree::create(pool).unwrap(), 4, 2, 3, 43, 10_000);
        assert_ne!(a.band_keys("boeing"), c.band_keys("boeing"));
    }

    #[test]
    fn insert_group_and_lookup() {
        let idx = index(10_000);
        idx.insert_group(0, 2, 0xDEAD_BEEF, &[1, 5, 9]).unwrap();
        let list = idx.lookup(0, 2, 0xDEAD_BEEF).unwrap().unwrap();
        assert_eq!(list.frequency, 3);
        assert_eq!(list.tids, Some(vec![1, 5, 9]));
        assert!(idx.lookup(0, 1, 0xDEAD_BEEF).unwrap().is_none());
        assert!(idx.lookup(1, 2, 0xDEAD_BEEF).unwrap().is_none());
        assert!(idx.lookup(0, 2, 0xBEEF).unwrap().is_none());
    }

    #[test]
    fn append_token_posts_under_every_band_and_is_idempotent() {
        let idx = index(10_000);
        idx.append_token(0, "boeing", 7).unwrap();
        idx.append_token(0, "boeing", 7).unwrap(); // idempotent
        for (band, key) in idx.band_keys("boeing").into_iter().enumerate() {
            let list = idx.lookup(0, band as u8, key).unwrap().unwrap();
            assert_eq!(list.tids, Some(vec![7]), "band {band}");
        }
        // A second tuple with the same token shares every posting list.
        idx.append_token(0, "boeing", 9).unwrap();
        for (band, key) in idx.band_keys("boeing").into_iter().enumerate() {
            let list = idx.lookup(0, band as u8, key).unwrap().unwrap();
            assert_eq!(list.tids, Some(vec![7, 9]), "band {band}");
        }
        idx.check_invariants().unwrap();
    }

    #[test]
    fn remove_token_drops_postings_and_empty_rows() {
        let idx = index(10_000);
        idx.append_token(1, "seattle", 3).unwrap();
        idx.append_token(1, "seattle", 8).unwrap();
        idx.remove_token(1, "seattle", 3).unwrap();
        for (band, key) in idx.band_keys("seattle").into_iter().enumerate() {
            let list = idx.lookup(1, band as u8, key).unwrap().unwrap();
            assert_eq!(list.tids, Some(vec![8]), "band {band}");
        }
        // Removing a missing tid is a no-op; removing the last drops rows.
        idx.remove_token(1, "seattle", 99).unwrap();
        idx.remove_token(1, "seattle", 8).unwrap();
        for (band, key) in idx.band_keys("seattle").into_iter().enumerate() {
            assert!(idx.lookup(1, band as u8, key).unwrap().is_none());
        }
        assert_eq!(idx.entry_count().unwrap(), 0);
        idx.check_invariants().unwrap();
    }

    #[test]
    fn chunking_across_many_tids() {
        let idx = index(10_000);
        let tids: Vec<u32> = (1..=950).collect();
        idx.insert_group(0, 0, 77, &tids).unwrap();
        let list = idx.lookup(0, 0, 77).unwrap().unwrap();
        assert_eq!(list.frequency, 950);
        assert_eq!(list.tids, Some(tids));
        let check = idx.check_invariants().unwrap();
        assert_eq!(check.groups, 1);
        assert_eq!(check.chunks, 3); // 400 + 400 + 150
    }

    #[test]
    fn stop_band_conversion_and_lookup() {
        let idx = index(5);
        let row = LshIndex::prefix(0, 1, 42);
        for tid in 1..=5 {
            idx.postings.append_tid(&row, tid).unwrap();
        }
        assert!(idx.lookup(0, 1, 42).unwrap().unwrap().tids.is_some());
        idx.postings.append_tid(&row, 6).unwrap();
        let list = idx.lookup(0, 1, 42).unwrap().unwrap();
        assert_eq!(list.frequency, 6);
        assert!(list.tids.is_none(), "must have converted to a stop band");
        // Further appends just bump the frequency.
        idx.postings.append_tid(&row, 7).unwrap();
        assert_eq!(idx.lookup(0, 1, 42).unwrap().unwrap().frequency, 7);
        // Removal decrements approximately.
        idx.postings.remove_tid(&row, 3).unwrap();
        assert_eq!(idx.lookup(0, 1, 42).unwrap().unwrap().frequency, 6);
        let check = idx.check_invariants().unwrap();
        assert_eq!(check.stop_groups, 1);
    }

    #[test]
    fn bulk_fill_matches_incremental_inserts() {
        let (bulk, incremental) = (index(10_000), index(10_000));
        let mut sorter = fm_store::ExternalSorter::with_budget(1 << 20).unwrap();
        let mut post = |column: u8, band: u8, key: u64, tids: &[u32]| {
            incremental.insert_group(column, band, key, tids).unwrap();
            for tid in tids {
                let mut record = LshIndex::prefix(column, band, key);
                keycode::encode_u32(&mut record, *tid);
                sorter.push(&record).unwrap();
            }
        };
        post(0, 0, 5, &[1, 2, 3]);
        post(0, 1, 9, &[2]);
        post(1, 0, 5, &[4, 5]);
        bulk.postings.bulk_fill(sorter.finish().unwrap()).unwrap();
        assert_eq!(bulk.postings.entries(), incremental.postings.entries());
        assert_eq!(
            bulk.lookup(1, 0, 5).unwrap().unwrap().tids,
            Some(vec![4, 5])
        );
        let check = bulk.check_invariants().unwrap();
        assert_eq!((check.groups, check.tids), (3, 6));
    }

    // The row rules are the posting index's (seeded there and through the
    // ETI key-scheme); these run them through this scheme's validator.

    #[test]
    fn check_invariants_detects_frequency_drift() {
        let idx = index(10_000);
        idx.insert_group(0, 0, 7, &[1, 2]).unwrap();
        // Corrupt: rewrite chunk 0 with a wrong frequency.
        idx.postings
            .put_raw(&LshIndex::prefix(0, 0, 7), 0, 9, false, &[1, 2]);
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("lsh row (0, 0, 7)") && err.contains("frequency"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_detects_unsorted_posting_list() {
        let idx = index(10_000);
        idx.postings
            .put_raw(&LshIndex::prefix(0, 0, 7), 0, 2, false, &[5, 3]);
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("sorted"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_stop_band_with_tids() {
        let idx = index(10_000);
        idx.postings
            .put_raw(&LshIndex::prefix(0, 0, 7), 0, 3, true, &[1, 2, 3]);
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("NULL"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_out_of_range_band() {
        let idx = index(10_000); // 4 bands
        idx.postings
            .put_raw(&LshIndex::prefix(0, 9, 7), 0, 1, false, &[1]);
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("out of range"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_undecodable_key() {
        let idx = index(10_000);
        idx.postings.put_raw(b"junk", 0, 1, false, &[1]);
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("does not decode"), "got: {err}");
    }
}
