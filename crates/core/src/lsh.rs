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
//! Representation mirrors the ETI: posting lists live in a [`BTree`] keyed
//! by the order-preserving encoding of `(Column, Band, Key, Chunk)`, long
//! lists are chunked at [`TIDS_PER_CHUNK`](crate::eti::TIDS_PER_CHUNK) tids,
//! and lists that outgrow the stop threshold become *stop bands* (frequency
//! kept, NULL posting list) exactly like stop q-grams — a band key shared by
//! most of the table ("wa", "seattle") selects nothing.

use fm_store::keycode;
use fm_store::{BTree, StoreError};
use fm_text::lsh::Bander;
use fm_text::minhash::MinHasher;

use crate::error::Result;
use crate::eti::{TidList, TIDS_PER_CHUNK};
use crate::postings::{self, decode_value, encode_value, Chunk, Probed};

/// Salt folded into the matcher seed so the LSH tier's min-hash family is
/// independent of the ETI's ("lsh_minh").
const LSH_MINHASH_SALT: u64 = 0x6c73_685f_6d69_6e68;

/// The LSH banding index: a B+-tree of chunked posting-list rows keyed by
/// `(column, band, band-key)`.
pub struct LshIndex {
    // lint:allow(lockset): BTree handles share one structural latch (DESIGN §11)
    tree: BTree,
    minhasher: MinHasher,
    bander: Bander,
    stop_threshold: usize,
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
            tree,
            minhasher: MinHasher::new(bands * rows, q, seed ^ LSH_MINHASH_SALT),
            bander: Bander::new(bands, rows, seed ^ LSH_MINHASH_SALT),
            stop_threshold,
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

    /// The stop threshold this index was built with.
    pub fn stop_threshold(&self) -> usize {
        self.stop_threshold
    }

    /// A second handle onto the same index, sharing the underlying tree's
    /// pool and structural latch (see [`BTree::clone_handle`]).
    #[must_use]
    pub fn clone_handle(&self) -> LshIndex {
        LshIndex {
            tree: self.tree.clone_handle(),
            minhasher: self.minhasher.clone(),
            bander: self.bander.clone(),
            stop_threshold: self.stop_threshold,
        }
    }

    /// The `b` band keys of `token` under this index's hash family — the
    /// keys the token's tuples are posted under at build time and the keys
    /// a query probes. Deterministic per `(bands, rows, q, seed)`.
    pub fn band_keys(&self, token: &str) -> Vec<u64> {
        self.bander.band_keys(&self.minhasher.signature(token))
    }

    /// Write the key prefix shared by all chunks of one posting list.
    fn write_prefix(out: &mut Vec<u8>, column: u8, band: u8, key: u64) {
        out.clear();
        keycode::encode_u8(out, column);
        keycode::encode_u8(out, band);
        keycode::encode_u64(out, key);
    }

    fn prefix(column: u8, band: u8, key: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        Self::write_prefix(&mut out, column, band, key);
        out
    }

    fn chunk_key(column: u8, band: u8, key: u64, chunk: u32) -> Vec<u8> {
        let mut out = Self::prefix(column, band, key);
        keycode::encode_u32(&mut out, chunk);
        out
    }

    /// Look up the posting list for `(column, band, key)`, materialized as
    /// one [`TidList`] (maintenance and diagnostics; queries go through
    /// [`LshIndex::probe`]).
    pub fn lookup(&self, column: u8, band: u8, key: u64) -> Result<Option<TidList>> {
        postings::lookup(&self.tree, &Self::prefix(column, band, key))
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
        postings::probe(&self.tree, buf, sink)
    }

    /// The physical `(key, value)` entries representing one posting list:
    /// one entry per chunk, or a single stop-band entry. `tids` must be
    /// sorted and deduplicated.
    pub(crate) fn group_entries(
        &self,
        column: u8,
        band: u8,
        key: u64,
        tids: &[u32],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        debug_assert!(
            tids.windows(2).all(|w| w[0] < w[1]),
            "tids must be sorted unique"
        );
        let frequency = tids.len() as u32;
        if tids.len() > self.stop_threshold {
            return vec![(
                Self::chunk_key(column, band, key, 0),
                encode_value(frequency, true, &[]),
            )];
        }
        tids.chunks(TIDS_PER_CHUNK)
            .enumerate()
            .map(|(i, chunk)| {
                (
                    Self::chunk_key(column, band, key, i as u32),
                    encode_value(frequency, false, chunk),
                )
            })
            .collect()
    }

    /// Insert the complete posting list of one `(column, band, key)` group.
    /// `tids` must be sorted and deduplicated. Applies the stop-band rule.
    pub fn insert_group(&self, column: u8, band: u8, key: u64, tids: &[u32]) -> Result<()> {
        for (k, v) in self.group_entries(column, band, key, tids) {
            self.tree.insert(&k, &v)?;
        }
        Ok(())
    }

    /// Bulk-load physical entries (ascending key order) into an empty index —
    /// the fast path for the initial build.
    pub(crate) fn bulk_fill_entries(
        &self,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        self.tree.bulk_fill(entries)?;
        Ok(())
    }

    /// Post `tid` under every band key of `token` in `column` (maintenance
    /// for a newly inserted reference tuple). Idempotent per tid.
    pub fn append_token(&self, column: u8, token: &str, tid: u32) -> Result<()> {
        for (band, key) in self.band_keys(token).into_iter().enumerate() {
            self.append_tid(column, band as u8, key, tid)?;
        }
        Ok(())
    }

    /// Remove `tid` from every band key of `token` in `column` (maintenance
    /// for a deleted reference tuple). Idempotent.
    pub fn remove_token(&self, column: u8, token: &str, tid: u32) -> Result<()> {
        for (band, key) in self.band_keys(token).into_iter().enumerate() {
            self.remove_tid(column, band as u8, key, tid)?;
        }
        Ok(())
    }

    /// Append one tid to a posting list. Creates the row if absent; converts
    /// to a stop band if the list outgrows the threshold; idempotent per tid.
    fn append_tid(&self, column: u8, band: u8, key: u64, tid: u32) -> Result<()> {
        let chunks = postings::collect_chunks(&self.tree, &Self::prefix(column, band, key))?;
        if chunks.is_empty() {
            return self.insert_group(column, band, key, &[tid]);
        }
        let total: u32 = chunks[0].1;
        if chunks[0].2 {
            // Already a stop band: just bump the frequency.
            let k = chunks[0].0.clone();
            self.tree.insert(&k, &encode_value(total + 1, true, &[]))?;
            return Ok(());
        }
        if chunks.iter().any(|(_, _, _, tids)| tids.contains(&tid)) {
            return Ok(()); // another token of the same tuple shares this key
        }
        let new_total = total + 1;
        if new_total as usize > self.stop_threshold {
            // Convert to a stop band: rewrite chunk 0, drop the rest.
            for (k, _, _, _) in &chunks[1..] {
                self.tree.delete(k)?;
            }
            self.tree
                .insert(&chunks[0].0, &encode_value(new_total, true, &[]))?;
            return Ok(());
        }
        // Refresh the authoritative frequency in chunk 0.
        let (first_key, _, _, first_tids) = &chunks[0];
        self.tree
            .insert(first_key, &encode_value(new_total, false, first_tids))?;
        // Append to the last chunk or open a new one (tids are minted
        // monotonically, so appending keeps chunks sorted).
        let last = chunks.last().unwrap(); // lint:allow(unwrap): chunk 0 always exists here
        if last.3.len() < TIDS_PER_CHUNK {
            let mut tids = last.3.clone();
            tids.push(tid);
            tids.sort_unstable();
            let freq = if chunks.len() == 1 { new_total } else { last.1 };
            self.tree
                .insert(&last.0, &encode_value(freq, false, &tids))?;
        } else {
            let k = Self::chunk_key(column, band, key, chunks.len() as u32);
            self.tree
                .insert(&k, &encode_value(new_total, false, &[tid]))?;
        }
        Ok(())
    }

    /// Remove one tid from a posting list. Idempotent; stop-band
    /// frequencies are decremented approximately (membership unknowable),
    /// matching the ETI's stop-row semantics.
    fn remove_tid(&self, column: u8, band: u8, key: u64, tid: u32) -> Result<()> {
        let chunks = postings::collect_chunks(&self.tree, &Self::prefix(column, band, key))?;
        if chunks.is_empty() {
            return Ok(());
        }
        let total = chunks[0].1;
        if chunks[0].2 {
            self.tree.insert(
                &chunks[0].0,
                &encode_value(total.saturating_sub(1), true, &[]),
            )?;
            return Ok(());
        }
        let Some(pos) = chunks
            .iter()
            .position(|(_, _, _, tids)| tids.contains(&tid))
        else {
            return Ok(()); // not present
        };
        let new_total = total.saturating_sub(1);
        if new_total == 0 {
            for (k, _, _, _) in &chunks {
                self.tree.delete(k)?;
            }
            return Ok(());
        }
        let (k, _, _, tids) = &chunks[pos];
        let mut tids = tids.clone();
        tids.retain(|&t| t != tid);
        if tids.is_empty() && pos != 0 {
            self.tree.delete(k)?;
        } else {
            let freq = if pos == 0 { new_total } else { chunks[pos].1 };
            self.tree.insert(k, &encode_value(freq, false, &tids))?;
        }
        if pos != 0 {
            let (key0, _, _, tids0) = &chunks[0];
            self.tree
                .insert(key0, &encode_value(new_total, false, tids0))?;
        }
        Ok(())
    }

    /// Number of physical entries (chunks) in the index.
    pub fn entry_count(&self) -> Result<usize> {
        Ok(self.tree.len()?)
    }

    /// Validate the whole index: the underlying B+-tree structure, then a
    /// full scan checking the posting-list representation invariants (the
    /// LSH mirror of [`Eti::check_invariants`](crate::eti::Eti::check_invariants)):
    ///
    /// * every key decodes as `(column, band, key, chunk)` with no trailing
    ///   bytes and a band index under the configured band count; every value
    ///   decodes as a posting-list record;
    /// * a list's chunks are numbered contiguously from 0, tids globally
    ///   sorted and deduplicated across them, at most
    ///   [`TIDS_PER_CHUNK`](crate::eti::TIDS_PER_CHUNK) per chunk;
    /// * chunk 0's frequency equals the stored tid count (non-stop lists),
    ///   and non-stop lists respect the stop threshold;
    /// * stop bands are a single chunk-0 entry with a NULL posting list;
    /// * emptied non-zero chunks were deleted, not left behind.
    pub fn check_invariants(&self) -> Result<LshCheck> {
        self.tree
            .check_invariants()
            .map_err(|e| StoreError::Corrupt(format!("lsh tree: {e}")))?;
        struct Group {
            column: u8,
            band: u8,
            key: u64,
            stop: bool,
            frequency: u32,
            next_chunk: u32,
            last_tid: Option<u32>,
            total: usize,
        }
        let bad = |msg: String| crate::error::CoreError::BadState(msg);
        let finish = |g: &Group, check: &mut LshCheck| -> Result<()> {
            let row = (g.column, g.band, g.key);
            if g.stop {
                check.stop_groups += 1;
            } else {
                if g.frequency as usize != g.total {
                    return Err(bad(format!(
                        "lsh list {row:?}: chunk-0 frequency {} disagrees with \
                         {} stored tids",
                        g.frequency, g.total
                    )));
                }
                if g.total > self.stop_threshold {
                    return Err(bad(format!(
                        "lsh list {row:?}: {} tids exceed stop threshold {} \
                         without being a stop band",
                        g.total, self.stop_threshold
                    )));
                }
            }
            check.groups += 1;
            check.tids += g.total;
            Ok(())
        };
        let mut check = LshCheck {
            groups: 0,
            chunks: 0,
            stop_groups: 0,
            tids: 0,
        };
        let bands = self.bands() as u8;
        let mut current: Option<Group> = None;
        for entry in self
            .tree
            .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)?
        {
            let (key_bytes, value) = entry?;
            let decoded: std::result::Result<(u8, u8, u64, u32), StoreError> = (|| {
                let (column, rest) = keycode::decode_u8(&key_bytes)?;
                let (band, rest) = keycode::decode_u8(rest)?;
                let (key, rest) = keycode::decode_u64(rest)?;
                let (chunk, rest) = keycode::decode_u32(rest)?;
                if !rest.is_empty() {
                    return Err(StoreError::Corrupt("trailing bytes".into()));
                }
                Ok((column, band, key, chunk))
            })();
            let (column, band, key, chunk) = decoded.map_err(|e| {
                bad(format!(
                    "lsh key {key_bytes:?} does not decode as (column, band, \
                     key, chunk): {e}"
                ))
            })?;
            let row = (column, band, key);
            if band >= bands {
                return Err(bad(format!(
                    "lsh list {row:?}: band {band} out of range (index has \
                     {bands} bands)"
                )));
            }
            let (frequency, stop, tids) = decode_value(&value)
                .map_err(|e| bad(format!("lsh list {row:?} chunk {chunk}: {e}")))?;
            if tids.len() > TIDS_PER_CHUNK {
                return Err(bad(format!(
                    "lsh list {row:?} chunk {chunk}: {} tids in one chunk \
                     (cap is {TIDS_PER_CHUNK})",
                    tids.len()
                )));
            }
            if !tids.windows(2).all(|w| w[0] < w[1]) {
                return Err(bad(format!(
                    "lsh list {row:?} chunk {chunk}: posting list is not \
                     sorted and deduplicated"
                )));
            }
            let continues = current
                .as_ref()
                .is_some_and(|g| (g.column, g.band, g.key) == row);
            if continues {
                let g = current.as_mut().unwrap(); // lint:allow(unwrap): `continues` proved Some
                if chunk != g.next_chunk {
                    return Err(bad(format!(
                        "lsh list {row:?}: chunks not contiguous (expected \
                         chunk {}, found {chunk})",
                        g.next_chunk
                    )));
                }
                if g.stop || stop {
                    return Err(bad(format!(
                        "lsh list {row:?}: stop band must be a single chunk-0 \
                         entry, found chunk {chunk}"
                    )));
                }
                if tids.is_empty() {
                    return Err(bad(format!(
                        "lsh list {row:?}: empty non-zero chunk {chunk} should \
                         have been deleted"
                    )));
                }
                if let (Some(last), Some(&first)) = (g.last_tid, tids.first()) {
                    if first <= last {
                        return Err(bad(format!(
                            "lsh list {row:?}: tids not globally sorted across \
                             chunks (chunk {chunk} starts at {first} after {last})"
                        )));
                    }
                }
                g.total += tids.len();
                g.last_tid = tids.last().copied().or(g.last_tid);
                g.next_chunk += 1;
            } else {
                if let Some(g) = current.take() {
                    finish(&g, &mut check)?;
                }
                if chunk != 0 {
                    return Err(bad(format!(
                        "lsh list {row:?}: first chunk is {chunk}, expected 0"
                    )));
                }
                if stop && !tids.is_empty() {
                    return Err(bad(format!(
                        "lsh list {row:?}: stop band carries {} tids, must \
                         have a NULL posting list",
                        tids.len()
                    )));
                }
                current = Some(Group {
                    column,
                    band,
                    key,
                    stop,
                    frequency,
                    next_chunk: 1,
                    last_tid: tids.last().copied(),
                    total: tids.len(),
                });
            }
            check.chunks += 1;
        }
        if let Some(g) = current.take() {
            finish(&g, &mut check)?;
        }
        Ok(check)
    }
}

/// Report from [`LshIndex::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshCheck {
    /// Logical posting lists (distinct `(column, band, key)` groups).
    pub groups: usize,
    /// Physical B+-tree entries (chunks).
    pub chunks: usize,
    /// Lists stored as stop bands (NULL posting list).
    pub stop_groups: usize,
    /// Total tids stored across all non-stop lists.
    pub tids: usize,
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
        for tid in 1..=5 {
            idx.append_tid(0, 1, 42, tid).unwrap();
        }
        assert!(idx.lookup(0, 1, 42).unwrap().unwrap().tids.is_some());
        idx.append_tid(0, 1, 42, 6).unwrap();
        let list = idx.lookup(0, 1, 42).unwrap().unwrap();
        assert_eq!(list.frequency, 6);
        assert!(list.tids.is_none(), "must have converted to a stop band");
        // Further appends just bump the frequency.
        idx.append_tid(0, 1, 42, 7).unwrap();
        assert_eq!(idx.lookup(0, 1, 42).unwrap().unwrap().frequency, 7);
        // Removal decrements approximately.
        idx.remove_tid(0, 1, 42, 3).unwrap();
        assert_eq!(idx.lookup(0, 1, 42).unwrap().unwrap().frequency, 6);
        let check = idx.check_invariants().unwrap();
        assert_eq!(check.stop_groups, 1);
    }

    #[test]
    fn bulk_fill_matches_incremental_inserts() {
        let a = index(10_000);
        let mut entries = Vec::new();
        entries.extend(a.group_entries(0, 0, 5, &[1, 2, 3]));
        entries.extend(a.group_entries(0, 1, 9, &[2]));
        entries.extend(a.group_entries(1, 0, 5, &[4, 5]));
        entries.sort_by(|(ka, _), (kb, _)| ka.cmp(kb));
        a.bulk_fill_entries(entries).unwrap();
        assert_eq!(
            a.lookup(0, 0, 5).unwrap().unwrap().tids,
            Some(vec![1, 2, 3])
        );
        assert_eq!(a.lookup(1, 0, 5).unwrap().unwrap().tids, Some(vec![4, 5]));
        let check = a.check_invariants().unwrap();
        assert_eq!(check.groups, 3);
        assert_eq!(check.tids, 6);
    }

    #[test]
    fn check_invariants_detects_frequency_drift() {
        let idx = index(10_000);
        idx.insert_group(0, 0, 7, &[1, 2]).unwrap();
        // Corrupt: rewrite chunk 0 with a wrong frequency.
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 0, 7, 0),
                &encode_value(9, false, &[1, 2]),
            )
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("frequency"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_unsorted_posting_list() {
        let idx = index(10_000);
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 0, 7, 0),
                &encode_value(2, false, &[5, 3]),
            )
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("sorted"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_non_contiguous_chunks() {
        let idx = index(10_000);
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 0, 7, 0),
                &encode_value(2, false, &[1]),
            )
            .unwrap();
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 0, 7, 2),
                &encode_value(2, false, &[2]),
            )
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("contiguous"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_stop_band_with_tids() {
        let idx = index(10_000);
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 0, 7, 0),
                &encode_value(3, true, &[1, 2, 3]),
            )
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("NULL"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_out_of_range_band() {
        let idx = index(10_000); // 4 bands
        idx.tree
            .insert(
                &LshIndex::chunk_key(0, 9, 7, 0),
                &encode_value(1, false, &[1]),
            )
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("out of range"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_undecodable_key() {
        let idx = index(10_000);
        idx.tree
            .insert(b"junk", &encode_value(1, false, &[1]))
            .unwrap();
        let err = idx.check_invariants().unwrap_err().to_string();
        assert!(err.contains("does not decode"), "got: {err}");
    }
}
