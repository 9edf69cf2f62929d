//! The chunked posting-list relation under the ETI (DESIGN.md §4.5): the
//! value codec, the one read path, and [`PostingIndex`] — the one place
//! that writes, maintains, bulk-loads and validates rows.
//!
//! A logical row is addressed by an opaque byte **prefix** chosen by a
//! key-scheme (`(gram, coordinate, column)` in [`crate::eti`], the only
//! one) and stored as a run of B+-tree entries
//! `prefix ‖ be32(chunk)`, one per chunk of at most [`TIDS_PER_CHUNK`] tids.
//! Each value is
//! `[flags:u8][frequency:u32][count:u16][first:u32][width:u8][gaps]`,
//! little-endian: the chunk's first tid, then its `count − 1` gaps
//! `tid − prev − 1` bit-packed at one `width` (0..=32) per chunk, so a run
//! of consecutive tids costs no body at all. A chunk with no tids is the
//! 7-byte header alone. Chunk 0's flags and frequency speak for the whole
//! row. Key-schemes must be prefix-free — no row's prefix may begin another
//! row's key — which `keycode`'s self-delimiting fields guarantee.
//!
//! Every reader goes through [`for_each_chunk`], which walks the row on
//! the pinned leaf ([`BTree::for_each_prefix`]) and hands out [`Chunk`]s
//! that *borrow* the page bytes. The query path ([`probe`]) streams tids
//! from there straight into the score table — decoded on the fly, no value
//! copy, no decoded `Vec<u32>`, no concatenated list; [`lookup`]
//! materializes a [`TidList`] for maintenance and diagnostics.

use std::collections::VecDeque;
use std::ops::Bound;

use fm_store::extsort::SortedRun;
use fm_store::keycode;
use fm_store::{BTree, StoreError};

use crate::error::{CoreError, Result};
use crate::eti::TidList;

/// Maximum tids stored per chunk. Even at the widest gap (32 bits) a chunk
/// stays well under the B+-tree's entry cap alongside a long token key.
pub const TIDS_PER_CHUNK: usize = 400;

/// The chunk layout this build reads and writes, persisted with each
/// matcher (`posting_format` in `{p}.state`). Format 1 stored raw 4-byte
/// tids and had no marker.
pub(crate) const POSTING_FORMAT: u32 = 2;

const FLAG_STOP: u8 = 1;
const HEADER_LEN: usize = 7;
/// Header plus `first` and `width`: where the gaps of a non-empty chunk
/// start.
const LIST_HEADER_LEN: usize = HEADER_LEN + 5;

/// Bytes holding `gaps` gaps of `width` bits.
fn body_len(gaps: usize, width: u32) -> usize {
    (gaps * width as usize).div_ceil(8)
}

pub(crate) fn encode_value(frequency: u32, stop: bool, tids: &[u32]) -> Vec<u8> {
    // Wrapping, so that any sequence round-trips: the validator, not the
    // codec, is what rejects one that does not ascend.
    let gaps = || {
        tids.windows(2)
            .map(|w| w[1].wrapping_sub(w[0]).wrapping_sub(1))
    };
    let width = 32 - gaps().fold(0, |all, gap| all | gap).leading_zeros();
    let gap_count = tids.len().saturating_sub(1);
    let mut out = Vec::with_capacity(LIST_HEADER_LEN + body_len(gap_count, width));
    out.push(if stop { FLAG_STOP } else { 0 });
    out.extend_from_slice(&frequency.to_le_bytes());
    out.extend_from_slice(&(tids.len() as u16).to_le_bytes());
    let Some(first) = tids.first() else {
        return out;
    };
    out.extend_from_slice(&first.to_le_bytes());
    out.push(width as u8);
    let (mut acc, mut bits) = (0u64, 0u32);
    for gap in gaps() {
        acc |= u64::from(gap) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
    out
}

/// One stored chunk, validated but not decoded: the header fields plus the
/// packed gaps, borrowed from wherever the value lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk<'a> {
    pub frequency: u32,
    pub stop: bool,
    count: usize,
    first: u32,
    width: u32,
    gaps: &'a [u8],
}

impl<'a> Chunk<'a> {
    /// `Ok` or `Corrupt` for any bytes, never a panic.
    pub fn parse(bytes: &'a [u8]) -> std::result::Result<Chunk<'a>, StoreError> {
        let corrupt = |what: &str| Err(StoreError::Corrupt(format!("posting value {what}")));
        let Some(&[flags, f0, f1, f2, f3, c0, c1]) = bytes.get(..HEADER_LEN) else {
            return corrupt("too short");
        };
        let mut chunk = Chunk {
            frequency: u32::from_le_bytes([f0, f1, f2, f3]),
            stop: flags & FLAG_STOP != 0,
            count: usize::from(u16::from_le_bytes([c0, c1])),
            first: 0,
            width: 0,
            gaps: &[],
        };
        if chunk.count == 0 {
            return match bytes.len() == HEADER_LEN {
                true => Ok(chunk),
                false => corrupt("length mismatch"),
            };
        }
        let Some(&[t0, t1, t2, t3, width]) = bytes.get(HEADER_LEN..LIST_HEADER_LEN) else {
            return corrupt("length mismatch");
        };
        if width > 32 {
            return corrupt(&format!("gap width {width} exceeds 32 bits"));
        }
        chunk.first = u32::from_le_bytes([t0, t1, t2, t3]);
        chunk.width = u32::from(width);
        chunk.gaps = bytes.get(LIST_HEADER_LEN..).unwrap_or_default();
        if chunk.gaps.len() != body_len(chunk.count - 1, chunk.width) {
            return corrupt("length mismatch");
        }
        Ok(chunk)
    }

    /// Number of tids in this chunk.
    pub fn len(&self) -> usize {
        self.count
    }

    /// The chunk's tids, decoded on the fly.
    pub fn tids(&self) -> Tids<'a> {
        // The body's last 8 bytes as one word (zero-padded above a body
        // shorter than that), from which the last gaps are shifted out.
        let tail_at = self.gaps.len().saturating_sub(8);
        let tail = self.gaps.get(tail_at..).unwrap_or_default();
        let tail_word = tail
            .iter()
            .rev()
            .fold(0u64, |word, &byte| word << 8 | u64::from(byte));
        Tids {
            gaps: self.gaps,
            tail_word,
            tail_at,
            next: self.first,
            bit: 0,
            width: self.width as usize,
            mask: (1u64 << self.width) - 1,
            left: self.count,
        }
    }
}

/// The decoder behind [`Chunk::tids`]. Each step reads the gap as an
/// unaligned little-endian `u64` at its byte, then shifts and masks (a gap
/// spans at most 32 + 7 bits); the last gaps, within 8 bytes of the end,
/// come from a zero-padded copy of those bytes made once per chunk. Sums
/// wrap: a chunk whose tids overflow decodes to a list that does not
/// ascend, which the validator rejects.
#[derive(Debug, Clone)]
pub(crate) struct Tids<'a> {
    gaps: &'a [u8],
    tail_word: u64,
    tail_at: usize,
    next: u32,
    bit: usize,
    width: usize,
    mask: u64,
    left: usize,
}

impl Iterator for Tids<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let tid = self.next;
        let at = self.bit >> 3;
        let word = match self.gaps.get(at..at + 8) {
            Some(&[b0, b1, b2, b3, b4, b5, b6, b7]) => {
                u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
            }
            // Within the last 8 bytes (`at ≥ tail_at`). A shift of 64, one
            // step past the final tid, reads nothing.
            _ => self
                .tail_word
                .checked_shr(8 * (at - self.tail_at) as u32)
                .unwrap_or(0),
        };
        let gap = ((word >> (self.bit & 7)) & self.mask) as u32;
        self.bit += self.width;
        self.next = tid.wrapping_add(gap).wrapping_add(1);
        Some(tid)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Decode a whole value into owned parts (maintenance and validation).
pub(crate) fn decode_value(bytes: &[u8]) -> Result<(u32, bool, Vec<u32>)> {
    let chunk = Chunk::parse(bytes)?;
    Ok((chunk.frequency, chunk.stop, chunk.tids().collect()))
}

/// Visit the chunks of the row under `prefix` in chunk order, as
/// `(key, chunk)` borrowed from the pinned leaf. Returns the number of
/// physical rows scanned.
///
/// `visit` runs under the leaf's read pin and the tree's structural latch:
/// it must not touch this tree or its pool.
pub(crate) fn for_each_chunk(
    tree: &BTree,
    prefix: &[u8],
    mut visit: impl FnMut(&[u8], Chunk<'_>),
) -> Result<u64> {
    let mut rows = 0u64;
    tree.for_each_prefix(prefix, |key, value| {
        let chunk = Chunk::parse(value)?;
        rows += 1;
        visit(key, chunk);
        Ok(())
    })?;
    Ok(rows)
}

/// The row's chunks as owned `(key, frequency, stop, tids)` tuples, for
/// the maintenance paths that rewrite them.
pub(crate) type OwnedChunk = (Vec<u8>, u32, bool, Vec<u32>);

pub(crate) fn collect_chunks(tree: &BTree, prefix: &[u8]) -> Result<Vec<OwnedChunk>> {
    let mut chunks = Vec::new();
    for_each_chunk(tree, prefix, |key, chunk| {
        chunks.push((
            key.to_vec(),
            chunk.frequency,
            chunk.stop,
            chunk.tids().collect(),
        ));
    })?;
    Ok(chunks)
}

/// What probing one logical row found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probed {
    /// No row — the unit scores nothing.
    Missing,
    /// A stop row (frequency above threshold, tid-list elided, §4.2.2).
    /// The unit's weight must be credited back into every bound: any
    /// candidate may own it in full.
    Stop,
    /// A posting list of `len` tids, already streamed into the sink.
    List { len: u64 },
}

/// The query path: stream the row's tids into `sink`, chunk by chunk as
/// they come off the leaf. Returns the outcome and the physical rows
/// scanned.
pub(crate) fn probe(
    tree: &BTree,
    prefix: &[u8],
    mut sink: impl FnMut(Chunk<'_>),
) -> Result<(Probed, u64)> {
    let mut stop_row: Option<bool> = None;
    let mut len = 0u64;
    let rows = for_each_chunk(tree, prefix, |_, chunk| {
        // Chunk 0 is authoritative for the row's stop flag.
        if !*stop_row.get_or_insert(chunk.stop) {
            len += chunk.len() as u64;
            sink(chunk);
        }
    })?;
    let probed = match stop_row {
        None => Probed::Missing,
        Some(true) => Probed::Stop,
        Some(false) => Probed::List { len },
    };
    Ok((probed, rows))
}

/// The materializing path: the whole row as one [`TidList`].
pub(crate) fn lookup(tree: &BTree, prefix: &[u8]) -> Result<Option<TidList>> {
    let mut head: Option<(u32, bool)> = None;
    let mut tids: Vec<u32> = Vec::new();
    for_each_chunk(tree, prefix, |_, chunk| {
        head.get_or_insert((chunk.frequency, chunk.stop));
        tids.extend(chunk.tids());
    })?;
    Ok(head.map(|(frequency, stop)| TidList {
        frequency,
        tids: if stop { None } else { Some(tids) },
    }))
}

/// The physical key of one chunk of the row under `prefix`.
fn chunk_key(prefix: &[u8], chunk: u32) -> Vec<u8> {
    let mut key = Vec::with_capacity(prefix.len() + 4);
    key.extend_from_slice(prefix);
    keycode::encode_u32(&mut key, chunk);
    key
}

/// Split off the trailing big-endian `u32`: a chunk key into `(prefix,
/// chunk)`, a build record ([`PostingIndex::bulk_fill`]) into `(prefix,
/// tid)`.
fn split_u32(bytes: &[u8]) -> Option<(&[u8], u32)> {
    let (prefix, tail) = bytes.split_at(bytes.len().checked_sub(4)?);
    Some((prefix, u32::from_be_bytes(tail.try_into().ok()?)))
}

/// A B+-tree of chunked posting-list rows plus the stop rule: rows whose
/// list would exceed `stop_threshold` keep their frequency but a NULL list
/// (the paper's stop q-grams, §4.2.2), and never convert back.
pub(crate) struct PostingIndex {
    // BTree is a self-synchronized handle: every descent and mutation runs
    // under the shared structural latch and the pool's shard/frame locks
    // inside fm-store (DESIGN §11).
    tree: BTree,
    stop_threshold: usize,
}

/// What [`PostingIndex::bulk_fill`] loaded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Filled {
    /// Logical rows.
    pub groups: u64,
    /// Rows stored as stop rows.
    pub stop_groups: u64,
}

impl PostingIndex {
    pub fn new(tree: BTree, stop_threshold: usize) -> PostingIndex {
        PostingIndex {
            tree,
            stop_threshold,
        }
    }

    /// A second handle onto the same index, sharing the underlying tree's
    /// pool and structural latch (see [`BTree::clone_handle`]).
    #[must_use]
    pub fn clone_handle(&self) -> PostingIndex {
        PostingIndex::new(self.tree.clone_handle(), self.stop_threshold)
    }

    /// Number of physical entries (chunks) in the index.
    pub fn entry_count(&self) -> Result<usize> {
        Ok(self.tree.len()?)
    }

    /// [`lookup`] on this index's tree.
    pub fn lookup(&self, prefix: &[u8]) -> Result<Option<TidList>> {
        lookup(&self.tree, prefix)
    }

    /// [`probe`] on this index's tree.
    pub fn probe(&self, prefix: &[u8], sink: impl FnMut(Chunk<'_>)) -> Result<(Probed, u64)> {
        probe(&self.tree, prefix, sink)
    }

    /// The physical `(key, value)` entries representing one row: one entry
    /// per chunk, or a single stop entry. `tids` must be sorted and
    /// deduplicated.
    fn group_entries(&self, prefix: &[u8], tids: &[u32]) -> Vec<(Vec<u8>, Vec<u8>)> {
        debug_assert!(
            tids.windows(2).all(|w| w[0] < w[1]),
            "tids must be sorted unique"
        );
        let frequency = tids.len() as u32;
        if tids.len() > self.stop_threshold {
            return vec![(chunk_key(prefix, 0), encode_value(frequency, true, &[]))];
        }
        tids.chunks(TIDS_PER_CHUNK)
            .enumerate()
            .map(|(i, chunk)| {
                (
                    chunk_key(prefix, i as u32),
                    encode_value(frequency, false, chunk),
                )
            })
            .collect()
    }

    /// Insert the complete list of one absent row. `tids` must be sorted
    /// and deduplicated. Applies the stop rule.
    pub fn insert_group(&self, prefix: &[u8], tids: &[u32]) -> Result<()> {
        for (key, value) in self.group_entries(prefix, tids) {
            self.tree.insert(&key, &value)?;
        }
        Ok(())
    }

    /// Bulk-load an empty index from the external sorter's run of
    /// `prefix ‖ be32(tid)` records — the fast path of the initial build.
    /// Records arrive in `(prefix, tid)` order, which is the tree's key
    /// order, so rows are grouped on prefix equality and streamed straight
    /// into [`BTree::bulk_fill`] without materializing the index. A tid
    /// repeated within a row (two tokens of one tuple sharing the row) is
    /// listed once.
    pub fn bulk_fill(&self, mut sorted: SortedRun) -> Result<Filled> {
        let mut filled = Filled::default();
        // `BTree::bulk_fill` takes an infallible iterator: a failure ends
        // the stream like the end of the run does, and is returned once
        // the fill comes back.
        let mut error: Option<CoreError> = None;
        let mut row: Option<Vec<u8>> = None;
        let mut tids: Vec<u32> = Vec::new();
        let mut queue: VecDeque<(Vec<u8>, Vec<u8>)> = VecDeque::new();
        let mut done = false;
        let entries = std::iter::from_fn(|| loop {
            if let Some(entry) = queue.pop_front() {
                return Some(entry);
            }
            if done {
                return None;
            }
            let record = sorted.next_record().unwrap_or_else(|e| {
                error = Some(e.into());
                None
            });
            let next = record.as_deref().and_then(|record| {
                let split = split_u32(record);
                if split.is_none() {
                    let short = StoreError::Corrupt("build record shorter than a tid".into());
                    error = Some(short.into());
                }
                split
            });
            if let (Some((prefix, tid)), Some(current)) = (next, &row) {
                if current == prefix {
                    if tids.last() != Some(&tid) {
                        tids.push(tid);
                    }
                    continue;
                }
            }
            if let Some(finished) = row.take() {
                filled.groups += 1;
                filled.stop_groups += u64::from(tids.len() > self.stop_threshold);
                queue.extend(self.group_entries(&finished, &tids));
                tids.clear();
            }
            match next {
                Some((prefix, tid)) => {
                    row = Some(prefix.to_vec());
                    tids.push(tid);
                }
                None => done = true,
            }
        });
        self.tree.bulk_fill(entries)?;
        match error {
            Some(e) => Err(e),
            None => Ok(filled),
        }
    }

    /// Append one tid to a row (maintenance for a newly inserted reference
    /// tuple). Creates the row if absent; converts it to a stop row if the
    /// list outgrows the threshold; idempotent per tid.
    pub fn append_tid(&self, prefix: &[u8], tid: u32) -> Result<()> {
        let chunks = collect_chunks(&self.tree, prefix)?;
        let Some((last_key, last_freq, _, last_tids)) = chunks.last() else {
            return self.insert_group(prefix, &[tid]);
        };
        let (first_key, total, stop, first_tids) = &chunks[0];
        if *stop {
            // Already a stop row: just bump the frequency.
            self.tree
                .insert(first_key, &encode_value(total + 1, true, &[]))?;
            return Ok(());
        }
        if chunks.iter().any(|(_, _, _, tids)| tids.contains(&tid)) {
            return Ok(()); // another token of the same tuple hit this row
        }
        let new_total = total + 1;
        if new_total as usize > self.stop_threshold {
            // Convert to a stop row: rewrite chunk 0, drop the rest.
            for (key, _, _, _) in &chunks[1..] {
                self.tree.delete(key)?;
            }
            self.tree
                .insert(first_key, &encode_value(new_total, true, &[]))?;
            return Ok(());
        }
        // Refresh the authoritative frequency in chunk 0.
        self.tree
            .insert(first_key, &encode_value(new_total, false, first_tids))?;
        // Append to the last chunk or open a new one. New tids are minted
        // monotonically, so appending keeps chunks sorted.
        if last_tids.len() < TIDS_PER_CHUNK {
            let mut tids = last_tids.clone();
            tids.push(tid);
            tids.sort_unstable();
            let freq = if chunks.len() == 1 {
                new_total
            } else {
                *last_freq
            };
            self.tree
                .insert(last_key, &encode_value(freq, false, &tids))?;
        } else {
            // Numbered after the last *stored* chunk, not after the chunk
            // count: `remove_tid` may have left a gap below it, and the
            // count would then name a chunk that is still live.
            let (_, last_chunk) = split_u32(last_key)
                .ok_or_else(|| StoreError::Corrupt("posting key without a chunk number".into()))?;
            self.tree.insert(
                &chunk_key(prefix, last_chunk + 1),
                &encode_value(new_total, false, &[tid]),
            )?;
        }
        Ok(())
    }

    /// Remove one tid from a row (maintenance for a deleted reference
    /// tuple). Idempotent: a tid not present changes nothing — except in a
    /// stop row, whose membership is unknowable and whose frequency is
    /// therefore decremented regardless (stop-row frequencies are
    /// approximate by construction).
    pub fn remove_tid(&self, prefix: &[u8], tid: u32) -> Result<()> {
        let chunks = collect_chunks(&self.tree, prefix)?;
        let Some((first_key, total, stop, first_tids)) = chunks.first() else {
            return Ok(());
        };
        if *stop {
            self.tree
                .insert(first_key, &encode_value(total.saturating_sub(1), true, &[]))?;
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
            // Last tid: drop the whole row.
            for (key, _, _, _) in &chunks {
                self.tree.delete(key)?;
            }
            return Ok(());
        }
        // Remove from its chunk; an emptied non-zero chunk is deleted,
        // leaving a gap in the numbering (chunk 0 stays: it is the header).
        let (key, freq, _, tids) = &chunks[pos];
        let mut tids = tids.clone();
        tids.retain(|&t| t != tid);
        if tids.is_empty() && pos != 0 {
            self.tree.delete(key)?;
        } else {
            let freq = if pos == 0 { new_total } else { *freq };
            self.tree.insert(key, &encode_value(freq, false, &tids))?;
        }
        // Refresh the authoritative frequency in chunk 0 (if we didn't just
        // rewrite it above).
        if pos != 0 {
            self.tree
                .insert(first_key, &encode_value(new_total, false, first_tids))?;
        }
        Ok(())
    }

    /// Validate the whole index: the underlying B+-tree structure, then a
    /// full scan checking the row representation (DESIGN.md §4.5) —
    ///
    /// * every key is `prefix ‖ be32(chunk)` with a prefix `describe_row`
    ///   accepts (the key-scheme's decoder; its `Ok` text names the row in
    ///   every message), every value parses as a posting record (gap width
    ///   at most 32, body length exactly what `count` and `width` give);
    /// * a row starts at chunk 0 (its further chunk numbers ascend — the
    ///   tree's key order — but may skip: see [`PostingIndex::remove_tid`]);
    /// * chunk 0's frequency equals the number of stored tids (non-stop
    ///   rows), and the decoded tids strictly ascend — within a chunk no
    ///   gap sum wraps past `u32::MAX` — across the row's chunks, at most
    ///   [`TIDS_PER_CHUNK`] per chunk;
    /// * non-stop rows respect the stop threshold;
    /// * stop rows are a single chunk-0 entry with an empty (NULL) list;
    /// * emptied non-zero chunks were deleted, not left behind.
    ///
    /// (A stop row's frequency may legally sit below the threshold:
    /// [`PostingIndex::remove_tid`] decrements it approximately, and stop
    /// rows never convert back.) `label` names the index in messages.
    pub fn check_invariants(
        &self,
        label: &str,
        describe_row: impl Fn(&[u8]) -> Result<String>,
    ) -> Result<PostingCheck> {
        self.tree
            .check_invariants()
            .map_err(|e| StoreError::Corrupt(format!("{label} tree: {e}")))?;
        struct Row {
            prefix: Vec<u8>,
            name: String,
            chunks: usize,
            stop: bool,
            frequency: u32,
            last_tid: Option<u32>,
            total: usize,
        }
        let bad = |msg: String| CoreError::BadState(msg);
        let finish = |row: &Row, check: &mut PostingCheck| -> Result<()> {
            let name = &row.name;
            if row.stop {
                check.stop_groups += 1;
            } else {
                if row.frequency as usize != row.total {
                    return Err(bad(format!(
                        "{label} row {name}: chunk-0 frequency {} disagrees with \
                         {} stored tids",
                        row.frequency, row.total
                    )));
                }
                if row.total > self.stop_threshold {
                    return Err(bad(format!(
                        "{label} row {name}: {} tids exceed stop threshold {} \
                         without being a stop row",
                        row.total, self.stop_threshold
                    )));
                }
            }
            check.groups += 1;
            check.tids += row.total;
            Ok(())
        };
        let mut check = PostingCheck::default();
        let mut current: Option<Row> = None;
        for entry in self.tree.range(Bound::Unbounded, Bound::Unbounded)? {
            let (key, value) = entry?;
            let (prefix, chunk) = split_u32(&key)
                .ok_or_else(|| bad(format!("{label} key {key:?} has no chunk number")))?;
            let mut row = match current.take() {
                Some(row) if row.prefix == prefix => row,
                previous => {
                    if let Some(row) = previous {
                        finish(&row, &mut check)?;
                    }
                    let name = describe_row(prefix).map_err(|e| {
                        bad(format!("{label} key {key:?} does not decode as a row: {e}"))
                    })?;
                    if chunk != 0 {
                        return Err(bad(format!(
                            "{label} row {name}: first chunk is {chunk}, expected 0"
                        )));
                    }
                    Row {
                        prefix: prefix.to_vec(),
                        name,
                        chunks: 0,
                        stop: false,
                        frequency: 0,
                        last_tid: None,
                        total: 0,
                    }
                }
            };
            let name = &row.name;
            let (frequency, stop, tids) = decode_value(&value)
                .map_err(|e| bad(format!("{label} row {name} chunk {chunk}: {e}")))?;
            if tids.len() > TIDS_PER_CHUNK {
                return Err(bad(format!(
                    "{label} row {name} chunk {chunk}: {} tids in one chunk \
                     (cap is {TIDS_PER_CHUNK})",
                    tids.len()
                )));
            }
            // Decoding wraps, so a gap sum past `u32::MAX` shows here too.
            if !tids.windows(2).all(|w| w[0] < w[1]) {
                return Err(bad(format!(
                    "{label} row {name} chunk {chunk}: tids wrap or do not \
                     strictly ascend"
                )));
            }
            if row.chunks == 0 {
                if stop && !tids.is_empty() {
                    return Err(bad(format!(
                        "{label} row {name}: stop row carries {} tids, must have \
                         a NULL tid-list",
                        tids.len()
                    )));
                }
                row.stop = stop;
                row.frequency = frequency;
            } else {
                if row.stop || stop {
                    return Err(bad(format!(
                        "{label} row {name}: stop row must be a single chunk-0 \
                         entry, found chunk {chunk}"
                    )));
                }
                if tids.is_empty() {
                    return Err(bad(format!(
                        "{label} row {name}: empty non-zero chunk {chunk} should \
                         have been deleted"
                    )));
                }
                if let (Some(last), Some(&first)) = (row.last_tid, tids.first()) {
                    if first <= last {
                        return Err(bad(format!(
                            "{label} row {name}: tids not globally sorted across \
                             chunks (chunk {chunk} starts at {first} after {last})"
                        )));
                    }
                }
            }
            row.total += tids.len();
            row.last_tid = tids.last().copied().or(row.last_tid);
            row.chunks += 1;
            check.chunks += 1;
            current = Some(row);
        }
        if let Some(row) = current {
            finish(&row, &mut check)?;
        }
        Ok(check)
    }
}

#[cfg(test)]
impl PostingIndex {
    /// Write one raw chunk entry, bypassing every rule.
    pub(crate) fn put_raw(
        &self,
        prefix: &[u8],
        chunk: u32,
        frequency: u32,
        stop: bool,
        tids: &[u32],
    ) {
        self.put_raw_value(prefix, chunk, &encode_value(frequency, stop, tids));
    }

    /// Write one chunk entry whose value is `value`, encoded or not.
    pub(crate) fn put_raw_value(&self, prefix: &[u8], chunk: u32, value: &[u8]) {
        self.insert_raw(&chunk_key(prefix, chunk), value);
    }

    /// Write one physical entry as it is.
    pub(crate) fn insert_raw(&self, key: &[u8], value: &[u8]) {
        self.tree.insert(key, value).unwrap();
    }

    /// Every physical entry, in key order.
    pub(crate) fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let all = self.tree.range(Bound::Unbounded, Bound::Unbounded);
        all.unwrap().map(|entry| entry.unwrap()).collect()
    }
}

/// Report from a posting index's validator
/// ([`crate::eti::Eti::check_invariants`]), carried in
/// [`crate::MatcherCheck`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingCheck {
    /// Logical rows (distinct key prefixes).
    pub groups: usize,
    /// Physical B+-tree entries (chunks).
    pub chunks: usize,
    /// Rows stored as stop rows (NULL tid-list).
    pub stop_groups: usize,
    /// Total tids stored across all non-stop rows.
    pub tids: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eti::Eti;
    use fm_store::{BufferPool, ExternalSorter, MemPager};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn tree() -> BTree {
        BTree::create(Arc::new(BufferPool::new(Box::new(MemPager::new()), 64))).unwrap()
    }

    fn index(stop: usize) -> PostingIndex {
        PostingIndex::new(tree(), stop)
    }

    /// A key-scheme that accepts every prefix.
    fn check(index: &PostingIndex) -> Result<PostingCheck> {
        index.check_invariants("raw", |prefix| Ok(format!("{prefix:?}")))
    }

    /// A sorted, deduplicated list shaped to hit every width: runs of
    /// consecutive tids (width 0), small gaps, and gaps up to `u32::MAX`
    /// (a list `[0, u32::MAX]`).
    fn tid_list() -> impl Strategy<Value = Vec<u32>> {
        let gap = prop_oneof![
            4 => Just(0u32),
            4 => 0u32..64,
            2 => any::<u32>(),
            1 => Just(u32::MAX),
        ];
        (
            any::<u32>(),
            proptest::collection::vec(gap, 0..TIDS_PER_CHUNK),
        )
            .prop_map(|(first, gaps)| {
                let mut tids = vec![first];
                for gap in gaps {
                    let last = *tids.last().unwrap();
                    match last.checked_add(gap).and_then(|t| t.checked_add(1)) {
                        Some(tid) => tids.push(tid),
                        None => break,
                    }
                }
                tids
            })
    }

    fn round_trips(frequency: u32, stop: bool, tids: &[u32]) {
        let enc = encode_value(frequency, stop, tids);
        assert_eq!(
            decode_value(&enc).unwrap(),
            (frequency, stop, tids.to_vec())
        );
        let chunk = Chunk::parse(&enc).unwrap();
        assert_eq!(chunk.len(), tids.len());
        assert_eq!(chunk.tids().collect::<Vec<_>>(), tids);
        // Cut anywhere or lengthened, the value no longer parses.
        for cut in 0..enc.len() {
            assert!(Chunk::parse(&enc[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Chunk::parse(&[&enc[..], &[0]].concat()).is_err());
    }

    #[test]
    fn value_codec_edge_cases() {
        let full: Vec<u32> = (0..TIDS_PER_CHUNK as u32).map(|t| 1000 + 3 * t).collect();
        for (freq, stop, tids) in [
            (0u32, false, vec![]),
            (50_000, true, vec![]),
            (1, false, vec![u32::MAX]),
            (1, false, vec![0]),
            (3, false, vec![1, 2, 3]),
            (2, false, vec![0, u32::MAX]),
            (400, false, (7..407).collect()),
            (400, false, full),
        ] {
            round_trips(freq, stop, &tids);
        }
        // Widths as the layout promises: a consecutive run has no body, a
        // gap of `u32::MAX` takes all 32 bits.
        assert_eq!(encode_value(3, false, &[5, 6, 7]).len(), LIST_HEADER_LEN);
        let widest = encode_value(2, false, &[0, u32::MAX]);
        assert_eq!((widest[11], widest.len()), (32, LIST_HEADER_LEN + 4));
        assert_eq!(encode_value(0, false, &[]).len(), HEADER_LEN);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn value_codec_round_trip(tids in tid_list(), freq in any::<u32>(), stop in any::<bool>()) {
            round_trips(freq, stop, &tids);
        }

        /// Arbitrary bytes, headers that claim long lists included, parse
        /// to `Ok` or `Corrupt` and decode without a panic.
        #[test]
        fn parse_never_panics(
            head in proptest::collection::vec(any::<u8>(), 0..16),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = [head, body].concat();
            match Chunk::parse(&bytes) {
                Ok(chunk) => prop_assert_eq!(chunk.tids().count(), chunk.len()),
                Err(e) => prop_assert!(matches!(e, StoreError::Corrupt(_)), "{e}"),
            }
        }

        /// Any body of the length its header promises decodes (wrapping,
        /// never panicking) to `count` tids.
        #[test]
        fn any_well_sized_body_decodes(
            count in 1usize..=TIDS_PER_CHUNK,
            width in 0u32..=32,
            first in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let mut bytes = vec![0, 0, 0, 0, 0];
            bytes.extend_from_slice(&(count as u16).to_le_bytes());
            bytes.extend_from_slice(&first.to_le_bytes());
            bytes.push(width as u8);
            let mut x = seed;
            bytes.extend((0..body_len(count - 1, width)).map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            }));
            let chunk = Chunk::parse(&bytes).unwrap();
            prop_assert_eq!(chunk.tids().count(), count);
        }
    }

    #[test]
    fn probe_streams_what_lookup_materializes() {
        let tree = tree();
        // Three rows: a three-chunk list, a stop row, and a neighbour whose
        // key merely extends the first row's prefix bytes.
        let tids: Vec<u32> = (0..1000).collect();
        for (i, chunk) in tids.chunks(400).enumerate() {
            tree.insert(&[b'a', 0, i as u8], &encode_value(1000, false, chunk))
                .unwrap();
        }
        tree.insert(&[b'b', 0, 0], &encode_value(77, true, &[]))
            .unwrap();
        tree.insert(&[b'a', 1, 0], &encode_value(1, false, &[5]))
            .unwrap();

        let mut streamed = Vec::new();
        let (probed, rows) = probe(&tree, &[b'a', 0], |c| streamed.extend(c.tids())).unwrap();
        assert_eq!((probed, rows), (Probed::List { len: 1000 }, 3));
        assert_eq!(streamed, tids);
        let list = lookup(&tree, &[b'a', 0]).unwrap().unwrap();
        assert_eq!((list.frequency, list.tids), (1000, Some(tids)));

        let mut calls = 0;
        let (probed, rows) = probe(&tree, &[b'b', 0], |_| calls += 1).unwrap();
        assert_eq!((probed, rows, calls), (Probed::Stop, 1, 0));
        let list = lookup(&tree, &[b'b', 0]).unwrap().unwrap();
        assert_eq!((list.frequency, list.tids), (77, None));

        let (probed, rows) = probe(&tree, b"c", |_| calls += 1).unwrap();
        assert_eq!((probed, rows, calls), (Probed::Missing, 0, 0));
        assert_eq!(lookup(&tree, b"c").unwrap(), None);
    }

    #[test]
    fn a_malformed_chunk_fails_the_probe() {
        let tree = tree();
        tree.insert(b"k0", &encode_value(2, false, &[1, 2]))
            .unwrap();
        tree.insert(b"k1", &[0, 9]).unwrap();
        assert!(probe(&tree, b"k", |_| {}).is_err());
        assert!(lookup(&tree, b"k").is_err());
    }

    /// A bug `append_tid` once had: deleting every tid of a middle chunk
    /// leaves chunks 0 and 2, and a new chunk numbered by the chunk
    /// *count* (2) then replaced the live chunk 2.
    fn survives_a_gap(index: &PostingIndex, row: &[u8], check: &dyn Fn() -> Result<PostingCheck>) {
        let n = TIDS_PER_CHUNK as u32;
        index
            .insert_group(row, &(0..3 * n).collect::<Vec<_>>())
            .unwrap();
        for tid in n..2 * n {
            index.remove_tid(row, tid).unwrap();
        }
        assert_eq!(
            check().unwrap().chunks,
            2,
            "a numbering gap is a legal state"
        );
        index.append_tid(row, 3 * n).unwrap();
        let expected: Vec<u32> = (0..n).chain(2 * n..=3 * n).collect();
        let list = index.lookup(row).unwrap().unwrap();
        assert_eq!(list.frequency as usize, expected.len());
        assert_eq!(list.tids, Some(expected));
        assert_eq!(check().unwrap().chunks, 3);
    }

    #[test]
    fn an_append_after_a_middle_chunk_emptied_loses_nothing() {
        let eti = Eti::new(tree(), 10_000);
        let row = Eti::prefix("sea", 1, 0);
        survives_a_gap(&eti.postings, &row, &|| eti.check_invariants());
        // The index is keyed by opaque bytes: any prefix-free row does.
        let raw = index(10_000);
        survives_a_gap(&raw, &[0, 1, 0, 0, 0, 0, 0, 0, 0, 42], &|| check(&raw));
    }

    #[test]
    fn check_invariants_detects_multi_chunk_corruption() {
        // (stop threshold, raw chunks as (number, frequency, stop, tids),
        // message fragment). What a single raw chunk can show is seeded
        // through the key-scheme, in `crate::eti`.
        type Raw = (u32, u32, bool, Vec<u32>);
        let big: Vec<u32> = (0..=TIDS_PER_CHUNK as u32).collect();
        let cases: Vec<(usize, Vec<Raw>, &str)> = vec![
            (
                10,
                vec![(0, 2, false, vec![5]), (1, 2, false, vec![3])],
                "not globally sorted",
            ),
            (
                10,
                vec![(0, 1, false, vec![5]), (3, 1, false, vec![])],
                "should have been deleted",
            ),
            (
                10,
                vec![(0, 9, true, vec![]), (1, 9, false, vec![4])],
                "single chunk-0 entry",
            ),
            (
                10_000,
                vec![(0, big.len() as u32, false, big)],
                "tids in one chunk",
            ),
        ];
        for (stop, chunks, fragment) in cases {
            let index = index(stop);
            for (chunk, frequency, stop, tids) in chunks {
                index.put_raw(b"row", chunk, frequency, stop, &tids);
            }
            let err = check(&index).unwrap_err().to_string();
            assert!(
                err.contains(fragment) && err.contains("raw row"),
                "got: {err}"
            );
        }
        let index = index(10);
        index
            .tree
            .insert(b"abc", &encode_value(0, false, &[]))
            .unwrap();
        let err = check(&index).unwrap_err().to_string();
        assert!(err.contains("no chunk number"), "got: {err}");
    }

    /// Sort `records` (`prefix ‖ be32(tid)`) within `budget` bytes and
    /// bulk-fill a fresh index from the run.
    fn bulk_filled(records: &[Vec<u8>], budget: usize, stop: usize) -> (PostingIndex, Filled) {
        let mut sorter = ExternalSorter::with_budget(budget).unwrap();
        for record in records {
            sorter.push(record).unwrap();
        }
        let index = index(stop);
        let filled = index.bulk_fill(sorter.finish().unwrap()).unwrap();
        (index, filled)
    }

    #[test]
    fn bulk_fill_writes_exactly_the_entries_of_incremental_inserts() {
        // Five rows (terminated prefixes, so none begins another's key): one
        // of three chunks, one over the stop threshold, one whose gram
        // extends the first's and that lists a tid twice, two singletons.
        let lists: [(&[u8], Vec<u32>); 5] = [
            (b"a\x00\x01", (1..=1000).collect()),
            (b"a\x00\x02", (1..=1300).collect()),
            (b"ab\x00\x01", vec![7, 7, 9]),
            (b"b\x00\x01", vec![3]),
            (b"b\x00\x02", vec![2, 5]),
        ];
        let mut records = Vec::new();
        let mut grouped: BTreeMap<&[u8], BTreeSet<u32>> = BTreeMap::new();
        for (prefix, tids) in &lists {
            for tid in tids.iter().rev() {
                records.push([*prefix, &tid.to_be_bytes()[..]].concat());
                grouped.entry(prefix).or_default().insert(*tid);
            }
        }
        let (spilled, filled) = bulk_filled(&records, 256, 1200);
        assert_eq!(
            filled,
            Filled {
                groups: 5,
                stop_groups: 1
            }
        );
        let (in_memory, _) = bulk_filled(&records, 64 << 20, 1200);
        let incremental = index(1200);
        let mut expected = Vec::new();
        for (prefix, tids) in &grouped {
            let tids: Vec<u32> = tids.iter().copied().collect();
            incremental.insert_group(prefix, &tids).unwrap();
            expected.extend(incremental.group_entries(prefix, &tids));
        }
        assert_eq!(spilled.entries(), expected);
        assert_eq!(in_memory.entries(), expected);
        assert_eq!(incremental.entries(), expected);
        assert_eq!(expected.len(), 3 + 1 + 1 + 1 + 1);
        let report = check(&spilled).unwrap();
        assert_eq!(
            (report.groups, report.stop_groups, report.tids),
            (5, 1, 1005)
        );
        // A record too short to carry a tid fails the fill.
        let mut sorter = ExternalSorter::with_budget(1 << 20).unwrap();
        sorter.push(b"abc").unwrap();
        assert!(index(10).bulk_fill(sorter.finish().unwrap()).is_err());
    }

    /// What the model says a row holds.
    #[derive(Debug, Clone, PartialEq)]
    enum Model {
        List(BTreeSet<u32>),
        Stop(u32),
    }

    /// Small enough that rows cross it, large enough for three full chunks
    /// below it.
    const STOP: usize = 3 * TIDS_PER_CHUNK + 100;

    /// One call on the index, and what it must do to the row's model.
    #[derive(Debug)]
    enum Call {
        Insert(Vec<u32>),
        Append(u32),
        Remove(u32),
    }

    impl Call {
        fn apply(self, index: &PostingIndex, row: &[u8], model: Option<Model>) -> Option<Model> {
            match self {
                Call::Insert(tids) => {
                    index.insert_group(row, &tids).unwrap();
                    Some(match tids.len() > STOP {
                        true => Model::Stop(tids.len() as u32),
                        false => Model::List(tids.into_iter().collect()),
                    })
                }
                Call::Append(tid) => {
                    index.append_tid(row, tid).unwrap();
                    Some(match model.unwrap_or(Model::List(BTreeSet::new())) {
                        Model::Stop(frequency) => Model::Stop(frequency + 1),
                        Model::List(mut tids) => {
                            tids.insert(tid);
                            match tids.len() > STOP {
                                true => Model::Stop(tids.len() as u32),
                                false => Model::List(tids),
                            }
                        }
                    })
                }
                Call::Remove(tid) => {
                    index.remove_tid(row, tid).unwrap();
                    match model? {
                        // Stop rows count down blindly and never convert back.
                        Model::Stop(frequency) => Some(Model::Stop(frequency.saturating_sub(1))),
                        Model::List(mut tids) => {
                            tids.remove(&tid);
                            (!tids.is_empty()).then_some(Model::List(tids))
                        }
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `insert_group` of this many fresh tids (skipped on a live row).
        Insert(usize),
        /// `append_tid` of this many fresh tids, then of the last again.
        Append(usize),
        /// `append_tid` of fresh tids until the row's last physical chunk
        /// is full, and of one more, which has to open a new chunk.
        Overflow,
        /// `remove_tid` of a run of stored tids starting this far (‰) into
        /// the list, then of one tid that is not stored.
        Remove(usize, usize),
        /// `remove_tid` of every tid in the row's n-th physical chunk.
        EmptyChunk(usize),
    }

    fn op() -> impl Strategy<Value = (usize, Op)> {
        let op = prop_oneof![
            (1..STOP + 50).prop_map(Op::Insert),
            (1usize..40).prop_map(Op::Append),
            Just(Op::Overflow),
            (0usize..1000, 1usize..40).prop_map(|(at, n)| Op::Remove(at, n)),
            (0usize..4).prop_map(Op::EmptyChunk),
        ];
        // Half the traffic goes to the row that starts out long, so that it
        // loses chunks and grows again.
        (
            prop_oneof![3 => Just(0usize), 1 => Just(1), 1 => Just(2), 1 => Just(3)],
            op,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random interleavings of the three write paths keep `lookup`
        /// equal to a set-per-row model and the validator green after
        /// every call. Tids are minted in increasing order, as the matcher
        /// mints them.
        #[test]
        fn maintenance_matches_a_set_model(
            first in 2 * TIDS_PER_CHUNK + 1..=STOP,
            ops in proptest::collection::vec(op(), 1..16),
        ) {
            // "ab" and "abc": one gram extends the other, the encoded
            // prefixes do not; the last two are raw byte prefixes that
            // differ only in their final byte, so their rows are adjacent.
            let rows = [
                Eti::prefix("ab", 1, 0),
                Eti::prefix("abc", 1, 0),
                vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 7],
                vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 8],
            ];
            let index = index(STOP);
            let mut model: BTreeMap<&[u8], Model> = BTreeMap::new();
            let mut next_tid = 0u32;
            let agree = |model: &BTreeMap<&[u8], Model>, rows: &[&[u8]]| {
                for &row in rows {
                    let expected = model.get(row).map(|m| match m {
                        Model::List(tids) => TidList {
                            frequency: tids.len() as u32,
                            tids: Some(tids.iter().copied().collect()),
                        },
                        Model::Stop(frequency) => TidList { frequency: *frequency, tids: None },
                    });
                    prop_assert_eq!(index.lookup(row).unwrap(), expected);
                }
                prop_assert_eq!(check(&index).unwrap().groups, model.len());
            };
            // The first row starts out spanning three chunks.
            for (row, op) in std::iter::once((0, Op::Insert(first))).chain(ops) {
                let row = rows[row].as_slice();
                let stored: Vec<u32> = match model.get(row) {
                    Some(Model::List(tids)) => tids.iter().copied().collect(),
                    _ => Vec::new(),
                };
                let mut fresh = |n: usize| {
                    next_tid += n as u32;
                    next_tid - n as u32..next_tid
                };
                let calls: Vec<Call> = match op {
                    Op::Insert(_) if model.contains_key(row) => Vec::new(),
                    Op::Insert(n) => vec![Call::Insert(fresh(n).collect())],
                    Op::Append(n) => {
                        let tids = fresh(n);
                        tids.clone().chain(tids.last()).map(Call::Append).collect()
                    }
                    Op::Overflow => {
                        let chunks = collect_chunks(&index.tree, row).unwrap();
                        let room = TIDS_PER_CHUNK - chunks.last().map_or(0, |c| c.3.len());
                        fresh(room + 1).map(Call::Append).collect()
                    }
                    Op::Remove(at, n) => {
                        let run = stored.iter().skip(at * stored.len() / 1000).take(n);
                        run.chain([&u32::MAX]).copied().map(Call::Remove).collect()
                    }
                    Op::EmptyChunk(nth) => {
                        let mut chunks = collect_chunks(&index.tree, row).unwrap();
                        let nth = nth % chunks.len().max(1);
                        let tids = chunks.drain(..).nth(nth).map_or(Vec::new(), |c| c.3);
                        tids.into_iter().map(Call::Remove).collect()
                    }
                };
                // The touched row after every call, every row after every op.
                for call in calls {
                    match call.apply(&index, row, model.remove(row)) {
                        Some(after) => model.insert(row, after),
                        None => None,
                    };
                    agree(&model, &[row]);
                }
                agree(&model, &rows.each_ref().map(Vec::as_slice));
            }
        }
    }
}
