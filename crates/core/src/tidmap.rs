//! The tid map (DESIGN §11): per tid, where its reference tuple lives and
//! a 9-byte [`TokenSketch`](fm_text::TokenSketch) of each of its tokens —
//! the prints tier 1 of `Similarity::fms_at_least` takes from the raw row,
//! reduced — appended column by column to two token arrays, a column's
//! duplicates dropped (a minimum over them does not see them). A deleted
//! tuple's sketches stay there, unreferenced, until the next open.
//!
//! The token arrays are blocks of at most [`BLOCK`] sketches, so no single
//! allocation exceeds 512 KiB and growth never copies more than one
//! block. Larger ones, freed when a matcher is dropped, raise glibc's
//! dynamic mmap threshold, after which the heap keeps freed memory
//! resident: one 4 MiB array cost ≈ 5 MiB of peak RSS across the
//! benchmark's repeated set-ups.

use fm_text::Tokenizer;

use crate::sim::RowSketch;

/// A rid slot that names no row.
const NO_ROW: u64 = u64::MAX;
/// A start slot that names no sketch: a dead tid, or a tuple with a token
/// or a token count a byte cannot hold.
const NO_SKETCH: u32 = u32::MAX;
/// Token sketches per block of `once`/`chars`.
const BLOCK: usize = 1 << 16;
/// Most sketches one tuple may have: its column ends are bytes.
const MAX_TOKENS: usize = u8::MAX as usize;

#[derive(Debug, Default)]
pub(crate) struct TidMap {
    arity: usize,
    /// Per tid: its tuple's rid (`Rid::to_u64`), or [`NO_ROW`].
    rids: Vec<u64>,
    /// Per tid: `block · BLOCK + index` of its first sketch, or
    /// [`NO_SKETCH`]. A tuple's sketches lie in one block.
    starts: Vec<u32>,
    /// Per tid, `arity` bytes: where each column's sketches end, from its
    /// start.
    ends: Vec<u8>,
    /// Per token sketch, in blocks: the "at least one" bucket mask and the
    /// length.
    once: Vec<Vec<u64>>,
    chars: Vec<Vec<u8>>,
}

impl TidMap {
    pub(crate) fn new(arity: usize) -> TidMap {
        TidMap {
            arity,
            ..TidMap::default()
        }
    }

    /// A map of one tuple, at tid 0: the sketch its `values` give.
    pub(crate) fn of_row<'v>(
        arity: usize,
        tokenizer: &Tokenizer,
        values: impl Iterator<Item = Option<&'v str>>,
    ) -> TidMap {
        let mut map = TidMap::new(arity);
        map.set_rid(0, 0);
        map.set_sketch(0, tokenizer, values);
        map
    }

    /// One past the highest tid with a slot.
    pub(crate) fn len(&self) -> usize {
        self.rids.len()
    }

    /// Where `tid`'s tuple lives, if anywhere.
    pub(crate) fn rid(&self, tid: u32) -> Option<u64> {
        let rid = *self.rids.get(tid as usize)?;
        (rid != NO_ROW).then_some(rid)
    }

    /// `tid`'s token sketches, if it is live and sketched.
    pub(crate) fn sketch(&self, tid: u32) -> Option<RowSketch<'_>> {
        self.rid(tid)?;
        let slot = tid as usize;
        let start = *self.starts.get(slot).filter(|&&s| s != NO_SKETCH)? as usize;
        let (block, at) = (start / BLOCK, start % BLOCK);
        let ends = self.ends.get(slot * self.arity..(slot + 1) * self.arity)?;
        let end = at + usize::from(*ends.last()?);
        Some(RowSketch {
            once: self.once.get(block)?.get(at..end)?,
            chars: self.chars.get(block)?.get(at..end)?,
            ends,
        })
    }

    /// The first tid that names a row or keeps a sketch though `live` says
    /// no tuple carries it.
    pub(crate) fn stale(&self, live: &[bool]) -> Option<usize> {
        (0..self.len()).find(|&tid| {
            (self.rids[tid] != NO_ROW || self.starts[tid] != NO_SKETCH)
                && live.get(tid) != Some(&true)
        })
    }

    /// Point `tid` at `rid`, growing the per-tid arrays to reach it.
    pub(crate) fn set_rid(&mut self, tid: u32, rid: u64) {
        let slot = tid as usize;
        if self.rids.len() <= slot {
            self.rids.resize(slot + 1, NO_ROW);
            self.starts.resize(slot + 1, NO_SKETCH);
            self.ends.resize((slot + 1) * self.arity, 0);
        }
        self.rids[slot] = rid;
    }

    /// Sketch the attribute `values` (`None` = NULL) of `tid`, which has a
    /// slot, as `tokenizer` tokenizes them.
    pub(crate) fn set_sketch<'v>(
        &mut self,
        tid: u32,
        tokenizer: &Tokenizer,
        values: impl Iterator<Item = Option<&'v str>>,
    ) {
        let slot = tid as usize;
        if self
            .once
            .last()
            .map_or(true, |b| b.len() + MAX_TOKENS > BLOCK)
        {
            self.once.push(Vec::new());
            self.chars.push(Vec::new());
        }
        let block = self.once.len() - 1;
        let (once, chars) = (&mut self.once[block], &mut self.chars[block]);
        let at = once.len();
        let mut fits = true;
        for (col, value) in values.enumerate().take(self.arity) {
            let column = once.len();
            tokenizer.for_each_print(value.unwrap_or(""), |print| match print.sketch() {
                Some(s) if once.len() - at < MAX_TOKENS => {
                    let mut seen = once[column..].iter().zip(&chars[column..]);
                    if !seen.any(|(&o, &c)| (o, c) == (s.once, s.chars)) {
                        once.push(s.once);
                        chars.push(s.chars);
                    }
                }
                _ => fits = false,
            });
            match u8::try_from(once.len() - at) {
                Ok(end) => self.ends[slot * self.arity + col] = end,
                Err(_) => fits = false,
            }
        }
        match u32::try_from(block * BLOCK + at) {
            Ok(start) if fits && start != NO_SKETCH => self.starts[slot] = start,
            _ => {
                once.truncate(at);
                chars.truncate(at);
                self.starts[slot] = NO_SKETCH;
            }
        }
    }

    /// Forget `tid`: no row, no sketch.
    pub(crate) fn clear(&mut self, tid: u32) {
        if let Some(rid) = self.rids.get_mut(tid as usize) {
            *rid = NO_ROW;
            self.starts[tid as usize] = NO_SKETCH;
        }
    }

    /// The rid and start slots and the first block of masks, for tests
    /// that corrupt them.
    #[cfg(test)]
    pub(crate) fn slots_mut(&mut self) -> (&mut [u64], &mut [u32], &mut [u64]) {
        (&mut self.rids, &mut self.starts, &mut self.once[0])
    }
}
