//! The chunked posting-list row shared by the ETI and the LSH tier: the
//! value codec, and the one read path over it.
//!
//! A logical row (`(gram, coordinate, column)` in the ETI, `(column, band,
//! key)` in the LSH index) is a run of consecutive B+-tree entries sharing
//! a key prefix, one per chunk. Each value is
//! `[flags:u8][frequency:u32][count:u16][count × tid:u32]`, little-endian;
//! chunk 0's flags and frequency speak for the whole row.
//!
//! Every reader goes through [`for_each_chunk`], which walks the row on
//! the pinned leaf ([`BTree::for_each_prefix`]) and hands out [`Chunk`]s
//! that *borrow* the page bytes. The query path ([`probe`]) streams tids
//! from there straight into the score table — no value copy, no decoded
//! `Vec<u32>`, no concatenated list; [`lookup`] materializes a [`TidList`]
//! for maintenance and diagnostics.

use fm_store::{BTree, StoreError};

use crate::error::Result;
use crate::eti::TidList;

const FLAG_STOP: u8 = 1;
const HEADER_LEN: usize = 7;

pub(crate) fn encode_value(frequency: u32, stop: bool, tids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 4 * tids.len());
    out.push(if stop { FLAG_STOP } else { 0 });
    out.extend_from_slice(&frequency.to_le_bytes());
    out.extend_from_slice(&(tids.len() as u16).to_le_bytes());
    for &tid in tids {
        out.extend_from_slice(&tid.to_le_bytes());
    }
    out
}

/// One stored chunk, validated but not decoded: the header fields plus the
/// raw little-endian tid bytes, borrowed from wherever the value lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk<'a> {
    pub frequency: u32,
    pub stop: bool,
    tids: &'a [u8],
}

impl<'a> Chunk<'a> {
    pub fn parse(bytes: &'a [u8]) -> std::result::Result<Chunk<'a>, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Corrupt("posting value too short".into()));
        }
        let stop = bytes[0] & FLAG_STOP != 0;
        let frequency = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        let count = u16::from_le_bytes([bytes[5], bytes[6]]) as usize;
        if bytes.len() != HEADER_LEN + 4 * count {
            return Err(StoreError::Corrupt("posting value length mismatch".into()));
        }
        Ok(Chunk {
            frequency,
            stop,
            tids: &bytes[HEADER_LEN..],
        })
    }

    /// Number of tids in this chunk.
    pub fn len(&self) -> usize {
        self.tids.len() / 4
    }

    /// The chunk's tids, decoded on the fly.
    pub fn tids(&self) -> impl Iterator<Item = u32> + 'a {
        self.tids
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
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

#[cfg(test)]
mod tests {
    use super::*;
    use fm_store::{BufferPool, MemPager};
    use std::sync::Arc;

    #[test]
    fn value_codec_round_trip() {
        for (freq, stop, tids) in [
            (0u32, false, vec![]),
            (3, false, vec![1, 2, 3]),
            (50_000, true, vec![]),
            (1, false, vec![u32::MAX]),
        ] {
            let enc = encode_value(freq, stop, &tids);
            assert_eq!(decode_value(&enc).unwrap(), (freq, stop, tids.clone()));
            let chunk = Chunk::parse(&enc).unwrap();
            assert_eq!(chunk.len(), tids.len());
            assert_eq!(chunk.tids().collect::<Vec<_>>(), tids);
        }
        assert!(decode_value(&[1, 2]).is_err());
        assert!(decode_value(&encode_value(1, false, &[7])[..8]).is_err());
    }

    #[test]
    fn probe_streams_what_lookup_materializes() {
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let tree = BTree::create(pool).unwrap();
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
        let pool = Arc::new(BufferPool::new(Box::new(MemPager::new()), 64));
        let tree = BTree::create(pool).unwrap();
        tree.insert(b"k0", &encode_value(2, false, &[1, 2]))
            .unwrap();
        tree.insert(b"k1", &[0, 9]).unwrap();
        assert!(probe(&tree, b"k", |_| {}).is_err());
        assert!(lookup(&tree, b"k").is_err());
    }
}
