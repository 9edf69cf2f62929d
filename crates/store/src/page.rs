//! Slotted pages.
//!
//! Every relation and index in the substrate is stored in fixed-size
//! [`PAGE_SIZE`] pages using the classic slotted layout: a header, a slot
//! directory growing upward, and variable-length cells growing downward from
//! the end of the page.
//!
//! ```text
//! +--------------------+---------------------+.......+------------------+
//! | header (16 bytes)  | slot dir (4 B/slot) | free  | cells            |
//! +--------------------+---------------------+.......+------------------+
//! 0                    16                    ^free    ^free_end      8192
//! ```
//!
//! Two mutation disciplines are offered because the two consumers need
//! different invariants:
//!
//! * heap files use [`SlottedPageMut::push`] / [`SlottedPageMut::mark_deleted`]
//!   — slot ids are stable forever (they are half of a [`crate::heap::Rid`]);
//! * the B+-tree uses [`SlottedPageMut::insert_at`] / [`SlottedPageMut::remove_at`]
//!   — the slot directory is kept sorted by key, so entries shift.
//!
//! A truncating cast or an unchecked index here would corrupt or abort on
//! a bad page, so clippy denies both in this module; the few vetted sites
//! carry an `#[allow]` with their reason.

#![deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::error::{Result, StoreError};

/// Size of every page in bytes. 8 KiB matches SQL Server's page size — the
/// system the paper was implemented on.
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header.
pub const HEADER_SIZE: usize = 16;

/// Size of one slot-directory entry (offset u16 + len u16).
const SLOT_SIZE: usize = 4;

/// Sentinel offset marking a dead (deleted) slot.
const DEAD: u16 = u16::MAX;

/// The largest record a single page can store (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

/// An offset or length inside a page. All of them are at most
/// [`PAGE_SIZE`], which the assertion above proves fits the u16
/// slot-directory fields.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn page_u16(v: usize) -> u16 {
    debug_assert!(v <= PAGE_SIZE);
    v as u16
}

/// Identifier of a page within a page store. Page 0 is the store header and
/// is never handed out by allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel meaning "no page" (chain terminator).
    pub const NONE: PageId = PageId(u32::MAX);

    #[must_use]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Role of a page, stored in the first header byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    Free = 0,
    Heap = 1,
    BTreeLeaf = 2,
    BTreeInternal = 3,
    Meta = 4,
}

impl PageType {
    pub fn from_u8(v: u8) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::Heap,
            2 => PageType::BTreeLeaf,
            3 => PageType::BTreeInternal,
            4 => PageType::Meta,
            other => return Err(StoreError::Corrupt(format!("bad page type {other}"))),
        })
    }
}

// The four header/slot-directory accessors below index at offsets derived
// from the fixed 16-byte header layout or `HEADER_SIZE + SLOT_SIZE * i`
// with `i < slot_count`, into buffers whose PAGE_SIZE length the
// constructors assert. Every caller sits in this module; an out-of-range
// offset therefore means the *code* is wrong, not the data, which is
// exactly what a panic is for.

#[inline]
#[allow(clippy::indexing_slicing)] // fixed header/slot offsets in a PAGE_SIZE buffer
fn read_u16(data: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([data[at], data[at + 1]])
}

#[inline]
#[allow(clippy::indexing_slicing)] // fixed header/slot offsets in a PAGE_SIZE buffer
fn write_u16(data: &mut [u8], at: usize, v: u16) {
    data[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
#[allow(clippy::indexing_slicing)] // fixed header/slot offsets in a PAGE_SIZE buffer
fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

#[inline]
#[allow(clippy::indexing_slicing)] // fixed header/slot offsets in a PAGE_SIZE buffer
fn write_u32(data: &mut [u8], at: usize, v: u32) {
    data[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read-only view of a slotted page.
#[derive(Clone, Copy)]
pub struct SlottedPage<'a> {
    data: &'a [u8],
}

impl<'a> SlottedPage<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPage { data }
    }

    #[allow(clippy::indexing_slicing)] // byte 0 of a PAGE_SIZE buffer always exists
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.data[0])
    }

    pub fn slot_count(&self) -> u16 {
        read_u16(self.data, 2)
    }

    /// Offset of the lowest cell (cells occupy `free_end..PAGE_SIZE`).
    fn free_end(&self) -> u16 {
        read_u16(self.data, 6)
    }

    /// The chain field: next heap page / right leaf sibling / leftmost child
    /// of an internal B+-tree node, depending on page type.
    pub fn next_page(&self) -> PageId {
        PageId(read_u32(self.data, 8))
    }

    /// A spare u32 for the page's owner (the B+-tree stores its level here).
    pub fn aux(&self) -> u32 {
        read_u32(self.data, 12)
    }

    /// Bytes of the cell in slot `i`, or `None` if the slot is dead.
    pub fn get(&self, i: u16) -> Option<&'a [u8]> {
        if i >= self.slot_count() {
            return None;
        }
        let at = HEADER_SIZE + SLOT_SIZE * i as usize;
        let off = read_u16(self.data, at);
        if off == DEAD {
            return None;
        }
        let len = read_u16(self.data, at + 2) as usize;
        // Checked: a corrupt cell offset reads as a missing cell, not a
        // process abort — callers treat `None` as a dead slot.
        self.data.get(off as usize..off as usize + len)
    }

    /// Contiguous free bytes available for one more insertion (slot included).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize;
        let free = self.free_end() as usize - dir_end;
        free.saturating_sub(SLOT_SIZE)
    }

    /// Free bytes that a [`SlottedPageMut::compact`] would make available for
    /// one more insertion: contiguous free space plus dead cell space.
    pub fn free_space_after_compaction(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|i| self.get(i))
            .map(|c| c.len())
            .sum();
        let dir_end = HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize;
        (PAGE_SIZE - dir_end - live).saturating_sub(SLOT_SIZE)
    }

    /// Iterate over `(slot, cell)` pairs of live slots.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let n = self.slot_count();
        (0..n).filter_map(move |i| self.get(i).map(|c| (i, c)))
    }

    /// Validate the page's physical layout invariants:
    ///
    /// * the page type byte is a known [`PageType`];
    /// * the slot directory fits between the header and `free_end`;
    /// * `free_end` never exceeds [`PAGE_SIZE`];
    /// * every live cell lies entirely in `free_end..PAGE_SIZE` (so cells
    ///   can never overlap the directory);
    /// * no two live cells overlap each other (free-space accounting would
    ///   be wrong otherwise).
    ///
    /// Returns `StoreError::Corrupt` with the offending slot on failure.
    pub fn check_invariants(&self) -> Result<()> {
        self.page_type()?;
        let n = self.slot_count();
        let dir_end = HEADER_SIZE + SLOT_SIZE * n as usize;
        let free_end = self.free_end() as usize;
        if free_end > PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "page free_end {free_end} exceeds page size {PAGE_SIZE}"
            )));
        }
        if dir_end > free_end {
            return Err(StoreError::Corrupt(format!(
                "slot directory ({n} slots, ends at {dir_end}) overlaps cell area (free_end {free_end})"
            )));
        }
        let mut extents: Vec<(usize, usize, u16)> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let at = HEADER_SIZE + SLOT_SIZE * i as usize;
            let off = read_u16(self.data, at) as usize;
            if off == DEAD as usize {
                continue;
            }
            let len = read_u16(self.data, at + 2) as usize;
            if off < free_end || off + len > PAGE_SIZE {
                return Err(StoreError::Corrupt(format!(
                    "slot {i} cell [{off}, {}) outside cell area [{free_end}, {PAGE_SIZE})",
                    off + len
                )));
            }
            extents.push((off, off + len, i));
        }
        extents.sort_unstable();
        for (&(_, end_a, slot_a), &(start_b, _, slot_b)) in
            extents.iter().zip(extents.iter().skip(1))
        {
            if start_b < end_a {
                return Err(StoreError::Corrupt(format!(
                    "cells of slots {slot_a} and {slot_b} overlap at offset {start_b}"
                )));
            }
        }
        Ok(())
    }
}

/// Mutable view of a slotted page.
pub struct SlottedPageMut<'a> {
    data: &'a mut [u8],
}

impl<'a> SlottedPageMut<'a> {
    pub fn new(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPageMut { data }
    }

    /// Format the page as empty with the given type.
    #[allow(clippy::indexing_slicing)] // HEADER_SIZE is far below PAGE_SIZE
    pub fn init(&mut self, page_type: PageType) {
        self.data[..HEADER_SIZE].fill(0);
        self.data[0] = page_type as u8;
        write_u16(self.data, 2, 0); // slot_count
        write_u16(self.data, 6, page_u16(PAGE_SIZE)); // free_end
        write_u32(self.data, 8, PageId::NONE.0);
        write_u32(self.data, 12, 0);
    }

    pub fn view(&self) -> SlottedPage<'_> {
        SlottedPage { data: self.data }
    }

    pub fn set_next_page(&mut self, p: PageId) {
        write_u32(self.data, 8, p.0);
    }

    pub fn set_aux(&mut self, v: u32) {
        write_u32(self.data, 12, v);
    }

    fn set_slot(&mut self, i: u16, off: u16, len: u16) {
        let at = HEADER_SIZE + SLOT_SIZE * i as usize;
        write_u16(self.data, at, off);
        write_u16(self.data, at + 2, len);
    }

    fn set_slot_count(&mut self, n: u16) {
        write_u16(self.data, 2, n);
    }

    fn set_free_end(&mut self, v: u16) {
        write_u16(self.data, 6, v);
    }

    /// Write `cell` into the cell area and point slot `i` at it. Caller
    /// must have verified fit.
    #[allow(clippy::indexing_slicing)] // every caller checks free_space() fit first
    fn write_cell(&mut self, i: u16, cell: &[u8]) {
        let free_end = self.view().free_end() as usize;
        let off = free_end - cell.len();
        self.data[off..free_end].copy_from_slice(cell);
        self.set_free_end(page_u16(off));
        self.set_slot(i, page_u16(off), page_u16(cell.len()));
    }

    /// Append a cell with a stable slot id (heap discipline).
    ///
    /// Returns the new slot id, or an error if the cell cannot fit even
    /// after compaction.
    pub fn push(&mut self, cell: &[u8]) -> Result<u16> {
        if cell.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge {
                len: cell.len(),
                max: MAX_RECORD,
            });
        }
        if self.view().free_space() < cell.len() {
            if self.view().free_space_after_compaction() < cell.len() {
                return Err(StoreError::RecordTooLarge {
                    len: cell.len(),
                    max: self.view().free_space_after_compaction(),
                });
            }
            self.compact();
        }
        let n = self.view().slot_count();
        self.write_cell(n, cell);
        self.set_slot_count(n + 1);
        Ok(n)
    }

    /// Mark slot `i` dead without disturbing other slot ids (heap
    /// discipline). Idempotent.
    pub fn mark_deleted(&mut self, i: u16) {
        if i < self.view().slot_count() {
            self.set_slot(i, DEAD, 0);
        }
    }

    /// Insert a cell at directory position `i`, shifting later slots right
    /// (B+-tree discipline — keeps the directory sorted).
    pub fn insert_at(&mut self, i: u16, cell: &[u8]) -> Result<()> {
        if cell.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge {
                len: cell.len(),
                max: MAX_RECORD,
            });
        }
        let n = self.view().slot_count();
        assert!(i <= n, "insert_at past end: {i} > {n}");
        if self.view().free_space() < cell.len() {
            if self.view().free_space_after_compaction() < cell.len() {
                return Err(StoreError::RecordTooLarge {
                    len: cell.len(),
                    max: self.view().free_space_after_compaction(),
                });
            }
            self.compact();
        }
        // Shift directory entries [i, n) one slot right.
        let start = HEADER_SIZE + SLOT_SIZE * i as usize;
        let end = HEADER_SIZE + SLOT_SIZE * n as usize;
        self.data.copy_within(start..end, start + SLOT_SIZE);
        self.write_cell(i, cell);
        self.set_slot_count(n + 1);
        Ok(())
    }

    /// Remove the slot at directory position `i`, shifting later slots left
    /// (B+-tree discipline). The cell space becomes dead until compaction.
    pub fn remove_at(&mut self, i: u16) {
        let n = self.view().slot_count();
        assert!(i < n, "remove_at past end: {i} >= {n}");
        let start = HEADER_SIZE + SLOT_SIZE * (i as usize + 1);
        let end = HEADER_SIZE + SLOT_SIZE * n as usize;
        self.data.copy_within(start..end, start - SLOT_SIZE);
        self.set_slot_count(n - 1);
    }

    /// Replace the cell at slot `i` with `cell`. The old space becomes dead;
    /// compaction reclaims it. Slot id is preserved.
    pub fn replace(&mut self, i: u16, cell: &[u8]) -> Result<()> {
        let n = self.view().slot_count();
        assert!(i < n, "replace past end");
        if cell.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge {
                len: cell.len(),
                max: MAX_RECORD,
            });
        }
        // In-place rewrite when sizes match. Checked: a corrupt cell offset
        // falls through to the kill-and-rewrite path below, which lays the
        // cell down fresh instead of aborting.
        let at = HEADER_SIZE + SLOT_SIZE * i as usize;
        let off = read_u16(self.data, at);
        let len = read_u16(self.data, at + 2);
        if off != DEAD && len as usize == cell.len() {
            if let Some(dst) = self.data.get_mut(off as usize..off as usize + len as usize) {
                dst.copy_from_slice(cell);
                return Ok(());
            }
        }
        // Kill the slot so the old cell's space counts as reclaimable, then
        // check fit. No new slot entry is needed, so the SLOT_SIZE that
        // `free_space*` reserves for one comes back.
        self.set_slot(i, DEAD, 0);
        let have = self.view().free_space_after_compaction() + SLOT_SIZE;
        if have < cell.len() {
            self.set_slot(i, off, len); // restore; the old cell is untouched
            return Err(StoreError::RecordTooLarge {
                len: cell.len(),
                max: have,
            });
        }
        if self.view().free_space() + SLOT_SIZE < cell.len() {
            self.compact();
        }
        self.write_cell(i, cell);
        Ok(())
    }

    /// Rewrite all live cells contiguously at the end of the page,
    /// reclaiming dead space. Slot ids are preserved.
    pub fn compact(&mut self) {
        let n = self.view().slot_count();
        // Collect live cells (slot, bytes). Cells are small; copying via a
        // scratch buffer keeps the code simple and safe.
        let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(n as usize);
        for i in 0..n {
            if let Some(cell) = self.view().get(i) {
                live.push((i, cell.to_vec()));
            }
        }
        self.set_free_end(page_u16(PAGE_SIZE));
        for (i, cell) in live {
            self.write_cell(i, &cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(pt: PageType) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        SlottedPageMut::new(&mut buf).init(pt);
        buf
    }

    #[test]
    fn init_sets_header() {
        let buf = fresh(PageType::Heap);
        let p = SlottedPage::new(&buf);
        assert_eq!(p.page_type().unwrap(), PageType::Heap);
        assert_eq!(p.slot_count(), 0);
        assert!(p.next_page().is_none());
        assert_eq!(p.aux(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE - SLOT_SIZE);
    }

    #[test]
    fn push_and_get() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        let a = p.push(b"hello").unwrap();
        let b = p.push(b"world!").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        let v = p.view();
        assert_eq!(v.get(0), Some(&b"hello"[..]));
        assert_eq!(v.get(1), Some(&b"world!"[..]));
        assert_eq!(v.get(2), None);
    }

    #[test]
    fn empty_cells_are_allowed() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        let s = p.push(b"").unwrap();
        assert_eq!(p.view().get(s), Some(&b""[..]));
    }

    #[test]
    fn mark_deleted_keeps_other_slots_stable() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        p.push(b"a").unwrap();
        p.push(b"b").unwrap();
        p.push(b"c").unwrap();
        p.mark_deleted(1);
        let v = p.view();
        assert_eq!(v.get(0), Some(&b"a"[..]));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(2), Some(&b"c"[..]));
        assert_eq!(v.slot_count(), 3);
    }

    #[test]
    fn fill_page_until_full_then_error() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        let cell = [7u8; 100];
        let mut count = 0u16;
        loop {
            match p.push(&cell) {
                Ok(_) => count += 1,
                Err(StoreError::RecordTooLarge { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // 104 bytes per record (100 + 4 slot): expect ~78 records.
        assert!(count >= 70, "only {count} records fit");
        // Everything still readable.
        let v = p.view();
        for i in 0..count {
            assert_eq!(v.get(i), Some(&cell[..]));
        }
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        let cell = vec![1u8; MAX_RECORD];
        p.push(&cell).unwrap();
        assert_eq!(p.view().get(0).unwrap().len(), MAX_RECORD);
        assert!(p.push(b"x").is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        let cell = vec![1u8; MAX_RECORD + 1];
        assert!(matches!(
            p.push(&cell),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        // Fill with 1000-byte cells, delete all but one, then a big cell
        // must fit via compaction.
        let cell = vec![2u8; 1000];
        let mut slots = Vec::new();
        while let Ok(s) = p.push(&cell) {
            slots.push(s);
        }
        for &s in &slots[1..] {
            p.mark_deleted(s);
        }
        let big = vec![3u8; 6000];
        let s = p.push(&big).unwrap();
        assert_eq!(p.view().get(s), Some(&big[..]));
        assert_eq!(p.view().get(slots[0]), Some(&cell[..]));
    }

    #[test]
    fn insert_at_keeps_order() {
        let mut buf = fresh(PageType::BTreeLeaf);
        let mut p = SlottedPageMut::new(&mut buf);
        p.insert_at(0, b"b").unwrap();
        p.insert_at(0, b"a").unwrap();
        p.insert_at(2, b"d").unwrap();
        p.insert_at(2, b"c").unwrap();
        let v = p.view();
        let cells: Vec<&[u8]> = (0..v.slot_count()).map(|i| v.get(i).unwrap()).collect();
        assert_eq!(cells, vec![b"a" as &[u8], b"b", b"c", b"d"]);
    }

    #[test]
    fn remove_at_shifts_left() {
        let mut buf = fresh(PageType::BTreeLeaf);
        let mut p = SlottedPageMut::new(&mut buf);
        for c in [b"a", b"b", b"c"] {
            let n = p.view().slot_count();
            p.insert_at(n, c).unwrap();
        }
        p.remove_at(1);
        let v = p.view();
        assert_eq!(v.slot_count(), 2);
        assert_eq!(v.get(0), Some(&b"a"[..]));
        assert_eq!(v.get(1), Some(&b"c"[..]));
    }

    #[test]
    fn replace_same_size_in_place() {
        let mut buf = fresh(PageType::BTreeLeaf);
        let mut p = SlottedPageMut::new(&mut buf);
        p.insert_at(0, b"xxxx").unwrap();
        p.replace(0, b"yyyy").unwrap();
        assert_eq!(p.view().get(0), Some(&b"yyyy"[..]));
    }

    #[test]
    fn replace_grows_with_compaction() {
        let mut buf = fresh(PageType::BTreeLeaf);
        let mut p = SlottedPageMut::new(&mut buf);
        // Nearly fill the page.
        let filler = vec![9u8; 4000];
        p.insert_at(0, &filler).unwrap();
        p.insert_at(1, b"tiny").unwrap();
        // Replace the filler with something that only fits if its own dead
        // space is reclaimed.
        let bigger = vec![8u8; 7000];
        p.replace(0, &bigger).unwrap();
        assert_eq!(p.view().get(0), Some(&bigger[..]));
        assert_eq!(p.view().get(1), Some(&b"tiny"[..]));
    }

    #[test]
    fn replace_too_large_errors_and_slot_dead() {
        let mut buf = fresh(PageType::BTreeLeaf);
        let mut p = SlottedPageMut::new(&mut buf);
        p.insert_at(0, b"abc").unwrap();
        let huge = vec![1u8; PAGE_SIZE];
        assert!(p.replace(0, &huge).is_err());
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        p.push(b"a").unwrap();
        p.push(b"b").unwrap();
        p.push(b"c").unwrap();
        p.mark_deleted(1);
        let v = p.view();
        let pairs: Vec<(u16, &[u8])> = v.iter().collect();
        assert_eq!(pairs, vec![(0, &b"a"[..]), (2, &b"c"[..])]);
    }

    #[test]
    fn next_page_and_aux_round_trip() {
        let mut buf = fresh(PageType::BTreeInternal);
        let mut p = SlottedPageMut::new(&mut buf);
        p.set_next_page(PageId(42));
        p.set_aux(7);
        let v = p.view();
        assert_eq!(v.next_page(), PageId(42));
        assert_eq!(v.aux(), 7);
    }

    #[test]
    fn bad_page_type_detected() {
        let mut buf = fresh(PageType::Heap);
        buf[0] = 99;
        assert!(SlottedPage::new(&buf).page_type().is_err());
    }

    #[test]
    fn check_invariants_accepts_healthy_pages() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        p.push(b"alpha").unwrap();
        p.push(b"beta").unwrap();
        p.push(b"gamma").unwrap();
        p.mark_deleted(1);
        p.view().check_invariants().unwrap();
        p.compact();
        p.view().check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_detects_directory_overrunning_cells() {
        let mut buf = fresh(PageType::Heap);
        SlottedPageMut::new(&mut buf).push(b"abc").unwrap();
        // Claim far more slots than the free space allows.
        buf[2..4].copy_from_slice(&4000u16.to_le_bytes());
        let err = SlottedPage::new(&buf).check_invariants().unwrap_err();
        assert!(err.to_string().contains("overlaps cell area"), "{err}");
    }

    #[test]
    fn check_invariants_detects_out_of_bounds_cell() {
        let mut buf = fresh(PageType::Heap);
        SlottedPageMut::new(&mut buf).push(b"abc").unwrap();
        // Point slot 0 past the end of the page.
        let at = HEADER_SIZE;
        buf[at..at + 2].copy_from_slice(&(page_u16(PAGE_SIZE) - 1).to_le_bytes());
        let err = SlottedPage::new(&buf).check_invariants().unwrap_err();
        assert!(err.to_string().contains("outside cell area"), "{err}");
    }

    #[test]
    fn check_invariants_detects_overlapping_cells() {
        let mut buf = fresh(PageType::Heap);
        let mut p = SlottedPageMut::new(&mut buf);
        p.push(b"aaaa").unwrap();
        p.push(b"bbbb").unwrap();
        // Shift slot 1's cell up so it overlaps slot 0's (both stay within
        // the cell area: free_end is 8 bytes below slot 0's offset).
        let off0 = {
            let at = HEADER_SIZE;
            u16::from_le_bytes([buf[at], buf[at + 1]])
        };
        let at1 = HEADER_SIZE + SLOT_SIZE;
        buf[at1..at1 + 2].copy_from_slice(&(off0 - 1).to_le_bytes());
        let err = SlottedPage::new(&buf).check_invariants().unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");
    }
}
