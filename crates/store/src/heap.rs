//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a chain of [`PageType::Heap`] pages linked through the
//! page header's `next_page` field. Records are addressed by [`Rid`]
//! (page id + slot) — slot ids are stable for the life of the record, so a
//! `Rid` stored in an index (the reference relation's tid index, the ETI's
//! chunk records) stays valid until the record is deleted.
//!
//! Records must fit in one page ([`crate::page::MAX_RECORD`] bytes); larger
//! logical values are chunked by the layer above, exactly as the ETI chunks
//! its tid-lists.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::error::{Result, StoreError};
use crate::lockorder::{Ranked, TAIL_HINT};
use crate::page::{PageId, PageType, SlottedPage, SlottedPageMut};

/// Record identifier: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

impl Rid {
    /// Pack into a u64 for storage inside index values.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page.0) << 16) | u64::from(self.slot)
    }

    /// Unpack from [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid {
            page: PageId((v >> 16) as u32),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// A heap file over a buffer pool.
///
/// Inserts go to the tail page (a hint protected by a mutex); when the
/// record does not fit, a new page is chained. Concurrent readers are
/// unrestricted; concurrent inserters serialize on the tail.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first_page: PageId,
    tail_hint: Ranked<Mutex<PageId>, TAIL_HINT>,
}

impl HeapFile {
    /// Create a new heap file, allocating its first page.
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        let first = {
            let (id, mut page) = pool.allocate()?;
            SlottedPageMut::new(&mut page).init(PageType::Heap);
            id
        };
        Ok(HeapFile {
            pool,
            first_page: first,
            tail_hint: Ranked::new(Mutex::new(first)),
        })
    }

    /// Open an existing heap file rooted at `first_page`.
    ///
    /// The tail hint starts at the first page and advances lazily on the
    /// first insert.
    pub fn open(pool: Arc<BufferPool>, first_page: PageId) -> HeapFile {
        HeapFile {
            pool,
            first_page,
            tail_hint: Ranked::new(Mutex::new(first_page)),
        }
    }

    /// The id of the first page (persist this to reopen the file).
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Insert a record, returning its stable [`Rid`].
    pub fn insert(&self, record: &[u8]) -> Result<Rid> {
        let mut tail = self.tail_hint.lock();
        loop {
            // Walk to the true tail from the hint.
            let next = {
                let page = self.pool.get(*tail)?;
                SlottedPage::new(&page).next_page()
            };
            if next.is_none() {
                break;
            }
            *tail = next;
        }
        // Try the tail page.
        {
            let mut page = self.pool.get_mut(*tail)?;
            let mut sp = SlottedPageMut::new(&mut page);
            match sp.push(record) {
                Ok(slot) => return Ok(Rid { page: *tail, slot }),
                Err(StoreError::RecordTooLarge { .. }) => {} // fall through
                Err(e) => return Err(e),
            }
        }
        // Chain a new page. (Records larger than a page are rejected by the
        // fresh page's push below.)
        let new_id = {
            let (id, mut page) = self.pool.allocate()?;
            SlottedPageMut::new(&mut page).init(PageType::Heap);
            id
        };
        {
            let mut page = self.pool.get_mut(*tail)?;
            SlottedPageMut::new(&mut page).set_next_page(new_id);
        }
        *tail = new_id;
        let mut page = self.pool.get_mut(new_id)?;
        let slot = SlottedPageMut::new(&mut page).push(record)?;
        Ok(Rid { page: new_id, slot })
    }

    /// Fetch the record at `rid`. Returns `NotFound` for dead or absent
    /// slots.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        let page = self.pool.get(rid.page)?;
        let sp = SlottedPage::new(&page);
        if sp.page_type()? != PageType::Heap {
            return Err(StoreError::Corrupt(format!("{rid}: not a heap page")));
        }
        sp.get(rid.slot)
            .map(|c| c.to_vec())
            .ok_or_else(|| StoreError::NotFound(format!("record {rid}")))
    }

    /// Delete the record at `rid` (idempotent).
    pub fn delete(&self, rid: Rid) -> Result<()> {
        let mut page = self.pool.get_mut(rid.page)?;
        SlottedPageMut::new(&mut page).mark_deleted(rid.slot);
        Ok(())
    }

    /// Iterate over all live records as `(Rid, bytes)` pairs, in page order.
    ///
    /// The scan copies one page's records at a time, so it never holds a
    /// page pin across yields; concurrent inserts to later pages are
    /// observed, deletes of not-yet-visited records are observed.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            next_page: self.first_page,
            current: Vec::new().into_iter(),
        }
    }

    /// Call `visit` with every live record, in page order, borrowed from its
    /// page rather than copied out of it. The page stays pinned and
    /// read-latched while its records are visited, so `visit` must not
    /// write to this heap.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(Rid, &[u8]) -> Result<()>) -> Result<()> {
        let mut id = self.first_page;
        while !id.is_none() {
            let page = self.pool.get(id)?;
            let sp = SlottedPage::new(&page);
            for (slot, cell) in sp.iter() {
                visit(Rid { page: id, slot }, cell)?;
            }
            id = sp.next_page();
        }
        Ok(())
    }

    fn load_page_records(&self, id: PageId) -> Result<(Vec<RecordEntry>, PageId)> {
        let page = self.pool.get(id)?;
        let sp = SlottedPage::new(&page);
        let records = sp
            .iter()
            .map(|(slot, cell)| (Rid { page: id, slot }, cell.to_vec()))
            .collect();
        Ok((records, sp.next_page()))
    }

    /// Validate the heap file's structural invariants and return a summary:
    /// every chained page is a [`PageType::Heap`] page with a sound slotted
    /// layout ([`SlottedPage::check_invariants`]), and the chain is acyclic
    /// (terminates at [`PageId::NONE`] without revisiting a page).
    pub fn check_invariants(&self) -> Result<HeapCheck> {
        let mut visited = std::collections::HashSet::new();
        let mut check = HeapCheck {
            pages: 0,
            live_records: 0,
            dead_slots: 0,
        };
        let mut id = self.first_page;
        while !id.is_none() {
            if !visited.insert(id) {
                return Err(StoreError::Corrupt(format!(
                    "heap page chain revisits {id} (cycle)"
                )));
            }
            let page = self.pool.get(id)?;
            let sp = SlottedPage::new(&page);
            sp.check_invariants()
                .map_err(|e| StoreError::Corrupt(format!("heap page {id}: {e}")))?;
            if sp.page_type()? != PageType::Heap {
                return Err(StoreError::Corrupt(format!(
                    "page {id} in heap chain has type {:?}",
                    sp.page_type()?
                )));
            }
            let live = sp.iter().count();
            check.pages += 1;
            check.live_records += live;
            check.dead_slots += sp.slot_count() as usize - live;
            id = sp.next_page();
        }
        Ok(check)
    }
}

/// Structural summary returned by [`HeapFile::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCheck {
    pub pages: usize,
    pub live_records: usize,
    /// Slots marked deleted but still occupying directory entries (their
    /// ids are reserved forever — see the module docs).
    pub dead_slots: usize,
}

/// One scanned record: its rid and bytes.
type RecordEntry = (Rid, Vec<u8>);

/// Iterator over the live records of a heap file.
pub struct HeapScan<'a> {
    heap: &'a HeapFile,
    next_page: PageId,
    current: std::vec::IntoIter<RecordEntry>,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(Rid, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(Ok(item));
            }
            if self.next_page.is_none() {
                return None;
            }
            match self.heap.load_page_records(self.next_page) {
                Ok((records, next)) => {
                    self.next_page = next;
                    self.current = records.into_iter();
                }
                Err(e) => {
                    self.next_page = PageId::NONE;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemPager::new()), 16))
    }

    #[test]
    fn rid_u64_round_trip() {
        for rid in [
            Rid {
                page: PageId(0),
                slot: 0,
            },
            Rid {
                page: PageId(123),
                slot: 456,
            },
            Rid {
                page: PageId(u32::MAX - 1),
                slot: u16::MAX,
            },
        ] {
            assert_eq!(Rid::from_u64(rid.to_u64()), rid);
        }
    }

    #[test]
    fn insert_get_round_trip() {
        let heap = HeapFile::create(pool()).unwrap();
        let r1 = heap.insert(b"alpha").unwrap();
        let r2 = heap.insert(b"beta").unwrap();
        assert_eq!(heap.get(r1).unwrap(), b"alpha");
        assert_eq!(heap.get(r2).unwrap(), b"beta");
    }

    #[test]
    fn spills_to_multiple_pages() {
        let heap = HeapFile::create(pool()).unwrap();
        let record = vec![5u8; 3000];
        let rids: Vec<Rid> = (0..10).map(|_| heap.insert(&record).unwrap()).collect();
        let pages: std::collections::HashSet<PageId> = rids.iter().map(|r| r.page).collect();
        assert!(
            pages.len() >= 4,
            "expected multiple pages, got {}",
            pages.len()
        );
        for rid in rids {
            assert_eq!(heap.get(rid).unwrap(), record);
        }
    }

    #[test]
    fn record_larger_than_page_rejected() {
        let heap = HeapFile::create(pool()).unwrap();
        let record = vec![1u8; crate::page::MAX_RECORD + 1];
        assert!(matches!(
            heap.insert(&record),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn delete_then_get_fails_but_others_live() {
        let heap = HeapFile::create(pool()).unwrap();
        let a = heap.insert(b"a").unwrap();
        let b = heap.insert(b"b").unwrap();
        heap.delete(a).unwrap();
        assert!(matches!(heap.get(a), Err(StoreError::NotFound(_))));
        assert_eq!(heap.get(b).unwrap(), b"b");
        // Idempotent delete.
        heap.delete(a).unwrap();
    }

    #[test]
    fn scan_visits_all_live_records_in_order() {
        let heap = HeapFile::create(pool()).unwrap();
        let mut expect = Vec::new();
        for i in 0..500u32 {
            let rec = format!("record-{i:04}").into_bytes();
            let rid = heap.insert(&rec).unwrap();
            expect.push((rid, rec));
        }
        heap.delete(expect[100].0).unwrap();
        heap.delete(expect[250].0).unwrap();
        expect.remove(250);
        expect.remove(100);
        let got: Vec<(Rid, Vec<u8>)> = heap.scan().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_empty_heap() {
        let heap = HeapFile::create(pool()).unwrap();
        assert_eq!(heap.scan().count(), 0);
    }

    #[test]
    fn reopen_heap_by_first_page() {
        let pool = pool();
        let first;
        let rid;
        {
            let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
            first = heap.first_page();
            rid = heap.insert(b"persisted").unwrap();
        }
        let heap = HeapFile::open(pool, first);
        assert_eq!(heap.get(rid).unwrap(), b"persisted");
        // Inserts continue after reopen.
        let rid2 = heap.insert(b"more").unwrap();
        assert_eq!(heap.get(rid2).unwrap(), b"more");
    }

    #[test]
    fn concurrent_inserts_do_not_lose_records() {
        use std::sync::Arc as SArc;
        let heap = SArc::new(HeapFile::create(pool()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let heap = SArc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                (0..200)
                    .map(|i| {
                        let rec = format!("t{t}-r{i}").into_bytes();
                        (heap.insert(&rec).unwrap(), rec)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<(Rid, Vec<u8>)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // Every rid readable with the right contents; all rids distinct.
        let mut rids: Vec<Rid> = all.iter().map(|(r, _)| *r).collect();
        rids.sort_unstable();
        rids.dedup();
        assert_eq!(rids.len(), 800);
        for (rid, rec) in &all {
            assert_eq!(&heap.get(*rid).unwrap(), rec);
        }
        assert_eq!(heap.scan().count(), 800);
    }

    #[test]
    fn check_invariants_accepts_healthy_heap() {
        let pool = pool();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let c = heap.check_invariants().unwrap();
        assert_eq!(
            c,
            HeapCheck {
                pages: 1,
                live_records: 0,
                dead_slots: 0
            }
        );
        let record = vec![5u8; 3000];
        let rids: Vec<Rid> = (0..10).map(|_| heap.insert(&record).unwrap()).collect();
        heap.delete(rids[3]).unwrap();
        heap.delete(rids[7]).unwrap();
        let c = heap.check_invariants().unwrap();
        assert!(c.pages >= 4);
        assert_eq!(c.live_records, 8);
        assert_eq!(c.dead_slots, 2);
    }

    #[test]
    fn check_invariants_detects_chain_cycle() {
        let pool = pool();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let record = vec![5u8; 3000];
        for _ in 0..10 {
            heap.insert(&record).unwrap();
        }
        // Loop the second page back to the first.
        let second = {
            let page = pool.get(heap.first_page()).unwrap();
            SlottedPage::new(&page).next_page()
        };
        {
            let mut page = pool.get_mut(second).unwrap();
            SlottedPageMut::new(&mut page).set_next_page(heap.first_page());
        }
        let err = heap.check_invariants().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn check_invariants_detects_foreign_page_in_chain() {
        let pool = pool();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        heap.insert(b"x").unwrap();
        let (other, mut page) = pool.allocate().unwrap();
        SlottedPageMut::new(&mut page).init(PageType::BTreeLeaf);
        drop(page);
        {
            let mut page = pool.get_mut(heap.first_page()).unwrap();
            SlottedPageMut::new(&mut page).set_next_page(other);
        }
        let err = heap.check_invariants().unwrap_err();
        assert!(err.to_string().contains("has type"), "{err}");
    }

    #[test]
    fn get_on_non_heap_page_is_corrupt() {
        let pool = pool();
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let _ = heap.insert(b"x").unwrap();
        // Allocate a page that is NOT a heap page and poke at it.
        let (other, mut page) = pool.allocate().unwrap();
        SlottedPageMut::new(&mut page).init(PageType::BTreeLeaf);
        drop(page);
        assert!(matches!(
            heap.get(Rid {
                page: other,
                slot: 0
            }),
            Err(StoreError::Corrupt(_))
        ));
    }
}
