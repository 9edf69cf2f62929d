//! Page stores.
//!
//! A [`Pager`] is the lowest layer: it reads and writes whole pages by
//! [`PageId`]. Three implementations:
//!
//! * [`FilePager`] — a single file, pages addressed by offset, `pread`/
//!   `pwrite`-style positional I/O so concurrent readers never contend on a
//!   seek cursor;
//! * [`MemPager`] — anonymous in-memory pages for tests and throwaway
//!   databases;
//! * [`FaultPager`] — wraps another pager and fails after a configurable
//!   number of operations, for failure-injection tests.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{Result, StoreError};
use crate::lockorder::{Ranked, MEM_PAGES};
use crate::page::{PageId, PAGE_SIZE};

/// A store of fixed-size pages.
///
/// Implementations must be safe for concurrent use: the buffer pool above
/// issues reads and writes from multiple threads.
pub trait Pager: Send + Sync {
    /// Read page `id` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (`PAGE_SIZE` bytes) as page `id`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Allocate a fresh page id at the end of the store. The page contents
    /// are undefined until first written.
    fn allocate(&self) -> Result<PageId>;

    /// Number of pages in the store (allocated ids are `0..page_count`).
    fn page_count(&self) -> u32;

    /// Flush durability buffers (fsync for files; no-op in memory).
    fn sync(&self) -> Result<()>;

    /// Cumulative bytes appended to a write-ahead log, if this pager keeps
    /// one. Monotonic across checkpoints (truncating the log does not reset
    /// it); pagers without a WAL report 0.
    fn wal_bytes(&self) -> u64 {
        0
    }
}

/// File-backed pager.
///
/// Page `i` lives at byte offset `i * PAGE_SIZE`. Allocation extends the
/// logical page count; the file itself grows on first write of the new page
/// (reading an allocated-but-never-written page returns zeroes, which decode
/// as a `Free` page).
pub struct FilePager {
    file: File,
    page_count: AtomicU32,
}

impl FilePager {
    /// Open (or create) the file at `path`. An existing file must be a
    /// whole number of pages.
    pub fn open(path: &Path) -> Result<FilePager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StoreError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        let pages = (len / PAGE_SIZE as u64) as u32;
        Ok(FilePager {
            file,
            page_count: AtomicU32::new(pages),
        })
    }

    fn check(&self, id: PageId) -> Result<u64> {
        if id.is_none() || id.0 >= self.page_count.load(Ordering::Acquire) {
            return Err(StoreError::InvalidPageId(u64::from(id.0)));
        }
        Ok(u64::from(id.0) * PAGE_SIZE as u64)
    }
}

impl Pager for FilePager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let off = self.check(id)?;
        // A page that was allocated but never written lies beyond EOF:
        // present it as zeroes.
        let file_len = self.file.metadata()?.len();
        if off >= file_len {
            buf.fill(0);
            return Ok(());
        }
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let off = self.check(id)?;
        self.file.write_all_at(buf, off)?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.page_count.fetch_add(1, Ordering::AcqRel);
        if id == u32::MAX {
            return Err(StoreError::InvalidPageId(u64::from(u32::MAX)));
        }
        Ok(PageId(id))
    }

    fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory pager for tests and ephemeral databases.
#[derive(Default)]
pub struct MemPager {
    pages: Ranked<RwLock<Vec<Box<[u8]>>>, MEM_PAGES>,
}

impl MemPager {
    pub fn new() -> MemPager {
        MemPager::default()
    }
}

impl Pager for MemPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.read();
        let page = pages
            .get(id.0 as usize)
            .ok_or(StoreError::InvalidPageId(u64::from(id.0)))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.write();
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or(StoreError::InvalidPageId(u64::from(id.0)))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.write();
        let id = pages.len() as u32;
        pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        Ok(PageId(id))
    }

    fn page_count(&self) -> u32 {
        self.pages.read().len() as u32
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Failure-injecting pager: passes operations through to `inner` until the
/// operation budget is exhausted, then fails every call.
///
/// Exercises error paths in the buffer pool, heap, B+-tree and ETI build —
/// a storage engine that only works when I/O succeeds is not a storage
/// engine.
pub struct FaultPager<P: Pager> {
    inner: P,
    ops_left: AtomicU64,
}

impl<P: Pager> FaultPager<P> {
    /// Fail all I/O after `budget` successful operations.
    pub fn new(inner: P, budget: u64) -> FaultPager<P> {
        FaultPager {
            inner,
            ops_left: AtomicU64::new(budget),
        }
    }

    fn spend(&self) -> Result<()> {
        // Saturating decrement: once zero, stay zero and fail.
        let mut cur = self.ops_left.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return Err(StoreError::InjectedFault);
            }
            match self
                .ops_left
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<P: Pager> Pager for FaultPager<P> {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.spend()?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.spend()?;
        self.inner.write_page(id, buf)
    }

    fn allocate(&self) -> Result<PageId> {
        self.spend()?;
        self.inner.allocate()
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn sync(&self) -> Result<()> {
        self.spend()?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fm-store-pager-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn mem_pager_round_trip() {
        let pager = MemPager::new();
        let id = pager.allocate().unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        pager.write_page(id, &page).unwrap();
        let mut back = vec![0u8; PAGE_SIZE];
        pager.read_page(id, &mut back).unwrap();
        assert_eq!(page, back);
    }

    #[test]
    fn mem_pager_rejects_unallocated() {
        let pager = MemPager::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(pager.read_page(PageId(0), &mut buf).is_err());
        assert!(pager.write_page(PageId(3), &buf).is_err());
    }

    #[test]
    fn file_pager_round_trip_and_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let pager = FilePager::open(&path).unwrap();
            let a = pager.allocate().unwrap();
            let b = pager.allocate().unwrap();
            assert_ne!(a, b);
            let mut page = vec![0u8; PAGE_SIZE];
            page[7] = 77;
            pager.write_page(b, &page).unwrap();
            pager.sync().unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            // Page b was written so the file has 2 pages.
            assert_eq!(pager.page_count(), 2);
            let mut back = vec![0u8; PAGE_SIZE];
            pager.read_page(PageId(1), &mut back).unwrap();
            assert_eq!(back[7], 77);
            // Page a was allocated but never written: reads as zeroes.
            pager.read_page(PageId(0), &mut back).unwrap();
            assert!(back.iter().all(|&b| b == 0));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_rejects_out_of_range() {
        let path = temp_path("range");
        let _ = std::fs::remove_file(&path);
        let pager = FilePager::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            pager.read_page(PageId(0), &mut buf),
            Err(StoreError::InvalidPageId(_))
        ));
        assert!(pager.read_page(PageId::NONE, &mut buf).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_rejects_ragged_file() {
        let path = temp_path("ragged");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 1]).unwrap();
        assert!(matches!(
            FilePager::open(&path),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn allocation_is_monotonic() {
        let pager = MemPager::new();
        let ids: Vec<u32> = (0..10).map(|_| pager.allocate().unwrap().0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
        assert_eq!(pager.page_count(), 10);
    }

    #[test]
    fn fault_pager_fails_after_budget() {
        let pager = FaultPager::new(MemPager::new(), 3);
        let id = pager.allocate().unwrap(); // op 1
        let buf = vec![0u8; PAGE_SIZE];
        pager.write_page(id, &buf).unwrap(); // op 2
        let mut back = vec![0u8; PAGE_SIZE];
        pager.read_page(id, &mut back).unwrap(); // op 3
        assert!(matches!(
            pager.read_page(id, &mut back),
            Err(StoreError::InjectedFault)
        ));
        // Stays failed.
        assert!(pager.allocate().is_err());
        assert!(pager.sync().is_err());
    }

    #[test]
    fn concurrent_mem_pager_access() {
        use std::sync::Arc;
        let pager = Arc::new(MemPager::new());
        let ids: Vec<PageId> = (0..8).map(|_| pager.allocate().unwrap()).collect();
        let mut handles = Vec::new();
        for (t, &id) in ids.iter().enumerate() {
            let pager = Arc::clone(&pager);
            handles.push(std::thread::spawn(move || {
                let mut page = vec![t as u8; PAGE_SIZE];
                for _ in 0..50 {
                    pager.write_page(id, &page).unwrap();
                    pager.read_page(id, &mut page).unwrap();
                    assert!(page.iter().all(|&b| b == t as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
