//! Write-ahead logging: atomic, durable checkpoints.
//!
//! [`crate::pager::FilePager`] alone gives no crash safety: a crash during
//! [`crate::buffer::BufferPool::flush`] can tear the database file across
//! page writes (a B+-tree parent updated, its child not). [`WalPager`]
//! wraps a main file with a physical, redo-only, page-image log:
//!
//! * **between checkpoints**, every page write-back (buffer-pool eviction
//!   or flush) is appended to the WAL only — the main file is never touched,
//!   so it always holds exactly the last checkpoint's state;
//! * **at checkpoint** ([`Pager::sync`], i.e. `BufferPool::flush`), a COMMIT
//!   record is appended and the WAL fsynced — that is the durability point —
//!   then every logged page is copied into the main file, the main file
//!   fsynced, and the WAL truncated;
//! * **on open**, a non-empty WAL is replayed up to its last COMMIT (a torn
//!   tail or a crash mid-copy is repaired by re-applying the committed
//!   images) and then truncated.
//!
//! The contract this gives the layers above: the database file reopens in
//! the state of the **last completed `flush()`**, atomically — never a
//! mixture of two flushes, never a torn page (records carry checksums).
//!
//! Reads go through an in-memory table of WAL-resident pages, so the pager
//! stays transparent to the buffer pool.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{Result, StoreError};
use crate::lockorder::{Ranked, WAL};
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::{FilePager, Pager};

const RECORD_PAGE: u8 = 1;
const RECORD_COMMIT: u8 = 2;
/// Header: tag(1) + page_id(4) + checksum(8).
const HEADER_LEN: u64 = 13;

/// `(tag, page id, checksum)` of a record header.
fn decode_header(header: [u8; HEADER_LEN as usize]) -> (u8, u32, u64) {
    let [tag, p0, p1, p2, p3, sum @ ..] = header;
    (
        tag,
        u32::from_le_bytes([p0, p1, p2, p3]),
        u64::from_le_bytes(sum),
    )
}

/// CRC-less checksum: the seeded FNV/SplitMix hash used across the project.
/// Detects torn records; adversarial corruption is out of scope.
fn checksum(page_id: u32, payload: &[u8]) -> u64 {
    // Reuse the deterministic hash from fm-text? fm-store must stay
    // dependency-free of it; a small FNV-1a suffices.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut acc = FNV_OFFSET ^ u64::from(page_id).rotate_left(32);
    for chunk in payload.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        acc ^= u64::from_le_bytes(buf);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

struct WalState {
    file: File,
    /// Append offset.
    len: u64,
    /// Latest WAL offset (of the payload) per page since last checkpoint.
    resident: HashMap<PageId, u64>,
}

/// Report from [`WalPager::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalCheck {
    /// Page records currently in the log (0 right after a checkpoint).
    pub records: usize,
    /// Distinct pages with a WAL-resident image.
    pub resident_pages: usize,
}

/// A crash-safe pager: main file + write-ahead log. See the module docs for
/// the protocol.
pub struct WalPager {
    main: FilePager,
    wal_path: PathBuf,
    wal: Ranked<Mutex<WalState>, WAL>,
    /// Logical page count (the main pager's count can lag while pages live
    /// only in the WAL).
    page_count: AtomicU32,
    /// Cumulative bytes ever appended to the WAL (records + commits); never
    /// reset by checkpoints, unlike [`WalPager::wal_len`].
    bytes_appended: AtomicU64,
}

impl WalPager {
    /// Open (or create) the database at `path` with its WAL at
    /// `<path>.wal`. Replays and truncates any committed WAL left over
    /// from a crash.
    pub fn open(path: &Path) -> Result<WalPager> {
        let mut wal_path = path.as_os_str().to_owned();
        wal_path.push(".wal");
        let wal_path = PathBuf::from(wal_path);

        // Recovery before anything reads the main file.
        Self::recover(path, &wal_path)?;

        let main = FilePager::open(path)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true) // recovery already consumed it
            .open(&wal_path)?;
        let count = main.page_count();
        Ok(WalPager {
            main,
            wal_path,
            wal: Ranked::new(Mutex::new(WalState {
                file,
                len: 0,
                resident: HashMap::new(),
            })),
            page_count: AtomicU32::new(count),
            bytes_appended: AtomicU64::new(0),
        })
    }

    /// The WAL file path (exposed for tests simulating crashes by copying
    /// files mid-session).
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Bytes currently in the WAL (0 right after a checkpoint).
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().len
    }

    /// Validate the WAL's on-disk record chain and in-memory bookkeeping.
    ///
    /// The WAL has no explicit LSN field; its "LSN" is the record's byte
    /// offset, and monotonicity means the records tile `0..len` exactly,
    /// each one well-formed. Checks:
    ///
    /// * every record between checkpoints is a page record (COMMIT exists
    ///   only transiently inside [`Pager::sync`]) with a valid page id and a
    ///   checksum matching its payload;
    /// * records are contiguous — offsets strictly increase with no gaps or
    ///   torn tail up to the tracked append offset;
    /// * the resident map points each page at the payload offset of its
    ///   **latest** logged image, and tracks exactly the pages logged since
    ///   the last checkpoint.
    pub fn check_invariants(&self) -> Result<WalCheck> {
        let wal = self.wal.lock();
        let mut expected_resident: HashMap<PageId, u64> = HashMap::new();
        let mut records = 0usize;
        let mut offset = 0u64;
        let mut header = [0u8; HEADER_LEN as usize];
        while offset < wal.len {
            if offset + HEADER_LEN + PAGE_SIZE as u64 > wal.len {
                return Err(StoreError::Corrupt(format!(
                    "wal record at offset {offset} torn (wal length {})",
                    wal.len
                )));
            }
            wal.file.read_exact_at(&mut header, offset)?;
            let (tag, page_id, sum) = decode_header(header);
            if tag != RECORD_PAGE {
                return Err(StoreError::Corrupt(format!(
                    "wal record at offset {offset} has tag {tag} (expected page record {RECORD_PAGE})"
                )));
            }
            if page_id >= self.page_count.load(Ordering::Acquire) {
                return Err(StoreError::Corrupt(format!(
                    "wal record at offset {offset} references unallocated page {page_id}"
                )));
            }
            let mut payload = vec![0u8; PAGE_SIZE];
            wal.file.read_exact_at(&mut payload, offset + HEADER_LEN)?;
            if checksum(page_id, &payload) != sum {
                return Err(StoreError::Corrupt(format!(
                    "wal record at offset {offset} (page {page_id}) fails its checksum"
                )));
            }
            expected_resident.insert(PageId(page_id), offset + HEADER_LEN);
            records += 1;
            offset += HEADER_LEN + PAGE_SIZE as u64;
        }
        if expected_resident != wal.resident {
            return Err(StoreError::Corrupt(format!(
                "wal resident map tracks {} pages but the log holds {} \
                 (bookkeeping out of sync with the record chain)",
                wal.resident.len(),
                expected_resident.len()
            )));
        }
        Ok(WalCheck {
            records,
            resident_pages: expected_resident.len(),
        })
    }

    /// Apply any committed WAL records at `wal_path` to `main_path`, then
    /// delete the WAL.
    fn recover(main_path: &Path, wal_path: &Path) -> Result<()> {
        let Ok(wal) = File::open(wal_path) else {
            return Ok(()); // no WAL: clean shutdown or first open
        };
        let wal_size = wal.metadata()?.len();
        // Scan records; remember page images, applying only up to the last
        // COMMIT.
        let mut committed: HashMap<u32, u64> = HashMap::new(); // page -> payload offset
        let mut pending: HashMap<u32, u64> = HashMap::new();
        let mut offset = 0u64;
        let mut header = [0u8; HEADER_LEN as usize];
        loop {
            if offset + HEADER_LEN > wal_size {
                break; // torn tail
            }
            wal.read_exact_at(&mut header, offset)?;
            let (tag, page_id, sum) = decode_header(header);
            match tag {
                RECORD_COMMIT => {
                    committed.extend(pending.drain());
                    offset += HEADER_LEN;
                }
                RECORD_PAGE => {
                    if offset + HEADER_LEN + PAGE_SIZE as u64 > wal_size {
                        break; // torn page record
                    }
                    let mut payload = vec![0u8; PAGE_SIZE];
                    wal.read_exact_at(&mut payload, offset + HEADER_LEN)?;
                    if checksum(page_id, &payload) != sum {
                        break; // torn/corrupt: stop at the damage
                    }
                    pending.insert(page_id, offset + HEADER_LEN);
                    offset += HEADER_LEN + PAGE_SIZE as u64;
                }
                _ => break, // garbage: stop
            }
        }
        if !committed.is_empty() {
            let main = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(main_path)?;
            let mut payload = vec![0u8; PAGE_SIZE];
            for (&page_id, &payload_offset) in &committed {
                wal.read_exact_at(&mut payload, payload_offset)?;
                main.write_all_at(&payload, u64::from(page_id) * PAGE_SIZE as u64)?;
            }
            main.sync_data()?;
        }
        drop(wal);
        std::fs::remove_file(wal_path)?;
        Ok(())
    }
}

impl Pager for WalPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if id.is_none() || id.0 >= self.page_count.load(Ordering::Acquire) {
            return Err(StoreError::InvalidPageId(u64::from(id.0)));
        }
        let wal = self.wal.lock();
        if let Some(&payload_offset) = wal.resident.get(&id) {
            wal.file.read_exact_at(buf, payload_offset)?;
            return Ok(());
        }
        drop(wal);
        // Fall through to the main file; pages allocated but never written
        // read as zeroes (and may lie beyond both the main pager's count
        // and its file length).
        if id.0 >= self.main.page_count() {
            buf.fill(0);
            return Ok(());
        }
        self.main.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if id.is_none() || id.0 >= self.page_count.load(Ordering::Acquire) {
            return Err(StoreError::InvalidPageId(u64::from(id.0)));
        }
        let mut wal = self.wal.lock();
        let mut header = [0u8; HEADER_LEN as usize];
        header[0] = RECORD_PAGE;
        header[1..5].copy_from_slice(&id.0.to_le_bytes());
        header[5..13].copy_from_slice(&checksum(id.0, buf).to_le_bytes());
        let offset = wal.len;
        wal.file.write_all_at(&header, offset)?;
        wal.file.write_all_at(buf, offset + HEADER_LEN)?;
        wal.len = offset + HEADER_LEN + PAGE_SIZE as u64;
        wal.resident.insert(id, offset + HEADER_LEN);
        self.bytes_appended
            .fetch_add(HEADER_LEN + PAGE_SIZE as u64, Ordering::Relaxed);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        // Keep the main pager's counter in sync so ids stay unique, but
        // track our own logical count (the authoritative one).
        let id = self.main.allocate()?;
        self.page_count.fetch_max(id.0 + 1, Ordering::AcqRel);
        Ok(id)
    }

    fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    fn wal_bytes(&self) -> u64 {
        self.bytes_appended.load(Ordering::Relaxed)
    }

    /// Checkpoint: COMMIT + fsync the WAL (durability point), copy logged
    /// pages into the main file, fsync it, truncate the WAL.
    fn sync(&self) -> Result<()> {
        let mut wal = self.wal.lock();
        if wal.resident.is_empty() {
            return Ok(()); // nothing since last checkpoint
        }
        let _span = crate::hooks::HookSpan::enter("wal_checkpoint");
        let mut header = [0u8; HEADER_LEN as usize];
        header[0] = RECORD_COMMIT;
        let offset = wal.len;
        wal.file.write_all_at(&header, offset)?;
        wal.len = offset + HEADER_LEN;
        self.bytes_appended.fetch_add(HEADER_LEN, Ordering::Relaxed);
        wal.file.sync_data()?; // ← durable here

        let mut payload = vec![0u8; PAGE_SIZE];
        for (&page, &payload_offset) in wal.resident.iter() {
            wal.file.read_exact_at(&mut payload, payload_offset)?;
            self.main.write_page(page, &payload)?;
        }
        self.main.sync()?;
        wal.file.set_len(0)?;
        wal.file.sync_data()?;
        wal.len = 0;
        wal.resident.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fm-store-wal-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut w = p.clone().into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
        p
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let mut w = path.as_os_str().to_owned();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn write_read_round_trip_through_wal() {
        let path = temp_base("roundtrip");
        let pager = WalPager::open(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.write_page(a, &page_of(1)).unwrap();
        pager.write_page(b, &page_of(2)).unwrap();
        // Reads see the WAL-resident versions.
        let mut buf = vec![0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page_of(1));
        // Overwrite before checkpoint: latest version wins.
        pager.write_page(a, &page_of(9)).unwrap();
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page_of(9));
        assert!(pager.wal_len() > 0);
        pager.sync().unwrap();
        assert_eq!(pager.wal_len(), 0);
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page_of(9));
        cleanup(&path);
    }

    #[test]
    fn unsynced_writes_do_not_survive_a_crash() {
        let path = temp_base("volatile");
        {
            let pager = WalPager::open(&path).unwrap();
            let a = pager.allocate().unwrap();
            pager.write_page(a, &page_of(1)).unwrap();
            pager.sync().unwrap(); // checkpoint 1
            pager.write_page(a, &page_of(2)).unwrap(); // never committed
                                                       // "Crash": drop without sync. (WalPager has no Drop flush.)
        }
        {
            let pager = WalPager::open(&path).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            pager.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, page_of(1), "must reopen at the last checkpoint");
        }
        cleanup(&path);
    }

    #[test]
    fn committed_wal_replays_on_open() {
        let path = temp_base("replay");
        let wal_path;
        {
            let pager = WalPager::open(&path).unwrap();
            wal_path = pager.wal_path().to_path_buf();
            let a = pager.allocate().unwrap();
            let b = pager.allocate().unwrap();
            pager.write_page(a, &page_of(7)).unwrap();
            pager.write_page(b, &page_of(8)).unwrap();
            // Simulate a crash *after* the durability point but *before*
            // the copy to main: append COMMIT + fsync manually, then drop.
            let wal = pager.wal.lock();
            let mut header = [0u8; HEADER_LEN as usize];
            header[0] = RECORD_COMMIT;
            wal.file.write_all_at(&header, wal.len).unwrap();
            wal.file.sync_data().unwrap();
        }
        {
            let pager = WalPager::open(&path).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            pager.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, page_of(7), "committed WAL must be replayed");
            pager.read_page(PageId(1), &mut buf).unwrap();
            assert_eq!(buf, page_of(8));
            assert!(!wal_path.exists() || pager.wal_len() == 0);
        }
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_base("torn");
        {
            let pager = WalPager::open(&path).unwrap();
            let a = pager.allocate().unwrap();
            pager.write_page(a, &page_of(3)).unwrap();
            pager.sync().unwrap();
            pager.write_page(a, &page_of(4)).unwrap();
            // Append COMMIT then corrupt the page record's checksum region:
            // replay must stop at the damage and ignore the commit.
            let wal = pager.wal.lock();
            wal.file.write_all_at(&[0xFF; 8], HEADER_LEN).unwrap(); // clobber payload start
            let mut header = [0u8; HEADER_LEN as usize];
            header[0] = RECORD_COMMIT;
            wal.file.write_all_at(&header, wal.len).unwrap();
            wal.file.sync_data().unwrap();
        }
        {
            let pager = WalPager::open(&path).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            pager.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, page_of(3), "corrupt record must not be replayed");
        }
        cleanup(&path);
    }

    #[test]
    fn checkpoint_is_atomic_under_simulated_partial_copy() {
        // State: checkpoint 1 = pages {A=1, B=1}. Then {A=2, B=2} committed
        // to WAL, but only A copied to main before the "crash". Recovery
        // must produce {A=2, B=2}, never {A=2, B=1}.
        let path = temp_base("atomic");
        {
            let pager = WalPager::open(&path).unwrap();
            let a = pager.allocate().unwrap();
            let b = pager.allocate().unwrap();
            pager.write_page(a, &page_of(1)).unwrap();
            pager.write_page(b, &page_of(1)).unwrap();
            pager.sync().unwrap();
            pager.write_page(a, &page_of(2)).unwrap();
            pager.write_page(b, &page_of(2)).unwrap();
            // Manual partial checkpoint: COMMIT + fsync, copy only A.
            let wal = pager.wal.lock();
            let mut header = [0u8; HEADER_LEN as usize];
            header[0] = RECORD_COMMIT;
            wal.file.write_all_at(&header, wal.len).unwrap();
            wal.file.sync_data().unwrap();
            pager.main.write_page(a, &page_of(2)).unwrap();
            // Crash here: B never copied.
        }
        {
            let pager = WalPager::open(&path).unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            pager.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf, page_of(2));
            pager.read_page(PageId(1), &mut buf).unwrap();
            assert_eq!(buf, page_of(2), "torn checkpoint must be repaired");
        }
        cleanup(&path);
    }

    #[test]
    fn a_failed_copy_into_the_main_file_loses_no_committed_page() {
        // The checkpoint's order, owned by a test (DESIGN.md §8): COMMIT
        // and `sync_data` on the WAL come before the first main-file
        // write. Page C is one the WAL accepts and the main file refuses:
        // only the WAL pager's own count knows it, so the checkpoint's
        // copy fails when it reaches C. A reopen must then replay every
        // page the checkpoint logged; a COMMIT written after the copy
        // loop never lands, and A, B and C are lost.
        let path = temp_base("commit-first");
        {
            let pager = WalPager::open(&path).unwrap();
            let a = pager.allocate().unwrap();
            let b = pager.allocate().unwrap();
            pager.write_page(a, &page_of(1)).unwrap();
            pager.write_page(b, &page_of(1)).unwrap();
            pager.sync().unwrap();
            let c = PageId(pager.page_count.fetch_add(1, Ordering::AcqRel));
            for id in [a, b, c] {
                pager.write_page(id, &page_of(2)).unwrap();
            }
            assert!(
                pager.sync().is_err(),
                "the copy into the main file must fail"
            );
            // Crash: the pager is dropped mid-checkpoint.
        }
        let pager = WalPager::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for id in 0..3 {
            let read = pager.read_page(PageId(id), &mut buf);
            assert!(
                read.is_ok() && buf == page_of(2),
                "page {id} lost by a checkpoint that failed after its COMMIT: {read:?}"
            );
        }
        cleanup(&path);
    }

    #[test]
    fn works_under_a_buffer_pool() {
        use crate::buffer::BufferPool;
        let path = temp_base("pool");
        {
            let pool = BufferPool::new(Box::new(WalPager::open(&path).unwrap()), 4);
            // More pages than frames: evictions write through the WAL.
            let ids: Vec<PageId> = (0..12u8)
                .map(|i| {
                    let (id, mut p) = pool.allocate().unwrap();
                    p.fill(i);
                    id
                })
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                let p = pool.get(id).unwrap();
                assert!(p.iter().all(|&b| b == i as u8));
            }
            pool.flush().unwrap(); // checkpoint
        }
        {
            let pool = BufferPool::new(Box::new(WalPager::open(&path).unwrap()), 4);
            for i in 0..12u8 {
                let p = pool.get(PageId(i as u32)).unwrap();
                assert!(p.iter().all(|&b| b == i), "page {i} lost");
            }
        }
        cleanup(&path);
    }

    #[test]
    fn repeated_checkpoints_interleaved_with_writes() {
        let path = temp_base("cycles");
        let pager = WalPager::open(&path).unwrap();
        let a = pager.allocate().unwrap();
        for round in 0u8..20 {
            pager.write_page(a, &page_of(round)).unwrap();
            if round % 3 == 0 {
                pager.sync().unwrap();
            }
        }
        pager.sync().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page_of(19));
        // Idempotent sync with empty WAL.
        pager.sync().unwrap();
        assert_eq!(pager.wal_len(), 0);
        cleanup(&path);
    }

    #[test]
    fn concurrent_pool_traffic_over_wal() {
        use crate::buffer::BufferPool;
        use std::sync::Arc;
        let path = temp_base("concurrent");
        {
            let pool = Arc::new(BufferPool::new(
                Box::new(WalPager::open(&path).unwrap()),
                8, // tiny pool: constant WAL traffic from evictions
            ));
            let ids: Vec<PageId> = (0..32)
                .map(|i| {
                    let (id, mut p) = pool.allocate().unwrap();
                    p.fill(i as u8);
                    id
                })
                .collect();
            let ids = Arc::new(ids);
            let mut handles = Vec::new();
            for t in 0..4usize {
                let pool = Arc::clone(&pool);
                let ids = Arc::clone(&ids);
                handles.push(std::thread::spawn(move || {
                    for round in 0..100 {
                        let i = (t * 13 + round * 7) % ids.len();
                        let p = pool.get(ids[i]).unwrap();
                        let v = p[0];
                        assert!(p.iter().all(|&b| b == v), "torn page through WAL");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            pool.flush().unwrap();
        }
        {
            let pool = BufferPool::new(Box::new(WalPager::open(&path).unwrap()), 8);
            for i in 0..32u32 {
                let p = pool.get(PageId(i)).unwrap();
                assert!(p.iter().all(|&b| b == i as u8));
            }
        }
        cleanup(&path);
    }

    #[test]
    fn wal_bytes_is_cumulative_across_checkpoints() {
        let path = temp_base("bytes");
        let pager = WalPager::open(&path).unwrap();
        assert_eq!(pager.wal_bytes(), 0);
        let a = pager.allocate().unwrap();
        pager.write_page(a, &page_of(1)).unwrap();
        let record = HEADER_LEN + PAGE_SIZE as u64;
        assert_eq!(pager.wal_bytes(), record);
        pager.sync().unwrap(); // adds a COMMIT header, truncates the log
        assert_eq!(pager.wal_len(), 0, "live log is truncated");
        assert_eq!(pager.wal_bytes(), record + HEADER_LEN, "counter is not");
        pager.write_page(a, &page_of(2)).unwrap();
        assert_eq!(pager.wal_bytes(), 2 * record + HEADER_LEN);
        cleanup(&path);
    }

    #[test]
    fn check_invariants_accepts_healthy_wal() {
        let path = temp_base("check-ok");
        let pager = WalPager::open(&path).unwrap();
        assert_eq!(
            pager.check_invariants().unwrap(),
            WalCheck {
                records: 0,
                resident_pages: 0
            }
        );
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.write_page(a, &page_of(1)).unwrap();
        pager.write_page(b, &page_of(2)).unwrap();
        pager.write_page(a, &page_of(3)).unwrap(); // page A logged twice
        assert_eq!(
            pager.check_invariants().unwrap(),
            WalCheck {
                records: 3,
                resident_pages: 2
            }
        );
        pager.sync().unwrap();
        assert_eq!(
            pager.check_invariants().unwrap(),
            WalCheck {
                records: 0,
                resident_pages: 0
            }
        );
        cleanup(&path);
    }

    #[test]
    fn check_invariants_detects_corrupt_record() {
        let path = temp_base("check-sum");
        let pager = WalPager::open(&path).unwrap();
        let a = pager.allocate().unwrap();
        pager.write_page(a, &page_of(5)).unwrap();
        // Flip a payload byte on disk without updating the checksum.
        pager
            .wal
            .lock()
            .file
            .write_all_at(&[0xEE], HEADER_LEN + 100)
            .unwrap();
        let err = pager.check_invariants().unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        cleanup(&path);
    }

    #[test]
    fn check_invariants_detects_torn_tail() {
        let path = temp_base("check-torn");
        let pager = WalPager::open(&path).unwrap();
        let a = pager.allocate().unwrap();
        pager.write_page(a, &page_of(5)).unwrap();
        // Pretend the append offset ran ahead of what was written: the
        // record chain no longer tiles [0, len).
        pager.wal.lock().len += 5;
        let err = pager.check_invariants().unwrap_err();
        assert!(err.to_string().contains("torn"), "got: {err}");
        cleanup(&path);
    }

    #[test]
    fn check_invariants_detects_resident_map_desync() {
        let path = temp_base("check-resident");
        let pager = WalPager::open(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.write_page(a, &page_of(5)).unwrap();
        // Claim page B is resident even though it was never logged.
        pager.wal.lock().resident.insert(b, HEADER_LEN);
        let err = pager.check_invariants().unwrap_err();
        assert!(err.to_string().contains("resident map"), "got: {err}");
        cleanup(&path);
    }

    #[test]
    fn out_of_range_pages_rejected() {
        let path = temp_base("range");
        let pager = WalPager::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(pager.read_page(PageId(0), &mut buf).is_err());
        assert!(pager.write_page(PageId(5), &buf).is_err());
        assert!(pager.read_page(PageId::NONE, &mut buf).is_err());
        cleanup(&path);
    }
}
