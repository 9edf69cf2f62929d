//! Sharded buffer pool with clock (second-chance) eviction.
//!
//! The pool caches a fixed number of [`PAGE_SIZE`] frames over a [`Pager`]
//! and hands out pinned read/write guards. It is safe for concurrent use
//! and built so *readers of resident pages never serialize behind IO*:
//!
//! * frames are partitioned into shards; each shard owns its own mapping
//!   table, pin counts and clock hand behind its own mutex, and a page
//!   lives in exactly one shard (`page % shards`), so the hit path of two
//!   threads touching different shards shares no lock at all;
//! * each frame's bytes live behind their own `RwLock`, so readers of
//!   distinct pages (and multiple readers of one page) proceed in parallel;
//! * a pinned frame (pin count > 0) is never chosen as an eviction victim,
//!   which is what makes the lock order (shard → frame) deadlock-free:
//!   the pool only takes a frame lock for frames with zero pins, and guards
//!   only take the shard lock on drop, when their own frame's pin count is
//!   still positive.
//!
//! # The miss path never holds a shard lock across IO
//!
//! A miss picks a victim with the clock sweep under the shard mutex. A
//! *dirty* victim is not unmapped: it is pinned, the shard mutex is
//! released, and its bytes are written back under the frame's read latch,
//! so a reader of that page keeps hitting the frame and can never fault
//! in the pager's older image; then it is unpinned and the sweep resumes
//! at it. Only a clean frame is ever unmapped: the miss installs the new
//! mapping with the frame marked *loading*, takes the frame's write
//! latch, **releases the shard mutex**, and only then reads the page in —
//! holding nothing but the per-frame latch, which only threads wanting
//! that very page can contend on. Hits in the same shard proceed
//! concurrently with the fault. A thread that finds the page it wants
//! mid-load parks on the frame latch (released when the loader finishes)
//! and retries its map lookup, so it can never observe partially-loaded
//! bytes; if the load failed, the retry misses and the waiter becomes the
//! next loader.
//!
//! This retires the old single-mutex design's documented
//! "miss IO under the pool lock" trade-off: page faults serialize only
//! per frame, not per pool. Every pager read, write and sync goes
//! through [`BufferPool::io`], a [`lockorder::blocking_point`], so a
//! debug build panics if a shard mutex is held across it.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{Result, StoreError};
use crate::lockorder::{self, Flag, Guard, Ranked, STATE};
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;

/// Shards are only worth their mapping-table split once each still holds a
/// healthy number of frames; below 2 shards worth of [`MIN_SHARD_FRAMES`]
/// the pool stays unsharded (identical behaviour to the historical single
/// mutex, minus the IO-under-lock).
const MAX_SHARDS: usize = 8;
const MIN_SHARD_FRAMES: usize = 16;

/// Transient all-pinned sweeps retry this many times (yielding between
/// attempts) before reporting [`StoreError::PoolExhausted`]: under
/// concurrent lookups a shard is routinely "full" for the microseconds in
/// which every resident frame is pinned by an in-flight B+-tree descent.
const EXHAUSTED_RETRIES: usize = 256;

struct Frame {
    data: RwLock<Box<[u8]>>,
    dirty: Flag,
}

#[derive(Clone, Copy, Default)]
struct FrameMeta {
    page: Option<PageId>,
    pins: usize,
    ref_bit: bool,
    /// Set while a faulting thread owns the frame's write latch and is
    /// doing the miss IO outside the shard lock. Loading frames carry the
    /// loader's pin, so the clock sweep never selects them.
    loading: bool,
}

struct ShardState {
    /// Page → index *within this shard* (add the shard base for the
    /// global frame index).
    map: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    clock: usize,
}

struct Shard {
    /// First global frame index owned by this shard.
    base: usize,
    state: Ranked<Mutex<ShardState>, STATE>,
}

type StateGuard<'a> = Guard<MutexGuard<'a, ShardState>>;

/// IO accounting for a whole store: buffer-pool traffic plus physical page
/// and WAL IO beneath it. All counters are cumulative and monotonic; read a
/// snapshot with [`BufferPool::store_stats`] (or `Database::stats`) and
/// subtract two snapshots to attribute IO to a window of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Page requests satisfied from a resident frame.
    pub hits: u64,
    /// Page requests that faulted (allocation of a fresh page included).
    pub misses: u64,
    /// Frames whose previous page was displaced to make room.
    pub evictions: u64,
    /// Pages physically read from the pager (misses that hit the store;
    /// fresh allocations fault in without a read).
    pub pages_read: u64,
    /// Pages physically written to the pager (eviction write-backs and
    /// flushes of dirty frames).
    pub pages_written: u64,
    /// Cumulative bytes appended to the write-ahead log (0 without a WAL).
    pub wal_bytes: u64,
}

impl StoreStats {
    /// Every counter as `(name, value)`, in field order — the one list the
    /// `stats` reply, the Prometheus exposition and the CLI report walk.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("evictions", self.evictions),
            ("pages_read", self.pages_read),
            ("pages_written", self.pages_written),
            ("wal_bytes", self.wal_bytes),
        ]
        .into_iter()
    }
}

/// A sharded buffer pool over a [`Pager`]. See the module docs for the
/// concurrency contract.
pub struct BufferPool {
    pager: Box<dyn Pager>,
    frames: Vec<Frame>,
    shards: Vec<Shard>,
    /// Frames per shard (the last shard additionally absorbs the
    /// remainder).
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    reads: AtomicU64,
}

impl BufferPool {
    /// A pool of `capacity` frames over `pager`. Capacity must be at least 2
    /// (the B+-tree pins a parent and a child simultaneously; callers
    /// typically want far more).
    pub fn new(pager: Box<dyn Pager>, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "buffer pool needs at least 2 frames");
        let frames: Vec<Frame> = (0..capacity)
            .map(|_| Frame {
                data: RwLock::new(vec![0u8; PAGE_SIZE].into_boxed_slice()),
                dirty: Flag::new(false),
            })
            .collect();
        let num_shards = (capacity / MIN_SHARD_FRAMES).clamp(1, MAX_SHARDS);
        let per_shard = capacity / num_shards;
        let shards = (0..num_shards)
            .map(|s| {
                let base = s * per_shard;
                let len = if s + 1 == num_shards {
                    capacity - base
                } else {
                    per_shard
                };
                Shard {
                    base,
                    state: Ranked::new(Mutex::new(ShardState {
                        map: HashMap::new(),
                        meta: vec![FrameMeta::default(); len],
                        clock: 0,
                    })),
                }
            })
            .collect();
        BufferPool {
            pager,
            frames,
            shards,
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// Number of pages in the underlying store.
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Number of shards the frame set is partitioned into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Full IO accounting: pool counters plus the pager's physical IO.
    pub fn store_stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_read: self.reads.load(Ordering::Relaxed),
            pages_written: self.writebacks.load(Ordering::Relaxed),
            wal_bytes: self.pager.wal_bytes(),
        }
    }

    /// Run pager IO: the pool's one blocking point, where no shard mutex
    /// may be held (debug builds assert it, DESIGN.md §8).
    fn io<R>(&self, what: &str, f: impl FnOnce(&dyn Pager) -> R) -> R {
        lockorder::blocking_point(what);
        f(&*self.pager)
    }

    /// The shard a page hashes to.
    fn shard_of_page(&self, id: PageId) -> &Shard {
        &self.shards[id.0 as usize % self.shards.len()]
    }

    /// The shard owning global frame `idx`.
    fn shard_of_frame(&self, idx: usize) -> &Shard {
        &self.shards[(idx / self.per_shard).min(self.shards.len() - 1)]
    }

    /// Pin the frame holding `id`, faulting it in if needed. Returns the
    /// global frame index with the pin count already incremented.
    ///
    /// The miss path does its IO holding only the victim frame's write
    /// latch — never the shard mutex (see the module docs for the
    /// loading-flag protocol and the deadlock-freedom argument).
    fn pin_frame(&self, id: PageId, load: bool) -> Result<usize> {
        let shard = self.shard_of_page(id);
        let mut stalls = 0usize;
        // One request is one miss, however many trips round the stall
        // loop it takes: retries must not deflate the hit ratio exactly
        // when the pool is under pin pressure.
        let mut miss_counted = false;
        loop {
            let mut st = shard.state.lock();
            if let Some(&local) = st.map.get(&id) {
                if !st.meta[local].loading {
                    st.meta[local].pins += 1;
                    st.meta[local].ref_bit = true;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(shard.base + local);
                }
                // Another thread is faulting this page in. Park on the
                // frame latch (the loader holds it until the bytes are
                // ready) with no shard lock held, then re-check the map:
                // on success the retry hits, on loader failure the retry
                // misses and this thread becomes the loader.
                let gidx = shard.base + local;
                drop(st);
                {
                    let _frame_rank = lockorder::HeldRank::acquire(lockorder::FRAME);
                    drop(self.frames[gidx].data.read());
                }
                // The loader publishes (clears `loading`) only after
                // releasing its write latch, so a waiter can wake a beat
                // early; yield to keep that window from busy-spinning.
                std::thread::yield_now();
                continue;
            }
            if !miss_counted {
                self.misses.fetch_add(1, Ordering::Relaxed);
                miss_counted = true;
            }

            // Clock sweep for an unpinned victim (loading frames carry
            // the loader's pin and are skipped automatically).
            let n = st.meta.len();
            let mut victim = None;
            for _ in 0..2 * n {
                let local = st.clock;
                st.clock = (st.clock + 1) % n;
                let m = &mut st.meta[local];
                if m.pins > 0 {
                    continue;
                }
                if m.page.is_none() {
                    victim = Some(local);
                    break;
                }
                if m.ref_bit {
                    m.ref_bit = false;
                } else {
                    victim = Some(local);
                    break;
                }
            }
            let Some(local) = victim else {
                // Every frame pinned right now. In-flight B+-tree descents
                // unpin within microseconds, so yield and retry before
                // declaring the shard exhausted.
                drop(st);
                stalls += 1;
                if stalls > EXHAUSTED_RETRIES {
                    return Err(StoreError::PoolExhausted);
                }
                std::thread::yield_now();
                continue;
            };
            let gidx = shard.base + local;

            if let Some(old_id) = st.meta[local].page {
                if self.frames[gidx].dirty.load() {
                    // A dirty victim stays mapped while it is written back,
                    // so a reader of its page keeps hitting it. The sweep
                    // resumes at it: clean by then, it is the next victim
                    // unless a reader has touched it meanwhile.
                    st.clock = local;
                    self.write_back(shard, st, local, old_id)?;
                    continue;
                }
                st.map.remove(&old_id);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Claim the clean victim: install our mapping marked loading
            // and take the frame latch. The latch is uncontended modulo a
            // reader mid-drop that already unpinned (it releases without
            // re-taking any lock, so blocking on it here cannot deadlock).
            st.meta[local] = FrameMeta {
                page: Some(id),
                pins: 1,
                ref_bit: true,
                loading: true,
            };
            st.map.insert(id, local);
            // FRAME nests inside STATE here (state < frame-data); its
            // token goes with the latch, before the publish re-takes STATE.
            let frame_rank = lockorder::HeldRank::acquire(lockorder::FRAME);
            let mut data = self.frames[gidx].data.write();
            drop(st);

            let io = if load {
                self.reads.fetch_add(1, Ordering::Relaxed);
                // Under this frame's latch alone: only threads wanting
                // this very page wait on the read.
                self.io("read_page", |pager| pager.read_page(id, &mut data))
            } else {
                data.fill(0);
                Ok(())
            };
            // Frame latch released before re-taking the shard lock (the
            // canonical order is shard state before frame data, never the
            // reverse); waiters it wakes re-check the map and loop until
            // the publish below lands.
            drop(data);
            drop(frame_rank);

            // Publish, or forget the mapping: the victim was clean, so a
            // failed fault-in loses nothing.
            let mut st = shard.state.lock();
            if io.is_ok() {
                st.meta[local].loading = false;
            } else {
                st.map.remove(&id);
                st.meta[local] = FrameMeta::default();
            }
            return io.map(|()| gidx);
        }
    }

    /// Write `page`, resident in frame `local` of `shard`, back to the
    /// pager if it is dirty: the one write-back of the eviction sweep and
    /// of `flush`. The caller hands over the shard lock; the frame is
    /// pinned under it, so it cannot be repurposed, and the write runs
    /// under the frame's read latch alone. Readers of the page keep
    /// hitting the frame, a writer waits for the write to land, and a
    /// failed write leaves the frame dirty.
    fn write_back(
        &self,
        shard: &Shard,
        mut st: StateGuard<'_>,
        local: usize,
        page: PageId,
    ) -> Result<()> {
        st.meta[local].pins += 1;
        drop(st);
        let gidx = shard.base + local;
        let frame = &self.frames[gidx];
        let written = {
            let _frame_rank = lockorder::HeldRank::acquire(lockorder::FRAME);
            let data = frame.data.read();
            if frame.dirty.swap(false) {
                // Under this frame's read latch alone: readers of the page
                // keep hitting it.
                let written = self.io("write_page", |pager| pager.write_page(page, &data));
                if written.is_ok() {
                    self.writebacks.fetch_add(1, Ordering::Relaxed);
                } else {
                    frame.dirty.store(true);
                }
                written
            } else {
                Ok(())
            }
        };
        self.unpin(gidx);
        written
    }

    fn unpin(&self, idx: usize) {
        let shard = self.shard_of_frame(idx);
        let mut st = shard.state.lock();
        let local = idx - shard.base;
        debug_assert!(st.meta[local].pins > 0, "unpin without pin");
        st.meta[local].pins -= 1;
    }

    /// Shared read access to page `id`.
    pub fn get(&self, id: PageId) -> Result<PageRef<'_>> {
        let idx = self.pin_frame(id, true)?;
        let guard = self.frames[idx].data.read();
        Ok(PageRef {
            pool: self,
            idx,
            guard,
        })
    }

    /// Exclusive write access to page `id`. The frame is marked dirty.
    pub fn get_mut(&self, id: PageId) -> Result<PageMut<'_>> {
        let idx = self.pin_frame(id, true)?;
        let guard = self.frames[idx].data.write();
        self.frames[idx].dirty.store(true);
        Ok(PageMut {
            pool: self,
            idx,
            guard,
        })
    }

    /// Allocate a fresh page and return it write-pinned and zeroed.
    pub fn allocate(&self) -> Result<(PageId, PageMut<'_>)> {
        let id = self.pager.allocate()?;
        let idx = self.pin_frame(id, false)?;
        let guard = self.frames[idx].data.write();
        self.frames[idx].dirty.store(true);
        Ok((
            id,
            PageMut {
                pool: self,
                idx,
                guard,
            },
        ))
    }

    /// Write all dirty frames back and fsync the pager.
    pub fn flush(&self) -> Result<()> {
        // Shard by shard: snapshot the resident pages without pinning, then
        // write the dirty ones back one at a time. The flusher never holds
        // more than one pin, so a miss in the shard it is working on still
        // finds a victim; in-flight writers block on one frame, never the
        // shard.
        for shard in &self.shards {
            let resident: Vec<(usize, PageId)> = {
                let st = shard.state.lock();
                st.meta
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !m.loading)
                    .filter_map(|(i, m)| m.page.map(|p| (i, p)))
                    .collect()
            };
            for (local, page) in resident {
                let st = shard.state.lock();
                // Evicted, reloaded or cleaned since the snapshot: the
                // frame's current owner answers for its bytes.
                let m = st.meta[local];
                if m.page == Some(page)
                    && !m.loading
                    && self.frames[shard.base + local].dirty.load()
                {
                    self.write_back(shard, st, local, page)?;
                }
            }
        }
        self.io("sync", |pager| pager.sync())
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Best-effort durability on drop; callers that care about errors
        // call `flush` explicitly.
        let _ = self.flush();
    }
}

/// Pinned shared view of a page. Derefs to the page bytes.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockReadGuard<'a, Box<[u8]>>,
}

impl Deref for PageRef<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx);
    }
}

/// Pinned exclusive view of a page. Derefs to the page bytes; the frame is
/// written back lazily on eviction or flush.
pub struct PageMut<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockWriteGuard<'a, Box<[u8]>>,
}

impl Deref for PageMut<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

impl DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard
    }
}

impl Drop for PageMut<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{FaultPager, FilePager, MemPager};

    fn mem_pool(frames: usize) -> BufferPool {
        BufferPool::new(Box::new(MemPager::new()), frames)
    }

    #[cfg(debug_assertions)]
    #[test]
    fn pager_io_under_a_shard_mutex_panics() {
        // The probe of DESIGN.md §8: a fault-in moved back under the shard
        // mutex reaches the pool's blocking point with `state` held.
        let pool = mem_pool(4);
        let (id, page) = pool.allocate().unwrap();
        drop(page);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _st = pool.shards[0].state.lock();
            let mut buf = vec![0u8; PAGE_SIZE];
            pool.io("read_page", |pager| pager.read_page(id, &mut buf))
        }))
        .expect_err("pager IO under `state` must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("blocking point `read_page` reached while holding `state`"),
            "got: {message}"
        );
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let pool = mem_pool(4);
        let id = {
            let (id, mut page) = pool.allocate().unwrap();
            page[0] = 11;
            page[PAGE_SIZE - 1] = 22;
            id
        };
        let page = pool.get(id).unwrap();
        assert_eq!(page[0], 11);
        assert_eq!(page[PAGE_SIZE - 1], 22);
    }

    #[test]
    fn small_pools_are_unsharded_and_large_pools_shard() {
        assert_eq!(mem_pool(2).shard_count(), 1);
        assert_eq!(mem_pool(31).shard_count(), 1);
        assert_eq!(mem_pool(32).shard_count(), 2);
        assert_eq!(mem_pool(64).shard_count(), 4);
        assert_eq!(mem_pool(4096).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn every_frame_belongs_to_exactly_one_shard() {
        // Covers the remainder-absorbing last shard: meta lengths sum to
        // capacity and shard_of_frame round-trips every index.
        for capacity in [2, 17, 32, 33, 63, 64, 100, 129] {
            let pool = mem_pool(capacity);
            let total: usize = pool.shards.iter().map(|s| s.state.lock().meta.len()).sum();
            assert_eq!(total, capacity, "capacity {capacity}");
            for idx in 0..capacity {
                let shard = pool.shard_of_frame(idx);
                let local = idx - shard.base;
                assert!(
                    local < shard.state.lock().meta.len(),
                    "frame {idx} out of shard bounds at capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn eviction_preserves_data() {
        let pool = mem_pool(2);
        // Write 10 pages through a 2-frame pool, forcing evictions.
        let ids: Vec<PageId> = (0..10u8)
            .map(|i| {
                let (id, mut page) = pool.allocate().unwrap();
                page.fill(i);
                id
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let page = pool.get(id).unwrap();
            assert!(page.iter().all(|&b| b == i as u8), "page {id} corrupted");
        }
        let stats = pool.store_stats();
        assert!(stats.evictions > 0);
        assert!(stats.pages_written > 0);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = mem_pool(4);
        let (id, _) = {
            let (id, g) = pool.allocate().unwrap();
            drop(g);
            (id, ())
        };
        let before = pool.store_stats();
        let _ = pool.get(id).unwrap(); // hit: still resident
        let after = pool.store_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn store_stats_tracks_physical_io_and_wal() {
        use crate::wal::WalPager;
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-buffer-stats-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
        {
            let pool = BufferPool::new(Box::new(WalPager::open(&path).unwrap()), 2);
            // 6 pages through a 2-frame pool: evictions write to the WAL.
            let ids: Vec<PageId> = (0..6u8)
                .map(|i| {
                    let (id, mut p) = pool.allocate().unwrap();
                    p.fill(i);
                    id
                })
                .collect();
            for &id in &ids {
                let _ = pool.get(id).unwrap();
            }
            pool.flush().unwrap();
            let s = pool.store_stats();
            assert!(s.pages_read >= 4, "re-reads of evicted pages: {s:?}");
            assert!(s.pages_written >= 6, "every page written once: {s:?}");
            assert!(
                s.wal_bytes >= s.pages_written * PAGE_SIZE as u64,
                "all writes go through the WAL: {s:?}"
            );
            // Fresh allocations fault in without physical reads.
            assert!(s.pages_read <= s.misses);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let pool = mem_pool(2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        // Both frames pinned; a third page cannot be faulted in.
        let err = pool.allocate();
        assert!(matches!(err, Err(StoreError::PoolExhausted)));
        drop(a);
        drop(b);
        // After unpinning, allocation succeeds again.
        assert!(pool.allocate().is_ok());
    }

    /// A pager whose next `write_page` after `armed` is set signals
    /// `parked` and waits for `release`: a flusher stopped inside a
    /// write-back, with no sleeps.
    struct ParkingPager {
        inner: MemPager,
        armed: std::sync::Arc<Flag>,
        parked: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Pager for ParkingPager {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            if self.armed.swap(false) {
                self.parked.lock().send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_miss_beside_a_flush_in_the_same_shard_finds_a_frame() {
        use std::sync::{mpsc, Arc};
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let armed = Arc::new(Flag::new(false));
        let pool = Arc::new(BufferPool::new(
            Box::new(ParkingPager {
                inner: MemPager::new(),
                armed: Arc::clone(&armed),
                parked: Mutex::new(parked_tx),
                release: Mutex::new(release_rx),
            }),
            4,
        ));
        assert_eq!(pool.shard_count(), 1);
        // Five pages through four frames: the shard is full of dirty
        // pages and one page is not resident.
        let ids: Vec<PageId> = (0..5)
            .map(|_| {
                let (id, g) = pool.allocate().unwrap();
                drop(g);
                id
            })
            .collect();
        let cold = *ids
            .iter()
            .find(|id| !pool.shards[0].state.lock().map.contains_key(id))
            .expect("one page was evicted");
        armed.store(true);
        let flusher = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.flush())
        };
        // The flusher is now parked inside its first write-back. A miss in
        // its shard must still find a victim: the flusher holds one pin,
        // not the shard's worth.
        parked_rx.recv().unwrap();
        let miss = pool.get(cold).map(|_| ());
        release_tx.send(()).unwrap();
        flusher.join().unwrap().unwrap();
        assert!(miss.is_ok(), "miss beside a parked flush: {miss:?}");
    }

    #[test]
    fn a_dirty_victim_stays_readable_while_it_is_written_back() {
        use std::sync::{mpsc, Arc};
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let armed = Arc::new(Flag::new(false));
        let pool = Arc::new(BufferPool::new(
            Box::new(ParkingPager {
                inner: MemPager::new(),
                armed: Arc::clone(&armed),
                parked: Mutex::new(parked_tx),
                release: Mutex::new(release_rx),
            }),
            2,
        ));
        // Two dirty pages fill both frames; the pager holds only zeroes.
        let ids: Vec<PageId> = [0xAA, 0xBB]
            .into_iter()
            .map(|byte| {
                let (id, mut page) = pool.allocate().unwrap();
                page.fill(byte);
                id
            })
            .collect();
        armed.store(true);
        // A third page evicts one of them and parks inside its write-back.
        let evictor = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.allocate().map(|(id, _)| id))
        };
        parked_rx.recv().unwrap();
        // Both pages still read their dirty bytes, not the pager's image.
        let seen: Vec<u8> = ids.iter().map(|&id| pool.get(id).unwrap()[0]).collect();
        release_tx.send(()).unwrap();
        evictor.join().unwrap().unwrap();
        assert_eq!(seen, [0xAA, 0xBB], "a reader saw a stale image");
    }

    #[test]
    fn a_stalled_miss_is_counted_once() {
        use std::sync::Arc;
        // Three pages through two frames, then pin the two resident ones:
        // a request for the third finds every frame pinned and stalls.
        let pool = Arc::new(mem_pool(2));
        let ids: Vec<PageId> = (0..3)
            .map(|_| {
                let (id, g) = pool.allocate().unwrap();
                drop(g);
                id
            })
            .collect();
        let a = pool.get(ids[1]).unwrap();
        let b = pool.get(ids[2]).unwrap();
        let before = pool.store_stats().misses;
        let waiter = {
            let pool = Arc::clone(&pool);
            let id = ids[0];
            std::thread::spawn(move || pool.get(id).map(|_| ()))
        };
        // The miss is counted under the shard lock before the sweep that
        // finds nothing to evict, so once it shows, the waiter's first
        // sweep has failed or is about to: it is in the stall loop.
        while pool.store_stats().misses == before {
            std::thread::yield_now();
        }
        drop(a);
        // Served after the release or exhausted before it — either way it
        // was one request.
        let _ = waiter.join().unwrap();
        assert_eq!(pool.store_stats().misses, before + 1);
        drop(b);
    }

    #[test]
    fn multiple_readers_share_a_page() {
        let pool = mem_pool(4);
        let (id, g) = pool.allocate().unwrap();
        drop(g);
        let r1 = pool.get(id).unwrap();
        let r2 = pool.get(id).unwrap();
        assert_eq!(r1[0], r2[0]);
    }

    #[test]
    fn flush_persists_to_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-store-buffer-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let pool = BufferPool::new(Box::new(FilePager::open(&path).unwrap()), 4);
            let (id, mut page) = pool.allocate().unwrap();
            assert_eq!(id, PageId(0));
            page[100] = 42;
            drop(page);
            pool.flush().unwrap();
        }
        {
            let pool = BufferPool::new(Box::new(FilePager::open(&path).unwrap()), 4);
            let page = pool.get(PageId(0)).unwrap();
            assert_eq!(page[100], 42);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_fault_surfaces_and_pool_stays_usable() {
        // Budget of exactly one pager op: the first allocation consumes it.
        let pool = BufferPool::new(Box::new(FaultPager::new(MemPager::new(), 1)), 4);
        let (id, g) = pool.allocate().unwrap(); // allocate = the only op
        drop(g);
        let _ = pool.get(id).unwrap(); // cache hit, no I/O
        assert!(matches!(pool.allocate(), Err(StoreError::InjectedFault)));
        // The earlier page is still readable from cache after the fault.
        assert!(pool.get(id).is_ok());
    }

    #[test]
    fn failed_eviction_writeback_rolls_back_and_keeps_victim() {
        // Ops 1-2: allocate a, b (fresh pages fault in without IO). Op 3:
        // the third allocate itself; its eviction write-back of dirty `a`
        // is op 4 — refused. The victim was never unmapped: `a` stays
        // resident and dirty, nothing is left in a stuck `loading` state.
        let pool = BufferPool::new(Box::new(FaultPager::new(MemPager::new(), 3)), 2);
        let (a, mut g) = pool.allocate().unwrap(); // op 1
        g.fill(0xAA);
        drop(g);
        let (b, mut g) = pool.allocate().unwrap(); // op 2
        g.fill(0xBB);
        drop(g);
        assert!(matches!(pool.allocate(), Err(StoreError::InjectedFault)));
        // Both pages still hit in cache (zero pager budget left) with
        // their bytes intact.
        assert!(pool.get(a).unwrap().iter().all(|&x| x == 0xAA));
        assert!(pool.get(b).unwrap().iter().all(|&x| x == 0xBB));
        // And a repeat attempt fails the same clean way instead of
        // hanging on a stale loading frame.
        assert!(matches!(pool.allocate(), Err(StoreError::InjectedFault)));
    }

    #[test]
    fn failed_fault_in_leaves_no_stale_mapping() {
        // Budget: alloc a (1), alloc b (2), flush writes both (3, 4) and
        // syncs (5) — leaving clean frames and 1 op. Alloc c (op 6, clean
        // victim → no write-back) displaces `a`; re-reading `a` then needs
        // a physical read the exhausted pager refuses. The failed load
        // must clear its mapping so retries fail cleanly, not hang.
        let pool = BufferPool::new(Box::new(FaultPager::new(MemPager::new(), 6)), 2);
        let (a, g) = pool.allocate().unwrap(); // op 1
        drop(g);
        let (_b, g) = pool.allocate().unwrap(); // op 2
        drop(g);
        pool.flush().unwrap(); // ops 3-5 (two writes + sync)
        let (_c, g) = pool.allocate().unwrap(); // op 6, evicts clean `a`
        drop(g);
        assert!(matches!(pool.get(a), Err(StoreError::InjectedFault)));
        assert!(matches!(pool.get(a), Err(StoreError::InjectedFault)));
    }

    #[test]
    fn concurrent_mixed_workload() {
        use std::sync::Arc;
        let pool = Arc::new(mem_pool(8));
        let ids: Vec<PageId> = (0..16)
            .map(|i| {
                let (id, mut p) = pool.allocate().unwrap();
                p.fill(i as u8);
                id
            })
            .collect();
        let ids = Arc::new(ids);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = Arc::clone(&ids);
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let i = (t * 7 + round * 13) % ids.len();
                    if round % 5 == 0 {
                        let mut p = pool.get_mut(ids[i]).unwrap();
                        let v = p[0];
                        p.fill(v); // idempotent write keeps the invariant
                    } else {
                        let p = pool.get(ids[i]).unwrap();
                        let v = p[0];
                        assert!(p.iter().all(|&b| b == v), "torn page");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_miss_storm_on_one_page_loads_once_coherently() {
        // 8 threads fault the same evicted pages simultaneously: the
        // loading protocol must hand every waiter coherent bytes, and
        // repeated rounds (with evictions between) must never tear.
        use std::sync::Arc;
        let pool = Arc::new(mem_pool(4));
        let ids: Vec<PageId> = (0..64)
            .map(|i| {
                let (id, mut p) = pool.allocate().unwrap();
                p.fill(i as u8);
                id
            })
            .collect();
        let ids = Arc::new(ids);
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let pool = Arc::clone(&pool);
            let ids = Arc::clone(&ids);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for round in 0..100 {
                    // All threads converge on the same page each round,
                    // with enough distinct pages to force re-faults.
                    let i = (round * 31 + t / 4) % ids.len();
                    let p = pool.get(ids[i]).unwrap();
                    let v = p[0];
                    assert_eq!(v, i as u8, "wrong page content after fault");
                    assert!(p.iter().all(|&b| b == v), "torn fault-in");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every byte still intact single-threaded.
        for (i, &id) in ids.iter().enumerate() {
            let p = pool.get(id).unwrap();
            assert!(p.iter().all(|&b| b == i as u8));
        }
    }
}
