//! The score accumulator (Figure 3's `TidScores`) and the pooled scratch
//! it lives in.
//!
//! A lookup at 10^5 reference tuples bumps ~20 000 tid scores, asks "what
//! are the two best scores right now?" after every probe unit (the OSC
//! gate), and finally verifies only the few dozen best candidates. The
//! table is built for exactly that shape:
//!
//! * **accumulate** — Figure 3 keeps the scores "in a hash table"; here the
//!   tid itself is the index. Tids are dense integers the matcher mints
//!   (1..=N) and every posting list is sorted, so absorbing a list walks a
//!   dense array forward, in address order the prefetcher follows. Each
//!   cell carries the stamp of the query that wrote it, so "clearing" the
//!   array for the next query is one increment and its storage is reused
//!   for the life of the scratch; the query's tids are also listed in
//!   admission order, so every later pass is O(candidates);
//! * **best K+1, always current** — scores only grow, so a tid can enter
//!   the top set only at one of its own bumps: each bump is compared with
//!   the current (K+1)-th entry (one branch in the common case) and only a
//!   qualifying tid pays the O(K) insertion. The OSC gate reads the array;
//! * **rank lazily** — the verification phase consumes candidates in
//!   `(score desc, tid asc)` order but stops after a few dozen, so ranking
//!   is an O(n) heapify plus one pop per candidate actually consumed.
//!
//! **Footprint.** The array is paged: a page holds the cells of 2^16
//! consecutive tids (a score and a stamp, 12 B), is allocated zeroed on
//! first touch and found through a directory indexed by `tid >> 16`. A
//! scratch's table follows the relation, not the query — one page per
//! 2^16-tid range its queries scored, ≈ 1.2 MB of touched cells at 10^5
//! tuples — so there is nothing to give back between queries, and a tid
//! outside the relation (a corrupt posting) costs one page, never
//! gigabytes. Tids never come from a caller, so no key needs a defence
//! beyond that.
//!
//! `(score desc, tid asc)` is a total order over distinct tids, so the top
//! set and the pop order are the same whatever algorithm realises them:
//! results are bitwise those of collecting and fully sorting the table.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, ThreadId};

use fm_store::lockorder::{self, SCRATCH};

/// The ranking order: higher score first, ties by ascending tid.
/// `Less` means `a` ranks before `b`.
pub(crate) fn rank_cmp(a: (u32, f64), b: (u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// What the query algorithms need from the score table. The production
/// implementation is [`ScoreTable`]; the tests substitute the collect-and-
/// sort oracle to prove the two indistinguishable.
pub(crate) trait TidScores {
    /// Reset for a K-fuzzy-match query.
    fn begin(&mut self, k: usize);

    /// Process one (chunk of a) fetched tid-list: bump existing tids;
    /// admit new ones only if `admit_new` (the step-9b pruning decision
    /// made by the caller).
    fn absorb(&mut self, tids: impl Iterator<Item = u32>, weight: f64, admit_new: bool);

    /// Distinct tids scored so far.
    fn len(&self) -> usize;

    /// Tid-list entries processed so far (bumps + admissions).
    fn tids_processed(&self) -> u64;

    /// The best `min(K+1, len)` `(tid, score)` entries, best first.
    fn top(&self) -> &[(u32, f64)];

    /// Close the scoring phase: from here on [`TidScores::pop_best`]
    /// yields the scored tids in ranking order.
    fn rank(&mut self);

    /// The best candidate not yet popped.
    fn pop_best(&mut self) -> Option<(u32, f64)>;

    /// Ranked candidates not yet popped.
    fn remaining(&self) -> usize;
}

/// A heap entry; `Ord` is the ranking order with "ranks first" greatest.
#[derive(Debug, Clone, Copy)]
struct Ranked(u32, f64);

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        rank_cmp((other.0, other.1), (self.0, self.1))
    }
}

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct ScoreTable {
    /// Page `i` holds the cells of tids `i << PAGE_BITS ..`.
    pages: Vec<Page>,
    stamp: u32,
    /// This query's tids, in admission order.
    live: Vec<u32>,
    processed: u64,
    best: Best,
    heap: BinaryHeap<Ranked>,
}

/// At most `len` best `(tid, score)` entries, best first.
#[derive(Debug, Default)]
struct Best {
    top: Vec<(u32, f64)>,
    len: usize,
}

const PAGE_BITS: u32 = 16;
const PAGE_LEN: usize = 1 << PAGE_BITS;

/// The cells of 2^16 consecutive tids, or none if the page was never
/// touched. A cell belongs to the current query iff its stamp equals the
/// table's; anything else is a leftover and reads as empty. (Parallel
/// arrays: 12 B a cell, and a fresh page is a zeroed allocation, which the
/// OS maps only where it is written.)
#[derive(Debug, Default)]
struct Page {
    scores: Box<[f64]>,
    stamps: Box<[u32]>,
}

/// Page `at`, allocated on first touch.
#[inline]
fn page_mut(pages: &mut Vec<Page>, at: usize) -> &mut Page {
    if pages.get(at).map_or(true, |p| p.stamps.is_empty()) {
        touch(pages, at);
    }
    &mut pages[at]
}

#[cold]
fn touch(pages: &mut Vec<Page>, at: usize) {
    if at >= pages.len() {
        pages.resize_with(at + 1, Page::default);
    }
    pages[at] = Page {
        scores: vec![0.0; PAGE_LEN].into_boxed_slice(),
        stamps: vec![0; PAGE_LEN].into_boxed_slice(),
    };
}

impl ScoreTable {
    /// Cells allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.pages.iter().map(|p| p.stamps.len()).sum()
    }

    /// Put the stamp where the next `begin` wraps it.
    #[cfg(test)]
    pub(crate) fn set_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }
}

impl Best {
    /// A bumped or admitted tid now scores `score`: keep `top` current.
    #[inline]
    fn note(&mut self, tid: u32, score: f64) {
        if self.top.len() == self.len {
            // Full: the common case is a tid that does not reach the worst
            // retained entry. (A tid already retained always does, unless
            // its score did not move.) The float test settles most of them;
            // `-0.0` and NaN fall through to `total_cmp`.
            let worst = self.top[self.len - 1];
            if score < worst.1 || rank_cmp((tid, score), worst) != Ordering::Less {
                return;
            }
        }
        self.promote(tid, score);
    }

    #[cold]
    fn promote(&mut self, tid: u32, score: f64) {
        if let Some(at) = self.top.iter().position(|e| e.0 == tid) {
            self.top.remove(at);
        } else if self.top.len() == self.len {
            self.top.pop();
        }
        let at = self
            .top
            .partition_point(|&e| rank_cmp(e, (tid, score)) == Ordering::Less);
        self.top.insert(at, (tid, score));
    }
}

impl TidScores for ScoreTable {
    fn begin(&mut self, k: usize) {
        self.live.clear();
        self.processed = 0;
        self.best.top.clear();
        self.best.len = k + 1;
        self.heap.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The stamp wrapped: leftovers from 2^32 queries ago would
            // read as live.
            for page in &mut self.pages {
                page.stamps.fill(0);
            }
            self.stamp = 1;
        }
    }

    fn absorb(&mut self, tids: impl Iterator<Item = u32>, weight: f64, admit_new: bool) {
        let stamp = self.stamp;
        // The tids arrive sorted, so the page changes rarely; `at` starts
        // past every page, so the first tid looks its page up.
        let mut at = usize::MAX;
        let mut page = &mut Page::default();
        for tid in tids {
            if (tid >> PAGE_BITS) as usize != at {
                at = (tid >> PAGE_BITS) as usize;
                page = page_mut(&mut self.pages, at);
            }
            let i = tid as usize & (PAGE_LEN - 1);
            let score = if page.stamps[i] == stamp {
                page.scores[i] += weight;
                page.scores[i]
            } else if admit_new {
                page.stamps[i] = stamp;
                page.scores[i] = weight;
                self.live.push(tid);
                weight
            } else {
                continue;
            };
            self.processed += 1;
            self.best.note(tid, score);
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn tids_processed(&self) -> u64 {
        self.processed
    }

    fn top(&self) -> &[(u32, f64)] {
        &self.best.top
    }

    fn rank(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(self.live.iter().map(|&tid| {
            let page = &self.pages[(tid >> PAGE_BITS) as usize];
            Ranked(tid, page.scores[tid as usize & (PAGE_LEN - 1)])
        }));
        self.heap = BinaryHeap::from(entries);
    }

    fn pop_best(&mut self) -> Option<(u32, f64)> {
        self.heap.pop().map(|Ranked(tid, score)| (tid, score))
    }

    fn remaining(&self) -> usize {
        self.heap.len()
    }
}

/// Everything a query allocates besides its answer, pooled and reused:
/// the score table, the probe key buffer, and the exact-`fms` cache that
/// lets OSC's failed attempts pay off in the fallback.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T> {
    pub table: T,
    pub key: Vec<u8>,
    pub fms_cache: HashMap<u32, f64>,
}

/// Idle scratches, each with the thread that returned it, oldest first.
/// The lock is held only to pop or push one entry.
pub(crate) struct Pool {
    idle: lockorder::Ranked<Mutex<Vec<Idle>>, SCRATCH>,
}

type Idle = (ThreadId, Scratch<ScoreTable>);

impl Pool {
    pub(crate) const fn new() -> Pool {
        Pool {
            idle: lockorder::Ranked::new(Mutex::new(Vec::new())),
        }
    }

    /// The scratch `me` returned last, else the one returned most
    /// recently by any thread.
    pub(crate) fn take(&self, me: ThreadId) -> Option<Scratch<ScoreTable>> {
        let mut idle = self.idle.lock();
        let at = idle
            .iter()
            .rposition(|(owner, _)| *owner == me)
            .or_else(|| idle.len().checked_sub(1))?;
        Some(idle.remove(at).1)
    }

    /// Return `scratch`, dropping the oldest idle one beyond `max`.
    pub(crate) fn give_back(&self, me: ThreadId, scratch: Scratch<ScoreTable>, max: usize) {
        let mut idle = self.idle.lock();
        idle.push((me, scratch));
        let evicted = (idle.len() > max).then(|| idle.remove(0));
        drop(idle);
        drop(evicted); // freed outside the lock
    }

    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.idle.lock().len()
    }
}

pub(crate) static POOL: Pool = Pool::new();

thread_local! {
    /// Set by [`with_fresh_scratch`]: bypass the pool.
    static FRESH: Cell<bool> = const { Cell::new(false) };
}

/// At most this many scratches stay idle: one per core the process may
/// run on. Lookups in flight hold theirs besides.
pub(crate) fn max_idle() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Run `f` with a scratch from [`POOL`]: the one this thread returned
/// last (its pages are likely still in this core's caches), else the one
/// returned most recently by any thread, else a new one. Afterwards it
/// goes back, keeping at most [`max_idle`] idle. So scratch memory
/// follows the number of lookups running at once, not the number of
/// threads that ever ran one. A lookup re-entered from inside another
/// one on the same thread (a [`ReferenceFetch`] that itself looks
/// something up) simply takes a second scratch.
///
/// [`ReferenceFetch`]: crate::query::ReferenceFetch
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch<ScoreTable>) -> R) -> R {
    if FRESH.get() {
        return f(&mut Scratch::default());
    }
    let me = thread::current().id();
    let mut scratch = POOL.take(me).unwrap_or_default();
    let result = f(&mut scratch);
    POOL.give_back(me, scratch, max_idle());
    result
}

/// Run `f` with every lookup it makes on this thread scored in a scratch
/// of its own, allocated for that lookup and dropped after it: the
/// pristine reference a pooled scratch must be indistinguishable from.
#[doc(hidden)]
pub fn with_fresh_scratch<R>(f: impl FnOnce() -> R) -> R {
    let was = FRESH.replace(true);
    let result = f();
    FRESH.set(was);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marked(mark: u8) -> Scratch<ScoreTable> {
        Scratch {
            key: vec![mark],
            ..Scratch::default()
        }
    }

    #[test]
    fn a_thread_gets_its_own_scratch_back() {
        let pool = Pool::new();
        let me = thread::current().id();
        let other = thread::spawn(|| thread::current().id()).join().unwrap();
        pool.give_back(me, marked(1), 4);
        pool.give_back(other, marked(2), 4);
        // Its own, though another thread returned one since...
        assert_eq!(pool.take(me).unwrap().key, [1]);
        // ...else the one returned most recently, by whichever thread.
        pool.give_back(other, marked(3), 4);
        assert_eq!(pool.take(me).unwrap().key, [3]);
        assert_eq!(pool.take(me).unwrap().key, [2]);
        assert!(pool.take(me).is_none());
    }

    #[test]
    fn at_most_max_scratches_stay_idle_and_the_oldest_go() {
        let pool = Pool::new();
        for mark in 0..8 {
            let owner = thread::spawn(|| thread::current().id()).join().unwrap();
            pool.give_back(owner, marked(mark), 3);
            assert!(pool.idle() <= 3);
        }
        let me = thread::current().id();
        let left: Vec<_> = std::iter::from_fn(|| pool.take(me))
            .map(|s| s.key[0])
            .collect();
        assert_eq!(left, [7, 6, 5]);
    }
}
