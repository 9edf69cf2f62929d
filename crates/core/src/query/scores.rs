//! The scoring hash table (Figure 3's `TidScores`) and the per-thread
//! scratch it lives in.
//!
//! A lookup at 10^5 reference tuples bumps ~20 000 tid scores, asks "what
//! are the two best scores right now?" after every probe unit (the OSC
//! gate), and finally verifies only the few dozen best candidates. The
//! table is built for exactly that shape:
//!
//! * **accumulate** — an open-addressing `u32 → f64` table (multiplicative
//!   hash, linear probing) whose slots carry a per-query stamp, so
//!   "clearing" it for the next query is one increment and its storage is
//!   reused for the life of the thread;
//! * **best K+1, always current** — scores only grow, so a tid can enter
//!   the top set only at one of its own bumps: each bump is compared with
//!   the current (K+1)-th entry (one branch in the common case) and only a
//!   qualifying tid pays the O(K) insertion. The OSC gate reads the array;
//! * **rank lazily** — the verification phase consumes candidates in
//!   `(score desc, tid asc)` order but stops after a few dozen, so ranking
//!   is an O(n) heapify plus one pop per candidate actually consumed.
//!
//! `(score desc, tid asc)` is a total order over distinct tids, so the top
//! set and the pop order are the same whatever algorithm realises them:
//! results are bitwise those of collecting and fully sorting the table.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// The ranking order: higher score first, ties by ascending tid.
/// `Less` means `a` ranks before `b`.
fn rank_cmp(a: (u32, f64), b: (u32, f64)) -> Ordering {
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

#[derive(Debug, Clone, Copy)]
struct Slot {
    tid: u32,
    /// The slot belongs to the current query iff this equals the table's
    /// stamp; anything else is a leftover and reads as empty.
    stamp: u32,
    score: f64,
}

const EMPTY: Slot = Slot {
    tid: 0,
    stamp: 0,
    score: 0.0,
};

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

const MIN_SLOTS: usize = 1 << 10;

/// Storage kept between queries is capped here (1 MiB of slots); a query
/// that needed more shrinks back to the cap when the next one begins.
const MAX_RETAINED_SLOTS: usize = 1 << 16;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct ScoreTable {
    /// Power-of-two length; load factor kept at or below one half.
    slots: Vec<Slot>,
    stamp: u32,
    /// Slot indices of this query's tids, in admission order.
    live: Vec<u32>,
    processed: u64,
    /// At most `top_len` best entries, best first.
    top: Vec<(u32, f64)>,
    top_len: usize,
    heap: BinaryHeap<Ranked>,
}

impl Default for ScoreTable {
    fn default() -> ScoreTable {
        ScoreTable {
            slots: vec![EMPTY; MIN_SLOTS],
            stamp: 0,
            live: Vec::new(),
            processed: 0,
            top: Vec::new(),
            top_len: 0,
            heap: BinaryHeap::new(),
        }
    }
}

/// Fibonacci hashing into a table of `slots` (a power of two) entries: the
/// high bits of `tid × 2^32/φ` spread the dense, monotonically minted tids
/// evenly. (Tids are minted by the matcher, never supplied by a caller, so
/// there is no adversary to defend the hash against.)
#[inline]
fn home(tid: u32, slots: usize) -> usize {
    (tid.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
}

impl ScoreTable {
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for at in &mut self.live {
            let slot = old[*at as usize];
            let mut i = home(slot.tid, self.slots.len());
            while self.slots[i].stamp == self.stamp {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            *at = i as u32;
        }
    }

    /// A bumped or admitted tid now scores `score`: keep `top` current.
    #[inline]
    fn note(&mut self, tid: u32, score: f64) {
        if self.top.len() == self.top_len {
            // Full: the common case is a tid that does not reach the worst
            // retained entry. (A tid already retained always does, unless
            // its score did not move.)
            let worst = self.top[self.top_len - 1];
            if rank_cmp((tid, score), worst) != Ordering::Less {
                return;
            }
        }
        self.promote(tid, score);
    }

    #[cold]
    fn promote(&mut self, tid: u32, score: f64) {
        if let Some(at) = self.top.iter().position(|e| e.0 == tid) {
            self.top.remove(at);
        } else if self.top.len() == self.top_len {
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
        self.top.clear();
        self.top_len = k + 1;
        self.heap.clear();
        if self.slots.len() > MAX_RETAINED_SLOTS {
            // Back to the cap, not to `MIN_SLOTS`: a workload that needs
            // this much on every query must not regrow through every
            // doubling each time.
            self.slots = vec![EMPTY; MAX_RETAINED_SLOTS];
            self.stamp = 0;
            self.live.shrink_to(MAX_RETAINED_SLOTS / 2);
            self.heap.shrink_to(MAX_RETAINED_SLOTS / 2);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The stamp wrapped: leftovers from 2^32 queries ago would
            // read as live.
            self.slots.fill(EMPTY);
            self.stamp = 1;
        }
    }

    fn absorb(&mut self, tids: impl Iterator<Item = u32>, weight: f64, admit_new: bool) {
        for tid in tids {
            let mask = self.slots.len() - 1;
            let mut i = home(tid, self.slots.len());
            loop {
                let slot = self.slots[i];
                if slot.stamp != self.stamp {
                    if admit_new {
                        self.slots[i] = Slot {
                            tid,
                            stamp: self.stamp,
                            score: weight,
                        };
                        self.live.push(i as u32);
                        self.processed += 1;
                        self.note(tid, weight);
                        if self.live.len() * 2 > self.slots.len() {
                            self.grow();
                        }
                    }
                    break;
                }
                if slot.tid == tid {
                    let score = slot.score + weight;
                    self.slots[i].score = score;
                    self.processed += 1;
                    self.note(tid, score);
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn tids_processed(&self) -> u64 {
        self.processed
    }

    fn top(&self) -> &[(u32, f64)] {
        &self.top
    }

    fn rank(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(self.live.iter().map(|&at| {
            let slot = &self.slots[at as usize];
            Ranked(slot.tid, slot.score)
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

/// Everything a query allocates besides its answer, kept per thread and
/// reused: the score table, the probe key buffer, and the exact-`fms`
/// cache that lets OSC's failed attempts pay off in the fallback.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T> {
    pub table: T,
    pub key: Vec<u8>,
    pub fms_cache: HashMap<u32, f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch<ScoreTable>> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's scratch. A lookup re-entered from inside
/// another one on the same thread (a [`ReferenceFetch`] that itself looks
/// something up) gets a fresh scratch instead of the busy one.
///
/// [`ReferenceFetch`]: crate::query::ReferenceFetch
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch<ScoreTable>) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}
