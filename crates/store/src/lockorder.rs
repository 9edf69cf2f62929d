//! The canonical lock order, carried by the locks themselves, and the
//! one atomic flag type.
//!
//! Every `Mutex`/`RwLock` in fm-store, fm-core's weight table, tid map
//! and scratch pool, and fm-server's permit gate and connection registry
//! is a [`Ranked`] lock: its rank is a const parameter of its type,
//! declared once where the field is declared. Its `lock()`/`read()`/
//! `write()` return a [`Guard`] that holds a [`HeldRank`] for exactly as
//! long as the guard lives — including a guard returned to a caller — so
//! no call site places a token by hand. The order, outermost first
//! (DESIGN.md §8):
//!
//! ```text
//! weights < objects < latch < tail_hint < state < frame-data < wal < mem-pages < tid-map < gate < conns < scratch
//! ```
//!
//! Each rank also says whether a thread may hold it at a blocking point:
//! pager IO, a thread join, a channel receive, an accept, a connect or a
//! sleep. [`ORDER`] writes both columns once. The ranks that may not are
//! the short critical sections every other thread convoys behind: the
//! pool's shard `state`, the page map of a `MemPager`, the tid map, the
//! server's gate and registry, and the query scratch pool.
//!
//! Under `debug_assertions` a thread-local stack asserts that each
//! acquisition outranks every lock the thread already holds, before it
//! blocks, and [`blocking_point`] asserts that no held rank is one that
//! may not block. The whole test suite runs through both: the pool calls
//! [`blocking_point`] at every pager read, write-back and sync, and the
//! server before every join, accept, connect and sleep. In
//! release builds [`HeldRank`] is empty and [`blocking_point`] does
//! nothing, so a [`Ranked`] lock compiles to the bare lock and a [`Guard`]
//! to the bare guard.
//!
//! One lock class stays plain: the buffer pool's per-frame `data` latches,
//! because a B+-tree descent holds two of them at once and a rank per
//! frame would force a global frame order the clock eviction does not
//! need (DESIGN.md §8, the pin-count argument). The pool places a
//! [`FRAME`] token by hand only in its single-frame windows: the wait on a
//! loading frame, the fault-in and the write-back.
//!
//! [`Flag`] is the one way a library crate makes an `AtomicBool`
//! (`clippy.toml` disallows `AtomicBool::new` everywhere else): it offers
//! only Acquire loads, Release stores and AcqRel swaps, so a flag always
//! publishes the writes made before it was set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, PoisonError};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock classes, outermost first; a rank indexes [`ORDER`].
pub const WEIGHTS: u8 = 0;
pub const OBJECTS: u8 = 1;
pub const LATCH: u8 = 2;
pub const TAIL_HINT: u8 = 3;
pub const STATE: u8 = 4;
/// The single-frame `data` latch windows of the buffer pool only — never
/// the multi-frame descent path.
pub const FRAME: u8 = 5;
pub const WAL: u8 = 6;
pub const MEM_PAGES: u8 = 7;
pub const TID_MAP: u8 = 8;
/// fm-server's lookup permit gate.
pub const GATE: u8 = 9;
/// fm-server's connection-thread registry.
pub const CONNS: u8 = 10;
/// fm-core's pool of idle query scratches.
pub const SCRATCH: u8 = 11;

/// The name of each rank, in order, and whether it may be held at a
/// blocking point: the one place both are written.
pub const ORDER: [(&str, bool); 12] = [
    // A lookup probes and verifies, faulting pages in, under its read lock.
    ("weights", true),
    // `create_table`/`create_index` allocate and `check_invariants` scans under it.
    ("objects", true),
    // A B+-tree descent that misses reads its page under the latch.
    ("latch", true),
    // A heap insert reads and writes its tail page under the hint.
    ("tail_hint", true),
    // The pool's shard mutex: released before any pager IO (DESIGN.md §8).
    ("state", false),
    // The fault-in and the write-back are the IO of exactly this frame.
    ("frame-data", true),
    // The WAL's lock serializes its appends and the checkpoint's copy.
    ("wal", true),
    // A `MemPager` page copy: no IO beneath it.
    ("mem-pages", false),
    // One slot read or write of the matcher's tid → rid array.
    ("tid-map", false),
    // Every lookup takes and returns its permit under the gate's mutex.
    ("gate", false),
    // The acceptor and the drain push and take handles, never join under it.
    ("conns", false),
    // A lookup pops and pushes one idle scratch: a leaf, taken inside any
    // other rank a lookup holds.
    ("scratch", false),
];

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    use super::ORDER;

    thread_local! {
        /// The ranks of the locks this thread holds, in acquisition order.
        static HELD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }

    fn name(rank: u8) -> &'static str {
        ORDER.get(usize::from(rank)).map_or("?", |&(name, _)| name)
    }

    fn may_block(rank: u8) -> bool {
        ORDER
            .get(usize::from(rank))
            .is_some_and(|&(_, may_block)| may_block)
    }

    pub fn push(rank: u8) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.iter().max() {
                assert!(
                    top < rank,
                    "lock-order violation: acquiring `{}` (rank {rank}) while \
                     holding `{}` (rank {top}); the canonical order is {} \
                     (DESIGN.md §8)",
                    name(rank),
                    name(top),
                    ORDER.map(|(name, _)| name).join(" < "),
                );
            }
            held.push(rank);
        });
    }

    pub fn blocking_point(what: &str) {
        let held = HELD.with(|held| held.borrow().iter().copied().find(|&r| !may_block(r)));
        assert!(
            held.is_none(),
            "blocking point `{what}` reached while holding `{}`, a rank that \
             may not be held while blocking (lockorder::ORDER, DESIGN.md §8)",
            held.map_or("?", name),
        );
    }

    pub fn pop(rank: u8) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// Mark a blocking point — pager IO, a join, a channel receive, an
/// accept, a connect, a sleep. Under `debug_assertions` it panics naming
/// any rank the thread holds that may not be held while blocking
/// ([`ORDER`]); in release builds it does nothing.
#[inline]
pub fn blocking_point(what: &str) {
    #[cfg(debug_assertions)]
    imp::blocking_point(what);
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// RAII witness of one acquisition of rank `rank`: asserts the order on
/// construction (debug builds) and releases the rank on drop. A [`Guard`]
/// holds one; the buffer pool's frame windows construct one directly,
/// on the line *before* the latch, so the token drops after the guard.
pub struct HeldRank {
    #[cfg(debug_assertions)]
    rank: u8,
}

impl HeldRank {
    #[inline]
    #[must_use = "dropping the token immediately stops tracking the guard it covers"]
    pub fn acquire(rank: u8) -> HeldRank {
        #[cfg(debug_assertions)]
        {
            imp::push(rank);
            HeldRank { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            HeldRank {}
        }
    }
}

impl Drop for HeldRank {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::pop(self.rank);
    }
}

/// A lock of rank `RANK` (one of the constants above): `Ranked<Mutex<T>,
/// STATE>`, `Ranked<RwLock<T>, WEIGHTS>`, or a `std::sync::Mutex` where a
/// `Condvar` waits on it (`Ranked<std::sync::Mutex<T>, GATE>`).
#[derive(Default)]
pub struct Ranked<L, const RANK: u8>(L);

impl<L, const RANK: u8> Ranked<L, RANK> {
    pub const fn new(lock: L) -> Ranked<L, RANK> {
        Ranked(lock)
    }
}

/// A lock guard that holds its lock's rank until it drops.
pub struct Guard<G> {
    // Fields drop in declaration order: the lock is released first, then
    // its rank, so the rank over-approximates the hold window.
    guard: G,
    _rank: HeldRank,
}

impl<G> Guard<G> {
    #[inline]
    fn new(rank: u8, acquire: impl FnOnce() -> G) -> Guard<G> {
        let rank = HeldRank::acquire(rank);
        Guard {
            guard: acquire(),
            _rank: rank,
        }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for Guard<G> {
    type Target = G::Target;
    #[inline]
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Guard<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<T, const RANK: u8> Ranked<Mutex<T>, RANK> {
    #[inline]
    pub fn lock(&self) -> Guard<MutexGuard<'_, T>> {
        Guard::new(RANK, || self.0.lock())
    }
}

impl<T, const RANK: u8> Ranked<RwLock<T>, RANK> {
    #[inline]
    pub fn read(&self) -> Guard<RwLockReadGuard<'_, T>> {
        Guard::new(RANK, || self.0.read())
    }

    #[inline]
    pub fn write(&self) -> Guard<RwLockWriteGuard<'_, T>> {
        Guard::new(RANK, || self.0.write())
    }
}

impl<T, const RANK: u8> Ranked<std::sync::Mutex<T>, RANK> {
    /// Lock, recovering a poisoned mutex: its holders keep the state valid
    /// at every instruction boundary.
    #[inline]
    pub fn lock(&self) -> Guard<std::sync::MutexGuard<'_, T>> {
        Guard::new(RANK, || {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }
}

impl<'a, T> Guard<std::sync::MutexGuard<'a, T>> {
    /// `Condvar::wait` on this guard's mutex. The wait releases the mutex
    /// while it sleeps, so it is not a blocking point; the rank stays held.
    pub fn wait(self, condvar: &Condvar) -> Guard<std::sync::MutexGuard<'a, T>> {
        let Guard { guard, _rank } = self;
        Guard {
            guard: condvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
            _rank,
        }
    }
}

/// An `AtomicBool` whose loads are Acquire, stores Release and swaps
/// AcqRel: a flag publishes the writes made before it is set.
pub struct Flag(AtomicBool);

impl Flag {
    // The one `AtomicBool::new` in the library crates (`clippy.toml`).
    #[allow(clippy::disallowed_methods)]
    pub const fn new(value: bool) -> Flag {
        Flag(AtomicBool::new(value))
    }

    #[inline]
    #[must_use]
    pub fn load(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    pub fn store(&self, value: bool) {
        self.0.store(value, Ordering::Release);
    }

    /// Set to `value`, returning the previous value.
    #[inline]
    #[must_use]
    pub fn swap(&self, value: bool) -> bool {
        self.0.swap(value, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mutex<const RANK: u8>() -> Ranked<Mutex<()>, RANK> {
        Ranked::new(Mutex::new(()))
    }

    /// The message of the panic `f` raises.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the acquisition must assert");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn increasing_ranks_are_accepted() {
        let (objects, latch) = (mutex::<OBJECTS>(), Ranked::<_, LATCH>::new(RwLock::new(())));
        let state = mutex::<STATE>();
        let _a = objects.lock();
        let _b = latch.read();
        let _c = state.lock();
    }

    #[test]
    fn frame_rank_sits_between_state_and_wal() {
        // The miss protocol: shard state, then one frame latch, then the
        // WAL inside the write-back.
        let (state, wal) = (mutex::<STATE>(), mutex::<WAL>());
        let _a = state.lock();
        let _b = HeldRank::acquire(FRAME);
        let _c = wal.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn state_under_frame_is_rejected() {
        // Publishing without dropping the frame token first must assert:
        // this is the one mechanism that owns the shard-under-frame
        // inversion of the miss protocol (DESIGN.md §8).
        let state = mutex::<STATE>();
        let message = panic_message(|| {
            let _a = HeldRank::acquire(FRAME);
            let _b = state.lock();
        });
        assert!(
            message.contains("lock-order violation: acquiring `state`"),
            "got: {message}"
        );
    }

    #[test]
    fn release_reopens_the_rank() {
        let (objects, state) = (mutex::<OBJECTS>(), mutex::<STATE>());
        drop(state.lock());
        let _b = objects.lock();
        let _c = state.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reversed_ranks_are_rejected() {
        let (wal, weights) = (mutex::<WAL>(), Ranked::<_, WEIGHTS>::new(RwLock::new(0)));
        let message = panic_message(|| {
            let _a = wal.lock();
            let _b = weights.write();
        });
        assert!(
            message.contains("acquiring `weights` (rank 0) while holding `wal` (rank 6)"),
            "got: {message}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_is_rejected() {
        // Asserted before blocking, so a self-deadlock on a non-reentrant
        // lock is a panic, not a hang.
        let latch = Ranked::<_, LATCH>::new(RwLock::new(()));
        let message = panic_message(|| {
            let _a = latch.read();
            let _b = latch.read();
        });
        assert!(message.contains("acquiring `latch`"), "got: {message}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_unwinds_the_held_ranks() {
        // Guards dropped by the unwind release their ranks: the thread
        // starts clean afterwards.
        let (wal, weights) = (mutex::<WAL>(), mutex::<WEIGHTS>());
        let _ = panic_message(|| {
            let _a = wal.lock();
            let _b = weights.lock();
        });
        let _c = weights.lock();
        let _d = wal.lock();
    }
}
