//! The canonical lock order, carried by the locks themselves.
//!
//! Every `Mutex`/`RwLock` in fm-store, and fm-core's weight table and tid
//! map, is a [`Ranked`] lock: its rank is a const parameter of its type,
//! declared once where the field is declared. Its `lock()`/`read()`/
//! `write()` return a [`Guard`] that holds a [`HeldRank`] for exactly as
//! long as the guard lives — including a guard returned to a caller — so
//! no call site places a token by hand. The order, outermost first (DESIGN.md §8):
//!
//! ```text
//! weights < objects < latch < tail_hint < state < frame-data < wal < mem-pages < tid-map
//! ```
//!
//! `tid-map` is fm-core's in-memory tid → rid array: a leaf, held for
//! one slot read or write with nothing acquired under it.
//!
//! Under `debug_assertions` a thread-local stack asserts that each
//! acquisition outranks every lock the thread already holds, before it
//! blocks; the whole test suite runs through it, and the multi-threaded
//! lookup/maintenance mix in `tests/tests/concurrency.rs` drives every
//! ranked lock. In release builds [`HeldRank`] is empty, so a [`Ranked`]
//! lock compiles to the bare lock and a [`Guard`] to the bare guard.
//!
//! One lock class stays plain: the buffer pool's per-frame `data` latches,
//! because a B+-tree descent holds two of them at once and a rank per
//! frame would force a global frame order the clock eviction does not
//! need (DESIGN.md §8, the pin-count argument). The pool places a
//! [`FRAME`] token by hand only in its single-frame windows: the wait on a
//! loading frame, the fault-in and the write-back.

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

/// The name of each rank, in order: the one place the order is written.
pub const ORDER: [&str; 9] = [
    "weights",
    "objects",
    "latch",
    "tail_hint",
    "state",
    "frame-data",
    "wal",
    "mem-pages",
    "tid-map",
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
        ORDER.get(usize::from(rank)).copied().unwrap_or("?")
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
                    ORDER.join(" < "),
                );
            }
            held.push(rank);
        });
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
/// STATE>` or `Ranked<RwLock<T>, WEIGHTS>`.
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
