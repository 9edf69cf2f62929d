//! Debug-only runtime verification of the canonical lock order.
//!
//! `cargo xtask analyze` (`lock-order`) checks statically that every
//! `Mutex`/`RwLock` acquisition it can resolve respects the declared
//! order, on every path, including those no test drives (DESIGN.md §8):
//!
//! ```text
//! weights < objects < latch < tail_hint < state < frame-data < wal
//! ```
//!
//! This module is the *runtime* counterpart: each acquisition site declares
//! its rank by constructing a [`HeldRank`] token immediately **before**
//! taking the guard (so the token drops **after** the guard it covers), and
//! under `debug_assertions` a thread-local stack asserts that ranks are
//! strictly increasing per thread. The two must agree — the multi-threaded
//! lookup/insert test in `tests/tests/concurrency.rs` drives real queries
//! and maintenance through every tracked lock and fails if the statically
//! declared order is not the one actually taken.
//!
//! Per-frame `data` latches are tracked only where the miss protocol holds
//! exactly **one** of them — the fault-in write latch and the flush
//! write-back read latch ([`FRAME`]). The B-tree descent path deliberately
//! stays untracked: a split legitimately latches parent and child at once,
//! and a rank per frame would force a global frame order the clock
//! eviction scheme does not need (see DESIGN.md §8 for the pin-count
//! argument). Also untracked: `MemPager::pages` (a leaf below every
//! tracked rank) and `FuzzyMatcher::weights_snapshot`, whose guard escapes
//! to the caller and outlives any token scoped here.
//!
//! In release builds everything compiles to nothing.

/// Ranks, outermost first, spaced for future insertions.
pub const WEIGHTS: u16 = 10;
pub const OBJECTS: u16 = 20;
pub const LATCH: u16 = 30;
pub const TAIL_HINT: u16 = 40;
pub const STATE: u16 = 50;
/// The single-frame `data` latch windows of the buffer-pool miss/flush
/// protocol only — never the multi-frame descent path.
pub const FRAME: u16 = 55;
pub const WAL: u16 = 60;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// The `(rank, name)` stack of tracked locks this thread holds.
        static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn push(rank: u16, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top, top_name)) = held.last() {
                assert!(
                    top < rank,
                    "lock-order violation: acquiring `{name}` (rank {rank}) while \
                     holding `{top_name}` (rank {top}); the canonical order is \
                     weights < objects < latch < tail_hint < state < frame-data \
                     < wal (DESIGN.md §8)"
                );
            }
            held.push((rank, name));
        });
    }

    pub fn pop(rank: u16) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(r, _)| r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// RAII witness of one tracked lock acquisition. Construct it on the line
/// *before* the guard it covers:
///
/// ```ignore
/// let _rank = lockorder::HeldRank::acquire(lockorder::STATE, "state");
/// let mut st = self.state.lock();
/// ```
///
/// Declared first, it drops last — the rank outlives the guard by a hair,
/// which over-approximates the hold window and can never mask a violation.
pub struct HeldRank {
    #[cfg(debug_assertions)]
    rank: u16,
}

impl HeldRank {
    #[inline]
    #[must_use = "dropping the token immediately stops tracking the guard it covers"]
    pub fn acquire(rank: u16, name: &'static str) -> HeldRank {
        #[cfg(debug_assertions)]
        {
            imp::push(rank, name);
            HeldRank { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, name);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_accepted() {
        let _a = HeldRank::acquire(OBJECTS, "objects");
        let _b = HeldRank::acquire(LATCH, "latch");
        let _c = HeldRank::acquire(STATE, "state");
    }

    #[test]
    fn frame_rank_sits_between_state_and_wal() {
        // The miss protocol: shard state, then one frame latch, then the
        // WAL inside the write-back.
        let _a = HeldRank::acquire(STATE, "state");
        let _b = HeldRank::acquire(FRAME, "frame-data");
        let _c = HeldRank::acquire(WAL, "wal");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn state_under_frame_is_rejected() {
        // Publishing without dropping the frame token first must assert:
        // this is the one mechanism that owns the shard-under-frame
        // inversion of the miss protocol (DESIGN.md §8).
        let result = std::panic::catch_unwind(|| {
            let _a = HeldRank::acquire(FRAME, "frame-data");
            let _b = HeldRank::acquire(STATE, "state");
        });
        let panic = result.expect_err("re-taking state under a frame latch must assert");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains("lock-order violation: acquiring `state`"),
            "got: {message}"
        );
        imp::pop(FRAME);
        imp::pop(STATE);
    }

    #[test]
    fn release_reopens_the_rank() {
        {
            let _a = HeldRank::acquire(STATE, "state");
        }
        let _b = HeldRank::acquire(OBJECTS, "objects");
        let _c = HeldRank::acquire(STATE, "state");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reversed_ranks_are_rejected() {
        let result = std::panic::catch_unwind(|| {
            let _a = HeldRank::acquire(WAL, "wal");
            let _b = HeldRank::acquire(WEIGHTS, "weights");
        });
        assert!(result.is_err(), "acquiring weights under wal must assert");
        // The panic unwound past the drops; clear this thread's stack so
        // other tests on the same thread start clean.
        imp::pop(WAL);
        imp::pop(WEIGHTS);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            let _a = HeldRank::acquire(LATCH, "latch");
            let _b = HeldRank::acquire(LATCH, "latch");
        });
        assert!(result.is_err(), "same-rank nesting is a self-deadlock");
        imp::pop(LATCH);
        imp::pop(LATCH);
    }
}
