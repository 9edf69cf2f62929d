//! A bounded MPMC queue with close-and-drain semantics.
//!
//! The serving layer's single hand-off point: connection threads
//! `try_push` (admission control wants a fast full/closed verdict, never
//! a blocking producer), worker threads `pop` (blocking; `None` means
//! the queue is closed *and* drained, which is what makes graceful
//! shutdown lossless — a worker only exits once nothing it could serve
//! remains).
//!
//! Built on `std::sync::{Mutex, Condvar}` rather than the vendored
//! `parking_lot` shim because the shim has no `Condvar`. Lock poisoning
//! is recovered: the state is a `VecDeque` plus a flag, both valid at
//! every instruction boundary. The mutex has rank `queue`, which may not
//! be held at a blocking point (`fm_store::lockorder`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use fm_store::lockorder::{Ranked, QUEUE};

/// Why a `try_push` was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// At capacity; the item is handed back for an overload reply.
    Full(T),
    /// Closed for new work (shutdown drain in progress).
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO.
pub struct Bounded<T> {
    state: Ranked<Mutex<State<T>>, QUEUE>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Bounded<T> {
        Bounded {
            state: Ranked::new(Mutex::new(State {
                items: VecDeque::with_capacity(cap.max(1)),
                closed: false,
            })),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue without blocking; `Ok` carries the depth after the push.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocking dequeue. `None` only once the queue is closed and every
    /// item pushed before the close has been handed out.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            // Not a blocking point: the wait releases the queue mutex
            // while the worker sleeps, so nothing waits behind the guard.
            state = state.wait(&self.not_empty);
        }
    }

    /// Stop accepting work and wake every blocked consumer. Items already
    /// queued remain poppable (drain).
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_when_closed() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        q.close();
        assert_eq!(q.try_push(4), Err(PushError::Closed(4)));
        // Drain still works after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn blocking_under_the_queue_lock_panics() {
        // The probe of DESIGN.md §8: a worker that sleeps, joins or
        // receives while it holds the queue convoys every other thread.
        let q = Bounded::<u32>::new(1);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _state = q.state.lock();
            fm_store::lockorder::blocking_point("sleep");
        }))
        .expect_err("blocking under the queue lock must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("blocking point `sleep` reached while holding `queue`"),
            "got: {message}"
        );
        // The guard unwound with the panic: the queue still works.
        assert_eq!(q.try_push(7), Ok(1));
    }

    #[test]
    fn close_drains_under_contention() {
        // 4 producers push 100 items each; consumers drain; close after
        // all pushes. Every accepted item must come out exactly once.
        let q = Arc::new(Bounded::new(1000));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.try_push(p * 100 + i).expect("capacity 1000");
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        let expected: Vec<i32> = (0..400).collect();
        assert_eq!(all, expected, "closed queue must drain losslessly");
    }
}
