//! The lookup permit gate: at most `permits` matcher calls run at once,
//! at most `max_waiters` callers wait for a permit, and waiters are
//! granted in arrival order.
//!
//! Each connection thread runs its own lookups; the gate is what bounds
//! concurrency against the store, however many sockets are open. A caller
//! that finds a permit free and nobody waiting takes it at once under one
//! short lock. Otherwise it draws a ticket and sleeps on the condvar until
//! its ticket is the next to be granted and a permit is free, so the wait
//! is first come, first served. A [`Permit`] gives its permit back when
//! it drops, on every path out of a lookup, unwinding included.
//!
//! Built on `std::sync::{Mutex, Condvar}` rather than the vendored
//! `parking_lot` shim because the shim has no `Condvar`. Lock poisoning
//! is recovered: the state is three counters, valid at every instruction
//! boundary. The mutex has rank `gate`, which may not be held at a
//! blocking point (`fm_store::lockorder`).

use std::sync::{Condvar, Mutex};

use fm_store::lockorder::{Ranked, GATE};

/// Why [`Gate::acquire`] refused a caller.
#[derive(Debug, PartialEq, Eq)]
pub enum Refused {
    /// Holders plus waiters already reach `max_inflight`.
    Inflight,
    /// `max_waiters` callers already wait.
    Full,
}

#[derive(Default)]
struct State {
    /// Permits out.
    held: usize,
    /// Tickets drawn and tickets granted: `issued - granted` callers wait.
    issued: u64,
    granted: u64,
}

impl State {
    fn waiting(&self) -> usize {
        usize::try_from(self.issued - self.granted).unwrap_or(usize::MAX)
    }
}

/// See the module docs.
pub struct Gate {
    state: Ranked<Mutex<State>, GATE>,
    turn: Condvar,
    permits: usize,
    max_waiters: usize,
    max_inflight: usize,
}

/// One permit, given back on drop.
#[must_use = "dropping the permit gives it back at once"]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate handing out `permits` (≥ 1) permits to at most
    /// `max_inflight` holders and waiters together, of whom at most
    /// `max_waiters` wait.
    #[must_use]
    pub fn new(permits: usize, max_waiters: usize, max_inflight: usize) -> Gate {
        Gate {
            state: Ranked::new(Mutex::new(State::default())),
            turn: Condvar::new(),
            permits: permits.max(1),
            max_waiters,
            max_inflight,
        }
    }

    /// Take a permit, waiting behind every earlier waiter if none is free.
    /// `Ok` also carries how many callers were waiting when this one
    /// arrived, itself included (0: it did not wait).
    pub fn acquire(&self) -> Result<(Permit<'_>, usize), Refused> {
        let mut state = self.state.lock();
        let waiting = state.waiting();
        if state.held + waiting >= self.max_inflight {
            return Err(Refused::Inflight);
        }
        if waiting == 0 && state.held < self.permits {
            state.held += 1;
            return Ok((Permit { gate: self }, 0));
        }
        if waiting >= self.max_waiters {
            return Err(Refused::Full);
        }
        let ticket = state.issued;
        state.issued += 1;
        while state.granted != ticket || state.held >= self.permits {
            // Not a blocking point: the wait releases the gate's mutex.
            state = state.wait(&self.turn);
        }
        state.granted += 1;
        state.held += 1;
        // A release may have freed more than this one permit's worth for
        // the next ticket: let it look.
        let next_may_go = state.waiting() > 0 && state.held < self.permits;
        drop(state);
        if next_may_go {
            self.turn.notify_all();
        }
        Ok((Permit { gate: self }, waiting + 1))
    }

    /// Callers waiting for a permit.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting()
    }

    /// Permits out plus callers waiting for one.
    #[must_use]
    pub fn inflight(&self) -> usize {
        let state = self.state.lock();
        state.held + state.waiting()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.held -= 1;
        let wake = state.waiting() > 0;
        drop(state);
        if wake {
            self.gate.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Spin until `gate` has `n` waiters.
    fn until_waiting(gate: &Gate, n: usize) {
        while gate.waiting() < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// 32 waiters queue behind one permit; each release wakes them all, and
    /// they must still be granted in arrival order. (Without the tickets,
    /// whichever woken waiter locks first wins, and this fails.)
    #[test]
    fn waiters_are_granted_in_arrival_order() {
        let gate = Gate::new(1, 64, 64);
        let first = gate.acquire().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for i in 0..32 {
                let (gate, tx) = (&gate, tx.clone());
                s.spawn(move || {
                    let (_permit, waited) = gate.acquire().unwrap();
                    tx.send((i, waited)).unwrap();
                });
                until_waiting(gate, i + 1);
            }
            drop(first);
        });
        drop(tx);
        let order: Vec<_> = rx.iter().collect();
        let arrival: Vec<_> = (0..32).map(|i| (i, i + 1)).collect();
        assert_eq!(order, arrival);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn a_panicking_holder_gives_its_permit_back() {
        let gate = Gate::new(1, 1, 2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.acquire().unwrap();
            panic!("lookup failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.acquire().map(|(_, waited)| waited).ok(), Some(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn blocking_under_the_gate_lock_panics() {
        // The probe of DESIGN.md §8: a thread that sleeps, joins or
        // receives while it holds the gate convoys every lookup.
        let gate = Gate::new(1, 1, 2);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _state = gate.state.lock();
            fm_store::lockorder::blocking_point("sleep");
        }))
        .expect_err("blocking under the gate lock must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("blocking point `sleep` reached while holding `gate`"),
            "got: {message}"
        );
        // The guard unwound with the panic: the gate still works.
        assert!(gate.acquire().is_ok());
    }
}
