//! Targeted per-transaction parking: the waiter registry.
//!
//! The old control plane parked every blocked worker on one condition
//! variable keyed to a global generation counter and `notify_all`ed it on
//! *every* state transition — a thundering herd in which each install woke
//! every blocked worker just to re-request and block again. This registry
//! replaces the broadcast with *targeted* wakeups:
//!
//! * a blocked activity registers `(top-level txn, holders it waits for)`
//!   together with its private [`Signal`] **while still holding the
//!   scheduler-shard lock that produced the `Block` decision** — any
//!   release that could change the predicate must acquire that same shard
//!   lock first and wakes the registry afterwards, so registration can
//!   never miss a wakeup;
//! * a commit or abort wakes only the entries whose `waiting_for` set
//!   intersects the released executions ([`Waiters::wake_released`]);
//! * dooming a transaction (deadlock victim, cascade, shutdown) wakes only
//!   the parked activities *of that transaction* so they unwind
//!   ([`Waiters::wake_top`]).
//!
//! Every park still uses a timeout (the engine's tick) as a belt-and-braces
//! liveness backstop — a custom scheduler whose block predicate changes on
//! transitions other than commit/abort re-polls at tick cadence instead of
//! hanging — but the backstop is never what delivers a wakeup on the
//! built-in schedulers' paths.
//!
//! Lock order: the registry mutex is a *leaf* — no other lock is acquired
//! while holding it, and it may be acquired while holding any plane lock.

use obase_core::ids::ExecId;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A single-waiter signal: the parked activity owns it, wakers flip the flag
/// and notify. Reused across parks of the same activity.
#[derive(Debug, Default)]
pub struct Signal {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Signal {
    /// A fresh, unsignalled signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes the owning activity (idempotent).
    pub fn notify(&self) {
        let mut flag = self.flag.lock().expect("signal lock poisoned");
        *flag = true;
        self.cv.notify_one();
    }

    fn reset(&self) {
        *self.flag.lock().expect("signal lock poisoned") = false;
    }

    /// Parks until notified or the timeout elapses. Returns `true` if a
    /// notification was delivered.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut flag = self.flag.lock().expect("signal lock poisoned");
        while !*flag {
            let (f, result) = self
                .cv
                .wait_timeout(flag, timeout)
                .expect("signal lock poisoned");
            flag = f;
            if result.timed_out() {
                break;
            }
        }
        *flag
    }
}

#[derive(Debug)]
struct Entry {
    top: ExecId,
    waiting_for: Vec<ExecId>,
    signal: std::sync::Arc<Signal>,
}

/// A token identifying a registered waiter; only the registering activity
/// deregisters it (wakers never free slots, so tokens cannot be reused out
/// from under their owner).
#[derive(Clone, Copy, Debug)]
pub struct WaitToken(usize);

/// The waiter registry. See the module docs for the parking protocol.
#[derive(Debug, Default)]
pub struct Waiters {
    inner: Mutex<Slab>,
}

#[derive(Debug, Default)]
struct Slab {
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
}

impl Waiters {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a blocked activity of `top` waiting for `waiting_for`.
    /// Resets the signal before publishing the entry, so a wakeup delivered
    /// any time after this call is visible to the subsequent
    /// [`Signal::wait_timeout`]. Call while still holding the lock under
    /// which the `Block` decision was made.
    pub fn register(
        &self,
        top: ExecId,
        waiting_for: Vec<ExecId>,
        signal: &std::sync::Arc<Signal>,
    ) -> WaitToken {
        signal.reset();
        let entry = Entry {
            top,
            waiting_for,
            signal: std::sync::Arc::clone(signal),
        };
        let mut slab = self.inner.lock().expect("waiter registry poisoned");
        let idx = match slab.free.pop() {
            Some(i) => {
                slab.entries[i] = Some(entry);
                i
            }
            None => {
                slab.entries.push(Some(entry));
                slab.entries.len() - 1
            }
        };
        WaitToken(idx)
    }

    /// Removes a registration (after waking or timing out).
    pub fn deregister(&self, token: WaitToken) {
        let mut slab = self.inner.lock().expect("waiter registry poisoned");
        if slab.entries[token.0].take().is_some() {
            slab.free.push(token.0);
        }
    }

    /// Wakes every waiter whose predicate may have changed because the given
    /// executions released scheduler resources (commit or abort): entries
    /// whose `waiting_for` intersects `released`, plus entries that named no
    /// holders (nothing to target, so they are woken conservatively).
    pub fn wake_released(&self, released: &[ExecId]) {
        let slab = self.inner.lock().expect("waiter registry poisoned");
        for entry in slab.entries.iter().flatten() {
            if entry.waiting_for.is_empty()
                || entry.waiting_for.iter().any(|w| released.contains(w))
            {
                entry.signal.notify();
            }
        }
    }

    /// Wakes the parked activities of one transaction (it was doomed or
    /// aborted and must unwind).
    pub fn wake_top(&self, top: ExecId) {
        let slab = self.inner.lock().expect("waiter registry poisoned");
        for entry in slab.entries.iter().flatten() {
            if entry.top == top {
                entry.signal.notify();
            }
        }
    }

    /// Wakes everyone (shutdown).
    pub fn wake_all(&self) {
        let slab = self.inner.lock().expect("waiter registry poisoned");
        for entry in slab.entries.iter().flatten() {
            entry.signal.notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn targeted_wakeups_hit_only_matching_waiters() {
        let w = Waiters::new();
        let s1 = Arc::new(Signal::new());
        let s2 = Arc::new(Signal::new());
        let t1 = w.register(ExecId(1), vec![ExecId(9)], &s1);
        let t2 = w.register(ExecId(2), vec![ExecId(8)], &s2);
        w.wake_released(&[ExecId(9)]);
        assert!(s1.wait_timeout(Duration::from_millis(1)));
        assert!(!s2.wait_timeout(Duration::from_millis(1)));
        w.deregister(t1);
        w.deregister(t2);
    }

    #[test]
    fn empty_holder_sets_are_woken_conservatively() {
        let w = Waiters::new();
        let s = Arc::new(Signal::new());
        let t = w.register(ExecId(1), vec![], &s);
        w.wake_released(&[ExecId(5)]);
        assert!(s.wait_timeout(Duration::from_millis(1)));
        w.deregister(t);
    }

    #[test]
    fn wake_top_interrupts_a_transactions_parked_activities() {
        let w = Waiters::new();
        let s1 = Arc::new(Signal::new());
        let s2 = Arc::new(Signal::new());
        let t1 = w.register(ExecId(1), vec![ExecId(9)], &s1);
        let t2 = w.register(ExecId(2), vec![ExecId(9)], &s2);
        w.wake_top(ExecId(2));
        assert!(!s1.wait_timeout(Duration::from_millis(1)));
        assert!(s2.wait_timeout(Duration::from_millis(1)));
        w.deregister(t1);
        w.deregister(t2);
    }

    #[test]
    fn registration_before_wake_never_loses_the_wakeup() {
        // Wake *between* register and wait: the flag must carry it.
        let w = Waiters::new();
        let s = Arc::new(Signal::new());
        let t = w.register(ExecId(1), vec![ExecId(3)], &s);
        w.wake_released(&[ExecId(3)]);
        assert!(s.wait_timeout(Duration::from_millis(1)));
        w.deregister(t);
        // Slots are reused only after the owner deregisters.
        let s2 = Arc::new(Signal::new());
        let t2 = w.register(ExecId(4), vec![], &s2);
        w.deregister(t2);
    }

    #[test]
    fn parked_thread_is_woken_across_threads() {
        let w = Arc::new(Waiters::new());
        let s = Arc::new(Signal::new());
        let token = w.register(ExecId(1), vec![ExecId(2)], &s);
        let waker = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                w.wake_released(&[ExecId(2)]);
            })
        };
        assert!(s.wait_timeout(Duration::from_secs(5)));
        w.deregister(token);
        waker.join().unwrap();
    }
}
