//! The resident worker pool: OS threads that outlive the runs they serve.
//!
//! Spawning and joining a run's worker threads costs more than running a
//! short transaction, so the engine hands each run's workers beyond the
//! first (which is the calling thread) to a process-wide pool as jobs and
//! waits on a [`Latch`]. A thread is created
//! only when no idle one is waiting, and resident threads never exit, so the
//! pool settles at the peak number of workers requested at once. A job that
//! panics is caught on its pool thread, which survives; the latch reports
//! the panic to the run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One unit of work: a run's worker loop.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// Opens once every job of one submission has finished.
pub(crate) struct Latch {
    /// Jobs still running or queued, and whether any of them panicked.
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Latch {
    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the latch opens; `true` if any job panicked.
    pub(crate) fn wait(&self) -> bool {
        let state = self.lock();
        let state = self
            .cv
            .wait_while(state, |(left, _)| *left > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.1
    }

    fn count_down(&self, panicked: bool) {
        let mut state = self.lock();
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.cv.notify_all();
        }
    }
}

/// A pool of resident threads. Cloning shares the pool.
#[derive(Clone)]
pub(crate) struct Pool(Arc<Inner>);

struct Inner {
    state: Mutex<State>,
    /// Idle threads wait here for queued jobs.
    cv: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<(Job, Arc<Latch>)>,
    /// Threads not running a job: waiting, woken, or not yet started.
    idle: usize,
    /// Threads ever created (none exits).
    threads: usize,
}

impl Pool {
    pub(crate) fn new() -> Self {
        Pool(Arc::new(Inner {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }))
    }

    /// The process-wide pool, created on first use.
    pub(crate) fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::new)
    }

    /// Jobs run outside this lock and the state is consistent between
    /// statements, so a poisoned lock is safe to reuse.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `jobs`, waking an idle thread for each or creating one when
    /// none is waiting, and returns the latch that opens when all finish.
    pub(crate) fn submit(&self, jobs: Vec<Job>) -> Arc<Latch> {
        let latch = Arc::new(Latch {
            state: Mutex::new((jobs.len(), false)),
            cv: Condvar::new(),
        });
        let mut state = self.lock();
        for job in jobs {
            state.queue.push_back((job, Arc::clone(&latch)));
            if state.idle >= state.queue.len() {
                self.0.cv.notify_one();
            } else {
                state.threads += 1;
                state.idle += 1;
                let pool = self.clone();
                std::thread::Builder::new()
                    .name("obase-par-worker".into())
                    .spawn(move || pool.serve())
                    .expect("failed to spawn a pool thread");
            }
        }
        latch
    }

    /// Threads created so far.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.lock().threads
    }

    /// A resident thread's loop: run queued jobs, wait when there are none.
    fn serve(self) {
        let mut state = self.lock();
        loop {
            let Some((job, latch)) = state.queue.pop_front() else {
                state = self
                    .0
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            state.idle -= 1;
            drop(state);
            // The job (and everything it captured) is gone before the latch
            // opens, so the waiting run owns its state again.
            let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
            // Count down and go idle in one pool-lock section: a run that
            // follows this one then finds the thread idle and reuses it.
            state = self.lock();
            state.idle += 1;
            latch.count_down(panicked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noops(n: usize) -> Vec<Job> {
        (0..n).map(|_| Box::new(|| {}) as Job).collect()
    }

    #[test]
    fn back_to_back_submissions_reuse_idle_threads() {
        let pool = Pool::new();
        for _ in 0..2000 {
            assert!(!pool.submit(noops(4)).wait());
        }
        assert_eq!(pool.threads(), 4);
        assert!(!pool.submit(noops(6)).wait());
        assert_eq!(pool.threads(), 6);
    }

    #[test]
    fn a_panicking_job_is_reported_and_its_thread_survives() {
        let pool = Pool::new();
        assert!(pool.submit(vec![Box::new(|| panic!("job failed"))]).wait());
        assert!(!pool.submit(noops(1)).wait());
        assert_eq!(pool.threads(), 1);
    }
}
