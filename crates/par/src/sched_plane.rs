//! The sharded scheduler plane: per-object-shard concurrency-control locks.
//!
//! The paper's per-object scheduler decomposition — each object
//! synchronises independently — is the blueprint for splitting the old
//! control-plane mutex. Schedulers that declare themselves per-object
//! decomposable ([`Scheduler::fork_object_shard`]) run as one instance per
//! object shard, each behind its own mutex, so grant/release decisions for
//! objects in different shards never contend. Schedulers with global state
//! (the SGT certifier, mixed compositions) run as a single instance behind
//! one lock — the plane degenerates gracefully.
//!
//! ## Ordered lazy `on_begin` delivery (the begin feed)
//!
//! Shard instances must agree on per-execution state that is derived from
//! the order in which executions begin (NTO's hierarchical timestamps are
//! the canonical example). Eagerly broadcasting `on_begin` to every shard
//! under the lifecycle lock would re-couple the planes, so begins are
//! instead appended (under the lifecycle lock, hence in execution-id order)
//! to a shared *feed*, and each shard catches up on the feed — delivering
//! the pending `on_begin`s in order — the next time its lock is taken. A
//! shard therefore always sees `on_begin(e)` before any other hook about
//! `e`, and every shard sees begins in the same order.
//!
//! ## Targeted lifecycle broadcasts
//!
//! Commit, abort and certification hooks are delivered only to the shards a
//! transaction actually touched (tracked by the engine), one shard at a
//! time in ascending index order — no two shard locks are ever held
//! together, so the shards cannot deadlock against each other or against
//! anything else.

use crate::exec_index::IndexView;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::sched::{AbortReason, Decision, Scheduler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One queued `on_begin` announcement.
#[derive(Clone, Copy, Debug)]
struct BeginRecord {
    exec: ExecId,
    parent: Option<ExecId>,
    object: ObjectId,
}

struct ShardSched {
    sched: Box<dyn Scheduler>,
    /// How many feed entries this shard has already delivered.
    seen: usize,
}

/// The scheduler plane. See the module docs.
pub struct SchedPlane {
    shards: Vec<Mutex<ShardSched>>,
    feed: Mutex<Vec<BeginRecord>>,
    /// Published length of `feed` (release-stored after each append): lets
    /// a fully caught-up shard skip the feed mutex on the hot path — every
    /// step's shard acquisition would otherwise serialise on that one
    /// global lock, re-creating exactly the contention this plane removes.
    feed_len: AtomicUsize,
    sharded: bool,
}

impl std::fmt::Debug for SchedPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedPlane")
            .field("shards", &self.shards.len())
            .field("sharded", &self.sharded)
            .finish()
    }
}

/// A locked shard, with the feed already caught up: every hook invoked
/// through it has seen all earlier `on_begin`s in order.
pub struct ShardGuard<'a> {
    guard: MutexGuard<'a, ShardSched>,
}

impl ShardGuard<'_> {
    /// The shard's scheduler instance.
    pub fn sched(&mut self) -> &mut dyn Scheduler {
        self.guard.sched.as_mut()
    }
}

impl SchedPlane {
    /// Builds the plane: `shards` instances if the scheduler is per-object
    /// decomposable, a single instance otherwise.
    pub fn new(scheduler: Box<dyn Scheduler>, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut instances: Vec<Mutex<ShardSched>> = Vec::new();
        let mut sharded = false;
        let mut scheduler = Some(scheduler);
        if shards > 1 {
            let forks: Vec<Option<Box<dyn Scheduler>>> = (1..shards)
                .map(|_| {
                    scheduler
                        .as_ref()
                        .expect("not yet moved")
                        .fork_object_shard()
                })
                .collect();
            if forks.iter().all(Option::is_some) {
                sharded = true;
                instances.push(Mutex::new(ShardSched {
                    sched: scheduler.take().expect("not yet moved"),
                    seen: 0,
                }));
                instances.extend(forks.into_iter().map(|f| {
                    Mutex::new(ShardSched {
                        sched: f.expect("checked above"),
                        seen: 0,
                    })
                }));
            }
        }
        if let Some(sched) = scheduler {
            instances.push(Mutex::new(ShardSched { sched, seen: 0 }));
        }
        SchedPlane {
            shards: instances,
            feed: Mutex::new(Vec::new()),
            feed_len: AtomicUsize::new(0),
            sharded,
        }
    }

    /// `true` if the scheduler was decomposed into per-object shards.
    pub fn is_sharded(&self) -> bool {
        self.sharded
    }

    /// Number of scheduler shards (1 for monolithic schedulers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard responsible for an object's scheduler state.
    pub fn shard_of(&self, o: ObjectId) -> usize {
        o.index() % self.shards.len()
    }

    /// Queues an `on_begin` announcement. Must be called under the lifecycle
    /// lock, immediately after the execution id is allocated, so the feed
    /// order equals execution-id order.
    pub fn announce_begin(&self, exec: ExecId, parent: Option<ExecId>, object: ObjectId) {
        let mut feed = self.feed.lock().expect("begin feed poisoned");
        feed.push(BeginRecord {
            exec,
            parent,
            object,
        });
        self.feed_len.store(feed.len(), Ordering::Release);
    }

    fn catch_up(&self, shard: &mut ShardSched, view: &IndexView<'_>) {
        // Fast path: a caught-up shard never touches the feed mutex. Any
        // execution a hook on this shard can legitimately reference was
        // announced before the hook's issuer could learn of it, so an
        // acquire-load of the published length is enough to detect backlog.
        if shard.seen == self.feed_len.load(Ordering::Acquire) {
            return;
        }
        let feed = self.feed.lock().expect("begin feed poisoned");
        while shard.seen < feed.len() {
            let r = feed[shard.seen];
            shard.seen += 1;
            shard.sched.on_begin(r.exec, r.parent, r.object, view);
        }
    }

    /// Locks the shard for `object` (catching up the begin feed first) and
    /// returns it together with its index, for touched-shard tracking.
    pub fn lock_object_shard<'a>(
        &'a self,
        object: ObjectId,
        view: &IndexView<'_>,
    ) -> (usize, ShardGuard<'a>) {
        let idx = self.shard_of(object);
        (idx, self.lock_shard(idx, view))
    }

    /// Locks one shard by index, catching up the begin feed first.
    pub fn lock_shard<'a>(&'a self, idx: usize, view: &IndexView<'_>) -> ShardGuard<'a> {
        let mut guard = self.shards[idx].lock().expect("scheduler shard poisoned");
        self.catch_up(&mut guard, view);
        ShardGuard { guard }
    }

    /// The shard indices a lifecycle broadcast must visit: the touched set
    /// for a decomposed plane, always `{0}` for a monolithic one. Ascending
    /// order; the caller locks them one at a time.
    fn broadcast_targets(&self, touched: &[usize]) -> Vec<usize> {
        if self.sharded {
            touched.to_vec() // already sorted (engine keeps a BTreeSet)
        } else {
            vec![0]
        }
    }

    /// Certifies a commit across the plane: any shard's abort decision
    /// vetoes; block decisions at commit are grants (the shared rule).
    pub fn certify_commit(
        &self,
        touched: &[usize],
        exec: ExecId,
        view: &IndexView<'_>,
    ) -> Result<(), AbortReason> {
        for idx in self.broadcast_targets(touched) {
            let mut shard = self.lock_shard(idx, view);
            match shard.sched().certify_commit(exec, view) {
                Decision::Abort(reason) => return Err(reason),
                Decision::Block { .. } | Decision::Grant => {}
            }
        }
        Ok(())
    }

    /// Delivers `on_commit` for one execution to the touched shards.
    pub fn on_commit(&self, touched: &[usize], exec: ExecId, view: &IndexView<'_>) {
        for idx in self.broadcast_targets(touched) {
            let mut shard = self.lock_shard(idx, view);
            shard.sched().on_commit(exec, view);
        }
    }

    /// Delivers `on_abort` for a whole aborted subtree to the touched
    /// shards, children before parents within each shard (the release order
    /// the kernel's shared release path uses).
    pub fn on_abort_subtree(&self, touched: &[usize], subtree: &[ExecId], view: &IndexView<'_>) {
        for idx in self.broadcast_targets(touched) {
            let mut shard = self.lock_shard(idx, view);
            for &e in subtree.iter().rev() {
                shard.sched().on_abort(e, view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_index::ExecIndex;
    use obase_adt::Register;
    use obase_core::object::ObjectBase;
    use obase_core::op::Operation;
    use obase_core::sched::NullScheduler;
    use obase_sched::{N2plScheduler, SgtCertifier};
    use std::sync::Arc;

    fn index_two_objects() -> (ExecIndex, ObjectId, ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Register::default()));
        let y = base.add_object("y", Arc::new(Register::default()));
        (ExecIndex::new(Arc::new(base)), x, y)
    }

    #[test]
    fn decomposable_schedulers_shard_and_global_ones_do_not() {
        let plane = SchedPlane::new(Box::new(N2plScheduler::operation_locks()), 4);
        assert!(plane.is_sharded());
        assert_eq!(plane.shard_count(), 4);
        let plane = SchedPlane::new(Box::new(SgtCertifier::new()), 4);
        assert!(!plane.is_sharded());
        assert_eq!(plane.shard_count(), 1);
        let plane = SchedPlane::new(Box::new(NullScheduler), 1);
        assert!(!plane.is_sharded());
    }

    #[test]
    fn begin_feed_catches_up_lazily_and_in_order() {
        let (idx, x, y) = index_two_objects();
        let plane = SchedPlane::new(Box::new(N2plScheduler::operation_locks()), 2);
        // Two transactions, announced in id order under the (simulated)
        // lifecycle lock.
        idx.push(ExecId(0), None, ObjectId::ENVIRONMENT);
        plane.announce_begin(ExecId(0), None, ObjectId::ENVIRONMENT);
        idx.push(ExecId(1), Some(ExecId(0)), x);
        plane.announce_begin(ExecId(1), Some(ExecId(0)), x);
        idx.push(ExecId(2), None, ObjectId::ENVIRONMENT);
        plane.announce_begin(ExecId(2), None, ObjectId::ENVIRONMENT);
        idx.push(ExecId(3), Some(ExecId(2)), y);
        plane.announce_begin(ExecId(3), Some(ExecId(2)), y);

        let view = idx.view();
        let w = Operation::unary("Write", 1);
        // Shard of x grants E1; the conflicting E3 write on x blocks behind
        // it even though shard-of-x only learned of both execs lazily.
        let (sx, mut shard) = plane.lock_object_shard(x, &view);
        assert!(shard
            .sched()
            .request_local(ExecId(1), x, &w, &view)
            .is_grant());
        assert!(shard
            .sched()
            .request_local(ExecId(3), x, &w, &view)
            .is_block());
        drop(shard);
        // The other shard is independent: E3 writes y freely.
        let (sy, mut shard) = plane.lock_object_shard(y, &view);
        assert_ne!(sx, sy);
        assert!(shard
            .sched()
            .request_local(ExecId(3), y, &w, &view)
            .is_grant());
        drop(shard);
        // Commit E1 then its parent on the touched shard releases the lock.
        plane.on_commit(&[sx], ExecId(1), &view);
        plane.on_commit(&[sx], ExecId(0), &view);
        let (_, mut shard) = plane.lock_object_shard(x, &view);
        assert!(shard
            .sched()
            .request_local(ExecId(3), x, &w, &view)
            .is_grant());
    }

    #[test]
    fn certify_combines_abort_decisions_across_shards() {
        let (idx, x, _) = index_two_objects();
        let plane = SchedPlane::new(Box::new(N2plScheduler::step_locks()), 2);
        idx.push(ExecId(0), None, ObjectId::ENVIRONMENT);
        plane.announce_begin(ExecId(0), None, ObjectId::ENVIRONMENT);
        let view = idx.view();
        // N2PL certify always grants; the combined result is Ok.
        assert!(plane.certify_commit(&[0, 1], ExecId(0), &view).is_ok());
        // Abort broadcast reaches the touched shards without deadlock.
        plane.on_abort_subtree(&[0, 1], &[ExecId(0)], &view);
        let _ = x;
    }
}
