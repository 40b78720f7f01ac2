//! Nested two-phase locking (N2PL), Section 5.1.
//!
//! The rules, quoted from the paper:
//!
//! 1. `e` can issue step `t` only while it owns `L(t)`.
//! 2. `e` can acquire a lock `L` only if every method execution which owns a
//!    lock that conflicts with `L` is an ancestor of `e`.
//! 3. `e` cannot acquire any lock after releasing one.
//! 4. `e` cannot release a lock until its children have released all of
//!    theirs.
//! 5. When `e` releases a lock, the lock is immediately acquired by `e`'s
//!    parent, if one exists.
//!
//! This implementation is *strict*: an execution releases its locks only when
//! it commits (passing them to its parent, rule 5) or aborts, which makes
//! rules 3 and 4 hold by construction — the same choice the paper notes Argus
//! makes for recovery reasons.
//!
//! Two lock granularities are supported, corresponding to the paper's two
//! implementation styles: operation locks (acquired in `request_local`, before
//! the return value is known) and step locks (acquired in `validate_step`
//! after a provisional execution, exploiting return values for extra
//! concurrency — the Enqueue/Dequeue example).

use crate::table::{LockGranularity, LockKey, LockTable};
use obase_core::ids::{ExecId, ObjectId};
use obase_core::op::{LocalStep, Operation};
use obase_core::sched::{Decision, Scheduler, TxnView};

/// The nested two-phase locking scheduler.
#[derive(Debug)]
pub struct N2plScheduler {
    table: LockTable,
    granularity: LockGranularity,
}

impl N2plScheduler {
    /// Creates an N2PL scheduler with operation-level locks (the conservative
    /// style).
    pub fn operation_locks() -> Self {
        N2plScheduler {
            table: LockTable::new(),
            granularity: LockGranularity::Operation,
        }
    }

    /// Creates an N2PL scheduler with step-level locks (the return-value
    /// aware style).
    pub fn step_locks() -> Self {
        N2plScheduler {
            table: LockTable::new(),
            granularity: LockGranularity::Step,
        }
    }

    /// Creates an N2PL scheduler with the given granularity.
    pub fn with_granularity(granularity: LockGranularity) -> Self {
        N2plScheduler {
            table: LockTable::new(),
            granularity,
        }
    }

    /// The configured lock granularity.
    pub fn granularity(&self) -> LockGranularity {
        self.granularity
    }

    /// Access to the lock table (used by tests and diagnostics).
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    fn try_acquire(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        key: LockKey,
        view: &dyn TxnView,
    ) -> Decision {
        let ty = view.type_of(object);
        let blockers = self.table.blockers(object, &key, exec, &ty, view);
        if blockers.is_empty() {
            self.table.grant(object, exec, key);
            Decision::Grant
        } else {
            Decision::block(blockers)
        }
    }
}

impl Scheduler for N2plScheduler {
    fn name(&self) -> String {
        match self.granularity {
            LockGranularity::Operation => "n2pl-op".to_owned(),
            LockGranularity::Step => "n2pl-step".to_owned(),
        }
    }

    fn request_local(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
        view: &dyn TxnView,
    ) -> Decision {
        match self.granularity {
            LockGranularity::Operation => {
                self.try_acquire(exec, object, LockKey::Op(op.clone()), view)
            }
            // Step locks are acquired after the provisional execution.
            LockGranularity::Step => Decision::Grant,
        }
    }

    fn validate_step(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) -> Decision {
        match self.granularity {
            LockGranularity::Operation => Decision::Grant,
            LockGranularity::Step => {
                self.try_acquire(exec, object, LockKey::Step(step.clone()), view)
            }
        }
    }

    fn on_commit(&mut self, exec: ExecId, view: &dyn TxnView) {
        // Rule 5: locks pass to the parent; a top-level commit releases them.
        self.table.inherit_or_release(exec, view.parent(exec));
    }

    fn on_abort(&mut self, exec: ExecId, _view: &dyn TxnView) {
        self.table.release_all(exec);
    }

    fn fork_object_shard(&self) -> Option<Box<dyn Scheduler>> {
        // The lock table is keyed per object and rule 2 only consults locks
        // on the requested object, so N2PL decomposes per object.
        Some(Box::new(N2plScheduler::with_granularity(self.granularity)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view::ForestView;
    use obase_adt::{Counter, FifoQueue, Register};
    use obase_core::value::Value;
    use std::sync::Arc;

    #[test]
    fn conflicting_operation_locks_block() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = N2plScheduler::operation_locks();
        assert_eq!(s.name(), "n2pl-op");
        let o = ObjectId(0);
        let w = Operation::unary("Write", 1);
        assert!(s.request_local(ExecId(10), o, &w, &view).is_grant());
        // An incomparable execution is blocked behind the holder.
        let d = s.request_local(ExecId(11), o, &w, &view);
        assert_eq!(d, Decision::block([ExecId(10)]));
        // The holder's ancestor may also acquire (it is not blocked by its
        // descendant's lock... rule 2 blocks only non-ancestors of the
        // requester; the parent requesting is blocked by the child).
        let d = s.request_local(ExecId(0), o, &w, &view);
        assert!(d.is_block());
    }

    #[test]
    fn commuting_operations_do_not_block() {
        let view = ForestView::new(Arc::new(Counter::default()));
        let mut s = N2plScheduler::operation_locks();
        let o = ObjectId(0);
        assert!(s
            .request_local(ExecId(10), o, &Operation::unary("Add", 1), &view)
            .is_grant());
        assert!(s
            .request_local(ExecId(11), o, &Operation::unary("Add", 2), &view)
            .is_grant());
        // But a Get is blocked behind both adders.
        let d = s.request_local(ExecId(0), o, &Operation::nullary("Get"), &view);
        assert!(d.is_block());
    }

    #[test]
    fn lock_inheritance_on_commit() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = N2plScheduler::operation_locks();
        let o = ObjectId(0);
        let w = Operation::unary("Write", 1);
        assert!(s.request_local(ExecId(10), o, &w, &view).is_grant());
        // Child E10 commits: its lock passes to parent E0 (rule 5).
        s.on_commit(ExecId(10), &view);
        assert_eq!(s.table().count_owned(ExecId(10)), 0);
        assert_eq!(s.table().count_owned(ExecId(0)), 1);
        // Another top-level transaction is still blocked (retained lock).
        assert!(s.request_local(ExecId(1), o, &w, &view).is_block());
        // E0 (top-level) commits: the lock is finally released.
        s.on_commit(ExecId(0), &view);
        assert!(s.request_local(ExecId(1), o, &w, &view).is_grant());
    }

    #[test]
    fn abort_releases_locks() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = N2plScheduler::operation_locks();
        let o = ObjectId(0);
        let w = Operation::unary("Write", 1);
        assert!(s.request_local(ExecId(10), o, &w, &view).is_grant());
        s.on_abort(ExecId(10), &view);
        assert!(s.request_local(ExecId(11), o, &w, &view).is_grant());
    }

    #[test]
    fn step_locks_allow_nonmatching_queue_operations() {
        let view = ForestView::new(Arc::new(FifoQueue));
        let mut s = N2plScheduler::step_locks();
        assert_eq!(s.name(), "n2pl-step");
        let o = ObjectId(0);
        // Operation-phase requests always pass in step mode.
        assert!(s
            .request_local(ExecId(10), o, &Operation::unary("Enqueue", 7), &view)
            .is_grant());
        // Step validation takes the actual lock.
        let enq = LocalStep::new(Operation::unary("Enqueue", 7), ());
        assert!(s.validate_step(ExecId(10), o, &enq, &view).is_grant());
        // A dequeue returning a *different* item does not conflict (the
        // paper's example) and is granted to an incomparable execution.
        let deq_other = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(3));
        assert!(s.validate_step(ExecId(11), o, &deq_other, &view).is_grant());
        // A dequeue returning the enqueued item is blocked.
        let deq_same = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(7));
        assert!(s.validate_step(ExecId(1), o, &deq_same, &view).is_block());
    }

    #[test]
    fn operation_locks_block_all_queue_dequeues() {
        // Contrast with the step-lock test: with operation locks the Enqueue
        // blocks every Dequeue, matching the paper's observation.
        let view = ForestView::new(Arc::new(FifoQueue));
        let mut s = N2plScheduler::operation_locks();
        let o = ObjectId(0);
        assert!(s
            .request_local(ExecId(10), o, &Operation::unary("Enqueue", 7), &view)
            .is_grant());
        assert!(s
            .request_local(ExecId(11), o, &Operation::nullary("Dequeue"), &view)
            .is_block());
    }
}
