//! Semantic lock tables.
//!
//! A lock is associated with a local step (or, conservatively, with an
//! operation): `L(t)` conflicts with `L(t')` iff `t` conflicts with `t'`
//! (Section 5.1). The table stores, per object, which execution owns which
//! locks, and answers the rule-2 question "may `e` acquire this lock?" — yes
//! iff every execution owning a conflicting lock is an ancestor of `e`.

use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::TypeHandle;
use obase_core::op::{LocalStep, Operation};
use obase_core::sched::TxnView;
use std::collections::BTreeMap;

/// Whether locks are keyed by operations (conservative; acquirable before the
/// operation executes) or by steps (return-value aware; acquired after a
/// provisional execution).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LockGranularity {
    /// One lock per operation; conflicts via `ops_conflict`.
    Operation,
    /// One lock per step `(operation, return value)`; conflicts via
    /// `steps_conflict`.
    Step,
}

/// What a lock protects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockKey {
    /// An operation-level lock.
    Op(Operation),
    /// A step-level lock.
    Step(LocalStep),
    /// A whole-object lock (used by the flat baseline); `true` means the
    /// holder may write.
    Object {
        /// Whether the lock is exclusive.
        exclusive: bool,
    },
}

impl LockKey {
    /// Whether this lock conflicts with another on the same object, given the
    /// object's semantic type.
    pub fn conflicts_with(&self, other: &LockKey, ty: &TypeHandle) -> bool {
        match (self, other) {
            (LockKey::Op(a), LockKey::Op(b)) => ty.ops_conflict(a, b) || ty.ops_conflict(b, a),
            (LockKey::Step(a), LockKey::Step(b)) => {
                ty.steps_conflict(a, b) || ty.steps_conflict(b, a)
            }
            (LockKey::Op(a), LockKey::Step(b)) | (LockKey::Step(b), LockKey::Op(a)) => {
                ty.ops_conflict(a, &b.op) || ty.ops_conflict(&b.op, a)
            }
            (LockKey::Object { exclusive: a }, LockKey::Object { exclusive: b }) => *a || *b,
            // Whole-object locks conflict with every finer-grained lock.
            (LockKey::Object { .. }, _) | (_, LockKey::Object { .. }) => true,
        }
    }
}

/// One granted lock.
#[derive(Clone, Debug)]
pub struct LockEntry {
    /// The execution that owns the lock.
    pub owner: ExecId,
    /// What the lock protects.
    pub key: LockKey,
}

/// A lock table covering every object of the object base.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: BTreeMap<ObjectId, Vec<LockEntry>>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The executions that own a lock on `object` conflicting with `key` and
    /// are *not* ancestors of `requester` (rule 2's blockers). Empty means
    /// the lock may be acquired.
    pub fn blockers(
        &self,
        object: ObjectId,
        key: &LockKey,
        requester: ExecId,
        ty: &TypeHandle,
        view: &dyn TxnView,
    ) -> Vec<ExecId> {
        let mut out = Vec::new();
        if let Some(entries) = self.locks.get(&object) {
            for entry in entries {
                if entry.owner == requester || view.is_ancestor(entry.owner, requester) {
                    continue;
                }
                if entry.key.conflicts_with(key, ty) && !out.contains(&entry.owner) {
                    out.push(entry.owner);
                }
            }
        }
        out
    }

    /// Grants a lock to `owner` (the caller has already checked
    /// [`blockers`](LockTable::blockers)).
    pub fn grant(&mut self, object: ObjectId, owner: ExecId, key: LockKey) {
        self.locks
            .entry(object)
            .or_default()
            .push(LockEntry { owner, key });
    }

    /// Returns `true` if `owner` holds any lock on `object`.
    pub fn holds_any(&self, object: ObjectId, owner: ExecId) -> bool {
        self.locks
            .get(&object)
            .is_some_and(|entries| entries.iter().any(|e| e.owner == owner))
    }

    /// Number of locks currently held by `owner` across all objects.
    pub fn count_owned(&self, owner: ExecId) -> usize {
        self.locks
            .values()
            .map(|entries| entries.iter().filter(|e| e.owner == owner).count())
            .sum()
    }

    /// Total number of granted locks.
    pub fn len(&self) -> usize {
        self.locks.values().map(Vec::len).sum()
    }

    /// Returns `true` if no locks are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rule 5: on commit of `child`, every lock it owns is acquired by
    /// `parent` (or simply released when the committing execution is
    /// top-level and `parent` is `None`).
    pub fn inherit_or_release(&mut self, child: ExecId, parent: Option<ExecId>) {
        for entries in self.locks.values_mut() {
            match parent {
                Some(p) => {
                    for e in entries.iter_mut() {
                        if e.owner == child {
                            e.owner = p;
                        }
                    }
                }
                None => entries.retain(|e| e.owner != child),
            }
        }
        self.locks.retain(|_, v| !v.is_empty());
    }

    /// Releases every lock owned by `owner` (used on abort).
    pub fn release_all(&mut self, owner: ExecId) {
        for entries in self.locks.values_mut() {
            entries.retain(|e| e.owner != owner);
        }
        self.locks.retain(|_, v| !v.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view::ForestView;
    use obase_adt::{Counter, FifoQueue};
    use obase_core::object::TypeHandle;
    use std::sync::Arc;

    fn counter() -> TypeHandle {
        Arc::new(Counter::default())
    }

    #[test]
    fn commuting_operation_locks_are_compatible() {
        let mut table = LockTable::new();
        let ty = counter();
        let view = ForestView::new(Arc::new(Counter::default()));
        let o = ObjectId(0);
        let add = LockKey::Op(Operation::unary("Add", 1));
        let add2 = LockKey::Op(Operation::unary("Add", 5));
        let get = LockKey::Op(Operation::nullary("Get"));
        table.grant(o, ExecId(1), add.clone());
        assert!(table.blockers(o, &add2, ExecId(2), &ty, &view).is_empty());
        assert_eq!(
            table.blockers(o, &get, ExecId(2), &ty, &view),
            vec![ExecId(1)]
        );
        // The owner itself and its descendants are never blocked.
        assert!(table.blockers(o, &get, ExecId(1), &ty, &view).is_empty());
        assert!(table.blockers(o, &get, ExecId(11), &ty, &view).is_empty());
    }

    #[test]
    fn step_locks_use_return_values() {
        let table = {
            let mut t = LockTable::new();
            t.grant(
                ObjectId(0),
                ExecId(1),
                LockKey::Step(LocalStep::new(Operation::unary("Enqueue", 7), ())),
            );
            t
        };
        let ty: TypeHandle = Arc::new(FifoQueue);
        let view = ForestView::new(Arc::new(Counter::default()));
        let deq_other = LockKey::Step(LocalStep::new(Operation::nullary("Dequeue"), Value::Int(3)));
        let deq_same = LockKey::Step(LocalStep::new(Operation::nullary("Dequeue"), Value::Int(7)));
        assert!(table
            .blockers(ObjectId(0), &deq_other, ExecId(2), &ty, &view)
            .is_empty());
        assert_eq!(
            table.blockers(ObjectId(0), &deq_same, ExecId(2), &ty, &view),
            vec![ExecId(1)]
        );
    }

    use obase_core::value::Value;

    #[test]
    fn inherit_and_release() {
        let mut table = LockTable::new();
        let o = ObjectId(0);
        table.grant(o, ExecId(11), LockKey::Op(Operation::nullary("Get")));
        table.grant(o, ExecId(11), LockKey::Op(Operation::unary("Add", 1)));
        assert_eq!(table.count_owned(ExecId(11)), 2);
        // Child commits: parent inherits (rule 5).
        table.inherit_or_release(ExecId(11), Some(ExecId(1)));
        assert_eq!(table.count_owned(ExecId(11)), 0);
        assert_eq!(table.count_owned(ExecId(1)), 2);
        assert!(table.holds_any(o, ExecId(1)));
        // Top-level commits: locks are released.
        table.inherit_or_release(ExecId(1), None);
        assert!(table.is_empty());
    }

    #[test]
    fn release_all_on_abort() {
        let mut table = LockTable::new();
        table.grant(ObjectId(0), ExecId(3), LockKey::Object { exclusive: true });
        table.grant(ObjectId(1), ExecId(3), LockKey::Object { exclusive: false });
        table.grant(ObjectId(1), ExecId(4), LockKey::Object { exclusive: false });
        table.release_all(ExecId(3));
        assert_eq!(table.len(), 1);
        assert!(table.holds_any(ObjectId(1), ExecId(4)));
    }

    #[test]
    fn object_lock_compatibility() {
        let ty = counter();
        let shared = LockKey::Object { exclusive: false };
        let exclusive = LockKey::Object { exclusive: true };
        assert!(!shared.conflicts_with(&shared, &ty));
        assert!(shared.conflicts_with(&exclusive, &ty));
        assert!(exclusive.conflicts_with(&exclusive, &ty));
        assert!(exclusive.conflicts_with(&LockKey::Op(Operation::nullary("Get")), &ty));
    }
}
