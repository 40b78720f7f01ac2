//! The flat, object-granularity baseline.
//!
//! The introduction of the paper describes the simple way of reducing object
//! base concurrency control to database concurrency control: "we shall view
//! each object as a data item... we shall require that only one method
//! execution can be active at each object at any one time. With these
//! restrictions, any conventional database concurrency control method can be
//! employed" — the approach taken by Gemstone. This scheduler implements that
//! baseline with strict two-phase locking at the granularity of whole objects
//! and top-level transactions, in two flavours:
//!
//! * [`FlatMode::Exclusive`] — every method invocation takes an exclusive
//!   lock on the target object (one active method execution per object);
//! * [`FlatMode::ReadWrite`] — local operations take shared or exclusive
//!   object locks depending on whether they are read-only, allowing reader
//!   parallelism but nothing finer.
//!
//! Experiments E1–E3 measure how much concurrency this baseline gives up
//! relative to the nested, semantics-aware schedulers.

use crate::table::{LockKey, LockTable};
use obase_core::ids::{ExecId, ObjectId};
use obase_core::op::Operation;
use obase_core::sched::{Decision, Scheduler, TxnView};
use std::collections::BTreeMap;

/// Locking flavour of the flat baseline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlatMode {
    /// One exclusive object lock per method invocation.
    Exclusive,
    /// Shared/exclusive object locks per local operation.
    ReadWrite,
}

/// One invocation admitted into an object: who invoked it and, once the
/// method execution has begun, which execution it is. An occupancy with no
/// child yet is in the grant-to-begin window and admits nobody.
#[derive(Debug)]
struct Occupancy {
    invoker: ExecId,
    child: Option<ExecId>,
}

/// The flat (Gemstone-style) strict two-phase locking scheduler.
#[derive(Debug)]
pub struct FlatObjectScheduler {
    table: LockTable,
    mode: FlatMode,
    /// The baseline's own premise — "only one method execution can be
    /// active at each object at any one time" — enforced *within* each
    /// top-level transaction, keyed `(object, top)`. Across transactions
    /// the 2PL object locks already serialise access, but parallel sibling
    /// sub-executions of one transaction share their top's locks, so
    /// without this gate they interleave freely on the same object and
    /// produce intra-transaction serialisation cycles (found by the
    /// differential fuzzer; see `bugbase/`). Nested re-invocations from
    /// within the active execution's own computation remain admissible.
    active: BTreeMap<(ObjectId, ExecId), Vec<Occupancy>>,
}

impl FlatObjectScheduler {
    /// Creates the exclusive-per-invocation variant.
    pub fn exclusive() -> Self {
        FlatObjectScheduler {
            table: LockTable::new(),
            mode: FlatMode::Exclusive,
            active: BTreeMap::new(),
        }
    }

    /// Creates the read/write variant.
    pub fn read_write() -> Self {
        FlatObjectScheduler {
            table: LockTable::new(),
            mode: FlatMode::ReadWrite,
            active: BTreeMap::new(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> FlatMode {
        self.mode
    }

    fn acquire_object_lock(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        exclusive: bool,
        view: &dyn TxnView,
    ) -> Decision {
        // Locks are owned by the *top-level* transaction: the whole nested
        // computation is treated as one flat transaction.
        let top = view.top_level_of(exec);
        let key = LockKey::Object { exclusive };
        let ty = view.type_of(object);
        let blockers = self.table.blockers(object, &key, top, &ty, view);
        if blockers.is_empty() {
            self.table.grant(object, top, key);
            Decision::Grant
        } else {
            Decision::block(blockers)
        }
    }

    /// The intra-transaction occupancy gate: admit the invocation only if
    /// every execution currently active at `object` within `exec`'s
    /// transaction encloses the requester (a nested re-invocation from
    /// inside the active computation). On grant the slot is reserved
    /// immediately — the method execution is bound to it in
    /// [`Scheduler::on_begin`] — so two parallel siblings racing for the
    /// same object cannot both slip through the grant-to-begin window.
    fn admit_invocation(&mut self, exec: ExecId, object: ObjectId, view: &dyn TxnView) -> Decision {
        let top = view.top_level_of(exec);
        let occupants = self.active.entry((object, top)).or_default();
        let blockers: Vec<ExecId> = occupants
            .iter()
            .filter(|o| match o.child {
                Some(child) => !view.is_ancestor(child, exec),
                None => true, // unbound reservation: admits nobody yet
            })
            .map(|o| o.child.unwrap_or(o.invoker))
            .collect();
        if blockers.is_empty() {
            occupants.push(Occupancy {
                invoker: exec,
                child: None,
            });
            Decision::Grant
        } else {
            Decision::block(blockers)
        }
    }

    /// Drops every occupancy slot held by the finished execution `exec`
    /// (and, for a top-level completion, the transaction's whole residue —
    /// reservations whose execution never began because the transaction
    /// was interrupted between grant and begin).
    fn vacate(&mut self, exec: ExecId, view: &dyn TxnView) {
        if view.parent(exec).is_none() {
            self.active.retain(|(_, top), _| *top != exec);
        } else {
            let top = view.top_level_of(exec);
            for ((_, t), occupants) in self.active.iter_mut() {
                if *t == top {
                    occupants.retain(|o| o.child != Some(exec));
                }
            }
        }
    }
}

impl Scheduler for FlatObjectScheduler {
    fn name(&self) -> String {
        match self.mode {
            FlatMode::Exclusive => "flat-excl".to_owned(),
            FlatMode::ReadWrite => "flat-rw".to_owned(),
        }
    }

    fn on_begin(
        &mut self,
        exec: ExecId,
        parent: Option<ExecId>,
        object: ObjectId,
        view: &dyn TxnView,
    ) {
        // Bind the method execution to the slot its invoker reserved.
        let Some(parent) = parent else { return };
        let top = view.top_level_of(exec);
        if let Some(occupants) = self.active.get_mut(&(object, top)) {
            if let Some(slot) = occupants
                .iter_mut()
                .find(|o| o.invoker == parent && o.child.is_none())
            {
                slot.child = Some(exec);
            }
        }
    }

    fn request_invoke(
        &mut self,
        exec: ExecId,
        target: ObjectId,
        _method: &str,
        view: &dyn TxnView,
    ) -> Decision {
        // The inter-transaction lock first (exclusive mode only), then the
        // intra-transaction occupancy gate (both modes).
        if self.mode == FlatMode::Exclusive {
            let lock = self.acquire_object_lock(exec, target, true, view);
            if !lock.is_grant() {
                return lock;
            }
        }
        self.admit_invocation(exec, target, view)
    }

    fn request_local(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
        view: &dyn TxnView,
    ) -> Decision {
        match self.mode {
            FlatMode::Exclusive => Decision::Grant, // already covered by the invoke lock
            FlatMode::ReadWrite => {
                let ty = view.type_of(object);
                let exclusive = !ty.op_is_readonly(op);
                self.acquire_object_lock(exec, object, exclusive, view)
            }
        }
    }

    fn on_commit(&mut self, exec: ExecId, view: &dyn TxnView) {
        // Only the top-level commit releases locks (strict 2PL over the flat
        // transaction); occupancy slots free as each execution finishes.
        self.vacate(exec, view);
        if view.parent(exec).is_none() {
            self.table.inherit_or_release(exec, None);
        }
    }

    fn on_abort(&mut self, exec: ExecId, view: &dyn TxnView) {
        self.vacate(exec, view);
        if view.parent(exec).is_none() {
            self.table.release_all(exec);
        }
    }

    fn fork_object_shard(&self) -> Option<Box<dyn Scheduler>> {
        // Whole-object strict 2PL: lock and occupancy state are keyed per
        // object, and ownership resolves through the immutable genealogy
        // only.
        Some(Box::new(FlatObjectScheduler {
            table: LockTable::new(),
            mode: self.mode,
            active: BTreeMap::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view::ForestView;
    use obase_adt::Counter;
    use std::sync::Arc;

    #[test]
    fn exclusive_mode_serialises_whole_objects() {
        let view = ForestView::new(Arc::new(Counter::default()));
        let mut s = FlatObjectScheduler::exclusive();
        assert_eq!(s.name(), "flat-excl");
        let o = ObjectId(5);
        assert!(s.request_invoke(ExecId(10), o, "m", &view).is_grant());
        // A second transaction's invocation of the same object blocks even
        // though its operations would commute (the semantic information is
        // lost at this granularity).
        let d = s.request_invoke(ExecId(11), o, "m", &view);
        assert_eq!(d, Decision::block([ExecId(0)]));
        // Local operations are free (already covered by the invoke lock).
        assert!(s
            .request_local(ExecId(10), o, &Operation::unary("Add", 1), &view)
            .is_grant());
        // Nested commit does not release; top-level commit does.
        s.on_commit(ExecId(10), &view);
        assert!(s.request_invoke(ExecId(11), o, "m", &view).is_block());
        s.on_commit(ExecId(0), &view);
        assert!(s.request_invoke(ExecId(11), o, "m", &view).is_grant());
    }

    #[test]
    fn read_write_mode_allows_shared_readers() {
        let view = ForestView::new(Arc::new(Counter::default()));
        let mut s = FlatObjectScheduler::read_write();
        assert_eq!(s.name(), "flat-rw");
        let o = ObjectId(5);
        // Invocations do not lock in RW mode.
        assert!(s.request_invoke(ExecId(10), o, "m", &view).is_grant());
        assert!(s.request_invoke(ExecId(11), o, "m", &view).is_grant());
        // Two readers share.
        assert!(s
            .request_local(ExecId(10), o, &Operation::nullary("Get"), &view)
            .is_grant());
        assert!(s
            .request_local(ExecId(11), o, &Operation::nullary("Get"), &view)
            .is_grant());
        // A writer blocks behind both readers' top-level owners.
        let d = s.request_local(ExecId(10), o, &Operation::unary("Add", 1), &view);
        assert!(d.is_block());
    }

    #[test]
    fn abort_of_top_level_releases() {
        let view = ForestView::new(Arc::new(Counter::default()));
        let mut s = FlatObjectScheduler::exclusive();
        let o = ObjectId(2);
        assert!(s.request_invoke(ExecId(10), o, "m", &view).is_grant());
        s.on_abort(ExecId(10), &view); // nested abort: no release
        assert!(s.request_invoke(ExecId(11), o, "m", &view).is_block());
        s.on_abort(ExecId(0), &view); // top-level abort: release
        assert!(s.request_invoke(ExecId(11), o, "m", &view).is_grant());
    }
}
