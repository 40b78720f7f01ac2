//! The nested timestamp ordering scheduler (Reed's algorithm, Section 5.2).
//!
//! Every method execution receives a hierarchical timestamp on begin: a fresh
//! top-level component from the environment counter for user transactions,
//! and the parent's timestamp extended by the parent's message counter for
//! nested executions (which makes NTO rule 2 hold by construction).
//!
//! NTO rule 1 — conflicting local steps of incomparable executions must be
//! processed in timestamp order — is enforced in one of two styles:
//!
//! * **Conservative**: for every object the scheduler retains, per operation,
//!   the largest timestamp that has issued it. A request is admitted only if
//!   every *conflicting* retained operation has a smaller timestamp;
//!   otherwise the requester is aborted. Comparable executions (ancestors /
//!   descendants) are exempt, as rule 1 only concerns incomparable ones.
//! * **Provisional**: the engine provisionally executes the operation and the
//!   scheduler validates the resulting *step* against the retained step
//!   history using the return-value-aware conflict relation, admitting
//!   strictly more interleavings (e.g. enqueue/dequeue pairs that touch
//!   different items). Retained steps can be garbage-collected once every
//!   live execution has a larger timestamp, which is the paper's "forgetting"
//!   mechanism.
//!
//! NTO never blocks: its only recourse is abortion, so under contention it
//! trades the blocking of N2PL for retries (experiment E4).

use crate::hts::HierTimestamp;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::op::{LocalStep, Operation};
use obase_core::sched::{AbortReason, Decision, Scheduler, TxnView};
use std::collections::BTreeMap;

/// Which of the two implementation styles of Section 5.2 to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NtoStyle {
    /// Operation-level validation against per-operation maximum timestamps.
    Conservative,
    /// Step-level validation against the retained step history.
    Provisional,
}

/// One execution's record of having issued an operation at an object. Kept
/// per `(op, issuer)` — not as a single per-operation maximum — because
/// [`Scheduler::on_abort`] must erase an aborted execution's records
/// without also erasing the (still-binding) accesses of live and committed
/// executions it happened to shadow. A single shared maximum loses exactly
/// that information: once its issuer aborts, earlier conflicting accesses
/// by others become invisible and rule 1 silently stops being enforced
/// (found by the differential fuzzer; see `bugbase/`).
#[derive(Clone, Debug)]
struct RetainedOp {
    op: Operation,
    max_hts: HierTimestamp,
    issuer: ExecId,
}

#[derive(Clone, Debug)]
struct RetainedStep {
    step: LocalStep,
    hts: HierTimestamp,
    issuer: ExecId,
}

/// The nested timestamp ordering scheduler.
#[derive(Debug)]
pub struct NtoScheduler {
    style: NtoStyle,
    top_counter: u64,
    child_counters: BTreeMap<ExecId, u64>,
    timestamps: BTreeMap<ExecId, HierTimestamp>,
    retained_ops: BTreeMap<ObjectId, Vec<RetainedOp>>,
    retained_steps: BTreeMap<ObjectId, Vec<RetainedStep>>,
    retained_cap: usize,
}

impl NtoScheduler {
    /// Creates a conservative (operation-level) NTO scheduler.
    pub fn conservative() -> Self {
        Self::with_style(NtoStyle::Conservative)
    }

    /// Creates a provisional (step-level) NTO scheduler.
    pub fn provisional() -> Self {
        Self::with_style(NtoStyle::Provisional)
    }

    /// Creates an NTO scheduler with the given style.
    pub fn with_style(style: NtoStyle) -> Self {
        NtoScheduler {
            style,
            top_counter: 0,
            child_counters: BTreeMap::new(),
            timestamps: BTreeMap::new(),
            retained_ops: BTreeMap::new(),
            retained_steps: BTreeMap::new(),
            retained_cap: 4096,
        }
    }

    /// The configured style.
    pub fn style(&self) -> NtoStyle {
        self.style
    }

    /// The timestamp assigned to an execution, if it has begun.
    pub fn timestamp_of(&self, e: ExecId) -> Option<&HierTimestamp> {
        self.timestamps.get(&e)
    }

    /// Discards retained step information older than `watermark`: entries
    /// whose timestamp is smaller than the smallest timestamp of any live
    /// execution can never cause a rule-1 violation again. This is the
    /// "forgetting" mechanism the paper describes for the provisional style.
    pub fn garbage_collect(&mut self, watermark: &HierTimestamp) {
        for entries in self.retained_steps.values_mut() {
            entries.retain(|e| e.hts >= *watermark);
        }
        self.retained_steps.retain(|_, v| !v.is_empty());
    }

    /// Number of retained step records (provisional style bookkeeping size).
    pub fn retained_step_count(&self) -> usize {
        self.retained_steps.values().map(Vec::len).sum()
    }

    fn hts_or_assign_top(&mut self, e: ExecId) -> HierTimestamp {
        if let Some(ts) = self.timestamps.get(&e) {
            return ts.clone();
        }
        self.top_counter += 1;
        let ts = HierTimestamp::top_level(self.top_counter);
        self.timestamps.insert(e, ts.clone());
        ts
    }

    fn comparable(&self, a: ExecId, b: ExecId, view: &dyn TxnView) -> bool {
        view.is_ancestor(a, b) || view.is_ancestor(b, a)
    }

    fn check_conservative(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
        view: &dyn TxnView,
    ) -> Decision {
        let Some(my_ts) = self.timestamps.get(&exec).cloned() else {
            return Decision::Abort(AbortReason::NeverBegan);
        };
        let ty = view.type_of(object);
        let retained = self.retained_ops.entry(object).or_default();
        for r in retained.iter() {
            if r.issuer == exec || r.max_hts == my_ts {
                continue;
            }
            let conflicting = ty.ops_conflict(&r.op, op) || ty.ops_conflict(op, &r.op);
            if !conflicting {
                continue;
            }
            if r.max_hts.comparable(&my_ts) {
                // Comparable executions are exempt from rule 1.
                continue;
            }
            if r.max_hts > my_ts {
                return Decision::Abort(AbortReason::TimestampOrder);
            }
        }
        // Admit: record the access, one entry per (operation, issuer).
        match retained
            .iter_mut()
            .find(|r| r.op == *op && r.issuer == exec)
        {
            Some(r) => {
                if my_ts > r.max_hts {
                    r.max_hts = my_ts;
                }
            }
            None => retained.push(RetainedOp {
                op: op.clone(),
                max_hts: my_ts,
                issuer: exec,
            }),
        }
        Decision::Grant
    }

    fn check_provisional(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) -> Decision {
        let Some(my_ts) = self.timestamps.get(&exec).cloned() else {
            return Decision::Abort(AbortReason::NeverBegan);
        };
        let ty = view.type_of(object);
        if let Some(retained) = self.retained_steps.get(&object) {
            for r in retained.iter() {
                if r.issuer == exec {
                    continue;
                }
                if r.hts.comparable(&my_ts) || self.comparable(r.issuer, exec, view) {
                    continue;
                }
                // The retained step was processed earlier; rule 1 demands
                // that it conflict only with later-timestamped steps.
                let conflicting = ty.steps_conflict(&r.step, step);
                if conflicting && r.hts > my_ts {
                    return Decision::Abort(AbortReason::TimestampOrder);
                }
            }
        }
        let retained = self.retained_steps.entry(object).or_default();
        retained.push(RetainedStep {
            step: step.clone(),
            hts: my_ts,
            issuer: exec,
        });
        if retained.len() > self.retained_cap {
            retained.remove(0);
        }
        Decision::Grant
    }
}

impl Scheduler for NtoScheduler {
    fn name(&self) -> String {
        match self.style {
            NtoStyle::Conservative => "nto-conservative".to_owned(),
            NtoStyle::Provisional => "nto-provisional".to_owned(),
        }
    }

    fn on_begin(
        &mut self,
        exec: ExecId,
        parent: Option<ExecId>,
        _object: ObjectId,
        _view: &dyn TxnView,
    ) {
        let ts = match parent {
            None => {
                self.top_counter += 1;
                HierTimestamp::top_level(self.top_counter)
            }
            Some(p) => {
                let parent_ts = self.hts_or_assign_top(p);
                let ctr = self.child_counters.entry(p).or_insert(0);
                *ctr += 1;
                parent_ts.child(*ctr)
            }
        };
        self.timestamps.insert(exec, ts);
    }

    fn request_local(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
        view: &dyn TxnView,
    ) -> Decision {
        match self.style {
            NtoStyle::Conservative => self.check_conservative(exec, object, op, view),
            NtoStyle::Provisional => Decision::Grant,
        }
    }

    fn validate_step(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) -> Decision {
        match self.style {
            NtoStyle::Conservative => Decision::Grant,
            NtoStyle::Provisional => self.check_provisional(exec, object, step, view),
        }
    }

    fn on_abort(&mut self, exec: ExecId, _view: &dyn TxnView) {
        // Forget the aborted execution's contributions so retries are not
        // spuriously rejected by its own earlier accesses.
        for entries in self.retained_steps.values_mut() {
            entries.retain(|r| r.issuer != exec);
        }
        for entries in self.retained_ops.values_mut() {
            entries.retain(|r| r.issuer != exec);
        }
        self.timestamps.remove(&exec);
        self.child_counters.remove(&exec);
    }

    fn fork_object_shard(&self) -> Option<Box<dyn Scheduler>> {
        // Retained operations/steps are keyed per object; timestamps are
        // derived deterministically from the order of `on_begin` calls,
        // which the decomposed backend delivers to every shard in
        // execution-id order — so all shard instances assign identical
        // hierarchical timestamps and rule 1 is checked per object exactly
        // as a single instance would.
        Some(Box::new(NtoScheduler::with_style(self.style)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view::ForestView;
    use obase_adt::{FifoQueue, Register};
    use obase_core::value::Value;
    use std::sync::Arc;

    fn begin_all(s: &mut NtoScheduler, view: &ForestView) {
        s.on_begin(ExecId(0), None, ObjectId::ENVIRONMENT, view);
        s.on_begin(ExecId(1), None, ObjectId::ENVIRONMENT, view);
        s.on_begin(ExecId(10), Some(ExecId(0)), ObjectId(0), view);
        s.on_begin(ExecId(11), Some(ExecId(1)), ObjectId(0), view);
    }

    #[test]
    fn timestamps_follow_the_hierarchy() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = NtoScheduler::conservative();
        begin_all(&mut s, &view);
        let t0 = s.timestamp_of(ExecId(0)).unwrap().clone();
        let t1 = s.timestamp_of(ExecId(1)).unwrap().clone();
        let t10 = s.timestamp_of(ExecId(10)).unwrap().clone();
        let t11 = s.timestamp_of(ExecId(11)).unwrap().clone();
        assert!(t0 < t1);
        assert!(t0.is_prefix_of(&t10));
        assert!(t1.is_prefix_of(&t11));
        assert!(t10 < t1);
        assert!(t10 < t11);
    }

    #[test]
    fn conservative_rejects_out_of_timestamp_order_conflicts() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = NtoScheduler::conservative();
        assert_eq!(s.name(), "nto-conservative");
        begin_all(&mut s, &view);
        let w = Operation::unary("Write", 1);
        // The *younger* (larger-timestamp) execution writes first...
        assert!(s
            .request_local(ExecId(11), ObjectId(0), &w, &view)
            .is_grant());
        // ... so the older one must abort when it arrives late.
        let d = s.request_local(ExecId(10), ObjectId(0), &w, &view);
        assert_eq!(d, Decision::Abort(AbortReason::TimestampOrder));
        // In timestamp order the same pair is fine.
        let mut s = NtoScheduler::conservative();
        begin_all(&mut s, &view);
        assert!(s
            .request_local(ExecId(10), ObjectId(0), &w, &view)
            .is_grant());
        assert!(s
            .request_local(ExecId(11), ObjectId(0), &w, &view)
            .is_grant());
    }

    #[test]
    fn conservative_ignores_commuting_operations() {
        let view = ForestView::new(Arc::new(obase_adt::Counter::default()));
        let mut s = NtoScheduler::conservative();
        begin_all(&mut s, &view);
        let add = Operation::unary("Add", 1);
        assert!(s
            .request_local(ExecId(11), ObjectId(0), &add, &view)
            .is_grant());
        // An older Add arrives later, but Adds commute, so no abort.
        assert!(s
            .request_local(ExecId(10), ObjectId(0), &add, &view)
            .is_grant());
        // An older Get, however, conflicts with the younger Add already
        // processed and must abort.
        let d = s.request_local(ExecId(10), ObjectId(0), &Operation::nullary("Get"), &view);
        assert_eq!(d, Decision::Abort(AbortReason::TimestampOrder));
    }

    #[test]
    fn provisional_uses_return_values() {
        let view = ForestView::new(Arc::new(FifoQueue));
        let mut s = NtoScheduler::provisional();
        assert_eq!(s.name(), "nto-provisional");
        begin_all(&mut s, &view);
        // The younger execution enqueues 7 first.
        let enq = LocalStep::new(Operation::unary("Enqueue", 7), ());
        assert!(s
            .validate_step(ExecId(11), ObjectId(0), &enq, &view)
            .is_grant());
        // An older dequeue returning a different item does not conflict with
        // that enqueue, so it is admitted despite its smaller timestamp.
        let deq_other = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(3));
        assert!(s
            .validate_step(ExecId(10), ObjectId(0), &deq_other, &view)
            .is_grant());
        // An older dequeue returning the enqueued item violates rule 1.
        let deq_same = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(7));
        let d = s.validate_step(ExecId(10), ObjectId(0), &deq_same, &view);
        assert_eq!(d, Decision::Abort(AbortReason::TimestampOrder));
        assert!(s.retained_step_count() >= 2);
    }

    #[test]
    fn abort_forgets_contributions() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = NtoScheduler::conservative();
        begin_all(&mut s, &view);
        let w = Operation::unary("Write", 1);
        assert!(s
            .request_local(ExecId(11), ObjectId(0), &w, &view)
            .is_grant());
        s.on_abort(ExecId(11), &view);
        // With the younger write forgotten, the older one is admitted.
        assert!(s
            .request_local(ExecId(10), ObjectId(0), &w, &view)
            .is_grant());
    }

    #[test]
    fn garbage_collection_drops_old_steps() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = NtoScheduler::provisional();
        begin_all(&mut s, &view);
        let w = LocalStep::new(Operation::unary("Write", 1), ());
        assert!(s
            .validate_step(ExecId(10), ObjectId(0), &w, &view)
            .is_grant());
        assert_eq!(s.retained_step_count(), 1);
        let high_watermark = HierTimestamp::top_level(1000);
        s.garbage_collect(&high_watermark);
        assert_eq!(s.retained_step_count(), 0);
    }

    #[test]
    fn ancestors_are_exempt_from_rule_1() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = NtoScheduler::conservative();
        begin_all(&mut s, &view);
        let w = Operation::unary("Write", 1);
        // Child E10 writes, then its ancestor E0 (smaller timestamp) writes:
        // comparable executions, no abort.
        assert!(s
            .request_local(ExecId(10), ObjectId(0), &w, &view)
            .is_grant());
        assert!(s
            .request_local(ExecId(0), ObjectId(0), &w, &view)
            .is_grant());
    }
}
