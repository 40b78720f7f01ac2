//! The transaction-lifecycle kernel: the single source of truth for the
//! request → provisional → validate → install lifecycle, commit
//! certification, abort undo ordering, cascade resolution, retry accounting
//! and metrics — shared by every execution backend.
//!
//! The deterministic simulator (`engine` in this crate) and the
//! multi-threaded engine (`obase-par`) are *drivers* over this kernel: they
//! own threads of control, blocking discipline and store access, and call
//! into [`LifecycleKernel`] for every lifecycle transition. The kernel in
//! turn builds on the backend-agnostic pieces in
//! [`obase_core::lifecycle`] — the execution registry ([`ExecTable`]), the
//! shared abort loop ([`resolve_abort`](obase_core::lifecycle::resolve_abort))
//! and the [`ExecutionDriver`](obase_core::lifecycle::ExecutionDriver)
//! contract its drivers implement.
//!
//! ## Recording is injected, scheduling is injected
//!
//! The kernel owns no history builder and no scheduler. Every method that
//! records history takes a [`HistoryRecorder`], and every method that
//! consults the concurrency-control algorithm takes a
//! [`Scheduler`] — because the two backends store both differently:
//!
//! * the simulator passes its [`HistoryBuilder`](obase_core::builder) and
//!   its one scheduler directly (single-threaded, final ids immediately);
//! * the parallel backend passes per-activity
//!   [`BufferedRecorder`](obase_core::record::BufferedRecorder)s (so
//!   install recording never takes the lifecycle lock) and routes scheduler
//!   hooks through its sharded scheduler plane. It therefore calls the
//!   scheduler-free *transition* methods here ([`register_top`],
//!   [`register_nested`], [`settle_commit_nested`], [`settle_commit_top`],
//!   [`account_release`]) and performs the hook broadcasts itself; the
//!   scheduler-taking wrappers below compose exactly those transitions with
//!   the hooks, so both backends run the same lifecycle code.
//!
//! ## The lifecycle, in kernel calls
//!
//! | Transition | Kernel entry point |
//! |---|---|
//! | top-level admission | [`next_pending`](LifecycleKernel::next_pending) + [`admit_top`](LifecycleKernel::admit_top) |
//! | method invocation | [`request_invoke`](LifecycleKernel::request_invoke) + [`begin_nested`](LifecycleKernel::begin_nested) |
//! | local step admission | [`request_local`](LifecycleKernel::request_local), then [`validate_step`](LifecycleKernel::validate_step) on the provisional result |
//! | install + record | [`install_step`](LifecycleKernel::install_step) (after the driver installed into its store) |
//! | nested / top commit | [`commit_nested`](LifecycleKernel::commit_nested), [`commit_top`](LifecycleKernel::commit_top) |
//! | abort, phase 1 | [`mark_abort_subtree`](LifecycleKernel::mark_abort_subtree) |
//! | abort, phase 3 | [`release_aborted`](LifecycleKernel::release_aborted) |
//!
//! Abort phase 2 — physically undoing installed steps — is the driver's
//! store's job ([`ObjectStore::undo`](crate::store::ObjectStore::undo) /
//! `ShardedStore::undo`), both of which replay through the one
//! [`replay_log`](crate::store::replay_log) routine. The phase split
//! guarantees *undo-before-release*: scheduler resources are released in
//! phase 3, strictly after phase 2 removed the dirty state, so strict
//! schedulers never expose uncommitted effects and never cascade — on
//! either backend.
//!
//! A driver's happy path, in miniature (the simulator and `obase-par` run
//! exactly these calls, interleaved with their own store and blocking
//! machinery):
//!
//! ```
//! use obase_exec::kernel::LifecycleKernel;
//! use obase_core::builder::HistoryBuilder;
//! use obase_core::object::ObjectBase;
//! use obase_core::op::{LocalStep, Operation};
//! use obase_core::sched::NullScheduler;
//! use obase_core::value::Value;
//! use std::sync::Arc;
//!
//! let mut base = ObjectBase::new();
//! let x = base.add_object("x", Arc::new(obase_core::testutil::IntRegister));
//! let base = Arc::new(base);
//! let mut builder = HistoryBuilder::new(Arc::clone(&base));
//! builder.set_auto_program_order(false);
//! let mut kernel = LifecycleKernel::new(base, 1, 4, "none".into(), "doc".into());
//! let mut sched = NullScheduler;
//!
//! // Admission → nested invoke → local step → install → commits.
//! let pending = kernel.next_pending().expect("one transaction queued");
//! let top = kernel.admit_top(&mut sched, &mut builder, "T0", pending);
//! assert!(kernel.request_invoke(&mut sched, top, x, "set").is_grant());
//! let (msg, child) = kernel.begin_nested(&mut sched, &mut builder, top, x, "set", vec![], None);
//! let step = LocalStep::new(Operation::unary("Write", 5), Value::Unit);
//! assert!(kernel.request_local(&mut sched, child, x, &step.op).is_grant());
//! assert!(kernel.validate_step(&mut sched, child, x, &step).is_grant());
//! // (The driver installs into *its* store here, then records:)
//! kernel.install_step(&mut sched, &mut builder, child, x, step, None);
//! kernel.commit_nested(&mut sched, &mut builder, child, msg, Value::Unit).unwrap();
//! kernel.commit_top(&mut sched, &mut builder, top).unwrap();
//!
//! let result = kernel.into_result(builder.build());
//! assert_eq!(result.metrics.committed, 1);
//! assert!(obase_core::legality::is_legal(&result.history));
//! ```
//!
//! [`register_top`]: LifecycleKernel::register_top
//! [`register_nested`]: LifecycleKernel::register_nested
//! [`settle_commit_nested`]: LifecycleKernel::settle_commit_nested
//! [`settle_commit_top`]: LifecycleKernel::settle_commit_top
//! [`account_release`]: LifecycleKernel::account_release

use crate::metrics::RunMetrics;
use obase_core::history::History;
use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::lifecycle::{CascadeVictim, ExecRecord, ExecTable};
use obase_core::object::ObjectBase;
use obase_core::op::{LocalStep, Operation};
use obase_core::record::HistoryRecorder;
use obase_core::sched::{AbortReason, Decision, Scheduler};
use obase_core::value::Value;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// A pending top-level transaction: an initial submission or a retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending {
    /// Index into the workload's transaction specs.
    pub spec: usize,
    /// Attempt number (0 for the initial submission).
    pub attempt: u32,
}

/// The result of releasing an aborted subtree
/// ([`LifecycleKernel::release_aborted`]).
#[derive(Debug)]
pub struct AbortRelease {
    /// `true` if the victim had already committed when it was aborted (only
    /// possible under non-strict schedulers); its commit has been uncounted.
    pub was_committed: bool,
    /// `true` if the victim was re-queued for another attempt.
    pub retried: bool,
    /// Top-level transactions that performed dirty reads of the undone state
    /// and must now be cascade-aborted, with their commit status. May contain
    /// duplicates; the abort loop's idempotence makes that harmless.
    pub victims: Vec<CascadeVictim>,
}

/// The backend-agnostic lifecycle state of one run: the execution registry,
/// the pending/retry queue and the run metrics.
///
/// Exactly one kernel exists per run. The simulator owns it directly; the
/// parallel backend keeps it behind its lifecycle mutex (one of the three
/// independently locked control-plane pieces).
#[derive(Debug)]
pub struct LifecycleKernel {
    /// The execution registry (parents, objects, liveness, retry specs).
    pub execs: ExecTable,
    queue: VecDeque<Pending>,
    /// Counters collected during the run. Drivers update their own fields
    /// (`rounds`, `deadlocks`, `timed_out`, `wall_micros`, and — for the
    /// parallel backend, which counts them with atomics off the lifecycle
    /// lock — `installed_steps`/`blocked_events`); every other
    /// lifecycle-owned counter is maintained by kernel methods.
    pub metrics: RunMetrics,
    max_retries: u32,
}

impl LifecycleKernel {
    /// Creates the kernel for one run: every transaction of the workload
    /// queued for admission, zeroed metrics.
    pub fn new(
        base: Arc<ObjectBase>,
        transactions: usize,
        max_retries: u32,
        scheduler_name: String,
        backend_label: String,
    ) -> Self {
        LifecycleKernel {
            execs: ExecTable::new(base),
            queue: (0..transactions)
                .map(|spec| Pending { spec, attempt: 0 })
                .collect(),
            metrics: RunMetrics {
                scheduler: scheduler_name,
                backend: backend_label,
                submitted: transactions,
                ..Default::default()
            },
            max_retries,
        }
    }

    // ----- admission --------------------------------------------------------

    /// Pops the next pending top-level transaction, if any.
    pub fn next_pending(&mut self) -> Option<Pending> {
        self.queue.pop_front()
    }

    /// `true` if no transaction is waiting for admission.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drops every pending transaction (the parallel backend's deadline
    /// shutdown).
    pub fn clear_queue(&mut self) {
        self.queue.clear();
    }

    /// Transition: registers a top-level transaction — allocates its
    /// execution id, records it in the history and the registry. The caller
    /// announces it to the scheduler (`on_begin`) afterwards.
    pub fn register_top(
        &mut self,
        rec: &mut dyn HistoryRecorder,
        name: &str,
        pending: Pending,
    ) -> ExecId {
        let top = ExecId(self.execs.len() as u32);
        rec.record_begin_top(top, name);
        self.execs.push(ExecRecord {
            parent: None,
            object: ObjectId::ENVIRONMENT,
            live: true,
            aborted: false,
            committed: false,
            spec: Some((pending.spec, pending.attempt)),
            children: Vec::new(),
        });
        top
    }

    /// Admits a top-level transaction: [`register_top`] plus the scheduler
    /// announcement. Returns its execution id.
    ///
    /// [`register_top`]: LifecycleKernel::register_top
    pub fn admit_top(
        &mut self,
        scheduler: &mut dyn Scheduler,
        rec: &mut dyn HistoryRecorder,
        name: &str,
        pending: Pending,
    ) -> ExecId {
        let top = self.register_top(rec, name, pending);
        scheduler.on_begin(top, None, ObjectId::ENVIRONMENT, &self.execs.view());
        top
    }

    // ----- the step lifecycle ----------------------------------------------

    /// Asks the scheduler whether `exec` may invoke `method` on `target`.
    /// Blocked decisions are counted.
    pub fn request_invoke(
        &mut self,
        scheduler: &mut dyn Scheduler,
        exec: ExecId,
        target: ObjectId,
        method: &str,
    ) -> Decision {
        let decision = scheduler.request_invoke(exec, target, method, &self.execs.view());
        self.note_blocked(&decision);
        decision
    }

    /// Asks the scheduler whether `exec` may issue `op` on `object` (the
    /// operation-level gate, before the return value is known). Blocked
    /// decisions are counted.
    pub fn request_local(
        &mut self,
        scheduler: &mut dyn Scheduler,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
    ) -> Decision {
        let decision = scheduler.request_local(exec, object, op, &self.execs.view());
        self.note_blocked(&decision);
        decision
    }

    /// Asks the scheduler to validate a provisionally executed step (the
    /// step-level gate, with the return value in hand). Blocked decisions
    /// are counted; the driver must discard the provisional result and
    /// re-execute later.
    pub fn validate_step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
    ) -> Decision {
        let decision = scheduler.validate_step(exec, object, step, &self.execs.view());
        self.note_blocked(&decision);
        decision
    }

    fn note_blocked(&mut self, decision: &Decision) {
        if decision.is_block() {
            self.metrics.blocked_events += 1;
        }
    }

    /// Records a step the driver just installed into its store: notifies the
    /// scheduler, appends the step to the history (with its program-order
    /// edge) and counts it. Returns the recorded step id, the driver's next
    /// program-order predecessor.
    ///
    /// Takes the step by value so its operation and return value move into
    /// the history without re-cloning on the hot path. The scheduler hook
    /// fires before the move; schedulers cannot observe the history, so the
    /// ordering is indistinguishable to them.
    pub fn install_step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        rec: &mut dyn HistoryRecorder,
        exec: ExecId,
        object: ObjectId,
        step: LocalStep,
        prev_step: Option<StepId>,
    ) -> StepId {
        scheduler.on_step_installed(exec, object, &step, &self.execs.view());
        let sid = rec.record_local(exec, step.op, step.ret);
        if let Some(prev) = prev_step {
            rec.record_program_order(exec, prev, sid);
        }
        self.metrics.installed_steps += 1;
        sid
    }

    /// Transition: registers a nested method execution — allocates the child
    /// id, records the message step (with its program-order edge) and the
    /// registry entry. The caller announces the child to the scheduler
    /// (`on_begin`) afterwards. Returns the message step id and the child's
    /// execution id.
    pub fn register_nested(
        &mut self,
        rec: &mut dyn HistoryRecorder,
        parent: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
        prev_step: Option<StepId>,
    ) -> (StepId, ExecId) {
        let child = ExecId(self.execs.len() as u32);
        let msg = rec.record_invoke(parent, child, target, method, args);
        if let Some(prev) = prev_step {
            rec.record_program_order(parent, prev, msg);
        }
        self.execs.push(ExecRecord {
            parent: Some(parent),
            object: target,
            live: true,
            aborted: false,
            committed: false,
            spec: None,
            children: Vec::new(),
        });
        self.execs.record_mut(parent).children.push(child);
        (msg, child)
    }

    /// Begins a nested method execution: [`register_nested`] plus the
    /// scheduler announcement.
    ///
    /// [`register_nested`]: LifecycleKernel::register_nested
    #[allow(clippy::too_many_arguments)] // the full lifecycle transition, spelled out
    pub fn begin_nested(
        &mut self,
        scheduler: &mut dyn Scheduler,
        rec: &mut dyn HistoryRecorder,
        parent: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
        prev_step: Option<StepId>,
    ) -> (StepId, ExecId) {
        let (msg, child) = self.register_nested(rec, parent, target, method, args, prev_step);
        scheduler.on_begin(child, Some(parent), target, &self.execs.view());
        (msg, child)
    }

    // ----- commits ----------------------------------------------------------

    /// Transition: settles a certified nested commit in the registry. The
    /// caller has already certified with the scheduler and fires `on_commit`
    /// around this call; the message-step completion is recorded here.
    pub fn settle_commit_nested(
        &mut self,
        rec: &mut dyn HistoryRecorder,
        child: ExecId,
        msg: StepId,
        retval: Value,
    ) {
        self.execs.record_mut(child).live = false;
        rec.record_complete(msg, retval);
    }

    /// Transition: settles a certified top-level commit in the registry and
    /// the metrics, and notifies the recorder (the durability hook:
    /// `obase-wal` persists the commit record here; in-memory recorders
    /// ignore it).
    pub fn settle_commit_top(&mut self, rec: &mut dyn HistoryRecorder, top: ExecId) {
        let record = self.execs.record_mut(top);
        record.live = false;
        record.committed = true;
        self.metrics.committed += 1;
        rec.record_commit_top(top);
    }

    /// Certifies and commits a finished nested execution: the scheduler may
    /// veto (certifiers validate here; a [`Decision::Block`] at commit is
    /// treated as a grant on both backends), locks are inherited by the
    /// parent in `on_commit`, and the invocation's message step is completed
    /// with the return value.
    ///
    /// On `Err` the kernel state is untouched; the driver aborts the
    /// victim's top-level transaction through the shared abort loop.
    pub fn commit_nested(
        &mut self,
        scheduler: &mut dyn Scheduler,
        rec: &mut dyn HistoryRecorder,
        child: ExecId,
        msg: StepId,
        retval: Value,
    ) -> Result<(), AbortReason> {
        self.certify(scheduler, child)?;
        scheduler.on_commit(child, &self.execs.view());
        self.settle_commit_nested(rec, child, msg, retval);
        Ok(())
    }

    /// Certifies and commits a finished top-level transaction. On `Err` the
    /// kernel state is untouched.
    pub fn commit_top(
        &mut self,
        scheduler: &mut dyn Scheduler,
        rec: &mut dyn HistoryRecorder,
        top: ExecId,
    ) -> Result<(), AbortReason> {
        self.certify(scheduler, top)?;
        scheduler.on_commit(top, &self.execs.view());
        self.settle_commit_top(rec, top);
        Ok(())
    }

    /// The shared certification rule: an abort decision vetoes the commit; a
    /// block decision at commit time is a grant (on both backends).
    pub fn certify(
        &mut self,
        scheduler: &mut dyn Scheduler,
        exec: ExecId,
    ) -> Result<(), AbortReason> {
        match scheduler.certify_commit(exec, &self.execs.view()) {
            Decision::Abort(reason) => Err(reason),
            Decision::Block { .. } | Decision::Grant => Ok(()),
        }
    }

    // ----- aborts -----------------------------------------------------------

    /// Abort phase 1: marks the whole execution subtree of `top` aborted (so
    /// no further steps of it install), records the abort steps in the
    /// history and counts the abort. Returns the subtree, or `None` if `top`
    /// was already aborted (aborts are idempotent).
    ///
    /// The scheduler is deliberately *not* consulted here: its resources are
    /// released only in [`release_aborted`](Self::release_aborted), after
    /// the driver's store undo, so dirty state is never reachable through a
    /// strict scheduler.
    pub fn mark_abort_subtree(
        &mut self,
        rec: &mut dyn HistoryRecorder,
        top: ExecId,
        reason: &AbortReason,
        cascade: bool,
    ) -> Option<Vec<ExecId>> {
        if self.execs.record(top).aborted {
            return None;
        }
        let subtree = self.execs.subtree_of(top);
        for &e in &subtree {
            let record = self.execs.record_mut(e);
            record.aborted = true;
            record.live = false;
            rec.record_abort(e);
        }
        self.metrics.record_abort(reason);
        if cascade {
            self.metrics.cascading_aborts += 1;
        }
        Some(subtree)
    }

    /// Transition: the scheduler-free accounting half of abort phase 3 —
    /// uncounts a cascade-reverted commit, schedules the retry (budget and
    /// driver permitting) and maps the undo's invalidated dirty readers to
    /// their top-level cascade victims. The caller releases the subtree's
    /// scheduler resources (children before parents) around this call.
    pub fn account_release(
        &mut self,
        top: ExecId,
        removed_steps: usize,
        invalidated: BTreeSet<ExecId>,
        allow_retry: bool,
    ) -> AbortRelease {
        self.metrics.wasted_steps += removed_steps as u64;
        let record = self.execs.record_mut(top);
        let was_committed = record.committed;
        if was_committed {
            // The victim had already committed (only possible with
            // non-strict schedulers); uncount it.
            record.committed = false;
            self.metrics.committed = self.metrics.committed.saturating_sub(1);
        }
        let mut retried = false;
        if let Some((spec, attempt)) = self.execs.record(top).spec {
            if attempt < self.max_retries && allow_retry {
                self.queue.push_back(Pending {
                    spec,
                    attempt: attempt + 1,
                });
                self.metrics.retries += 1;
                retried = true;
            } else {
                self.metrics.gave_up += 1;
            }
        }
        let victims = invalidated
            .into_iter()
            .map(|e| self.execs.top_of(e))
            .filter(|&t| !self.execs.record(t).aborted)
            .map(|t| CascadeVictim {
                top: t,
                committed: self.execs.record(t).committed,
            })
            .collect();
        AbortRelease {
            was_committed,
            retried,
            victims,
        }
    }

    /// Abort phase 3, after the store undo: releases the subtree's scheduler
    /// resources (children before parents) and runs [`account_release`].
    ///
    /// [`account_release`]: LifecycleKernel::account_release
    pub fn release_aborted(
        &mut self,
        scheduler: &mut dyn Scheduler,
        top: ExecId,
        subtree: &[ExecId],
        removed_steps: usize,
        invalidated: BTreeSet<ExecId>,
        allow_retry: bool,
    ) -> AbortRelease {
        for &e in subtree.iter().rev() {
            scheduler.on_abort(e, &self.execs.view());
        }
        self.account_release(top, removed_steps, invalidated, allow_retry)
    }

    // ----- run finish -------------------------------------------------------

    /// Finishes the run: takes the raw recorded history (built by the
    /// driver's recorder), projects the committed (legal) history and hands
    /// out the metrics.
    pub fn into_result(self, raw_history: History) -> RunResult {
        let history = raw_history.committed_projection();
        RunResult {
            history,
            raw_history,
            metrics: self.metrics,
        }
    }
}

/// The outcome of an engine run, on either backend.
#[derive(Debug)]
pub struct RunResult {
    /// The committed projection of the recorded history: a legal history
    /// containing exactly the executions that committed. This is what the
    /// serialisability analyses consume.
    pub history: History,
    /// The raw recorded history including aborted attempts. Aborted effects
    /// were physically undone during the run, so this history is *not*
    /// guaranteed to satisfy legality condition 3; it exists for diagnostics.
    pub raw_history: History,
    /// Counters collected during the run.
    pub metrics: RunMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::Register;
    use obase_core::builder::HistoryBuilder;
    use obase_core::sched::NullScheduler;

    fn kernel_for(n: usize) -> (LifecycleKernel, HistoryBuilder, ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Register::default()));
        let base = Arc::new(base);
        let mut builder = HistoryBuilder::new(Arc::clone(&base));
        builder.set_auto_program_order(false);
        (
            LifecycleKernel::new(base, n, 2, "none".into(), "test".into()),
            builder,
            x,
        )
    }

    #[test]
    fn admission_drains_the_queue_in_order() {
        let (mut k, mut b, _) = kernel_for(3);
        let mut sched = NullScheduler;
        for want in 0..3usize {
            let p = k.next_pending().unwrap();
            assert_eq!(
                p,
                Pending {
                    spec: want,
                    attempt: 0
                }
            );
            let top = k.admit_top(&mut sched, &mut b, &format!("T{want}"), p);
            assert_eq!(top.index(), want);
            assert!(k.execs.record(top).live);
        }
        assert!(k.queue_is_empty());
        assert_eq!(k.metrics.submitted, 3);
    }

    #[test]
    fn a_full_lifecycle_produces_a_committed_history() {
        let (mut k, mut b, x) = kernel_for(1);
        let mut sched = NullScheduler;
        let p = k.next_pending().unwrap();
        let top = k.admit_top(&mut sched, &mut b, "T0", p);
        assert!(k.request_invoke(&mut sched, top, x, "set").is_grant());
        let (msg, child) = k.begin_nested(&mut sched, &mut b, top, x, "set", vec![], None);
        let step = LocalStep::new(Operation::unary("Write", 5), Value::Unit);
        assert!(k.request_local(&mut sched, child, x, &step.op).is_grant());
        assert!(k.validate_step(&mut sched, child, x, &step).is_grant());
        let sid = k.install_step(&mut sched, &mut b, child, x, step.clone(), None);
        let sid2 = k.install_step(&mut sched, &mut b, child, x, step, Some(sid));
        assert_ne!(sid, sid2);
        k.commit_nested(&mut sched, &mut b, child, msg, Value::Unit)
            .unwrap();
        k.commit_top(&mut sched, &mut b, top).unwrap();
        assert_eq!(k.metrics.committed, 1);
        assert_eq!(k.metrics.installed_steps, 2);
        let result = k.into_result(b.build());
        assert_eq!(result.metrics.committed, 1);
        assert!(obase_core::legality::is_legal(&result.history));
    }

    #[test]
    fn abort_phases_retry_then_exhaust_the_budget() {
        let (mut k, mut b, _) = kernel_for(1);
        let mut sched = NullScheduler;
        // Attempt 0 and the 2 budgeted retries abort; the final attempt
        // gives up.
        for attempt in 0..=2u32 {
            let p = k.next_pending().unwrap();
            assert_eq!(p.attempt, attempt);
            let top = k.admit_top(&mut sched, &mut b, "T0", p);
            let subtree = k
                .mark_abort_subtree(&mut b, top, &AbortReason::Deadlock, false)
                .unwrap();
            assert_eq!(subtree, vec![top]);
            // Idempotent: a second mark is a no-op.
            assert!(k
                .mark_abort_subtree(&mut b, top, &AbortReason::Deadlock, false)
                .is_none());
            let release = k.release_aborted(&mut sched, top, &subtree, 0, BTreeSet::new(), true);
            assert!(!release.was_committed);
            assert_eq!(release.retried, attempt < 2);
            assert!(release.victims.is_empty());
        }
        assert!(k.queue_is_empty());
        assert_eq!(k.metrics.retries, 2);
        assert_eq!(k.metrics.gave_up, 1);
        assert_eq!(k.metrics.aborts, 3);
        assert_eq!(k.metrics.aborts_by_reason["deadlock"], 3);
    }

    #[test]
    fn release_uncounts_cascade_reverted_commits_and_collects_victims() {
        let (mut k, mut b, x) = kernel_for(2);
        let mut sched = NullScheduler;
        let p = k.next_pending().unwrap();
        let writer = k.admit_top(&mut sched, &mut b, "W", p);
        let p = k.next_pending().unwrap();
        let reader = k.admit_top(&mut sched, &mut b, "R", p);
        let (rmsg, rchild) = k.begin_nested(&mut sched, &mut b, reader, x, "get", vec![], None);
        k.commit_nested(&mut sched, &mut b, rchild, rmsg, Value::Int(5))
            .unwrap();
        k.commit_top(&mut sched, &mut b, reader).unwrap();
        assert_eq!(k.metrics.committed, 1);

        // Abort the writer; the undo (driver-side, simulated here) reports
        // the reader's child as a dirty reader.
        let subtree = k
            .mark_abort_subtree(&mut b, writer, &AbortReason::Certification, false)
            .unwrap();
        let invalidated: BTreeSet<ExecId> = [rchild].into_iter().collect();
        let release = k.release_aborted(&mut sched, writer, &subtree, 1, invalidated, true);
        assert_eq!(
            release.victims,
            vec![CascadeVictim {
                top: reader,
                committed: true
            }]
        );
        assert_eq!(k.metrics.wasted_steps, 1);

        // Cascade into the committed reader: its commit is uncounted.
        let subtree = k
            .mark_abort_subtree(&mut b, reader, &AbortReason::CascadingDirtyRead, true)
            .unwrap();
        let release = k.release_aborted(&mut sched, reader, &subtree, 0, BTreeSet::new(), true);
        assert!(release.was_committed);
        assert_eq!(k.metrics.committed, 0);
        assert_eq!(k.metrics.cascading_aborts, 1);
    }

    #[test]
    fn shutdown_suppresses_retries() {
        let (mut k, mut b, _) = kernel_for(1);
        let mut sched = NullScheduler;
        let p = k.next_pending().unwrap();
        let top = k.admit_top(&mut sched, &mut b, "T0", p);
        let subtree = k
            .mark_abort_subtree(&mut b, top, &AbortReason::Deadlock, false)
            .unwrap();
        k.release_aborted(&mut sched, top, &subtree, 0, BTreeSet::new(), false);
        assert!(k.queue_is_empty());
        assert_eq!(k.metrics.retries, 0);
        assert_eq!(k.metrics.gave_up, 1);
    }
}
