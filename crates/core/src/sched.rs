//! The scheduler interface: the contract between the execution engine and a
//! concurrency-control algorithm.
//!
//! The paper's algorithms (N2PL in Section 5.1, NTO in Section 5.2, and
//! certifier-style inter-object schemes in Section 6) are all *online*: they
//! observe operations as transactions issue them and decide whether each
//! operation may proceed, must wait, or forces an abort. The
//! [`Scheduler`] trait captures that interaction. Implementations live in the
//! `obase-sched` crate; the execution backends drive them and record the
//! resulting history, which the core theory (Theorems 2 and 5) then
//! verifies.

use crate::ids::{ExecId, ObjectId};
use crate::object::TypeHandle;
use crate::op::{LocalStep, Operation};

/// Why a scheduler (or the engine) aborted a method execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The execution was chosen as a deadlock victim.
    Deadlock,
    /// A timestamp-ordering rule was violated (NTO rule 1).
    TimestampOrder,
    /// Commit-time certification failed (optimistic schemes).
    Certification,
    /// The workload itself requested an abort (e.g. insufficient funds).
    Application,
    /// The transaction observed state that a later abort physically undid
    /// (a dirty read), so it was cascade-aborted by the engine.
    CascadingDirtyRead,
    /// A scenario fault plan deliberately doomed the transaction (chaos
    /// injection); distinct from `Other` so injected faults are separable
    /// from organic aborts in the metrics histograms.
    Injected,
    /// The scheduler was consulted about an execution it never saw begin —
    /// an internal bookkeeping invariant was violated.
    NeverBegan,
    /// The transaction was in flight when the process crashed and was rolled
    /// back by write-ahead-log recovery (`obase-wal`); distinct from
    /// `Injected` so crash-test harnesses can tell recovery rollbacks from
    /// scheduler-doomed chaos in the metrics histograms.
    CrashRollback,
    /// Any other scheduler-specific reason.
    Other(String),
}

impl AbortReason {
    /// A stable snake_case key naming the variant, used to bucket abort
    /// histograms in metrics and bench output. Unlike [`Display`], every
    /// `Other(..)` reason maps to the single key `"other"` so histograms
    /// stay bounded.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn key(&self) -> &'static str {
        match self {
            AbortReason::Deadlock => "deadlock",
            AbortReason::TimestampOrder => "timestamp_order",
            AbortReason::Certification => "certification",
            AbortReason::Application => "application",
            AbortReason::CascadingDirtyRead => "cascading_dirty_read",
            AbortReason::Injected => "injected",
            AbortReason::NeverBegan => "never_began",
            AbortReason::CrashRollback => "crash_rollback",
            AbortReason::Other(_) => "other",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Deadlock => write!(f, "deadlock"),
            AbortReason::TimestampOrder => write!(f, "timestamp order violation"),
            AbortReason::Certification => write!(f, "certification failure"),
            AbortReason::Application => write!(f, "application abort"),
            AbortReason::CascadingDirtyRead => write!(f, "cascading dirty read"),
            AbortReason::Injected => write!(f, "injected fault"),
            AbortReason::NeverBegan => write!(f, "execution never began"),
            AbortReason::CrashRollback => write!(f, "rolled back during crash recovery"),
            AbortReason::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for AbortReason {}

/// A scheduler's decision about a requested action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The action may proceed.
    Grant,
    /// The action must wait; the requester is blocked behind the listed
    /// executions (used by the engine to build the waits-for graph for
    /// deadlock detection).
    Block {
        /// The executions currently preventing the action.
        waiting_for: Vec<ExecId>,
    },
    /// The requesting execution must abort.
    Abort(AbortReason),
}

impl Decision {
    /// Convenience constructor for a block decision.
    pub fn block(waiting_for: impl IntoIterator<Item = ExecId>) -> Self {
        Decision::Block {
            waiting_for: waiting_for.into_iter().collect(),
        }
    }

    /// Returns `true` if the decision is [`Decision::Grant`].
    pub fn is_grant(&self) -> bool {
        matches!(self, Decision::Grant)
    }

    /// Returns `true` if the decision is a block.
    pub fn is_block(&self) -> bool {
        matches!(self, Decision::Block { .. })
    }

    /// Returns `true` if the decision is an abort.
    pub fn is_abort(&self) -> bool {
        matches!(self, Decision::Abort(_))
    }
}

/// The engine-provided view of the transaction forest that schedulers may
/// consult when making decisions.
pub trait TxnView {
    /// The parent of a method execution, if any.
    fn parent(&self, e: ExecId) -> Option<ExecId>;

    /// The object whose method `e` executes ([`ObjectId::ENVIRONMENT`] for
    /// top-level transactions).
    fn object_of(&self, e: ExecId) -> ObjectId;

    /// Returns `true` if `anc` is an ancestor of `e` (including `anc == e`).
    fn is_ancestor(&self, anc: ExecId, e: ExecId) -> bool {
        let mut cur = e;
        loop {
            if cur == anc {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The ancestors of `e`, starting with `e` itself.
    fn ancestors(&self, e: ExecId) -> Vec<ExecId> {
        let mut out = vec![e];
        let mut cur = e;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The top-level ancestor of `e`.
    fn top_level_of(&self, e: ExecId) -> ExecId {
        *self.ancestors(e).last().expect("ancestors never empty")
    }

    /// The semantic type of an object.
    fn type_of(&self, o: ObjectId) -> TypeHandle;

    /// Returns `true` if the execution is still live (neither committed nor
    /// aborted).
    fn is_live(&self, e: ExecId) -> bool;
}

/// A concurrency-control algorithm, driven by the execution engine.
///
/// All methods take `&mut self`; a scheduler instance serves one engine run.
/// The default implementations make every hook a no-op that grants
/// everything, so simple schedulers only override what they need.
///
/// Schedulers must be [`Send`]: the parallel backend (`obase-par`) moves the
/// instance into a mutex shared by its worker threads. Exclusive access is
/// still guaranteed — every hook is invoked under that single lock — so
/// implementations need no internal synchronisation, just no thread-affine
/// state (`Rc`, raw pointers, ...).
pub trait Scheduler: Send {
    /// A short human-readable name ("N2PL(op)", "NTO(conservative)", ...)
    /// used in experiment output.
    fn name(&self) -> String;

    /// A new method execution has begun.
    fn on_begin(
        &mut self,
        _exec: ExecId,
        _parent: Option<ExecId>,
        _object: ObjectId,
        _view: &dyn TxnView,
    ) {
    }

    /// `exec` wants to send a message invoking a method of `target`.
    /// Flat (object-granularity) schedulers synchronise here.
    fn request_invoke(
        &mut self,
        _exec: ExecId,
        _target: ObjectId,
        _method: &str,
        _view: &dyn TxnView,
    ) -> Decision {
        Decision::Grant
    }

    /// `exec` wants to issue local operation `op` on `object`. Operation-level
    /// schedulers (conservative N2PL/NTO) synchronise here, before the
    /// operation's return value is known.
    fn request_local(
        &mut self,
        _exec: ExecId,
        _object: ObjectId,
        _op: &Operation,
        _view: &dyn TxnView,
    ) -> Decision {
        Decision::Grant
    }

    /// The engine has *provisionally* executed the operation and observed the
    /// resulting step (operation plus return value). Step-level schedulers
    /// (the second implementation style of Section 5.1/5.2) validate here;
    /// returning [`Decision::Block`] delays the installation of the step and
    /// the engine will provisionally re-execute it later.
    fn validate_step(
        &mut self,
        _exec: ExecId,
        _object: ObjectId,
        _step: &LocalStep,
        _view: &dyn TxnView,
    ) -> Decision {
        Decision::Grant
    }

    /// A step was definitively installed.
    fn on_step_installed(
        &mut self,
        _exec: ExecId,
        _object: ObjectId,
        _step: &LocalStep,
        _view: &dyn TxnView,
    ) {
    }

    /// The execution has finished its program and asks to commit. Certifier
    /// schedulers validate here; returning an abort decision turns the commit
    /// into an abort.
    fn certify_commit(&mut self, _exec: ExecId, _view: &dyn TxnView) -> Decision {
        Decision::Grant
    }

    /// The execution committed (for nested executions this is where N2PL
    /// passes locks to the parent).
    fn on_commit(&mut self, _exec: ExecId, _view: &dyn TxnView) {}

    /// The execution aborted (locks are released, timestamps forgotten, ...).
    fn on_abort(&mut self, _exec: ExecId, _view: &dyn TxnView) {}

    /// Returns a fresh, empty scheduler of the same configuration if this
    /// scheduler is *per-object decomposable* — the paper's per-object
    /// scheduler decomposition (each object synchronises independently),
    /// which the parallel backend exploits by running one instance per
    /// object shard behind its own lock.
    ///
    /// Returning `Some` promises all of the following, per instance:
    ///
    /// * decision state is keyed purely by object: the outcome of
    ///   [`request_invoke`], [`request_local`] and [`validate_step`] for an
    ///   object depends only on prior hooks *for that object* (plus the
    ///   immutable genealogy in the [`TxnView`] — `parent`, `object_of`,
    ///   `type_of`; `is_live` must not be relied on, as the decomposed view
    ///   may be slightly stale);
    /// * [`on_begin`] is delivered to every instance in execution-id order
    ///   (the backend guarantees this), and the scheduler derives any
    ///   per-execution state (e.g. NTO timestamps) deterministically from
    ///   that order — so all instances agree on it;
    /// * [`on_commit`] / [`on_abort`] / [`certify_commit`] tolerate being
    ///   delivered only to instances whose objects the execution's
    ///   transaction touched, and tolerate the per-instance delivery being
    ///   non-atomic across instances (a transaction's resources may be
    ///   released shard by shard).
    ///
    /// Schedulers with inherently global state (an inter-object
    /// serialisation graph, for instance) must return `None` (the default);
    /// the backend then runs the single instance behind one lock.
    ///
    /// [`request_invoke`]: Scheduler::request_invoke
    /// [`request_local`]: Scheduler::request_local
    /// [`validate_step`]: Scheduler::validate_step
    /// [`on_begin`]: Scheduler::on_begin
    /// [`on_commit`]: Scheduler::on_commit
    /// [`on_abort`]: Scheduler::on_abort
    /// [`certify_commit`]: Scheduler::certify_commit
    fn fork_object_shard(&self) -> Option<Box<dyn Scheduler>> {
        None
    }
}

/// A scheduler that grants everything. It performs no synchronisation at all
/// and therefore admits non-serialisable executions; it exists as the
/// baseline "no concurrency control" configuration for experiments and as a
/// negative control in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullScheduler;

impl Scheduler for NullScheduler {
    fn name(&self) -> String {
        "none".to_owned()
    }

    fn fork_object_shard(&self) -> Option<Box<dyn Scheduler>> {
        // Stateless, so trivially decomposable.
        Some(Box::new(NullScheduler))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct StubView;
    impl TxnView for StubView {
        fn parent(&self, e: ExecId) -> Option<ExecId> {
            if e.0 == 0 {
                None
            } else {
                Some(ExecId(e.0 - 1))
            }
        }
        fn object_of(&self, _e: ExecId) -> ObjectId {
            ObjectId(0)
        }
        fn type_of(&self, _o: ObjectId) -> TypeHandle {
            std::sync::Arc::new(crate::testutil::IntRegister)
        }
        fn is_live(&self, _e: ExecId) -> bool {
            true
        }
    }

    #[test]
    fn view_default_genealogy() {
        let v = StubView;
        assert!(v.is_ancestor(ExecId(0), ExecId(3)));
        assert!(!v.is_ancestor(ExecId(3), ExecId(0)));
        assert_eq!(
            v.ancestors(ExecId(2)),
            vec![ExecId(2), ExecId(1), ExecId(0)]
        );
        assert_eq!(v.top_level_of(ExecId(2)), ExecId(0));
    }

    #[test]
    fn decision_helpers() {
        assert!(Decision::Grant.is_grant());
        assert!(Decision::block([ExecId(1)]).is_block());
        assert!(Decision::Abort(AbortReason::Deadlock).is_abort());
        assert_eq!(
            Decision::block([ExecId(1), ExecId(2)]),
            Decision::Block {
                waiting_for: vec![ExecId(1), ExecId(2)]
            }
        );
    }

    #[test]
    fn null_scheduler_grants_everything() {
        let mut s = NullScheduler;
        let v = StubView;
        assert_eq!(s.name(), "none");
        assert!(s
            .request_local(ExecId(0), ObjectId(0), &Operation::nullary("Read"), &v)
            .is_grant());
        assert!(s.request_invoke(ExecId(0), ObjectId(0), "m", &v).is_grant());
        assert!(s
            .validate_step(
                ExecId(0),
                ObjectId(0),
                &LocalStep::new(Operation::nullary("Read"), 0),
                &v
            )
            .is_grant());
        assert!(s.certify_commit(ExecId(0), &v).is_grant());
    }

    #[test]
    fn abort_reason_display() {
        assert_eq!(AbortReason::Deadlock.to_string(), "deadlock");
        assert_eq!(AbortReason::NeverBegan.to_string(), "execution never began");
        assert_eq!(
            AbortReason::CascadingDirtyRead.to_string(),
            "cascading dirty read"
        );
        assert_eq!(
            AbortReason::CrashRollback.to_string(),
            "rolled back during crash recovery"
        );
        assert_eq!(AbortReason::Other("custom".into()).to_string(), "custom");
    }

    #[test]
    fn abort_reason_keys_are_stable_and_bounded() {
        assert_eq!(AbortReason::Deadlock.key(), "deadlock");
        assert_eq!(AbortReason::TimestampOrder.key(), "timestamp_order");
        assert_eq!(
            AbortReason::CascadingDirtyRead.key(),
            "cascading_dirty_read"
        );
        assert_eq!(AbortReason::Injected.key(), "injected");
        assert_eq!(AbortReason::CrashRollback.key(), "crash_rollback");
        // Every free-form reason buckets to one key.
        assert_eq!(AbortReason::Other("deadline".into()).key(), "other");
        assert_eq!(AbortReason::Other("anything".into()).key(), "other");
    }

    #[test]
    fn abort_reason_is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(AbortReason::Certification);
        assert_eq!(e.to_string(), "certification failure");
    }
}
