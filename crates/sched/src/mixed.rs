//! The mixed scheduler: per-object intra-object policies plus a generic
//! inter-object certifier.
//!
//! Section 2 of the paper envisions each object choosing "the most suitable
//! algorithm" for intra-object synchronisation, with a system-provided
//! inter-object mechanism ensuring that the independently chosen
//! serialisation orders are compatible (Theorem 5). [`MixedScheduler`]
//! realises that composition: every object may be given its own intra-object
//! scheduler (a semantic lock table, say, or nothing at all for objects whose
//! operations all commute), and the [`SgtCertifier`] supplies the
//! inter-object half by validating, at top-level commit, that the combined
//! serialisation order is acyclic.

use crate::certifier::SgtCertifier;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::op::{LocalStep, Operation};
use obase_core::sched::{Decision, Scheduler, TxnView};
use std::collections::BTreeMap;

/// A scheduler composed of per-object intra-object schedulers and a global
/// inter-object certifier.
pub struct MixedScheduler {
    intra: BTreeMap<ObjectId, Box<dyn Scheduler>>,
    default_intra: Option<Box<dyn Scheduler>>,
    certifier: SgtCertifier,
}

impl std::fmt::Debug for MixedScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedScheduler")
            .field("objects_with_intra_policy", &self.intra.len())
            .field("has_default", &self.default_intra.is_some())
            .finish()
    }
}

impl Default for MixedScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MixedScheduler {
    /// Creates a mixed scheduler with no per-object policies: pure
    /// commit-time certification.
    pub fn new() -> Self {
        MixedScheduler {
            intra: BTreeMap::new(),
            default_intra: None,
            certifier: SgtCertifier::new(),
        }
    }

    /// Assigns an intra-object scheduler to one object.
    pub fn with_intra(mut self, object: ObjectId, scheduler: Box<dyn Scheduler>) -> Self {
        self.intra.insert(object, scheduler);
        self
    }

    /// Assigns a fallback intra-object scheduler used for objects without a
    /// dedicated policy.
    pub fn with_default_intra(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.default_intra = Some(scheduler);
        self
    }

    fn intra_for(&mut self, object: ObjectId) -> Option<&mut Box<dyn Scheduler>> {
        if self.intra.contains_key(&object) {
            self.intra.get_mut(&object)
        } else {
            self.default_intra.as_mut()
        }
    }

    fn all_intra(&mut self) -> impl Iterator<Item = &mut Box<dyn Scheduler>> {
        self.intra.values_mut().chain(self.default_intra.as_mut())
    }
}

impl Scheduler for MixedScheduler {
    /// `mixed(<default policy's name>)`, `mixed(occ-only)` without any
    /// intra-object policy, and a bare `mixed` with per-object policies
    /// only — the labels of the spec the scheduler is built from.
    fn name(&self) -> String {
        match &self.default_intra {
            Some(d) => format!("mixed({})", d.name()),
            None if self.intra.is_empty() => "mixed(occ-only)".to_owned(),
            None => "mixed".to_owned(),
        }
    }

    fn on_begin(
        &mut self,
        exec: ExecId,
        parent: Option<ExecId>,
        object: ObjectId,
        view: &dyn TxnView,
    ) {
        for s in self.all_intra() {
            s.on_begin(exec, parent, object, view);
        }
        self.certifier.on_begin(exec, parent, object, view);
    }

    fn request_invoke(
        &mut self,
        exec: ExecId,
        target: ObjectId,
        method: &str,
        view: &dyn TxnView,
    ) -> Decision {
        match self.intra_for(target) {
            Some(s) => s.request_invoke(exec, target, method, view),
            None => Decision::Grant,
        }
    }

    fn request_local(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        op: &Operation,
        view: &dyn TxnView,
    ) -> Decision {
        match self.intra_for(object) {
            Some(s) => s.request_local(exec, object, op, view),
            None => Decision::Grant,
        }
    }

    fn validate_step(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) -> Decision {
        match self.intra_for(object) {
            Some(s) => s.validate_step(exec, object, step, view),
            None => Decision::Grant,
        }
    }

    fn on_step_installed(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) {
        if let Some(s) = self.intra_for(object) {
            s.on_step_installed(exec, object, step, view);
        }
        self.certifier.on_step_installed(exec, object, step, view);
    }

    fn certify_commit(&mut self, exec: ExecId, view: &dyn TxnView) -> Decision {
        for s in self.all_intra() {
            if let d @ Decision::Abort(_) = s.certify_commit(exec, view) {
                return d;
            }
        }
        self.certifier.certify_commit(exec, view)
    }

    fn on_commit(&mut self, exec: ExecId, view: &dyn TxnView) {
        for s in self.all_intra() {
            s.on_commit(exec, view);
        }
        self.certifier.on_commit(exec, view);
    }

    fn on_abort(&mut self, exec: ExecId, view: &dyn TxnView) {
        for s in self.all_intra() {
            s.on_abort(exec, view);
        }
        self.certifier.on_abort(exec, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::n2pl::N2plScheduler;
    use crate::test_view::ForestView;

    #[test]
    fn naming_reflects_composition() {
        assert_eq!(MixedScheduler::new().name(), "mixed(occ-only)");
        let s = MixedScheduler::new().with_default_intra(Box::new(N2plScheduler::step_locks()));
        assert_eq!(s.name(), "mixed(n2pl-step)");
        let s =
            MixedScheduler::new().with_intra(ObjectId(0), Box::new(N2plScheduler::step_locks()));
        assert_eq!(s.name(), "mixed");
    }

    #[test]
    fn per_object_policy_is_consulted() {
        use obase_adt::Register;
        use std::sync::Arc;

        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = MixedScheduler::new()
            .with_intra(ObjectId(0), Box::new(N2plScheduler::operation_locks()));
        let w = Operation::unary("Write", 1);
        assert!(s
            .request_local(ExecId(0), ObjectId(0), &w, &view)
            .is_grant());
        // A second transaction is blocked by object 0's locking policy...
        assert!(s
            .request_local(ExecId(1), ObjectId(0), &w, &view)
            .is_block());
        // ...but object 1 has no intra policy, so it is wide open.
        assert!(s
            .request_local(ExecId(1), ObjectId(1), &w, &view)
            .is_grant());
    }
}
