//! Serialisation-graph-testing certifier.
//!
//! The certifier watches installed local steps and records, for every pair of
//! conflicting steps issued by different top-level transactions, an edge from
//! the earlier transaction to the later one. A transaction is certified at
//! commit only if it does not lie on a cycle of that graph; otherwise it is
//! aborted (and the engine retries it). Committed transactions' edges are
//! retained while they can still participate in cycles with live
//! transactions, and are pruned once no live transaction precedes them.

use obase_core::graph::DiGraph;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::op::LocalStep;
use obase_core::sched::{AbortReason, Decision, Scheduler, TxnView};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug)]
struct InstalledStep {
    step: LocalStep,
    top: ExecId,
}

/// The optimistic serialisation-graph-testing (SGT) certifier scheduler.
///
/// Used on its own it performs *only* inter-transaction certification: every
/// operation is admitted immediately and conflicts are only checked at commit
/// time. Combined with per-object intra-object policies (the mixed scheduler
/// in `obase-exec`) it realises the separation of Theorem 5.
///
/// The conflict graph spans objects, so this scheduler is *not* per-object
/// decomposable (`fork_object_shard` stays `None`): the parallel backend
/// runs it as a single instance behind one lock.
#[derive(Debug, Default)]
pub struct SgtCertifier {
    steps: BTreeMap<ObjectId, Vec<InstalledStep>>,
    graph: DiGraph<ExecId>,
    live: BTreeSet<ExecId>,
    committed: BTreeSet<ExecId>,
}

impl SgtCertifier {
    /// Creates an empty certifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current conflict graph over top-level transactions.
    pub fn graph(&self) -> &DiGraph<ExecId> {
        &self.graph
    }

    /// Number of retained installed steps (bookkeeping size).
    pub fn retained_steps(&self) -> usize {
        self.steps.values().map(Vec::len).sum()
    }

    /// Drops the recorded steps and graph nodes of transactions that are no
    /// longer live and can no longer be reached from live transactions. Call
    /// periodically to bound memory in long runs.
    pub fn prune(&mut self) {
        let mut keep: BTreeSet<ExecId> = self.live.clone();
        // Keep committed transactions that some live transaction reaches or
        // that reach a live transaction — they can still close a cycle.
        for &c in &self.committed {
            let touches_live = self
                .live
                .iter()
                .any(|&l| self.graph.reaches(l, c) || self.graph.reaches(c, l));
            if touches_live {
                keep.insert(c);
            }
        }
        for entries in self.steps.values_mut() {
            entries.retain(|s| keep.contains(&s.top));
        }
        self.steps.retain(|_, v| !v.is_empty());
        let old = std::mem::take(&mut self.graph);
        let mut new_graph = DiGraph::new();
        for n in old.nodes() {
            if keep.contains(&n) {
                new_graph.add_node(n);
            }
        }
        for (a, b) in old.edges() {
            if keep.contains(&a) && keep.contains(&b) {
                new_graph.add_edge(a, b);
            }
        }
        self.graph = new_graph;
        self.committed.retain(|c| keep.contains(c));
    }

    fn remove_transaction(&mut self, top: ExecId) {
        for entries in self.steps.values_mut() {
            entries.retain(|s| s.top != top);
        }
        self.steps.retain(|_, v| !v.is_empty());
        let old = std::mem::take(&mut self.graph);
        let mut new_graph = DiGraph::new();
        for n in old.nodes() {
            if n != top {
                new_graph.add_node(n);
            }
        }
        for (a, b) in old.edges() {
            if a != top && b != top {
                new_graph.add_edge(a, b);
            }
        }
        self.graph = new_graph;
        self.live.remove(&top);
        self.committed.remove(&top);
    }

    fn on_cycle(&self, top: ExecId) -> bool {
        self.graph.reaches(top, top)
    }
}

impl Scheduler for SgtCertifier {
    fn name(&self) -> String {
        "occ-sgt".to_owned()
    }

    fn on_begin(
        &mut self,
        exec: ExecId,
        parent: Option<ExecId>,
        _object: ObjectId,
        _view: &dyn TxnView,
    ) {
        if parent.is_none() {
            self.live.insert(exec);
            self.graph.add_node(exec);
        }
    }

    fn on_step_installed(
        &mut self,
        exec: ExecId,
        object: ObjectId,
        step: &LocalStep,
        view: &dyn TxnView,
    ) {
        let my_top = view.top_level_of(exec);
        let ty = view.type_of(object);
        let entries = self.steps.entry(object).or_default();
        for prior in entries.iter() {
            if prior.top == my_top {
                continue;
            }
            if ty.steps_conflict(&prior.step, step) {
                self.graph.add_edge(prior.top, my_top);
            }
        }
        entries.push(InstalledStep {
            step: step.clone(),
            top: my_top,
        });
    }

    fn certify_commit(&mut self, exec: ExecId, view: &dyn TxnView) -> Decision {
        if view.parent(exec).is_some() {
            // Nested executions commit freely; certification happens at the
            // top level where the Theorem 5 conditions are discharged.
            return Decision::Grant;
        }
        if self.on_cycle(exec) {
            Decision::Abort(AbortReason::Certification)
        } else {
            Decision::Grant
        }
    }

    fn on_commit(&mut self, exec: ExecId, view: &dyn TxnView) {
        if view.parent(exec).is_none() {
            self.live.remove(&exec);
            self.committed.insert(exec);
        }
    }

    fn on_abort(&mut self, exec: ExecId, view: &dyn TxnView) {
        if view.parent(exec).is_none() {
            self.remove_transaction(exec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_view::ForestView;
    use obase_adt::Register;
    use obase_core::op::Operation;
    use std::sync::Arc;

    fn write(v: i64) -> LocalStep {
        LocalStep::new(Operation::unary("Write", v), ())
    }

    #[test]
    fn cycle_is_caught_at_commit() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = SgtCertifier::new();
        assert_eq!(s.name(), "occ-sgt");
        s.on_begin(ExecId(0), None, ObjectId::ENVIRONMENT, &view);
        s.on_begin(ExecId(1), None, ObjectId::ENVIRONMENT, &view);
        // T0 then T1 conflict on object 0; T1 then T0 conflict on object 1.
        s.on_step_installed(ExecId(10), ObjectId(0), &write(1), &view);
        s.on_step_installed(ExecId(11), ObjectId(0), &write(2), &view);
        s.on_step_installed(ExecId(11), ObjectId(1), &write(2), &view);
        s.on_step_installed(ExecId(10), ObjectId(1), &write(1), &view);
        assert!(s.graph().has_edge(ExecId(0), ExecId(1)));
        assert!(s.graph().has_edge(ExecId(1), ExecId(0)));
        // Whichever transaction tries to commit first is aborted.
        let d = s.certify_commit(ExecId(0), &view);
        assert_eq!(d, Decision::Abort(AbortReason::Certification));
        // After T0 aborts and is forgotten, T1 certifies cleanly.
        s.on_abort(ExecId(0), &view);
        assert!(s.certify_commit(ExecId(1), &view).is_grant());
    }

    #[test]
    fn acyclic_conflicts_certify() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = SgtCertifier::new();
        s.on_begin(ExecId(0), None, ObjectId::ENVIRONMENT, &view);
        s.on_begin(ExecId(1), None, ObjectId::ENVIRONMENT, &view);
        s.on_step_installed(ExecId(10), ObjectId(0), &write(1), &view);
        s.on_step_installed(ExecId(11), ObjectId(0), &write(2), &view);
        s.on_step_installed(ExecId(10), ObjectId(1), &write(1), &view);
        // Only edges T0 -> T1 exist.
        assert!(s.certify_commit(ExecId(0), &view).is_grant());
        s.on_commit(ExecId(0), &view);
        assert!(s.certify_commit(ExecId(1), &view).is_grant());
        s.on_commit(ExecId(1), &view);
    }

    #[test]
    fn nested_commits_are_not_certified() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = SgtCertifier::new();
        s.on_begin(ExecId(0), None, ObjectId::ENVIRONMENT, &view);
        s.on_begin(ExecId(10), Some(ExecId(0)), ObjectId(0), &view);
        assert!(s.certify_commit(ExecId(10), &view).is_grant());
    }

    #[test]
    fn prune_discards_settled_transactions() {
        let view = ForestView::new(Arc::new(Register::default()));
        let mut s = SgtCertifier::new();
        s.on_begin(ExecId(0), None, ObjectId::ENVIRONMENT, &view);
        s.on_step_installed(ExecId(10), ObjectId(0), &write(1), &view);
        assert!(s.certify_commit(ExecId(0), &view).is_grant());
        s.on_commit(ExecId(0), &view);
        assert_eq!(s.retained_steps(), 1);
        s.prune();
        assert_eq!(s.retained_steps(), 0);
        assert_eq!(s.graph().node_count(), 0);
    }
}
