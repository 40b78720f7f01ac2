//! Histories: the representation of (possibly concurrent) executions in an
//! object base.
//!
//! A history (Definition 5) is a quadruple `h = (E, <, B, S)`:
//!
//! * `E` — the set of method executions ([`MethodExecution`]);
//! * `<` — a partial order on steps: `t < t'` means step `t` completed
//!   before `t'` was initiated;
//! * `B` — the calling pattern, mapping each message step to the method
//!   execution it created (stored inline in
//!   [`StepKind::Message`](crate::step::StepKind));
//! * `S` — one initial state per object. A history stores only the states
//!   that *override* its object base's defaults ([`History::initial_overrides`]);
//!   every other object starts in the state its base declares
//!   ([`History::initial_state`]). An engine run records no overrides, so a
//!   history costs what its executions touch, not the size of the base.
//!
//! # Representation of `<`
//!
//! Because `t < t'` is defined as "`t` completed before `t'` was initiated",
//! the temporal order of any *actual* execution is an **interval order**: each
//! step occupies an interval of real time and `t < t'` iff `t`'s interval ends
//! strictly before `t'`'s begins. We therefore store one [`Interval`] per step
//! and derive `<` from the intervals, which makes precedence queries O(1) and
//! guarantees that `<` is a strict partial order by construction. Histories
//! whose `<` is not an interval order cannot be represented; they also cannot
//! arise from a real execution, so nothing of the paper's development is lost
//! (every theorem is stated for arbitrary legal histories and a fortiori holds
//! for interval-ordered ones).

use crate::exec_tree::MethodExecution;
use crate::ids::{ExecId, ObjectId, StepId};
use crate::object::ObjectBase;
use crate::step::{StepKind, StepRecord};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The span of (virtual) time occupied by a step: the step is initiated at
/// `start` and completed at `end` (`start <= end`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    /// Initiation time.
    pub start: u64,
    /// Completion time.
    pub end: u64,
}

impl Interval {
    /// Creates an interval; panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "interval end before start");
        Interval { start, end }
    }

    /// An instantaneous interval (used for local steps, which are atomic).
    pub fn instant(t: u64) -> Self {
        Interval { start: t, end: t }
    }

    /// Returns `true` if this interval is entirely before `other`
    /// (i.e. the step completed before `other` was initiated).
    pub fn before(&self, other: &Interval) -> bool {
        self.end < other.start
    }

    /// Returns `true` if this interval contains `other`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Returns `true` if the two intervals overlap.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.before(other) && !other.before(self)
    }
}

/// A history `h = (E, <, B, S)` over an [`ObjectBase`].
#[derive(Clone, Debug)]
pub struct History {
    base: Arc<ObjectBase>,
    initial_overrides: BTreeMap<ObjectId, Value>,
    execs: Vec<MethodExecution>,
    steps: Vec<StepRecord>,
    intervals: Vec<Interval>,
    children: Vec<Vec<ExecId>>,
}

impl History {
    /// Assembles a history from its components. `initial_overrides` holds
    /// the initial states that differ from the object base's defaults (an
    /// empty map means every object starts in its declared state).
    ///
    /// This checks only *structural* consistency (ids are in range, the step
    /// lists of executions partition the steps, message children point back
    /// at their parent step). The legality conditions of Definition 6 are
    /// checked separately by [`crate::legality::check_legal`].
    ///
    /// # Panics
    /// Panics if the components are structurally inconsistent.
    pub fn new(
        base: Arc<ObjectBase>,
        initial_overrides: BTreeMap<ObjectId, Value>,
        execs: Vec<MethodExecution>,
        steps: Vec<StepRecord>,
        intervals: Vec<Interval>,
    ) -> Self {
        assert_eq!(steps.len(), intervals.len(), "one interval per step");
        for (i, e) in execs.iter().enumerate() {
            assert_eq!(e.id.index(), i, "execution ids must be dense");
        }
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.id.index(), i, "step ids must be dense");
            assert!(
                s.exec.index() < execs.len(),
                "step {i} references missing exec"
            );
        }
        let mut children: Vec<Vec<ExecId>> = vec![Vec::new(); execs.len()];
        for e in &execs {
            if let Some(p) = e.parent {
                assert!(p.index() < execs.len(), "parent of {:?} missing", e.id);
                children[p.index()].push(e.id);
            }
        }
        History {
            base,
            initial_overrides,
            execs,
            steps,
            intervals,
            children,
        }
    }

    /// The object base this history is over.
    pub fn base(&self) -> &Arc<ObjectBase> {
        &self.base
    }

    /// The stored part of the `S` component: the initial states this
    /// history sets explicitly. Objects absent here start in their object
    /// base's default state; use [`initial_state`](Self::initial_state) for
    /// the effective state of one object.
    pub fn initial_overrides(&self) -> &BTreeMap<ObjectId, Value> {
        &self.initial_overrides
    }

    /// The initial state of one object (falling back to the object base's
    /// default if the history does not override it).
    pub fn initial_state(&self, o: ObjectId) -> Value {
        self.initial_state_ref(o).clone()
    }

    fn initial_state_ref(&self, o: ObjectId) -> &Value {
        self.initial_overrides
            .get(&o)
            .or_else(|| self.base.get(o).map(|spec| &spec.initial_state))
            .unwrap_or(&Value::Unit)
    }

    /// `true` if the two histories have the same `S` component: every
    /// object, over the longer of the two bases and any overridden id,
    /// starts in the same effective state (its override, else its base's
    /// default). An override equal to the default is no difference.
    pub fn same_initial_states(a: &History, b: &History) -> bool {
        if Arc::ptr_eq(&a.base, &b.base) && a.initial_overrides == b.initial_overrides {
            return true;
        }
        let ids = a.base.len().max(b.base.len()) as u32;
        let overridden = a.initial_overrides.keys().chain(b.initial_overrides.keys());
        (0..ids)
            .map(ObjectId)
            .chain(overridden.copied())
            .all(|o| a.initial_state_ref(o) == b.initial_state_ref(o))
    }

    /// All method executions, indexed densely by [`ExecId`].
    pub fn execs(&self) -> &[MethodExecution] {
        &self.execs
    }

    /// One method execution.
    pub fn exec(&self, id: ExecId) -> &MethodExecution {
        &self.execs[id.index()]
    }

    /// All steps, indexed densely by [`StepId`].
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// One step.
    pub fn step(&self, id: StepId) -> &StepRecord {
        &self.steps[id.index()]
    }

    /// The time interval occupied by a step.
    pub fn interval(&self, id: StepId) -> Interval {
        self.intervals[id.index()]
    }

    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of method executions.
    pub fn exec_count(&self) -> usize {
        self.execs.len()
    }

    /// The temporal order `<`: `a < b` iff step `a` completed before step `b`
    /// was initiated.
    pub fn precedes(&self, a: StepId, b: StepId) -> bool {
        a != b && self.interval(a).before(&self.interval(b))
    }

    /// Returns `true` if the two steps are unordered by `<`.
    pub fn unordered(&self, a: StepId, b: StepId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    // ----- genealogy of executions ---------------------------------------

    /// The children of an execution, i.e. the executions created by its
    /// message steps.
    pub fn children_of(&self, e: ExecId) -> &[ExecId] {
        &self.children[e.index()]
    }

    /// The parent of an execution, if any.
    pub fn parent_of(&self, e: ExecId) -> Option<ExecId> {
        self.exec(e).parent
    }

    /// The ancestors of `e`, starting with `e` itself and ending with its
    /// top-level ancestor ("a method execution is an ancestor of itself").
    pub fn ancestors_of(&self, e: ExecId) -> Vec<ExecId> {
        let mut out = vec![e];
        let mut cur = e;
        while let Some(p) = self.exec(cur).parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Returns `true` if `anc` is an ancestor of `e` (including `anc == e`).
    pub fn is_ancestor(&self, anc: ExecId, e: ExecId) -> bool {
        let mut cur = e;
        loop {
            if cur == anc {
                return true;
            }
            match self.exec(cur).parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Returns `true` if `e` is a descendent of `anc` (including `e == anc`).
    pub fn is_descendant(&self, e: ExecId, anc: ExecId) -> bool {
        self.is_ancestor(anc, e)
    }

    /// Returns `true` if neither execution is a descendent of the other.
    pub fn incomparable(&self, a: ExecId, b: ExecId) -> bool {
        !self.is_ancestor(a, b) && !self.is_ancestor(b, a)
    }

    /// The nesting level of an execution: top-level executions are at level 0.
    pub fn level_of(&self, e: ExecId) -> usize {
        self.ancestors_of(e).len() - 1
    }

    /// The top-level ancestor of an execution.
    pub fn top_level_of(&self, e: ExecId) -> ExecId {
        *self.ancestors_of(e).last().expect("ancestors never empty")
    }

    /// The least common ancestor of two executions, if one exists.
    pub fn lca(&self, a: ExecId, b: ExecId) -> Option<ExecId> {
        let anc_a: Vec<ExecId> = self.ancestors_of(a);
        let set: std::collections::HashSet<ExecId> = anc_a.iter().copied().collect();
        self.ancestors_of(b)
            .into_iter()
            .find(|anc| set.contains(anc))
    }

    /// The least common ancestor of a set of executions, if one exists.
    pub fn lca_many(&self, execs: &[ExecId]) -> Option<ExecId> {
        let mut it = execs.iter();
        let mut acc = *it.next()?;
        for &e in it {
            acc = self.lca(acc, e)?;
        }
        Some(acc)
    }

    /// All top-level (user) transactions.
    pub fn top_level_execs(&self) -> Vec<ExecId> {
        self.execs
            .iter()
            .filter(|e| e.is_top_level())
            .map(|e| e.id)
            .collect()
    }

    /// All executions in the subtree rooted at `e` (including `e`), in
    /// pre-order.
    pub fn subtree_execs(&self, e: ExecId) -> Vec<ExecId> {
        let mut out = Vec::new();
        let mut stack = vec![e];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            for &c in self.children_of(cur) {
                stack.push(c);
            }
        }
        out
    }

    /// All *local* steps issued by executions in the subtree rooted at `e`.
    pub fn subtree_local_steps(&self, e: ExecId) -> Vec<StepId> {
        let mut out = Vec::new();
        for sub in self.subtree_execs(e) {
            for &s in &self.exec(sub).steps {
                if self.step(s).is_local() {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Returns `true` if the execution or any of its ancestors aborted.
    pub fn effectively_aborted(&self, e: ExecId) -> bool {
        self.ancestors_of(e).iter().any(|&a| self.exec(a).aborted)
    }

    // ----- genealogy of steps ---------------------------------------------

    /// The execution a step belongs to.
    pub fn exec_of_step(&self, s: StepId) -> ExecId {
        self.step(s).exec
    }

    /// The object a *local* step operates on (the object of its execution).
    pub fn object_of_step(&self, s: StepId) -> ObjectId {
        self.exec(self.step(s).exec).object
    }

    /// The chain of ancestor steps of `s`: `s` itself, then the message step
    /// that created `s`'s execution, and so on up to a top-level execution's
    /// step. ("A step `t'` is a child of `t` if `t'` belongs to `B(t)`.")
    pub fn step_ancestors(&self, s: StepId) -> Vec<StepId> {
        let mut out = vec![s];
        let mut exec = self.step(s).exec;
        while let Some(ps) = self.exec(exec).parent_step {
            out.push(ps);
            exec = self.step(ps).exec;
        }
        out
    }

    /// The ancestor step of (the steps of) execution `target` within
    /// execution `within`: the message step of `within` whose subtree
    /// contains `target`. Returns `None` if `within` is not a proper
    /// ancestor of `target`.
    pub fn ancestor_step_in(&self, target: ExecId, within: ExecId) -> Option<StepId> {
        let mut cur = target;
        loop {
            let parent = self.exec(cur).parent?;
            let pstep = self.exec(cur).parent_step?;
            if parent == within {
                return Some(pstep);
            }
            cur = parent;
        }
    }

    // ----- per-object views -----------------------------------------------

    /// All local steps of object `o` in this history.
    pub fn local_steps_of_object(&self, o: ObjectId) -> Vec<StepId> {
        self.steps
            .iter()
            .filter(|s| s.is_local() && self.object_of_step(s.id) == o)
            .map(|s| s.id)
            .collect()
    }

    /// All method executions of object `o` in this history (nodes of the
    /// per-object graphs of Definition 10).
    pub fn execs_of_object(&self, o: ObjectId) -> Vec<ExecId> {
        self.execs
            .iter()
            .filter(|e| e.object == o)
            .map(|e| e.id)
            .collect()
    }

    /// The objects touched by local steps of this history.
    pub fn objects_touched(&self) -> Vec<ObjectId> {
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.steps {
            if s.is_local() {
                seen.insert(self.object_of_step(s.id));
            }
        }
        seen.into_iter().collect()
    }

    /// A topological sort of the local steps of object `o` consistent with
    /// `<`. Because `<` is derived from intervals, sorting by initiation time
    /// (ties broken by step id) is such a sort.
    pub fn topo_local_steps(&self, o: ObjectId) -> Vec<StepId> {
        let mut steps = self.local_steps_of_object(o);
        steps.sort_by_key(|&s| (self.interval(s).start, s));
        steps
    }

    /// Whether two local steps of the same object conflict, in the
    /// directional sense of Definition 3 (`a` conflicts with `b`).
    ///
    /// Steps of different objects, message steps and abort steps never
    /// conflict.
    pub fn steps_conflict(&self, a: StepId, b: StepId) -> bool {
        let (sa, sb) = (self.step(a), self.step(b));
        let (Some(la), Some(lb)) = (sa.as_local(), sb.as_local()) else {
            return false;
        };
        if la.is_abort() || lb.is_abort() {
            return false;
        }
        let oa = self.object_of_step(a);
        let ob = self.object_of_step(b);
        if oa != ob || oa.is_environment() {
            return false;
        }
        let ty = self.base.type_of(oa);
        ty.steps_conflict(la, lb)
    }

    /// Largest completion time of any step (0 for an empty history). Useful
    /// when appending to or re-laying-out histories.
    pub fn max_time(&self) -> u64 {
        self.intervals.iter().map(|i| i.end).max().unwrap_or(0)
    }

    /// Returns a copy of this history with the same executions and steps but
    /// different step intervals. Used by the serialisation-graph machinery to
    /// build equivalent serial histories (Theorem 2) and by the brute-force
    /// serialisability oracle.
    pub fn with_intervals(&self, intervals: Vec<Interval>) -> History {
        assert_eq!(intervals.len(), self.steps.len());
        History {
            base: Arc::clone(&self.base),
            initial_overrides: self.initial_overrides.clone(),
            execs: self.execs.clone(),
            steps: self.steps.clone(),
            intervals,
            children: self.children.clone(),
        }
    }

    /// Returns the projection of this history onto the executions for which
    /// `keep` returns `true` (together with all their steps). Message steps
    /// whose child execution is dropped are dropped as well.
    ///
    /// The main use is `committed_projection`-style filtering of aborted
    /// executions before serialisability analysis.
    pub fn project(&self, mut keep: impl FnMut(&MethodExecution) -> bool) -> History {
        let keep_flags: Vec<bool> = self.execs.iter().map(&mut keep).collect();
        // An execution can only be kept if all its ancestors are kept.
        let mut kept = vec![false; self.execs.len()];
        for e in &self.execs {
            let all_anc = self
                .ancestors_of(e.id)
                .iter()
                .all(|a| keep_flags[a.index()]);
            kept[e.id.index()] = all_anc;
        }
        let mut exec_map: Vec<Option<ExecId>> = vec![None; self.execs.len()];
        let mut new_execs: Vec<MethodExecution> = Vec::new();
        for e in &self.execs {
            if kept[e.id.index()] {
                let new_id = ExecId(new_execs.len() as u32);
                exec_map[e.id.index()] = Some(new_id);
                let mut ne = e.clone();
                ne.id = new_id;
                new_execs.push(ne);
            }
        }
        let mut step_map: Vec<Option<StepId>> = vec![None; self.steps.len()];
        let mut new_steps: Vec<StepRecord> = Vec::new();
        let mut new_intervals: Vec<Interval> = Vec::new();
        for s in &self.steps {
            if !kept[s.exec.index()] {
                continue;
            }
            if let StepKind::Message { child, .. } = &s.kind {
                if !kept[child.index()] {
                    continue;
                }
            }
            let new_id = StepId(new_steps.len() as u32);
            step_map[s.id.index()] = Some(new_id);
            let mut ns = s.clone();
            ns.id = new_id;
            ns.exec = exec_map[s.exec.index()].expect("kept step in kept exec");
            if let StepKind::Message { child, .. } = &mut ns.kind {
                *child = exec_map[child.index()].expect("kept child");
            }
            new_steps.push(ns);
            new_intervals.push(self.intervals[s.id.index()]);
        }
        for e in &mut new_execs {
            e.parent = e.parent.and_then(|p| exec_map[p.index()]);
            e.parent_step = e.parent_step.and_then(|s| step_map[s.index()]);
            e.steps = e.steps.iter().filter_map(|s| step_map[s.index()]).collect();
            e.program_order = e
                .program_order
                .iter()
                .filter_map(|(a, b)| Some((step_map[a.index()]?, step_map[b.index()]?)))
                .collect();
        }
        History::new(
            Arc::clone(&self.base),
            self.initial_overrides.clone(),
            new_execs,
            new_steps,
            new_intervals,
        )
    }

    /// The projection of this history onto executions that did not
    /// (effectively) abort. This is the history whose serialisability the
    /// concurrency-control algorithms must guarantee.
    pub fn committed_projection(&self) -> History {
        let aborted: Vec<bool> = self
            .execs
            .iter()
            .map(|e| self.effectively_aborted(e.id))
            .collect();
        self.project(|e| !aborted[e.id.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::op::Operation;
    use crate::testutil::IntRegister;

    fn tiny_history() -> History {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(IntRegister));
        let mut b = HistoryBuilder::new(Arc::new(base));
        let t1 = b.begin_top_level("T1");
        let (m1, e1) = b.invoke(t1, x, "m", []);
        b.local_applied(e1, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m1, Value::Unit);
        let (m2, e2) = b.invoke(t1, y, "m", []);
        b.local_applied(e2, Operation::nullary("Read")).unwrap();
        b.complete_invoke(m2, Value::Int(0));
        b.build()
    }

    #[test]
    fn interval_relations() {
        let a = Interval::new(0, 2);
        let b = Interval::new(3, 5);
        let c = Interval::new(1, 4);
        assert!(a.before(&b));
        assert!(!b.before(&a));
        assert!(!a.before(&c));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(Interval::new(0, 10).contains(&c));
        assert!(!c.contains(&Interval::new(0, 10)));
        assert_eq!(Interval::instant(4), Interval::new(4, 4));
    }

    #[test]
    #[should_panic(expected = "interval end before start")]
    fn bad_interval_panics() {
        Interval::new(3, 1);
    }

    #[test]
    fn genealogy() {
        let h = tiny_history();
        let top = h.top_level_execs();
        assert_eq!(top.len(), 1);
        let t1 = top[0];
        let kids = h.children_of(t1);
        assert_eq!(kids.len(), 2);
        let e1 = kids[0];
        assert!(h.is_ancestor(t1, e1));
        assert!(!h.is_ancestor(e1, t1));
        assert!(h.incomparable(kids[0], kids[1]));
        assert_eq!(h.lca(kids[0], kids[1]), Some(t1));
        assert_eq!(h.level_of(t1), 0);
        assert_eq!(h.level_of(e1), 1);
        assert_eq!(h.top_level_of(e1), t1);
        assert_eq!(h.parent_of(e1), Some(t1));
        assert_eq!(h.subtree_execs(t1).len(), 3);
    }

    #[test]
    fn per_object_views() {
        let h = tiny_history();
        let x = h.base().by_name("x").unwrap().id;
        let y = h.base().by_name("y").unwrap().id;
        assert_eq!(h.local_steps_of_object(x).len(), 1);
        assert_eq!(h.local_steps_of_object(y).len(), 1);
        assert_eq!(h.objects_touched(), vec![x, y]);
        assert_eq!(h.execs_of_object(x).len(), 1);
        // Environment execs:
        assert_eq!(h.execs_of_object(ObjectId::ENVIRONMENT).len(), 1);
    }

    #[test]
    fn precedence_from_intervals() {
        let h = tiny_history();
        let x = h.base().by_name("x").unwrap().id;
        let y = h.base().by_name("y").unwrap().id;
        let sx = h.local_steps_of_object(x)[0];
        let sy = h.local_steps_of_object(y)[0];
        // The write to x happened (and its invoke completed) before the read
        // of y was initiated.
        assert!(h.precedes(sx, sy));
        assert!(!h.precedes(sy, sx));
        assert!(!h.precedes(sx, sx));
        assert!(!h.unordered(sx, sy));
    }

    #[test]
    fn step_ancestors_chain() {
        let h = tiny_history();
        let x = h.base().by_name("x").unwrap().id;
        let sx = h.local_steps_of_object(x)[0];
        let chain = h.step_ancestors(sx);
        // local step, then the message step in the top-level transaction.
        assert_eq!(chain.len(), 2);
        assert!(h.step(chain[1]).is_message());
        let t1 = h.top_level_execs()[0];
        let e1 = h.exec_of_step(sx);
        assert_eq!(h.ancestor_step_in(e1, t1), Some(chain[1]));
        assert_eq!(h.ancestor_step_in(t1, e1), None);
    }

    #[test]
    fn committed_projection_drops_aborted_subtrees() {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let mut b = HistoryBuilder::new(Arc::new(base));
        let t1 = b.begin_top_level("T1");
        let (m1, e1) = b.invoke(t1, x, "m", []);
        b.local_applied(e1, Operation::unary("Write", 1)).unwrap();
        b.abort(e1);
        b.complete_invoke(m1, Value::Unit);
        let t2 = b.begin_top_level("T2");
        let (m2, e2) = b.invoke(t2, x, "m", []);
        b.local_applied(e2, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m2, Value::Unit);
        let h = b.build();
        assert_eq!(h.exec_count(), 4);
        assert!(h.effectively_aborted(e1));
        assert!(!h.effectively_aborted(e2));
        let proj = h.committed_projection();
        // t1 survives (it did not abort) but loses its aborted child and the
        // message step pointing at it.
        assert_eq!(proj.exec_count(), 3);
        assert_eq!(proj.steps().iter().filter(|s| s.is_message()).count(), 1);
        assert_eq!(proj.objects_touched().len(), 1);
    }

    #[test]
    fn with_intervals_relayouts() {
        let h = tiny_history();
        let n = h.step_count();
        let new_intervals: Vec<Interval> = (0..n as u64).map(Interval::instant).collect();
        let h2 = h.with_intervals(new_intervals);
        assert_eq!(h2.step_count(), n);
        assert_eq!(h2.max_time(), n as u64 - 1);
    }

    /// A history over the first `objects` of the registers `x`, `y`, with
    /// the given initial-state overrides and no executions.
    fn over(objects: usize, overrides: &[(u32, i64)]) -> History {
        let mut base = ObjectBase::new();
        for name in ["x", "y"].into_iter().take(objects) {
            base.add_object(name, Arc::new(IntRegister));
        }
        let mut b = HistoryBuilder::new(Arc::new(base));
        for &(o, v) in overrides {
            b.set_initial_state(ObjectId(o), Value::Int(v));
        }
        b.build()
    }

    #[test]
    fn an_override_equal_to_the_default_is_no_difference() {
        let plain = over(2, &[]);
        assert!(plain.initial_overrides().is_empty());
        let explicit = over(2, &[(0, 0)]);
        assert_eq!(explicit.initial_overrides().len(), 1);
        assert!(History::same_initial_states(&plain, &explicit));
        assert!(History::same_initial_states(&explicit, &plain));
    }

    #[test]
    fn a_differing_override_is_a_difference() {
        let plain = over(2, &[]);
        let moved = over(2, &[(1, 7)]);
        assert_eq!(moved.initial_state(ObjectId(1)), Value::Int(7));
        assert!(!History::same_initial_states(&plain, &moved));
        assert!(!History::same_initial_states(&moved, &plain));
        assert!(History::same_initial_states(&moved, &over(2, &[(1, 7)])));
    }

    #[test]
    fn bases_of_different_lengths_compare_over_the_longer() {
        // `y` exists only in the longer base, where it starts at 0; the
        // shorter base has no state for it unless a history gives it one.
        let short = over(1, &[]);
        let long = over(2, &[]);
        assert!(!History::same_initial_states(&short, &long));
        assert!(!History::same_initial_states(&long, &short));
        let short_with_y = over(1, &[(1, 0)]);
        assert!(History::same_initial_states(&short_with_y, &long));
        assert!(History::same_initial_states(&long, &short_with_y));
    }

    #[test]
    fn projections_keep_the_overrides() {
        let h = over(2, &[(0, 3)]);
        assert_eq!(
            h.committed_projection().initial_overrides(),
            h.initial_overrides()
        );
        assert_eq!(
            h.with_intervals(vec![]).initial_state(ObjectId(0)),
            Value::Int(3)
        );
    }
}
