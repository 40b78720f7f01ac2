//! Programmatic construction of histories.
//!
//! [`HistoryBuilder`] is the way histories are created throughout the
//! workspace: by unit tests building small hand-crafted interleavings, by the
//! execution engine recording what actually happened during a simulated run,
//! and by random-history generators for property tests.
//!
//! The builder maintains a virtual clock. Local steps are atomic and occupy a
//! single tick; message steps span the interval from their invocation to the
//! call of [`HistoryBuilder::complete_invoke`] (or, if never completed
//! explicitly, to the completion of the last step in their subtree). The
//! temporal order `<` of the resulting history is derived from these
//! intervals, matching the paper's reading of `t < t'` as "`t` completed
//! before `t'` was initiated".

use crate::error::TypeError;
use crate::exec_tree::MethodExecution;
use crate::history::{History, Interval};
use crate::ids::{ExecId, ObjectId, StepId};
use crate::object::ObjectBase;
use crate::op::{LocalStep, Operation};
use crate::step::{StepKind, StepRecord};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Incrementally builds a [`History`].
#[derive(Debug)]
pub struct HistoryBuilder {
    base: Arc<ObjectBase>,
    initial_overrides: BTreeMap<ObjectId, Value>,
    tracked_states: BTreeMap<ObjectId, Value>,
    execs: Vec<MethodExecution>,
    steps: Vec<StepRecord>,
    starts: Vec<u64>,
    ends: Vec<Option<u64>>,
    tick: u64,
    auto_program_order: bool,
    last_completed_step: Vec<Option<StepId>>,
}

impl HistoryBuilder {
    /// Creates a builder over an object base. Initial states default to the
    /// object base's defaults and are not copied: the builder stores only
    /// [overrides](Self::set_initial_state) and the states its
    /// [`local_applied`](Self::local_applied) steps produce, so creating one
    /// costs the same for any size of base.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        HistoryBuilder {
            tracked_states: BTreeMap::new(),
            initial_overrides: BTreeMap::new(),
            base,
            execs: Vec::new(),
            steps: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            tick: 2,
            auto_program_order: true,
            last_completed_step: Vec::new(),
        }
    }

    /// Overrides the initial state of one object for this history.
    pub fn set_initial_state(&mut self, o: ObjectId, state: Value) {
        self.initial_overrides.insert(o, state.clone());
        self.tracked_states.insert(o, state);
    }

    /// Controls whether steps issued sequentially within one execution are
    /// automatically chained in program order `⊲` (defaults to `true`).
    /// Disable this when building methods whose steps are issued in parallel
    /// (Section 3(c) internal parallelism).
    pub fn set_auto_program_order(&mut self, on: bool) {
        self.auto_program_order = on;
    }

    /// The underlying object base.
    pub fn base(&self) -> &Arc<ObjectBase> {
        &self.base
    }

    /// The builder's view of an object's current state (the result of all
    /// `local_applied` steps so far), or `None` for an object outside the
    /// base that was never given a state.
    pub fn current_state(&self, o: ObjectId) -> Option<&Value> {
        self.tracked_states
            .get(&o)
            .or_else(|| self.base.get(o).map(|spec| &spec.initial_state))
    }

    /// Advances and returns the virtual clock.
    ///
    /// The clock starts at 2 and strides by 2, so every clock-allocated step
    /// sits at an even time ≥ 2. A stride of 1 would order steps the same
    /// way; 2 is kept so that recorded step times, and so every history
    /// compared across versions, stay as earlier versions recorded them.
    pub fn next_tick(&mut self) -> u64 {
        let t = self.tick;
        self.tick += 2;
        t
    }

    // ----- executions -----------------------------------------------------

    /// Begins a top-level (user) transaction: a method execution of the
    /// environment object.
    pub fn begin_top_level(&mut self, method: impl Into<String>) -> ExecId {
        self.push_exec(ObjectId::ENVIRONMENT, method.into(), None, None)
    }

    /// Issues a message step from `parent` invoking `method` on `target`, and
    /// creates the child method execution it results in. The message step's
    /// return value is a placeholder until [`complete_invoke`] is called.
    ///
    /// [`complete_invoke`]: HistoryBuilder::complete_invoke
    pub fn invoke(
        &mut self,
        parent: ExecId,
        target: ObjectId,
        method: impl Into<String>,
        args: impl IntoIterator<Item = Value>,
    ) -> (StepId, ExecId) {
        let method = method.into();
        let start = self.next_tick();
        let step_id = StepId(self.steps.len() as u32);
        let child = ExecId(self.execs.len() as u32);
        self.steps.push(StepRecord {
            id: step_id,
            exec: parent,
            kind: StepKind::Message {
                target,
                method: method.clone(),
                args: args.into_iter().collect(),
                child,
                ret: Value::Unit,
            },
        });
        self.starts.push(start);
        self.ends.push(None);
        self.attach_step(parent, step_id);
        let created = self.push_exec(target, method, Some(parent), Some(step_id));
        debug_assert_eq!(created, child);
        (step_id, child)
    }

    /// Completes a message step: records the value returned to the sender and
    /// closes the step's time interval.
    ///
    /// # Panics
    /// Panics if `step` is not a message step or was already completed.
    pub fn complete_invoke(&mut self, step: StepId, ret: Value) {
        let end = self.next_tick();
        assert!(
            self.ends[step.index()].is_none(),
            "message step {step} already completed"
        );
        match &mut self.steps[step.index()].kind {
            StepKind::Message { ret: slot, .. } => *slot = ret,
            _ => panic!("{step} is not a message step"),
        }
        self.ends[step.index()] = Some(end);
        let exec = self.steps[step.index()].exec;
        self.last_completed_step[exec.index()] = Some(step);
    }

    /// Records a local step of `exec` with an explicitly supplied return
    /// value. No state tracking is performed; use this to build histories
    /// with deliberately wrong return values (for legality tests) or when the
    /// caller manages states itself.
    pub fn local(&mut self, exec: ExecId, op: Operation, ret: impl Into<Value>) -> StepId {
        let t = self.next_tick();
        self.push_local(exec, LocalStep::new(op, ret), Interval::instant(t))
    }

    /// Records a local step of `exec`, computing the return value (and
    /// updating the builder's tracked state) by applying the operation to the
    /// object's current state. This is the convenient way to build *legal*
    /// histories.
    pub fn local_applied(
        &mut self,
        exec: ExecId,
        op: Operation,
    ) -> Result<(StepId, Value), TypeError> {
        let object = self.execs[exec.index()].object;
        assert!(
            !object.is_environment(),
            "the environment object has no variables; {exec} cannot issue local steps"
        );
        let ty = self.base.type_of(object);
        let state = self
            .current_state(object)
            .cloned()
            .unwrap_or_else(|| ty.initial_state());
        let (new_state, ret) = ty.apply(&state, &op)?;
        self.tracked_states.insert(object, new_state);
        let t = self.next_tick();
        let id = self.push_local(exec, LocalStep::new(op, ret.clone()), Interval::instant(t));
        Ok((id, ret))
    }

    /// Records a local step with an explicit time interval. Use this to build
    /// histories containing *unordered* (overlapping) local steps, e.g. to
    /// exercise legality condition 2(b).
    pub fn local_with_interval(
        &mut self,
        exec: ExecId,
        op: Operation,
        ret: impl Into<Value>,
        interval: Interval,
    ) -> StepId {
        // Keep the clock strictly past the interval, rounded up to even so
        // clock-allocated steps keep the clock's stride (see `next_tick`).
        let t = interval.end + 1;
        self.tick = self.tick.max(t + (t & 1));
        self.push_local(exec, LocalStep::new(op, ret), interval)
    }

    /// Marks an execution as aborted and records the distinguished abort step
    /// as its last operation (Section 3, "Transaction Failures").
    pub fn abort(&mut self, exec: ExecId) -> StepId {
        self.execs[exec.index()].aborted = true;
        let t = self.next_tick();
        self.push_local(
            exec,
            LocalStep::new(Operation::abort(), ()),
            Interval::instant(t),
        )
    }

    /// Adds an explicit program-order edge `a ⊲ b` within an execution.
    pub fn program_order_edge(&mut self, exec: ExecId, a: StepId, b: StepId) {
        self.execs[exec.index()].program_order.push((a, b));
    }

    // ----- assembly ---------------------------------------------------------

    /// Finishes construction and returns the history.
    ///
    /// Message steps that were never explicitly completed get a completion
    /// time no earlier than every step in their subtree (they are still
    /// "running" when the history ends, so they are unordered with respect to
    /// anything that started after them).
    pub fn build(mut self) -> History {
        // Close open message steps bottom-up (children were created after
        // their parents, so a reverse scan sees children first).
        let final_tick = self.tick;
        for idx in (0..self.steps.len()).rev() {
            if self.ends[idx].is_none() {
                let step = &self.steps[idx];
                let end = match &step.kind {
                    StepKind::Message { child, .. } => {
                        let mut end = self.starts[idx];
                        for &s in &self.exec_subtree_steps(*child) {
                            if let Some(e) = self.ends[s.index()] {
                                end = end.max(e);
                            } else {
                                end = end.max(self.starts[s.index()]);
                            }
                        }
                        end.max(final_tick)
                    }
                    StepKind::Local(_) => self.starts[idx],
                };
                self.ends[idx] = Some(end);
            }
        }
        let intervals: Vec<Interval> = self
            .starts
            .iter()
            .zip(&self.ends)
            .map(|(&s, &e)| Interval::new(s, e.expect("all ends assigned")))
            .collect();
        History::new(
            self.base,
            self.initial_overrides,
            self.execs,
            self.steps,
            intervals,
        )
    }

    // ----- internals --------------------------------------------------------

    fn push_exec(
        &mut self,
        object: ObjectId,
        method: String,
        parent: Option<ExecId>,
        parent_step: Option<StepId>,
    ) -> ExecId {
        let id = ExecId(self.execs.len() as u32);
        self.execs.push(MethodExecution {
            id,
            object,
            method,
            parent,
            parent_step,
            steps: Vec::new(),
            program_order: Vec::new(),
            aborted: false,
        });
        self.last_completed_step.push(None);
        id
    }

    fn push_local(&mut self, exec: ExecId, local: LocalStep, interval: Interval) -> StepId {
        let id = StepId(self.steps.len() as u32);
        self.steps.push(StepRecord {
            id,
            exec,
            kind: StepKind::Local(local),
        });
        self.starts.push(interval.start);
        self.ends.push(Some(interval.end));
        self.attach_step(exec, id);
        self.last_completed_step[exec.index()] = Some(id);
        id
    }

    fn attach_step(&mut self, exec: ExecId, step: StepId) {
        if self.auto_program_order {
            if let Some(prev) = self.last_completed_step[exec.index()] {
                self.execs[exec.index()].program_order.push((prev, step));
            }
        }
        self.execs[exec.index()].steps.push(step);
    }

    fn exec_subtree_steps(&self, root: ExecId) -> Vec<StepId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(e) = stack.pop() {
            for &s in &self.execs[e.index()].steps {
                out.push(s);
                if let StepKind::Message { child, .. } = &self.steps[s.index()].kind {
                    stack.push(*child);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{Counter, IntRegister};

    fn base_xy() -> (Arc<ObjectBase>, ObjectId, ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(Counter));
        (Arc::new(base), x, y)
    }

    #[test]
    fn sequential_build_chains_program_order() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (m, e) = b.invoke(t, x, "bump", []);
        let (s1, _) = b.local_applied(e, Operation::nullary("Read")).unwrap();
        let (s2, _) = b.local_applied(e, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m, Value::Unit);
        let h = b.build();
        let exec = h.exec(e);
        assert!(exec.program_precedes(s1, s2));
        assert!(h.precedes(s1, s2));
        // The message interval contains both local steps.
        assert!(h.interval(m).contains(&h.interval(s1)));
        assert!(h.interval(m).contains(&h.interval(s2)));
    }

    #[test]
    fn local_applied_tracks_state_and_returns() {
        let (base, x, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        b.set_initial_state(x, Value::Int(10));
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        let (_, r) = b.local_applied(e, Operation::nullary("Read")).unwrap();
        assert_eq!(r, Value::Int(10));
        b.local_applied(e, Operation::unary("Write", 3)).unwrap();
        assert_eq!(b.current_state(x), Some(&Value::Int(3)));
        let (_, ey) = b.invoke(t, y, "m", []);
        b.local_applied(ey, Operation::unary("Add", 2)).unwrap();
        assert_eq!(b.current_state(y), Some(&Value::Int(2)));
        let h = b.build();
        assert_eq!(h.initial_state(x), Value::Int(10));
    }

    #[test]
    fn unknown_operation_is_an_error() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        assert!(b
            .local_applied(e, Operation::nullary("Frobnicate"))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "environment object has no variables")]
    fn environment_local_steps_rejected() {
        let (base, _, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let _ = b.local_applied(t, Operation::nullary("Read"));
    }

    #[test]
    fn overlapping_intervals_are_unordered() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let (_, e1) = b.invoke(t1, x, "m", []);
        let t2 = b.begin_top_level("T2");
        let (_, e2) = b.invoke(t2, x, "m", []);
        let s1 = b.local_with_interval(e1, Operation::unary("Write", 1), (), Interval::new(10, 20));
        let s2 = b.local_with_interval(e2, Operation::unary("Write", 2), (), Interval::new(15, 25));
        let h = b.build();
        assert!(h.unordered(s1, s2));
    }

    #[test]
    fn uncompleted_message_spans_subtree() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (m, e) = b.invoke(t, x, "m", []);
        let (s, _) = b.local_applied(e, Operation::unary("Write", 1)).unwrap();
        // never call complete_invoke
        let h = b.build();
        assert!(h.interval(m).contains(&h.interval(s)));
        assert!(!h.precedes(m, s));
        assert!(!h.precedes(s, m));
    }

    #[test]
    fn abort_marks_execution_and_adds_step() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        let s = b.abort(e);
        let h = b.build();
        assert!(h.exec(e).aborted);
        assert!(h.step(s).is_abort());
        assert!(h.effectively_aborted(e));
        assert!(!h.effectively_aborted(t));
    }

    #[test]
    fn auto_program_order_can_be_disabled() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        b.set_auto_program_order(false);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        let (s1, _) = b.local_applied(e, Operation::nullary("Read")).unwrap();
        let (s2, _) = b.local_applied(e, Operation::nullary("Read")).unwrap();
        let h = b.build();
        assert!(!h.exec(e).program_precedes(s1, s2));
    }
}
