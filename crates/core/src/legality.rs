//! Legality of histories (Definition 6).
//!
//! A quadruple `(E, <, B, S)` is a *legal history* iff:
//!
//! 1. `B` is one-to-one, no method execution is a proper ancestor of itself,
//!    and every top-level method execution belongs to the environment;
//! 2. `<` (a) contains every execution's program order `⊲`, (b) orders every
//!    pair of conflicting local steps, and (c) orders all descendents of
//!    ordered steps accordingly;
//! 3. for every object there is a topological sort of its local steps,
//!    consistent with `<`, that is legal on the object's initial state (the
//!    recorded return values are the ones the operations actually produce).
//!
//! Because `<` is represented by per-step time intervals (see
//! [`crate::history`]), condition 2(c) is checked through the equivalent
//! *containment* property: every step's interval lies within the interval of
//! the message step that created its execution. Any history produced by an
//! actual execution has this property (a method cannot outlive the message
//! that invoked it), and containment together with interval order implies
//! condition 2(c) verbatim.

use crate::error::LegalityError;
use crate::history::History;
use crate::ids::{ExecId, ObjectId, StepId};
use crate::replay;
use crate::step::StepKind;
use crate::value::Value;
use std::collections::BTreeMap;

/// Checks every legality condition of Definition 6, returning the first
/// violation found (structural checks first, then conditions 1–3 in order),
/// or the final states condition 3 replays.
pub fn check_legal(h: &History) -> Result<BTreeMap<ObjectId, Value>, LegalityError> {
    check_structure(h)?;
    check_condition1(h)?;
    check_condition2a(h)?;
    check_condition2b(h)?;
    check_condition2c(h)?;
    check_condition3(h)
}

/// Returns `true` if the history satisfies every legality condition.
pub fn is_legal(h: &History) -> bool {
    check_legal(h).is_ok()
}

/// Structural sanity: objects exist, local steps are not issued against the
/// environment, message targets match the child execution's object.
pub fn check_structure(h: &History) -> Result<(), LegalityError> {
    for e in h.execs() {
        if !h.base().contains(e.object) {
            return Err(LegalityError::UnknownObject { object: e.object });
        }
    }
    for s in h.steps() {
        match &s.kind {
            StepKind::Local(_) => {
                if h.object_of_step(s.id).is_environment() {
                    return Err(LegalityError::LocalStepOnEnvironment { step: s.id });
                }
            }
            StepKind::Message { target, child, .. } => {
                if !h.base().contains(*target) {
                    return Err(LegalityError::UnknownObject { object: *target });
                }
                let child_exec = h.exec(*child);
                if child_exec.object != *target
                    || child_exec.parent != Some(s.exec)
                    || child_exec.parent_step != Some(s.id)
                {
                    return Err(LegalityError::DanglingReference {
                        detail: format!(
                            "message step {} and child execution {} disagree about the calling pattern",
                            s.id, child
                        ),
                    });
                }
            }
        }
    }
    for e in h.execs() {
        for &s in &e.steps {
            if h.step(s).exec != e.id {
                return Err(LegalityError::DanglingReference {
                    detail: format!(
                        "step {s} listed under {} but recorded for {}",
                        e.id,
                        h.step(s).exec
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Condition 1: `B` one-to-one, acyclic ancestry, top-level executions belong
/// to the environment (and only top-level executions do).
pub fn check_condition1(h: &History) -> Result<(), LegalityError> {
    // B is one-to-one: each execution is the child of at most one message
    // step, and that step is its recorded parent step.
    let mut claimed: Vec<Option<StepId>> = vec![None; h.exec_count()];
    for s in h.steps() {
        if let StepKind::Message { child, .. } = &s.kind {
            if let Some(prev) = claimed[child.index()] {
                return Err(LegalityError::MessageNotInjective {
                    child: *child,
                    steps: (prev, s.id),
                });
            }
            claimed[child.index()] = Some(s.id);
        }
    }
    // No execution is a proper ancestor of itself.
    for e in h.execs() {
        let mut slow = e.id;
        let mut seen = std::collections::HashSet::new();
        seen.insert(slow);
        while let Some(p) = h.exec(slow).parent {
            if !seen.insert(p) {
                return Err(LegalityError::CyclicAncestry { exec: e.id });
            }
            slow = p;
        }
    }
    // Top-level executions belong to the environment; nested ones do not.
    for e in h.execs() {
        if e.is_top_level() {
            if !e.object.is_environment() {
                return Err(LegalityError::TopLevelNotEnvironment { exec: e.id });
            }
        } else if e.object.is_environment() {
            return Err(LegalityError::NestedEnvironmentExecution { exec: e.id });
        }
    }
    Ok(())
}

/// Condition 2(a): `⊲ ⊆ <` for every method execution.
pub fn check_condition2a(h: &History) -> Result<(), LegalityError> {
    for e in h.execs() {
        for &(a, b) in &e.program_order {
            if !h.precedes(a, b) {
                return Err(LegalityError::ProgramOrderNotRespected {
                    exec: e.id,
                    pair: (a, b),
                });
            }
        }
    }
    Ok(())
}

/// Condition 2(b): every pair of conflicting local steps is ordered by `<`.
pub fn check_condition2b(h: &History) -> Result<(), LegalityError> {
    for o in h.objects_touched() {
        let steps = h.local_steps_of_object(o);
        for (i, &a) in steps.iter().enumerate() {
            for &b in &steps[i + 1..] {
                let conflict = h.steps_conflict(a, b) || h.steps_conflict(b, a);
                if conflict && h.unordered(a, b) {
                    return Err(LegalityError::ConflictingStepsUnordered {
                        object: o,
                        steps: (a, b),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Condition 2(c), via interval containment: every step's interval lies
/// within the interval of the message step that created its execution.
pub fn check_condition2c(h: &History) -> Result<(), LegalityError> {
    for s in h.steps() {
        let exec = h.exec(s.exec);
        if let Some(parent_step) = exec.parent_step {
            let outer = h.interval(parent_step);
            let inner = h.interval(s.id);
            if !outer.contains(&inner) {
                return Err(LegalityError::DescendantsNotOrdered {
                    pair: (parent_step, s.id),
                    descendants: (parent_step, s.id),
                });
            }
        }
    }
    Ok(())
}

/// Condition 3: for every object, the topological sort of its local steps by
/// initiation time is legal on the object's initial state. Returns the final
/// state of every object the history touches.
pub fn check_condition3(h: &History) -> Result<BTreeMap<ObjectId, Value>, LegalityError> {
    replay::final_states(h)
}

/// The set of executions that issued at least one step ordered inconsistently
/// with the program order; useful for diagnostics in the execution engine's
/// self-checks.
pub fn executions_violating_program_order(h: &History) -> Vec<ExecId> {
    h.execs()
        .iter()
        .filter(|e| e.program_order.iter().any(|&(a, b)| !h.precedes(a, b)))
        .map(|e| e.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::history::Interval;
    use crate::object::ObjectBase;
    use crate::op::Operation;
    use crate::testutil::{Counter, IntRegister};
    use crate::value::Value;
    use std::sync::Arc;

    fn base_xy() -> (Arc<ObjectBase>, crate::ids::ObjectId, crate::ids::ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(Counter));
        (Arc::new(base), x, y)
    }

    #[test]
    fn well_built_history_is_legal() {
        let (base, x, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let (m1, e1) = b.invoke(t1, x, "set", []);
        b.local_applied(e1, Operation::unary("Write", 5)).unwrap();
        b.complete_invoke(m1, Value::Unit);
        let (m2, e2) = b.invoke(t1, y, "bump", []);
        b.local_applied(e2, Operation::unary("Add", 1)).unwrap();
        b.complete_invoke(m2, Value::Unit);
        let h = b.build();
        assert!(is_legal(&h));
        assert!(executions_violating_program_order(&h).is_empty());
    }

    #[test]
    fn wrong_return_value_violates_condition3() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        // Initial state is 0, but we record a read returning 7.
        b.local(e, Operation::nullary("Read"), Value::Int(7));
        let h = b.build();
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::IllegalReturnValue { .. })
        ));
    }

    #[test]
    fn unknown_operation_violates_condition3() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        b.local(e, Operation::nullary("Bogus"), Value::Unit);
        let h = b.build();
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::ReplayFailed { .. })
        ));
    }

    #[test]
    fn unordered_conflicting_steps_violate_condition2b() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let (_, e1) = b.invoke(t1, x, "m", []);
        let t2 = b.begin_top_level("T2");
        let (_, e2) = b.invoke(t2, x, "m", []);
        b.local_with_interval(e1, Operation::unary("Write", 1), (), Interval::new(50, 60));
        b.local_with_interval(e2, Operation::unary("Write", 2), (), Interval::new(55, 65));
        let h = b.build();
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::ConflictingStepsUnordered { .. })
        ));
    }

    #[test]
    fn overlapping_nonconflicting_steps_are_fine() {
        let (base, _, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let (_, e1) = b.invoke(t1, y, "m", []);
        let t2 = b.begin_top_level("T2");
        let (_, e2) = b.invoke(t2, y, "m", []);
        // Two Adds on a counter commute, so they may be unordered.
        b.local_with_interval(e1, Operation::unary("Add", 1), (), Interval::new(50, 60));
        b.local_with_interval(e2, Operation::unary("Add", 2), (), Interval::new(55, 65));
        let h = b.build();
        // Condition 2b passes; condition 3 needs a consistent replay, which
        // exists because the adds commute. But the recorded return values
        // must match: Add returns Unit, which is state-independent, so the
        // history is legal.
        assert!(is_legal(&h));
    }

    #[test]
    fn top_level_must_be_environment() {
        // Build by hand: an execution with no parent on a real object.
        let (base, x, _) = base_xy();
        let execs = vec![crate::exec_tree::MethodExecution {
            id: ExecId(0),
            object: x,
            method: "m".into(),
            parent: None,
            parent_step: None,
            steps: vec![],
            program_order: vec![],
            aborted: false,
        }];
        let h = History::new(base.clone(), base.initial_states(), execs, vec![], vec![]);
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::TopLevelNotEnvironment { .. })
        ));
    }

    #[test]
    fn program_order_violation_detected() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        b.set_auto_program_order(false);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        let s1 = b.local_with_interval(e, Operation::nullary("Read"), 0, Interval::new(10, 10));
        let s2 = b.local_with_interval(e, Operation::nullary("Read"), 0, Interval::new(10, 10));
        // Claim s1 ⊲ s2 although they are simultaneous.
        b.program_order_edge(e, s1, s2);
        let h = b.build();
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::ProgramOrderNotRespected { .. })
        ));
    }

    #[test]
    fn containment_violation_detected() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (m, e) = b.invoke(t, x, "m", []);
        // Complete the message *before* its local step runs: the child step
        // then falls outside the message interval.
        b.complete_invoke(m, Value::Unit);
        b.local_applied(e, Operation::nullary("Read")).unwrap();
        let h = b.build();
        assert!(matches!(
            check_legal(&h),
            Err(LegalityError::DescendantsNotOrdered { .. })
        ));
    }

    use crate::ids::ExecId;
}
