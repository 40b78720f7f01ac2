//! Per-object serialisation graphs and the intra-/inter-object separation
//! theorem (Definition 10 and Theorem 5, Section 5.3).
//!
//! For each object `o`, two graphs over the method executions *of `o`* are
//! defined:
//!
//! * `SG_local(h, o)` — edges implied by conflicts between the executions'
//!   own local steps (the object's intra-object serialisation order);
//! * `SG_mesg(h, o)` — edges implied by conflicts between their *messages*,
//!   manifested as `SG_local` edges between proper descendents at other
//!   objects (the inter-object constraints the object must respect).
//!
//! Additionally, for each method execution `e`, the relation `→_e` orders the
//! messages of `e` whenever the program order or a conflict between their
//! descendents does.
//!
//! **Theorem 5**: if `SG_local(h,o) ∪ SG_mesg(h,o)` is acyclic for every
//! object `o` and `→_e` is acyclic for every execution `e`, then `h` is
//! serialisable. Keeping `SG_local` acyclic is the job of *intra-object*
//! synchronisation; keeping `SG_mesg` and `→_e` acyclic is the job of
//! *inter-object* synchronisation. The optimistic certifier in `obase-sched`
//! enforces exactly these conditions at commit time.

use crate::graph::DiGraph;
use crate::history::History;
use crate::ids::{ExecId, ObjectId, StepId};
use std::collections::BTreeMap;

/// Builds `SG_local(h, o)`: nodes are the method executions of object `o`,
/// with an edge `e → e'` whenever `e` and `e'` are incomparable and some step
/// of `e` precedes and conflicts with some step of `e'`.
pub fn sg_local(h: &History, o: ObjectId) -> DiGraph<ExecId> {
    let mut g = DiGraph::new();
    let execs = h.execs_of_object(o);
    for &e in &execs {
        g.add_node(e);
    }
    for &e in &execs {
        for &e2 in &execs {
            if e == e2 || !h.incomparable(e, e2) {
                continue;
            }
            let steps_e: Vec<StepId> = h
                .exec(e)
                .steps
                .iter()
                .copied()
                .filter(|&s| h.step(s).is_local())
                .collect();
            let steps_e2: Vec<StepId> = h
                .exec(e2)
                .steps
                .iter()
                .copied()
                .filter(|&s| h.step(s).is_local())
                .collect();
            'outer: for &u in &steps_e {
                for &v in &steps_e2 {
                    if h.precedes(u, v) && h.steps_conflict(u, v) {
                        g.add_edge(e, e2);
                        break 'outer;
                    }
                }
            }
        }
    }
    g
}

/// Builds `SG_mesg(h, o)`: same nodes as `SG_local(h, o)`, with an edge
/// `e → e'` whenever `e` and `e'` are incomparable and some proper
/// descendents `f`, `f'` of `e`, `e'` are connected by an edge of
/// `SG_local(h, o')` for some object `o'`.
pub fn sg_mesg(h: &History, o: ObjectId) -> DiGraph<ExecId> {
    sg_mesg_from_locals(h, o, &all_sg_local(h))
}

/// Builds every object's `SG_local` in one pass (the environment is included
/// because its method executions — the top-level transactions — are nodes of
/// Definition 10 too, even though it has no local steps).
pub fn all_sg_local(h: &History) -> BTreeMap<ObjectId, DiGraph<ExecId>> {
    let mut objects = h.objects_touched();
    objects.push(ObjectId::ENVIRONMENT);
    for e in h.execs() {
        if !objects.contains(&e.object) {
            objects.push(e.object);
        }
    }
    objects.sort();
    objects.dedup();
    objects.into_iter().map(|o| (o, sg_local(h, o))).collect()
}

fn sg_mesg_from_locals(
    h: &History,
    o: ObjectId,
    locals: &BTreeMap<ObjectId, DiGraph<ExecId>>,
) -> DiGraph<ExecId> {
    let mut g = DiGraph::new();
    let execs = h.execs_of_object(o);
    for &e in &execs {
        g.add_node(e);
    }
    for (_, lg) in locals.iter() {
        for (f, f2) in lg.edges() {
            // Lift the edge to every pair of *proper* ancestors that are
            // executions of `o` and incomparable.
            for &e in h.ancestors_of(f).iter().skip(1) {
                if h.exec(e).object != o {
                    continue;
                }
                for &e2 in h.ancestors_of(f2).iter().skip(1) {
                    if h.exec(e2).object != o {
                        continue;
                    }
                    if h.incomparable(e, e2) {
                        g.add_edge(e, e2);
                    }
                }
            }
        }
    }
    g
}

/// The relation `→_e` between the message steps of a single method execution
/// `e`: `u →_e u'` iff `u ⊲ u'` or there are conflicting descendent steps
/// `t`, `t'` of `u`, `u'` with `t < t'`.
pub fn intra_method_message_order(h: &History, e: ExecId) -> DiGraph<StepId> {
    let exec = h.exec(e);
    let messages: Vec<StepId> = exec
        .steps
        .iter()
        .copied()
        .filter(|&s| h.step(s).is_message())
        .collect();
    let mut g = DiGraph::new();
    for &m in &messages {
        g.add_node(m);
    }
    for &u in &messages {
        for &u2 in &messages {
            if u == u2 {
                continue;
            }
            if exec.program_precedes(u, u2) {
                g.add_edge(u, u2);
                continue;
            }
            let (Some(c1), Some(c2)) = (h.step(u).message_child(), h.step(u2).message_child())
            else {
                continue;
            };
            let desc1 = h.subtree_local_steps(c1);
            let desc2 = h.subtree_local_steps(c2);
            'outer: for &t in &desc1 {
                for &t2 in &desc2 {
                    if h.precedes(t, t2) && h.steps_conflict(t, t2) {
                        g.add_edge(u, u2);
                        break 'outer;
                    }
                }
            }
        }
    }
    g
}

/// The result of evaluating the Theorem 5 condition on a history.
#[derive(Clone, Debug, Default)]
pub struct Theorem5Report {
    /// Objects whose `SG_local ∪ SG_mesg` has a cycle, with a witness cycle.
    pub cyclic_objects: Vec<(ObjectId, Vec<ExecId>)>,
    /// Executions whose `→_e` has a cycle, with a witness cycle of message
    /// steps.
    pub cyclic_executions: Vec<(ExecId, Vec<StepId>)>,
}

impl Theorem5Report {
    /// Returns `true` if both parts of the Theorem 5 condition hold, in which
    /// case the history is serialisable.
    pub fn condition_holds(&self) -> bool {
        self.cyclic_objects.is_empty() && self.cyclic_executions.is_empty()
    }
}

/// Evaluates the Theorem 5 condition: part (a) — for every object,
/// `SG_local ∪ SG_mesg` is acyclic; part (b) — for every execution, `→_e` is
/// acyclic.
pub fn theorem5_report(h: &History) -> Theorem5Report {
    let locals = all_sg_local(h);
    let mut report = Theorem5Report::default();
    for (&o, local) in &locals {
        let mesg = sg_mesg_from_locals(h, o, &locals);
        let combined = local.union(&mesg);
        if let Some(cycle) = combined.find_cycle() {
            report.cyclic_objects.push((o, cycle));
        }
    }
    for e in h.execs() {
        let g = intra_method_message_order(h, e.id);
        if let Some(cycle) = g.find_cycle() {
            report.cyclic_executions.push((e.id, cycle));
        }
    }
    report
}

/// Returns `true` if the Theorem 5 sufficient condition holds for `h`.
pub fn theorem5_condition_holds(h: &History) -> bool {
    theorem5_report(h).condition_holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::object::ObjectBase;
    use crate::op::Operation;
    use crate::testutil::IntRegister;
    use crate::value::Value;
    use std::sync::Arc;

    fn base_xy() -> (Arc<ObjectBase>, ObjectId, ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(IntRegister));
        (Arc::new(base), x, y)
    }

    /// The running example of Section 2: x orders T1 before T2, y the
    /// reverse. Each object's own SG_local is acyclic (a single edge), but
    /// the environment's SG_mesg — which collects both orders at the parent
    /// level — has a 2-cycle, so the Theorem 5 condition correctly fails.
    #[test]
    fn incompatible_orders_fail_theorem5_at_the_environment() {
        let (base, x, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let t2 = b.begin_top_level("T2");
        let (m1, e1) = b.invoke(t1, x, "w", []);
        b.local_applied(e1, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m1, Value::Unit);
        let (m2, e2) = b.invoke(t2, x, "w", []);
        b.local_applied(e2, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m2, Value::Unit);
        let (m3, e3) = b.invoke(t2, y, "w", []);
        b.local_applied(e3, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m3, Value::Unit);
        let (m4, e4) = b.invoke(t1, y, "w", []);
        b.local_applied(e4, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m4, Value::Unit);
        let h = b.build();

        let gx = sg_local(&h, x);
        let gy = sg_local(&h, y);
        assert!(gx.is_acyclic());
        assert!(gy.is_acyclic());
        assert!(gx.has_edge(e1, e2));
        assert!(gy.has_edge(e3, e4));

        let env_mesg = sg_mesg(&h, ObjectId::ENVIRONMENT);
        assert!(env_mesg.has_edge(t1, t2));
        assert!(env_mesg.has_edge(t2, t1));
        assert!(!env_mesg.is_acyclic());

        let report = theorem5_report(&h);
        assert!(!report.condition_holds());
        assert!(report
            .cyclic_objects
            .iter()
            .any(|(o, _)| o.is_environment()));
        assert!(!theorem5_condition_holds(&h));
    }

    /// A compatible interleaving satisfies the Theorem 5 condition.
    #[test]
    fn compatible_orders_satisfy_theorem5() {
        let (base, x, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t1 = b.begin_top_level("T1");
        let t2 = b.begin_top_level("T2");
        for (t, v) in [(t1, 1), (t2, 2)] {
            let (mx, ex) = b.invoke(t, x, "w", []);
            b.local_applied(ex, Operation::unary("Write", v)).unwrap();
            b.complete_invoke(mx, Value::Unit);
        }
        for (t, v) in [(t1, 1), (t2, 2)] {
            let (my, ey) = b.invoke(t, y, "w", []);
            b.local_applied(ey, Operation::unary("Write", v)).unwrap();
            b.complete_invoke(my, Value::Unit);
        }
        let h = b.build();
        assert!(theorem5_condition_holds(&h));
        // And indeed the global SG agrees (Theorem 5 is consistent with
        // Theorem 2 on this example).
        assert!(crate::sg::certifies_serialisable(&h));
    }

    /// `→_e` orders two parallel messages whose descendents conflict; if the
    /// conflicts point both ways, `→_e` is cyclic and Theorem 5(b) fails.
    #[test]
    fn intra_method_order_detects_conflicting_parallel_messages() {
        let (base, x, y) = base_xy();
        let mut b = HistoryBuilder::new(base);
        b.set_auto_program_order(false);
        let t = b.begin_top_level("T");
        // Two parallel messages from T to x-wrapper methods; each child
        // writes both x and y, in opposite orders.
        let (ma, ea) = b.invoke(t, x, "a", []);
        let (mb, eb) = b.invoke(t, x, "b", []);
        // ea writes x first, then y; eb writes y first, then x — but
        // interleaved so conflicts point in both directions between the two
        // children.
        b.local_applied(ea, Operation::unary("Write", 1)).unwrap();
        // eb's nested call to y:
        let (mby, eby) = b.invoke(eb, y, "wy", []);
        b.local_applied(eby, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(mby, Value::Unit);
        // ea's nested call to y (after eb's):
        let (may, eay) = b.invoke(ea, y, "wy", []);
        b.local_applied(eay, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(may, Value::Unit);
        // eb's own write of x (after ea's):
        b.local_applied(eb, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(ma, Value::Unit);
        b.complete_invoke(mb, Value::Unit);
        let h = b.build();

        let g = intra_method_message_order(&h, t);
        assert!(g.has_edge(ma, mb)); // x conflicts: ea before eb
        assert!(g.has_edge(mb, ma)); // y conflicts: eb's subtree before ea's
        assert!(!g.is_acyclic());
        let report = theorem5_report(&h);
        assert!(report.cyclic_executions.iter().any(|(e, _)| *e == t));
    }

    #[test]
    fn all_sg_local_includes_environment() {
        let (base, x, _) = base_xy();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (m, e) = b.invoke(t, x, "w", []);
        b.local_applied(e, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m, Value::Unit);
        let h = b.build();
        let locals = all_sg_local(&h);
        assert!(locals.contains_key(&ObjectId::ENVIRONMENT));
        assert!(locals.contains_key(&x));
    }
}
