//! History equivalence (Definition 7) and serial/serialisable histories
//! (Definition 8).
//!
//! Two histories are *equivalent* iff they have the same executions, the same
//! calling pattern, the same initial states, and every object reaches the
//! same final state under both. A history is *serial* iff for any two
//! incomparable executions all steps of one's descendents precede all steps
//! of the other's. A history is *serialisable* iff it is equivalent to some
//! serial history.
//!
//! Besides the definitional checks, this module contains a bounded
//! brute-force serialisability oracle used to validate the serialisation
//! graph test (Theorem 2) on small histories.

use crate::history::{History, Interval};
use crate::ids::{ExecId, StepId};
use crate::replay;
use crate::step::StepKind;
use std::collections::BTreeMap;

/// Returns `true` if the two histories have the same `E`, `B` and `S`
/// components (their steps and executions are structurally identical; only
/// the temporal order may differ).
pub fn same_structure(a: &History, b: &History) -> bool {
    if a.exec_count() != b.exec_count() || a.step_count() != b.step_count() {
        return false;
    }
    if !History::same_initial_states(a, b) {
        return false;
    }
    for (ea, eb) in a.execs().iter().zip(b.execs()) {
        if ea.id != eb.id
            || ea.object != eb.object
            || ea.method != eb.method
            || ea.parent != eb.parent
            || ea.parent_step != eb.parent_step
            || ea.steps != eb.steps
            || ea.aborted != eb.aborted
        {
            return false;
        }
    }
    for (sa, sb) in a.steps().iter().zip(b.steps()) {
        if sa != sb {
            return false;
        }
    }
    true
}

/// Definition 7: the histories have the same `E`, `B`, `S` and every object
/// has the same final state in both. Returns `false` if either history's
/// replay fails (an illegal history is equivalent to nothing).
pub fn equivalent(a: &History, b: &History) -> bool {
    if !same_structure(a, b) {
        return false;
    }
    match (replay::final_states(a), replay::final_states(b)) {
        (Ok(fa), Ok(fb)) => fa == fb,
        _ => false,
    }
}

/// The time span covered by the steps of an execution's subtree, or `None`
/// if the subtree has no steps.
fn subtree_span(h: &History, e: ExecId) -> Option<Interval> {
    let mut span: Option<Interval> = None;
    for sub in h.subtree_execs(e) {
        for &s in &h.exec(sub).steps {
            let i = h.interval(s);
            span = Some(match span {
                None => i,
                Some(cur) => Interval::new(cur.start.min(i.start), cur.end.max(i.end)),
            });
        }
    }
    span
}

/// Definition 8: a history is serial iff for any two incomparable executions,
/// all steps of one's descendents precede all steps of the other's.
pub fn is_serial(h: &History) -> bool {
    let n = h.exec_count();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (ExecId(i as u32), ExecId(j as u32));
            if !h.incomparable(a, b) {
                continue;
            }
            let (Some(sa), Some(sb)) = (subtree_span(h, a), subtree_span(h, b)) else {
                continue;
            };
            if !sa.before(&sb) && !sb.before(&sa) {
                return false;
            }
        }
    }
    true
}

/// Lays out the history serially: executions are nested blocks, siblings are
/// ordered by `sibling_order`, and within an execution its own steps are
/// emitted in `step_order`. Returns the per-step intervals.
pub fn serial_layout(
    h: &History,
    sibling_order: &dyn Fn(&History, Option<ExecId>) -> Vec<ExecId>,
    step_order: &dyn Fn(&History, ExecId) -> Vec<StepId>,
) -> Vec<Interval> {
    let mut intervals = vec![Interval::instant(0); h.step_count()];
    let mut clock: u64 = 0;

    fn lay_exec(
        h: &History,
        e: ExecId,
        clock: &mut u64,
        intervals: &mut [Interval],
        step_order: &dyn Fn(&History, ExecId) -> Vec<StepId>,
    ) {
        for s in step_order(h, e) {
            match &h.step(s).kind {
                StepKind::Local(_) => {
                    intervals[s.index()] = Interval::instant(*clock);
                    *clock += 1;
                }
                StepKind::Message { child, .. } => {
                    let start = *clock;
                    *clock += 1;
                    lay_exec(h, *child, clock, intervals, step_order);
                    let end = *clock;
                    *clock += 1;
                    intervals[s.index()] = Interval::new(start, end);
                }
            }
        }
    }

    for top in sibling_order(h, None) {
        lay_exec(h, top, &mut clock, &mut intervals, step_order);
    }
    intervals
}

/// The default sibling order: children (or top-level executions when `parent`
/// is `None`) in id order.
pub fn sibling_order_by_id(h: &History, parent: Option<ExecId>) -> Vec<ExecId> {
    match parent {
        None => h.top_level_execs(),
        Some(p) => h.children_of(p).to_vec(),
    }
}

/// The default step order within an execution: the execution's recorded step
/// list (which respects the program order for builder-produced histories).
pub fn step_order_recorded(h: &History, e: ExecId) -> Vec<StepId> {
    h.exec(e).steps.clone()
}

/// Enumerates up to `cap` serial re-layouts of the history obtained by
/// permuting sibling executions at every level (the internal step order of
/// each execution is kept as recorded). For each candidate the steps are
/// re-timed into nested, disjoint blocks, which makes the candidate serial by
/// construction.
pub fn enumerate_serial_relayouts(h: &History, cap: usize) -> Vec<History> {
    // Collect the sibling groups: top level plus the children of every exec.
    let mut groups: Vec<Vec<ExecId>> = vec![h.top_level_execs()];
    for e in h.execs() {
        let kids = h.children_of(e.id);
        if kids.len() > 1 {
            groups.push(kids.to_vec());
        }
    }
    // Enumerate permutations of each group (bounded), then take the cartesian
    // product (bounded).
    fn permutations(items: &[ExecId], cap: usize) -> Vec<Vec<ExecId>> {
        let mut out = Vec::new();
        let mut items = items.to_vec();
        fn recurse(items: &mut Vec<ExecId>, k: usize, out: &mut Vec<Vec<ExecId>>, cap: usize) {
            if out.len() >= cap {
                return;
            }
            if k == items.len() {
                out.push(items.clone());
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                recurse(items, k + 1, out, cap);
                items.swap(k, i);
                if out.len() >= cap {
                    return;
                }
            }
        }
        recurse(&mut items, 0, &mut out, cap);
        out
    }

    let group_perms: Vec<Vec<Vec<ExecId>>> = groups.iter().map(|g| permutations(g, cap)).collect();

    let mut out = Vec::new();
    let mut choice = vec![0usize; group_perms.len()];
    'outer: loop {
        if out.len() >= cap {
            break;
        }
        // Build a sibling-order lookup from the current choice.
        let mut order_of: BTreeMap<Option<ExecId>, Vec<ExecId>> = BTreeMap::new();
        for (gi, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let perm = &group_perms[gi][choice[gi]];
            let parent = h.parent_of(group[0]);
            order_of.insert(parent, perm.clone());
        }
        let sibling_order = move |h: &History, parent: Option<ExecId>| -> Vec<ExecId> {
            order_of
                .get(&parent)
                .cloned()
                .unwrap_or_else(|| sibling_order_by_id(h, parent))
        };
        let intervals = serial_layout(h, &sibling_order, &step_order_recorded);
        out.push(h.with_intervals(intervals));

        // Advance the mixed-radix counter over permutation choices.
        for gi in 0..choice.len() {
            choice[gi] += 1;
            if choice[gi] < group_perms[gi].len() {
                continue 'outer;
            }
            choice[gi] = 0;
        }
        break;
    }
    out
}

/// Bounded brute-force serialisability oracle: searches the serial re-layouts
/// produced by [`enumerate_serial_relayouts`] for one that is legal and
/// equivalent to `h`. Returns the witness if found.
///
/// The oracle is *sound* (a returned witness really is an equivalent, legal,
/// serial history) but only complete up to the enumeration bound and the
/// block-nested layout shape; it is intended for small histories in tests and
/// in experiment E5.
pub fn find_equivalent_serial(h: &History, cap: usize) -> Option<History> {
    let expected = replay::final_states(h).ok()?;
    let mut candidates = enumerate_serial_relayouts(h, cap).into_iter();
    candidates.find(|candidate| {
        crate::legality::is_legal(candidate)
            && is_serial(candidate)
            && replay::final_states(candidate).is_ok_and(|f| f == expected)
    })
}

/// Bounded brute-force serialisability test (Definition 8).
pub fn is_serialisable_bruteforce(h: &History, cap: usize) -> bool {
    find_equivalent_serial(h, cap).is_some()
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

    /// Two transactions each writing x then y, fully interleaved so that x
    /// serialises T1 before T2 but y serialises T2 before T1: the classic
    /// non-serialisable execution from Section 2 of the paper.
    fn incompatible_orders_history() -> History {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(IntRegister));
        let mut b = HistoryBuilder::new(Arc::new(base));
        let t1 = b.begin_top_level("T1");
        let t2 = b.begin_top_level("T2");
        let (m1x, e1x) = b.invoke(t1, x, "w", []);
        b.local_applied(e1x, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m1x, Value::Unit);
        let (m2x, e2x) = b.invoke(t2, x, "w", []);
        b.local_applied(e2x, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m2x, Value::Unit);
        let (m2y, e2y) = b.invoke(t2, y, "w", []);
        b.local_applied(e2y, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m2y, Value::Unit);
        let (m1y, e1y) = b.invoke(t1, y, "w", []);
        b.local_applied(e1y, Operation::unary("Write", 1)).unwrap();
        b.complete_invoke(m1y, Value::Unit);
        b.build()
    }

    /// Two transactions touching x then y strictly one after the other.
    fn serial_history() -> History {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(IntRegister));
        let mut b = HistoryBuilder::new(Arc::new(base));
        for (name, v) in [("T1", 1), ("T2", 2)] {
            let t = b.begin_top_level(name);
            let (mx, ex) = b.invoke(t, x, "w", []);
            b.local_applied(ex, Operation::unary("Write", v)).unwrap();
            b.complete_invoke(mx, Value::Unit);
            let (my, ey) = b.invoke(t, y, "w", []);
            b.local_applied(ey, Operation::unary("Write", v)).unwrap();
            b.complete_invoke(my, Value::Unit);
        }
        b.build()
    }

    #[test]
    fn serial_history_is_serial_and_self_equivalent() {
        let h = serial_history();
        assert!(is_serial(&h));
        assert!(equivalent(&h, &h));
        assert!(same_structure(&h, &h));
        assert!(is_serialisable_bruteforce(&h, 64));
    }

    #[test]
    fn interleaved_history_is_not_serial() {
        let h = incompatible_orders_history();
        assert!(!is_serial(&h));
    }

    #[test]
    fn incompatible_orders_are_not_serialisable() {
        let h = incompatible_orders_history();
        assert!(crate::legality::is_legal(&h));
        assert!(!is_serialisable_bruteforce(&h, 256));
    }

    #[test]
    fn serialisable_interleaving_found_by_oracle() {
        // T1 writes x, T2 writes y, interleaved: trivially serialisable.
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(IntRegister));
        let y = base.add_object("y", Arc::new(IntRegister));
        let mut b = HistoryBuilder::new(Arc::new(base));
        let t1 = b.begin_top_level("T1");
        let t2 = b.begin_top_level("T2");
        let (m1, e1) = b.invoke(t1, x, "w", []);
        let (m2, e2) = b.invoke(t2, y, "w", []);
        b.local_applied(e1, Operation::unary("Write", 1)).unwrap();
        b.local_applied(e2, Operation::unary("Write", 2)).unwrap();
        b.complete_invoke(m1, Value::Unit);
        b.complete_invoke(m2, Value::Unit);
        let h = b.build();
        assert!(!is_serial(&h));
        let witness = find_equivalent_serial(&h, 64).expect("serialisable");
        assert!(is_serial(&witness));
        assert!(crate::legality::is_legal(&witness));
    }

    #[test]
    fn structure_mismatch_not_equivalent() {
        let a = serial_history();
        let b = incompatible_orders_history();
        assert!(!same_structure(&a, &b));
        assert!(!equivalent(&a, &b));
    }

    #[test]
    fn relayout_candidates_are_serial() {
        let h = incompatible_orders_history();
        for cand in enumerate_serial_relayouts(&h, 8) {
            assert!(is_serial(&cand));
            assert!(same_structure(&h, &cand));
        }
    }
}
