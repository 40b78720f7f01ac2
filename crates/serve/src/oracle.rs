//! Merging per-batch histories into one admitted history for the oracle.
//!
//! The server executes admitted transactions batch by batch: batch `k+1`
//! starts from the committed final states of batch `k` (the object base is
//! re-seeded between batches), so the batches are *totally ordered* in
//! time. That makes the merged history simple to construct — re-number the
//! execution and step ids of each batch past the previous ones and shift
//! every step interval past the previous batch's last completion — and
//! simple to reason about: the merged committed history replays exactly
//! like the batches did in sequence, so if every batch is serialisable the
//! merged history is too. [`merge_histories`] builds that history; the
//! session test battery and the fuzzer's serve leg then hold it to
//! [`obase_core::oracle::check`] with Theorem 5 — one oracle over
//! *everything* the server ever admitted.

use obase_core::history::{History, Interval};
use obase_core::ids::{ExecId, StepId};
use obase_core::step::StepKind;

/// Merges a sequence of batch histories (each over the *same* object base
/// population, with batch `k+1`'s initial states equal to batch `k`'s
/// committed final states) into one history carrying batch 0's base and
/// initial states. Returns `None` for an empty sequence.
///
/// Ids are re-numbered densely and intervals shifted so the merged history
/// is a valid [`History`] in its own right; all structural invariants are
/// re-asserted by [`History::new`].
pub fn merge_histories(parts: &[History]) -> Option<History> {
    let first = parts.first()?;
    let mut execs = Vec::new();
    let mut steps = Vec::new();
    let mut intervals: Vec<Interval> = Vec::new();
    let mut exec_off = 0u32;
    let mut step_off = 0u32;
    let mut time_off = 0u64;
    for part in parts {
        for e in part.execs() {
            let mut ne = e.clone();
            ne.id = ExecId(e.id.0 + exec_off);
            ne.parent = e.parent.map(|p| ExecId(p.0 + exec_off));
            ne.parent_step = e.parent_step.map(|s| StepId(s.0 + step_off));
            ne.steps = e.steps.iter().map(|s| StepId(s.0 + step_off)).collect();
            ne.program_order = e
                .program_order
                .iter()
                .map(|(a, b)| (StepId(a.0 + step_off), StepId(b.0 + step_off)))
                .collect();
            execs.push(ne);
        }
        for s in part.steps() {
            let mut ns = s.clone();
            ns.id = StepId(s.id.0 + step_off);
            ns.exec = ExecId(s.exec.0 + exec_off);
            if let StepKind::Message { child, .. } = &mut ns.kind {
                *child = ExecId(child.0 + exec_off);
            }
            let iv = part.interval(s.id);
            intervals.push(Interval::new(iv.start + time_off, iv.end + time_off));
            steps.push(ns);
        }
        exec_off += part.execs().len() as u32;
        step_off += part.steps().len() as u32;
        time_off += part.max_time() + 1;
    }
    Some(History::new(
        std::sync::Arc::clone(first.base()),
        first.initial_states().clone(),
        execs,
        steps,
        intervals,
    ))
}
