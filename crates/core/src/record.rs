//! Append-only history recording for concurrent execution backends.
//!
//! The simulator records its history by calling [`HistoryBuilder`] directly:
//! it is single-threaded, so every record call happens at a well-defined
//! point of the one global interleaving. A multi-threaded backend cannot do
//! that without serialising every step through the builder's lock — which is
//! exactly the control-plane bottleneck the parallel engine's decomposed
//! control plane removes. This module provides the alternative:
//!
//! * [`HistoryRecorder`] — the recording contract both styles implement. The
//!   caller (the lifecycle kernel or an engine driver) allocates execution
//!   ids; the recorder allocates step ids and remembers the events.
//! * [`HistoryBuilder`] implements it directly (the simulator's path, zero
//!   overhead, final ids handed out immediately).
//! * [`BufferedRecorder`] implements it by appending [`Stamped`] events to a
//!   thread-local [`EventBuffer`], with two shared atomics (a global
//!   sequence counter and a provisional step-id counter) from a
//!   [`RecordClock`]. No lock is taken per event: the sequence number is
//!   drawn *inside* whatever critical section orders the event with its
//!   peers (the object's store shard for installs, the lifecycle lock for
//!   begins/commits/aborts), so sorting by sequence number reproduces a
//!   valid linearisation of the run.
//! * [`stitch`] — the flush: merges every buffer by sequence number and
//!   replays the events through a fresh [`HistoryBuilder`], translating
//!   provisional step ids to final ones. The resulting history is exactly
//!   the history a direct recorder would have produced for the same
//!   linearisation — [`same_structure`] states that equivalence and the
//!   tests here verify it on randomised event streams.
//!
//! The two paths are interchangeable behind [`HistoryRecorder`]:
//!
//! ```
//! use obase_core::builder::HistoryBuilder;
//! use obase_core::ids::{ExecId, ObjectId};
//! use obase_core::object::ObjectBase;
//! use obase_core::op::Operation;
//! use obase_core::record::{
//!     same_structure, stitch, BufferedRecorder, EventBuffer, HistoryRecorder, RecordClock,
//! };
//! use obase_core::value::Value;
//! use std::sync::Arc;
//!
//! // One register object; execution ids are allocated by the caller (the
//! // lifecycle kernel, in a real run).
//! let mut base = ObjectBase::new();
//! let x = base.add_object("x", Arc::new(obase_core::testutil::IntRegister));
//! let base = Arc::new(base);
//! let (top, child) = (ExecId(0), ExecId(1));
//!
//! // Record the same tiny run through both recorders.
//! let record = |rec: &mut dyn HistoryRecorder| {
//!     rec.record_begin_top(top, "T0");
//!     let msg = rec.record_invoke(top, child, x, "set", vec![Value::Int(5)]);
//!     rec.record_local(child, Operation::unary("Write", 5), Value::Unit);
//!     rec.record_complete(msg, Value::Unit);
//! };
//! let mut direct = HistoryBuilder::new(Arc::clone(&base));
//! direct.set_auto_program_order(false);
//! record(&mut direct);
//!
//! let clock = RecordClock::new();
//! let mut buf = EventBuffer::new();
//! record(&mut BufferedRecorder::new(&clock, &mut buf));
//!
//! // Stitching the buffers reproduces the directly built history.
//! let stitched = stitch(base, [buf]);
//! assert!(same_structure(&direct.build(), &stitched));
//! ```

use crate::builder::HistoryBuilder;
use crate::history::History;
use crate::ids::{ExecId, ObjectId, StepId};
use crate::object::ObjectBase;
use crate::op::Operation;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// The recording half of the transaction lifecycle: every history-shaping
/// event the kernel or a driver emits goes through this trait.
///
/// Execution ids are allocated by the *caller* (the lifecycle registry is
/// the authority on execution numbering); step ids are allocated by the
/// recorder and are only promised to be unique — a buffered recorder hands
/// out provisional ids that [`stitch`] later maps to dense final ones.
pub trait HistoryRecorder {
    /// A top-level transaction `exec` named `name` begins.
    fn record_begin_top(&mut self, exec: ExecId, name: &str);

    /// `parent` sends the message step invoking `method` on `target`,
    /// creating child execution `child`. Returns the message step's id.
    fn record_invoke(
        &mut self,
        parent: ExecId,
        child: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> StepId;

    /// `exec` installed a local step. Returns the step's id.
    fn record_local(&mut self, exec: ExecId, op: Operation, ret: Value) -> StepId;

    /// An explicit program-order edge `a ⊲ b` within `exec`.
    fn record_program_order(&mut self, exec: ExecId, a: StepId, b: StepId);

    /// The message step `step` completes, returning `ret` to the sender.
    fn record_complete(&mut self, step: StepId, ret: Value);

    /// `exec` aborts (records the distinguished abort step).
    fn record_abort(&mut self, exec: ExecId);

    /// The top-level transaction `exec` committed. The in-memory history
    /// derives commitment from the *absence* of an abort mark, so the
    /// default does nothing; durable recorders (the `obase-wal` write-ahead
    /// log) override this to persist the commit record — the point at which
    /// a transaction's steps survive a crash.
    fn record_commit_top(&mut self, exec: ExecId) {
        let _ = exec;
    }
}

impl HistoryRecorder for HistoryBuilder {
    fn record_begin_top(&mut self, exec: ExecId, name: &str) {
        let allocated = self.begin_top_level(name.to_owned());
        debug_assert_eq!(
            allocated, exec,
            "builder and lifecycle registry disagree on execution numbering"
        );
    }

    fn record_invoke(
        &mut self,
        parent: ExecId,
        child: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> StepId {
        let (msg, allocated) = self.invoke(parent, target, method.to_owned(), args);
        debug_assert_eq!(
            allocated, child,
            "builder and lifecycle registry disagree on execution numbering"
        );
        msg
    }

    fn record_local(&mut self, exec: ExecId, op: Operation, ret: Value) -> StepId {
        self.local(exec, op, ret)
    }

    fn record_program_order(&mut self, exec: ExecId, a: StepId, b: StepId) {
        self.program_order_edge(exec, a, b);
    }

    fn record_complete(&mut self, step: StepId, ret: Value) {
        self.complete_invoke(step, ret);
    }

    fn record_abort(&mut self, exec: ExecId) {
        self.abort(exec);
    }
}

/// One recorded lifecycle event. Step ids inside are *provisional* (from
/// [`RecordClock::next_step`]); [`stitch`] maps them to final dense ids.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A top-level transaction began.
    BeginTop {
        /// The transaction's execution id.
        exec: ExecId,
        /// The transaction's label.
        name: String,
    },
    /// A message step: `parent` invoked `method` on `target`, creating
    /// `child`.
    Invoke {
        /// Provisional id of the message step.
        step: StepId,
        /// The invoking execution.
        parent: ExecId,
        /// The created child execution.
        child: ExecId,
        /// The target object.
        target: ObjectId,
        /// The invoked method.
        method: String,
        /// The invocation arguments.
        args: Vec<Value>,
    },
    /// A local step installed by `exec`.
    Local {
        /// Provisional id of the step.
        step: StepId,
        /// The issuing execution.
        exec: ExecId,
        /// The operation.
        op: Operation,
        /// The observed return value.
        ret: Value,
    },
    /// A program-order edge `a ⊲ b` within `exec`.
    ProgramOrder {
        /// The execution the edge belongs to.
        exec: ExecId,
        /// The earlier step (provisional id).
        a: StepId,
        /// The later step (provisional id).
        b: StepId,
    },
    /// The message step `step` completed with return value `ret`.
    Complete {
        /// Provisional id of the message step.
        step: StepId,
        /// The value returned to the sender.
        ret: Value,
    },
    /// `exec` aborted.
    Abort {
        /// The aborted execution.
        exec: ExecId,
    },
}

/// An [`Event`] stamped with its global sequence number.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamped {
    /// Position in the run's linearisation (unique across all buffers).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The shared counters of one buffered-recording run: the global sequence
/// number and the provisional step-id allocator. Both are single atomics, so
/// drawing from them never blocks.
#[derive(Debug, Default)]
pub struct RecordClock {
    seq: AtomicU64,
    steps: AtomicU32,
}

impl RecordClock {
    /// A fresh clock (sequence and step ids start at zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next sequence number. Call this *inside* the critical
    /// section that orders the event with its peers.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a provisional step id.
    pub fn next_step(&self) -> StepId {
        StepId(self.steps.fetch_add(1, Ordering::Relaxed))
    }
}

/// A thread-local buffer of stamped events — one per activity (worker-side
/// top-level transaction or `Par` branch). Appending never takes a lock.
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Vec<Stamped>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A [`HistoryRecorder`] over one activity's [`EventBuffer`] and the run's
/// shared [`RecordClock`]. Construct one per record site; it borrows both.
#[derive(Debug)]
pub struct BufferedRecorder<'a> {
    clock: &'a RecordClock,
    buf: &'a mut EventBuffer,
}

impl<'a> BufferedRecorder<'a> {
    /// A recorder writing into `buf`, stamped by `clock`.
    pub fn new(clock: &'a RecordClock, buf: &'a mut EventBuffer) -> Self {
        BufferedRecorder { clock, buf }
    }

    fn push(&mut self, event: Event) {
        self.buf.events.push(Stamped {
            seq: self.clock.next_seq(),
            event,
        });
    }
}

impl HistoryRecorder for BufferedRecorder<'_> {
    fn record_begin_top(&mut self, exec: ExecId, name: &str) {
        self.push(Event::BeginTop {
            exec,
            name: name.to_owned(),
        });
    }

    fn record_invoke(
        &mut self,
        parent: ExecId,
        child: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> StepId {
        let step = self.clock.next_step();
        self.push(Event::Invoke {
            step,
            parent,
            child,
            target,
            method: method.to_owned(),
            args,
        });
        step
    }

    fn record_local(&mut self, exec: ExecId, op: Operation, ret: Value) -> StepId {
        let step = self.clock.next_step();
        self.push(Event::Local {
            step,
            exec,
            op,
            ret,
        });
        step
    }

    fn record_program_order(&mut self, exec: ExecId, a: StepId, b: StepId) {
        self.push(Event::ProgramOrder { exec, a, b });
    }

    fn record_complete(&mut self, step: StepId, ret: Value) {
        self.push(Event::Complete { step, ret });
    }

    fn record_abort(&mut self, exec: ExecId) {
        self.push(Event::Abort { exec });
    }
}

/// Stitches per-activity event buffers into the run's history: merges all
/// events by sequence number and replays them through a fresh
/// [`HistoryBuilder`], translating provisional step ids to final dense ones.
///
/// The replay reproduces execution numbering exactly (begin/invoke sequence
/// numbers are drawn under the same lock that allocates execution ids, so
/// replay order equals allocation order — asserted here), which is what lets
/// the theory oracle consume a stitched history exactly as it consumes a
/// directly recorded one.
///
/// # Panics
/// Panics if the event stream is inconsistent (an unknown provisional step
/// id, or execution numbering that does not match the builder's).
pub fn stitch(base: Arc<ObjectBase>, buffers: impl IntoIterator<Item = EventBuffer>) -> History {
    let mut events: Vec<Stamped> = buffers.into_iter().flat_map(|b| b.events).collect();
    events.sort_by_key(|s| s.seq);
    let mut builder = HistoryBuilder::new(base);
    builder.set_auto_program_order(false);
    let mut final_id: BTreeMap<StepId, StepId> = BTreeMap::new();
    let lookup = |map: &BTreeMap<StepId, StepId>, s: StepId| -> StepId {
        *map.get(&s)
            .unwrap_or_else(|| panic!("event stream references unknown provisional step {s}"))
    };
    for Stamped { event, .. } in events {
        match event {
            Event::BeginTop { exec, name } => {
                let allocated = builder.begin_top_level(name);
                assert_eq!(allocated, exec, "begin events out of execution-id order");
            }
            Event::Invoke {
                step,
                parent,
                child,
                target,
                method,
                args,
            } => {
                let (msg, allocated) = builder.invoke(parent, target, method, args);
                assert_eq!(allocated, child, "invoke events out of execution-id order");
                final_id.insert(step, msg);
            }
            Event::Local {
                step,
                exec,
                op,
                ret,
            } => {
                let sid = builder.local(exec, op, ret);
                final_id.insert(step, sid);
            }
            Event::ProgramOrder { exec, a, b } => {
                builder.program_order_edge(exec, lookup(&final_id, a), lookup(&final_id, b));
            }
            Event::Complete { step, ret } => {
                builder.complete_invoke(lookup(&final_id, step), ret);
            }
            Event::Abort { exec } => {
                builder.abort(exec);
            }
        }
    }
    builder.build()
}

/// `true` if two histories are structurally identical: same executions (with
/// program order), same steps, same step intervals and same initial states.
/// This is the equivalence [`stitch`] guarantees against a direct
/// [`HistoryBuilder`] recording of the same linearisation.
pub fn same_structure(a: &History, b: &History) -> bool {
    a.execs() == b.execs()
        && a.steps() == b.steps()
        && History::same_initial_states(a, b)
        && (0..a.step_count()).all(|i| a.interval(StepId(i as u32)) == b.interval(StepId(i as u32)))
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

    /// Drives the same scripted lifecycle through a recorder. Execution ids
    /// follow creation order, as the lifecycle registry allocates them.
    fn scripted(rec: &mut dyn HistoryRecorder) {
        let (t0, c0, t1, c1) = (ExecId(0), ExecId(1), ExecId(2), ExecId(3));
        rec.record_begin_top(t0, "T0");
        let m0 = rec.record_invoke(t0, c0, ObjectId(0), "set", vec![]);
        let s0 = rec.record_local(c0, Operation::unary("Write", 5), Value::Unit);
        let s1 = rec.record_local(c0, Operation::nullary("Read"), Value::Int(5));
        rec.record_program_order(c0, s0, s1);
        rec.record_complete(m0, Value::Int(5));
        rec.record_begin_top(t1, "T1");
        let m1 = rec.record_invoke(t1, c1, ObjectId(1), "bump", vec![Value::Int(2)]);
        rec.record_local(c1, Operation::unary("Add", 2), Value::Unit);
        rec.record_complete(m1, Value::Unit);
        rec.record_abort(t1);
    }

    #[test]
    fn buffered_replay_matches_direct_recording() {
        let (base, _, _) = base_xy();
        let mut direct = HistoryBuilder::new(Arc::clone(&base));
        direct.set_auto_program_order(false);
        scripted(&mut direct);
        let want = direct.build();

        let clock = RecordClock::new();
        let mut buf = EventBuffer::new();
        scripted(&mut BufferedRecorder::new(&clock, &mut buf));
        let got = stitch(base, [buf]);
        assert!(same_structure(&want, &got));
    }

    /// The satellite guarantee: a random event stream recorded into many
    /// per-worker buffers (events scattered round-robin, buffers handed to
    /// `stitch` in arbitrary order) replays identically to the serial
    /// recorder, across seeds.
    #[test]
    fn scattered_buffers_replay_identically_across_seeds() {
        for seed in 0..20u64 {
            let (base, x, y) = base_xy();
            // A tiny deterministic LCG so the test needs no RNG dependency.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };

            let mut direct = HistoryBuilder::new(Arc::clone(&base));
            direct.set_auto_program_order(false);
            let clock = RecordClock::new();
            let workers = 1 + (seed as usize % 4);
            let mut bufs: Vec<EventBuffer> = (0..workers).map(|_| EventBuffer::new()).collect();

            // Random lifecycle: a handful of transactions, each with one
            // nested execution issuing 1–3 local steps, randomly aborted.
            let mut next_exec = 0u32;
            for t in 0..4 + next(4) {
                let top = ExecId(next_exec);
                next_exec += 1;
                let child = ExecId(next_exec);
                next_exec += 1;
                let object = if next(2) == 0 { x } else { y };
                let buf = &mut bufs[(t as usize) % workers];
                let mut rec = BufferedRecorder::new(&clock, buf);

                direct.record_begin_top(top, &format!("T{t}"));
                rec.record_begin_top(top, &format!("T{t}"));
                let dm = direct.record_invoke(top, child, object, "m", vec![]);
                let bm = rec.record_invoke(top, child, object, "m", vec![]);
                let mut prev: Option<(StepId, StepId)> = None;
                for i in 0..1 + next(3) {
                    let op = Operation::unary("Write", (i + t) as i64);
                    let ds = direct.record_local(child, op.clone(), Value::Unit);
                    let bs = rec.record_local(child, op, Value::Unit);
                    if let Some((dp, bp)) = prev {
                        direct.record_program_order(child, dp, ds);
                        rec.record_program_order(child, bp, bs);
                    }
                    prev = Some((ds, bs));
                }
                if next(3) == 0 {
                    direct.record_abort(child);
                    rec.record_abort(child);
                    direct.record_abort(top);
                    rec.record_abort(top);
                } else {
                    direct.record_complete(dm, Value::Int(t as i64));
                    rec.record_complete(bm, Value::Int(t as i64));
                }
            }
            direct.set_auto_program_order(false);
            let want = {
                // Rebuild through a fresh builder path: `direct` recorded
                // with final ids already, just build it.
                direct.build()
            };
            // Hand the buffers over in reversed order: stitch must not care.
            bufs.reverse();
            let got = stitch(base, bufs);
            assert!(
                same_structure(&want, &got),
                "stitched history diverged from serial recording (seed {seed})"
            );
        }
    }

    #[test]
    fn same_structure_detects_differences() {
        let (base, x, _) = base_xy();
        let mut a = HistoryBuilder::new(Arc::clone(&base));
        let t = a.begin_top_level("T");
        let (_, e) = a.invoke(t, x, "m", []);
        a.local(e, Operation::unary("Write", 1), Value::Unit);
        let a = a.build();
        let mut b = HistoryBuilder::new(base);
        let t = b.begin_top_level("T");
        let (_, e) = b.invoke(t, x, "m", []);
        b.local(e, Operation::unary("Write", 2), Value::Unit);
        let b = b.build();
        assert!(same_structure(&a, &a.clone()));
        assert!(!same_structure(&a, &b));
    }
}
