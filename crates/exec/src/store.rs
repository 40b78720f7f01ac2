//! The engine's object store: current states, installed-step logs, and the
//! undo machinery used when method executions abort.
//!
//! The store keeps, per object, the log of installed local steps of *live or
//! committed* executions. When a subtree of executions aborts, their steps
//! are removed and the object is rebuilt by replaying the remaining log from
//! the initial state. If some remaining step's recorded return value no
//! longer matches the replay, the transaction that issued it observed state
//! produced by the aborted executions — a dirty read — and must be aborted as
//! well (a cascading abort, which the engine counts; schedulers that hold
//! locks until top-level commit never trigger it, and tests assert so).

use obase_core::error::TypeError;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::{ObjectBase, TypeHandle};
use obase_core::op::Operation;
use obase_core::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One installed local step.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// The execution that issued the step.
    pub exec: ExecId,
    /// The operation.
    pub op: Operation,
    /// The recorded return value.
    pub ret: Value,
}

/// Replays an installed-step log from an initial state, checking each entry's
/// recorded return value against the replay.
///
/// Returns the resulting state and the executions whose recorded return
/// values no longer hold — they observed state produced by steps that are no
/// longer in the log (a dirty read) and must be cascade-aborted. This is the
/// abort/undo core shared by the simulator's [`ObjectStore`] and the sharded
/// store of the `obase-par` parallel backend, so both backends resolve
/// aborts identically.
pub fn replay_log(ty: &TypeHandle, initial: &Value, log: &[LogEntry]) -> (Value, BTreeSet<ExecId>) {
    let mut invalidated = BTreeSet::new();
    let mut state = initial.clone();
    for entry in log {
        match ty.apply(&state, &entry.op) {
            Ok((next, ret)) => {
                if ret != entry.ret {
                    invalidated.insert(entry.exec);
                }
                state = next;
            }
            Err(_) => {
                invalidated.insert(entry.exec);
            }
        }
    }
    (state, invalidated)
}

/// The mutable object state of an engine run.
#[derive(Debug)]
pub struct ObjectStore {
    base: Arc<ObjectBase>,
    states: BTreeMap<ObjectId, Value>,
    logs: BTreeMap<ObjectId, Vec<LogEntry>>,
}

impl ObjectStore {
    /// Creates a store with every object in its initial state. Nothing is
    /// copied: an object reads its base's initial state until its first
    /// install.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        ObjectStore {
            base,
            states: BTreeMap::new(),
            logs: BTreeMap::new(),
        }
    }

    /// The current state of an object.
    pub fn state(&self, o: ObjectId) -> Value {
        self.states
            .get(&o)
            .cloned()
            .unwrap_or_else(|| self.base.spec(o).initial_state.clone())
    }

    /// Provisionally applies an operation to the object's current state,
    /// returning the would-be new state and return value without installing
    /// anything.
    pub fn provisional(&self, o: ObjectId, op: &Operation) -> Result<(Value, Value), TypeError> {
        let ty = self.base.type_of(o);
        ty.apply(&self.state(o), op)
    }

    /// Installs a step: appends it to the object's log and sets the new
    /// state (as previously computed by [`provisional`](Self::provisional)).
    pub fn install(
        &mut self,
        o: ObjectId,
        exec: ExecId,
        op: Operation,
        ret: Value,
        new_state: Value,
    ) {
        self.logs
            .entry(o)
            .or_default()
            .push(LogEntry { exec, op, ret });
        self.states.insert(o, new_state);
    }

    /// Number of installed steps across all objects.
    pub fn installed(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// Number of installed steps belonging to the given executions.
    pub fn installed_by(&self, execs: &BTreeSet<ExecId>) -> usize {
        self.logs
            .values()
            .map(|log| log.iter().filter(|e| execs.contains(&e.exec)).count())
            .sum()
    }

    /// Removes every step issued by `aborted` executions and rebuilds the
    /// affected objects by replaying the remaining logs from their initial
    /// states. Returns the number of removed steps and the executions whose
    /// surviving steps' recorded return values no longer hold — they observed
    /// aborted state and must be cascade-aborted by the caller. (The same
    /// signature as the sharded store's undo, so either store slots into the
    /// kernel's abort phase 2.)
    pub fn undo(&mut self, aborted: &BTreeSet<ExecId>) -> (usize, BTreeSet<ExecId>) {
        let mut removed = 0usize;
        let mut invalidated = BTreeSet::new();
        let objects: Vec<ObjectId> = self.logs.keys().copied().collect();
        for o in objects {
            let log = self.logs.get_mut(&o).expect("object has a log");
            let before = log.len();
            log.retain(|e| !aborted.contains(&e.exec));
            if log.len() == before {
                continue;
            }
            removed += before - log.len();
            // Replay the surviving log.
            let ty = self.base.type_of(o);
            let (state, bad) = replay_log(&ty, &self.base.spec(o).initial_state, log);
            invalidated.extend(bad);
            self.states.insert(o, state);
        }
        (removed, invalidated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::{Counter, Register};

    fn store_with(names: &[(&str, bool)]) -> (ObjectStore, Vec<ObjectId>) {
        // bool: true = Register, false = Counter
        let mut base = ObjectBase::new();
        let mut ids = Vec::new();
        for (name, is_reg) in names {
            let id = if *is_reg {
                base.add_object(*name, Arc::new(Register::default()))
            } else {
                base.add_object(*name, Arc::new(Counter::default()))
            };
            ids.push(id);
        }
        (ObjectStore::new(Arc::new(base)), ids)
    }

    #[test]
    fn provisional_and_install() {
        let (mut store, ids) = store_with(&[("x", true)]);
        let x = ids[0];
        let (new_state, ret) = store.provisional(x, &Operation::unary("Write", 5)).unwrap();
        assert_eq!(ret, Value::Unit);
        store.install(x, ExecId(1), Operation::unary("Write", 5), ret, new_state);
        assert_eq!(store.state(x), Value::Int(5));
        assert_eq!(store.installed(), 1);
        let (_, r) = store.provisional(x, &Operation::nullary("Read")).unwrap();
        assert_eq!(r, Value::Int(5));
    }

    #[test]
    fn undo_without_dependents() {
        let (mut store, ids) = store_with(&[("x", true)]);
        let x = ids[0];
        let (s, r) = store.provisional(x, &Operation::unary("Write", 5)).unwrap();
        store.install(x, ExecId(1), Operation::unary("Write", 5), r, s);
        let aborted: BTreeSet<ExecId> = [ExecId(1)].into_iter().collect();
        assert_eq!(store.installed_by(&aborted), 1);
        let (removed, invalidated) = store.undo(&aborted);
        assert_eq!(removed, 1);
        assert!(invalidated.is_empty());
        assert_eq!(store.state(x), Value::Int(0));
        assert_eq!(store.installed(), 0);
    }

    #[test]
    fn undo_detects_dirty_reads() {
        let (mut store, ids) = store_with(&[("x", true)]);
        let x = ids[0];
        // Exec 1 writes 5; exec 2 reads 5 (a dirty read if exec 1 aborts).
        let (s, r) = store.provisional(x, &Operation::unary("Write", 5)).unwrap();
        store.install(x, ExecId(1), Operation::unary("Write", 5), r, s);
        let (s, r) = store.provisional(x, &Operation::nullary("Read")).unwrap();
        assert_eq!(r, Value::Int(5));
        store.install(x, ExecId(2), Operation::nullary("Read"), r, s);
        let aborted: BTreeSet<ExecId> = [ExecId(1)].into_iter().collect();
        let (removed, invalidated) = store.undo(&aborted);
        assert_eq!(removed, 1);
        assert_eq!(invalidated.into_iter().collect::<Vec<_>>(), vec![ExecId(2)]);
        assert_eq!(store.state(x), Value::Int(0));
    }

    #[test]
    fn undo_spares_commuting_survivors() {
        let (mut store, ids) = store_with(&[("c", false)]);
        let c = ids[0];
        // Exec 1 adds 5; exec 2 adds 3: adds commute, so undoing exec 1 does
        // not invalidate exec 2.
        for (e, n) in [(1u32, 5), (2u32, 3)] {
            let op = Operation::unary("Add", n);
            let (s, r) = store.provisional(c, &op).unwrap();
            store.install(c, ExecId(e), op, r, s);
        }
        assert_eq!(store.state(c), Value::Int(8));
        let aborted: BTreeSet<ExecId> = [ExecId(1)].into_iter().collect();
        let (removed, invalidated) = store.undo(&aborted);
        assert_eq!(removed, 1);
        assert!(invalidated.is_empty());
        assert_eq!(store.state(c), Value::Int(3));
    }
}
