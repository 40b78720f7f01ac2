//! The sharded object store: the parallel backend's data plane.
//!
//! Object states and installed-step logs are partitioned into shards, each
//! protected by its own [`Mutex`], so workers touching different objects
//! proceed without contending. A worker holds exactly one shard lock at a
//! time and holds it across the provisional-apply → validate → install
//! critical section of one local step, which guarantees that, per object,
//! the order in which steps are recorded in the history equals the order in
//! which they were applied to the state — the invariant the legality checker
//! relies on.
//!
//! Undo after an abort reuses [`obase_exec::store::replay_log`], the exact
//! replay/invalidation routine of the simulator's store, applied shard by
//! shard; both backends therefore resolve aborts (and detect cascading dirty
//! reads) identically.

use obase_core::error::TypeError;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::ObjectBase;
use obase_core::op::Operation;
use obase_core::value::Value;
use obase_exec::store::{replay_log, LogEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// One shard: the states and logs of the objects that hash to it.
#[derive(Debug, Default)]
pub struct Shard {
    states: BTreeMap<ObjectId, Value>,
    logs: BTreeMap<ObjectId, Vec<LogEntry>>,
}

/// The parallel backend's object store, partitioned into independently
/// locked shards.
#[derive(Debug)]
pub struct ShardedStore {
    base: Arc<ObjectBase>,
    shards: Vec<Mutex<Shard>>,
}

/// A locked view of one object's slot in its shard, produced by
/// [`ShardedStore::lock_object`]. Holding it excludes every other access to
/// the shard, so a provisional apply followed by [`ObjectSlot::install`] is
/// atomic with respect to concurrent workers and undo passes.
pub struct ObjectSlot<'a> {
    store: &'a ShardedStore,
    guard: MutexGuard<'a, Shard>,
    object: ObjectId,
}

impl ShardedStore {
    /// Creates a store with `shards` shards (at least one) and every object
    /// in its initial state.
    pub fn new(base: Arc<ObjectBase>, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedStore {
            base,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, o: ObjectId) -> usize {
        o.index() % self.shards.len()
    }

    fn initial_state(&self, o: ObjectId) -> &Value {
        &self.base.spec(o).initial_state
    }

    /// Locks the shard holding `o` and returns a slot for working with it.
    pub fn lock_object(&self, o: ObjectId) -> ObjectSlot<'_> {
        let guard = self.shards[self.shard_of(o)]
            .lock()
            .expect("a worker panicked while holding a shard lock");
        ObjectSlot {
            store: self,
            guard,
            object: o,
        }
    }

    /// Removes every step issued by `aborted` executions and rebuilds the
    /// affected objects by replaying the surviving logs, one shard at a time
    /// (no two shard locks are ever held together). Returns the number of
    /// removed steps and the executions whose surviving steps' recorded
    /// return values no longer hold — dirty readers the caller must
    /// cascade-abort.
    pub fn undo(&self, aborted: &BTreeSet<ExecId>) -> (usize, BTreeSet<ExecId>) {
        let mut removed = 0usize;
        let mut invalidated = BTreeSet::new();
        for shard in &self.shards {
            let mut shard = shard
                .lock()
                .expect("a worker panicked while holding a shard lock");
            let objects: Vec<ObjectId> = shard.logs.keys().copied().collect();
            for o in objects {
                let log = shard.logs.get_mut(&o).expect("object has a log");
                let before = log.len();
                log.retain(|e| !aborted.contains(&e.exec));
                if log.len() == before {
                    continue;
                }
                removed += before - log.len();
                let ty = self.base.type_of(o);
                let (state, bad) = replay_log(&ty, self.initial_state(o), log);
                invalidated.extend(bad);
                shard.states.insert(o, state);
            }
        }
        (removed, invalidated)
    }

    /// The current state of an object (locks its shard briefly; test and
    /// diagnostics helper).
    pub fn state(&self, o: ObjectId) -> Value {
        self.lock_object(o).state()
    }

    /// Total installed steps across all shards (locks each shard briefly).
    pub fn installed(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("a worker panicked while holding a shard lock")
                    .logs
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }
}

impl ObjectSlot<'_> {
    /// The object's current state.
    pub fn state(&self) -> Value {
        self.state_ref().clone()
    }

    fn state_ref(&self) -> &Value {
        self.guard
            .states
            .get(&self.object)
            .unwrap_or_else(|| self.store.initial_state(self.object))
    }

    /// Provisionally applies an operation to the current state, returning
    /// the would-be new state and return value without installing anything.
    pub fn provisional(&self, op: &Operation) -> Result<(Value, Value), TypeError> {
        let ty = self.store.base.type_of(self.object);
        ty.apply(self.state_ref(), op)
    }

    /// Installs a step computed by [`provisional`](Self::provisional):
    /// appends it to the object's log and sets the new state.
    pub fn install(&mut self, exec: ExecId, op: Operation, ret: Value, new_state: Value) {
        self.guard
            .logs
            .entry(self.object)
            .or_default()
            .push(LogEntry { exec, op, ret });
        self.guard.states.insert(self.object, new_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::Register;

    fn store_xy() -> (ShardedStore, ObjectId, ObjectId) {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Register::default()));
        let y = base.add_object("y", Arc::new(Register::default()));
        (ShardedStore::new(Arc::new(base), 2), x, y)
    }

    #[test]
    fn objects_land_on_distinct_shards() {
        let (store, x, y) = store_xy();
        assert_eq!(store.shard_count(), 2);
        assert_ne!(store.shard_of(x), store.shard_of(y));
    }

    #[test]
    fn provisional_install_and_state() {
        let (store, x, _) = store_xy();
        let op = Operation::unary("Write", 5);
        let mut slot = store.lock_object(x);
        let (new_state, ret) = slot.provisional(&op).unwrap();
        slot.install(ExecId(1), op, ret, new_state);
        drop(slot);
        assert_eq!(store.state(x), Value::Int(5));
        assert_eq!(store.installed(), 1);
    }

    #[test]
    fn undo_detects_dirty_reads_across_shards() {
        let (store, x, _) = store_xy();
        // Exec 1 writes 5; exec 2 reads 5 — a dirty read once exec 1 aborts.
        for (e, op) in [
            (1u32, Operation::unary("Write", 5)),
            (2u32, Operation::nullary("Read")),
        ] {
            let mut slot = store.lock_object(x);
            let (s, r) = slot.provisional(&op).unwrap();
            slot.install(ExecId(e), op, r, s);
        }
        let aborted: BTreeSet<ExecId> = [ExecId(1)].into_iter().collect();
        let (removed, invalidated) = store.undo(&aborted);
        assert_eq!(removed, 1);
        assert_eq!(invalidated.into_iter().collect::<Vec<_>>(), vec![ExecId(2)]);
        assert_eq!(store.state(x), Value::Int(0));
    }
}
