//! A lock-free mirror of the execution registry's genealogy and liveness,
//! readable by scheduler hooks without touching the lifecycle lock.
//!
//! The decomposed control plane routes grant decisions through per-shard
//! scheduler locks while the authoritative [`ExecTable`] lives behind the
//! lifecycle mutex. Scheduler hooks need a [`TxnView`] — parent links,
//! object assignments, semantic types — and taking the lifecycle lock for
//! every view read would re-serialise the whole plane (and deadlock against
//! admission, which holds the lifecycle lock). This mirror solves both: an
//! append-only chunked slot array where
//!
//! * `parent` and `object` are written once (under the lifecycle lock, which
//!   serialises pushes) and published by a release-store of the length, so
//!   any reader that observes index `< len` observes initialised slots;
//! * liveness flags are single atomic bytes, updated at the same lifecycle
//!   transitions that update the authoritative table, and double as the
//!   workers' lock-free interruption check (the `DOOMED` bit).
//!
//! Genealogy is immutable after push, so views over this mirror are exact;
//! the flag bits are the only data that can be momentarily stale, and the
//! decomposition contract ([`Scheduler::fork_object_shard`]) forbids
//! decomposed schedulers from relying on `is_live`.
//!
//! [`ExecTable`]: obase_core::lifecycle::ExecTable
//! [`Scheduler::fork_object_shard`]: obase_core::sched::Scheduler::fork_object_shard

use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::{ObjectBase, TypeHandle};
use obase_core::sched::TxnView;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The execution is neither committed nor aborted.
pub const LIVE: u8 = 1;
/// The execution (subtree) has been marked aborted.
pub const ABORTED: u8 = 1 << 1;
/// The top-level transaction committed.
pub const COMMITTED: u8 = 1 << 2;
/// The top-level transaction was condemned (deadlock victim or cascade) and
/// its owning worker must unwind at its next gate.
pub const DOOMED: u8 = 1 << 3;

const CHUNK: usize = 1024;
/// Chunk slots per directory block.
const BLOCK: usize = 128;
/// Directory blocks. Blocks are created on first use, so an index costs one
/// small directory up front instead of slots for its whole capacity.
const BLOCKS: usize = 128;
const MAX_CHUNKS: usize = BLOCKS * BLOCK;

#[derive(Debug)]
struct Slot {
    /// Parent execution id, `u32::MAX` for top-level transactions.
    parent: AtomicU32,
    /// Raw object id (`ObjectId::ENVIRONMENT` round-trips as `u32::MAX`).
    object: AtomicU32,
    flags: AtomicU8,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            parent: AtomicU32::new(u32::MAX),
            object: AtomicU32::new(u32::MAX),
            flags: AtomicU8::new(0),
        }
    }
}

#[derive(Debug)]
struct Chunk {
    slots: [Slot; CHUNK],
}

impl Chunk {
    fn new() -> Box<Self> {
        Box::new(Chunk {
            slots: std::array::from_fn(|_| Slot::empty()),
        })
    }
}

type Block = [OnceLock<Box<Chunk>>; BLOCK];

/// The lock-free genealogy/liveness mirror. See the module docs.
#[derive(Debug)]
pub struct ExecIndex {
    base: Arc<ObjectBase>,
    len: AtomicUsize,
    /// Two-level directory: `blocks[c / BLOCK][c % BLOCK]` holds chunk `c`.
    blocks: Box<[OnceLock<Box<Block>>]>,
}

impl ExecIndex {
    /// An empty mirror over the given object base.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        ExecIndex {
            base,
            len: AtomicUsize::new(0),
            blocks: (0..BLOCKS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of mirrored executions.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if nothing has been mirrored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mirrors the next execution. Must be called under the lifecycle lock
    /// (pushes are serialised by it), in the same order as the authoritative
    /// registry — the mirrored id must equal the current length.
    pub fn push(&self, exec: ExecId, parent: Option<ExecId>, object: ObjectId) {
        let i = self.len.load(Ordering::Relaxed);
        assert_eq!(i, exec.index(), "mirror out of sync with the registry");
        assert!(
            i < MAX_CHUNKS * CHUNK,
            "execution mirror capacity exceeded ({} executions)",
            MAX_CHUNKS * CHUNK
        );
        let c = i / CHUNK;
        let block = self.blocks[c / BLOCK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        let slot = &block[c % BLOCK].get_or_init(Chunk::new).slots[i % CHUNK];
        slot.parent
            .store(parent.map_or(u32::MAX, |p| p.0), Ordering::Relaxed);
        slot.object.store(object.0, Ordering::Relaxed);
        slot.flags.store(LIVE, Ordering::Relaxed);
        self.len.store(i + 1, Ordering::Release);
    }

    fn slot(&self, e: ExecId) -> &Slot {
        let i = e.index();
        assert!(i < self.len(), "execution {e} not mirrored yet");
        let c = i / CHUNK;
        let chunk = self.blocks[c / BLOCK]
            .get()
            .and_then(|block| block[c % BLOCK].get())
            .expect("chunk published before len");
        &chunk.slots[i % CHUNK]
    }

    /// The current flag bits of an execution.
    pub fn flags(&self, e: ExecId) -> u8 {
        self.slot(e).flags.load(Ordering::Acquire)
    }

    /// Sets flag bits (OR).
    pub fn set_flags(&self, e: ExecId, bits: u8) {
        self.slot(e).flags.fetch_or(bits, Ordering::AcqRel);
    }

    /// Clears flag bits (AND NOT).
    pub fn clear_flags(&self, e: ExecId, bits: u8) {
        self.slot(e).flags.fetch_and(!bits, Ordering::AcqRel);
    }

    /// The parent execution, if any.
    pub fn parent(&self, e: ExecId) -> Option<ExecId> {
        match self.slot(e).parent.load(Ordering::Relaxed) {
            u32::MAX => None,
            p => Some(ExecId(p)),
        }
    }

    /// The object whose method the execution runs.
    pub fn object(&self, e: ExecId) -> ObjectId {
        ObjectId(self.slot(e).object.load(Ordering::Relaxed))
    }

    /// A [`TxnView`] over the mirror, for scheduler hooks on the decomposed
    /// plane.
    pub fn view(&self) -> IndexView<'_> {
        IndexView { index: self }
    }
}

/// [`TxnView`] over the lock-free mirror.
pub struct IndexView<'a> {
    index: &'a ExecIndex,
}

impl TxnView for IndexView<'_> {
    fn parent(&self, e: ExecId) -> Option<ExecId> {
        self.index.parent(e)
    }

    fn object_of(&self, e: ExecId) -> ObjectId {
        self.index.object(e)
    }

    fn type_of(&self, o: ObjectId) -> TypeHandle {
        self.index.base.type_of(o)
    }

    fn is_live(&self, e: ExecId) -> bool {
        self.index.flags(e) & LIVE != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::Register;

    fn index() -> ExecIndex {
        let mut base = ObjectBase::new();
        base.add_object("x", Arc::new(Register::default()));
        ExecIndex::new(Arc::new(base))
    }

    #[test]
    fn genealogy_round_trips() {
        let idx = index();
        idx.push(ExecId(0), None, ObjectId::ENVIRONMENT);
        idx.push(ExecId(1), Some(ExecId(0)), ObjectId(0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.parent(ExecId(0)), None);
        assert_eq!(idx.parent(ExecId(1)), Some(ExecId(0)));
        assert!(idx.object(ExecId(0)).is_environment());
        assert_eq!(idx.object(ExecId(1)), ObjectId(0));
        let view = idx.view();
        assert!(view.is_ancestor(ExecId(0), ExecId(1)));
        assert_eq!(view.top_level_of(ExecId(1)), ExecId(0));
    }

    #[test]
    fn flags_toggle() {
        let idx = index();
        idx.push(ExecId(0), None, ObjectId::ENVIRONMENT);
        assert_eq!(idx.flags(ExecId(0)), LIVE);
        assert!(idx.view().is_live(ExecId(0)));
        idx.set_flags(ExecId(0), DOOMED);
        assert_eq!(idx.flags(ExecId(0)), LIVE | DOOMED);
        idx.clear_flags(ExecId(0), LIVE);
        idx.set_flags(ExecId(0), ABORTED);
        assert_eq!(idx.flags(ExecId(0)), ABORTED | DOOMED);
        assert!(!idx.view().is_live(ExecId(0)));
    }

    #[test]
    fn pushes_cross_chunk_boundaries() {
        let idx = index();
        for i in 0..(CHUNK as u32 + 5) {
            let parent = if i == 0 { None } else { Some(ExecId(0)) };
            idx.push(ExecId(i), parent, ObjectId(0));
        }
        assert_eq!(idx.len(), CHUNK + 5);
        assert_eq!(idx.parent(ExecId(CHUNK as u32 + 2)), Some(ExecId(0)));
    }

    #[test]
    fn directory_blocks_are_created_on_demand() {
        let idx = index();
        assert!(idx.blocks.iter().all(|b| b.get().is_none()));
        let n = BLOCK * CHUNK + 3;
        for i in 0..n as u32 {
            let parent = i.checked_sub(1).map(ExecId);
            idx.push(ExecId(i), parent, ObjectId(i % 2));
        }
        let made = idx.blocks.iter().filter(|b| b.get().is_some()).count();
        assert_eq!(made, 2);
        for i in 0..n {
            let e = ExecId(i as u32);
            assert_eq!(idx.parent(e), i.checked_sub(1).map(|p| ExecId(p as u32)));
            assert_eq!(idx.object(e), ObjectId(i as u32 % 2));
            assert_eq!(idx.flags(e), LIVE);
        }
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn out_of_order_push_is_caught() {
        let idx = index();
        idx.push(ExecId(1), None, ObjectId::ENVIRONMENT);
    }
}
