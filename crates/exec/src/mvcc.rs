//! Multi-version object state and the scheduler-free snapshot read path.
//!
//! The paper's Definition 3 makes read-only operations (σ_a = identity)
//! conflict-free against each other, so a transaction composed entirely of
//! such operations can never be the source of a serialisation-graph edge
//! between two writers: it only *observes*. This module exploits that to
//! serve read-only transactions from committed state without ever touching
//! the scheduler.
//!
//! Three pieces:
//!
//! * [`VersionedStore`] — the newest committed version of every object a
//!   publication has written, plus the machinery that decides when a
//!   committed transaction's installed steps may be folded into it (the
//!   log-prefix publication rule, below). Both drivers read it under the
//!   lock that guards its publications, so a read always sees the newest
//!   version and no older one is ever kept.
//! * [`classify`] — the static analysis that decides whether a transaction
//!   spec is *snapshot-eligible*: constant-propagates the program from the
//!   top level and checks that every reachable local operation satisfies
//!   [`op_is_readonly`](obase_core::object::SemanticType::op_is_readonly).
//! * [`execute_plan`] — runs an eligible plan against the committed
//!   versions, producing the executed tree the lifecycle kernel settles via
//!   `settle_snapshot` (no certification, no locks).
//!
//! # The log-prefix publication rule
//!
//! A committed transaction's steps become visible to snapshots only when, on
//! every object it touched, *every earlier installed step* belongs to a
//! transaction that is already published (or aborted). Published steps
//! therefore form a prefix of each object's install log — a consistent cut.
//! Commitment alone is not enough: a transaction may commit while an earlier
//! uncommitted writer still holds the front of some object's log, and
//! stamping its state early would expose a snapshot to a cut that no serial
//! order justifies.
//!
//! Because several committed transactions may block each other's prefixes
//! mutually (their steps interleave but commute), publication resolves a
//! *group* at each settle event: start from every committed-but-unpublished
//! transaction, discard any member that sits behind a non-member on some
//! queue, iterate to a fixpoint, and publish the survivors under a single
//! watermark increment.
//!
//! # Why snapshot reads are serialisable
//!
//! A snapshot transaction R reads, under the store lock, the state
//! published at the current watermark `W`, so its conflict edges run
//! (writer ≤ W) → R → (writer > W). A cycle T1 → R → T2 → T1 would need T2
//! published after `W` yet ordered before T1 published at or below `W`; the
//! prefix rule makes watermarks respect installed-step order per object, so
//! no such pair exists. `docs/MVCC.md` spells the argument out.

use crate::program::{Expr, ObjRef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
use obase_core::error::TypeError;
use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::object::{ObjectBase, TypeHandle};
use obase_core::op::Operation;
use obase_core::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A mirrored installed step awaiting publication.
#[derive(Clone, Debug)]
struct PendingEntry {
    top: ExecId,
    step: StepId,
    op: Operation,
    ret: Value,
}

/// Committed state for snapshot reads: the newest published version of
/// each written object, the publication queues that feed it, and the commit
/// watermark.
///
/// Writers report installs ([`note_install`](Self::note_install)) and settle
/// events ([`note_commit`](Self::note_commit) /
/// [`note_abort`](Self::note_abort)); snapshot readers [`read`](Self::read)
/// under the same lock, so every read is of the newest version and a
/// publication may replace it in place.
#[derive(Debug)]
pub struct VersionedStore {
    base: Arc<ObjectBase>,
    /// The newest published state of each object a publication has
    /// written, with the last published step folded into it — snapshot
    /// reads record that anchor so the history ties each read to the write
    /// it observed. An object absent here reads its initial state.
    published: BTreeMap<ObjectId, (Value, Option<StepId>)>,
    pending: BTreeMap<ObjectId, Vec<PendingEntry>>,
    /// Committed top-level transactions whose steps are not yet published.
    unpublished: BTreeSet<ExecId>,
    watermark: u64,
    /// Publication freeze depth: while an abort cascade is being resolved, a
    /// committed-but-doomed transaction may transiently look publishable
    /// (its dirty-read source's mirrored steps are dropped before the victim
    /// is marked). Drivers freeze publication around cascade resolution;
    /// thawing retries it.
    frozen: usize,
}

impl VersionedStore {
    /// Creates a store in which every object reads its initial state.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        VersionedStore {
            base,
            published: BTreeMap::new(),
            pending: BTreeMap::new(),
            unpublished: BTreeSet::new(),
            watermark: 0,
            frozen: 0,
        }
    }

    /// The object base the store was built over.
    pub fn base(&self) -> &Arc<ObjectBase> {
        &self.base
    }

    /// The current commit watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Mirrors an installed local step of top-level transaction `top`. Must
    /// be called in install order per object (inside the same critical
    /// section as the store install, so the mirror queue and the store log
    /// agree on order).
    pub fn note_install(
        &mut self,
        top: ExecId,
        object: ObjectId,
        step: StepId,
        op: Operation,
        ret: Value,
    ) {
        self.pending
            .entry(object)
            .or_default()
            .push(PendingEntry { top, step, op, ret });
    }

    /// Marks `top` committed and attempts publication.
    pub fn note_commit(&mut self, top: ExecId) {
        self.unpublished.insert(top);
        self.try_publish();
    }

    /// Drops every mirrored step of the aborted `top` and attempts
    /// publication (removing its steps may complete another transaction's
    /// prefix).
    pub fn note_abort(&mut self, top: ExecId) {
        self.pending.retain(|_, queue| {
            queue.retain(|e| e.top != top);
            !queue.is_empty()
        });
        self.unpublished.remove(&top);
        self.try_publish();
    }

    /// Suspends publication until the matching [`thaw`](Self::thaw). Nests.
    /// Drivers hold a freeze across an entire abort cascade so no
    /// transaction the cascade is about to revert can publish mid-way.
    pub fn freeze(&mut self) {
        self.frozen += 1;
    }

    /// Releases one [`freeze`](Self::freeze); when the last freeze lifts,
    /// the deferred publication attempt runs.
    pub fn thaw(&mut self) {
        debug_assert!(self.frozen > 0, "thaw without matching freeze");
        self.frozen -= 1;
        if self.frozen == 0 {
            self.try_publish();
        }
    }

    /// Publishes the largest group of committed transactions whose steps
    /// form prefixes of every queue they appear in (see the module docs),
    /// under a single watermark increment. Returns `true` if any
    /// transaction was published. A no-op while frozen.
    pub fn try_publish(&mut self) -> bool {
        if self.frozen > 0 {
            return false;
        }
        let mut group = self.unpublished.clone();
        loop {
            if group.is_empty() {
                return false;
            }
            // Discard any candidate with a step at or behind a non-member's
            // step on some queue, until the survivors' steps are prefixes
            // everywhere.
            let mut shrunk = false;
            for queue in self.pending.values() {
                let mut blocked = false;
                for e in queue {
                    if !blocked && !group.contains(&e.top) {
                        blocked = true;
                    }
                    if blocked && group.remove(&e.top) {
                        shrunk = true;
                    }
                }
            }
            if !shrunk {
                break;
            }
        }
        let any_steps = self
            .pending
            .values()
            .any(|q| q.first().is_some_and(|e| group.contains(&e.top)));
        if any_steps {
            self.watermark += 1;
            for (o, queue) in &mut self.pending {
                let cut = queue.iter().take_while(|e| group.contains(&e.top)).count();
                if cut == 0 {
                    continue;
                }
                let ty = self.base.type_of(*o);
                let (state, anchor) = self
                    .published
                    .entry(*o)
                    .or_insert_with(|| (self.base.spec(*o).initial_state.clone(), None));
                for e in queue.drain(..cut) {
                    let (next, ret) = ty
                        .apply(state, &e.op)
                        .expect("committed steps replay on committed state");
                    debug_assert_eq!(ret, e.ret, "published replay must match recorded returns");
                    *state = next;
                    *anchor = Some(e.step);
                }
            }
            // A drained queue goes, so that later publications scan only
            // the objects with steps still waiting.
            self.pending.retain(|_, queue| !queue.is_empty());
        }
        for t in &group {
            self.unpublished.remove(t);
        }
        true
    }

    /// The newest published state of `o`, with the anchor step the
    /// snapshot read hangs off (`None` while `o` holds its initial state).
    pub fn read(&self, o: ObjectId) -> (&Value, Option<StepId>) {
        match self.published.get(&o) {
            Some((state, anchor)) => (state, *anchor),
            None => (&self.base.spec(o).initial_state, None),
        }
    }

    /// Mirrored installed steps awaiting publication, across all objects.
    pub fn pending_entries(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

/// Depth cap for the static classifier: specs nesting deeper than this (or
/// mutually recursive methods) fall back to the scheduled path.
pub const MAX_SNAPSHOT_DEPTH: usize = 64;

/// A statically resolved read-only transaction: every invocation target,
/// argument and local operation is a constant, and every local operation is
/// read-only on its object's semantic type.
#[derive(Clone, Debug)]
pub struct SnapshotPlan {
    /// The transaction's label.
    pub name: String,
    /// The top-level invocations, in program order.
    pub root: Vec<SnapshotCall>,
}

/// One resolved method invocation of a snapshot plan.
#[derive(Clone, Debug)]
pub struct SnapshotCall {
    /// The target object.
    pub object: ObjectId,
    /// The invoked method.
    pub method: String,
    /// Fully evaluated invocation arguments.
    pub args: Vec<Value>,
    /// The method body, flattened to program order.
    pub body: Vec<SnapshotNode>,
}

/// A node of a resolved method body.
#[derive(Clone, Debug)]
pub enum SnapshotNode {
    /// A read-only local operation on the enclosing call's object.
    Local(Operation),
    /// A nested invocation.
    Call(SnapshotCall),
}

/// Statically classifies a transaction spec: returns a plan iff every
/// operation the spec can reach is read-only and every target and argument
/// resolves by constant propagation from the (argument-less) top level.
/// Anything else — unknown methods, parameterised targets the environment
/// cannot supply, recursion past [`MAX_SNAPSHOT_DEPTH`], an `Abort` step —
/// returns `None` and the transaction takes the normal scheduled path.
pub fn classify(spec: &TxnSpec, def: &ObjectBaseDef) -> Option<SnapshotPlan> {
    let mut root = Vec::new();
    flatten_top(&spec.body, def, &mut root)?;
    Some(SnapshotPlan {
        name: spec.name.clone(),
        root,
    })
}

/// Classifies every transaction of a workload (index-aligned with
/// `spec.transactions`).
pub fn plan_specs(spec: &WorkloadSpec) -> Vec<Option<SnapshotPlan>> {
    spec.transactions
        .iter()
        .map(|t| classify(t, &spec.def))
        .collect()
}

fn flatten_top(p: &Program, def: &ObjectBaseDef, out: &mut Vec<SnapshotCall>) -> Option<()> {
    match p {
        // The environment has no variables: a top-level local operation is
        // malformed anyway, never snapshot-eligible.
        Program::Local { .. } => None,
        Program::Invoke {
            object,
            method,
            args,
        } => {
            let object = match object {
                ObjRef::Const(o) => *o,
                ObjRef::Param(_) => return None,
            };
            let args = const_eval_all(args, &[])?;
            out.push(build_call(def, object, method, args, 1)?);
            Some(())
        }
        Program::Seq(items) | Program::Par(items) => {
            for item in items {
                flatten_top(item, def, out)?;
            }
            Some(())
        }
    }
}

fn build_call(
    def: &ObjectBaseDef,
    object: ObjectId,
    method: &str,
    args: Vec<Value>,
    depth: usize,
) -> Option<SnapshotCall> {
    if depth > MAX_SNAPSHOT_DEPTH {
        return None;
    }
    let m = def.method(object, method)?;
    if m.params != args.len() {
        return None;
    }
    let ty = Arc::clone(&def.base().get(object)?.ty);
    let mut body = Vec::new();
    flatten_body(&m.body, def, &ty, &args, depth, &mut body)?;
    Some(SnapshotCall {
        object,
        method: method.to_owned(),
        args,
        body,
    })
}

fn flatten_body(
    p: &Program,
    def: &ObjectBaseDef,
    ty: &TypeHandle,
    margs: &[Value],
    depth: usize,
    out: &mut Vec<SnapshotNode>,
) -> Option<()> {
    match p {
        Program::Local { op, args } => {
            let op = Operation::new(op.clone(), const_eval_all(args, margs)?);
            // An abort step signals failure — the normal path aborts the
            // transaction, so it must never settle as a snapshot commit.
            if op.is_abort() || !ty.op_is_readonly(&op) {
                return None;
            }
            out.push(SnapshotNode::Local(op));
            Some(())
        }
        Program::Invoke {
            object,
            method,
            args,
        } => {
            let target = match object {
                ObjRef::Const(o) => *o,
                ObjRef::Param(i) => margs.get(*i).and_then(Value::as_object)?,
            };
            let args = const_eval_all(args, margs)?;
            out.push(SnapshotNode::Call(build_call(
                def,
                target,
                method,
                args,
                depth + 1,
            )?));
            Some(())
        }
        Program::Seq(items) | Program::Par(items) => {
            for item in items {
                flatten_body(item, def, ty, margs, depth, out)?;
            }
            Some(())
        }
    }
}

fn const_eval_all(args: &[Expr], margs: &[Value]) -> Option<Vec<Value>> {
    args.iter()
        .map(|e| match e {
            Expr::Const(v) => Some(v.clone()),
            Expr::Param(i) => margs.get(*i).cloned(),
        })
        .collect()
}

/// The executed form of a snapshot plan: every operation's return value and
/// the anchor step each read observed, ready for the kernel to settle.
#[derive(Clone, Debug)]
pub struct SnapshotOutcome {
    /// The transaction's label.
    pub name: String,
    /// The executed top-level invocations, in program order.
    pub calls: Vec<ExecutedCall>,
}

impl SnapshotOutcome {
    /// Number of local read operations served from versions.
    pub fn local_reads(&self) -> u64 {
        fn count(call: &ExecutedCall) -> u64 {
            call.items
                .iter()
                .map(|i| match i {
                    ExecutedItem::Local { .. } => 1,
                    ExecutedItem::Call(sub) => count(sub),
                })
                .sum()
        }
        self.calls.iter().map(count).sum()
    }
}

/// One executed invocation of a snapshot outcome.
#[derive(Clone, Debug)]
pub struct ExecutedCall {
    /// The target object.
    pub object: ObjectId,
    /// The invoked method.
    pub method: String,
    /// The invocation arguments.
    pub args: Vec<Value>,
    /// The executed body items, in program order.
    pub items: Vec<ExecutedItem>,
    /// The call's return value (its last item's value, unit if empty).
    pub ret: Value,
}

/// One executed item of a call body.
#[derive(Clone, Debug)]
pub enum ExecutedItem {
    /// A local read with its return value and the version anchor it
    /// observed.
    Local {
        /// The operation.
        op: Operation,
        /// Its return value against the published version.
        ret: Value,
        /// The last published step of the version read, if any.
        anchor: Option<StepId>,
    },
    /// A nested executed invocation.
    Call(ExecutedCall),
}

/// Executes a snapshot plan against the newest published versions. A
/// `TypeError` (an operation rejected by its type on the committed state)
/// sends the transaction back to the normal scheduled path.
pub fn execute_plan(
    plan: &SnapshotPlan,
    vs: &VersionedStore,
) -> Result<SnapshotOutcome, TypeError> {
    let calls = plan
        .root
        .iter()
        .map(|c| execute_call(c, vs))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SnapshotOutcome {
        name: plan.name.clone(),
        calls,
    })
}

fn execute_call(call: &SnapshotCall, vs: &VersionedStore) -> Result<ExecutedCall, TypeError> {
    let ty = vs.base().type_of(call.object);
    let (state, anchor) = vs.read(call.object);
    let mut state = state.clone();
    let mut items = Vec::with_capacity(call.body.len());
    let mut ret = Value::Unit;
    for node in &call.body {
        match node {
            SnapshotNode::Local(op) => {
                let (next, r) = ty.apply(&state, op)?;
                debug_assert_eq!(next, state, "snapshot-eligible operations are identities");
                state = next;
                items.push(ExecutedItem::Local {
                    op: op.clone(),
                    ret: r.clone(),
                    anchor,
                });
                ret = r;
            }
            SnapshotNode::Call(sub) => {
                let executed = execute_call(sub, vs)?;
                ret = executed.ret.clone();
                items.push(ExecutedItem::Call(executed));
            }
        }
    }
    Ok(ExecutedCall {
        object: call.object,
        method: call.method.clone(),
        args: call.args.clone(),
        items,
        ret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MethodDef;
    use obase_adt::{Counter, Dictionary};

    fn counter_store() -> (VersionedStore, ObjectId) {
        let mut base = ObjectBase::new();
        let c = base.add_object("c", Arc::new(Counter::default()));
        (VersionedStore::new(Arc::new(base)), c)
    }

    fn add(n: i64) -> Operation {
        Operation::unary("Add", n)
    }

    #[test]
    fn publication_waits_for_log_prefix() {
        let (mut vs, c) = counter_store();
        // T2 installs behind T1; T2 commits first but cannot publish until
        // T1 settles.
        vs.note_install(ExecId(1), c, StepId(0), add(5), Value::Unit);
        vs.note_install(ExecId(2), c, StepId(1), add(3), Value::Unit);
        vs.note_commit(ExecId(2));
        assert_eq!(vs.watermark(), 0);
        assert_eq!(vs.read(c).0, &Value::Int(0));
        vs.note_commit(ExecId(1));
        assert_eq!(vs.watermark(), 1);
        assert_eq!(vs.read(c).0, &Value::Int(8));
        assert_eq!(vs.pending_entries(), 0);
    }

    #[test]
    fn abort_unblocks_a_later_commit() {
        let (mut vs, c) = counter_store();
        vs.note_install(ExecId(1), c, StepId(0), add(5), Value::Unit);
        vs.note_install(ExecId(2), c, StepId(1), add(3), Value::Unit);
        vs.note_commit(ExecId(2));
        assert_eq!(vs.watermark(), 0);
        vs.note_abort(ExecId(1));
        assert_eq!(vs.watermark(), 1);
        assert_eq!(vs.read(c).0, &Value::Int(3));
        let anchor = vs.read(c).1;
        assert_eq!(anchor, Some(StepId(1)));
    }

    #[test]
    fn interleaved_commuting_commits_publish_as_a_group() {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Counter::default()));
        let y = base.add_object("y", Arc::new(Counter::default()));
        let mut vs = VersionedStore::new(Arc::new(base));
        // T1 leads on x, T2 leads on y: neither's steps are a prefix alone,
        // but the pair publishes together once both commit.
        vs.note_install(ExecId(1), x, StepId(0), add(1), Value::Unit);
        vs.note_install(ExecId(2), y, StepId(1), add(2), Value::Unit);
        vs.note_install(ExecId(2), x, StepId(2), add(10), Value::Unit);
        vs.note_install(ExecId(1), y, StepId(3), add(20), Value::Unit);
        vs.note_commit(ExecId(1));
        assert_eq!(vs.watermark(), 0, "T1 is blocked behind T2 on y");
        vs.note_commit(ExecId(2));
        assert_eq!(vs.watermark(), 1, "the group publishes under one watermark");
        assert_eq!(vs.read(x).0, &Value::Int(11));
        assert_eq!(vs.read(y).0, &Value::Int(22));
    }

    /// A write-heavy loop with no reader in flight: each object's version
    /// chain is at most its one newest version, and an object never
    /// written has none.
    #[test]
    fn chain_stays_bounded_without_pins() {
        let mut base = ObjectBase::new();
        let objects: Vec<ObjectId> = (0..8)
            .map(|i| base.add_object(format!("c{i}"), Arc::new(Counter::default())))
            .collect();
        let mut vs = VersionedStore::new(Arc::new(base));
        // 1,000 commits over the first three objects; the other five are
        // never written.
        for i in 0..1000u32 {
            let o = objects[i as usize % 3];
            vs.note_install(ExecId(i), o, StepId(i), add(1), Value::Unit);
            vs.note_commit(ExecId(i));
        }
        assert_eq!(vs.watermark(), 1000);
        let written: Vec<ObjectId> = vs.published.keys().copied().collect();
        assert_eq!(written, objects[..3], "one version per written object");
        assert_eq!(vs.read(objects[0]), (&Value::Int(334), Some(StepId(999))));
        assert_eq!(vs.read(objects[2]), (&Value::Int(333), Some(StepId(998))));
        assert_eq!(vs.read(objects[7]), (&Value::Int(0), None));
    }

    /// Single-write commits to distinct objects leave no drained queue
    /// behind for later publications to scan.
    #[test]
    fn drained_queues_are_dropped() {
        let mut base = ObjectBase::new();
        let objects: Vec<ObjectId> = (0..5_000)
            .map(|i| base.add_object(format!("c{i}"), Arc::new(Counter::default())))
            .collect();
        let mut vs = VersionedStore::new(Arc::new(base));
        for (i, &o) in objects.iter().enumerate() {
            let i = i as u32;
            vs.note_install(ExecId(i), o, StepId(i), add(1), Value::Unit);
            vs.note_commit(ExecId(i));
        }
        assert_eq!(vs.watermark(), 5_000);
        assert!(vs.pending.is_empty(), "{} queues left", vs.pending.len());
        // An aborted writer's queue goes too.
        vs.note_install(
            ExecId(9_000),
            objects[0],
            StepId(9_000),
            add(1),
            Value::Unit,
        );
        vs.note_abort(ExecId(9_000));
        assert!(vs.pending.is_empty());
    }

    fn dict_def() -> (ObjectBaseDef, ObjectId) {
        let mut base = ObjectBase::new();
        let d = base.add_object("d", Arc::new(Dictionary));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        def.define_method(
            d,
            MethodDef {
                name: "get".into(),
                params: 1,
                body: Program::Local {
                    op: "Lookup".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            d,
            MethodDef {
                name: "put".into(),
                params: 2,
                body: Program::Local {
                    op: "Insert".into(),
                    args: vec![Expr::Param(0), Expr::Param(1)],
                },
            },
        );
        (def, d)
    }

    #[test]
    fn classify_accepts_read_only_and_rejects_writers() {
        let (def, d) = dict_def();
        let read = TxnSpec {
            name: "r".into(),
            body: Program::invoke(d, "get", [Value::from("k")]),
        };
        let plan = classify(&read, &def).expect("read-only spec is eligible");
        assert_eq!(plan.root.len(), 1);
        assert_eq!(plan.root[0].object, d);
        let write = TxnSpec {
            name: "w".into(),
            body: Program::invoke(d, "put", [Value::from("k"), Value::from(1)]),
        };
        assert!(classify(&write, &def).is_none());
        let missing = TxnSpec {
            name: "m".into(),
            body: Program::invoke(d, "nope", []),
        };
        assert!(classify(&missing, &def).is_none());
    }

    #[test]
    fn classify_rejects_unresolvable_parameters_and_recursion() {
        let (mut def, d) = dict_def();
        let param_target = TxnSpec {
            name: "p".into(),
            body: Program::Invoke {
                object: ObjRef::Param(0),
                method: "get".into(),
                args: vec![],
            },
        };
        assert!(classify(&param_target, &def).is_none());
        // Unbounded recursion trips the depth cap, not the stack.
        def.define_method(
            d,
            MethodDef {
                name: "loop".into(),
                params: 0,
                body: Program::invoke(d, "loop", []),
            },
        );
        let recursive = TxnSpec {
            name: "l".into(),
            body: Program::invoke(d, "loop", []),
        };
        assert!(classify(&recursive, &def).is_none());
    }

    #[test]
    fn plan_executes_against_pinned_versions() {
        let (def, d) = dict_def();
        let mut vs = VersionedStore::new(Arc::new(def.base().as_ref().clone()));
        let insert = Operation::new("Insert", [Value::from("k"), Value::from(42)]);
        let ty = def.base().type_of(d);
        let (_, ret) = ty.apply(&ty.initial_state(), &insert).unwrap();
        vs.note_install(ExecId(1), d, StepId(0), insert, ret);
        vs.note_commit(ExecId(1));
        let spec = TxnSpec {
            name: "r".into(),
            body: Program::invoke(d, "get", [Value::from("k")]),
        };
        let plan = classify(&spec, &def).unwrap();
        let outcome = execute_plan(&plan, &vs).unwrap();
        assert_eq!(outcome.local_reads(), 1);
        assert_eq!(outcome.calls[0].ret, Value::from(42));
        match &outcome.calls[0].items[0] {
            ExecutedItem::Local { anchor, .. } => assert_eq!(*anchor, Some(StepId(0))),
            other => panic!("expected a local read, got {other:?}"),
        }
    }
}
