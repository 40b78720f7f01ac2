//! The interleaving simulator: executes nested transaction programs against
//! the object base under the control of a pluggable [`Scheduler`].
//!
//! The engine models a parallel machine with one logical processor per
//! runnable activity: in every *round*, every runnable thread of control
//! advances by one action (in a seeded random order, so interleavings are
//! adversarial but reproducible). Blocking decisions cost rounds; the number
//! of rounds until all transactions settle is the run's makespan, and
//! committed-transactions-per-round is the throughput proxy the experiments
//! report. Every run records a full [`History`](obase_core::history::History)
//! which can be checked against the core theory (Theorems 2 and 5) after the
//! fact.
//!
//! ## This engine is a driver
//!
//! All lifecycle logic — scheduler admission, history and metrics recording,
//! commit certification, abort marking/undo-ordering/cascades, retry
//! accounting — lives in the shared [`kernel`](crate::kernel), which the
//! multi-threaded backend (`obase-par`) drives too. This module contributes
//! only what is specific to the *simulated* machine: the virtual round
//! clock, the explicit thread-of-control table (frames, `Par` fan-out,
//! resume-on-child-commit), the single-threaded [`ObjectStore`], and a
//! per-round deadlock sweep. Aborts run through the one shared loop
//! ([`resolve_abort`]) via this engine's [`ExecutionDriver`] implementation.
//!
//! ## Aborts and retries
//!
//! When a scheduler aborts a method execution the engine aborts the whole
//! top-level transaction it belongs to and (up to a retry budget) re-submits
//! it. Installed effects of the aborted subtree are undone by replaying the
//! surviving per-object logs; if a surviving step's recorded return value no
//! longer holds, the transaction that issued it performed a dirty read and is
//! cascade-aborted. Strict schedulers (N2PL, the flat baseline) never cascade
//! — integration tests assert this.

use crate::kernel::LifecycleKernel;
use crate::mvcc::{self, SnapshotPlan, VersionedStore};
use crate::program::{Expr, ObjRef, Program, WorkloadSpec};
use crate::store::ObjectStore;
use obase_core::builder::HistoryBuilder;
use obase_core::graph::DiGraph;
use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::lifecycle::{resolve_abort, ExecutionDriver};
use obase_core::op::{LocalStep, Operation};
use obase_core::record::HistoryRecorder;
use obase_core::sched::{AbortReason, Decision, Scheduler};
use obase_core::value::Value;
use obase_obs::{ObsEvent, ObsHandle, ObsLane};
use obase_rng::{ChaCha8Rng, SeedableRng, SliceRandom};
use std::collections::BTreeSet;

pub use crate::kernel::RunResult;

/// Low-level engine parameters.
///
/// Most callers should configure runs through `obase_runtime::Runtime`,
/// which validates these values and returns typed errors; `ExecParams` is
/// the raw knob set the engine itself consumes.
#[derive(Clone, Debug)]
pub struct ExecParams {
    /// Seed for the interleaving RNG (runs are reproducible given a seed).
    pub seed: u64,
    /// How many times an aborted top-level transaction is re-submitted.
    pub max_retries: u32,
    /// Hard bound on scheduling rounds (guards against livelock).
    pub max_rounds: u64,
    /// Maximum number of concurrently running top-level transactions.
    pub clients: usize,
    /// Enables the MVCC snapshot read path: transactions statically
    /// classified as read-only ([`crate::mvcc::classify`]) are served from
    /// committed versions with no scheduler interaction. Off by default —
    /// the baseline run is bit-for-bit unaffected.
    pub mvcc: bool,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            seed: 42,
            max_retries: 16,
            max_rounds: 200_000,
            clients: 4,
            mvcc: false,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ThreadState {
    Ready,
    WaitingChild(ExecId),
    WaitingPar(usize),
    Done,
}

#[derive(Clone, Debug)]
struct Frame {
    items: Vec<Program>,
    index: usize,
}

#[derive(Clone, Debug)]
struct Thread {
    exec: ExecId,
    frames: Vec<Frame>,
    state: ThreadState,
    parent_thread: Option<usize>,
    blocked_on: Vec<ExecId>,
    last_value: Value,
    prev_step: Option<StepId>,
    /// The object an open observability blocked-span waits on, if any.
    obs_block: Option<ObjectId>,
}

/// Simulator-specific bookkeeping per execution, parallel to the kernel's
/// registry: the bound method arguments, the invocation's message step, and
/// which thread to resume when the execution commits.
#[derive(Clone, Debug, Default)]
struct SideMeta {
    args: Vec<Value>,
    msg_step: Option<StepId>,
    resume_thread: Option<usize>,
}

struct EngineState<R: HistoryRecorder> {
    def: crate::program::ObjectBaseDef,
    specs: Vec<crate::program::TxnSpec>,
    config: ExecParams,
    kernel: LifecycleKernel,
    recorder: R,
    store: ObjectStore,
    side: Vec<SideMeta>,
    threads: Vec<Thread>,
    running_clients: usize,
    rng: ChaCha8Rng,
    olane: ObsLane,
    first_granted: BTreeSet<ExecId>,
    /// Committed multi-version state, present iff `config.mvcc`.
    vs: Option<VersionedStore>,
    /// Snapshot plans per workload spec (empty unless `config.mvcc`).
    plans: Vec<Option<SnapshotPlan>>,
}

/// The simulator's side of the shared abort loop: single-threaded, so every
/// phase is plain field access — the store undo runs in place and victim
/// threads of control are torn down immediately (no dooming; there is no
/// other thread to unwind).
struct SimDriver<'a, R: HistoryRecorder> {
    st: &'a mut EngineState<R>,
    scheduler: &'a mut dyn Scheduler,
}

impl<R: HistoryRecorder> ExecutionDriver for SimDriver<'_, R> {
    fn mark_aborted(
        &mut self,
        top: ExecId,
        reason: &AbortReason,
        cascade: bool,
    ) -> Option<Vec<ExecId>> {
        let subtree =
            self.st
                .kernel
                .mark_abort_subtree(&mut self.st.recorder, top, reason, cascade)?;
        // Close any open blocked span of a torn-down waiter before the
        // thread table forgets it.
        if self.st.olane.is_on() {
            let subtree_set: BTreeSet<ExecId> = subtree.iter().copied().collect();
            for tid in 0..self.st.threads.len() {
                if subtree_set.contains(&self.st.threads[tid].exec) {
                    if let Some(object) = self.st.threads[tid].obs_block.take() {
                        let t = self.st.kernel.execs.top_of(self.st.threads[tid].exec);
                        self.st.olane.emit(ObsEvent::BlockEnd {
                            top: t,
                            object,
                            shard: 0,
                        });
                    }
                }
            }
        }
        let subtree_set: BTreeSet<ExecId> = subtree.iter().copied().collect();
        for th in &mut self.st.threads {
            if subtree_set.contains(&th.exec) {
                th.state = ThreadState::Done;
                th.frames.clear();
                th.blocked_on.clear();
            }
        }
        Some(subtree)
    }

    fn undo_steps(&mut self, aborted: &BTreeSet<ExecId>) -> (usize, BTreeSet<ExecId>) {
        self.st.store.undo(aborted)
    }

    fn release_aborted(
        &mut self,
        top: ExecId,
        subtree: &[ExecId],
        removed_steps: usize,
        invalidated: BTreeSet<ExecId>,
    ) -> Vec<ExecId> {
        if let Some(vs) = self.st.vs.as_mut() {
            vs.note_abort(top);
        }
        let release = self.st.kernel.release_aborted(
            self.scheduler,
            top,
            subtree,
            removed_steps,
            invalidated,
            true,
        );
        if !release.was_committed {
            self.st.running_clients -= 1;
        }
        if self.st.olane.is_on() {
            self.st.olane.emit(ObsEvent::Abort { top });
            if release.retried {
                if let Some((spec, attempt)) = self.st.kernel.execs.record(top).spec {
                    self.st.olane.emit(ObsEvent::Retry {
                        spec,
                        attempt: attempt + 1,
                    });
                }
            }
        }
        // Every victim resolves inline: committed ones have no thread of
        // control, and running ones were torn down in `mark_aborted`.
        release.victims.into_iter().map(|v| v.top).collect()
    }
}

impl<R: HistoryRecorder> EngineState<R> {
    fn new(
        workload: &WorkloadSpec,
        config: &ExecParams,
        scheduler_name: String,
        backend_label: &str,
        recorder: R,
        obs: &ObsHandle,
    ) -> Self {
        let base = std::sync::Arc::clone(workload.def.base());
        let base2 = std::sync::Arc::clone(&base);
        EngineState {
            def: workload.def.clone(),
            specs: workload.transactions.clone(),
            config: config.clone(),
            kernel: LifecycleKernel::new(
                std::sync::Arc::clone(&base),
                workload.transactions.len(),
                config.max_retries,
                scheduler_name,
                backend_label.to_owned(),
            ),
            recorder,
            store: ObjectStore::new(base),
            side: Vec::new(),
            threads: Vec::new(),
            running_clients: 0,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            olane: obs.lane("sim"),
            first_granted: BTreeSet::new(),
            vs: config.mvcc.then(|| VersionedStore::new(base2)),
            plans: if config.mvcc {
                mvcc::plan_specs(workload)
            } else {
                Vec::new()
            },
        }
    }

    /// Emits `FirstGrant` the first time any step of `exec`'s top-level
    /// transaction is granted. Gated on the lane so the off path stays one
    /// branch.
    fn note_grant(&mut self, exec: ExecId) {
        if self.olane.is_on() {
            let top = self.kernel.execs.top_of(exec);
            if self.first_granted.insert(top) {
                self.olane.emit(ObsEvent::FirstGrant { top });
            }
        }
    }

    /// Opens an observability blocked-span for `tid` (idempotent while the
    /// same instruction keeps re-blocking).
    fn note_block(&mut self, tid: usize, object: ObjectId) {
        if self.olane.is_on() && self.threads[tid].obs_block.is_none() {
            self.threads[tid].obs_block = Some(object);
            let top = self.kernel.execs.top_of(self.threads[tid].exec);
            self.olane.emit(ObsEvent::BlockBegin {
                top,
                object,
                shard: 0,
            });
        }
    }

    /// Closes `tid`'s open blocked-span, if any.
    fn note_unblock(&mut self, tid: usize) {
        if let Some(object) = self.threads[tid].obs_block.take() {
            let top = self.kernel.execs.top_of(self.threads[tid].exec);
            self.olane.emit(ObsEvent::BlockEnd {
                top,
                object,
                shard: 0,
            });
        }
    }

    fn settled(&self) -> bool {
        self.kernel.queue_is_empty() && self.running_clients == 0
    }

    /// Serves a snapshot-eligible pending transaction from committed
    /// versions: pin the watermark, execute the plan, settle the whole tree
    /// as committed — no scheduler call, no thread of control, no client
    /// slot. Returns `false` (leaving the kernel untouched) when the
    /// transaction has no plan or its plan fails against the committed state
    /// (it then takes the normal path).
    fn try_snapshot(&mut self, p: crate::kernel::Pending) -> bool {
        let outcome = match (
            self.vs.as_mut(),
            self.plans.get(p.spec).and_then(Option::as_ref),
        ) {
            (Some(vs), Some(plan)) => {
                let w = vs.pin();
                let outcome = mvcc::execute_plan(plan, vs, w).ok();
                vs.unpin(w);
                outcome
            }
            _ => None,
        };
        let Some(outcome) = outcome else {
            return false;
        };
        let top = self.kernel.settle_snapshot(&mut self.recorder, &outcome, p);
        // Keep the simulator's side table index-aligned with the registry
        // (the snapshot settle allocated the whole subtree's exec ids).
        self.side
            .resize_with(self.kernel.execs.len(), SideMeta::default);
        if self.olane.is_on() {
            self.olane.emit(ObsEvent::SnapshotRead {
                top,
                spec: p.spec,
                attempt: p.attempt,
            });
            self.olane.emit(ObsEvent::Commit { top });
        }
        true
    }

    fn start_pending(&mut self, scheduler: &mut dyn Scheduler) {
        while self.running_clients < self.config.clients {
            let Some(p) = self.kernel.next_pending() else {
                break;
            };
            if self.try_snapshot(p) {
                continue;
            }
            let spec = &self.specs[p.spec];
            let top = self
                .kernel
                .admit_top(scheduler, &mut self.recorder, &spec.name, p);
            if self.olane.is_on() {
                self.olane.emit(ObsEvent::Admit {
                    top,
                    spec: p.spec,
                    attempt: p.attempt,
                });
            }
            self.side.push(SideMeta::default());
            let body = spec.body.clone();
            self.threads.push(Thread {
                exec: top,
                frames: vec![Frame {
                    items: vec![body],
                    index: 0,
                }],
                state: ThreadState::Ready,
                parent_thread: None,
                blocked_on: Vec::new(),
                last_value: Value::Unit,
                prev_step: None,
                obs_block: None,
            });
            self.running_clients += 1;
        }
    }

    fn step_thread(&mut self, scheduler: &mut dyn Scheduler, tid: usize) {
        loop {
            if self.threads[tid].state != ThreadState::Ready {
                return;
            }
            // Locate the current instruction, popping exhausted frames.
            let item = loop {
                let th = &mut self.threads[tid];
                match th.frames.last_mut() {
                    None => break None,
                    Some(f) if f.index >= f.items.len() => {
                        th.frames.pop();
                    }
                    Some(f) => break Some(f.items[f.index].clone()),
                }
            };
            let Some(item) = item else {
                self.finish_thread(scheduler, tid);
                return;
            };
            match item {
                Program::Seq(items) => {
                    self.advance(tid);
                    self.threads[tid].frames.push(Frame { items, index: 0 });
                    // Pure bookkeeping: keep going within the same round.
                }
                Program::Par(branches) => {
                    self.advance(tid);
                    if branches.is_empty() {
                        continue;
                    }
                    let exec = self.threads[tid].exec;
                    let n = branches.len();
                    for branch in branches {
                        self.threads.push(Thread {
                            exec,
                            frames: vec![Frame {
                                items: vec![branch],
                                index: 0,
                            }],
                            state: ThreadState::Ready,
                            parent_thread: Some(tid),
                            blocked_on: Vec::new(),
                            last_value: Value::Unit,
                            prev_step: self.threads[tid].prev_step,
                            obs_block: None,
                        });
                    }
                    self.threads[tid].state = ThreadState::WaitingPar(n);
                    return;
                }
                Program::Local { op, args } => {
                    self.do_local(scheduler, tid, op, args);
                    return;
                }
                Program::Invoke {
                    object,
                    method,
                    args,
                } => {
                    self.do_invoke(scheduler, tid, object, method, args);
                    return;
                }
            }
        }
    }

    fn advance(&mut self, tid: usize) {
        if let Some(f) = self.threads[tid].frames.last_mut() {
            f.index += 1;
        }
    }

    fn abort_top_level(&mut self, scheduler: &mut dyn Scheduler, top: ExecId, reason: AbortReason) {
        // Publication is frozen across the whole cascade: a committed victim
        // must not publish in the window between its dirty-read source's
        // retraction and its own abort mark.
        if let Some(vs) = self.vs.as_mut() {
            vs.freeze();
        }
        resolve_abort(
            &mut SimDriver {
                st: self,
                scheduler,
            },
            top,
            reason,
            false,
        );
        if let Some(vs) = self.vs.as_mut() {
            vs.thaw();
        }
    }

    fn do_local(
        &mut self,
        scheduler: &mut dyn Scheduler,
        tid: usize,
        op_name: String,
        arg_exprs: Vec<Expr>,
    ) {
        let exec = self.threads[tid].exec;
        let object = self.kernel.execs.record(exec).object;
        assert!(
            !object.is_environment(),
            "top-level transactions cannot issue local operations (the environment has no variables)"
        );
        let args: Vec<Value> = {
            let margs = &self.side[exec.index()].args;
            arg_exprs.iter().map(|e| e.eval(margs)).collect()
        };
        let op = Operation::new(op_name, args);

        match self.kernel.request_local(scheduler, exec, object, &op) {
            Decision::Block { waiting_for } => {
                self.threads[tid].blocked_on = waiting_for;
                self.note_block(tid, object);
                return;
            }
            Decision::Abort(reason) => {
                let top = self.kernel.execs.top_of(exec);
                self.abort_top_level(scheduler, top, reason);
                return;
            }
            Decision::Grant => {}
        }

        let (new_state, ret) = self
            .store
            .provisional(object, &op)
            .unwrap_or_else(|e| panic!("malformed workload: {e}"));
        let step = LocalStep::new(op.clone(), ret.clone());

        match self.kernel.validate_step(scheduler, exec, object, &step) {
            Decision::Block { waiting_for } => {
                self.threads[tid].blocked_on = waiting_for;
                self.note_block(tid, object);
                return;
            }
            Decision::Abort(reason) => {
                let top = self.kernel.execs.top_of(exec);
                self.abort_top_level(scheduler, top, reason);
                return;
            }
            Decision::Grant => {}
        }

        // Mirror the install for publication when MVCC is on (the clone is
        // paid only on that path; the baseline is untouched).
        let mirror = self.vs.is_some().then(|| (op.clone(), ret.clone()));
        self.store.install(object, exec, op, ret.clone(), new_state);
        let prev = self.threads[tid].prev_step;
        let sid = self
            .kernel
            .install_step(scheduler, &mut self.recorder, exec, object, step, prev);
        if let Some((mop, mret)) = mirror {
            let top = self.kernel.execs.top_of(exec);
            self.vs
                .as_mut()
                .expect("mirror captured only when the store exists")
                .note_install(top, object, sid, mop, mret);
        }
        if self.olane.is_on() {
            self.note_unblock(tid);
            self.note_grant(exec);
            let top = self.kernel.execs.top_of(exec);
            self.olane.emit(ObsEvent::Install { top, object });
        }
        let th = &mut self.threads[tid];
        th.prev_step = Some(sid);
        th.last_value = ret;
        th.blocked_on.clear();
        self.advance(tid);
    }

    fn do_invoke(
        &mut self,
        scheduler: &mut dyn Scheduler,
        tid: usize,
        objref: ObjRef,
        method: String,
        arg_exprs: Vec<Expr>,
    ) {
        let exec = self.threads[tid].exec;
        let (target, args) = {
            let margs = &self.side[exec.index()].args;
            let target = objref.resolve(margs);
            let args: Vec<Value> = arg_exprs.iter().map(|e| e.eval(margs)).collect();
            (target, args)
        };

        match self.kernel.request_invoke(scheduler, exec, target, &method) {
            Decision::Block { waiting_for } => {
                self.threads[tid].blocked_on = waiting_for;
                self.note_block(tid, target);
                return;
            }
            Decision::Abort(reason) => {
                let top = self.kernel.execs.top_of(exec);
                self.abort_top_level(scheduler, top, reason);
                return;
            }
            Decision::Grant => {}
        }

        if self.olane.is_on() {
            self.note_unblock(tid);
            self.note_grant(exec);
        }
        let mdef = self
            .def
            .method(target, &method)
            .unwrap_or_else(|| panic!("object {target:?} has no method {method:?}"));
        let prev = self.threads[tid].prev_step;
        let (msg, child) = self.kernel.begin_nested(
            scheduler,
            &mut self.recorder,
            exec,
            target,
            &method,
            args.clone(),
            prev,
        );
        self.side.push(SideMeta {
            args,
            msg_step: Some(msg),
            resume_thread: Some(tid),
        });
        self.threads[tid].prev_step = Some(msg);
        self.threads.push(Thread {
            exec: child,
            frames: vec![Frame {
                items: vec![mdef.body.clone()],
                index: 0,
            }],
            state: ThreadState::Ready,
            parent_thread: None,
            blocked_on: Vec::new(),
            last_value: Value::Unit,
            prev_step: None,
            obs_block: None,
        });
        let th = &mut self.threads[tid];
        th.state = ThreadState::WaitingChild(child);
        th.blocked_on.clear();
        self.advance(tid);
    }

    fn finish_thread(&mut self, scheduler: &mut dyn Scheduler, tid: usize) {
        self.threads[tid].state = ThreadState::Done;
        if let Some(pt) = self.threads[tid].parent_thread {
            // A Par branch finished: wake the parent when all branches are in.
            if let ThreadState::WaitingPar(n) = &mut self.threads[pt].state {
                *n -= 1;
                if *n == 0 {
                    self.threads[pt].state = ThreadState::Ready;
                }
            }
            return;
        }
        let exec = self.threads[tid].exec;
        let retval = self.threads[tid].last_value.clone();
        self.complete_exec(scheduler, exec, retval);
    }

    fn complete_exec(&mut self, scheduler: &mut dyn Scheduler, exec: ExecId, retval: Value) {
        match self.kernel.execs.record(exec).parent {
            Some(_) => {
                let msg = self.side[exec.index()]
                    .msg_step
                    .expect("nested execution has a message step");
                if let Err(reason) = self.kernel.commit_nested(
                    scheduler,
                    &mut self.recorder,
                    exec,
                    msg,
                    retval.clone(),
                ) {
                    let top = self.kernel.execs.top_of(exec);
                    self.abort_top_level(scheduler, top, reason);
                    return;
                }
                let rt = self.side[exec.index()]
                    .resume_thread
                    .expect("nested execution has a waiting thread");
                self.threads[rt].last_value = retval;
                self.threads[rt].state = ThreadState::Ready;
            }
            None => {
                if self.olane.is_on() {
                    self.olane.emit(ObsEvent::CertifyBegin { top: exec });
                }
                if let Err(reason) = self.kernel.commit_top(scheduler, &mut self.recorder, exec) {
                    self.abort_top_level(scheduler, exec, reason);
                    return;
                }
                if self.olane.is_on() {
                    self.olane.emit(ObsEvent::Commit { top: exec });
                }
                if let Some(vs) = self.vs.as_mut() {
                    vs.note_commit(exec);
                }
                self.running_clients -= 1;
            }
        }
    }

    fn detect_deadlock(&self) -> Option<ExecId> {
        // Waits-for edges at the granularity of method executions: a blocked
        // thread waits for the executions its scheduler reported as holding
        // conflicting locks. Cycles among executions of the *same* top-level
        // transaction (parallel sibling sub-transactions competing for the
        // same lock) are deadlocks too, so no top-level collapsing here.
        let mut g: DiGraph<ExecId> = DiGraph::new();
        let mut any = false;
        for th in &self.threads {
            if th.state == ThreadState::Done {
                continue;
            }
            // A parent waits for the children it invoked.
            if let ThreadState::WaitingChild(child) = th.state {
                g.add_edge(th.exec, child);
            }
            for &owner in &th.blocked_on {
                if owner.index() >= self.kernel.execs.len() || owner == th.exec {
                    continue;
                }
                g.add_edge(th.exec, owner);
                any = true;
            }
        }
        if !any {
            return None;
        }
        self.kernel.execs.deadlock_victim(&g)
    }
}

/// Runs a workload under a scheduler and returns the recorded history and
/// metrics. Every admission, grant, blocked span, certification and settle
/// is emitted through `obs` (on the `"sim"` lane, with submissions on
/// `"control"`); with [`ObsHandle::off`] that costs one branch per
/// would-be event.
pub fn execute(
    workload: &WorkloadSpec,
    scheduler: &mut dyn Scheduler,
    config: &ExecParams,
    obs: &ObsHandle,
) -> RunResult {
    let mut builder = HistoryBuilder::new(std::sync::Arc::clone(workload.def.base()));
    builder.set_auto_program_order(false);
    let (kernel, builder) = drive(workload, scheduler, config, "simulated", builder, obs);
    kernel.into_result(builder.build())
}

/// Drives the simulator loop with a caller-supplied [`HistoryRecorder`] —
/// the generic entry point backends layer on. [`execute`] is this with a
/// plain [`HistoryBuilder`]; the durable backend (`obase-wal`) passes a
/// recorder that streams every event into a write-ahead log as it happens.
///
/// The recorder must allocate final step ids immediately (the simulator is
/// single-threaded, so there is no stitch pass) and must have automatic
/// program-order recording disabled — the kernel records explicit edges.
/// Returns the finished kernel (metrics, registry) and the recorder; the
/// caller turns its recording into a [`History`](obase_core::history::History)
/// and calls [`LifecycleKernel::into_result`].
pub fn drive<R: HistoryRecorder>(
    workload: &WorkloadSpec,
    scheduler: &mut dyn Scheduler,
    config: &ExecParams,
    backend_label: &str,
    recorder: R,
    obs: &ObsHandle,
) -> (LifecycleKernel, R) {
    let started = std::time::Instant::now();
    if obs.is_on() {
        // Every workload transaction's first attempt is submitted up front;
        // retries re-submit through the abort path.
        let mut control = obs.lane("control");
        for spec in 0..workload.transactions.len() {
            control.emit(ObsEvent::Submit { spec, attempt: 0 });
        }
    }
    let mut st = EngineState::new(
        workload,
        config,
        scheduler.name(),
        backend_label,
        recorder,
        obs,
    );
    while !st.settled() && st.kernel.metrics.rounds < config.max_rounds {
        st.kernel.metrics.rounds += 1;
        st.start_pending(scheduler);
        let mut runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, th)| th.state == ThreadState::Ready)
            .map(|(i, _)| i)
            .collect();
        runnable.shuffle(&mut st.rng);
        for tid in runnable {
            if st.threads[tid].state == ThreadState::Ready {
                st.step_thread(scheduler, tid);
            }
        }
        if let Some(victim) = st.detect_deadlock() {
            st.kernel.metrics.deadlocks += 1;
            st.abort_top_level(scheduler, victim, AbortReason::Deadlock);
        }
    }
    if !st.settled() {
        st.kernel.metrics.timed_out = true;
    }
    st.kernel.metrics.wall_micros = started.elapsed().as_micros() as u64;
    let EngineState {
        kernel, recorder, ..
    } = st;
    (kernel, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MethodDef, ObjectBaseDef, TxnSpec};
    use obase_adt::{Counter, Register};
    use obase_core::object::ObjectBase;
    use obase_core::sched::NullScheduler;
    use obase_lock::N2plScheduler;
    use std::sync::Arc;

    /// Builds a tiny bank-like workload: `n` transactions each invoking
    /// `bump` on one of two counters through a nested method.
    fn counter_workload(n: usize) -> WorkloadSpec {
        let mut base = ObjectBase::new();
        let c0 = base.add_object("c0", Arc::new(Counter::default()));
        let c1 = base.add_object("c1", Arc::new(Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for c in [c0, c1] {
            def.define_method(
                c,
                MethodDef {
                    name: "bump".into(),
                    params: 1,
                    body: Program::Local {
                        op: "Add".into(),
                        args: vec![Expr::Param(0)],
                    },
                },
            );
        }
        let transactions = (0..n)
            .map(|i| TxnSpec {
                name: format!("T{i}"),
                body: Program::Seq(vec![
                    Program::invoke(if i % 2 == 0 { c0 } else { c1 }, "bump", [Value::Int(1)]),
                    Program::invoke(if i % 2 == 0 { c1 } else { c0 }, "bump", [Value::Int(1)]),
                ]),
            })
            .collect();
        WorkloadSpec { def, transactions }
    }

    #[test]
    fn commits_everything_and_records_a_legal_history() {
        let wl = counter_workload(6);
        let mut sched = N2plScheduler::operation_locks();
        let result = execute(&wl, &mut sched, &ExecParams::default(), &ObsHandle::off());
        assert_eq!(result.metrics.committed, 6);
        assert_eq!(result.metrics.gave_up, 0);
        assert!(!result.metrics.timed_out);
        let final_states = obase_core::oracle::check(&result.history, false).expect("serialisable");
        // Each transaction adds 1 to each counter.
        for (_, v) in final_states {
            assert_eq!(v, Value::Int(6));
        }
    }

    #[test]
    fn null_scheduler_still_commits_commuting_work() {
        // With only commuting counter increments even the null scheduler
        // produces a serialisable history.
        let wl = counter_workload(4);
        let mut sched = NullScheduler;
        let result = execute(&wl, &mut sched, &ExecParams::default(), &ObsHandle::off());
        assert_eq!(result.metrics.committed, 4);
        assert!(obase_core::sg::certifies_serialisable(&result.history));
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let wl = counter_workload(5);
        let cfg = ExecParams {
            seed: 7,
            ..Default::default()
        };
        let off = ObsHandle::off();
        let a = execute(&wl, &mut N2plScheduler::operation_locks(), &cfg, &off);
        let b = execute(&wl, &mut N2plScheduler::operation_locks(), &cfg, &off);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.blocked_events, b.metrics.blocked_events);
        assert_eq!(a.history.step_count(), b.history.step_count());
    }

    /// Two transactions that write two registers in opposite orders: a
    /// deadlock under operation-level N2PL, which the engine must detect and
    /// resolve by aborting one of them (which then retries and commits).
    #[test]
    fn deadlock_is_detected_and_resolved() {
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(Register::default()));
        let y = base.add_object("y", Arc::new(Register::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for o in [x, y] {
            def.define_method(
                o,
                MethodDef {
                    name: "set".into(),
                    params: 1,
                    body: Program::Local {
                        op: "Write".into(),
                        args: vec![Expr::Param(0)],
                    },
                },
            );
        }
        let transactions = vec![
            TxnSpec {
                name: "T0".into(),
                body: Program::Seq(vec![
                    Program::invoke(x, "set", [Value::Int(1)]),
                    Program::invoke(y, "set", [Value::Int(1)]),
                ]),
            },
            TxnSpec {
                name: "T1".into(),
                body: Program::Seq(vec![
                    Program::invoke(y, "set", [Value::Int(2)]),
                    Program::invoke(x, "set", [Value::Int(2)]),
                ]),
            },
        ];
        let wl = WorkloadSpec { def, transactions };
        let mut sched = N2plScheduler::operation_locks();
        let result = execute(&wl, &mut sched, &ExecParams::default(), &ObsHandle::off());
        assert_eq!(result.metrics.committed, 2);
        assert!(result.metrics.deadlocks >= 1);
        assert!(result.metrics.retries >= 1);
        obase_core::oracle::check(&result.history, false).expect("serialisable");
        // Strict locking never cascades.
        assert_eq!(result.metrics.cascading_aborts, 0);
        // Abort reasons are recorded under their variant key.
        assert_eq!(
            result.metrics.aborts_by_reason["deadlock"],
            result.metrics.deadlocks
        );
    }

    #[test]
    fn internal_parallelism_runs_par_branches() {
        let mut base = ObjectBase::new();
        let c0 = base.add_object("c0", Arc::new(Counter::default()));
        let c1 = base.add_object("c1", Arc::new(Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for c in [c0, c1] {
            def.define_method(
                c,
                MethodDef {
                    name: "bump".into(),
                    params: 0,
                    body: Program::local("Add", [Value::Int(1)]),
                },
            );
        }
        let transactions = vec![TxnSpec {
            name: "par".into(),
            body: Program::Par(vec![
                Program::invoke(c0, "bump", []),
                Program::invoke(c1, "bump", []),
            ]),
        }];
        let wl = WorkloadSpec { def, transactions };
        let result = execute(
            &wl,
            &mut N2plScheduler::operation_locks(),
            &ExecParams::default(),
            &ObsHandle::off(),
        );
        assert_eq!(result.metrics.committed, 1);
        assert_eq!(result.metrics.installed_steps, 2);
        assert!(obase_core::legality::is_legal(&result.history));
    }
}
