//! The parallel execution engine: worker loops on the resident pool over the
//! sharded store and the decomposed control plane, with the monitor on the
//! calling thread.
//!
//! The control plane is split into independently contended pieces (see the
//! crate docs for the full lock map):
//!
//! * the **scheduler plane** ([`SchedPlane`]) — per-object-shard scheduler
//!   locks for decomposable schedulers, mirroring the paper's per-object
//!   scheduler decomposition; grant/release decisions for objects in
//!   different shards never contend;
//! * the **lifecycle plane** (one mutex over the shared
//!   [`LifecycleKernel`]) — execution registry, admission/retry queue,
//!   commit/abort accounting; touched only at transaction-lifecycle
//!   transitions, never per step;
//! * **history recording** — append-only per-activity event buffers
//!   ([`obase_core::record`]) stamped by a global atomic sequence counter
//!   and stitched into the final history at run end; installing a step
//!   records history without taking any control-plane lock at all;
//! * the **waiter registry** ([`Waiters`]) — targeted per-transaction
//!   parking instead of the old generation-counter broadcast: a grant,
//!   commit or abort wakes only the transactions whose block predicate may
//!   have changed. There is no `notify_all` anywhere on the
//!   grant/install/commit/abort path.
//!
//! What lives here is the genuinely parallel machinery: the worker loop,
//! the recursive program walker (`Par` branches on real scoped threads),
//! the gates that turn [`Decision::Block`] into targeted parking, the
//! doomed-victim protocol, and the deadlock/deadline monitor. A run submits
//! its worker loops to the process-wide pool, owns its workload and control
//! state behind an `Arc` so the pool threads borrow nothing from the
//! caller, and ticks the monitor on the calling thread until the workers
//! are done.

use crate::exec_index::{ExecIndex, ABORTED, COMMITTED, DOOMED, LIVE};
use crate::pool::{Job, Latch, Pool};
use crate::sched_plane::SchedPlane;
use crate::store::{ObjectSlot, ShardedStore};
use crate::waiters::{Signal, Waiters};
use obase_core::graph::DiGraph;
use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::lifecycle::{resolve_abort, ExecTable, ExecutionDriver};
use obase_core::op::{LocalStep, Operation};
use obase_core::record::{stitch, BufferedRecorder, EventBuffer, HistoryRecorder, RecordClock};
use obase_core::sched::{AbortReason, Decision, Scheduler};
use obase_core::value::Value;
use obase_exec::kernel::{LifecycleKernel, Pending};
use obase_exec::mvcc::{self, SnapshotPlan, VersionedStore};
use obase_exec::{ExecParams, Program, RunResult, TxnSpec, WorkloadSpec};
use obase_obs::{ObsEvent, ObsHandle, ObsLane};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Parameters of a parallel run.
#[derive(Clone, Debug)]
pub struct ParParams {
    /// Number of workers, each on a resident pool thread for the run; each
    /// runs one top-level transaction at a time, so this is also the
    /// maximum inter-transaction concurrency.
    pub workers: usize,
    /// How many times an aborted top-level transaction is re-submitted.
    pub max_retries: u32,
    /// Wall-clock bound on the whole run (guards against livelock; the run
    /// is flagged `timed_out` if it trips).
    pub deadline: Duration,
    /// Cadence of the monitor's deadlock/deadline ticks (also the re-poll
    /// backstop of parked waiters).
    pub monitor_tick: Duration,
    /// Number of store (and scheduler-plane) shards; `0` applies the
    /// default — the next power of two at least twice the worker count.
    pub shards: usize,
    /// Enables the MVCC snapshot read path: transactions whose every
    /// operation is read-only execute against committed versions pinned at a
    /// commit watermark, with no scheduler-plane interaction and no
    /// lifecycle-lock traffic on the read hot path. Off by default; writers
    /// are unaffected either way.
    pub mvcc: bool,
}

impl Default for ParParams {
    fn default() -> Self {
        ParParams {
            workers: 4,
            max_retries: 16,
            deadline: Duration::from_secs(10),
            monitor_tick: Duration::from_millis(1),
            shards: 0,
            mvcc: false,
        }
    }
}

impl ParParams {
    /// Derives parallel parameters from the simulator's knob set: the retry
    /// budget carries over, `workers` replaces `clients` as the concurrency
    /// cap, and the round bound is replaced by this struct's wall-clock
    /// deadline.
    pub fn from_exec(params: &ExecParams, workers: usize) -> Self {
        ParParams {
            workers,
            max_retries: params.max_retries,
            mvcc: params.mvcc,
            ..Default::default()
        }
    }

    /// The effective shard count: the configured value, or the default rule
    /// (next power of two ≥ 2 × workers) when unset.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            (2 * self.workers.max(1)).next_power_of_two()
        } else {
            self.shards
        }
    }
}

/// One thread of control inside a transaction: the top-level activity, or a
/// `Par` branch. The monitor derives the waits-for graph from these.
#[derive(Debug, Default)]
struct Activity {
    /// The chain of executions this activity is currently inside, outermost
    /// first (an edge `stack[i] → stack[i+1]` means "waits for its invoked
    /// child").
    stack: Vec<ExecId>,
    /// The executions a blocked scheduler decision named as holding the
    /// conflicting resources (empty while runnable).
    blocked_on: Vec<ExecId>,
    active: bool,
}

/// Behind the lifecycle mutex: the shared kernel plus the admission state
/// that must be read atomically with its queue.
struct Life {
    kernel: LifecycleKernel,
    /// Top-level transactions currently running on some worker.
    running: usize,
    /// Live top-level transactions condemned to abort (by the deadlock
    /// monitor or by cascade), with the reason; the owning worker performs
    /// the abort at its next gate. Kept here (not in thread bookkeeping) so
    /// doom decisions serialise with commit settling.
    doomed: BTreeMap<ExecId, (AbortReason, bool)>,
    /// For each deadlock victim's spec, the top-level transactions the
    /// victim was blocked on. Its retry is not admitted until they have
    /// all settled: started at once, the retry can take the lock its woken
    /// partner is about to take, deadlock with that partner again, and do
    /// so attempt after attempt until its retry budget runs out.
    retry_after: BTreeMap<usize, Vec<ExecId>>,
    /// Retries popped from the kernel queue while their partners were
    /// still live, in the order they were popped.
    held: Vec<(Pending, Vec<ExecId>)>,
}

impl Life {
    /// The next transaction to admit: the first held retry whose partners
    /// have all settled (any held retry once nothing runs), else the first
    /// queued one that is not held back.
    fn next_admissible(&mut self) -> Option<Pending> {
        let (execs, idle) = (&self.kernel.execs, self.running == 0);
        if let Some(i) = self
            .held
            .iter()
            .position(|(_, a)| idle || all_settled(execs, a))
        {
            return Some(self.held.remove(i).0);
        }
        while let Some(p) = self.kernel.next_pending() {
            match self.retry_after.remove(&p.spec) {
                Some(a) if !idle && !all_settled(&self.kernel.execs, &a) => self.held.push((p, a)),
                _ => return Some(p),
            }
        }
        None
    }

    /// `true` if no transaction is queued, held back or running.
    fn settled(&self) -> bool {
        self.running == 0 && self.held.is_empty() && self.kernel.queue_is_empty()
    }
}

/// Behind the thread-bookkeeping mutex: activity stacks for the monitor and
/// the per-transaction touched-shard sets for targeted broadcasts.
#[derive(Default)]
struct Control {
    activities: Vec<Activity>,
    /// Scheduler-plane shards each top-level transaction has made requests
    /// on; lifecycle broadcasts (commit/abort/certify) visit only these.
    touched: BTreeMap<ExecId, BTreeSet<usize>>,
}

struct Shared {
    store: ShardedStore,
    plane: SchedPlane,
    life: Mutex<Life>,
    /// Paired with `life`: idle workers waiting for pending work.
    work_cv: Condvar,
    control: Mutex<Control>,
    waiters: Waiters,
    index: ExecIndex,
    clock: RecordClock,
    sink: Mutex<Vec<EventBuffer>>,
    shutdown: AtomicBool,
    /// Bumped on every state transition; reported as the logical makespan in
    /// `metrics.rounds`.
    gen: AtomicU64,
    installed_steps: AtomicU64,
    blocked_events: AtomicU64,
    /// The run's own handle on the workload (`ObjectBaseDef` clones in
    /// O(1)), so resident pool threads borrow nothing from the caller.
    workload: WorkloadSpec,
    params: ParParams,
    obs: ObsHandle,
    /// The multi-version mirror of committed object states (present iff
    /// [`ParParams::mvcc`] is on). Its mutex is taken briefly inside a store
    /// slot's critical section (to mirror an install) and at lifecycle
    /// transitions; it is never held across a scheduler-plane or parking
    /// call. Lock order: `life` → `vs` and slot → `vs`, never the reverse.
    vs: Option<Mutex<VersionedStore>>,
    /// Pre-classified snapshot plans, one per workload transaction; `None`
    /// entries take the normal scheduled path.
    plans: Vec<Option<SnapshotPlan>>,
}

/// The transaction currently being executed must stop: it was doomed by the
/// monitor or a cascade, its scheduler answered `Abort`, or the run is
/// shutting down. Unwinds the program walker back to the worker loop.
struct Interrupt;

/// Per-activity state: the registered activity slot, the event buffer all
/// of this activity's history records go to, the parking signal, and a
/// cache of the shards this transaction is known to have touched (to avoid
/// re-taking the bookkeeping lock per request).
struct ActCtx {
    act: usize,
    buf: EventBuffer,
    signal: Arc<Signal>,
    touched: BTreeSet<usize>,
    /// This activity's observability lane (`worker-N` / `branch`); buffered
    /// locally like `buf`, so the hot path takes no new locks.
    olane: ObsLane,
    /// Whether this transaction's `FirstGrant` has been emitted.
    granted: bool,
}

/// Per-execution context: which execution the activity is currently running
/// code for, and the program-order chaining state.
struct Ctx {
    exec: ExecId,
    top: ExecId,
    object: ObjectId,
    args: Arc<Vec<Value>>,
    prev_step: Option<StepId>,
    last: Value,
}

fn life<'a>(shared: &'a Shared) -> MutexGuard<'a, Life> {
    shared
        .life
        .lock()
        .expect("a worker panicked while holding the lifecycle lock")
}

fn control<'a>(shared: &'a Shared) -> MutexGuard<'a, Control> {
    shared
        .control
        .lock()
        .expect("a worker panicked while holding the bookkeeping lock")
}

fn vs<'a>(shared: &'a Shared) -> Option<MutexGuard<'a, VersionedStore>> {
    shared.vs.as_ref().map(|m| {
        m.lock()
            .expect("a worker panicked while holding the version store")
    })
}

impl Shared {
    /// Lock-free: `true` if the given top-level transaction must stop
    /// executing (doomed, aborted, or the run is shutting down).
    fn is_interrupted(&self, top: ExecId) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.index.flags(top) & (ABORTED | DOOMED) != 0
    }

    fn bump(&self) {
        self.gen.fetch_add(1, Ordering::Relaxed);
    }

    /// The sorted scheduler shards `top` has touched (for targeted
    /// lifecycle broadcasts).
    fn touched_shards(&self, top: ExecId) -> Vec<usize> {
        control(self)
            .touched
            .get(&top)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Records that `top` made a scheduler request on `shard`.
    fn note_touched(&self, actx: &mut ActCtx, top: ExecId, shard: usize) {
        if actx.touched.insert(shard) {
            control(self).touched.entry(top).or_default().insert(shard);
        }
    }
}

/// Executes a workload on the resident worker pool against the sharded
/// store, under the given scheduler. Blocking decisions park the worker in
/// the waiter registry until a targeted wakeup (or the tick backstop); the
/// calling thread runs the monitor, which breaks waits-for cycles and
/// enforces the wall-clock deadline, until the workers are done.
///
/// The returned [`RunResult`] has exactly the simulator's shape: a committed
/// (legal) history, the raw history including aborted attempts, and the run
/// metrics — so every post-hoc theory check applies unchanged.
///
/// Lifecycle events go to `obs`: each worker buffers its events on an own
/// `worker-N` lane (`Par` branches on `branch` lanes, the monitor and
/// submissions on `control`), flushed at transaction boundaries — no new
/// locks on the grant/install path.
pub fn execute_parallel(
    workload: &WorkloadSpec,
    scheduler: Box<dyn Scheduler>,
    params: &ParParams,
    obs: &ObsHandle,
) -> RunResult {
    execute_on(Pool::global(), workload, scheduler, params, obs)
}

/// [`execute_parallel`] on a given pool.
pub(crate) fn execute_on(
    pool: &Pool,
    workload: &WorkloadSpec,
    scheduler: Box<dyn Scheduler>,
    params: &ParParams,
    obs: &ObsHandle,
) -> RunResult {
    let params = ParParams {
        workers: params.workers.max(1),
        ..params.clone()
    };
    let base = Arc::clone(workload.def.base());
    let shards = params.effective_shards();
    let kernel = LifecycleKernel::new(
        Arc::clone(&base),
        workload.transactions.len(),
        params.max_retries,
        scheduler.name(),
        format!("parallel({})", params.workers),
    );
    let shared = Arc::new(Shared {
        store: ShardedStore::new(Arc::clone(&base), shards),
        plane: SchedPlane::new(scheduler, shards),
        life: Mutex::new(Life {
            kernel,
            running: 0,
            doomed: BTreeMap::new(),
            retry_after: BTreeMap::new(),
            held: Vec::new(),
        }),
        work_cv: Condvar::new(),
        control: Mutex::new(Control::default()),
        waiters: Waiters::new(),
        index: ExecIndex::new(Arc::clone(&base)),
        clock: RecordClock::new(),
        sink: Mutex::new(Vec::new()),
        shutdown: AtomicBool::new(false),
        gen: AtomicU64::new(0),
        installed_steps: AtomicU64::new(0),
        blocked_events: AtomicU64::new(0),
        workload: workload.clone(),
        obs: obs.clone(),
        vs: params
            .mvcc
            .then(|| Mutex::new(VersionedStore::new(Arc::clone(&base)))),
        plans: if params.mvcc {
            mvcc::plan_specs(workload)
        } else {
            Vec::new()
        },
        params,
    });
    if shared.obs.is_on() {
        // Every workload transaction's first attempt is submitted up front;
        // retries re-submit through the abort path.
        let mut control = shared.obs.lane("control");
        for spec in 0..workload.transactions.len() {
            control.emit(ObsEvent::Submit { spec, attempt: 0 });
        }
    }
    let started = Instant::now();
    let jobs: Vec<Job> = (0..shared.params.workers)
        .map(|widx| {
            let shared = Arc::clone(&shared);
            Box::new(move || {
                let _stop = StopOnPanic(&shared);
                worker_loop(&shared, widx);
            }) as Job
        })
        .collect();
    let latch = pool.submit(jobs);
    monitor_loop(&shared, &latch, started);
    if latch.wait() {
        panic!("worker thread panicked");
    }
    let Ok(shared) = Arc::try_unwrap(shared) else {
        unreachable!("finished worker jobs hold no handle on the run");
    };
    let life = shared
        .life
        .into_inner()
        .expect("a worker panicked while holding the lifecycle lock");
    let mut kernel = life.kernel;
    kernel.metrics.rounds = shared.gen.load(Ordering::Relaxed);
    kernel.metrics.wall_micros = started.elapsed().as_micros() as u64;
    kernel.metrics.installed_steps = shared.installed_steps.load(Ordering::Relaxed);
    kernel.metrics.blocked_events += shared.blocked_events.load(Ordering::Relaxed);
    let buffers = shared
        .sink
        .into_inner()
        .expect("a worker panicked while holding the buffer sink");
    kernel.into_result(stitch(base, buffers))
}

// ----- worker loop ----------------------------------------------------------

/// Shuts the run down if its worker panics, so the other workers (which
/// would otherwise wait for the lost transaction until the deadline) wind
/// down at their next gate or tick and the caller learns of the panic.
struct StopOnPanic<'a>(&'a Shared);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown.store(true, Ordering::Release);
            self.0.work_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared, widx: usize) {
    loop {
        let pending = {
            let mut l = life(shared);
            loop {
                if let Some(p) = l.next_admissible() {
                    l.running += 1;
                    break Some(p);
                }
                if l.running == 0 || shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                l = shared
                    .work_cv
                    .wait_timeout(l, shared.params.monitor_tick)
                    .expect("a worker panicked while holding the lifecycle lock")
                    .0;
            }
        };
        let Some(p) = pending else {
            // Exit path (not a transaction transition): propagate the
            // all-done condition to the remaining idle workers.
            shared.work_cv.notify_all();
            return;
        };
        run_top_level(shared, p, widx);
        let idle = {
            let mut l = life(shared);
            l.running -= 1;
            l.settled()
        };
        shared.bump();
        if idle {
            shared.work_cv.notify_all();
        }
    }
}

fn run_top_level(shared: &Shared, p: Pending, widx: usize) {
    let spec: &TxnSpec = &shared.workload.transactions[p.spec];
    let mut actx = ActCtx {
        act: usize::MAX,
        buf: EventBuffer::new(),
        signal: Arc::new(Signal::new()),
        touched: BTreeSet::new(),
        olane: if shared.obs.is_on() {
            shared.obs.lane(format!("worker-{widx}"))
        } else {
            ObsLane::off()
        },
        granted: false,
    };
    if try_snapshot(shared, &mut actx, p) {
        shared
            .sink
            .lock()
            .expect("a worker panicked while holding the buffer sink")
            .push(std::mem::take(&mut actx.buf));
        return;
    }
    let top = {
        let mut l = life(shared);
        let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
        let top = l.kernel.register_top(&mut rec, &spec.name, p);
        shared.index.push(top, None, ObjectId::ENVIRONMENT);
        shared
            .plane
            .announce_begin(top, None, ObjectId::ENVIRONMENT);
        top
    };
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::Admit {
            top,
            spec: p.spec,
            attempt: p.attempt,
        });
    }
    {
        let mut c = control(shared);
        actx.act = alloc_activity(&mut c, top);
        c.touched.insert(top, BTreeSet::new());
    }
    shared.bump();
    let mut ctx = Ctx {
        exec: top,
        top,
        object: ObjectId::ENVIRONMENT,
        args: Arc::new(Vec::new()),
        prev_step: None,
        last: Value::Unit,
    };
    let outcome = run_program(shared, &mut actx, &mut ctx, &spec.body);
    release_activity(shared, actx.act);
    match outcome {
        Ok(()) => commit_top_level(shared, &mut actx, top),
        Err(Interrupt) => handle_interrupt(shared, &mut actx, top),
    }
    shared
        .sink
        .lock()
        .expect("a worker panicked while holding the buffer sink")
        .push(std::mem::take(&mut actx.buf));
}

/// The MVCC snapshot fast path: if this attempt's transaction is
/// snapshot-eligible (statically read-only), execute it against the
/// committed versions visible at a pinned watermark and settle it committed
/// — no scheduler-plane request, no parking, no certification. The only
/// lifecycle-lock acquisition is the final settle (registering the finished
/// execution tree and its history is inherently a lifecycle transition);
/// the read itself touches nothing but the version store. Returns `false`
/// (and touches nothing) when the transaction must take the scheduled path,
/// including when a read-only plan trips a `TypeError` on committed state.
fn try_snapshot(shared: &Shared, actx: &mut ActCtx, p: Pending) -> bool {
    let Some(plan) = shared.plans.get(p.spec).and_then(Option::as_ref) else {
        return false;
    };
    let outcome = {
        let Some(mut vs) = vs(shared) else {
            return false;
        };
        let w = vs.pin();
        let outcome = mvcc::execute_plan(plan, &vs, w).ok();
        vs.unpin(w);
        outcome
    };
    let Some(outcome) = outcome else {
        return false;
    };
    let top = {
        let mut l = life(shared);
        let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
        let before = l.kernel.execs.len();
        let top = l.kernel.settle_snapshot(&mut rec, &outcome, p);
        // Mirror the settled subtree into the lock-free index, in push
        // order (the index asserts lockstep with the registry). The whole
        // tree is born settled: never live, already committed.
        for i in before..l.kernel.execs.len() {
            let e = ExecId(i as u32);
            let r = l.kernel.execs.record(e);
            shared.index.push(e, r.parent, r.object);
            shared.index.clear_flags(e, LIVE);
            shared.index.set_flags(e, COMMITTED);
        }
        top
    };
    shared.bump();
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::SnapshotRead {
            top,
            spec: p.spec,
            attempt: p.attempt,
        });
        actx.olane.emit(ObsEvent::Commit { top });
    }
    true
}

fn alloc_activity(c: &mut Control, root: ExecId) -> usize {
    c.activities.push(Activity {
        stack: vec![root],
        blocked_on: Vec::new(),
        active: true,
    });
    c.activities.len() - 1
}

fn release_activity(shared: &Shared, act: usize) {
    let mut c = control(shared);
    c.activities[act].active = false;
    c.activities[act].blocked_on.clear();
    c.activities[act].stack.clear();
}

// ----- the program walker ---------------------------------------------------

fn run_program(
    shared: &Shared,
    actx: &mut ActCtx,
    ctx: &mut Ctx,
    prog: &Program,
) -> Result<(), Interrupt> {
    match prog {
        Program::Seq(items) => {
            for item in items {
                run_program(shared, actx, ctx, item)?;
            }
            Ok(())
        }
        Program::Par(branches) => {
            if branches.is_empty() {
                return Ok(());
            }
            // Real intra-transaction parallelism: one scoped OS thread per
            // branch, each acting for the same execution with its own
            // program-order chain seeded from the fork point (exactly the
            // simulator's branch-thread semantics). Each branch records
            // into its own event buffer and flushes it to the sink.
            let results: Vec<Result<(), Interrupt>> = std::thread::scope(|s| {
                let handles: Vec<_> = branches
                    .iter()
                    .map(|branch| {
                        let touched = actx.touched.clone();
                        let granted = actx.granted;
                        let mut bctx = Ctx {
                            exec: ctx.exec,
                            top: ctx.top,
                            object: ctx.object,
                            args: Arc::clone(&ctx.args),
                            prev_step: ctx.prev_step,
                            last: Value::Unit,
                        };
                        s.spawn(move || {
                            let mut bactx = ActCtx {
                                act: alloc_activity(&mut control(shared), bctx.exec),
                                buf: EventBuffer::new(),
                                signal: Arc::new(Signal::new()),
                                touched,
                                olane: if shared.obs.is_on() {
                                    shared.obs.lane("branch")
                                } else {
                                    ObsLane::off()
                                },
                                granted,
                            };
                            let r = run_program(shared, &mut bactx, &mut bctx, branch);
                            release_activity(shared, bactx.act);
                            shared
                                .sink
                                .lock()
                                .expect("a worker panicked while holding the buffer sink")
                                .push(std::mem::take(&mut bactx.buf));
                            r
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("Par branch thread panicked"))
                    .collect()
            });
            for r in results {
                r?;
            }
            Ok(())
        }
        Program::Local { op, args } => {
            ctx.last = do_local(shared, actx, ctx, op, args)?;
            Ok(())
        }
        Program::Invoke {
            object,
            method,
            args,
        } => {
            ctx.last = do_invoke(shared, actx, ctx, object, method, args)?;
            Ok(())
        }
    }
}

fn do_local(
    shared: &Shared,
    actx: &mut ActCtx,
    ctx: &mut Ctx,
    op_name: &str,
    arg_exprs: &[obase_exec::Expr],
) -> Result<Value, Interrupt> {
    assert!(
        !ctx.object.is_environment(),
        "top-level transactions cannot issue local operations (the environment has no variables)"
    );
    let args: Vec<Value> = arg_exprs.iter().map(|e| e.eval(&ctx.args)).collect();
    let op = Operation::new(op_name.to_owned(), args);
    let object = ctx.object;
    loop {
        // The whole local step — operation-level request, provisional apply,
        // step-level validation, install and history record — is one
        // critical section on the object's store shard plus its scheduler
        // shard, exactly as it is one uninterruptible thread step in the
        // simulator. This pins the per-object conflict order seen by the
        // scheduler (admission order) to the state-application order and to
        // the recorded history order (the event's sequence number is drawn
        // inside this section); admission-order schedulers like conservative
        // NTO are incorrect without it. The lifecycle lock is never taken
        // here. Blocking decisions release both locks before parking.
        let mut slot = shared.store.lock_object(object);
        if shared.is_interrupted(ctx.top) {
            return Err(Interrupt);
        }
        let view = shared.index.view();
        let (sidx, mut shard) = shared.plane.lock_object_shard(object, &view);
        shared.note_touched(actx, ctx.top, sidx);
        match shard.sched().request_local(ctx.exec, object, &op, &view) {
            Decision::Grant => {}
            Decision::Abort(reason) => {
                drop(shard);
                drop(slot);
                process_abort(shared, actx, ctx.top, reason, false);
                return Err(Interrupt);
            }
            Decision::Block { waiting_for } => {
                park(
                    shared,
                    actx,
                    ctx.top,
                    waiting_for,
                    shard,
                    Some(slot),
                    object,
                    sidx,
                )?;
                continue;
            }
        }
        let (new_state, ret) = slot
            .provisional(&op)
            .unwrap_or_else(|e| panic!("malformed workload: {e}"));
        let step = LocalStep::new(op.clone(), ret.clone());
        match shard.sched().validate_step(ctx.exec, object, &step, &view) {
            Decision::Grant => {
                // Three consumers need the return value (store log, history
                // event, caller) and two need the operation (store log,
                // history event): the loop's originals move into the store,
                // the step's into the history — nothing is re-cloned here.
                shard
                    .sched()
                    .on_step_installed(ctx.exec, object, &step, &view);
                let out = ret.clone();
                let mirror = shared.vs.is_some().then(|| (op.clone(), ret.clone()));
                slot.install(ctx.exec, op, ret, new_state);
                let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
                let sid = rec.record_local(ctx.exec, step.op, step.ret);
                if let Some(prev) = ctx.prev_step {
                    rec.record_program_order(ctx.exec, prev, sid);
                }
                ctx.prev_step = Some(sid);
                if let Some((mop, mret)) = mirror {
                    // Mirrored inside the slot critical section, so the
                    // version store's pending queue per object is ordered
                    // exactly like the installed log (the prefix rule
                    // depends on it).
                    vs(shared)
                        .expect("mirror captured only when the store exists")
                        .note_install(ctx.top, object, sid, mop, mret);
                }
                shared.installed_steps.fetch_add(1, Ordering::Relaxed);
                drop(shard);
                drop(slot);
                if actx.olane.is_on() {
                    if !actx.granted {
                        actx.granted = true;
                        actx.olane.emit(ObsEvent::FirstGrant { top: ctx.top });
                    }
                    actx.olane.emit(ObsEvent::Install {
                        top: ctx.top,
                        object,
                    });
                }
                shared.bump();
                return Ok(out);
            }
            Decision::Abort(reason) => {
                drop(shard);
                drop(slot);
                process_abort(shared, actx, ctx.top, reason, false);
                return Err(Interrupt);
            }
            Decision::Block { waiting_for } => {
                park(
                    shared,
                    actx,
                    ctx.top,
                    waiting_for,
                    shard,
                    Some(slot),
                    object,
                    sidx,
                )?;
            }
        }
    }
}

fn do_invoke(
    shared: &Shared,
    actx: &mut ActCtx,
    ctx: &mut Ctx,
    objref: &obase_exec::ObjRef,
    method: &str,
    arg_exprs: &[obase_exec::Expr],
) -> Result<Value, Interrupt> {
    let target = objref.resolve(&ctx.args);
    let args: Vec<Value> = arg_exprs.iter().map(|e| e.eval(&ctx.args)).collect();
    // The invoke gate (flat object-granularity schedulers synchronise here).
    loop {
        let view = shared.index.view();
        let (sidx, mut shard) = shared.plane.lock_object_shard(target, &view);
        shared.note_touched(actx, ctx.top, sidx);
        // The interrupt check must come *after* the shard lock and the
        // touched registration: either our touch happened before the abort's
        // release read the touched set (then its `on_abort` visits this
        // shard and queues behind us, cleaning up anything we are granted),
        // or it happened after (then the abort's mark — which precedes that
        // read — is visible here and we bail before acquiring anything).
        // Checking before taking the shard would leave a window where an
        // aborted execution is granted resources the release pass already
        // missed — a permanent lock leak. (`do_local` gets the same
        // guarantee from its store-slot lock, which the undo phase must
        // queue behind.)
        if shared.is_interrupted(ctx.top) {
            return Err(Interrupt);
        }
        match shard
            .sched()
            .request_invoke(ctx.exec, target, method, &view)
        {
            Decision::Grant => break,
            Decision::Abort(reason) => {
                drop(shard);
                process_abort(shared, actx, ctx.top, reason, false);
                return Err(Interrupt);
            }
            Decision::Block { waiting_for } => {
                park(
                    shared,
                    actx,
                    ctx.top,
                    waiting_for,
                    shard,
                    None,
                    target,
                    sidx,
                )?;
            }
        }
    }
    if actx.olane.is_on() && !actx.granted {
        actx.granted = true;
        actx.olane.emit(ObsEvent::FirstGrant { top: ctx.top });
    }
    let mdef = shared
        .workload
        .def
        .method(target, method)
        .unwrap_or_else(|| panic!("object {target:?} has no method {method:?}"));
    let (msg, child) = {
        let mut l = life(shared);
        if shared.is_interrupted(ctx.top) {
            return Err(Interrupt);
        }
        let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
        let (msg, child) = l.kernel.register_nested(
            &mut rec,
            ctx.exec,
            target,
            method,
            args.clone(),
            ctx.prev_step,
        );
        shared.index.push(child, Some(ctx.exec), target);
        shared.plane.announce_begin(child, Some(ctx.exec), target);
        (msg, child)
    };
    control(shared).activities[actx.act].stack.push(child);
    shared.bump();
    ctx.prev_step = Some(msg);
    let mut cctx = Ctx {
        exec: child,
        top: ctx.top,
        object: target,
        args: Arc::new(args),
        prev_step: None,
        last: Value::Unit,
    };
    let result = run_program(shared, actx, &mut cctx, &mdef.body);
    {
        let mut c = control(shared);
        debug_assert_eq!(c.activities[actx.act].stack.last(), Some(&child));
        c.activities[actx.act].stack.pop();
    }
    result?;
    if shared.is_interrupted(ctx.top) {
        return Err(Interrupt);
    }
    // The child finished its program: certify and commit it (nested commit;
    // N2PL inherits locks to the parent here, certifiers validate). The
    // broadcasts visit only the shards this transaction touched.
    let touched = shared.touched_shards(ctx.top);
    let view = shared.index.view();
    if let Err(reason) = shared.plane.certify_commit(&touched, child, &view) {
        process_abort(shared, actx, ctx.top, reason, false);
        return Err(Interrupt);
    }
    shared.plane.on_commit(&touched, child, &view);
    {
        let mut l = life(shared);
        let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
        l.kernel
            .settle_commit_nested(&mut rec, child, msg, cctx.last.clone());
    }
    shared.index.clear_flags(child, LIVE);
    shared.bump();
    // Targeted wakeup: only transactions blocked behind the child (whose
    // locks just moved to the parent or were released) re-request.
    shared.waiters.wake_released(&[child]);
    Ok(cctx.last)
}

fn commit_top_level(shared: &Shared, actx: &mut ActCtx, top: ExecId) {
    if shared.is_interrupted(top) {
        handle_interrupt(shared, actx, top);
        return;
    }
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::CertifyBegin { top });
    }
    let touched = shared.touched_shards(top);
    let view = shared.index.view();
    if let Err(reason) = shared.plane.certify_commit(&touched, top, &view) {
        process_abort(shared, actx, top, reason, false);
        return;
    }
    shared.plane.on_commit(&touched, top, &view);
    // Settling serialises with doom decisions through the lifecycle lock: a
    // cascade that condemned this transaction before we settled wins, and
    // the owner (us) processes the abort instead of committing.
    let subtree = {
        let mut l = life(shared);
        if l.doomed.contains_key(&top) {
            None
        } else {
            let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
            l.kernel.settle_commit_top(&mut rec, top);
            if let Some(mut vs) = vs(shared) {
                // Inside the lifecycle section, so the commit's publication
                // attempt serialises with doom decisions: a cascade that
                // condemns this transaction either sees it committed here
                // (and note_aborts it under its publication freeze) or wins
                // outright above.
                vs.note_commit(top);
            }
            Some(l.kernel.execs.subtree_of(top))
        }
    };
    let Some(subtree) = subtree else {
        handle_interrupt(shared, actx, top);
        return;
    };
    shared.index.clear_flags(top, LIVE);
    shared.index.set_flags(top, COMMITTED);
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::Commit { top });
    }
    shared.bump();
    // Targeted wakeup: the transaction's locks (held by its executions) are
    // released; wake exactly the waiters blocked behind them.
    shared.waiters.wake_released(&subtree);
}

// ----- gates and blocking ---------------------------------------------------

/// Parks the activity on its signal after registering it in the waiter
/// registry — *while still holding the scheduler-shard lock* that produced
/// the `Block` decision, so a release racing with the registration cannot be
/// missed. The store slot (if held) and the shard lock are released before
/// sleeping. Wakes on a targeted notification or the tick backstop, then
/// returns for the caller to re-request.
#[allow(clippy::too_many_arguments)]
fn park(
    shared: &Shared,
    actx: &mut ActCtx,
    top: ExecId,
    waiting_for: Vec<ExecId>,
    shard: crate::sched_plane::ShardGuard<'_>,
    slot: Option<ObjectSlot<'_>>,
    object: ObjectId,
    sidx: usize,
) -> Result<(), Interrupt> {
    shared.blocked_events.fetch_add(1, Ordering::Relaxed);
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::BlockBegin {
            top,
            object,
            shard: sidx,
        });
    }
    control(shared).activities[actx.act].blocked_on = waiting_for.clone();
    let token = shared.waiters.register(top, waiting_for, &actx.signal);
    drop(shard);
    drop(slot);
    actx.signal.wait_timeout(shared.params.monitor_tick);
    shared.waiters.deregister(token);
    control(shared).activities[actx.act].blocked_on.clear();
    if actx.olane.is_on() {
        actx.olane.emit(ObsEvent::BlockEnd {
            top,
            object,
            shard: sidx,
        });
    }
    if shared.is_interrupted(top) {
        Err(Interrupt)
    } else {
        Ok(())
    }
}

/// The owning worker noticed its transaction was doomed (or the run is
/// shutting down): perform the abort it was condemned to.
fn handle_interrupt(shared: &Shared, actx: &mut ActCtx, top: ExecId) {
    let verdict = {
        let l = life(shared);
        if l.kernel.execs.record(top).aborted {
            None // an inline Abort decision already processed it
        } else if let Some(v) = l.doomed.get(&top) {
            Some(v.clone())
        } else {
            debug_assert!(
                shared.shutdown.load(Ordering::Acquire),
                "interrupted but neither doomed nor shut down"
            );
            Some((
                AbortReason::Other("wall-clock deadline exceeded".into()),
                false,
            ))
        }
    };
    if let Some((reason, cascade)) = verdict {
        process_abort(shared, actx, top, reason, cascade);
    }
}

// ----- aborts ---------------------------------------------------------------

/// This backend's side of the shared abort loop. Each phase takes (and
/// releases) its own locks, so the store undo in phase 2 runs without any
/// control-plane lock — workers keep making progress elsewhere while the
/// scheduler still holds the victim's resources, which is what keeps strict
/// schedulers cascade-free. A cascade victim still running on some worker is
/// not torn down in place: it is *doomed* (under the lifecycle lock, so the
/// verdict serialises with commit settling), and its owner unwinds and
/// aborts it at its next gate.
struct ParDriver<'s, 'a> {
    shared: &'s Shared,
    actx: &'a mut ActCtx,
}

impl ExecutionDriver for ParDriver<'_, '_> {
    fn mark_aborted(
        &mut self,
        top: ExecId,
        reason: &AbortReason,
        cascade: bool,
    ) -> Option<Vec<ExecId>> {
        let shared = self.shared;
        let subtree = {
            let mut l = life(shared);
            l.doomed.remove(&top);
            let mut rec = BufferedRecorder::new(&shared.clock, &mut self.actx.buf);
            let subtree = l
                .kernel
                .mark_abort_subtree(&mut rec, top, reason, cascade)?;
            for &e in &subtree {
                shared.index.set_flags(e, ABORTED);
                shared.index.clear_flags(e, LIVE);
            }
            subtree
            // The owning worker's threads of control are not torn down here:
            // they observe the aborted mark at their next gate and unwind.
        };
        // Wake any of the victim's own parked activities so they unwind.
        shared.waiters.wake_top(top);
        Some(subtree)
    }

    fn undo_steps(&mut self, aborted: &BTreeSet<ExecId>) -> (usize, BTreeSet<ExecId>) {
        self.shared.store.undo(aborted)
    }

    fn release_aborted(
        &mut self,
        top: ExecId,
        subtree: &[ExecId],
        removed_steps: usize,
        invalidated: BTreeSet<ExecId>,
    ) -> Vec<ExecId> {
        let shared = self.shared;
        if let Some(mut vs) = vs(shared) {
            // Drop the victim's unpublished mirror entries. The publication
            // freeze around `resolve_abort` suppresses the retry this
            // triggers until the whole cascade has been marked, so a
            // committed-but-doomed victim can never look publishable
            // mid-cascade.
            vs.note_abort(top);
        }
        // Scheduler resources are released strictly after the store undo
        // (the shared loop's phase order), children before parents, on the
        // touched shards only.
        let touched = shared.touched_shards(top);
        let view = shared.index.view();
        shared.plane.on_abort_subtree(&touched, subtree, &view);
        let (retried, inline, retry_spec) = {
            let mut l = life(shared);
            let allow_retry = !shared.shutdown.load(Ordering::Acquire);
            let release = l
                .kernel
                .account_release(top, removed_steps, invalidated, allow_retry);
            let retry_spec = if release.retried {
                l.kernel.execs.record(top).spec
            } else {
                None
            };
            let mut inline = Vec::new();
            for v in release.victims {
                if l.doomed.contains_key(&v.top) {
                    continue;
                }
                if v.committed {
                    // No worker owns a committed transaction any more: this
                    // thread processes the cascade itself. (Read under the
                    // same lifecycle section as the doom decision, so a
                    // racing commit cannot slip between.)
                    inline.push(v.top);
                } else {
                    // Still running on some worker: condemn it and let its
                    // owner unwind and abort it at the next gate.
                    l.doomed
                        .insert(v.top, (AbortReason::CascadingDirtyRead, true));
                    shared.index.set_flags(v.top, DOOMED);
                    shared.waiters.wake_top(v.top);
                }
            }
            (release.retried, inline, retry_spec)
        };
        if self.actx.olane.is_on() {
            self.actx.olane.emit(ObsEvent::Abort { top });
            if let Some((spec, attempt)) = retry_spec {
                self.actx.olane.emit(ObsEvent::Retry {
                    spec,
                    attempt: attempt + 1,
                });
            }
        }
        shared.bump();
        // Targeted wakeup: the victim's resources are gone; wake exactly the
        // waiters blocked behind its executions.
        shared.waiters.wake_released(subtree);
        if retried {
            // One idle worker picks up the re-queued attempt.
            shared.work_cv.notify_one();
        }
        inline
    }
}

/// Aborts a top-level transaction through the shared kernel loop (see
/// [`ParDriver`] for this backend's phase discipline).
fn process_abort(
    shared: &Shared,
    actx: &mut ActCtx,
    top: ExecId,
    reason: AbortReason,
    cascade: bool,
) {
    // Freeze version publication across the whole abort loop (all cascade
    // iterations included): dropping a writer's mirror entries can make a
    // committed victim's entries transiently form a publishable log prefix
    // before that victim is marked aborted, and publishing that cut would
    // expose dirty state to snapshot readers. Thawing retries publication
    // once every victim is settled.
    if let Some(mut vs) = vs(shared) {
        vs.freeze();
    }
    resolve_abort(&mut ParDriver { shared, actx }, top, reason, cascade);
    if let Some(mut vs) = vs(shared) {
        vs.thaw();
    }
}

// ----- the monitor ----------------------------------------------------------

/// The deadlock/deadline ticker, run on the calling thread while the workers
/// run on the pool: on every tick it rebuilds the waits-for graph from the
/// registered activities (stack edges for parents waiting on invoked
/// children, blocked edges from scheduler `Block` decisions), dooms the
/// youngest execution's transaction on any cycle (with a targeted wakeup of
/// that transaction only), and enforces the wall-clock deadline. Returns
/// once the run settles or the workers are done. A poisoned lock means a
/// worker panicked: the monitor returns and the latch reports the panic.
fn monitor_loop(shared: &Shared, done: &Latch, started: Instant) {
    let mut mlane = if shared.obs.is_on() {
        shared.obs.lane("control")
    } else {
        ObsLane::off()
    };
    loop {
        if done.wait_timeout(shared.params.monitor_tick) {
            return;
        }
        let Ok(mut l) = shared.life.lock() else {
            return;
        };
        if l.settled() {
            return;
        }
        if !shared.shutdown.load(Ordering::Acquire) && started.elapsed() > shared.params.deadline {
            shared.shutdown.store(true, Ordering::Release);
            l.kernel.metrics.timed_out = true;
            l.kernel.clear_queue();
            l.held.clear();
            drop(l);
            shared.bump();
            shared.waiters.wake_all();
            shared.work_cv.notify_all();
            continue;
        }
        let Ok(c) = shared.control.lock() else {
            return;
        };
        if let Some(victim) = deadlock_victim(&l, &c) {
            l.kernel.metrics.deadlocks += 1;
            if let Some((spec, _)) = l.kernel.execs.record(victim).spec {
                let after = blockers_of(&l, &c, victim);
                l.retry_after.insert(spec, after);
            }
            l.doomed.insert(victim, (AbortReason::Deadlock, false));
            shared.index.set_flags(victim, DOOMED);
            drop(c);
            drop(l);
            mlane.emit(ObsEvent::Doom { top: victim });
            shared.bump();
            // Targeted: only the victim's parked activities are woken.
            shared.waiters.wake_top(victim);
        }
    }
}

/// `true` if every one of `tops` has committed or aborted.
fn all_settled(execs: &ExecTable, tops: &[ExecId]) -> bool {
    tops.iter().all(|&t| {
        let r = execs.record(t);
        r.committed || r.aborted
    })
}

/// The top-level transactions other than `top` that `top`'s blocked
/// activities wait for.
fn blockers_of(l: &Life, c: &Control, top: ExecId) -> Vec<ExecId> {
    let execs = &l.kernel.execs;
    c.activities
        .iter()
        .filter(|a| a.active && a.stack.first().is_some_and(|&e| execs.top_of(e) == top))
        .flat_map(|a| &a.blocked_on)
        .filter(|owner| owner.index() < execs.len())
        .map(|&owner| execs.top_of(owner))
        .filter(|&t| t != top)
        .collect()
}

/// Scans the registered activities for a waits-for cycle and applies the
/// kernel's shared victim rule (the youngest execution's top-level
/// transaction), additionally skipping transactions already doomed.
fn deadlock_victim(l: &Life, c: &Control) -> Option<ExecId> {
    // Cheap pre-check: cycles need at least one blocked edge.
    if c.activities
        .iter()
        .all(|a| !a.active || a.blocked_on.is_empty())
    {
        return None;
    }
    let mut g: DiGraph<ExecId> = DiGraph::new();
    for a in c.activities.iter().filter(|a| a.active) {
        for w in a.stack.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let Some(&holder) = a.stack.last() else {
            continue;
        };
        for &owner in &a.blocked_on {
            if owner == holder || owner.index() >= l.kernel.execs.len() {
                continue;
            }
            g.add_edge(holder, owner);
        }
    }
    let victim = l.kernel.execs.deadlock_victim(&g)?;
    if l.doomed.contains_key(&victim) {
        return None;
    }
    Some(victim)
}
