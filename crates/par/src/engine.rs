//! The parallel execution engine: worker loops over the sharded store and
//! the decomposed control plane, the first on the calling thread and the
//! rest on the resident pool.
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
//! the gates that turn [`Decision::Block`] into targeted parking, deadlock
//! detection at park, the deadline and the doomed-victim protocol. The run
//! owns its state behind an `Arc`, so pool threads borrow nothing from the
//! caller.

use crate::exec_index::{ExecIndex, ABORTED, COMMITTED, DOOMED, LIVE};
use crate::pool::{Job, Pool};
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
use obase_exec::{ExecParams, Program, RunResult, TxnSpec, WorkloadSpec};
use obase_obs::{LaneId, ObsEvent, ObsHandle, ObsLane};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a parked activity or an idle worker waits before it looks again
/// (the re-poll backstop; a re-park re-runs deadlock detection).
const MONITOR_TICK: Duration = Duration::from_millis(1);

/// Parameters of a parallel run.
#[derive(Clone, Debug)]
pub struct ParParams {
    /// Number of workers (at most one per transaction is used); each runs
    /// one top-level transaction at a time, so this is also the maximum
    /// inter-transaction concurrency.
    pub workers: usize,
    /// How many times an aborted top-level transaction is re-submitted.
    pub max_retries: u32,
    /// Wall-clock bound on the whole run (guards against livelock; the run
    /// is flagged `timed_out` if it trips).
    pub deadline: Duration,
    /// Number of store (and scheduler-plane) shards; `0` applies the
    /// default — the next power of two at least twice the worker count.
    pub shards: usize,
}

impl Default for ParParams {
    fn default() -> Self {
        ParParams {
            workers: 4,
            max_retries: 16,
            deadline: Duration::from_secs(10),
            shards: 0,
        }
    }
}

impl ParParams {
    /// Derives parallel parameters from the simulator's knob set: only the
    /// retry budget carries over. `workers` replaces `clients` as the
    /// concurrency cap, and this struct's wall-clock deadline replaces the
    /// round bound.
    pub fn from_exec(params: &ExecParams, workers: usize) -> Self {
        ParParams {
            workers,
            max_retries: params.max_retries,
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
/// `Par` branch. Deadlock detection derives the waits-for graph from these;
/// a released slot has both vectors empty and so adds no edge.
#[derive(Debug, Default)]
struct Activity {
    /// The chain of executions this activity is currently inside, outermost
    /// first (an edge `stack[i] → stack[i+1]` means "waits for its invoked
    /// child").
    stack: Vec<ExecId>,
    /// The executions a blocked scheduler decision named as holding the
    /// conflicting resources (empty while runnable).
    blocked_on: Vec<ExecId>,
}

/// Behind the lifecycle mutex: the shared kernel plus the admission state
/// that must be read atomically with its queue.
struct Life {
    kernel: LifecycleKernel,
    /// Top-level transactions currently running on some worker.
    running: usize,
    /// Live top-level transactions condemned to abort (by deadlock
    /// detection or by cascade), with the reason; the owning worker performs
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

/// Behind the thread-bookkeeping mutex: activity stacks for deadlock
/// detection and the per-transaction touched-shard sets for targeted
/// broadcasts.
#[derive(Default)]
struct Control {
    activities: Vec<Activity>,
    /// Released activity slots, reused first, so detection scans few dead.
    free: Vec<usize>,
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
    /// When the run began; [`ParParams::deadline`] counts from here.
    started: Instant,
    /// The run's own handle on the workload (`ObjectBaseDef` clones in
    /// O(1)), so resident pool threads borrow nothing from the caller.
    workload: WorkloadSpec,
    params: ParParams,
    obs: ObsHandle,
}

/// The transaction currently being executed must stop: it was doomed (a
/// deadlock or cascade victim), its scheduler answered `Abort`, or the run
/// is shutting down. Unwinds the program walker back to the worker loop.
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

impl Shared {
    /// Hands an activity's event buffer to the run's sink.
    fn flush(&self, buf: &mut EventBuffer) {
        self.sink
            .lock()
            .expect("a worker panicked while holding the buffer sink")
            .push(std::mem::take(buf));
    }

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

/// Executes a workload against the sharded store, under the given
/// scheduler, on `min(workers, transactions)` workers: the calling thread is
/// worker 0 and resident pool threads run the rest, so a run of one
/// transaction touches no other thread. Blocking decisions park the worker
/// in the waiter registry until a targeted wakeup (or the tick backstop).
///
/// The returned [`RunResult`] has exactly the simulator's shape: a committed
/// (legal) history, the raw history including aborted attempts, and the run
/// metrics — so every post-hoc theory check applies unchanged.
///
/// Lifecycle events go to `obs`: each worker buffers its events on an own
/// `worker-N` lane (`Par` branches on `branch` lanes, dooms and submissions
/// on `control`), flushed at transaction boundaries — no new
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
    let configured = params.workers.max(1);
    let params = ParParams {
        workers: configured.min(workload.transactions.len()).max(1),
        ..params.clone()
    };
    let base = Arc::clone(workload.def.base());
    let shards = params.effective_shards();
    let kernel = LifecycleKernel::new(
        Arc::clone(&base),
        workload.transactions.len(),
        params.max_retries,
        scheduler.name(),
        format!("parallel({configured})"),
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
        started: Instant::now(),
        workload: workload.clone(),
        obs: obs.clone(),
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
    let jobs: Vec<Job> = (1..shared.params.workers)
        .map(|widx| {
            let shared = Arc::clone(&shared);
            Box::new(move || worker_loop(&shared, widx)) as Job
        })
        .collect();
    let latch = (!jobs.is_empty()).then(|| pool.submit(jobs));
    let caller_panicked = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, 0))).is_err();
    let pool_panicked = latch.is_some_and(|latch| latch.wait());
    if caller_panicked || pool_panicked {
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
    kernel.metrics.wall_micros = shared.started.elapsed().as_micros() as u64;
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
/// down at their next gate or tick; the panic itself reaches the caller
/// through `catch_unwind` (worker 0) or the pool's latch (the others).
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
    let _stop = StopOnPanic(shared);
    loop {
        let pending = {
            let mut l = life(shared);
            loop {
                if trip_deadline(shared, &mut l) {
                    break None;
                }
                if let Some(p) = l.next_admissible() {
                    l.running += 1;
                    break Some(p);
                }
                if l.running == 0 {
                    break None;
                }
                l = shared
                    .work_cv
                    .wait_timeout(l, MONITOR_TICK)
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
        olane: shared.obs.lane(LaneId::worker(widx)),
        granted: false,
    };
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
    shared.flush(&mut actx.buf);
}

fn alloc_activity(c: &mut Control, root: ExecId) -> usize {
    let act = c.free.pop().unwrap_or(c.activities.len());
    if act == c.activities.len() {
        c.activities.push(Activity::default());
    }
    c.activities[act].stack.push(root);
    act
}

fn release_activity(shared: &Shared, act: usize) {
    let mut c = control(shared);
    c.activities[act].blocked_on.clear();
    c.activities[act].stack.clear();
    c.free.push(act);
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
                                olane: shared.obs.lane("branch"),
                                granted,
                            };
                            let r = run_program(shared, &mut bactx, &mut bctx, branch);
                            release_activity(shared, bactx.act);
                            shared.flush(&mut bactx.buf);
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
                slot.install(ctx.exec, op, ret, new_state);
                let mut rec = BufferedRecorder::new(&shared.clock, &mut actx.buf);
                let sid = rec.record_local(ctx.exec, step.op, step.ret);
                if let Some(prev) = ctx.prev_step {
                    rec.record_program_order(ctx.exec, prev, sid);
                }
                ctx.prev_step = Some(sid);
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
/// [`detect`] (if needed) and sleeping. Wakes on a targeted notification or
/// the tick backstop, then returns for the caller to re-request.
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
    let closes = {
        let mut c = control(shared);
        c.activities[actx.act].blocked_on = waiting_for.clone();
        cycle_graph(&c, actx.act).is_some()
    };
    let token = shared.waiters.register(top, waiting_for, &actx.signal);
    drop(shard);
    drop(slot);
    if closes || shared.started.elapsed() >= shared.params.deadline {
        detect(shared, actx.act);
    }
    actx.signal.wait_timeout(MONITOR_TICK);
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
    resolve_abort(&mut ParDriver { shared, actx }, top, reason, cascade);
}

// ----- deadlocks and the deadline -------------------------------------------

/// Continuous deadlock detection, run by a park whose blocked edge closed a
/// waits-for cycle (or that found the deadline passed) once its shard and
/// slot guards are dropped: trips the deadline, else dooms the kernel's
/// victim on the cycle (the youngest execution's transaction) and wakes it.
/// Only a new blocked edge can close a cycle, and the last one registered
/// sees the others, so every cycle is found by the park that closes it.
fn detect(shared: &Shared, act: usize) {
    let mut l = life(shared);
    if trip_deadline(shared, &mut l) {
        return;
    }
    let c = control(shared);
    let Some(victim) = cycle_graph(&c, act)
        .and_then(|g| l.kernel.execs.deadlock_victim(&g))
        .filter(|v| !l.doomed.contains_key(v))
    else {
        return;
    };
    l.kernel.metrics.deadlocks += 1;
    if let Some((spec, _)) = l.kernel.execs.record(victim).spec {
        let after = blockers_of(&l, &c, victim);
        l.retry_after.insert(spec, after);
    }
    l.doomed.insert(victim, (AbortReason::Deadlock, false));
    shared.index.set_flags(victim, DOOMED);
    drop(c);
    drop(l);
    let mut lane = shared.obs.lane("control");
    lane.emit(ObsEvent::Doom { top: victim });
    shared.bump();
    // Targeted: only the victim's parked activities are woken.
    shared.waiters.wake_top(victim);
}

/// The waits-for edges reachable from activity `act`'s innermost execution
/// (stack edges to invoked children, blocked edges from `Block` decisions),
/// if they lead back to it, so that its blocked edge closes a cycle; `None`
/// for most parks. It searches only the live activities it reaches.
fn cycle_graph(c: &Control, act: usize) -> Option<DiGraph<ExecId>> {
    let &holder = c.activities[act].stack.last()?;
    let (mut g, mut todo, mut closed) = (DiGraph::new(), vec![holder], false);
    while let Some(e) = todo.pop() {
        for a in &c.activities {
            let Some(i) = a.stack.iter().position(|&x| x == e) else {
                continue;
            };
            let next = match a.stack.get(i + 1) {
                Some(child) => std::slice::from_ref(child),
                None => &a.blocked_on[..],
            };
            for &n in next.iter().filter(|&&n| n != e) {
                closed |= n == holder;
                if !g.has_node(n) {
                    todo.push(n);
                }
                g.add_edge(e, n);
            }
        }
    }
    closed.then_some(g)
}

/// Shuts the run down once its deadline has passed: flags it `timed_out`,
/// empties the queue and wakes everyone to unwind. `true` if shut down.
fn trip_deadline(shared: &Shared, l: &mut Life) -> bool {
    let shut = shared.shutdown.load(Ordering::Acquire);
    if shut || shared.started.elapsed() < shared.params.deadline {
        return shut;
    }
    shared.shutdown.store(true, Ordering::Release);
    l.kernel.metrics.timed_out = true;
    l.kernel.clear_queue();
    l.held.clear();
    shared.bump();
    shared.waiters.wake_all();
    shared.work_cv.notify_all();
    true
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
        .filter(|a| a.stack.first().is_some_and(|&e| execs.top_of(e) == top))
        .flat_map(|a| &a.blocked_on)
        .filter(|owner| owner.index() < execs.len())
        .map(|&owner| execs.top_of(owner))
        .filter(|&t| t != top)
        .collect()
}
