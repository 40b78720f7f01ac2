//! The TCP server: listener, sessions, admission queue, batch executor.
//!
//! ## Threading model
//!
//! One *listener* thread accepts connections and spawns one *session*
//! thread per client (blocking reads; hundreds of sessions are fine on a
//! thread apiece). One *executor* thread drains the bounded admission
//! queue into ingress batches and runs each batch as a workload on the
//! parallel backend via the ordinary [`Runtime`]. Result frames are
//! written back by the executor through a per-session write lock, so a
//! session's reader thread and the executor never interleave bytes.
//!
//! ## Admission and backpressure
//!
//! A submission is validated against the served object base *before* it
//! is queued (unknown methods, arity mismatches, top-level local steps or
//! unresolved parameters are rejected without poisoning anyone else's
//! batch) and then admitted into a queue bounded by
//! [`ServeConfig::queue_depth`]. A full queue answers with a typed
//! [`RejectReason::QueueFull`] frame immediately — backpressure is an
//! answer, never a hang.
//!
//! ## Batching and state carry-forward
//!
//! Whenever it is free, the executor takes whatever is admitted, up to
//! [`ServeConfig::batch_max`] transactions, without waiting for more: a
//! lone submission runs at once, and under load the queue refills while a
//! batch runs. It runs the batch as one workload under
//! [`Verify::Quick`], then writes the committed final states that the
//! batch's legality check replayed
//! ([`RunReport::final_states`](obase_runtime::RunReport::final_states))
//! into the object base as its new initial states, in place and only for
//! the objects the batch touched, so the next batch continues the same
//! world. That replay is the only one a batch pays for. An illegal batch
//! has no final states: it leaves the world as it was and counts as an
//! oracle failure. Because batches are totally ordered, the per-batch
//! committed histories merge into one admitted history
//! ([`crate::merge_histories`]) that [`obase_core::oracle::check`]
//! accepts or refutes wholesale.
//!
//! ## Reconcile
//!
//! [`Server::reconcile`] swaps the desired [`ServeConfig`] atomically and
//! reports which fields changed. The batch in flight finishes under the
//! old config; the next batch picks up the new scheduler, worker count
//! and batching knobs. Scheduler instances are per-batch, and each batch
//! asks the parallel backend's resident worker pool for as many workers
//! as its config names (the pool grows to the largest count ever asked
//! for and keeps its threads), so "drain and resize" needs no extra
//! machinery and no admitted transaction is ever dropped.

use crate::config::ServeConfig;
use crate::oracle::merge_histories;
use crate::wire::{self, Frame, RejectReason, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use obase_core::history::History;
use obase_exec::{Expr, ObjRef, ObjectBaseDef, Program, RunMetrics, TxnSpec, WorkloadSpec};
use obase_obs::{Histogram, LatencyReport};
use obase_runtime::{ConfigError, ExecutionBackend, Observe, Runtime, Verify};
use obase_ser::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a server failed to start.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The config was invalid.
    Config(ConfigError),
    /// Binding the listener failed.
    Bind(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid serve config: {e}"),
            ServeError::Bind(e) => write!(f, "bind failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

/// Most leaf nodes a submitted transaction tree may carry.
pub const MAX_TXN_LEAVES: usize = 4096;

/// One admitted submission waiting for (or inside) a batch.
struct Pending {
    /// Unique in-world transaction name.
    name: String,
    /// Client correlation id.
    id: u64,
    /// Owning session.
    session: u64,
    /// The transaction tree.
    body: Program,
    /// Admission instant, for end-to-end latency.
    enqueued: Instant,
}

/// Admission-queue state under one lock.
struct QueueState {
    pending: VecDeque<Pending>,
    /// Transactions currently executing in a batch.
    in_flight: usize,
    draining: bool,
    shutdown: bool,
    admitted: u64,
}

/// Aggregated world state: the evolving object-base definition plus
/// everything the status document reports.
struct WorldState {
    def: ObjectBaseDef,
    batches: u64,
    metrics: RunMetrics,
    latency: Option<LatencyReport>,
    /// Admission-to-settlement latency, microseconds.
    e2e: Histogram,
    /// Per-batch committed histories (only under `keep_history`).
    histories: Vec<History>,
    committed: u64,
    gave_up: u64,
    results_sent: u64,
    send_failures: u64,
    /// Batches whose report failed its own theory checks (an illegal
    /// batch among them, which also leaves the world unchanged). Always
    /// zero unless the engine has a bug; surfaced in the status document
    /// rather than panicking a server.
    oracle_failures: u64,
    /// Batches refused by the runtime with a typed error.
    batch_errors: u64,
}

/// One connected session: the stream (shared between its reader thread
/// and the executor's result writer) behind a write lock.
struct Session {
    stream: Arc<TcpStream>,
    write_lock: Mutex<()>,
}

impl Session {
    fn write(&self, frame: &Frame) -> Result<(), WireError> {
        let _guard = self.write_lock.lock().expect("session write lock");
        wire::write_frame(&mut &*self.stream, frame)
    }
}

struct Shared {
    name: String,
    cfg: Mutex<ServeConfig>,
    queue: Mutex<QueueState>,
    /// Signals the executor (new work / shutdown) and batch completions.
    work_cv: Condvar,
    /// Signals drain waiters (queue empty and nothing in flight).
    idle_cv: Condvar,
    world: Mutex<WorldState>,
    sessions: Mutex<BTreeMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    stop: AtomicBool,
}

/// What a server hands back when it shuts down.
pub struct ServeSummary {
    /// Submissions admitted into the queue over the server's lifetime.
    pub admitted: u64,
    /// Admitted transactions that committed.
    pub committed: u64,
    /// Admitted transactions that exhausted their retry budget.
    pub gave_up: u64,
    /// Ingress batches executed.
    pub batches: u64,
    /// Batches that failed their own theory checks (engine bug if ever
    /// non-zero).
    pub oracle_failures: u64,
    /// Merged per-batch metrics.
    pub metrics: RunMetrics,
    /// Merged per-phase latency report.
    pub latency: Option<LatencyReport>,
    /// Admission-to-settlement latency histogram (microseconds).
    pub e2e: Histogram,
    /// The merged admitted history (only under
    /// [`ServeConfig::keep_history`]).
    pub history: Option<History>,
}

/// A running TCP front end over one object base.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    listener_thread: Option<JoinHandle<()>>,
    executor_thread: Option<JoinHandle<()>>,
    session_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `world` under `config`.
    pub fn bind(
        world: ObjectBaseDef,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<Server, ServeError> {
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let shared = Arc::new(Shared {
            name: format!("obase-serve/{}", env!("CARGO_PKG_VERSION")),
            cfg: Mutex::new(config),
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                in_flight: 0,
                draining: false,
                shutdown: false,
                admitted: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            world: Mutex::new(WorldState {
                def: world,
                batches: 0,
                metrics: RunMetrics::default(),
                latency: None,
                e2e: Histogram::new(),
                histories: Vec::new(),
                committed: 0,
                gave_up: 0,
                results_sent: 0,
                send_failures: 0,
                oracle_failures: 0,
                batch_errors: 0,
            }),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let session_threads = Arc::new(Mutex::new(Vec::new()));
        let listener_thread = {
            let shared = Arc::clone(&shared);
            let threads = Arc::clone(&session_threads);
            std::thread::spawn(move || listen_loop(&shared, &listener, &threads))
        };
        let executor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(&shared))
        };
        Ok(Server {
            shared,
            addr,
            listener_thread: Some(listener_thread),
            executor_thread: Some(executor_thread),
            session_threads,
        })
    }

    /// Binds a server over a compiled scenario's object base: the handy
    /// constructor for tests, the load generator and the fuzzer (clients
    /// then submit the scenario's own compiled transaction bodies).
    pub fn for_scenario(
        scenario: &obase_scenario::Scenario,
        config: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<Server, ServeError> {
        Server::bind(scenario.compile_def(), config, addr)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reconciles the server to `desired`: validates, swaps atomically,
    /// and returns the names of the fields that actually changed (empty
    /// means the desired state already held — reconciling is idempotent).
    /// Takes effect at the next batch boundary; nothing in flight is
    /// dropped.
    pub fn reconcile(&self, desired: ServeConfig) -> Result<Vec<&'static str>, ConfigError> {
        reconcile(&self.shared, desired)
    }

    /// The current desired config.
    pub fn config(&self) -> ServeConfig {
        self.shared.cfg.lock().expect("config lock").clone()
    }

    /// Stops admitting (submissions are rejected with
    /// [`RejectReason::Draining`]) and blocks until the queue is empty and
    /// no batch is in flight. Admission resumes with [`Server::resume`].
    pub fn drain(&self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.draining = true;
            while !(q.pending.is_empty() && q.in_flight == 0) {
                q = self.shared.idle_cv.wait(q).expect("queue lock");
            }
        }
    }

    /// Re-opens admission after a [`Server::drain`].
    pub fn resume(&self) {
        self.shared.queue.lock().expect("queue lock").draining = false;
    }

    /// The status document (same shape a `status` frame answers with).
    pub fn status(&self) -> Json {
        status_json(&self.shared)
    }

    /// Drains, stops every thread, and returns the lifetime summary.
    pub fn shutdown(mut self) -> ServeSummary {
        self.drain();
        self.stop();
        let threads = std::mem::take(&mut *self.session_threads.lock().expect("threads lock"));
        for t in threads {
            let _ = t.join();
        }
        let q = self.shared.queue.lock().expect("queue lock");
        let admitted = q.admitted;
        drop(q);
        let mut w = self.shared.world.lock().expect("world lock");
        ServeSummary {
            admitted,
            committed: w.committed,
            gave_up: w.gave_up,
            batches: w.batches,
            oracle_failures: w.oracle_failures,
            metrics: std::mem::take(&mut w.metrics),
            latency: w.latency.take(),
            e2e: std::mem::replace(&mut w.e2e, Histogram::new()),
            history: merge_histories(&w.histories),
        }
    }

    /// Closes admission, wakes and joins the listener and the executor, and
    /// unblocks every session reader. Idempotent.
    fn stop(&mut self) {
        if self.listener_thread.is_none() && self.executor_thread.is_none() {
            return;
        }
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.draining = true;
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for session in self.shared.sessions.lock().expect("sessions lock").values() {
            let _ = session.stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.executor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not shut-down) server still stops its threads.
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Admission.

/// Validates a submitted transaction tree against the served object base.
/// Everything the runtime's own workload validation would refuse must be
/// refused here, so one bad submission can never poison a batch.
fn validate_txn(def: &ObjectBaseDef, body: &Program) -> Result<(), String> {
    if body.leaf_count() > MAX_TXN_LEAVES {
        return Err(format!(
            "transaction tree has {} leaves (cap {MAX_TXN_LEAVES})",
            body.leaf_count()
        ));
    }
    validate_top(def, body)
}

fn validate_top(def: &ObjectBaseDef, p: &Program) -> Result<(), String> {
    match p {
        Program::Local { op, .. } => Err(format!(
            "local operation {op:?} at transaction top level (top-level steps must be invocations)"
        )),
        Program::Invoke {
            object,
            method,
            args,
        } => {
            let id = match object {
                ObjRef::Const(id) => *id,
                ObjRef::Param(i) => {
                    return Err(format!(
                        "unresolved object parameter {i} at transaction top level"
                    ))
                }
            };
            if id.index() >= def.base().len() {
                return Err(format!("unknown object id {}", id.0));
            }
            let m = def
                .method(id, method)
                .ok_or_else(|| format!("object {} defines no method {method:?}", id.0))?;
            if m.params != args.len() {
                return Err(format!(
                    "method {method:?} takes {} arguments, got {}",
                    m.params,
                    args.len()
                ));
            }
            for a in args {
                if let Expr::Param(i) = a {
                    return Err(format!(
                        "unresolved argument parameter {i} at transaction top level"
                    ));
                }
            }
            Ok(())
        }
        Program::Seq(ps) | Program::Par(ps) => {
            for p in ps {
                validate_top(def, p)?;
            }
            Ok(())
        }
    }
}

/// Validates `desired`, swaps it in atomically and returns the names of the
/// fields that changed.
fn reconcile(shared: &Shared, desired: ServeConfig) -> Result<Vec<&'static str>, ConfigError> {
    desired.validate()?;
    let mut cfg = shared.cfg.lock().expect("config lock");
    let changed = cfg.diff(&desired);
    *cfg = desired;
    Ok(changed)
}

fn try_admit(shared: &Shared, pending: Pending) -> Result<(), RejectReason> {
    let depth = shared.cfg.lock().expect("config lock").queue_depth;
    let mut q = shared.queue.lock().expect("queue lock");
    if q.draining || q.shutdown {
        return Err(RejectReason::Draining);
    }
    if q.pending.len() >= depth {
        return Err(RejectReason::QueueFull { depth });
    }
    q.pending.push_back(pending);
    q.admitted += 1;
    shared.work_cv.notify_all();
    Ok(())
}

// ---------------------------------------------------------------------------
// Sessions.

fn listen_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || session_loop(&shared, stream));
        threads.lock().expect("threads lock").push(handle);
    }
}

fn session_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    let session = Arc::new(Session {
        stream: Arc::clone(&stream),
        write_lock: Mutex::new(()),
    });

    // Handshake: exactly one hello, protocol must match.
    match wire::read_frame(&mut &*stream) {
        Ok(Frame::Hello { protocol, .. }) if protocol == PROTOCOL_VERSION => {
            let objects = {
                let w = shared.world.lock().expect("world lock");
                w.def.base().len()
            };
            if session
                .write(&Frame::Welcome {
                    server: shared.name.clone(),
                    protocol: PROTOCOL_VERSION,
                    objects,
                })
                .is_err()
            {
                return;
            }
        }
        Ok(Frame::Hello { protocol, .. }) => {
            let _ = session.write(&Frame::Error {
                code: "bad-hello".into(),
                detail: format!(
                    "protocol {protocol} is not supported (server speaks {PROTOCOL_VERSION})"
                ),
            });
            return;
        }
        Ok(other) => {
            let _ = session.write(&Frame::Error {
                code: "bad-hello".into(),
                detail: format!("expected a hello frame, got {:?}", other.tag()),
            });
            return;
        }
        Err(_) => return,
    }

    let sid = shared.next_session.fetch_add(1, Ordering::SeqCst);
    shared
        .sessions
        .lock()
        .expect("sessions lock")
        .insert(sid, Arc::clone(&session));

    loop {
        match wire::read_frame(&mut &*stream) {
            Ok(Frame::Submit { id, name, body }) => {
                let verdict = {
                    let w = shared.world.lock().expect("world lock");
                    validate_txn(&w.def, &body)
                };
                let outcome = match verdict {
                    Err(detail) => Err(RejectReason::Invalid(detail)),
                    Ok(()) => try_admit(
                        shared,
                        Pending {
                            // Globally unique in-world name; the client's
                            // label rides along for log readability.
                            name: format!("{name}#s{sid}x{id}"),
                            id,
                            session: sid,
                            body,
                            enqueued: Instant::now(),
                        },
                    ),
                };
                if let Err(reason) = outcome {
                    if session.write(&Frame::Reject { id, reason }).is_err() {
                        break;
                    }
                }
            }
            Ok(Frame::Status) => {
                let body = status_json(shared);
                if session.write(&Frame::StatusReport { body }).is_err() {
                    break;
                }
            }
            Ok(Frame::Reconcile { config }) => {
                let current = shared.cfg.lock().expect("config lock").clone();
                let answer = match current
                    .apply_json(&config)
                    .and_then(|desired| reconcile(shared, desired).map_err(|e| e.to_string()))
                {
                    Err(detail) => Frame::Error {
                        code: "bad-config".into(),
                        detail,
                    },
                    Ok(changed) => Frame::Reconciled {
                        changed: changed.iter().map(|c| (*c).to_owned()).collect(),
                    },
                };
                if session.write(&answer).is_err() {
                    break;
                }
            }
            Ok(Frame::Goodbye) => {
                let _ = session.write(&Frame::Goodbye);
                break;
            }
            Ok(other) => {
                let _ = session.write(&Frame::Error {
                    code: "unexpected-frame".into(),
                    detail: format!("clients do not send {:?} frames", other.tag()),
                });
                break;
            }
            Err(WireError::Closed) => break,
            Err(e) => {
                // Protocol damage is fatal to the session, torn-tail
                // style; the error answer is best-effort.
                let _ = session.write(&Frame::Error {
                    code: "bad-frame".into(),
                    detail: e.to_string(),
                });
                break;
            }
        }
    }

    shared.sessions.lock().expect("sessions lock").remove(&sid);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    // Anything this session already got admitted stays admitted and will
    // execute; its result frames simply have nowhere to go.
}

// ---------------------------------------------------------------------------
// The executor.

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if !q.pending.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_cv.wait(q).expect("queue lock");
            }
            // Take whatever is queued, up to the cap, and never wait for
            // more: under load the queue refilled while the last batch ran.
            let batch_max = shared.cfg.lock().expect("config lock").batch_max;
            let take = q.pending.len().min(batch_max);
            let batch: Vec<Pending> = q.pending.drain(..take).collect();
            q.in_flight = batch.len();
            batch
        };

        run_batch(shared, batch);

        {
            let mut q = shared.queue.lock().expect("queue lock");
            q.in_flight = 0;
            if q.pending.is_empty() {
                shared.idle_cv.notify_all();
            }
        }
    }
}

fn run_batch(shared: &Arc<Shared>, batch: Vec<Pending>) {
    let cfg = shared.cfg.lock().expect("config lock").clone();
    let def = shared.world.lock().expect("world lock").def.clone();
    let transactions: Vec<TxnSpec> = batch
        .iter()
        .map(|p| TxnSpec {
            name: p.name.clone(),
            body: p.body.clone(),
        })
        .collect();
    let workload = WorkloadSpec { def, transactions };

    let mut builder = Runtime::builder()
        .scheduler(cfg.scheduler.clone())
        .backend(ExecutionBackend::Parallel {
            workers: cfg.workers,
        })
        .retries(cfg.retries)
        .mvcc(cfg.mvcc)
        .verify(Verify::Quick)
        .observe(Observe::Latency);
    if cfg.store_shards > 0 {
        builder = builder.store_shards(cfg.store_shards);
    }
    let run = builder
        .build()
        .map_err(|e| e.to_string())
        .and_then(|rt| rt.run(&workload).map_err(|e| e.to_string()));
    let report = match run {
        Ok(report) => report,
        Err(detail) => {
            // A batch the runtime refuses outright (should be impossible
            // past admission validation): answer every submitter, count,
            // and keep serving.
            shared.world.lock().expect("world lock").batch_errors += 1;
            let error = Frame::Error {
                code: "batch-failed".into(),
                detail,
            };
            send_frames(shared, batch.iter().map(|p| (p.session, &error)));
            return;
        }
    };

    // Which submissions committed, by top-level transaction name.
    let committed: Vec<bool> = {
        let names: BTreeSet<&str> = report
            .history
            .top_level_execs()
            .into_iter()
            .map(|e| report.history.exec(e).method.as_str())
            .collect();
        batch
            .iter()
            .map(|p| names.contains(p.name.as_str()))
            .collect()
    };

    // The workload and both histories share the object base with the
    // world; let go of them (a kept history keeps its own base) so the
    // update below writes in place instead of copying the whole base.
    drop(report.raw_history);
    drop(workload);
    let kept = cfg.keep_history.then_some(report.history);

    let answers: Vec<(u64, Frame)> = {
        let mut w = shared.world.lock().expect("world lock");
        w.batches += 1;
        if !report.checks.all_passed() {
            w.oracle_failures += 1;
        }
        w.metrics.absorb(&report.metrics);
        if let Some(latency) = report.latency {
            match &mut w.latency {
                Some(merged) => merged.merge(&latency),
                slot => *slot = Some(latency),
            }
        }
        w.histories.extend(kept);
        // Advance the world: the committed final states the legality check
        // replayed become the next batch's initial states. Only the objects
        // the batch touched change; an illegal batch changes none.
        if let Some(finals) = report.final_states {
            let base = w.def.base_mut();
            for (id, state) in finals {
                base.set_initial_state(id, state);
            }
        }
        // Count every outcome before any frame is written, so a client
        // holding its result never reads a status that lacks it.
        batch
            .iter()
            .zip(committed)
            .map(|(p, committed)| {
                let latency_us = p.enqueued.elapsed().as_micros() as u64;
                if committed {
                    w.committed += 1;
                } else {
                    w.gave_up += 1;
                }
                w.e2e.record(latency_us);
                let result = Frame::Result {
                    id: p.id,
                    committed,
                    latency_us,
                };
                (p.session, result)
            })
            .collect()
    };

    // Answer every submitter.
    send_frames(shared, answers.iter().map(|(sid, frame)| (*sid, frame)));
}

/// Writes each frame to its session: the sessions are resolved under one
/// `sessions` lock, the frames written with no server lock held, and the
/// delivery counts added under one `world` lock.
fn send_frames<'f>(shared: &Shared, frames: impl Iterator<Item = (u64, &'f Frame)>) {
    let targets: Vec<(Option<Arc<Session>>, &Frame)> = {
        let sessions = shared.sessions.lock().expect("sessions lock");
        frames
            .map(|(sid, frame)| (sessions.get(&sid).cloned(), frame))
            .collect()
    };
    let delivered = targets
        .iter()
        .filter(|(session, frame)| session.as_ref().is_some_and(|s| s.write(frame).is_ok()))
        .count() as u64;
    let mut w = shared.world.lock().expect("world lock");
    w.results_sent += delivered;
    w.send_failures += targets.len() as u64 - delivered;
}

// ---------------------------------------------------------------------------
// Status.

fn status_json(shared: &Shared) -> Json {
    let cfg = shared.cfg.lock().expect("config lock").clone();
    let (queue_len, in_flight, draining, admitted) = {
        let q = shared.queue.lock().expect("queue lock");
        (q.pending.len(), q.in_flight, q.draining, q.admitted)
    };
    let sessions = shared.sessions.lock().expect("sessions lock").len();
    let w = shared.world.lock().expect("world lock");
    Json::object([
        ("server", Json::str(shared.name.clone())),
        ("protocol", Json::Int(PROTOCOL_VERSION)),
        ("max_frame_len", Json::Int(i64::from(MAX_FRAME_LEN))),
        ("sessions", Json::Int(sessions as i64)),
        (
            "queue",
            Json::object([
                ("len", Json::Int(queue_len as i64)),
                ("depth", Json::Int(cfg.queue_depth as i64)),
                ("in_flight", Json::Int(in_flight as i64)),
                ("draining", Json::Bool(draining)),
            ]),
        ),
        ("config", cfg.to_json()),
        ("admitted", Json::Int(admitted as i64)),
        ("committed", Json::Int(w.committed as i64)),
        ("gave_up", Json::Int(w.gave_up as i64)),
        ("batches", Json::Int(w.batches as i64)),
        ("oracle_failures", Json::Int(w.oracle_failures as i64)),
        ("batch_errors", Json::Int(w.batch_errors as i64)),
        ("results_sent", Json::Int(w.results_sent as i64)),
        ("send_failures", Json::Int(w.send_failures as i64)),
        ("metrics", w.metrics.to_json()),
        (
            "latency",
            w.latency
                .as_ref()
                .map(LatencyReport::to_json)
                .unwrap_or(Json::Null),
        ),
        (
            "serve_e2e_us",
            Json::object([
                ("count", Json::Int(w.e2e.count() as i64)),
                ("p50", Json::Int(w.e2e.percentile(0.5) as i64)),
                ("p99", Json::Int(w.e2e.percentile(0.99) as i64)),
                ("p999", Json::Int(w.e2e.percentile(0.999) as i64)),
            ]),
        ),
    ])
}
