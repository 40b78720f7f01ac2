//! The TCP server: listener, sessions, admission queue, batch executor.
//!
//! ## Threading model
//!
//! One *listener* thread accepts connections and spawns one *session*
//! thread per client (blocking reads through one buffered reader;
//! hundreds of sessions are fine on a thread apiece). Batches run one at a
//! time, each on whichever thread holds the *executor role*, which is taken
//! under the queue lock only while it is free (flat combining, Hendler et
//! al., SPAA 2010):
//!
//! - a session that admits a submission while no batch runs, nothing is
//!   queued and its read buffer holds no further bytes (its client is
//!   waiting for this answer, not pipelining) runs it itself as a batch of
//!   one, so an idle server's ack crosses no thread hand-off;
//! - everything else goes to the bounded admission queue, which one
//!   *executor* thread drains into ingress batches whenever the role is
//!   free.
//!
//! Either way the batch runs as a workload on the parallel backend via the
//! ordinary [`Runtime`], built once per config (at bind and at each
//! reconcile) and shared by every batch, with the running thread as its
//! first worker and up to `workers - 1` resident pool threads beside it
//! (one worker per transaction at most). The thread that ran the batch
//! writes every result frame, through a per-session write lock, so a
//! session's reader and another thread's results never interleave bytes.
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
//! Whenever the role is free, the executor takes whatever is queued, up to
//! [`ServeConfig::batch_max`] transactions, without waiting for more: under
//! load the queue refills while a batch runs. Every batch runs as one
//! workload under [`Verify::Quick`](obase_runtime::Verify::Quick), then
//! writes the committed final states that the batch's legality check
//! replayed
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
//! [`Server::reconcile`] validates the desired [`ServeConfig`], builds its
//! runtime, swaps both in atomically and reports which fields changed. A
//! config whose runtime cannot be built is refused there, as
//! [`Server::bind`] refuses it, never by failing later batches. The batch
//! in flight finishes under the old config; the next batch picks up the
//! new scheduler, worker count and batching knobs. Scheduler instances are
//! per-batch, and each batch runs on up to as many workers as its config
//! names, one per transaction at most: the thread running the batch is the
//! first, the parallel backend's resident pool supplies the rest (it
//! settles at the peak count ever used minus one and keeps its threads), so
//! "drain and resize" needs no extra machinery and no admitted transaction
//! is ever dropped.

use crate::config::ServeConfig;
use crate::oracle::merge_histories;
use crate::wire::{self, Frame, RejectReason, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use obase_core::history::History;
use obase_exec::{ObjectBaseDef, Program, RunMetrics, TxnSpec, WorkloadSpec};
use obase_obs::{Histogram, LatencyReport};
use obase_runtime::{ConfigError, Runtime, RuntimeError};
use obase_ser::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// The transaction under its unique in-world name.
    txn: TxnSpec,
    /// Client correlation id.
    id: u64,
    /// Owning session.
    session: u64,
    /// Admission instant, for end-to-end latency.
    enqueued: Instant,
}

/// Admission-queue state under one lock.
struct QueueState {
    pending: VecDeque<Pending>,
    /// Transactions in the running batch; zero exactly when the executor
    /// role is free.
    in_flight: usize,
    draining: bool,
    shutdown: bool,
    admitted: u64,
}

impl QueueState {
    /// Takes the executor role, which must be free, for a batch of `n`.
    fn claim<'s>(&mut self, shared: &'s Shared, n: usize) -> Claim<'s> {
        debug_assert!(self.in_flight == 0 && n > 0);
        self.in_flight = n;
        Claim { shared }
    }
}

/// The executor role, held by the thread running the current batch.
/// Dropping it releases the role, on a panic too, and wakes the executor if
/// work queued up meanwhile, or else the drain waiters.
struct Claim<'s> {
    shared: &'s Shared,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.in_flight = 0;
        if q.pending.is_empty() {
            self.shared.idle_cv.notify_all();
        } else {
            self.shared.work_cv.notify_one();
        }
    }
}

/// What admission did with a submission.
enum Admission<'s> {
    /// Queued for the executor thread.
    Queued,
    /// Admitted with the executor role free and nothing queued: the
    /// admitting session runs it itself, as a batch of one.
    RunHere(Claim<'s>, Pending),
}

/// Aggregated world state: the evolving object-base definition plus
/// everything the status document reports.
struct WorldState {
    def: ObjectBaseDef,
    batches: u64,
    /// Batches a session ran itself, without the executor hand-off.
    inline_batches: u64,
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
        self.write_all(std::slice::from_ref(frame))
    }

    /// Writes `frames` in order, with one write to the socket.
    fn write_all<'f>(&self, frames: impl IntoIterator<Item = &'f Frame>) -> Result<(), WireError> {
        let _guard = self.write_lock.lock().expect("session write lock");
        wire::write_frames(&mut &*self.stream, frames)
    }
}

/// The desired config and the runtime built from it, swapped together.
struct Desired {
    config: ServeConfig,
    runtime: Arc<Runtime>,
}

impl Desired {
    /// Validates `config` and builds its runtime, so a config is refused
    /// when it is handed over rather than failing every later batch.
    fn new(config: ServeConfig) -> Result<Desired, ConfigError> {
        config.validate()?;
        let runtime = Arc::new(config.runtime()?);
        Ok(Desired { config, runtime })
    }
}

struct Shared {
    name: String,
    desired: Mutex<Desired>,
    queue: Mutex<QueueState>,
    /// Signals the executor: work queued while the role is free, or
    /// shutdown.
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
        let desired = Desired::new(config)?;
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let shared = Arc::new(Shared {
            name: format!("obase-serve/{}", env!("CARGO_PKG_VERSION")),
            desired: Mutex::new(desired),
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
                inline_batches: 0,
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

    /// Reconciles the server to `desired`: validates it, builds its
    /// runtime, swaps both in atomically, and returns the names of the
    /// fields that actually changed (empty means the desired state already
    /// held — reconciling is idempotent).
    /// Takes effect at the next batch boundary; nothing in flight is
    /// dropped.
    pub fn reconcile(&self, desired: ServeConfig) -> Result<Vec<&'static str>, ConfigError> {
        reconcile(&self.shared, desired)
    }

    /// The current desired config.
    pub fn config(&self) -> ServeConfig {
        self.shared
            .desired
            .lock()
            .expect("config lock")
            .config
            .clone()
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

/// Validates a submitted transaction tree against the served object base:
/// a leaf cap, then every check the runtime makes of a transaction
/// ([`ObjectBaseDef::check_program`]), so one bad submission can never
/// poison a batch.
fn validate_txn(def: &ObjectBaseDef, name: &str, body: &Program) -> Result<(), String> {
    if body.leaf_count() > MAX_TXN_LEAVES {
        return Err(format!(
            "transaction tree has {} leaves (cap {MAX_TXN_LEAVES})",
            body.leaf_count()
        ));
    }
    def.check_program(body, Some(name))
        .map_err(|e| RuntimeError::from(e).to_string())
}

/// Validates `desired` and builds its runtime, swaps both in atomically and
/// returns the names of the fields that changed.
fn reconcile(shared: &Shared, desired: ServeConfig) -> Result<Vec<&'static str>, ConfigError> {
    let desired = Desired::new(desired)?;
    let mut current = shared.desired.lock().expect("config lock");
    let changed = current.config.diff(&desired.config);
    *current = desired;
    Ok(changed)
}

/// Admits `pending`: into the admitting session's own hands if `lone` (its
/// client sent nothing after it) and the server is idle, else into the
/// queue.
fn try_admit(shared: &Shared, pending: Pending, lone: bool) -> Result<Admission<'_>, RejectReason> {
    let depth = shared
        .desired
        .lock()
        .expect("config lock")
        .config
        .queue_depth;
    let mut q = shared.queue.lock().expect("queue lock");
    if q.draining || q.shutdown {
        return Err(RejectReason::Draining);
    }
    if lone && q.in_flight == 0 && q.pending.is_empty() {
        q.admitted += 1;
        return Ok(Admission::RunHere(q.claim(shared, 1), pending));
    }
    if q.pending.len() >= depth {
        return Err(RejectReason::QueueFull { depth });
    }
    q.pending.push_back(pending);
    q.admitted += 1;
    // A running batch's claim wakes the executor when it is released.
    if q.in_flight == 0 {
        shared.work_cv.notify_one();
    }
    Ok(Admission::Queued)
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
    // Every read goes through this buffer: one syscall per burst, and what
    // it still holds after a frame tells whether the client is pipelining.
    let mut reader = BufReader::new(&*stream);

    // Handshake: exactly one hello, protocol must match.
    match wire::read_frame(&mut reader) {
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
        match wire::read_frame(&mut reader) {
            Ok(Frame::Submit { id, name, body }) => {
                let verdict = {
                    let w = shared.world.lock().expect("world lock");
                    validate_txn(&w.def, &name, &body)
                };
                let outcome = verdict.map_err(RejectReason::Invalid).and_then(|()| {
                    let pending = Pending {
                        txn: TxnSpec {
                            // Globally unique in-world name; the client's
                            // label rides along for log readability.
                            name: format!("{name}#s{sid}x{id}"),
                            body,
                        },
                        id,
                        session: sid,
                        enqueued: Instant::now(),
                    };
                    try_admit(shared, pending, reader.buffer().is_empty())
                });
                match outcome {
                    Ok(Admission::Queued) => {}
                    Ok(Admission::RunHere(claim, pending)) => {
                        run_batch(shared, vec![pending], true);
                        drop(claim);
                    }
                    Err(reason) => {
                        if session.write(&Frame::Reject { id, reason }).is_err() {
                            break;
                        }
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
                let current = shared.desired.lock().expect("config lock").config.clone();
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
        let (claim, batch) = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if !q.pending.is_empty() && q.in_flight == 0 {
                    break;
                }
                if q.shutdown && q.pending.is_empty() {
                    return;
                }
                q = shared.work_cv.wait(q).expect("queue lock");
            }
            // Take whatever is queued, up to the cap, and never wait for
            // more: under load the queue refilled while the last batch ran.
            let batch_max = shared.desired.lock().expect("config lock").config.batch_max;
            let take = q.pending.len().min(batch_max);
            let batch: Vec<Pending> = q.pending.drain(..take).collect();
            (q.claim(shared, batch.len()), batch)
        };
        run_batch(shared, batch, false);
        drop(claim);
    }
}

/// Runs one batch and answers its submitters. The caller holds the
/// executor role; `inline` says it is the submitting session.
fn run_batch(shared: &Arc<Shared>, batch: Vec<Pending>, inline: bool) {
    let (runtime, keep_history) = {
        let desired = shared.desired.lock().expect("config lock");
        (Arc::clone(&desired.runtime), desired.config.keep_history)
    };
    let def = shared.world.lock().expect("world lock").def.clone();
    let (transactions, waiting): (Vec<TxnSpec>, Vec<(u64, u64, Instant)>) = batch
        .into_iter()
        .map(|p| (p.txn, (p.session, p.id, p.enqueued)))
        .unzip();
    let workload = WorkloadSpec { def, transactions };

    let report = match runtime.run(&workload) {
        Ok(report) => report,
        Err(e) => {
            // A batch the runtime refuses outright (should be impossible
            // past admission validation): answer every submitter, count,
            // and keep serving.
            shared.world.lock().expect("world lock").batch_errors += 1;
            let error = Frame::Error {
                code: "batch-failed".into(),
                detail: e.to_string(),
            };
            send_frames(shared, waiting.iter().map(|&(sid, ..)| (sid, &error)));
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
        workload
            .transactions
            .iter()
            .map(|t| names.contains(t.name.as_str()))
            .collect()
    };

    // The workload and both histories share the object base with the
    // world; let go of them (a kept history keeps its own base) so the
    // update below writes in place instead of copying the whole base.
    drop(report.raw_history);
    drop(workload);
    let kept = keep_history.then_some(report.history);

    let answers: Vec<(u64, Frame)> = {
        let mut w = shared.world.lock().expect("world lock");
        w.batches += 1;
        w.inline_batches += u64::from(inline);
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
        waiting
            .into_iter()
            .zip(committed)
            .map(|((session, id, enqueued), committed)| {
                let latency_us = enqueued.elapsed().as_micros() as u64;
                if committed {
                    w.committed += 1;
                } else {
                    w.gave_up += 1;
                }
                w.e2e.record(latency_us);
                let result = Frame::Result {
                    id,
                    committed,
                    latency_us,
                };
                (session, result)
            })
            .collect()
    };

    // Answer every submitter.
    send_frames(shared, answers.iter().map(|(sid, frame)| (*sid, frame)));
}

/// Writes the frames to their sessions, each session's in their order and
/// with one write: the sessions are resolved under one `sessions` lock, the
/// frames written with no server lock held, and the delivery counts added
/// under one `world` lock.
fn send_frames<'f>(shared: &Shared, frames: impl Iterator<Item = (u64, &'f Frame)>) {
    let mut frames: Vec<(u64, &Frame)> = frames.collect();
    // Stable: a session's frames keep their order.
    frames.sort_by_key(|&(sid, _)| sid);
    let targets: Vec<_> = {
        let sessions = shared.sessions.lock().expect("sessions lock");
        frames
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (sessions.get(&run[0].0).cloned(), run))
            .collect()
    };
    let delivered: usize = targets
        .iter()
        .filter(|(session, run)| {
            session
                .as_ref()
                .is_some_and(|s| s.write_all(run.iter().map(|(_, f)| *f)).is_ok())
        })
        .map(|(_, run)| run.len())
        .sum();
    let mut w = shared.world.lock().expect("world lock");
    w.results_sent += delivered as u64;
    w.send_failures += (frames.len() - delivered) as u64;
}

// ---------------------------------------------------------------------------
// Status.

fn status_json(shared: &Shared) -> Json {
    let cfg = shared.desired.lock().expect("config lock").config.clone();
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
        ("inline_batches", Json::Int(w.inline_batches as i64)),
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
