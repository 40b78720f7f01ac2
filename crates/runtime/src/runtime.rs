//! The fluent run builder and the runtime that owns the engine loop.
//!
//! ```
//! use obase_runtime::{Runtime, SchedulerSpec, Verify};
//! # use obase_adt::Counter;
//! # use obase_core::object::ObjectBase;
//! # use obase_core::value::Value;
//! # use obase_exec::{MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
//! # use std::sync::Arc;
//! # let mut base = ObjectBase::new();
//! # let c = base.add_object("c", Arc::new(Counter::default()));
//! # let mut def = ObjectBaseDef::new(Arc::new(base));
//! # def.define_method(c, MethodDef { name: "bump".into(), params: 0,
//! #     body: Program::local("Add", [Value::Int(1)]) });
//! # let workload = WorkloadSpec { def, transactions: vec![TxnSpec {
//! #     name: "t".into(), body: Program::invoke(c, "bump", []) }] };
//! let runtime = Runtime::builder()
//!     .scheduler(SchedulerSpec::n2pl_step())
//!     .clients(8)
//!     .seed(7)
//!     .retries(16)
//!     .verify(Verify::Full)
//!     .build()?;
//! let report = runtime.run(&workload)?;
//! report.assert_serialisable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::{ConfigError, RuntimeError};
use crate::registry::SchedulerRegistry;
use crate::report::{Faceoff, RunReport};
use crate::spec::SchedulerSpec;
use obase_core::ids::ObjectId;
use obase_core::sched::Scheduler;
use obase_exec::engine::{execute, ExecParams};
use obase_exec::{ObjRef, Program, RunResult, WorkloadSpec};
use obase_obs::{ChromeTraceObserver, LatencyReport, ObsHandle, Observer, RecordingObserver};
use obase_par::ParParams;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A decorator applied to every scheduler the runtime instantiates, after
/// the registry built it and before the backend runs it. Used to interpose
/// on the scheduler contract — e.g. `obase-scenario`'s fault injector wraps
/// the real scheduler to doom transactions and stall workers on a seeded
/// plan — without the registry having to know about the decoration.
pub type SchedulerWrapper = Arc<dyn Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler> + Send + Sync>;

/// `Option<SchedulerWrapper>` with a useful `Debug` (closures have none).
#[derive(Clone, Default)]
struct Wrapper(Option<SchedulerWrapper>);

impl Wrapper {
    fn apply(&self, scheduler: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        match &self.0 {
            Some(wrap) => wrap(scheduler),
            None => scheduler,
        }
    }
}

impl fmt::Debug for Wrapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("Some(<scheduler wrapper>)"),
            None => f.write_str("None"),
        }
    }
}

/// Which engine executes a run.
///
/// All backends are drivers over the one lifecycle kernel
/// (`obase_exec::kernel`): they run the same commit/abort/undo code, drive
/// the same [`Scheduler`] contract and
/// produce the same artefacts (history, metrics — including the
/// per-reason abort histogram — and theory checks), so any
/// [`SchedulerSpec`] runs unchanged on any of them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// The deterministic interleaving simulator (`obase-exec`): one logical
    /// processor per activity on a virtual round clock, exactly reproducible
    /// from the seed.
    #[default]
    Simulated,
    /// The multi-threaded wall-clock engine (`obase-par`): top-level
    /// transactions on a pool of OS worker threads over a sharded object
    /// store, with real blocking and a deadlock-breaking monitor. Runs are
    /// *not* deterministic; their histories are verified by the same theory
    /// checks instead.
    Parallel {
        /// Worker threads (also the inter-transaction concurrency cap).
        workers: usize,
    },
    /// The durable engine (`obase-wal`): the simulator loop with every
    /// lifecycle event streamed through a write-ahead log in `dir`, so a
    /// crashed run can be recovered (`obase_wal::WalBackend::recover`) and
    /// held to the same serialisability oracle. Deterministic like
    /// [`Simulated`](ExecutionBackend::Simulated); slower by the cost of
    /// logging and group commit.
    Durable {
        /// Directory holding the write-ahead log (created if missing; an
        /// existing log is truncated at the start of each run).
        dir: std::path::PathBuf,
        /// Commit records batched per fsync: `1` syncs every commit, larger
        /// windows trade the tail of a window for throughput, `0` never
        /// syncs (benchmark baseline).
        group_commit: usize,
    },
}

impl ExecutionBackend {
    /// A short label ("simulated", "parallel(8)", "durable(gc=8)") for
    /// reports and tables.
    pub fn label(&self) -> String {
        match self {
            ExecutionBackend::Simulated => "simulated".to_owned(),
            ExecutionBackend::Parallel { workers } => format!("parallel({workers})"),
            ExecutionBackend::Durable { group_commit, .. } => {
                format!("durable(gc={group_commit})")
            }
        }
    }

    /// `true` for the durable (write-ahead-logged) backend.
    pub fn is_durable(&self) -> bool {
        matches!(self, ExecutionBackend::Durable { .. })
    }
}

/// What a run observes: the runtime's grip on `obase-obs`.
///
/// The default is [`Observe::Off`], which hands the engines the collapsed
/// [`ObsHandle`] — one branch at startup, nothing on
/// the hot path. [`Observe::Latency`] records the lifecycle stream in memory
/// and distils it into [`RunReport::latency`]; [`Observe::Trace`] shares a
/// [`ChromeTraceObserver`] with the caller (who exports the Perfetto JSON
/// after the run) and *also* fills in the latency report.
#[derive(Clone, Default)]
pub enum Observe {
    /// No observation (the zero-cost default).
    #[default]
    Off,
    /// Record lifecycle events per run and attach a
    /// [`LatencyReport`] to the [`RunReport`].
    Latency,
    /// Stream events into the given trace observer (shared with the caller,
    /// which renders `chrome://tracing` JSON after the run). The latency
    /// report is derived from the same stream.
    Trace(Arc<ChromeTraceObserver>),
    /// A caller-supplied observer. The runtime derives no latency report
    /// from it; if the observer's
    /// [`enabled`](obase_obs::Observer::enabled) is `false` (e.g.
    /// [`NullObserver`](obase_obs::NullObserver)), the handle collapses and
    /// the run is exactly as cheap as [`Observe::Off`].
    Custom(Arc<dyn Observer>),
}

impl fmt::Debug for Observe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observe::Off => f.write_str("Off"),
            Observe::Latency => f.write_str("Latency"),
            Observe::Trace(_) => f.write_str("Trace(<chrome trace observer>)"),
            Observe::Custom(_) => f.write_str("Custom(<observer>)"),
        }
    }
}

/// How much post-hoc theory checking a [`RunReport`] performs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Verify {
    /// Record no checks (fastest; `assert_serialisable` still recomputes on
    /// demand).
    None,
    /// Legality plus Theorem 2 acyclicity.
    #[default]
    Quick,
    /// Legality, Theorem 2 with a verified equivalent-serial-history witness,
    /// and the Theorem 5 per-object condition.
    Full,
}

/// A configured runtime: a scheduler spec, engine parameters and a
/// verification level, ready to execute workloads.
///
/// Build one with [`Runtime::builder`]. A `Runtime` is reusable: every call
/// to [`run`](Runtime::run) instantiates a fresh scheduler from the spec, so
/// runs never share scheduler state.
#[derive(Debug)]
pub struct Runtime {
    spec: SchedulerSpec,
    registry: SchedulerRegistry,
    params: ExecParams,
    backend: ExecutionBackend,
    store_shards: Option<usize>,
    deadline: Option<Duration>,
    wrapper: Wrapper,
    verify: Verify,
    observe: Observe,
}

impl Runtime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The scheduler spec runs execute under.
    pub fn spec(&self) -> &SchedulerSpec {
        &self.spec
    }

    /// The configured verification level.
    pub fn verify_level(&self) -> Verify {
        self.verify
    }

    /// The configured execution backend.
    pub fn backend(&self) -> &ExecutionBackend {
        &self.backend
    }

    /// The observation plan configured at build time.
    pub fn observe_mode(&self) -> &Observe {
        &self.observe
    }

    /// Builds the per-run observer handle, plus the recorder to distil a
    /// [`LatencyReport`] from afterwards (when the plan calls for one).
    fn observer(&self) -> (ObsHandle, Option<Arc<RecordingObserver>>) {
        match &self.observe {
            Observe::Off => (ObsHandle::off(), None),
            Observe::Latency => {
                let rec = Arc::new(RecordingObserver::default());
                (ObsHandle::new(rec.clone()), Some(rec))
            }
            Observe::Trace(t) => (ObsHandle::new(t.clone()), None),
            Observe::Custom(o) => (ObsHandle::new(o.clone()), None),
        }
    }

    /// Distils the latency report after a run, from whichever recorder the
    /// plan used.
    fn latency_of(&self, rec: Option<Arc<RecordingObserver>>) -> Option<LatencyReport> {
        match (&self.observe, rec) {
            (_, Some(rec)) => Some(rec.latency()),
            (Observe::Trace(t), None) => Some(t.latency()),
            _ => None,
        }
    }

    fn dispatch(
        &self,
        workload: &WorkloadSpec,
        scheduler: Box<dyn Scheduler>,
        obs: &ObsHandle,
    ) -> Result<RunResult, RuntimeError> {
        let scheduler = self.wrapper.apply(scheduler);
        match &self.backend {
            ExecutionBackend::Simulated => {
                let mut scheduler = scheduler;
                Ok(execute(workload, scheduler.as_mut(), &self.params, obs))
            }
            ExecutionBackend::Parallel { workers } => {
                let defaults = ParParams::from_exec(&self.params, *workers);
                Ok(obase_par::execute_parallel(
                    workload,
                    scheduler,
                    &ParParams {
                        shards: self.store_shards.unwrap_or(0),
                        deadline: self.deadline.unwrap_or(defaults.deadline),
                        ..defaults
                    },
                    obs,
                ))
            }
            ExecutionBackend::Durable { dir, group_commit } => {
                let mut scheduler = scheduler;
                obase_wal::execute_durable(
                    workload,
                    scheduler.as_mut(),
                    &self.params,
                    dir,
                    *group_commit,
                    obs,
                )
                .map_err(|e| RuntimeError::Durability(e.to_string()))
            }
        }
    }

    /// Executes a workload on the configured backend and returns its
    /// verified report.
    ///
    /// The workload is validated first (methods exist, arities match,
    /// top-level transactions issue no local operations) so malformed
    /// workloads surface as typed errors instead of mid-run panics.
    pub fn run(&self, workload: &WorkloadSpec) -> Result<RunReport, RuntimeError> {
        validate_workload(workload)?;
        let scheduler = self.registry.instantiate(&self.spec)?;
        let (obs, rec) = self.observer();
        let result = self.dispatch(workload, scheduler, &obs)?;
        let latency = self.latency_of(rec);
        Ok(RunReport::new(
            self.spec.clone(),
            result,
            self.verify,
            latency,
        ))
    }

    /// Runs the same workload under each spec (with this runtime's engine
    /// parameters, backend and verification level) and lines the reports up.
    pub fn compare(
        &self,
        workload: &WorkloadSpec,
        specs: &[SchedulerSpec],
    ) -> Result<Faceoff, RuntimeError> {
        validate_workload(workload)?;
        let mut reports = Vec::with_capacity(specs.len());
        for spec in specs {
            let scheduler = self.registry.instantiate(spec)?;
            let (obs, rec) = self.observer();
            let result = self.dispatch(workload, scheduler, &obs)?;
            let latency = self.latency_of(rec);
            reports.push(RunReport::new(spec.clone(), result, self.verify, latency));
        }
        Ok(Faceoff::new(reports))
    }

    /// Convenience face-off with default engine parameters and
    /// [`Verify::Full`]: runs `workload` under every spec and returns the
    /// comparison.
    pub fn faceoff(
        workload: &WorkloadSpec,
        specs: &[SchedulerSpec],
    ) -> Result<Faceoff, RuntimeError> {
        let spec = specs
            .first()
            .cloned()
            .ok_or(ConfigError::MissingScheduler)?;
        Runtime::builder()
            .scheduler(spec)
            .verify(Verify::Full)
            .build()?
            .compare(workload, specs)
    }
}

/// Fluent builder for [`Runtime`], subsuming the engine's raw parameter
/// struct with validation.
#[derive(Debug, Default)]
pub struct RuntimeBuilder {
    spec: Option<SchedulerSpec>,
    registry: SchedulerRegistry,
    params: ExecParams,
    backend: ExecutionBackend,
    store_shards: Option<usize>,
    deadline: Option<Duration>,
    wrapper: Wrapper,
    verify: Verify,
    observe: Observe,
}

impl RuntimeBuilder {
    /// Sets the scheduler spec (required).
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Sets the maximum number of concurrently running top-level
    /// transactions (default 4).
    pub fn clients(mut self, clients: usize) -> Self {
        self.params.clients = clients;
        self
    }

    /// Sets the interleaving seed (default 42); runs are reproducible given
    /// a seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Sets how many times an aborted transaction is re-submitted
    /// (default 16).
    pub fn retries(mut self, retries: u32) -> Self {
        self.params.max_retries = retries;
        self
    }

    /// Sets the hard bound on scheduling rounds, guarding against livelock
    /// (default 200 000).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.params.max_rounds = max_rounds;
        self
    }

    /// Enables the MVCC snapshot read path (default off). With it on,
    /// transactions whose every operation is statically read-only execute
    /// against committed multi-version state pinned at a commit watermark —
    /// no scheduler interaction, no certification, no aborts — while
    /// writers go through the scheduler unchanged. Applies to all three
    /// backends; with it off, runs are bit-for-bit what they were before
    /// the knob existed.
    pub fn mvcc(mut self, mvcc: bool) -> Self {
        self.params.mvcc = mvcc;
        self
    }

    /// Sets the execution backend (default [`ExecutionBackend::Simulated`]).
    ///
    /// [`ExecutionBackend::Parallel`] executes on real OS threads: `seed`
    /// and `max_rounds` do not apply to it (runs are non-deterministic and
    /// bounded by a wall-clock deadline instead), while `retries` carries
    /// over and `workers` replaces `clients` as the concurrency cap.
    pub fn backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the parallel backend's shard count — the partitions of the
    /// sharded object store, also used to shard the scheduler plane for
    /// per-object decomposable schedulers. Unset, the backend applies its
    /// default: the next power of two at least twice the worker count.
    /// Ignored by the simulated backend. An explicit `0` is rejected at
    /// build time with [`ConfigError::ZeroShards`].
    pub fn store_shards(mut self, shards: usize) -> Self {
        self.store_shards = Some(shards);
        self
    }

    /// Sets the parallel backend's wall-clock deadline — the livelock guard
    /// that flags a run `timed_out` and shuts it down (default 10 s).
    /// Ignored by the simulated backend, whose guard is `max_rounds`.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a scheduler decorator applied to every scheduler this
    /// runtime instantiates (after the registry built it, before a run
    /// starts). Decorators interpose on the full
    /// [`Scheduler`] contract, so they work
    /// identically on both backends — `obase-scenario` uses this to inject
    /// seeded faults (doomed transactions, stalls) into otherwise-correct
    /// schedulers.
    pub fn wrap_scheduler(
        mut self,
        wrap: impl Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> Self {
        self.wrapper = Wrapper(Some(Arc::new(wrap)));
        self
    }

    /// Sets the verification level reports are built with (default
    /// [`Verify::Quick`]).
    pub fn verify(mut self, verify: Verify) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the observation plan (default [`Observe::Off`]).
    ///
    /// [`Observe::Latency`] attaches a per-phase
    /// [`LatencyReport`] to every
    /// [`RunReport`]; [`Observe::Trace`] additionally
    /// streams the run into a shared
    /// [`ChromeTraceObserver`] for Perfetto
    /// export.
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Replaces the scheduler registry (to add custom scheduler kinds).
    pub fn registry(mut self, registry: SchedulerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Validates the configuration and builds the runtime.
    ///
    /// Fails with a typed [`ConfigError`] if no scheduler was set, `clients`
    /// or `max_rounds` is zero, the spec itself is inconsistent (e.g. an
    /// empty or nested `Mixed`), or the registry cannot instantiate it.
    pub fn build(self) -> Result<Runtime, ConfigError> {
        let spec = self.spec.ok_or(ConfigError::MissingScheduler)?;
        if self.params.clients == 0 {
            return Err(ConfigError::ZeroClients);
        }
        if self.params.max_rounds == 0 {
            return Err(ConfigError::ZeroMaxRounds);
        }
        if let ExecutionBackend::Parallel { workers: 0 } = self.backend {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.store_shards == Some(0) {
            return Err(ConfigError::ZeroShards);
        }
        // Dry-run instantiation so bad specs fail at build time, not per run.
        let _ = self.registry.instantiate(&spec)?;
        Ok(Runtime {
            spec,
            registry: self.registry,
            params: self.params,
            backend: self.backend,
            store_shards: self.store_shards,
            deadline: self.deadline,
            wrapper: self.wrapper,
            verify: self.verify,
            observe: self.observe,
        })
    }
}

/// Statically validates a workload against its object-base definition: every
/// (literally named) invocation targets a defined method with the right
/// arity, and no top-level transaction issues a local operation. Each method
/// body is checked exactly once, so mutually recursive methods are fine.
fn validate_workload(workload: &WorkloadSpec) -> Result<(), RuntimeError> {
    for txn in &workload.transactions {
        walk(&txn.body, true, Some(&txn.name), workload)?;
    }
    for (_, def) in workload.def.methods() {
        walk(&def.body, false, None, workload)?;
    }
    Ok(())
}

fn walk(
    program: &Program,
    top_level: bool,
    txn: Option<&str>,
    workload: &WorkloadSpec,
) -> Result<(), RuntimeError> {
    match program {
        Program::Local { .. } => {
            if top_level {
                return Err(RuntimeError::LocalOperationAtTopLevel {
                    transaction: txn.unwrap_or("<method>").to_owned(),
                });
            }
            Ok(())
        }
        Program::Invoke {
            object,
            method,
            args,
        } => {
            // Parameter-passed objects can only be resolved dynamically.
            let ObjRef::Const(target) = object else {
                return Ok(());
            };
            check_invocation(*target, method, args.len(), workload)
        }
        Program::Seq(items) | Program::Par(items) => {
            for item in items {
                walk(item, top_level, txn, workload)?;
            }
            Ok(())
        }
    }
}

fn check_invocation(
    target: ObjectId,
    method: &str,
    got: usize,
    workload: &WorkloadSpec,
) -> Result<(), RuntimeError> {
    let Some(def) = workload.def.method(target, method) else {
        return Err(RuntimeError::UnknownMethod {
            object: target,
            method: method.to_owned(),
        });
    };
    if def.params != got {
        return Err(RuntimeError::ArityMismatch {
            object: target,
            method: method.to_owned(),
            expected: def.params,
            got,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::Counter;
    use obase_core::object::ObjectBase;
    use obase_core::value::Value;
    use obase_exec::{MethodDef, ObjectBaseDef, TxnSpec};
    use std::sync::Arc;

    fn tiny_workload() -> WorkloadSpec {
        let mut base = ObjectBase::new();
        let c = base.add_object("c", Arc::new(Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        def.define_method(
            c,
            MethodDef {
                name: "bump".into(),
                params: 0,
                body: Program::local("Add", [Value::Int(1)]),
            },
        );
        WorkloadSpec {
            def,
            transactions: vec![TxnSpec {
                name: "t0".into(),
                body: Program::invoke(c, "bump", []),
            }],
        }
    }

    #[test]
    fn builder_validates_configuration() {
        assert_eq!(
            Runtime::builder().build().unwrap_err(),
            ConfigError::MissingScheduler
        );
        assert_eq!(
            Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .clients(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroClients
        );
        assert_eq!(
            Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .max_rounds(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxRounds
        );
        assert_eq!(
            Runtime::builder()
                .scheduler(SchedulerSpec::Mixed {
                    default_intra: None,
                    per_object: vec![],
                })
                .build()
                .unwrap_err(),
            ConfigError::EmptyMixedSpec
        );
    }

    #[test]
    fn store_shards_knob_is_validated_and_applied() {
        assert_eq!(
            Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .store_shards(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroShards
        );
        let runtime = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .backend(ExecutionBackend::Parallel { workers: 2 })
            .store_shards(4)
            .verify(Verify::Full)
            .build()
            .unwrap();
        let report = runtime.run(&tiny_workload()).unwrap();
        assert_eq!(report.metrics.committed, 1);
        report.assert_serialisable();
    }

    #[test]
    fn durable_backend_runs_and_recovers() {
        let dir = obase_wal::scratch_dir("runtime-durable");
        let workload = tiny_workload();
        let runtime = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .backend(ExecutionBackend::Durable {
                dir: dir.clone(),
                group_commit: 4,
            })
            .verify(Verify::Full)
            .build()
            .unwrap();
        assert!(runtime.backend().is_durable());
        assert_eq!(runtime.backend().label(), "durable(gc=4)");
        let report = runtime.run(&workload).unwrap();
        assert_eq!(report.metrics.committed, 1);
        report.assert_serialisable();

        let recovered = obase_wal::WalBackend::new(Arc::clone(workload.def.base()))
            .recover(&dir)
            .unwrap();
        recovered.assert_serialisable();
        assert_eq!(recovered.committed.len(), 1);
        assert_eq!(recovered.crash_rollbacks(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduler_wrappers_interpose_on_every_run() {
        use obase_core::ids::ExecId;
        use obase_core::sched::{Decision, TxnView};

        /// Vetoes every commit certification: with it installed, nothing can
        /// commit, which proves the wrapper really interposed.
        struct VetoEverything(Box<dyn Scheduler>);
        impl Scheduler for VetoEverything {
            fn name(&self) -> String {
                format!("veto({})", self.0.name())
            }
            fn certify_commit(&mut self, _exec: ExecId, _view: &dyn TxnView) -> Decision {
                Decision::Abort(obase_core::sched::AbortReason::Injected)
            }
        }

        let runtime = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .retries(1)
            .wrap_scheduler(|inner| Box::new(VetoEverything(inner)))
            .build()
            .unwrap();
        let report = runtime.run(&tiny_workload()).unwrap();
        assert_eq!(report.metrics.committed, 0);
        assert_eq!(report.metrics.gave_up, 1);
        assert_eq!(report.metrics.aborts_by_reason["injected"], 2);
    }

    #[test]
    fn run_produces_a_verified_report() {
        for level in [Verify::None, Verify::Quick, Verify::Full] {
            let runtime = Runtime::builder()
                .scheduler(SchedulerSpec::n2pl_operation())
                .verify(level)
                .build()
                .unwrap();
            let report = runtime.run(&tiny_workload()).unwrap();
            assert_eq!(report.metrics.committed, 1);
            report.assert_serialisable();
            // The final states legality replays ride along whenever it ran.
            let replayed = obase_core::replay::final_states(&report.history).unwrap();
            let expected = (level != Verify::None).then_some(replayed);
            assert_eq!(report.final_states, expected, "{level:?}");
            if level == Verify::Full {
                assert_eq!(report.checks.legal, Some(true));
                assert_eq!(report.checks.sg_acyclic, Some(true));
                assert_eq!(report.checks.witness_verified, Some(true));
                assert_eq!(report.checks.theorem5, Some(true));
            }
        }
    }

    #[test]
    fn malformed_workloads_are_typed_errors_not_panics() {
        let runtime = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .build()
            .unwrap();

        let mut wl = tiny_workload();
        wl.transactions[0].body = Program::invoke(ObjectId(0), "missing", []);
        assert!(matches!(
            runtime.run(&wl).unwrap_err(),
            RuntimeError::UnknownMethod { method, .. } if method == "missing"
        ));

        let mut wl = tiny_workload();
        wl.transactions[0].body = Program::invoke(ObjectId(0), "bump", [Value::Int(1)]);
        assert!(matches!(
            runtime.run(&wl).unwrap_err(),
            RuntimeError::ArityMismatch {
                expected: 0,
                got: 1,
                ..
            }
        ));

        let mut wl = tiny_workload();
        wl.transactions[0].body = Program::local("Add", [Value::Int(1)]);
        assert!(matches!(
            runtime.run(&wl).unwrap_err(),
            RuntimeError::LocalOperationAtTopLevel { transaction } if transaction == "t0"
        ));
    }

    #[test]
    fn faceoff_requires_at_least_one_spec() {
        assert!(matches!(
            Runtime::faceoff(&tiny_workload(), &[]),
            Err(RuntimeError::Config(ConfigError::MissingScheduler))
        ));
    }
}
