//! # obase-exec — the object-base runtime
//!
//! This crate turns the analytical model of `obase-core` into an executable
//! system: objects carry method definitions (nested programs with sequential
//! and parallel composition), user transactions are submitted as programs of
//! the environment, and a deterministic interleaving simulator executes them
//! under the control of a pluggable concurrency-control
//! [`Scheduler`](obase_core::sched::Scheduler) (N2PL and flat locking from
//! `obase-lock`, NTO from `obase-tso`, the SGT certifier from `obase-occ`, or
//! the [`mixed`] composition of per-object policies).
//!
//! Every run records a full history in the core model; the committed
//! projection is returned as a legal [`History`](obase_core::history::History)
//! so the serialisation-graph machinery can verify, after the fact, that the
//! scheduler admitted only serialisable executions.
//!
//! ## Quickstart
//!
//! Most callers should not drive the engine directly: the `obase-runtime`
//! crate wraps it in a validated, declarative facade. A scheduler is chosen
//! as data, the runtime owns the engine loop, and the report carries the
//! history, metrics and theory checks:
//!
//! ```
//! use obase_runtime::{Runtime, SchedulerSpec, Verify};
//!
//! let workload = obase_workload::queues(&obase_workload::QueueParams {
//!     queues: 1,
//!     producers: 4,
//!     consumers: 4,
//!     preload: 4,
//!     seed: 17,
//! });
//! let report = Runtime::builder()
//!     .scheduler(SchedulerSpec::n2pl_step())
//!     .clients(4)
//!     .seed(17)
//!     .verify(Verify::Full)
//!     .build()?
//!     .run(&workload)?;
//! assert_eq!(report.metrics.committed, 8);
//! report.assert_serialisable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The raw entry point ([`engine::execute`]) remains available for embedders
//! that need to drive a [`Scheduler`](obase_core::sched::Scheduler) manually.
//! (The pre-0.2 `run`/`EngineConfig` shims have been removed.)
//!
//! ## The lifecycle kernel
//!
//! The [`kernel`] module is the single source of truth for the transaction
//! lifecycle — admission, provisional/validate/install recording, commit
//! certification, abort undo ordering, cascade resolution and retry
//! accounting. The simulator in [`engine`] and the multi-threaded backend in
//! `obase-par` are both thin *drivers* over it (see
//! [`obase_core::lifecycle`] for the driver contract), which is what makes
//! the paper's checks hold identically across backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod kernel;
pub mod metrics;
pub mod mixed;
pub mod mvcc;
pub mod program;
pub mod store;

pub use engine::{drive, execute, ExecParams, RunResult};
pub use kernel::LifecycleKernel;
pub use metrics::RunMetrics;
pub use mixed::MixedScheduler;
pub use mvcc::{classify, execute_plan, plan_specs, SnapshotOutcome, SnapshotPlan, VersionedStore};
pub use program::{Expr, MethodDef, ObjRef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
pub use store::{replay_log, LogEntry, ObjectStore};
