//! # obase-exec — the object-base runtime
//!
//! This crate turns the analytical model of `obase-core` into an executable
//! system: objects carry method definitions (nested programs with sequential
//! and parallel composition), user transactions are submitted as programs of
//! the environment, and a deterministic interleaving simulator executes them
//! under the control of a pluggable concurrency-control
//! [`Scheduler`](obase_core::sched::Scheduler) (the paper's algorithms and
//! their per-object mixtures live in `obase-sched`).
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
//! use obase_core::object::ObjectBase;
//! use obase_core::value::Value;
//! use obase_exec::{MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
//! use obase_runtime::{Runtime, SchedulerSpec, Verify};
//! use std::sync::Arc;
//!
//! // One counter with an `add` method, and eight transactions calling it.
//! let mut base = ObjectBase::new();
//! let c = base.add_object("c", Arc::new(obase_adt::Counter::default()));
//! let mut def = ObjectBaseDef::new(Arc::new(base));
//! let body = Program::local("Add", [Value::Int(1)]);
//! def.define_method(c, MethodDef { name: "add".into(), params: 0, body });
//! let transactions = (0..8)
//!     .map(|i| TxnSpec { name: format!("T{i}"), body: Program::invoke(c, "add", []) })
//!     .collect();
//! let workload = WorkloadSpec { def, transactions };
//! let report = Runtime::builder()
//!     .scheduler(SchedulerSpec::n2pl_operation())
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
pub mod program;
pub mod store;

pub use engine::{drive, execute, ExecParams, RunResult};
pub use kernel::LifecycleKernel;
pub use metrics::RunMetrics;
pub use program::{
    Expr, MethodDef, ObjRef, ObjectBaseDef, Program, ProgramError, TxnSpec, WorkloadSpec,
};
pub use store::{replay_log, LogEntry, ObjectStore};
