//! # obase — transaction synchronisation in object bases
//!
//! A Rust reproduction of *T. Hadzilacos & V. Hadzilacos, "Transaction
//! Synchronisation in Object Bases"* (PODS 1988; JCSS 43, 1991): a formal
//! model of nested transactions over objects with semantic (commutativity
//! based) conflicts, the generalised serialisability theorem and its
//! per-object refinement, and executable concurrency-control algorithms —
//! nested two-phase locking, nested timestamp ordering, flat baselines and an
//! optimistic inter-object certifier — driven by a deterministic interleaving
//! simulator with workload generators and an experiment harness.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`runtime`] — the unified entry point: declarative [`SchedulerSpec`]s,
//!   the fluent [`Runtime`] builder and verified [`RunReport`]s;
//! * [`core`] — the formal model (histories, conflicts, serialisation
//!   graphs, Theorems 1, 2 and 5);
//! * [`adt`] — semantic object types (registers, counters, accounts, sets,
//!   dictionaries, an ordered B-tree dictionary, FIFO queues);
//! * [`sched`] — the schedulers: nested two-phase locking and the flat
//!   Gemstone-style baseline, nested timestamp ordering (conservative and
//!   provisional), the optimistic serialisation-graph certifier and the
//!   mixed per-object composition;
//! * [`exec`] — transaction programs, the lifecycle kernel and the
//!   interleaving engine;
//! * [`par`] — the multi-threaded wall-clock backend (worker pool, sharded
//!   object store, real blocking), selected with
//!   [`ExecutionBackend::Parallel`];
//! * [`wal`] — the durable write-ahead-logged backend (append-only checksummed
//!   log, group commit, crash recovery held to the same oracle), selected
//!   with [`ExecutionBackend::Durable`];
//! * [`obs`] — the observability layer: lifecycle tracing across all three
//!   backends, per-phase latency histograms, blocked-time attribution and
//!   Chrome/Perfetto trace export, switched on with
//!   [`Observe`](obase_runtime::Observe) on the [`Runtime`] builder;
//! * [`workload`] — seeded workload generators;
//! * [`scenario`] — the declarative scenario engine: a JSON workload DSL
//!   (client mixes, key distributions, nesting shapes over every ADT) plus
//!   seeded fault/chaos injection, with a library of named scenarios the
//!   backend-equivalence oracle sweeps;
//! * [`fuzz`] — the differential scenario fuzzer: a seeded generator over
//!   the whole scenario space, a sim/par/WAL cross-checking executor held
//!   to the serialisability oracle, an auto-shrinker, and the `bugbase/`
//!   corpus of minimal reproducers replayed forever in CI;
//! * [`serve`] — the TCP front end: a length-prefixed JSON protocol over
//!   real sockets, bounded admission with typed backpressure, ingress
//!   batching onto the parallel backend, live desired-state reconcile of
//!   scheduler and worker pool, and a wire status endpoint — with the
//!   merged history of everything admitted held to the same oracle.
//!
//! ## Quickstart
//!
//! Schedulers are *data*: pick one with a [`SchedulerSpec`], build a
//! [`Runtime`], and get back a [`RunReport`] carrying the committed history,
//! the metrics and the paper's theory checks.
//!
//! ```
//! use obase::prelude::*;
//!
//! // Generate a small banking workload and run it under nested 2PL.
//! let wl = obase::workload::banking(&obase::workload::BankingParams {
//!     accounts: 4,
//!     transactions: 8,
//!     ..Default::default()
//! });
//! let report = Runtime::builder()
//!     .scheduler(SchedulerSpec::n2pl_operation())
//!     .clients(4)
//!     .seed(7)
//!     .verify(Verify::Full)
//!     .build()?
//!     .run(&wl)?;
//!
//! assert_eq!(report.metrics.committed, 8);
//! // Every history a correct scheduler admits is legal, has an acyclic
//! // serialisation graph (Theorem 2) and satisfies the per-object condition
//! // (Theorem 5) — one call checks all three.
//! report.assert_serialisable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Scheduler face-offs compare every algorithm on one workload:
//!
//! ```
//! use obase::prelude::*;
//!
//! let wl = obase::workload::counters(&Default::default());
//! let faceoff = Runtime::faceoff(&wl, &SchedulerSpec::all_basic())?;
//! faceoff.assert_all_serialisable();
//! println!("{}", faceoff.render_table());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use obase_adt as adt;
pub use obase_core as core;
pub use obase_exec as exec;
pub use obase_fuzz as fuzz;
pub use obase_obs as obs;
pub use obase_par as par;
pub use obase_runtime as runtime;
pub use obase_scenario as scenario;
pub use obase_sched as sched;
pub use obase_serve as serve;
pub use obase_wal as wal;
pub use obase_workload as workload;

#[doc(inline)]
pub use obase_runtime::{ExecutionBackend, RunReport, Runtime, SchedulerSpec, Verify};

/// Commonly used items across the workspace.
///
/// Concrete scheduler types are intentionally *not* exported here: choose
/// algorithms declaratively through [`SchedulerSpec`] and the
/// [`Runtime`] builder (see the crate-level quickstart).
pub mod prelude {
    pub use obase_core::prelude::*;
    pub use obase_exec::{
        Expr, MethodDef, ObjectBaseDef, Program, RunMetrics, TxnSpec, WorkloadSpec,
    };
    pub use obase_runtime::{
        ConfigError, ExecutionBackend, Faceoff, FlatMode, LockGranularity, NtoStyle, Observe,
        RunReport, Runtime, RuntimeBuilder, RuntimeError, SchedulerSpec, TheoryChecks,
        TheoryViolation, Verify,
    };
}
