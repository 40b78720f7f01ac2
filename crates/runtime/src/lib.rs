//! # obase-runtime — the unified runtime facade
//!
//! The paper's algorithms — nested two-phase locking (Section 5.1), nested
//! timestamp ordering (Section 5.2), the optimistic certifier (Section 6) and
//! Section 2's per-object mixtures — are interchangeable behind one scheduler
//! contract. This crate makes that pluggability *declarative*:
//!
//! * a [`SchedulerSpec`] describes a concurrency-control configuration as
//!   plain data (serialisable to JSON and back), so schedulers are chosen by
//!   configuration rather than by importing concrete types;
//! * [`SchedulerSpec::build`] turns a spec into a live scheduler from
//!   `obase-sched`, one `match` over the spec's variants;
//! * the fluent [`Runtime`] builder validates the run configuration with
//!   typed [`ConfigError`]s instead of panics and owns the engine loop;
//! * every run returns a [`RunReport`] that bundles the committed history,
//!   the metrics and the paper's theory checks (legality, Theorem 2,
//!   Theorem 5) — [`RunReport::assert_serialisable`] performs all of them in
//!   one call — and [`Runtime::faceoff`] lines schedulers up side by side.
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
//! // The scheduler is data: parse it from configuration...
//! let spec = SchedulerSpec::parse(r#"{"kind":"n2pl","granularity":"step"}"#)?;
//! // ...and run the workload under it, fully verified.
//! let report = Runtime::builder()
//!     .scheduler(spec)
//!     .verify(Verify::Full)
//!     .build()?
//!     .run(&workload)?;
//! report.assert_serialisable();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod report;
pub mod runtime;
pub mod spec;

pub use error::{ConfigError, RuntimeError, TheoryViolation};
pub use report::{Faceoff, RunReport, TheoryChecks};
pub use runtime::{ExecutionBackend, Observe, Runtime, RuntimeBuilder, SchedulerWrapper, Verify};
pub use spec::SchedulerSpec;

// Re-export the enums scheduler specs are parameterised by, so spec authors
// need only this crate.
pub use obase_par::ParParams;
pub use obase_sched::{FlatMode, LockGranularity, NtoStyle};

// Re-export the observability surface, so benches and scenarios configure
// tracing without a direct `obase-obs` dependency.
pub use obase_obs::{
    ChromeTraceObserver, Histogram, LaneId, LatencyReport, NullObserver, ObsEvent, ObsHandle,
    ObsStamped, Observer, RecordingObserver,
};
