//! # obase-core — the formal model of transaction synchronisation in object bases
//!
//! This crate implements the model, definitions and theorems of
//! *T. Hadzilacos & V. Hadzilacos, "Transaction Synchronisation in Object
//! Bases"* (PODS 1988; JCSS 43, 1991):
//!
//! * **Objects and object bases** (Definition 1): [`object::ObjectBase`],
//!   [`object::SemanticType`] — an object's variables, state and local
//!   operations.
//! * **Operations, local steps and message steps** (Definition 2):
//!   [`op::Operation`], [`op::LocalStep`], [`step::StepRecord`].
//! * **Commutativity and conflict** (Definition 3): declared per type and
//!   validated against the state-based ground truth by [`conflict`].
//! * **Method executions** (Definition 4): [`exec_tree::MethodExecution`].
//! * **Histories and legality** (Definitions 5–6): [`history::History`],
//!   [`builder::HistoryBuilder`], [`legality`].
//! * **Well-definedness** (Theorem 1): [`replay`].
//! * **Equivalence, serial and serialisable histories** (Definitions 7–8):
//!   [`equivalence`].
//! * **The serialisation graph and the Serialisability Theorem**
//!   (Definition 9, Theorem 2): [`sg`].
//! * **Per-object graphs and the intra-/inter-object separation**
//!   (Definition 10, Theorem 5): [`local_graphs`].
//! * **The serialisability oracle** — legality, Theorem 2 and optionally
//!   Theorem 5 composed into one check that returns the committed final
//!   states: [`oracle`].
//! * **Persistent object states**: [`pmap::PMap`], the path-copying B-tree
//!   behind [`value::Value::Map`].
//! * **Abort semantics** (Section 3): [`aborts`].
//! * **Append-only history recording** for concurrent backends (per-worker
//!   event buffers stitched by a global sequence counter): [`record`].
//! * **The scheduler interface** implemented by the concurrency-control
//!   crate (`obase-sched`) and driven by the execution engine
//!   (`obase-exec`): [`sched`].
//! * **The backend-agnostic lifecycle building blocks** shared by every
//!   execution backend — the execution registry, the abort/cascade
//!   resolution loop and the [`lifecycle::ExecutionDriver`] contract:
//!   [`lifecycle`].
//!
//! The crate is purely analytical: it represents and checks executions. The
//! machinery that *produces* executions (transaction programs, the
//! interleaving simulator, workloads) lives in the sibling crates.
//!
//! ## Quick example
//!
//! ```
//! use obase_core::prelude::*;
//! use std::sync::Arc;
//!
//! // An object base with a single read/write register.
//! let mut base = ObjectBase::new();
//! let x = base.add_object("x", Arc::new(obase_core::testutil::IntRegister));
//!
//! // Two user transactions writing the register one after the other.
//! let mut b = HistoryBuilder::new(Arc::new(base));
//! for (name, v) in [("T1", 1), ("T2", 2)] {
//!     let t = b.begin_top_level(name);
//!     let (m, e) = b.invoke(t, x, "set", []);
//!     b.local_applied(e, Operation::unary("Write", v)).unwrap();
//!     b.complete_invoke(m, Value::Unit);
//! }
//! let h = b.build();
//!
//! assert!(obase_core::legality::is_legal(&h));
//! assert!(obase_core::sg::certifies_serialisable(&h));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aborts;
pub mod builder;
pub mod conflict;
pub mod equivalence;
pub mod error;
pub mod exec_tree;
pub mod graph;
pub mod history;
pub mod ids;
pub mod legality;
pub mod lifecycle;
pub mod local_graphs;
pub mod object;
pub mod op;
pub mod oracle;
pub mod pmap;
pub mod record;
pub mod replay;
pub mod sched;
pub mod sg;
pub mod step;
pub mod testutil;
pub mod value;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::builder::HistoryBuilder;
    pub use crate::error::{LegalityError, TypeError};
    pub use crate::exec_tree::MethodExecution;
    pub use crate::history::{History, Interval};
    pub use crate::ids::{ExecId, ObjectId, StepId};
    pub use crate::object::{ObjectBase, ObjectSpec, SemanticType, TypeHandle};
    pub use crate::op::{LocalStep, Operation};
    pub use crate::sched::{AbortReason, Decision, Scheduler, TxnView};
    pub use crate::step::{StepKind, StepRecord};
    pub use crate::value::Value;
}

pub use prelude::*;
