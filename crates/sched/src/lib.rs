//! # obase-sched — the paper's schedulers
//!
//! N2PL (Section 5.1), NTO (Section 5.2) and the SGT certifier (Section 6)
//! are interchangeable behind one contract,
//! [`obase_core::sched::Scheduler`], and Section 2 composes them per object.
//! This crate holds all of them; the execution backends drive them, and
//! `obase-runtime`'s `SchedulerSpec::build` picks one from a spec.
//!
//! ## Locking (Section 5.1)
//!
//! * [`n2pl::N2plScheduler`] — nested two-phase locking (Moss' algorithm as
//!   generalised by the paper's rules 1–5): locks are associated with
//!   operations or with steps, a lock can be acquired only if every
//!   conflicting lock is owned by an ancestor, and on commit a method
//!   execution's locks are inherited by its parent (rule 5). Both
//!   implementation styles discussed in the paper are available:
//!   conservative *operation-level* locks and return-value-aware *step-level*
//!   locks ([`LockGranularity`]).
//! * [`flat::FlatObjectScheduler`] — the baseline sketched in the
//!   introduction (and used by Gemstone): treat every object as a single
//!   data item, allow one active method execution per object, and run
//!   strict two-phase locking at the granularity of whole objects and
//!   top-level transactions.
//!
//! The lock-based schedulers report `waiting_for` sets, from which the
//! backends detect deadlocks.
//!
//! ## Timestamp ordering (Section 5.2)
//!
//! Reed's nested timestamp ordering (NTO), [`nto::NtoScheduler`]:
//!
//! 1. if incomparable executions issue conflicting local steps, the earlier
//!    step's execution must have the smaller hierarchical timestamp;
//! 2. if two messages of one execution are ordered by its program order,
//!    their child executions' timestamps must be ordered accordingly.
//!
//! It comes in both of the paper's implementation styles ([`NtoStyle`]):
//!
//! * **conservative** — per object and operation, only the maximum timestamp
//!   of any issuer is retained (`hts(a)`), and conflicts are judged at the
//!   operation level;
//! * **provisional** — operations are provisionally executed, the resulting
//!   step is validated against the retained step history using the
//!   return-value-aware conflict relation, and obsolete entries are discarded
//!   once no active execution can precede them (the "forgetting" mechanism
//!   sketched in the paper).
//!
//! ## Certification (Section 6) and mixtures (Section 2)
//!
//! Section 6 observes that inter-object synchronisation can be done
//! optimistically, "resembling certifiers in conventional database
//! concurrency control", at the cost of commit-time aborts but with maximal
//! freedom for intra-object synchronisation. [`certifier::SgtCertifier`]
//! maintains, as steps are installed, a conflict graph over top-level
//! transactions (the projection of the serialisation graph that Theorem 5
//! says must stay acyclic), and at commit time aborts a transaction that
//! lies on a cycle.
//!
//! The certifier is also the inter-object half of
//! [`mixed::MixedScheduler`], which pairs it with per-object intra-object
//! policies (Section 2's vision of each object choosing its own algorithm).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certifier;
pub mod flat;
pub mod hts;
pub mod mixed;
pub mod n2pl;
pub mod nto;
pub mod table;
#[cfg(test)]
mod test_view;

pub use certifier::SgtCertifier;
pub use flat::{FlatMode, FlatObjectScheduler};
pub use hts::HierTimestamp;
pub use mixed::MixedScheduler;
pub use n2pl::N2plScheduler;
pub use nto::{NtoScheduler, NtoStyle};
pub use table::{LockGranularity, LockKey, LockTable};
