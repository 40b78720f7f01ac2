//! Typed errors for the runtime facade.
//!
//! The pre-0.2 API panicked on malformed configuration ("malformed workload",
//! missing methods, zero clients silently looping forever). The runtime
//! validates instead and reports one of the error types here, all of which
//! implement [`std::error::Error`].

use obase_core::ids::ObjectId;
use std::fmt;

pub use obase_core::oracle::TheoryViolation;

/// A problem with the runtime configuration, detected at build time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No scheduler spec was supplied to the builder.
    MissingScheduler,
    /// `clients` was zero: no transaction could ever start.
    ZeroClients,
    /// `max_rounds` was zero: the engine could never take a step.
    ZeroMaxRounds,
    /// A parallel backend with zero workers: no transaction could ever run.
    ZeroWorkers,
    /// An explicit store-shard count of zero: the parallel backend's data
    /// plane needs at least one shard. Leave the knob unset for the default
    /// (the next power of two at least twice the worker count).
    ZeroShards,
    /// A `Mixed` spec with neither a default intra-object policy nor any
    /// per-object policy. Use [`SchedulerSpec::SgtCertifier`] for pure
    /// commit-time certification.
    ///
    /// [`SchedulerSpec::SgtCertifier`]: crate::SchedulerSpec::SgtCertifier
    EmptyMixedSpec,
    /// A `Mixed` spec nested inside another `Mixed` spec: intra-object
    /// policies must be plain schedulers.
    NestedMixedSpec,
    /// The same object was given two intra-object policies in one `Mixed`
    /// spec.
    DuplicateMixedObject(ObjectId),
    /// A fault-plan gate window whose start lies after its end
    /// (`from > until`). Such a window can never contain a gate, so the
    /// plan it configures would silently inject nothing — rejected at
    /// build time instead.
    InvertedFaultWindow {
        /// First gate of the window.
        from: u64,
        /// First gate past the window.
        until: u64,
    },
    /// A serving front end with an admission queue of depth zero: nothing
    /// could ever be admitted.
    ZeroQueueDepth,
    /// A serving front end with an ingress batch bound of zero: no admitted
    /// transaction could ever be executed.
    ZeroBatch,
    /// The registry has no factory for a spec kind.
    UnknownKind(String),
    /// A serialised spec did not parse or had the wrong shape.
    BadSpec(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingScheduler => {
                write!(f, "no scheduler spec was supplied to the builder")
            }
            ConfigError::ZeroClients => write!(f, "clients must be at least 1"),
            ConfigError::ZeroMaxRounds => write!(f, "max_rounds must be at least 1"),
            ConfigError::ZeroWorkers => {
                write!(f, "the parallel backend needs at least 1 worker")
            }
            ConfigError::ZeroShards => {
                write!(
                    f,
                    "the parallel backend needs at least 1 store shard \
                     (leave store_shards unset for the default)"
                )
            }
            ConfigError::EmptyMixedSpec => write!(
                f,
                "mixed spec has no intra-object policies; use SgtCertifier for \
                 pure commit-time certification"
            ),
            ConfigError::NestedMixedSpec => {
                write!(f, "mixed specs cannot nest inside other mixed specs")
            }
            ConfigError::DuplicateMixedObject(o) => {
                write!(
                    f,
                    "object {o} has two intra-object policies in one mixed spec"
                )
            }
            ConfigError::InvertedFaultWindow { from, until } => {
                write!(
                    f,
                    "inverted fault window: first gate {from} lies after the \
                     window's end {until}, so it could never fire"
                )
            }
            ConfigError::ZeroQueueDepth => {
                write!(f, "the admission queue needs a depth of at least 1")
            }
            ConfigError::ZeroBatch => {
                write!(f, "ingress batches need room for at least 1 transaction")
            }
            ConfigError::UnknownKind(kind) => {
                write!(f, "no scheduler factory registered for kind {kind:?}")
            }
            ConfigError::BadSpec(detail) => write!(f, "malformed scheduler spec: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A problem detected while preparing or executing a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// A transaction (or a method body) invokes a method the target object
    /// does not define.
    UnknownMethod {
        /// The target object.
        object: ObjectId,
        /// The missing method.
        method: String,
    },
    /// A method was invoked with the wrong number of arguments.
    ArityMismatch {
        /// The target object.
        object: ObjectId,
        /// The invoked method.
        method: String,
        /// Parameters the method declares.
        expected: usize,
        /// Arguments the invocation supplies.
        got: usize,
    },
    /// A top-level transaction contains a local operation (the environment
    /// has no variables, Definition 1).
    LocalOperationAtTopLevel {
        /// The offending transaction's label.
        transaction: String,
    },
    /// The durable backend could not write (or finalise) its write-ahead
    /// log. Carries the rendered I/O error; the run's effects must be
    /// considered not durable.
    Durability(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "configuration error: {e}"),
            RuntimeError::UnknownMethod { object, method } => {
                write!(f, "object {object} defines no method {method:?}")
            }
            RuntimeError::ArityMismatch {
                object,
                method,
                expected,
                got,
            } => write!(
                f,
                "method {method:?} of {object} takes {expected} parameter(s) but \
                 was invoked with {got}"
            ),
            RuntimeError::LocalOperationAtTopLevel { transaction } => write!(
                f,
                "transaction {transaction:?} issues a local operation at top \
                 level, but the environment has no variables"
            ),
            RuntimeError::Durability(detail) => {
                write!(f, "write-ahead log failure: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}
