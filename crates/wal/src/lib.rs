//! # obase-wal — the durable execution backend
//!
//! The third backend of the object base: the same interleaving simulator as
//! `obase-exec`, but every history-shaping event is streamed through a
//! **write-ahead log** as it happens, so a run survives a crash. The crate
//! layers over the shared lifecycle kernel exactly like the other two
//! backends — it contributes only what durability is about:
//!
//! * [`codec`] — the on-disk representation: every lifecycle event (and the
//!   commit record, which only durable recorders persist) as a compact JSON
//!   document in the `obase-ser` dialect.
//! * [`log`] — framing and the group-commit protocol: each record is
//!   `[len][checksum][payload]`, appended through a buffered [`WalWriter`]
//!   that fsyncs once per *window* of commit records rather than once per
//!   commit. The reader tolerates torn tails: the first frame that fails its
//!   length or checksum ends the log.
//! * [`recorder`] — [`WalRecorder`], a
//!   [`HistoryRecorder`](obase_core::record::HistoryRecorder) that tees every
//!   event into both the in-memory [`HistoryBuilder`](obase_core::builder::HistoryBuilder)
//!   and the log.
//! * [`backend`] — [`execute_durable`], the drop-in durable counterpart of
//!   [`obase_exec::execute`], and [`WalBackend::recover`], which re-derives a
//!   consistent state from whatever prefix of the log survived: committed
//!   transactions are replayed, uncommitted ones are rolled back
//!   (`crash_rollback` in the abort histogram), and committed transactions
//!   whose reads no longer replay — they observed state of a transaction
//!   that died in flight — are cascade-rolled-back until the surviving
//!   history is consistent. The recovered history is held to the same
//!   oracle ([`obase_core::oracle`]) as a live run.
//! * [`crash`] — fault helpers for the kill-at-any-point tests: truncate a
//!   log at an arbitrary byte offset, or flip a single byte.
//!
//! ## Quickstart
//!
//! ```
//! use obase_wal::{execute_durable, scratch_dir, WalBackend};
//!
//! let workload = obase_workload::queues(&obase_workload::QueueParams {
//!     queues: 1,
//!     producers: 2,
//!     consumers: 2,
//!     preload: 2,
//!     seed: 7,
//! });
//! let mut sched = obase_sched::N2plScheduler::step_locks();
//! let dir = scratch_dir("doc");
//! let result = execute_durable(
//!     &workload,
//!     &mut sched,
//!     &obase_exec::ExecParams::default(),
//!     &dir,
//!     8, // fsync once per 8 commit records
//!     &obase_obs::ObsHandle::off(),
//! )?;
//!
//! // Recovery from the full log reproduces the run's committed history.
//! let recovered = WalBackend::new(workload.def.base().clone()).recover(&dir)?;
//! recovered.assert_serialisable();
//! assert_eq!(recovered.committed.len(), result.metrics.committed);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), obase_wal::WalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod crash;
pub mod log;
pub mod recorder;

pub use backend::{execute_durable, Recovered, RecoveryViolation, WalBackend};
pub use codec::WalRecord;
pub use log::{log_path, LogScan, WalWriter};
pub use recorder::WalRecorder;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors of the durable backend.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error while writing or reading the log.
    Io(std::io::Error),
    /// The log's header does not match the object base handed to recovery
    /// (different objects — the log belongs to another workload).
    BaseMismatch(String),
    /// The log's first complete record is not a header — the file is some
    /// other format, not one of our logs. (A log torn *inside* the header
    /// frame, or never written at all, is not this error: that is a
    /// total-loss crash and recovery returns the base state.)
    MissingHeader(PathBuf),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "write-ahead log I/O error: {e}"),
            WalError::BaseMismatch(why) => {
                write!(f, "log does not belong to this object base: {why}")
            }
            WalError::MissingHeader(p) => {
                write!(
                    f,
                    "first record in {} is not a header (foreign log)",
                    p.display()
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Creates a fresh scratch directory for a write-ahead log under the system
/// temp dir (the workspace has no tempfile dependency by design). The caller
/// owns cleanup; names are unique per process and call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "obase-wal-{tag}-{pid}-{n}",
        pid = std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir under temp");
    dir
}
