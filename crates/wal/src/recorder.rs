//! The durable recorder: tees every lifecycle event into the in-memory
//! history builder *and* the write-ahead log.
//!
//! [`WalRecorder`] is the durable backend's implementation of the recording
//! contract ([`HistoryRecorder`]). It wraps the same [`HistoryBuilder`] the
//! simulator uses — so the run still produces its in-memory history with
//! final step ids handed out immediately — and appends the equivalent
//! [`WalRecord`] for each event. Because the simulated machine is
//! single-threaded, append order equals builder allocation order, which is
//! what lets recovery replay a log prefix through a fresh builder and land
//! on identical ids.
//!
//! The recording trait returns no `Result`, so the first I/O error is
//! stashed and recording continues in memory only; the run's caller
//! surfaces the stashed error from [`WalRecorder::finish`] instead of
//! silently pretending the log is complete.

use crate::codec::{WalRecord, FORMAT_VERSION};
use crate::log::WalWriter;
use obase_core::builder::HistoryBuilder;
use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::op::Operation;
use obase_core::record::HistoryRecorder;
use obase_core::value::Value;
use std::io;

/// A [`HistoryRecorder`] that makes the run durable. See the module docs.
#[derive(Debug)]
pub struct WalRecorder {
    builder: HistoryBuilder,
    writer: WalWriter,
    error: Option<io::Error>,
}

impl WalRecorder {
    /// Wraps a builder and a log writer, appending the header record (the
    /// object-base fingerprint recovery validates against).
    ///
    /// The builder must be fresh and must have automatic program-order
    /// recording disabled, as the kernel records explicit edges.
    pub fn new(builder: HistoryBuilder, mut writer: WalWriter) -> io::Result<Self> {
        let objects = builder.base().iter().map(|s| s.name.clone()).collect();
        writer.append(&WalRecord::Header {
            version: FORMAT_VERSION,
            objects,
        })?;
        Ok(WalRecorder {
            builder,
            writer,
            error: None,
        })
    }

    fn append(&mut self, record: WalRecord) {
        if self.error.is_none() {
            if let Err(e) = self.writer.append(&record) {
                self.error = Some(e);
            }
        }
    }

    /// Flushes and syncs the log, surfacing the first error of the run (if
    /// any append failed, or the final flush does). On success returns the
    /// builder holding the in-memory history and the number of fsyncs the
    /// log cost.
    pub fn finish(self) -> io::Result<(HistoryBuilder, u64)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let syncs = self.writer.finish()?;
        Ok((self.builder, syncs))
    }
}

impl HistoryRecorder for WalRecorder {
    fn record_begin_top(&mut self, exec: ExecId, name: &str) {
        self.builder.record_begin_top(exec, name);
        self.append(WalRecord::BeginTop {
            exec,
            name: name.to_owned(),
        });
    }

    fn record_invoke(
        &mut self,
        parent: ExecId,
        child: ExecId,
        target: ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> StepId {
        let step = self
            .builder
            .record_invoke(parent, child, target, method, args.clone());
        self.append(WalRecord::Invoke {
            step,
            parent,
            child,
            target,
            method: method.to_owned(),
            args,
        });
        step
    }

    fn record_local(&mut self, exec: ExecId, op: Operation, ret: Value) -> StepId {
        let step = self.builder.record_local(exec, op.clone(), ret.clone());
        self.append(WalRecord::Local {
            step,
            exec,
            op,
            ret,
        });
        step
    }

    fn record_program_order(&mut self, exec: ExecId, a: StepId, b: StepId) {
        self.builder.record_program_order(exec, a, b);
        self.append(WalRecord::ProgramOrder { exec, a, b });
    }

    fn record_complete(&mut self, step: StepId, ret: Value) {
        self.builder.record_complete(step, ret.clone());
        self.append(WalRecord::Complete { step, ret });
    }

    fn record_abort(&mut self, exec: ExecId) {
        self.builder.record_abort(exec);
        self.append(WalRecord::Abort { exec });
    }

    fn record_commit_top(&mut self, exec: ExecId) {
        // The in-memory builder needs no commit mark (commitment is the
        // absence of an abort), but the log does: this record is the
        // transaction's durability point, and the one the group-commit
        // window counts.
        self.append(WalRecord::CommitTop { exec });
    }
}
