//! Declarative server configuration and the reconcile diff.
//!
//! A [`ServeConfig`] is the server's *desired state*: scheduler line-up,
//! worker/shard counts, admission-queue depth, ingress batch cap.
//! Reconciling means handing the server a new desired state; the server
//! diffs it against the current one, swaps atomically, and reports which
//! fields actually changed. Reconciling the same config twice is a no-op
//! the second time — the changed-field list is empty — which is what makes
//! a retrying operator loop safe.
//!
//! Config changes take effect at the next *batch boundary*: the batch in
//! flight finishes under the old scheduler and worker count, and
//! everything admitted afterwards runs under the new one. Each batch runs
//! on up to `workers` workers, one per transaction at most: the thread
//! running the batch (the executor thread, or the session thread of a lone
//! submission), plus threads from the parallel backend's resident pool,
//! which keeps its threads across batches and settles at the peak worker
//! count ever used minus one, so "drain and resize" falls out of the
//! batching design. No
//! in-flight transaction is ever dropped by a reconcile.

use obase_runtime::{ConfigError, ExecutionBackend, Observe, Runtime, SchedulerSpec, Verify};
use obase_ser::Json;

/// The server's desired state.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// The scheduler every ingress batch runs under.
    pub scheduler: SchedulerSpec,
    /// Worker threads of the parallel backend.
    pub workers: usize,
    /// Bound of the admission queue; a full queue rejects with
    /// [`RejectReason::QueueFull`](crate::RejectReason::QueueFull).
    pub queue_depth: usize,
    /// Most transactions one ingress batch may carry.
    pub batch_max: usize,
    /// Per-transaction retry budget inside a batch.
    pub retries: u32,
    /// Store shards of the parallel backend; `0` keeps the backend default.
    pub store_shards: usize,
    /// The switch of the removed snapshot read path. `false` is the only
    /// value [`validate`](Self::validate) accepts; `true` fails with
    /// [`ConfigError::SnapshotReadsRemoved`]. It is not part of
    /// [`diff`](Self::diff) or [`to_json`](Self::to_json). Kept only because
    /// servebench (`servebench/src/traced.rs`) still reads it; it goes once
    /// that read is dropped.
    pub mvcc: bool,
    /// Retain each batch's committed history so
    /// [`Server::shutdown`](crate::Server::shutdown) can hand back the
    /// merged admitted history for the serialisability oracle. Costs
    /// memory proportional to everything ever admitted — leave off for
    /// long-running load tests.
    pub keep_history: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scheduler: SchedulerSpec::n2pl_operation(),
            workers: 4,
            queue_depth: 256,
            batch_max: 64,
            retries: 8,
            store_shards: 0,
            mvcc: false,
            keep_history: true,
        }
    }
}

impl ServeConfig {
    /// Validates the config with the runtime's typed errors.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.scheduler.validate()?;
        if self.mvcc {
            return Err(ConfigError::SnapshotReadsRemoved);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.batch_max == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        Ok(())
    }

    /// The runtime an ingress batch runs on: the parallel backend with this
    /// config's scheduler, workers, retries and store shards,
    /// `Verify::Quick` and `Observe::Latency`.
    pub fn runtime(&self) -> Result<Runtime, ConfigError> {
        let mut builder = Runtime::builder()
            .scheduler(self.scheduler.clone())
            .backend(ExecutionBackend::Parallel {
                workers: self.workers,
            })
            .retries(self.retries)
            .mvcc(self.mvcc)
            .verify(Verify::Quick)
            .observe(Observe::Latency);
        if self.store_shards > 0 {
            builder = builder.store_shards(self.store_shards);
        }
        builder.build()
    }

    /// Names the fields in which `desired` differs from `self` — the
    /// reconcile report. Empty means the desired state already holds.
    pub fn diff(&self, desired: &ServeConfig) -> Vec<&'static str> {
        let mut changed = Vec::new();
        if self.scheduler != desired.scheduler {
            changed.push("scheduler");
        }
        if self.workers != desired.workers {
            changed.push("workers");
        }
        if self.queue_depth != desired.queue_depth {
            changed.push("queue_depth");
        }
        if self.batch_max != desired.batch_max {
            changed.push("batch_max");
        }
        if self.retries != desired.retries {
            changed.push("retries");
        }
        if self.store_shards != desired.store_shards {
            changed.push("store_shards");
        }
        if self.keep_history != desired.keep_history {
            changed.push("keep_history");
        }
        changed
    }

    /// Renders the config as JSON (the shape `apply_json` accepts, and the
    /// shape the status document embeds).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("scheduler", self.scheduler.to_json()),
            ("workers", Json::Int(self.workers as i64)),
            ("queue_depth", Json::Int(self.queue_depth as i64)),
            ("batch_max", Json::Int(self.batch_max as i64)),
            ("retries", Json::Int(i64::from(self.retries))),
            ("store_shards", Json::Int(self.store_shards as i64)),
            ("keep_history", Json::Bool(self.keep_history)),
        ])
    }

    /// Builds the desired config a `reconcile` frame describes: `self`
    /// overridden by every field present in `json`. Absent fields keep
    /// their current value, so a frame may carry only what it wants to
    /// change while still being declarative (the result is a full desired
    /// state, not a delta applied blindly). Unknown fields are ignored,
    /// including the `linger_ms` of older servers' configs. An `mvcc` of
    /// `false` is accepted and changes nothing; `true` is refused with
    /// [`ConfigError::SnapshotReadsRemoved`]'s message.
    pub fn apply_json(&self, json: &Json) -> Result<ServeConfig, String> {
        let mut next = self.clone();
        if let Some(spec) = json.get("scheduler") {
            next.scheduler =
                SchedulerSpec::from_json(spec).map_err(|e| format!("bad scheduler spec: {e}"))?;
        }
        let usize_field = |key: &str| -> Result<Option<usize>, String> {
            match json.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_int()
                    .and_then(|i| usize::try_from(i).ok())
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        if let Some(v) = usize_field("workers")? {
            next.workers = v;
        }
        if let Some(v) = usize_field("queue_depth")? {
            next.queue_depth = v;
        }
        if let Some(v) = usize_field("batch_max")? {
            next.batch_max = v;
        }
        if let Some(v) = usize_field("retries")? {
            next.retries = u32::try_from(v).map_err(|_| "retries must fit in u32".to_owned())?;
        }
        if let Some(v) = usize_field("store_shards")? {
            next.store_shards = v;
        }
        if let Some(v) = json.get("mvcc") {
            if v.as_bool()
                .ok_or_else(|| "mvcc must be a boolean".to_owned())?
            {
                return Err(ConfigError::SnapshotReadsRemoved.to_string());
            }
        }
        if let Some(v) = json.get("keep_history") {
            next.keep_history = v
                .as_bool()
                .ok_or_else(|| "keep_history must be a boolean".to_owned())?;
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_removed_snapshot_switch_is_refused() {
        let on = ServeConfig {
            mvcc: true,
            ..ServeConfig::default()
        };
        assert_eq!(on.validate(), Err(ConfigError::SnapshotReadsRemoved));
        assert_eq!(on.runtime().err(), Some(ConfigError::SnapshotReadsRemoved));
        let current = ServeConfig::default();
        assert!(
            current.diff(&on).is_empty(),
            "mvcc is not a reconciled field"
        );
        assert!(current.to_json().get("mvcc").is_none());
        let ask = |mvcc: bool| current.apply_json(&Json::object([("mvcc", Json::Bool(mvcc))]));
        assert_eq!(ask(false), Ok(current.clone()));
        assert_eq!(
            ask(true),
            Err(ConfigError::SnapshotReadsRemoved.to_string())
        );
    }
}
