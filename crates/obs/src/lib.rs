//! # obase-obs — lifecycle tracing, latency histograms, blocked-time attribution
//!
//! The paper's whole argument is about *where transactions wait* — which
//! scheduler decisions block, doom or delay an execution — yet throughput
//! counters alone cannot show that. This crate is the workspace's
//! observability layer: every backend (simulator, parallel, durable) streams
//! timestamped lifecycle events through the [`Observer`] seam, and this crate
//! turns the stream into per-phase latency percentiles, a Perfetto-loadable
//! trace, and a blocked-time profile.
//!
//! * [`event`] — the event taxonomy ([`ObsEvent`]: submit, admission, first
//!   grant, install, blocked-span begin/end keyed by (txn, object, shard),
//!   certify start, commit/abort settle, retry, WAL fsync begin/end) and the
//!   wiring types: the [`Observer`] trait, the zero-cost [`NullObserver`],
//!   the cloneable [`ObsHandle`] threaded through the engines, and the
//!   per-worker [`ObsLane`] buffers (lock-free on the hot path, batched to
//!   the observer exactly like `core::record::EventBuffer` stitching), each
//!   named by a `Copy` [`LaneId`].
//! * [`histogram`] — log-bucketed HDR-style [`Histogram`]s: power-of-two
//!   octaves with 32 linear sub-buckets each (≤ 3.2% relative error), no
//!   external crates, mergeable across workers by adding count arrays.
//! * [`trace`] — [`RecordingObserver`] (collects the raw stream) and
//!   [`ChromeTraceObserver`], which exports `chrome://tracing` / Perfetto
//!   trace-event JSON via `obase-ser`: one lane per parallel worker plus
//!   control-plane and WAL lanes, one span per transaction attempt.
//! * [`report`] — [`LatencyReport`]: p50/p90/p99/p999 per phase (queue-wait,
//!   blocked, execute, certify, fsync) and end-to-end, plus the top-K hottest
//!   objects and scheduler shards by total blocked wall time, rendered as a
//!   text profile table and embedded in the runtime's `RunReport`.
//!
//! ## Zero cost when off
//!
//! [`ObsHandle::new`] collapses to the disabled handle whenever the observer
//! reports [`Observer::enabled`]` == false` — which [`NullObserver`] does —
//! so a disabled run pays exactly one branch per would-be event, identical
//! to not constructing a handle at all.
//!
//! ```
//! use obase_obs::{Histogram, NullObserver, ObsEvent, ObsHandle, RecordingObserver};
//! use std::sync::Arc;
//!
//! // A null observer collapses to the off handle: lanes never buffer.
//! let off = ObsHandle::new(Arc::new(NullObserver));
//! assert!(!off.is_on());
//!
//! // A recording observer sees everything lanes emit.
//! let rec = Arc::new(RecordingObserver::default());
//! let on = ObsHandle::new(rec.clone());
//! let mut lane = on.lane("worker-0");
//! lane.emit(ObsEvent::Submit { spec: 0, attempt: 0 });
//! drop(lane); // flush
//! assert_eq!(rec.snapshot().len(), 1);
//!
//! // Histograms bucket durations with bounded relative error.
//! let mut h = Histogram::new();
//! for us in 1..=1000u64 {
//!     h.record(us);
//! }
//! let p50 = h.percentile(0.50);
//! assert!((470..=530).contains(&p50), "p50 was {p50}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod histogram;
pub mod report;
pub mod trace;

pub use event::{LaneId, NullObserver, ObsEvent, ObsHandle, ObsLane, ObsStamped, Observer};
pub use histogram::Histogram;
pub use report::LatencyReport;
pub use trace::{ChromeTraceObserver, RecordingObserver};
