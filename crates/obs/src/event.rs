//! The lifecycle event taxonomy and the observer wiring.
//!
//! Engines never talk to an [`Observer`] directly: they hold an [`ObsHandle`]
//! (cheap to clone, `None` inside when observation is off) and open one
//! [`ObsLane`] per execution lane — a parallel worker, the simulator loop,
//! the control plane, the WAL writer. Lanes buffer events locally with no
//! locking and hand the whole batch to the observer on [`ObsLane::flush`] /
//! drop, mirroring how `obase-par` stitches per-activity `EventBuffer`s.

use obase_core::ids::{ExecId, ObjectId};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A timestamped lifecycle event, as delivered to an [`Observer`].
///
/// Timestamps are microseconds since the run's origin (the creation of the
/// run's [`ObsHandle`]), so events from different lanes share one clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsStamped {
    /// Microseconds since the handle's origin instant.
    pub at_micros: u64,
    /// The event itself.
    pub event: ObsEvent,
}

/// One lifecycle event.
///
/// Top-level transactions are identified by their kernel [`ExecId`]; attempts
/// of one workload transaction are chained by `(spec, attempt)` through
/// [`ObsEvent::Submit`] / [`ObsEvent::Retry`] / [`ObsEvent::Admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A transaction attempt entered the submission queue. Attempt 0 for
    /// every workload transaction is submitted when the run starts; later
    /// attempts are submitted by [`ObsEvent::Retry`].
    Submit {
        /// Index of the transaction in the workload.
        spec: usize,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// The scheduler admitted an attempt: it now has an [`ExecId`] and may
    /// request steps. `admit − submit` is the queue-wait phase.
    Admit {
        /// The top-level execution this attempt became.
        top: ExecId,
        /// Index of the transaction in the workload.
        spec: usize,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// The scheduler granted the transaction's first step.
    FirstGrant {
        /// The top-level execution.
        top: ExecId,
    },
    /// A step was installed against an object (after any blocking).
    Install {
        /// The top-level execution the step belongs to.
        top: ExecId,
        /// The object the step executed on.
        object: ObjectId,
    },
    /// The transaction started waiting for a scheduler grant.
    BlockBegin {
        /// The blocked top-level execution.
        top: ExecId,
        /// The object whose grant is outstanding.
        object: ObjectId,
        /// The scheduler shard consulted (0 for unsharded backends).
        shard: usize,
    },
    /// The wait ended (grant arrived or the waiter was interrupted).
    BlockEnd {
        /// The formerly blocked top-level execution.
        top: ExecId,
        /// The object whose grant was outstanding.
        object: ObjectId,
        /// The scheduler shard consulted (0 for unsharded backends).
        shard: usize,
    },
    /// Top-level certification (the optimistic commit gate) began.
    CertifyBegin {
        /// The top-level execution being certified.
        top: ExecId,
    },
    /// The transaction settled as committed.
    Commit {
        /// The committed top-level execution.
        top: ExecId,
    },
    /// The transaction settled as aborted.
    Abort {
        /// The aborted top-level execution.
        top: ExecId,
    },
    /// An aborted attempt was requeued: this stamps the *next* attempt's
    /// submission time.
    Retry {
        /// Index of the transaction in the workload.
        spec: usize,
        /// Zero-based attempt number of the attempt being submitted.
        attempt: u32,
    },
    /// Deadlock detection doomed a transaction (the youngest on a
    /// waits-for cycle).
    Doom {
        /// The doomed top-level execution.
        top: ExecId,
    },
    /// The WAL writer started an fsync (group-commit window full or final).
    FsyncBegin,
    /// The fsync returned.
    FsyncEnd,
}

/// The name of an execution lane: a fixed label, numbered for the lanes
/// that come in families (`worker-3`). It is `Copy`, so opening and
/// flushing a lane allocates nothing for its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneId {
    label: &'static str,
    index: Option<usize>,
}

impl LaneId {
    /// The lane of parallel worker `index`, displayed as `worker-{index}`.
    pub const fn worker(index: usize) -> Self {
        LaneId {
            label: "worker",
            index: Some(index),
        }
    }
}

impl From<&'static str> for LaneId {
    fn from(label: &'static str) -> Self {
        LaneId { label, index: None }
    }
}

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}-{i}", self.label),
            None => f.write_str(self.label),
        }
    }
}

/// Receives batches of timestamped events from the engines.
///
/// Implementations must be cheap to call from many threads: lanes batch, so
/// an observer is invoked once per lane flush, not once per event.
pub trait Observer: Send + Sync {
    /// Whether this observer wants events at all. [`ObsHandle::new`]
    /// collapses to the off handle when this returns `false`, making a
    /// disabled observer exactly as cheap as no observer.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one lane's buffered events. `lane` names the execution lane
    /// (`worker-3`, `sim`, `control`, `wal`, `branch`); a lane name may be
    /// flushed many times and by many short-lived lanes.
    fn observe(&self, lane: LaneId, events: Vec<ObsStamped>);
}

/// The default observer: wants nothing, records nothing.
///
/// Because [`Observer::enabled`] returns `false`, handles built over it are
/// indistinguishable from [`ObsHandle::off`] — the e12 overhead experiment
/// holds this to within 3% of a no-observer baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn observe(&self, _lane: LaneId, _events: Vec<ObsStamped>) {}
}

struct HandleInner {
    observer: Arc<dyn Observer>,
    origin: Instant,
}

/// The engines' grip on an observer: cheap to clone, `None` when off.
///
/// All lanes opened from one handle stamp events against the same origin
/// instant, so cross-lane timestamps are comparable.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<HandleInner>>);

impl ObsHandle {
    /// The disabled handle: lanes are inert, emits are one branch.
    pub fn off() -> Self {
        ObsHandle(None)
    }

    /// Wraps an observer. Collapses to [`ObsHandle::off`] when the observer
    /// reports [`Observer::enabled`]` == false`.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        if observer.enabled() {
            ObsHandle(Some(Arc::new(HandleInner {
                observer,
                origin: Instant::now(),
            })))
        } else {
            ObsHandle(None)
        }
    }

    /// Whether events will actually be recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a buffered lane. Inert (and allocation-free) when the handle is
    /// off.
    pub fn lane(&self, name: impl Into<LaneId>) -> ObsLane {
        ObsLane(self.0.as_ref().map(|inner| LaneBuf {
            inner: Arc::clone(inner),
            name: name.into(),
            buf: Vec::new(),
        }))
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "ObsHandle(on)"
        } else {
            "ObsHandle(off)"
        })
    }
}

struct LaneBuf {
    inner: Arc<HandleInner>,
    name: LaneId,
    buf: Vec<ObsStamped>,
}

/// A per-lane event buffer: events are stamped and pushed locally (no locks,
/// no observer call) and delivered as one batch on [`ObsLane::flush`] or
/// drop.
#[derive(Default)]
pub struct ObsLane(Option<LaneBuf>);

impl ObsLane {
    /// An inert lane (what [`ObsHandle::off`] hands out).
    pub fn off() -> Self {
        ObsLane(None)
    }

    /// Whether emits on this lane record anything.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Stamps `event` with the shared clock and buffers it. A no-op (single
    /// branch) on an inert lane.
    pub fn emit(&mut self, event: ObsEvent) {
        if let Some(lane) = self.0.as_mut() {
            lane.buf.push(ObsStamped {
                at_micros: lane.inner.origin.elapsed().as_micros() as u64,
                event,
            });
        }
    }

    /// Delivers the buffered batch to the observer. Also called on drop.
    pub fn flush(&mut self) {
        if let Some(lane) = self.0.as_mut() {
            if !lane.buf.is_empty() {
                lane.inner
                    .observer
                    .observe(lane.name, std::mem::take(&mut lane.buf));
            }
        }
    }
}

impl fmt::Debug for ObsLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.as_ref() {
            Some(lane) => write!(f, "ObsLane(\"{}\", {} buffered)", lane.name, lane.buf.len()),
            None => f.write_str("ObsLane(off)"),
        }
    }
}

impl Drop for ObsLane {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Counting(Mutex<Vec<(String, usize)>>);

    impl Observer for Counting {
        fn observe(&self, lane: LaneId, events: Vec<ObsStamped>) {
            self.0
                .lock()
                .unwrap()
                .push((lane.to_string(), events.len()));
        }
    }

    #[test]
    fn null_observer_collapses_to_off() {
        let h = ObsHandle::new(Arc::new(NullObserver));
        assert!(!h.is_on());
        let mut lane = h.lane("worker-0");
        assert!(!lane.is_on());
        lane.emit(ObsEvent::FsyncBegin);
        lane.flush(); // nothing to deliver, nothing to panic on
    }

    #[test]
    fn lanes_batch_and_flush_on_drop() {
        let obs = Arc::new(Counting(Mutex::new(Vec::new())));
        let h = ObsHandle::new(obs.clone());
        assert!(h.is_on());
        {
            let mut lane = h.lane("sim");
            lane.emit(ObsEvent::Submit {
                spec: 0,
                attempt: 0,
            });
            lane.emit(ObsEvent::Submit {
                spec: 1,
                attempt: 0,
            });
            // Not yet delivered: lanes batch.
            assert!(obs.0.lock().unwrap().is_empty());
        }
        h.lane(LaneId::worker(3)).emit(ObsEvent::FsyncBegin);
        let seen = obs.0.lock().unwrap().clone();
        assert_eq!(
            seen,
            vec![("sim".to_owned(), 2), ("worker-3".to_owned(), 1)]
        );
    }

    #[test]
    fn timestamps_are_monotone_within_a_lane() {
        struct Keep(Mutex<Vec<ObsStamped>>);
        impl Observer for Keep {
            fn observe(&self, _lane: LaneId, events: Vec<ObsStamped>) {
                self.0.lock().unwrap().extend(events);
            }
        }
        let obs = Arc::new(Keep(Mutex::new(Vec::new())));
        let h = ObsHandle::new(obs.clone());
        let mut lane = h.lane("sim");
        for i in 0..10 {
            lane.emit(ObsEvent::Submit {
                spec: i,
                attempt: 0,
            });
        }
        lane.flush();
        let stamps: Vec<u64> = obs.0.lock().unwrap().iter().map(|s| s.at_micros).collect();
        assert_eq!(stamps.len(), 10);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }
}
