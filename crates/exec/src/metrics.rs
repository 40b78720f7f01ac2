//! Run metrics: what the experiments measure.

use obase_core::sched::AbortReason;
use obase_ser::Json;
use std::collections::BTreeMap;

/// The label [`RunMetrics::absorb`] writes when the absorbed runs named
/// different schedulers or backends. No scheduler or backend label holds
/// `<`, so it cannot be mistaken for a line-up that really ran.
pub const VARIED_LABEL: &str = "<varied>";

/// Counters collected during an engine run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Name of the scheduler that produced the run.
    pub scheduler: String,
    /// The execution backend that produced the run (`"simulated"` or
    /// `"parallel(N)"` with the worker count).
    pub backend: String,
    /// Number of top-level transactions submitted (excluding retries).
    pub submitted: usize,
    /// Number of top-level transactions that committed.
    pub committed: usize,
    /// Number of top-level transaction aborts (each retry that later aborts
    /// counts again).
    pub aborts: usize,
    /// Abort counts keyed by [`AbortReason`] variant
    /// ([`AbortReason::key`]: `"deadlock"`, `"timestamp_order"`, ...), so
    /// experiments can report *why* a scheduler aborts, not just how often.
    pub aborts_by_reason: BTreeMap<String, usize>,
    /// Aborts caused by cascading invalidation (dirty reads observed when an
    /// earlier abort was undone).
    pub cascading_aborts: usize,
    /// Deadlock victims.
    pub deadlocks: usize,
    /// Retries scheduled after aborts.
    pub retries: usize,
    /// Transactions abandoned after exhausting their retry budget.
    pub gave_up: usize,
    /// Number of times a scheduler decision blocked a thread for a round.
    pub blocked_events: u64,
    /// Local steps installed (including those later undone).
    pub installed_steps: u64,
    /// Local steps that were installed by executions that later aborted.
    pub wasted_steps: u64,
    /// Scheduling rounds until all transactions settled — the makespan of the
    /// run on the simulated parallel machine. The parallel backend reports
    /// its count of control-plane state transitions here (every grant,
    /// install, commit and abort bumps it), which plays the same
    /// logical-makespan role.
    pub rounds: u64,
    /// Wall-clock duration of the run in microseconds. This is the makespan
    /// that matters for the parallel backend; the simulator fills it in too
    /// so backends can be compared on real time.
    pub wall_micros: u64,
    /// `true` if the run hit its limit (the simulator's round bound, or the
    /// parallel backend's wall-clock deadline) before settling.
    pub timed_out: bool,
}

impl RunMetrics {
    /// Committed transactions per scheduling round: the throughput proxy used
    /// by the experiments (higher = the scheduler admitted more parallelism).
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.rounds.max(1) as f64
    }

    /// Aborts per committed transaction.
    pub fn abort_ratio(&self) -> f64 {
        if self.committed == 0 {
            self.aborts as f64
        } else {
            self.aborts as f64 / self.committed as f64
        }
    }

    /// Blocked events per committed transaction.
    pub fn blocking_ratio(&self) -> f64 {
        if self.committed == 0 {
            self.blocked_events as f64
        } else {
            self.blocked_events as f64 / self.committed as f64
        }
    }

    /// Committed transactions per wall-clock second — the throughput measure
    /// that is comparable across backends. Zero if the run recorded no wall
    /// time.
    pub fn wall_throughput(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.committed as f64 / (self.wall_micros as f64 / 1_000_000.0)
        }
    }

    /// Folds another run's counters into this one. Used by long-lived
    /// aggregators (the serving front end runs many batches and reports
    /// one merged metrics document): counts add, `timed_out` sticks, and
    /// the scheduler/backend labels stay put unless they were empty or
    /// disagree (then [`VARIED_LABEL`] records that batches ran under
    /// different line-ups, e.g. across a reconcile).
    pub fn absorb(&mut self, other: &RunMetrics) {
        let merge_label = |mine: &mut String, theirs: &str| {
            if mine.is_empty() {
                *mine = theirs.to_owned();
            } else if mine != theirs && !theirs.is_empty() {
                *mine = VARIED_LABEL.to_owned();
            }
        };
        merge_label(&mut self.scheduler, &other.scheduler);
        merge_label(&mut self.backend, &other.backend);
        self.submitted += other.submitted;
        self.committed += other.committed;
        self.aborts += other.aborts;
        for (reason, n) in &other.aborts_by_reason {
            *self.aborts_by_reason.entry(reason.clone()).or_default() += n;
        }
        self.cascading_aborts += other.cascading_aborts;
        self.deadlocks += other.deadlocks;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.blocked_events += other.blocked_events;
        self.installed_steps += other.installed_steps;
        self.wasted_steps += other.wasted_steps;
        self.rounds += other.rounds;
        self.wall_micros += other.wall_micros;
        self.timed_out |= other.timed_out;
    }

    /// Records an abort, bucketed by the reason's variant key.
    pub fn record_abort(&mut self, reason: &AbortReason) {
        self.aborts += 1;
        *self
            .aborts_by_reason
            .entry(reason.key().to_owned())
            .or_default() += 1;
    }

    /// Renders the metrics as a JSON object (used by run reports).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("scheduler", Json::str(&self.scheduler)),
            ("backend", Json::str(&self.backend)),
            ("submitted", Json::Int(self.submitted as i64)),
            ("committed", Json::Int(self.committed as i64)),
            ("aborts", Json::Int(self.aborts as i64)),
            (
                "aborts_by_reason",
                Json::Object(
                    self.aborts_by_reason
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            ("cascading_aborts", Json::Int(self.cascading_aborts as i64)),
            ("deadlocks", Json::Int(self.deadlocks as i64)),
            ("retries", Json::Int(self.retries as i64)),
            ("gave_up", Json::Int(self.gave_up as i64)),
            ("blocked_events", Json::Int(self.blocked_events as i64)),
            ("installed_steps", Json::Int(self.installed_steps as i64)),
            ("wasted_steps", Json::Int(self.wasted_steps as i64)),
            ("rounds", Json::Int(self.rounds as i64)),
            ("wall_micros", Json::Int(self.wall_micros as i64)),
            ("timed_out", Json::Bool(self.timed_out)),
            ("throughput", Json::Float(self.throughput())),
            ("wall_throughput", Json::Float(self.wall_throughput())),
            ("abort_ratio", Json::Float(self.abort_ratio())),
            ("blocking_ratio", Json::Float(self.blocking_ratio())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let mut m = RunMetrics {
            committed: 10,
            rounds: 50,
            blocked_events: 20,
            ..Default::default()
        };
        m.record_abort(&AbortReason::Deadlock);
        m.record_abort(&AbortReason::Deadlock);
        m.record_abort(&AbortReason::TimestampOrder);
        assert!((m.throughput() - 0.2).abs() < 1e-9);
        assert!((m.abort_ratio() - 0.3).abs() < 1e-9);
        assert!((m.blocking_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(m.aborts_by_reason["deadlock"], 2);
        let json = m.to_json();
        let ratio = |key| json.get(key).and_then(Json::as_float).unwrap();
        assert!((ratio("abort_ratio") - 0.3).abs() < 1e-9);
        assert!((ratio("blocking_ratio") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_tells_a_changed_line_up_from_a_per_object_mixed_spec() {
        let run = |scheduler: &str| RunMetrics {
            scheduler: scheduler.to_owned(),
            backend: "simulated".to_owned(),
            ..Default::default()
        };
        let mut same = run("mixed");
        same.absorb(&run("mixed"));
        assert_eq!(same.scheduler, "mixed");
        assert_eq!(same.backend, "simulated");
        let mut changed = run("mixed");
        changed.absorb(&run("n2pl-step"));
        assert_eq!(changed.scheduler, VARIED_LABEL);
        assert_eq!(changed.backend, "simulated");
    }

    #[test]
    fn zero_committed_is_not_a_division_by_zero() {
        let m = RunMetrics {
            aborts: 3,
            ..Default::default()
        };
        assert_eq!(m.abort_ratio(), 3.0);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.blocking_ratio(), 0.0);
    }
}
