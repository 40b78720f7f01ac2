//! Verified run reports and scheduler face-offs.
//!
//! A [`RunReport`] merges everything a run produces — the committed and raw
//! histories, the engine counters — with the post-hoc theory checks the paper
//! provides: legality (Definition 6), the Theorem 2 serialisation-graph test
//! (including the constructed equivalent serial witness) and the Theorem 5
//! per-object condition. [`RunReport::assert_serialisable`] performs all of
//! them in one call; [`Faceoff`] lines several reports up for comparison.

use crate::error::TheoryViolation;
use crate::runtime::Verify;
use crate::spec::SchedulerSpec;
use obase_core::history::History;
use obase_core::ids::ObjectId;
use obase_core::value::Value;
use obase_exec::{RunMetrics, RunResult};
use obase_obs::LatencyReport;
use obase_ser::Json;
use std::collections::BTreeMap;

/// The outcome of the theory checks recorded in a report.
///
/// Fields are `None` when the configured [`Verify`] level skipped the check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TheoryChecks {
    /// Definition 6: is the committed history legal?
    pub legal: Option<bool>,
    /// Theorem 2: is the serialisation graph acyclic?
    pub sg_acyclic: Option<bool>,
    /// Theorem 2, executed: was an equivalent serial history constructed and
    /// verified (legal, serial, equivalent)? `None` when the graph was cyclic
    /// or the check was skipped.
    pub witness_verified: Option<bool>,
    /// Theorem 5: does the per-object intra/inter-object condition hold?
    pub theorem5: Option<bool>,
}

impl TheoryChecks {
    /// The checks `level` asks for, and the committed final states that
    /// legality's condition 3 replays (`None` under [`Verify::None`] or when
    /// the history is illegal).
    fn compute(history: &History, level: Verify) -> (Self, Option<BTreeMap<ObjectId, Value>>) {
        let finals = match level {
            Verify::None => return (TheoryChecks::default(), None),
            Verify::Quick | Verify::Full => obase_core::legality::check_legal(history).ok(),
        };
        let legal = Some(finals.is_some());
        let checks = if level == Verify::Full {
            let analysis = obase_core::sg::analyse(history);
            TheoryChecks {
                legal,
                sg_acyclic: Some(analysis.acyclic),
                witness_verified: analysis.witness_verified,
                theorem5: Some(obase_core::local_graphs::theorem5_condition_holds(history)),
            }
        } else {
            TheoryChecks {
                legal,
                sg_acyclic: Some(obase_core::sg::serialisation_graph(history).is_acyclic()),
                witness_verified: None,
                theorem5: None,
            }
        };
        (checks, finals)
    }

    /// `true` if no recorded check failed (skipped checks are not failures).
    pub fn all_passed(&self) -> bool {
        self.legal != Some(false)
            && self.sg_acyclic != Some(false)
            && self.witness_verified != Some(false)
            && self.theorem5 != Some(false)
    }

    fn to_json(&self) -> Json {
        let opt = |v: Option<bool>| v.map(Json::Bool).unwrap_or(Json::Null);
        Json::object([
            ("legal", opt(self.legal)),
            ("sg_acyclic", opt(self.sg_acyclic)),
            ("witness_verified", opt(self.witness_verified)),
            ("theorem5", opt(self.theorem5)),
        ])
    }
}

/// Everything one engine run produced, with its theory verdicts attached.
#[derive(Debug)]
pub struct RunReport {
    /// The spec the scheduler was instantiated from.
    pub spec: SchedulerSpec,
    /// The scheduler's self-reported name.
    pub scheduler: String,
    /// The verification level the report was built with.
    pub verify_level: Verify,
    /// The committed projection of the recorded history (legal by
    /// construction; what the serialisability analyses consume).
    pub history: History,
    /// The raw history including aborted attempts (diagnostics only).
    pub raw_history: History,
    /// Counters collected during the run.
    pub metrics: RunMetrics,
    /// The theory checks performed at the configured level.
    pub checks: TheoryChecks,
    /// The committed final state of every object the history touches, as
    /// legality's condition 3 replays it (`None` under [`Verify::None`] or
    /// when the history is illegal).
    pub final_states: Option<BTreeMap<ObjectId, Value>>,
    /// Per-phase latency histograms and blocked-time attribution, when the
    /// runtime was built with an observing [`Observe`](crate::Observe) plan
    /// (`None` under [`Observe::Off`](crate::Observe::Off) and
    /// [`Observe::Custom`](crate::Observe::Custom)).
    pub latency: Option<LatencyReport>,
}

impl RunReport {
    pub(crate) fn new(
        spec: SchedulerSpec,
        result: RunResult,
        level: Verify,
        latency: Option<LatencyReport>,
    ) -> Self {
        let (checks, final_states) = TheoryChecks::compute(&result.history, level);
        RunReport {
            spec,
            scheduler: result.metrics.scheduler.clone(),
            verify_level: level,
            history: result.history,
            raw_history: result.raw_history,
            metrics: result.metrics,
            checks,
            final_states,
            latency,
        }
    }

    /// The latency report, when the run was observed.
    pub fn latency(&self) -> Option<&LatencyReport> {
        self.latency.as_ref()
    }

    /// Checks the full battery — legality, the Theorem 2 serialisation-graph
    /// test and the Theorem 5 per-object condition — and returns the first
    /// violation found. A passing [`Verify::Full`] report answers from its
    /// recorded checks; anything else (including a failing report, to obtain
    /// the detailed certificate) is recomputed from the committed history.
    pub fn check_serialisable(&self) -> Result<(), TheoryViolation> {
        if self.metrics.timed_out {
            return Err(TheoryViolation::TimedOut);
        }
        // A report built at Verify::Full already holds all three verdicts;
        // recompute (for the detailed certificate) only if one failed.
        if self.verify_level == Verify::Full && self.checks.all_passed() {
            return Ok(());
        }
        obase_core::oracle::check(&self.history, true).map(drop)
    }

    /// Asserts that the committed history passes legality, Theorem 2 and
    /// Theorem 5 in one call.
    ///
    /// # Panics
    /// Panics with the scheduler name and the violated condition otherwise.
    pub fn assert_serialisable(&self) {
        if let Err(violation) = self.check_serialisable() {
            panic!("{}: {}", self.scheduler, violation);
        }
    }

    /// Committed transactions per scheduling round (the experiments'
    /// throughput proxy).
    pub fn throughput(&self) -> f64 {
        self.metrics.throughput()
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} [{}]: committed {}/{} in {} rounds ({} aborts, {} blocked, throughput {:.3}{})",
            self.scheduler,
            self.metrics.backend,
            self.metrics.committed,
            self.metrics.submitted,
            self.metrics.rounds,
            self.metrics.aborts,
            self.metrics.blocked_events,
            self.throughput(),
            if self.checks.all_passed() {
                ""
            } else {
                ", CHECKS FAILED"
            }
        )
    }

    /// Renders the report (spec, metrics, checks and history sizes — not the
    /// histories themselves) as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("spec", self.spec.to_json()),
            ("scheduler", Json::str(&self.scheduler)),
            ("metrics", self.metrics.to_json()),
            ("checks", self.checks.to_json()),
            (
                "latency",
                self.latency
                    .as_ref()
                    .map(LatencyReport::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "history",
                Json::object([
                    ("steps", Json::Int(self.history.step_count() as i64)),
                    ("executions", Json::Int(self.history.exec_count() as i64)),
                ]),
            ),
        ])
    }
}

/// Several reports over the same workload, lined up for comparison.
#[derive(Debug, Default)]
pub struct Faceoff {
    reports: Vec<RunReport>,
}

impl Faceoff {
    pub(crate) fn new(reports: Vec<RunReport>) -> Self {
        Faceoff { reports }
    }

    /// The individual reports, in spec order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The report with the highest throughput, if any.
    pub fn best_by_throughput(&self) -> Option<&RunReport> {
        self.reports
            .iter()
            .max_by(|a, b| a.throughput().total_cmp(&b.throughput()))
    }

    /// Asserts every report's committed history is serialisable (legality +
    /// Theorem 2 + Theorem 5).
    ///
    /// # Panics
    /// Panics naming the offending scheduler otherwise.
    pub fn assert_all_serialisable(&self) {
        for report in &self.reports {
            report.assert_serialisable();
        }
    }

    /// Renders the comparison as a Markdown table.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "| scheduler | backend | committed | aborts | blocked | rounds | throughput | verified |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for r in &self.reports {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {:.3} | {} |\n",
                r.scheduler,
                r.metrics.backend,
                r.metrics.committed,
                r.metrics.aborts,
                r.metrics.blocked_events,
                r.metrics.rounds,
                r.throughput(),
                if r.checks.all_passed() { "yes" } else { "NO" },
            ));
        }
        out
    }

    /// Renders all reports as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Array(self.reports.iter().map(RunReport::to_json).collect())
    }
}
