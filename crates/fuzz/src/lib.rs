//! # obase-fuzz — the differential scenario fuzzer
//!
//! The serialisability oracle (legality + Theorem 2 + Theorem 5 of
//! Hadzilacos & Hadzilacos) is only as strong as the histories it is fed.
//! Until now every workload was hand-written; this crate generates the
//! *specs* themselves and holds every backend to the oracle differentially:
//!
//! * [`gen`] — a seeded generator random-walking the full
//!   [`Scenario`] space: ADT mixes (including
//!   `BTreeDict` ranges), key distributions, nesting depth/width/`Par`,
//!   scheduler line-ups, `FaultPlan` chaos and WAL `CrashPlan` cut points,
//!   plus the MVCC snapshot-read knob;
//! * [`diff`] — the differential executor: each generated case runs on the
//!   simulator (twice — determinism is part of the contract), the parallel
//!   backend and the durable backend, under `check_serialisable()` plus
//!   cross-backend structural equivalence, WAL recovery equality and
//!   no-resurrection crash checks. Failures are *captured* as typed
//!   [`Failure`]s, never panics;
//! * [`shrink`](mod@shrink) — the greedy auto-shrinker: on failure, drop scheduler
//!   specs, client classes and ADT groups, halve depth/width/rounds, narrow
//!   fault windows and strip chaos while re-checking that the failure still
//!   reproduces, down to a fixed point;
//! * [`bugbase`] — the corpus: every minimal reproducer is fingerprinted
//!   and stored as JSON in `bugbase/`, deduplicated, and replayed forever
//!   as a regression suite;
//! * [`campaign`] — the loop tying them together, with a wall-clock budget
//!   or a case bound (the case *stream* is deterministic per seed; a budget
//!   only decides how far down the stream a run gets);
//! * [`planted`] — a test-only saboteur scheduler that drops conflict
//!   edges, proving end to end that the fuzzer finds and shrinks a real
//!   oracle violation;
//! * [`serve_leg`] — the wire leg (opt-in via
//!   [`DiffConfig::serve`](diff::DiffConfig::serve)): the case submitted
//!   over a real TCP socket to an in-process `obase-serve` server, with
//!   end-to-end accounting and the merged admitted history held to the
//!   same oracle.
//!
//! ```
//! use obase_fuzz::{campaign, gen};
//!
//! // A tiny seeded campaign over the clean engine: no bugs expected.
//! let cfg = campaign::FuzzConfig {
//!     seed: 7,
//!     max_cases: Some(2),
//!     diff: obase_fuzz::diff::DiffConfig {
//!         workers: vec![2],
//!         durable: false,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let outcome = campaign::run_campaign(&cfg);
//! assert_eq!(outcome.bugs.len(), 0);
//! assert_eq!(outcome.coverage.cases, 2);
//! # let _ = gen::GenConfig::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugbase;
pub mod campaign;
pub mod diff;
pub mod gen;
pub mod planted;
pub mod serve_leg;
pub mod shrink;

pub use bugbase::BugEntry;
pub use campaign::{run_campaign, CampaignOutcome, FuzzConfig};
pub use diff::{run_differential, DiffConfig, DiffStats, Failure, FailureKind};
pub use gen::{generate, Coverage, GenConfig};
pub use planted::edge_dropper;
pub use shrink::{shrink, ShrinkOutcome};

use obase_scenario::{Scenario, ScenarioError};
use obase_ser::Json;

/// One fuzzed case: a scenario plus the runtime knobs that live outside the
/// scenario DSL (today just the MVCC snapshot-read switch).
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The generated scenario (always passes [`Scenario::validate`]).
    pub scenario: Scenario,
    /// Run with the MVCC snapshot read path on.
    pub mvcc: bool,
}

impl FuzzCase {
    /// Renders the case as a JSON value (the bugbase storage format embeds
    /// this under `"case"`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("scenario", self.scenario.to_json()),
            ("mvcc", Json::Bool(self.mvcc)),
        ])
    }

    /// Parses a case back from its JSON rendering, validating the embedded
    /// scenario.
    pub fn from_json(json: &Json) -> Result<FuzzCase, ScenarioError> {
        let scenario_json = json
            .get("scenario")
            .ok_or_else(|| ScenarioError::BadJson("case needs a \"scenario\"".into()))?;
        let scenario = Scenario::from_json(scenario_json)?;
        scenario.validate()?;
        Ok(FuzzCase {
            scenario,
            mvcc: json.get("mvcc").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_round_trip_through_json() {
        let scenario = obase_scenario::by_name("hot-queue").expect("library scenario");
        let case = FuzzCase {
            scenario,
            mvcc: true,
        };
        let back = FuzzCase::from_json(&case.to_json()).expect("round trip");
        assert_eq!(case, back);
    }

    #[test]
    fn malformed_cases_are_rejected() {
        assert!(FuzzCase::from_json(&Json::object([])).is_err());
        let bad = Json::object([("scenario", Json::object([])), ("mvcc", Json::Bool(false))]);
        assert!(FuzzCase::from_json(&bad).is_err());
    }
}
