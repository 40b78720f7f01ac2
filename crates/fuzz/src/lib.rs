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
//!   scheduler line-ups, `FaultPlan` chaos and WAL `CrashPlan` cut points;
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

use obase_runtime::ConfigError;
use obase_scenario::{Scenario, ScenarioError};
use obase_ser::Json;

/// One fuzzed case: the scenario it runs.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The generated scenario (always passes [`Scenario::validate`]).
    pub scenario: Scenario,
}

impl FuzzCase {
    /// Renders the case as a JSON value (the bugbase storage format embeds
    /// this under `"case"`).
    pub fn to_json(&self) -> Json {
        Json::object([("scenario", self.scenario.to_json())])
    }

    /// Parses a case back from its JSON rendering, validating the embedded
    /// scenario. Stored cases may carry `"mvcc": false`, which is ignored;
    /// a case with `"mvcc": true` needs the removed snapshot read path and
    /// is refused.
    pub fn from_json(json: &Json) -> Result<FuzzCase, ScenarioError> {
        if json.get("mvcc").and_then(Json::as_bool) == Some(true) {
            return Err(ScenarioError::BadJson(
                ConfigError::SnapshotReadsRemoved.to_string(),
            ));
        }
        let scenario_json = json
            .get("scenario")
            .ok_or_else(|| ScenarioError::BadJson("case needs a \"scenario\"".into()))?;
        let scenario = Scenario::from_json(scenario_json)?;
        scenario.validate()?;
        Ok(FuzzCase { scenario })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_round_trip_through_json() {
        let scenario = obase_scenario::by_name("hot-queue").expect("library scenario");
        let case = FuzzCase { scenario };
        let back = FuzzCase::from_json(&case.to_json()).expect("round trip");
        assert_eq!(case, back);
    }

    #[test]
    fn malformed_cases_are_rejected() {
        assert!(FuzzCase::from_json(&Json::object([])).is_err());
        let bad = Json::object([("scenario", Json::object([])), ("mvcc", Json::Bool(false))]);
        assert!(FuzzCase::from_json(&bad).is_err());
        // A stored case that needs the removed snapshot read path.
        let scenario = obase_scenario::by_name("hot-queue").expect("library scenario");
        let mut json = FuzzCase { scenario }.to_json();
        assert!(FuzzCase::from_json(&json).is_ok());
        if let Json::Object(fields) = &mut json {
            fields.insert("mvcc".into(), Json::Bool(true));
        }
        let err = FuzzCase::from_json(&json).expect_err("mvcc=true is refused");
        let removed = ConfigError::SnapshotReadsRemoved.to_string();
        assert!(err.to_string().contains(&removed), "{err}");
        // The same case stored as a bugbase entry: a shipped entry loads,
        // and fails once its case asks for snapshot reads.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bugbase/bug-3438c9d43e3cd1a9.json"
        );
        let text = std::fs::read_to_string(path).expect("shipped bugbase entry");
        assert!(BugEntry::from_json(&Json::parse(&text).expect("JSON")).is_ok());
        let text = text.replace("\"mvcc\":false", "\"mvcc\":true");
        let err = BugEntry::from_json(&Json::parse(&text).expect("JSON")).expect_err("refused");
        assert!(err.contains(&removed), "{err}");
    }
}
