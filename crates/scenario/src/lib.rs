//! # obase-scenario — declarative scenarios: a workload DSL + chaos injection
//!
//! The ROADMAP's north star asks the system to handle "as many scenarios as
//! you can imagine"; hand-coding each one as a Rust generator does not
//! scale. This crate turns scenario authorship into *data*: a [`Scenario`]
//! describes an object population (any mix of `obase-adt` semantic types),
//! a weighted client mix with per-class key distributions
//! (uniform / hot-key / partitioned) and nested-transaction shapes
//! (invocation depth, `Par` fan-out), and a seeded [`FaultPlan`] of chaos —
//! doomed commits, abort storms, stalled workers, deadline pressure. A
//! scenario serialises to JSON (`obase-ser`), compiles to an executable
//! [`WorkloadSpec`](obase_exec::WorkloadSpec), and runs through the
//! ordinary [`Runtime`] on either execution backend.
//!
//! * [`Scenario::compile`] — the seeded workload compiler (same scenario,
//!   same workload, always);
//! * [`FaultInjector`] — the scheduler decorator that executes the fault
//!   plan, installed via
//!   [`RuntimeBuilder::wrap_scheduler`](obase_runtime::RuntimeBuilder::wrap_scheduler),
//!   so both backends run the same chaos;
//! * [`library`](mod@library) — twelve built-in scenarios (`hot-queue`, `deep-nesting`,
//!   `abort-storm`, `btree-range-contention`, `read-only-rush`, ...), each
//!   stressing one mechanism; the backend-equivalence oracle sweeps all of
//!   them.
//!
//! ```
//! use obase_scenario as scenario;
//! use obase_runtime::ExecutionBackend;
//!
//! // Pick a library scenario, or Scenario::parse(json) your own.
//! let s = scenario::by_name("hot-queue").expect("built-in");
//! let spec = &s.specs[0];
//! let report = s.run(spec, ExecutionBackend::Simulated)?;
//! report.assert_serialisable();
//! # Ok::<(), obase_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod faults;
pub mod library;
pub mod spec;

pub use faults::FaultInjector;
pub use library::{by_name, intent, library, names};
pub use spec::{
    AdtKind, ClientClass, CrashPlan, FaultPlan, KeyDist, NestingShape, ObjectGroup, Scenario,
    ScenarioError, Storm,
};

use obase_runtime::{
    ConfigError, ExecutionBackend, Observe, RunReport, Runtime, RuntimeBuilder, RuntimeError,
    SchedulerSpec, Verify,
};
use std::time::Duration;

impl Scenario {
    /// A [`RuntimeBuilder`] configured for this scenario: clients, seed,
    /// retries, [`Verify::Full`], the requested backend, the fault injector
    /// (when the plan injects anything), the deadline (when the plan sets
    /// one) and [`Observe::Latency`] — every scenario run carries a
    /// per-phase latency report. Chain [`RuntimeBuilder::observe`] for
    /// another observation plan (e.g. [`Observe::Trace`] to export a
    /// Perfetto timeline).
    pub fn builder(
        &self,
        spec: SchedulerSpec,
        backend: ExecutionBackend,
    ) -> Result<RuntimeBuilder, ConfigError> {
        let mut builder = Runtime::builder()
            .scheduler(spec)
            .clients(self.clients)
            .seed(self.seed)
            .retries(self.retries)
            .backend(backend)
            .verify(Verify::Full)
            .observe(Observe::Latency);
        if let Some(ms) = self.faults.deadline_ms {
            builder = builder.deadline(Duration::from_millis(ms));
        }
        if !self.faults.is_noop() {
            // Validate here, where an error can still be returned: the
            // wrap_scheduler closure below runs too late to refuse.
            self.faults.validate()?;
            let plan = self.faults.clone();
            let seed = self.seed;
            builder = builder.wrap_scheduler(move |inner| {
                Box::new(
                    FaultInjector::new(inner, plan.clone(), seed)
                        .expect("fault plan validated above"),
                )
            });
        }
        Ok(builder)
    }

    /// Compiles and runs the scenario under one scheduler spec on one
    /// backend, returning the verified report (latency included, per
    /// [`Scenario::builder`]).
    pub fn run(
        &self,
        spec: &SchedulerSpec,
        backend: ExecutionBackend,
    ) -> Result<RunReport, RuntimeError> {
        self.builder(spec.clone(), backend)?
            .build()?
            .run(&self.compile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_library_scenario_is_valid_and_distinctly_named() {
        let lib = library();
        assert!(lib.len() >= 8, "the library must ship at least 8 scenarios");
        let names: std::collections::BTreeSet<&str> = lib.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), lib.len());
        for s in &lib {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.specs.is_empty());
        }
        assert!(by_name("hot-queue").is_some());
        assert!(by_name("no-such-scenario").is_none());
        // Every library scenario has a one-line intent, and vice versa the
        // intent table names no phantom scenarios.
        for s in &lib {
            assert!(
                intent(&s.name).is_some_and(|i| !i.is_empty()),
                "{} has no intent line",
                s.name
            );
        }
        assert!(intent("no-such-scenario").is_none());
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        for s in library() {
            let text = s.to_json_string();
            let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(s, back, "round-trip changed {}", s.name);
        }
    }

    #[test]
    fn compile_is_deterministic_and_well_formed() {
        for s in library() {
            let a = s.compile();
            let b = s.compile();
            assert_eq!(a.transactions.len(), s.transactions);
            for (x, y) in a.transactions.iter().zip(&b.transactions) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.body, y.body, "{} compiled differently", s.name);
            }
            assert_eq!(a.def.method_count(), b.def.method_count());
        }
    }

    #[test]
    fn nesting_shape_is_realised() {
        let s = by_name("deep-nesting").unwrap();
        let report = s
            .run(&s.specs[0], ExecutionBackend::Simulated)
            .expect("compiles and runs");
        report.assert_serialisable();
        // Depth 4 means every committed transaction contributed a 4-long
        // execution chain: far more executions than transactions.
        assert!(report.history.exec_count() >= report.metrics.committed * 4);
    }

    #[test]
    fn fault_plans_fire_and_are_recorded() {
        let s = by_name("injected-dooms").unwrap();
        let report = s.run(&s.specs[0], ExecutionBackend::Simulated).unwrap();
        report.assert_serialisable();
        assert!(
            report.metrics.aborts_by_reason.get("injected").copied() > Some(0),
            "doom injection left no trace: {:?}",
            report.metrics.aborts_by_reason
        );
    }

    #[test]
    fn crash_plans_round_trip_and_validate() {
        let mut s = by_name("hot-queue").unwrap();
        s.faults.crash = Some(CrashPlan {
            fraction: 0.7,
            corrupt: true,
        });
        s.validate().unwrap();
        // A crash alone is not a scheduler-level fault: the run itself is
        // undecorated, the cut happens to the log afterwards.
        assert!(s.faults.is_noop());
        let back = Scenario::parse(&s.to_json_string()).unwrap();
        assert_eq!(s, back, "crash plan lost in the JSON round trip");
        s.faults.crash = Some(CrashPlan {
            fraction: 1.5,
            corrupt: false,
        });
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let mut s = by_name("hot-queue").unwrap();
        s.mix[0].group = "missing".into();
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
        let mut s = by_name("hot-queue").unwrap();
        s.specs.clear();
        assert!(s.validate().is_err());
        assert!(matches!(
            Scenario::parse("{}"),
            Err(ScenarioError::BadJson(_))
        ));
        assert!(Scenario::parse("not json").is_err());
        // Negative counters must be rejected, not wrapped: a storm window
        // of [-5 as u64, 200) would be empty and the chaos would silently
        // never fire.
        let mut json = by_name("abort-storm").unwrap().to_json_string();
        json = json.replace("\"from\":0", "\"from\":-5");
        assert!(
            matches!(Scenario::parse(&json), Err(ScenarioError::BadJson(_))),
            "negative storm gate must fail to parse"
        );
        let json = by_name("hot-queue")
            .unwrap()
            .to_json_string()
            .replace("\"seed\":101", "\"seed\":-1");
        assert!(Scenario::parse(&json).is_err(), "negative seed must fail");
        // Seeds beyond the JSON i64 range cannot round-trip; validate
        // rejects them instead of letting to_json wrap them negative.
        let mut s = by_name("hot-queue").unwrap();
        s.seed = u64::MAX;
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn inverted_storm_windows_are_rejected_not_silently_noop() {
        let inverted = Storm {
            from: 200,
            until: 100,
            rate: 0.5,
        };
        // The plan itself refuses to validate with the typed error...
        let plan = FaultPlan {
            storm: Some(inverted),
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.validate(),
            Err(ConfigError::InvertedFaultWindow {
                from: 200,
                until: 100
            })
        );
        // ...the injector refuses to be built from it...
        let inner = obase_runtime::SchedulerSpec::n2pl_operation()
            .build()
            .expect("basic spec builds");
        assert!(matches!(
            FaultInjector::new(inner, plan, 7),
            Err(ConfigError::InvertedFaultWindow { .. })
        ));
        // ...the runtime builder path surfaces the same error instead of
        // running chaos that never fires...
        let mut s = by_name("abort-storm").unwrap();
        s.faults.storm = Some(inverted);
        assert_eq!(
            s.builder(s.specs[0].clone(), ExecutionBackend::Simulated)
                .err(),
            Some(ConfigError::InvertedFaultWindow {
                from: 200,
                until: 100
            })
        );
        // ...and scenario-level validation catches it up front.
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid(_))));
        // An empty-but-not-inverted window (from == until) stays legal.
        s.faults.storm = Some(Storm {
            from: 100,
            until: 100,
            rate: 0.5,
        });
        assert!(s.faults.validate().is_ok());
        assert!(s.validate().is_ok());
    }
}
