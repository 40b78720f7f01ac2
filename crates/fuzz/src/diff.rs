//! The differential executor: one fuzz case, three backends, one oracle.
//!
//! For every scheduler spec the case names, the executor runs:
//!
//! 1. **Simulator, twice** — both runs must pass
//!    [`RunReport::check_serialisable`] and be structurally identical
//!    ([`same_structure`]): the simulator's determinism is part of the
//!    engine contract, not an assumption.
//! 2. **Parallel backend** at each configured worker count — the OS
//!    interleaving makes histories non-reproducible, so the check is the
//!    paper's invariant itself: every admitted history passes the oracle.
//! 3. **Durable backend** — the same simulator loop with a write-ahead log
//!    underneath, so its history must equal the simulator's *exactly*; the
//!    log it leaves must recover (crash-free) to that same history with the
//!    same committed set; and when the case carries a
//!    [`CrashPlan`](obase_scenario::CrashPlan), the log is cut at the
//!    planned fraction (optionally with a corrupted byte), recovery must
//!    still pass the oracle, and **no transaction may be resurrected**: the
//!    recovered committed set is bounded by the `CommitTop` records the
//!    surviving prefix actually promised.
//!
//! Every check failure — and every panic anywhere in an engine — is
//! captured as a typed [`Failure`] instead of aborting the process: a
//! fuzzer that dies on the first bug cannot shrink it.

use crate::FuzzCase;
use obase_core::record::same_structure;
use obase_runtime::{
    ExecutionBackend, Observe, RunReport, SchedulerSpec, SchedulerWrapper, Verify,
};
use obase_scenario::{FaultInjector, Scenario};
use obase_wal::{crash, log, Recovered, RecoveryViolation, WalBackend, WalRecord};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

/// What a differential run checks and where it puts WAL logs.
#[derive(Clone)]
pub struct DiffConfig {
    /// Worker counts for the parallel legs (empty = skip the parallel
    /// backend).
    pub workers: Vec<usize>,
    /// Run the durable leg (WAL + recovery + crash checks).
    pub durable: bool,
    /// Tag for the scratch directories durable legs write their logs to.
    pub wal_tag: String,
    /// An extra scheduler wrapper installed *inside* the fault injector —
    /// the hook the planted-saboteur acceptance test uses to make a sound
    /// scheduler drop conflict edges.
    pub saboteur: Option<SchedulerWrapper>,
    /// Run the serve leg too: the case submitted over a real TCP socket
    /// to an in-process [`obase_serve::Server`] and the merged admitted
    /// history held to the same oracle (see
    /// [`serve_leg`](crate::serve_leg)). Off by default — it spawns
    /// threads and sockets per case.
    pub serve: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            workers: vec![2],
            durable: true,
            wal_tag: "fuzz".to_owned(),
            saboteur: None,
            serve: false,
        }
    }
}

impl std::fmt::Debug for DiffConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffConfig")
            .field("workers", &self.workers)
            .field("durable", &self.durable)
            .field("wal_tag", &self.wal_tag)
            .field("saboteur", &self.saboteur.is_some())
            .field("serve", &self.serve)
            .finish()
    }
}

/// The taxonomy of differential failures. The *kind* (not the full
/// fingerprint) is what the shrinker re-checks: a reproducer may change its
/// detail text as it shrinks, but it must keep failing the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A run's committed history failed the serialisability oracle
    /// (legality, Theorem 2 or Theorem 5), or the run never settled.
    Oracle,
    /// Two runs that must agree structurally did not: simulator vs
    /// simulator (lost determinism) or simulator vs durable.
    Divergence,
    /// Crash-free recovery did not reproduce the run it recovered, or its
    /// recovered state failed the oracle.
    Recovery,
    /// Recovery resurrected a transaction the surviving log never promised.
    Resurrection,
    /// An engine returned a typed error on a case that validated.
    EngineError,
    /// An engine (or a check) panicked.
    Panic,
}

impl FailureKind {
    /// Stable snake_case key, used in bugbase entries and fingerprints.
    pub fn key(&self) -> &'static str {
        match self {
            FailureKind::Oracle => "oracle",
            FailureKind::Divergence => "divergence",
            FailureKind::Recovery => "recovery",
            FailureKind::Resurrection => "resurrection",
            FailureKind::EngineError => "engine_error",
            FailureKind::Panic => "panic",
        }
    }

    /// Parses a key written by [`FailureKind::key`].
    pub fn from_key(key: &str) -> Option<FailureKind> {
        [
            FailureKind::Oracle,
            FailureKind::Divergence,
            FailureKind::Recovery,
            FailureKind::Resurrection,
            FailureKind::EngineError,
            FailureKind::Panic,
        ]
        .into_iter()
        .find(|k| k.key() == key)
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A captured differential failure: what broke, on which backend, under
/// which scheduler, with a rendered certificate.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// Label of the backend leg that failed ("simulated", "parallel(8)",
    /// "durable", "recovery", "crash").
    pub backend: String,
    /// Label of the scheduler spec under which it failed.
    pub spec: String,
    /// The rendered violation / divergence / panic message.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} under {}: {}",
            self.kind, self.backend, self.spec, self.detail
        )
    }
}

/// What a passing differential run did, for throughput accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Engine runs executed (sim ×2, one per worker count, durable).
    pub runs: usize,
    /// Transactions committed across all runs.
    pub committed: usize,
    /// Crash-recovery passes performed.
    pub recoveries: usize,
}

fn fail(kind: FailureKind, backend: &str, spec: &str, detail: impl Into<String>) -> Failure {
    Failure {
        kind,
        backend: backend.to_owned(),
        spec: spec.to_owned(),
        detail: detail.into(),
    }
}

/// Runs `f` with panics captured as [`FailureKind::Panic`] failures.
fn guarded<T>(
    backend: &str,
    spec: &str,
    f: impl FnOnce() -> Result<T, Failure>,
) -> Result<T, Failure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(fail(FailureKind::Panic, backend, spec, msg))
        }
    }
}

/// Builds and runs one leg. This reimplements `Scenario::builder`
/// rather than calling it because the builder has a single
/// `wrap_scheduler` slot: the saboteur (when present) and the fault
/// injector must compose inside one closure.
fn run_leg(
    scenario: &Scenario,
    spec: &SchedulerSpec,
    backend: ExecutionBackend,
    saboteur: Option<SchedulerWrapper>,
) -> Result<RunReport, Failure> {
    let label = backend.label();
    let spec_label = spec.label();
    guarded(&label, &spec_label, || {
        let mut builder = obase_runtime::Runtime::builder()
            .scheduler(spec.clone())
            .clients(scenario.clients)
            .seed(scenario.seed)
            .retries(scenario.retries)
            .backend(backend)
            .verify(Verify::Full)
            .observe(Observe::Off);
        if let Some(ms) = scenario.faults.deadline_ms {
            builder = builder.deadline(Duration::from_millis(ms));
        }
        let plan = scenario.faults.clone();
        plan.validate()
            .map_err(|e| fail(FailureKind::EngineError, &label, &spec_label, e.to_string()))?;
        let seed = scenario.seed;
        if saboteur.is_some() || !plan.is_noop() {
            builder = builder.wrap_scheduler(move |inner| {
                let inner = match &saboteur {
                    Some(wrap) => wrap(inner),
                    None => inner,
                };
                if plan.is_noop() {
                    inner
                } else {
                    Box::new(
                        FaultInjector::new(inner, plan.clone(), seed)
                            .expect("fault plan validated above"),
                    )
                }
            });
        }
        let report = builder
            .build()
            .map_err(|e| fail(FailureKind::EngineError, &label, &spec_label, e.to_string()))?
            .run(&scenario.compile())
            .map_err(|e| fail(FailureKind::EngineError, &label, &spec_label, e.to_string()))?;
        report
            .check_serialisable()
            .map_err(|v| fail(FailureKind::Oracle, &label, &spec_label, v.to_string()))?;
        Ok(report)
    })
}

/// The commit set a log prefix actually promises: tops with a surviving
/// `CommitTop` record and no `Abort` record. Computed from the raw frames,
/// independently of the recovery code under test.
fn logged_commits(dir: &std::path::Path) -> std::io::Result<BTreeSet<obase_core::ids::ExecId>> {
    let scan = log::scan(&log::log_path(dir))?;
    let mut committed = BTreeSet::new();
    let mut aborted = BTreeSet::new();
    for r in &scan.records {
        match r {
            WalRecord::CommitTop { exec } => {
                committed.insert(*exec);
            }
            WalRecord::Abort { exec } => {
                aborted.insert(*exec);
            }
            _ => {}
        }
    }
    Ok(committed.difference(&aborted).copied().collect())
}

/// Recovers `dir` and holds the result to [`hold_recovery`] — all without
/// panicking.
fn check_recovery(
    scenario: &Scenario,
    dir: &std::path::Path,
    leg: &str,
    spec_label: &str,
) -> Result<Recovered, Failure> {
    guarded(leg, spec_label, || {
        let base = scenario.compile().def.base().clone();
        let recovered = WalBackend::new(base)
            .recover(dir)
            .map_err(|e| fail(FailureKind::Recovery, leg, spec_label, e.to_string()))?;
        hold_recovery(&recovered, dir, leg, spec_label)?;
        Ok(recovered)
    })
}

/// Holds a recovery of `dir` to the oracle (legal history, acyclic
/// serialisation graph, recovered states equal to the replayed ones) plus
/// the no-resurrection bound.
fn hold_recovery(
    recovered: &Recovered,
    dir: &std::path::Path,
    leg: &str,
    spec_label: &str,
) -> Result<(), Failure> {
    recovered.check_serialisable().map_err(|v| {
        let kind = match v {
            RecoveryViolation::Oracle(_) => FailureKind::Oracle,
            RecoveryViolation::StateDiverges { .. } => FailureKind::Recovery,
        };
        fail(kind, leg, spec_label, v.to_string())
    })?;
    let promised = logged_commits(dir)
        .map_err(|e| fail(FailureKind::Recovery, leg, spec_label, e.to_string()))?;
    for top in &recovered.committed {
        if !promised.contains(top) {
            return Err(fail(
                FailureKind::Resurrection,
                leg,
                spec_label,
                format!("recovery resurrected {top:?} without a logged commit"),
            ));
        }
        if recovered.rolled_back.contains(top) {
            return Err(fail(
                FailureKind::Recovery,
                leg,
                spec_label,
                format!("{top:?} both committed and rolled back"),
            ));
        }
    }
    Ok(())
}

/// Runs the full differential battery over one case. `Ok` carries run
/// accounting; the first failed check short-circuits as a typed
/// [`Failure`].
pub fn run_differential(case: &FuzzCase, cfg: &DiffConfig) -> Result<DiffStats, Failure> {
    let scenario = &case.scenario;
    let mut stats = DiffStats::default();
    for spec in &scenario.specs {
        let spec_label = spec.label();

        // Simulator, twice: oracle + determinism.
        let sim_a = run_leg(
            scenario,
            spec,
            ExecutionBackend::Simulated,
            cfg.saboteur.clone(),
        )?;
        let sim_b = run_leg(
            scenario,
            spec,
            ExecutionBackend::Simulated,
            cfg.saboteur.clone(),
        )?;
        stats.runs += 2;
        stats.committed += sim_a.metrics.committed + sim_b.metrics.committed;
        if !same_structure(&sim_a.raw_history, &sim_b.raw_history) {
            return Err(fail(
                FailureKind::Divergence,
                "simulated",
                &spec_label,
                "two simulator runs of the same seed produced different histories",
            ));
        }

        // Parallel legs: the oracle must hold on every admitted history.
        for &workers in &cfg.workers {
            let report = run_leg(
                scenario,
                spec,
                ExecutionBackend::Parallel { workers },
                cfg.saboteur.clone(),
            )?;
            stats.runs += 1;
            stats.committed += report.metrics.committed;
        }

        // Serve leg: the same case over a real socket, same oracle.
        if cfg.serve {
            let workers = cfg.workers.first().copied().unwrap_or(2);
            let committed = guarded("serve", &spec_label, || {
                crate::serve_leg::run_serve_leg(case, spec, workers)
            })?;
            stats.runs += 1;
            stats.committed += committed;
        }

        // Durable leg: sim-equality, recovery equality, crash plan.
        if cfg.durable {
            let dir: PathBuf = obase_wal::scratch_dir(&cfg.wal_tag);
            let result = (|| {
                let report = run_leg(
                    scenario,
                    spec,
                    ExecutionBackend::Durable {
                        dir: dir.clone(),
                        group_commit: 4,
                    },
                    cfg.saboteur.clone(),
                )?;
                stats.runs += 1;
                stats.committed += report.metrics.committed;
                if !same_structure(&sim_a.raw_history, &report.raw_history) {
                    return Err(fail(
                        FailureKind::Divergence,
                        "durable",
                        &spec_label,
                        "durable run diverged structurally from the simulator",
                    ));
                }
                let recovered = check_recovery(scenario, &dir, "recovery", &spec_label)?;
                stats.recoveries += 1;
                if !same_structure(&recovered.raw_history, &report.raw_history) {
                    return Err(fail(
                        FailureKind::Recovery,
                        "recovery",
                        &spec_label,
                        "crash-free recovery did not reproduce the run's history",
                    ));
                }
                if recovered.committed.len() != report.metrics.committed {
                    return Err(fail(
                        FailureKind::Recovery,
                        "recovery",
                        &spec_label,
                        format!(
                            "recovery changed the committed set: {} vs {}",
                            recovered.committed.len(),
                            report.metrics.committed
                        ),
                    ));
                }

                // The planned crash: cut the log, optionally corrupt a byte
                // under the cut, recover again.
                if let Some(plan) = &scenario.faults.crash {
                    let cut = crash::truncate_log_fraction(&dir, plan.fraction).map_err(|e| {
                        fail(FailureKind::Recovery, "crash", &spec_label, e.to_string())
                    })?;
                    if plan.corrupt && cut > 0 {
                        crash::corrupt_log_byte(&dir, cut / 2).map_err(|e| {
                            fail(FailureKind::Recovery, "crash", &spec_label, e.to_string())
                        })?;
                    }
                    check_recovery(scenario, &dir, "crash", &spec_label)?;
                    stats.recoveries += 1;
                }
                Ok(())
            })();
            std::fs::remove_dir_all(&dir).ok();
            result?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use obase_rng::{ChaCha8Rng, SeedableRng};

    #[test]
    fn library_scenarios_pass_the_full_battery() {
        // Two library scenarios with different chaos shapes, full battery
        // (crash leg included for the one we give a crash plan).
        let mut s = obase_scenario::by_name("hot-queue").expect("library");
        s.faults.crash = Some(obase_scenario::CrashPlan {
            fraction: 0.6,
            corrupt: true,
        });
        let case = FuzzCase { scenario: s };
        let cfg = DiffConfig {
            workers: vec![2],
            ..Default::default()
        };
        let stats = run_differential(&case, &cfg).expect("clean engine passes");
        // Two specs × (2 sim + 1 par + 1 durable) runs.
        assert_eq!(stats.runs, 2 * 4);
        // Crash-free + planned-crash recovery per spec.
        assert_eq!(stats.recoveries, 2 * 2);
        assert!(stats.committed > 0);
    }

    #[test]
    fn generated_cases_pass_on_the_clean_engine() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let cfg = DiffConfig {
            workers: vec![1],
            ..Default::default()
        };
        for i in 0..4 {
            let case = generate(&mut rng, &GenConfig::default());
            run_differential(&case, &cfg)
                .unwrap_or_else(|f| panic!("case {i} ({}): {f}", case.scenario.name));
        }
    }

    #[test]
    fn a_tampered_recovered_state_is_a_recovery_failure() {
        let scenario = obase_scenario::by_name("hot-queue").expect("library");
        let dir = obase_wal::scratch_dir("fuzz-tampered");
        let backend = ExecutionBackend::Durable {
            dir: dir.clone(),
            group_commit: 4,
        };
        run_leg(&scenario, &scenario.specs[0], backend, None).expect("clean durable run");
        let mut recovered = WalBackend::new(scenario.compile().def.base().clone())
            .recover(&dir)
            .expect("recovers");
        hold_recovery(&recovered, &dir, "recovery", "spec").expect("untampered recovery passes");
        for state in recovered.final_states.values_mut() {
            *state = obase_core::value::Value::Str("tampered".into());
        }
        let failure = hold_recovery(&recovered, &dir, "recovery", "spec")
            .expect_err("a tampered state is caught");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(failure.kind, FailureKind::Recovery, "{failure}");
    }

    #[test]
    fn failure_kinds_round_trip_their_keys() {
        for kind in [
            FailureKind::Oracle,
            FailureKind::Divergence,
            FailureKind::Recovery,
            FailureKind::Resurrection,
            FailureKind::EngineError,
            FailureKind::Panic,
        ] {
            assert_eq!(FailureKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(FailureKind::from_key("no-such"), None);
    }
}

#[cfg(test)]
mod soak {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use obase_rng::{ChaCha8Rng, SeedableRng};

    /// Long-running clean-engine soak (run explicitly with --ignored).
    #[test]
    #[ignore]
    fn soak_the_clean_engine() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let cfg = DiffConfig {
            workers: vec![1, 2, 8],
            ..Default::default()
        };
        let mut failures = Vec::new();
        for i in 0..40 {
            let case = generate(&mut rng, &GenConfig::default());
            if let Err(f) = run_differential(&case, &cfg) {
                println!("case {i} ({}): {f}", case.scenario.name);
                println!("  json: {}", case.scenario.to_json_string());
                failures.push(f);
            }
        }
        assert!(failures.is_empty(), "{} soak failures", failures.len());
    }
}
