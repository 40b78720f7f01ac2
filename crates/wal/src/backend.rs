//! The durable backend: logged execution and crash recovery.
//!
//! [`execute_durable`] is the drop-in durable counterpart of
//! [`obase_exec::execute`]: the same simulator loop over the same lifecycle
//! kernel, driven with a [`WalRecorder`] so every event hits the
//! write-ahead log before the run reports it.
//!
//! [`WalBackend::recover`] re-derives a consistent system from whatever
//! prefix of the log survived a crash:
//!
//! 1. **Scan** — decode frames until the first torn or corrupt one
//!    ([`crate::log::scan`]); everything after is discarded.
//! 2. **Replay** — re-drive the surviving events through a fresh
//!    [`HistoryBuilder`]. Append order equals allocation order, so the
//!    replayed prefix reproduces the run's execution and step ids exactly;
//!    any record that contradicts that numbering ends the usable prefix
//!    (recovery never panics on log content).
//! 3. **Roll back** — a top-level transaction is committed iff its commit
//!    record survived and no abort record follows; every other started top
//!    is rolled back with its whole subtree (`crash_rollback` in the abort
//!    histogram).
//! 4. **Cascade** — the per-object step logs (minus all aborted steps) are
//!    replayed through the semantic types. A surviving step whose recorded
//!    return value no longer holds observed state of a rolled-back
//!    transaction — a dirty read that the crash made visible — and its
//!    (committed!) transaction is rolled back too, to a fixpoint. This is
//!    the same invalidation rule the live engines use when undoing aborts,
//!    so recovery and runtime agree on what survives.
//! 5. **Oracle** — the result carries the committed projection of the
//!    recovered history plus the re-derived object states;
//!    [`Recovered::check_serialisable`] holds them to
//!    [`obase_core::oracle::check`] (legality and Theorem 2) and compares
//!    the states with the ones it replays.

use crate::codec::WalRecord;
use crate::log::{self, log_path, WalWriter};
use crate::recorder::WalRecorder;
use crate::WalError;
use obase_core::builder::HistoryBuilder;
use obase_core::history::History;
use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::ObjectBase;
use obase_core::oracle::TheoryViolation;
use obase_core::sched::{AbortReason, Scheduler};
use obase_core::value::Value;
use obase_exec::store::{replay_log, LogEntry};
use obase_exec::{drive, ExecParams, RunResult, WorkloadSpec};
use obase_obs::ObsHandle;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Runs a workload durably: the simulator loop of [`obase_exec::execute`],
/// with every event logged to `dir` before the run reports. `group_commit`
/// is the fsync window in commit records (`1` = fsync per commit, `0` =
/// never fsync — a benchmark baseline). Lifecycle events go to `obs`, plus
/// an fsync begin/end span per group-commit sync on the `"wal"` lane.
pub fn execute_durable(
    workload: &WorkloadSpec,
    scheduler: &mut dyn Scheduler,
    config: &ExecParams,
    dir: &Path,
    group_commit: usize,
    obs: &ObsHandle,
) -> Result<RunResult, WalError> {
    std::fs::create_dir_all(dir)?;
    let mut writer = WalWriter::create(&log_path(dir), group_commit)?;
    writer.set_observer(obs.lane("wal"));
    let mut builder = HistoryBuilder::new(Arc::clone(workload.def.base()));
    builder.set_auto_program_order(false);
    let recorder = WalRecorder::new(builder, writer)?;
    let (kernel, recorder) = drive(workload, scheduler, config, "durable", recorder, obs);
    let (builder, _syncs) = recorder.finish()?;
    Ok(kernel.into_result(builder.build()))
}

/// Crash recovery for the durable backend. Holds the object base the log
/// was written against (the log records states and operations, not semantic
/// types — like any database, recovery needs the catalog).
#[derive(Debug)]
pub struct WalBackend {
    base: Arc<ObjectBase>,
}

impl WalBackend {
    /// A recovery handle over an object base.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        WalBackend { base }
    }

    /// Recovers from the log in `dir` (as written by [`execute_durable`]).
    pub fn recover(&self, dir: &Path) -> Result<Recovered, WalError> {
        self.recover_file(&log_path(dir))
    }

    /// Recovers from an explicit log file path. See the module docs for the
    /// algorithm; errors are I/O and catalog mismatches only — torn and
    /// corrupt logs are data, not errors.
    pub fn recover_file(&self, path: &Path) -> Result<Recovered, WalError> {
        let scan = log::scan(path)?;
        let mut torn = scan.torn;
        let mut records = scan.records.into_iter();
        match records.next() {
            Some(WalRecord::Header { objects, .. }) => {
                let expect: Vec<String> = self.base.iter().map(|s| s.name.clone()).collect();
                if objects != expect {
                    return Err(WalError::BaseMismatch(format!(
                        "log objects {objects:?} != base objects {expect:?}"
                    )));
                }
            }
            // A complete first record that is not a header means this is not
            // our log at all — refuse rather than reinterpret foreign data.
            Some(_) => return Err(WalError::MissingHeader(path.to_owned())),
            // Zero complete records: the crash tore the log inside the very
            // first frame (kill-at-any-point includes the header write), or
            // nothing was ever written. Either way the durable state is total
            // loss — recover to the base state with zero commits.
            None => {
                let raw_history = HistoryBuilder::new(Arc::clone(&self.base)).build();
                let history = raw_history.committed_projection();
                return Ok(Recovered {
                    history,
                    raw_history,
                    committed: Vec::new(),
                    rolled_back: Vec::new(),
                    final_states: self.base.initial_states(),
                    records: 0,
                    torn,
                });
            }
        }

        let mut builder = HistoryBuilder::new(Arc::clone(&self.base));
        builder.set_auto_program_order(false);
        // Mirrors of the builder's allocators: a surviving record that
        // contradicts the replayed numbering ends the usable prefix.
        let mut next_exec: u32 = 0;
        let mut next_step: u32 = 0;
        let mut parent: Vec<Option<ExecId>> = Vec::new();
        let mut children: Vec<Vec<ExecId>> = Vec::new();
        let mut exec_object: Vec<ObjectId> = Vec::new();
        let mut aborted: BTreeSet<ExecId> = BTreeSet::new();
        let mut committed_tops: BTreeSet<ExecId> = BTreeSet::new();
        let mut object_logs: BTreeMap<ObjectId, Vec<LogEntry>> = BTreeMap::new();
        let mut replayed = 1usize; // the header

        for rec in records {
            let consistent = match rec {
                WalRecord::Header { .. } => false, // only ever first
                WalRecord::BeginTop { exec, name } => {
                    exec.0 == next_exec && {
                        builder.begin_top_level(name);
                        next_exec += 1;
                        parent.push(None);
                        children.push(Vec::new());
                        exec_object.push(ObjectId::ENVIRONMENT);
                        true
                    }
                }
                WalRecord::Invoke {
                    step,
                    parent: p,
                    child,
                    target,
                    method,
                    args,
                } => {
                    child.0 == next_exec
                        && step.0 == next_step
                        && p.0 < next_exec
                        && self.base.contains(target)
                        && {
                            builder.invoke(p, target, method, args);
                            next_exec += 1;
                            next_step += 1;
                            parent.push(Some(p));
                            children.push(Vec::new());
                            children[p.index()].push(child);
                            exec_object.push(target);
                            true
                        }
                }
                WalRecord::Local {
                    step,
                    exec,
                    op,
                    ret,
                } => {
                    exec.0 < next_exec
                        && step.0 == next_step
                        && !exec_object[exec.index()].is_environment()
                        && {
                            object_logs
                                .entry(exec_object[exec.index()])
                                .or_default()
                                .push(LogEntry {
                                    exec,
                                    op: op.clone(),
                                    ret: ret.clone(),
                                });
                            builder.local(exec, op, ret);
                            next_step += 1;
                            true
                        }
                }
                WalRecord::ProgramOrder { exec, a, b } => {
                    exec.0 < next_exec && a.0 < next_step && b.0 < next_step && {
                        builder.program_order_edge(exec, a, b);
                        true
                    }
                }
                WalRecord::Complete { step, ret } => {
                    step.0 < next_step && {
                        builder.complete_invoke(step, ret);
                        true
                    }
                }
                WalRecord::Abort { exec } => {
                    exec.0 < next_exec && {
                        builder.abort(exec);
                        next_step += 1; // the abort step
                        aborted.insert(exec);
                        true
                    }
                }
                WalRecord::CommitTop { exec } => {
                    exec.0 < next_exec && {
                        committed_tops.insert(exec);
                        true
                    }
                }
            };
            if !consistent {
                torn = true;
                break;
            }
            replayed += 1;
        }

        // A torn tail can keep an execution's abort record while losing its
        // descendants': the kernel logs one abort record per subtree member
        // and the crash can fall between them. Aborting an execution aborts
        // its whole subtree, so close the set over child links before it
        // filters the per-object step logs — otherwise an orphaned child's
        // installed effects leak into the recovered state while the history
        // side (where `effectively_aborted` propagates through ancestors)
        // correctly discards them (found by the differential fuzzer; see
        // `bugbase/`).
        let orphans: Vec<ExecId> = aborted
            .iter()
            .flat_map(|e| subtree_of(&children, *e))
            .filter(|e| !aborted.contains(e))
            .collect();
        aborted.extend(orphans);

        // Phase 3+4: roll back every started-but-unresolved top, then
        // cascade through dirty reads the removals expose, to a fixpoint.
        let mut rolled_back: Vec<ExecId> = Vec::new();
        let mut pending: Vec<ExecId> = (0..next_exec)
            .map(ExecId)
            .filter(|e| {
                parent[e.index()].is_none() && !committed_tops.contains(e) && !aborted.contains(e)
            })
            .collect();
        let final_states = loop {
            for top in pending.drain(..) {
                for e in subtree_of(&children, top) {
                    if aborted.insert(e) {
                        builder.abort(e);
                    }
                }
                committed_tops.remove(&top);
                rolled_back.push(top);
            }
            let mut states = self.base.initial_states();
            let mut dirty: BTreeSet<ExecId> = BTreeSet::new();
            for (o, entries) in &object_logs {
                let surviving: Vec<LogEntry> = entries
                    .iter()
                    .filter(|e| !aborted.contains(&e.exec))
                    .cloned()
                    .collect();
                let ty = self.base.type_of(*o);
                let initial = states.get(o).cloned().unwrap_or_else(|| ty.initial_state());
                let (state, invalidated) = replay_log(&ty, &initial, &surviving);
                states.insert(*o, state);
                dirty.extend(invalidated);
            }
            pending = dirty
                .iter()
                .map(|e| top_of(&parent, *e))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .filter(|t| !aborted.contains(t))
                .collect();
            if pending.is_empty() {
                break states;
            }
        };

        let raw_history = builder.build();
        let history = raw_history.committed_projection();
        let committed: Vec<ExecId> = committed_tops.difference(&aborted).copied().collect();
        Ok(Recovered {
            history,
            raw_history,
            committed,
            rolled_back,
            final_states,
            records: replayed,
            torn,
        })
    }
}

/// Top-level ancestor of an execution, by parent links.
fn top_of(parent: &[Option<ExecId>], mut e: ExecId) -> ExecId {
    while let Some(p) = parent[e.index()] {
        e = p;
    }
    e
}

/// The execution and all its descendants, by child links.
fn subtree_of(children: &[Vec<ExecId>], top: ExecId) -> Vec<ExecId> {
    let mut out = vec![top];
    let mut i = 0;
    while i < out.len() {
        out.extend(children[out[i].index()].iter().copied());
        i += 1;
    }
    out
}

/// The outcome of a recovery: the surviving histories, what committed, what
/// was rolled back, and the re-derived object states.
#[derive(Debug)]
pub struct Recovered {
    /// The committed projection of the recovered history — what the
    /// serialisability oracle consumes.
    pub history: History,
    /// The full recovered history, including run-time aborts and the
    /// recovery roll-backs.
    pub raw_history: History,
    /// Top-level executions that survived as committed.
    pub committed: Vec<ExecId>,
    /// Top-level executions rolled back by recovery: in flight at the
    /// crash, or committed but invalidated by a dirty read the crash
    /// exposed.
    pub rolled_back: Vec<ExecId>,
    /// Object states re-derived by replaying the committed steps.
    pub final_states: BTreeMap<ObjectId, Value>,
    /// Log records replayed (the surviving prefix, including the header).
    pub records: usize,
    /// `true` if a torn, corrupt or inconsistent tail was discarded.
    pub torn: bool,
}

impl Recovered {
    /// Number of transactions recovery rolled back — the value of the
    /// `"crash_rollback"` abort bucket.
    pub fn crash_rollbacks(&self) -> u64 {
        self.rolled_back.len() as u64
    }

    /// The recovery's abort histogram, keyed like
    /// [`RunMetrics::aborts_by_reason`](obase_exec::RunMetrics): roll-backs
    /// under [`AbortReason::CrashRollback`]'s key, merge-compatible with the
    /// benchmark histogram machinery.
    pub fn aborts_by_reason(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        if !self.rolled_back.is_empty() {
            out.insert(
                AbortReason::CrashRollback.key().to_owned(),
                self.crash_rollbacks(),
            );
        }
        out
    }

    /// Holds the recovery to the oracle: the committed history must be
    /// legal with an acyclic serialisation graph (Theorem 5 is not asked),
    /// and every object state the oracle replays must equal the recovered
    /// one.
    pub fn check_serialisable(&self) -> Result<(), RecoveryViolation> {
        let replayed =
            obase_core::oracle::check(&self.history, false).map_err(RecoveryViolation::Oracle)?;
        match replayed
            .iter()
            .find(|(o, v)| self.final_states.get(o) != Some(v))
        {
            Some((&object, _)) => Err(RecoveryViolation::StateDiverges { object }),
            None => Ok(()),
        }
    }

    /// [`Recovered::check_serialisable`] as an assertion.
    ///
    /// # Panics
    /// Panics with the violation if any check fails.
    pub fn assert_serialisable(&self) {
        if let Err(violation) = self.check_serialisable() {
            panic!("{violation}");
        }
    }
}

/// Why a recovery failed [`Recovered::check_serialisable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryViolation {
    /// The recovered committed history failed the oracle.
    Oracle(TheoryViolation),
    /// The recovered state of `object` differs from the state the oracle
    /// replays from the committed history.
    StateDiverges {
        /// The first diverging object.
        object: ObjectId,
    },
}

impl std::fmt::Display for RecoveryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryViolation::Oracle(v) => write!(f, "recovered history: {v}"),
            RecoveryViolation::StateDiverges { object } => write!(
                f,
                "recovered state of {object} diverges from committed-history replay"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{encode_frame, scan};
    use obase_exec::WorkloadSpec;
    use std::path::PathBuf;

    fn run_sample(tag: &str) -> (WorkloadSpec, PathBuf) {
        let workload = obase_workload::queues(&obase_workload::QueueParams {
            queues: 1,
            producers: 2,
            consumers: 2,
            preload: 2,
            seed: 7,
        });
        let dir = crate::scratch_dir(tag);
        let mut sched = obase_sched::N2plScheduler::step_locks();
        execute_durable(
            &workload,
            &mut sched,
            &ExecParams::default(),
            &dir,
            1,
            &ObsHandle::off(),
        )
        .expect("sample run executes");
        (workload, dir)
    }

    /// Kill-at-any-point includes the header write: a crash can tear the
    /// log *inside the very first frame*, before the header record is
    /// durable. Every such cut — and the empty, never-written file — is
    /// total loss, and recovery must return the base state with zero
    /// commits rather than refuse with `MissingHeader`. Found by the
    /// differential fuzzer (see `bugbase/`).
    #[test]
    fn a_cut_inside_the_header_frame_recovers_to_the_base_state() {
        let (workload, dir) = run_sample("wal-header-torn");
        let path = log_path(&dir);
        let full = std::fs::read(&path).expect("log exists");
        let header_end = scan(&path).expect("scan").frame_ends[0] as usize;
        let backend = WalBackend::new(Arc::clone(workload.def.base()));
        for cut in 0..header_end {
            std::fs::write(&path, &full[..cut]).expect("apply cut");
            let recovered = backend
                .recover(&dir)
                .unwrap_or_else(|e| panic!("cut at {cut} must recover as total loss: {e}"));
            assert!(recovered.committed.is_empty(), "cut at {cut}");
            assert!(recovered.rolled_back.is_empty(), "cut at {cut}");
            assert_eq!(recovered.records, 0, "cut at {cut}");
            assert_eq!(recovered.torn, cut != 0, "cut at {cut}");
            assert_eq!(
                recovered.final_states,
                workload.def.base().initial_states(),
                "cut at {cut}: total loss must land on the base state"
            );
            recovered.assert_serialisable();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The foreign-log protection survives the total-loss carve-out: a file
    /// whose first *complete* record is not a header is some other format,
    /// and recovery still refuses to reinterpret it.
    #[test]
    fn a_complete_non_header_first_record_is_still_refused() {
        let (workload, dir) = run_sample("wal-foreign");
        let frame = encode_frame(&WalRecord::BeginTop {
            exec: ExecId(0),
            name: "T0".to_owned(),
        });
        std::fs::write(log_path(&dir), frame).expect("plant foreign log");
        let err = WalBackend::new(Arc::clone(workload.def.base()))
            .recover(&dir)
            .expect_err("a non-header first record is a foreign log");
        assert!(matches!(err, WalError::MissingHeader(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovered states that disagree with the replay of the recovered
    /// history fail the oracle, even though the history itself passes.
    #[test]
    #[should_panic(expected = "diverges from committed-history replay")]
    fn a_tampered_recovered_state_fails_the_oracle() {
        let (workload, dir) = run_sample("wal-tampered");
        let mut recovered = WalBackend::new(Arc::clone(workload.def.base()))
            .recover(&dir)
            .expect("recovers");
        std::fs::remove_dir_all(&dir).ok();
        recovered.assert_serialisable();
        for state in recovered.final_states.values_mut() {
            *state = Value::Str("tampered".into());
        }
        recovered.assert_serialisable();
    }
}
