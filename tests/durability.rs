//! Kill-at-any-point durability: the write-ahead-logged backend's recovery
//! contract under crashes.
//!
//! A crash is modelled by cutting the log a durable run wrote at an
//! arbitrary byte offset (usually mid-record) — exactly what a power cut
//! leaves on disk — optionally with a corrupted byte under the torn tail.
//! The contract recovery must honour at *every* cut point:
//!
//! 1. it never panics and never errors on log content (only on I/O);
//! 2. the recovered history passes the full Definition-3 oracle (legal,
//!    acyclic serialisation graph, per-object condition, replayable final
//!    states);
//! 3. no uncommitted transaction is resurrected: every recovered commit has
//!    a `CommitTop` record in the surviving prefix and no `Abort` record —
//!    recovery may roll *back* more (a crash can expose a dirty read), but
//!    never forward;
//! 4. cutting exactly at a frame boundary loses nothing relative to that
//!    prefix: recovery equals a run of the shorter log.

use obase::prelude::*;
use obase::scenario::{shapes, Scenario};
use obase::wal::{self, WalBackend, WalRecord};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Three workload shapes with different nesting and conflict structure, so
/// the crash points land in payments (withdrawals and deposits, some of
/// them failing), queue steps and keyed dictionary traffic.
fn workloads() -> Vec<(&'static str, WorkloadSpec)> {
    let compiled = |mut scenario: Scenario, seed: u64| {
        scenario.seed = seed;
        scenario.compile()
    };
    vec![
        ("banking", compiled(shapes::banking(4, 10, 0.8), 41)),
        ("queues", compiled(shapes::queues(2, 12, 4), 42)),
        (
            "dictionary",
            compiled(shapes::dictionary(2, 6, 10, 3, 0.3, 0.9), 43),
        ),
    ]
}

/// Runs a workload on the durable backend and returns the raw log bytes.
fn durable_log_bytes(workload: &WorkloadSpec, seed: u64) -> Vec<u8> {
    let dir = wal::scratch_dir("durability-ref");
    let report = Runtime::builder()
        .scheduler(SchedulerSpec::n2pl_operation())
        .backend(ExecutionBackend::Durable {
            dir: dir.clone(),
            group_commit: 8,
        })
        .seed(seed)
        .retries(64)
        .verify(Verify::Quick)
        .build()
        .expect("valid durable configuration")
        .run(workload)
        .expect("well-formed generated workload");
    report.assert_serialisable();
    let bytes = std::fs::read(wal::log_path(&dir)).expect("the run left a log");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Materialises the first `cut` bytes of a log as a fresh directory — the
/// disk image a crash at that offset leaves behind.
fn crashed_dir(bytes: &[u8], cut: usize) -> PathBuf {
    let dir = wal::scratch_dir("durability-cut");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(wal::log_path(&dir), &bytes[..cut]).unwrap();
    dir
}

/// The commit set the surviving log prefix actually promises: tops with a
/// `CommitTop` record and no `Abort` record. Computed from the raw frames,
/// independently of the recovery code under test.
fn logged_commits(dir: &Path) -> BTreeSet<ExecId> {
    let scan = wal::log::scan(&wal::log_path(dir)).expect("log readable");
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
    committed.difference(&aborted).copied().collect()
}

/// Recovers a crashed directory and checks the per-cut contract; returns
/// the number of crash roll-backs.
fn recover_and_check(workload: &WorkloadSpec, dir: &Path, what: &str) -> u64 {
    let recovered = WalBackend::new(workload.def.base().clone())
        .recover(dir)
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    recovered.assert_serialisable();
    // No resurrection: recovery's committed set is bounded by what the
    // surviving prefix promised.
    let promised = logged_commits(dir);
    for top in &recovered.committed {
        assert!(
            promised.contains(top),
            "{what}: recovery resurrected {top:?} without a logged commit"
        );
    }
    // Every transaction is accounted for: a recovered top is committed or
    // rolled back, never both.
    for top in &recovered.committed {
        assert!(
            !recovered.rolled_back.contains(top),
            "{what}: {top:?} both committed and rolled back"
        );
    }
    recovered.crash_rollbacks()
}

/// The kill-at-any-point sweep: ≥50 seeded crash offsets across the three
/// workload shapes, every cut recovered and held to the full oracle, plus a
/// byte-corruption variant at every fourth point. Prints the summary lines
/// CI greps for.
#[test]
fn kill_at_any_point_recovery_passes_the_oracle() {
    const CUTS_PER_WORKLOAD: usize = 20;
    let mut total = 0usize;
    let mut corrupted = 0usize;
    let mut rollbacks = 0u64;
    let mut histogram: std::collections::BTreeMap<String, u64> = Default::default();
    for (name, workload) in &workloads() {
        let bytes = durable_log_bytes(workload, 7);
        // A seeded multiplicative generator spreads the cut points over the
        // whole file, deterministically per workload.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15 ^ (name.len() as u64);
        for i in 0..CUTS_PER_WORKLOAD {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cut = (state % (bytes.len() as u64 + 1)) as usize;
            let dir = crashed_dir(&bytes, cut);
            let what = format!("{name} cut at {cut}/{}", bytes.len());
            // Every fourth point also flips a byte under the surviving
            // prefix — a bad sector beneath the torn tail.
            if i % 4 == 3 && cut > 0 {
                let offset = (state >> 32) % cut as u64;
                wal::crash::corrupt_log_byte(&dir, offset).unwrap();
                corrupted += 1;
            }
            rollbacks += recover_and_check(workload, &dir, &what);
            let recovered = WalBackend::new(workload.def.base().clone())
                .recover(&dir)
                .unwrap();
            for (reason, n) in recovered.aborts_by_reason() {
                *histogram.entry(reason).or_default() += n;
            }
            std::fs::remove_dir_all(&dir).ok();
            total += 1;
        }
    }
    assert!(total >= 50, "only {total} crash points exercised");
    assert!(
        rollbacks > 0,
        "no cut ever landed mid-transaction — the sweep is not biting"
    );
    assert!(histogram.contains_key("crash_rollback"));
    println!("kill-at-any-point: {total} crash points ({corrupted} with byte corruption), recovered oracle passed at every point");
    println!("aborts_by_reason: {histogram:?}");
}

/// Satellite: the torn-tail sweep at byte granularity. A valid log is cut at
/// *every* byte offset of its final record; recovery must never panic, must
/// flag the tail as torn (except at the clean boundary) and must equal the
/// recovery of the log without that record — byte-partial records carry no
/// information.
#[test]
fn torn_tail_at_every_byte_offset_of_the_last_record() {
    let mut scenario = shapes::counters(2, 6, 2, 0.2, 0.5);
    scenario.seed = 11;
    let workload = scenario.compile();
    let bytes = durable_log_bytes(&workload, 11);
    let full_dir = crashed_dir(&bytes, bytes.len());
    let scan = wal::log::scan(&wal::log_path(&full_dir)).unwrap();
    std::fs::remove_dir_all(&full_dir).ok();
    assert!(!scan.torn, "reference log must be clean");
    let ends = &scan.frame_ends;
    assert!(ends.len() >= 2, "need at least two records");
    let last_start = ends[ends.len() - 2] as usize;
    let last_end = ends[ends.len() - 1] as usize;
    assert_eq!(last_end, bytes.len());

    // The expected outcome for every partial cut: whatever the log without
    // its final record recovers to.
    let boundary_dir = crashed_dir(&bytes, last_start);
    let expected = WalBackend::new(workload.def.base().clone())
        .recover(&boundary_dir)
        .expect("boundary prefix recovers");
    std::fs::remove_dir_all(&boundary_dir).ok();

    for cut in last_start..last_end {
        let dir = crashed_dir(&bytes, cut);
        let recovered = WalBackend::new(workload.def.base().clone())
            .recover(&dir)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        recovered.assert_serialisable();
        assert_eq!(
            recovered.torn,
            cut != last_start,
            "cut at {cut}: torn flag wrong"
        );
        assert_eq!(
            recovered.committed, expected.committed,
            "cut at {cut}: a byte-partial record changed the committed set"
        );
        assert_eq!(recovered.records, expected.records);
        assert_eq!(
            recovered.final_states, expected.final_states,
            "cut at {cut}: partial tail leaked into the recovered state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "torn-tail sweep: {} byte offsets of the final record, recovery stable at every one",
        last_end - last_start
    );
}

/// The crash helpers behave as the scenario `CrashPlan` documents them:
/// `truncate_log_fraction` cuts proportionally and `corrupt_log_byte` makes
/// the scan stop at (or before) the damaged frame.
#[test]
fn crash_helpers_drive_scenario_crash_plans() {
    let s = obase::scenario::by_name("hot-queue").expect("library scenario");
    let plan = obase::scenario::CrashPlan {
        fraction: 0.5,
        corrupt: true,
    };
    let dir = wal::scratch_dir("durability-plan");
    let report = s
        .run(
            &s.specs[0],
            ExecutionBackend::Durable {
                dir: dir.clone(),
                group_commit: 8,
            },
        )
        .expect("scenario runs durably");
    report.assert_serialisable();
    let full = wal::crash::log_len(&dir).unwrap();
    let cut = wal::crash::truncate_log_fraction(&dir, plan.fraction).unwrap();
    assert!(cut <= full && cut >= full / 2 - 1, "cut {cut} of {full}");
    if plan.corrupt && cut > 0 {
        wal::crash::corrupt_log_byte(&dir, cut / 2).unwrap();
    }
    let base = s.compile().def.base().clone();
    let recovered = WalBackend::new(base).recover(&dir).expect("recovers");
    recovered.assert_serialisable();
    let promised = logged_commits(&dir);
    for top in &recovered.committed {
        assert!(promised.contains(top));
    }
    println!(
        "scenario crash plan: cut {cut}/{full} bytes, {} committed survived, {} crash_rollback",
        recovered.committed.len(),
        recovered.crash_rollbacks()
    );
    std::fs::remove_dir_all(&dir).ok();
}
