//! The MVCC snapshot read path's acceptance gates.
//!
//! The fast path must be *free* correctness-wise: every run with snapshots
//! on — any backend, any seed — passes the same serialisability oracle as
//! the scheduled path (legality, Theorem 2 with witness, Theorem 5), with
//! the snapshot transactions' reads serialised at the commit watermark
//! they read under the store lock. And it must be *invisible* when off: the `.mvcc(false)`
//! baseline is bit-for-bit the run the knob's introduction never touched.

use obase::prelude::*;
use obase::scenario::{self, Scenario};

mod common;
use common::worker_counts;

fn read_mix_scenarios() -> Vec<Scenario> {
    ["read-mostly-dict", "read-only-rush"]
        .iter()
        .map(|n| scenario::by_name(n).expect("built-in"))
        .collect()
}

/// Runs `s` under `spec` on `backend`, unobserved, with snapshots on or off.
fn run_mvcc(
    s: &Scenario,
    spec: &SchedulerSpec,
    backend: ExecutionBackend,
    mvcc: bool,
) -> RunReport {
    let label = backend.label();
    s.builder(spec.clone(), backend)
        .and_then(|b| b.observe(Observe::Off).mvcc(mvcc).build())
        .unwrap_or_else(|e| panic!("{}/{label}: {e}", s.name))
        .run(&s.compile())
        .unwrap_or_else(|e| panic!("{}/{label}: {e}", s.name))
}

/// Both in-memory backends, both read-mix scenarios, snapshots on: the full
/// oracle passes and the fast path demonstrably absorbed transactions.
#[test]
fn snapshot_runs_pass_the_oracle_on_both_in_memory_backends() {
    for s in read_mix_scenarios() {
        let spec = &s.specs[0];
        let mut backends = vec![ExecutionBackend::Simulated];
        for w in worker_counts(&[1, 4]) {
            backends.push(ExecutionBackend::Parallel { workers: w });
        }
        for backend in backends {
            let label = backend.label();
            let report = run_mvcc(&s, spec, backend, true);
            assert!(!report.metrics.timed_out, "{}/{label} timed out", s.name);
            report.assert_serialisable();
            assert!(
                report.metrics.read_only_txns > 0,
                "{}/{label}: no transaction took the snapshot path",
                s.name
            );
            assert!(
                report.metrics.snapshot_reads > 0,
                "{}/{label}: snapshot transactions performed no reads",
                s.name
            );
            assert!(
                report.metrics.committed >= report.metrics.read_only_txns,
                "{}/{label}: snapshot commits not counted as commits",
                s.name
            );
        }
    }
}

/// A 100-seed sweep on the simulator: the snapshot path holds the oracle
/// under every interleaving/workload the seed stream produces.
#[test]
fn hundred_seed_sweep_holds_the_oracle() {
    let base = scenario::by_name("read-only-rush").expect("built-in");
    let spec = base.specs[0].clone();
    let mut absorbed = 0u64;
    for i in 0..100u64 {
        let mut s = base.clone();
        s.seed = 2_000 + i;
        let report = run_mvcc(&s, &spec, ExecutionBackend::Simulated, true);
        report.assert_serialisable();
        absorbed += report.metrics.snapshot_reads;
    }
    assert!(absorbed > 0, "no seed produced a snapshot read");
}

/// With the knob off, the baseline is bit-for-bit untouched: same rounds,
/// same commits, same installed steps, same history sizes as a runtime that
/// never heard of MVCC.
#[test]
fn mvcc_off_is_the_exact_baseline() {
    for s in read_mix_scenarios() {
        let spec = &s.specs[0];
        let plain = s.run(spec, ExecutionBackend::Simulated).unwrap();
        let off = run_mvcc(&s, spec, ExecutionBackend::Simulated, false);
        assert_eq!(plain.metrics.rounds, off.metrics.rounds, "{}", s.name);
        assert_eq!(plain.metrics.committed, off.metrics.committed, "{}", s.name);
        assert_eq!(plain.metrics.aborts, off.metrics.aborts, "{}", s.name);
        assert_eq!(
            plain.metrics.installed_steps, off.metrics.installed_steps,
            "{}",
            s.name
        );
        assert_eq!(
            plain.history.step_count(),
            off.history.step_count(),
            "{}",
            s.name
        );
        assert_eq!(off.metrics.snapshot_reads, 0, "{}", s.name);
        assert_eq!(off.metrics.read_only_txns, 0, "{}", s.name);
    }
}

/// Snapshots on, the simulator stays a pure function of the seed.
#[test]
fn mvcc_on_is_deterministic_on_the_simulator() {
    let s = scenario::by_name("read-mostly-dict").expect("built-in");
    let spec = &s.specs[0];
    let a = run_mvcc(&s, spec, ExecutionBackend::Simulated, true);
    let b = run_mvcc(&s, spec, ExecutionBackend::Simulated, true);
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
    assert_eq!(a.metrics.committed, b.metrics.committed);
    assert_eq!(a.metrics.snapshot_reads, b.metrics.snapshot_reads);
    assert_eq!(a.metrics.read_only_txns, b.metrics.read_only_txns);
    assert_eq!(a.history.step_count(), b.history.step_count());
}

/// The durable backend takes the same fast path (snapshot records go
/// through the WAL) and its recovered history passes the oracle.
#[test]
fn durable_backend_snapshots_and_recovers() {
    let dir = obase::wal::scratch_dir("mvcc-durable");
    let s = scenario::by_name("read-mostly-dict").expect("built-in");
    let workload = s.compile();
    let runtime = Runtime::builder()
        .scheduler(s.specs[0].clone())
        .clients(s.clients)
        .seed(s.seed)
        .retries(s.retries)
        .mvcc(true)
        .backend(ExecutionBackend::Durable {
            dir: dir.clone(),
            group_commit: 4,
        })
        .verify(Verify::Full)
        .build()
        .unwrap();
    let report = runtime.run(&workload).unwrap();
    report.assert_serialisable();
    assert!(
        report.metrics.snapshot_reads > 0,
        "wal run took no snapshots"
    );

    let recovered = obase::wal::WalBackend::new(std::sync::Arc::clone(workload.def.base()))
        .recover(&dir)
        .unwrap();
    recovered.assert_serialisable();
    assert_eq!(recovered.committed.len(), report.metrics.committed);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads through the public API: a read, taken under the store lock, sees
/// the newest committed version; publication replaces that version in place,
/// so a write-heavy loop holds one version per object and no mirrored step
/// outlives its commit.
#[test]
fn pins_hold_versions_and_gc_reclaims() {
    use obase::core::ids::{ExecId, StepId};
    use obase::core::object::ObjectBase;
    use obase::core::op::Operation;
    use obase::core::value::Value;
    use obase::exec::VersionedStore;
    use std::sync::Arc;

    let mut base = ObjectBase::new();
    let x = base.add_object("x", Arc::new(obase::adt::Register::default()));
    let y = base.add_object("y", Arc::new(obase::adt::Register::default()));
    let mut vs = VersionedStore::new(Arc::new(base));

    let commit_write = |vs: &mut VersionedStore, e: u32, v: i64| {
        vs.note_install(
            ExecId(e),
            x,
            StepId(e),
            Operation::unary("Write", v),
            Value::Unit,
        );
        vs.note_commit(ExecId(e));
    };

    commit_write(&mut vs, 1, 10);
    assert_eq!(vs.read(x), (&Value::Int(10), Some(StepId(1))));
    for e in 2..1030 {
        commit_write(&mut vs, e, i64::from(e));
        assert_eq!(vs.read(x), (&Value::Int(i64::from(e)), Some(StepId(e))));
        assert_eq!(vs.pending_entries(), 0, "mirrored steps kept at exec {e}");
        assert_eq!(vs.watermark(), u64::from(e));
    }
    // An object never written reads its initial state, anchored nowhere.
    assert_eq!(vs.read(y), (&Value::Int(0), None));
}
