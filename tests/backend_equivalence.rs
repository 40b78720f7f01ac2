//! Backend equivalence: the serialisability oracle over the parallel engine.
//!
//! Parallel runs are not reproducible — the OS scheduler interleaves the
//! workers — so they cannot be compared to the simulator step by step. What
//! must hold instead is the paper's contract: *every* history a correct
//! scheduler admits, on either backend, is legal (Definition 6), has an
//! acyclic serialisation graph with a verified serial witness (Theorem 2)
//! and satisfies the per-object condition (Theorem 5). This suite hammers
//! the multi-threaded backend with seeded workloads under every built-in
//! scheduler spec and holds each run to that oracle, and additionally
//! asserts that strict schedulers never cascade-abort (their locks are
//! released only after undo completes). The durable (write-ahead-logged)
//! backend goes through the same gate, plus one stronger demand: the log a
//! run leaves behind must recover to the *exact* history the run reported
//! (crash-point recovery is exercised separately in `tests/durability.rs`).

use obase::prelude::*;
use obase::workload as wl;
use std::sync::Arc;

mod common;
use common::worker_counts;

/// Seeded workload variety: banking (nested transfers + audits), counters
/// (commuting hotspot) and dictionaries (reads/inserts/deletes), rotated by
/// seed so the oracle sees different shapes and contention levels.
fn workload_for(seed: u64) -> WorkloadSpec {
    match seed % 3 {
        0 => wl::banking(&wl::BankingParams {
            accounts: 4,
            transactions: 8,
            skew: 0.8,
            seed,
            ..Default::default()
        }),
        1 => wl::counters(&wl::CounterParams {
            counters: 2,
            transactions: 8,
            touches_per_txn: 2,
            read_fraction: 0.3,
            skew: 0.9,
            seed,
        }),
        _ => wl::dictionary(&wl::DictionaryParams {
            dictionaries: 2,
            keys: 6,
            transactions: 8,
            ops_per_txn: 2,
            lookup_fraction: 0.4,
            key_skew: 0.7,
            seed,
        }),
    }
}

fn parallel_runtime(spec: SchedulerSpec, workers: usize) -> Runtime {
    Runtime::builder()
        .scheduler(spec)
        .backend(ExecutionBackend::Parallel { workers })
        .retries(64)
        .verify(Verify::Full)
        .build()
        .expect("valid parallel configuration")
}

/// `true` for schedulers that hold every resource to top-level commit and
/// must therefore never observe (or produce) a cascading abort.
fn is_strict(spec: &SchedulerSpec) -> bool {
    matches!(
        spec,
        SchedulerSpec::Flat { .. } | SchedulerSpec::N2pl { .. }
    )
}

/// The acceptance gate: 100 seeds × every built-in spec (plus the mixed
/// composition), every history past the full oracle. Defaults to 4 workers;
/// CI re-runs the suite pinned to 1 and 8 via `OBASE_EQUIV_WORKERS`.
#[test]
fn hundred_seed_oracle_over_all_builtin_specs() {
    let mut specs = SchedulerSpec::all_basic();
    specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
    let workers = worker_counts(&[4]);
    let mut runs = 0usize;
    for &w in &workers {
        for seed in 0..100u64 {
            let workload = workload_for(seed);
            for spec in &specs {
                let report = parallel_runtime(spec.clone(), w)
                    .run(&workload)
                    .expect("well-formed generated workload");
                assert!(
                    !report.metrics.timed_out,
                    "{} deadlined on seed {seed} ({w} workers)",
                    report.scheduler
                );
                report.assert_serialisable();
                if is_strict(spec) {
                    assert_eq!(
                        report.metrics.cascading_aborts, 0,
                        "strict scheduler {} cascaded on seed {seed} ({w} workers)",
                        report.scheduler
                    );
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, workers.len() * 100 * specs.len());
}

/// The durable backend through the same gate: every seed × spec cell runs
/// write-ahead-logged (group commit 8), every history passes the full
/// oracle, and the log each run leaves behind recovers — crash-free — to a
/// history that is *structurally identical* to the one the run reported
/// (recovery is exact replay, not approximation).
#[test]
fn hundred_seed_oracle_over_the_durable_backend() {
    let mut specs = SchedulerSpec::all_basic();
    specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
    let mut runs = 0usize;
    for seed in 0..100u64 {
        let workload = workload_for(seed);
        for spec in &specs {
            let dir = obase::wal::scratch_dir("equiv-durable");
            let report = Runtime::builder()
                .scheduler(spec.clone())
                .backend(ExecutionBackend::Durable {
                    dir: dir.clone(),
                    group_commit: 8,
                })
                .seed(seed)
                .retries(64)
                .verify(Verify::Full)
                .build()
                .expect("valid durable configuration")
                .run(&workload)
                .expect("well-formed generated workload");
            assert!(
                !report.metrics.timed_out,
                "{} deadlined on seed {seed} (durable)",
                report.scheduler
            );
            report.assert_serialisable();
            if is_strict(spec) {
                assert_eq!(
                    report.metrics.cascading_aborts, 0,
                    "strict scheduler {} cascaded on seed {seed} (durable)",
                    report.scheduler
                );
            }
            let recovered = obase::wal::WalBackend::new(workload.def.base().clone())
                .recover(&dir)
                .expect("a crash-free log recovers");
            assert!(!recovered.torn, "clean log scanned as torn (seed {seed})");
            assert!(
                obase::core::record::same_structure(&recovered.raw_history, &report.raw_history),
                "{} seed {seed}: recovery did not reproduce the run's history",
                report.scheduler
            );
            recovered.assert_serialisable();
            assert_eq!(
                recovered.committed.len(),
                report.metrics.committed,
                "{} seed {seed}: recovery changed the committed set",
                report.scheduler
            );
            assert_eq!(recovered.crash_rollbacks(), 0);
            std::fs::remove_dir_all(&dir).ok();
            runs += 1;
        }
    }
    assert_eq!(runs, 100 * specs.len());
}

/// Mixed per-object compositions (Section 2's vision): uniform defaults,
/// heterogeneous per-object policies, and the certifier-only coverage of
/// objects with no dedicated policy — all through the one oracle, at worker
/// counts {1, 2, 8}.
#[test]
fn mixed_scheduler_specs_pass_the_oracle() {
    let mixed_specs = vec![
        SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_operation()),
        SchedulerSpec::mixed_with_default(SchedulerSpec::nto_provisional()),
        // Heterogeneous: one counter under step locks, one under operation
        // locks, the rest (if any) under the default NTO policy.
        SchedulerSpec::Mixed {
            default_intra: Some(Box::new(SchedulerSpec::nto_conservative())),
            per_object: vec![
                (ObjectId(0), SchedulerSpec::n2pl_step()),
                (ObjectId(1), SchedulerSpec::n2pl_operation()),
            ],
        },
        // No default: objects without a dedicated policy are covered by the
        // inter-object certifier alone.
        SchedulerSpec::Mixed {
            default_intra: None,
            per_object: vec![(ObjectId(0), SchedulerSpec::n2pl_step())],
        },
    ];
    for &workers in &worker_counts(&[1, 2, 8]) {
        for seed in [5u64, 23, 71] {
            let workload = workload_for(seed);
            for spec in &mixed_specs {
                let report = parallel_runtime(spec.clone(), workers)
                    .run(&workload)
                    .expect("well-formed generated workload");
                assert!(
                    !report.metrics.timed_out,
                    "{} deadlined on seed {seed} ({workers} workers)",
                    report.scheduler
                );
                report.assert_serialisable();
            }
        }
    }
}

/// A deadlock-heavy hot-key workload: transactions write the same two hot
/// registers in opposite orders, the classic deadlock shape under strict
/// operation-level N2PL. At 1 worker the schedule is degenerate (no
/// inter-transaction interleaving, so nothing may deadlock or abort); at 2
/// and 8 deadlock detection must keep breaking cycles until everything commits —
/// with a serialisable history and zero cascades every time.
#[test]
fn deadlock_heavy_hot_keys_across_worker_counts() {
    let mut base = ObjectBase::new();
    let x = base.add_object("x", Arc::new(obase::adt::Register::default()));
    let y = base.add_object("y", Arc::new(obase::adt::Register::default()));
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for o in [x, y] {
        def.define_method(
            o,
            MethodDef {
                name: "set".into(),
                params: 1,
                body: Program::Local {
                    op: "Write".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
    }
    let transactions: Vec<TxnSpec> = (0..8)
        .map(|i| {
            let (first, second) = if i % 2 == 0 { (x, y) } else { (y, x) };
            TxnSpec {
                name: format!("T{i}"),
                body: Program::Seq(vec![
                    Program::invoke(first, "set", [Value::Int(i)]),
                    Program::invoke(second, "set", [Value::Int(i)]),
                ]),
            }
        })
        .collect();
    let workload = WorkloadSpec { def, transactions };
    for &workers in &worker_counts(&[1, 2, 8]) {
        // The deadlock window depends on the OS interleaving; repeat so each
        // worker count sees plenty of real contention.
        for _ in 0..5 {
            let report = parallel_runtime(SchedulerSpec::n2pl_operation(), workers)
                .run(&workload)
                .expect("well-formed workload");
            assert_eq!(
                report.metrics.committed,
                8,
                "lost transactions at {workers} workers: {}",
                report.summary()
            );
            assert!(!report.metrics.timed_out);
            report.assert_serialisable();
            assert_eq!(
                report.metrics.cascading_aborts, 0,
                "strict N2PL cascaded at {workers} workers"
            );
            if workers == 1 {
                // Degenerate single-worker schedule: serial execution, no
                // deadlocks possible between top-level transactions.
                assert_eq!(report.metrics.deadlocks, 0, "{}", report.summary());
            }
            // Every abort the run did record must be a deadlock (bucketed
            // under its variant key).
            for reason in report.metrics.aborts_by_reason.keys() {
                assert_eq!(reason, "deadlock");
            }
        }
    }
}

/// The targeted-wakeup stress: many transactions all writing ONE hot
/// register under operation-level N2PL, so at any moment one holds the lock
/// and everyone else is parked in the waiter registry behind it. Every
/// commit must wake exactly the right waiters — a lost wakeup would leave a
/// parked transaction relying on the tick backstop at best and hanging the
/// run at worst. Swept at workers {2, 8} (override via
/// `OBASE_EQUIV_WORKERS`), repeated so the park/wake window is hit many
/// times; everything must commit, serialisably, well inside the deadline.
#[test]
fn hot_key_parking_has_no_lost_wakeups() {
    let mut base = ObjectBase::new();
    let hot = base.add_object("hot", Arc::new(obase::adt::Register::default()));
    let mut def = ObjectBaseDef::new(Arc::new(base));
    def.define_method(
        hot,
        MethodDef {
            name: "set".into(),
            params: 1,
            body: Program::Local {
                op: "Write".into(),
                args: vec![Expr::Param(0)],
            },
        },
    );
    let transactions: Vec<TxnSpec> = (0..24)
        .map(|i| TxnSpec {
            name: format!("W{i}"),
            body: Program::invoke(hot, "set", [Value::Int(i)]),
        })
        .collect();
    let workload = WorkloadSpec { def, transactions };
    for &workers in &worker_counts(&[2, 8]) {
        for round in 0..5 {
            let report = parallel_runtime(SchedulerSpec::n2pl_operation(), workers)
                .run(&workload)
                .expect("well-formed workload");
            assert!(
                !report.metrics.timed_out,
                "hot-key parking hung at {workers} workers (round {round}): {}",
                report.summary()
            );
            assert_eq!(
                report.metrics.committed,
                24,
                "lost transactions at {workers} workers (round {round}): {}",
                report.summary()
            );
            report.assert_serialisable();
            // Pure write-write queueing: nothing may abort, let alone
            // cascade.
            assert_eq!(report.metrics.aborts, 0, "{}", report.summary());
        }
    }
}

/// Strict blocking schedulers must settle every transaction (deadlock
/// victims retry until they commit), and the committed effects must replay
/// to the same final state the simulator reaches — counters commute, so the
/// end state is interleaving-independent.
#[test]
fn strict_schedulers_commit_everything_with_equivalent_effects() {
    for seed in [3u64, 7, 11, 19] {
        let workload = wl::counters(&wl::CounterParams {
            counters: 3,
            transactions: 10,
            touches_per_txn: 2,
            read_fraction: 0.0, // writes only: the final state is seed-determined
            skew: 0.5,
            seed,
        });
        let simulated = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .seed(seed)
            .verify(Verify::Full)
            .build()
            .unwrap()
            .run(&workload)
            .unwrap();
        let parallel = parallel_runtime(SchedulerSpec::n2pl_operation(), 4)
            .run(&workload)
            .unwrap();
        for report in [&simulated, &parallel] {
            assert_eq!(report.metrics.committed, 10, "{}", report.summary());
            report.assert_serialisable();
        }
        let a = obase::core::replay::final_states(&simulated.history).unwrap();
        let b = obase::core::replay::final_states(&parallel.history).unwrap();
        assert_eq!(a, b, "backends disagree on final states for seed {seed}");
    }
}

/// The parallel backend honours worker counts beyond the acceptance minimum
/// and reports them in the metrics.
#[test]
fn worker_scaling_is_safe() {
    let workload = workload_for(42);
    for workers in [1usize, 2, 8] {
        let report = parallel_runtime(SchedulerSpec::n2pl_step(), workers)
            .run(&workload)
            .unwrap();
        assert_eq!(report.metrics.backend, format!("parallel({workers})"));
        assert!(report.metrics.wall_micros > 0);
        report.assert_serialisable();
    }
}

/// Internal (Par) parallelism rides on real threads inside one transaction;
/// the oracle still holds and nothing deadlocks against the siblings.
#[test]
fn internal_parallelism_on_real_threads() {
    for seed in 0..8u64 {
        let workload = wl::orders(&wl::OrdersParams {
            desks: 2,
            inventories: 4,
            accounts: 4,
            transactions: 6,
            items_per_order: 4,
            parallel_items: true,
            seed,
        });
        let report = parallel_runtime(SchedulerSpec::n2pl_operation(), 4)
            .run(&workload)
            .unwrap();
        assert!(!report.metrics.timed_out);
        report.assert_serialisable();
        assert_eq!(report.metrics.cascading_aborts, 0);
    }
}

/// Zero workers is a configuration error, caught at build time.
#[test]
fn zero_workers_is_rejected() {
    let err = Runtime::builder()
        .scheduler(SchedulerSpec::n2pl_step())
        .backend(ExecutionBackend::Parallel { workers: 0 })
        .build()
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroWorkers);
}
