//! End-to-end integration tests: every scheduler spec, every scenario
//! shape, run through the `Runtime` facade with post-hoc verification of
//! the committed history against the paper's theorems.

use obase::prelude::*;
use obase::scenario::shapes;
use std::collections::BTreeSet;

/// The full line-up: every basic algorithm plus the Section 2 mixture.
fn specs() -> Vec<SchedulerSpec> {
    let mut specs = SchedulerSpec::all_basic();
    specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
    specs
}

fn runtime(spec: SchedulerSpec, seed: u64) -> Runtime {
    Runtime::builder()
        .scheduler(spec)
        .clients(4)
        .seed(seed)
        .verify(Verify::Full)
        .build()
        .expect("valid configuration")
}

fn verify(report: &RunReport) {
    report.assert_serialisable();
    assert!(
        !report.metrics.timed_out,
        "{}: run timed out",
        report.scheduler
    );
    assert_eq!(report.checks.legal, Some(true));
    assert_eq!(report.checks.sg_acyclic, Some(true));
    assert_eq!(report.checks.theorem5, Some(true));
}

#[test]
fn banking_under_every_scheduler_is_serialisable() {
    let workload = shapes::banking(6, 24, 0.6).compile();
    for spec in specs() {
        let report = runtime(spec, 101).run(&workload).unwrap();
        verify(&report);
        assert!(
            report.metrics.committed + report.metrics.gave_up == 24,
            "{}: every transaction either commits or exhausts its retries",
            report.scheduler
        );
    }
}

#[test]
fn banking_under_every_scheduler_on_the_parallel_backend() {
    // The same end-to-end gauntlet on the multi-threaded backend: real
    // threads, real blocking, same theorems (the dedicated 100-seed oracle
    // lives in tests/backend_equivalence.rs).
    let workload = shapes::banking(6, 24, 0.6).compile();
    for spec in specs() {
        let report = Runtime::builder()
            .scheduler(spec)
            .backend(ExecutionBackend::Parallel { workers: 4 })
            .retries(64)
            .verify(Verify::Full)
            .build()
            .expect("valid configuration")
            .run(&workload)
            .unwrap();
        verify(&report);
        assert!(
            report.metrics.committed + report.metrics.gave_up == 24,
            "{}: every transaction either commits or exhausts its retries",
            report.scheduler
        );
    }
}

#[test]
fn counters_under_every_scheduler_preserve_the_sum() {
    let workload = shapes::counters(4, 20, 2, 0.0, 1.0).compile();
    for spec in specs() {
        let report = runtime(spec, 7).run(&workload).unwrap();
        verify(&report);
        // The counters end at the sum of the committed transactions' adds.
        let finals = obase::core::replay::final_states(&report.history).unwrap();
        let total: i64 = finals.values().filter_map(Value::as_int).sum();
        assert_eq!(
            total,
            committed_adds(&workload, &report.history),
            "{}: increments lost or duplicated",
            report.scheduler
        );
    }
}

/// What a counter workload's committed transactions add: every call adds
/// its second argument once.
fn committed_adds(workload: &WorkloadSpec, history: &History) -> i64 {
    let committed: BTreeSet<&str> = history
        .top_level_execs()
        .into_iter()
        .filter(|&e| !history.effectively_aborted(e))
        .map(|e| history.exec(e).method.as_str())
        .collect();
    let adds = |body: &Program| -> i64 {
        match body {
            Program::Seq(calls) => calls
                .iter()
                .map(|call| match call {
                    Program::Invoke { args, .. } => match &args[1] {
                        Expr::Const(Value::Int(v)) => *v,
                        other => panic!("not an add amount: {other:?}"),
                    },
                    other => panic!("not a call: {other:?}"),
                })
                .sum(),
            other => panic!("not a sequence of calls: {other:?}"),
        }
    };
    workload
        .transactions
        .iter()
        .filter(|t| committed.contains(t.name.as_str()))
        .map(|t| adds(&t.body))
        .sum()
}

#[test]
fn queues_under_every_scheduler_are_serialisable() {
    let workload = shapes::queues(2, 20, 6).compile();
    for spec in specs() {
        let report = runtime(spec, 9).run(&workload).unwrap();
        verify(&report);
    }
}

#[test]
fn dictionaries_under_every_scheduler_are_serialisable() {
    let workload = shapes::dictionary(2, 24, 20, 3, 0.6, 0.9).compile();
    for spec in specs() {
        let report = runtime(spec, 13).run(&workload).unwrap();
        verify(&report);
    }
}

#[test]
fn nested_orders_with_parallel_items_are_serialisable() {
    let workload = shapes::orders(16, 4, true).compile();
    // Bare `occ-sgt` orders whole transactions only, so an order whose own
    // `Par` line items conflict can slip past it (ROADMAP 8(g)); the mixed
    // spec still runs the certifier here, over step locks.
    let specs = specs()
        .into_iter()
        .filter(|s| *s != SchedulerSpec::SgtCertifier);
    for spec in specs {
        let report = runtime(spec, 21).run(&workload).unwrap();
        verify(&report);
        // Orders nest: the history contains strictly more method executions
        // than top-level transactions.
        assert!(report.history.exec_count() > report.metrics.committed);
    }
}

#[test]
fn strict_lock_schedulers_never_cascade() {
    let workload = shapes::banking(3, 30, 1.2).compile();
    for spec in [
        SchedulerSpec::n2pl_operation(),
        SchedulerSpec::n2pl_step(),
        SchedulerSpec::flat_exclusive(),
    ] {
        let report = runtime(spec, 31).run(&workload).unwrap();
        assert_eq!(
            report.metrics.cascading_aborts, 0,
            "{}: strict locking must not cascade",
            report.scheduler
        );
    }
}

#[test]
fn flat_baseline_blocks_more_than_semantic_locking_on_commuting_work() {
    // The headline qualitative claim: semantic, nested CC admits more
    // concurrency than the flat object-as-data-item baseline.
    let workload = shapes::counters(2, 24, 2, 0.0, 1.5).compile();
    let faceoff = runtime(SchedulerSpec::flat_exclusive(), 3)
        .compare(
            &workload,
            &[
                SchedulerSpec::flat_exclusive(),
                SchedulerSpec::n2pl_operation(),
            ],
        )
        .unwrap();
    let [flat, nested] = faceoff.reports() else {
        panic!("expected two reports");
    };
    assert!(flat.metrics.blocked_events > nested.metrics.blocked_events);
    assert!(nested.throughput() >= flat.throughput());
    // Semantic locking never blocks on pure increments.
    assert_eq!(nested.metrics.blocked_events, 0);
    assert_eq!(
        faceoff.best_by_throughput().unwrap().scheduler,
        nested.scheduler
    );
}

#[test]
fn identical_seeds_give_identical_runs() {
    let workload = shapes::orders(24, 3, false).compile();
    let a = runtime(SchedulerSpec::n2pl_step(), 77)
        .run(&workload)
        .unwrap();
    let b = runtime(SchedulerSpec::n2pl_step(), 77)
        .run(&workload)
        .unwrap();
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
    assert_eq!(a.metrics.committed, b.metrics.committed);
    assert_eq!(a.metrics.blocked_events, b.metrics.blocked_events);
    assert_eq!(a.history.step_count(), b.history.step_count());
}

#[test]
fn faceoff_covers_every_spec_and_renders() {
    let workload = shapes::counters(2, 8, 2, 0.2, 0.5).compile();
    let all = specs();
    let faceoff = Runtime::faceoff(&workload, &all).unwrap();
    assert_eq!(faceoff.reports().len(), all.len());
    faceoff.assert_all_serialisable();
    let table = faceoff.render_table();
    for report in faceoff.reports() {
        assert!(
            table.contains(&report.scheduler),
            "missing {}",
            report.scheduler
        );
    }
}
