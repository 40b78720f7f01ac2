//! # obase-par — the multi-threaded wall-clock execution backend
//!
//! The paper's point is that object-base concurrency control exists to
//! *exploit* intra- and inter-transaction parallelism. The simulator in
//! `obase-exec` models that parallelism on a virtual round clock; this crate
//! executes it for real: top-level transactions run on a resident pool of OS
//! worker threads against a sharded object store, `Par` blocks fork real
//! threads, lock waits really block, and the makespan is wall-clock time. Every
//! [`SchedulerSpec`](https://docs.rs/obase-runtime) runs unchanged on either
//! backend (select it with `Runtime::builder().backend(...)`), and a
//! parallel run yields the same artefacts as a simulated one — a committed
//! [`History`](obase_core::history::History) plus metrics — so the paper's
//! serialisability checks (legality, Theorem 2, Theorem 5) serve as the
//! correctness oracle for this genuinely concurrent implementation.
//!
//! ## Architecture: a driver over the shared lifecycle kernel
//!
//! This backend contains no lifecycle logic of its own: every transition —
//! admission, commit certification, abort marking/release, cascade
//! collection, retry accounting — is a call into the shared
//! [`LifecycleKernel`](obase_exec::kernel::LifecycleKernel), the same code
//! the simulator runs, and aborts flow through the one shared loop in
//! [`obase_core::lifecycle`]. What this crate adds is the genuinely
//! parallel machinery, organised as a *decomposed* control plane: instead
//! of one big mutex, independently contended pieces, each with a precise
//! job.
//!
//! ## The lock map
//!
//! | Piece | Guards | Touched by |
//! |---|---|---|
//! | store shards ([`ShardedStore`], one mutex per shard) | object states + installed-step logs | every local step (one shard), abort undo (shard by shard) |
//! | scheduler shards ([`SchedPlane`], one mutex per shard — or one total for non-decomposable schedulers) | per-object concurrency-control state | grant/validate requests (one shard), lifecycle broadcasts (touched shards only, one at a time) |
//! | lifecycle mutex ([`LifecycleKernel`](obase_exec::kernel::LifecycleKernel) + admission state + doom verdicts) | execution registry, retry queue, lifecycle metrics | admission, nested begin, commit settling, abort marking/accounting — never per step |
//! | bookkeeping mutex | activity stacks (waits-for edges), touched-shard sets | blocking transitions, monitor ticks |
//! | waiter registry ([`engine`]'s targeted parking) | blocked-transaction → signal map | park/unpark only |
//! | history | *nothing shared* — per-activity append-only event buffers + one atomic sequence counter ([`obase_core::record`]), stitched at run end | every record, without locks |
//!
//! **Lock order** (outermost first): store shard → scheduler shard →
//! lifecycle → bookkeeping → leaves (waiter registry, begin feed, buffer
//! sink). A thread never holds two locks of the same tier (shard locks are
//! taken one at a time, broadcasts visit shards in ascending index order),
//! and leaves never acquire anything — so the plane is deadlock-free by
//! construction.
//!
//! Per-object scheduler decomposition follows the paper: a scheduler that
//! declares itself decomposable
//! ([`Scheduler::fork_object_shard`](obase_core::sched::Scheduler::fork_object_shard)
//! — N2PL, NTO, the flat baselines) runs one instance per object shard, so
//! its grant/release decisions synchronise per object exactly as Section 2
//! envisions; globally coupled schedulers (the SGT certifier, mixed
//! compositions) transparently fall back to a single instance.
//!
//! ## Blocking, deadlocks and aborts
//!
//! A [`Decision::Block`](obase_core::sched::Decision::Block) parks the
//! worker in the *waiter registry*, keyed by its top-level transaction and
//! the executions its predicate waits on. A nested commit wakes only the
//! waiters blocked behind the committed child; a top-level commit or an
//! abort wakes only the waiters blocked behind the settled subtree; dooming
//! a transaction wakes only that transaction's own parked activities. There
//! is no broadcast wakeup on the hot path — the old thundering herd (every
//! install waking every blocked worker) is gone; a tick-cadence re-poll
//! remains as a liveness backstop for exotic scheduler predicates. Waits-for
//! edges (who blocks on whom, and which invoked child each execution is
//! waiting on) are registered with the bookkeeping plane, and the monitor
//! — the deadlock *ticker*, on the calling thread — periodically assembles
//! them into a graph, picks the youngest execution on any cycle, and dooms
//! its top-level transaction. The same ticker enforces a wall-clock
//! deadline so livelocks cannot hang a run (the result is then flagged
//! `timed_out`, like the simulator's round bound).
//!
//! A doomed transaction is not torn down from outside: its own worker (and
//! any `Par` branch threads) observe the verdict at their next scheduler
//! gate, unwind, and run the abort themselves — through the kernel's shared
//! abort loop: marking the subtree, replaying the surviving per-object logs
//! through the *same* undo routine as the simulator
//! ([`obase_exec::store::replay_log`]), releasing scheduler resources only
//! after the undo, and re-submitting up to the retry budget. A deadlock
//! victim's retry is held back until the transactions it was blocked on
//! have settled; started at once, it could take the lock its woken partner
//! is about to take and deadlock with the same partner on every attempt.
//! Surviving steps whose recorded return values no longer replay are dirty
//! reads; their transactions are cascade-aborted (dooming them if they are
//! still running). Because locks are released only after the undo, strict
//! schedulers (N2PL, the flat baselines) never cascade on this backend
//! either — the integration suite asserts it across hundreds of seeded
//! runs.
//!
//! ## Threads: a resident pool, the monitor on the caller
//!
//! Worker threads outlive the run. Each run hands its
//! [`ParParams::workers`] worker loops to one process-wide pool as jobs and
//! waits for them on a latch; the pool creates a thread only when no idle
//! one is waiting, and its threads never exit, so it settles at the peak
//! number of workers requested at once and, once warm, a run creates no OS
//! threads (`Par` branches excepted: they still run on scoped threads). The
//! monitor runs on the calling thread, which has nothing else to do until
//! the workers are done. A panicking worker shuts its run down and is
//! caught by its pool thread, which survives; the caller then panics with
//! "worker thread panicked". Every lock lives in the run's own state, so no
//! poisoned lock outlives the run.
//!
//! ## What is, and is not, deterministic
//!
//! Simulated runs are exactly reproducible from a seed; parallel runs are
//! not (the OS scheduler interleaves workers). What *is* guaranteed — and
//! checked by `tests/backend_equivalence.rs` — is that every history a
//! parallel run records passes the same theory oracle as the simulator's,
//! for every built-in scheduler spec.
//!
//! Most callers go through `obase_runtime::Runtime` (select this backend
//! with `.backend(ExecutionBackend::Parallel { workers })`); driving the
//! engine directly looks like this:
//!
//! ```
//! use obase_par::{execute_parallel, ParParams};
//! use obase_core::object::ObjectBase;
//! use obase_core::value::Value;
//! use obase_exec::{MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
//! use obase_lock::N2plScheduler;
//! use std::sync::Arc;
//!
//! let mut base = ObjectBase::new();
//! let c = base.add_object("c", Arc::new(obase_adt::Counter::default()));
//! let mut def = ObjectBaseDef::new(Arc::new(base));
//! def.define_method(c, MethodDef {
//!     name: "bump".into(),
//!     params: 0,
//!     body: Program::local("Add", [Value::Int(1)]),
//! });
//! let wl = WorkloadSpec {
//!     def,
//!     transactions: (0..4).map(|i| TxnSpec {
//!         name: format!("T{i}"),
//!         body: Program::invoke(c, "bump", []),
//!     }).collect(),
//! };
//!
//! // Four transactions racing on two real worker threads.
//! let result = execute_parallel(
//!     &wl,
//!     Box::new(N2plScheduler::operation_locks()),
//!     &ParParams { workers: 2, ..ParParams::default() },
//!     &obase_obs::ObsHandle::off(),
//! );
//! assert_eq!(result.metrics.committed, 4);
//! // The wall clock is the makespan, and the recorded history passes the
//! // same theory checks as a simulated run's.
//! assert!(obase_core::sg::certifies_serialisable(&result.history));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec_index;
mod pool;
pub mod sched_plane;
pub mod store;
pub mod waiters;

pub use engine::{execute_parallel, ParParams};
pub use sched_plane::SchedPlane;
pub use store::{ObjectSlot, Shard, ShardedStore};

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::object::ObjectBase;
    use obase_core::value::Value;
    use obase_exec::{MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
    use obase_lock::N2plScheduler;
    use obase_obs::ObsHandle;
    use std::sync::Arc;

    /// `n` transactions each bumping both of two counters through nested
    /// methods (the engine crate's canonical smoke workload).
    fn counter_workload(n: usize) -> WorkloadSpec {
        let mut base = ObjectBase::new();
        let c0 = base.add_object("c0", Arc::new(obase_adt::Counter::default()));
        let c1 = base.add_object("c1", Arc::new(obase_adt::Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for c in [c0, c1] {
            def.define_method(
                c,
                MethodDef {
                    name: "bump".into(),
                    params: 1,
                    body: Program::Local {
                        op: "Add".into(),
                        args: vec![obase_exec::Expr::Param(0)],
                    },
                },
            );
        }
        let transactions = (0..n)
            .map(|i| TxnSpec {
                name: format!("T{i}"),
                body: Program::Seq(vec![
                    Program::invoke(if i % 2 == 0 { c0 } else { c1 }, "bump", [Value::Int(1)]),
                    Program::invoke(if i % 2 == 0 { c1 } else { c0 }, "bump", [Value::Int(1)]),
                ]),
            })
            .collect();
        WorkloadSpec { def, transactions }
    }

    #[test]
    fn commits_everything_and_records_a_legal_history() {
        let wl = counter_workload(8);
        let result = execute_parallel(
            &wl,
            Box::new(N2plScheduler::operation_locks()),
            &ParParams::default(),
            &ObsHandle::off(),
        );
        assert_eq!(result.metrics.committed, 8);
        assert_eq!(result.metrics.gave_up, 0);
        assert!(!result.metrics.timed_out);
        let finals = obase_core::oracle::check(&result.history, false).expect("serialisable");
        // Each transaction adds 1 to each counter.
        for (_, v) in finals {
            assert_eq!(v, Value::Int(8));
        }
        assert!(result.metrics.wall_micros > 0);
        assert_eq!(result.metrics.backend, "parallel(4)");
    }

    #[test]
    fn real_deadlocks_are_detected_and_resolved() {
        // Two transactions writing two registers in opposite orders: a
        // genuine multi-thread deadlock under operation-level N2PL, which
        // the monitor must break (victim retries and commits).
        let mut base = ObjectBase::new();
        let x = base.add_object("x", Arc::new(obase_adt::Register::default()));
        let y = base.add_object("y", Arc::new(obase_adt::Register::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for o in [x, y] {
            def.define_method(
                o,
                MethodDef {
                    name: "set".into(),
                    params: 1,
                    body: Program::Local {
                        op: "Write".into(),
                        args: vec![obase_exec::Expr::Param(0)],
                    },
                },
            );
        }
        let wl = WorkloadSpec {
            def,
            transactions: vec![
                TxnSpec {
                    name: "T0".into(),
                    body: Program::Seq(vec![
                        Program::invoke(x, "set", [Value::Int(1)]),
                        Program::invoke(y, "set", [Value::Int(1)]),
                    ]),
                },
                TxnSpec {
                    name: "T1".into(),
                    body: Program::Seq(vec![
                        Program::invoke(y, "set", [Value::Int(2)]),
                        Program::invoke(x, "set", [Value::Int(2)]),
                    ]),
                },
            ],
        };
        // Run many times: with only two transactions the deadlock window
        // is not hit on every OS interleaving, but every run must settle
        // with both committed and a serialisable history. One retry is
        // enough: the victim's retry waits for the partner it was blocked
        // on, so it cannot take the partner's next lock first and deadlock
        // with it again.
        for _ in 0..200 {
            let result = execute_parallel(
                &wl,
                Box::new(N2plScheduler::operation_locks()),
                &ParParams {
                    workers: 2,
                    max_retries: 1,
                    ..Default::default()
                },
                &ObsHandle::off(),
            );
            assert_eq!(result.metrics.committed, 2, "{:?}", result.metrics);
            assert!(!result.metrics.timed_out);
            obase_core::oracle::check(&result.history, false).expect("serialisable");
            assert_eq!(result.metrics.cascading_aborts, 0);
        }
    }

    #[test]
    fn par_branches_run_on_real_threads() {
        let mut base = ObjectBase::new();
        let c0 = base.add_object("c0", Arc::new(obase_adt::Counter::default()));
        let c1 = base.add_object("c1", Arc::new(obase_adt::Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for c in [c0, c1] {
            def.define_method(
                c,
                MethodDef {
                    name: "bump".into(),
                    params: 0,
                    body: Program::local("Add", [Value::Int(1)]),
                },
            );
        }
        let wl = WorkloadSpec {
            def,
            transactions: vec![TxnSpec {
                name: "par".into(),
                body: Program::Par(vec![
                    Program::invoke(c0, "bump", []),
                    Program::invoke(c1, "bump", []),
                ]),
            }],
        };
        let result = execute_parallel(
            &wl,
            Box::new(N2plScheduler::operation_locks()),
            &ParParams::default(),
            &ObsHandle::off(),
        );
        assert_eq!(result.metrics.committed, 1);
        assert_eq!(result.metrics.installed_steps, 2);
        assert!(obase_core::legality::is_legal(&result.history));
    }

    /// Asserts a run committed all `n` transactions with a legal,
    /// SG-acyclic history.
    fn assert_clean(result: &obase_exec::RunResult, n: usize) {
        assert_eq!(result.metrics.committed, n, "{:?}", result.metrics);
        assert!(!result.metrics.timed_out);
        obase_core::oracle::check(&result.history, false).expect("serialisable");
    }

    #[test]
    fn a_panicking_worker_reaches_the_caller_and_the_pool_survives() {
        // An undefined method, passed straight to the engine so nothing
        // validates it first: the worker that reaches it panics.
        let mut wl = counter_workload(4);
        let c0 = wl.def.base().object_ids().next().expect("an object");
        wl.transactions.push(TxnSpec {
            name: "bad".into(),
            body: Program::invoke(c0, "nope", []),
        });
        let params = ParParams {
            deadline: std::time::Duration::from_secs(60),
            ..ParParams::default()
        };
        let started = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel(
                &wl,
                Box::new(N2plScheduler::operation_locks()),
                &params,
                &ObsHandle::off(),
            )
        }));
        let payload = outcome.expect_err("the run must panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"worker thread panicked")
        );
        // The other workers wind down at once instead of at the deadline.
        assert!(started.elapsed() < std::time::Duration::from_secs(30));
        let result = execute_parallel(
            &counter_workload(8),
            Box::new(N2plScheduler::operation_locks()),
            &ParParams::default(),
            &ObsHandle::off(),
        );
        assert_clean(&result, 8);
    }

    #[test]
    fn consecutive_runs_reuse_resident_threads() {
        // A private pool, so runs of concurrently executing tests do not
        // count towards its size.
        let pool = pool::Pool::new();
        let wl = counter_workload(8);
        for workers in [4, 1, 2].into_iter().cycle().take(60) {
            let result = engine::execute_on(
                &pool,
                &wl,
                Box::new(N2plScheduler::operation_locks()),
                &ParParams {
                    workers,
                    ..ParParams::default()
                },
                &ObsHandle::off(),
            );
            assert_clean(&result, 8);
            assert_eq!(pool.threads(), 4);
        }
    }

    #[test]
    fn concurrent_runs_share_the_pool() {
        let wl = counter_workload(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let result = execute_parallel(
                            &wl,
                            Box::new(N2plScheduler::operation_locks()),
                            &ParParams::default(),
                            &ObsHandle::off(),
                        );
                        assert_clean(&result, 8);
                    }
                });
            }
        });
    }

    #[test]
    fn certifier_aborts_retry_and_settle() {
        let wl = counter_workload(6);
        let result = execute_parallel(
            &wl,
            Box::new(obase_occ::SgtCertifier::new()),
            &ParParams::default(),
            &ObsHandle::off(),
        );
        assert!(!result.metrics.timed_out);
        assert_eq!(result.metrics.committed + result.metrics.gave_up, 6);
        obase_core::oracle::check(&result.history, false).expect("serialisable");
    }
}
