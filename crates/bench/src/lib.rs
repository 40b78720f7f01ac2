//! # obase-bench — the experiment harness
//!
//! The paper has no empirical evaluation (it is a theory paper), so the
//! experiments here reproduce its *qualitative claims* as synthetic
//! measurements; DESIGN.md carries the experiment index and EXPERIMENTS.md
//! records the output of this harness. Each `eN` function returns the rows of
//! one experiment table; the `experiments` binary prints them, the
//! `scenarios` binary sweeps the declarative scenario library
//! ([`scenarios`], over both backends with chaos injection), and the
//! micro-benches under `benches/` (built on the in-repo [`quick`] harness)
//! time the underlying operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod quick;
pub mod scenarios;

pub use experiments::{
    check_durability_guard, check_flat_guard, check_observer_guard, check_run_flat_guard,
    check_scaling_guard, e10_worker_scaling, e11_durability, e12_observer_overhead,
    e14_op_cost_vs_object_size, e15_batch_of_one, e1_flat_vs_nested, e2_queue_locks,
    e3_semantic_conflict, e4_n2pl_vs_nto, e5_sg_checkers, e6_mixed_cc, e7_internal_parallelism,
    e8_core_scaling, e9_backend_faceoff, merge_results, render_table, results_json,
    with_latency_columns, Row,
};
pub use scenarios::{scenario_rows, BackendChoice, DEFAULT_GROUP_COMMIT};
