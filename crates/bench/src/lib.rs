//! # obase-bench — the experiment harness
//!
//! The paper has no empirical evaluation (it is a theory paper), so the
//! experiments here reproduce its *qualitative claims* as synthetic
//! measurements over `obase-scenario` workloads; the README indexes the
//! experiments and carries the claims table. Each `eN` function returns the
//! rows of one experiment table, and [`claims`](mod@claims) states the paper's
//! comparisons (experiments e1-e4, e6 and e7) as claims checked over a
//! seed sweep. The `experiments` binary prints the tables and runs their
//! guards; the `scenarios` binary sweeps the declarative scenario library
//! ([`scenarios`], over both backends with chaos injection).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod scenarios;

pub use claims::{check_claims, claim_rows, claims, SEEDS};
pub use experiments::{
    check_durability_guard, check_flat_guard, check_observer_guard, check_run_flat_guard,
    check_scaling_guard, e10_worker_scaling, e11_durability, e12_observer_overhead,
    e14_op_cost_vs_object_size, e15_batch_of_one, e5_sg_checkers, e8_core_scaling,
    e9_backend_faceoff, merge_results, render_table, results_json, with_latency_columns, Row,
};
pub use scenarios::{scenario_rows, BackendChoice, DEFAULT_GROUP_COMMIT};
