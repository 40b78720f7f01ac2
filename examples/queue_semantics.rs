//! The paper's Section 5.1 queue example: step-level (return-value-aware)
//! locks admit more concurrency than operation-level locks.
//!
//! "In many reasonable representations of queues, an Enqueue conflicts with a
//! Dequeue only if the latter returns the item placed into the queue by the
//! former."
//!
//! Run with `cargo run --example queue_semantics`.

use obase::prelude::*;
use obase::scenario::shapes;

fn run_with(spec: SchedulerSpec, preload: usize) -> Result<RunReport, RuntimeError> {
    let mut scenario = shapes::queues(1, 24, preload);
    scenario.seed = 17;
    let wl = scenario.compile();
    let report = Runtime::builder()
        .scheduler(spec)
        .clients(6)
        .seed(17)
        .build()
        .map_err(RuntimeError::Config)?
        .run(&wl)?;
    report.assert_serialisable();
    println!(
        "{:<22} preload={preload:<3} committed={:<3} blocked={:<4} rounds={:<5} throughput={:.3}",
        report.scheduler,
        report.metrics.committed,
        report.metrics.blocked_events,
        report.metrics.rounds,
        report.throughput()
    );
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Producer/consumer queue, 24 transactions (half producers), 6 clients\n");
    for preload in [0, 4, 16, 64] {
        let op = run_with(SchedulerSpec::n2pl_operation(), preload)?;
        let step = run_with(SchedulerSpec::n2pl_step(), preload)?;
        let speedup = step.throughput() / op.throughput().max(f64::EPSILON);
        println!(
            "  -> step-level locking throughput advantage: {speedup:.2}x (blocking {} vs {})\n",
            step.metrics.blocked_events, op.metrics.blocked_events
        );
    }
    println!(
        "With items already in the queue, a Dequeue returns an item that no\n\
         concurrent Enqueue produced, so step-level locks let producers and\n\
         consumers run in parallel while operation-level locks serialise them."
    );
    Ok(())
}
