//! Compare every concurrency-control algorithm in the library on the same
//! nested order-processing workload with `Runtime::faceoff`, verifying each
//! run against the serialisability theorems — then race the best scheduler
//! on both execution backends (the deterministic simulator and the
//! multi-threaded `obase-par` engine) in wall-clock time.
//!
//! Run with `cargo run --example scheduler_faceoff`.

use obase::prelude::*;
use obase::scenario::shapes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut scenario = shapes::orders(30, 3, true);
    scenario.seed = 23;
    let wl = scenario.compile();

    println!("Nested order processing: 30 orders, 3 line items each, parallel items\n");

    // The contenders, as declarative specs: every basic algorithm plus the
    // Section 2 mixture (per-object step locks + the inter-object certifier).
    // The bare certifier is left out: it orders transactions only, and the
    // line items of one order run in parallel and may conflict with each
    // other, which the mixture's per-object locks handle and it does not.
    let mut specs = SchedulerSpec::all_basic();
    specs.retain(|s| *s != SchedulerSpec::SgtCertifier);
    specs.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));

    // One runtime configuration, every scheduler: `compare` reuses the same
    // engine parameters so the face-off is apples to apples.
    let runtime = Runtime::builder()
        .scheduler(specs[0].clone())
        .clients(6)
        .seed(23)
        .verify(Verify::Full)
        .build()?;
    let faceoff = runtime.compare(&wl, &specs)?;

    // Whatever the algorithm, the committed history must be legal, have an
    // acyclic serialisation graph (Theorem 2) and satisfy the per-object
    // condition (Theorem 5).
    faceoff.assert_all_serialisable();

    println!("{}", faceoff.render_table());
    if let Some(best) = faceoff.best_by_throughput() {
        println!("highest throughput: {}", best.summary());
    }

    println!(
        "\nAll committed histories verified: legal, acyclic serialisation graph,\n\
         and Theorem 5's intra/inter-object condition holds."
    );

    // Round two: same spec, both backends. The simulator interleaves on a
    // virtual clock (reproducible, adversarial); the parallel backend runs
    // the same workload on real OS threads over the sharded store — and its
    // history passes the exact same checks.
    println!("\nBackend face-off (n2pl-op, wall clock):\n");
    for backend in [
        ExecutionBackend::Simulated,
        ExecutionBackend::Parallel { workers: 4 },
    ] {
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .backend(backend.clone())
            .clients(6)
            .seed(23)
            .verify(Verify::Full)
            .build()?
            .run(&wl)?;
        report.assert_serialisable();
        println!(
            "  {:>12}: {} committed in {:.2} ms ({:.0} txn/s)",
            backend.label(),
            report.metrics.committed,
            report.metrics.wall_micros as f64 / 1000.0,
            report.metrics.wall_throughput(),
        );
    }
    Ok(())
}
