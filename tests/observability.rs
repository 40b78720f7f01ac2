//! Observability does not perturb correctness, and traces mean something.
//!
//! Three demands on the `obase-obs` layer:
//!
//! 1. **Equivalence under observation** — a run with a full
//!    `ChromeTraceObserver` attached passes the same serialisability oracle
//!    as an unobserved run, on the simulator and the parallel backend alike
//!    (observation must never change what the engines admit).
//! 2. **Traces round-trip and are complete** — the exported trace-event JSON
//!    parses back through `obase-ser` and carries at least one transaction
//!    span per committed transaction, plus the per-lane thread metadata the
//!    Perfetto UI needs.
//! 3. **Latency reports are coherent** — every run observed at
//!    `Observe::Latency` yields an end-to-end histogram whose sample count
//!    covers the committed transactions, and the phase set is stable.

use obase::prelude::*;
use obase::workload as wl;
use obase_runtime::{ChromeTraceObserver, Observe};
use obase_ser::Json;
use std::sync::Arc;

fn workload() -> WorkloadSpec {
    wl::banking(&wl::BankingParams {
        accounts: 6,
        transactions: 12,
        skew: 0.7,
        seed: 4242,
        ..Default::default()
    })
}

fn observed_runtime(backend: ExecutionBackend, observe: Observe) -> Runtime {
    Runtime::builder()
        .scheduler(SchedulerSpec::n2pl_operation())
        .clients(4)
        .seed(4242)
        .retries(32)
        .backend(backend)
        .verify(Verify::Full)
        .observe(observe)
        .build()
        .expect("valid configuration")
}

/// The trace-event JSON's complete ("X") spans with the given category.
fn spans_with_cat(trace: &Json, cat: &str) -> usize {
    trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("cat").and_then(Json::as_str) == Some(cat)
        })
        .count()
}

#[test]
fn observed_runs_stay_serialisable_on_both_backends() {
    for backend in [
        ExecutionBackend::Simulated,
        ExecutionBackend::Parallel { workers: 4 },
    ] {
        let tracer = Arc::new(ChromeTraceObserver::new());
        let report = observed_runtime(backend.clone(), Observe::Trace(tracer.clone()))
            .run(&workload())
            .expect("observed run completes");
        report.assert_serialisable();
        assert!(
            report.metrics.committed > 0,
            "{}: nothing committed",
            backend.label()
        );
        // The trace observer fed the latency report too.
        let latency = report.latency().expect("Trace plan derives latency");
        assert!(
            latency.e2e().count() >= report.metrics.committed as u64,
            "{}: e2e histogram has {} samples for {} commits",
            backend.label(),
            latency.e2e().count(),
            report.metrics.committed
        );
    }
}

#[test]
fn traces_round_trip_with_a_span_per_committed_transaction() {
    let tracer = Arc::new(ChromeTraceObserver::new());
    let report = observed_runtime(
        ExecutionBackend::Parallel { workers: 4 },
        Observe::Trace(tracer.clone()),
    )
    .run(&workload())
    .expect("traced parallel run completes");
    report.assert_serialisable();

    let text = tracer.trace_json().to_string();
    let trace = Json::parse(&text).expect("trace JSON parses back through obase-ser");
    assert!(
        spans_with_cat(&trace, "txn") >= report.metrics.committed,
        "expected ≥ {} txn spans",
        report.metrics.committed
    );
    // Perfetto needs the per-lane thread-name metadata; a parallel trace
    // names at least one worker lane and the control-plane lane.
    let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
    let lane_named = |needle: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.contains(needle))
        })
    };
    assert!(lane_named("worker-"), "no worker lane in the trace");
    assert!(lane_named("control"), "no control-plane lane in the trace");
}

#[test]
fn durable_traces_carry_fsync_spans() {
    let dir = obase::wal::scratch_dir("obs-test");
    let tracer = Arc::new(ChromeTraceObserver::new());
    let report = observed_runtime(
        ExecutionBackend::Durable {
            dir: dir.clone(),
            group_commit: 4,
        },
        Observe::Trace(tracer.clone()),
    )
    .run(&workload())
    .expect("traced durable run completes");
    report.assert_serialisable();
    let trace = tracer.trace_json();
    assert!(
        spans_with_cat(&trace, "wal") >= 1,
        "durable trace has no fsync span"
    );
    let latency = report.latency().expect("Trace plan derives latency");
    let fsync = latency.phase("fsync").expect("fsync phase present");
    assert!(fsync.count() >= 1, "no fsync samples in the latency report");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latency_reports_expose_stable_phases_and_json() {
    let report = observed_runtime(ExecutionBackend::Simulated, Observe::Latency)
        .run(&workload())
        .expect("observed run completes");
    let latency = report.latency().expect("Latency plan fills the report");
    for phase in obase::obs::report::PHASES {
        assert!(latency.phase(phase).is_some(), "phase {phase} missing");
    }
    // Percentiles are monotone and the report embeds into the run JSON.
    let e2e = latency.e2e();
    assert!(e2e.percentile(0.5) <= e2e.percentile(0.99));
    assert!(e2e.percentile(0.99) <= e2e.percentile(0.999));
    let json = report.to_json();
    let p99 = json
        .get("latency")
        .and_then(|l| l.get("phases"))
        .and_then(|p| p.get("e2e"))
        .and_then(|h| h.get("p99"))
        .and_then(Json::as_int)
        .expect("latency.phases.e2e.p99 in the report JSON");
    assert_eq!(p99, e2e.percentile(0.99) as i64);
    // The unobserved default stays latency-free.
    let bare = Runtime::builder()
        .scheduler(SchedulerSpec::n2pl_operation())
        .build()
        .unwrap()
        .run(&workload())
        .unwrap();
    assert!(bare.latency().is_none());
}
