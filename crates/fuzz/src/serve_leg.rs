//! The serve leg: generated scenarios submitted over a real TCP socket.
//!
//! The in-process legs ([`diff`](crate::diff)) hold the *engines* to the
//! oracle; this leg holds the *wire layer* to the same standard. The
//! case's scenario is compiled once, its object base is served by an
//! in-process [`Server`] on an ephemeral port, and its compiled
//! transaction stream is submitted back over real sockets by a handful of
//! pipelined connections. The checks:
//!
//! 1. **Total accounting** — every submission settles (commit or
//!    give-up): no rejects (the queue is sized to the case), no lost
//!    acks, and the server's own counters agree with the client-side
//!    tally (a disagreement is a [`FailureKind::Divergence`]).
//! 2. **The oracle over everything admitted** — the per-batch committed
//!    histories merge into one admitted history which must pass
//!    legality + Theorem 2 + Theorem 5, exactly like the in-process
//!    parallel run of the same case that
//!    [`run_differential`](crate::diff::run_differential) already
//!    performed under the same scheduler spec.
//! 3. **No wire faults** — any protocol error, torn frame or refused
//!    handshake on a clean loopback socket is a
//!    [`FailureKind::EngineError`] on backend `"serve"`.
//!
//! Chaos faults and crash plans are stripped: they exercise the engines
//! (covered by the other legs), while this leg isolates
//! admission/batching/wire behaviour — a failure here shrinks to a wire
//! bug, not a scheduler bug wearing a socket.

use crate::diff::{Failure, FailureKind};
use crate::FuzzCase;
use obase_runtime::SchedulerSpec;
use obase_serve::{ServeClient, ServeConfig, Server, SubmitOutcome};

/// Connections the leg drives concurrently.
const CONNECTIONS: usize = 3;

/// Ingress-batch cap: small enough that every non-trivial case crosses a
/// batch boundary, exercising the committed-state carry-forward.
const BATCH_MAX: usize = 8;

fn fail(kind: FailureKind, spec: &str, detail: impl Into<String>) -> Failure {
    Failure {
        kind,
        backend: "serve".to_owned(),
        spec: spec.to_owned(),
        detail: detail.into(),
    }
}

/// Runs one case through the serve leg under `spec`. Returns the number
/// of committed transactions on success.
pub fn run_serve_leg(
    case: &FuzzCase,
    spec: &SchedulerSpec,
    workers: usize,
) -> Result<usize, Failure> {
    let spec_label = spec.label();
    let mut scenario = case.scenario.clone();
    scenario.faults = Default::default();
    let workload = scenario.compile();
    if workload.transactions.is_empty() {
        return Ok(0);
    }

    let config = ServeConfig {
        scheduler: spec.clone(),
        workers: workers.max(1),
        queue_depth: workload.transactions.len().max(1),
        batch_max: BATCH_MAX,
        retries: scenario.retries,
        store_shards: 0,
        mvcc: case.mvcc,
        keep_history: true,
    };
    let server = Server::bind(workload.def.clone(), config, "127.0.0.1:0")
        .map_err(|e| fail(FailureKind::EngineError, &spec_label, e.to_string()))?;
    let addr = server.addr();

    let wire =
        |e: obase_serve::WireError| fail(FailureKind::EngineError, &spec_label, e.to_string());

    let mut clients = Vec::new();
    for c in 0..CONNECTIONS {
        clients.push(ServeClient::connect(addr, &format!("fuzz-{c}")).map_err(wire)?);
    }
    // Round-robin pipelined submission of the case's own transactions.
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); CONNECTIONS];
    for (i, txn) in workload.transactions.iter().enumerate() {
        let c = i % CONNECTIONS;
        ids[c].push(
            clients[c]
                .submit(&txn.name, txn.body.clone())
                .map_err(wire)?,
        );
    }
    let mut committed = 0usize;
    let mut settled = 0usize;
    for (c, client) in clients.iter_mut().enumerate() {
        for &id in &ids[c] {
            match client.wait(id).map_err(wire)? {
                SubmitOutcome::Committed { .. } => {
                    committed += 1;
                    settled += 1;
                }
                SubmitOutcome::GaveUp { .. } => settled += 1,
                SubmitOutcome::Rejected(reason) => {
                    return Err(fail(
                        FailureKind::EngineError,
                        &spec_label,
                        format!("submission rejected on a sized queue: {reason}"),
                    ))
                }
                SubmitOutcome::Failed(detail) => {
                    return Err(fail(
                        FailureKind::EngineError,
                        &spec_label,
                        format!("batch failed: {detail}"),
                    ))
                }
            }
        }
    }
    for client in clients {
        client.goodbye();
    }

    let summary = server.shutdown();
    if settled != workload.transactions.len() {
        return Err(fail(
            FailureKind::Divergence,
            &spec_label,
            format!(
                "{settled} of {} submissions settled",
                workload.transactions.len()
            ),
        ));
    }
    if summary.committed + summary.gave_up != summary.admitted
        || summary.admitted != settled as u64
        || summary.committed != committed as u64
    {
        return Err(fail(
            FailureKind::Divergence,
            &spec_label,
            format!(
                "server accounting (admitted {}, committed {}, gave up {}) \
                 disagrees with client acks (settled {settled}, committed {committed})",
                summary.admitted, summary.committed, summary.gave_up
            ),
        ));
    }
    if summary.oracle_failures > 0 {
        return Err(fail(
            FailureKind::Oracle,
            &spec_label,
            format!(
                "{} batches failed their own theory checks",
                summary.oracle_failures
            ),
        ));
    }
    let history = summary.history.ok_or_else(|| {
        fail(
            FailureKind::EngineError,
            &spec_label,
            "server kept no admitted history despite keep_history",
        )
    })?;
    obase_core::oracle::check(&history, true).map_err(|v| {
        fail(
            FailureKind::Oracle,
            &spec_label,
            format!("merged admitted history: {v}"),
        )
    })?;
    Ok(committed)
}
