//! Session lifecycle tests for the TCP front end: happy paths, concurrent
//! sessions, disconnects mid-transaction, backpressure, drain, live
//! reconcile — and the merged history of everything admitted held to the
//! serialisability oracle.

use obase::core::error::TypeError;
use obase::core::object::SemanticType;
use obase::core::op::Operation;
use obase::core::oracle;
use obase::core::value::Value;
use obase::exec::metrics::VARIED_LABEL;
use obase::runtime::SchedulerSpec;
use obase::scenario::by_name;
use obase::serve::{
    wire, Frame, RejectReason, ServeClient, ServeConfig, Server, SubmitOutcome, PROTOCOL_VERSION,
};
use obase_ser::Json;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The library scenario every test serves: two hot queues under a skewed
/// key distribution — enough contention that retries and aborts actually
/// happen on the way to the oracle.
fn scenario() -> obase::scenario::Scenario {
    by_name("hot-queue").expect("library scenario")
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        batch_max: 4,
        ..ServeConfig::default()
    }
}

/// Polls the server's status document until `admitted` reaches `want`
/// (submission is pipelined; admission is asynchronous).
fn wait_admitted(server: &Server, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let admitted = server
            .status()
            .get("admitted")
            .and_then(Json::as_int)
            .unwrap_or(0);
        if admitted >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "only {admitted} of {want} admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn happy_path_submit_result_and_oracle() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "happy").expect("connect");
    assert!(client.objects() > 0, "welcome reports the object base size");

    let total = workload.transactions.len();
    let mut committed = 0u64;
    for txn in &workload.transactions {
        match client
            .submit_wait(&txn.name, txn.body.clone())
            .expect("settle")
        {
            SubmitOutcome::Committed { .. } => committed += 1,
            SubmitOutcome::GaveUp { .. } => {}
            other => panic!("{}: unexpected outcome {other:?}", txn.name),
        }
    }
    client.goodbye();

    let summary = server.shutdown();
    assert_eq!(summary.admitted, total as u64);
    assert_eq!(summary.committed + summary.gave_up, summary.admitted);
    assert_eq!(summary.committed, committed);
    assert_eq!(summary.oracle_failures, 0);
    assert_eq!(summary.e2e.count(), total as u64);
    let history = summary.history.expect("keep_history is on by default");
    oracle::check(&history, true).expect("admitted history is serialisable");
}

#[test]
fn concurrent_sessions_interleave_and_merge_serialisably() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    const SESSIONS: usize = 6;
    const PER_SESSION: usize = 12;
    let mut handles = Vec::new();
    for s in 0..SESSIONS {
        let templates = workload.transactions.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, &format!("conc-{s}")).expect("connect");
            // Pipeline the whole window, then collect: sessions overlap on
            // the wire and inside the admission queue.
            let ids: Vec<u64> = (0..PER_SESSION)
                .map(|i| {
                    let t = &templates[(s + i) % templates.len()];
                    client.submit(&t.name, t.body.clone()).expect("submit")
                })
                .collect();
            let settled = ids
                .into_iter()
                .filter(|&id| client.wait(id).expect("wait").is_settled())
                .count();
            client.goodbye();
            settled
        }));
    }
    let settled: usize = handles.into_iter().map(|h| h.join().expect("join")).sum();
    assert_eq!(
        settled,
        SESSIONS * PER_SESSION,
        "every pipelined submission settled"
    );

    let summary = server.shutdown();
    assert_eq!(summary.admitted, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(summary.committed + summary.gave_up, summary.admitted);
    assert_eq!(summary.oracle_failures, 0);
    oracle::check(&summary.history.expect("history"), true)
        .expect("merged history of all sessions is serialisable");
}

#[test]
fn client_disconnect_mid_transaction_is_clean() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // A client submits and vanishes without reading its result.
    let mut doomed = ServeClient::connect(addr, "doomed").expect("connect");
    let txn = &workload.transactions[0];
    doomed.submit(&txn.name, txn.body.clone()).expect("submit");
    drop(doomed);

    // Another client tears its submit frame in half and vanishes.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        wire::write_frame(
            &mut raw,
            &Frame::Hello {
                client: "torn".into(),
                protocol: PROTOCOL_VERSION,
            },
        )
        .expect("hello");
        let welcome = wire::read_frame(&mut raw).expect("welcome");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        let bytes = wire::encode_frame(&Frame::Submit {
            id: 1,
            name: txn.name.clone(),
            body: txn.body.clone(),
        });
        use std::io::Write;
        raw.write_all(&bytes[..bytes.len() / 2])
            .expect("half a frame");
        drop(raw);
    }

    // The orphaned-but-admitted transaction still runs to settlement; the
    // torn one was never admitted; the server keeps serving.
    wait_admitted(&server, 1);
    server.drain();
    server.resume();
    let mut survivor = ServeClient::connect(addr, "survivor").expect("connect");
    let outcome = survivor
        .submit_wait(&txn.name, txn.body.clone())
        .expect("server still serves after both disconnects");
    assert!(outcome.is_settled());
    survivor.goodbye();

    let summary = server.shutdown();
    assert_eq!(
        summary.admitted, 2,
        "doomed + survivor, never the torn frame"
    );
    assert_eq!(summary.committed + summary.gave_up, summary.admitted);
    oracle::check(&summary.history.expect("history"), true).expect("serialisable");
}

#[test]
fn queue_full_is_a_typed_reject_not_a_hang() {
    let scenario = scenario();
    let workload = scenario.compile();
    // Depth 1 and one transaction per batch: while the executor runs one
    // submission, a single other one fits in the queue, so a pipelined
    // burst must find it full.
    let config = ServeConfig {
        queue_depth: 1,
        batch_max: 1,
        ..ServeConfig::default()
    };
    let server = Server::for_scenario(&scenario, config, "127.0.0.1:0").expect("bind");

    // A raw session, so answers can be read in the order they arrive.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(
        &mut raw,
        &Frame::Hello {
            client: "pressure".into(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    assert!(matches!(
        wire::read_frame(&mut raw).expect("welcome"),
        Frame::Welcome { .. }
    ));
    const BURST: u64 = 32;
    let txn = &workload.transactions[0];
    let burst: Vec<u8> = (1..=BURST)
        .flat_map(|id| {
            wire::encode_frame(&Frame::Submit {
                id,
                name: txn.name.clone(),
                body: txn.body.clone(),
            })
        })
        .collect();
    use std::io::Write;
    raw.write_all(&burst).expect("the whole burst in one write");

    // Exactly one answer per submission, recorded in arrival order.
    let mut rejects = Vec::new();
    let mut result_at = BTreeMap::new();
    for position in 0..BURST {
        match wire::read_frame(&mut raw).expect("answer") {
            Frame::Reject {
                id,
                reason: RejectReason::QueueFull { depth },
            } => {
                assert_eq!(depth, 1, "the reject carries the configured depth");
                rejects.push((position, id));
            }
            Frame::Result { id, .. } => {
                assert!(
                    result_at.insert(id, position).is_none(),
                    "two results for {id}"
                );
            }
            other => panic!("expected a result or a queue-full reject, got {other:?}"),
        }
    }
    let &(reject_at, rejected) = rejects
        .first()
        .expect("a burst into a queue of depth 1 is refused somewhere");

    // When `rejected` was refused, the last submission admitted before it
    // sat in the full queue, so its batch had not run yet. The reject must
    // not wait for that batch: it arrives before that batch's result.
    let queued_ahead = (1..rejected)
        .rev()
        .find(|id| result_at.contains_key(id))
        .expect("the queue was full, so something was admitted before the reject");
    assert!(
        reject_at < result_at[&queued_ahead],
        "the reject of {rejected} waited on the batch of {queued_ahead}: \
         backpressure is supposed to be immediate"
    );
    drop(raw);

    let summary = server.shutdown();
    assert_eq!(
        summary.admitted,
        BURST - rejects.len() as u64,
        "rejected submissions are never admitted"
    );
    assert_eq!(summary.admitted, result_at.len() as u64);
    assert_eq!(summary.committed + summary.gave_up, summary.admitted);
}

#[test]
fn drain_completes_in_flight_work_then_rejects_until_resume() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "drainer").expect("connect");

    let ids: Vec<u64> = workload
        .transactions
        .iter()
        .map(|t| client.submit(&t.name, t.body.clone()).expect("submit"))
        .collect();
    wait_admitted(&server, ids.len() as i64);
    server.drain();

    // Drain returned, so everything admitted has already settled; the
    // results are waiting in our socket.
    for id in ids {
        assert!(client.wait(id).expect("wait").is_settled());
    }
    let txn = &workload.transactions[0];
    match client
        .submit_wait(&txn.name, txn.body.clone())
        .expect("reject")
    {
        SubmitOutcome::Rejected(RejectReason::Draining) => {}
        other => panic!("expected a draining reject, got {other:?}"),
    }
    server.resume();
    assert!(client
        .submit_wait(&txn.name, txn.body.clone())
        .expect("settle")
        .is_settled());
    client.goodbye();
    let summary = server.shutdown();
    assert_eq!(summary.admitted, workload.transactions.len() as u64 + 1);
}

#[test]
fn reconcile_mid_load_loses_zero_in_flight_transactions() {
    let scenario = scenario();
    let workload = scenario.compile();
    let config = ServeConfig {
        scheduler: SchedulerSpec::n2pl_operation(),
        workers: 2,
        queue_depth: 512,
        batch_max: 4,
        ..ServeConfig::default()
    };
    let server = Server::for_scenario(&scenario, config, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 24;
    let mut handles = Vec::new();
    for s in 0..SESSIONS {
        let templates = workload.transactions.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, &format!("load-{s}")).expect("connect");
            // Sequential submit-and-wait keeps load flowing across the
            // whole window the reconcile lands in.
            let acks = (0..PER_SESSION)
                .filter(|i| {
                    let t = &templates[(s + i) % templates.len()];
                    client
                        .submit_wait(&t.name, t.body.clone())
                        .expect("settle")
                        .is_settled()
                })
                .count();
            client.goodbye();
            acks
        }));
    }

    // Mid-load: swap the scheduler spec AND resize the worker pool, over
    // the wire, from an admin connection. The `linger_ms` an old client
    // still sends is an unknown field now, so it is ignored.
    std::thread::sleep(Duration::from_millis(30));
    let mut admin = ServeClient::connect(addr, "admin").expect("connect");
    let desired = Json::object([
        ("scheduler", SchedulerSpec::nto_conservative().to_json()),
        ("workers", Json::Int(4)),
        ("linger_ms", Json::Int(600)),
    ]);
    let changed = admin.reconcile(desired.clone()).expect("reconcile");
    assert_eq!(changed, ["scheduler", "workers"], "changed: {changed:?}");
    // Idempotent: the same desired state again changes nothing.
    assert!(admin
        .reconcile(desired)
        .expect("reconcile again")
        .is_empty());
    admin.goodbye();
    let live = server.config();
    assert_eq!(live.workers, 4);
    assert_eq!(
        live.scheduler.label(),
        SchedulerSpec::nto_conservative().label()
    );

    let acks: usize = handles.into_iter().map(|h| h.join().expect("join")).sum();
    assert_eq!(
        acks,
        SESSIONS * PER_SESSION,
        "every client-side submission was acked across the live reconcile"
    );

    let summary = server.shutdown();
    assert_eq!(summary.admitted, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(
        summary.committed + summary.gave_up,
        summary.admitted,
        "zero in-flight transactions lost across the reconcile"
    );
    assert_eq!(summary.e2e.count(), summary.admitted);
    assert_eq!(summary.oracle_failures, 0);
    oracle::check(&summary.history.expect("history"), true)
        .expect("history spanning both configurations is serialisable");
}

#[test]
fn batches_after_a_reconcile_run_under_the_new_scheduler() {
    let scenario = scenario();
    let workload = scenario.compile();
    let config = ServeConfig {
        scheduler: SchedulerSpec::n2pl_operation(),
        ..quick_config()
    };
    let server = Server::for_scenario(&scenario, config, "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "swap").expect("connect");
    let txn = &workload.transactions[0];
    let merged_scheduler_label = |client: &mut ServeClient| {
        assert!(client
            .submit_wait(&txn.name, txn.body.clone())
            .expect("settle")
            .is_settled());
        let status = client.status().expect("status");
        let metrics = status.get("metrics").expect("metrics block");
        metrics
            .get("scheduler")
            .and_then(Json::as_str)
            .expect("scheduler label")
            .to_owned()
    };
    assert_eq!(
        merged_scheduler_label(&mut client),
        SchedulerSpec::n2pl_operation().label()
    );
    let desired = Json::object([("scheduler", SchedulerSpec::nto_conservative().to_json())]);
    assert_eq!(client.reconcile(desired).expect("reconcile"), ["scheduler"]);
    // The merged label turns into the marker for a changed line-up only if
    // the next batch really ran on the runtime the reconcile built.
    assert_eq!(merged_scheduler_label(&mut client), VARIED_LABEL);
    client.goodbye();
    assert_eq!(server.shutdown().oracle_failures, 0);
}

#[test]
fn a_reconcile_asking_for_snapshot_reads_is_refused() {
    let server = Server::for_scenario(&scenario(), quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "mvcc").expect("connect");
    let config = |client: &mut ServeClient| {
        let status = client.status().expect("status");
        status.get("config").expect("config block").to_string()
    };
    let before = config(&mut client);
    let desired = Json::object([("workers", Json::Int(1)), ("mvcc", Json::Bool(true))]);
    let err = client.reconcile(desired).expect_err("mvcc=true is refused");
    let removed = obase::runtime::ConfigError::SnapshotReadsRemoved.to_string();
    assert!(err.to_string().contains(&removed), "{err}");
    assert_eq!(
        config(&mut client),
        before,
        "a refused reconcile changes nothing"
    );
    client.goodbye();
    assert_eq!(server.shutdown().oracle_failures, 0);
}

#[test]
fn status_document_reports_live_state() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "status").expect("connect");

    for txn in workload.transactions.iter().take(3) {
        assert!(client
            .submit_wait(&txn.name, txn.body.clone())
            .expect("settle")
            .is_settled());
    }
    let status = client.status().expect("status");
    assert_eq!(
        status.get("protocol").and_then(Json::as_int),
        Some(PROTOCOL_VERSION)
    );
    assert_eq!(status.get("sessions").and_then(Json::as_int), Some(1));
    assert!(status.get("admitted").and_then(Json::as_int) >= Some(3));
    let queue = status.get("queue").expect("queue block");
    assert!(queue.get("depth").and_then(Json::as_int).unwrap_or(0) > 0);
    assert_eq!(queue.get("draining").and_then(Json::as_bool), Some(false));
    let cfg = status.get("config").expect("config block");
    assert!(cfg.get("scheduler").is_some());
    assert!(
        status.get("metrics").is_some(),
        "live RunMetrics are embedded"
    );
    let e2e = status.get("serve_e2e_us").expect("latency block");
    assert!(e2e.get("count").and_then(Json::as_int) >= Some(3));
    for q in ["p50", "p99", "p999"] {
        assert!(e2e.get(q).is_some(), "{q} missing from {e2e}");
    }
    client.goodbye();
    server.shutdown();
}

#[test]
fn status_percentiles_match_the_latencies_clients_saw() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "percentiles").expect("connect");

    // A pipelined window, so queueing spreads the latencies out.
    let ids: Vec<u64> = workload
        .transactions
        .iter()
        .cycle()
        .take(48)
        .map(|t| client.submit(&t.name, t.body.clone()).expect("submit"))
        .collect();
    let mut latencies: Vec<u64> = ids
        .into_iter()
        .map(|id| match client.wait(id).expect("wait") {
            SubmitOutcome::Committed { latency_us } | SubmitOutcome::GaveUp { latency_us } => {
                latency_us
            }
            other => panic!("{id}: unexpected outcome {other:?}"),
        })
        .collect();
    latencies.sort_unstable();
    // The nearest-rank median, the rank `Histogram::percentile` uses.
    let median = latencies[latencies.len().div_ceil(2) - 1];

    let status = client.status().expect("status");
    let e2e = status.get("serve_e2e_us").expect("latency block");
    let at = |q: &str| e2e.get(q).and_then(Json::as_int).expect("percentile") as u64;
    let p50 = at("p50");
    // The histogram reports the floor of the median's bucket, and a bucket
    // is at most 1/32 (3.2%) of the values in it.
    assert!(
        p50 <= median && (median - p50) * 32 <= median,
        "status p50 {p50} is not within a bucket of the clients' median {median}"
    );
    assert!(p50 <= at("p99") && at("p99") <= at("p999"));
    assert!(at("p999") <= *latencies.last().expect("latencies"));
    client.goodbye();
    server.shutdown();
}

#[test]
fn state_carries_across_one_transaction_batches() {
    use obase::adt::Account;
    use obase::core::object::ObjectBase;
    use obase::core::replay;
    use obase::exec::{Expr, MethodDef, ObjectBaseDef, Program};

    const OPENING: i64 = 1_000;
    let mut base = ObjectBase::new();
    let account = base.add_object("account", Arc::new(Account::with_initial(OPENING)));
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for (name, params, op) in [("deposit", 1, "Deposit"), ("balance", 0, "Balance")] {
        def.define_method(
            account,
            MethodDef {
                name: name.into(),
                params,
                body: Program::Local {
                    op: op.into(),
                    args: (0..params).map(Expr::Param).collect(),
                },
            },
        );
    }
    let server = Server::bind(def, ServeConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "depositor").expect("connect");

    // One at a time, so every batch holds one transaction. Each reads the
    // balance after its deposit, so the merged history is legal only if
    // every batch started from the state the previous one left.
    let deposits: Vec<i64> = (1..=12).collect();
    for &amount in &deposits {
        let body = Program::Seq(vec![
            Program::invoke(account, "deposit", [Value::Int(amount)]),
            Program::invoke(account, "balance", []),
        ]);
        let outcome = client.submit_wait("deposit", body).expect("settle");
        assert!(outcome.is_committed(), "deposit {amount}: {outcome:?}");
    }
    client.goodbye();

    let summary = server.shutdown();
    assert_eq!(summary.batches, deposits.len() as u64);
    assert_eq!(summary.committed, deposits.len() as u64);
    assert_eq!(summary.oracle_failures, 0);
    let history = summary.history.expect("keep_history is on by default");
    oracle::check(&history, true).expect("the carried-forward history is serialisable");
    assert_eq!(
        replay::final_state(&history, account).expect("replay"),
        Value::Int(OPENING + deposits.iter().sum::<i64>())
    );
    // The first batch's history still holds the base as it was: advancing
    // the served base copied it rather than writing under the history.
    assert_eq!(
        history.base().spec(account).initial_state,
        Value::Int(OPENING)
    );
}

#[test]
fn protocol_violations_get_typed_error_frames() {
    let scenario = scenario();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Not a hello: the server answers with a typed error, not a slammed door.
    let mut raw = TcpStream::connect(addr).expect("connect");
    wire::write_frame(&mut raw, &Frame::Status).expect("write");
    match wire::read_frame(&mut raw).expect("error frame") {
        Frame::Error { code, .. } => assert_eq!(code, "bad-hello"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(raw);

    // Wrong protocol version: same, with the version in the detail.
    let mut raw = TcpStream::connect(addr).expect("connect");
    wire::write_frame(
        &mut raw,
        &Frame::Hello {
            client: "time-traveller".into(),
            protocol: PROTOCOL_VERSION + 40,
        },
    )
    .expect("write");
    match wire::read_frame(&mut raw).expect("error frame") {
        Frame::Error { code, detail } => {
            assert_eq!(code, "bad-hello");
            assert!(detail.contains("not supported"), "detail: {detail}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(raw);

    server.shutdown();
}

#[test]
fn invalid_transactions_are_rejected_with_reasons() {
    use obase::core::ids::ObjectId;
    use obase::exec::{Expr, ObjRef, Program};
    use obase::serve::server::MAX_TXN_LEAVES;

    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "invalid").expect("connect");

    let (object, method) = {
        let def = scenario.compile_def();
        let (object, m) = def.methods().next().expect("a served method");
        (object, m.clone())
    };
    let valid = Program::Invoke {
        object: ObjRef::Const(object),
        method: method.name.clone(),
        args: vec![Expr::Const(Value::Int(1)); method.params],
    };
    let cases: Vec<(&str, Program)> = vec![
        (
            "too many leaves",
            Program::Seq(vec![valid.clone(); MAX_TXN_LEAVES + 1]),
        ),
        (
            "unknown method",
            Program::Invoke {
                object: ObjRef::Const(object),
                method: "no-such-method".into(),
                args: vec![],
            },
        ),
        (
            "arity mismatch",
            Program::Invoke {
                object: ObjRef::Const(object),
                method: method.name.clone(),
                args: vec![Expr::Const(Value::Int(1)); method.params + 1],
            },
        ),
        (
            "unbound argument parameter",
            Program::Seq(vec![
                valid.clone(),
                Program::Invoke {
                    object: ObjRef::Const(object),
                    method: method.name.clone(),
                    args: vec![Expr::Param(0); method.params.max(1)],
                },
            ]),
        ),
        (
            "top-level local step",
            Program::Local {
                op: "Write".into(),
                args: vec![Expr::Const(Value::Int(1))],
            },
        ),
        (
            "unknown object",
            Program::Invoke {
                object: ObjRef::Const(ObjectId(u32::MAX)),
                method: "enq".into(),
                args: vec![],
            },
        ),
        (
            "unbound parameter",
            Program::Invoke {
                object: ObjRef::Param(0),
                method: "enq".into(),
                args: vec![],
            },
        ),
    ];
    for (what, body) in cases {
        match client.submit_wait(what, body).expect("frame") {
            SubmitOutcome::Rejected(RejectReason::Invalid(detail)) => {
                assert!(!detail.is_empty(), "{what}: empty reject detail")
            }
            other => panic!("{what}: expected an invalid reject, got {other:?}"),
        }
    }
    // The session survives its own bad submissions.
    let txn = &workload.transactions[0];
    assert!(client
        .submit_wait(&txn.name, txn.body.clone())
        .expect("settle")
        .is_settled());
    client.goodbye();
    let summary = server.shutdown();
    assert_eq!(
        summary.admitted, 1,
        "invalid submissions were never admitted"
    );
}

/// A status counter as an integer.
fn counter(status: &Json, key: &str) -> i64 {
    status
        .get(key)
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("status has no integer {key:?}: {status}"))
}

#[test]
fn lone_submissions_run_on_their_session_thread() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.addr(), "lone").expect("connect");

    // Each submission waits for the previous ack, so the server is idle
    // and the session's buffer empty every time one arrives.
    const N: i64 = 10;
    for t in workload.transactions.iter().cycle().take(N as usize) {
        assert!(client
            .submit_wait(&t.name, t.body.clone())
            .expect("settle")
            .is_settled());
    }
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "batches"), N, "{status}");
    assert_eq!(counter(&status, "inline_batches"), N, "{status}");
    client.goodbye();
    let summary = server.shutdown();
    assert_eq!(summary.committed + summary.gave_up, N as u64);
    oracle::check(&summary.history.expect("history"), true).expect("serialisable");
}

#[test]
fn a_pipelined_burst_still_batches() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server =
        Server::for_scenario(&scenario, ServeConfig::default(), "127.0.0.1:0").expect("bind");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(
        &mut raw,
        &Frame::Hello {
            client: "burst".into(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    assert!(matches!(
        wire::read_frame(&mut raw).expect("welcome"),
        Frame::Welcome { .. }
    ));
    const BURST: u64 = 32;
    let burst: Vec<u8> = (1..=BURST)
        .flat_map(|id| {
            let t = &workload.transactions[id as usize % workload.transactions.len()];
            wire::encode_frame(&Frame::Submit {
                id,
                name: t.name.clone(),
                body: t.body.clone(),
            })
        })
        .collect();
    use std::io::Write;
    raw.write_all(&burst).expect("the whole burst in one write");
    for _ in 0..BURST {
        match wire::read_frame(&mut raw).expect("answer") {
            Frame::Result { .. } => {}
            other => panic!("expected a result, got {other:?}"),
        }
    }
    drop(raw);

    let summary = server.shutdown();
    assert_eq!(summary.admitted, BURST);
    assert_eq!(summary.committed + summary.gave_up, BURST);
    assert!(
        summary.batches < BURST,
        "a pipelined burst ran as {} batches: each submission ran alone",
        summary.batches
    );
}

/// A session that pipelines many submissions gets every answer exactly
/// once and in submission order, though its answers leave each batch as
/// one write.
#[test]
fn pipelined_answers_arrive_once_in_submission_order() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server =
        Server::for_scenario(&scenario, ServeConfig::default(), "127.0.0.1:0").expect("bind");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(
        &mut raw,
        &Frame::Hello {
            client: "pipeline".into(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    assert!(matches!(
        wire::read_frame(&mut raw).expect("welcome"),
        Frame::Welcome { .. }
    ));
    const N: u64 = 200;
    let frames: Vec<Frame> = (1..=N)
        .map(|id| {
            let t = &workload.transactions[id as usize % workload.transactions.len()];
            Frame::Submit {
                id,
                name: t.name.clone(),
                body: t.body.clone(),
            }
        })
        .collect();
    wire::write_frames(&mut raw, &frames).expect("every submission");
    let answered: Vec<u64> = (0..N)
        .map(|_| match wire::read_frame(&mut raw).expect("answer") {
            Frame::Result { id, .. } => id,
            other => panic!("expected a result, got {other:?}"),
        })
        .collect();
    assert_eq!(answered, (1..=N).collect::<Vec<u64>>());
    drop(raw);

    let summary = server.shutdown();
    assert_eq!(summary.committed + summary.gave_up, N);
    assert!(
        summary.batches > 1,
        "one batch cannot show the order across batches"
    );
}

#[test]
fn lone_and_pipelined_sessions_merge_into_one_history() {
    let scenario = scenario();
    let workload = scenario.compile();
    let server = Server::for_scenario(&scenario, quick_config(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Even sessions submit one at a time (candidates to run inline), odd
    // ones pipeline windows of 6 (queued for the executor), all at once.
    const SESSIONS: usize = 6;
    const PER_SESSION: usize = 24;
    let handles: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let templates = workload.transactions.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr, &format!("mix-{s}")).expect("connect");
                let window = if s % 2 == 0 { 1 } else { 6 };
                let mut settled = 0;
                for chunk in (0..PER_SESSION).collect::<Vec<_>>().chunks(window) {
                    let ids: Vec<u64> = chunk
                        .iter()
                        .map(|i| {
                            let t = &templates[(s + i) % templates.len()];
                            client.submit(&t.name, t.body.clone()).expect("submit")
                        })
                        .collect();
                    for id in ids {
                        settled += usize::from(client.wait(id).expect("wait").is_settled());
                    }
                }
                client.goodbye();
                settled
            })
        })
        .collect();
    let settled: usize = handles.into_iter().map(|h| h.join().expect("join")).sum();
    assert_eq!(settled, SESSIONS * PER_SESSION);

    let status = server.status();
    let (batches, inline) = (
        counter(&status, "batches"),
        counter(&status, "inline_batches"),
    );
    assert!(inline <= batches, "{inline} inline of {batches} batches");
    let summary = server.shutdown();
    assert_eq!(summary.admitted, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(summary.committed + summary.gave_up, summary.admitted);
    assert_eq!(summary.oracle_failures, 0);
    // If an inline batch and an executor batch ever ran at once, both
    // would advance the world from the same base, and the merged history
    // would replay illegally.
    oracle::check(&summary.history.expect("history"), true)
        .expect("inline and executor batches merge into one serialisable history");
}

/// A semantic type whose every operation waits until its gate opens, so a
/// test can hold a batch in flight for as long as it likes.
#[derive(Debug, Default)]
struct Gate {
    state: std::sync::Mutex<GateState>,
    changed: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// An operation has reached the gate.
    entered: bool,
    /// Operations pass.
    open: bool,
}

impl Gate {
    fn wait_until(&self, ready: impl Fn(&GateState) -> bool) {
        let mut state = self.state.lock().expect("gate");
        while !ready(&state) {
            state = self.changed.wait(state).expect("gate");
        }
    }

    fn set(&self, update: impl FnOnce(&mut GateState)) {
        update(&mut self.state.lock().expect("gate"));
        self.changed.notify_all();
    }
}

impl SemanticType for Gate {
    fn type_name(&self) -> &str {
        "Gate"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, state: &Value, _op: &Operation) -> Result<(Value, Value), TypeError> {
        self.set(|s| s.entered = true);
        self.wait_until(|s| s.open);
        Ok((state.clone(), Value::Unit))
    }

    fn ops_conflict(&self, _a: &Operation, _b: &Operation) -> bool {
        true
    }
}

#[test]
fn drain_waits_for_a_running_inline_batch() {
    use obase::core::object::ObjectBase;
    use obase::exec::{MethodDef, ObjectBaseDef, Program};
    use std::sync::atomic::{AtomicBool, Ordering};

    let gate = Arc::new(Gate::default());
    let mut base = ObjectBase::new();
    let object = base.add_object("gate", Arc::clone(&gate) as _);
    let mut def = ObjectBaseDef::new(Arc::new(base));
    def.define_method(
        object,
        MethodDef {
            name: "pass".into(),
            params: 0,
            body: Program::local("Pass", []),
        },
    );
    let server = Arc::new(Server::bind(def, ServeConfig::default(), "127.0.0.1:0").expect("bind"));

    let mut client = ServeClient::connect(server.addr(), "gated").expect("connect");
    let submitter = std::thread::spawn(move || {
        let outcome = client
            .submit_wait("pass", Program::invoke(object, "pass", []))
            .expect("settle");
        client.goodbye();
        outcome
    });
    // The batch is now inside the engine, on the submitting session.
    gate.wait_until(|s| s.entered);
    let status = server.status();
    assert_eq!(counter(&status, "admitted"), 1);
    let in_flight = status
        .get("queue")
        .and_then(|q| q.get("in_flight"))
        .and_then(Json::as_int);
    assert_eq!(in_flight, Some(1), "{status}");

    let drained = Arc::new(AtomicBool::new(false));
    let drainer = {
        let (server, drained) = (Arc::clone(&server), Arc::clone(&drained));
        std::thread::spawn(move || {
            server.drain();
            drained.store(true, Ordering::SeqCst);
        })
    };
    // Nothing can signal that drain has wrongly returned early, so give a
    // wrong one time to do it while the gate holds the batch.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !drained.load(Ordering::SeqCst),
        "drain returned while the inline batch was still running"
    );
    gate.set(|s| s.open = true);
    drainer.join().expect("drain");

    // Drain returned, so the inline batch's result is already counted.
    let status = server.status();
    assert_eq!(counter(&status, "batches"), 1, "{status}");
    assert_eq!(counter(&status, "inline_batches"), 1, "{status}");
    assert_eq!(
        counter(&status, "committed") + counter(&status, "gave_up"),
        1,
        "{status}"
    );
    assert_eq!(counter(&status, "results_sent"), 1, "{status}");
    assert!(submitter.join().expect("submitter").is_settled());
    let server = Arc::into_inner(server).expect("the only handle");
    server.resume();
    let summary = server.shutdown();
    assert_eq!(summary.oracle_failures, 0);
}
