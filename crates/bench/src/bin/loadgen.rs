//! The load generator: hundreds of real TCP connections against an
//! in-process `obase-serve` server, with client-side latency accounting.
//!
//! Usage:
//!
//! ```text
//! cargo run -p obase-bench --release --bin loadgen                         # 256 conns, hot-queue
//! cargo run -p obase-bench --release --bin loadgen -- --connections 512
//! cargo run -p obase-bench --release --bin loadgen -- --scenario bank-audit --per-conn 16
//! cargo run -p obase-bench --release --bin loadgen -- --reconcile --assert-drop-free
//! ```
//!
//! Every connection is a real socket driving pipelined submissions from the
//! scenario's own compiled transaction stream. A `QueueFull` reject is
//! retried with backoff — backpressure sheds load, it never loses it — so
//! with `--assert-drop-free` the invariant is exact: every submission the
//! load generator ever made is acked as committed or gave-up, and the
//! server's own counters agree.
//!
//! `--reconcile` swaps the scheduler spec *and* resizes the worker pool
//! over the wire, mid-load, from an admin connection — the drop-free
//! accounting then spans the live configuration change.
//!
//! Results (throughput plus client-observed p50/p99/p999) merge into
//! `BENCH_results.json` under the `"serve"` key; entries written by the
//! other binaries survive.

use obase_bench as xp;
use obase_obs::Histogram;
use obase_runtime::SchedulerSpec;
use obase_ser::Json;
use obase_serve::{ServeClient, ServeConfig, Server, SubmitOutcome};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one connection thread brings home.
#[derive(Default)]
struct ConnTally {
    committed: u64,
    gave_up: u64,
    rejected_retries: u64,
    errors: u64,
    latency: Histogram,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_name = "hot-queue".to_owned();
    let mut connections: usize = 256;
    let mut per_conn: usize = 8;
    let mut window: usize = 4;
    let mut workers: usize = 4;
    let mut queue_depth: usize = 1024;
    let mut batch_max: usize = 64;
    let mut reconcile = false;
    let mut assert_drop_free = false;
    let mut out_path = "BENCH_results.json".to_owned();

    let usage = "usage: loadgen [--scenario NAME] [--connections N] [--per-conn N] \
                 [--window N] [--workers N] [--queue-depth N] [--batch-max N] \
                 [--reconcile] [--assert-drop-free] [--out PATH]";
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} takes a value\n{usage}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--scenario" => scenario_name = next("--scenario"),
            "--connections" => connections = parse(&next("--connections"), "--connections"),
            "--per-conn" => per_conn = parse(&next("--per-conn"), "--per-conn"),
            "--window" => window = parse::<usize>(&next("--window"), "--window").max(1),
            "--workers" => workers = parse::<usize>(&next("--workers"), "--workers").max(1),
            "--queue-depth" => {
                queue_depth = parse::<usize>(&next("--queue-depth"), "--queue-depth").max(1)
            }
            "--batch-max" => batch_max = parse::<usize>(&next("--batch-max"), "--batch-max").max(1),
            "--reconcile" => reconcile = true,
            "--assert-drop-free" => assert_drop_free = true,
            "--out" => out_path = next("--out"),
            "--help" | "-h" => {
                println!("{usage}");
                return;
            }
            other => {
                eprintln!("unknown flag {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    let scenario = obase_scenario::by_name(&scenario_name).unwrap_or_else(|| {
        eprintln!(
            "unknown scenario {scenario_name:?}; pick one of: {}",
            obase_scenario::names().join(", ")
        );
        std::process::exit(2);
    });
    let workload = scenario.compile();
    if workload.transactions.is_empty() {
        eprintln!("{scenario_name} compiles to no transactions");
        std::process::exit(2);
    }

    let config = ServeConfig {
        scheduler: SchedulerSpec::n2pl_operation(),
        workers,
        queue_depth,
        batch_max,
        retries: scenario.retries,
        keep_history: false, // loadgen measures; the test suites hold the oracle
        ..ServeConfig::default()
    };
    let server = Server::for_scenario(&scenario, config, "127.0.0.1:0")
        .unwrap_or_else(|e| panic!("cannot bind loopback server: {e}"));
    let addr = server.addr();
    eprintln!(
        "serving {scenario_name} on {addr}: {connections} connections × {per_conn} \
         submissions, window {window}"
    );

    let total = connections * per_conn;
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let templates = workload.transactions.clone();
        handles.push(std::thread::spawn(move || {
            drive_connection(addr, c, per_conn, window, &templates)
        }));
    }

    let changed = if reconcile {
        // Let the fleet ramp, then swap scheduler + workers over the wire.
        std::thread::sleep(Duration::from_millis(50));
        let mut admin = ServeClient::connect(addr, "loadgen-admin")
            .unwrap_or_else(|e| panic!("admin connect: {e}"));
        let desired = Json::object([
            ("scheduler", SchedulerSpec::nto_conservative().to_json()),
            ("workers", Json::Int((workers * 2) as i64)),
        ]);
        let changed = admin
            .reconcile(desired)
            .unwrap_or_else(|e| panic!("reconcile over the wire: {e}"));
        eprintln!("reconciled mid-load: changed {changed:?}");
        admin.goodbye();
        changed
    } else {
        Vec::new()
    };

    let mut tally = ConnTally::default();
    for h in handles {
        let t = h.join().expect("connection thread");
        tally.committed += t.committed;
        tally.gave_up += t.gave_up;
        tally.rejected_retries += t.rejected_retries;
        tally.errors += t.errors;
        tally.latency.merge(&t.latency);
    }
    let elapsed = started.elapsed();

    // Pull the status document over the wire once before shutdown — the
    // health endpoint is part of what a smoke run is smoking.
    match ServeClient::connect(addr, "loadgen-status") {
        Ok(mut admin) => match admin.status() {
            Ok(status) => {
                println!("status: {status}");
                admin.goodbye();
            }
            Err(e) => eprintln!("status fetch failed: {e}"),
        },
        Err(e) => eprintln!("status connect failed: {e}"),
    }
    let summary = server.shutdown();

    let acked = tally.committed + tally.gave_up;
    let throughput = acked as f64 / elapsed.as_secs_f64();
    let row_label = if reconcile {
        format!("{scenario_name}+reconcile")
    } else {
        scenario_name.clone()
    };
    let row = xp::Row::new(row_label)
        .with("connections", connections as f64)
        .with("submitted", total as f64)
        .with("acked", acked as f64)
        .with("committed", tally.committed as f64)
        .with("gave_up", tally.gave_up as f64)
        .with("queue_full_retries", tally.rejected_retries as f64)
        .with("reconcile_changes", changed.len() as f64)
        .with("acked_per_sec", throughput)
        .with("latency_us_p50", tally.latency.percentile(0.50) as f64)
        .with("latency_us_p99", tally.latency.percentile(0.99) as f64)
        .with("latency_us_p999", tally.latency.percentile(0.999) as f64);
    let title = format!("Serve loadgen — {connections} connections × {per_conn} over TCP loopback");
    println!("{}", xp::render_table(&title, std::slice::from_ref(&row)));
    eprintln!(
        "server: admitted {} committed {} gave-up {} in {} batches, oracle failures {}",
        summary.admitted,
        summary.committed,
        summary.gave_up,
        summary.batches,
        summary.oracle_failures
    );

    // Merge under "serve"; everything else in the document survives.
    let entry = xp::results_json(&[("serve", title.as_str(), vec![row])]);
    xp::merge_results(&out_path, entry).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("wrote {out_path}");

    if assert_drop_free {
        let mut failures = Vec::new();
        if tally.errors > 0 {
            failures.push(format!("{} wire errors", tally.errors));
        }
        if acked != total as u64 {
            failures.push(format!("{acked} of {total} submissions acked"));
        }
        if summary.admitted != acked {
            failures.push(format!(
                "server admitted {} but clients hold {acked} acks",
                summary.admitted
            ));
        }
        if summary.committed + summary.gave_up != summary.admitted {
            failures.push(format!(
                "server settled {} of {} admitted",
                summary.committed + summary.gave_up,
                summary.admitted
            ));
        }
        if summary.oracle_failures > 0 {
            failures.push(format!(
                "{} batches failed their theory checks",
                summary.oracle_failures
            ));
        }
        if !failures.is_empty() {
            eprintln!("DROP-FREE ASSERTION FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("drop-free: {total} submitted, {acked} acked, server agrees");
    }
}

/// One connection's life: pipeline up to `window` submissions, wait the
/// oldest, retry queue-full rejects with backoff until acked.
fn drive_connection(
    addr: SocketAddr,
    conn: usize,
    per_conn: usize,
    window: usize,
    templates: &[obase_exec::TxnSpec],
) -> ConnTally {
    let mut tally = ConnTally::default();
    let mut client = match ServeClient::connect(addr, &format!("loadgen-{conn}")) {
        Ok(c) => c,
        Err(_) => {
            tally.errors += per_conn as u64;
            return tally;
        }
    };
    // (wire id, template index, first-submit instant) per in-flight slot.
    let mut in_flight: Vec<(u64, usize, Instant)> = Vec::with_capacity(window);
    let mut next = 0usize;
    loop {
        while next < per_conn && in_flight.len() < window {
            let t = (conn + next) % templates.len();
            match client.submit(&templates[t].name, templates[t].body.clone()) {
                Ok(id) => in_flight.push((id, t, Instant::now())),
                Err(_) => {
                    tally.errors += 1;
                }
            }
            next += 1;
        }
        let Some((id, t, since)) = in_flight.first().copied() else {
            break;
        };
        in_flight.remove(0);
        match client.wait(id) {
            Ok(SubmitOutcome::Committed { .. }) => {
                tally.committed += 1;
                tally.latency.record(since.elapsed().as_micros() as u64);
            }
            Ok(SubmitOutcome::GaveUp { .. }) => {
                tally.gave_up += 1;
                tally.latency.record(since.elapsed().as_micros() as u64);
            }
            Ok(SubmitOutcome::Rejected(_)) => {
                // Backpressure: back off and resubmit the same template.
                // The retry keeps its original clock — shed latency is
                // real latency.
                tally.rejected_retries += 1;
                std::thread::sleep(Duration::from_millis(1 + (conn % 4) as u64));
                match client.submit(&templates[t].name, templates[t].body.clone()) {
                    Ok(id) => in_flight.push((id, t, since)),
                    Err(_) => tally.errors += 1,
                }
            }
            Ok(SubmitOutcome::Failed(_)) | Err(_) => {
                tally.errors += 1;
            }
        }
    }
    client.goodbye();
    tally
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {s:?}");
        std::process::exit(2);
    })
}
