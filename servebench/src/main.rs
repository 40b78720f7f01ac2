//! Socket-to-socket benchmark of `obase-serve`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload flat-accounts --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run serves one workload from a separate server process
//! (`obase_serve::Server::bind`, serve defaults except
//! `keep_history = false`), drives it from this process with at most two
//! threads and two connections through a `saturated` and a `solo`
//! closed-loop phase, checks that client and server agree on every
//! submission, and prints its metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, the metrics
//! being the end-to-end set with `--trace 0` and the per-layer set with
//! `--trace 1`. A traced run additionally replays the workload in-process
//! under spans (see `traced.rs`) and writes them to
//! `.bench_out/servebench-trace-<workload>-seed<seed>.json`.
//!
//! `serve --workload NAME` is the server process itself.
//!
//! See `servebench/README.md` for the workloads, the metrics and what each
//! should move.

mod conn;
mod host;
mod load;
mod server;
mod stats;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use conn::{Conn, Tally};
use host::Host;
use load::{Phase, View, Window};
use obase_ser::Json;
use server::ServerProcess;
use stats::{median, percentile, Summary};
use std::time::Duration;
use workload::Workload;

/// Server processes spawned per run to time set-up; the last one serves.
const SETUP_SPAWNS: usize = 11;
/// Excluded warm-up before the saturated window.
const SATURATED_WARMUP: Duration = Duration::from_secs(1);
/// Excluded warm-up before the solo window.
const SOLO_WARMUP: Duration = Duration::from_millis(500);
/// Share of `--seconds` measured in the saturated phase; solo gets the rest.
const SATURATED_SHARE: f64 = 0.3;
/// Share of a phase's answers, those least exposed to CPU steal, that its
/// latency figures are taken over (and of its slices, the least stolen
/// from, for the printed quiet throughput).
const QUIET_SHARE: f64 = 0.1;
/// Time given to the in-process traced replay, as a share of `--seconds`.
const TRACE_SHARE: f64 = 0.5;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: obase-servebench --workload NAME --seed N --seconds N --trace 0|1\n       \
                     obase-servebench serve --workload NAME\n\
                     workloads: flat-accounts, large-dict, hot-nested";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<(bool, Args), String> {
    let (serve, flags) = match args.first().map(String::as_str) {
        Some("serve") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut parsed = Args {
        workload: Workload::FlatAccounts,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok((serve, parsed))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (serve, args) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if serve {
        if let Err(e) = server::serve(args.workload) {
            eprintln!("server: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "servebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let code = match bench(&args) {
        Ok(run) => {
            let metrics = run.metrics.iter().map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::object([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
                )
            });
            println!("{}", result_line(true, &run.tally, metrics.collect()));
            0
        }
        Err(Failure::Gate { reason, tally }) => {
            println!("correctness gate FAILED: {reason}");
            println!("{}", result_line(false, &tally, Default::default()));
            1
        }
        Err(Failure::Run(reason)) => {
            eprintln!("run failed: {reason}");
            1
        }
    };
    std::process::exit(code);
}

fn result_line(
    correct: bool,
    tally: &Tally,
    metrics: std::collections::BTreeMap<String, Json>,
) -> Json {
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.submitted as i64)),
        ("failed", Json::Int((tally.gave_up + tally.rejected) as i64)),
        ("metrics", Json::Object(metrics)),
    ])
}

/// Why a run produced no numbers.
enum Failure {
    /// Client and server disagree, or the oracle refused something.
    Gate { reason: String, tally: Tally },
    /// The run could not be carried out.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Run(e.to_owned())
    }
}

/// A measured run: the client-side counts and the metrics to report.
struct Run {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn bench(args: &Args) -> Result<Run, Failure> {
    let host = Host::start();
    let w = args.workload;

    // Set-up, timed over several spawns; the last server is the one driven.
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut kept = None;
    for i in 0..SETUP_SPAWNS {
        let (process, conn, took) = ServerProcess::spawn(w)?;
        setups.push(took.as_secs_f64());
        if i + 1 == SETUP_SPAWNS {
            kept = Some((process, conn));
        } else {
            drop(conn);
            process.stop()?;
        }
    }
    let (process, mut conn_a) = kept.expect("at least one set-up spawn");
    let mut conn_b = Conn::connect(process.port())?;
    let seconds = args.seconds as f64;

    // Saturated: two connections, PIPELINE in flight on each.
    let sat_window = Window::after(
        SATURATED_WARMUP,
        Duration::from_secs_f64(seconds * SATURATED_SHARE),
    );
    let sat = load::saturated(
        (&mut conn_a, &mut w.stream(args.seed, 1)),
        (&mut conn_b, &mut w.stream(args.seed, 2)),
        sat_window,
        process.pid(),
    )?;

    // Solo: one connection, one outstanding submission.
    let solo_window = Window::after(
        SOLO_WARMUP,
        Duration::from_secs_f64(seconds * (1.0 - SATURATED_SHARE)),
    );
    let solo = load::solo(
        &mut conn_a,
        &mut w.stream(args.seed, 0),
        solo_window,
        process.pid(),
    )?;

    let final_status = conn_a.status()?;
    let peak_rss_mb = host::peak_rss_mb(process.pid())?;
    let mut tally = conn_a.tally();
    tally.absorb(&conn_b.tally());
    let outstanding = conn_a.outstanding() + conn_b.outstanding();
    drop((conn_a, conn_b));
    process.stop()?;
    println!("host: {}", host.record());
    if let Err(reason) = gate(&final_status, &tally, outstanding) {
        return Err(Failure::Gate { reason, tally });
    }

    let setup_s = median(&setups).expect("set-up samples");
    println!("setup_s samples: {setups:?}");
    report_phase("saturated", &sat)?;
    let solo_ack = report_phase("solo", &solo)?;
    println!(
        "failed_share: {} of {} submissions (gave up {}, rejected {})",
        tally.gave_up + tally.rejected,
        tally.submitted,
        tally.gave_up,
        tally.rejected
    );
    println!("gate: ok");

    let metrics = if args.trace {
        per_layer(args, &tally, &sat, &solo)?
    } else {
        vec![
            ("solo_ack_p50_us", solo_ack.p50, "us"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(Failure::Run(format!("metric {name} is {value}")));
    }
    Ok(Run { tally, metrics })
}

/// Prints a phase's figures over the whole window and over its quiet
/// part, and returns the quiet part's latency summary.
fn report_phase(name: &str, phase: &Phase) -> Result<Summary, String> {
    let print = |label: &str, view: &View| {
        let ack = Summary::of(&view.client_us)
            .ok_or_else(|| format!("no {name} answers in the {label} part"))?;
        println!(
            "{name} {label}: {:.1} commits/s over {:.2} s at steal {:.3}; \
             client ack us {ack} at steal {:.3}",
            view.commits_per_s(),
            view.seconds,
            view.slice_steal,
            view.ack_steal,
        );
        Ok::<_, String>(ack)
    };
    print("whole", &phase.whole())?;
    print("quiet", &phase.quiet(QUIET_SHARE))
}

/// Client and server must agree exactly, and the server's per-batch oracle
/// must have accepted everything.
fn gate(status: &Json, tally: &Tally, outstanding: usize) -> Result<(), String> {
    let n = |key: &str| {
        status
            .get(key)
            .and_then(Json::as_int)
            .map(|v| v as u64)
            .ok_or_else(|| format!("status has no integer {key:?}"))
    };
    let (admitted, committed, gave_up) = (n("admitted")?, n("committed")?, n("gave_up")?);
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    expect(
        outstanding == 0,
        format!("{outstanding} submissions never answered"),
    );
    expect(
        committed + gave_up == admitted,
        format!("server committed {committed} + gave up {gave_up} != admitted {admitted}"),
    );
    expect(
        admitted == tally.submitted - tally.rejected,
        format!(
            "server admitted {admitted}, client saw {} submitted - {} rejected",
            tally.submitted, tally.rejected
        ),
    );
    expect(
        committed == tally.committed,
        format!(
            "server committed {committed}, client was acked {}",
            tally.committed
        ),
    );
    expect(
        gave_up == tally.gave_up,
        format!(
            "server gave up {gave_up}, client was told {}",
            tally.gave_up
        ),
    );
    for counter in ["oracle_failures", "batch_errors", "send_failures"] {
        let v = n(counter)?;
        expect(v == 0, format!("{counter} = {v}"));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// The server's CPU time per commit it counted over a phase's window,
/// microseconds.
fn cpu_us_per_commit(phase: &Phase) -> Result<f64, String> {
    let (first, last) = phase.edges()?;
    let (Some(s0), Some(s1)) = (&first.status, &last.status) else {
        return Err("a window edge has no status".into());
    };
    Ok((last.server_cpu_us - first.server_cpu_us) / delta(s0, s1, &["committed"])?)
}

/// The number at `path` in a status document.
fn number(status: &Json, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(status, |j, k| j.get(k))
        .and_then(Json::as_float)
        .ok_or_else(|| format!("status has no number at {}", path.join(".")))
}

/// How much the number at `path` grew between two status documents.
fn delta(before: &Json, after: &Json, path: &[&str]) -> Result<f64, String> {
    Ok(number(after, path)? - number(before, path)?)
}

/// The per-layer metrics: server counters over the saturated window and
/// the raw ack samples, then the traced in-process replay.
fn per_layer(
    args: &Args,
    tally: &Tally,
    sat: &Phase,
    solo: &Phase,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (first, last) = sat.edges()?;
    let (Some(s0), Some(s1)) = (&first.status, &last.status) else {
        return Err("a window edge has no status".into());
    };
    let d = |path: &[&str]| delta(s0, s1, path);
    let batches = d(&["batches"])?;
    let admitted = d(&["admitted"])?;
    let batch_max = number(s1, &["config", "batch_max"])?;
    let engine = |key: &str| d(&["metrics", key]);
    let engine_commits = engine("committed")?;
    // Lifetime phase p50s from the engine's obs histograms (3.2% buckets);
    // read right after the saturated window, so saturated batches dominate.
    let phase_p50 = |phase: &str| number(s1, &["latency", "phases", phase, "p50"]).unwrap_or(0.0);
    let p50 = |xs: &[f64]| percentile(xs, 0.5).ok_or("no samples");
    let batch_us = (last.at - first.at).as_secs_f64() * 1e6 / batches;
    let (server_cpu, solo_cpu) = (cpu_us_per_commit(sat)?, cpu_us_per_commit(solo)?);
    let (sat, solo) = (sat.whole(), solo.whole());
    let solo_server_ack = p50(&solo.server_us)?;

    let batch = (admitted / batches).round().clamp(1.0, batch_max) as usize;
    let budget = Duration::from_secs_f64(args.seconds as f64 * TRACE_SHARE);
    let tracer = traced::replay(args.workload, args.seed, batch, budget)?;
    let path = format!(
        "{TRACE_DIR}/servebench-trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json().to_string()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("spans: {path} (saturated batches of {batch})");

    let med = |name: &str, class: &str| {
        median(&tracer.durations_us(name, Some(class)))
            .ok_or_else(|| format!("no {name} spans under {class}"))
    };
    let layer_sum = |class: &str| -> Result<f64, String> {
        [
            "runtime.build",
            "runtime.run_observed",
            "core.legality",
            "core.sg",
            "core.final_states",
        ]
        .iter()
        .map(|name| med(name, class))
        .sum()
    };
    let run = med("runtime.run", traced::SATURATED)?;
    Ok(vec![
        (
            "serve.batch_fill",
            admitted / (batches * batch_max),
            "ratio",
        ),
        ("serve.batch_us", batch_us, "us"),
        ("serve.cpu_us_per_commit", server_cpu, "us"),
        ("serve.solo_cpu_us_per_commit", solo_cpu, "us"),
        ("serve.server_ack_p50_us", p50(&sat.server_us)?, "us"),
        ("serve.solo_server_ack_p50_us", solo_server_ack, "us"),
        ("wire.roundtrip_p50_us", p50(&solo.wire_us())?, "us"),
        ("serve.rejects", tally.rejected as f64, "count"),
        (
            "par.aborts_per_commit",
            engine("aborts")? / engine_commits,
            "1/commit",
        ),
        (
            "par.retries_per_commit",
            engine("retries")? / engine_commits,
            "1/commit",
        ),
        ("lock.deadlocks", engine("deadlocks")?, "count"),
        (
            "lock.blocked_per_commit",
            engine("blocked_events")? / engine_commits,
            "1/commit",
        ),
        (
            "exec.useful_step_ratio",
            1.0 - engine("wasted_steps")? / engine("installed_steps")?,
            "ratio",
        ),
        ("par.blocked_p50_us", phase_p50("blocked"), "us"),
        ("par.execute_p50_us", phase_p50("execute"), "us"),
        (
            "wire.codec_us_per_txn",
            median(&tracer.durations_us("wire.codec", None)).ok_or("no codec spans")?,
            "us",
        ),
        (
            "runtime.build_us_per_batch",
            med("runtime.build", traced::SATURATED)?,
            "us",
        ),
        (
            "runtime.solo_run_us",
            med("runtime.run", traced::SOLO)?,
            "us",
        ),
        ("runtime.run_us_per_batch", run, "us"),
        (
            "obs.latency_overhead_us_per_batch",
            med("runtime.run_observed", traced::SATURATED)? - run,
            "us",
        ),
        (
            "core.legality_us_per_batch",
            med("core.legality", traced::SATURATED)?,
            "us",
        ),
        (
            "core.final_states_us_per_batch",
            med("core.final_states", traced::SATURATED)?,
            "us",
        ),
        (
            "core.sg_us_per_batch",
            med("core.sg", traced::SATURATED)?,
            "us",
        ),
        (
            "serve.unattributed_us_per_batch",
            batch_us - layer_sum(traced::SATURATED)?,
            "us",
        ),
        (
            "serve.solo_unattributed_us",
            solo_server_ack - layer_sum(traced::SOLO)?,
            "us",
        ),
    ])
}
