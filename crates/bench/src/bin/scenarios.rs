//! The scenario runner binary: executes declarative scenarios by name (the
//! `obase-scenario` library) or from a JSON file, on either or both
//! execution backends, and merges the measurement rows into
//! `BENCH_results.json` under the `"scenarios"` key (existing experiment
//! entries in the file are preserved).
//!
//! Usage:
//!
//! ```text
//! cargo run -p obase-bench --release --bin scenarios                     # whole library, both backends
//! cargo run -p obase-bench --release --bin scenarios -- hot-queue abort-storm
//! cargo run -p obase-bench --release --bin scenarios -- --file my-scenario.json
//! cargo run -p obase-bench --release --bin scenarios -- --backend par --workers 8
//! cargo run -p obase-bench --release --bin scenarios -- --backend wal --wal-dir /tmp/wals
//! cargo run -p obase-bench --release --bin scenarios -- --backend all  # sim + par + wal
//! cargo run -p obase-bench --release --bin scenarios -- --list          # names + intents
//! cargo run -p obase-bench --release --bin scenarios -- --out results.json
//! cargo run -p obase-bench --release --bin scenarios -- hot-queue --trace-out trace.json
//! ```
//!
//! Markdown tables go to stdout; every run is held to the full theory
//! oracle, so the binary doubles as a chaos smoke test. `--trace-out FILE`
//! additionally re-runs the first selected scenario's first spec on the
//! parallel backend with full lifecycle tracing and writes a
//! `chrome://tracing` / Perfetto trace-event JSON file (one lane per worker
//! plus the control-plane lane — load it at <https://ui.perfetto.dev>),
//! printing the run's latency profile to stderr.

use obase_bench as xp;
use obase_runtime::{ChromeTraceObserver, ExecutionBackend, Observe};
use obase_scenario::Scenario;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_results.json".to_owned();
    let mut backend = "both".to_owned();
    let mut workers = 4usize;
    let mut wal_dir: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut selected: Vec<String> = Vec::new();
    let mut list = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out takes a path"),
            "--file" => files.push(it.next().expect("--file takes a path")),
            "--backend" => backend = it.next().expect("--backend takes sim|par|both|wal|all"),
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .expect("--workers takes a positive integer");
            }
            "--wal-dir" => wal_dir = Some(it.next().expect("--wal-dir takes a path")),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out takes a path")),
            "--list" => list = true,
            other => selected.push(other.to_owned()),
        }
    }
    if list {
        let names = obase_scenario::names();
        let width = names.iter().map(String::len).max().unwrap_or(0);
        for name in names {
            let intent = obase_scenario::intent(&name).unwrap_or("");
            println!("{name:width$}  {intent}");
        }
        return;
    }
    // The durable legs write their logs here; default is a fresh scratch
    // directory under the system temp dir.
    let wal_dir = wal_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| obase_wal::scratch_dir("scenarios"));
    let choice = match backend.as_str() {
        "sim" | "simulated" => xp::BackendChoice::Simulated,
        "par" | "parallel" => xp::BackendChoice::Parallel { workers },
        "both" => xp::BackendChoice::Both { workers },
        "wal" | "durable" => xp::BackendChoice::Durable { wal_dir },
        "all" => xp::BackendChoice::All { workers, wal_dir },
        other => panic!("--backend takes sim|par|both|wal|all, not {other:?}"),
    };

    // Resolve the scenario set: named library entries plus any JSON files;
    // with no names and no files, the whole library.
    let mut scenarios: Vec<Scenario> = if selected.is_empty() && files.is_empty() {
        obase_scenario::library()
    } else {
        selected
            .iter()
            .map(|name| {
                obase_scenario::by_name(name).unwrap_or_else(|| {
                    panic!("unknown scenario {name:?} (try --list, or --file for a JSON spec)")
                })
            })
            .collect()
    };
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read scenario file {path}: {e}"));
        // Parse errors carry line/column position and a caret-marked excerpt
        // (see `Scenario::parse`); print them as a diagnostic, not a panic
        // backtrace.
        scenarios.push(Scenario::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad scenario file {path}:\n{e}");
            std::process::exit(2);
        }));
    }

    let mut rows: Vec<xp::Row> = Vec::new();
    for scenario in &scenarios {
        eprintln!("running scenario {}...", scenario.name);
        rows.extend(xp::scenario_rows(scenario, &choice));
    }

    // A traced run on top of the sweep: the first scenario's first spec on
    // the parallel backend, streamed into a Perfetto trace-event file.
    if let Some(path) = &trace_out {
        let scenario = scenarios.first().expect("at least one scenario resolved");
        let spec = scenario.specs.first().expect("scenarios carry specs");
        eprintln!(
            "tracing scenario {} / {} on parallel({workers})...",
            scenario.name,
            spec.label()
        );
        let tracer = Arc::new(ChromeTraceObserver::new());
        let runtime = scenario
            .builder(spec.clone(), ExecutionBackend::Parallel { workers })
            .and_then(|b| b.observe(Observe::Trace(tracer.clone())).build())
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let report = runtime
            .run(&scenario.compile())
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        report.assert_serialisable();
        tracer
            .write_trace(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("cannot write trace file {path}: {e}"));
        if let Some(latency) = report.latency() {
            eprint!("{}", latency.render_table());
        }
        eprintln!("wrote {path} (load it at https://ui.perfetto.dev)");
    }
    let title = format!(
        "Scenario sweep — {} scenarios × their scheduler line-ups, per backend",
        scenarios.len()
    );
    println!("{}", xp::render_table(&title, &rows));

    // Merge into the existing results document (experiment entries written
    // by the `experiments` binary survive).
    let entry = xp::results_json(&[("scenarios", title.as_str(), rows)]);
    xp::merge_results(&out_path, entry).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("wrote {out_path}");
}
