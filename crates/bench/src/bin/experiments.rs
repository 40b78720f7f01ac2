//! The experiment harness binary: regenerates every table in EXPERIMENTS.md
//! and records the measurements in `BENCH_results.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p obase-bench --release --bin experiments            # all experiments
//! cargo run -p obase-bench --release --bin experiments -- e2 e4   # a subset
//! cargo run -p obase-bench --release --bin experiments -- --scale 2
//! cargo run -p obase-bench --release --bin experiments -- --out results.json
//! ```
//!
//! Markdown tables go to stdout; the same rows are written as JSON (keyed by
//! experiment id, with per-row throughput/makespan/abort-rate and — for the
//! e9 backend face-off and e11 durability sweep — wall-clock milliseconds
//! and transactions/second) to `BENCH_results.json` in the working directory
//! unless `--out` says otherwise. The results are *merged* into the existing
//! document: entries written by other runs (e.g. the `scenarios` binary's
//! `"scenarios"` key, or experiment families a subset run did not touch)
//! survive.

use obase_bench as xp;

/// An experiment entry: key, title, and the row-producing function.
type Experiment = (
    &'static str,
    &'static str,
    Box<dyn Fn(usize) -> Vec<xp::Row>>,
);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1usize;
    let mut out_path: Option<String> = None;
    let mut assert_scaling = false;
    let mut assert_durability = false;
    let mut assert_overhead = false;
    let mut assert_flat = false;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes an integer");
            }
            "--out" => {
                out_path = Some(it.next().expect("--out takes a path"));
            }
            // CI guard: fail the process if the e10 low-contention sweep
            // shows 8 workers regressing below the 1-worker point.
            "--assert-scaling" => assert_scaling = true,
            // Durability guard: fail the process if the e11 sweep shows a
            // group-commit window of 8 recovering less than 3× the
            // throughput of fsync-per-record.
            "--assert-durability" => assert_durability = true,
            // Observability guard: fail the process if the e12 sweep shows
            // the NullObserver plan below 97% of the no-observer baseline.
            "--assert-overhead" => assert_overhead = true,
            // Flat-cost guards: fail the process if the e14 sweep shows an
            // Insert on 65,536 keys costing more than 4× one on 64 keys, or
            // e15 shows a run over 2,048 accounts costing more than 2× one
            // over 256.
            "--assert-flat" => assert_flat = true,
            other => selected.push(other.to_lowercase()),
        }
    }
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    let experiments: Vec<Experiment> = vec![
        (
            "e1",
            "E1 — flat object-granularity baseline vs nested schedulers (banking)",
            Box::new(xp::e1_flat_vs_nested),
        ),
        (
            "e2",
            "E2 — operation-level vs step-level locks on a FIFO queue",
            Box::new(xp::e2_queue_locks),
        ),
        (
            "e3",
            "E3 — semantic (commutativity) conflicts vs read/write conflicts",
            Box::new(xp::e3_semantic_conflict),
        ),
        (
            "e4",
            "E4 — N2PL (blocking) vs NTO (aborting) under rising contention",
            Box::new(xp::e4_n2pl_vs_nto),
        ),
        (
            "e5",
            "E5 — acceptance and soundness of the Theorem 2 / Theorem 5 tests",
            Box::new(|s| xp::e5_sg_checkers(60 * s)),
        ),
        (
            "e6",
            "E6 — mixed per-object intra-object policies + inter-object certifier",
            Box::new(xp::e6_mixed_cc),
        ),
        (
            "e7",
            "E7 — internal parallelism of methods (Par fan-out)",
            Box::new(xp::e7_internal_parallelism),
        ),
        (
            "e8",
            "E8 — cost of the core-model analyses as histories grow",
            Box::new(xp::e8_core_scaling),
        ),
        (
            "e9",
            "E9 — backend face-off: simulator vs multi-threaded engine (wall clock)",
            Box::new(xp::e9_backend_faceoff),
        ),
        (
            "e10",
            "E10 — worker-scaling curves of the parallel backend (wall clock)",
            Box::new(xp::e10_worker_scaling),
        ),
        (
            "e11",
            "E11 — durability: throughput vs group-commit window of the WAL backend",
            Box::new(xp::e11_durability),
        ),
        (
            "e12",
            "E12 — observability overhead: observation plans vs the no-observer baseline",
            Box::new(xp::e12_observer_overhead),
        ),
        (
            "e14",
            "E14 — op cost vs object size: one Insert on a shared dictionary state",
            Box::new(xp::e14_op_cost_vs_object_size),
        ),
        (
            "e15",
            "E15 — batch-of-one cost: one transaction through Runtime::run as the server runs a batch",
            Box::new(xp::e15_batch_of_one),
        ),
    ];

    let mut results: Vec<(&str, &str, Vec<xp::Row>)> = Vec::new();
    for (key, title, f) in experiments {
        if !want(key) {
            continue;
        }
        eprintln!("running {key}...");
        let rows = f(scale);
        println!("{}", xp::render_table(title, &rows));
        results.push((key, title, rows));
    }
    if assert_scaling {
        let e10 = results
            .iter()
            .find(|(key, _, _)| *key == "e10")
            .map(|(_, _, rows)| rows.as_slice())
            .expect("--assert-scaling requires the e10 experiment to run");
        match xp::check_scaling_guard(e10) {
            Ok(()) => eprintln!("scaling guard: ok (8 workers ≥ 1 worker on low contention)"),
            Err(msg) => {
                eprintln!("scaling guard FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    if assert_durability {
        let e11 = results
            .iter()
            .find(|(key, _, _)| *key == "e11")
            .map(|(_, _, rows)| rows.as_slice())
            .expect("--assert-durability requires the e11 experiment to run");
        match xp::check_durability_guard(e11) {
            Ok(()) => eprintln!("durability guard: ok (group commit 8 ≥ 3× fsync-per-record)"),
            Err(msg) => {
                eprintln!("durability guard FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    if assert_overhead {
        let e12 = results
            .iter()
            .find(|(key, _, _)| *key == "e12")
            .map(|(_, _, rows)| rows.as_slice())
            .expect("--assert-overhead requires the e12 experiment to run");
        match xp::check_observer_guard(e12) {
            Ok(()) => eprintln!("observer guard: ok (NullObserver ≥ 97% of no-observer baseline)"),
            Err(msg) => {
                eprintln!("observer guard FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    if assert_flat {
        type Guard = fn(&[xp::Row]) -> Result<(), String>;
        let guards: [(&str, Guard, &str); 2] = [
            (
                "e14",
                xp::check_flat_guard,
                "Insert on 65536 keys ≤ 4× on 64 keys",
            ),
            (
                "e15",
                xp::check_run_flat_guard,
                "a run over 2048 accounts ≤ 2× over 256",
            ),
        ];
        let mut checked = 0;
        for (key, guard, claim) in guards {
            let Some((_, _, rows)) = results.iter().find(|(k, _, _)| *k == key) else {
                continue;
            };
            checked += 1;
            match guard(rows) {
                Ok(()) => eprintln!("flat-cost guard ({key}): ok ({claim})"),
                Err(msg) => {
                    eprintln!("flat-cost guard ({key}) FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        assert!(
            checked > 0,
            "--assert-flat requires the e14 or e15 experiment to run"
        );
    }
    // Since the write below merges, a subset run refreshes only the entries
    // it ran — so BENCH_results.json is a safe default --out even for
    // subsets (a typo'd key simply merges nothing).
    let out_path = out_path.unwrap_or_else(|| "BENCH_results.json".to_owned());
    // Merge into the existing results document so entries produced by other
    // runs — the `scenarios` binary's `"scenarios"` key, or families this
    // run skipped — survive.
    xp::merge_results(&out_path, xp::results_json(&results)).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("wrote {out_path} ({} experiments merged)", results.len());
}
