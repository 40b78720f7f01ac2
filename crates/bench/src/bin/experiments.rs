//! The experiment harness binary: prints the experiment tables, records
//! their rows in `BENCH_results.json`, and with `--assert` runs the guard
//! of every selected experiment that has one.
//!
//! Usage:
//!
//! ```text
//! cargo run -p obase-bench --release --bin experiments                 # every experiment
//! cargo run -p obase-bench --release --bin experiments -- e2 e4        # a subset
//! cargo run -p obase-bench --release --bin experiments -- claims --assert   # e1-e4, e6, e7
//! cargo run -p obase-bench --release --bin experiments -- --scale 2
//! cargo run -p obase-bench --release --bin experiments -- --out results.json
//! ```
//!
//! Markdown tables go to stdout; the same rows are *merged* as JSON, keyed
//! by experiment, into `BENCH_results.json` in the working directory unless
//! `--out` says otherwise, so entries written by other runs survive. The
//! selected experiments run once each, in table order; the key `claims`
//! selects every experiment that states claims. An unknown
//! flag or key prints the usage and exits with status 2 before anything
//! runs; a failed guard exits with status 1.

use obase_bench as xp;
use xp::Row;

/// A guard over an experiment's rows, and what it holds when it passes.
type Guard = (fn(&[Row]) -> Result<(), String>, &'static str);

/// One experiment: key, title, the rows it produces at a scale, and the
/// guard `--assert` runs on them.
struct Experiment {
    key: &'static str,
    title: &'static str,
    run: fn(usize) -> Vec<Row>,
    guard: Option<Guard>,
}

/// The guard of every claim experiment.
const CLAIMS: Guard = (xp::check_claims, "A wins on ≥ 90% of the seeds");

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        key: "e1",
        title: "E1 — nested step locks vs the flat object-granularity baseline (banking, 64 seeds)",
        run: |scale| xp::claim_rows("e1", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e2",
        title: "E2 — step-level vs operation-level locks on a FIFO queue (64 seeds)",
        run: |scale| xp::claim_rows("e2", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e3",
        title: "E3 — semantic (commutativity) conflicts vs read/write conflicts (64 seeds)",
        run: |scale| xp::claim_rows("e3", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e4",
        title: "E4 — N2PL blocks where NTO aborts, under a hot key (64 seeds)",
        run: |scale| xp::claim_rows("e4", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e5",
        title: "E5 — acceptance and soundness of the Theorem 2 / Theorem 5 tests",
        run: |scale| xp::e5_sg_checkers(60 * scale),
        guard: None,
    },
    Experiment {
        key: "e6",
        title: "E6 — per-object step locks + the inter-object certifier vs flat locks (64 seeds)",
        run: |scale| xp::claim_rows("e6", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e7",
        title: "E7 — internal parallelism of methods: Par vs Seq line items (64 seeds)",
        run: |scale| xp::claim_rows("e7", xp::SEEDS * scale as u64),
        guard: Some(CLAIMS),
    },
    Experiment {
        key: "e8",
        title: "E8 — cost of the core-model analyses as histories grow",
        run: xp::e8_core_scaling,
        guard: None,
    },
    Experiment {
        key: "e9",
        title: "E9 — backend face-off: simulator vs multi-threaded engine (wall clock)",
        run: xp::e9_backend_faceoff,
        guard: None,
    },
    Experiment {
        key: "e10",
        title: "E10 — worker-scaling curves of the parallel backend (wall clock)",
        run: xp::e10_worker_scaling,
        guard: Some((
            xp::check_scaling_guard,
            "8 workers ≥ 0.6 × 1 worker on low contention",
        )),
    },
    Experiment {
        key: "e11",
        title: "E11 — durability: throughput vs group-commit window of the WAL backend",
        run: xp::e11_durability,
        guard: Some((
            xp::check_durability_guard,
            "group commit 8 ≥ 3× fsync-per-record",
        )),
    },
    Experiment {
        key: "e12",
        title: "E12 — observability overhead: observation plans vs the no-observer baseline",
        run: xp::e12_observer_overhead,
        guard: Some((
            xp::check_observer_guard,
            "NullObserver ≥ 97% of the no-observer baseline",
        )),
    },
    Experiment {
        key: "e14",
        title: "E14 — op cost vs object size: one Insert on a shared dictionary state",
        run: xp::e14_op_cost_vs_object_size,
        guard: Some((
            xp::check_flat_guard,
            "Insert on 65536 keys ≤ 4× on 64 keys",
        )),
    },
    Experiment {
        key: "e15",
        title: "E15 — batch-of-one cost: one transaction through Runtime::run as the server runs a batch",
        run: xp::e15_batch_of_one,
        guard: Some((
            xp::check_run_flat_guard,
            "a run over 2048 accounts ≤ 2× over 256",
        )),
    },
];

/// What the command line asks for.
struct Args {
    selected: Vec<&'static Experiment>,
    scale: usize,
    out: String,
    assert: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        selected: Vec::new(),
        scale: 1,
        out: "BENCH_results.json".to_owned(),
        assert: false,
    };
    // Selected keys; the experiments run once each, in table order.
    let mut keys: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                parsed.scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&s| s > 0)
                    .ok_or("--scale takes a positive integer")?;
            }
            "--out" => parsed.out = args.next().ok_or("--out takes a path")?,
            "--assert" => parsed.assert = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            "claims" => keys.extend(xp::claims().iter().map(|c| c.experiment().to_owned())),
            key => {
                let key = key.to_lowercase();
                if !EXPERIMENTS.iter().any(|e| e.key == key) {
                    return Err(format!("unknown experiment {key}"));
                }
                keys.push(key);
            }
        }
    }
    parsed.selected = EXPERIMENTS
        .iter()
        .filter(|e| keys.is_empty() || keys.iter().any(|k| k == e.key))
        .collect();
    if parsed.assert && parsed.selected.iter().all(|e| e.guard.is_none()) {
        return Err("--assert: none of the selected experiments has a guard".into());
    }
    Ok(parsed)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        let keys: Vec<&str> = EXPERIMENTS.iter().map(|e| e.key).collect();
        eprintln!(
            "experiments: {e}\nusage: experiments [KEY ...] [--scale N] [--out PATH] [--assert]\n  \
             keys: {} claims (= every claim experiment)\n  \
             --assert runs the guard of every selected experiment that has one",
            keys.join(" ")
        );
        std::process::exit(2);
    });
    let mut results: Vec<(&str, &str, Vec<Row>)> = Vec::new();
    let mut failed = false;
    for experiment in args.selected {
        eprintln!("running {}...", experiment.key);
        let rows = (experiment.run)(args.scale);
        println!("{}", xp::render_table(experiment.title, &rows));
        if let (true, Some((guard, holds))) = (args.assert, experiment.guard) {
            match guard(&rows) {
                Ok(()) => eprintln!("{} guard: ok ({holds})", experiment.key),
                Err(msg) => {
                    eprintln!("{} guard FAILED: {msg}", experiment.key);
                    failed = true;
                }
            }
        }
        results.push((experiment.key, experiment.title, rows));
    }
    xp::merge_results(&args.out, xp::results_json(&results)).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("wrote {} ({} experiments merged)", args.out, results.len());
    if failed {
        std::process::exit(1);
    }
}
