//! The fuzzing front-end: seeded differential campaigns and bugbase replay.
//!
//! Usage:
//!
//! ```text
//! cargo run -p obase-bench --release --bin fuzz                     # 100 cases, seed 42
//! cargo run -p obase-bench --release --bin fuzz -- --budget-secs 60 # time-budgeted
//! cargo run -p obase-bench --release --bin fuzz -- --seed 7 --cases 25
//! cargo run -p obase-bench --release --bin fuzz -- --serve          # + the TCP wire leg
//! cargo run -p obase-bench --release --bin fuzz -- --replay         # corpus only
//! cargo run -p obase-bench --release --bin fuzz -- --fail-on-new    # CI smoke mode
//! ```
//!
//! A campaign's case *stream* is a pure function of `--seed`; `--budget-secs`
//! only decides how far down the stream the run gets, so a time-budgeted CI
//! job is sound — any case it reaches is a case a longer run would also have
//! reached. Every failure is auto-shrunk to a minimal reproducer and filed
//! (deduplicated by structural fingerprint) into the `--bugbase` directory.
//!
//! After the campaign (or with `--replay`, instead of one) the whole corpus
//! is re-run through the full differential battery: a red entry means a
//! previously-fixed bug regressed.
//!
//! Exit codes: `0` all green; `1` the campaign found new bugs and
//! `--fail-on-new` was set, or a corpus entry regressed; `2` usage or
//! corpus-loading error.
//!
//! Campaign statistics (cases, runs, coverage, bug fingerprints) merge into
//! `BENCH_results.json` under the `"fuzz"` key unless `--out` says
//! otherwise.

use obase_fuzz::{bugbase, campaign, DiffConfig, FuzzConfig};
use obase_ser::Json;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FuzzConfig::default();
    let mut bugbase_dir = PathBuf::from("bugbase");
    let mut workers: Vec<usize> = vec![1, 2, 8];
    let mut durable = true;
    let mut serve = false;
    let mut replay_only = false;
    let mut fail_on_new = false;
    let mut out_path: Option<String> = None;

    let usage = "usage: fuzz [--seed N] [--budget-secs N] [--cases N] \
                 [--workers CSV] [--no-durable] [--serve] [--bugbase DIR] [--replay] \
                 [--fail-on-new] [--shrink-tries N] [--out PATH]";
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} takes a value\n{usage}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--seed" => cfg.seed = parse(&next("--seed"), "--seed"),
            "--budget-secs" => {
                cfg.budget = Some(Duration::from_secs(parse(
                    &next("--budget-secs"),
                    "--budget-secs",
                )));
            }
            "--cases" => cfg.max_cases = Some(parse(&next("--cases"), "--cases")),
            "--workers" => {
                workers = next("--workers")
                    .split(',')
                    .map(|w| parse(w, "--workers"))
                    .collect();
            }
            "--no-durable" => durable = false,
            "--serve" => serve = true,
            "--bugbase" => bugbase_dir = PathBuf::from(next("--bugbase")),
            "--replay" => replay_only = true,
            "--fail-on-new" => fail_on_new = true,
            "--shrink-tries" => cfg.shrink_tries = parse(&next("--shrink-tries"), "--shrink-tries"),
            "--out" => out_path = Some(next("--out")),
            "--help" | "-h" => {
                println!("{usage}");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    cfg.diff = DiffConfig {
        workers,
        durable,
        serve,
        ..Default::default()
    };
    cfg.bugbase = Some(bugbase_dir.clone());

    let mut failed = false;

    if !replay_only {
        eprintln!(
            "fuzzing: seed {}, {}, workers {:?}, durable {}, serve {}...",
            cfg.seed,
            match (cfg.max_cases, cfg.budget) {
                (Some(n), _) => format!("{n} cases"),
                (None, Some(b)) => format!("{}s budget", b.as_secs()),
                (None, None) => "100 cases".to_owned(),
            },
            cfg.diff.workers,
            cfg.diff.durable,
            cfg.diff.serve,
        );
        let outcome = campaign::run_campaign(&cfg);
        println!(
            "campaign: {} cases, {} runs, {} commits, {} recoveries in {:.1}s",
            outcome.cases,
            outcome.runs,
            outcome.committed,
            outcome.recoveries,
            outcome.elapsed.as_secs_f64(),
        );
        for bug in &outcome.bugs {
            println!(
                "NEW BUG {} [{}] on {} under {}: {}",
                bug.fingerprint,
                bug.kind.key(),
                bug.backend,
                bug.spec,
                bug.detail,
            );
            println!("  filed as {}", bugbase_dir.join(bug.file_name()).display());
        }
        if outcome.duplicates > 0 {
            println!("({} duplicate failure(s) deduplicated)", outcome.duplicates);
        }
        write_results(&cfg, &outcome, out_path.as_deref());
        if !outcome.bugs.is_empty() && fail_on_new {
            eprintln!(
                "{} new bug(s) filed — failing (--fail-on-new)",
                outcome.bugs.len()
            );
            failed = true;
        }
    }

    // Replay the whole corpus through the full battery — the forever-green
    // regression contract.
    match bugbase::replay_all(&bugbase_dir, &cfg.diff) {
        Ok(results) => {
            let mut red = 0usize;
            for (entry, result) in &results {
                if let Err(f) = result {
                    red += 1;
                    println!(
                        "REGRESSED {} [{}] on {} under {}: {}",
                        entry.fingerprint,
                        f.kind.key(),
                        f.backend,
                        f.spec,
                        f.detail,
                    );
                }
            }
            if red == 0 {
                println!("bugbase replay green: {} entries", results.len());
            } else {
                eprintln!("bugbase replay: {red}/{} entries regressed", results.len());
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("cannot replay bugbase {}: {e}", bugbase_dir.display());
            std::process::exit(2);
        }
    }

    if failed {
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.trim().parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {s:?}");
        std::process::exit(2);
    })
}

/// Merges the campaign's statistics into the shared results document under
/// the `"fuzz"` key, preserving entries written by the other binaries.
fn write_results(cfg: &FuzzConfig, outcome: &campaign::CampaignOutcome, out: Option<&str>) {
    let out_path = out.unwrap_or("BENCH_results.json");
    let stats = Json::object([
        ("seed", Json::Int(cfg.seed as i64)),
        ("cases", Json::Int(outcome.cases as i64)),
        ("runs", Json::Int(outcome.runs as i64)),
        ("committed", Json::Int(outcome.committed as i64)),
        ("recoveries", Json::Int(outcome.recoveries as i64)),
        ("elapsed_secs", Json::Float(outcome.elapsed.as_secs_f64())),
        ("coverage", outcome.coverage.to_json()),
        (
            "new_bugs",
            Json::Array(
                outcome
                    .bugs
                    .iter()
                    .map(|b| Json::Str(b.fingerprint.clone()))
                    .collect(),
            ),
        ),
        ("duplicates", Json::Int(outcome.duplicates as i64)),
    ]);
    if let Err(e) = obase_bench::merge_results(out_path, Json::object([("fuzz", stats)])) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    eprintln!("merged campaign stats into {out_path}");
}
