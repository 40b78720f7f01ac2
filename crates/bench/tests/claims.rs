//! Every claim over a CI-sized sweep of 16 seeds, and the `experiments`
//! binary's refusal of arguments it does not know.
//!
//! `experiments claims --assert` runs the full 64-seed sweep.

use obase_bench::claims::{check_claims, claims};
use std::process::Command;

#[test]
fn every_claim_holds_on_16_seeds() {
    let rows: Vec<_> = claims().iter().map(|claim| claim.sweep(16)).collect();
    for row in &rows {
        eprintln!("{}: {:?}", row.label, row.values);
    }
    check_claims(&rows).unwrap();
}

/// Runs the binary in a fresh directory, so a run that wrongly goes ahead
/// leaves its results file there rather than in the package.
fn experiments(args: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("obase-experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("the experiments binary starts");
    let wrote = dir.join("BENCH_results.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!wrote, "{args:?} ran experiments and wrote results");
    output
}

#[test]
fn unknown_flags_and_keys_exit_non_zero_with_the_usage() {
    for args in [
        &["e13", "--assert-read-scaling"][..],
        &["e10", "--assert-scaling"],
        &["e13"],
        &["e5", "--assert"],
        &["--scale"],
    ] {
        let output = experiments(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}
