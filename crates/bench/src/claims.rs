//! The paper's comparisons as claims checked over a seed sweep.
//!
//! A claim reads "A beats B on metric M": at each seed, side A's run scores
//! strictly lower than side B's per committed transaction, so a side that
//! gives transactions up after its retries pays for them instead of
//! winning by doing less work. Each seed `i` compiles the claim's scenario
//! with seed `i` and runs it on the simulator with interleaving seed `i`,
//! so rounds, blocks and aborts are exact and host load cannot move them.
//! A claim holds when A wins on at least [`WIN_SHARE`] of the seeds. The
//! `experiments` keys `e1`-`e4`, `e6` and `e7` sweep their claims over
//! [`SEEDS`] seeds (`claims` selects all six), and `tests/claims.rs` a
//! 16-seed prefix.

use crate::experiments::{checked_run, Row};
use obase_exec::RunMetrics;
use obase_runtime::{ExecutionBackend, Observe, SchedulerSpec};
use obase_scenario::{shapes, Scenario};

/// The share of seeds on which A must beat B.
pub const WIN_SHARE: f64 = 0.9;

/// Seeds in the full sweep.
pub const SEEDS: u64 = 64;

/// What a claim compares, lower being better: its name, and how to read
/// it off a run.
pub type Metric = (&'static str, fn(&RunMetrics) -> f64);

/// Simulator rounds until every transaction settled (the makespan).
pub const ROUNDS: Metric = ("rounds", |m| m.rounds as f64);
/// Times a request was blocked.
pub const BLOCKED: Metric = ("blocked requests", |m| m.blocked_events as f64);
/// Aborted attempts.
pub const ABORTS: Metric = ("aborts", |m| m.aborts as f64);

/// One side of a claim: its label and the scheduler it runs.
pub type Side = (&'static str, SchedulerSpec);

/// "A beats B on `metric`", with the paper section it reproduces.
pub struct Claim {
    /// The claim's key: its experiment (`e1` … `e7`), and a suffix where
    /// the experiment makes more than one claim.
    pub key: &'static str,
    /// The paper section the comparison reproduces.
    pub section: &'static str,
    /// The workload, in words.
    pub workload: &'static str,
    /// The workload at its default seed; the argument is `true` for side A.
    pub scenario: fn(bool) -> Scenario,
    /// What is compared.
    pub metric: Metric,
    /// The side that should score lower.
    pub a: Side,
    /// The side it is compared with.
    pub b: Side,
}

impl Claim {
    /// The claim in one line.
    pub fn statement(&self) -> String {
        format!(
            "{} ({}): {} beats {} on {} per commit — {}",
            self.key, self.section, self.a.0, self.b.0, self.metric.0, self.workload
        )
    }

    /// The experiment the claim belongs to: its key up to any suffix.
    pub fn experiment(&self) -> &'static str {
        self.key.split('-').next().unwrap_or(self.key)
    }

    /// Runs both sides at seeds `0..seeds`. The row carries the medians of
    /// A's and B's metric per committed transaction (`median_a`,
    /// `median_b`), the transactions each side committed over all seeds
    /// (`committed_a`, `committed_b`), and the share of seeds A won
    /// (`win_share`).
    pub fn sweep(&self, seeds: u64) -> Row {
        let runs: Vec<(RunMetrics, RunMetrics)> = (0..seeds)
            .map(|seed| (self.simulate(true, seed), self.simulate(false, seed)))
            .collect();
        // A run that commits nothing has paid for nothing.
        let metric = |m: &RunMetrics| match m.committed {
            0 => f64::INFINITY,
            n => (self.metric.1)(m) / n as f64,
        };
        let wins = runs.iter().filter(|(a, b)| metric(a) < metric(b)).count();
        let median_of = |side: fn(&(RunMetrics, RunMetrics)) -> &RunMetrics| {
            let mut xs: Vec<f64> = runs.iter().map(|r| metric(side(r))).collect();
            xs.sort_by(f64::total_cmp);
            (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
        };
        let committed = |side: fn(&(RunMetrics, RunMetrics)) -> &RunMetrics| {
            runs.iter().map(|r| side(r).committed).sum::<usize>() as f64
        };
        Row::new(self.statement())
            .with("median_a", median_of(|r| &r.0))
            .with("median_b", median_of(|r| &r.1))
            .with("committed_a", committed(|r| &r.0))
            .with("committed_b", committed(|r| &r.1))
            .with("win_share", wins as f64 / seeds as f64)
            .with("seeds", seeds as f64)
    }

    /// One seeded simulator run of side A (or B), held to the quick oracle.
    fn simulate(&self, a: bool, seed: u64) -> RunMetrics {
        let mut scenario = (self.scenario)(a);
        scenario.seed = seed;
        let spec = if a { &self.a.1 } else { &self.b.1 };
        let workload = scenario.compile();
        checked_run(
            &scenario,
            &workload,
            spec.clone(),
            ExecutionBackend::Simulated,
            Observe::Off,
        )
        .metrics
    }
}

/// Every claim, in experiment order.
pub fn claims() -> Vec<Claim> {
    use SchedulerSpec as S;
    let e4: fn(bool) -> Scenario = |_| shapes::dictionary(2, 16, 24, 3, 0.4, 1.4);
    vec![
        Claim {
            key: "e1",
            section: "§5.1",
            workload: "banking, 4 accounts, Zipf 0.6",
            scenario: |_| shapes::banking(4, 24, 0.6),
            metric: ROUNDS,
            a: ("n2pl-step", S::n2pl_step()),
            b: ("flat-excl", S::flat_exclusive()),
        },
        Claim {
            key: "e2",
            section: "§5.1",
            workload: "one FIFO queue preloaded with 16 items",
            scenario: |_| shapes::queues(1, 20, 16),
            metric: ROUNDS,
            a: ("n2pl-step", S::n2pl_step()),
            b: ("n2pl-op", S::n2pl_operation()),
        },
        Claim {
            key: "e3",
            section: "Definition 3",
            workload: "2 hot counters, 3 touches, 10% readers",
            scenario: |_| shapes::counters(2, 24, 3, 0.1, 1.0),
            metric: ROUNDS,
            a: ("n2pl-op", S::n2pl_operation()),
            b: ("flat-rw", S::flat_read_write()),
        },
        Claim {
            key: "e4-block",
            section: "§5.1 against §5.2",
            workload: "2 dictionaries of 16 keys, Zipf 1.4",
            scenario: e4,
            metric: BLOCKED,
            a: ("nto-cons", S::nto_conservative()),
            b: ("n2pl-op", S::n2pl_operation()),
        },
        Claim {
            key: "e4-abort",
            section: "§5.1 against §5.2",
            workload: "2 dictionaries of 16 keys, Zipf 1.4",
            scenario: e4,
            metric: ABORTS,
            a: ("n2pl-op", S::n2pl_operation()),
            b: ("nto-cons", S::nto_conservative()),
        },
        Claim {
            key: "e6",
            section: "§2 and §6",
            workload: "3 dictionaries of 32 keys, Zipf 0.8",
            scenario: |_| shapes::dictionary(3, 32, 30, 4, 0.5, 0.8),
            metric: ROUNDS,
            a: (
                "step locks + certifier",
                S::mixed_with_default(S::n2pl_step()),
            ),
            b: ("flat-excl", S::flat_exclusive()),
        },
        Claim {
            key: "e7",
            section: "§3(c)",
            workload: "orders of 4 line items, n2pl-op",
            scenario: |parallel| shapes::orders(16, 4, parallel),
            metric: ROUNDS,
            a: ("Par", S::n2pl_operation()),
            b: ("Seq", S::n2pl_operation()),
        },
    ]
}

/// One row per claim of `experiment`, each over `seeds` seeds (see
/// [`Claim::sweep`]).
pub fn claim_rows(experiment: &str, seeds: u64) -> Vec<Row> {
    claims()
        .iter()
        .filter(|c| c.experiment() == experiment)
        .map(|c| c.sweep(seeds))
        .collect()
}

/// The guard over claim rows: there are claims, and every one holds.
pub fn check_claims(rows: &[Row]) -> Result<(), String> {
    let lost: Vec<&str> = rows
        .iter()
        .filter(|r| r.values.get("win_share").is_none_or(|&w| w < WIN_SHARE))
        .map(|r| r.label.as_str())
        .collect();
    if rows.is_empty() || !lost.is_empty() {
        return Err(format!(
            "no claims, or A won on fewer than {WIN_SHARE} of the seeds: {lost:?}"
        ));
    }
    Ok(())
}
