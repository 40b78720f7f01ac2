//! Parametric scenario shapes behind the paper's comparisons.
//!
//! Each function returns a plain [`Scenario`] (seed 1, 8 clients, one
//! `n2pl-op` spec; set the fields you need) for one workload family the
//! experiments, the tests and the examples sweep:
//!
//! * [`banking`] — withdrawals, deposits and audits over accounts;
//! * [`counters`] — a counter hotspot (increments commute, reads do not);
//! * [`queues`] — producers and consumers over FIFO queues (Section 5.1);
//! * [`dictionary`] — lookups, inserts and deletes over dictionaries;
//! * [`orders`] — nested line items over inventories, in `Seq` or `Par`.
//!
//! A class reads either always or never where the comparison rests on the
//! read share: a leaf body's read/write mix is drawn once per method
//! variant, so a 10% read fraction could make a hot object's reads 0% or
//! 50% depending on the seed, while a 1-in-10 read-only class keeps it at
//! 10% on every seed.

use crate::spec::{AdtKind, ClientClass, KeyDist, ObjectGroup, Scenario};
use obase_runtime::SchedulerSpec;

/// A scenario over one group, named after it: seed 1, 8 clients, `n2pl-op`.
fn one_group(group: ObjectGroup, transactions: usize, mix: Vec<ClientClass>) -> Scenario {
    let name = group.name.clone();
    let spec = SchedulerSpec::n2pl_operation();
    let mut scenario = Scenario::new(&name, 1, transactions, vec![group], mix, vec![spec]);
    scenario.clients = 8;
    scenario
}

/// The opening balance of a [`banking`] account: low enough that a few
/// dozen transactions on a hot account make some withdrawals fail.
pub const OPENING_BALANCE: i64 = 10;

/// Four in five transactions move money with two calls on accounts, each
/// call withdrawing or depositing 1-9 (half of them withdraw); the rest
/// read two balances. Accounts are picked with Zipf skew `theta` and open
/// with [`OPENING_BALANCE`], so a withdrawal can fail.
pub fn banking(accounts: usize, transactions: usize, theta: f64) -> Scenario {
    let dist = KeyDist::HotKey { theta };
    one_group(
        ObjectGroup::new(
            "banking",
            AdtKind::Account,
            accounts,
            OPENING_BALANCE as usize,
        ),
        transactions,
        vec![
            ClientClass::new("pay", "banking", 1, 0.0, dist)
                .weight(4)
                .nesting(1, 2, false),
            ClientClass::new("audit", "banking", 1, 1.0, dist).nesting(1, 2, false),
        ],
    )
}

/// Each transaction touches `width` counters picked with Zipf skew `theta`;
/// a `read_share` of the transactions read them, the rest add to them.
pub fn counters(
    counters: usize,
    transactions: usize,
    width: usize,
    read_share: f64,
    theta: f64,
) -> Scenario {
    let dist = KeyDist::HotKey { theta };
    let reads = (read_share * 100.0).round() as u32;
    let class = |name: &str, read_fraction: f64, weight: u32| {
        ClientClass::new(name, "counters", 1, read_fraction, dist)
            .weight(weight)
            .nesting(1, width, false)
    };
    one_group(
        ObjectGroup::new("counters", AdtKind::Counter, counters, 0),
        transactions,
        [class("add", 0.0, 100 - reads), class("read", 1.0, reads)]
            .into_iter()
            .filter(|c| c.weight > 0)
            .collect(),
    )
}

/// Producers and consumers in equal shares, one item each, over `queues`
/// queues preloaded with `preload` items.
pub fn queues(queues: usize, transactions: usize, preload: usize) -> Scenario {
    one_group(
        ObjectGroup::new("queues", AdtKind::Queue, queues, preload),
        transactions,
        vec![
            ClientClass::new("produce", "queues", 1, 0.0, KeyDist::Uniform),
            ClientClass::new("consume", "queues", 1, 1.0, KeyDist::Uniform),
        ],
    )
}

/// Each transaction makes `width` calls on dictionaries of `keys` preloaded
/// keys, dictionaries and keys picked with Zipf skew `theta`; a call looks
/// its key up with probability `read_fraction`, else inserts or deletes it.
pub fn dictionary(
    dictionaries: usize,
    keys: usize,
    transactions: usize,
    width: usize,
    read_fraction: f64,
    theta: f64,
) -> Scenario {
    one_group(
        ObjectGroup::new("dictionary", AdtKind::Dictionary, dictionaries, keys),
        transactions,
        vec![ClientClass::new(
            "kv",
            "dictionary",
            1,
            read_fraction,
            KeyDist::HotKey { theta },
        )
        .nesting(1, width, false)],
    )
}

/// Orders of `items` line items over eight inventories of 32 items. Each
/// line item reserves on one inventory, which updates a second one (a
/// depth-2 call chain); the items run as a `Par` block when `parallel`.
pub fn orders(transactions: usize, items: usize, parallel: bool) -> Scenario {
    one_group(
        ObjectGroup::new("orders", AdtKind::Dictionary, 8, 32),
        transactions,
        vec![
            ClientClass::new("order", "orders", 2, 0.5, KeyDist::Uniform)
                .nesting(2, items, parallel),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_runtime::{ExecutionBackend, RunReport};

    fn run(scenario: &Scenario, spec: SchedulerSpec) -> RunReport {
        let report = scenario
            .run(&spec, ExecutionBackend::Simulated)
            .expect("a shape compiles and runs");
        report.assert_serialisable();
        report
    }

    #[test]
    fn banking_has_the_expected_shape() {
        let wl = banking(4, 10, 0.0).compile();
        assert_eq!(wl.def.base().len(), 4);
        assert_eq!(wl.transactions.len(), 10);
        // Four leaf variants per class and account.
        assert_eq!(wl.def.method_count(), 4 * 2 * 4);
        let ops = format!("{:?}", wl.def);
        assert!(ops.contains("Withdraw") && ops.contains("Deposit"));
    }

    #[test]
    fn banking_runs_and_balances_add_up() {
        let (mut withdrawn, mut failed) = (0, 0);
        for seed in 0..4 {
            let mut scenario = banking(4, 24, 0.6);
            scenario.seed = seed;
            scenario.clients = 3;
            let report = run(&scenario, SchedulerSpec::n2pl_operation());
            assert_eq!(report.metrics.committed, 24, "seed {seed}");
            // The committed calls account for every unit: a deposit adds its
            // amount, a withdrawal takes it when it returns true and nothing
            // when it fails.
            let history = report.history.committed_projection();
            let mut moved = 0;
            for step in history.steps().iter().filter_map(|s| s.as_local()) {
                let amount = step.op.arg_int(0).unwrap_or(0);
                match (step.op.name.as_str(), step.ret.as_bool()) {
                    ("Deposit", _) => moved += amount,
                    ("Withdraw", Some(true)) => {
                        (moved, withdrawn) = (moved - amount, withdrawn + 1)
                    }
                    ("Withdraw", _) => failed += 1,
                    _ => {}
                }
            }
            let finals = obase_core::replay::final_states(&history).unwrap();
            let untouched = 4 - finals.len() as i64;
            let total: i64 = finals.values().filter_map(|v| v.as_int()).sum();
            assert_eq!(
                total + untouched * OPENING_BALANCE,
                4 * OPENING_BALANCE + moved,
                "seed {seed}"
            );
        }
        assert!(
            withdrawn > 0 && failed > 0,
            "{withdrawn} withdrawals, {failed} failed"
        );
    }

    #[test]
    fn counters_without_readers_never_block_under_semantic_locks() {
        let report = run(
            &counters(2, 8, 3, 0.0, 0.8),
            SchedulerSpec::n2pl_operation(),
        );
        assert_eq!(report.metrics.committed, 8);
        assert_eq!(report.metrics.blocked_events, 0);
    }

    #[test]
    fn queues_run_under_step_locks() {
        let report = run(&queues(1, 10, 4), SchedulerSpec::n2pl_step());
        assert_eq!(report.metrics.committed, 10);
    }

    #[test]
    fn dictionaries_run_legally() {
        let report = run(
            &dictionary(1, 16, 10, 4, 0.6, 0.6),
            SchedulerSpec::n2pl_operation(),
        );
        assert_eq!(report.metrics.committed, 10);
        assert_eq!(report.checks.legal, Some(true));
    }

    #[test]
    fn orders_nest_and_run() {
        let report = run(&orders(8, 3, true), SchedulerSpec::n2pl_operation());
        assert_eq!(report.metrics.committed, 8);
        // Three line items of a two-deep chain each: more executions than
        // transactions.
        assert!(report.history.exec_count() > 8 * 3);
    }

    #[test]
    fn shapes_compile_deterministically() {
        for s in [
            banking(4, 8, 0.6),
            counters(2, 8, 2, 0.2, 1.0),
            queues(2, 8, 4),
            dictionary(2, 8, 8, 3, 0.5, 0.8),
            orders(8, 4, true),
        ] {
            let (a, b) = (s.compile(), s.compile());
            for (x, y) in a.transactions.iter().zip(&b.transactions) {
                assert_eq!(x.body, y.body, "{} compiled differently", s.name);
            }
        }
    }
}
