//! Workload generators.
//!
//! Each generator produces a [`WorkloadSpec`]: an object base with method
//! definitions plus a stream of top-level transactions. All generators are
//! seeded and therefore reproducible.

use crate::skew::Zipf;
use obase_adt::{Account, Counter, Dictionary, FifoQueue};
use obase_core::ids::ObjectId;
use obase_core::object::ObjectBase;
use obase_core::value::Value;
use obase_exec::{Expr, MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
use std::sync::Arc;

/// Parameters of the banking workload: transfers and balance checks over a
/// set of account objects.
#[derive(Clone, Debug)]
pub struct BankingParams {
    /// Number of account objects.
    pub accounts: usize,
    /// Number of top-level transactions.
    pub transactions: usize,
    /// Initial balance of every account.
    pub initial_balance: i64,
    /// Zipf skew over accounts (0.0 = uniform).
    pub skew: f64,
    /// Fraction of transactions that are read-only audits (balance checks of
    /// two accounts) rather than transfers.
    pub audit_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BankingParams {
    fn default() -> Self {
        BankingParams {
            accounts: 16,
            transactions: 32,
            initial_balance: 1_000,
            skew: 0.0,
            audit_fraction: 0.2,
            seed: 1,
        }
    }
}

/// Builds the banking workload: every transaction either transfers an amount
/// between two distinct accounts (withdraw then deposit, each a nested method
/// execution) or audits two accounts.
pub fn banking(params: &BankingParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let account_ty = Arc::new(Account::with_initial(params.initial_balance));
    let ids: Vec<ObjectId> = (0..params.accounts)
        .map(|i| base.add_object(format!("account{i}"), account_ty.clone()))
        .collect();
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &a in &ids {
        def.define_method(
            a,
            MethodDef {
                name: "withdraw".into(),
                params: 1,
                body: Program::Local {
                    op: "Withdraw".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            a,
            MethodDef {
                name: "deposit".into(),
                params: 1,
                body: Program::Local {
                    op: "Deposit".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            a,
            MethodDef {
                name: "balance".into(),
                params: 0,
                body: Program::local("Balance", []),
            },
        );
    }
    let zipf = Zipf::new(ids.len(), params.skew);
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let transactions = (0..params.transactions)
        .map(|i| {
            let (from, to) = zipf.sample_pair(&mut rng);
            let amount = rng.gen_range(1..=20i64);
            if rng.gen_bool(params.audit_fraction.clamp(0.0, 1.0)) {
                TxnSpec {
                    name: format!("audit{i}"),
                    body: Program::Seq(vec![
                        Program::invoke(ids[from], "balance", []),
                        Program::invoke(ids[to], "balance", []),
                    ]),
                }
            } else {
                TxnSpec {
                    name: format!("transfer{i}"),
                    body: Program::Seq(vec![
                        Program::invoke(ids[from], "withdraw", [Value::Int(amount)]),
                        Program::invoke(ids[to], "deposit", [Value::Int(amount)]),
                    ]),
                }
            }
        })
        .collect();
    WorkloadSpec { def, transactions }
}

/// Parameters of the counter-hotspot workload.
#[derive(Clone, Debug)]
pub struct CounterParams {
    /// Number of counter objects.
    pub counters: usize,
    /// Number of top-level transactions.
    pub transactions: usize,
    /// Counters touched by each transaction.
    pub touches_per_txn: usize,
    /// Fraction of touches that read (`Get`) instead of increment.
    pub read_fraction: f64,
    /// Zipf skew over counters.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CounterParams {
    fn default() -> Self {
        CounterParams {
            counters: 8,
            transactions: 32,
            touches_per_txn: 3,
            read_fraction: 0.1,
            skew: 0.8,
            seed: 2,
        }
    }
}

/// Builds the counter-hotspot workload: transactions increment (mostly) or
/// read a few skewed-selected counters. Under a semantic scheduler the
/// increments commute; under read/write-style scheduling they all conflict.
pub fn counters(params: &CounterParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let ty = Arc::new(Counter::default());
    let ids: Vec<ObjectId> = (0..params.counters)
        .map(|i| base.add_object(format!("counter{i}"), ty.clone()))
        .collect();
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &c in &ids {
        def.define_method(
            c,
            MethodDef {
                name: "bump".into(),
                params: 1,
                body: Program::Local {
                    op: "Add".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            c,
            MethodDef {
                name: "read".into(),
                params: 0,
                body: Program::local("Get", []),
            },
        );
    }
    let zipf = Zipf::new(ids.len(), params.skew);
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let transactions = (0..params.transactions)
        .map(|i| {
            let steps: Vec<Program> = (0..params.touches_per_txn.max(1))
                .map(|_| {
                    let c = ids[zipf.sample(&mut rng)];
                    if rng.gen_bool(params.read_fraction.clamp(0.0, 1.0)) {
                        Program::invoke(c, "read", [])
                    } else {
                        Program::invoke(c, "bump", [Value::Int(1)])
                    }
                })
                .collect();
            TxnSpec {
                name: format!("count{i}"),
                body: Program::Seq(steps),
            }
        })
        .collect();
    WorkloadSpec { def, transactions }
}

/// Parameters of the producer/consumer queue workload.
#[derive(Clone, Debug)]
pub struct QueueParams {
    /// Number of queue objects.
    pub queues: usize,
    /// Number of producer transactions (each enqueues one item).
    pub producers: usize,
    /// Number of consumer transactions (each dequeues one item).
    pub consumers: usize,
    /// Items pre-loaded into each queue before the run.
    pub preload: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueueParams {
    fn default() -> Self {
        QueueParams {
            queues: 2,
            producers: 16,
            consumers: 16,
            preload: 8,
            seed: 3,
        }
    }
}

/// Builds the producer/consumer workload over FIFO queues. With step-level
/// (return-value-aware) conflicts, an enqueue only conflicts with the dequeue
/// that takes its item (Section 5.1), so pre-loaded queues let producers and
/// consumers run in parallel; operation-level conflicts serialise them.
pub fn queues(params: &QueueParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let ty = Arc::new(FifoQueue);
    let ids: Vec<ObjectId> = (0..params.queues)
        .map(|i| {
            let preload = (0..params.preload).map(|j| Value::Int((i * 10_000 + j) as i64));
            base.add_object_with_state(format!("queue{i}"), ty.clone(), Value::list(preload))
        })
        .collect();
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &q in &ids {
        def.define_method(
            q,
            MethodDef {
                name: "produce".into(),
                params: 1,
                body: Program::Local {
                    op: "Enqueue".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            q,
            MethodDef {
                name: "consume".into(),
                params: 0,
                body: Program::local("Dequeue", []),
            },
        );
    }
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let mut transactions = Vec::new();
    for i in 0..params.producers {
        let q = ids[rng.gen_range(0..ids.len())];
        transactions.push(TxnSpec {
            name: format!("produce{i}"),
            body: Program::invoke(q, "produce", [Value::Int(1_000_000 + i as i64)]),
        });
    }
    for i in 0..params.consumers {
        let q = ids[rng.gen_range(0..ids.len())];
        transactions.push(TxnSpec {
            name: format!("consume{i}"),
            body: Program::invoke(q, "consume", []),
        });
    }
    // Interleave producers and consumers deterministically.
    let mut shuffled = transactions;
    use obase_rng::SliceRandom;
    shuffled.shuffle(&mut rng);
    WorkloadSpec {
        def,
        transactions: shuffled,
    }
}

/// Parameters of the dictionary-mix workload.
#[derive(Clone, Debug)]
pub struct DictionaryParams {
    /// Number of dictionary objects.
    pub dictionaries: usize,
    /// Keys per dictionary.
    pub keys: usize,
    /// Number of top-level transactions.
    pub transactions: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Fraction of operations that are lookups.
    pub lookup_fraction: f64,
    /// Zipf skew over keys.
    pub key_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DictionaryParams {
    fn default() -> Self {
        DictionaryParams {
            dictionaries: 2,
            keys: 64,
            transactions: 32,
            ops_per_txn: 4,
            lookup_fraction: 0.6,
            key_skew: 0.6,
            seed: 4,
        }
    }
}

/// Builds the dictionary-mix workload: lookups, inserts and deletes against
/// dictionary objects (the paper's Section 2 example), with key-level skew.
pub fn dictionary(params: &DictionaryParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let ty = Arc::new(Dictionary);
    let ids: Vec<ObjectId> = (0..params.dictionaries)
        .map(|i| {
            let initial =
                Value::map((0..params.keys).map(|k| (format!("k{k}"), Value::Int(k as i64))));
            base.add_object_with_state(format!("dict{i}"), ty.clone(), initial)
        })
        .collect();
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &d in &ids {
        def.define_method(
            d,
            MethodDef {
                name: "lookup".into(),
                params: 1,
                body: Program::Local {
                    op: "Lookup".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        def.define_method(
            d,
            MethodDef {
                name: "put".into(),
                params: 2,
                body: Program::Local {
                    op: "Insert".into(),
                    args: vec![Expr::Param(0), Expr::Param(1)],
                },
            },
        );
        def.define_method(
            d,
            MethodDef {
                name: "remove".into(),
                params: 1,
                body: Program::Local {
                    op: "Delete".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
    }
    let key_dist = Zipf::new(params.keys.max(1), params.key_skew);
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let transactions = (0..params.transactions)
        .map(|i| {
            let ops: Vec<Program> = (0..params.ops_per_txn.max(1))
                .map(|_| {
                    let d = ids[rng.gen_range(0..ids.len())];
                    let key = Value::from(format!("k{}", key_dist.sample(&mut rng)));
                    let r: f64 = rng.gen_range(0.0..1.0);
                    if r < params.lookup_fraction {
                        Program::invoke(d, "lookup", [key])
                    } else if r < params.lookup_fraction + (1.0 - params.lookup_fraction) / 2.0 {
                        Program::invoke(d, "put", [key, Value::Int(rng.gen_range(0..1000i64))])
                    } else {
                        Program::invoke(d, "remove", [key])
                    }
                })
                .collect();
            TxnSpec {
                name: format!("dict{i}"),
                body: Program::Seq(ops),
            }
        })
        .collect();
    WorkloadSpec { def, transactions }
}

/// Parameters of the nested order-processing workload.
#[derive(Clone, Debug)]
pub struct OrdersParams {
    /// Number of order-desk objects (the entry point of each order).
    pub desks: usize,
    /// Number of inventory dictionaries.
    pub inventories: usize,
    /// Number of customer accounts.
    pub accounts: usize,
    /// Number of order transactions.
    pub transactions: usize,
    /// Line items per order (fan-out of the nested call tree).
    pub items_per_order: usize,
    /// Whether line items are processed in parallel (`Par`) or sequentially.
    pub parallel_items: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OrdersParams {
    fn default() -> Self {
        OrdersParams {
            desks: 2,
            inventories: 4,
            accounts: 8,
            transactions: 24,
            items_per_order: 3,
            parallel_items: false,
            seed: 5,
        }
    }
}

/// Builds the nested order-processing workload: each order transaction
/// invokes a `place` method on an order desk, which counts the order,
/// reserves each line item on an inventory dictionary (optionally in
/// parallel) and debits the customer's account — a three-level nested call
/// tree touching several objects, the shape the paper's model is about.
pub fn orders(params: &OrdersParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let desk_ty = Arc::new(Counter::default());
    let inv_ty = Arc::new(Dictionary);
    let acct_ty = Arc::new(Account::with_initial(10_000));
    let desks: Vec<ObjectId> = (0..params.desks)
        .map(|i| base.add_object(format!("desk{i}"), desk_ty.clone()))
        .collect();
    let inventories: Vec<ObjectId> = (0..params.inventories)
        .map(|i| {
            let initial = Value::map((0..32).map(|k| (format!("sku{k}"), Value::Int(100))));
            base.add_object_with_state(format!("inventory{i}"), inv_ty.clone(), initial)
        })
        .collect();
    let accounts: Vec<ObjectId> = (0..params.accounts)
        .map(|i| base.add_object(format!("customer{i}"), acct_ty.clone()))
        .collect();
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &inv in &inventories {
        def.define_method(
            inv,
            MethodDef {
                name: "reserve".into(),
                params: 2,
                body: Program::Seq(vec![
                    Program::Local {
                        op: "Lookup".into(),
                        args: vec![Expr::Param(0)],
                    },
                    Program::Local {
                        op: "Insert".into(),
                        args: vec![Expr::Param(0), Expr::Param(1)],
                    },
                ]),
            },
        );
    }
    for &a in &accounts {
        def.define_method(
            a,
            MethodDef {
                name: "debit".into(),
                params: 1,
                body: Program::Local {
                    op: "Withdraw".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
    }
    // The desk's `place` method: bump the order counter, then process the
    // line items (object and key parameters are baked into each order's
    // transaction program rather than the method, so the method itself only
    // counts; the nested structure comes from the transaction body).
    for &d in &desks {
        def.define_method(
            d,
            MethodDef {
                name: "record".into(),
                params: 0,
                body: Program::local("Add", [Value::Int(1)]),
            },
        );
    }

    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let transactions = (0..params.transactions)
        .map(|i| {
            let desk = desks[rng.gen_range(0..desks.len())];
            let account = accounts[rng.gen_range(0..accounts.len())];
            // Line items of one order use distinct SKUs, so the order's own
            // (possibly parallel) sub-transactions never conflict with each
            // other — contention comes from *other* orders.
            let mut skus: Vec<usize> = (0..32).collect();
            use obase_rng::SliceRandom as _;
            skus.shuffle(&mut rng);
            let items: Vec<Program> = skus
                .into_iter()
                .take(params.items_per_order.max(1))
                .map(|sku| {
                    let inv = inventories[rng.gen_range(0..inventories.len())];
                    let sku = Value::from(format!("sku{sku}"));
                    let qty = Value::Int(rng.gen_range(1..5i64));
                    Program::invoke(inv, "reserve", [sku, qty])
                })
                .collect();
            let line_items = if params.parallel_items {
                Program::Par(items)
            } else {
                Program::Seq(items)
            };
            TxnSpec {
                name: format!("order{i}"),
                body: Program::Seq(vec![
                    Program::invoke(desk, "record", []),
                    line_items,
                    Program::invoke(account, "debit", [Value::Int(rng.gen_range(1..50i64))]),
                ]),
            }
        })
        .collect();
    WorkloadSpec { def, transactions }
}

/// Parameters of the worker-scaling workload (experiment E10).
#[derive(Clone, Debug)]
pub struct ScalingParams {
    /// Number of counter objects.
    pub objects: usize,
    /// Number of top-level transactions.
    pub transactions: usize,
    /// Objects each transaction invokes a batch method on.
    pub invokes_per_txn: usize,
    /// Local operations inside each batch method execution. The per-step
    /// work (store + scheduler shard only, no lifecycle lock) dominates the
    /// per-invoke lifecycle work as this grows — exactly what worker
    /// scaling needs to show up on the wall clock.
    pub ops_per_invoke: usize,
    /// Fraction of local operations that read (`Get`) instead of add.
    /// Reads conflict with adds, so a hot-key variant with reads produces
    /// genuine blocking; pure adds commute and never conflict.
    pub read_fraction: f64,
    /// Zipf skew over objects (0.0 = uniform low contention; large values
    /// concentrate every transaction on one hot key).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScalingParams {
    fn default() -> Self {
        ScalingParams {
            objects: 64,
            transactions: 256,
            invokes_per_txn: 4,
            ops_per_invoke: 8,
            read_fraction: 0.2,
            skew: 0.0,
            seed: 10,
        }
    }
}

/// Builds the worker-scaling workload: each transaction invokes a `work`
/// method (a batch of counter operations) on a few objects. With uniform
/// object choice and mostly-commuting adds, transactions rarely conflict and
/// throughput is limited purely by the engine's control-plane contention —
/// the workload the scaling curves of experiment E10 sweep. With high skew
/// and a read mix, every transaction fights over one hot key instead.
pub fn scaling(params: &ScalingParams) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    let ty = Arc::new(Counter::default());
    let ids: Vec<ObjectId> = (0..params.objects.max(1))
        .map(|i| base.add_object(format!("cell{i}"), ty.clone()))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for &c in &ids {
        // A few method variants per object so the per-invoke op batches
        // differ; the read mix inside each body is drawn from the seeded
        // RNG, so `read_fraction` really is the expected fraction of reads.
        for variant in 0..4usize {
            let ops: Vec<Program> = (0..params.ops_per_invoke.max(1))
                .map(|_| {
                    let read = rng.gen_bool(params.read_fraction.clamp(0.0, 1.0));
                    if read {
                        Program::local("Get", [])
                    } else {
                        Program::Local {
                            op: "Add".into(),
                            args: vec![Expr::Param(0)],
                        }
                    }
                })
                .collect();
            def.define_method(
                c,
                MethodDef {
                    name: format!("work{variant}"),
                    params: 1,
                    body: Program::Seq(ops),
                },
            );
        }
    }
    let zipf = Zipf::new(ids.len(), params.skew);
    let transactions = (0..params.transactions)
        .map(|i| {
            // Objects are acquired in canonical (id) order within each
            // transaction — the classic deadlock-free locking discipline —
            // so the scaling curve measures contention and control-plane
            // cost, not deadlock-retry churn.
            let mut picks: Vec<usize> = (0..params.invokes_per_txn.max(1))
                .map(|_| zipf.sample(&mut rng))
                .collect();
            picks.sort_unstable();
            let invokes: Vec<Program> = picks
                .into_iter()
                .map(|p| {
                    let variant = rng.gen_range(0..4u32);
                    Program::invoke(ids[p], format!("work{variant}"), [Value::Int(1)])
                })
                .collect();
            TxnSpec {
                name: format!("scale{i}"),
                body: Program::Seq(invokes),
            }
        })
        .collect();
    WorkloadSpec { def, transactions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::sched::Scheduler;
    use obase_exec::{execute, ExecParams, RunResult};
    use obase_lock::N2plScheduler;
    use obase_obs::ObsHandle;

    /// Runs `wl` on the simulator with a fixed seed and three clients.
    fn run(wl: &WorkloadSpec, scheduler: &mut dyn Scheduler) -> RunResult {
        let config = ExecParams {
            seed: 11,
            clients: 3,
            ..Default::default()
        };
        execute(wl, scheduler, &config, &ObsHandle::off())
    }

    #[test]
    fn banking_generates_expected_shape() {
        let wl = banking(&BankingParams {
            accounts: 4,
            transactions: 10,
            ..Default::default()
        });
        assert_eq!(wl.def.base().len(), 4);
        assert_eq!(wl.transactions.len(), 10);
        assert_eq!(wl.def.method_count(), 12);
    }

    #[test]
    fn banking_runs_and_conserves_money_modulo_failed_withdrawals() {
        let wl = banking(&BankingParams {
            accounts: 4,
            transactions: 12,
            initial_balance: 100,
            audit_fraction: 0.0,
            ..Default::default()
        });
        let result = run(&wl, &mut N2plScheduler::operation_locks());
        assert_eq!(result.metrics.committed, 12);
        assert!(obase_core::sg::certifies_serialisable(&result.history));
        // Transfers move money but a withdraw that fails leaves the deposit
        // side still crediting; with ample balances nothing fails, so the
        // total is conserved.
        let finals = obase_core::replay::final_states(&result.history).unwrap();
        let total: i64 = finals.values().map(|v| v.as_int().unwrap()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn counters_workload_is_commutative_friendly() {
        let wl = counters(&CounterParams {
            counters: 2,
            transactions: 8,
            read_fraction: 0.0,
            ..Default::default()
        });
        let result = run(&wl, &mut N2plScheduler::operation_locks());
        assert_eq!(result.metrics.committed, 8);
        // All-increment workload never blocks under semantic locking.
        assert_eq!(result.metrics.blocked_events, 0);
    }

    #[test]
    fn queue_workload_runs() {
        let wl = queues(&QueueParams {
            queues: 1,
            producers: 5,
            consumers: 5,
            preload: 4,
            ..Default::default()
        });
        assert_eq!(wl.transactions.len(), 10);
        let result = run(&wl, &mut N2plScheduler::step_locks());
        assert_eq!(result.metrics.committed, 10);
        assert!(obase_core::sg::certifies_serialisable(&result.history));
    }

    #[test]
    fn dictionary_workload_runs() {
        let wl = dictionary(&DictionaryParams {
            dictionaries: 1,
            keys: 16,
            transactions: 10,
            ..Default::default()
        });
        let result = run(&wl, &mut N2plScheduler::operation_locks());
        assert_eq!(result.metrics.committed, 10);
        assert!(obase_core::legality::is_legal(&result.history));
    }

    #[test]
    fn orders_workload_nests_and_runs() {
        let wl = orders(&OrdersParams {
            transactions: 8,
            parallel_items: true,
            ..Default::default()
        });
        let result = run(&wl, &mut N2plScheduler::operation_locks());
        assert_eq!(result.metrics.committed, 8);
        assert!(obase_core::sg::certifies_serialisable(&result.history));
        // The order transactions really nest: there are more executions than
        // transactions.
        assert!(result.history.exec_count() > 8 * 3);
    }

    #[test]
    fn scaling_workload_runs_and_commits() {
        let wl = scaling(&ScalingParams {
            objects: 4,
            transactions: 6,
            invokes_per_txn: 2,
            ops_per_invoke: 3,
            ..Default::default()
        });
        let result = run(&wl, &mut N2plScheduler::operation_locks());
        assert_eq!(result.metrics.committed, 6);
        // 2 invokes × 3 local ops per transaction (plus any aborted
        // attempts' steps, which also count as installed).
        assert!(result.metrics.installed_steps >= 6 * 2 * 3);
        assert!(obase_core::sg::certifies_serialisable(&result.history));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = banking(&BankingParams::default());
        let b = banking(&BankingParams::default());
        assert_eq!(a.transactions.len(), b.transactions.len());
        for (x, y) in a.transactions.iter().zip(&b.transactions) {
            assert_eq!(x.body, y.body);
        }
    }
}
