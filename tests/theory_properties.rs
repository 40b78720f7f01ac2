//! Property-style tests of the core theory over randomly generated (seeded,
//! reproducible) interleavings: Theorem 1 (replay determinism), Theorem 2
//! (the serialisation-graph test is sound) and Theorem 5 (the per-object
//! condition is sound), plus the soundness of every ADT conflict
//! specification. Engine-level properties run through the `Runtime` facade.

use obase::adt;
use obase::prelude::*;
use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
use std::sync::Arc;

/// A small random-interleaving generator: `txns` transactions, each touching
/// a random subset of objects with random operations, interleaved according
/// to a random schedule. Returns a legal history by construction (return
/// values are computed by replaying against tracked state).
fn random_history(
    object_kinds: &[u8],
    txns: usize,
    ops_per_txn: usize,
    schedule: &[u8],
) -> History {
    let mut base = ObjectBase::new();
    let objects: Vec<ObjectId> = object_kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let ty: TypeHandle = match kind % 4 {
                0 => Arc::new(adt::Counter::default()),
                1 => Arc::new(adt::Register::default()),
                2 => Arc::new(adt::Account::with_initial(20)),
                _ => Arc::new(adt::FifoQueue),
            };
            base.add_object(format!("o{i}"), ty)
        })
        .collect();
    let mut b = HistoryBuilder::new(Arc::new(base));

    // Per transaction, a cursor over the operations it will perform.
    struct Txn {
        exec: ExecId,
        remaining: usize,
    }
    let mut live: Vec<Txn> = (0..txns)
        .map(|i| Txn {
            exec: b.begin_top_level(format!("T{i}")),
            remaining: ops_per_txn,
        })
        .collect();

    let mut cursor = 0usize;
    while live.iter().any(|t| t.remaining > 0) {
        let pick = schedule.get(cursor).copied().unwrap_or(0) as usize;
        cursor += 1;
        let idx = pick % live.len();
        if live[idx].remaining == 0 {
            // Find the next transaction that still has work.
            let Some(idx2) = live.iter().position(|t| t.remaining > 0) else {
                break;
            };
            advance(&mut b, &objects, &mut live[idx2], pick);
        } else {
            advance(&mut b, &objects, &mut live[idx], pick);
        }
    }

    fn advance(b: &mut HistoryBuilder, objects: &[ObjectId], txn: &mut Txn, salt: usize) {
        txn.remaining -= 1;
        let object = objects[salt % objects.len()];
        let ty = b.base().type_of(object);
        let ops = ty.sample_operations();
        let op = ops[(salt / 3) % ops.len()].clone();
        let (msg, child) = b.invoke(txn.exec, object, "m", []);
        // Some operations may be inapplicable to the current state (e.g. a
        // malformed argument); sample operations are always applicable.
        b.local_applied(child, op).expect("sample op applies");
        b.complete_invoke(msg, Value::Unit);
    }

    b.build()
}

/// Every randomly generated interleaving is a legal history, its final state
/// does not depend on the chosen topological sort (Theorem 1), and if its
/// serialisation graph is acyclic then the constructed equivalent serial
/// history verifies (Theorem 2), in which case the Theorem 5 condition's
/// verdict is consistent with serialisability.
#[test]
fn random_interleavings_respect_the_theorems() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7E08);
    for case in 0..48 {
        let object_kinds: Vec<u8> = (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..4u32) as u8)
            .collect();
        let txns = rng.gen_range(1..4usize);
        let ops = rng.gen_range(1..4usize);
        let schedule: Vec<u8> = (0..rng.gen_range(1..64usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();

        let h = random_history(&object_kinds, txns, ops, &schedule);
        assert!(obase::core::legality::is_legal(&h), "case {case}");

        // Theorem 1: replay determinism across linear extensions.
        for o in h.objects_touched() {
            assert!(
                obase::core::replay::theorem1_holds(&h, o, 24),
                "case {case}: Theorem 1 fails on {o}"
            );
        }

        let analysis = obase::core::sg::analyse(&h);
        // The oracle passes exactly the acyclic histories, and hands back
        // the final states a separate replay computes.
        let replayed = obase::core::replay::final_states(&h).expect("legal history replays");
        let verdict = obase::core::oracle::check(&h, false);
        assert_eq!(verdict.is_ok(), analysis.acyclic, "case {case}");
        if let Ok(finals) = verdict {
            assert_eq!(finals, replayed, "case {case}");
        }
        if analysis.acyclic {
            // Theorem 2, executed: the constructed witness is legal, serial
            // and equivalent.
            assert_eq!(analysis.witness_verified, Some(true), "case {case}");
            // And the bounded brute-force oracle agrees when it can afford
            // the search space.
            if h.exec_count() <= 7 {
                assert!(
                    obase::core::equivalence::is_serialisable_bruteforce(&h, 512),
                    "case {case}: oracle disagrees with the SG test"
                );
            }
        }

        // Theorem 5: the per-object condition is sufficient for
        // serialisability, so whenever it holds and the history is small
        // enough to decide, the brute-force oracle finds a witness.
        if obase::core::local_graphs::theorem5_condition_holds(&h) && h.exec_count() <= 7 {
            assert!(
                obase::core::equivalence::is_serialisable_bruteforce(&h, 512),
                "case {case}: oracle disagrees with the Theorem 5 condition"
            );
        }
    }
}

/// The committed history of an engine run under nested 2PL is always
/// serialisable, whatever the interleaving seed (the executable Theorem 3).
#[test]
fn n2pl_runs_are_always_serialisable() {
    let wl = obase::workload::banking(&obase::workload::BankingParams {
        accounts: 3,
        transactions: 8,
        skew: 1.0,
        ..Default::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(0x52D1);
    for _ in 0..24 {
        let seed = rng.next_u64();
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .clients(4)
            .seed(seed)
            .build()
            .unwrap()
            .run(&wl)
            .unwrap();
        assert!(
            obase::core::sg::certifies_serialisable(&report.history),
            "seed {seed}"
        );
    }
}

/// Theorem 3 holds on genuinely concurrent executions too: the same N2PL
/// property over the multi-threaded backend, where the interleaving comes
/// from the OS scheduler instead of a seed.
#[test]
fn n2pl_parallel_runs_are_always_serialisable() {
    let wl = obase::workload::banking(&obase::workload::BankingParams {
        accounts: 3,
        transactions: 8,
        skew: 1.0,
        ..Default::default()
    });
    for round in 0..24 {
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::n2pl_operation())
            .backend(ExecutionBackend::Parallel { workers: 4 })
            .retries(64)
            .build()
            .unwrap()
            .run(&wl)
            .unwrap();
        assert!(
            obase::core::sg::certifies_serialisable(&report.history),
            "round {round}"
        );
        assert_eq!(report.metrics.cascading_aborts, 0, "round {round}");
    }
}

/// Same for nested timestamp ordering (the executable Theorem 4).
#[test]
fn nto_runs_are_always_serialisable() {
    let wl = obase::workload::counters(&obase::workload::CounterParams {
        counters: 2,
        transactions: 8,
        touches_per_txn: 2,
        read_fraction: 0.4,
        skew: 1.0,
        seed: 5,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(0x0470);
    for _ in 0..24 {
        let seed = rng.next_u64();
        let report = Runtime::builder()
            .scheduler(SchedulerSpec::nto_conservative())
            .clients(4)
            .seed(seed)
            .build()
            .unwrap()
            .run(&wl)
            .unwrap();
        assert!(
            obase::core::sg::certifies_serialisable(&report.history),
            "seed {seed}"
        );
    }
}

#[test]
fn adt_conflict_specifications_are_sound() {
    for ty in adt::all_types() {
        let violations = obase::core::conflict::validate_conflict_spec(ty.as_ref(), 2);
        assert!(
            violations.is_empty(),
            "{}: {:?}",
            ty.type_name(),
            violations.first()
        );
    }
}

/// The flat read/write baseline (`flat-rw`) trusts `op_is_readonly` to take
/// a shared lock instead of an exclusive one, so the declaration must agree
/// with the Definition-3 ground truth on every ADT. Soundness (hard): a declared
/// read-only operation must be an identity on every reachable state it
/// applies to, and must commute with itself under the state-based conflict
/// checker. Completeness (per operation family): an operation *name* whose
/// every sampled instance is an identity everywhere must be declared
/// read-only — a mutator family may contain degenerate identities (`Add 0`)
/// without earning the declaration, but a genuine observer may not be
/// under-declared. The distinguished abort operation is "read-only" by
/// convention (it never mutates) but stays distinguishable through
/// `is_abort` — asserted here so the convention cannot silently drift.
#[test]
fn readonly_declarations_match_the_definition3_checker() {
    use obase::core::conflict::{achievable_steps, reachable_states, steps_commute_on_state};
    use std::collections::BTreeMap;

    for ty in adt::all_types() {
        let name = ty.type_name();
        let states = reachable_states(ty.as_ref(), 3);
        assert!(!states.is_empty(), "{name}: no reachable states");
        // (identity on every applicable reachable state?, declared?) per op.
        let mut families: BTreeMap<String, Vec<(bool, bool)>> = BTreeMap::new();
        for op in ty.sample_operations() {
            let declared = ty.op_is_readonly(&op);
            let mut applies_somewhere = false;
            let mut identity_everywhere = true;
            for s in &states {
                if let Ok((s2, _)) = ty.apply(s, &op) {
                    applies_somewhere = true;
                    if &s2 != s {
                        identity_everywhere = false;
                    }
                }
            }
            assert!(applies_somewhere, "{name}: sample op {op:?} never applies");
            assert!(
                !declared || identity_everywhere,
                "{name}: op_is_readonly({op:?}) but the op mutates some \
                 reachable state — a shared lock would admit a lost update"
            );
            families
                .entry(op.name.clone())
                .or_default()
                .push((identity_everywhere, declared));
            if !declared {
                continue;
            }
            // Definition 3 (return-value-aware commutativity): a read-only
            // step conflicts with nothing it returns the same answer next
            // to — in particular it must commute with itself on every state.
            for step in achievable_steps(ty.as_ref(), &states, &op) {
                for s in &states {
                    let outcome = steps_commute_on_state(ty.as_ref(), s, &step, &step);
                    assert!(
                        !outcome.is_conflict(),
                        "{name}: read-only step {step:?} conflicts with itself \
                         on state {s:?}: {outcome:?}"
                    );
                }
            }
        }
        for (op_name, instances) in families {
            if instances.iter().all(|&(identity, _)| identity) {
                assert!(
                    instances.iter().all(|&(_, declared)| declared),
                    "{name}: every sampled {op_name:?} is an identity on \
                     every reachable state, yet op_is_readonly denies it — \
                     an observer family is being kept off shared locks"
                );
            }
        }
        // The abort pseudo-operation is reported read-only by every ADT
        // (it mutates nothing), yet it signals failure, so `is_abort` must
        // keep it distinguishable from a real observer.
        let abort = obase::core::op::Operation::abort();
        assert!(
            ty.op_is_readonly(&abort),
            "{name}: the abort operation must read as non-mutating"
        );
        assert!(abort.is_abort());
    }
}
