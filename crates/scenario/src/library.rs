//! The built-in scenario library.
//!
//! Twelve named scenarios spanning every `obase-adt` type, the nesting
//! shapes of Section 3, two read-heavy dictionary mixes and the fault
//! plans of the chaos engine. Each is small
//! enough for the equivalence oracle to sweep on every CI push yet shaped
//! to stress one specific mechanism — see `docs/SCENARIOS.md` for the
//! intent of each.

use crate::spec::{AdtKind, ClientClass, KeyDist, ObjectGroup, Scenario, Storm};
use obase_runtime::SchedulerSpec;

/// Every built-in scenario (all valid by construction; a test asserts it).
pub fn library() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Producers and consumers fighting over two hot queues: the paper's
    // step-level locking example under skewed queue choice.
    out.push(Scenario::new(
        "hot-queue",
        101,
        28,
        vec![ObjectGroup::new("q", AdtKind::Queue, 2, 12)],
        vec![ClientClass::new(
            "pc",
            "q",
            2,
            0.5,
            KeyDist::HotKey { theta: 1.4 },
        )],
        vec![SchedulerSpec::n2pl_step(), SchedulerSpec::n2pl_operation()],
    ));

    // Four-deep invocation chains over a small counter ring: lock
    // inheritance and commit certification at depth.
    out.push(Scenario::new(
        "deep-nesting",
        102,
        24,
        vec![ObjectGroup::new("ring", AdtKind::Counter, 6, 0)],
        vec![ClientClass::new("chain", "ring", 2, 0.2, KeyDist::Uniform).nesting(4, 1, false)],
        vec![
            SchedulerSpec::n2pl_operation(),
            SchedulerSpec::nto_conservative(),
        ],
    ));

    // Wide Par fan-out over dictionaries: sibling sub-transactions of one
    // transaction competing with each other and with other transactions.
    out.push(Scenario::new(
        "wide-fanout",
        103,
        20,
        vec![ObjectGroup::new("d", AdtKind::Dictionary, 4, 24)],
        vec![ClientClass::new("fan", "d", 2, 0.4, KeyDist::Uniform).nesting(1, 4, true)],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    // A certification-abort storm over a counter hotspot: a burst window in
    // which half of all commits are doomed, then recovery via retries.
    let mut storm = Scenario::new(
        "abort-storm",
        104,
        24,
        vec![ObjectGroup::new("hot", AdtKind::Counter, 3, 0)],
        vec![ClientClass::new(
            "bump",
            "hot",
            2,
            0.1,
            KeyDist::HotKey { theta: 1.2 },
        )],
        vec![SchedulerSpec::n2pl_operation()],
    );
    storm.retries = 48;
    storm.faults.storm = Some(Storm {
        from: 0,
        until: 220,
        rate: 0.5,
    });
    out.push(storm);

    // Random worker stalls over accounts: slow clients holding locks while
    // the rest of the mix keeps moving.
    let mut stalls = Scenario::new(
        "stall-recover",
        105,
        24,
        vec![ObjectGroup::new("acct", AdtKind::Account, 8, 0)],
        vec![ClientClass::new("pay", "acct", 2, 0.3, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    );
    stalls.faults.stall_rate = 0.06;
    stalls.faults.stall_ticks = 3;
    out.push(stalls);

    // Range scans vs point mutations on the B-tree dictionary, hot-keyed so
    // the scanned intervals and the mutated keys keep colliding.
    out.push(Scenario::new(
        "btree-range-contention",
        106,
        24,
        vec![ObjectGroup::new("tree", AdtKind::BTreeDict, 2, 48)],
        vec![ClientClass::new(
            "scan",
            "tree",
            3,
            0.5,
            KeyDist::HotKey { theta: 0.9 },
        )],
        vec![SchedulerSpec::n2pl_operation(), SchedulerSpec::n2pl_step()],
    ));

    // One class per semantic type, uniform access: the cross-ADT smoke
    // every scheduler must take in stride.
    out.push(Scenario::new(
        "mixed-adt-uniform",
        107,
        30,
        vec![
            ObjectGroup::new("regs", AdtKind::Register, 3, 0),
            ObjectGroup::new("sets", AdtKind::Set, 2, 12),
            ObjectGroup::new("dicts", AdtKind::Dictionary, 2, 12),
            ObjectGroup::new("queues", AdtKind::Queue, 2, 8),
        ],
        vec![
            ClientClass::new("rw", "regs", 2, 0.4, KeyDist::Uniform),
            ClientClass::new("members", "sets", 2, 0.4, KeyDist::Uniform),
            ClientClass::new("kv", "dicts", 2, 0.4, KeyDist::Uniform),
            ClientClass::new("pc", "queues", 1, 0.5, KeyDist::Uniform),
        ],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    // Partitioned tenants over accounts: zero cross-partition conflicts by
    // construction — the embarrassingly parallel base case.
    out.push(Scenario::new(
        "partitioned-accounts",
        108,
        32,
        vec![ObjectGroup::new("acct", AdtKind::Account, 16, 0)],
        vec![ClientClass::new(
            "tenant",
            "acct",
            3,
            0.2,
            KeyDist::Partitioned { partitions: 4 },
        )],
        vec![
            SchedulerSpec::n2pl_operation(),
            SchedulerSpec::nto_provisional(),
        ],
    ));

    // Steady doom injection on a register hotspot: every certification may
    // be condemned, so the abort/undo/retry path runs constantly while the
    // hot key maximises the damage of each undo.
    let mut dooms = Scenario::new(
        "injected-dooms",
        109,
        24,
        vec![ObjectGroup::new("hot", AdtKind::Register, 3, 0)],
        vec![ClientClass::new(
            "write",
            "hot",
            2,
            0.3,
            KeyDist::HotKey { theta: 2.0 },
        )],
        vec![SchedulerSpec::n2pl_operation()],
    );
    dooms.retries = 48;
    dooms.faults.doom_rate = 0.08;
    out.push(dooms);

    // Deadline pressure: a parallel-backend wall-clock budget tight enough
    // to matter, generous enough that a healthy engine always settles.
    let mut rush = Scenario::new(
        "deadline-rush",
        110,
        28,
        vec![ObjectGroup::new("cells", AdtKind::Counter, 8, 0)],
        vec![ClientClass::new("burst", "cells", 4, 0.2, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    );
    rush.clients = 8;
    rush.faults.deadline_ms = Some(5_000);
    out.push(rush);

    // A 95/5 read/write mix over dictionaries: most compiled transactions
    // are entirely `Lookup`/`Size`, whose steps commute with one another,
    // while a writer minority keeps conflicting writes in the mix.
    out.push(Scenario::new(
        "read-mostly-dict",
        111,
        32,
        vec![ObjectGroup::new("d", AdtKind::Dictionary, 4, 24)],
        vec![ClientClass::new("readers", "d", 2, 0.95, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    // A 99/1 mix: almost every transaction is a reader, and each still
    // goes through scheduler admission like a writer does.
    out.push(Scenario::new(
        "read-only-rush",
        112,
        32,
        vec![ObjectGroup::new("d", AdtKind::Dictionary, 4, 24)],
        vec![ClientClass::new("rush", "d", 2, 0.99, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    out
}

/// The names of every built-in scenario, in library order.
pub fn names() -> Vec<String> {
    library().into_iter().map(|s| s.name).collect()
}

/// One line of intent per built-in scenario — what mechanism it stresses.
/// `scenarios --list` prints these next to the names; a test keeps the table
/// in lockstep with [`library`].
pub fn intent(name: &str) -> Option<&'static str> {
    Some(match name {
        "hot-queue" => "producers and consumers fighting over two hot queues under skewed choice",
        "deep-nesting" => {
            "four-deep invocation chains: lock inheritance and certification at depth"
        }
        "wide-fanout" => "wide Par fan-out: sibling sub-transactions competing within one parent",
        "abort-storm" => "a certification-abort burst over a counter hotspot, then retry recovery",
        "stall-recover" => "random worker stalls holding locks while the rest of the mix moves",
        "btree-range-contention" => "range scans colliding with point mutations on a hot B-tree",
        "mixed-adt-uniform" => "one class per semantic ADT, uniform access: the cross-type smoke",
        "partitioned-accounts" => {
            "partitioned tenants, zero cross-partition conflicts by construction"
        }
        "injected-dooms" => {
            "steady doom injection on a register hotspot: the abort/undo/retry path"
        }
        "deadline-rush" => "wall-clock deadline pressure on the parallel backend",
        "read-mostly-dict" => "a 95/5 dictionary mix: commuting readers among a few writers",
        "read-only-rush" => "a 99/1 dictionary mix: near-pure readers through the scheduler",
        _ => return None,
    })
}

/// Looks a built-in scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    library().into_iter().find(|s| s.name == name)
}
