//! The built-in scenario library.
//!
//! Twelve named scenarios spanning every `obase-adt` type, the nesting
//! shapes of Section 3, two read-heavy dictionary mixes and the fault
//! plans of the chaos engine. Each is small
//! enough for the equivalence oracle to sweep on every CI push yet shaped
//! to stress one specific mechanism — see `docs/SCENARIOS.md` for the
//! intent of each.

use crate::spec::{
    AdtKind, ClientClass, FaultPlan, KeyDist, NestingShape, ObjectGroup, Scenario, Storm,
};
use obase_runtime::SchedulerSpec;

fn group(name: &str, adt: AdtKind, objects: usize, keys: usize) -> ObjectGroup {
    ObjectGroup {
        name: name.into(),
        adt,
        objects,
        keys,
    }
}

fn class(name: &str, group: &str, ops: usize, read_fraction: f64, dist: KeyDist) -> ClientClass {
    ClientClass {
        name: name.into(),
        weight: 1,
        group: group.into(),
        ops,
        read_fraction,
        dist,
        nesting: NestingShape::default(),
    }
}

fn scenario(
    name: &str,
    seed: u64,
    transactions: usize,
    groups: Vec<ObjectGroup>,
    mix: Vec<ClientClass>,
    specs: Vec<SchedulerSpec>,
) -> Scenario {
    Scenario {
        name: name.into(),
        seed,
        transactions,
        clients: 4,
        retries: 16,
        groups,
        mix,
        faults: FaultPlan::default(),
        specs,
    }
}

/// Every built-in scenario (all valid by construction; a test asserts it).
pub fn library() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Producers and consumers fighting over two hot queues: the paper's
    // step-level locking example under skewed queue choice.
    out.push(scenario(
        "hot-queue",
        101,
        28,
        vec![group("q", AdtKind::Queue, 2, 12)],
        vec![class("pc", "q", 2, 0.5, KeyDist::HotKey { theta: 1.4 })],
        vec![SchedulerSpec::n2pl_step(), SchedulerSpec::n2pl_operation()],
    ));

    // Four-deep invocation chains over a small counter ring: lock
    // inheritance and commit certification at depth.
    let mut deep = scenario(
        "deep-nesting",
        102,
        24,
        vec![group("ring", AdtKind::Counter, 6, 0)],
        vec![class("chain", "ring", 2, 0.2, KeyDist::Uniform)],
        vec![
            SchedulerSpec::n2pl_operation(),
            SchedulerSpec::nto_conservative(),
        ],
    );
    deep.mix[0].nesting = NestingShape {
        depth: 4,
        width: 1,
        parallel: false,
    };
    out.push(deep);

    // Wide Par fan-out over dictionaries: sibling sub-transactions of one
    // transaction competing with each other and with other transactions.
    let mut fanout = scenario(
        "wide-fanout",
        103,
        20,
        vec![group("d", AdtKind::Dictionary, 4, 24)],
        vec![class("fan", "d", 2, 0.4, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    );
    fanout.mix[0].nesting = NestingShape {
        depth: 1,
        width: 4,
        parallel: true,
    };
    out.push(fanout);

    // A certification-abort storm over a counter hotspot: a burst window in
    // which half of all commits are doomed, then recovery via retries.
    let mut storm = scenario(
        "abort-storm",
        104,
        24,
        vec![group("hot", AdtKind::Counter, 3, 0)],
        vec![class("bump", "hot", 2, 0.1, KeyDist::HotKey { theta: 1.2 })],
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
    let mut stalls = scenario(
        "stall-recover",
        105,
        24,
        vec![group("acct", AdtKind::Account, 8, 0)],
        vec![class("pay", "acct", 2, 0.3, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    );
    stalls.faults.stall_rate = 0.06;
    stalls.faults.stall_ticks = 3;
    out.push(stalls);

    // Range scans vs point mutations on the B-tree dictionary, hot-keyed so
    // the scanned intervals and the mutated keys keep colliding.
    out.push(scenario(
        "btree-range-contention",
        106,
        24,
        vec![group("tree", AdtKind::BTreeDict, 2, 48)],
        vec![class(
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
    out.push(scenario(
        "mixed-adt-uniform",
        107,
        30,
        vec![
            group("regs", AdtKind::Register, 3, 0),
            group("sets", AdtKind::Set, 2, 12),
            group("dicts", AdtKind::Dictionary, 2, 12),
            group("queues", AdtKind::Queue, 2, 8),
        ],
        vec![
            class("rw", "regs", 2, 0.4, KeyDist::Uniform),
            class("members", "sets", 2, 0.4, KeyDist::Uniform),
            class("kv", "dicts", 2, 0.4, KeyDist::Uniform),
            class("pc", "queues", 1, 0.5, KeyDist::Uniform),
        ],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    // Partitioned tenants over accounts: zero cross-partition conflicts by
    // construction — the embarrassingly parallel base case.
    out.push(scenario(
        "partitioned-accounts",
        108,
        32,
        vec![group("acct", AdtKind::Account, 16, 0)],
        vec![class(
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
    let mut dooms = scenario(
        "injected-dooms",
        109,
        24,
        vec![group("hot", AdtKind::Register, 3, 0)],
        vec![class(
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
    let mut rush = scenario(
        "deadline-rush",
        110,
        28,
        vec![group("cells", AdtKind::Counter, 8, 0)],
        vec![class("burst", "cells", 4, 0.2, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    );
    rush.clients = 8;
    rush.faults.deadline_ms = Some(5_000);
    out.push(rush);

    // A 95/5 read/write mix over dictionaries: most compiled transactions
    // are entirely `Lookup`/`Size`, whose steps commute with one another,
    // while a writer minority keeps conflicting writes in the mix.
    out.push(scenario(
        "read-mostly-dict",
        111,
        32,
        vec![group("d", AdtKind::Dictionary, 4, 24)],
        vec![class("readers", "d", 2, 0.95, KeyDist::Uniform)],
        vec![SchedulerSpec::n2pl_operation()],
    ));

    // A 99/1 mix: almost every transaction is a reader, and each still
    // goes through scheduler admission like a writer does.
    out.push(scenario(
        "read-only-rush",
        112,
        32,
        vec![group("d", AdtKind::Dictionary, 4, 24)],
        vec![class("rush", "d", 2, 0.99, KeyDist::Uniform)],
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
