//! The seeded scenario generator: a random walk over the full `Scenario`
//! space.
//!
//! Every dimension of the DSL is exercised — all seven [`AdtKind`]s
//! (including `BTreeDict`, whose range scans carry interval conflicts), all
//! three [`KeyDist`]s, nesting depth/width with and without `Par`
//! parallelism, multi-spec scheduler line-ups, [`FaultPlan`] chaos (doom
//! rates, abort storms, worker stalls, deadline pressure) and WAL
//! [`CrashPlan`] cut points. Generated cases are *always* structurally
//! valid ([`Scenario::validate`] holds by construction — a test sweeps
//! hundreds of seeds to prove it), and the whole stream is a pure function
//! of the campaign RNG: same seed, same cases, forever.
//!
//! Sizes are deliberately small (a handful of groups, classes and clients,
//! tens of transactions): the differential executor runs every case on
//! three backends, and small cases shrink faster when one fails.

use crate::FuzzCase;
use obase_rng::{ChaCha8Rng, Rng};
use obase_runtime::SchedulerSpec;
use obase_scenario::{
    AdtKind, ClientClass, CrashPlan, FaultPlan, KeyDist, NestingShape, ObjectGroup, Scenario, Storm,
};
use obase_ser::Json;
use std::collections::BTreeMap;

/// Bounds and probabilities for the random walk. The defaults keep cases
/// small enough to run on three backends in milliseconds while still
/// reaching every dimension of the scenario space.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum object groups per scenario (≥ 1).
    pub max_groups: usize,
    /// Maximum client classes per scenario (≥ 1).
    pub max_classes: usize,
    /// Maximum objects per group (≥ 1).
    pub max_objects: usize,
    /// Maximum key-space size for keyed groups (≥ 2).
    pub max_keys: usize,
    /// Maximum nesting depth (≥ 1).
    pub max_depth: usize,
    /// Maximum nesting width (≥ 1).
    pub max_width: usize,
    /// Maximum top-level transactions (≥ 4).
    pub max_transactions: usize,
    /// Maximum scheduler specs per case (≥ 1).
    pub max_specs: usize,
    /// Probability that a case carries scheduler-level chaos (dooms, storms,
    /// stalls).
    pub fault_probability: f64,
    /// Probability that a case carries a WAL crash plan.
    pub crash_probability: f64,
    /// Probability that a chaotic case also gets deadline pressure. Kept low
    /// and paired with generous deadlines: a deadline that fires on a
    /// healthy engine would be a false positive, not a bug.
    pub deadline_probability: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_groups: 3,
            max_classes: 3,
            max_objects: 4,
            max_keys: 8,
            max_depth: 4,
            max_width: 3,
            max_transactions: 20,
            max_specs: 2,
            fault_probability: 0.5,
            crash_probability: 0.4,
            deadline_probability: 0.1,
        }
    }
}

/// The scheduler specs the generator draws from: every sound basic spec
/// plus two mixed per-object compositions. `SchedulerSpec::None` is
/// deliberately absent — it is the *unsound* negative control and would
/// drown the differential signal in known violations.
pub fn spec_pool() -> Vec<SchedulerSpec> {
    let mut pool = SchedulerSpec::all_basic();
    pool.push(SchedulerSpec::mixed_with_default(SchedulerSpec::n2pl_step()));
    pool.push(SchedulerSpec::mixed_with_default(
        SchedulerSpec::nto_conservative(),
    ));
    pool
}

fn pick<T: Clone>(rng: &mut ChaCha8Rng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn gen_dist(rng: &mut ChaCha8Rng) -> KeyDist {
    match rng.gen_range(0..3u32) {
        0 => KeyDist::Uniform,
        1 => KeyDist::HotKey {
            theta: rng.gen_range(0.5..2.0),
        },
        _ => KeyDist::Partitioned {
            partitions: rng.gen_range(1..=4usize),
        },
    }
}

fn gen_faults(rng: &mut ChaCha8Rng, cfg: &GenConfig) -> FaultPlan {
    let mut plan = FaultPlan::default();
    if rng.gen_bool(cfg.fault_probability.clamp(0.0, 1.0)) {
        if rng.gen_bool(0.5) {
            plan.doom_rate = rng.gen_range(0.01..0.10);
        }
        if rng.gen_bool(0.3) {
            let from = rng.gen_range(0..100u64);
            plan.storm = Some(Storm {
                from,
                until: from + rng.gen_range(20..300u64),
                rate: rng.gen_range(0.2..0.8),
            });
        }
        if rng.gen_bool(0.3) {
            plan.stall_rate = rng.gen_range(0.01..0.08);
            plan.stall_ticks = rng.gen_range(1..=3u32);
        }
        if rng.gen_bool(cfg.deadline_probability.clamp(0.0, 1.0)) {
            plan.deadline_ms = Some(rng.gen_range(5_000..8_000u64));
        }
    }
    if rng.gen_bool(cfg.crash_probability.clamp(0.0, 1.0)) {
        plan.crash = Some(CrashPlan {
            fraction: rng.gen_range(0.0..1.0),
            corrupt: rng.gen_bool(0.25),
        });
    }
    plan
}

/// Draws the next case from the walk. Pure in `rng`: the n-th call on a
/// freshly seeded generator always yields the same case.
pub fn generate(rng: &mut ChaCha8Rng, cfg: &GenConfig) -> FuzzCase {
    // The scenario's own seed (workload compilation + fault injection) is
    // drawn from the walk, bounded to the JSON i64 range `validate` demands.
    let seed = rng.next_u64() & (i64::MAX as u64);

    let n_groups = rng.gen_range(1..=cfg.max_groups.max(1));
    let mut groups = Vec::new();
    for g in 0..n_groups {
        let adt = pick(rng, &AdtKind::all());
        let keyed = matches!(adt, AdtKind::Set | AdtKind::Dictionary | AdtKind::BTreeDict);
        let keys = if keyed {
            rng.gen_range(2..=cfg.max_keys.max(2))
        } else if matches!(adt, AdtKind::Queue) {
            // Queue preload length; zero is legal (dequeue on empty is Unit).
            rng.gen_range(0..=cfg.max_keys.max(2))
        } else {
            0
        };
        groups.push(ObjectGroup {
            name: format!("g{g}"),
            adt,
            objects: rng.gen_range(1..=cfg.max_objects.max(1)),
            keys,
        });
    }

    let n_classes = rng.gen_range(1..=cfg.max_classes.max(1));
    let mut mix = Vec::new();
    for c in 0..n_classes {
        let group = rng.gen_range(0..n_groups);
        let depth = rng.gen_range(1..=cfg.max_depth.max(1));
        let width = rng.gen_range(1..=cfg.max_width.max(1));
        mix.push(ClientClass {
            name: format!("c{c}"),
            weight: rng.gen_range(1..=4u32),
            group: format!("g{group}"),
            ops: rng.gen_range(1..=3usize),
            read_fraction: rng.gen_range(0.0..1.0),
            dist: gen_dist(rng),
            nesting: NestingShape {
                depth,
                width,
                parallel: width > 1 && rng.gen_bool(0.5),
            },
        });
    }

    // The bare SGT certifier is inter-transaction only by contract: Theorem 5
    // separates inter- from intra-transaction serialisation, and `occ-sgt`
    // realises only the former (pair it with per-object policies — the mixed
    // specs — for the rest). Handing it parallel sibling sub-executions would
    // report its documented incompleteness as a bug, so cases with a `Par`
    // nesting shape draw from the pool without it.
    let has_parallel_nesting = mix.iter().any(|c| c.nesting.parallel);
    let pool: Vec<SchedulerSpec> = spec_pool()
        .into_iter()
        .filter(|s| !(has_parallel_nesting && *s == SchedulerSpec::SgtCertifier))
        .collect();
    let n_specs = rng.gen_range(1..=cfg.max_specs.max(1));
    let mut specs: Vec<SchedulerSpec> = Vec::new();
    for _ in 0..n_specs {
        let s = pick(rng, &pool);
        if !specs.contains(&s) {
            specs.push(s);
        }
    }

    let scenario = Scenario {
        name: format!("fuzz-{seed:016x}"),
        seed,
        transactions: rng.gen_range(4..=cfg.max_transactions.max(4)),
        clients: rng.gen_range(2..=4usize),
        retries: rng.gen_range(16..=64u32),
        groups,
        mix,
        faults: gen_faults(rng, cfg),
        specs,
    };
    debug_assert!(
        scenario.validate().is_ok(),
        "generator produced an invalid scenario"
    );
    FuzzCase { scenario }
}

/// Spec-space coverage counters: which corners of the scenario space a
/// campaign actually reached. The `fuzz` binary renders these as BENCH
/// histogram columns, so coverage regressions show up in results files.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coverage {
    /// Cases counted.
    pub cases: u64,
    /// Cases per ADT kind (a case with three groups counts each kind once).
    pub adt: BTreeMap<String, u64>,
    /// Cases per key-distribution kind.
    pub dist: BTreeMap<String, u64>,
    /// Cases per scheduler-spec label.
    pub specs: BTreeMap<String, u64>,
    /// Cases per nesting depth actually generated.
    pub depth: BTreeMap<String, u64>,
    /// Cases with a `Par` (parallel) nesting shape.
    pub par_nesting: u64,
    /// Cases with a doom rate.
    pub dooms: u64,
    /// Cases with an abort storm.
    pub storms: u64,
    /// Cases with worker stalls.
    pub stalls: u64,
    /// Cases with deadline pressure.
    pub deadlines: u64,
    /// Cases with a WAL crash plan.
    pub crashes: u64,
}

impl Coverage {
    /// Folds one case into the counters.
    pub fn note(&mut self, case: &FuzzCase) {
        self.cases += 1;
        let s = &case.scenario;
        for g in &s.groups {
            *self.adt.entry(g.adt.key().to_owned()).or_default() += 1;
        }
        for c in &s.mix {
            let dist = match c.dist {
                KeyDist::Uniform => "uniform",
                KeyDist::HotKey { .. } => "hot-key",
                KeyDist::Partitioned { .. } => "partitioned",
            };
            *self.dist.entry(dist.to_owned()).or_default() += 1;
            *self.depth.entry(c.nesting.depth.to_string()).or_default() += 1;
            if c.nesting.parallel {
                self.par_nesting += 1;
            }
        }
        for spec in &s.specs {
            *self.specs.entry(spec.label()).or_default() += 1;
        }
        if s.faults.doom_rate > 0.0 {
            self.dooms += 1;
        }
        if s.faults.storm.is_some() {
            self.storms += 1;
        }
        if s.faults.stall_rate > 0.0 {
            self.stalls += 1;
        }
        if s.faults.deadline_ms.is_some() {
            self.deadlines += 1;
        }
        if s.faults.crash.is_some() {
            self.crashes += 1;
        }
    }

    /// How many distinct coverage buckets are non-zero — a one-number
    /// "did the walk reach the corners" indicator.
    pub fn dimensions_hit(&self) -> usize {
        let hist = self.adt.len() + self.dist.len() + self.specs.len() + self.depth.len();
        let flags = [
            self.par_nesting,
            self.dooms,
            self.storms,
            self.stalls,
            self.deadlines,
            self.crashes,
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count();
        hist + flags
    }

    /// The counters as a JSON value (campaign summaries embed this).
    pub fn to_json(&self) -> Json {
        let hist = |m: &BTreeMap<String, u64>| {
            Json::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                    .collect(),
            )
        };
        Json::object([
            ("cases", Json::Int(self.cases as i64)),
            ("adt", hist(&self.adt)),
            ("dist", hist(&self.dist)),
            ("specs", hist(&self.specs)),
            ("depth", hist(&self.depth)),
            ("par_nesting", Json::Int(self.par_nesting as i64)),
            ("dooms", Json::Int(self.dooms as i64)),
            ("storms", Json::Int(self.storms as i64)),
            ("stalls", Json::Int(self.stalls as i64)),
            ("deadlines", Json::Int(self.deadlines as i64)),
            ("crashes", Json::Int(self.crashes as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_rng::SeedableRng;

    #[test]
    fn five_hundred_generated_cases_are_all_valid() {
        let cfg = GenConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
        let mut coverage = Coverage::default();
        for i in 0..500 {
            let case = generate(&mut rng, &cfg);
            case.scenario
                .validate()
                .unwrap_or_else(|e| panic!("case {i} invalid: {e}"));
            // Storm windows are never inverted by construction.
            if let Some(s) = &case.scenario.faults.storm {
                assert!(s.from < s.until, "case {i} generated an inverted storm");
            }
            // The inter-transaction-only certifier never meets Par nesting.
            if case.scenario.mix.iter().any(|c| c.nesting.parallel) {
                assert!(
                    !case.scenario.specs.contains(&SchedulerSpec::SgtCertifier),
                    "case {i} paired bare occ-sgt with parallel nesting"
                );
            }
            coverage.note(&case);
        }
        // The walk reaches every ADT, every distribution, every pooled spec,
        // and every chaos dimension within 500 cases.
        assert_eq!(coverage.adt.len(), 7, "ADT coverage: {:?}", coverage.adt);
        assert_eq!(coverage.dist.len(), 3);
        assert_eq!(coverage.specs.len(), spec_pool().len());
        assert!(coverage.par_nesting > 0);
        assert!(coverage.dooms > 0 && coverage.storms > 0 && coverage.stalls > 0);
        assert!(coverage.deadlines > 0 && coverage.crashes > 0);
        assert!(
            coverage.depth.len() >= 3,
            "depth spread: {:?}",
            coverage.depth
        );
    }

    #[test]
    fn the_walk_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            assert_eq!(generate(&mut a, &cfg), generate(&mut b, &cfg));
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let differs = (0..50).any(|_| generate(&mut a, &cfg) != generate(&mut c, &cfg));
        assert!(differs, "different seeds walked the same path");
    }

    #[test]
    fn coverage_json_is_well_formed() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut cov = Coverage::default();
        for _ in 0..20 {
            cov.note(&generate(&mut rng, &GenConfig::default()));
        }
        let json = cov.to_json();
        assert_eq!(json.get("cases").and_then(Json::as_int), Some(20));
        assert!(json.get("adt").and_then(Json::as_object).is_some());
        assert!(cov.dimensions_hit() > 10);
    }
}
