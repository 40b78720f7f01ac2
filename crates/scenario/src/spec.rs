//! The scenario data model and its JSON round trip.
//!
//! A [`Scenario`] is a workload written as data: an object population
//! (groups of objects, each group one [`AdtKind`]), a client mix (weighted
//! [`ClientClass`]es, each with its own key distribution and
//! nested-transaction shape), a [`FaultPlan`] of seeded chaos, and the
//! scheduler line-up the scenario is meant to stress. Everything serialises through `obase-ser` JSON, so a
//! scenario is a config file, not a Rust function.

use obase_core::object::TypeHandle;
use obase_core::value::Value;
use obase_runtime::{ConfigError, SchedulerSpec};
use obase_ser::Json;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The semantic object types a scenario can populate its object base with
/// (each maps to one `obase-adt` type).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdtKind {
    /// A read/write register — every pair of writes conflicts.
    Register,
    /// A counter — increments commute, reads conflict with increments.
    Counter,
    /// A bank account (deposits commute; balance checks observe).
    Account,
    /// A set with element-wise conflicts.
    Set,
    /// The paper's dictionary with key-wise conflicts.
    Dictionary,
    /// The ordered integer-keyed dictionary with interval-aware `Range`
    /// conflicts ([`obase_adt::BTreeDict`]).
    BTreeDict,
    /// A FIFO queue (the step-level locking example of Section 5.1).
    Queue,
}

impl AdtKind {
    /// Every kind, for enumerating tests and docs.
    pub fn all() -> [AdtKind; 7] {
        [
            AdtKind::Register,
            AdtKind::Counter,
            AdtKind::Account,
            AdtKind::Set,
            AdtKind::Dictionary,
            AdtKind::BTreeDict,
            AdtKind::Queue,
        ]
    }

    /// The stable JSON key of this kind.
    pub fn key(&self) -> &'static str {
        match self {
            AdtKind::Register => "register",
            AdtKind::Counter => "counter",
            AdtKind::Account => "account",
            AdtKind::Set => "set",
            AdtKind::Dictionary => "dictionary",
            AdtKind::BTreeDict => "btree",
            AdtKind::Queue => "queue",
        }
    }

    fn from_key(key: &str) -> Option<AdtKind> {
        AdtKind::all().into_iter().find(|k| k.key() == key)
    }

    /// One instance of the semantic type this kind names.
    pub fn type_handle(&self) -> TypeHandle {
        match self {
            AdtKind::Register => Arc::new(obase_adt::Register::default()),
            AdtKind::Counter => Arc::new(obase_adt::Counter::default()),
            AdtKind::Account => Arc::new(obase_adt::Account::with_initial(1_000)),
            AdtKind::Set => Arc::new(obase_adt::SetObject),
            AdtKind::Dictionary => Arc::new(obase_adt::Dictionary),
            AdtKind::BTreeDict => Arc::new(obase_adt::BTreeDict),
            AdtKind::Queue => Arc::new(obase_adt::FifoQueue),
        }
    }

    /// The initial state a scenario object of this kind gets, or `None` for
    /// the type's own default. `keys` is the group's key-space size (doubles
    /// as the queue preload length and, when non-zero, an account's opening
    /// balance); `obj` disambiguates queue preloads so items are globally
    /// unique.
    pub(crate) fn initial_state(&self, keys: usize, obj: usize) -> Option<Value> {
        match self {
            AdtKind::Dictionary if keys > 0 => Some(Value::map(
                (0..keys).map(|k| (format!("k{k}"), Value::Int(k as i64))),
            )),
            AdtKind::BTreeDict if keys > 0 => {
                Some(Value::list((0..keys).map(|k| {
                    Value::list([Value::Int(k as i64), Value::Int(10 * k as i64)])
                })))
            }
            AdtKind::Set if keys > 0 => Some(Value::list((0..keys).map(|k| Value::Int(k as i64)))),
            AdtKind::Queue if keys > 0 => Some(Value::list(
                (0..keys).map(|j| Value::Int((obj * 10_000 + j) as i64)),
            )),
            AdtKind::Account if keys > 0 => Some(Value::Int(keys as i64)),
            _ => None,
        }
    }
}

/// How a client class picks objects (and keys, for keyed types) inside its
/// target group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Uniform over the group.
    Uniform,
    /// Zipf-like skew: larger `theta` concentrates the traffic on a few hot
    /// objects/keys (`theta = 0` degenerates to uniform).
    HotKey {
        /// The Zipf skew parameter.
        theta: f64,
    },
    /// The group is split into `partitions` contiguous slices and every
    /// transaction draws only from the slice its index hashes to — the
    /// sharded-tenant shape with no cross-partition conflicts.
    Partitioned {
        /// Number of partitions.
        partitions: usize,
    },
}

/// The nested-transaction shape of a client class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestingShape {
    /// Invocation chain length: 1 calls a leaf method directly, `d > 1`
    /// routes through `d - 1` intermediate method executions on other
    /// objects of the group (each doing one local step of its own).
    pub depth: usize,
    /// Fan-out at the transaction root: how many invocation branches the
    /// transaction body has.
    pub width: usize,
    /// Run the branches as a `Par` block (real internal parallelism,
    /// Section 3(c)) instead of sequentially.
    pub parallel: bool,
}

impl Default for NestingShape {
    fn default() -> Self {
        NestingShape {
            depth: 1,
            width: 1,
            parallel: false,
        }
    }
}

/// A named population of objects of one semantic type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectGroup {
    /// Group name, referenced by [`ClientClass::group`].
    pub name: String,
    /// The semantic type of every object in the group.
    pub adt: AdtKind,
    /// Number of objects.
    pub objects: usize,
    /// Key-space size for keyed types (set/dictionary/btree — also the
    /// preloaded population), preload length for queues, opening balance
    /// for accounts (0 keeps the default of 1,000), ignored otherwise.
    pub keys: usize,
}

impl ObjectGroup {
    /// A group of `objects` objects of one type; `keys` as documented on
    /// the field.
    pub fn new(name: &str, adt: AdtKind, objects: usize, keys: usize) -> Self {
        ObjectGroup {
            name: name.into(),
            adt,
            objects,
            keys,
        }
    }
}

/// One weighted class of transactions in the mix.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientClass {
    /// Class name (transaction labels are `"{name}-{i}"`).
    pub name: String,
    /// Relative weight in the mix.
    pub weight: u32,
    /// The [`ObjectGroup`] this class targets.
    pub group: String,
    /// Local operations per leaf method execution.
    pub ops: usize,
    /// Fraction of leaf operations that observe instead of mutate (for
    /// queues: the consume fraction).
    pub read_fraction: f64,
    /// Object and key selection inside the group.
    pub dist: KeyDist,
    /// The nested-transaction shape.
    pub nesting: NestingShape,
}

impl ClientClass {
    /// A class of weight 1 with the default (flat, one-branch) nesting.
    pub fn new(name: &str, group: &str, ops: usize, read_fraction: f64, dist: KeyDist) -> Self {
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

    /// The same class with another weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// The same class with another nesting shape.
    pub fn nesting(mut self, depth: usize, width: usize, parallel: bool) -> Self {
        self.nesting = NestingShape {
            depth,
            width,
            parallel,
        };
        self
    }
}

/// A bounded storm of injected certification aborts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Storm {
    /// First scheduler gate (global request/certify counter) of the window.
    pub from: u64,
    /// First gate past the window.
    pub until: u64,
    /// Probability that a commit certification inside the window is doomed.
    pub rate: f64,
}

/// A crash point for durable (write-ahead-logged) runs: the machine dies
/// mid-run, modelled by cutting the log the run wrote at a fraction of its
/// final length before handing it to recovery. The cut lands wherever it
/// lands — usually mid-record — so recovery's torn-tail handling is always
/// on trial, and `corrupt` additionally flips one byte just before the cut
/// (a bad sector under the torn tail).
///
/// Unlike the scheduler-level faults, a crash is applied *after* the run by
/// whoever drives it (tests, the bench harness, CI smoke) using the
/// `obase-wal` crash helpers; the plan only records where to cut.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashPlan {
    /// Where to cut the log, as a fraction of its final byte length in
    /// `[0, 1]` (0 loses everything, 1 crashes after the final write).
    pub fraction: f64,
    /// Also corrupt one byte just before the cut.
    pub corrupt: bool,
}

/// The seeded chaos a scenario injects while it runs, by decorating the
/// scheduler (see [`FaultInjector`](crate::FaultInjector)). All probabilities
/// draw from one RNG seeded by the scenario, so on the simulated backend the
/// faults are exactly reproducible.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-certification probability of dooming the committing transaction
    /// ([`AbortReason::Injected`](obase_core::sched::AbortReason::Injected)).
    pub doom_rate: f64,
    /// An abort storm: a window of scheduler gates in which certifications
    /// are doomed at a (typically much higher) rate.
    pub storm: Option<Storm>,
    /// Per-request probability of stalling the requesting worker.
    pub stall_rate: f64,
    /// How many re-requests a stalled worker is held for.
    pub stall_ticks: u32,
    /// Wall-clock deadline pressure for the parallel backend, in
    /// milliseconds (the simulator's round bound is untouched).
    pub deadline_ms: Option<u64>,
    /// A post-run crash point for durable runs (ignored by the in-memory
    /// backends, which have nothing to lose).
    pub crash: Option<CrashPlan>,
}

impl FaultPlan {
    /// `true` if the plan injects nothing *into the scheduler* (it is run
    /// bare). A [`crash`](FaultPlan::crash) alone leaves this true: crashes
    /// happen to the log file after the run, not to scheduling decisions.
    pub fn is_noop(&self) -> bool {
        self.doom_rate <= 0.0 && self.storm.is_none() && self.stall_rate <= 0.0
    }

    /// Checks the plan's gate windows. An inverted storm window
    /// (`from > until`) contains no gate at all, so the storm it promises
    /// could never fire; rather than silently running a no-op plan, the
    /// injector refuses to be built from one
    /// ([`ConfigError::InvertedFaultWindow`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(s) = &self.storm {
            if s.from > s.until {
                return Err(ConfigError::InvertedFaultWindow {
                    from: s.from,
                    until: s.until,
                });
            }
        }
        Ok(())
    }
}

/// A complete declarative scenario: population, mix, faults, scheduler
/// line-up and run parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (also the row label in bench output).
    pub name: String,
    /// Seed for workload generation *and* fault injection.
    pub seed: u64,
    /// Total top-level transactions.
    pub transactions: usize,
    /// Concurrent clients (simulator) / the worker default (parallel runs
    /// pick their own worker count).
    pub clients: usize,
    /// Retry budget per transaction.
    pub retries: u32,
    /// The object population.
    pub groups: Vec<ObjectGroup>,
    /// The weighted transaction mix.
    pub mix: Vec<ClientClass>,
    /// The chaos plan.
    pub faults: FaultPlan,
    /// The scheduler specs this scenario is meant to stress (the bench and
    /// the oracle run every one).
    pub specs: Vec<SchedulerSpec>,
}

/// Why a scenario failed validation or JSON parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario is structurally inconsistent.
    Invalid(String),
    /// The JSON text does not describe a scenario.
    BadJson(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::BadJson(msg) => write!(f, "bad scenario JSON: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// A fault-free scenario with 4 clients and 16 retries.
    pub fn new(
        name: &str,
        seed: u64,
        transactions: usize,
        groups: Vec<ObjectGroup>,
        mix: Vec<ClientClass>,
        specs: Vec<SchedulerSpec>,
    ) -> Self {
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

    /// Checks the scenario's internal consistency: non-empty population, mix
    /// and scheduler line-up; every class targets an existing group; shapes
    /// and probabilities are in range.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::Invalid(msg));
        if self.transactions == 0 {
            return bad("transactions must be positive".into());
        }
        // The JSON layer carries integers as i64, so counters above
        // i64::MAX cannot round-trip; reject them up front.
        if self.seed > i64::MAX as u64 {
            return bad("seed must fit in an i64 (the JSON integer range)".into());
        }
        if let Some(s) = &self.faults.storm {
            if s.from > i64::MAX as u64 || s.until > i64::MAX as u64 {
                return bad("storm gates must fit in an i64 (the JSON integer range)".into());
            }
            if s.from > s.until {
                return bad(format!(
                    "inverted storm window: first gate {} lies after the window's end {}",
                    s.from, s.until
                ));
            }
        }
        if let Some(c) = &self.faults.crash {
            if !(0.0..=1.0).contains(&c.fraction) {
                return bad("crash fraction out of [0, 1]".into());
            }
        }
        if self.clients == 0 {
            return bad("clients must be positive".into());
        }
        if self.groups.is_empty() {
            return bad("at least one object group is required".into());
        }
        if self.mix.is_empty() {
            return bad("at least one client class is required".into());
        }
        if self.specs.is_empty() {
            return bad("at least one scheduler spec is required".into());
        }
        let mut names = BTreeSet::new();
        for g in &self.groups {
            if !names.insert(g.name.as_str()) {
                return bad(format!("duplicate group {:?}", g.name));
            }
            if g.objects == 0 {
                return bad(format!("group {:?} has no objects", g.name));
            }
        }
        if self.mix.iter().all(|c| c.weight == 0) {
            return bad("the mix has zero total weight".into());
        }
        for c in &self.mix {
            if !names.contains(c.group.as_str()) {
                return bad(format!(
                    "class {:?} targets unknown group {:?}",
                    c.name, c.group
                ));
            }
            if c.ops == 0 || c.nesting.depth == 0 || c.nesting.width == 0 {
                return bad(format!("class {:?} has a zero shape parameter", c.name));
            }
            if !(0.0..=1.0).contains(&c.read_fraction) {
                return bad(format!("class {:?} read_fraction out of [0, 1]", c.name));
            }
            let keyed = {
                let g = self.groups.iter().find(|g| g.name == c.group).unwrap();
                matches!(
                    g.adt,
                    AdtKind::Set | AdtKind::Dictionary | AdtKind::BTreeDict
                )
            };
            if keyed {
                let g = self.groups.iter().find(|g| g.name == c.group).unwrap();
                if g.keys == 0 {
                    return bad(format!("keyed group {:?} needs a key space", g.name));
                }
            }
            if let KeyDist::Partitioned { partitions } = c.dist {
                if partitions == 0 {
                    return bad(format!("class {:?} has zero partitions", c.name));
                }
            }
        }
        for spec in &self.specs {
            spec.validate()
                .map_err(|e| ScenarioError::Invalid(format!("scheduler spec: {e}")))?;
        }
        Ok(())
    }

    /// Renders the scenario as a JSON value.
    pub fn to_json(&self) -> Json {
        let dist = |d: &KeyDist| match d {
            KeyDist::Uniform => Json::object([("kind", Json::str("uniform"))]),
            KeyDist::HotKey { theta } => Json::object([
                ("kind", Json::str("hot-key")),
                ("theta", Json::Float(*theta)),
            ]),
            KeyDist::Partitioned { partitions } => Json::object([
                ("kind", Json::str("partitioned")),
                ("partitions", Json::Int(*partitions as i64)),
            ]),
        };
        let storm = |s: &Storm| {
            Json::object([
                ("from", Json::Int(s.from as i64)),
                ("until", Json::Int(s.until as i64)),
                ("rate", Json::Float(s.rate)),
            ])
        };
        Json::object([
            ("name", Json::str(&self.name)),
            ("seed", Json::Int(self.seed as i64)),
            ("transactions", Json::Int(self.transactions as i64)),
            ("clients", Json::Int(self.clients as i64)),
            ("retries", Json::Int(i64::from(self.retries))),
            (
                "groups",
                Json::Array(
                    self.groups
                        .iter()
                        .map(|g| {
                            Json::object([
                                ("name", Json::str(&g.name)),
                                ("adt", Json::str(g.adt.key())),
                                ("objects", Json::Int(g.objects as i64)),
                                ("keys", Json::Int(g.keys as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "mix",
                Json::Array(
                    self.mix
                        .iter()
                        .map(|c| {
                            Json::object([
                                ("name", Json::str(&c.name)),
                                ("weight", Json::Int(i64::from(c.weight))),
                                ("group", Json::str(&c.group)),
                                ("ops", Json::Int(c.ops as i64)),
                                ("read_fraction", Json::Float(c.read_fraction)),
                                ("dist", dist(&c.dist)),
                                (
                                    "nesting",
                                    Json::object([
                                        ("depth", Json::Int(c.nesting.depth as i64)),
                                        ("width", Json::Int(c.nesting.width as i64)),
                                        ("parallel", Json::Bool(c.nesting.parallel)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults",
                Json::object([
                    ("doom_rate", Json::Float(self.faults.doom_rate)),
                    (
                        "storm",
                        self.faults.storm.as_ref().map(storm).unwrap_or(Json::Null),
                    ),
                    ("stall_rate", Json::Float(self.faults.stall_rate)),
                    ("stall_ticks", Json::Int(i64::from(self.faults.stall_ticks))),
                    (
                        "deadline_ms",
                        self.faults
                            .deadline_ms
                            .map(|ms| Json::Int(ms as i64))
                            .unwrap_or(Json::Null),
                    ),
                    (
                        "crash",
                        self.faults
                            .crash
                            .as_ref()
                            .map(|c| {
                                Json::object([
                                    ("fraction", Json::Float(c.fraction)),
                                    ("corrupt", Json::Bool(c.corrupt)),
                                ])
                            })
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
            (
                "specs",
                Json::Array(self.specs.iter().map(SchedulerSpec::to_json).collect()),
            ),
        ])
    }

    /// Renders the scenario as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses and validates a scenario from JSON text.
    ///
    /// Malformed JSON reports the failure's line/column and a caret-marked
    /// excerpt ([`ParseError::render`](obase_ser::ParseError::render)), not
    /// just a byte offset.
    pub fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        let json = Json::parse(input).map_err(|e| ScenarioError::BadJson(e.render(input)))?;
        let scenario = Scenario::from_json(&json)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Builds a scenario from a parsed JSON value (without validating it —
    /// use [`parse`](Scenario::parse) for the full path).
    pub fn from_json(json: &Json) -> Result<Scenario, ScenarioError> {
        let bad = |msg: String| ScenarioError::BadJson(msg);
        let str_field = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(format!("missing string field {name:?}")))
        };
        let int_field = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_int)
                .ok_or_else(|| bad(format!("missing integer field {name:?}")))
        };
        let float_field = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_float)
                .ok_or_else(|| bad(format!("missing number field {name:?}")))
        };
        let usize_of = |v: i64, name: &str| {
            usize::try_from(v).map_err(|_| bad(format!("field {name:?} must be non-negative")))
        };
        let u64_of = |v: i64, name: &str| {
            u64::try_from(v).map_err(|_| bad(format!("field {name:?} must be non-negative")))
        };
        let array_field = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| bad(format!("missing array field {name:?}")))
        };

        let mut groups = Vec::new();
        for g in array_field(json, "groups")? {
            let adt_key = str_field(&g, "adt")?;
            groups.push(ObjectGroup {
                name: str_field(&g, "name")?,
                adt: AdtKind::from_key(&adt_key)
                    .ok_or_else(|| bad(format!("unknown adt kind {adt_key:?}")))?,
                objects: usize_of(int_field(&g, "objects")?, "objects")?,
                keys: usize_of(int_field(&g, "keys")?, "keys")?,
            });
        }

        let mut mix = Vec::new();
        for c in array_field(json, "mix")? {
            let dist_json = c
                .get("dist")
                .ok_or_else(|| bad("class needs a \"dist\"".into()))?;
            let dist = match str_field(dist_json, "kind")?.as_str() {
                "uniform" => KeyDist::Uniform,
                "hot-key" => KeyDist::HotKey {
                    theta: float_field(dist_json, "theta")?,
                },
                "partitioned" => KeyDist::Partitioned {
                    partitions: usize_of(int_field(dist_json, "partitions")?, "partitions")?,
                },
                other => return Err(bad(format!("unknown dist kind {other:?}"))),
            };
            let nesting = match c.get("nesting") {
                None => NestingShape::default(),
                Some(n) => NestingShape {
                    depth: usize_of(int_field(n, "depth")?, "depth")?,
                    width: usize_of(int_field(n, "width")?, "width")?,
                    parallel: n.get("parallel").and_then(Json::as_bool).unwrap_or(false),
                },
            };
            mix.push(ClientClass {
                name: str_field(&c, "name")?,
                weight: int_field(&c, "weight")?
                    .try_into()
                    .map_err(|_| bad("weight out of range".into()))?,
                group: str_field(&c, "group")?,
                ops: usize_of(int_field(&c, "ops")?, "ops")?,
                read_fraction: float_field(&c, "read_fraction")?,
                dist,
                nesting,
            });
        }

        let faults = match json.get("faults") {
            None => FaultPlan::default(),
            Some(f) => FaultPlan {
                doom_rate: f.get("doom_rate").and_then(Json::as_float).unwrap_or(0.0),
                storm: match f.get("storm") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(Storm {
                        from: u64_of(int_field(s, "from")?, "from")?,
                        until: u64_of(int_field(s, "until")?, "until")?,
                        rate: float_field(s, "rate")?,
                    }),
                },
                stall_rate: f.get("stall_rate").and_then(Json::as_float).unwrap_or(0.0),
                stall_ticks: f
                    .get("stall_ticks")
                    .and_then(Json::as_int)
                    .unwrap_or(0)
                    .try_into()
                    .map_err(|_| bad("stall_ticks out of range".into()))?,
                deadline_ms: match f.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_int()
                            .and_then(|i| u64::try_from(i).ok())
                            .ok_or_else(|| bad("deadline_ms must be a non-negative int".into()))?,
                    ),
                },
                crash: match f.get("crash") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(CrashPlan {
                        fraction: float_field(c, "fraction")?,
                        corrupt: c.get("corrupt").and_then(Json::as_bool).unwrap_or(false),
                    }),
                },
            },
        };

        let mut specs = Vec::new();
        for s in array_field(json, "specs")? {
            specs.push(
                SchedulerSpec::from_json(&s)
                    .map_err(|e| bad(format!("bad scheduler spec: {e}")))?,
            );
        }

        Ok(Scenario {
            name: str_field(json, "name")?,
            seed: u64_of(int_field(json, "seed")?, "seed")?,
            transactions: usize_of(int_field(json, "transactions")?, "transactions")?,
            clients: usize_of(int_field(json, "clients")?, "clients")?,
            retries: int_field(json, "retries")?
                .try_into()
                .map_err(|_| bad("retries out of range".into()))?,
            groups,
            mix,
            faults,
            specs,
        })
    }
}
