//! The three workloads: their object bases and their seeded transaction
//! streams.
//!
//! Object sizes are stationary by construction, so a figure does not
//! depend on how far a run got: accounts and counters hold one integer,
//! and every dictionary mutation overwrites a preloaded key.

use obase_adt::{Account, Counter, Dictionary};
use obase_core::ids::ObjectId;
use obase_core::object::{ObjectBase, TypeHandle};
use obase_core::value::Value;
use obase_exec::{Expr, MethodDef, ObjRef, ObjectBaseDef, Program};
use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
use obase_workload::Zipf;
use std::sync::Arc;

/// `flat-accounts`: number of `Account` objects.
pub const ACCOUNTS: usize = 256;
/// `large-dict`: number of `Dictionary` objects.
pub const DICTS: usize = 8;
/// `large-dict`: preloaded keys per dictionary.
pub const DICT_KEYS: usize = 1024;
/// `hot-nested`: number of `Counter` objects.
pub const COUNTERS: usize = 8;
/// `hot-nested`: depth of every invocation chain.
pub const CHAIN_DEPTH: usize = 3;
/// `hot-nested`: Zipf skew of the chain's entry object.
const HOT_THETA: f64 = 1.2;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cheap, nearly conflict-free deposits and balance reads.
    FlatAccounts,
    /// Lookups and overwrites on large preloaded dictionaries.
    LargeDict,
    /// Skewed depth-3 invocation chains over a few counters.
    HotNested,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FlatAccounts,
        Workload::LargeDict,
        Workload::HotNested,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatAccounts => "flat-accounts",
            Workload::LargeDict => "large-dict",
            Workload::HotNested => "hot-nested",
        }
    }

    /// Top-level invocations per transaction.
    pub fn invocations(self) -> usize {
        match self {
            Workload::FlatAccounts | Workload::LargeDict => 2,
            Workload::HotNested => 1,
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The served object base with its methods. Independent of the seed.
    pub fn world(self) -> ObjectBaseDef {
        let mut base = ObjectBase::new();
        let (count, ty, state): (usize, TypeHandle, Option<Value>) = match self {
            Workload::FlatAccounts => (ACCOUNTS, Arc::new(Account::with_initial(1_000)), None),
            Workload::LargeDict => (
                DICTS,
                Arc::new(Dictionary),
                Some(Value::map(
                    (0..DICT_KEYS).map(|k| (dict_key(k), Value::Int(k as i64))),
                )),
            ),
            Workload::HotNested => (COUNTERS, Arc::new(Counter::default()), None),
        };
        for i in 0..count {
            let name = format!("{}-{i}", self.name());
            let id = match &state {
                Some(s) => base.add_object_with_state(name, ty.clone(), s.clone()),
                None => base.add_object(name, ty.clone()),
            };
            assert_eq!(id, ObjectId(i as u32), "object ids follow insertion order");
        }
        let mut def = ObjectBaseDef::new(Arc::new(base));
        for i in 0..count {
            let o = ObjectId(i as u32);
            for method in self.methods(i) {
                def.define_method(o, method);
            }
        }
        def
    }

    fn methods(self, i: usize) -> Vec<MethodDef> {
        let leaf = |name: &str, params: usize, op: &str| MethodDef {
            name: name.into(),
            params,
            body: Program::Local {
                op: op.into(),
                args: (0..params).map(Expr::Param).collect(),
            },
        };
        match self {
            Workload::FlatAccounts => {
                vec![leaf("deposit", 1, "Deposit"), leaf("balance", 0, "Balance")]
            }
            Workload::LargeDict => vec![leaf("lookup", 1, "Lookup"), leaf("put", 2, "Insert")],
            Workload::HotNested => {
                // One method per read/write pattern of length 1..=depth: the
                // first letter is this object's step, the rest is the chain
                // continued on the next object.
                let next = ObjectId(((i + 1) % COUNTERS) as u32);
                (1..=CHAIN_DEPTH)
                    .flat_map(patterns)
                    .map(|p| {
                        let step = if p.starts_with('r') {
                            Program::Local {
                                op: "Get".into(),
                                args: vec![],
                            }
                        } else {
                            Program::Local {
                                op: "Add".into(),
                                args: vec![Expr::Param(0)],
                            }
                        };
                        let body = if p.len() == 1 {
                            step
                        } else {
                            Program::Seq(vec![
                                step,
                                Program::Invoke {
                                    object: ObjRef::Const(next),
                                    method: format!("h{}", &p[1..]),
                                    args: vec![Expr::Param(0)],
                                },
                            ])
                        };
                        MethodDef {
                            name: format!("h{p}"),
                            params: 1,
                            body,
                        }
                    })
                    .collect()
            }
        }
    }

    /// The transaction stream of one lane (a connection, or the traced
    /// replay): a pure function of `(workload, seed, lane)`.
    pub fn stream(self, seed: u64, lane: u64) -> TxnStream {
        let mixed = seed ^ (lane + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        TxnStream {
            workload: self,
            rng: ChaCha8Rng::seed_from_u64(mixed),
            zipf: Zipf::new(COUNTERS, HOT_THETA),
        }
    }
}

/// The key of preloaded dictionary entry `k`.
pub fn dict_key(k: usize) -> String {
    format!("k{k}")
}

/// Every `r`/`w` string of length `len`.
fn patterns(len: usize) -> Vec<String> {
    (0..1usize << len)
        .map(|bits| {
            (0..len)
                .map(|j| if bits >> j & 1 == 1 { 'r' } else { 'w' })
                .collect()
        })
        .collect()
}

/// A seeded, endless stream of transaction bodies.
pub struct TxnStream {
    workload: Workload,
    rng: ChaCha8Rng,
    zipf: Zipf,
}

impl TxnStream {
    /// The next transaction body.
    pub fn next_body(&mut self) -> Program {
        let n = self.workload.invocations();
        Program::Seq((0..n).map(|_| self.next_invocation()).collect())
    }

    fn next_invocation(&mut self) -> Program {
        let rng = &mut self.rng;
        let invoke = |o: usize, method: &str, args: Vec<Value>| Program::Invoke {
            object: ObjRef::Const(ObjectId(o as u32)),
            method: method.into(),
            args: args.into_iter().map(Expr::Const).collect(),
        };
        match self.workload {
            Workload::FlatAccounts => {
                let o = rng.gen_range(0..ACCOUNTS);
                if rng.gen_bool(0.2) {
                    invoke(o, "balance", vec![])
                } else {
                    invoke(o, "deposit", vec![Value::Int(rng.gen_range(1..10i64))])
                }
            }
            Workload::LargeDict => {
                let o = rng.gen_range(0..DICTS);
                let key = Value::from(dict_key(rng.gen_range(0..DICT_KEYS)));
                if rng.gen_bool(0.5) {
                    invoke(o, "lookup", vec![key])
                } else {
                    let v = Value::Int(rng.gen_range(0..1_000_000i64));
                    invoke(o, "put", vec![key, v])
                }
            }
            Workload::HotNested => {
                let o = self.zipf.sample(rng);
                let pattern: String = (0..CHAIN_DEPTH)
                    .map(|_| if rng.gen_bool(0.2) { 'r' } else { 'w' })
                    .collect();
                let amount = Value::Int(rng.gen_range(1..10i64));
                invoke(o, &format!("h{pattern}"), vec![amount])
            }
        }
    }
}
