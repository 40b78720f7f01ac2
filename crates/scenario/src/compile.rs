//! Compiling a [`Scenario`] into an executable
//! [`WorkloadSpec`].
//!
//! Compilation is fully seeded: the object base, the per-class method
//! bodies (the read/write mix is baked into a small set of body variants)
//! and the transaction stream all draw
//! from one ChaCha8 stream, so the same scenario always compiles to the
//! same workload.
//!
//! The nesting shape is realised structurally. A class of depth 1 invokes a
//! *leaf* method (`ops` local operations). Depth `d > 1` invokes a *chain*
//! method, which performs one local step on its own object and then invokes
//! the next-shallower chain (or, at the bottom, a leaf) on the group's next
//! object — a genuine `d`-deep execution tree across `d` objects. Width `w`
//! puts `w` such invocation branches under the transaction root, as a `Par`
//! block when the class asks for internal parallelism.

use crate::spec::{AdtKind, KeyDist, Scenario};
use obase_core::ids::ObjectId;
use obase_core::object::ObjectBase;
use obase_core::value::Value;
use obase_exec::{Expr, MethodDef, ObjRef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
use obase_workload::Zipf;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Leaf-method body variants defined per (class, object), so successive
/// invocations execute slightly different operation batches.
const VARIANTS: usize = 4;

fn leaf_name(class: usize, variant: usize) -> String {
    format!("w{class}_{variant}")
}

fn chain_name(class: usize, depth: usize) -> String {
    format!("c{class}_d{depth}")
}

/// One local operation for a leaf body: an observer with probability
/// `read_fraction`, a mutator otherwise. Keyed types address `Param(0)`;
/// value-ish arguments come from `Param(1)`. An account mutator withdraws
/// when `slot` is odd and deposits when it is even, so every account class
/// both withdraws and deposits, in the same proportion on every seed.
fn leaf_op(adt: AdtKind, read_fraction: f64, slot: usize, rng: &mut ChaCha8Rng) -> Program {
    let read = rng.gen_bool(read_fraction.clamp(0.0, 1.0));
    let p0 = || vec![Expr::Param(0)];
    let p01 = || vec![Expr::Param(0), Expr::Param(1)];
    let local = |op: &str, args: Vec<Expr>| Program::Local {
        op: op.into(),
        args,
    };
    match adt {
        AdtKind::Register => {
            if read {
                local("Read", vec![])
            } else {
                local("Write", vec![Expr::Param(1)])
            }
        }
        AdtKind::Counter => {
            if read {
                local("Get", vec![])
            } else {
                local("Add", vec![Expr::Param(1)])
            }
        }
        AdtKind::Account => {
            if read {
                local("Balance", vec![])
            } else if slot % 2 == 1 {
                local("Withdraw", vec![Expr::Param(1)])
            } else {
                local("Deposit", vec![Expr::Param(1)])
            }
        }
        AdtKind::Set => {
            if read {
                local("Contains", p0())
            } else if rng.gen_bool(0.5) {
                local("Insert", p0())
            } else {
                local("Remove", p0())
            }
        }
        AdtKind::Dictionary => {
            if read {
                local("Lookup", p0())
            } else if rng.gen_bool(0.5) {
                local("Insert", p01())
            } else {
                local("Delete", p0())
            }
        }
        AdtKind::BTreeDict => {
            if read {
                if rng.gen_bool(0.5) {
                    local("Lookup", p0())
                } else {
                    // Param(1) is the range's high key (the generator emits
                    // `key + span` there for B-tree classes).
                    local("Range", p01())
                }
            } else if rng.gen_bool(0.5) {
                local("Insert", p01())
            } else {
                local("Delete", p0())
            }
        }
        AdtKind::Queue => {
            if read {
                local("Dequeue", vec![])
            } else {
                local("Enqueue", vec![Expr::Param(1)])
            }
        }
    }
}

/// A seeded index picker for one client class over a domain of size `n`.
struct Picker {
    dist: KeyDist,
    zipf: Option<Zipf>,
    n: usize,
}

impl Picker {
    fn new(dist: KeyDist, n: usize) -> Self {
        let n = n.max(1);
        let zipf = match dist {
            KeyDist::HotKey { theta } => Some(Zipf::new(n, theta)),
            _ => None,
        };
        Picker { dist, zipf, n }
    }

    /// Draws an index in `0..n`; `txn` pins partitioned classes to their
    /// transaction's slice.
    fn pick(&self, txn: usize, rng: &mut ChaCha8Rng) -> usize {
        match self.dist {
            KeyDist::Uniform => rng.gen_range(0..self.n),
            KeyDist::HotKey { .. } => self
                .zipf
                .as_ref()
                .expect("hot-key has a sampler")
                .sample(rng),
            KeyDist::Partitioned { partitions } => {
                // Disjoint slices covering 0..n: partition i owns
                // [i·n/p, (i+1)·n/p), non-empty whenever p ≤ n — so the
                // documented no-cross-partition-conflict guarantee holds
                // even when p does not divide n.
                let partitions = partitions.clamp(1, self.n);
                let part = txn % partitions;
                let lo = part * self.n / partitions;
                let hi = (part + 1) * self.n / partitions;
                lo + rng.gen_range(0..hi - lo)
            }
        }
    }
}

/// Argument pair for one invocation branch: `(key-ish, value-ish)`.
fn branch_args(adt: AdtKind, key: usize, keys: usize, rng: &mut ChaCha8Rng) -> (Value, Value) {
    match adt {
        AdtKind::Dictionary => (
            Value::from(format!("k{key}")),
            Value::Int(rng.gen_range(0..1_000i64)),
        ),
        AdtKind::BTreeDict => {
            // Param(1) doubles as the Range high key and the Insert value:
            // an interval of ~1/8th of the key space anchored at the key.
            let span = (keys / 8).max(1) as i64;
            (Value::Int(key as i64), Value::Int(key as i64 + span))
        }
        AdtKind::Set => (Value::Int(key as i64), Value::Int(1)),
        _ => (Value::Int(key as i64), Value::Int(rng.gen_range(1..10i64))),
    }
}

impl Scenario {
    /// Compiles the scenario into an executable workload. Deterministic per
    /// scenario (the seed covers generation; fault injection draws from its
    /// own stream at run time).
    ///
    /// # Panics
    /// Panics if the scenario is invalid — call
    /// [`validate`](Scenario::validate) (or construct via
    /// [`parse`](Scenario::parse), which validates) first.
    pub fn compile(&self) -> WorkloadSpec {
        self.validate().expect("compile requires a valid scenario");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Population.
        let mut base = ObjectBase::new();
        let mut group_objects: BTreeMap<&str, Vec<ObjectId>> = BTreeMap::new();
        for g in &self.groups {
            let ty = g.adt.type_handle();
            let ids = (0..g.objects)
                .map(|i| {
                    let name = format!("{}-{i}", g.name);
                    match g.adt.initial_state(g.keys, i) {
                        Some(state) => base.add_object_with_state(name, ty.clone(), state),
                        None => base.add_object(name, ty.clone()),
                    }
                })
                .collect();
            group_objects.insert(&g.name, ids);
        }
        let mut def = ObjectBaseDef::new(Arc::new(base));

        // Methods: per class, leaf variants plus the chain on every object
        // of its group.
        for (ci, class) in self.mix.iter().enumerate() {
            let g = self
                .groups
                .iter()
                .find(|g| g.name == class.group)
                .expect("validated");
            let objs = &group_objects[class.group.as_str()];
            for (oi, &o) in objs.iter().enumerate() {
                for variant in 0..VARIANTS {
                    let body: Vec<Program> = (0..class.ops)
                        .map(|op| leaf_op(g.adt, class.read_fraction, variant + op, &mut rng))
                        .collect();
                    def.define_method(
                        o,
                        MethodDef {
                            name: leaf_name(ci, variant),
                            params: 2,
                            body: Program::Seq(body),
                        },
                    );
                }
                for d in 2..=class.nesting.depth {
                    let next = objs[(oi + 1) % objs.len()];
                    let callee = if d == 2 {
                        leaf_name(ci, (oi + d) % VARIANTS)
                    } else {
                        chain_name(ci, d - 1)
                    };
                    def.define_method(
                        o,
                        MethodDef {
                            name: chain_name(ci, d),
                            params: 2,
                            body: Program::Seq(vec![
                                leaf_op(g.adt, class.read_fraction, d, &mut rng),
                                Program::Invoke {
                                    object: ObjRef::Const(next),
                                    method: callee,
                                    args: vec![Expr::Param(0), Expr::Param(1)],
                                },
                            ]),
                        },
                    );
                }
            }
        }

        // Per-class samplers (objects and keys can have different domains).
        let pickers: Vec<(Picker, Picker)> = self
            .mix
            .iter()
            .map(|c| {
                let g = self.groups.iter().find(|g| g.name == c.group).unwrap();
                (
                    Picker::new(c.dist, g.objects),
                    Picker::new(c.dist, g.keys.max(1)),
                )
            })
            .collect();
        let total_weight: u64 = self.mix.iter().map(|c| u64::from(c.weight)).sum();

        // The transaction stream.
        let transactions = (0..self.transactions)
            .map(|t| {
                let mut draw = rng.gen_range(0..total_weight);
                let (ci, class) = self
                    .mix
                    .iter()
                    .enumerate()
                    .find(|(_, c)| {
                        let w = u64::from(c.weight);
                        if draw < w {
                            true
                        } else {
                            draw -= w;
                            false
                        }
                    })
                    .expect("weights sum over every class");
                let g = self.groups.iter().find(|g| g.name == class.group).unwrap();
                let objs = &group_objects[class.group.as_str()];
                let (obj_picker, key_picker) = &pickers[ci];
                let entry = |variant: usize| {
                    if class.nesting.depth == 1 {
                        leaf_name(ci, variant)
                    } else {
                        chain_name(ci, class.nesting.depth)
                    }
                };
                let branches: Vec<Program> = (0..class.nesting.width)
                    .map(|_| {
                        let o = objs[obj_picker.pick(t, &mut rng)];
                        let key = key_picker.pick(t, &mut rng);
                        let (k, v) = branch_args(g.adt, key, g.keys, &mut rng);
                        Program::Invoke {
                            object: ObjRef::Const(o),
                            method: entry(rng.gen_range(0..VARIANTS as u32) as usize),
                            args: vec![Expr::Const(k), Expr::Const(v)],
                        }
                    })
                    .collect();
                let body = if class.nesting.parallel && branches.len() > 1 {
                    Program::Par(branches)
                } else {
                    Program::Seq(branches)
                };
                TxnSpec {
                    name: format!("{}-{t}", class.name),
                    body,
                }
            })
            .collect();

        WorkloadSpec { def, transactions }
    }

    /// Compiles just the scenario's object base and method definitions —
    /// the *world* without the transaction stream. This is what a serving
    /// front end loads: the population and methods come from the scenario,
    /// while the transactions arrive over the wire (typically the
    /// scenario's own compiled transaction bodies, submitted by clients).
    ///
    /// # Panics
    /// Panics if the scenario is invalid, like [`compile`](Scenario::compile).
    pub fn compile_def(&self) -> ObjectBaseDef {
        self.compile().def
    }
}

#[cfg(test)]
mod picker_tests {
    use super::*;

    /// The documented partitioned guarantee: slices are disjoint and cover
    /// the domain even when the partition count does not divide it.
    #[test]
    fn partitioned_slices_are_disjoint_even_when_uneven() {
        let n = 5;
        let partitions = 4;
        let picker = Picker::new(KeyDist::Partitioned { partitions }, n);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut owner = vec![None; n];
        for txn in 0..200 {
            let part = txn % partitions;
            let idx = picker.pick(txn, &mut rng);
            match owner[idx] {
                None => owner[idx] = Some(part),
                Some(p) => assert_eq!(p, part, "index {idx} drawn by partitions {p} and {part}"),
            }
        }
        // Every index is reachable by exactly one partition.
        assert!(owner.iter().all(Option::is_some));
    }

    #[test]
    fn more_partitions_than_items_still_draws_in_range() {
        let picker = Picker::new(KeyDist::Partitioned { partitions: 9 }, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for txn in 0..50 {
            assert!(picker.pick(txn, &mut rng) < 3);
        }
    }
}
