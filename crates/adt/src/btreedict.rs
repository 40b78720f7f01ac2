//! An ordered dictionary object physically backed by the [`btree`] module,
//! with key- and range-aware semantic conflicts.
//!
//! Section 2's motivating example is a dictionary "implemented as a B-tree"
//! that wants its own specialised intra-object synchronisation. The plain
//! [`Dictionary`](crate::Dictionary) captures the key-wise conflicts;
//! `BTreeDict` adds the operation that makes the B-tree implementation
//! interesting: an ordered `Range(lo, hi)` scan, which conflicts with a
//! mutation exactly when the mutated key falls inside the scanned interval —
//! the semantic shape that key-range locking exploits in relational systems.
//!
//! [`btree`]: crate::btree

use crate::btree::BTree;
use obase_core::error::TypeError;
use obase_core::object::SemanticType;
use obase_core::op::{LocalStep, Operation};
use obase_core::value::Value;

/// An integer-keyed ordered dictionary with `Insert(k, v)`, `Delete(k)`,
/// `Lookup(k)` and `Range(lo, hi)` operations.
///
/// The state is a sorted list of `[k, v]` pairs; every operation loads it
/// into a [`BTree`] so the physical structure of the paper's Section 2
/// example is genuinely exercised, and a mutation that changes the tree
/// encodes it back (reads and no-op deletes return the input state).
/// `Insert` returns the previous value (or `Unit`), `Delete` the removed
/// value (or `Unit`), `Lookup` the present value (or `Unit`) and `Range`
/// the list of values whose keys lie in the *inclusive* interval
/// `[lo, hi]`.
#[derive(Clone, Debug, Default)]
pub struct BTreeDict;

impl BTreeDict {
    fn tree(&self, state: &Value) -> Result<BTree<i64, i64>, TypeError> {
        let bad = || TypeError::BadState {
            type_name: "BTreeDict".into(),
            expected: "sorted List of [Int key, Int value] pairs".into(),
        };
        let pairs = state.as_list().ok_or_else(bad)?;
        let mut tree = BTree::default();
        for pair in pairs {
            let kv = pair.as_list().ok_or_else(bad)?;
            let (Some(k), Some(v)) = (
                kv.first().and_then(Value::as_int),
                kv.get(1).and_then(Value::as_int),
            ) else {
                return Err(bad());
            };
            tree.insert(k, v);
        }
        Ok(tree)
    }

    fn state(&self, tree: &BTree<i64, i64>) -> Value {
        Value::list(
            tree.iter()
                .map(|(k, v)| Value::list([Value::Int(*k), Value::Int(*v)])),
        )
    }

    fn int_arg(&self, op: &Operation, i: usize) -> Result<i64, TypeError> {
        op.arg_int(i).ok_or_else(|| TypeError::BadArguments {
            type_name: "BTreeDict".into(),
            op: op.clone(),
            expected: "Int key/value arguments".into(),
        })
    }

    /// The inclusive key interval an operation touches: a point for the
    /// keyed operations, `[lo, hi]` for `Range`, nothing for aborts.
    fn touched_interval(&self, op: &Operation) -> Option<(i64, i64)> {
        match op.name.as_str() {
            "Insert" | "Delete" | "Lookup" => {
                let k = op.arg_int(0)?;
                Some((k, k))
            }
            "Range" => Some((op.arg_int(0)?, op.arg_int(1)?)),
            _ => None,
        }
    }
}

fn intervals_overlap(a: (i64, i64), b: (i64, i64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

impl SemanticType for BTreeDict {
    fn type_name(&self) -> &str {
        "BTreeDict"
    }

    fn initial_state(&self) -> Value {
        Value::list([])
    }

    fn apply(&self, state: &Value, op: &Operation) -> Result<(Value, Value), TypeError> {
        let mut tree = self.tree(state)?;
        let opt = |v: Option<i64>| v.map(Value::Int).unwrap_or(Value::Unit);
        match op.name.as_str() {
            "Insert" => {
                let k = self.int_arg(op, 0)?;
                let v = self.int_arg(op, 1)?;
                let old = tree.insert(k, v);
                Ok((self.state(&tree), opt(old)))
            }
            "Delete" => {
                let k = self.int_arg(op, 0)?;
                match tree.remove(&k) {
                    Some(removed) => Ok((self.state(&tree), Value::Int(removed))),
                    None => Ok((state.clone(), Value::Unit)),
                }
            }
            "Lookup" => {
                let k = self.int_arg(op, 0)?;
                Ok((state.clone(), opt(tree.get(&k).copied())))
            }
            "Range" => {
                let lo = self.int_arg(op, 0)?;
                let hi = self.int_arg(op, 1)?;
                let values = tree
                    .range(&lo, &hi)
                    .into_iter()
                    .map(|(_, v)| Value::Int(*v));
                Ok((state.clone(), Value::list(values)))
            }
            _ if op.is_abort() => Ok((state.clone(), Value::Unit)),
            _ => Err(TypeError::UnknownOperation {
                type_name: self.type_name().into(),
                op: op.clone(),
            }),
        }
    }

    fn ops_conflict(&self, a: &Operation, b: &Operation) -> bool {
        if a.is_abort() || b.is_abort() {
            return false;
        }
        let readonly = |op: &Operation| matches!(op.name.as_str(), "Lookup" | "Range");
        if readonly(a) && readonly(b) {
            return false;
        }
        // A mutation conflicts with anything whose key interval overlaps its
        // key — including a Range scan spanning it. Malformed operations
        // (missing arguments) conservatively conflict with everything.
        match (self.touched_interval(a), self.touched_interval(b)) {
            (Some(ia), Some(ib)) => intervals_overlap(ia, ib),
            _ => true,
        }
    }

    fn steps_conflict(&self, a: &LocalStep, b: &LocalStep) -> bool {
        if !self.ops_conflict(&a.op, &b.op) {
            return false;
        }
        // Return values refine the key-overlap rule: a Delete that removed
        // nothing left the state untouched, so it commutes with any read
        // whose result already reflects the absence.
        let noop_delete = |s: &LocalStep| s.op.name == "Delete" && s.ret == Value::Unit;
        match (a.op.name.as_str(), b.op.name.as_str()) {
            ("Delete", "Delete") => !(noop_delete(a) && noop_delete(b)),
            ("Delete", "Lookup") | ("Lookup", "Delete") => {
                let del = if a.op.name == "Delete" { a } else { b };
                let get = if a.op.name == "Lookup" { a } else { b };
                !(noop_delete(del) && get.ret == Value::Unit)
            }
            _ => true,
        }
    }

    fn op_is_readonly(&self, op: &Operation) -> bool {
        matches!(op.name.as_str(), "Lookup" | "Range") || op.is_abort()
    }

    fn sample_states(&self) -> Vec<Value> {
        let pair = |k: i64, v: i64| Value::list([Value::Int(k), Value::Int(v)]);
        vec![
            Value::list([]),
            Value::list([pair(1, 10)]),
            Value::list([pair(1, 10), pair(3, 30)]),
        ]
    }

    fn sample_operations(&self) -> Vec<Operation> {
        vec![
            Operation::new("Insert", [Value::Int(1), Value::Int(11)]),
            Operation::new("Insert", [Value::Int(2), Value::Int(22)]),
            Operation::unary("Delete", 1),
            Operation::unary("Delete", 3),
            Operation::unary("Lookup", 1),
            Operation::unary("Lookup", 2),
            Operation::new("Range", [Value::Int(1), Value::Int(2)]),
            Operation::new("Range", [Value::Int(2), Value::Int(3)]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::conflict::validate_conflict_spec;

    #[test]
    fn btree_dict_semantics() {
        let d = BTreeDict;
        let s0 = d.initial_state();
        let ins = |k: i64, v: i64| Operation::new("Insert", [Value::Int(k), Value::Int(v)]);
        let (s1, r) = d.apply(&s0, &ins(5, 50)).unwrap();
        assert_eq!(r, Value::Unit);
        let (s2, r) = d.apply(&s1, &ins(5, 55)).unwrap();
        assert_eq!(r, Value::Int(50));
        let (s3, _) = d.apply(&s2, &ins(2, 20)).unwrap();
        let (_, r) = d.apply(&s3, &Operation::unary("Lookup", 5)).unwrap();
        assert_eq!(r, Value::Int(55));
        let (_, r) = d
            .apply(
                &s3,
                &Operation::new("Range", [Value::Int(1), Value::Int(9)]),
            )
            .unwrap();
        assert_eq!(r, Value::list([Value::Int(20), Value::Int(55)]));
        let (s4, r) = d.apply(&s3, &Operation::unary("Delete", 2)).unwrap();
        assert_eq!(r, Value::Int(20));
        let (_, r) = d.apply(&s4, &Operation::unary("Delete", 2)).unwrap();
        assert_eq!(r, Value::Unit);
    }

    #[test]
    fn range_conflicts_follow_the_interval() {
        let d = BTreeDict;
        let range = Operation::new("Range", [Value::Int(10), Value::Int(20)]);
        let inside = Operation::new("Insert", [Value::Int(15), Value::Int(1)]);
        let outside = Operation::new("Insert", [Value::Int(25), Value::Int(1)]);
        assert!(d.ops_conflict(&range, &inside));
        assert!(!d.ops_conflict(&range, &outside));
        // Reads never conflict with reads, even overlapping ranges.
        let other_range = Operation::new("Range", [Value::Int(0), Value::Int(30)]);
        assert!(!d.ops_conflict(&range, &other_range));
        // Point operations conflict only on the same key.
        assert!(!d.ops_conflict(&inside, &outside));
        assert!(d.ops_conflict(&inside, &Operation::unary("Delete", 15)));
    }

    #[test]
    fn noop_deletes_commute_at_step_level() {
        let d = BTreeDict;
        let miss = LocalStep::new(Operation::unary("Delete", 7), Value::Unit);
        let miss2 = LocalStep::new(Operation::unary("Delete", 7), Value::Unit);
        let hit = LocalStep::new(Operation::unary("Delete", 7), Value::Int(70));
        let absent = LocalStep::new(Operation::unary("Lookup", 7), Value::Unit);
        assert!(!d.steps_conflict(&miss, &miss2));
        assert!(d.steps_conflict(&hit, &miss));
        assert!(!d.steps_conflict(&miss, &absent));
        assert!(d.steps_conflict(&hit, &absent));
    }

    #[test]
    fn spec_is_sound() {
        assert!(validate_conflict_spec(&BTreeDict, 2).is_empty());
    }
}
