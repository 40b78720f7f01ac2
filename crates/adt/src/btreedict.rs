//! An ordered dictionary object kept as a sorted list of pairs, with key-
//! and range-aware semantic conflicts.
//!
//! Section 2's motivating example is a dictionary "implemented as a B-tree"
//! that wants its own specialised intra-object synchronisation. The plain
//! [`Dictionary`](crate::Dictionary) captures the key-wise conflicts;
//! `BTreeDict` adds the operation that makes the B-tree implementation
//! interesting: an ordered `Range(lo, hi)` scan, which conflicts with a
//! mutation exactly when the mutated key falls inside the scanned interval —
//! the semantic shape that key-range locking exploits in relational systems.
//! The physical B-tree of the code base is [`PMap`](obase_core::pmap::PMap),
//! which backs every map-valued state; this type searches its sorted list in
//! place.

use obase_core::error::TypeError;
use obase_core::object::SemanticType;
use obase_core::op::{LocalStep, Operation};
use obase_core::value::Value;
use std::sync::Arc;

/// An integer-keyed ordered dictionary with `Insert(k, v)`, `Delete(k)`,
/// `Lookup(k)` and `Range(lo, hi)` operations.
///
/// The state is a list of `[k, v]` pairs sorted by key. `Lookup` and
/// `Range` binary-search it and return the input state; `Insert` and a
/// `Delete` that finds its key copy the list once and edit it at the
/// searched index (a `Delete` of an absent key returns the input state).
/// `Insert` returns the previous value (or `Unit`), `Delete` the removed
/// value (or `Unit`), `Lookup` the present value (or `Unit`) and `Range`
/// the list of values whose keys lie in the *inclusive* interval
/// `[lo, hi]`.
#[derive(Clone, Debug, Default)]
pub struct BTreeDict;

fn bad_state() -> TypeError {
    TypeError::BadState {
        type_name: "BTreeDict".into(),
        expected: "sorted List of [Int key, Int value] pairs".into(),
    }
}

/// Decodes one `[k, v]` pair of the state.
fn pair(pair: &Value) -> Result<(i64, i64), TypeError> {
    match pair.as_list() {
        Some([Value::Int(k), Value::Int(v), ..]) => Ok((*k, *v)),
        _ => Err(bad_state()),
    }
}

/// The index of the first pair whose key fails `before`, for a `before`
/// that holds on a prefix of the sorted keys. Decodes only the pairs the
/// search visits.
fn partition_point(pairs: &[Value], before: impl Fn(i64) -> bool) -> Result<usize, TypeError> {
    let (mut lo, mut hi) = (0, pairs.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(pair(&pairs[mid])?.0) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

impl BTreeDict {
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
        let Value::List(list) = state else {
            return Err(bad_state());
        };
        // The index of `k`'s pair, or the index it would be inserted at,
        // and the value stored under `k`.
        let find = |k: i64| -> Result<(usize, Option<i64>), TypeError> {
            let i = partition_point(list, |key| key < k)?;
            let next = list.get(i).map(pair).transpose()?;
            Ok((i, next.filter(|(key, _)| *key == k).map(|(_, v)| v)))
        };
        let opt = |v: Option<i64>| v.map(Value::Int).unwrap_or(Value::Unit);
        match op.name.as_str() {
            "Insert" => {
                let k = self.int_arg(op, 0)?;
                let v = self.int_arg(op, 1)?;
                let (i, old) = find(k)?;
                let entry = Value::list([Value::Int(k), Value::Int(v)]);
                let mut next = Vec::clone(list);
                if old.is_some() {
                    next[i] = entry;
                } else {
                    next.insert(i, entry);
                }
                Ok((Value::List(Arc::new(next)), opt(old)))
            }
            "Delete" => {
                let k = self.int_arg(op, 0)?;
                match find(k)? {
                    (i, Some(removed)) => {
                        let mut next = Vec::clone(list);
                        next.remove(i);
                        Ok((Value::List(Arc::new(next)), Value::Int(removed)))
                    }
                    (_, None) => Ok((state.clone(), Value::Unit)),
                }
            }
            "Lookup" => {
                let k = self.int_arg(op, 0)?;
                Ok((state.clone(), opt(find(k)?.1)))
            }
            "Range" => {
                let lo = self.int_arg(op, 0)?;
                let hi = self.int_arg(op, 1)?;
                let from = partition_point(list, |key| key < lo)?;
                // `lo > hi` leaves `to` at or before `from`: an empty interval.
                let to = partition_point(list, |key| key <= hi)?.max(from);
                let values = list[from..to]
                    .iter()
                    .map(|p| Ok(Value::Int(pair(p)?.1)))
                    .collect::<Result<_, TypeError>>()?;
                Ok((state.clone(), Value::List(Arc::new(values))))
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

    #[test]
    fn malformed_pairs_are_bad_state() {
        let d = BTreeDict;
        let bad = |state: Value, op: Operation| {
            assert!(
                matches!(d.apply(&state, &op), Err(TypeError::BadState { .. })),
                "{op:?} on {state:?}"
            );
        };
        let good = |k: i64| Value::list([Value::Int(k), Value::Int(k)]);
        bad(Value::Int(3), Operation::unary("Lookup", 1));
        bad(Value::list([Value::Int(1)]), Operation::unary("Lookup", 1));
        bad(
            Value::list([good(1), Value::list([Value::Int(2)])]),
            Operation::new("Range", [Value::Int(0), Value::Int(9)]),
        );
        bad(
            Value::list([good(1), Value::list([Value::Int(2), Value::Unit])]),
            Operation::new("Insert", [Value::Int(2), Value::Int(5)]),
        );
    }
}
