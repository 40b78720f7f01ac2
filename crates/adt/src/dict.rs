//! A dictionary (key → value map) with key-wise conflicts.
//!
//! The dictionary is the paper's Section 2 example of an object that wants
//! its own intra-object synchronisation algorithm: "an object representing a
//! dictionary data type (with methods Lookup, Insert and Delete) might be
//! implemented as a B-tree" — the physical B-tree is the state itself, a
//! [`PMap`]; this module provides the semantic type whose conflict relation
//! is *key-wise*: operations on different keys always commute.

use obase_core::error::TypeError;
use obase_core::object::SemanticType;
use obase_core::op::{LocalStep, Operation};
use obase_core::pmap::PMap;
use obase_core::value::Value;
use std::borrow::Cow;

/// A dictionary with `Insert(key, value)`, `Delete(key)`, `Lookup(key)` and
/// `Size()` operations. Keys are strings (other key types can be encoded);
/// `Insert` returns the previous value (or Unit), `Delete` returns whether
/// the key was present, `Lookup` returns the value (or Unit).
#[derive(Clone, Debug, Default)]
pub struct Dictionary;

impl Dictionary {
    fn entries<'a>(&self, state: &'a Value) -> Result<&'a PMap<String, Value>, TypeError> {
        match state {
            Value::Map(m) => Ok(m),
            _ => Err(TypeError::BadState {
                type_name: "Dictionary".into(),
                expected: "Map of entries".into(),
            }),
        }
    }

    /// The operation's key, borrowed from a `Str` argument; an `Int` key is
    /// formatted once.
    fn key<'a>(&self, op: &'a Operation) -> Result<Cow<'a, str>, TypeError> {
        let k = op.arg(0).ok_or_else(|| TypeError::BadArguments {
            type_name: "Dictionary".into(),
            op: op.clone(),
            expected: "a key argument".into(),
        })?;
        match k {
            Value::Str(s) => Ok(Cow::Borrowed(s)),
            Value::Int(i) => Ok(Cow::Owned(i.to_string())),
            _ => Err(TypeError::BadArguments {
                type_name: "Dictionary".into(),
                op: op.clone(),
                expected: "a string or integer key".into(),
            }),
        }
    }
}

impl SemanticType for Dictionary {
    fn type_name(&self) -> &str {
        "Dictionary"
    }

    fn initial_state(&self) -> Value {
        Value::Map(PMap::new())
    }

    fn apply(&self, state: &Value, op: &Operation) -> Result<(Value, Value), TypeError> {
        let entries = self.entries(state)?;
        match op.name.as_str() {
            "Insert" => {
                let k = self.key(op)?;
                let v = op.arg(1).cloned().ok_or_else(|| TypeError::BadArguments {
                    type_name: self.type_name().into(),
                    op: op.clone(),
                    expected: "Insert(key, value)".into(),
                })?;
                // Path-copies the shared nodes above the key; an
                // overwrite keeps the key already stored.
                let mut next = entries.clone();
                let old = match next.get_mut(&*k) {
                    Some(slot) => std::mem::replace(slot, v),
                    None => {
                        next.insert(k.into_owned(), v);
                        Value::Unit
                    }
                };
                Ok((Value::Map(next), old))
            }
            "Delete" => {
                let k = self.key(op)?;
                let mut next = entries.clone();
                if next.remove(&*k).is_none() {
                    return Ok((state.clone(), Value::Bool(false)));
                }
                Ok((Value::Map(next), Value::Bool(true)))
            }
            "Lookup" => {
                let k = self.key(op)?;
                let v = entries.get(&*k).cloned().unwrap_or(Value::Unit);
                Ok((state.clone(), v))
            }
            "Size" => Ok((state.clone(), Value::Int(entries.len() as i64))),
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
        let keyed = |op: &Operation| matches!(op.name.as_str(), "Insert" | "Delete" | "Lookup");
        let mutates = |op: &Operation| matches!(op.name.as_str(), "Insert" | "Delete");
        match (a.name.as_str(), b.name.as_str()) {
            ("Lookup", "Lookup") | ("Size", "Size") | ("Lookup", "Size") | ("Size", "Lookup") => {
                false
            }
            _ if a.name == "Size" || b.name == "Size" => mutates(a) || mutates(b),
            // Operations on different keys never conflict; on the same key
            // only Lookup/Lookup commutes (handled above).
            _ if keyed(a) && keyed(b) => a.arg(0) == b.arg(0),
            _ => true,
        }
    }

    fn steps_conflict(&self, a: &LocalStep, b: &LocalStep) -> bool {
        if !self.ops_conflict(&a.op, &b.op) {
            return false;
        }
        // Same-key refinements: inserting the same value twice commutes with
        // itself; a delete that found nothing commutes with another empty
        // delete and with a lookup that found nothing.
        match (a.op.name.as_str(), b.op.name.as_str()) {
            ("Insert", "Insert") => !(a.op.arg(1) == b.op.arg(1) && a.ret == b.ret),
            ("Delete", "Delete") => !(a.ret == Value::Bool(false) && b.ret == Value::Bool(false)),
            ("Delete", "Lookup") | ("Lookup", "Delete") => {
                let del = if a.op.name == "Delete" { a } else { b };
                let look = if a.op.name == "Lookup" { a } else { b };
                !(del.ret == Value::Bool(false) && look.ret.is_unit())
            }
            _ => true,
        }
    }

    fn op_is_readonly(&self, op: &Operation) -> bool {
        matches!(op.name.as_str(), "Lookup" | "Size") || op.is_abort()
    }

    fn sample_states(&self) -> Vec<Value> {
        vec![
            self.initial_state(),
            Value::map([("a", Value::Int(1))]),
            Value::map([("a", Value::Int(1)), ("b", Value::Int(2))]),
        ]
    }

    fn sample_operations(&self) -> Vec<Operation> {
        vec![
            Operation::new("Insert", [Value::from("a"), Value::Int(1)]),
            Operation::new("Insert", [Value::from("a"), Value::Int(9)]),
            Operation::new("Insert", [Value::from("b"), Value::Int(2)]),
            Operation::unary("Delete", "a"),
            Operation::unary("Lookup", "a"),
            Operation::unary("Lookup", "b"),
            Operation::nullary("Size"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::conflict::validate_conflict_spec;

    #[test]
    fn dictionary_semantics() {
        let d = Dictionary;
        let s0 = d.initial_state();
        let ins = Operation::new("Insert", [Value::from("k"), Value::Int(1)]);
        let (s1, old) = d.apply(&s0, &ins).unwrap();
        assert_eq!(old, Value::Unit);
        let ins2 = Operation::new("Insert", [Value::from("k"), Value::Int(2)]);
        let (s2, old) = d.apply(&s1, &ins2).unwrap();
        assert_eq!(old, Value::Int(1));
        let (_, v) = d.apply(&s2, &Operation::unary("Lookup", "k")).unwrap();
        assert_eq!(v, Value::Int(2));
        let (s3, r) = d.apply(&s2, &Operation::unary("Delete", "k")).unwrap();
        assert_eq!(r, Value::Bool(true));
        let (_, n) = d.apply(&s3, &Operation::nullary("Size")).unwrap();
        assert_eq!(n, Value::Int(0));
    }

    #[test]
    fn integer_keys_are_accepted() {
        let d = Dictionary;
        let ins = Operation::new("Insert", [Value::Int(5), Value::Int(1)]);
        let (s1, _) = d.apply(&d.initial_state(), &ins).unwrap();
        let (_, v) = d.apply(&s1, &Operation::unary("Lookup", 5)).unwrap();
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn key_wise_conflicts() {
        let d = Dictionary;
        let ia = Operation::new("Insert", [Value::from("a"), Value::Int(1)]);
        let ib = Operation::new("Insert", [Value::from("b"), Value::Int(1)]);
        let la = Operation::unary("Lookup", "a");
        assert!(!d.ops_conflict(&ia, &ib));
        assert!(d.ops_conflict(&ia, &la));
        assert!(!d.ops_conflict(&ib, &la));
        assert!(d.ops_conflict(&ia, &Operation::nullary("Size")));
        assert!(!d.ops_conflict(&la, &Operation::nullary("Size")));
    }

    #[test]
    fn step_level_refinements() {
        let d = Dictionary;
        let del_miss = LocalStep::new(Operation::unary("Delete", "a"), false);
        let del_miss2 = LocalStep::new(Operation::unary("Delete", "a"), false);
        let del_hit = LocalStep::new(Operation::unary("Delete", "a"), true);
        let look_miss = LocalStep::new(Operation::unary("Lookup", "a"), Value::Unit);
        assert!(!d.steps_conflict(&del_miss, &del_miss2));
        assert!(d.steps_conflict(&del_hit, &del_miss));
        assert!(!d.steps_conflict(&del_miss, &look_miss));
        assert!(d.steps_conflict(&del_hit, &look_miss));
    }

    /// An `Insert` on a shared 1,024-key state leaves the input as it was
    /// and copies only the nodes on the path to the key: the cost of a write
    /// does not grow with the dictionary.
    #[test]
    fn insert_path_copies_a_shared_state() {
        let d = Dictionary;
        let state = Value::map((0..1024).map(|k| (format!("k{k:04}"), Value::Int(k))));
        let before = state.clone();
        let input = |v: &Value| match v {
            Value::Map(m) => m.clone(),
            other => panic!("expected a Map state, got {other:?}"),
        };
        let shared = input(&state);
        for (key, ret) in [("k0512", Value::Int(512)), ("new", Value::Unit)] {
            let op = Operation::new("Insert", [Value::from(key), Value::Int(-1)]);
            let (next, old) = d.apply(&state, &op).unwrap();
            assert_eq!(old, ret);
            assert_eq!(state, before, "Insert({key}) changed its input");
            assert!(shared.ptr_eq(&input(&state)));
            let next = input(&next);
            assert_eq!(next.get(key), Some(&Value::Int(-1)));
            let unshared = next.unshared_nodes(&shared);
            if ret.is_unit() {
                // A new key may also split a node per level and grow a root.
                assert!(unshared <= 2 * shared.depth() + 1, "{unshared} new nodes");
            } else {
                assert!(unshared <= shared.depth(), "{unshared} new nodes");
            }
        }
    }

    #[test]
    fn spec_is_sound() {
        assert!(validate_conflict_spec(&Dictionary, 2).is_empty());
    }
}
