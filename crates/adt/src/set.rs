//! A set object with element-wise conflicts.
//!
//! Operations on *different* elements always commute, so a set object lets
//! incomparable method executions proceed in parallel as long as they touch
//! different elements — the same intuition that key-range locking exploits in
//! relational systems, expressed here through Definition 3.

use obase_core::error::TypeError;
use obase_core::object::SemanticType;
use obase_core::op::{LocalStep, Operation};
use obase_core::value::Value;
use std::sync::Arc;

/// A set of values with `Insert(v)`, `Remove(v)`, `Contains(v)` and `Size()`
/// operations. `Insert`/`Remove` return whether they changed the set.
#[derive(Clone, Debug, Default)]
pub struct SetObject;

impl SetObject {
    fn members<'a>(&self, state: &'a Value) -> Result<&'a Arc<Vec<Value>>, TypeError> {
        match state {
            Value::List(items) => Ok(items),
            _ => Err(TypeError::BadState {
                type_name: "SetObject".into(),
                expected: "sorted List of members".into(),
            }),
        }
    }

    fn element<'a>(&self, op: &'a Operation) -> Result<&'a Value, TypeError> {
        op.arg(0).ok_or_else(|| TypeError::BadArguments {
            type_name: "SetObject".into(),
            op: op.clone(),
            expected: "an element argument".into(),
        })
    }
}

impl SemanticType for SetObject {
    fn type_name(&self) -> &str {
        "SetObject"
    }

    fn initial_state(&self) -> Value {
        Value::list([])
    }

    fn apply(&self, state: &Value, op: &Operation) -> Result<(Value, Value), TypeError> {
        let members = self.members(state)?;
        match op.name.as_str() {
            "Insert" => {
                let v = self.element(op)?;
                if members.contains(v) {
                    return Ok((state.clone(), Value::Bool(false)));
                }
                let mut next = Arc::clone(members);
                let items = Arc::make_mut(&mut next);
                items.push(v.clone());
                items.sort();
                Ok((Value::List(next), Value::Bool(true)))
            }
            "Remove" => {
                let v = self.element(op)?;
                if !members.contains(v) {
                    return Ok((state.clone(), Value::Bool(false)));
                }
                let mut next = Arc::clone(members);
                Arc::make_mut(&mut next).retain(|m| m != v);
                Ok((Value::List(next), Value::Bool(true)))
            }
            "Contains" => {
                let present = members.contains(self.element(op)?);
                Ok((state.clone(), Value::Bool(present)))
            }
            "Size" => Ok((state.clone(), Value::Int(members.len() as i64))),
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
        let mutates = |op: &Operation| matches!(op.name.as_str(), "Insert" | "Remove");
        let observes_all = |op: &Operation| op.name == "Size";
        match (a.name.as_str(), b.name.as_str()) {
            ("Contains", "Contains")
            | ("Size", "Size")
            | ("Contains", "Size")
            | ("Size", "Contains") => false,
            _ => {
                if observes_all(a) || observes_all(b) {
                    // Size observes the whole set: it conflicts with any
                    // mutation, of any element.
                    mutates(a) || mutates(b)
                } else {
                    // Element-wise operations conflict only on the same
                    // element.
                    a.arg(0) == b.arg(0)
                }
            }
        }
    }

    fn steps_conflict(&self, a: &LocalStep, b: &LocalStep) -> bool {
        if a.is_abort() || b.is_abort() {
            return false;
        }
        if !self.ops_conflict(&a.op, &b.op) {
            return false;
        }
        let unchanged = |s: &LocalStep| {
            matches!(s.op.name.as_str(), "Insert" | "Remove") && s.ret == Value::Bool(false)
        };
        // A mutation that did not change the set commutes with a mutation of
        // the same kind that also did not change it, and with observers that
        // agree with the unchanged membership.
        match (a.op.name.as_str(), b.op.name.as_str()) {
            ("Insert", "Insert") | ("Remove", "Remove") => !(unchanged(a) && unchanged(b)),
            ("Insert", "Contains") | ("Contains", "Insert") => {
                // Contains(v) = true commutes with a Insert(v) that found the
                // element already present.
                let ins = if a.op.name == "Insert" { a } else { b };
                let con = if a.op.name == "Contains" { a } else { b };
                !(unchanged(ins) && con.ret == Value::Bool(true))
            }
            ("Remove", "Contains") | ("Contains", "Remove") => {
                let rem = if a.op.name == "Remove" { a } else { b };
                let con = if a.op.name == "Contains" { a } else { b };
                !(unchanged(rem) && con.ret == Value::Bool(false))
            }
            _ => true,
        }
    }

    fn op_is_readonly(&self, op: &Operation) -> bool {
        matches!(op.name.as_str(), "Contains" | "Size") || op.is_abort()
    }

    fn sample_states(&self) -> Vec<Value> {
        vec![
            Value::list([]),
            Value::list([Value::Int(1)]),
            Value::list([Value::Int(1), Value::Int(2)]),
        ]
    }

    fn sample_operations(&self) -> Vec<Operation> {
        vec![
            Operation::unary("Insert", 1),
            Operation::unary("Insert", 2),
            Operation::unary("Remove", 1),
            Operation::unary("Contains", 1),
            Operation::unary("Contains", 2),
            Operation::nullary("Size"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::conflict::validate_conflict_spec;

    #[test]
    fn set_semantics() {
        let s = SetObject;
        let s0 = s.initial_state();
        let (s1, r) = s.apply(&s0, &Operation::unary("Insert", 3)).unwrap();
        assert_eq!(r, Value::Bool(true));
        let (s2, r) = s.apply(&s1, &Operation::unary("Insert", 3)).unwrap();
        assert_eq!(r, Value::Bool(false));
        let (_, r) = s.apply(&s2, &Operation::unary("Contains", 3)).unwrap();
        assert_eq!(r, Value::Bool(true));
        let (s3, r) = s.apply(&s2, &Operation::unary("Remove", 3)).unwrap();
        assert_eq!(r, Value::Bool(true));
        let (_, r) = s.apply(&s3, &Operation::nullary("Size")).unwrap();
        assert_eq!(r, Value::Int(0));
    }

    #[test]
    fn different_elements_commute() {
        let s = SetObject;
        assert!(!s.ops_conflict(
            &Operation::unary("Insert", 1),
            &Operation::unary("Insert", 2)
        ));
        assert!(!s.ops_conflict(
            &Operation::unary("Insert", 1),
            &Operation::unary("Remove", 2)
        ));
        assert!(s.ops_conflict(
            &Operation::unary("Insert", 1),
            &Operation::unary("Remove", 1)
        ));
        assert!(s.ops_conflict(&Operation::unary("Insert", 1), &Operation::nullary("Size")));
        assert!(!s.ops_conflict(
            &Operation::unary("Contains", 1),
            &Operation::nullary("Size")
        ));
    }

    #[test]
    fn redundant_mutations_commute_at_step_level() {
        let s = SetObject;
        let ins_noop = LocalStep::new(Operation::unary("Insert", 1), false);
        let ins_noop2 = LocalStep::new(Operation::unary("Insert", 1), false);
        let ins_real = LocalStep::new(Operation::unary("Insert", 1), true);
        assert!(!s.steps_conflict(&ins_noop, &ins_noop2));
        assert!(s.steps_conflict(&ins_real, &ins_noop));
        let contains_true = LocalStep::new(Operation::unary("Contains", 1), true);
        assert!(!s.steps_conflict(&ins_noop, &contains_true));
        assert!(s.steps_conflict(&ins_real, &contains_true));
    }

    #[test]
    fn spec_is_sound() {
        assert!(validate_conflict_spec(&SetObject, 2).is_empty());
    }
}
