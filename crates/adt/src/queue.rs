//! A FIFO queue with return-value-aware conflicts.
//!
//! Section 5.1 of the paper uses exactly this type to motivate step-level
//! locking: "in many reasonable representations of queues, an Enqueue
//! conflicts with a Dequeue only if the latter returns the item placed into
//! the queue by the former. Thus, if we locked operations with no regard to
//! their return values, an Enqueue operation would delay any Dequeue
//! operation of an incomparable method execution."

use obase_core::error::TypeError;
use obase_core::object::SemanticType;
use obase_core::op::{LocalStep, Operation};
use obase_core::value::Value;
use std::sync::Arc;

/// A FIFO queue with `Enqueue(v)`, `Dequeue()`, `Size()` and `Peek()`
/// operations. `Dequeue` on an empty queue returns [`Value::Unit`].
#[derive(Clone, Debug, Default)]
pub struct FifoQueue;

impl FifoQueue {
    fn items<'a>(&self, state: &'a Value) -> Result<&'a Arc<Vec<Value>>, TypeError> {
        match state {
            Value::List(items) => Ok(items),
            _ => Err(TypeError::BadState {
                type_name: "FifoQueue".into(),
                expected: "List of items".into(),
            }),
        }
    }
}

impl SemanticType for FifoQueue {
    fn type_name(&self) -> &str {
        "FifoQueue"
    }

    fn initial_state(&self) -> Value {
        Value::list([])
    }

    fn apply(&self, state: &Value, op: &Operation) -> Result<(Value, Value), TypeError> {
        let items = self.items(state)?;
        match op.name.as_str() {
            "Enqueue" => {
                let v = op.arg(0).cloned().ok_or_else(|| TypeError::BadArguments {
                    type_name: self.type_name().into(),
                    op: op.clone(),
                    expected: "Enqueue(value)".into(),
                })?;
                let mut next = Arc::clone(items);
                Arc::make_mut(&mut next).push(v);
                Ok((Value::List(next), Value::Unit))
            }
            "Dequeue" => {
                if items.is_empty() {
                    return Ok((state.clone(), Value::Unit));
                }
                let mut next = Arc::clone(items);
                let front = Arc::make_mut(&mut next).remove(0);
                Ok((Value::List(next), front))
            }
            "Peek" => {
                let front = items.first().cloned().unwrap_or(Value::Unit);
                Ok((state.clone(), front))
            }
            "Size" => Ok((state.clone(), Value::Int(items.len() as i64))),
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
        match (a.name.as_str(), b.name.as_str()) {
            // Observers commute with each other.
            ("Size", "Size") | ("Peek", "Peek") | ("Size", "Peek") | ("Peek", "Size") => false,
            // Everything else must be assumed to conflict before the return
            // values are known: enqueue order matters, dequeues compete for
            // the front, observers see updates.
            _ => true,
        }
    }

    fn steps_conflict(&self, a: &LocalStep, b: &LocalStep) -> bool {
        if a.is_abort() || b.is_abort() {
            return false;
        }
        let empty_return = |s: &LocalStep| s.ret.is_unit();
        match (a.op.name.as_str(), b.op.name.as_str()) {
            ("Size", "Size") | ("Peek", "Peek") | ("Size", "Peek") | ("Peek", "Size") => false,
            // The paper's example: an Enqueue conflicts with a Dequeue only
            // if the Dequeue returned the enqueued item (which can only
            // happen when the queue was empty at the Enqueue).
            ("Enqueue", "Dequeue") => a.op.arg(0) == Some(&b.ret),
            // A Dequeue that found the queue empty conflicts with a later
            // Enqueue (swapping them would have given the Dequeue the item);
            // a Dequeue that returned an item commutes with an Enqueue
            // appended behind it.
            ("Dequeue", "Enqueue") => empty_return(a),
            // Enqueues of distinct values conflict (their order is the FIFO
            // order); identical values commute.
            ("Enqueue", "Enqueue") => a.op.arg(0) != b.op.arg(0),
            // Dequeues returning different items (or one empty, one not)
            // conflict; equal returns commute.
            ("Dequeue", "Dequeue") => a.ret != b.ret,
            // Observers versus mutators: stay conservative.
            _ => true,
        }
    }

    fn op_is_readonly(&self, op: &Operation) -> bool {
        matches!(op.name.as_str(), "Size" | "Peek") || op.is_abort()
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
            Operation::unary("Enqueue", 1),
            Operation::unary("Enqueue", 2),
            Operation::nullary("Dequeue"),
            Operation::nullary("Size"),
            Operation::nullary("Peek"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::conflict::validate_conflict_spec;

    #[test]
    fn fifo_semantics() {
        let q = FifoQueue;
        let s0 = q.initial_state();
        let (s1, _) = q.apply(&s0, &Operation::unary("Enqueue", 1)).unwrap();
        let (s2, _) = q.apply(&s1, &Operation::unary("Enqueue", 2)).unwrap();
        let (_, n) = q.apply(&s2, &Operation::nullary("Size")).unwrap();
        assert_eq!(n, Value::Int(2));
        let (_, p) = q.apply(&s2, &Operation::nullary("Peek")).unwrap();
        assert_eq!(p, Value::Int(1));
        let (s3, front) = q.apply(&s2, &Operation::nullary("Dequeue")).unwrap();
        assert_eq!(front, Value::Int(1));
        let (s4, front) = q.apply(&s3, &Operation::nullary("Dequeue")).unwrap();
        assert_eq!(front, Value::Int(2));
        let (_, front) = q.apply(&s4, &Operation::nullary("Dequeue")).unwrap();
        assert_eq!(front, Value::Unit);
    }

    #[test]
    fn enqueue_dequeue_conflict_only_on_matching_item() {
        let q = FifoQueue;
        let enq = LocalStep::new(Operation::unary("Enqueue", 7), ());
        let deq_other = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(3));
        let deq_same = LocalStep::new(Operation::nullary("Dequeue"), Value::Int(7));
        let deq_empty = LocalStep::new(Operation::nullary("Dequeue"), Value::Unit);
        assert!(!q.steps_conflict(&enq, &deq_other));
        assert!(q.steps_conflict(&enq, &deq_same));
        assert!(q.steps_conflict(&deq_empty, &enq));
        assert!(!q.steps_conflict(&deq_other, &enq));
        // Operation level is pessimistic.
        assert!(q.ops_conflict(&enq.op, &deq_other.op));
    }

    #[test]
    fn observers_commute() {
        let q = FifoQueue;
        assert!(!q.ops_conflict(&Operation::nullary("Size"), &Operation::nullary("Peek")));
        assert!(q.ops_conflict(&Operation::nullary("Size"), &Operation::unary("Enqueue", 1)));
    }

    #[test]
    fn bad_operations_rejected() {
        let q = FifoQueue;
        assert!(q
            .apply(&Value::Int(0), &Operation::nullary("Size"))
            .is_err());
        assert!(q
            .apply(&q.initial_state(), &Operation::nullary("Enqueue"))
            .is_err());
        assert!(q
            .apply(&q.initial_state(), &Operation::nullary("Pop"))
            .is_err());
    }

    #[test]
    fn spec_is_sound() {
        assert!(validate_conflict_spec(&FifoQueue, 2).is_empty());
    }
}
