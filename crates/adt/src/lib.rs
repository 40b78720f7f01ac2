//! # obase-adt — semantic object types for object bases
//!
//! The paper's model derives its extra concurrency from *semantic* conflict
//! relations (Definition 3): two steps conflict only if their order matters
//! for legality or for the object's final state. This crate provides a
//! library of object types with carefully specified conflict relations at
//! both granularities discussed in Section 5.1:
//!
//! * **operation-level** — conservative, usable before the operation has
//!   executed (`ops_conflict`);
//! * **step-level** — exploits return values (Weihl's observation), e.g. an
//!   `Enqueue` conflicts with a `Dequeue` only if the `Dequeue` returned the
//!   enqueued item (`steps_conflict`).
//!
//! Every conflict specification is validated against the state-based ground
//! truth by tests using [`obase_core::conflict::validate_conflict_spec`].
//!
//! The paper's Section 2 motivates intra-object synchronisation with a
//! dictionary "implemented as a B-tree". [`BTreeDict`] is that dictionary as
//! a semantic type, with ordered `Range` scans whose conflicts are
//! interval-aware; its state is a sorted pair list searched in place, and
//! the code base's one B-tree is [`PMap`](obase_core::pmap::PMap), the
//! persistent map behind every map-valued state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod btreedict;
pub mod counter;
pub mod dict;
pub mod queue;
pub mod register;
pub mod set;

/// [`BTreeDict`] checked key for key against the standard library's
/// `BTreeMap`.
#[cfg(test)]
#[path = "btree_model.rs"]
mod btree;

pub use account::Account;
pub use btreedict::BTreeDict;
pub use counter::Counter;
pub use dict::Dictionary;
pub use queue::FifoQueue;
pub use register::Register;
pub use set::SetObject;

use obase_core::object::TypeHandle;
use std::sync::Arc;

/// Returns one instance of every semantic type in this crate, used by
/// generators and by the cross-type validation tests.
pub fn all_types() -> Vec<TypeHandle> {
    vec![
        Arc::new(Register::default()),
        Arc::new(Counter::default()),
        Arc::new(Account::default()),
        Arc::new(SetObject),
        Arc::new(Dictionary),
        Arc::new(BTreeDict),
        Arc::new(FifoQueue),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_core::value::Value;

    #[test]
    fn all_types_are_distinctly_named() {
        let types = all_types();
        let mut names: Vec<&str> = types.iter().map(|t| t.type_name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 6);
    }

    #[test]
    fn all_types_have_samples() {
        for ty in all_types() {
            assert!(
                !ty.sample_operations().is_empty(),
                "{} has no sample operations",
                ty.type_name()
            );
            assert!(
                !ty.sample_states().is_empty(),
                "{} has no sample states",
                ty.type_name()
            );
        }
    }

    #[test]
    fn all_specs_are_sound() {
        for ty in all_types() {
            let violations = obase_core::conflict::validate_conflict_spec(ty.as_ref(), 2);
            assert!(
                violations.is_empty(),
                "{} has unsound conflict spec: {:?}",
                ty.type_name(),
                violations.first()
            );
        }
    }

    /// Whether two states are the same payload: pointer equality for the
    /// shared `List`/`Map` payloads, plain equality for scalars.
    fn same_storage(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::List(x), Value::List(y)) => Arc::ptr_eq(x, y),
            (Value::Map(x), Value::Map(y)) => x.ptr_eq(y),
            _ => a == b,
        }
    }

    #[test]
    fn apply_copies_on_write_and_shares_on_read() {
        for ty in all_types() {
            let name = ty.type_name();
            for (i, state) in ty.sample_states().into_iter().enumerate() {
                for op in ty.sample_operations() {
                    let (next, _) = ty
                        .apply(&state, &op)
                        .unwrap_or_else(|e| panic!("{name}: {op:?} on {state:?}: {e}"));
                    // The input is never written through, even though the
                    // result may share its payload.
                    assert_eq!(
                        state,
                        ty.sample_states()[i],
                        "{name}: {op:?} changed its input state"
                    );
                    if ty.op_is_readonly(&op) {
                        assert!(
                            same_storage(&state, &next),
                            "{name}: read-only {op:?} copied state {state:?}"
                        );
                    }
                }
            }
        }
    }
}
