//! Objects, semantic types and the object base.
//!
//! An object base is a set of objects; an object is a pair `(V, M)` of
//! variables and methods (Definition 1). This module models the *data* half
//! of an object — its state and the local operations applicable to it —
//! through the [`SemanticType`] trait. The *method* half (programs that issue
//! local operations and send messages) lives in the execution crate; the core
//! model only needs to know which local operations exist, how they transform
//! state, and when two steps conflict.

use crate::error::TypeError;
use crate::ids::ObjectId;
use crate::op::{LocalStep, Operation};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The semantics of an object's local operations.
///
/// A `SemanticType` supplies, for each operation `a`, the two functions of
/// Definition 2 — the return-value function `ρ_a` and the state transition
/// `σ_a` — folded into [`SemanticType::apply`], plus the conflict relation of
/// Definition 3 at two granularities:
///
/// * [`ops_conflict`](SemanticType::ops_conflict) — the conservative,
///   *operation-level* relation used when return values are not known in
///   advance (the "more common method" of Section 5.1);
/// * [`steps_conflict`](SemanticType::steps_conflict) — the exact,
///   *step-level* relation `(a, v)` vs `(a', v')` which may exploit return
///   values for extra concurrency (Weihl's observation, Section 5.1).
///
/// Implementations must guarantee the soundness property checked by
/// [`crate::conflict`]: if two steps are declared non-conflicting, then they
/// commute on every reachable state in the sense of Definition 3.
pub trait SemanticType: Send + Sync + fmt::Debug {
    /// Human-readable type name, e.g. `"Counter"` or `"FifoQueue"`.
    fn type_name(&self) -> &str;

    /// The default initial state of objects of this type.
    fn initial_state(&self) -> Value;

    /// Applies operation `op` to `state`, returning the new state and the
    /// return value (σ_a(s) and ρ_a(s) of Definition 2).
    ///
    /// Returns an error if the operation is unknown or its arguments are
    /// malformed for this type. Operation application must be deterministic.
    ///
    /// States are shared values (see [`crate::value`]): cloning one is
    /// O(1). An implementation returns `state.clone()` when the operation
    /// changes nothing (reads, aborts, no-op mutations), mutates a clone of
    /// the input only through its payload's own copy-on-write API —
    /// [`Arc::make_mut`] on a `List`, [`PMap::insert`](crate::pmap::PMap::insert)
    /// and [`PMap::remove`](crate::pmap::PMap::remove) on a `Map` — and never
    /// writes through a payload that may be shared.
    fn apply(&self, state: &Value, op: &Operation) -> Result<(Value, Value), TypeError>;

    /// Conservative operation-level conflict relation: `a` conflicts with
    /// `a'` if there exist steps `t = (a, v)` and `t' = (a', v')` such that
    /// `t` conflicts with `t'` (Section 5.1, implementation considerations).
    ///
    /// The relation need not be symmetric (Definition 3 remarks that
    /// commutativity is not necessarily symmetric), although most practical
    /// specifications are.
    fn ops_conflict(&self, a: &Operation, b: &Operation) -> bool;

    /// Exact step-level conflict relation on steps `(a, v)`.
    ///
    /// `a.conflicts_with(b)` in the directional sense of Definition 3: `a`
    /// conflicts with `b` iff `a` does not commute with `b`. The default
    /// falls back to the conservative operation-level relation.
    fn steps_conflict(&self, a: &LocalStep, b: &LocalStep) -> bool {
        self.ops_conflict(&a.op, &b.op)
    }

    /// Whether the operation leaves the state unchanged on every state
    /// (σ_a = identity). Used by flat read/write baselines to map semantic
    /// operations onto read/write locks.
    fn op_is_readonly(&self, _op: &Operation) -> bool {
        false
    }

    /// A set of representative states used by the generic, state-based
    /// commutativity checker in [`crate::conflict`] (property tests use this
    /// to validate that the declared conflict relations are sound).
    fn sample_states(&self) -> Vec<Value> {
        vec![self.initial_state()]
    }

    /// A set of representative operations of this type, used by generators
    /// and by the generic conflict-spec validator.
    fn sample_operations(&self) -> Vec<Operation> {
        Vec::new()
    }
}

/// Shared handle to a semantic type.
pub type TypeHandle = Arc<dyn SemanticType>;

/// The static description of one object in the object base: its identity,
/// name, semantic type and initial state.
#[derive(Clone)]
pub struct ObjectSpec {
    /// The object's identity.
    pub id: ObjectId,
    /// A human-readable name (unique within the object base).
    pub name: String,
    /// The object's semantic type.
    pub ty: TypeHandle,
    /// The object's initial state (the `S` component of a history supplies
    /// one initial state per object; this is the default used when building
    /// histories over this base).
    pub initial_state: Value,
}

impl fmt::Debug for ObjectSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectSpec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("type", &self.ty.type_name())
            .field("initial_state", &self.initial_state)
            .finish()
    }
}

/// An object base: a set of objects (Definition 1).
///
/// The environment object is implicit — it is not stored here because it has
/// no variables and no local operations; its method executions (the
/// top-level transactions) reference [`ObjectId::ENVIRONMENT`].
#[derive(Clone, Debug, Default)]
pub struct ObjectBase {
    objects: Vec<ObjectSpec>,
    by_name: BTreeMap<String, ObjectId>,
}

impl ObjectBase {
    /// Creates an empty object base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an object with the type's default initial state, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already in use.
    pub fn add_object(&mut self, name: impl Into<String>, ty: TypeHandle) -> ObjectId {
        let initial = ty.initial_state();
        self.add_object_with_state(name, ty, initial)
    }

    /// Adds an object with an explicit initial state, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already in use.
    pub fn add_object_with_state(
        &mut self,
        name: impl Into<String>,
        ty: TypeHandle,
        initial_state: Value,
    ) -> ObjectId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "object name {name:?} already in use"
        );
        let id = ObjectId(self.objects.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.objects.push(ObjectSpec {
            id,
            name,
            ty,
            initial_state,
        });
        id
    }

    /// Replaces the initial state of an existing object; its id, name and
    /// type are unchanged.
    ///
    /// # Panics
    /// Panics if `id` is the environment or is not in this base.
    pub fn set_initial_state(&mut self, id: ObjectId, state: Value) {
        assert!(
            !id.is_environment() && id.index() < self.objects.len(),
            "object {id:?} not present in object base"
        );
        self.objects[id.index()].initial_state = state;
    }

    /// Looks up an object by id.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectSpec> {
        if id.is_environment() {
            return None;
        }
        self.objects.get(id.index())
    }

    /// Looks up an object by id, panicking if absent.
    ///
    /// # Panics
    /// Panics if `id` is the environment or is not in this base.
    pub fn spec(&self, id: ObjectId) -> &ObjectSpec {
        self.get(id)
            .unwrap_or_else(|| panic!("object {id:?} not present in object base"))
    }

    /// Looks up an object by name.
    pub fn by_name(&self, name: &str) -> Option<&ObjectSpec> {
        self.by_name.get(name).map(|id| &self.objects[id.index()])
    }

    /// Returns the semantic type of an object.
    ///
    /// # Panics
    /// Panics if `id` is the environment or is not in this base.
    pub fn type_of(&self, id: ObjectId) -> TypeHandle {
        Arc::clone(&self.spec(id).ty)
    }

    /// Iterates over all objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectSpec> {
        self.objects.iter()
    }

    /// Iterates over all object ids in id order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter().map(|o| o.id)
    }

    /// Number of objects (excluding the implicit environment).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if the base has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Returns `true` if `id` refers to an object of this base (the
    /// environment is always considered present).
    pub fn contains(&self, id: ObjectId) -> bool {
        id.is_environment() || id.index() < self.objects.len()
    }

    /// The default initial states of all objects, as used for the `S`
    /// component of a history built over this base.
    pub fn initial_states(&self) -> BTreeMap<ObjectId, Value> {
        self.objects
            .iter()
            .map(|o| (o.id, o.initial_state.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::IntRegister;

    #[test]
    fn add_and_lookup() {
        let mut base = ObjectBase::new();
        let a = base.add_object("a", Arc::new(IntRegister));
        let b = base.add_object_with_state("b", Arc::new(IntRegister), Value::Int(7));
        assert_eq!(base.len(), 2);
        assert!(!base.is_empty());
        assert_eq!(base.spec(a).name, "a");
        assert_eq!(base.spec(b).initial_state, Value::Int(7));
        assert_eq!(base.by_name("b").unwrap().id, b);
        assert!(base.by_name("c").is_none());
        assert!(base.contains(a));
        assert!(base.contains(ObjectId::ENVIRONMENT));
        assert!(!base.contains(ObjectId(99)));
        assert!(base.get(ObjectId::ENVIRONMENT).is_none());
        assert_eq!(base.object_ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_names_rejected() {
        let mut base = ObjectBase::new();
        base.add_object("a", Arc::new(IntRegister));
        base.add_object("a", Arc::new(IntRegister));
    }

    #[test]
    fn initial_states_map() {
        let mut base = ObjectBase::new();
        let a = base.add_object("a", Arc::new(IntRegister));
        let states = base.initial_states();
        assert_eq!(states.get(&a), Some(&Value::Int(0)));
    }

    #[test]
    fn set_initial_state_keeps_identity() {
        let mut base = ObjectBase::new();
        let a = base.add_object("a", Arc::new(IntRegister));
        let b = base.add_object("b", Arc::new(IntRegister));
        base.set_initial_state(b, Value::Int(5));
        assert_eq!(base.spec(a).initial_state, Value::Int(0));
        assert_eq!(base.spec(b).initial_state, Value::Int(5));
        assert_eq!(base.by_name("b").unwrap().id, b);
        assert_eq!(base.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn set_initial_state_of_a_missing_object_panics() {
        ObjectBase::new().set_initial_state(ObjectId(0), Value::Int(1));
    }

    #[test]
    fn default_readonly_is_false() {
        let ty = IntRegister;
        assert!(ty.op_is_readonly(&Operation::nullary("Read")));
        assert!(!ty.op_is_readonly(&Operation::unary("Write", 1)));
    }
}
