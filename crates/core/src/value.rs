//! Dynamic values used for object states, operation arguments and return
//! values.
//!
//! The paper leaves the domain of object states abstract: a state is "a
//! mapping associating values to the variables of an object" (Definition 1).
//! We use a small dynamically-typed value universe so that heterogeneous
//! object types (counters, queues, dictionaries, B-trees, ...) can coexist in
//! one object base and one history.
//!
//! # Sharing contract
//!
//! Compound payloads are shared on clone: a [`Value::List`] holds an
//! [`Arc`]'d vector and a [`Value::Map`] a [`PMap`], a B-tree whose nodes sit
//! behind [`Arc`]. Cloning a value — and with it a whole object base, a
//! history's initial states or a replayed state — therefore costs O(1)
//! whatever the object's size. Every
//! [`SemanticType::apply`](crate::object::SemanticType::apply) keeps to three
//! rules that make this sharing safe:
//!
//! * when an operation changes nothing (a read, an abort, a no-op mutation),
//!   return `state.clone()`, which shares the input's payload;
//! * mutate a clone of the input only through its payload's own
//!   copy-on-write API — [`Arc::make_mut`] on a `List`, [`PMap::insert`],
//!   [`PMap::remove`] or [`PMap::get_mut`] on a `Map` — which copies exactly
//!   what someone else still holds: the whole vector of a `List`, the
//!   root-to-entry path of a `Map`;
//! * never write through a payload that may be shared: a state once handed
//!   out is immutable for every holder.

use crate::ids::ObjectId;
use crate::pmap::PMap;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed value.
///
/// `Value` doubles as the representation of object *states* (Definition 1),
/// operation *arguments* and operation *return values* (Definition 2).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Value {
    /// The unit value, used for operations that return nothing of interest.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A reference to an object in the object base (used to pass objects as
    /// method arguments, e.g. the accounts involved in a transfer).
    Obj(ObjectId),
    /// An ordered list of values, shared on clone.
    List(Arc<Vec<Value>>),
    /// A string-keyed map of values (used for record-like object states and
    /// dictionaries), shared on clone and path-copied on write.
    Map(PMap<String, Value>),
}

impl Value {
    /// Builds a map value from an iterator of `(key, value)` pairs; a later
    /// duplicate key wins.
    pub fn map<I, K>(entries: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a list value.
    pub fn list<I>(items: I) -> Value
    where
        I: IntoIterator<Item = Value>,
    {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the object id payload, if this is an [`Value::Obj`].
    pub fn as_object(&self) -> Option<ObjectId> {
        match self {
            Value::Obj(o) => Some(*o),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map payload, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&PMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if this is [`Value::Unit`].
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Convenience accessor for an integer field of a map value.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_int)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<ObjectId> for Value {
    fn from(v: ObjectId) -> Self {
        Value::Obj(v)
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Obj(o) => write!(f, "{o:?}"),
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
            Value::Map(m) => f.debug_map().entries(m.iter()).finish(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(ObjectId(2)), Value::Obj(ObjectId(2)));
        assert_eq!(Value::from(()), Value::Unit);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Unit.as_int(), None);
        assert!(Value::Unit.is_unit());
        assert_eq!(Value::Obj(ObjectId(1)).as_object(), Some(ObjectId(1)));
    }

    #[test]
    fn map_helpers() {
        let v = Value::map([("balance", Value::Int(10)), ("name", Value::from("acct"))]);
        assert_eq!(v.get_int("balance"), Some(10));
        assert_eq!(v.get("name").and_then(Value::as_str), Some("acct"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn list_helpers() {
        let v = Value::list([Value::Int(1), Value::Int(2)]);
        assert_eq!(v.as_list().unwrap().len(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", Value::Int(7)), "7");
        assert_eq!(format!("{}", Value::Unit), "()");
        assert_eq!(format!("{}", Value::list([Value::Int(1)])), "[1]");
    }

    #[test]
    fn ordering_is_total() {
        let mut values = vec![Value::Int(2), Value::Unit, Value::Bool(true), Value::Int(1)];
        values.sort();
        // Sorting must not panic and must be deterministic.
        let again = {
            let mut v = values.clone();
            v.sort();
            v
        };
        assert_eq!(values, again);
    }
}
