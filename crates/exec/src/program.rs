//! Transaction and method programs.
//!
//! Methods are "programmes that invoke other methods" (Section 1). Here a
//! program is a small tree of sequential and parallel blocks whose leaves are
//! local operations on the method's own object or messages invoking methods
//! of other objects. Top-level transactions (methods of the environment) are
//! programs too; since the environment has no variables they may only contain
//! invocations.

use obase_core::ids::ObjectId;
use obase_core::object::ObjectBase;
use obase_core::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An expression evaluated against the invocation arguments of the enclosing
/// method execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A constant value.
    Const(Value),
    /// The `i`-th argument of the enclosing method invocation.
    Param(usize),
}

impl Expr {
    /// Evaluates the expression against the method's arguments.
    ///
    /// # Panics
    /// Panics if a parameter index is out of range (a malformed program).
    pub fn eval(&self, args: &[Value]) -> Value {
        match self {
            Expr::Const(v) => v.clone(),
            Expr::Param(i) => args
                .get(*i)
                .unwrap_or_else(|| panic!("program references missing parameter {i}"))
                .clone(),
        }
    }

    /// Convenience constructor for a constant expression.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }
}

/// A reference to the target object of an invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjRef {
    /// A fixed object.
    Const(ObjectId),
    /// An object passed as the `i`-th argument of the enclosing method.
    Param(usize),
}

impl ObjRef {
    /// Resolves the reference against the method's arguments.
    ///
    /// # Panics
    /// Panics if the referenced argument is missing or not an object.
    pub fn resolve(&self, args: &[Value]) -> ObjectId {
        match self {
            ObjRef::Const(o) => *o,
            ObjRef::Param(i) => args
                .get(*i)
                .and_then(Value::as_object)
                .unwrap_or_else(|| panic!("parameter {i} is not an object reference")),
        }
    }
}

/// A method or transaction program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// Issue a local operation on the enclosing method's own object.
    Local {
        /// Operation name.
        op: String,
        /// Operation arguments.
        args: Vec<Expr>,
    },
    /// Send a message invoking `method` on `object`.
    Invoke {
        /// The target object.
        object: ObjRef,
        /// The method to invoke.
        method: String,
        /// The invocation arguments.
        args: Vec<Expr>,
    },
    /// Run the sub-programs one after the other.
    Seq(Vec<Program>),
    /// Run the sub-programs in parallel (internal parallelism, Section 3(c)).
    Par(Vec<Program>),
}

impl Program {
    /// Convenience constructor for a local operation with constant arguments.
    pub fn local(op: impl Into<String>, args: impl IntoIterator<Item = Value>) -> Program {
        Program::Local {
            op: op.into(),
            args: args.into_iter().map(Expr::Const).collect(),
        }
    }

    /// Convenience constructor for an invocation of a fixed object with
    /// constant arguments.
    pub fn invoke(
        object: ObjectId,
        method: impl Into<String>,
        args: impl IntoIterator<Item = Value>,
    ) -> Program {
        Program::Invoke {
            object: ObjRef::Const(object),
            method: method.into(),
            args: args.into_iter().map(Expr::Const).collect(),
        }
    }

    /// Counts the leaves (local operations and invocations) of the program.
    pub fn leaf_count(&self) -> usize {
        match self {
            Program::Local { .. } | Program::Invoke { .. } => 1,
            Program::Seq(items) | Program::Par(items) => {
                items.iter().map(Program::leaf_count).sum()
            }
        }
    }

    /// The maximum nesting depth of invocations *statically visible* in this
    /// program (dynamic nesting also depends on the invoked methods).
    pub fn static_depth(&self) -> usize {
        match self {
            Program::Local { .. } => 0,
            Program::Invoke { .. } => 1,
            Program::Seq(items) | Program::Par(items) => {
                items.iter().map(Program::static_depth).max().unwrap_or(0)
            }
        }
    }
}

/// A method definition: a named program with a declared number of parameters.
#[derive(Clone, Debug)]
pub struct MethodDef {
    /// The method's name.
    pub name: String,
    /// Number of parameters the method expects.
    pub params: usize,
    /// The method body.
    pub body: Program,
}

/// An object base together with the methods of each object: the static
/// definition an engine run executes against.
///
/// Both halves sit behind an [`Arc`], so cloning a definition is O(1) and
/// the mutators copy a half only while a clone still shares it.
#[derive(Clone, Debug)]
pub struct ObjectBaseDef {
    base: Arc<ObjectBase>,
    methods: Arc<BTreeMap<(ObjectId, String), Arc<MethodDef>>>,
}

impl ObjectBaseDef {
    /// Creates a definition over an object base with no methods yet.
    pub fn new(base: Arc<ObjectBase>) -> Self {
        ObjectBaseDef {
            base,
            methods: Arc::default(),
        }
    }

    /// The underlying object base.
    pub fn base(&self) -> &Arc<ObjectBase> {
        &self.base
    }

    /// The object base for in-place updates. Copy-on-write: the base is
    /// copied first only if another handle (a clone of this definition, a
    /// history, a running engine) still shares it.
    pub fn base_mut(&mut self) -> &mut ObjectBase {
        Arc::make_mut(&mut self.base)
    }

    /// Defines (or replaces) a method of an object.
    pub fn define_method(&mut self, object: ObjectId, def: MethodDef) {
        Arc::make_mut(&mut self.methods).insert((object, def.name.clone()), Arc::new(def));
    }

    /// Looks up a method of an object.
    pub fn method(&self, object: ObjectId, name: &str) -> Option<Arc<MethodDef>> {
        self.methods.get(&(object, name.to_owned())).cloned()
    }

    /// Number of defined methods across all objects.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Iterates over every `(object, method definition)` pair.
    pub fn methods(&self) -> impl Iterator<Item = (ObjectId, &MethodDef)> + '_ {
        self.methods.iter().map(|((o, _), d)| (*o, d.as_ref()))
    }
}

/// A top-level transaction submitted by a user: a program executed as a
/// method of the environment (so it may only invoke methods, not issue local
/// operations).
#[derive(Clone, Debug)]
pub struct TxnSpec {
    /// A label for reporting.
    pub name: String,
    /// The transaction body.
    pub body: Program,
}

/// Everything an engine run needs: the object base with its methods and the
/// stream of top-level transactions to execute.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The object base definition.
    pub def: ObjectBaseDef,
    /// The top-level transactions, executed in submission order subject to
    /// the configured number of concurrent clients.
    pub transactions: Vec<TxnSpec>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use obase_adt::Counter;

    #[test]
    fn expr_and_objref_evaluation() {
        let args = vec![Value::Int(5), Value::Obj(ObjectId(3))];
        assert_eq!(Expr::Const(Value::Int(1)).eval(&args), Value::Int(1));
        assert_eq!(Expr::Param(0).eval(&args), Value::Int(5));
        assert_eq!(ObjRef::Const(ObjectId(9)).resolve(&args), ObjectId(9));
        assert_eq!(ObjRef::Param(1).resolve(&args), ObjectId(3));
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn missing_parameter_panics() {
        Expr::Param(7).eval(&[]);
    }

    #[test]
    fn program_shape_helpers() {
        let p = Program::Seq(vec![
            Program::local("Add", [Value::Int(1)]),
            Program::Par(vec![
                Program::invoke(ObjectId(0), "m", []),
                Program::invoke(ObjectId(1), "m", []),
            ]),
        ]);
        assert_eq!(p.leaf_count(), 3);
        assert_eq!(p.static_depth(), 1);
    }

    #[test]
    fn method_table() {
        let mut base = ObjectBase::new();
        let c = base.add_object("c", Arc::new(Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        def.define_method(
            c,
            MethodDef {
                name: "bump".into(),
                params: 1,
                body: Program::Local {
                    op: "Add".into(),
                    args: vec![Expr::Param(0)],
                },
            },
        );
        assert_eq!(def.method_count(), 1);
        assert!(def.method(c, "bump").is_some());
        assert!(def.method(c, "missing").is_none());
        assert_eq!(def.method(c, "bump").unwrap().params, 1);
    }

    #[test]
    fn clones_share_until_written() {
        let mut base = ObjectBase::new();
        let c = base.add_object("c", Arc::new(Counter::default()));
        let mut def = ObjectBaseDef::new(Arc::new(base));
        let unshared = Arc::as_ptr(def.base());
        def.base_mut().set_initial_state(c, Value::Int(3));
        assert_eq!(
            Arc::as_ptr(def.base()),
            unshared,
            "sole owner writes in place"
        );

        let snapshot = def.clone();
        assert!(
            Arc::ptr_eq(def.base(), snapshot.base()),
            "clones share the base"
        );
        def.base_mut().set_initial_state(c, Value::Int(4));
        assert_eq!(def.base().spec(c).initial_state, Value::Int(4));
        assert_eq!(snapshot.base().spec(c).initial_state, Value::Int(3));

        def.define_method(
            c,
            MethodDef {
                name: "m".into(),
                params: 0,
                body: Program::Seq(vec![]),
            },
        );
        assert_eq!(def.method_count(), 1);
        assert_eq!(snapshot.method_count(), 0, "methods are copy-on-write too");
    }
}
