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
use std::sync::{Arc, OnceLock};

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

/// A defect of a program that can be found without running it: an
/// invocation the method table cannot serve, or a local operation where
/// there is no object to apply it to. The runtime reports it as the
/// matching `RuntimeError` variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A program invokes a method the target object does not define.
    UnknownMethod {
        /// The target object.
        object: ObjectId,
        /// The missing method.
        method: String,
    },
    /// A method is invoked with the wrong number of arguments.
    ArityMismatch {
        /// The target object.
        object: ObjectId,
        /// The invoked method.
        method: String,
        /// Parameters the method declares.
        expected: usize,
        /// Arguments the invocation supplies.
        got: usize,
    },
    /// A top-level transaction contains a local operation (the environment
    /// has no variables, Definition 1).
    LocalOperationAtTopLevel {
        /// The offending transaction's label.
        transaction: String,
    },
    /// A top-level transaction refers to a parameter, as an invocation's
    /// target or argument, but the environment passes it none.
    UnresolvedParameter {
        /// The offending transaction's label.
        transaction: String,
        /// The parameter index referred to.
        parameter: usize,
    },
}

/// The methods of an object base, with the memoised verdict of checking
/// their bodies against the table itself.
#[derive(Clone, Debug, Default)]
struct MethodTable {
    defs: BTreeMap<(ObjectId, String), Arc<MethodDef>>,
    checked: OnceLock<Result<(), ProgramError>>,
}

/// An object base together with the methods of each object: the static
/// definition an engine run executes against.
///
/// Both halves sit behind an [`Arc`], so cloning a definition is O(1) and
/// the mutators copy a half only while a clone still shares it.
#[derive(Clone, Debug)]
pub struct ObjectBaseDef {
    base: Arc<ObjectBase>,
    methods: Arc<MethodTable>,
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

    /// Defines (or replaces) a method of an object. This forgets the
    /// verdict of [`check_methods`](Self::check_methods) for this
    /// definition; clones taken before keep theirs.
    pub fn define_method(&mut self, object: ObjectId, def: MethodDef) {
        let table = Arc::make_mut(&mut self.methods);
        table.defs.insert((object, def.name.clone()), Arc::new(def));
        table.checked.take();
    }

    /// Looks up a method of an object.
    pub fn method(&self, object: ObjectId, name: &str) -> Option<Arc<MethodDef>> {
        self.methods.defs.get(&(object, name.to_owned())).cloned()
    }

    /// Number of defined methods across all objects.
    pub fn method_count(&self) -> usize {
        self.methods.defs.len()
    }

    /// Iterates over every `(object, method definition)` pair.
    pub fn methods(&self) -> impl Iterator<Item = (ObjectId, &MethodDef)> + '_ {
        self.methods.defs.iter().map(|((o, _), d)| (*o, d.as_ref()))
    }

    /// Statically checks a program against the method table: every
    /// literally named invocation targets a defined method with the right
    /// arity (an object outside the base defines none). `transaction` names
    /// a top-level program, which must also issue no local operation and
    /// refer to no parameter; pass `None` for a method body.
    pub fn check_program(
        &self,
        program: &Program,
        transaction: Option<&str>,
    ) -> Result<(), ProgramError> {
        match program {
            Program::Local { .. } => match transaction {
                Some(name) => Err(ProgramError::LocalOperationAtTopLevel {
                    transaction: name.to_owned(),
                }),
                None => Ok(()),
            },
            Program::Invoke {
                object,
                method,
                args,
            } => {
                if let Some(name) = transaction {
                    let object_param = match object {
                        ObjRef::Param(i) => Some(*i),
                        ObjRef::Const(_) => None,
                    };
                    let arg_param = args.iter().find_map(|a| match a {
                        Expr::Param(i) => Some(*i),
                        Expr::Const(_) => None,
                    });
                    if let Some(parameter) = object_param.or(arg_param) {
                        return Err(ProgramError::UnresolvedParameter {
                            transaction: name.to_owned(),
                            parameter,
                        });
                    }
                }
                // Parameter-passed objects can only be resolved dynamically.
                let ObjRef::Const(target) = object else {
                    return Ok(());
                };
                self.check_invocation(*target, method, args.len())
            }
            Program::Seq(items) | Program::Par(items) => items
                .iter()
                .try_for_each(|item| self.check_program(item, transaction)),
        }
    }

    fn check_invocation(
        &self,
        target: ObjectId,
        method: &str,
        got: usize,
    ) -> Result<(), ProgramError> {
        let Some(def) = self.methods.defs.get(&(target, method.to_owned())) else {
            return Err(ProgramError::UnknownMethod {
                object: target,
                method: method.to_owned(),
            });
        };
        if def.params != got {
            return Err(ProgramError::ArityMismatch {
                object: target,
                method: method.to_owned(),
                expected: def.params,
                got,
            });
        }
        Ok(())
    }

    /// Checks every method body with [`check_program`](Self::check_program),
    /// each exactly once, so mutually recursive methods are fine. A body's
    /// verdict depends on the method table alone, so it is computed once per
    /// table and remembered until the next
    /// [`define_method`](Self::define_method).
    pub fn check_methods(&self) -> Result<(), ProgramError> {
        self.methods
            .checked
            .get_or_init(|| {
                self.methods()
                    .try_for_each(|(_, def)| self.check_program(&def.body, None))
            })
            .clone()
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
