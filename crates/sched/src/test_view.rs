//! The [`TxnView`] the scheduler tests share: a small forest in which E0 and
//! E1 are top-level, E10 is a child of E0 and E11 a child of E1. Every
//! execution is live and runs at object 0; every object has the type the
//! test chooses.

use obase_core::ids::{ExecId, ObjectId};
use obase_core::object::TypeHandle;
use obase_core::sched::TxnView;
use std::sync::Arc;

pub(crate) struct ForestView {
    ty: TypeHandle,
}

impl ForestView {
    pub(crate) fn new(ty: TypeHandle) -> Self {
        ForestView { ty }
    }
}

impl TxnView for ForestView {
    fn parent(&self, e: ExecId) -> Option<ExecId> {
        match e.0 {
            10 => Some(ExecId(0)),
            11 => Some(ExecId(1)),
            _ => None,
        }
    }
    fn object_of(&self, _e: ExecId) -> ObjectId {
        ObjectId(0)
    }
    fn type_of(&self, _o: ObjectId) -> TypeHandle {
        Arc::clone(&self.ty)
    }
    fn is_live(&self, _e: ExecId) -> bool {
        true
    }
}
