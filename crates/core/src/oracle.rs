//! The serialisability oracle: the paper's correctness criterion, composed
//! once.
//!
//! A committed history passes when it is legal (Definition 6), its
//! serialisation graph is acyclic (Theorem 2) and, when asked, it meets the
//! per-object condition of Theorem 5. [`check`] answers with the first
//! [`TheoryViolation`] found, carrying its certificate, or with the
//! committed final states that legality's condition 3 replays on the way.

use crate::error::LegalityError;
use crate::history::History;
use crate::ids::{ExecId, ObjectId};
use crate::value::Value;
use crate::{legality, local_graphs, sg};
use std::collections::BTreeMap;
use std::fmt;

/// A violation of the paper's theory: the committed history failed
/// legality, Theorem 2 or Theorem 5, or the run never settled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryViolation {
    /// The run hit its round limit before all transactions settled, so the
    /// recorded history is a prefix and the checks are not meaningful.
    TimedOut,
    /// The committed history is not legal (Definition 6).
    NotLegal(LegalityError),
    /// The serialisation graph has a cycle (Theorem 2 refutes
    /// serialisability via this certificate).
    CyclicSerialisationGraph {
        /// A witness cycle of top-level transactions.
        cycle: Vec<ExecId>,
    },
    /// The Theorem 5 per-object condition fails.
    Theorem5Violated {
        /// Objects whose combined local graph is cyclic.
        objects: Vec<ObjectId>,
        /// Executions whose intra-method message order is cyclic.
        executions: Vec<ExecId>,
    },
}

impl fmt::Display for TheoryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoryViolation::TimedOut => {
                write!(f, "the run hit its round limit before settling")
            }
            TheoryViolation::NotLegal(e) => {
                write!(f, "committed history is not legal: {e}")
            }
            TheoryViolation::CyclicSerialisationGraph { cycle } => {
                write!(f, "serialisation graph has a cycle: {cycle:?}")
            }
            TheoryViolation::Theorem5Violated {
                objects,
                executions,
            } => write!(
                f,
                "Theorem 5 condition violated (cyclic objects: {objects:?}, \
                 cyclic executions: {executions:?})"
            ),
        }
    }
}

impl std::error::Error for TheoryViolation {}

/// Holds a committed history to the oracle: legality, then Theorem 2's
/// serialisation-graph test, then — only when `theorem5` is set — the
/// Theorem 5 per-object condition. Returns the first violation found, or the
/// final state of every object the history touches.
pub fn check(h: &History, theorem5: bool) -> Result<BTreeMap<ObjectId, Value>, TheoryViolation> {
    let finals = legality::check_legal(h).map_err(TheoryViolation::NotLegal)?;
    if let Some(cycle) = sg::serialisation_graph(h).find_cycle() {
        return Err(TheoryViolation::CyclicSerialisationGraph { cycle });
    }
    if theorem5 {
        let t5 = local_graphs::theorem5_report(h);
        if !t5.condition_holds() {
            return Err(TheoryViolation::Theorem5Violated {
                objects: t5.cyclic_objects.iter().map(|(o, _)| *o).collect(),
                executions: t5.cyclic_executions.iter().map(|(e, _)| *e).collect(),
            });
        }
    }
    Ok(finals)
}
