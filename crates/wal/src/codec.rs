//! On-disk representation of write-ahead log records.
//!
//! Each record is one JSON document in the `obase-ser` dialect — readable
//! with any JSON tool, deterministic to print (sorted object keys), and
//! dependency-free to parse. Values are encoded as small tagged arrays
//! (`["i", 5]`, `["l", [...]]`) so the dynamic [`Value`] type round-trips
//! without ambiguity; records are objects tagged by a one-letter `"t"` key.
//!
//! Decoding is *total*: any malformed document decodes to an error, never a
//! panic — the log reader treats an undecodable record like a torn tail.

use obase_core::ids::{ExecId, ObjectId, StepId};
use obase_core::op::Operation;
use obase_core::value::Value;
use obase_exec::codec::{value_from_json, value_to_json};
use obase_ser::Json;

/// Format version stamped into the header record.
pub const FORMAT_VERSION: i64 = 1;

/// One write-ahead log record: the header, every lifecycle event the
/// recording contract emits, and the commit record that only durable
/// recorders persist (in-memory histories derive commitment from the
/// absence of an abort mark; a log must say it explicitly — it is the
/// durability point of the transaction).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// First record of every log: format version and the names of the
    /// objects in the base, in id order. Recovery refuses a log whose
    /// header does not match the object base it is given.
    Header {
        /// Format version ([`FORMAT_VERSION`]).
        version: i64,
        /// Object names in [`ObjectId`] order.
        objects: Vec<String>,
    },
    /// A top-level transaction began.
    BeginTop {
        /// The transaction's execution id.
        exec: ExecId,
        /// The transaction's label.
        name: String,
    },
    /// A message step: `parent` invoked `method` on `target`, creating
    /// `child`.
    Invoke {
        /// Final id of the message step.
        step: StepId,
        /// The invoking execution.
        parent: ExecId,
        /// The created child execution.
        child: ExecId,
        /// The target object.
        target: ObjectId,
        /// The invoked method.
        method: String,
        /// The invocation arguments.
        args: Vec<Value>,
    },
    /// A local step installed by `exec`.
    Local {
        /// Final id of the step.
        step: StepId,
        /// The issuing execution.
        exec: ExecId,
        /// The operation.
        op: Operation,
        /// The observed return value.
        ret: Value,
    },
    /// A program-order edge `a ⊲ b` within `exec`.
    ProgramOrder {
        /// The execution the edge belongs to.
        exec: ExecId,
        /// The earlier step.
        a: StepId,
        /// The later step.
        b: StepId,
    },
    /// The message step `step` completed with return value `ret`.
    Complete {
        /// Final id of the message step.
        step: StepId,
        /// The value returned to the sender.
        ret: Value,
    },
    /// `exec` aborted (with its whole subtree; every member gets a record).
    Abort {
        /// The aborted execution.
        exec: ExecId,
    },
    /// The top-level transaction `exec` committed — the durability point.
    CommitTop {
        /// The committed top-level execution.
        exec: ExecId,
    },
    /// A message step of a snapshot-read transaction (MVCC read path):
    /// replayed through the builder's deferred-interval snapshot path, so
    /// recovery reproduces the fabricated read timeline exactly.
    SnapshotInvoke {
        /// Final id of the message step.
        step: StepId,
        /// The invoking execution.
        parent: ExecId,
        /// The created child execution.
        child: ExecId,
        /// The target object.
        target: ObjectId,
        /// The invoked method.
        method: String,
        /// The invocation arguments.
        args: Vec<Value>,
    },
    /// A snapshot read, anchored to the last step of the committed version
    /// it observed.
    SnapshotLocal {
        /// Final id of the step.
        step: StepId,
        /// The issuing execution.
        exec: ExecId,
        /// The (read-only) operation.
        op: Operation,
        /// The observed return value.
        ret: Value,
        /// Final id of the observed version's last step, if any.
        anchor: Option<StepId>,
    },
    /// A snapshot message step's return value.
    SnapshotComplete {
        /// Final id of the message step.
        step: StepId,
        /// The value returned to the sender.
        ret: Value,
    },
}

fn op_to_json(op: &Operation) -> Json {
    Json::object([
        (
            "a",
            Json::Array(op.args.iter().map(value_to_json).collect()),
        ),
        ("n", Json::str(op.name.clone())),
    ])
}

fn op_from_json(j: &Json) -> Result<Operation, String> {
    let name = j
        .get("n")
        .and_then(Json::as_str)
        .ok_or("operation has no name")?;
    let args = j
        .get("a")
        .and_then(Json::as_array)
        .ok_or("operation has no args array")?
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Operation::new(name, args))
}

fn values_to_json(vs: &[Value]) -> Json {
    Json::Array(vs.iter().map(value_to_json).collect())
}

fn get_u32(j: &Json, key: &str) -> Result<u32, String> {
    j.get(key)
        .and_then(Json::as_int)
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| format!("missing or non-u32 field {key:?}"))
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

impl WalRecord {
    /// Encodes the record as one JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            WalRecord::Header { version, objects } => Json::object([
                ("t", Json::str("H")),
                ("v", Json::Int(*version)),
                (
                    "objects",
                    Json::Array(objects.iter().map(|n| Json::str(n.clone())).collect()),
                ),
            ]),
            WalRecord::BeginTop { exec, name } => Json::object([
                ("t", Json::str("B")),
                ("e", Json::Int(exec.0 as i64)),
                ("n", Json::str(name.clone())),
            ]),
            WalRecord::Invoke {
                step,
                parent,
                child,
                target,
                method,
                args,
            } => Json::object([
                ("t", Json::str("I")),
                ("s", Json::Int(step.0 as i64)),
                ("p", Json::Int(parent.0 as i64)),
                ("c", Json::Int(child.0 as i64)),
                ("o", Json::Int(target.0 as i64)),
                ("m", Json::str(method.clone())),
                ("a", values_to_json(args)),
            ]),
            WalRecord::Local {
                step,
                exec,
                op,
                ret,
            } => Json::object([
                ("t", Json::str("L")),
                ("s", Json::Int(step.0 as i64)),
                ("e", Json::Int(exec.0 as i64)),
                ("op", op_to_json(op)),
                ("r", value_to_json(ret)),
            ]),
            WalRecord::ProgramOrder { exec, a, b } => Json::object([
                ("t", Json::str("P")),
                ("e", Json::Int(exec.0 as i64)),
                ("a", Json::Int(a.0 as i64)),
                ("b", Json::Int(b.0 as i64)),
            ]),
            WalRecord::Complete { step, ret } => Json::object([
                ("t", Json::str("C")),
                ("s", Json::Int(step.0 as i64)),
                ("r", value_to_json(ret)),
            ]),
            WalRecord::Abort { exec } => {
                Json::object([("t", Json::str("A")), ("e", Json::Int(exec.0 as i64))])
            }
            WalRecord::CommitTop { exec } => {
                Json::object([("t", Json::str("K")), ("e", Json::Int(exec.0 as i64))])
            }
            WalRecord::SnapshotInvoke {
                step,
                parent,
                child,
                target,
                method,
                args,
            } => Json::object([
                ("t", Json::str("V")),
                ("s", Json::Int(step.0 as i64)),
                ("p", Json::Int(parent.0 as i64)),
                ("c", Json::Int(child.0 as i64)),
                ("o", Json::Int(target.0 as i64)),
                ("m", Json::str(method.clone())),
                ("a", values_to_json(args)),
            ]),
            WalRecord::SnapshotLocal {
                step,
                exec,
                op,
                ret,
                anchor,
            } => {
                let mut fields = vec![
                    ("t", Json::str("R")),
                    ("s", Json::Int(step.0 as i64)),
                    ("e", Json::Int(exec.0 as i64)),
                    ("op", op_to_json(op)),
                    ("r", value_to_json(ret)),
                ];
                if let Some(a) = anchor {
                    fields.push(("an", Json::Int(a.0 as i64)));
                }
                Json::object(fields)
            }
            WalRecord::SnapshotComplete { step, ret } => Json::object([
                ("t", Json::str("S")),
                ("s", Json::Int(step.0 as i64)),
                ("r", value_to_json(ret)),
            ]),
        }
    }

    /// Decodes a record from one JSON document. Total: malformed input is an
    /// error, never a panic.
    pub fn from_json(j: &Json) -> Result<WalRecord, String> {
        match get_str(j, "t")? {
            "H" => Ok(WalRecord::Header {
                version: j
                    .get("v")
                    .and_then(Json::as_int)
                    .ok_or("header has no version")?,
                objects: j
                    .get("objects")
                    .and_then(Json::as_array)
                    .ok_or("header has no objects array")?
                    .iter()
                    .map(|o| {
                        o.as_str()
                            .map(str::to_owned)
                            .ok_or("non-string object name")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "B" => Ok(WalRecord::BeginTop {
                exec: ExecId(get_u32(j, "e")?),
                name: get_str(j, "n")?.to_owned(),
            }),
            "I" => Ok(WalRecord::Invoke {
                step: StepId(get_u32(j, "s")?),
                parent: ExecId(get_u32(j, "p")?),
                child: ExecId(get_u32(j, "c")?),
                target: ObjectId(get_u32(j, "o")?),
                method: get_str(j, "m")?.to_owned(),
                args: j
                    .get("a")
                    .and_then(Json::as_array)
                    .ok_or("invoke has no args array")?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "L" => Ok(WalRecord::Local {
                step: StepId(get_u32(j, "s")?),
                exec: ExecId(get_u32(j, "e")?),
                op: op_from_json(j.get("op").ok_or("local has no op")?)?,
                ret: value_from_json(j.get("r").ok_or("local has no ret")?)?,
            }),
            "P" => Ok(WalRecord::ProgramOrder {
                exec: ExecId(get_u32(j, "e")?),
                a: StepId(get_u32(j, "a")?),
                b: StepId(get_u32(j, "b")?),
            }),
            "C" => Ok(WalRecord::Complete {
                step: StepId(get_u32(j, "s")?),
                ret: value_from_json(j.get("r").ok_or("complete has no ret")?)?,
            }),
            "A" => Ok(WalRecord::Abort {
                exec: ExecId(get_u32(j, "e")?),
            }),
            "K" => Ok(WalRecord::CommitTop {
                exec: ExecId(get_u32(j, "e")?),
            }),
            "V" => Ok(WalRecord::SnapshotInvoke {
                step: StepId(get_u32(j, "s")?),
                parent: ExecId(get_u32(j, "p")?),
                child: ExecId(get_u32(j, "c")?),
                target: ObjectId(get_u32(j, "o")?),
                method: get_str(j, "m")?.to_owned(),
                args: j
                    .get("a")
                    .and_then(Json::as_array)
                    .ok_or("snapshot invoke has no args array")?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "R" => Ok(WalRecord::SnapshotLocal {
                step: StepId(get_u32(j, "s")?),
                exec: ExecId(get_u32(j, "e")?),
                op: op_from_json(j.get("op").ok_or("snapshot local has no op")?)?,
                ret: value_from_json(j.get("r").ok_or("snapshot local has no ret")?)?,
                anchor: match j.get("an") {
                    Some(_) => Some(StepId(get_u32(j, "an")?)),
                    None => None,
                },
            }),
            "S" => Ok(WalRecord::SnapshotComplete {
                step: StepId(get_u32(j, "s")?),
                ret: value_from_json(j.get("r").ok_or("snapshot complete has no ret")?)?,
            }),
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rec: WalRecord) {
        let text = rec.to_json().to_string();
        let back = WalRecord::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(rec, back, "round trip through {text}");
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let deep = Value::map([
            ("k", Value::list([Value::Int(-3), Value::Unit])),
            ("o", Value::Obj(ObjectId(7))),
        ]);
        round_trip(WalRecord::Header {
            version: FORMAT_VERSION,
            objects: vec!["x".into(), "emoji-✓".into()],
        });
        round_trip(WalRecord::BeginTop {
            exec: ExecId(0),
            name: "T0 \"quoted\"".into(),
        });
        round_trip(WalRecord::Invoke {
            step: StepId(3),
            parent: ExecId(0),
            child: ExecId(1),
            target: ObjectId(2),
            method: "enqueue".into(),
            args: vec![deep.clone(), Value::Bool(true), Value::Str("s".into())],
        });
        round_trip(WalRecord::Local {
            step: StepId(4),
            exec: ExecId(1),
            op: Operation::new("Append", [Value::Int(9), deep]),
            ret: Value::Int(i64::MIN),
        });
        round_trip(WalRecord::ProgramOrder {
            exec: ExecId(1),
            a: StepId(3),
            b: StepId(4),
        });
        round_trip(WalRecord::Complete {
            step: StepId(3),
            ret: Value::Unit,
        });
        round_trip(WalRecord::Abort { exec: ExecId(1) });
        round_trip(WalRecord::CommitTop { exec: ExecId(0) });
        round_trip(WalRecord::SnapshotInvoke {
            step: StepId(5),
            parent: ExecId(2),
            child: ExecId(3),
            target: ObjectId(1),
            method: "lookup".into(),
            args: vec![Value::Int(4)],
        });
        round_trip(WalRecord::SnapshotLocal {
            step: StepId(6),
            exec: ExecId(3),
            op: Operation::new("Lookup", [Value::Int(4)]),
            ret: Value::Str("v".into()),
            anchor: Some(StepId(2)),
        });
        round_trip(WalRecord::SnapshotLocal {
            step: StepId(7),
            exec: ExecId(3),
            op: Operation::nullary("Size"),
            ret: Value::Int(0),
            anchor: None,
        });
        round_trip(WalRecord::SnapshotComplete {
            step: StepId(5),
            ret: Value::Str("v".into()),
        });
    }

    #[test]
    fn malformed_documents_decode_to_errors() {
        for text in [
            "{}",
            "{\"t\":\"Z\"}",
            "{\"t\":\"B\",\"e\":-1,\"n\":\"T\"}",
            "{\"t\":\"B\",\"e\":0}",
            "{\"t\":\"L\",\"s\":0,\"e\":0,\"op\":{\"n\":\"R\"},\"r\":[\"i\",1]}",
            "{\"t\":\"L\",\"s\":0,\"e\":0,\"op\":{\"n\":\"R\",\"a\":[]},\"r\":[\"q\"]}",
            "[1,2,3]",
        ] {
            let j = Json::parse(text).expect("valid JSON");
            assert!(WalRecord::from_json(&j).is_err(), "accepted {text}");
        }
    }
}
