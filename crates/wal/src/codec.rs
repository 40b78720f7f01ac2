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
use obase_exec::codec::{read_value, write_value};
use obase_ser::{ParseError, Reader, Writer};

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
}

/// The record keys [`WalRecord::decode`] reads.
const KEYS: [&str; 14] = [
    "t", "v", "objects", "e", "n", "s", "p", "c", "o", "m", "a", "op", "r", "b",
];

fn write_op(w: &mut Writer<'_>, op: &Operation) {
    w.key("op").object().key("a").array();
    for arg in &op.args {
        write_value(w, arg);
    }
    w.end_array().key("n").str(&op.name).end_object();
}

fn read_op(r: &mut Reader<'_>) -> Result<Operation, ParseError> {
    let [args, name] = r.fields(&["a", "n"])?;
    let at = |field: Option<usize>, key: &str| {
        field
            .map(|p| r.at(p))
            .ok_or_else(|| r.error(format!("operation has no {key:?}")))
    };
    let name = at(name, "n")?.str()?;
    Ok(Operation::new(name, at(args, "a")?.list(read_value)?))
}

impl WalRecord {
    /// Appends the record's JSON document to `out`, keys in sorted order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let w = &mut Writer::new(out);
        w.object();
        let tag = match self {
            WalRecord::Header { version, objects } => {
                w.key("objects").array();
                for name in objects {
                    w.str(name);
                }
                // The one record with a key that sorts after "t".
                w.end_array().key("t").str("H").key("v").int(*version);
                w.end_object();
                return;
            }
            WalRecord::BeginTop { exec, name } => {
                w.key("e").int(exec.0.into()).key("n").str(name);
                "B"
            }
            WalRecord::Invoke {
                step,
                parent,
                child,
                target,
                method,
                args,
            } => {
                w.key("a").array();
                for arg in args {
                    write_value(w, arg);
                }
                w.end_array();
                w.key("c").int(child.0.into()).key("m").str(method);
                w.key("o")
                    .int(target.0.into())
                    .key("p")
                    .int(parent.0.into());
                w.key("s").int(step.0.into());
                "I"
            }
            WalRecord::Local {
                step,
                exec,
                op,
                ret,
            } => {
                w.key("e").int(exec.0.into());
                write_op(w, op);
                write_value(w.key("r"), ret);
                w.key("s").int(step.0.into());
                "L"
            }
            WalRecord::ProgramOrder { exec, a, b } => {
                w.key("a").int(a.0.into()).key("b").int(b.0.into());
                w.key("e").int(exec.0.into());
                "P"
            }
            WalRecord::Complete { step, ret } => {
                write_value(w.key("r"), ret);
                w.key("s").int(step.0.into());
                "C"
            }
            WalRecord::Abort { exec } => {
                w.key("e").int(exec.0.into());
                "A"
            }
            WalRecord::CommitTop { exec } => {
                w.key("e").int(exec.0.into());
                "K"
            }
        };
        w.key("t").str(tag).end_object();
    }

    /// Decodes a record from one JSON document: keys in any order, the last
    /// of duplicate keys winning, unknown keys ignored. Total: malformed
    /// input is an error, never a panic.
    pub fn decode(text: &str) -> Result<WalRecord, String> {
        let mut r = Reader::new(text);
        let at = r.fields(&KEYS).map_err(|e| e.to_string())?;
        r.end().map_err(|e| e.to_string())?;
        // The reader at `key`'s value.
        let field = |key: &str| {
            let i = KEYS.iter().position(|k| *k == key).expect("a known key");
            at[i]
                .map(|p| r.at(p))
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let bad = |key: &'static str| move |e: ParseError| format!("field {key:?}: {e}");
        let id = |key: &'static str| field(key)?.int_as::<u32>().map_err(bad(key));
        let text = |key: &'static str| field(key)?.string_owned().map_err(bad(key));
        let value = |key: &'static str| read_value(&mut field(key)?).map_err(bad(key));
        let values = |key: &'static str| field(key)?.list(read_value).map_err(bad(key));
        let op = || read_op(&mut field("op")?).map_err(bad("op"));
        let tag = field("t")?.str().map_err(bad("t"))?;
        Ok(match &*tag {
            "H" => WalRecord::Header {
                version: field("v")?.int().map_err(bad("v"))?,
                objects: field("objects")?
                    .list(Reader::string_owned)
                    .map_err(bad("objects"))?,
            },
            "B" => WalRecord::BeginTop {
                exec: ExecId(id("e")?),
                name: text("n")?,
            },
            "I" => WalRecord::Invoke {
                step: StepId(id("s")?),
                parent: ExecId(id("p")?),
                child: ExecId(id("c")?),
                target: ObjectId(id("o")?),
                method: text("m")?,
                args: values("a")?,
            },
            "L" => WalRecord::Local {
                step: StepId(id("s")?),
                exec: ExecId(id("e")?),
                op: op()?,
                ret: value("r")?,
            },
            "P" => WalRecord::ProgramOrder {
                exec: ExecId(id("e")?),
                a: StepId(id("a")?),
                b: StepId(id("b")?),
            },
            "C" => WalRecord::Complete {
                step: StepId(id("s")?),
                ret: value("r")?,
            },
            "A" => WalRecord::Abort {
                exec: ExecId(id("e")?),
            },
            "K" => WalRecord::CommitTop {
                exec: ExecId(id("e")?),
            },
            other => return Err(format!("unknown record tag {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rec: WalRecord) {
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        let text = String::from_utf8(bytes).expect("UTF-8");
        let back = WalRecord::decode(&text).expect("decode");
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
    }

    #[test]
    fn malformed_documents_decode_to_errors() {
        for text in [
            "{}",
            "{\"t\":\"Z\"}",
            "{\"t\":\"S\",\"s\":0,\"r\":\"u\"}",
            "{\"t\":\"B\",\"e\":-1,\"n\":\"T\"}",
            "{\"t\":\"B\",\"e\":0}",
            "{\"t\":\"L\",\"s\":0,\"e\":0,\"op\":{\"n\":\"R\"},\"r\":[\"i\",1]}",
            "{\"t\":\"L\",\"s\":0,\"e\":0,\"op\":{\"n\":\"R\",\"a\":[]},\"r\":[\"q\"]}",
            "[1,2,3]",
        ] {
            assert!(WalRecord::decode(text).is_err(), "accepted {text}");
        }
    }
}
