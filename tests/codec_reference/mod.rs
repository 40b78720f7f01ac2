//! The tree codecs the direct typed codecs replaced, kept as the reference
//! `codec_differential` holds them to: every value, program, wire frame and
//! write-ahead log record goes text → `Json` tree → typed struct, and back.

use obase::core::ids::{ExecId, ObjectId, StepId};
use obase::core::op::Operation;
use obase::core::value::Value;
use obase::exec::{Expr, ObjRef, Program};
use obase::serve::{Frame, RejectReason, WireError};
use obase::wal::WalRecord;
use obase_ser::Json;

/// The length-prefixed bytes of `f`.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let payload = frame_to_json(f).to_string().into_bytes();
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&payload);
    out
}

/// The verdict on a frame's JSON payload.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::BadUtf8(e.to_string()))?;
    let json = Json::parse(text).map_err(|e| WireError::BadJson(e.render(text)))?;
    frame_from_json(&json)
}

/// Encodes a [`Value`] as a tagged JSON array.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Unit => Json::Array(vec![Json::str("u")]),
        Value::Bool(b) => Json::Array(vec![Json::str("b"), Json::Bool(*b)]),
        Value::Int(i) => Json::Array(vec![Json::str("i"), Json::Int(*i)]),
        Value::Str(s) => Json::Array(vec![Json::str("s"), Json::str(s.clone())]),
        Value::Obj(o) => Json::Array(vec![Json::str("o"), Json::Int(i64::from(o.0))]),
        Value::List(items) => Json::Array(vec![
            Json::str("l"),
            Json::Array(items.iter().map(value_to_json).collect()),
        ]),
        Value::Map(map) => Json::Array(vec![
            Json::str("m"),
            Json::Object(
                map.iter()
                    .map(|(k, v)| (k.clone(), value_to_json(v)))
                    .collect(),
            ),
        ]),
    }
}

/// Decodes a [`Value`] from its tagged-array encoding.
pub fn value_from_json(j: &Json) -> Result<Value, String> {
    let arr = j.as_array().ok_or("value is not a tagged array")?;
    let tag = arr
        .first()
        .and_then(Json::as_str)
        .ok_or("value array has no string tag")?;
    let payload = arr.get(1);
    match (tag, payload) {
        ("u", None) => Ok(Value::Unit),
        ("b", Some(p)) => p.as_bool().map(Value::Bool).ok_or_else(bad(tag)),
        ("i", Some(p)) => p.as_int().map(Value::Int).ok_or_else(bad(tag)),
        ("s", Some(p)) => p
            .as_str()
            .map(|s| Value::Str(s.to_owned()))
            .ok_or_else(bad(tag)),
        ("o", Some(p)) => p
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .map(|i| Value::Obj(ObjectId(i)))
            .ok_or_else(bad(tag)),
        ("l", Some(p)) => p
            .as_array()
            .ok_or_else(bad(tag))?
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map(Value::list),
        ("m", Some(p)) => p
            .as_object()
            .ok_or_else(bad(tag))?
            .iter()
            .map(|(k, v)| value_from_json(v).map(|v| (k.clone(), v)))
            .collect::<Result<Vec<(String, Value)>, _>>()
            .map(Value::map),
        _ => Err(format!("unknown value tag {tag:?}")),
    }
}

fn bad(tag: &str) -> impl Fn() -> String + '_ {
    move || format!("malformed {tag:?} value payload")
}

fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Const(v) => Json::Array(vec![Json::str("c"), value_to_json(v)]),
        Expr::Param(i) => Json::Array(vec![Json::str("p"), Json::Int(*i as i64)]),
    }
}

fn expr_from_json(j: &Json) -> Result<Expr, WireError> {
    let bad = |d: &str| WireError::BadFrame(format!("bad expr encoding: {d}"));
    let arr = j.as_array().ok_or_else(|| bad("not a tagged array"))?;
    match (arr.first().and_then(Json::as_str), arr.get(1)) {
        (Some("c"), Some(v)) => value_from_json(v).map(Expr::Const).map_err(|e| bad(&e)),
        (Some("p"), Some(i)) => i
            .as_int()
            .and_then(|i| usize::try_from(i).ok())
            .map(Expr::Param)
            .ok_or_else(|| bad("param index")),
        _ => Err(bad("expected [\"c\", value] or [\"p\", n]")),
    }
}

fn objref_to_json(o: &ObjRef) -> Json {
    match o {
        ObjRef::Const(id) => Json::Array(vec![Json::str("o"), Json::Int(i64::from(id.0))]),
        ObjRef::Param(i) => Json::Array(vec![Json::str("p"), Json::Int(*i as i64)]),
    }
}

fn objref_from_json(j: &Json) -> Result<ObjRef, WireError> {
    let bad = |d: &str| WireError::BadFrame(format!("bad object ref: {d}"));
    let arr = j.as_array().ok_or_else(|| bad("not a tagged array"))?;
    match (arr.first().and_then(Json::as_str), arr.get(1)) {
        (Some("o"), Some(i)) => i
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .map(|i| ObjRef::Const(ObjectId(i)))
            .ok_or_else(|| bad("object id")),
        (Some("p"), Some(i)) => i
            .as_int()
            .and_then(|i| usize::try_from(i).ok())
            .map(ObjRef::Param)
            .ok_or_else(|| bad("param index")),
        _ => Err(bad("expected [\"o\", id] or [\"p\", n]")),
    }
}

/// Encodes a transaction [`Program`] in the scenario-DSL shape: tagged
/// arrays `["local", op, args]`, `["invoke", obj, method, args]`,
/// `["seq", [...]]`, `["par", [...]]`.
pub fn program_to_json(p: &Program) -> Json {
    match p {
        Program::Local { op, args } => Json::Array(vec![
            Json::str("local"),
            Json::str(op.clone()),
            Json::Array(args.iter().map(expr_to_json).collect()),
        ]),
        Program::Invoke {
            object,
            method,
            args,
        } => Json::Array(vec![
            Json::str("invoke"),
            objref_to_json(object),
            Json::str(method.clone()),
            Json::Array(args.iter().map(expr_to_json).collect()),
        ]),
        Program::Seq(ps) => Json::Array(vec![
            Json::str("seq"),
            Json::Array(ps.iter().map(program_to_json).collect()),
        ]),
        Program::Par(ps) => Json::Array(vec![
            Json::str("par"),
            Json::Array(ps.iter().map(program_to_json).collect()),
        ]),
    }
}

/// Decodes a [`Program`] from its tagged-array encoding.
pub fn program_from_json(j: &Json) -> Result<Program, WireError> {
    let bad = |d: &str| WireError::BadFrame(format!("bad program encoding: {d}"));
    let arr = j.as_array().ok_or_else(|| bad("not a tagged array"))?;
    let tag = arr
        .first()
        .and_then(Json::as_str)
        .ok_or_else(|| bad("no string tag"))?;
    let exprs = |j: &Json| -> Result<Vec<Expr>, WireError> {
        j.as_array()
            .ok_or_else(|| bad("args is not an array"))?
            .iter()
            .map(expr_from_json)
            .collect()
    };
    let progs = |j: &Json| -> Result<Vec<Program>, WireError> {
        j.as_array()
            .ok_or_else(|| bad("block is not an array"))?
            .iter()
            .map(program_from_json)
            .collect()
    };
    match tag {
        "local" => {
            let op = arr
                .get(1)
                .and_then(Json::as_str)
                .ok_or_else(|| bad("local needs an op name"))?;
            let args = exprs(arr.get(2).ok_or_else(|| bad("local needs args"))?)?;
            Ok(Program::Local {
                op: op.to_owned(),
                args,
            })
        }
        "invoke" => {
            let object = objref_from_json(arr.get(1).ok_or_else(|| bad("invoke needs a target"))?)?;
            let method = arr
                .get(2)
                .and_then(Json::as_str)
                .ok_or_else(|| bad("invoke needs a method name"))?;
            let args = exprs(arr.get(3).ok_or_else(|| bad("invoke needs args"))?)?;
            Ok(Program::Invoke {
                object,
                method: method.to_owned(),
                args,
            })
        }
        "seq" => progs(arr.get(1).ok_or_else(|| bad("seq needs a block"))?).map(Program::Seq),
        "par" => progs(arr.get(1).ok_or_else(|| bad("par needs a block"))?).map(Program::Par),
        other => Err(bad(&format!("unknown program tag {other:?}"))),
    }
}

fn reject_to_json(r: &RejectReason) -> Json {
    let mut fields = vec![("kind", Json::str(r.key()))];
    match r {
        RejectReason::QueueFull { depth } => {
            fields.push(("depth", Json::Int(*depth as i64)));
        }
        RejectReason::Invalid(detail) => {
            fields.push(("detail", Json::str(detail.clone())));
        }
        RejectReason::Draining => {}
    }
    Json::object(fields)
}

fn reject_from_json(j: &Json) -> Result<RejectReason, WireError> {
    let bad = |d: &str| WireError::BadFrame(format!("bad reject reason: {d}"));
    match j.get("kind").and_then(Json::as_str) {
        Some("queue_full") => {
            let depth = j
                .get("depth")
                .and_then(Json::as_int)
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| bad("queue_full needs a depth"))?;
            Ok(RejectReason::QueueFull { depth })
        }
        Some("draining") => Ok(RejectReason::Draining),
        Some("invalid") => Ok(RejectReason::Invalid(
            j.get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        )),
        Some(other) => Err(bad(&format!("unknown kind {other:?}"))),
        None => Err(bad("missing kind")),
    }
}

/// Renders a frame as its JSON document (without the length prefix).
pub fn frame_to_json(f: &Frame) -> Json {
    let t = ("t", Json::str(f.tag()));
    match f {
        Frame::Hello { client, protocol } => Json::object([
            t,
            ("client", Json::str(client.clone())),
            ("protocol", Json::Int(*protocol)),
        ]),
        Frame::Welcome {
            server,
            protocol,
            objects,
        } => Json::object([
            t,
            ("server", Json::str(server.clone())),
            ("protocol", Json::Int(*protocol)),
            ("objects", Json::Int(*objects as i64)),
        ]),
        Frame::Submit { id, name, body } => Json::object([
            t,
            ("id", Json::Int(*id as i64)),
            ("name", Json::str(name.clone())),
            ("body", program_to_json(body)),
        ]),
        Frame::Result {
            id,
            committed,
            latency_us,
        } => Json::object([
            t,
            ("id", Json::Int(*id as i64)),
            ("committed", Json::Bool(*committed)),
            ("latency_us", Json::Int(*latency_us as i64)),
        ]),
        Frame::Reject { id, reason } => Json::object([
            t,
            ("id", Json::Int(*id as i64)),
            ("reason", reject_to_json(reason)),
        ]),
        Frame::Status => Json::object([t]),
        Frame::StatusReport { body } => Json::object([t, ("body", body.clone())]),
        Frame::Reconcile { config } => Json::object([t, ("config", config.clone())]),
        Frame::Reconciled { changed } => Json::object([
            t,
            (
                "changed",
                Json::Array(changed.iter().map(|c| Json::str(c.clone())).collect()),
            ),
        ]),
        Frame::Error { code, detail } => Json::object([
            t,
            ("code", Json::str(code.clone())),
            ("detail", Json::str(detail.clone())),
        ]),
        Frame::Goodbye => Json::object([t]),
    }
}

/// Parses a frame from its JSON document.
pub fn frame_from_json(j: &Json) -> Result<Frame, WireError> {
    let obj = j
        .as_object()
        .ok_or_else(|| WireError::BadFrame("frame is not a JSON object".into()))?;
    let tag = obj
        .get("t")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::BadFrame("frame has no \"t\" tag".into()))?;
    let need_str = |k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| WireError::BadFrame(format!("{tag} needs a string {k:?}")))
    };
    let need_int = |k: &str| {
        j.get(k)
            .and_then(Json::as_int)
            .ok_or_else(|| WireError::BadFrame(format!("{tag} needs an integer {k:?}")))
    };
    let need_u64 = |k: &str| {
        need_int(k).and_then(|i| {
            u64::try_from(i).map_err(|_| WireError::BadFrame(format!("{tag}: {k} is negative")))
        })
    };
    match tag {
        "hello" => Ok(Frame::Hello {
            client: need_str("client")?,
            protocol: need_int("protocol")?,
        }),
        "welcome" => Ok(Frame::Welcome {
            server: need_str("server")?,
            protocol: need_int("protocol")?,
            objects: need_int("objects").and_then(|i| {
                usize::try_from(i)
                    .map_err(|_| WireError::BadFrame("welcome: objects is negative".into()))
            })?,
        }),
        "submit" => Ok(Frame::Submit {
            id: need_u64("id")?,
            name: need_str("name")?,
            body: program_from_json(
                j.get("body")
                    .ok_or_else(|| WireError::BadFrame("submit needs a body".into()))?,
            )?,
        }),
        "result" => Ok(Frame::Result {
            id: need_u64("id")?,
            committed: j
                .get("committed")
                .and_then(Json::as_bool)
                .ok_or_else(|| WireError::BadFrame("result needs a bool \"committed\"".into()))?,
            latency_us: need_u64("latency_us")?,
        }),
        "reject" => Ok(Frame::Reject {
            id: need_u64("id")?,
            reason: reject_from_json(
                j.get("reason")
                    .ok_or_else(|| WireError::BadFrame("reject needs a reason".into()))?,
            )?,
        }),
        "status" => Ok(Frame::Status),
        "status_report" => Ok(Frame::StatusReport {
            body: j
                .get("body")
                .cloned()
                .ok_or_else(|| WireError::BadFrame("status_report needs a body".into()))?,
        }),
        "reconcile" => Ok(Frame::Reconcile {
            config: j
                .get("config")
                .cloned()
                .ok_or_else(|| WireError::BadFrame("reconcile needs a config".into()))?,
        }),
        "reconciled" => Ok(Frame::Reconciled {
            changed: j
                .get("changed")
                .and_then(Json::as_array)
                .ok_or_else(|| WireError::BadFrame("reconciled needs a changed list".into()))?
                .iter()
                .map(|c| {
                    c.as_str().map(str::to_owned).ok_or_else(|| {
                        WireError::BadFrame("reconciled: changed entries are strings".into())
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "error" => Ok(Frame::Error {
            code: need_str("code")?,
            detail: need_str("detail")?,
        }),
        "goodbye" => Ok(Frame::Goodbye),
        other => Err(WireError::UnknownTag(other.to_owned())),
    }
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

/// Encodes the record as one JSON document.
pub fn record_to_json(record: &WalRecord) -> Json {
    match record {
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
    }
}

/// Decodes a record from one JSON document.
pub fn record_from_json(j: &Json) -> Result<WalRecord, String> {
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
        other => Err(format!("unknown record tag {other:?}")),
    }
}
