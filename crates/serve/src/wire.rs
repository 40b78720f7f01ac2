//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every frame is `[len: u32 big-endian][len bytes of JSON]`. The JSON
//! dialect is `obase-ser` (deterministic printing, no external crates);
//! dynamic [`Value`]s ride in the same tagged-array encoding the WAL uses
//! (`["i", 5]`, `["l", [...]]`), so a wire capture is readable with the
//! same eyes as a log dump.
//!
//! Decoding is *total* in the WAL sense: any byte sequence decodes to a
//! frame or to a typed [`WireError`], never a panic — the protocol test
//! battery truncates valid frames at every byte offset to hold the codec
//! to that. A frame that decodes structurally but carries an unknown
//! `"t"` tag is an [`WireError::UnknownTag`]; one whose payload is not
//! UTF-8 is a [`WireError::BadUtf8`]; a length prefix past
//! [`MAX_FRAME_LEN`] is refused before any payload is read, so a hostile
//! client cannot make the server allocate unboundedly.

use obase_core::ids::ObjectId;
use obase_core::value::Value;
use obase_exec::{Expr, ObjRef, Program, TxnSpec};
use obase_ser::Json;
use std::fmt;
use std::io::{Read, Write};

/// Protocol version carried in `hello`/`welcome`. A server refuses a
/// mismatched hello with a typed `error` frame rather than guessing.
pub const PROTOCOL_VERSION: i64 = 1;

/// Hard cap on one frame's JSON payload: 4 MiB. Far above any real
/// transaction tree, far below a memory-exhaustion vector.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// A typed wire failure. Every decoding path lands here — never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// An I/O failure reading or writing the stream.
    Io(String),
    /// A length prefix larger than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The stream ended inside a frame (torn tail): `got` of `want` bytes.
    Truncated {
        /// Bytes actually available.
        got: usize,
        /// Bytes the frame declared.
        want: usize,
    },
    /// The payload is not UTF-8.
    BadUtf8(String),
    /// The payload is not valid JSON.
    BadJson(String),
    /// The frame parsed as JSON but its `"t"` tag names no known frame.
    UnknownTag(String),
    /// The frame parsed and its tag is known, but a field is missing or
    /// has the wrong shape.
    BadFrame(String),
    /// The peer sent a well-formed frame that violates the session
    /// protocol (e.g. an `error` frame in reply, or a non-`welcome`
    /// handshake answer). Client-side only.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated { got, want } => {
                write!(f, "torn frame: {got} of {want} bytes")
            }
            WireError::BadUtf8(e) => write!(f, "frame payload is not UTF-8: {e}"),
            WireError::BadJson(e) => write!(f, "frame payload is not JSON: {e}"),
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t:?}"),
            WireError::BadFrame(e) => write!(f, "malformed frame: {e}"),
            WireError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why the server refused a submission. Rejects are *answers*, not
/// failures: the session stays open and the client may retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is full — backpressure. Retry later.
    QueueFull {
        /// The queue depth that was full.
        depth: usize,
    },
    /// The server is draining (or shutting down) and admits nothing new.
    Draining,
    /// The transaction tree itself was refused (unknown object or method,
    /// arity mismatch, local operation or unresolved parameter at top
    /// level, or an oversized tree).
    Invalid(String),
}

impl RejectReason {
    /// Stable snake_case key for the reason, carried on the wire.
    pub fn key(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::Draining => "draining",
            RejectReason::Invalid(_) => "invalid",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            RejectReason::Draining => write!(f, "server is draining"),
            RejectReason::Invalid(e) => write!(f, "invalid transaction: {e}"),
        }
    }
}

/// One protocol frame. Clients send `hello`, `submit`, `status`,
/// `reconcile` and `goodbye`; servers answer with `welcome`, `result`,
/// `reject`, `status_report`, `reconciled` and `error`.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake: who is connecting and which protocol it speaks.
    Hello {
        /// Free-form client label (shows up in nothing but logs).
        client: String,
        /// The protocol version the client speaks.
        protocol: i64,
    },
    /// Server handshake answer.
    Welcome {
        /// The server's label.
        server: String,
        /// The protocol version the server speaks.
        protocol: i64,
        /// Number of objects in the served object base.
        objects: usize,
    },
    /// Submit one transaction tree. `id` is client-chosen and echoes back
    /// on the matching `result`/`reject`; it must be unique among the
    /// session's outstanding submissions.
    Submit {
        /// Client-chosen correlation id.
        id: u64,
        /// Client-chosen transaction label (the server uniquifies it).
        name: String,
        /// The transaction tree, scenario-DSL shaped.
        body: Program,
    },
    /// The settled outcome of an admitted submission.
    Result {
        /// Correlation id of the submission.
        id: u64,
        /// `true` if the transaction committed; `false` if it exhausted
        /// its retry budget and gave up.
        committed: bool,
        /// Admission-to-settlement latency in microseconds.
        latency_us: u64,
    },
    /// The submission was refused; nothing ran.
    Reject {
        /// Correlation id of the submission.
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Ask for the health/status document.
    Status,
    /// The health/status document: queue + config + merged `RunMetrics` +
    /// latency phases.
    StatusReport {
        /// The status document (shape documented in `docs/SERVING.md`).
        body: Json,
    },
    /// Declarative reconcile: the desired [`ServeConfig`] as a JSON
    /// object; absent fields keep their current value.
    ///
    /// [`ServeConfig`]: crate::ServeConfig
    Reconcile {
        /// The desired-config document.
        config: Json,
    },
    /// Reconcile answer: which fields actually changed (empty = the
    /// desired state already held; reconciling is idempotent).
    Reconciled {
        /// Names of the changed fields.
        changed: Vec<String>,
    },
    /// A typed server-side error. Fatal to the session.
    Error {
        /// Stable error code (`"bad-hello"`, `"bad-config"`, ...).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Polite close.
    Goodbye,
}

impl Frame {
    /// The frame's `"t"` tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Welcome { .. } => "welcome",
            Frame::Submit { .. } => "submit",
            Frame::Result { .. } => "result",
            Frame::Reject { .. } => "reject",
            Frame::Status => "status",
            Frame::StatusReport { .. } => "status_report",
            Frame::Reconcile { .. } => "reconcile",
            Frame::Reconciled { .. } => "reconciled",
            Frame::Error { .. } => "error",
            Frame::Goodbye => "goodbye",
        }
    }
}

// ---------------------------------------------------------------------------
// Value / program codec (tagged arrays, same dialect as the WAL).

/// Encodes a [`Value`] as a tagged array.
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
pub fn value_from_json(j: &Json) -> Result<Value, WireError> {
    let bad = |d: &str| WireError::BadFrame(format!("bad value encoding: {d}"));
    let arr = j.as_array().ok_or_else(|| bad("not a tagged array"))?;
    let tag = arr
        .first()
        .and_then(Json::as_str)
        .ok_or_else(|| bad("no string tag"))?;
    let payload = arr.get(1);
    match (tag, payload) {
        ("u", None) => Ok(Value::Unit),
        ("b", Some(p)) => p.as_bool().map(Value::Bool).ok_or_else(|| bad("b")),
        ("i", Some(p)) => p.as_int().map(Value::Int).ok_or_else(|| bad("i")),
        ("s", Some(p)) => p
            .as_str()
            .map(|s| Value::Str(s.to_owned()))
            .ok_or_else(|| bad("s")),
        ("o", Some(p)) => p
            .as_int()
            .and_then(|i| u32::try_from(i).ok())
            .map(|i| Value::Obj(ObjectId(i)))
            .ok_or_else(|| bad("o")),
        ("l", Some(p)) => p
            .as_array()
            .ok_or_else(|| bad("l"))?
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map(Value::list),
        ("m", Some(p)) => p
            .as_object()
            .ok_or_else(|| bad("m"))?
            .iter()
            .map(|(k, v)| value_from_json(v).map(|v| (k.clone(), v)))
            .collect::<Result<Vec<(String, Value)>, _>>()
            .map(Value::map),
        (other, _) => Err(bad(&format!("unknown value tag {other:?}"))),
    }
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
        (Some("c"), Some(v)) => value_from_json(v).map(Expr::Const),
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

/// Encodes a named transaction.
pub fn txn_to_json(t: &TxnSpec) -> Json {
    Json::object([
        ("name", Json::str(t.name.clone())),
        ("body", program_to_json(&t.body)),
    ])
}

/// Decodes a named transaction.
pub fn txn_from_json(j: &Json) -> Result<TxnSpec, WireError> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::BadFrame("transaction needs a name".into()))?;
    let body = program_from_json(
        j.get("body")
            .ok_or_else(|| WireError::BadFrame("transaction needs a body".into()))?,
    )?;
    Ok(TxnSpec {
        name: name.to_owned(),
        body,
    })
}

// ---------------------------------------------------------------------------
// Frame codec.

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

/// Encodes a frame as length-prefixed bytes.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let payload = frame_to_json(f).to_string().into_bytes();
    debug_assert!(payload.len() as u64 <= u64::from(MAX_FRAME_LEN));
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame from the front of `buf`, returning the frame and the
/// number of bytes consumed. Total: every input produces a frame or a
/// typed error.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.is_empty() {
        return Err(WireError::Closed);
    }
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            got: buf.len(),
            want: 4,
        });
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let want = len as usize;
    let rest = &buf[4..];
    if rest.len() < want {
        return Err(WireError::Truncated {
            got: rest.len(),
            want,
        });
    }
    let payload =
        std::str::from_utf8(&rest[..want]).map_err(|e| WireError::BadUtf8(e.to_string()))?;
    let json = Json::parse(payload).map_err(|e| WireError::BadJson(e.render(payload)))?;
    frame_from_json(&json).map(|f| (f, 4 + want))
}

/// Reads exactly `buf.len()` bytes; distinguishes a clean EOF before any
/// byte (`Ok(0)`) from a torn read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(got)
}

/// Reads one frame from a stream. A clean close at a frame boundary is
/// [`WireError::Closed`]; a close inside a frame is a typed
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix)? {
        0 => return Err(WireError::Closed),
        4 => {}
        got => return Err(WireError::Truncated { got, want: 4 }),
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let want = len as usize;
    let mut payload = vec![0u8; want];
    let got = read_full(r, &mut payload)?;
    if got < want {
        return Err(WireError::Truncated { got, want });
    }
    let text = std::str::from_utf8(&payload).map_err(|e| WireError::BadUtf8(e.to_string()))?;
    let json = Json::parse(text).map_err(|e| WireError::BadJson(e.render(text)))?;
    frame_from_json(&json)
}

/// Writes one frame to a stream.
pub fn write_frame(w: &mut impl Write, f: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(f))
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}
