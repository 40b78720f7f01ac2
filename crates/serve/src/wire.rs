//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every frame is `[len: u32 big-endian][len bytes of JSON]`. The JSON
//! dialect is `obase-ser` (deterministic printing, no external crates);
//! dynamic [`Value`](obase_core::value::Value)s ride in the tagged-array
//! encoding the WAL uses too ([`obase_exec::codec`]: `["i", 5]`,
//! `["l", [...]]`), so a wire capture is readable with the same eyes as a
//! log dump.
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
use obase_exec::codec::{read_value, write_value};
use obase_exec::{Expr, ObjRef, Program};
use obase_ser::{Json, ParseError, Reader, Writer};
use std::cell::RefCell;
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
// Program codec (tagged arrays; values in the shared `obase_exec::codec`).

fn write_args(w: &mut Writer<'_>, args: &[Expr]) {
    w.array();
    for arg in args {
        w.array();
        match arg {
            Expr::Const(v) => write_value(w.str("c"), v),
            Expr::Param(i) => {
                w.str("p").int(*i as i64);
            }
        }
        w.end_array();
    }
    w.end_array();
}

/// Reads `[konst, payload]` with `read`, or `["p", n]` as parameter `n`.
fn read_operand<'a, T>(
    r: &mut Reader<'a>,
    konst: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, ParseError>,
    param: fn(usize) -> T,
) -> Result<T, ParseError> {
    let tag = r.tagged()?;
    r.need_item("an operand needs a payload")?;
    let operand = match &*tag {
        "p" => param(r.int_as()?),
        tag if tag == konst => read(r)?,
        _ => return Err(r.error(format!("expected [{konst:?}, ...] or [\"p\", n]"))),
    };
    r.rest()?;
    Ok(operand)
}

fn read_expr(r: &mut Reader<'_>) -> Result<Expr, ParseError> {
    read_operand(r, "c", |r| read_value(r).map(Expr::Const), Expr::Param)
}

/// Writes a transaction [`Program`] in the scenario-DSL shape: tagged
/// arrays `["local", op, args]`, `["invoke", obj, method, args]`,
/// `["seq", [...]]`, `["par", [...]]`.
fn write_program(w: &mut Writer<'_>, p: &Program) {
    w.array();
    match p {
        Program::Local { op, args } => write_args(w.str("local").str(op), args),
        Program::Invoke {
            object,
            method,
            args,
        } => {
            w.str("invoke").array();
            match object {
                ObjRef::Const(id) => w.str("o").int(i64::from(id.0)),
                ObjRef::Param(i) => w.str("p").int(*i as i64),
            };
            write_args(w.end_array().str(method), args);
        }
        Program::Seq(ps) | Program::Par(ps) => {
            w.str(if matches!(p, Program::Seq(_)) {
                "seq"
            } else {
                "par"
            });
            w.array();
            for p in ps {
                write_program(w, p);
            }
            w.end_array();
        }
    }
    w.end_array();
}

/// Reads a [`Program`] from its tagged-array encoding. Items past the ones
/// a shape needs are skipped.
pub fn read_program(r: &mut Reader<'_>) -> Result<Program, ParseError> {
    let tag = r.tagged()?;
    let program = match &*tag {
        "local" => {
            r.need_item("local needs an op name")?;
            let op = r.string_owned()?;
            r.need_item("local needs args")?;
            let args = r.list(read_expr)?;
            Program::Local { op, args }
        }
        "invoke" => {
            r.need_item("invoke needs a target")?;
            let object = read_operand(
                r,
                "o",
                |r| r.int_as().map(|i| ObjRef::Const(ObjectId(i))),
                ObjRef::Param,
            )?;
            r.need_item("invoke needs a method name")?;
            let method = r.string_owned()?;
            r.need_item("invoke needs args")?;
            let args = r.list(read_expr)?;
            Program::Invoke {
                object,
                method,
                args,
            }
        }
        "seq" | "par" => {
            r.need_item("a block needs its programs")?;
            let block = r.list(read_program)?;
            if tag == "seq" {
                Program::Seq(block)
            } else {
                Program::Par(block)
            }
        }
        other => return Err(r.error(format!("unknown program tag {other:?}"))),
    };
    r.rest()?;
    Ok(program)
}

// ---------------------------------------------------------------------------
// Frame codec.

/// Appends `f` to `out` as a length-prefixed frame: the JSON document's
/// keys in sorted order, `"t"` last.
fn encode_frame_into(f: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let w = &mut Writer::new(out);
    w.object();
    match f {
        Frame::Hello { client, protocol } => {
            w.key("client").str(client).key("protocol").int(*protocol);
        }
        Frame::Welcome {
            server,
            protocol,
            objects,
        } => {
            w.key("objects").int(*objects as i64);
            w.key("protocol").int(*protocol).key("server").str(server);
        }
        Frame::Submit { id, name, body } => {
            write_program(w.key("body"), body);
            w.key("id").int(*id as i64).key("name").str(name);
        }
        Frame::Result {
            id,
            committed,
            latency_us,
        } => {
            w.key("committed")
                .bool(*committed)
                .key("id")
                .int(*id as i64);
            w.key("latency_us").int(*latency_us as i64);
        }
        Frame::Reject { id, reason } => {
            w.key("id").int(*id as i64).key("reason").object();
            match reason {
                RejectReason::QueueFull { depth } => w.key("depth").int(*depth as i64),
                RejectReason::Invalid(detail) => w.key("detail").str(detail),
                RejectReason::Draining => w,
            };
            w.key("kind").str(reason.key()).end_object();
        }
        Frame::Status | Frame::Goodbye => {}
        Frame::StatusReport { body } => {
            w.key("body").json(body);
        }
        Frame::Reconcile { config } => {
            w.key("config").json(config);
        }
        Frame::Reconciled { changed } => {
            w.key("changed").array();
            for c in changed {
                w.str(c);
            }
            w.end_array();
        }
        Frame::Error { code, detail } => {
            w.key("code").str(code).key("detail").str(detail);
        }
    }
    w.key("t").str(f.tag()).end_object();
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len <= MAX_FRAME_LEN);
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Every top-level key a frame has.
const FIELDS: [&str; 15] = [
    "t",
    "id",
    "name",
    "body",
    "committed",
    "latency_us",
    "client",
    "protocol",
    "server",
    "objects",
    "reason",
    "config",
    "changed",
    "code",
    "detail",
];

fn read_reject(r: &mut Reader<'_>) -> Result<RejectReason, ParseError> {
    let [kind, depth, detail] = r.fields(&["kind", "depth", "detail"])?;
    let kind = kind.ok_or_else(|| r.error("missing kind"))?;
    match &*r.at(kind).str()? {
        "queue_full" => Ok(RejectReason::QueueFull {
            depth: r
                .at(depth.ok_or_else(|| r.error("queue_full needs a depth"))?)
                .int_as()?,
        }),
        "draining" => Ok(RejectReason::Draining),
        "invalid" => Ok(RejectReason::Invalid(
            detail
                .and_then(|d| r.at(d).string_owned().ok())
                .unwrap_or_default(),
        )),
        other => Err(r.error(format!("unknown kind {other:?}"))),
    }
}

/// Decodes a frame's JSON document in two passes. The first validates the
/// whole document and finds where each top-level key's value starts (the
/// last occurrence's, for a duplicate key) without allocating; the second
/// reads the tag, then the tag's fields at their offsets. So a payload that
/// is not JSON is [`WireError::BadJson`] whatever its shape, and keys come
/// in any order although `"t"` prints last.
fn decode_payload(text: &str) -> Result<Frame, WireError> {
    let bad_json = |e: ParseError| WireError::BadJson(e.render(text));
    let mut r = Reader::new(text);
    if r.peek() != Some(b'{') {
        r.skip().and_then(|()| r.end()).map_err(bad_json)?;
        return Err(WireError::BadFrame("frame is not a JSON object".into()));
    }
    let at = r.fields(&FIELDS).map_err(bad_json)?;
    r.end().map_err(bad_json)?;
    let [t, id, name, body, committed, latency_us, client, protocol, server, objects, reason, config, changed, code, detail] =
        at;
    let tag = t
        .and_then(|p| r.at(p).str().ok())
        .ok_or_else(|| WireError::BadFrame("frame has no \"t\" tag".into()))?;
    let doc = Doc { r, tag: &tag };
    Ok(match &*tag {
        "hello" => Frame::Hello {
            client: doc.get("client", client, Reader::string_owned)?,
            protocol: doc.get("protocol", protocol, Reader::int)?,
        },
        "welcome" => Frame::Welcome {
            server: doc.get("server", server, Reader::string_owned)?,
            protocol: doc.get("protocol", protocol, Reader::int)?,
            objects: doc.get("objects", objects, Reader::int_as)?,
        },
        "submit" => Frame::Submit {
            id: doc.get("id", id, Reader::int_as)?,
            name: doc.get("name", name, Reader::string_owned)?,
            body: doc.get("body", body, read_program)?,
        },
        "result" => Frame::Result {
            id: doc.get("id", id, Reader::int_as)?,
            committed: doc.get("committed", committed, Reader::bool)?,
            latency_us: doc.get("latency_us", latency_us, Reader::int_as)?,
        },
        "reject" => Frame::Reject {
            id: doc.get("id", id, Reader::int_as)?,
            reason: doc.get("reason", reason, read_reject)?,
        },
        "status" => Frame::Status,
        "status_report" => Frame::StatusReport {
            body: doc.get("body", body, Reader::json)?,
        },
        "reconcile" => Frame::Reconcile {
            config: doc.get("config", config, Reader::json)?,
        },
        "reconciled" => Frame::Reconciled {
            changed: doc.get("changed", changed, |r| r.list(Reader::string_owned))?,
        },
        "error" => Frame::Error {
            code: doc.get("code", code, Reader::string_owned)?,
            detail: doc.get("detail", detail, Reader::string_owned)?,
        },
        "goodbye" => Frame::Goodbye,
        other => return Err(WireError::UnknownTag(other.to_owned())),
    })
}

/// A frame's document after the first pass, and its tag.
struct Doc<'a, 't> {
    r: Reader<'a>,
    tag: &'t str,
}

impl<'a> Doc<'a, '_> {
    /// Reads the field `key`, whose value the first pass found `at`.
    fn get<T>(
        &self,
        key: &str,
        at: Option<usize>,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, ParseError>,
    ) -> Result<T, WireError> {
        let tag = self.tag;
        let at = at.ok_or_else(|| WireError::BadFrame(format!("{tag} needs {key:?}")))?;
        read(&mut self.r.at(at)).map_err(|e| {
            WireError::BadFrame(format!(
                "{tag}: bad {key:?} at byte {}: {}",
                e.offset, e.message
            ))
        })
    }
}

/// Keeps a thread's frame buffer for reuse up to this capacity.
const SCRATCH_KEEP: usize = 64 << 10;

thread_local! {
    /// The thread's frame buffer: frames are encoded into it and payloads
    /// read into it, so that neither allocates once it is warm.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's empty frame buffer.
fn with_scratch<T>(f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    SCRATCH.with(|cell| {
        let mut buf = cell.take();
        buf.clear();
        let out = f(&mut buf);
        if buf.capacity() <= SCRATCH_KEEP {
            cell.replace(buf);
        }
        out
    })
}

/// Encodes a frame as length-prefixed bytes.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    with_scratch(|buf| {
        encode_frame_into(f, buf);
        buf.to_vec()
    })
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
    decode_payload(utf8(&rest[..want])?).map(|f| (f, 4 + want))
}

fn utf8(payload: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(payload).map_err(|e| WireError::BadUtf8(e.to_string()))
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
/// [`WireError::Truncated`]. The payload is read once, into the thread's
/// frame buffer, and decoded where it lies.
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
    with_scratch(|payload| {
        payload.resize(want, 0);
        let got = read_full(r, payload)?;
        if got < want {
            return Err(WireError::Truncated { got, want });
        }
        decode_payload(utf8(payload)?)
    })
}

/// Writes one frame to a stream.
pub fn write_frame(w: &mut impl Write, f: &Frame) -> Result<(), WireError> {
    write_frames(w, [f])
}

/// Writes frames to a stream, in order, with one `write_all`.
pub fn write_frames<'f>(
    w: &mut impl Write,
    frames: impl IntoIterator<Item = &'f Frame>,
) -> Result<(), WireError> {
    with_scratch(|buf| {
        for f in frames {
            encode_frame_into(f, buf);
        }
        w.write_all(buf).and_then(|()| w.flush())
    })
    .map_err(|e| WireError::Io(e.to_string()))
}
