//! Differential test of the direct typed codecs against the tree codecs
//! they replaced (`codec_reference`).
//!
//! Seeded generators build wire frames of every variant and write-ahead log
//! records of every kind, over programs and values with escapes, control
//! characters, non-ASCII text, `i64::MIN`/`MAX`, empty strings and nested
//! lists and maps. Every one must encode to the reference's exact bytes.
//! Then each encoding is mutated: every truncation, every single-byte flip,
//! and rewrites with shuffled keys, duplicated keys with other values, added
//! whitespace, unknown keys and extra array elements. On every mutant the
//! decoders must reach the reference's verdict: an equal frame or record,
//! or the same `WireError` variant (for a record, an error).

mod codec_reference;

use codec_reference as reference;
use obase::core::ids::{ExecId, ObjectId, StepId};
use obase::core::op::Operation;
use obase::core::value::Value;
use obase::exec::{Expr, ObjRef, Program};
use obase::serve::wire::{decode_frame, encode_frame};
use obase::serve::{Frame, RejectReason, PROTOCOL_VERSION};
use obase::wal::WalRecord;
use obase_rng::{ChaCha8Rng, Rng, SeedableRng, SliceRandom};
use obase_ser::Json;
use std::mem::discriminant;

type R = ChaCha8Rng;

const CHARS: &[char] = &[
    'a',
    'k',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '✓',
    '\u{1F600}',
];

fn pick<T: Clone>(rng: &mut R, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn text(rng: &mut R) -> String {
    (0..rng.gen_range(0..5usize))
        .map(|_| pick(rng, CHARS))
        .collect()
}

fn int(rng: &mut R) -> i64 {
    match rng.gen_range(0..3u32) {
        0 => pick(rng, &[i64::MIN, i64::MAX, 0, -1]),
        1 => rng.gen_range(-1000..1000i64),
        _ => rng.next_u64() as i64,
    }
}

fn id(rng: &mut R) -> u32 {
    pick(rng, &[0, 1, 7, u32::MAX])
}

fn value(rng: &mut R, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7u32 }) {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(int(rng)),
        3 => Value::Str(text(rng)),
        4 => Value::Obj(ObjectId(id(rng))),
        5 => Value::list((0..rng.gen_range(0..4usize)).map(|_| value(rng, depth - 1))),
        _ => Value::map((0..rng.gen_range(0..4usize)).map(|_| (text(rng), value(rng, depth - 1)))),
    }
}

fn json(rng: &mut R, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(int(rng)),
        3 => Json::Float(pick(rng, &[0.5, -2.0, 3.25e-7])),
        4 => Json::Str(text(rng)),
        5 => Json::Array(
            (0..rng.gen_range(0..3usize))
                .map(|_| json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..3usize))
                .map(|_| (text(rng), json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn args(rng: &mut R) -> Vec<Expr> {
    (0..rng.gen_range(0..3usize))
        .map(|_| match rng.gen_bool(0.7) {
            true => Expr::Const(value(rng, 2)),
            false => Expr::Param(rng.gen_range(0..4usize)),
        })
        .collect()
}

fn program(rng: &mut R, depth: usize) -> Program {
    match rng.gen_range(0..if depth == 0 { 2 } else { 4u32 }) {
        0 => Program::Local {
            op: text(rng),
            args: args(rng),
        },
        1 => Program::Invoke {
            object: match rng.gen_bool(0.7) {
                true => ObjRef::Const(ObjectId(id(rng))),
                false => ObjRef::Param(rng.gen_range(0..4usize)),
            },
            method: text(rng),
            args: args(rng),
        },
        2 => Program::Seq(
            (0..rng.gen_range(0..3usize))
                .map(|_| program(rng, depth - 1))
                .collect(),
        ),
        _ => Program::Par(
            (0..rng.gen_range(0..3usize))
                .map(|_| program(rng, depth - 1))
                .collect(),
        ),
    }
}

/// Ids beyond `i64::MAX` print negative and decode as errors, in both.
fn wire_id(rng: &mut R) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => u64::MAX,
        _ => rng.gen_range(0..1_000_000u64),
    }
}

fn frame(rng: &mut R, variant: usize) -> Frame {
    match variant {
        0 => Frame::Hello {
            client: text(rng),
            protocol: match rng.gen_bool(0.5) {
                true => PROTOCOL_VERSION,
                false => int(rng),
            },
        },
        1 => Frame::Welcome {
            server: text(rng),
            protocol: PROTOCOL_VERSION,
            objects: rng.gen_range(0..5000usize),
        },
        2 => Frame::Submit {
            id: wire_id(rng),
            name: text(rng),
            body: program(rng, 3),
        },
        3 => Frame::Result {
            id: wire_id(rng),
            committed: rng.gen_bool(0.5),
            latency_us: wire_id(rng),
        },
        4 => Frame::Reject {
            id: wire_id(rng),
            reason: match rng.gen_range(0..3u32) {
                0 => RejectReason::QueueFull {
                    depth: rng.gen_range(0..512usize),
                },
                1 => RejectReason::Draining,
                _ => RejectReason::Invalid(text(rng)),
            },
        },
        5 => Frame::Status,
        6 => Frame::StatusReport { body: json(rng, 3) },
        7 => Frame::Reconcile {
            config: json(rng, 3),
        },
        8 => Frame::Reconciled {
            changed: (0..rng.gen_range(0..3usize)).map(|_| text(rng)).collect(),
        },
        9 => Frame::Error {
            code: text(rng),
            detail: text(rng),
        },
        _ => Frame::Goodbye,
    }
}

fn op(rng: &mut R) -> Operation {
    Operation::new(
        text(rng),
        (0..rng.gen_range(0..3usize)).map(|_| value(rng, 2)),
    )
}

fn record(rng: &mut R, kind: usize) -> WalRecord {
    let step = StepId(id(rng));
    let exec = ExecId(id(rng));
    match kind {
        0 => WalRecord::Header {
            version: int(rng),
            objects: (0..rng.gen_range(0..3usize)).map(|_| text(rng)).collect(),
        },
        1 => WalRecord::BeginTop {
            exec,
            name: text(rng),
        },
        2 => WalRecord::Invoke {
            step,
            parent: exec,
            child: ExecId(id(rng)),
            target: ObjectId(id(rng)),
            method: text(rng),
            args: (0..rng.gen_range(0..3usize))
                .map(|_| value(rng, 2))
                .collect(),
        },
        3 => WalRecord::Local {
            step,
            exec,
            op: op(rng),
            ret: value(rng, 2),
        },
        4 => WalRecord::ProgramOrder {
            exec,
            a: step,
            b: StepId(id(rng)),
        },
        5 => WalRecord::Complete {
            step,
            ret: value(rng, 2),
        },
        6 => WalRecord::Abort { exec },
        _ => WalRecord::CommitTop { exec },
    }
}

/// `j` printed loosely: whitespace, escapes, shuffled keys, each key perhaps
/// repeated with another value before or after it, unknown keys, and extra
/// array items.
fn loose(rng: &mut R, j: &Json, out: &mut String) {
    let ws = |rng: &mut R, out: &mut String| {
        if rng.gen_bool(0.2) {
            out.push_str(pick(rng, &[" ", "\n", "\t ", "\r\n"]));
        }
    };
    ws(rng, out);
    match j {
        Json::Str(s) if rng.gen_bool(0.3) => {
            out.push('"');
            for c in s.chars() {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{u:04x}"));
                }
            }
            out.push('"');
        }
        Json::Array(items) => {
            let extra = rng.gen_bool(0.1).then(|| json(rng, 1));
            out.push('[');
            for (i, item) in items.iter().chain(extra.as_ref()).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                loose(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Object(map) => {
            let mut members: Vec<(String, Json)> = Vec::new();
            for (k, v) in map {
                if rng.gen_bool(0.15) {
                    members.push((k.clone(), json(rng, 1)));
                }
                members.push((k.clone(), v.clone()));
                if rng.gen_bool(0.05) {
                    members.push((k.clone(), json(rng, 1)));
                }
            }
            if rng.gen_bool(0.2) {
                members.push(("zz-unknown".into(), json(rng, 2)));
            }
            // Shuffle, but keep each key's members in their order.
            let mut keys: Vec<&String> = map.keys().collect();
            keys.shuffle(rng);
            members.sort_by_key(|(k, _)| keys.iter().position(|key| *key == k));
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                loose(rng, &Json::Str(k.clone()), out);
                out.push(':');
                loose(rng, v, out);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
    ws(rng, out);
}

/// Every mutant of `payload`: each truncation, each single-byte flip, and
/// `rewrites` loose rewrites.
fn mutants(rng: &mut R, payload: &[u8], rewrites: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..payload.len())
        .map(|cut| payload[..cut].to_vec())
        .collect();
    for i in 0..payload.len() {
        for flip in [0x01u8, 0x20, 0x80] {
            let mut bytes = payload.to_vec();
            bytes[i] ^= flip;
            out.push(bytes);
        }
    }
    let tree = Json::parse(std::str::from_utf8(payload).expect("UTF-8")).expect("JSON");
    for _ in 0..rewrites {
        let mut text = String::new();
        loose(rng, &tree, &mut text);
        out.push(text.into_bytes());
    }
    out
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

fn same_frame_verdict(bytes: &[u8]) {
    let ours = decode_frame(&framed(bytes)).map(|(f, _)| f);
    let theirs = reference::decode_payload(bytes);
    let agree = match (&ours, &theirs) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => discriminant(a) == discriminant(b),
        _ => false,
    };
    assert!(
        agree,
        "on {:?}: decoded {ours:?}, the reference {theirs:?}",
        String::from_utf8_lossy(bytes)
    );
}

fn same_record_verdict(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes);
    let ours = text
        .map_err(drop)
        .and_then(|t| WalRecord::decode(t).map_err(drop));
    let theirs = text
        .map_err(drop)
        .and_then(|t| Json::parse(t).map_err(drop))
        .and_then(|j| reference::record_from_json(&j).map_err(drop));
    assert_eq!(ours, theirs, "on {:?}", String::from_utf8_lossy(bytes));
}

#[test]
fn direct_codecs_match_the_tree_codecs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b45e);
    for round in 0..8 {
        for variant in 0..11 {
            let f = frame(&mut rng, variant);
            let bytes = encode_frame(&f);
            assert_eq!(bytes, reference::encode_frame(&f), "{f:?}");
            same_frame_verdict(&bytes[4..]);
            if let Ok(decoded) = decode_frame(&bytes) {
                assert_eq!(decoded, (f.clone(), bytes.len()));
            }
            // Mutate every variant in the first round, then a few.
            let rewrites = if round == 0 { 40 } else { 4 };
            if round == 0 || variant % 4 == round % 4 {
                for mutant in mutants(&mut rng, &bytes[4..], rewrites) {
                    same_frame_verdict(&mutant);
                }
            }
        }
        for kind in 0..8 {
            let rec = record(&mut rng, kind);
            let mut bytes = Vec::new();
            rec.encode(&mut bytes);
            assert_eq!(
                String::from_utf8(bytes.clone()).expect("UTF-8"),
                reference::record_to_json(&rec).to_string()
            );
            let text = std::str::from_utf8(&bytes).expect("UTF-8");
            assert_eq!(WalRecord::decode(text).as_ref(), Ok(&rec));
            if round == 0 || kind % 4 == round % 4 {
                for mutant in mutants(&mut rng, &bytes, if round == 0 { 40 } else { 4 }) {
                    same_record_verdict(&mutant);
                }
            }
        }
    }
}

/// Hand-written cases the generators reach rarely or never.
#[test]
fn edge_cases_match_the_tree_codecs() {
    for text in [
        r#"{"t":"result","id":1,"committed":true,"latency_us":2,"id":-1}"#,
        r#"{"t":"result","id":-1,"committed":true,"latency_us":2,"id":1}"#,
        r#"{"t":"goodbye","t":"warble"}"#,
        r#"{"t":"warble","t":"goodbye"}"#,
        r#"{"t":"status"}"#,
        r#"{"t":"reject","id":1,"reason":{"kind":"invalid","detail":5}}"#,
        r#"{"t":"reject","id":1,"reason":{"kind":"queue_full","depth":1.0}}"#,
        r#"{"t":"reject","id":1,"reason":[]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["seq",[],7]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["local","Op",[["c",["u"]]]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["local","Op",[["c",["u",1]]]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["local","Op",[["c",["m",{"a":["zz"],"a":["i",1]}]]]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["local","Op",[["c",["m",{"a":["i",1],"a":["zz"]}]]]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["invoke",["o",4294967296],"m",[]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["invoke",["p",-1],"m",[]]}"#,
        r#"{"t":"submit","id":1,"name":"x","body":["local","Op",[["c",["i",1.5]]]]}"#,
        r#"{"t":"welcome","server":"s","protocol":1,"objects":-1}"#,
        r#"{"t":"reconciled","changed":["a",1]}"#,
        r#"{"t":"status_report"}"#,
        r#"{"t":5}"#,
        r#"[{"t":"status"}]"#,
        r#"{"t":"status"} x"#,
        r#"{"t":"status","n":99999999999999999999}"#,
    ] {
        same_frame_verdict(text.as_bytes());
    }
    for text in [
        r#"{"t":"R","s":0,"e":0,"op":{"a":[],"n":"R"},"r":["u"],"an":-1}"#,
        r#"{"t":"R","s":0,"e":0,"op":{"a":[],"n":"R","n":"Q"},"r":["u"]}"#,
        r#"{"t":"B","e":0,"n":"T","e":1}"#,
        r#"{"t":"H","v":1,"objects":["a",["b"]]}"#,
        r#"{"t":"P","e":0,"a":0}"#,
    ] {
        same_record_verdict(text.as_bytes());
    }
}
