//! Protocol golden tests: every frame round-trips byte-for-bit, and
//! malformed frames — torn at every byte offset, oversized, non-UTF-8,
//! unknown-tagged, corrupted at every byte — produce typed errors, never
//! panics. The torn-tail discipline of the WAL, applied to the socket.

use obase::core::ids::ObjectId;
use obase::core::value::Value;
use obase::exec::codec::{read_value, write_value};
use obase::exec::{Expr, ObjRef, Program};
use obase::serve::wire::{self, decode_frame, encode_frame, read_frame};
use obase::serve::{Frame, RejectReason, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use obase_ser::{Json, Reader, Writer};
use std::time::{Duration, Instant};

/// A transaction body exercising every `Program`, `Expr` and `ObjRef`
/// shape the DSL has.
fn rich_body() -> Program {
    Program::Par(vec![
        Program::Invoke {
            object: ObjRef::Const(ObjectId(3)),
            method: "transfer".into(),
            args: vec![
                Expr::Const(Value::Int(-7)),
                Expr::Const(Value::Str("k1".into())),
            ],
        },
        Program::Seq(vec![
            Program::Invoke {
                object: ObjRef::Param(0),
                method: "audit".into(),
                args: vec![Expr::Param(1)],
            },
            Program::Local {
                op: "Write".into(),
                args: vec![Expr::Const(Value::list([
                    Value::Unit,
                    Value::Bool(true),
                    Value::Obj(ObjectId(9)),
                    Value::map([("x", Value::Int(1))]),
                ]))],
            },
        ]),
    ])
}

/// One of every frame type.
fn all_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            client: "golden".into(),
            protocol: PROTOCOL_VERSION,
        },
        Frame::Welcome {
            server: "obase-serve/test".into(),
            protocol: PROTOCOL_VERSION,
            objects: 12,
        },
        Frame::Submit {
            id: 42,
            name: "txn-0".into(),
            body: rich_body(),
        },
        Frame::Result {
            id: 42,
            committed: true,
            latency_us: 1234,
        },
        Frame::Reject {
            id: 7,
            reason: RejectReason::QueueFull { depth: 256 },
        },
        Frame::Reject {
            id: 8,
            reason: RejectReason::Draining,
        },
        Frame::Reject {
            id: 9,
            reason: RejectReason::Invalid("unknown method \"frob\"".into()),
        },
        Frame::Status,
        Frame::StatusReport {
            body: Json::object([("queue", Json::object([("len", Json::Int(3))]))]),
        },
        Frame::Reconcile {
            config: Json::object([("workers", Json::Int(8))]),
        },
        Frame::Reconciled {
            changed: vec!["workers".into(), "scheduler".into()],
        },
        Frame::Error {
            code: "bad-frame".into(),
            detail: "torn frame: 3 of 9 bytes".into(),
        },
        Frame::Goodbye,
    ]
}

#[test]
fn every_frame_round_trips_byte_for_bit() {
    for frame in all_frames() {
        let bytes = encode_frame(&frame);
        let (back, consumed) = decode_frame(&bytes)
            .unwrap_or_else(|e| panic!("{:?} failed to decode: {e}", frame.tag()));
        assert_eq!(consumed, bytes.len(), "{:?} left bytes behind", frame.tag());
        assert_eq!(back, frame, "{:?} changed in transit", frame.tag());
        // Byte-for-bit: re-encoding the decoded frame reproduces the
        // exact original bytes (the codec prints deterministically).
        assert_eq!(
            encode_frame(&back),
            bytes,
            "{:?} re-encode differs",
            frame.tag()
        );
    }
}

#[test]
fn values_round_trip_through_the_tagged_encoding() {
    let values = [
        Value::Unit,
        Value::Bool(false),
        Value::Int(i64::MIN),
        Value::Str(String::new()),
        Value::Str("nested \"quotes\" and \\ slashes\n".into()),
        Value::Obj(ObjectId(0)),
        Value::list([Value::list([Value::Int(1)]), Value::Unit]),
        Value::map([("a", Value::Map(Default::default())), ("b", Value::Int(2))]),
    ];
    for v in values {
        let mut text = Vec::new();
        write_value(&mut Writer::new(&mut text), &v);
        let text = String::from_utf8(text).expect("the writer writes UTF-8");
        let back = read_value(&mut Reader::new(&text)).expect("round trip");
        assert_eq!(back, v);
    }
}

#[test]
fn torn_frames_fail_typed_at_every_byte_offset() {
    for frame in all_frames() {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err(&format!(
                "{:?} decoded from {cut} of {} bytes",
                frame.tag(),
                bytes.len()
            ));
            match (cut, err) {
                (0, WireError::Closed) => {}
                (c, WireError::Truncated { got, want }) => {
                    if c < 4 {
                        assert_eq!((got, want), (c, 4));
                    } else {
                        assert_eq!((got, want), (c - 4, bytes.len() - 4));
                    }
                }
                (c, other) => panic!("cut at {c}: unexpected error {other:?}"),
            }
        }
    }
}

#[test]
fn torn_frames_fail_typed_on_a_real_stream_too() {
    let bytes = encode_frame(&Frame::Status);
    for cut in 0..bytes.len() {
        let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
        let err = read_frame(&mut cursor).expect_err("torn stream decoded");
        assert!(
            matches!(err, WireError::Closed | WireError::Truncated { .. }),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    let mut cursor = std::io::Cursor::new(bytes.clone());
    assert_eq!(read_frame(&mut cursor).expect("whole frame"), Frame::Status);
}

#[test]
fn oversized_length_prefixes_are_refused_before_allocation() {
    let mut bytes = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
    bytes.extend_from_slice(b"{}");
    match decode_frame(&bytes) {
        Err(WireError::FrameTooLarge { len, max }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // Same through the streaming reader.
    let mut cursor = std::io::Cursor::new(bytes);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::FrameTooLarge { .. })
    ));
}

#[test]
fn non_utf8_payloads_are_typed_errors() {
    let payload = [0xffu8, 0xfe, 0x80];
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    assert!(matches!(decode_frame(&bytes), Err(WireError::BadUtf8(_))));
}

#[test]
fn bad_json_payloads_are_typed_errors() {
    for text in ["{\"t\":", "", "[1,2", "nope", "{\"t\" \"hello\"}"] {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        assert!(
            matches!(decode_frame(&bytes), Err(WireError::BadJson(_))),
            "{text:?} was not BadJson"
        );
    }
}

#[test]
fn unknown_tags_and_malformed_fields_are_typed_errors() {
    let cases = [
        ("{\"t\":\"warble\"}", "unknown tag"),
        ("{\"client\":\"x\"}", "missing tag"),
        ("[]", "not an object"),
        ("{\"t\":\"submit\",\"id\":1}", "submit without body"),
        (
            "{\"t\":\"submit\",\"id\":-3,\"name\":\"x\",\"body\":[\"seq\",[]]}",
            "negative id",
        ),
        (
            "{\"t\":\"result\",\"id\":1,\"latency_us\":2}",
            "result without committed",
        ),
        (
            "{\"t\":\"reject\",\"id\":1,\"reason\":{\"kind\":\"meh\"}}",
            "unknown reject kind",
        ),
        (
            "{\"t\":\"submit\",\"id\":1,\"name\":\"x\",\"body\":[\"invoke\",[\"o\",1],\"m\"]}",
            "invoke without args",
        ),
    ];
    for (text, what) in cases {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        match decode_frame(&bytes) {
            Err(WireError::UnknownTag(_) | WireError::BadFrame(_)) => {}
            other => panic!("{what}: expected a typed decode error, got {other:?}"),
        }
    }
}

/// Flipping any single byte of a valid frame must never panic: the codec
/// either still decodes (a flip inside a string constant, say) or lands
/// in a typed error.
#[test]
fn corrupting_any_single_byte_never_panics() {
    for frame in all_frames() {
        let bytes = encode_frame(&frame);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                // Either verdict is acceptable; reaching the next
                // iteration is the assertion.
                let _ = decode_frame(&corrupt);
            }
        }
    }
}

#[test]
fn program_codec_rejects_unknown_shapes() {
    for text in [
        "[\"goto\",[]]",
        "[\"local\",\"Read\"]",
        "[\"invoke\",[\"q\",1],\"m\",[]]",
        "[\"seq\",3]",
        "[]",
        "7",
    ] {
        Json::parse(text).expect("valid JSON");
        assert!(
            wire::read_program(&mut Reader::new(text)).is_err(),
            "{text:?} decoded as a program"
        );
    }
}

/// A submission whose name fills a whole 4 MiB frame decodes in linear
/// time, from a slice and from a stream.
#[test]
fn a_frame_of_the_maximum_size_decodes_in_linear_time() {
    let submit = |name: String| Frame::Submit {
        id: 1,
        name,
        body: Program::Seq(vec![]),
    };
    let overhead = encode_frame(&submit(String::new())).len() - 4;
    let name = "n".repeat(MAX_FRAME_LEN as usize - overhead);
    let bytes = encode_frame(&submit(name.clone()));
    assert_eq!(bytes.len(), 4 + MAX_FRAME_LEN as usize);
    let t0 = Instant::now();
    let (decoded, used) = decode_frame(&bytes).expect("a full-size frame");
    let decode = t0.elapsed();
    let t1 = Instant::now();
    let read = read_frame(&mut std::io::Cursor::new(&bytes)).expect("a full-size frame");
    let stream = t1.elapsed();
    assert_eq!(used, bytes.len());
    assert_eq!(decoded, submit(name));
    assert_eq!(read, decoded);
    let limit = Duration::from_secs(1);
    assert!(
        decode < limit && stream < limit,
        "decode_frame took {decode:?} and read_frame {stream:?}"
    );
}
