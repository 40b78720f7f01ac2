//! The tagged-array JSON encoding of [`Value`] (`["i", 5]`, `["l", [...]]`,
//! `["m", {...}]`), shared by the write-ahead log and the wire protocol. It
//! writes and reads the text directly through `obase-ser`'s [`Writer`] and
//! [`Reader`]. Decoding is total: a malformed value is an error, never a
//! panic.

use obase_core::ids::ObjectId;
use obase_core::value::Value;
use obase_ser::{ParseError, Reader, Writer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Writes a [`Value`] as a tagged JSON array, map keys in sorted order.
pub fn write_value(w: &mut Writer<'_>, v: &Value) {
    w.array();
    match v {
        Value::Unit => w.str("u"),
        Value::Bool(b) => w.str("b").bool(*b),
        Value::Int(i) => w.str("i").int(*i),
        Value::Str(s) => w.str("s").str(s),
        Value::Obj(o) => w.str("o").int(i64::from(o.0)),
        Value::List(items) => {
            w.str("l").array();
            for item in items.iter() {
                write_value(w, item);
            }
            w.end_array()
        }
        Value::Map(map) => {
            w.str("m").object();
            for (k, v) in map.iter() {
                w.key(k);
                write_value(w, v);
            }
            w.end_object()
        }
    };
    w.end_array();
}

/// Reads a [`Value`] from its tagged-array encoding. Items past a value's
/// payload are skipped; of duplicate map keys, the last one wins.
///
/// A value of the wrong shape still leaves the reader past it, so that a
/// map can read on to a later duplicate of the key. Only a payload that is
/// not a list or map is scanned again for that, so a failure deep inside
/// nested lists and maps costs no more than reading them. The text must be
/// JSON, as the wire and log decoders check before they read a value.
pub fn read_value(r: &mut Reader<'_>) -> Result<Value, ParseError> {
    r.peek();
    let start = r.pos();
    let tag = match r.tagged() {
        Ok(tag) => tag,
        Err(e) => return skipped(r, start, e),
    };
    if !r.item()? {
        return match &*tag {
            "u" => Ok(Value::Unit),
            _ => Err(r.error(format!("the {tag:?} value has no payload"))),
        };
    }
    let payload = r.pos();
    let nested = matches!((&*tag, r.peek()), ("l", Some(b'[')) | ("m", Some(b'{')));
    let value = match &*tag {
        "b" => r.bool().map(Value::Bool),
        "i" => r.int().map(Value::Int),
        "s" => r.string_owned().map(Value::Str),
        "o" => r.int_as().map(|o| Value::Obj(ObjectId(o))),
        "l" if nested => read_list(r),
        "m" if nested => read_map(r),
        "l" => Err(r.error("expected a list")),
        "m" => Err(r.error("expected a map")),
        _ => Err(r.error(format!("unknown value tag {tag:?}"))),
    };
    let value = match value {
        Err(e) if !nested => skipped(r, payload, e),
        value => value,
    };
    r.rest()?;
    value
}

/// `error`, once the reader has skipped the value that starts at `start`.
fn skipped<T>(r: &mut Reader<'_>, start: usize, error: ParseError) -> Result<T, ParseError> {
    *r = r.at(start);
    r.skip()?;
    Err(error)
}

/// A list's items, read to its end even past an item that fails.
fn read_list(r: &mut Reader<'_>) -> Result<Value, ParseError> {
    let mut items = Vec::new();
    let mut failed = None;
    r.array()?;
    while r.item()? {
        match read_value(r) {
            Ok(v) => items.push(v),
            Err(e) => {
                failed.get_or_insert(e);
            }
        }
    }
    failed.map_or_else(|| Ok(Value::List(Arc::new(items))), Err)
}

/// A map's entries, read to its end. A value that fails to decode fails
/// the map only if no later duplicate of its key replaces it.
fn read_map(r: &mut Reader<'_>) -> Result<Value, ParseError> {
    let mut entries = Vec::new();
    let mut failed = BTreeMap::new();
    r.object()?;
    while let Some(key) = r.key()? {
        failed.remove(&*key);
        match read_value(r) {
            Ok(v) => entries.push((key.into_owned(), v)),
            Err(e) => {
                failed.insert(key.into_owned(), e);
            }
        }
    }
    match failed.into_values().next() {
        Some(e) => Err(e),
        None => Ok(Value::Map(entries.into_iter().collect())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(v: &Value) -> String {
        let mut out = Vec::new();
        write_value(&mut Writer::new(&mut out), v);
        String::from_utf8(out).expect("the writer writes UTF-8")
    }

    fn decode(text: &str) -> Result<Value, ParseError> {
        read_value(&mut Reader::new(text))
    }

    #[test]
    fn map_encoding_is_golden_and_round_trips() {
        let v = Value::map([
            ("b", Value::Int(2)),
            (
                "a",
                Value::map([
                    ("y", Value::list([Value::from("s"), Value::Unit])),
                    ("x", Value::Bool(true)),
                ]),
            ),
            ("k\"q", Value::Obj(ObjectId(3))),
        ]);
        let text = encode(&v);
        assert_eq!(
            text,
            r#"["m",{"a":["m",{"x":["b",true],"y":["l",[["s","s"],["u"]]]}],"b":["i",2],"k\"q":["o",3]}]"#
        );
        let back = decode(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn insertion_order_does_not_reach_the_bytes() {
        let entries: Vec<(String, Value)> = (0..300)
            .map(|k| (format!("key{k}"), Value::Int(k * 7 % 11)))
            .collect();
        let forward = Value::map(entries.iter().cloned());
        let backward = Value::map(entries.iter().rev().cloned());
        // Every third key first, then the rest: a different tree shape.
        let shuffled = Value::map(
            entries
                .iter()
                .step_by(3)
                .chain(
                    entries
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 3 != 0)
                        .map(|(_, e)| e),
                )
                .cloned(),
        );
        let text = encode(&forward);
        assert_eq!(encode(&backward), text);
        assert_eq!(encode(&shuffled), text);
        assert_eq!(decode(&text).unwrap(), forward);
    }

    #[test]
    fn the_last_duplicate_key_wins_even_over_a_malformed_one() {
        let text = r#"["m",{"a":["zz"],"b":["i",1],"a":["s","x"]}]"#;
        assert_eq!(
            decode(text).unwrap(),
            Value::map([("a", Value::from("x")), ("b", Value::Int(1))])
        );
        assert!(decode(r#"["m",{"a":["s","x"],"a":["zz"]}]"#).is_err());
        // A payload's trailing items are skipped; a unit has none.
        assert_eq!(decode(r#"["i",5,{"x":[]}]"#).unwrap(), Value::Int(5));
        assert!(decode(r#"["u",1]"#).is_err());
    }

    /// A failure deep inside nested maps, or in many keys of one map, costs
    /// about what reading the value does: no map scans a failed value again.
    #[test]
    fn failing_nested_and_wide_maps_read_in_linear_time() {
        let deep = r#"["m",{"a":"#.repeat(5_000) + r#"["zz"]"# + &"}]".repeat(5_000);
        let keys: Vec<String> = (0..20_000).map(|i| format!(r#""k{i}":["zz"]"#)).collect();
        let wide = format!(r#"["m",{{{}}}]"#, keys.join(","));
        // The readers recurse once per level: give the deep value room.
        let reading = std::thread::Builder::new().stack_size(256 << 20);
        let timed = reading.spawn(move || {
            [deep, wide].map(|text| {
                let t0 = std::time::Instant::now();
                assert!(decode(&text).is_err());
                t0.elapsed()
            })
        });
        let [deep, wide] = timed.expect("a thread").join().expect("no panic");
        let limit = std::time::Duration::from_secs(1);
        assert!(deep < limit && wide < limit, "deep {deep:?}, wide {wide:?}");
    }
}
