//! The tagged-array JSON encoding of [`Value`] (`["i", 5]`, `["l", [...]]`,
//! `["m", {...}]`), shared by the write-ahead log and the wire protocol.
//! Decoding is total: a malformed value is an error, never a panic.

use obase_core::ids::ObjectId;
use obase_core::value::Value;
use obase_ser::Json;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let text = value_to_json(&v).to_string();
        assert_eq!(
            text,
            r#"["m",{"a":["m",{"x":["b",true],"y":["l",[["s","s"],["u"]]]}],"b":["i",2],"k\"q":["o",3]}]"#
        );
        let back = value_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v);
        assert_eq!(value_to_json(&back).to_string(), text);
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
        let text = value_to_json(&forward).to_string();
        assert_eq!(value_to_json(&backward).to_string(), text);
        assert_eq!(value_to_json(&shuffled).to_string(), text);
        assert_eq!(
            value_from_json(&Json::parse(&text).unwrap()).unwrap(),
            forward
        );
    }
}
