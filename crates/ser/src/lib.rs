//! # obase-ser — a minimal JSON value, reader and writer
//!
//! The runtime facade treats scheduler configurations as *data*: a
//! [`SchedulerSpec`](https://docs.rs/obase-runtime) can be rendered to JSON,
//! stored, diffed and parsed back. This crate supplies the tiny JSON kernel
//! that makes that possible without external dependencies: a pull
//! [`Reader`] over JSON text, a [`Writer`] that appends JSON text to a byte
//! buffer, and a [`Json`] value type whose parser and printer are built on
//! the two. Typed codecs (the wire protocol, the write-ahead log) use the
//! reader and writer directly and build no [`Json`] tree on the way.
//!
//! The subset is deliberately small but complete for the workspace's needs:
//! objects, arrays, strings (with `\uXXXX` escapes), integers, floats,
//! booleans and null. Reading and writing are linear in the text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

mod read;
#[cfg(test)]
mod reference;
mod write;

pub use read::Reader;
pub use write::Writer;

/// A JSON value.
///
/// Numbers are split into integers and floats so that identifiers and
/// counters round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys (deterministic output).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers widen), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Parses a JSON document. Of duplicate keys in an object, the last
    /// one wins.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut reader = Reader::new(input);
        let value = reader.json()?;
        reader.end()?;
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        Writer::new(&mut out).json(self);
        f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// The 1-based line and column of the failure offset within `input`.
    ///
    /// The column counts bytes from the start of the line, which matches how
    /// editors address ASCII-dominated JSON; an offset past the end of the
    /// input (end-of-document errors) reports the position just after the
    /// last byte.
    pub fn line_col(&self, input: &str) -> (usize, usize) {
        let upto = &input.as_bytes()[..self.offset.min(input.len())];
        let line = upto.iter().filter(|b| **b == b'\n').count() + 1;
        let col = upto.len() - upto.iter().rposition(|b| *b == b'\n').map_or(0, |p| p + 1) + 1;
        (line, col)
    }

    /// Renders the error with its line/column position and a caret-marked
    /// excerpt of the offending line, for human-facing diagnostics:
    ///
    /// ```text
    /// JSON parse error at line 3, column 14: expected ':' after object key
    ///   "clients" 4,
    ///              ^
    /// ```
    ///
    /// Long lines are windowed around the failure column so the caret stays
    /// visible. `input` must be the same document the error came from.
    pub fn render(&self, input: &str) -> String {
        let (line, col) = self.line_col(input);
        let text = input.lines().nth(line - 1).unwrap_or("");
        // Window the line to at most 60 bytes around the failure column.
        let start = (col - 1).saturating_sub(30).min(text.len());
        let end = (start + 60).min(text.len());
        // Don't split multi-byte characters at the window edges.
        let start = (0..=start)
            .rev()
            .find(|i| text.is_char_boundary(*i))
            .unwrap_or(0);
        let end = (end..=text.len())
            .find(|i| text.is_char_boundary(*i))
            .unwrap_or(text.len());
        let excerpt = &text[start..end];
        let caret_at = (col - 1).saturating_sub(start).min(excerpt.len());
        format!(
            "JSON parse error at line {line}, column {col}: {}\n  {}{excerpt}{}\n  {}^",
            self.message,
            if start > 0 { "…" } else { "" },
            if end < text.len() { "…" } else { "" },
            " ".repeat(caret_at + if start > 0 { 1 } else { 0 }),
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = Json::object([
            ("kind", Json::str("n2pl")),
            ("granularity", Json::str("step")),
            ("clients", Json::Int(8)),
            ("throughput", Json::Float(0.5)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : -2.5 } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_float(),
            Some(-2.5)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash \u{1}";
        let text = Json::Str(s.to_owned()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_parse_and_reject_when_unpaired() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("4.0").unwrap(), Json::Float(4.0));
        // And a whole float prints with a decimal point so it parses back as
        // a float.
        assert_eq!(Json::Float(4.0).to_string(), "4.0");
    }

    #[test]
    fn parse_error_reports_offset() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn parse_error_renders_line_column_and_caret() {
        let doc = "{\n  \"name\": \"x\",\n  \"clients\" 4\n}";
        let e = Json::parse(doc).unwrap_err();
        let (line, col) = e.line_col(doc);
        assert_eq!(line, 3);
        assert_eq!(col, 13);
        let rendered = e.render(doc);
        assert!(rendered.contains("line 3, column 13"), "{rendered}");
        // The excerpt is the offending line, and the caret sits under the
        // failure column.
        let mut lines = rendered.lines();
        lines.next();
        assert_eq!(lines.next(), Some("    \"clients\" 4"));
        assert_eq!(lines.next(), Some("              ^"));
    }

    #[test]
    fn parse_error_render_windows_long_lines() {
        let doc = format!("[{} x]", "1,".repeat(200));
        let e = Json::parse(&doc).unwrap_err();
        let rendered = e.render(&doc);
        // The excerpt is clipped on both sides and keeps the caret visible.
        assert!(rendered.contains('…'), "{rendered}");
        assert!(
            rendered.lines().last().unwrap().ends_with('^'),
            "{rendered}"
        );
        let excerpt = rendered.lines().nth(1).unwrap();
        assert!(excerpt.len() < 80, "{rendered}");
    }

    #[test]
    fn parse_error_at_end_of_input_renders() {
        let doc = "{\"a\": ";
        let e = Json::parse(doc).unwrap_err();
        let (line, col) = e.line_col(doc);
        assert_eq!((line, col), (1, 7));
        assert!(e.render(doc).ends_with('^'));
    }

    /// The reader and writer against the parser and printer they replaced
    /// (`reference`): seeded random documents print to the same text, and
    /// every corruption of them, every truncation, every byte flip, shuffled
    /// and duplicated keys, added whitespace and escapes, parses to the same
    /// value or fails with the same error.
    #[test]
    fn reader_and_writer_match_the_reference() {
        use obase_rng::{ChaCha8Rng, Rng, SeedableRng, SliceRandom};

        const CHARS: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '✓',
            '\u{1F600}',
        ];
        fn text(rng: &mut ChaCha8Rng) -> String {
            (0..rng.gen_range(0..6usize))
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect()
        }
        fn value(rng: &mut ChaCha8Rng, depth: usize) -> Json {
            match rng.gen_range(0..if depth == 0 { 6 } else { 8usize }) {
                0 => Json::Null,
                1 => Json::Bool(rng.gen_bool(0.5)),
                2 => Json::Int([0, -1, i64::MIN, i64::MAX, 42][rng.gen_range(0..5usize)]),
                3 => Json::Float([0.5, -2.0, 1e-300, 3.25e-7, 123.0][rng.gen_range(0..5usize)]),
                4 | 5 => Json::Str(text(rng)),
                6 => Json::Array(
                    (0..rng.gen_range(0..4usize))
                        .map(|_| value(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Object(
                    (0..rng.gen_range(0..4usize))
                        .map(|_| (text(rng), value(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
        /// `j` printed loosely: whitespace, keys shuffled and duplicated
        /// (the duplicate first, so the document still means `j`), and
        /// characters written as `\u` escapes.
        fn loose(rng: &mut ChaCha8Rng, j: &Json, out: &mut String) {
            let ws = |rng: &mut ChaCha8Rng, out: &mut String| {
                if rng.gen_bool(0.3) {
                    out.push_str([" ", "\n", "\t ", "\r\n"][rng.gen_range(0..4usize)]);
                }
            };
            let string = |rng: &mut ChaCha8Rng, s: &str, out: &mut String| {
                out.push('"');
                for c in s.chars() {
                    if rng.gen_bool(0.3) || c == '"' || c == '\\' || (c as u32) < 0x20 {
                        let mut units = [0u16; 2];
                        for u in c.encode_utf16(&mut units) {
                            out.push_str(&format!("\\u{u:04X}"));
                        }
                    } else if c == '/' && rng.gen_bool(0.5) {
                        out.push_str("\\/");
                    } else {
                        out.push(c);
                    }
                }
                out.push('"');
            };
            ws(rng, out);
            match j {
                Json::Str(s) => string(rng, s, out),
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        loose(rng, item, out);
                    }
                    ws(rng, out);
                    out.push(']');
                }
                Json::Object(map) => {
                    let mut entries: Vec<(&String, &Json)> = map.iter().collect();
                    entries.shuffle(rng);
                    out.push('{');
                    let mut first = true;
                    for (k, v) in entries {
                        let dup = rng.gen_bool(0.3).then_some(Json::Int(7));
                        for v in dup.as_ref().into_iter().chain([v]) {
                            if !std::mem::take(&mut first) {
                                out.push(',');
                            }
                            ws(rng, out);
                            string(rng, k, out);
                            ws(rng, out);
                            out.push(':');
                            loose(rng, v, out);
                        }
                    }
                    ws(rng, out);
                    out.push('}');
                }
                other => out.push_str(&other.to_string()),
            }
            ws(rng, out);
        }

        let same = |input: &str| {
            assert_eq!(Json::parse(input), reference::parse(input), "on {input:?}");
        };
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for _ in 0..300 {
            let j = value(&mut rng, 3);
            let printed = j.to_string();
            assert_eq!(printed, reference::print(&j));
            assert_eq!(Json::parse(&printed).as_ref(), Ok(&j));
            let mut text = String::new();
            loose(&mut rng, &j, &mut text);
            assert_eq!(Json::parse(&text).as_ref(), Ok(&j), "on {text:?}");
            same(&text);
            for cut in (0..text.len()).filter(|c| text.is_char_boundary(*c)) {
                same(&text[..cut]);
            }
            for i in 0..text.len() {
                for flip in [0x01u8, 0x20, 0x80] {
                    let mut bytes = text.clone().into_bytes();
                    bytes[i] ^= flip;
                    if let Ok(flipped) = String::from_utf8(bytes) {
                        same(&flipped);
                    }
                }
            }
        }
        for odd in [
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\udc00\"",
            "\"\\u+041\"",
            "\"\\u12\"",
            "\"\\q\"",
            "-",
            "1.",
            "-.5",
            "1e",
            "01",
            "99999999999999999999",
            "[1 2]",
            "{,}",
            "{\"a\" 1}",
            "[,1]",
            "nul",
            "\u{1}",
            "é",
        ] {
            same(odd);
        }
    }

    #[test]
    fn a_long_string_reads_in_linear_time() {
        let long = format!("\"{}\\n\"", "é".repeat(512 << 10));
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&long).expect("one long string");
        let took = t0.elapsed();
        assert_eq!(parsed.as_str().map(str::len), Some((1 << 20) + 1));
        assert!(took.as_secs_f64() < 1.0, "a 1 MiB string took {took:?}");
    }

    #[test]
    fn strings_borrow_unless_escaped_and_fields_take_the_last_duplicate() {
        let text = r#"{"b": "plain", "a": 1, "b": "esc\"aped", "c": [1, {"x": 2}]}"#;
        let mut r = Reader::new(text);
        let [a, b, missing] = r.fields(&["a", "b", "zz"]).expect("an object");
        r.end().expect("nothing after it");
        assert_eq!(missing, None);
        assert_eq!(r.at(a.expect("a")).int(), Ok(1));
        let b = r.at(b.expect("b")).str().expect("a string");
        assert!(matches!(b, std::borrow::Cow::Owned(ref s) if s == "esc\"aped"));
        let mut plain = Reader::new(r#""plain""#);
        assert!(matches!(
            plain.str(),
            Ok(std::borrow::Cow::Borrowed("plain"))
        ));
        // Shape errors carry the offset of the value.
        assert_eq!(Reader::new(" 1.5").int().map_err(|e| e.offset), Err(1));
        assert!(Reader::new("\"x\"").int_as::<u32>().is_err());
        assert!(Reader::new("-1").int_as::<u32>().is_err());
    }
}
