//! The writer: typed values straight to JSON text, with no tree between.

use crate::Json;
use std::io::Write as _;

/// A JSON writer that appends compact text to a byte buffer.
///
/// Values are written in call order and the writer places the commas, so
/// an object's keys come out in the order they are written: a caller that
/// wants [`Json`]'s sorted-key output writes its keys sorted. Integers,
/// floats and string escapes print exactly as [`Json`]'s `Display` prints
/// them, because that is built on this writer.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// A value was just written at this level: the next one needs a comma.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out, comma: false }
    }

    #[inline]
    fn sep(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.extend_from_slice(b"null");
        self
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
        self
    }

    /// Writes an integer.
    #[inline]
    pub fn int(&mut self, i: i64) -> &mut Self {
        self.sep();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = i.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if i < 0 {
            self.out.push(b'-');
        }
        self.out.extend_from_slice(&digits[at..]);
        self
    }

    /// Writes a float. A whole float keeps a decimal point so that it reads
    /// back as a float; JSON has no infinity or NaN, so those write `null`.
    pub fn float(&mut self, x: f64) -> &mut Self {
        if !x.is_finite() {
            return self.null();
        }
        self.sep();
        // Writing to a `Vec` cannot fail.
        let _ = if x.fract() == 0.0 && x.abs() < 1e15 {
            write!(self.out, "{x:.1}")
        } else {
            write!(self.out, "{x}")
        };
        self
    }

    /// Writes a string, escaping `"`, `\` and control characters.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.escaped(s);
        self
    }

    #[inline]
    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let short = match b {
                b'"' => b'"',
                b'\\' => b'\\',
                b'\n' => b'n',
                b'\r' => b'r',
                b'\t' => b't',
                0..=0x1f => 0,
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            if short == 0 {
                self.out.extend_from_slice(b"\\u00");
                self.out.push(HEX[usize::from(b >> 4)]);
                self.out.push(HEX[usize::from(b & 0xf)]);
            } else {
                self.out.extend_from_slice(&[b'\\', short]);
            }
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Opens an array.
    #[inline]
    pub fn array(&mut self) -> &mut Self {
        self.sep();
        self.out.push(b'[');
        self.comma = false;
        self
    }

    /// Closes the open array.
    #[inline]
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(b']');
        self.comma = true;
        self
    }

    /// Opens an object.
    #[inline]
    pub fn object(&mut self) -> &mut Self {
        self.sep();
        self.out.push(b'{');
        self.comma = false;
        self
    }

    /// Writes the open object's next key; its value follows.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.escaped(key);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// Closes the open object.
    #[inline]
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push(b'}');
        self.comma = true;
        self
    }

    /// Writes a [`Json`] tree, object keys in sorted order.
    pub fn json(&mut self, j: &Json) -> &mut Self {
        match j {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.int(*i),
            Json::Float(x) => self.float(*x),
            Json::Str(s) => self.str(s),
            Json::Array(items) => {
                self.array();
                for item in items {
                    self.json(item);
                }
                self.end_array()
            }
            Json::Object(map) => {
                self.object();
                for (key, value) in map {
                    self.key(key).json(value);
                }
                self.end_object()
            }
        }
    }
}
