//! The pull reader: JSON text in, typed values out, with no tree between.

use crate::{Json, ParseError};
use std::borrow::Cow;

/// A pull reader over JSON text.
///
/// Each call skips whitespace, then reads one token or one whole value, and
/// fails with a [`ParseError`] at the offending offset: bad syntax, or a
/// value of another shape than the one asked for. [`skip`](Reader::skip)
/// validates a value without building anything, [`str`](Reader::str)
/// borrows a string that has no escapes, and [`json`](Reader::json) builds
/// a [`Json`] subtree only where one is wanted. Each unescaped run of a
/// string is scanned once, so reading is linear in the text.
///
/// To accept keys in any order with the last of duplicates winning, a typed
/// decoder reads an object in two passes: [`fields`](Reader::fields)
/// validates it and finds where each wanted key's value starts, then
/// [`at`](Reader::at) reads each value from there.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Just past a `[` or `{`: the next item needs no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            fresh: false,
        }
    }

    /// A reader over the same text at byte offset `pos`, such as one that
    /// [`fields`](Reader::fields) found.
    pub fn at(&self, pos: usize) -> Reader<'a> {
        Reader {
            pos,
            ..Reader::new(self.text)
        }
    }

    /// The cursor's byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// An error at the cursor.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        let (offset, message) = (self.pos, message.into());
        ParseError { offset, message }
    }

    /// Skips whitespace and returns the next byte, if any.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() != Some(b) {
            return Err(self.error(format!("expected {:?}", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// Checks that only whitespace is left.
    pub fn end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after the document")),
        }
    }

    /// Validates the next value and moves past it, building nothing.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'"') => self.string(false).map(drop),
            Some(b'[') => self.array().and_then(|()| self.rest()),
            Some(b'{') => {
                self.object()?;
                while self.next_item(b'}')? {
                    self.string(false)?;
                    self.expect(b':')?;
                    self.skip()?;
                }
                Ok(())
            }
            _ => self.scalar().map(drop),
        }
    }

    /// Reads the next value as a [`Json`] tree; of duplicate keys, the last
    /// one wins.
    pub fn json(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'"') => self.string_owned().map(Json::Str),
            Some(b'[') => self.list(Reader::json).map(Json::Array),
            Some(b'{') => {
                let mut map = std::collections::BTreeMap::new();
                self.object()?;
                while let Some(key) = self.key()? {
                    map.insert(key.into_owned(), self.json()?);
                }
                Ok(Json::Object(map))
            }
            _ => self.scalar(),
        }
    }

    /// Reads a string, borrowed from the text unless it has escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.string(true)
    }

    /// Reads a string into an owned `String`.
    #[inline]
    pub fn string_owned(&mut self) -> Result<String, ParseError> {
        self.string(true).map(Cow::into_owned)
    }

    /// Reads an integer; a number with a fraction or an exponent is not one.
    #[inline]
    pub fn int(&mut self) -> Result<i64, ParseError> {
        let peeked = self.peek();
        let at = self.at(self.pos);
        match peeked {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Json::Int(i) => Ok(i),
                _ => Err(at.error("expected an integer")),
            },
            _ => Err(self.error("expected an integer")),
        }
    }

    /// Reads an integer that fits `T` (an id, an index or a count).
    pub fn int_as<T: TryFrom<i64>>(&mut self) -> Result<T, ParseError> {
        self.peek();
        let at = self.at(self.pos);
        let i = self.int()?;
        T::try_from(i).map_err(|_| at.error(format!("integer {i} is out of range")))
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        match self.peek() {
            Some(b't') => self.literal("true", true),
            Some(b'f') => self.literal("false", false),
            _ => Err(self.error("expected a bool")),
        }
    }

    /// Opens an array; [`item`](Reader::item) moves to each item.
    #[inline]
    pub fn array(&mut self) -> Result<(), ParseError> {
        self.expect(b'[')?;
        self.fresh = true;
        Ok(())
    }

    /// Moves to the open array's next item: `false` once it is closed.
    #[inline]
    pub fn item(&mut self) -> Result<bool, ParseError> {
        self.next_item(b']')
    }

    /// Moves to the open array's next item, which must be there: `missing`
    /// says what it is.
    #[inline]
    pub fn need_item(&mut self, missing: &str) -> Result<(), ParseError> {
        match self.item()? {
            true => Ok(()),
            false => Err(self.error(missing)),
        }
    }

    /// Validates and skips the open array's remaining items.
    #[inline]
    pub fn rest(&mut self) -> Result<(), ParseError> {
        while self.item()? {
            self.skip()?;
        }
        Ok(())
    }

    /// Reads an array whose items `read` reads.
    pub fn list<T>(
        &mut self,
        mut read: impl FnMut(&mut Reader<'a>) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        self.array()?;
        while self.item()? {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Opens a tagged array, `["tag", ...]`, and reads its tag.
    #[inline]
    pub fn tagged(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.array()?;
        self.need_item("a tagged array needs a string tag")?;
        self.str()
    }

    /// Opens an object; [`key`](Reader::key) reads each member's key.
    #[inline]
    pub fn object(&mut self) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.fresh = true;
        Ok(())
    }

    /// Reads the open object's next key and `:`, leaving the cursor on its
    /// value: `None` once the object is closed.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.string(true)?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Validates the next value, an object, and returns where each of
    /// `names`' values starts (the last one's, if a key repeats).
    pub fn fields<const N: usize>(
        &mut self,
        names: &[&str; N],
    ) -> Result<[Option<usize>; N], ParseError> {
        let mut at = [None; N];
        self.object()?;
        while let Some(key) = self.key()? {
            if let Some(i) = names.iter().position(|n| *n == key) {
                at[i] = Some(self.pos);
            }
            self.skip()?;
        }
        Ok(at)
    }

    /// Moves past a comma to the next item of the open array or object
    /// (`true`), or past its `close` byte (`false`).
    #[inline]
    fn next_item(&mut self, close: u8) -> Result<bool, ParseError> {
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(format!("expected ',' or {:?}", close as char))),
        }
    }

    /// A null, bool or number.
    fn scalar(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal<T>(&mut self, word: &str, value: T) -> Result<T, ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error(format!("expected {word:?}")));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// A number, the cursor on its first byte: an integer as `i64::from_str`
    /// reads it (accumulated while scanned, negated so that `i64::MIN`
    /// fits), or with a fraction or exponent a float.
    #[inline]
    fn number(&mut self) -> Result<Json, ParseError> {
        let bytes = self.text.as_bytes();
        let (start, negative) = (self.pos, bytes[self.pos] == b'-');
        self.pos += usize::from(negative);
        let first = self.pos;
        let mut int = Some(0i64);
        while let Some(d @ b'0'..=b'9') = bytes.get(self.pos) {
            let digit = i64::from(d - b'0');
            int = int.and_then(|i| i.checked_mul(10)?.checked_sub(digit));
            self.pos += 1;
        }
        let digits = |pos: &mut usize| {
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        };
        let integral = self.pos;
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            digits(&mut self.pos);
        }
        if let Some(b'e' | b'E') = bytes.get(self.pos) {
            self.pos += 1;
            if let Some(b'+' | b'-') = bytes.get(self.pos) {
                self.pos += 1;
            }
            digits(&mut self.pos);
        }
        let number = match (self.pos != integral, self.pos != first) {
            (true, _) => self.text[start..self.pos].parse().ok().map(Json::Float),
            (false, false) => None,
            (false, true) if negative => int.map(Json::Int),
            (false, true) => int.and_then(i64::checked_neg).map(Json::Int),
        };
        number.ok_or_else(|| self.error("malformed number"))
    }

    /// Reads a string. Without `keep` it only validates, and a string with
    /// escapes reads as empty.
    #[inline]
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        // Set at the first escape; only with `keep` does it collect.
        let mut unescaped: Option<String> = None;
        loop {
            let run = self.pos;
            match bytes[run..].iter().position(|&b| b == b'"' || b == b'\\') {
                Some(n) => self.pos += n + 1,
                None => {
                    self.pos = bytes.len();
                    return Err(self.error("unterminated string"));
                }
            }
            let text = &self.text[run..self.pos - 1];
            if bytes[self.pos - 1] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(text),
                    Some(s) if !keep => Cow::Owned(s),
                    Some(s) => Cow::Owned(s + text),
                });
            }
            let c = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("invalid escape")),
            };
            let s = unescaped.get_or_insert_with(String::new);
            if keep {
                s.push_str(text);
                s.push(c);
            }
            self.pos += 1;
        }
    }

    /// A `\uXXXX` escape, or a surrogate pair of two, the cursor on the
    /// `u`; leaves the cursor on the last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&code) {
            // A high surrogate: a `\u` low surrogate must follow.
            if self.text.as_bytes().get(self.pos + 1..self.pos + 3) != Some(br"\u") {
                return Err(self.error("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }

    /// The four hex digits after the `u` under the cursor; leaves the
    /// cursor on the last one.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = (self.text.as_bytes())
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}
