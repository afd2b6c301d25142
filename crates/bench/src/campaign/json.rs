//! The JSON subset a result line uses: one flat object of string and bare
//! scalar fields. Hand-rolled — the workspace vendors no JSON crate — and
//! private to the [store](super::store), which owns the line format.

// The parsed object is a lookup table, never iterated for output; bh-bench
// is outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

/// A JSON scalar as it appears in a result line (the schema is flat: no
/// nested objects or arrays besides the latency triple, which is flattened
/// into three keys on write): a string, or a bare token — a number, `true`,
/// `false` or `null` — kept as text, so the field it lands in decides how to
/// read it. A `u64` field parses its digits exactly (a seed or counter above
/// 2^53 survives the round trip), an `f64` field reads `4` as `4.0`.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Json<'a> {
    Str(String),
    Bare(&'a str),
}

/// A Rust type that is one JSON scalar of the schema: how a field of that
/// type is written to a line and read back from a scanned value.
pub(super) trait JsonField: Sized {
    fn write(&self, out: &mut String);
    fn read(value: Json<'_>) -> Option<Self>;
}

/// Reads a bare token through the type's own `FromStr`.
fn read_bare<T: std::str::FromStr>(value: Json<'_>) -> Option<T> {
    match value {
        Json::Bare(token) => token.parse().ok(),
        Json::Str(_) => None,
    }
}

impl JsonField for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
    fn read(value: Json<'_>) -> Option<Self> {
        match value {
            Json::Str(s) => Some(s),
            Json::Bare(_) => None,
        }
    }
}

impl JsonField for Option<String> {
    fn write(&self, out: &mut String) {
        match self {
            Some(s) => s.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(value: Json<'_>) -> Option<Self> {
        match value {
            Json::Bare("null") => Some(None),
            value => String::read(value).map(Some),
        }
    }
}

impl JsonField for u64 {
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn read(value: Json<'_>) -> Option<Self> {
        read_bare(value)
    }
}

impl JsonField for f64 {
    // `{}` on finite f64 round-trips exactly and never uses an exponent;
    // non-finite values are not valid JSON, so they degrade to null (the
    // line then fails record parsing and the cell reruns on resume).
    fn write(&self, out: &mut String) {
        out.push_str(&if self.is_finite() { self.to_string() } else { "null".to_string() });
    }
    fn read(value: Json<'_>) -> Option<Self> {
        read_bare(value)
    }
}

impl JsonField for bool {
    fn write(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn read(value: Json<'_>) -> Option<Self> {
        read_bare(value)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serialises one key/value pair into `out` (which must already hold the
/// object opener or a previous pair).
pub(super) fn push_field(out: &mut String, key: &str, value: &impl JsonField) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
    value.write(out);
}

/// Removes `key` from a parsed line and reads it as a `T`; `None` if the key
/// is missing or holds another JSON type.
pub(super) fn take_field<T: JsonField>(
    map: &mut HashMap<String, Json<'_>>,
    key: &str,
) -> Option<T> {
    T::read(map.remove(key)?)
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Scanner { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Option<()> {
        (self.bump()? == want).then_some(())
    }

    /// Parses a `"…"` string (the opening quote not yet consumed).
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + (self.bump()? as char).to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        while self.peek().is_some_and(|n| n & 0xc0 == 0x80) {
                            self.pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                    }
                }
            }
        }
    }

    fn value(&mut self) -> Option<Json<'a>> {
        let start = self.pos;
        let token = |end: usize| std::str::from_utf8(&self.bytes[start..end]).ok();
        match self.peek()? {
            b'"' => return Some(Json::Str(self.string()?)),
            b't' => self.literal("true")?,
            b'f' => self.literal("false")?,
            b'n' => self.literal("null")?,
            _ => {
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                // The field it lands in parses it again, its own way; here
                // it only has to be a number at all.
                token(self.pos)?.parse::<f64>().ok()?;
            }
        }
        token(self.pos).map(Json::Bare)
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Some(())
    }
}

/// Parses one result line into its key → value map. Returns `None` on any
/// syntax error (resume treats such lines as incomplete cells).
pub(super) fn parse_object(line: &str) -> Option<HashMap<String, Json<'_>>> {
    let mut s = Scanner::new(line);
    s.skip_ws();
    s.expect(b'{')?;
    let mut map = HashMap::new();
    s.skip_ws();
    if s.peek() == Some(b'}') {
        s.bump();
    } else {
        loop {
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            map.insert(key, s.value()?);
            s.skip_ws();
            match s.bump()? {
                b',' => continue,
                b'}' => break,
                _ => return None,
            }
        }
    }
    s.skip_ws();
    s.peek().is_none().then_some(map)
}
