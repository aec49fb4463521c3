//! The workspace's one JSON codec: a value tree with its parser, an
//! object writer, and the string escaper both of them use.
//!
//! The build environment has no crate registry, so every exporter
//! hand-rolls its JSON through [`JsonWriter`], and every reader — the
//! serve protocol, the result cache, and the checks that an exported
//! trace or report is well formed — goes through [`parse`]. Numbers keep
//! their source text ([`JsonValue::Num`] stores the raw token), so a
//! parse → serialize round trip of anything [`JsonWriter`] emits is
//! byte-exact — `u64` counters above 2^53 survive untouched.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Object members live in a [`BTreeMap`] plus a side list recording the
/// original key order, so serialization reproduces the input ordering
/// while lookups stay `O(log n)`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its exact source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: members keyed by name, plus the original key order.
    Object {
        /// Members by key.
        members: BTreeMap<String, JsonValue>,
        /// Keys in source order (serialization order).
        order: Vec<String>,
    },
}

impl JsonValue {
    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object { members, .. } => members.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`JsonValue::as_str`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Convenience: `get(key)` then [`JsonValue::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Serializes the value back to compact JSON (object keys in source
    /// order, numbers verbatim) — the inverse of [`parse`] for any text
    /// with no inter-token whitespace, such as `JsonWriter` output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object { members, order } => {
                out.push('{');
                for (i, key) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    members[key].write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal: `"`, `\` and
/// the short-form controls get their two-character escapes, every other
/// character below 0x20 becomes `\uXXXX`, and the rest (non-ASCII
/// included, since JSON is UTF-8) passes through.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A minimal JSON object writer: fields are appended in call order, so
/// the output is a pure function of the calls made.
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    first: bool,
}

impl JsonWriter {
    /// Starts an object (`{`).
    pub fn object() -> JsonWriter {
        JsonWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_string(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.buf.push_str(&v.to_string());
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.6}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        write_string(&mut self.buf, v);
    }

    /// Adds a pre-serialized JSON value (array or object) verbatim.
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 256;

/// Parses one complete JSON value; trailing data is an error.
pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = BTreeMap::new();
        let mut order = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object { members, order });
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if members.insert(key.clone(), val).is_some() {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            order.push(key);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object { members, order });
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let v = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(v).ok_or_else(|| self.err("bad code point"))?
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos past the last digit; undo the
                            // generic advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.b[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four ASCII hex digits (no sign, unlike
    /// `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .b
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = v << 4 | digit;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.b[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.b[start..self.pos])
            .unwrap()
            .to_string();
        Ok(JsonValue::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-0.5").unwrap().as_f64(), Some(-0.5));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse("-12.5e+3").unwrap().as_f64(), Some(-12500.0));
        assert_eq!(parse("\"\\u00ff\"").unwrap().as_str(), Some("ÿ"));
        for ok in ["{}", "[]", " { \"k\" : [ 1 , 2 ] } "] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn numbers_keep_source_text() {
        // 2^63 + 1 is not representable in f64; the raw token survives.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v.as_u64(), Some(9223372036854775809));
        assert_eq!(v.to_json(), "9223372036854775809");
    }

    #[test]
    fn objects_keep_key_order_and_round_trip() {
        let text = r#"{"zeta":1,"alpha":{"y":[1,2,3],"x":"s"},"mid":null}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json(), text);
        assert_eq!(v.get("alpha").unwrap().str_field("x"), Some("s"));
        assert_eq!(v.u64_field("zeta"), Some(1));
        // Nesting below the depth bound is accepted.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap().to_json(), deep);
    }

    #[test]
    fn escapes_round_trip() {
        let text = r#"{"k":"a\"b\\c\n\t\r\u0000\u001f"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.str_field("k"), Some("a\"b\\c\n\t\r\0\u{1f}"));
        assert_eq!(v.to_json(), text);
        // Surrogate pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Escapes written as \uXXXX re-serialize in short form; either
        // way the tree survives.
        let v = parse(r#"{"s":"\u0001β\u000a","n":[0.5,-3,1e9]}"#).unwrap();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let too_deep = "[".repeat(1000) + &"]".repeat(1000);
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{} {}",
            "tru",
            "1.",
            "1e",
            "01",
            "-007",
            "\"\\x\"",
            "\"\\u+fff\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"a\u{0}b\"",
            "{\"a\":1,\"a\":2}",
            "[1] 2",
            "\"unterminated",
            too_deep.as_str(),
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaper_handles_control_chars_and_unicode() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(quoted("a\nb\tc\r"), r#""a\nb\tc\r""#);
        // Control characters without a short escape use \uXXXX.
        assert_eq!(quoted("\0x\x1f"), r#""\u0000x\u001f""#);
        assert_eq!(quoted("\x01\x02"), r#""\u0001\u0002""#);
        // Non-ASCII passes through untouched (JSON is UTF-8).
        assert_eq!(quoted("gemm-α×β"), "\"gemm-α×β\"");
    }

    #[test]
    fn writer_output_parses_back() {
        let mut w = JsonWriter::object();
        w.field_str("name", "weird\0name\x1fwith\nβ");
        w.field_str("empty", "");
        w.field_u64("n", u64::MAX);
        w.field_f64("x", 0.25);
        w.field_f64("nan", f64::NAN);
        w.raw_field("arr", "[1,2]");
        let json = w.finish();
        assert!(json.contains("\\u0000"));
        assert!(json.contains("\\u001f"));
        let v = parse(&json).expect("writer output must parse");
        assert_eq!(v.str_field("name"), Some("weird\0name\x1fwith\nβ"));
        assert_eq!(v.u64_field("n"), Some(u64::MAX));
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(v.to_json(), json);
    }
}
