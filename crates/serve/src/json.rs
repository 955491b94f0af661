//! Hand-rolled JSON: exactly the subset the line-delimited wire protocol
//! needs, with deterministic serialisation (objects keep insertion
//! order, so encoding the same value twice yields the same bytes — the
//! property the solution cache's bit-identical replay relies on).
//!
//! Numbers are stored as `f64`; integers are emitted without a decimal
//! point and [`Json::as_u64`] only succeeds on exact non-negative
//! integers, so `u64` fields survive a round trip unchanged up to
//! 2^53 - 1 (documented protocol limit for seeds and ids). Numbers are
//! formatted straight into the output buffer, with no allocation per
//! number.
//!
//! [`Json::Raw`] holds text that is already encoded and is written
//! verbatim. The parser never produces it. It lets a cache hit splice
//! the entry's stored `"schedule"` array into its reply (see
//! [`crate::cache`]), so a replay copies one string instead of
//! rebuilding and re-encoding a tree of thousands of nodes; the bytes
//! on the wire are the same either way.

use std::fmt::{self, Write};
use std::sync::Arc;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53 - 1).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Object as an insertion-ordered key/value list (duplicate keys are
    /// rejected by the parser).
    Obj(Vec<(String, Json)>),
    /// Already-encoded JSON, written verbatim by [`Json::encode`]. The
    /// parser never produces it; the server uses it to splice a cache
    /// entry's stored `"schedule"` array into a reply without
    /// rebuilding the tree. The text must be one valid JSON value.
    Raw(Arc<str>),
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input line.
    pub offset: usize,
    /// What went wrong there.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String value, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Exact non-negative integer (≤ 2^53 - 1), else `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Boolean value, else `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, else `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact single-line encoding (no whitespace), suitable for the
    /// line-delimited protocol.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

// Writing into a `String` cannot fail, so the `fmt::Result`s below
// are discarded.
fn write_number(v: f64, out: &mut String) {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value; the whole input must be consumed (trailing
/// whitespace allowed).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Containers may nest this deep; beyond it parsing fails instead of
/// recursing further (requests come from untrusted sockets, and a
/// deliberately deep `[[[[…` line must not overflow the worker stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let v = self.object_inner();
        self.depth -= 1;
        v
    }

    fn object_inner(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let v = self.array_inner();
        self.depth -= 1;
        v
    }

    fn array_inner(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex_escape()?;
                            let c = match code {
                                // High surrogate: legal JSON encodes a
                                // supplementary-plane character (emoji,
                                // etc.) as a \uD8xx\uDCxx pair — decode
                                // the pair, reject anything else.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 1;
                                    let low = self.hex_escape()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                }
                                // A low surrogate must never come first.
                                0xDC00..=0xDFFF => return Err(self.err("unpaired low surrogate")),
                                c => char::from_u32(c).ok_or_else(|| self.err("bad \\u escape"))?,
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    let start = self.pos - 1;
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    // panic-safe: start + len <= bytes.len() checked just above.
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Consumes `\uXXXX`'s four hex digits (the `\u` itself already
    /// consumed) and returns the code unit.
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // panic-safe: pos + 4 <= bytes.len() checked just above.
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of ASCII digits, erroring (with the given
    /// message) when there is none — each part of a JSON number
    /// requires at least one digit.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(what));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("number needs digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("number needs digits after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("number needs digits in exponent")?;
        }
        // The scanned range is all ASCII by construction, but a decode
        // failure must surface as a parse error, never a panic — this
        // parser faces untrusted sockets.
        // panic-safe: start..pos is in bounds — pos only advances past peeked bytes.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let v: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        // An in-grammar literal like 1e999 overflows to infinity;
        // accepting it would make `encode` emit "inf", which is not
        // JSON — reject at the boundary instead.
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(v))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

/// Builder shorthand for objects: `obj([("k", v.into()), ...])`.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a": [1, 2, {"b": null}], "c": "x\ny"} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        // Deterministic compact re-encoding.
        assert_eq!(v.encode(), r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#);
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("quote\" slash\\ nl\n tab\t ctrl\u{1} unicode\u{e9}".into());
        let back = parse(&original.encode()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn u64_integers_survive() {
        let v = Json::from(9_007_199_254_740_991u64); // 2^53 - 1
        let back = parse(&v.encode()).unwrap();
        assert_eq!(back.as_u64(), Some(9_007_199_254_740_991));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-2.0).as_u64(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\":1,\"a\":2}").is_err());
        let e = parse("nul").unwrap_err();
        assert!(e.to_string().contains("byte 0"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let hostile = "[".repeat(100_000);
        let e = parse(&hostile).unwrap_err();
        assert!(e.message.contains("nesting"));
        // Sibling (non-nested) containers don't count toward the limit.
        let wide = format!("[{}]", vec!["[]"; 1_000].join(","));
        assert!(parse(&wide).is_ok());
        // Depth exactly at the limit still parses.
        let ok = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(65), "]".repeat(65));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_surrogates_error() {
        // "😀" is U+1F600, encoded in JSON escapes as a UTF-16 pair.
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Mixed with surrounding text and other escapes.
        let v = parse(r#""hi 😀\n""#).unwrap();
        assert_eq!(v.as_str(), Some("hi 😀\n"));
        // The literal (non-escaped) UTF-8 form parses too and the two
        // spellings agree.
        assert_eq!(parse("\"😀\"").unwrap().as_str(), Some("😀"));
        // First/last code points of the supplementary planes.
        assert_eq!(parse(r#""𐀀""#).unwrap().as_str(), Some("\u{10000}"));
        assert_eq!(parse(r#""􏿿""#).unwrap().as_str(), Some("\u{10ffff}"));
        // Unpaired / malformed surrogates are errors, not panics.
        for bad in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83d rest""#,  // high followed by plain text
            r#""\ud83d\n""#,     // high followed by another escape
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low
            r#""\ud83d\ude0""#,  // truncated low
            r#""\ud83d\u""#,     // truncated low escape
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn malformed_numbers_error_instead_of_panicking_or_overflowing() {
        // Overflow to infinity is rejected (encode could not round-trip
        // it as JSON).
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        // Digit-less parts are rejected (real JSON grammar).
        for bad in ["-", "1.", ".5", "1e", "1e+", "-.", "--1"] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        // Large-but-representable magnitudes still parse.
        assert!(parse("1e308").is_ok());
        assert_eq!(parse("-7.25e2").unwrap().as_f64(), Some(-725.0));
    }

    #[test]
    fn number_encoding_is_pinned() {
        let enc = |v: f64| Json::Num(v).encode();
        // Integers below 2^53 print without a decimal point.
        assert_eq!(enc(0.0), "0");
        assert_eq!(enc(-0.0), "0");
        assert_eq!(enc(42.0), "42");
        assert_eq!(enc(-7.0), "-7");
        assert_eq!(enc(9_007_199_254_740_991.0), "9007199254740991");
        // Fractions use the shortest round-tripping decimal.
        assert_eq!(enc(3.5), "3.5");
        assert_eq!(enc(-0.25), "-0.25");
        assert_eq!(enc(0.1), "0.1");
        assert_eq!(enc(1e-7), "0.0000001");
        // From 2^53 up, f64's Display: full decimal digits, no exponent.
        assert_eq!(enc(9_007_199_254_740_992.0), "9007199254740992");
        assert_eq!(enc(-1.5e19), "-15000000000000000000");
        assert_eq!(enc(1e21), "1000000000000000000000");
    }

    #[test]
    fn raw_text_is_written_verbatim() {
        let tree = parse(r#"[[0,1,2,0,5],[1,0,2,5,9]]"#).unwrap();
        let raw = Json::Raw(tree.encode().into());
        let spliced = obj([("a", 1u64.into()), ("s", raw), ("z", Json::Null)]);
        let built = obj([("a", 1u64.into()), ("s", tree), ("z", Json::Null)]);
        assert_eq!(spliced.encode(), built.encode());
        // Parsing the spliced bytes yields the ordinary tree again.
        assert_eq!(parse(&spliced.encode()).unwrap(), built);
    }

    #[test]
    fn object_get_and_builder() {
        let v = obj([("x", 4u64.into()), ("y", "s".into())]);
        assert_eq!(v.get("x").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("y").unwrap().as_str(), Some("s"));
        assert!(v.get("z").is_none());
    }
}
