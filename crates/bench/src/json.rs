//! Minimal hand-rolled JSON value, writer and parser (no external dependencies).
//!
//! The `simdram-bench` pipeline serializes its reports to a versioned JSON schema and
//! the `bench_diff` differ parses them back; this module provides exactly the JSON
//! subset both need, with two properties the golden-file tests rely on:
//!
//! * **Deterministic output** — object members keep insertion order, numbers that are
//!   mathematically integral print as integers, and other finite numbers use Rust's
//!   shortest-roundtrip `f64` formatting, so serializing the same report twice yields
//!   byte-identical text.
//! * **Round-trip stability** — `write(parse(s)) == s` for any `s` this writer
//!   produced.
//!
//! Not supported (rejected with an error rather than mis-parsed): non-finite numbers,
//! and exponent-free output is guaranteed on the writer side only — the parser accepts
//! standard JSON number syntax including exponents.

use std::fmt;

/// A JSON value. Objects preserve member insertion order (deterministic serialization).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members kept in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse error: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object (panics if `self` is not an object — builder use
    /// only).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline (the on-disk
    /// `BENCH_*.json` format).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(
        n.is_finite(),
        "cannot serialize a non-finite number to JSON"
    );
    // Integral values print as integers so counts stay integers across round-trips.
    if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{literal}'")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err(*pos, "unterminated string"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err(*pos, "unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer; map lone
                        // surrogates to the replacement character instead of failing.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(err(*pos - 1, "unknown escape")),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at the byte we just consumed.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = start + len;
                let s = bytes
                    .get(start..end)
                    .and_then(|chunk| std::str::from_utf8(chunk).ok())
                    .ok_or_else(|| err(start, "invalid UTF-8 in string"))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number chars");
    let n: f64 = text
        .parse()
        .map_err(|_| err(start, &format!("invalid number '{text}'")))?;
    if !n.is_finite() {
        return Err(err(start, "non-finite number"));
    }
    Ok(Json::Num(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut metrics = Json::obj();
        metrics.set("latency_ns", Json::Num(197.5));
        metrics.set("count", Json::Num(3.0));
        let mut dp = Json::obj();
        dp.set("name", Json::Str("addition/32b".to_string()));
        dp.set("ok", Json::Bool(true));
        dp.set("metrics", metrics);
        dp.set("notes", Json::Null);
        let mut root = Json::obj();
        root.set("schema_version", Json::Num(1.0));
        root.set("datapoints", Json::Arr(vec![dp]));
        root.set("empty_arr", Json::Arr(vec![]));
        root.set("empty_obj", Json::obj());
        root
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let text = sample().to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, sample());
        assert_eq!(parsed.to_pretty_string(), text);
    }

    #[test]
    fn integral_numbers_serialize_without_a_fraction() {
        let mut s = String::new();
        write_number(&mut s, 16.0);
        assert_eq!(s, "16");
        let mut s = String::new();
        write_number(&mut s, 0.15);
        assert_eq!(s, "0.15");
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let root = sample();
        assert_eq!(root.get("schema_version").unwrap().as_f64(), Some(1.0));
        let dps = root.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dps[0].get("name").unwrap().as_str(), Some("addition/32b"));
        assert_eq!(
            dps[0]
                .get("metrics")
                .unwrap()
                .get("latency_ns")
                .unwrap()
                .as_f64(),
            Some(197.5)
        );
        assert!(root.get("missing").is_none());
        assert_eq!(root.get("empty_obj").unwrap().as_obj(), Some(&[][..]));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\slash κλμ".to_string());
        let text = original.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite must be rejected");
        let e = Json::parse("nope").unwrap_err();
        assert!(e.to_string().contains("byte 0"));
    }

    #[test]
    fn parses_standard_json_syntax() {
        let v = Json::parse("{\"a\": [1, -2.5, 1e3, true, false, null]}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[5], Json::Null);
    }
}
