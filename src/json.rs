//! A minimal JSON value type for the serve protocol — no dependencies.
//!
//! The serve daemon speaks line-delimited JSON, and the workspace is
//! offline (no serde), so this module carries the few pieces the protocol
//! needs: a parser for client request lines and a **deterministic**
//! serialiser for responses. Objects preserve insertion order, so a given
//! [`Json`] value always serialises to the same bytes — the property the
//! serve differential tests pin ("served answer is byte-identical to the
//! batch answer rendered the same way").
//!
//! Both directions run in time linear in the line's length, so a line
//! near the serve daemon's 1 MiB cap cannot pin a worker: the parser
//! copies string content in whole runs up to the next `"` or `\`, and the
//! serialiser writes into one `String` ([`Json::write_to`]), copying
//! unescaped runs whole. The serve layer writes query answers straight
//! into its response buffer with `write_string`, `write_display` and
//! `write_num`, so the bytes match a [`Json`] tree of the same shape
//! without building one.
//!
//! Intentional limits: numbers are finite `f64` (integers up to 2^53
//! round-trip exactly; a literal that overflows, such as `1e999`, is a
//! parse error, and a non-finite [`Json::Num`] built in code serialises as
//! `null`), and no streaming/incremental parsing.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and serialised verbatim.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9007199254740992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a complete JSON value (surrounding whitespace allowed;
    /// trailing garbage is an error). Nesting is capped at
    /// [`MAX_NESTING_DEPTH`]: the parser is recursive, so a hostile input
    /// of ten thousand `[`s must become a parse error, not a stack
    /// overflow — a hard requirement for the serve fuzz harness.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0;
        skip_ws(text.as_bytes(), &mut pos);
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }

    /// Append the compact, deterministic serialisation (no added
    /// whitespace) to `out`. [`Display`](fmt::Display) delegates here.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Protocol values are
/// shallow (a batch of requests is depth 3); 128 leaves generous headroom
/// while keeping the recursive parser far from the thread's stack limit.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A JSON parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_NESTING_DEPTH {
        return Err(JsonError::at(*pos, "value nested too deeply"));
    }
    let bytes = src.as_bytes();
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(src, pos, depth),
        Some(b'[') => parse_array(src, pos, depth),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(src, pos),
        Some(c) => Err(JsonError::at(*pos, format!("unexpected byte {:?}", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected {word:?}")))
    }
}

fn parse_number(src: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = &src[start..*pos];
    match text.parse::<f64>() {
        // JSON has no infinities: an overflowing literal such as `1e999`
        // must not come back out of the writer as the non-JSON `inf`
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(JsonError::at(
            start,
            format!("number {text:?} is out of range"),
        )),
        Err(_) => Err(JsonError::at(start, format!("malformed number {text:?}"))),
    }
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        // copy the run up to the next delimiter whole: both delimiters are
        // ASCII, so the run of the (valid UTF-8) input ends on a char
        // boundary
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| JsonError::at(bytes.len(), "unterminated string"))?;
        out.push_str(&src[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1; // the backslash
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hi = parse_hex4(bytes, pos)?;
                // surrogate pair: a second \uXXXX must follow
                if (0xD800..0xDC00).contains(&hi) {
                    if bytes.get(*pos + 1) == Some(&b'\\') && bytes.get(*pos + 2) == Some(&b'u') {
                        *pos += 2;
                        let lo = parse_hex4(bytes, pos)?;
                        let c = 0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                        out.push(
                            char::from_u32(c)
                                .ok_or_else(|| JsonError::at(*pos, "bad surrogate pair"))?,
                        );
                    } else {
                        return Err(JsonError::at(*pos, "lone high surrogate"));
                    }
                } else {
                    out.push(
                        char::from_u32(hi as u32)
                            .ok_or_else(|| JsonError::at(*pos, "bad \\u escape"))?,
                    );
                }
            }
            _ => return Err(JsonError::at(*pos, "bad escape")),
        }
        *pos += 1;
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, JsonError> {
    // *pos is at the 'u'; consume its 4 hex digits, leaving *pos at the last
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
    let text = std::str::from_utf8(hex).map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
    let v = u16::from_str_radix(text, 16).map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
    *pos += 4;
    Ok(v)
}

fn parse_array(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(src, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected object key"));
        }
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(src, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

/// Append `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters. Runs that need no escape are copied whole: every byte that
/// does is ASCII, so each run ends on a char boundary.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append `value`'s [`Display`](fmt::Display) form as a quoted JSON string,
/// escaping as it is formatted (no intermediate `String`).
pub(crate) fn write_display(out: &mut String, value: &impl fmt::Display) {
    out.push('"');
    let _ = write!(Escaper(out), "{value}");
    out.push('"');
}

/// Append a number: integral values below 2^53 print as integers, other
/// finite values in Rust's shortest round-trip form, and the non-finite
/// values JSON cannot express as `null`.
pub(crate) fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9007199254740992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A [`fmt::Write`] sink that JSON-escapes everything written through it.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

impl fmt::Display for Json {
    /// Compact, deterministic serialisation (no added whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shaped_values() {
        let line = r#"{"op":"why","exec":"e-1","uri":"r8","depth":3,"live":true,"tags":["a","b"],"none":null}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("why"));
        assert_eq!(v.get("depth").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("live").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("tags").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("none"), Some(&Json::Null));
        // serialisation is byte-identical to the (compact, ordered) input
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("a\"b\\c\nd\te\u{1}f — ünïcøde 🎉");
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // surrogate-pair escapes decode too
        assert_eq!(
            Json::parse(r#""🎉 é""#).unwrap(),
            Json::str("🎉 é")
        );
    }

    #[test]
    fn numbers_serialise_as_integers_when_integral() {
        assert_eq!(Json::num(0).to_string(), "0");
        assert_eq!(Json::num(42).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn strings_escape_exactly_the_json_specials() {
        let v = Json::str("a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}é🎉");
        assert_eq!(
            v.to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\u{7f}é🎉\""
        );
        let mut shown = String::new();
        write_display(&mut shown, &"x\"\u{2}y");
        assert_eq!(shown, "\"x\\\"\\u0002y\"");
    }

    #[test]
    fn non_finite_numbers_are_rejected_and_never_written() {
        for bad in ["1e999", "-1e999", "[1e400]", r#"{"id":1e999}"#] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad:?}: {err}");
        }
        // underflow rounds to a finite zero and is accepted
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(Json::Num(n).to_string(), "null");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // a line near the serve daemon's 1 MiB cap: quadratic scanning
        // took tens of seconds here
        let pad = "x".repeat(1 << 20);
        let line = format!("{{\"op\":\"status\",\"pad\":\"{pad}\\n\"}}");
        let started = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(
            v.get("pad").and_then(Json::as_str).map(str::len),
            Some(pad.len() + 1)
        );
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_offsets() {
        for bad in [
            "", "{", "[1,", r#"{"a"}"#, r#"{"a":}"#, "tru", "\"unterminated",
            r#"{"a":1} extra"#, "[1 2]", r#""\q""#, r#""\ud800""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_not_overflowed() {
        // within the cap: fine
        let shallow = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&shallow).is_ok());
        // past the cap: a parse error, even at depths that would blow the
        // stack without the guard
        for depth in [MAX_NESTING_DEPTH + 1, 100_000] {
            let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            assert!(Json::parse(&arrays).is_err(), "accepted depth {depth}");
            let objects = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            assert!(Json::parse(&objects).is_err());
        }
    }

    #[test]
    fn nested_structures_parse() {
        let v = Json::parse(r#"{"result":{"links":[{"from":"a","to":"b"}],"n":2}}"#).unwrap();
        let links = v
            .get("result")
            .and_then(|r| r.get("links"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(links[0].get("from").and_then(Json::as_str), Some("a"));
    }
}
