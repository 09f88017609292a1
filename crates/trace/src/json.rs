//! Minimal JSON support for experiment reports and timelines.
//!
//! The workspace builds in offline environments, so instead of pulling
//! `serde_json` from the registry, the `ravel-harness` benchmark report
//! and obs timeline use this small recursive-descent parser and writer.
//! It covers the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, literals) but keeps every number as `f64`, which is
//! exactly what both formats need.
//!
//! Only tests call [`parse`] and the `Json` accessors. They stay here on
//! purpose: the parser is the reference oracle for the writer. This
//! module's never-panic and round-trip tests and the report and timeline
//! tests read the writer's output back through it.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key` if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON (object keys in insertion
    /// order, numbers via the shortest round-tripping `f64` form).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no NaN/inf; emit null rather than an
                    // unparsable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// How deeply arrays and objects may nest. The parser recurses once
/// per level, so without a bound a hostile document of a few hundred
/// kilobytes of `[` overflows the stack and aborts the process (which no
/// `catch_unwind` can stop). Reports and timelines nest at most a
/// handful of levels.
pub const MAX_DEPTH: usize = 256;

/// Parses one JSON document; trailing non-whitespace is an error, and so
/// is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses an array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                esc as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let run = self
                        .text
                        .get(self.pos..end)
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        let code = if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err("invalid low surrogate".into());
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err("unpaired surrogate".into());
            }
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| "invalid unicode escape".into())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc =
            parse(r#"{"note": "x", "samples": [[0.0, 4e6], [10, 1e6]], "extra": null}"#).unwrap();
        assert_eq!(doc.get("note").and_then(Json::as_str), Some("x"));
        let samples = doc.get("samples").and_then(Json::as_array).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].as_array().unwrap()[1].as_f64(), Some(1e6));
    }

    #[test]
    fn parses_string_escapes() {
        let doc = parse(r#""a\"b\\c\nA😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "not json",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "[1 2]",
            "1 2",
            r#""\q""#,
            "",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let hostile = open.repeat(100_000);
            assert!(parse(&hostile).unwrap_err().contains("nesting"));
        }
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn write_string_escapes_and_roundtrips() {
        let original = "line\nquote\" back\\slash \t\u{0001}ünïcode";
        let mut out = String::new();
        write_string(&mut out, original);
        assert_eq!(parse(&out).unwrap().as_str(), Some(original));
    }

    #[test]
    fn render_roundtrips_documents() {
        let doc = parse(r#"{"a": [1, 2.5, null], "b": {"c": "x\ny", "d": true}}"#).unwrap();
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(text, r#"{"a":[1,2.5,null],"b":{"c":"x\ny","d":true}}"#);
    }

    #[test]
    fn render_maps_non_finite_numbers_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn numbers_roundtrip_via_display() {
        for x in [0.0, 0.5, -1.25, 4e6, 123456789.125, 1e-9] {
            let text = format!("{x}");
            assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
        }
    }

    /// Characters hostile text is drawn from: JSON punctuation, escapes,
    /// digits, literal letters, whitespace, a control character and
    /// multi-byte UTF-8.
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', '/', '-', '+', '.', '0', '1', '9', 'e', 'E', 'n',
        'u', 'l', 't', 'r', 'f', 'a', 's', ' ', '\n', '\t', '\u{0}', 'é', '😀',
    ];

    proptest::proptest! {
        /// A document of microsecond-aligned `[seconds, bps]` samples
        /// round-trips through `render` / `parse` exactly, and arbitrary
        /// text — random bytes, random JSON-ish characters, or that
        /// document with one character replaced — parses to a value or
        /// an error, never a panic.
        #[test]
        fn documents_roundtrip_and_parsing_never_panics(
            steps in proptest::collection::vec((1u64..5_000_000, 0u64..20_000_000), 1..12),
            note in proptest::collection::vec(0usize..ALPHABET.len(), 0..20),
            noise in proptest::collection::vec(0usize..ALPHABET.len(), 0..80),
            bytes in proptest::collection::vec(0u16..256, 0..80),
            splice in (0usize..4096, 0usize..ALPHABET.len()),
        ) {
            let mut at_us = 0u64;
            let samples: Vec<Json> = steps
                .iter()
                .map(|&(gap_us, rate)| {
                    let sample = Json::Arr(vec![
                        Json::Num(at_us as f64 / 1e6),
                        Json::Num(rate as f64 * 0.37),
                    ]);
                    at_us += gap_us;
                    sample
                })
                .collect();
            let doc = Json::Obj(vec![
                ("note".into(), Json::Str(note.iter().map(|&i| ALPHABET[i]).collect())),
                ("samples".into(), Json::Arr(samples)),
            ]);
            let text = doc.render();
            proptest::prop_assert_eq!(parse(&text).ok(), Some(doc));

            let mut chars: Vec<char> = text.chars().collect();
            let at = splice.0 % chars.len();
            chars[at] = ALPHABET[splice.1];
            let spliced: String = chars.into_iter().collect();
            let random: String = noise.iter().map(|&i| ALPHABET[i]).collect();
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            for hostile in [spliced, random, String::from_utf8_lossy(&raw).into_owned()] {
                let _ = parse(&hostile);
            }
        }
    }
}
