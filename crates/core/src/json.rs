//! Hand-rolled JSON, shared by every component that speaks it.
//!
//! The workspace deliberately carries no serialization dependency, so the escape/number
//! writers that used to be duplicated between `QueryProfile::to_json` and the bench report
//! live here once, alongside a small recursive-descent parser used by the HTTP wire protocol
//! (`graphflow-server`) to read request bodies. The writers guarantee *valid* JSON: control
//! characters are `\u`-escaped and non-finite floats become `null` (JSON cannot carry
//! NaN/infinity).

use graphflow_graph::PropValue;
use std::fmt::Write;

/// Append `s` to `out` with JSON string escaping applied — no surrounding quotes, so callers
/// can splice escaped fragments into larger literals.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `s` with JSON string escaping applied, without surrounding quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// `s` as a complete JSON string literal: escaped and quoted.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A JSON number in shortest-round-trip form; non-finite values (which JSON cannot carry)
/// become `null`.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON number with six fixed decimals (the bench-report convention, kept stable so
/// plotting scripts can diff runs); non-finite values become `null`.
pub fn fmt_f64_fixed(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Append one result cell to `out`: `null` for a missing value, a bare number for ints and
/// finite floats, `true`/`false` for booleans, a quoted escaped literal for strings. Numbers
/// are formatted straight into `out`, floats in the form [`fmt_f64`] gives.
pub fn write_value(out: &mut String, value: &Option<PropValue>) {
    // Formatting into a `String` cannot fail, so the `fmt::Result`s below carry nothing.
    match value {
        None => out.push_str("null"),
        Some(PropValue::Int(n)) => {
            let _ = write!(out, "{n}");
        }
        Some(PropValue::Float(x)) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Some(PropValue::Float(_)) => out.push_str("null"),
        Some(PropValue::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        Some(PropValue::Str(s)) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// A parsed JSON value. Object members keep their source order; duplicate keys keep the last
/// occurrence (matching what every mainstream parser does).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers up to 2^53 round-trip exactly).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Member lookup on an object (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if this is a number with an exact `i64` value: an
    /// integral number in `[-2^63, 2^63)`. (`i64::MAX as f64` rounds up to 2^63, so a bound
    /// written with `<=` would let 2^63 through and saturate it.)
    pub fn as_i64(&self) -> Option<i64> {
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Json::Num(x) if x.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(x) => {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
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

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Recursion guard: JSON nested deeper than this is rejected instead of overflowing the
/// stack (the wire protocol never needs anything close to it).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.to_string(),
        }
    }

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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Bulk-copy the run of plain bytes up to the next quote or escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any slice between ASCII delimiters is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.pos += 1; // past the last hex digit of the first unit
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                char::from_u32(combined).ok_or_else(|| self.err("bad codepoint"))?
                            } else if (0xdc00..0xe000).contains(&first) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(first).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Read four hex digits starting at `pos`, leaving `pos` on the **last** digit (callers
    /// advance past it).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        // Exactly four hex digits: `from_str_radix` alone would also take a leading `+`.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let digit = |d: u8| (d as char).to_digit(16).expect("checked to be a hex digit");
        let v = hex.iter().fold(0, |v, &d| v * 16 + digit(d));
        self.pos += 3;
        Ok(v)
    }

    /// Skip a non-empty run of ASCII digits; `what` names the error when there is none.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    /// A number by the RFC 8259 grammar, `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    /// — stricter than Rust's `f64` parser, which also takes `1.`, `.5` and `01`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits("expected a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{0001}"), "\\u0001");
        assert_eq!(quote("x\"y"), "\"x\\\"y\"");
    }

    #[test]
    fn numbers_reject_non_finite() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64_fixed(1.5), "1.500000");
        assert_eq!(fmt_f64_fixed(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn values_serialize_per_type() {
        let mut out = String::new();
        write_value(&mut out, &None);
        out.push(',');
        write_value(&mut out, &Some(PropValue::Int(-7)));
        out.push(',');
        write_value(&mut out, &Some(PropValue::Bool(true)));
        out.push(',');
        write_value(&mut out, &Some(PropValue::Str("a\"b".into())));
        assert_eq!(out, "null,-7,true,\"a\\\"b\"");
    }

    /// Numbers written in place read exactly as the `to_string()` / [`fmt_f64`] temporaries
    /// they replace.
    #[test]
    fn numbers_are_written_in_place_with_the_same_bytes() {
        let ints = [i64::MIN, -1, 0, 7, 1 << 53, i64::MAX];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1e21,
            1e-7,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let cells = ints
            .iter()
            .map(|&n| (PropValue::Int(n), n.to_string()))
            .chain(floats.iter().map(|&x| (PropValue::Float(x), fmt_f64(x))));
        for (value, expected) in cells {
            let mut out = String::from("[");
            write_value(&mut out, &Some(value.clone()));
            assert_eq!(out, format!("[{expected}"), "{value:?}");
        }
        let written = |value: PropValue| {
            let mut out = String::new();
            write_value(&mut out, &Some(value));
            out
        };
        assert_eq!(written(PropValue::Int(i64::MIN)), "-9223372036854775808");
        assert_eq!(written(PropValue::Float(-0.0)), "-0");
        assert_eq!(written(PropValue::Float(1e21)), "1000000000000000000000");
        assert_eq!(written(PropValue::Float(5e-324)).len(), 326);
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(written(PropValue::Float(x)), "null");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"query": "(a)->(b)", "options": {"threads": 4, "timeout_ms": 250.0},
                "stream": true, "tags": ["x", null, -1.5e2]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("query").unwrap().as_str(), Some("(a)->(b)"));
        let opts = doc.get("options").unwrap();
        assert_eq!(opts.get("threads").unwrap().as_i64(), Some(4));
        assert_eq!(opts.get("timeout_ms").unwrap().as_i64(), Some(250));
        assert_eq!(doc.get("stream").unwrap().as_bool(), Some(true));
        let tags = doc.get("tags").unwrap().as_array().unwrap();
        assert_eq!(tags[0].as_str(), Some("x"));
        assert!(tags[1].is_null());
        assert_eq!(tags[2].as_f64(), Some(-150.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parses_string_escapes_and_surrogate_pairs() {
        let v = Json::parse(r#""a\"\\\/\n\t\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"\\/\n\tA\u{1f600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "01x",
            "[1] trailing",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        // Round-trip: what the writers emit, the parser reads back.
        let v = Json::parse(&quote("line\nbreak \"quoted\"")).unwrap();
        assert_eq!(v.as_str(), Some("line\nbreak \"quoted\""));
    }

    /// Where `text` fails to parse.
    fn error_position(text: &str) -> usize {
        Json::parse(text).expect_err(text).position
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `u32::from_str_radix` accepts "+041"; the escape must not.
        assert_eq!(error_position(r#""\u+041""#), 3);
    }

    #[test]
    fn a_fraction_needs_digits_after_the_point() {
        assert_eq!(error_position("1."), 2);
    }

    #[test]
    fn an_integer_part_is_required() {
        assert_eq!(error_position("-.5"), 1);
    }

    #[test]
    fn leading_zeros_are_rejected() {
        assert_eq!(error_position("01"), 1);
    }

    #[test]
    fn integers_are_exact_over_the_whole_i64_range() {
        let int = |text: &str| Json::parse(text).unwrap().as_i64();
        assert_eq!(int("-9223372036854775808"), Some(i64::MIN));
        // The largest double below 2^63.
        assert_eq!(int("9223372036854774784"), Some(9_223_372_036_854_774_784));
        // 2^63 itself (also what i64::MAX rounds to as a double) is out of range.
        assert_eq!(int("9223372036854775808"), None);
        assert_eq!(int("9223372036854775807"), None);
        assert_eq!(int("1.5"), None);
        assert_eq!(int("-0"), Some(0));
    }

    #[test]
    fn duplicate_keys_keep_the_last_occurrence() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }
}
