//! Wire-format JSON: a minimal std-only value type with a strict parser
//! and a compact encoder.
//!
//! The serving layer speaks JSON because the paper's deployment target
//! (SQL Server Fuzzy Lookup) is driven by heterogeneous clients; a
//! self-describing text payload inside a binary length-prefixed frame
//! keeps the protocol debuggable with `nc` while still being cheap to
//! delimit. This is the workspace's one JSON codec: the benchmark's
//! `compare`, `fuzzymatch trace diff` and the `xtask` gates read their
//! reports back through it too.
//!
//! Numbers are `f64`, like real JSON; every integer the protocol carries
//! (tids, latencies, counters) is far below 2^53, so round-trips are
//! exact.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered fields; duplicate keys keep the last on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as `u64` (rejects negatives and non-integers above
    /// rounding noise).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serialize compactly (no whitespace).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Append the compact encoding to `out` (a frame writer encodes after
    /// its length prefix, into the buffer it sends).
    pub(crate) fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.encode_into(out);
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; degrade to null rather than emit garbage.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Nesting limit: protocol payloads are ~3 levels deep; a hostile frame
/// must not be able to overflow the parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} in object, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] in array, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not paired; protocol strings
                            // never contain them. Reject instead of
                            // emitting invalid scalar values.
                            out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` as one slice.
                    // Both are ASCII, so the run ends on a char boundary
                    // of the `&str` input, and the whole string costs one
                    // pass over its bytes.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let end = self.pos + run;
                    out.push_str(self.text.get(self.pos..end).ok_or("invalid UTF-8")?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips() {
        let doc = Json::obj(vec![
            ("verb", Json::from("lookup")),
            (
                "input",
                Json::Arr(vec![Json::from("Boeing \"Co\""), Json::Null]),
            ),
            ("k", Json::from(3u64)),
            ("c", Json::from(0.85)),
            ("flag", Json::from(true)),
        ]);
        let text = doc.encode();
        let back = parse(&text).expect("parse back");
        assert_eq!(back, doc);
        assert_eq!(back.get("k").and_then(Json::as_u64), Some(3));
        assert_eq!(back.get("c").and_then(Json::as_f64), Some(0.85));
        assert_eq!(back.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("verb").and_then(Json::as_str), Some("lookup"));
        assert_eq!(
            back.get("input").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn escapes_and_unicode() {
        let doc = Json::from("tab\t nl\n quote\" back\\ é∆");
        let text = doc.encode();
        assert_eq!(parse(&text).expect("escaped round trip"), doc);
        assert_eq!(
            parse(r#""\u0041\u00e9""#).expect("u-escapes"),
            Json::from("Aé")
        );
    }

    #[test]
    fn integers_encode_without_exponent() {
        assert_eq!(Json::from(1_234_567_890u64).encode(), "1234567890");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1, 2,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\": 1} extra",
            "tru",
            "1 2",
            "\"\\u12\"",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_literals_and_exponents() {
        let doc = parse(r#"{"name":"a\"b\\c\nd","args":[[1,-2.5e3],null,false]}"#).expect("nested");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b\\c\nd"));
        let args = doc.get("args").and_then(Json::as_arr).expect("args");
        assert_eq!(args[0], Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0)]));
        assert_eq!(args[1..], [Json::Null, Json::Bool(false)]);
    }

    #[test]
    fn empty_containers_and_whitespace() {
        assert_eq!(parse(" { } ").expect("object"), Json::Obj(vec![]));
        assert_eq!(parse("[]").expect("array"), Json::Arr(vec![]));
        assert_eq!(parse("  42  ").expect("number"), Json::Num(42.0));
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    /// Any char, weighted toward the ones the string scan treats
    /// specially: quotes and backslashes end a run, control characters
    /// are escaped, and multi-byte characters must not be split.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            2 => Just('"'),
            2 => Just('\\'),
            2 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('\0')),
            4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or(' ')),
            2 => (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_string_round_trips(chars in prop::collection::vec(any_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::from(s.as_str())]))]);
            prop_assert_eq!(parse(&doc.encode()), Ok(doc));
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let doc = parse(r#"{"a":1,"a":2}"#).expect("dup keys");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
    }
}
