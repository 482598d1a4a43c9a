//! The workspace's one JSON implementation: value, emitter and parser.
//!
//! The workspace deliberately has no JSON dependency; [`Json`] covers the
//! subset the run manifests, event schedules and JSONL telemetry streams
//! need (objects, arrays, strings, numbers) with correct string escaping
//! and round-trippable float formatting. [`Json::parse`] is the matching
//! reader — it accepts anything the emitter produces (and ordinary
//! hand-edited JSON), so `rla_diff` loads manifests back and `rla_top`
//! reads timeline and heartbeat lines through the same code. A torn or
//! foreign line is an `Err`, never a panic: a tailing consumer skips it.
//! Nesting is bounded by [`MAX_DEPTH`], so no input can overflow the
//! recursive-descent parser's stack either.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value. Build with the `From` impls and [`Json::obj`] /
/// [`Json::arr`]; render with [`Json::pretty`]; read back with
/// [`Json::parse`] and the accessors ([`Json::get`], [`Json::as_f64`],
/// ...).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A float (non-finite values render as `null`).
    Num(f64),
    /// An unsigned integer, rendered without a decimal point.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
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
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// Two-space-indented rendering with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest string that parses back
                    // to the same value; force a decimal point so the
                    // field stays float-typed for readers.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => escape_into(s, out),
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
                    push_indent(out, indent + 1);
                    item.render(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Error from [`Json::parse`]: the byte offset the parser stopped at and
/// what it expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and an unbounded line of `[`s would overflow
/// the thread's stack — an abort, not a panic. Manifests nest fewer than
/// ten levels.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a JSON document. Integer tokens without sign, fraction or
    /// exponent that fit a `u64` become [`Json::Int`] (the counter type);
    /// every other number becomes [`Json::Num`], matching what the
    /// emitter writes for gauges. Nesting deeper than [`MAX_DEPTH`] is an
    /// error at the bracket that exceeds it.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the JSON value"));
        }
        Ok(v)
    }

    /// Field lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an `Int` or `Num`; `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value of an `Int`; `None` otherwise (including `Num`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of a `Str`; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an `Arr`; `None` otherwise.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` fields of an `Obj`; `None` otherwise.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xdc00..0xe000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Four hex digits after `\u`; advances past them.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..end];
        // Not `from_str_radix`, which would take a leading `+`.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let v = digits
            .iter()
            .fold(0, |v, &d| v << 4 | char::from(d).to_digit(16).unwrap_or(0));
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = self.pos > start && self.bytes[start] != b'-';
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            })
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Append `s` as a quoted JSON string. The one escaper in the workspace:
/// the manifest emitter, the timeline stream and the sweep heartbeat all
/// write strings through it.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escapes_and_numbers() {
        let j = Json::obj(vec![
            ("s", "a\"b\\c\nd".into()),
            ("f", 1.5.into()),
            ("whole", 3.0.into()),
            ("i", 7u64.into()),
            ("nan", f64::NAN.into()),
            ("arr", Json::arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::obj(vec![])),
        ]);
        let s = j.pretty();
        assert!(s.contains(r#""s": "a\"b\\c\nd""#), "{s}");
        assert!(s.contains(r#""f": 1.5"#), "{s}");
        assert!(s.contains(r#""whole": 3.0"#), "floats keep a point: {s}");
        assert!(s.contains(r#""i": 7"#), "{s}");
        assert!(s.contains(r#""nan": null"#), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn parse_round_trips_the_emitter() {
        let j = Json::obj(vec![
            ("s", "a\"b\\c\nd — ünïcode".into()),
            ("f", 1.5.into()),
            ("neg", Json::Num(-2.25)),
            ("whole", 3.0.into()),
            ("i", u64::MAX.into()),
            ("nan", f64::NAN.into()),
            (
                "arr",
                Json::arr(vec![Json::Bool(true), Json::Null, 7u64.into()]),
            ),
            ("empty_obj", Json::obj(vec![])),
            ("empty_arr", Json::arr(vec![])),
        ]);
        let text = j.pretty();
        let back = Json::parse(&text).expect("round trip");
        // NaN was emitted as null, so compare the re-rendered text.
        assert_eq!(back.pretty(), text);
        // Counters stay integers, gauges stay floats.
        assert_eq!(back.get("i").and_then(Json::as_u64), Some(u64::MAX));
        assert!(matches!(back.get("whole"), Some(Json::Num(v)) if *v == 3.0));
        assert_eq!(
            back.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd — ünïcode")
        );
        assert_eq!(
            back.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn parse_accepts_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"{"k": "Aé😀\t"}"#).expect("escapes");
        assert_eq!(v.get("k").and_then(Json::as_str), Some("Aé😀\t"));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("at byte 4"), "{err}");
    }

    #[test]
    fn accessors_navigate_the_manifest_schema() {
        let text = "{\n  \"binary\": \"fig7\",\n  \"runs\": [\n    {\"seed\": 3, \"registry\": {\"net.offered\": 10, \"chan.L1.utilization\": 0.5}}\n  ]\n}\n";
        let m = Json::parse(text).expect("parse");
        assert_eq!(m.get("binary").and_then(Json::as_str), Some("fig7"));
        let run = &m.get("runs").and_then(Json::as_arr).expect("runs")[0];
        assert_eq!(run.get("seed").and_then(Json::as_u64), Some(3));
        let reg = run
            .get("registry")
            .and_then(Json::as_obj)
            .expect("registry");
        assert_eq!(reg.len(), 2);
        assert_eq!(
            run.get("registry")
                .and_then(|r| r.get("chan.L1.utilization"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.get("runs").and_then(Json::as_str), None);
    }

    #[test]
    fn jsonl_lines_parse_and_torn_ones_are_errors() {
        let r = Json::parse(r#"{"t":12.5,"series":"rla.0","kind":"rla","cwnd":10.5,"rtt":0.25}"#)
            .unwrap();
        assert_eq!(r.get("t").and_then(Json::as_f64), Some(12.5));
        assert_eq!(r.get("series").and_then(Json::as_str), Some("rla.0"));
        let p = Json::parse(
            r#"{"job":3,"total":20,"case":"L21","ev_per_s":1950000.0,"eta_secs":null}"#,
        )
        .unwrap();
        assert_eq!(p.get("job").and_then(Json::as_f64), Some(3.0));
        assert_eq!(p.get("eta_secs"), Some(&Json::Null));
        // Nested values sit beside the scalars a reader picks out.
        let n = Json::parse(r#"{"a":{"x":[1,2,"}"]},"b":7}"#).unwrap();
        assert_eq!(n.get("b").and_then(Json::as_f64), Some(7.0));
        // Blank, foreign and torn lines are errors a tailing consumer
        // skips — never a panic.
        for bad in [
            "",
            "t_secs,series,kind",
            r#"{"a":1"#,
            r#"{"b":"#,
            "{\"s\":\"\\u00",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(Vec::new()));
    }

    /// `depth` nested arrays, or objects `{"k":…}`, around `0`; closed or
    /// left torn.
    fn nested(depth: usize, objects: bool, closed: bool) -> String {
        let (open, close) = if objects {
            ("{\"k\":", "}")
        } else {
            ("[", "]")
        };
        let mut s = open.repeat(depth) + "0";
        if closed {
            s += &close.repeat(depth);
        }
        s
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_at_its_bracket() {
        for objects in [false, true] {
            let ok = Json::parse(&nested(MAX_DEPTH, objects, true)).expect("at the limit");
            assert_eq!(ok.pretty().matches('0').count(), 1);
            let open = if objects { 5 } else { 1 };
            for (depth, closed) in [(MAX_DEPTH + 1, true), (100_000, false)] {
                let err = Json::parse(&nested(depth, objects, closed)).unwrap_err();
                assert_eq!(err.offset, MAX_DEPTH * open, "{err}");
                assert!(err.message.contains("nesting deeper than 128"), "{err}");
            }
        }
    }

    #[test]
    fn a_surrogate_escape_needs_its_partner() {
        let pair = Json::parse(r#""\ud83d\ude00""#).expect("a pair");
        assert_eq!(pair.as_str(), Some("😀"));
        for bad in [
            r#""\ud800\uffff""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
            r#""\u+041""#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.message.contains("\\u escape"), "{bad}: {err}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            tokens in proptest::collection::vec(0usize..20, 0..64),
        ) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            // Mostly JSON: the parser gets past its first byte.
            const ALPHABET: [&str; 20] = [
                "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "d83d", "dc00",
                "0", "-1.5e3", "18446744073709551616", "null", "tru", " ", "\"k\":",
                "é", "\u{1}",
            ];
            let text: String = tokens.iter().map(|&t| ALPHABET[t]).collect();
            if let Ok(v) = Json::parse(&text) {
                proptest::prop_assert_eq!(Json::parse(&v.pretty()), Ok(v));
            }
        }

        #[test]
        fn any_nesting_depth_parses_or_errs(
            depth in 0usize..100_001,
            objects in proptest::prelude::any::<bool>(),
            closed in proptest::prelude::any::<bool>(),
        ) {
            let parsed = Json::parse(&nested(depth, objects, closed));
            proptest::prop_assert_eq!(parsed.is_ok(), closed && depth <= MAX_DEPTH);
        }
    }
}
