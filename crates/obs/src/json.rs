//! A minimal hand-rolled JSON codec for the telemetry stream.
//!
//! The workspace builds with zero external dependencies, so the JSONL
//! emitter ([`JsonlRecorder`](crate::JsonlRecorder)) and its consumers
//! (the coordinator's progress ingestion, `campaign_watch`) share this
//! small escape/parse pair instead of serde. It follows the same
//! line-oriented discipline as the `ba-dist` wire format: one
//! self-contained record per line, strict parse, no streaming state.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key order (telemetry lines are
/// emitted with a fixed key order, so round-trips are byte-stable).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; telemetry values fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The deepest nesting of arrays and objects [`parse_json_line`] accepts.
/// The parser recurses once per level, so a cap keeps a hostile line from
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON line. Returns `None` on any syntax error, trailing
/// garbage or nesting deeper than 128 levels — telemetry consumers skip
/// unparseable lines rather than fail.
pub fn parse_json_line(line: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(value)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.bytes.get(self.pos)? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses an array or object one level deeper; `None` past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Json>) -> Option<Json> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(fields));
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
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 code point from the remainder.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_and_nested_objects() {
        let line = r#"{"type":"point","shard":1,"done":3,"rate":12.5,"ok":true,"labels":{"adv":"none"},"xs":[1,2]}"#;
        let v = parse_json_line(line).expect("parses");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("point"));
        assert_eq!(v.get("shard").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(12.5));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("labels")
                .and_then(|l| l.get("adv"))
                .and_then(Json::as_str),
            Some("none")
        );
        assert_eq!(
            v.get("xs"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}π";
        let line = format!("{{\"k\":\"{}\"}}", json_escape(nasty));
        let v = parse_json_line(&line).expect("parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_garbage_and_trailing_content() {
        assert_eq!(parse_json_line("not json"), None);
        assert_eq!(parse_json_line("{\"a\":1} trailing"), None);
        assert_eq!(parse_json_line("{\"a\":}"), None);
        assert_eq!(parse_json_line(""), None);
        // Wire-format lines (the shard report) never parse as JSON.
        assert_eq!(parse_json_line("report count=3"), None);
        // Nesting past the depth cap is rejected, not a stack overflow.
        assert_eq!(parse_json_line(&"[".repeat(200_000)), None);
    }

    #[test]
    fn negative_and_fractional_numbers() {
        let v = parse_json_line("{\"a\":-3,\"b\":2.5e2}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(v.get("a").and_then(Json::as_u64), None);
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(250));
    }
}
