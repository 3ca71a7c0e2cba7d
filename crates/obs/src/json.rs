//! The workspace's one JSON model: [`Value`], its writer and a
//! validating parser.
//!
//! The container is offline, so no serde. Every JSON document the
//! workspace emits (figure tables, sweep reports, the `BENCH_*.json`
//! artifacts, the Chrome trace, probe JSONL) is built as a [`Value`]
//! and serialized by its [`Display`](std::fmt::Display) impl: compact
//! (no whitespace), object fields in insertion order, numbers as their
//! stored token. [`parse`] reads a document back into the same model,
//! so parsing a compact document and writing it again reproduces its
//! bytes. Numbers keep their raw token so `u64` counters survive
//! exactly. [`escape`] and [`fmt_f64`] expose the writer's string and
//! float tokens on their own.

use std::fmt::{self, Write as _};

/// Writes `s` as a JSON string literal, including the surrounding
/// quotes.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Escapes `s` as a JSON string, including the surrounding quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// Formats an `f64` as a JSON number token.
///
/// Uses Rust's shortest round-trip representation; non-finite values
/// (which JSON cannot carry) become `null`.
pub fn fmt_f64(v: f64) -> String {
    Value::from(v).to_string()
}

/// A JSON value: what [`parse`] returns and what every emitter builds.
///
/// Objects preserve key order; numbers keep their raw token (see
/// [`Value::as_u64`] / [`Value::as_f64`]). Build documents with the
/// `From` conversions (`u64`/`usize`, `f64`, `bool`, strings),
/// [`Value::obj`] and `collect()`; write them with `to_string()`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its token (verbatim from the source when
    /// parsed).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in insertion (or source) order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object with `fields` in the given order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is an integer token in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }
}

/// The writer: compact JSON, fields in order, number tokens verbatim.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(tok) => f.write_str(tok),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v.to_string())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v.to_string())
    }
}

/// Shortest round-trip token; non-finite values become `null`.
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Num(format!("{v:?}"))
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Checks that `src` is a well-formed JSON document.
///
/// # Errors
///
/// See [`parse`].
pub fn validate(src: &str) -> Result<(), String> {
    parse(src).map(|_| ())
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
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

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad number at byte {start}"));
            }
        }
        Ok(Value::Num(self.src[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not recombined; tests only
                            // need BMP round-trips.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control char at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte. All three are ASCII, so the run ends
                    // on a char boundary of the already-valid `src`.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fmt_f64_tokens() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_round_trip() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
    }

    #[test]
    fn exact_u64_survives() {
        let big = u64::MAX - 1;
        let v = parse(&format!("{{\"n\": {big}}}")).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\" 1}").is_err());
        assert!(validate("12 34").is_err());
        assert!(validate("\"unterminated").is_err());
    }

    #[test]
    fn writer_is_compact_and_ordered() {
        let doc = Value::obj([
            ("z", 1u64.into()),
            ("a", vec![0.5, 2.0, f64::NAN].into()),
            ("s", "q\"\u{1}".into()),
            ("o", Value::obj([("t", true.into()), ("n", Value::Null)])),
            ("e", Value::Arr(vec![])),
            ("u", usize::MAX.into()),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            format!(
                r#"{{"z":1,"a":[0.5,2.0,null],"s":"q\"\u0001","o":{{"t":true,"n":null}},"e":[],"u":{}}}"#,
                usize::MAX
            )
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn multi_mib_string_round_trips() {
        // Linear-time parse: a quadratic scan of the remaining input
        // per character would take minutes here.
        let unit = "plain ascii, \"quoted\", back\\slash, tab\t, nl\n, é, 漢字, 🦀; ";
        let big = unit.repeat((4 << 20) / unit.len());
        let text = Value::obj([("s", big.as_str().into())]).to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("s").and_then(Value::as_str), Some(big.as_str()));
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn escaped_emit_parses_back() {
        let nasty = "tab\there \"quoted\" back\\slash\nline";
        let doc = format!("{{{}: {}}}", escape("k"), escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }
}
