//! A small, deterministic JSON layer: value model, parser, writer, and the
//! [`ToJson`]/[`FromJson`] traits that replace `serde` in this workspace.
//!
//! JSON is written for the four reports' `stable_json`, the GBM model and
//! the `--obs` export records, and read back only for `--obs` exports and
//! GBM models. An export record is streamed through [`ObjectWriter`] alone
//! (meta, event and trace-step values are [`Json`] trees), so a record type
//! implements [`FromJson`] for the reader and [`ToJson`] only when another
//! path writes it. A type implements the traits only when one of those
//! paths writes or reads it.
//!
//! # Supported subset (and superset)
//!
//! The parser accepts standard JSON (RFC 8259): objects, arrays, strings
//! with `\uXXXX` escapes, numbers, `true`/`false`/`null`. Two deliberate
//! extensions make the layer total over those types:
//!
//! - The literals `NaN`, `Infinity`, and `-Infinity` are accepted and
//!   emitted for non-finite floats (GBM split thresholds can be NaN).
//! - Integers are kept exact: a literal without `.`/`e` parses into
//!   [`Json::UInt`]/[`Json::Int`] (full `u64`/`i64` range — object ids are
//!   hashes, so `f64`'s 53-bit mantissa would corrupt them). `u128` values
//!   beyond `u64::MAX` are written as decimal strings.
//!
//! Not supported (by design — nothing in the workspace needs them):
//! duplicate-key detection, `\u` surrogate pairs beyond the BMP are passed
//! through unpaired, and object key order is *preserved*, not sorted.
//!
//! # Determinism
//!
//! [`Json::to_string`](Json#method.to_string) is byte-deterministic:
//! fields serialize in insertion order and floats use Rust's shortest
//! round-trip formatting. `parse(write(v)) == v` and
//! `write(parse(s)) == s` for any `s` produced by the writer — the property
//! the GBM model round-trip test relies on.
//!
//! # Example
//!
//! ```
//! use lhr_util::json::{Json, ToJson, FromJson};
//!
//! let v = Json::parse(r#"{"name":"zipf","alpha":0.9,"n":100}"#).unwrap();
//! assert_eq!(f64::from_json(v.get("alpha").unwrap()).unwrap(), 0.9);
//! // Writer round-trips byte-identically.
//! assert_eq!(v.to_string(), r#"{"name":"zipf","alpha":0.9,"n":100}"#);
//! ```
//!
//! Deriving both traits for your own types is one macro call (fields must
//! themselves implement the traits):
//!
//! ```
//! use lhr_util::{impl_json, json::{ToJson, FromJson}};
//!
//! #[derive(Debug, PartialEq)]
//! struct SweepPoint { capacity: u64, hit_ratio: f64 }
//! impl_json!(struct SweepPoint { capacity, hit_ratio });
//!
//! let p = SweepPoint { capacity: 1 << 30, hit_ratio: 0.42 };
//! let text = p.to_json().to_string();
//! assert_eq!(SweepPoint::from_json(&Json::parse(&text).unwrap()).unwrap(), p);
//! # use lhr_util::json::Json;
//! ```

use std::fmt;

/// A parsed JSON value.
///
/// Numbers are split into three variants so integers survive exactly; the
/// writer maintains the invariant that [`Json::Int`] holds only negative
/// values (non-negative integers normalize to [`Json::UInt`]).
///
/// Equality compares floats by bit pattern (`NaN == NaN`, `-0.0 != 0.0`),
/// matching the byte-deterministic writer rather than IEEE semantics.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A float (including the non-finite extensions).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved.
    Object(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Float(a), Json::Float(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Array(a), Json::Array(b)) => a == b,
            (Json::Object(a), Json::Object(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Json {}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description, with byte offset for parse errors.
    pub msg: String,
}

impl JsonError {
    /// Builds an error from anything displayable.
    pub fn new(msg: impl fmt::Display) -> Self {
        JsonError {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document (one value, trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (for human-facing reports);
    /// same value model as the compact writer.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Appends the compact, byte-deterministic serialization to `out` —
    /// what [`to_string`](Json#method.to_string) returns, without the
    /// intermediate `String`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::UInt(u) => write_u64(*u, out),
            Json::Int(i) => {
                if *i >= 0 {
                    write_u64(*i as u64, out);
                } else {
                    out.push('-');
                    write_u64(i.unsigned_abs(), out);
                }
            }
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_str(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_to(out),
        }
    }
}

impl fmt::Display for Json {
    /// Compact, byte-deterministic serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `true` / `false`.
pub fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends an unsigned integer in decimal (stack-formatted, no allocation).
pub fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ascii"));
}

/// Appends a `u128` the way its [`ToJson`] impl spells it: a number up to
/// `u64::MAX`, a decimal string beyond.
pub fn write_u128(v: u128, out: &mut String) {
    match u64::try_from(v) {
        Ok(u) => write_u64(u, out),
        Err(_) => write_str(&v.to_string(), out),
    }
}

/// Appends a float: shortest round-trip digits, with the `NaN` /
/// `Infinity` / `-Infinity` / `-0.0` spellings the parser reads back.
pub fn write_f64(f: f64, out: &mut String) {
    use fmt::Write;
    if f.is_nan() {
        out.push_str("NaN");
    } else if f == f64::INFINITY {
        out.push_str("Infinity");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if f == 0.0 && f.is_sign_negative() {
        // Display would print "-0", which the parser must not normalize to
        // the unsigned integer 0; keep the float spelling.
        out.push_str("-0.0");
    } else if !write_micros(f, out) {
        // Rust's shortest-roundtrip Display; never exponent notation, never
        // a trailing ".0" — integral floats intentionally re-parse as
        // integer variants (the numeric value is identical).
        write!(out, "{f}").expect("writing to String cannot fail");
    }
}

/// The fast path of [`write_f64`] for a float that is a whole number of
/// millionths below 10⁹ — every trace timestamp (microseconds / 1e6), every
/// integral offset and count: appends what `Display` would and returns
/// true, or appends nothing.
///
/// Why the bytes are `Display`'s: the decimal `m / 10⁶` printed here parses
/// back to `f` (checked below — IEEE division of two exactly held integers
/// rounds as the parser does), and it has at most 15 significant digits.
/// Two different decimals that short never share a double, so no shorter
/// or equally short string round-trips, and `Display` prints the shortest
/// one, without an exponent.
fn write_micros(f: f64, out: &mut String) -> bool {
    let a = f.abs();
    if a.is_nan() || a >= 1e9 {
        return false;
    }
    let m = (a * 1e6 + 0.5) as u64;
    if m as f64 / 1e6 != a {
        return false;
    }
    if f < 0.0 {
        out.push('-');
    }
    write_u64(m / 1_000_000, out);
    let mut frac = m % 1_000_000;
    if frac != 0 {
        let mut digits = [b'0'; 6];
        let mut len = 6;
        while frac.is_multiple_of(10) {
            frac /= 10;
            len -= 1;
        }
        for d in digits[..len].iter_mut().rev() {
            *d = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        out.push('.');
        out.push_str(std::str::from_utf8(&digits[..len]).expect("digits are ascii"));
    }
    true
}

/// Appends a quoted, escaped string. Runs free of `"`, `\` and control
/// characters — whole keys and names, nearly always — are copied in one
/// piece.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every byte that needs escaping is ASCII, so `run..i` always
        // falls on character boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                use fmt::Write;
                write!(out, "\\u{b:04x}").expect("writing to String cannot fail");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Streams one compact JSON object into a caller-owned buffer, field by
/// field, through the same leaf formatters [`Json::write_to`] uses — so a
/// type that writes its fields in its [`ToJson`] order produces exactly the
/// bytes of `to_json().to_string()` without building the tree.
///
/// ```
/// use lhr_util::json::ObjectWriter;
///
/// let mut line = String::new();
/// let mut w = ObjectWriter::new(&mut line);
/// w.string("name", "zipf");
/// w.float("alpha", 0.9);
/// w.uint("n", 100);
/// w.end();
/// assert_eq!(line, r#"{"name":"zipf","alpha":0.9,"n":100}"#);
/// ```
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Writes the separator and `"key":`, and hands back the buffer for a
    /// value the typed methods below do not cover (a nested object or
    /// array).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(key, self.out);
        self.out.push(':');
        self.out
    }

    /// One unsigned-integer field.
    pub fn uint(&mut self, key: &str, v: u64) {
        write_u64(v, self.key(key));
    }

    /// One `u128` field (see [`write_u128`]).
    pub fn uint128(&mut self, key: &str, v: u128) {
        write_u128(v, self.key(key));
    }

    /// One float field.
    pub fn float(&mut self, key: &str, v: f64) {
        write_f64(v, self.key(key));
    }

    /// One boolean field.
    pub fn boolean(&mut self, key: &str, v: bool) {
        write_bool(v, self.key(key));
    }

    /// One string field.
    pub fn string(&mut self, key: &str, v: &str) {
        write_str(v, self.key(key));
    }

    /// One field holding an already-built value.
    pub fn json(&mut self, key: &str, v: &Json) {
        v.write_to(self.key(key));
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl fmt::Display) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
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
            Some(b'N') => self.literal("NaN", Json::Float(f64::NAN)),
            Some(b'I') => self.literal("Infinity", Json::Float(f64::INFINITY)),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free ASCII/UTF-8 run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| self.err(format!("invalid utf-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.peek() == Some(b'I') {
                return self.literal("Infinity", Json::Float(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Some(digits) = text.strip_prefix('-') {
                if let Ok(i) = text.parse::<i64>() {
                    // "-0" must stay a float so the writer round-trips it.
                    if i == 0 && digits.chars().all(|c| c == '0') {
                        return Ok(Json::Float(-0.0));
                    }
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::new(format!("bad number `{text}` at byte {start}")))
    }
}

/// Serialization into the [`Json`] value model.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Deserialization from the [`Json`] value model.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, failing with a description of the mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Extracts and converts a required object field — the building block the
/// [`impl_json!`] macro expands to.
pub fn field<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    let inner = v
        .get(key)
        .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))?;
    T::from_json(inner).map_err(|e| JsonError::new(format!("field `{key}`: {}", e.msg)))
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::UInt(_) | Json::Int(_) => "integer",
        Json::Float(_) => "float",
        Json::Str(_) => "string",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    }
}

fn expected(what: &str, v: &Json) -> JsonError {
    JsonError::new(format!("expected {what}, found {}", type_name(v)))
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(expected("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(expected("string", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

macro_rules! json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = match *v {
                    Json::UInt(u) => u,
                    Json::Int(i) if i >= 0 => i as u64,
                    ref other => return Err(expected("unsigned integer", other)),
                };
                <$t>::try_from(u)
                    .map_err(|_| JsonError::new(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

json_uint!(u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        match u64::try_from(*self) {
            Ok(u) => Json::UInt(u),
            Err(_) => Json::Int(*self),
        }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match *v {
            Json::Int(i) => Ok(i),
            Json::UInt(u) => {
                i64::try_from(u).map_err(|_| JsonError::new(format!("{u} out of range for i64")))
            }
            ref other => Err(expected("integer", other)),
        }
    }
}

impl ToJson for u128 {
    /// Values above `u64::MAX` are written as decimal strings (JSON numbers
    /// would lose precision in readers that coerce to doubles).
    fn to_json(&self) -> Json {
        match u64::try_from(*self) {
            Ok(u) => Json::UInt(u),
            Err(_) => Json::Str(self.to_string()),
        }
    }
}

impl FromJson for u128 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::UInt(u) => Ok(*u as u128),
            Json::Int(i) if *i >= 0 => Ok(*i as u128),
            Json::Str(s) => s
                .parse::<u128>()
                .map_err(|e| JsonError::new(format!("bad u128 string: {e}"))),
            other => Err(expected("unsigned integer or decimal string", other)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| expected("number", v))
    }
}

impl ToJson for f32 {
    /// Widening to `f64` is exact, so `f32` values survive bit-for-bit.
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(expected("array", other)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(expected("2-element array", other)),
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

/// Implements [`ToJson`] + [`FromJson`] for a struct or enum — the
/// replacement for `#[derive(Serialize, Deserialize)]`.
///
/// Two shapes are supported:
///
/// - `impl_json!(struct Name { field_a, field_b })` — named-field structs,
///   serialized as an object in declaration order;
/// - `impl_json!(enum Name { A, B })` — unit-variant enums, serialized as
///   the variant-name string.
///
/// The macro must be invoked where the type's fields are visible (same
/// module for private fields).
///
/// ```
/// use lhr_util::{impl_json, json::{Json, ToJson, FromJson}};
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Warmup, Measure }
/// impl_json!(enum Mode { Warmup, Measure });
///
/// assert_eq!(Mode::Warmup.to_json().to_string(), r#""Warmup""#);
/// let back = Mode::from_json(&Json::parse(r#""Measure""#).unwrap()).unwrap();
/// assert_eq!(back, Mode::Measure);
/// ```
#[macro_export]
macro_rules! impl_json {
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($name { $($field: $crate::json::field(v, stringify!($field))?,)+ })
            }
        }
    };
    (enum $name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($name::$variant => $crate::json::Json::Str(stringify!($variant).to_string()),)+
                }
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $($crate::json::Json::Str(s) if s == stringify!($variant) =>
                        Ok($name::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "expected one of the {} variant names, found {}",
                        stringify!($name),
                        other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) {
        let v = Json::parse(text).expect(text);
        assert_eq!(v.to_string(), text, "writer diverged for {text}");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn scalar_roundtrips_are_byte_identical() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "42",
            "-7",
            "18446744073709551615",
            "-9223372036854775808",
            "0.5",
            "-0.0",
            "1.25e300",
            "NaN",
            "Infinity",
            "-Infinity",
            r#""hello""#,
            r#""tab\tnewline\nquote\"""#,
            r#"[1,2.5,"x",null]"#,
            r#"{"a":1,"b":[true,{"c":"d"}]}"#,
            "[]",
            "{}",
        ] {
            let v = Json::parse(text).expect(text);
            let written = v.to_string();
            let v2 = Json::parse(&written).unwrap();
            assert_eq!(written, v2.to_string(), "unstable writer for {text}");
            match (&v, &v2) {
                (Json::Float(a), Json::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "float bits changed for {text}")
                }
                _ => assert_eq!(v, v2),
            }
        }
    }

    #[test]
    fn canonical_texts_reserialize_exactly() {
        for text in [
            "0",
            "42",
            "-7",
            "0.5",
            "-0.0",
            "NaN",
            r#"{"a":1,"b":[true,null],"c":"x"}"#,
            "[1,2,3]",
        ] {
            roundtrip(text);
        }
    }

    #[test]
    fn large_u64_survives_exactly() {
        let id = u64::MAX - 12345;
        let v = id.to_json();
        let back = u64::from_json(&Json::parse(&v.to_string()).unwrap()).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn u128_string_fallback() {
        let big: u128 = u64::MAX as u128 * 1000;
        let text = big.to_json().to_string();
        assert!(text.starts_with('"'));
        let back = u128::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, big);
        // Small u128s stay numeric.
        assert_eq!(7u128.to_json(), Json::UInt(7));
    }

    #[test]
    fn f32_survives_exactly() {
        for x in [0.1f32, f32::MIN_POSITIVE, 3.4e38, -0.0, 1.0 / 3.0] {
            let text = x.to_json().to_string();
            let back = f32::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {text} → {back}");
        }
        let nan_text = f32::NAN.to_json().to_string();
        assert!(f32::from_json(&Json::parse(&nan_text).unwrap())
            .unwrap()
            .is_nan());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        let Some(Json::Array(items)) = v.get("k") else {
            panic!("`k` is not an array: {v}");
        };
        assert_eq!(items[1].as_str().unwrap(), "A\n");
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "tru",
            "{\"a\" 1}",
            "",
            "1 2",
            "{'a':1}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.msg.contains("byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn option_vec_tuple_impls() {
        let v: Option<u32> = None;
        assert_eq!(v.to_json(), Json::Null);
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json(&Json::UInt(3)).unwrap(), Some(3));

        let pairs: Vec<(u64, f64)> = vec![(1, 0.5), (2, 0.25)];
        let text = pairs.to_json().to_string();
        assert_eq!(text, "[[1,0.5],[2,0.25]]");
        assert_eq!(
            Vec::<(u64, f64)>::from_json(&Json::parse(&text).unwrap()).unwrap(),
            pairs
        );
    }

    #[test]
    fn negative_zero_float_round_trips() {
        let z = -0.0f64;
        let text = z.to_json().to_string();
        assert_eq!(text, "-0.0");
        let back = f64::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back == 0.0 && back.is_sign_negative());
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        id: u64,
        weight: f32,
    }
    impl_json!(struct Inner { id, weight });

    #[derive(Debug, PartialEq)]
    struct Outer {
        name: String,
        items: Vec<Inner>,
        note: Option<String>,
    }
    impl_json!(struct Outer { name, items, note });

    #[derive(Debug, PartialEq)]
    enum Tag {
        Alpha,
        Beta,
    }
    impl_json!(
        enum Tag {
            Alpha,
            Beta,
        }
    );

    #[test]
    fn macro_struct_roundtrip() {
        let o = Outer {
            name: "x".into(),
            items: vec![
                Inner { id: 1, weight: 0.5 },
                Inner {
                    id: u64::MAX,
                    weight: -1.5,
                },
            ],
            note: None,
        };
        let text = o.to_json().to_string();
        let back = Outer::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
        // And the serialized text itself is stable.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn macro_enum_roundtrips() {
        for t in [Tag::Alpha, Tag::Beta] {
            let text = t.to_json().to_string();
            assert_eq!(Tag::from_json(&Json::parse(&text).unwrap()).unwrap(), t);
        }
        assert!(Tag::from_json(&Json::parse(r#""Gamma""#).unwrap()).is_err());
    }

    #[test]
    fn missing_field_error_names_the_field() {
        let err = Inner::from_json(&Json::parse(r#"{"id":1}"#).unwrap()).unwrap_err();
        assert!(err.msg.contains("weight"), "{err}");
    }

    #[test]
    fn pretty_printer_is_reparseable() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":null},"d":[]}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }
}
