//! Offline drop-in subset of the [`serde`](https://docs.rs/serde) API.
//!
//! The build environment has no crates.io access, so this shim supplies the
//! slice of serde the workspace touches. Unlike upstream serde's
//! visitor-based architecture, the shim is a *value-tree* model: a type
//! serializes into a [`json::Value`] and deserializes back out of one, and
//! the [`json`] module renders that tree to and from JSON text. This is all
//! the `morph-store` characterization cache needs, while keeping the trait
//! *names* (and the `#[derive(Serialize, Deserialize)]` attributes) source
//! compatible with a future switch back to real `serde`.
//!
//! The derive macros still expand to nothing — types that are actually
//! persisted implement [`Serialize`] / [`Deserialize`] by hand in their home
//! crates, which keeps the encoding explicit and bit-exact (see the `f64`
//! impl below).
//!
//! ## Exact floating-point round-trips
//!
//! The store's contract is that artifacts reload *bit-identically*,
//! including non-finite and signed-zero values. JSON numbers cannot express
//! NaN/±∞ and decimal printing invites rounding drift, so `f64` serializes
//! as the 16-hex-digit big-endian [`f64::to_bits`] pattern (e.g. `1.0` ↔
//! `"3ff0000000000000"`). Similarly `u64`/`i64` map to native JSON integers
//! written digit-exact (never through an `f64`), so ledger counters above
//! 2⁵³ survive unchanged.

use std::collections::BTreeMap;

pub use serde_shim_derive::{Deserialize, Serialize};

use json::{FromValueError, Value};

/// Serialization into the shim's value tree (stand-in for
/// `serde::Serialize`).
pub trait Serialize {
    /// Encodes `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Deserialization out of the shim's value tree (stand-in for
/// `serde::Deserialize`).
pub trait Deserialize<'de>: Sized {
    /// Decodes an instance from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns a [`FromValueError`] describing the first structural or
    /// domain mismatch encountered.
    fn from_value(value: &Value) -> Result<Self, FromValueError>;
}

/// JSON value tree, parser, and writer backing the [`Serialize`] /
/// [`Deserialize`] traits.
pub mod json {
    use std::collections::BTreeMap;
    use std::fmt;

    /// A parsed JSON document.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A non-negative integer (digit-exact, full `u64` range).
        UInt(u64),
        /// A negative integer (digit-exact).
        Int(i64),
        /// A decimal number. Typed impls in this workspace never produce
        /// this variant (`f64` travels as a bit-pattern string); it exists
        /// so hand-written or foreign JSON still parses.
        Float(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object with sorted keys (canonical output ordering).
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The value under `key` when `self` is an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        /// Like [`Value::get`], but a missing key is an error naming it.
        ///
        /// # Errors
        ///
        /// Returns [`FromValueError`] when `self` is not an object or the
        /// key is absent.
        pub fn require(&self, key: &str) -> Result<&Value, FromValueError> {
            self.get(key)
                .ok_or_else(|| FromValueError::new(format!("missing field `{key}`")))
        }

        /// The integer value, when `self` is a `UInt` in range.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::UInt(n) => Some(*n),
                _ => None,
            }
        }

        /// The string slice, when `self` is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The element list, when `self` is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Error produced when a [`Value`] does not match the expected shape.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FromValueError {
        message: String,
    }

    impl FromValueError {
        /// An error with the given description.
        pub fn new(message: impl Into<String>) -> Self {
            FromValueError {
                message: message.into(),
            }
        }

        /// Convenience constructor for "expected X, found Y" mismatches.
        pub fn expected(what: &str, found: &Value) -> Self {
            let kind = match found {
                Value::Null => "null",
                Value::Bool(_) => "bool",
                Value::UInt(_) | Value::Int(_) => "integer",
                Value::Float(_) => "float",
                Value::Str(_) => "string",
                Value::Array(_) => "array",
                Value::Object(_) => "object",
            };
            FromValueError::new(format!("expected {what}, found {kind}"))
        }
    }

    impl fmt::Display for FromValueError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.message)
        }
    }

    impl std::error::Error for FromValueError {}

    /// Error produced by [`from_str`]: either the text is not JSON or the
    /// tree does not decode into the requested type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JsonError {
        /// Malformed JSON text, with a byte offset.
        Parse {
            /// Byte offset of the first offending character.
            offset: usize,
            /// What went wrong.
            message: String,
        },
        /// Well-formed JSON of the wrong shape.
        Decode(FromValueError),
    }

    impl fmt::Display for JsonError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                JsonError::Parse { offset, message } => {
                    write!(f, "JSON parse error at byte {offset}: {message}")
                }
                JsonError::Decode(e) => write!(f, "JSON decode error: {e}"),
            }
        }
    }

    impl std::error::Error for JsonError {}

    impl From<FromValueError> for JsonError {
        fn from(e: FromValueError) -> Self {
            JsonError::Decode(e)
        }
    }

    /// Renders a serializable value as compact JSON text.
    pub fn to_string<T: crate::Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        write_value(&value.to_value(), &mut out);
        out
    }

    /// Parses JSON text and decodes it into `T`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Parse`] on malformed text and
    /// [`JsonError::Decode`] when the tree has the wrong shape.
    pub fn from_str<T: for<'de> crate::Deserialize<'de>>(text: &str) -> Result<T, JsonError> {
        let value = parse(text)?;
        Ok(T::from_value(&value)?)
    }

    /// Parses JSON text into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Parse`] on malformed text (including trailing
    /// garbage after the document).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after JSON document"));
        }
        Ok(value)
    }

    fn err(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError::Parse {
            offset,
            message: message.into(),
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, token: &[u8]) -> Result<(), JsonError> {
        if bytes.len() - *pos >= token.len() && &bytes[*pos..*pos + token.len()] == token {
            *pos += token.len();
            Ok(())
        } else {
            Err(err(
                *pos,
                format!("expected `{}`", String::from_utf8_lossy(token)),
            ))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(err(*pos, "unexpected end of input")),
            Some(b'n') => expect(bytes, pos, b"null").map(|()| Value::Null),
            Some(b't') => expect(bytes, pos, b"true").map(|()| Value::Bool(true)),
            Some(b'f') => expect(bytes, pos, b"false").map(|()| Value::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(err(*pos, "expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(err(*pos, "expected `:` after object key"));
                    }
                    *pos += 1;
                    let value = parse_value(bytes, pos)?;
                    map.insert(key, value);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(err(*pos, "expected `,` or `}` in object")),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = parse_hex4(bytes, *pos + 1)?;
                            *pos += 4;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if bytes.get(*pos + 1) == Some(&b'\\')
                                    && bytes.get(*pos + 2) == Some(&b'u')
                                {
                                    let low = parse_hex4(bytes, *pos + 3)?;
                                    *pos += 6;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(err(*pos, "invalid \\u escape")),
                            }
                        }
                        _ => return Err(err(*pos, "invalid escape sequence")),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(err(*pos, "control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece. Those bytes are ASCII, so
                    // the run never splits a UTF-8 code point.
                    let start = *pos;
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(bytes.len(), |n| start + n);
                    match std::str::from_utf8(&bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(e) => {
                            return Err(err(start + e.valid_up_to(), "invalid UTF-8 in string"))
                        }
                    }
                    *pos = end;
                }
            }
        }
    }

    fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
        if at + 4 > bytes.len() {
            return Err(err(at, "truncated \\u escape"));
        }
        let mut code = 0u32;
        for &b in &bytes[at..at + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| err(at, "non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        if *pos == start {
            return Err(err(start, "expected value"));
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| err(start, "invalid number bytes"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(start, "malformed number"))
        } else if let Some(digits) = text.strip_prefix('-') {
            // Digit-exact negative integers; `-0` normalizes to `0`.
            match digits.parse::<u64>() {
                Ok(0) => Ok(Value::UInt(0)),
                _ => text
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| err(start, "integer out of range")),
            }
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| err(start, "integer out of range"))
        }
    }

    fn write_value(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest text that reparses to the
                    // same f64.
                    out.push_str(&format!("{x:?}"));
                } else {
                    // JSON has no NaN/Inf literal; typed code never writes
                    // non-finite floats (they travel as bit strings).
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(item, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    write_value(item, out);
                }
                out.push('}');
            }
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
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    impl Serialize for Value {
        fn to_value(&self) -> Value {
            self.clone()
        }
    }

    impl<'de> Deserialize<'de> for Value {
        fn from_value(value: &Value) -> Result<Self, FromValueError> {
            Ok(value.clone())
        }
    }

    use crate::{Deserialize, Serialize};
}

// ---------------------------------------------------------------------------
// Primitive impls shared by every crate's hand-written codecs.

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(FromValueError::expected("bool", other)),
        }
    }
}

macro_rules! impl_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn from_value(value: &Value) -> Result<Self, FromValueError> {
                match value {
                    Value::UInt(n) => <$ty>::try_from(*n).map_err(|_| {
                        FromValueError::new(format!(
                            "integer {n} out of range for {}",
                            stringify!($ty)
                        ))
                    }),
                    other => Err(FromValueError::expected("unsigned integer", other)),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl<'de> Deserialize<'de> for usize {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::UInt(n) => usize::try_from(*n)
                .map_err(|_| FromValueError::new(format!("integer {n} out of range for usize"))),
            other => Err(FromValueError::expected("unsigned integer", other)),
        }
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        if *self >= 0 {
            Value::UInt(*self as u64)
        } else {
            Value::Int(*self)
        }
    }
}

impl<'de> Deserialize<'de> for i64 {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => i64::try_from(*n)
                .map_err(|_| FromValueError::new(format!("integer {n} out of range for i64"))),
            other => Err(FromValueError::expected("integer", other)),
        }
    }
}

impl Serialize for f64 {
    /// Bit-exact encoding: the 16-hex-digit big-endian [`f64::to_bits`]
    /// pattern, so NaN payloads, ±∞, and signed zeros round-trip unchanged.
    fn to_value(&self) -> Value {
        Value::Str(format!("{:016x}", self.to_bits()))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Str(s) if s.len() == 16 => u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| FromValueError::new(format!("malformed f64 bit pattern {s:?}"))),
            Value::Str(s) => Err(FromValueError::new(format!(
                "malformed f64 bit pattern {s:?} (want 16 hex digits)"
            ))),
            other => Err(FromValueError::expected("f64 bit-pattern string", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(FromValueError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(FromValueError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(FromValueError::expected("2-element array", other)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(FromValueError::expected("object", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{from_str, parse, to_string, JsonError, Value};
    use super::*;

    #[test]
    fn primitives_round_trip_through_text() {
        let v: Vec<u64> = vec![0, 1, u64::MAX];
        let text = to_string(&v);
        assert_eq!(text, format!("[0,1,{}]", u64::MAX));
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        ] {
            let text = to_string(&x);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote\" back\\slash \n tab\t unicode é 💡".to_string();
        let back: String = from_str(&to_string(&s)).unwrap();
        assert_eq!(back, s);
        // Escaped supplementary-plane character (surrogate pair).
        let v = parse(r#""💡""#).unwrap();
        assert_eq!(v, Value::Str("💡".to_string()));
    }

    #[test]
    fn string_runs_stop_at_escapes_and_control_bytes() {
        let v = parse("\"ab é\\n💡c\\\"d\"").unwrap();
        assert_eq!(v, Value::Str("ab é\n💡c\"d".to_string()));
        assert_eq!(
            parse("\"abc\u{1}d\""),
            Err(JsonError::Parse {
                offset: 4,
                message: "control character in string".to_string(),
            })
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"unterminated"] {
            assert!(
                matches!(parse(bad), Err(JsonError::Parse { .. })),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn objects_parse_with_nested_values() {
        let v = parse(r#"{ "a": [1, -2, 3.5], "b": {"c": null}, "d": true }"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert!(v.get("missing").is_none());
        assert!(v.require("missing").is_err());
    }

    #[test]
    fn negative_and_large_integers_are_digit_exact() {
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        let back: i64 = from_str("-9007199254740993").unwrap();
        assert_eq!(back, -9_007_199_254_740_993); // beyond f64 precision
    }

    #[test]
    fn option_and_map_round_trip() {
        let some: Option<u32> = Some(5);
        let none: Option<u32> = None;
        assert_eq!(from_str::<Option<u32>>(&to_string(&some)).unwrap(), some);
        assert_eq!(from_str::<Option<u32>>(&to_string(&none)).unwrap(), none);

        let mut map = BTreeMap::new();
        map.insert("x".to_string(), 1u64);
        map.insert("y".to_string(), 2u64);
        let back: BTreeMap<String, u64> = from_str(&to_string(&map)).unwrap();
        assert_eq!(back, map);
    }
}
