//! The dynamically typed JSON value.

use std::fmt;

/// A JSON number, preserving the integer/float distinction.
///
/// JSON itself has a single number type; we keep integers exact so that
/// identifiers, counters and sizes survive a round trip without precision
/// loss.
///
/// # Examples
///
/// ```
/// use cogsdk_json::{Json, Number};
///
/// let n = Json::from(42);
/// assert_eq!(n.as_i64(), Some(42));
/// assert_eq!(n.as_f64(), Some(42.0));
/// assert_eq!(Json::Number(Number::Float(0.5)).as_i64(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An exact signed integer.
    Int(i64),
    /// A double-precision float. Never NaN or infinite in a value produced
    /// by the parser; the serializer rejects non-finite floats.
    Float(f64),
}

impl Number {
    /// Returns the value as `f64`, widening integers.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// Returns the value as `i64` if it is an integer.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(x) => {
                let mag = x.abs();
                if mag != 0.0 && !(1e-5..1e15).contains(&mag) {
                    // Exponent notation: compact for extreme magnitudes, and
                    // the 'e' keeps the float/int distinction on round trip.
                    write!(f, "{x:e}")
                } else if x.fract() == 0.0 {
                    // Keep a trailing ".0" so the value re-parses as a float.
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// A JSON document: the wire format spoken by every simulated service.
///
/// Objects preserve insertion order (like most cognitive-service responses)
/// and allow duplicate-free access through [`Json::get`].
///
/// # Examples
///
/// ```
/// use cogsdk_json::{json, Json};
///
/// let mut resp = json!({"status": "ok"});
/// resp.insert("latency_ms", 12.5);
/// assert_eq!(resp.get("latency_ms").and_then(Json::as_f64), Some(12.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// The `null` literal.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number; see [`Number`].
    Number(Number),
    /// A UTF-8 string.
    String(String),
    /// An ordered sequence of values.
    Array(Vec<Json>),
    /// An insertion-ordered map of string keys to values.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`](crate::ParseJsonError) with the byte offset
    /// of the first violation if the input is not valid RFC 8259 JSON or if
    /// there is trailing non-whitespace input.
    pub fn parse(input: &str) -> Result<Json, crate::ParseJsonError> {
        crate::parse(input)
    }

    /// Returns an empty object. Convenient as a response builder seed.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Returns `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Returns the boolean if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Returns the value as `i64` if it is an integer number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Returns the value as `usize` if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// Returns the string slice if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array slice if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object entries if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key` in an object; `None` for non-objects or missing keys.
    ///
    /// If duplicate keys exist the *last* one wins, matching the behaviour of
    /// most deployed JSON parsers.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(o) => o.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the array element at `idx`; `None` for non-arrays or
    /// out-of-bounds indexes.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Array(a) => a.get(idx),
            _ => None,
        }
    }

    /// Inserts (or replaces) `key` in an object, turning `Null` into an
    /// object first. Returns the previous value, if any.
    ///
    /// # Panics
    ///
    /// Panics if `self` is a non-null, non-object value: inserting a key
    /// into, say, an array is always a logic error.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) -> Option<Json> {
        if self.is_null() {
            *self = Json::object();
        }
        let Json::Object(entries) = self else {
            panic!("Json::insert called on non-object value");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        entries.push((key, value));
        None
    }

    /// Appends `value` to an array, turning `Null` into an array first.
    ///
    /// # Panics
    ///
    /// Panics if `self` is a non-null, non-array value.
    pub fn push(&mut self, value: impl Into<Json>) {
        if self.is_null() {
            *self = Json::Array(Vec::new());
        }
        let Json::Array(items) = self else {
            panic!("Json::push called on non-array value");
        };
        items.push(value.into());
    }

    /// Resolves a JSON-Pointer-like path such as `/entities/0/name`.
    ///
    /// An empty path returns `self`. Unlike full RFC 6901 we do not support
    /// the `~0`/`~1` escapes; service payloads in this workspace never use
    /// `/` or `~` in keys.
    pub fn pointer(&self, path: &str) -> Option<&Json> {
        if path.is_empty() {
            return Some(self);
        }
        let mut cur = self;
        for part in path.strip_prefix('/')?.split('/') {
            cur = match cur {
                Json::Object(_) => cur.get(part)?,
                Json::Array(a) => a.get(part.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Serializes to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.size_bytes());
        self.write_to(&mut out);
        out
    }

    /// Appends the compact JSON text of `self` to `out`: the bytes of
    /// [`to_json`](Self::to_json), without a `String` of their own.
    ///
    /// # Panics
    ///
    /// Panics if the value contains a non-finite float, as `to_json` does.
    pub fn write_to(&self, out: &mut String) {
        crate::ser::write_value(out, self, None, 0);
    }

    /// Serializes to pretty-printed JSON text with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        crate::ser::to_pretty(self, 2)
    }

    /// Approximate in-memory/wire size of the value in bytes.
    ///
    /// Used by latency models that scale with payload size.
    pub fn size_bytes(&self) -> usize {
        match self {
            Json::Null => 4,
            Json::Bool(_) => 5,
            Json::Number(_) => 12,
            Json::String(s) => s.len() + 2,
            Json::Array(a) => 2 + a.iter().map(Json::size_bytes).sum::<usize>(),
            Json::Object(o) => {
                2 + o
                    .iter()
                    .map(|(k, v)| k.len() + 3 + v.size_bytes())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Number(Number::Int(i))
    }
}

impl From<i32> for Json {
    fn from(i: i32) -> Json {
        Json::Number(Number::Int(i64::from(i)))
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Number(Number::Int(i64::from(i)))
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Number(Number::Int(i as i64))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Number(Number::Float(x))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<Number> for Json {
    fn from(n: Number) -> Json {
        Json::Number(n)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl FromIterator<(String, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Json {
        Json::Object(iter.into_iter().collect())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Json {
        Json::Array(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn default_is_null() {
        assert!(Json::default().is_null());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = json!({"a": 1});
        assert_eq!(v.as_str(), None);
        assert_eq!(v.as_f64(), None);
        assert_eq!(v.as_bool(), None);
        assert_eq!(v.as_array(), None);
        assert!(v.as_object().is_some());
    }

    #[test]
    fn get_prefers_last_duplicate_key() {
        let v = Json::Object(vec![
            ("k".into(), Json::from(1)),
            ("k".into(), Json::from(2)),
        ]);
        assert_eq!(v.get("k").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn insert_replaces_existing_key_and_preserves_order() {
        let mut v = json!({"a": 1, "b": 2});
        let old = v.insert("a", 10);
        assert_eq!(old.and_then(|j| j.as_i64()), Some(1));
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn insert_on_null_creates_object() {
        let mut v = Json::Null;
        v.insert("x", true);
        assert_eq!(v.get("x").and_then(Json::as_bool), Some(true));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn insert_on_array_panics() {
        let mut v = json!([1]);
        v.insert("x", 1);
    }

    #[test]
    fn push_on_null_creates_array() {
        let mut v = Json::Null;
        v.push(1);
        v.push("two");
        assert_eq!(v.as_array().unwrap().len(), 2);
    }

    #[test]
    fn pointer_traverses_nested_structures() {
        let v = json!({"a": [{"b": [10, 20]}]});
        assert_eq!(v.pointer("/a/0/b/1").and_then(Json::as_i64), Some(20));
        assert_eq!(v.pointer(""), Some(&v));
        assert_eq!(v.pointer("/a/5"), None);
        assert_eq!(v.pointer("/a/0/b/x"), None);
        assert_eq!(v.pointer("no-leading-slash"), None);
    }

    #[test]
    fn number_display_keeps_float_marker() {
        assert_eq!(Number::Float(3.0).to_string(), "3.0");
        assert_eq!(Number::Int(3).to_string(), "3");
        assert_eq!(Number::Float(0.25).to_string(), "0.25");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Json::from(5i32).as_i64(), Some(5));
        assert_eq!(Json::from(5usize).as_i64(), Some(5));
        assert_eq!(Json::from("s").as_str(), Some("s"));
        assert_eq!(Json::from(vec![1, 2]).as_array().unwrap().len(), 2);
        assert!(Json::from(Option::<i64>::None).is_null());
        assert_eq!(Json::from(Some(7i64)).as_i64(), Some(7));
    }

    #[test]
    fn size_bytes_scales_with_content() {
        let small = json!({"k": "v"});
        let big = json!({"k": "a much longer value that occupies more bytes"});
        assert!(big.size_bytes() > small.size_bytes());
    }
}
