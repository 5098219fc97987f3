//! Self-contained JSON support for the cogsdk workspace.
//!
//! Cloud and cognitive services in the paper exchange payloads as JSON over
//! HTTP. This crate provides the wire format used throughout the simulated
//! service fabric: a dynamically typed [`Json`] value, a strict recursive
//! descent [`parser`](Json::parse), a compact and a pretty
//! [serializer](Json::to_string_pretty), a JSON-Pointer-style
//! [path accessor](Json::pointer), and a writer surface —
//! [`Json::write_to`], [`write_display`], [`JsonText`] — for bodies
//! rendered straight into one buffer.
//!
//! The implementation is deliberately dependency-free (the workspace policy
//! allows `serde` but not `serde_json`) and is strict RFC 8259 JSON: no
//! comments, no trailing commas, no NaN/Infinity literals.
//!
//! # Examples
//!
//! ```
//! use cogsdk_json::Json;
//!
//! # fn main() -> Result<(), cogsdk_json::ParseJsonError> {
//! let doc = Json::parse(r#"{"entities": [{"name": "USA", "salience": 0.9}]}"#)?;
//! let name = doc.pointer("/entities/0/name").and_then(Json::as_str);
//! assert_eq!(name, Some("USA"));
//! # Ok(())
//! # }
//! ```

mod parse;
mod ser;
mod value;

pub use parse::{parse, ParseJsonError};
pub use ser::{write_display, JsonText};
pub use value::{Json, Number};

/// Builds a [`Json`] value with JSON-like literal syntax.
///
/// Supports objects, arrays, strings, numbers, booleans, `null`, and splicing
/// arbitrary Rust expressions that implement `Into<Json>` (parenthesize
/// non-literal expressions).
///
/// # Examples
///
/// ```
/// use cogsdk_json::{json, Json};
///
/// let score = 0.75;
/// let v = json!({
///     "service": "nlu-alpha",
///     "scores": [(score), 1.0],
///     "ok": true,
///     "detail": null,
/// });
/// assert_eq!(v.pointer("/scores/0").and_then(Json::as_f64), Some(0.75));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    (true) => { $crate::Json::Bool(true) };
    (false) => { $crate::Json::Bool(false) };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Json::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $( $key:tt : $val:tt ),* $(,)? }) => {{
        let obj: Vec<(String, $crate::Json)> =
            vec![ $( ($key.to_string(), $crate::json!($val)) ),* ];
        $crate::Json::Object(obj)
    }};
    ($other:expr) => { $crate::Json::from($other) };
}
