//! Compact and pretty JSON serialization, and the writer surface for
//! bodies rendered straight into a buffer: [`Json::write_to`],
//! [`write_display`] and the finished text, [`JsonText`].

use crate::Json;
use std::fmt::{self, Write as _};

/// Serializes `value` pretty-printed with `indent` spaces per level.
pub(crate) fn to_pretty(value: &Json, indent: usize) -> String {
    let mut out = String::with_capacity(value.size_bytes());
    write_value(&mut out, value, Some(indent), 0);
    out
}

/// Appends `value`, pretty-printing with the given indent width if
/// `indent` is `Some`.
///
/// # Panics
///
/// Panics if the value contains a non-finite float; such a value cannot be
/// represented in JSON and indicates a bug in the producer.
pub(crate) fn write_value(out: &mut String, value: &Json, indent: Option<usize>, level: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Number(n) => {
            assert!(
                n.as_f64().is_finite(),
                "cannot serialize non-finite number to JSON"
            );
            let _ = write!(out, "{n}");
        }
        Json::String(s) => write_string(out, s),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Json::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` escaped for the inside of a JSON string literal, copying
/// each run of characters that needs no escape with one `push_str`.
/// Every escaped character is ASCII, and no byte of a multi-byte UTF-8
/// sequence is, so scanning bytes only ever splits `s` at character
/// boundaries — and escaping a text piece by piece equals escaping it
/// whole.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A [`fmt::Write`] sink that escapes every piece it receives into the
/// inside of a JSON string literal.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Appends `value`'s [`Display`](fmt::Display) text to `out` as a JSON
/// string literal, escaping it as it is formatted: the same bytes as
/// `Json::from(value.to_string()).to_json()`, without the intermediate
/// `String`.
///
/// # Examples
///
/// ```
/// let mut out = String::from("[");
/// cogsdk_json::write_display(&mut out, format_args!("a\"{}", 1));
/// out.push(']');
/// assert_eq!(out, r#"["a\"1"]"#);
/// ```
pub fn write_display(out: &mut String, value: impl fmt::Display) {
    out.push('"');
    // `Escaper` never fails, so neither does the write.
    let _ = write!(Escaper(out), "{value}");
    out.push('"');
}

/// A serialised JSON body: one compact JSON value, written once and
/// served as is.
///
/// Build one from a [`Json`] tree with `From`, or from text written with
/// [`Json::write_to`] and [`write_display`] with
/// [`from_written`](Self::from_written).
///
/// # Examples
///
/// ```
/// use cogsdk_json::{json, JsonText};
///
/// let text = JsonText::from(json!({"ok": true}));
/// assert_eq!(text.as_str(), r#"{"ok":true}"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonText(String);

impl JsonText {
    /// Wraps text its writer built as one compact JSON value. The text is
    /// not re-checked in release builds; debug builds parse it.
    pub fn from_written(text: String) -> JsonText {
        debug_assert!(
            crate::parse(&text).is_ok(),
            "written text is not one JSON value: {text}"
        );
        JsonText(text)
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The text, without copying it.
    pub fn into_string(self) -> String {
        self.0
    }

    /// A copy of the text, as [`Json::to_json`] would render the value.
    pub fn to_json(&self) -> String {
        self.0.clone()
    }
}

impl From<Json> for JsonText {
    fn from(value: Json) -> JsonText {
        JsonText(value.to_json())
    }
}

#[cfg(test)]
mod tests {
    use crate::{json, Json};

    #[test]
    fn compact_output() {
        let v = json!({"a": [1, 2.5, "x"], "b": null, "c": false});
        assert_eq!(v.to_json(), r#"{"a":[1,2.5,"x"],"b":null,"c":false}"#);
    }

    #[test]
    fn pretty_output_indents() {
        let v = json!({"a": [1]});
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(json!([]).to_json(), "[]");
        assert_eq!(Json::object().to_json(), "{}");
        assert_eq!(json!([]).to_string_pretty(), "[]");
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let v = Json::from("a\"b\\c\nd\u{0001}e");
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn run_copying_matches_a_char_by_char_escaper() {
        // The reference escapes one char at a time.
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{0008}' => out.push_str("\\b"),
                    '\u{000C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let ascii: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain",
            ascii.as_str(),
            "é\"ü\n日本\u{1F600}\\\u{7f}\u{1}",
            "\u{1F600}",
            "\"\"",
            "tail\\",
        ] {
            assert_eq!(Json::from(s).to_json(), reference(s), "{s:?}");
        }
    }

    #[test]
    fn write_display_escapes_across_write_str_boundaries() {
        use std::fmt;
        // Emits its text in pieces: a quote ends one piece, a control
        // byte starts the next, and a multi-byte character sits on each
        // side of a boundary.
        struct Pieces(&'static [&'static str]);
        impl fmt::Display for Pieces {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.iter().try_for_each(|piece| f.write_str(piece))
            }
        }
        for pieces in [
            &["a\"", "\u{1}b", "é", "日本", "\\", "\n\u{1F600}"][..],
            &["", "\"", "", "ü"],
            &[],
        ] {
            let value = Pieces(pieces);
            let mut out = String::from("[1,");
            super::write_display(&mut out, &value);
            assert_eq!(
                out,
                format!("[1,{}", Json::from(value.to_string()).to_json()),
                "{pieces:?}"
            );
        }
    }

    #[test]
    fn float_round_trip_keeps_type() {
        let v = json!({"x": 3.0});
        let back = Json::parse(&v.to_json()).unwrap();
        assert_eq!(back.pointer("/x").and_then(Json::as_f64), Some(3.0));
        assert!(back.pointer("/x").and_then(Json::as_i64).is_none());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_float_panics() {
        let _ = Json::from(f64::NAN).to_json();
    }
}
