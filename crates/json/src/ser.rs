//! Compact and pretty JSON serialization.

use crate::Json;
use std::fmt::Write as _;

/// Serializes `value`, pretty-printing with the given indent width if
/// `indent` is `Some`.
///
/// # Panics
///
/// Panics if the value contains a non-finite float; such a value cannot be
/// represented in JSON and indicates a bug in the producer.
pub(crate) fn to_string(value: &Json, indent: Option<usize>) -> String {
    let mut out = String::with_capacity(value.size_bytes());
    write_value(&mut out, value, indent, 0);
    out
}

fn write_value(out: &mut String, value: &Json, indent: Option<usize>, level: usize) {
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

/// Writes `s` as a JSON string literal, copying each run of characters
/// that needs no escape with one `push_str`. Every escaped character is
/// ASCII, and no byte of a multi-byte UTF-8 sequence is, so scanning
/// bytes only ever splits `s` at character boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
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
