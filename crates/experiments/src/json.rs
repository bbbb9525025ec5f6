//! Minimal JSON emission and extraction for machine-readable reports.
//!
//! The workspace builds offline, so there is no `serde_json`; a flat
//! report needs only a small, well-tested subset: build a [`JsonValue`]
//! tree, render it with [`JsonValue::render`], and pull single numeric
//! fields back out of a report with [`extract_number`].  Swap for a real
//! JSON crate if the build environment ever gains registry access.

use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.  Non-finite values render as `null`, since JSON
    /// has no representation for them.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Build a number value.
    pub fn num(n: impl Into<f64>) -> Self {
        JsonValue::Num(n.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if *n == n.trunc() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => Self::write_escaped(out, s),
            JsonValue::Array(items) => {
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
                    Self::pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                Self::pad(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    Self::pad(out, indent + 1);
                    Self::write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                Self::pad(out, indent);
                out.push('}');
            }
        }
    }

    fn pad(out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
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
}

/// Extract the first numeric value stored under `key` anywhere in `json`.
///
/// A deliberately small scanner, not a parser: it looks for the quoted key
/// followed by a colon and reads the number after it, skipping matches
/// inside string values.  Sufficient for flat metric fields; keys must be
/// unique per document for unambiguous reads.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(found) = json[from..].find(&needle) {
        let pos = from + found;
        from = pos + needle.len();
        // A genuine key opens its own quote at `pos`; if the prefix leaves
        // an unclosed string, this occurrence sits inside a value.
        if in_string(&json[..pos]) {
            continue;
        }
        let rest = json[from..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(rest.len());
        if let Ok(n) = rest[..end].parse::<f64>() {
            return Some(n);
        }
    }
    None
}

/// Whether the scan position sits inside an (unclosed) JSON string —
/// approximated by quote parity over the prefix, ignoring escaped quotes.
fn in_string(prefix: &str) -> bool {
    let mut inside = false;
    let mut escaped = false;
    for c in prefix.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => inside = !inside,
            _ => {}
        }
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null\n");
        assert_eq!(JsonValue::Bool(true).render(), "true\n");
        assert_eq!(JsonValue::num(42).render(), "42\n");
        assert_eq!(JsonValue::num(1.5).render(), "1.5\n");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null\n");
        assert_eq!(JsonValue::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn renders_nested_structure() {
        let v = JsonValue::object(vec![
            ("name", JsonValue::str("bench")),
            (
                "shards",
                JsonValue::Array(vec![JsonValue::num(1), JsonValue::num(2)]),
            ),
            ("empty", JsonValue::Array(vec![])),
            ("nested", JsonValue::object(vec![("x", JsonValue::num(3))])),
        ]);
        let text = v.render();
        assert!(text.starts_with("{\n  \"name\": \"bench\","));
        assert!(text.contains("\"shards\": [\n    1,\n    2\n  ]"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"nested\": {\n    \"x\": 3\n  }"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn extract_number_reads_rendered_fields() {
        let v = JsonValue::object(vec![
            ("throughput_tuples_per_s", JsonValue::num(12345.5)),
            (
                "note",
                JsonValue::str("throughput_tuples_per_s: not this 999"),
            ),
            ("negative", JsonValue::num(-2)),
            ("exponent", JsonValue::Num(1e-3)),
        ]);
        let text = v.render();
        assert_eq!(
            extract_number(&text, "throughput_tuples_per_s"),
            Some(12345.5)
        );
        assert_eq!(extract_number(&text, "negative"), Some(-2.0));
        assert_eq!(extract_number(&text, "exponent"), Some(0.001));
        assert_eq!(extract_number(&text, "missing"), None);
    }

    #[test]
    fn extract_number_skips_occurrences_inside_strings() {
        let text = r#"{ "label": "the \"headline\" metric", "headline": 7 }"#;
        assert_eq!(extract_number(text, "headline"), Some(7.0));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::num(8000.0).render(), "8000\n");
    }
}
