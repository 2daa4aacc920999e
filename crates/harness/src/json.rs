//! A minimal JSON document model for the harness's machine-readable
//! reports (`repro scenario --json`, `repro adapt --json`), without
//! external dependencies.
//!
//! Objects keep insertion order and [`Json::to_pretty`] is deterministic, so
//! two runs of equal scale emit byte-identical files (CI `cmp`s them).
//! Numbers are `f64`: whole numbers below 9e15 print as integers,
//! everything else with two decimals.

use std::fmt::Write as _;

/// A JSON value. Object members keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see [`Json::to_pretty`] for the output format).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes with two-space indentation and a trailing newline, matching
    /// the style of the repo's other committed JSON artifacts. Whole numbers
    /// below 9e15 print as integers, every other number with two decimals.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

fn write_value(out: &mut String, value: &Json, indent: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                write_value(out, item, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push(']');
        }
        Json::Obj(members) if members.is_empty() => out.push_str("{}"),
        Json::Obj(members) => {
            out.push_str("{\n");
            for (i, (key, val)) in members.iter().enumerate() {
                pad(out, indent + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, val, indent + 1);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    // Whole numbers in the safe-integer range print without a fraction, so
    // counters stay grep-able; everything else keeps two decimals (the only
    // non-integers we emit are ratios).
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:.2}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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

    fn obj(members: &[(&str, Json)]) -> Json {
        Json::Obj(members.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn escapes_strings_and_prints_literals() {
        let doc = Json::Arr(vec![
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
            Json::Str("q\"b\\n\nt\tr\r".into()),
            Json::Str("\u{1}\u{1f}é".into()),
        ]);
        assert_eq!(
            doc.to_pretty(),
            concat!(
                "[\n  true,\n  false,\n  null,\n",
                "  \"q\\\"b\\\\n\\nt\\tr\\r\",\n",
                "  \"\\u0001\\u001fé\"\n]\n"
            )
        );
        // Keys go through the same escaping as values.
        assert_eq!(obj(&[("a\"b", Json::Null)]).to_pretty(), "{\n  \"a\\\"b\": null\n}\n");
    }

    #[test]
    fn empty_containers_print_inline() {
        assert_eq!(Json::Arr(Vec::new()).to_pretty(), "[]\n");
        assert_eq!(Json::Obj(Vec::new()).to_pretty(), "{}\n");
        let doc = obj(&[("rows", Json::Arr(Vec::new())), ("meta", Json::Obj(Vec::new()))]);
        assert_eq!(doc.to_pretty(), "{\n  \"rows\": [],\n  \"meta\": {}\n}\n");
    }

    #[test]
    fn nests_with_two_space_indent_in_insertion_order() {
        let doc = obj(&[
            ("bench", Json::Str("engine".into())),
            (
                "history",
                Json::Arr(vec![obj(&[
                    ("label", Json::Str("pre".into())),
                    ("rows", obj(&[("z", Json::Num(2.0)), ("a", Json::Num(1.0))])),
                ])]),
            ),
        ]);
        assert_eq!(
            doc.to_pretty(),
            concat!(
                "{\n  \"bench\": \"engine\",\n  \"history\": [\n    {\n",
                "      \"label\": \"pre\",\n      \"rows\": {\n",
                "        \"z\": 2,\n        \"a\": 1\n      }\n",
                "    }\n  ]\n}\n"
            )
        );
    }

    #[test]
    fn integers_print_exactly_and_fractions_with_two_decimals() {
        let nums = [0.0, -3.0, 5_320_311.0, 8_999_999_999_999_998.0, 1.5, -0.125, 2.0 / 3.0, 1e16];
        let doc = Json::Arr(nums.iter().map(|&n| Json::Num(n)).collect());
        assert_eq!(
            doc.to_pretty(),
            concat!(
                "[\n  0,\n  -3,\n  5320311,\n  8999999999999998,\n",
                "  1.50,\n  -0.12,\n  0.67,\n  10000000000000000.00\n]\n"
            )
        );
    }
}
