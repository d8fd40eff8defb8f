//! The one JSON writer of the benchmark. Every file and every result line
//! the harness emits is a [`Json`] tree rendered here, and the tests
//! round-trip it through `disco_telemetry::validate_json`.

use disco_telemetry::trace::escape_json;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Rendered with every digit Rust's shortest round-trip form gives;
    /// NaN and infinities have no JSON form and render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces: the form of a result line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    let _ = write!(out, "\"{}\":", escape_json(k));
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_telemetry::validate_json;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::str("a \"quoted\"\nname\t\\")),
            ("count", Json::Int(u64::MAX)),
            ("value", Json::Num(1.2034e-7)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                Json::Arr(vec![Json::obj([("k", Json::Num(-0.5))]), Json::Obj(vec![])]),
            ),
        ])
    }

    #[test]
    fn both_renderings_are_valid_json() {
        validate_json(&sample().compact()).unwrap();
        validate_json(&sample().pretty()).unwrap();
        assert!(!sample().compact().contains('\n'));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 1312345.1234567891_f64;
        let text = Json::Num(v).compact();
        assert_eq!(text.parse::<f64>().unwrap(), v);
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
        assert_eq!(Json::Int(7).compact(), "7");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\n").compact(), r#""a\"b\\c\n""#);
    }
}
