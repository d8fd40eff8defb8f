//! The workspace's one JSON value. Every report, summary and result row is
//! a [`Json`] tree rendered here, and every JSON text read back — a
//! recorded floor, a child leg's row, an exported trace — is parsed into
//! one by [`parse_json`], a recursive descent over the grammar of RFC 8259
//! (the workspace's serde is an offline stand-in that does not serialize).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (what the parser reads from digits alone).
    Int(u64),
    /// Rendered with every digit Rust's shortest round-trip form gives;
    /// NaN and infinities have no JSON form and render as `null`.
    Num(f64),
    /// Rendered with exactly this many decimals: a report column rounded
    /// to its precision (`null` when not finite).
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object of `members`, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number's value, however it is written.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(v) | Json::Fixed(v, _) => Some(v),
            _ => None,
        }
    }

    /// An integer's value.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    /// A boolean's value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// One line, no spaces: the form of a result line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0).expect("writing to a String");
        out
    }

    /// Two-space indented, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to a String");
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(v) if v.is_finite() => write!(out, "{v}"),
            Json::Fixed(v, places) if v.is_finite() => write!(out, "{v:.places$}"),
            Json::Null | Json::Num(_) | Json::Fixed(..) => out.write_str("null"),
            Json::Str(s) => write!(out, "\"{}\"", escape_json(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.write_str("]")
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    let space = if indent.is_some() { " " } else { "" };
                    write!(out, "\"{}\":{space}", escape_json(k))?;
                    v.write(out, indent, depth + 1)?;
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.write_str("}")
            }
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parse `s` as one JSON value (with nothing but whitespace after it).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(value)
}

/// Check that `s` is one syntactically valid JSON value (with nothing but
/// whitespace after it). Used by the smokes' trace checks and the
/// exporter's own tests; viewers are the authority on semantics.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(drop)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    /// Step over `token`, which must come next.
    fn eat(&mut self, token: &str) -> Result<(), String> {
        if !self.s[self.i..].starts_with(token.as_bytes()) {
            return Err(self.err(&format!("expected '{token}'")));
        }
        self.i += token.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object up to `close`, each
    /// read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        self.skip_ws();
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let members = self.items(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.eat(":")?;
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(members))
    }

    fn array(&mut self) -> Result<Json, String> {
        Ok(Json::Arr(self.items(b']', Self::value)?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8")),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("truncated escape"));
                    };
                    self.i += 1;
                    let c = match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4);
                            let hex = hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                            let hex = hex.ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            let code = hex.iter().fold(0, |code, &h| {
                                code * 16 + (h as char).to_digit(16).expect("a hex digit")
                            });
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c if c < 0x20 => return Err(self.err("raw control char in string")),
                c => out.push(c),
            }
        }
        Err(self.err("unterminated string"))
    }

    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        self.digits("expected digits")?;
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits("expected fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits("expected exponent digits")?;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
        Ok(text
            .parse()
            .map(Json::Int)
            .unwrap_or_else(|_| Json::Num(text.parse().expect("a JSON number parses"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\n\\u0041\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":true}",
            " { \"x\" : [ 1 , \"y\" ] } ",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validator_rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "{\"a\":1,}",
            "\"bad\\q\"",
            "01x",
            "[1 2]",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escaping_covers_specials() {
        let s = escape_json("a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
        assert!(validate_json(&format!("\"{s}\"")).is_ok());
    }

    fn sample() -> Json {
        Json::obj([
            ("name", Json::str("a \"quoted\"\nname\t\\ é 𝄞 \u{1}")),
            ("count", Json::Int(u64::MAX)),
            ("value", Json::Num(1.2034e-7)),
            ("rounded", Json::Fixed(2.5, 3)),
            ("negative", Json::Num(-0.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                Json::Arr(vec![Json::obj([("k", Json::Int(7))]), Json::Obj(vec![])]),
            ),
        ])
    }

    /// Both renderings parse back to the tree they came from (a fixed
    /// number reads back as the number it prints).
    #[test]
    fn renderings_round_trip() {
        let mut expect = sample();
        if let Json::Obj(members) = &mut expect {
            members[3].1 = Json::Num(2.5);
        }
        assert_eq!(parse_json(&sample().compact()), Ok(expect.clone()));
        assert_eq!(parse_json(&sample().pretty()), Ok(expect));
        assert!(!sample().compact().contains('\n'));
        assert!(sample().compact().contains("\"rounded\":2.500,"));
    }

    #[test]
    fn numbers_keep_their_form() {
        let v = 1312345.1234567891_f64;
        assert_eq!(Json::Num(v).compact().parse::<f64>().unwrap(), v);
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
        assert_eq!(Json::Fixed(f64::NAN, 2).compact(), "null");
        assert_eq!(Json::Fixed(12.0, 1).compact(), "12.0");
        assert_eq!(Json::Fixed(12.04, 0).compact(), "12");
        assert_eq!(parse_json("12"), Ok(Json::Int(12)));
        assert_eq!(parse_json("12.0"), Ok(Json::Num(12.0)));
        assert_eq!(parse_json("-3"), Ok(Json::Num(-3.0)));
        assert_eq!(
            parse_json("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
    }

    #[test]
    fn strings_decode_escapes() {
        let parsed = parse_json(r#""a\"b\\c\n\u0041\u00e9𝄞\/\ud834""#);
        assert_eq!(parsed, Ok(Json::str("a\"b\\c\nAé𝄞/\u{fffd}")));
        assert!(parse_json(r#""\u+041""#).is_err());
    }

    #[test]
    fn accessors_read_members() {
        let j = parse_json(r#"{"a": 1, "b": [true, 2.5], "a": 3}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        let Some(Json::Arr(b)) = j.get("b") else {
            panic!("{j:?}")
        };
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1].as_f64(), Some(2.5));
        assert_eq!(b[1].as_u64(), None);
        assert!(j.get("c").is_none() && b[0].get("a").is_none());
    }
}
