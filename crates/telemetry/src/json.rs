//! The JSON text of every report the workspace writes, and the parser for
//! the one kind it reads back.
//!
//! Report types build a [`Json`] tree in hand-written `to_json` methods.
//! [`Json::compact`] renders a `--trace-out` line and [`Json::pretty`] the
//! `--json` report. A float prints as its `Display` text, plus `.0` when
//! that has no `.` or exponent, and a non-finite float prints as `null`.
//! `Fields` parses a trace line back.

use std::fmt::Write;

/// A JSON value. An `Object` keeps its keys in the order given.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object of `(key, value)` fields, in order.
    pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// One-line text without spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Text with one value per line, indented two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Append the text; `depth` is the nesting level when pretty.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (brackets, items): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::U64(n) => return out.push_str(&n.to_string()),
            Json::F64(f) if f.is_finite() => {
                let text = f.to_string();
                let point = if text.contains(['.', 'e', 'E']) { "" } else { ".0" };
                return out.push_str(&(text + point));
            }
            Json::F64(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(s, out),
            Json::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => {
                ("{}", fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let inner = depth.map(|d| d + 1);
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            newline(out, inner);
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            value.write(out, inner);
        }
        if !items.is_empty() {
            newline(out, depth);
        }
        out.push_str(&brackets[1..]);
    }
}

fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * d));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The fields of a trace line: one flat JSON object whose values are
/// strings, unsigned integers or `null`. Getters take fields out by name,
/// so [`Fields::finish`] can reject one nobody asked for.
pub(crate) struct Fields(Vec<(String, Json)>);

impl Fields {
    /// Parse `text`. Rejects any other value, a duplicate key, truncated
    /// text and anything after the closing `}`.
    pub(crate) fn parse(text: &str) -> Result<Fields, String> {
        let mut p = Parser(text);
        let mut fields: Vec<(String, Json)> = Vec::new();
        p.expect('{')?;
        let mut more = !p.eat('}');
        while more {
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field `{key}`"));
            }
            p.expect(':')?;
            fields.push((key, p.scalar()?));
            more = p.eat(',');
            if !more {
                p.expect('}')?;
            }
        }
        match p.skip_ws().chars().next() {
            None => Ok(Fields(fields)),
            Some(c) => Err(format!("trailing input from `{c}`")),
        }
    }

    fn take(&mut self, name: &str) -> Result<Json, String> {
        let i = self.0.iter().position(|(k, _)| k == name);
        Ok(self.0.remove(i.ok_or_else(|| format!("missing field `{name}`"))?).1)
    }

    /// Take a field that is an unsigned integer or `null`.
    pub(crate) fn opt_u64(&mut self, name: &str) -> Result<Option<u64>, String> {
        match self.take(name)? {
            Json::U64(n) => Ok(Some(n)),
            Json::Null => Ok(None),
            _ => Err(format!("field `{name}` is not an unsigned integer")),
        }
    }

    /// Take a field that is a string or `null`.
    pub(crate) fn opt_string(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.take(name)? {
            Json::Str(s) => Ok(Some(s)),
            Json::Null => Ok(None),
            _ => Err(format!("field `{name}` is not a string")),
        }
    }

    /// Take an unsigned-integer field.
    pub(crate) fn u64(&mut self, name: &str) -> Result<u64, String> {
        self.opt_u64(name)?.ok_or_else(|| format!("field `{name}` is null"))
    }

    /// Take a string field.
    pub(crate) fn string(&mut self, name: &str) -> Result<String, String> {
        self.opt_string(name)?.ok_or_else(|| format!("field `{name}` is null"))
    }

    /// Fail on the first field not taken.
    pub(crate) fn finish(self) -> Result<(), String> {
        self.0.first().map_or(Ok(()), |(key, _)| Err(format!("unknown field `{key}`")))
    }
}

/// The unparsed rest of a trace line.
struct Parser<'a>(&'a str);

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) -> &'a str {
        self.0 = self.0.trim_start_matches([' ', '\t', '\n', '\r']);
        self.0
    }

    /// Consume `c` if it is the next token.
    fn eat(&mut self, c: char) -> bool {
        let next = self.skip_ws().strip_prefix(c);
        self.0 = next.unwrap_or(self.0);
        next.is_some()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(self.unexpected(&format!("`{c}`"))),
        }
    }

    fn unexpected(&self, want: &str) -> String {
        match self.0.chars().next() {
            Some(c) => format!("expected {want}, found `{c}`"),
            None => format!("truncated input: expected {want}"),
        }
    }

    fn scalar(&mut self) -> Result<Json, String> {
        let rest = self.skip_ws();
        let digits =
            &rest[..rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()];
        if let Some(after) = rest.strip_prefix("null") {
            self.0 = after;
            Ok(Json::Null)
        } else if rest.starts_with('"') {
            self.string().map(Json::Str)
        } else if !digits.is_empty() {
            self.0 = &rest[digits.len()..];
            digits.parse().map(Json::U64).map_err(|_| format!("integer {digits} out of range"))
        } else {
            Err(self.unexpected("a string, unsigned integer or null"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.0.char_indices();
        let truncated = || "truncated input: unterminated string".to_string();
        loop {
            match chars.next().ok_or_else(truncated)? {
                (i, '"') => {
                    self.0 = &self.0[i + 1..];
                    return Ok(out);
                }
                (_, '\\') => {
                    let esc = chars.next().ok_or_else(truncated)?.1;
                    out.push(match esc {
                        '"' | '\\' | '/' => esc,
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                            let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                            code.ok_or(format!("bad escape `\\u{hex}`"))?
                        }
                        _ => return Err(format!("bad escape `\\{esc}`")),
                    });
                }
                (_, c) if c < ' ' => {
                    return Err(format!("control character {:#04x} in string", c as u32))
                }
                (_, c) => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Vec<(String, Json)>, String> {
        Fields::parse(text).map(|f| f.0)
    }

    #[test]
    fn scalar_round_trips() {
        let s = Json::Str("x\"y\\z\n\r\t\u{1}\u{1f}é→".into());
        let value = Json::object([("s", s), ("n", Json::U64(42)), ("z", Json::Null)]);
        let text = r#"{"s":"x\"y\\z\n\r\t\u0001\u001fé→","n":42,"z":null}"#;
        assert_eq!(value.compact(), text);
        for text in [text, &value.pretty()] {
            assert_eq!(Json::Object(parse(text).unwrap()), value);
        }
        assert_eq!(parse(r#"{"s":"\/\b\f"}"#).unwrap()[0].1, Json::Str("/\u{8}\u{c}".into()));
    }

    #[test]
    fn nested_round_trip() {
        let a = Json::Array(vec![Json::U64(1), Json::object([("b", Json::Null)])]);
        let value =
            Json::object([("a", a), ("c", Json::Array(vec![])), ("d", Json::Object(vec![]))]);
        assert_eq!(value.compact(), r#"{"a":[1,{"b":null}],"c":[],"d":{}}"#);
        // Trace lines are flat: a nested value is rejected.
        assert!(parse(&value.compact()).unwrap_err().ends_with("found `[`"));
    }

    #[test]
    fn float_marker_survives() {
        for (f, text) in [
            (2.0, "2.0"),
            (-0.875, "-0.875"),
            (1e21, "1000000000000000000000.0"),
            (f64::NAN, "null"),
        ] {
            assert_eq!(Json::F64(f).compact(), text);
        }
        assert_eq!(Json::F64(f64::NEG_INFINITY).compact(), "null");
    }

    #[test]
    fn rejects_garbage() {
        for (text, want) in [
            ("", "truncated input: expected `{`"),
            (r#"{"a":"#, "truncated input: expected a string, unsigned integer or null"),
            (r#"{"a":"x"#, "truncated input: unterminated string"),
            (r#"{"a":1,}"#, "expected `\"`, found `}`"),
            (r#"{"a":1.5}"#, "expected `}`, found `.`"),
            (r#"{"a": -1}"#, "expected a string, unsigned integer or null, found `-`"),
            (r#"{"a":"\q"}"#, r"bad escape `\q`"),
            (r#"{"a":"\u12"}"#, r#"bad escape `\u12"}`"#),
            ("{\"a\":\"\n\"}", "control character 0x0a in string"),
            (r#"{"a":18446744073709551616}"#, "integer 18446744073709551616 out of range"),
        ] {
            assert_eq!(parse(text).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn big_u64_survives() {
        let mut f = Fields::parse(r#"{ "n" : 18446744073709551615 }"#).unwrap();
        assert_eq!((f.u64("n"), f.finish()), (Ok(u64::MAX), Ok(())));
    }
}
