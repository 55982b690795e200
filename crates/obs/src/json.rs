//! Minimal JSON support: a value parser for `probe`-style consumers and
//! the loadability tests, plus the emission helpers the recorders share.
//!
//! The workspace is fully offline (no `serde_json`), and the recorders
//! only need flat objects and number/string/bool scalars, so this stays
//! deliberately small: no streaming, no borrowed parsing, objects as
//! ordered key/value vectors.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Object as an ordered key/value list (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            s,
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as u64 (must be a non-negative integer).
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// A cursor over the input. `i` only ever advances past ASCII bytes or
/// whole chars, so it always sits on a char boundary of `s`.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs are not needed by any recorder
                            // output; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", *c as char)),
                    }
                }
                Some(_) => {
                    // Consume one char, decoded at the cursor alone.
                    let c = self
                        .s
                        .get(self.i..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("string cursor off a char boundary")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {s:?} at offset {start}"))
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// Appends a finite f64 as a JSON number (shortest round-trip form).
///
/// # Panics
/// If `v` is not finite — recorders never emit NaN/inf, and emitting one
/// would silently corrupt the output file.
pub fn push_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "non-finite number in JSON output: {v}");
    let _ = write!(out, "{v}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Value::parse(r#"{"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_str(), Some("x\n"));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse(r#"{"a": "#).is_err());
        assert!(Value::parse(r#"["a" "b"]"#).is_err());
    }

    /// Multi-byte chars (2-, 3- and 4-byte UTF-8) next to escapes, in
    /// keys and values, decode to the same chars.
    #[test]
    fn multi_byte_and_escaped_chars_decode() {
        let v = Value::parse(r#"{"é\t→": ["ü\"𝄞\u00e9", "\n日本"]}"#).unwrap();
        let items = v.get("é\t→").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("ü\"𝄞é"));
        assert_eq!(items[1].as_str(), Some("\n日本"));
        let mut out = String::new();
        push_escaped(&mut out, "a→\"b\\𝄞\u{7}");
        assert_eq!(Value::parse(&out).unwrap().as_str(), Some("a→\"b\\𝄞\u{7}"));
        assert!(
            Value::parse("\"é").is_err(),
            "unterminated after a multi-byte char"
        );
    }

    #[test]
    fn escape_round_trips() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn numbers_round_trip_shortest_form() {
        let mut out = String::new();
        push_f64(&mut out, 0.1);
        assert_eq!(out, "0.1");
        let v = Value::parse(&out).unwrap();
        assert_eq!(v.as_f64(), Some(0.1));
    }

    #[test]
    fn u64_accessor_requires_integer() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }
}
