//! Strict RFC 8259 parser.
//!
//! A recursive-descent reader over the full grammar and nothing beyond
//! it: no comments, no trailing commas, no leading zeros or `+` signs, no
//! raw control characters inside strings, no lone surrogates. Two rules go
//! past the RFC's "should"s, because every persisted format of the
//! workspace relies on them:
//!
//! - a duplicate key inside one object is an error (a spliced or damaged
//!   line must not silently resolve to "last wins");
//! - nesting deeper than 128 levels is an error, so hostile input cannot
//!   overflow the stack.
//!
//! Numbers are kept as their source text ([`crate::Number`]).

use std::collections::BTreeMap;

use crate::value::{Number, Value};
use crate::Error;

/// Deepest array/object nesting the parser accepts.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; only whitespace may follow it.
///
/// # Errors
///
/// The first grammar violation, with its byte offset.
pub fn parse(input: &str) -> Result<Value, Error> {
    Parser {
        bytes: input.as_bytes(),
        pos: 0,
    }
    .document()
}

/// [`parse`] over bytes that must be UTF-8.
///
/// # Errors
///
/// Invalid UTF-8, or any error [`parse`] reports.
pub fn parse_slice(input: &[u8]) -> Result<Value, Error> {
    let input = std::str::from_utf8(input)
        .map_err(|e| Error::new(format!("invalid UTF-8 at byte {}", e.valid_up_to())))?;
    parse(input)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn document(&mut self) -> Result<Value, Error> {
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(value)
    }

    fn err(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.require_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.require_digits()?;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        Ok(Value::Number(Number::from_token(token.to_string())))
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn require_digits(&mut self) -> Result<(), Error> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        self.digits();
        Ok(())
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character in one go.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            // The input is a `&str` and the run stops only at ASCII bytes,
            // so it is valid UTF-8 on its own.
            out.push_str(
                std::str::from_utf8(&self.bytes[run..self.pos])
                    .map_err(|_| self.err("bad UTF-8"))?,
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character an escape (after its backslash) stands for.
    fn escape(&mut self) -> Result<char, Error> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err(self.err("lone high surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(self.err("bad low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.err("lone low surrogate")),
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            code = code * 16 + char::from(h).to_digit(16).unwrap_or(0);
        }
        self.pos += 4;
        Ok(code)
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth)?;
            if map.insert(key, value).is_some() {
                return Err(Error::new(format!("duplicate key at byte {at}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_documents() {
        let v = parse(
            r#"{"version": 1, "files": {"a.rs": {"hash": "deadbeef", "findings": [["hash-collections", 3, false, "msg"]], "ok": true, "none": null}}}"#,
        )
        .unwrap();
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
        let entry = v.get("files").and_then(|f| f.get("a.rs")).unwrap();
        assert_eq!(entry.get("hash").and_then(Value::as_str), Some("deadbeef"));
        let cols = entry.get("findings").unwrap().as_array().unwrap()[0]
            .as_array()
            .unwrap();
        assert_eq!(cols[0].as_str(), Some("hash-collections"));
        assert_eq!(cols[1].as_u64(), Some(3));
        assert_eq!(cols[2], Value::Bool(false));
        assert_eq!(entry.get("none"), Some(&Value::Null));
    }

    #[test]
    fn escapes_decode() {
        let v = parse(r#""a\"b\\c\/\n\u0041\u00e9é\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\nAéé😀"));
    }

    #[test]
    fn grammar_violations_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "12 34",
            "[1] x",
            "01",
            "-01",
            "+1",
            "1.",
            ".5",
            "1e",
            "-",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "tru",
            "nul",
            "NaN",
            "{\"a\":1,\"a\":2}",
            "{'a':1}",
            "\u{a0}1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_at_any_depth() {
        assert!(parse(r#"{"a":{"k":1,"k":1}}"#).is_err());
        assert!(parse(r#"[{"x":1},{"x":2}]"#).is_ok());
    }

    #[test]
    fn numbers_keep_their_text() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_i64(), Some(-1));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e400").unwrap().as_f64(), None);
        let Value::Number(n) = parse("-0.000e+5").unwrap() else {
            panic!("not a number");
        };
        assert_eq!(n.as_str(), "-0.000e+5");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
        let deeper = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deeper).is_err());
        // Far too deep to recurse: rejected without touching the stack.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn slices_must_be_utf8() {
        assert!(parse_slice(b"\"\xff\"").is_err());
        assert_eq!(parse_slice(b"true").unwrap(), Value::Bool(true));
    }
}
