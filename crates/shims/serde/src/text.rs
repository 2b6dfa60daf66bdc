//! A compact, whitespace-tolerant text codec over [`Value`].
//!
//! Grammar (tokens may be separated by ASCII whitespace):
//!
//! ```text
//! value := '~'                    null
//!        | 'T' | 'F'              bool
//!        | 'u' DIGITS             unsigned integer
//!        | 'i' '-'? DIGITS        signed integer
//!        | 'f' HEX{1..16}         f64 as raw bits
//!        | '"' escaped-chars '"'  string  (\\ \" \n \t \r escapes)
//!        | '[' value* ']'         list
//!        | '{' (ident '=' value)* '}'  map
//! ```
//!
//! The float encoding (`f3ff0000000000000` = `1.0`) is the whole point:
//! decimal formatting would lose bits, and checkpoint resume must
//! reproduce scores *bit-exactly*.
//!
//! Lists and maps nest at most [`MAX_DEPTH`] levels: the parser recurses
//! once per level, and a daemon decodes untrusted frames with it, so
//! deeper input is an [`Error`] rather than a stack overflow.

use crate::value::{Error, Value};
use crate::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The deepest list/map nesting [`parse`] accepts. Real payloads nest
/// fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Serializes a value to its text form.
pub fn to_string<T: Serialize + ?Sized>(t: &T) -> String {
    let mut out = String::new();
    render(&t.to_value(), &mut out);
    out
}

/// Parses a value from its text form.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Parses the text form into a raw [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        chars: s.char_indices().peekable(),
        src: s,
    };
    let v = p.value(0)?;
    p.skip_ws();
    match p.chars.next() {
        None => Ok(v),
        Some((at, c)) => Err(Error::new(format!("trailing `{c}` at byte {at}"))),
    }
}

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('~'),
        Value::Bool(true) => out.push('T'),
        Value::Bool(false) => out.push('F'),
        Value::UInt(n) => {
            let _ = write!(out, "u{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "i{n}");
        }
        Value::Float(bits) => {
            let _ = write!(out, "f{bits:x}");
        }
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Map(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(k);
                out.push('=');
                render(item, out);
            }
            out.push('}');
        }
    }
}

struct Parser<'s> {
    chars: std::iter::Peekable<std::str::CharIndices<'s>>,
    src: &'s str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn next_or(&mut self, what: &str) -> Result<char, Error> {
        self.chars
            .next()
            .map(|(_, c)| c)
            .ok_or_else(|| Error::new(format!("unexpected end of input, wanted {what}")))
    }

    /// Parses one value nested inside `depth` lists/maps.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        let c = self.next_or("a value")?;
        if depth == MAX_DEPTH && (c == '[' || c == '{') {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        match c {
            '~' => Ok(Value::Null),
            'T' => Ok(Value::Bool(true)),
            'F' => Ok(Value::Bool(false)),
            'u' => {
                let digits = self.take_while(|c| c.is_ascii_digit());
                digits
                    .parse()
                    .map(Value::UInt)
                    .map_err(|_| Error::new(format!("bad uint `{digits}`")))
            }
            'i' => {
                let digits = self.take_while(|c| c.is_ascii_digit() || c == '-');
                digits
                    .parse()
                    .map(Value::Int)
                    .map_err(|_| Error::new(format!("bad int `{digits}`")))
            }
            'f' => {
                let digits = self.take_while(|c| c.is_ascii_hexdigit());
                u64::from_str_radix(digits, 16)
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("bad float bits `{digits}`")))
            }
            '"' => self.string().map(Value::Str),
            '[' => {
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if matches!(self.chars.peek(), Some((_, ']'))) {
                        self.chars.next();
                        return Ok(Value::List(items));
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            '{' => {
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if matches!(self.chars.peek(), Some((_, '}'))) {
                        self.chars.next();
                        return Ok(Value::Map(fields));
                    }
                    let key = self.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
                    if key.is_empty() {
                        return Err(Error::new("expected a field name"));
                    }
                    let key = key.to_string();
                    self.skip_ws();
                    match self.next_or("`=`")? {
                        '=' => {}
                        other => return Err(Error::new(format!("expected `=`, got `{other}`"))),
                    }
                    fields.push((key, self.value(depth + 1)?));
                }
            }
            other => Err(Error::new(format!("unexpected `{other}`"))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        let mut out = String::new();
        loop {
            match self.next_or("a string character")? {
                '"' => return Ok(out),
                '\\' => match self.next_or("an escape")? {
                    '\\' => out.push('\\'),
                    '"' => out.push('"'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    other => return Err(Error::new(format!("bad escape `\\{other}`"))),
                },
                other => out.push(other),
            }
        }
    }

    /// Consumes the longest prefix matching `pred`, returning it as a
    /// borrowed slice of the source.
    fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &str {
        let start = self.chars.peek().map_or(self.src.len(), |(i, _)| *i);
        let mut end = start;
        while let Some((i, c)) = self.chars.peek().copied() {
            if !pred(c) {
                break;
            }
            end = i + c.len_utf8();
            self.chars.next();
        }
        &self.src[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_forms_parse() {
        assert_eq!(parse("~").unwrap(), Value::Null);
        assert_eq!(parse(" T ").unwrap(), Value::Bool(true));
        assert_eq!(parse("u42").unwrap(), Value::UInt(42));
        assert_eq!(parse("i-42").unwrap(), Value::Int(-42));
        assert_eq!(
            parse("f3ff0000000000000").unwrap(),
            Value::Float(1.0f64.to_bits())
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("a \"b\"\n".into())),
            (
                "xs".into(),
                Value::List(vec![Value::UInt(1), Value::Null, Value::Bool(false)]),
            ),
            (
                "inner".into(),
                Value::Map(vec![("f".into(), Value::Float((-0.5f64).to_bits()))]),
            ),
        ]);
        let mut s = String::new();
        render(&v, &mut s);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse("u1 u2").is_err());
        assert!(parse("[u1").is_err());
        assert!(parse("{a=}").is_err());
    }

    #[test]
    fn deep_lists_are_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // The bound is exact: MAX_DEPTH levels parse, one more does not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn deep_maps_are_an_error_not_a_stack_overflow() {
        let err = parse(&"{a=".repeat(1_000_000)).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        let nest = |n: usize| format!("{}u1{}", "{a=".repeat(n), "}".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn dsl_like_strings_survive() {
        let code = "state s {\n  feature f = ema(x, 0.5); // \"quoted\"\n}";
        let v = Value::Str(code.into());
        let mut s = String::new();
        render(&v, &mut s);
        assert_eq!(parse(&s).unwrap(), v);
    }
}
