//! What `jsonlite` leaves out: reading JSON back, and a one-line
//! rendering. Values are `jsonlite`'s own [`Json`] tree.

use crate::bind::Json;
use std::fmt::Write as _;

/// Render `value` on one line (the result line a run ends with).
pub fn compact(value: &Json) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(&Json::Str(key.clone()), out);
                out.push_str(": ");
                write_compact(item, out);
            }
            out.push('}');
        }
        // Scalars render the same in both styles; jsonlite's printer
        // appends a newline.
        scalar => {
            let _ = write!(out, "{}", scalar.pretty().trim_end());
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.nested(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn nested(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    pairs.push((key, self.nested(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.nested(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

/// Field `key` of an object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn num(value: &Json, key: &str) -> Option<f64> {
    match get(value, key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn text<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    match get(value, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn items<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    match get(value, key) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(55.0)),
            ("note", Json::Str("tab\t \"quoted\" \\ é".into())),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([(
                    "offload_wall_s",
                    Json::obj([
                        ("value", Json::Num(0.17934218)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
            (
                "list",
                Json::Arr(vec![Json::Num(-1.5e-7), Json::Num(3.0), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn results_round_trip_through_jsonlite_both_styles() {
        let doc = sample();
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn compact_keeps_every_digit_of_a_measurement() {
        let line = compact(&Json::Num(0.123456789012345));
        assert_eq!(line, "0.123456789012345");
        assert_eq!(compact(&Json::Num(1000.0)), "1000");
    }

    #[test]
    fn accessors_read_fields() {
        let doc = sample();
        assert_eq!(num(&doc, "attempted"), Some(55.0));
        assert!(text(&doc, "note").is_some_and(|s| s.ends_with("\\ é")));
        assert_eq!(items(&doc, "list").len(), 3);
        assert!(items(&doc, "attempted").is_empty());
        assert!(get(&doc, "missing").is_none());
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"\\u12\"",
            "--",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
