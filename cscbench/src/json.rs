//! The little JSON the benchmark reads and writes: serve replies are flat
//! objects whose values are strings, numbers, booleans, null or arrays of
//! strings.

use std::collections::BTreeMap;

/// A reply value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of strings.
    List(Vec<String>),
}

/// A parsed reply object.
pub type Reply = BTreeMap<String, Val>;

/// Field accessors that turn a missing or mistyped field into `None`.
pub trait Fields {
    /// A boolean field.
    fn bool(&self, k: &str) -> Option<bool>;
    /// A whole-number field.
    fn u64(&self, k: &str) -> Option<u64>;
    /// A string field.
    fn str(&self, k: &str) -> Option<&str>;
    /// A string-array field.
    fn list(&self, k: &str) -> Option<&[String]>;
}

impl Fields for Reply {
    fn bool(&self, k: &str) -> Option<bool> {
        match self.get(k) {
            Some(Val::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    fn u64(&self, k: &str) -> Option<u64> {
        match self.get(k) {
            Some(Val::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn str(&self, k: &str) -> Option<&str> {
        match self.get(k) {
            Some(Val::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn list(&self, k: &str) -> Option<&[String]> {
        match self.get(k) {
            Some(Val::List(v)) => Some(v),
            _ => None,
        }
    }
}

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one reply line.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let mut p = Parser {
        s: line.trim().as_bytes(),
        pos: 0,
    };
    p.eat(b'{')?;
    let mut map = Reply::new();
    p.ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.eat(b':')?;
            p.ws();
            let val = p.value()?;
            map.insert(key, val);
            p.ws();
            match p.bump() {
                Some(b',') => {}
                Some(b'}') => break,
                _ => return Err(format!("expected `,` or `}}` at byte {}", p.pos)),
            }
        }
    }
    p.ws();
    if p.pos != p.s.len() {
        return Err("trailing bytes after the object".into());
    }
    Ok(map)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(x) if x == c => Ok(()),
            _ => Err(format!("expected `{}` at byte {}", c as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bump().ok_or("unterminated string")? {
                b'"' => break,
                b'\\' => match self.bump().ok_or("truncated escape")? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = self.s.get(self.pos..self.pos + 4).ok_or("truncated \\u")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        self.pos += 4;
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        out.extend_from_slice(c.to_string().as_bytes());
                    }
                    _ => return Err("bad escape".into()),
                },
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".into())
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(Val::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::List(items));
                }
                loop {
                    self.ws();
                    items.push(self.string()?);
                    self.ws();
                    match self.bump() {
                        Some(b',') => {}
                        Some(b']') => return Ok(Val::List(items)),
                        _ => return Err("expected `,` or `]`".into()),
                    }
                }
            }
            b't' => self.word("true", Val::Bool(true)),
            b'f' => self.word("false", Val::Bool(false)),
            b'n' => self.word("null", Val::Null),
            _ => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.s[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Val::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn word(&mut self, w: &str, v: Val) -> Result<Val, String> {
        if self.s[self.pos..].starts_with(w.as_bytes()) {
            self.pos += w.len();
            Ok(v)
        } else {
            Err(format!("expected `{w}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_resolve_reply() {
        let r = parse_reply(
            r#"{"ok":true,"degraded":false,"resolve":"fallback:csc-obligations","reachable":924,"call_edges":8251}"#,
        )
        .expect("parses");
        assert_eq!(r.bool("ok"), Some(true));
        assert_eq!(r.bool("degraded"), Some(false));
        assert_eq!(r.str("resolve"), Some("fallback:csc-obligations"));
        assert_eq!(r.u64("reachable"), Some(924));
        assert_eq!(r.u64("call_edges"), Some(8251));
        assert_eq!(r.u64("missing"), None);
    }

    #[test]
    fn parses_points_to_reply_with_escapes() {
        let r = parse_reply(
            r#"{"ok":true,"degraded":false,"var":"Main.main.x","objects":["o1 (A)","q\"r (B\\C)","é"]}"#,
        )
        .expect("parses");
        assert_eq!(
            r.list("objects"),
            Some(
                &[
                    "o1 (A)".to_owned(),
                    "q\"r (B\\C)".to_owned(),
                    "é".to_owned()
                ][..]
            )
        );
        let empty = parse_reply(r#"{"ok":true,"objects":[]}"#).expect("parses");
        assert_eq!(empty.list("objects"), Some(&[][..]));
    }

    #[test]
    fn parses_error_reply_and_rejects_garbage() {
        let r = parse_reply(r#"{"ok":false,"kind":"delta-decode","error":"bad"}"#).expect("parses");
        assert_eq!(r.bool("ok"), Some(false));
        assert_eq!(r.str("kind"), Some("delta-decode"));
        assert!(parse_reply("").is_err());
        assert!(parse_reply(r#"{"ok":true"#).is_err());
        assert!(parse_reply(r#"{"ok":true} x"#).is_err());
        assert!(parse_reply(r#"{"a":[1]}"#).is_err());
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd\u{1}";
        let line = format!("{{\"s\":\"{}\"}}", escape(s));
        assert_eq!(parse_reply(&line).expect("parses").str("s"), Some(s));
    }
}
