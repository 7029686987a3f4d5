//! Minimal JSON parsing and rendering for the spec/report formats.
//!
//! The workspace builds fully offline, so instead of serde this module
//! hand-rolls the small JSON surface `clove-run` needs: a [`Json`] value
//! tree, a recursive-descent parser, and a renderer. Object key order is
//! preserved so reports print in a stable, readable order.

/// Deepest array/object nesting [`Json::parse`] accepts. Everything the
/// tree writes (spec, report, journal entry, chaos JSON) nests under 10
/// levels; the cap turns hostile input into an error instead of a stack
/// overflow in the recursive descent.
const MAX_DEPTH: usize = 128;

/// 2^53: below it a whole [`Json::Num`] is exactly the integer literal that
/// was written; from it up, neighbouring literals parse to the same `f64`
/// (`9007199254740993` reads as `…992`, `1e20` is no `u64` at all).
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; integral values render without a dot).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number below 2^53 —
    /// the range where the value is the literal that was written, never a
    /// rounded or saturated neighbour.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if (0.0..EXACT_INT_LIMIT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Unsigned-integer field `key` of an object: a whole number below 2^53
    /// (see [`Json::as_u64`]), range-checked into `T`; `Ok(None)` when the
    /// field is absent or `null`.
    pub fn uint_field<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => {
                let n = x.as_u64().ok_or_else(|| format!("'{key}' must be a non-negative integer below 2^53"))?;
                T::try_from(n).map(Some).map_err(|_| format!("'{key}': {n} is out of range"))
            }
        }
    }

    /// Reject a member of this object that `rendered` — the object the
    /// decoded value's own `to_json` produces — does not carry, the `extra`
    /// keys aside. A misspelt or misplaced key must not run the default in
    /// its place, and since the accepted keys are what the encoder writes,
    /// decoder and encoder cannot drift apart.
    pub(crate) fn reject_unknown_keys(&self, rendered: &Json, extra: &[&str]) -> Result<(), String> {
        let (Json::Obj(members), Json::Obj(known)) = (self, rendered) else { return Ok(()) };
        match members.iter().find(|(key, _)| !extra.contains(&key.as_str()) && known.iter().all(|(name, _)| name != key)) {
            None => Ok(()),
            Some((key, _)) => {
                let want: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
                Err(format!("unknown key '{key}' (want {})", want.join(" | ")))
            }
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One value, inside `depth` already-open arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at the byte we consumed.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8".into());
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len]).map_err(|_| "invalid UTF-8 in string")?;
                    s.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Json::parse(r#"{"a": 1, "b": [true, null, -2.5], "c": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
    }

    /// A `u64` is read only where the number is the literal written: 2^53
    /// and up used to saturate (`1e20`, `1e300`) or round (`…993` → `…992`).
    #[test]
    fn as_u64_takes_only_integers_below_2_pow_53() {
        for (text, want) in [
            ("0", Some(0)),
            ("1e15", Some(1_000_000_000_000_000)),
            ("9007199254740991", Some(9_007_199_254_740_991)),
            ("9007199254740992", None),
            ("9007199254740993", None),
            ("18446744073709551615", None),
            ("1e20", None),
            ("1e300", None),
            ("-1", None),
            ("2.5", None),
            ("\"7\"", None),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), want, "{text}");
        }
        let err = Json::parse(r#"{"seed":1e20}"#).unwrap().uint_field::<u64>("seed").unwrap_err();
        assert_eq!(err, "'seed' must be a non-negative integer below 2^53");
    }

    #[test]
    fn round_trips_through_render() {
        let src = r#"{"name":"clove-ecn","load":0.7,"list":[1,2,3],"flag":false}"#;
        let v = Json::parse(src).unwrap();
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(v, back);
        let pretty = Json::parse(&v.render_pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("nulll").is_err());
    }

    #[test]
    fn escapes_render_correctly() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays: fn(usize) -> String = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects: fn(usize) -> String = |n| format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n));
        for doc in [arrays, objects] {
            assert!(Json::parse(&doc(MAX_DEPTH)).is_ok(), "{}", doc(2));
            let err = Json::parse(&doc(MAX_DEPTH + 1)).expect_err("one level too deep");
            assert!(err.starts_with(&format!("nesting deeper than {MAX_DEPTH} at byte ")), "{err}");
        }
    }

    #[test]
    fn unicode_survives() {
        let v = Json::parse(r#""héllo → ☃""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo → ☃"));
        let esc = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(esc.as_str(), Some("Aé"));
    }
}
