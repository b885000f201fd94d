//! A minimal JSON value, writer, and parser for the checkpoint journal.
//!
//! The workspace is built offline with a deliberately small dependency set
//! (no `serde_json`), and the checkpoint journal (see [`crate::checkpoint`])
//! only needs flat rows of strings, numbers, booleans, and small arrays —
//! so this module hand-rolls the ~200 lines of JSON it needs rather than
//! pulling in a crate.
//!
//! # Float round-tripping
//!
//! Journal resume must reproduce **bit-identical** rows, so numbers are
//! written with Rust's shortest-round-trip `{:?}` formatting (guaranteed to
//! parse back to the same `f64`) and parsed with `str::parse::<f64>`. The
//! `float_roundtrip` proptest pins this contract.

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers are kept as `f64`; the journal never stores integers outside the
/// exactly-representable `±2^53` range (indices, counts, element counts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last value on
    /// lookup, like every mainstream parser).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document. Returns `None` on any syntax error or on
    /// trailing non-whitespace garbage — journal readers treat a malformed
    /// line (e.g. torn by a crash mid-append) as "not checkpointed".
    #[must_use]
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup (last occurrence wins); `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number small
    /// enough to be exact in an `f64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        ((0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0).then_some(n as u64)
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value (compact, no whitespace).
    ///
    /// # Panics
    ///
    /// Panics if a `Num` is NaN or infinite — JSON has no spelling for
    /// those, and journal rows are validated finite before encoding.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON cannot represent {n}");
                // Shortest round-trip repr; `{:?}` guarantees parse-back
                // equality and emits valid JSON syntax for finite floats.
                let _ = write!(out, "{n:?}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a quoted JSON string literal into `out`.
pub fn escape_into(s: &str, out: &mut String) {
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

/// Maximum container nesting accepted by the parser. Journal lines nest two
/// or three deep; this cap just keeps hostile input from exhausting the
/// stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'n' => self.eat_literal("null").then_some(Json::Null),
            b't' => self.eat_literal("true").then_some(Json::Bool(true)),
            b'f' => self.eat_literal("false").then_some(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Some(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return None;
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Some(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Run of plain bytes up to the next quote or backslash.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if !self.eat_literal("\\u") {
                                    return None;
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return None;
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)?
                            } else {
                                char::from_u32(hi)?
                            };
                            out.push(c);
                            // hex4 leaves pos one past the escape already.
                            continue;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                // Unescaped control byte: invalid JSON.
                _ => return None,
            }
        }
    }

    /// Reads exactly four hex digits at `pos`, advancing past them.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        let s = std::str::from_utf8(digits).ok()?;
        let v = u32::from_str_radix(s, 16).ok()?;
        self.pos += 4;
        Some(v)
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        let _ = self.eat(b'-');
        let digits_start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return None;
        }
        if self.eat(b'.') {
            let frac_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return None;
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            let exp_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return None;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        let n: f64 = text.parse().ok()?;
        n.is_finite().then_some(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Some(Json::Null));
        assert_eq!(Json::parse(" true "), Some(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Some(Json::Bool(false)));
        assert_eq!(Json::parse("-3.5e2"), Some(Json::Num(-350.0)));
        assert_eq!(Json::parse("0"), Some(Json::Num(0.0)));
        assert_eq!(Json::parse("\"hi\""), Some(Json::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            Json::parse(r#"{"i":3,"row":{"name":"gzip","xs":[1,2.5,-3e-2],"ok":true}}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        let row = v.get("row").unwrap();
        assert_eq!(row.get("name").unwrap().as_str(), Some("gzip"));
        assert_eq!(row.get("ok").unwrap().as_bool(), Some(true));
        let xs = row.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[1].as_f64(), Some(2.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "nul",
            "1.2.3",
            "--1",
            "1e",
            "\"unterminated",
            "{\"a\":1} trailing",
            "[1 2]",
            "\"bad \\x escape\"",
            "nan",
            "Infinity",
            "01x",
            "{\"i\":5,\"row\":{\"v\":0.1", // a torn journal line
        ] {
            assert_eq!(Json::parse(bad), None, "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "quote\" back\\slash \nnewline \ttab \r\u{1}ctl \u{1F600} ünïcode";
        let encoded = Json::Str(nasty.to_owned()).to_json();
        assert_eq!(Json::parse(&encoded), Some(Json::Str(nasty.to_owned())));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(Json::parse(r#""A""#), Some(Json::Str("A".into())));
        assert_eq!(Json::parse(r#""😀""#), Some(Json::Str("\u{1F600}".into())));
        // A lone high surrogate is invalid.
        assert_eq!(Json::parse(r#""\ud83d""#), None);
    }

    #[test]
    fn writer_emits_compact_documents() {
        let v = Json::Obj(vec![
            ("i".into(), Json::Num(7.0)),
            ("name".into(), Json::Str("mcf".into())),
            ("xs".into(), Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.to_json(), r#"{"i":7.0,"name":"mcf","xs":[1.5,null,false]}"#);
        assert_eq!(Json::parse(&v.to_json()), Some(v));
    }

    #[test]
    fn u64_accessor_guards_range_and_integrality() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    #[test]
    #[should_panic(expected = "JSON cannot represent")]
    fn writer_rejects_non_finite_numbers() {
        let _ = Json::Num(f64::NAN).to_json();
    }

    proptest! {
        /// The bit-identical resume contract: any finite f64 written by the
        /// journal parses back to exactly the same bits.
        #[test]
        fn float_roundtrip(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            let text = Json::Num(x).to_json();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }

        /// Arbitrary strings survive an encode/parse cycle.
        #[test]
        fn string_roundtrip(s in ".*") {
            let encoded = Json::Str(s.clone()).to_json();
            prop_assert_eq!(Json::parse(&encoded), Some(Json::Str(s)));
        }
    }
}
