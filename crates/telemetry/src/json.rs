//! The one JSON value type behind every dump and every gate.
//!
//! Bench headlines, fault and fleet reports, metrics snapshots and
//! Chrome traces are all built as a [`Json`] tree and printed by its
//! `Display` writer; `bench_gate` and [`validate_chrome_trace`] read
//! them back with [`Json::parse`]. (The workspace's vendored `serde`
//! is a no-op stub, so this small module stands in for `serde_json`.)
//!
//! Numbers are f64s. The writer prints them in round-trip form, so
//! `Json::parse(&v.to_string()) == v` for every tree of finite
//! numbers; integers are exact up to 2^53. Non-finite numbers have no
//! JSON spelling and write as `null`.
//!
//! [`validate_chrome_trace`]: crate::validate_chrome_trace

use std::fmt;

/// A JSON value. Object keys keep insertion order.
///
/// # Examples
///
/// ```
/// use shredder_telemetry::Json;
///
/// let dump = Json::object()
///     .field("name", "fig12_throughput")
///     .field("aggregate_gbps", 0.1 + 0.2)
///     .field("bytes", 1u64 << 40);
/// let text = dump.to_string();
/// assert!(text.contains("\"aggregate_gbps\": 0.30000000000000004"));
/// assert!(text.contains("\"bytes\": 1099511627776"));
/// assert_eq!(Json::parse(&text).unwrap(), dump);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to fill with [`Json::field`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::field on a non-object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// The value under `key`, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or of anything after the document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        let doc = parser.value()?;
        if parser.peek().is_some() {
            return Err(parser.fail("trailing garbage after document"));
        }
        Ok(doc)
    }

    /// Writes `self` nested `depth` containers deep. The outermost
    /// container, and any array of containers, puts one entry per line
    /// (so a dump diffs line by line and a Chrome trace has one event
    /// per line); everything else stays on its parent's line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            // Integral values print without `.0` (`Display` never uses
            // an exponent, so stop where integers stop being exact).
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
                write!(f, "{n}")
            }
            Json::Num(n) => write!(f, "{n:?}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                let breaks = depth == 0
                    || items
                        .iter()
                        .any(|item| matches!(item, Json::Arr(_) | Json::Obj(_)));
                write_entries(f, "[]", items, depth, breaks, |f, item| {
                    item.write(f, depth + 1)
                })
            }
            Json::Obj(fields) => write_entries(f, "{}", fields, depth, depth == 0, |f, (k, v)| {
                write_str(f, k)?;
                f.write_str(": ")?;
                v.write(f, depth + 1)
            }),
        }
    }
}

/// Writes a bracketed, comma-separated list, one entry per indented
/// line when `breaks`.
fn write_entries<T>(
    f: &mut fmt::Formatter<'_>,
    brackets: &str,
    entries: &[T],
    depth: usize,
    breaks: bool,
    mut entry: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    f.write_str(open)?;
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if breaks {
            write!(f, "\n{:1$}", "", 2 * depth + 2)?;
        } else if i > 0 {
            f.write_str(" ")?;
        }
        entry(f, e)?;
    }
    if breaks && !entries.is_empty() {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_str(close)
}

/// Writes `s` as a quoted JSON string: the one place strings are
/// escaped.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            /// Exact up to 2^53; larger values round to the nearest f64.
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_int!(u64, u128, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.fail("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Copy the full UTF-8 sequence starting at b.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.fail("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A splitmix64 stream: the proptest stub has no recursive
    /// strategies, so trees grow from one drawn seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        fn number(&mut self) -> f64 {
            const EDGES: [f64; 10] = [
                0.1 + 0.2,
                1e-7,
                9_007_199_254_740_992.0, // 2^53
                -0.0,
                5e-324, // smallest subnormal
                2.2250738585072014e-308,
                f64::MAX,
                1e16,
                -123.456,
                0.0,
            ];
            match self.below(4) {
                0 => EDGES[self.below(EDGES.len() as u64)],
                1 => self.next() as f64, // a u64 byte count
                _ => {
                    let v = f64::from_bits(self.next());
                    if v.is_finite() {
                        v
                    } else {
                        1.5
                    }
                }
            }
        }

        fn string(&mut self) -> String {
            const CHARS: [char; 12] = [
                '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日', '😀', '/',
            ];
            (0..self.below(8))
                .map(|_| match self.below(3) {
                    0 => CHARS[self.below(CHARS.len() as u64)],
                    _ => char::from(b' ' + self.below(95) as u8),
                })
                .collect()
        }

        fn tree(&mut self, depth: usize) -> Json {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => [Json::Null, Json::Bool(true), Json::Bool(false)][self.below(3)].clone(),
                1 | 2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => (0..self.below(5)).map(|_| self.tree(depth - 1)).collect(),
                _ => Json::Obj(
                    (0..self.below(5))
                        .map(|_| (self.string(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_write(seed in any::<u64>()) {
            let tree = Gen(seed).tree(4);
            let text = tree.to_string();
            let back = Json::parse(&text);
            prop_assert_eq!(&back, &Ok(tree.clone()), "{}", text);
            // `Debug` prints every f64 exactly, so this also pins what
            // `==` forgives: the sign of -0.
            prop_assert_eq!(format!("{back:?}"), format!("{:?}", Ok::<_, String>(tree)));
        }
    }

    #[test]
    fn numbers_write_in_round_trip_form() {
        let cases: [(f64, &str); 8] = [
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "1e-7"),
            (9_007_199_254_740_991.0, "9007199254740991"),
            (9_007_199_254_740_992.0, "9007199254740992.0"),
            (-0.0, "-0"),
            (5e-324, "5e-324"),
            (3.0, "3"),
            (1.850409, "1.850409"),
        ];
        for (v, text) in cases {
            assert_eq!(Json::Num(v).to_string(), text);
            let back = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(Json::from(1u64 << 40).to_string(), "1099511627776");
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).to_string(), "null");
            assert_eq!(Json::parse(&Json::Num(v).to_string()), Ok(Json::Null));
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::from("a\"b\\c\nd\u{1}é😀");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\u0001é😀""#);
        assert_eq!(Json::parse(&s.to_string()), Ok(s));
    }

    #[test]
    fn layout_breaks_the_outermost_container_and_arrays_of_containers() {
        let doc = Json::object()
            .field("x", 1u64)
            .field(
                "rows",
                vec![Json::object().field("a", 1u64)]
                    .into_iter()
                    .collect::<Json>(),
            )
            .field("pair", [1u64, 2].into_iter().collect::<Json>());
        assert_eq!(
            doc.to_string(),
            "{\n  \"x\": 1,\n  \"rows\": [\n    {\"a\": 1}\n  ],\n  \"pair\": [1, 2]\n}"
        );
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "tru", "1 2", "NaN"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
