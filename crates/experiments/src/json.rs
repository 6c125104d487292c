//! The crate's one JSON codec: the `serve` protocol, the store's records and
//! manifests and the configuration fingerprints are read through [`parse`]
//! and written through [`Obj`], every string through the escaper [`Str`].
//! The parser accepts the standard string escapes, `\uXXXX` and surrogate
//! pairs included, and rejects raw control characters inside strings.

use std::borrow::Cow;
use std::fmt::{self, Display, Write as _};

type Parsed<T> = Result<T, String>;
type Read<'a, T> = fn(&Value<'a>, &str) -> Parsed<T>;

/// Deepest array/object nesting a document may use. The deepest legal
/// document is a `serve` batch member's `holdings` tuple, 5 levels down; the
/// bound keeps a line of brackets from overflowing the recursive parser's
/// stack.
pub(crate) const MAX_DEPTH: usize = 8;

/// A parsed JSON value. Strings borrow from the input unless they hold an
/// escape; an unsigned integer that fits a `u64` is read as one, any other
/// number keeps its checked text.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value<'a> {
    Null,
    True,
    False,
    Int(u64),
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr(Vec<Value<'a>>),
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl Value<'_> {
    /// The member `key` of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Self> {
        let Value::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, value)| value)
    }

    /// The value of field `key` as an unsigned integer `T`.
    pub(crate) fn num<T: TryFrom<u64>>(&self, key: &str) -> Parsed<T> {
        let n = if let Value::Int(n) = self { T::try_from(*n).ok() } else { None };
        n.ok_or_else(|| format!("field '{key}' must be an unsigned integer"))
    }

    /// The value of field `key` as an unsigned integer `T`, or `null`.
    pub(crate) fn nullable<T: TryFrom<u64>>(&self, key: &str) -> Parsed<Option<T>> {
        match self {
            Value::Null => Ok(None),
            _ => self.num(key).map(Some),
        }
    }

    /// The value of field `key` as an array of `N` unsigned integers.
    pub(crate) fn nums<const N: usize>(&self, key: &str) -> Parsed<[u64; N]> {
        let mut nums = [0; N];
        match self {
            Value::Arr(items) if items.len() == N => {
                for (num, item) in nums.iter_mut().zip(items) {
                    *num = item.num(key)?;
                }
                Ok(nums)
            }
            _ => Err(format!("field '{key}': expected an array of {N} unsigned integers")),
        }
    }

    /// The value of field `key` as a string.
    pub(crate) fn string(&self, key: &str) -> Parsed<String> {
        let s = if let Value::Str(s) = self { Some(s.to_string()) } else { None };
        s.ok_or_else(|| format!("field '{key}' must be a string"))
    }
}

/// Compact form: a document the crate wrote reads back byte for byte.
impl Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::True => f.write_str("true"),
            Value::False => f.write_str("false"),
            Value::Int(n) => n.fmt(f),
            Value::Num(n) => f.write_str(n),
            Value::Str(s) => Str(s).fmt(f),
            Value::Arr(items) => List(items).fmt(f),
            Value::Obj(fields) => {
                let fields = fields.iter().map(|(key, value)| format!("{}:{value}", Str(key)));
                write!(f, "{{{}}}", fields.collect::<Vec<_>>().join(","))
            }
        }
    }
}

/// Parse one JSON document; only whitespace may surround it.
pub(crate) fn parse(text: &str) -> Parsed<Value<'_>> {
    let mut parser = Parser { text, pos: 0, depth: 0 };
    let value = parser.value()?;
    match parser.peek() {
        None => Ok(value),
        Some(_) => parser.fail("trailing bytes after the document"),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn fail<T>(&self, what: &str) -> Parsed<T> {
        Err(format!("{what} at byte {}", self.pos))
    }

    /// Skip whitespace and return the next byte.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consume `b` if it is the very next byte.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.text.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self) -> Parsed<Value<'a>> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.fail(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.items(b'}', Self::member).map(Value::Obj),
            Some(b'[') => self.items(b']', Self::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::True),
            Some(b'f') => self.literal("false", Value::False),
            Some(c) => self.fail(&format!("unexpected '{}'", c as char)),
            None => self.fail("unexpected end of input"),
        }
    }

    /// The items of the array or object opening at `pos`, up to `close`.
    fn items<T>(&mut self, close: u8, item: impl Fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        self.pos += 1;
        self.depth += 1;
        let mut items = Vec::new();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return self.fail(&format!("expected ',' or '{}'", close as char)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn member(&mut self) -> Parsed<(Cow<'a, str>, Value<'a>)> {
        if self.peek() != Some(b'"') {
            return self.fail("expected a string key");
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return self.fail("expected ':'");
        }
        self.pos += 1;
        Ok((key, self.value()?))
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Parsed<Value<'a>> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.fail("invalid literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    /// A number, checked against JSON's grammar.
    fn number(&mut self) -> Parsed<Value<'a>> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.text.as_bytes().get(self.pos) == Some(&b'0');
        let int = self.digits();
        let int = int == 1 || (int > 1 && !leading_zero);
        let fraction = !self.eat(b'.') || self.digits() > 0;
        let exponent = !(self.eat(b'e') || self.eat(b'E')) || {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        if !(int && fraction && exponent) {
            self.pos = start;
            return self.fail("invalid number");
        }
        let text = &self.text[start..self.pos];
        Ok(text.parse().map_or(Value::Num(text), Value::Int))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.text.as_bytes().get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The string opening at `pos`. The text is only split at ASCII bytes,
    /// so multi-byte characters stay whole.
    fn string(&mut self) -> Parsed<Cow<'a, str>> {
        let text = self.text;
        self.pos += 1;
        // Every escape adds at least one character, so `owned` stays empty
        // (and unallocated) exactly when the string holds none.
        let (mut owned, mut run) = (String::new(), self.pos);
        loop {
            match text.as_bytes().get(self.pos) {
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(if owned.is_empty() { tail.into() } else { (owned + tail).into() });
                }
                Some(b'\\') => {
                    owned.push_str(&text[run..self.pos]);
                    owned.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return self.fail("control character in a string"),
                Some(_) => self.pos += 1,
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// Decode the escape whose backslash is at `pos`, moving past it.
    fn escape(&mut self) -> Parsed<char> {
        let start = self.pos;
        self.pos += 2;
        let decoded = match self.text.as_bytes().get(start + 1) {
            Some(b'"') => Some('"'),
            Some(b'\\') => Some('\\'),
            Some(b'/') => Some('/'),
            Some(b'b') => Some('\u{8}'),
            Some(b'f') => Some('\u{c}'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            Some(b't') => Some('\t'),
            Some(b'u') => self.hex4().and_then(|unit| {
                // A high surrogate pairs with the low one escaped after it;
                // a lone surrogate is not a character.
                let paired = (0xD800..0xDC00).contains(&unit) && self.eat(b'\\') && self.eat(b'u');
                let low = if paired { Some(self.hex4()?) } else { None };
                char::decode_utf16(std::iter::once(unit).chain(low)).next()?.ok()
            }),
            _ => None,
        };
        decoded.ok_or_else(|| format!("invalid string escape at byte {start}"))
    }

    /// Four hex digits, as a UTF-16 code unit.
    fn hex4(&mut self) -> Option<u16> {
        let hex = self.text.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        // `from_str_radix` alone would also take a leading `+`.
        u16::from_str_radix(hex, 16).ok().filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
    }
}

/// Strict in-order reader of one of the crate's own records: an object whose
/// fields must come in exactly the order they are read.
pub(crate) struct Record<'a>(std::iter::Peekable<std::vec::IntoIter<(Cow<'a, str>, Value<'a>)>>);

impl<'a> Record<'a> {
    pub(crate) fn new(text: &'a str) -> Parsed<Self> {
        match parse(text)? {
            Value::Obj(fields) => Ok(Record(fields.into_iter().peekable())),
            _ => Err("a record must be a JSON object".to_string()),
        }
    }

    /// The next field's value; the field must be `key`.
    pub(crate) fn value(&mut self, key: &str) -> Parsed<Value<'a>> {
        let next = self.0.next_if(|(found, _)| found == key);
        next.map(|(_, value)| value).ok_or_else(|| format!("expected field '{key}'"))
    }

    /// The next field's value, read by `read` (e.g. [`Value::num`]).
    pub(crate) fn take<T>(&mut self, key: &str, read: Read<'a, T>) -> Parsed<T> {
        read(&self.value(key)?, key)
    }

    /// A string field that is read only when it comes next.
    pub(crate) fn optional_string(&mut self, key: &str) -> Parsed<Option<String>> {
        self.0.next_if(|(found, _)| found == key).map(|(_, value)| value.string(key)).transpose()
    }

    /// Close the record: no field may be left.
    pub(crate) fn finish(mut self) -> Parsed<()> {
        self.0.next().map_or(Ok(()), |(key, _)| Err(format!("unexpected field '{key}'")))
    }
}

/// Writer of one JSON object, its fields in call order. Values are written as
/// their `Display` text, so strings go through [`Str`].
pub(crate) struct Obj(String);

impl Obj {
    pub(crate) fn new() -> Obj {
        Obj(String::with_capacity(256))
    }

    /// Append the field `"key":value`; keys are the crate's own identifiers.
    pub(crate) fn field(mut self, key: &str, value: impl Display) -> Obj {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    /// Append the field only when `value` is present.
    pub(crate) fn some(self, key: &str, value: Option<impl Display>) -> Obj {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// Close the object and return its text.
    pub(crate) fn end(mut self) -> String {
        self.0.push_str(if self.0.is_empty() { "{}" } else { "}" });
        self.0
    }
}

/// A string, written quoted with `"`, `\` and control characters escaped.
pub(crate) struct Str<'a>(pub(crate) &'a str);

impl Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        while let Some(i) = rest.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b @ (b'"' | b'\\') => write!(f, "\\{}", b as char),
                control => write!(f, "\\u{control:04x}"),
            }?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

/// An optional value, written as `null` when absent.
pub(crate) struct Opt<T>(pub(crate) Option<T>);

impl<T: Display> Display for Opt<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// A sequence, written as a JSON array of its items.
pub(crate) struct List<I>(pub(crate) I);

impl<I: Clone + IntoIterator<Item: Display>> Display for List<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('[')?;
        for (i, item) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            item.fmt(f)?;
        }
        f.write_char(']')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_the_escaper_and_the_parser() {
        let texts =
            ["", "plain", "quote \" and \\ back", "a\u{1}b\rc\n\t\u{1f}", "É ∞ 😀", "\u{7f}"];
        for s in texts {
            let written = Str(s).to_string();
            assert!(written.bytes().all(|b| b >= 0x20), "{written:?}");
            assert_eq!(parse(&written).unwrap(), Value::Str(Cow::Borrowed(s)), "{written}");
        }
        let escaped = r#""\u0041\/\b\f\ud83d\ude00\u00e9""#;
        assert_eq!(parse(escaped).unwrap(), Value::Str("A/\u{8}\u{c}😀é".into()));
        // Unescaped strings borrow from the input.
        assert!(matches!(parse("\"IE\"").unwrap(), Value::Str(Cow::Borrowed("IE"))));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let bad = [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "nul",
            "tru",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\u{1}b\"",
            "\"open",
            "{} {}",
            "[1] x",
            "{\"a\" 1}",
        ];
        for text in bad {
            assert!(parse(text).is_err(), "{text:?} parsed");
        }
        let good = ["0", "-0.5e+3", "1E9", "[]", "{}", " [true,false,null] ", "{\"a\":[{}]}"];
        for text in good {
            assert!(parse(text).is_ok(), "{text:?} rejected");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
        assert!(parse(&format!("[{deep}]")).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn records_read_fields_strictly_in_order() {
        let config = "{\"epsilon\":0.01,\"m\":[5],\"s\":\"a\\u0001\"}";
        let text = Obj::new()
            .field("n", 7)
            .some("tag", Some(Str("x\"y")))
            .field("none", Opt(None::<u64>))
            .field("pairs", List([1, 2].iter().map(|&x| List([x, x + 1]))))
            .field("config", config)
            .end();
        let expected = r#"{"n":7,"tag":"x\"y","none":null,"pairs":[[1,2],[2,3]],"config":"#;
        assert_eq!(text, format!("{expected}{config}}}"));
        let mut record = Record::new(&text).unwrap();
        assert_eq!(record.take::<u64>("n", Value::num).unwrap(), 7);
        assert_eq!(record.optional_string("absent").unwrap(), None);
        assert_eq!(record.optional_string("tag").unwrap().as_deref(), Some("x\"y"));
        assert_eq!(record.take::<Option<u64>>("none", Value::nullable).unwrap(), None);
        assert!(matches!(record.value("pairs").unwrap(), Value::Arr(_)));
        // A nested document the codec wrote reads back as its exact text.
        assert_eq!(record.value("config").unwrap().to_string(), config);
        record.finish().unwrap();
        // Fields out of order, and fields left over, are refused.
        assert!(Record::new(&text).unwrap().take::<u64>("tag", Value::num).is_err());
        let mut record = Record::new(&text).unwrap();
        record.take::<u64>("n", Value::num).unwrap();
        assert!(record.finish().is_err());
        assert_eq!(Obj::new().end(), "{}");
    }
}
