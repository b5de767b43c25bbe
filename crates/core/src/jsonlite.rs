//! A small, dependency-free JSON value type with a parser and printers.
//!
//! The workspace vendors no serialization crates, but the sweep ledger
//! (`BENCH_sweep.json`) has to be machine-readable by ordinary tooling —
//! so this module hand-rolls the minimum: an ordered [`JsonValue`] tree, a
//! recursive-descent parser for standard JSON, a deterministic two-space
//! pretty printer, and a single-line compact printer
//! ([`JsonValue::to_compact`]) for line-delimited wire protocols. Object
//! keys keep their insertion order, which makes emitted ledgers stable
//! byte-for-byte across runs of the same data.
//!
//! Since `pathway serve` feeds this parser untrusted socket input, it is
//! hardened accordingly: nesting deeper than [`MAX_DEPTH`] is rejected with
//! an explicit error (the recursive-descent parser would otherwise turn
//! attacker-chosen `[[[[…` into a stack overflow), and truncated documents
//! — unterminated strings, escapes cut short — fail with positioned
//! errors rather than panics. `crates/core/tests/jsonlite_roundtrip.rs`
//! property-tests the parse/print cycle.

use std::fmt;

/// Maximum container nesting depth [`JsonValue::parse`] accepts. Deeper
/// documents fail with a positioned [`JsonError`] instead of risking a
/// parser stack overflow on hostile input. 64 is far beyond anything the
/// ledger or the `pathway serve` wire protocol produces (their documents
/// are ≤ 6 levels deep).
pub const MAX_DEPTH: usize = 64;

/// A parsed or constructed JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed as (and round-trips as) an integer.
    Int(i64),
    /// Any other finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(value) => Some(*value as f64),
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(value) => Some(*value),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// True when this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Builds a string value. Sugar for wire-message construction.
    pub fn string(text: impl Into<String>) -> JsonValue {
        JsonValue::String(text.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order. Sugar
    /// for wire-message construction:
    ///
    /// ```
    /// use pathway_core::jsonlite::JsonValue;
    ///
    /// let msg = JsonValue::object([
    ///     ("cmd", JsonValue::string("status")),
    ///     ("ok", JsonValue::Bool(true)),
    /// ]);
    /// assert_eq!(msg.to_compact(), r#"{"cmd":"status","ok":true}"#);
    /// ```
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// Parses a JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and message. Containers nested
    /// deeper than [`MAX_DEPTH`] are rejected (see the module docs).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(JsonError::at(at, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Renders the value as pretty-printed JSON (two-space indent, `\n`
    /// line endings, trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }

    /// Renders the value as compact single-line JSON (no whitespace, no
    /// trailing newline). Strings escape `\n` and control characters, so
    /// the output never contains a literal newline — this is the framing
    /// guarantee the line-delimited `pathway serve` wire protocol relies
    /// on.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_compact(&mut out, self);
        out
    }
}

/// A JSON parse failure: where (byte offset) and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err(JsonError::at(*at, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, at, check_depth(at, depth)?),
        Some(b'[') => parse_array(bytes, at, check_depth(at, depth)?),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, at)?)),
        Some(b't') => parse_literal(bytes, at, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, at),
        Some(&other) => Err(JsonError::at(
            *at,
            format!("unexpected character '{}'", other as char),
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    at: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*at..].starts_with(literal.as_bytes()) {
        *at += literal.len();
        Ok(value)
    } else {
        Err(JsonError::at(*at, format!("expected '{literal}'")))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *at;
    while *at < bytes.len() && matches!(bytes[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *at += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*at]).expect("ascii number bytes");
    let is_integral = !text.contains(['.', 'e', 'E']);
    if is_integral {
        if let Ok(value) = text.parse::<i64>() {
            return Ok(JsonValue::Int(value));
        }
    }
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
        _ => Err(JsonError::at(start, format!("invalid number '{text}'"))),
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*at], b'"');
    *at += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*at) {
            None => return Err(JsonError::at(*at, "unterminated string")),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                let escape = bytes
                    .get(*at)
                    .ok_or_else(|| JsonError::at(*at, "unterminated escape"))?;
                *at += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(bytes, at)?;
                        let scalar = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if bytes.get(*at) == Some(&b'\\') && bytes.get(*at + 1) == Some(&b'u') {
                                *at += 2;
                                let second = parse_hex4(bytes, at)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(JsonError::at(*at, "invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err(JsonError::at(*at, "unpaired surrogate"));
                            }
                        } else {
                            first
                        };
                        let ch = char::from_u32(scalar)
                            .ok_or_else(|| JsonError::at(*at, "invalid unicode escape"))?;
                        out.push(ch);
                    }
                    other => {
                        return Err(JsonError::at(
                            *at,
                            format!("invalid escape '\\{}'", *other as char),
                        ))
                    }
                }
            }
            Some(&byte) if byte < 0x20 => {
                return Err(JsonError::at(*at, "unescaped control character"));
            }
            Some(_) => {
                // Consume one full UTF-8 scalar from the source.
                let text = std::str::from_utf8(&bytes[*at..])
                    .map_err(|_| JsonError::at(*at, "invalid UTF-8"))?;
                let ch = text.chars().next().expect("non-empty UTF-8 tail");
                out.push(ch);
                *at += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(*at..*at + 4)
        .ok_or_else(|| JsonError::at(*at, "truncated \\u escape"))?;
    let text = std::str::from_utf8(hex).map_err(|_| JsonError::at(*at, "invalid \\u escape"))?;
    let value = u32::from_str_radix(text, 16)
        .map_err(|_| JsonError::at(*at, format!("invalid \\u escape '{text}'")))?;
    *at += 4;
    Ok(value)
}

/// Bumps the container nesting depth, rejecting documents deeper than
/// [`MAX_DEPTH`] before the parser recurses into them.
fn check_depth(at: &usize, depth: usize) -> Result<usize, JsonError> {
    if depth >= MAX_DEPTH {
        return Err(JsonError::at(
            *at,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    Ok(depth + 1)
}

fn parse_array(bytes: &[u8], at: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *at += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, at, depth)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => {
                *at += 1;
            }
            Some(b']') => {
                *at += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(JsonError::at(*at, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *at += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, at);
        if bytes.get(*at) != Some(&b'"') {
            return Err(JsonError::at(*at, "expected a string object key"));
        }
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        if bytes.get(*at) != Some(&b':') {
            return Err(JsonError::at(*at, "expected ':' after object key"));
        }
        *at += 1;
        let value = parse_value(bytes, at, depth)?;
        fields.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => {
                *at += 1;
            }
            Some(b'}') => {
                *at += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(JsonError::at(*at, "expected ',' or '}' in object")),
        }
    }
}

fn write_value(out: &mut String, value: &JsonValue, indent: usize) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Int(number) => out.push_str(&number.to_string()),
        // `{:?}` prints the shortest decimal that round-trips the f64
        // exactly — ledger metrics survive a parse/print cycle bit-for-bit.
        JsonValue::Number(number) => out.push_str(&format!("{number:?}")),
        JsonValue::String(text) => write_string(out, text),
        JsonValue::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (position, item) in items.iter().enumerate() {
                if position > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 1);
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        JsonValue::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (position, (key, item)) in fields.iter().enumerate() {
                if position > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
    }
}

fn write_compact(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Int(number) => out.push_str(&number.to_string()),
        // Same shortest-round-trip rendering as the pretty printer.
        JsonValue::Number(number) => out.push_str(&format!("{number:?}")),
        JsonValue::String(text) => write_string(out, text),
        JsonValue::Array(items) => {
            out.push('[');
            for (position, item) in items.iter().enumerate() {
                if position > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (position, (key, item)) in fields.iter().enumerate() {
                if position > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out.push('"');
}

/// Saturating integer → JSON integer: a value above `i64::MAX` renders as
/// `i64::MAX`.
pub fn int(value: impl TryInto<i64>) -> JsonValue {
    JsonValue::Int(value.try_into().unwrap_or(i64::MAX))
}

/// What one JSON value must be: how it renders, how it reads back, and what
/// a problem says was expected when it does not.
pub struct Kind<T> {
    /// The expected value, as a problem names it (`a non-negative integer`).
    pub expected: &'static str,
    /// Renders a value.
    pub write: fn(&T) -> JsonValue,
    /// Reads a value back; `None` when the JSON is not of this kind.
    pub read: fn(&JsonValue) -> Option<T>,
}

/// A string.
pub const TEXT: Kind<String> = Kind {
    expected: "a string",
    write: |text| JsonValue::String(text.clone()),
    read: |value| value.as_str().map(str::to_string),
};

/// A non-empty string.
pub const NAME: Kind<String> = Kind {
    expected: "a non-empty string",
    write: TEXT.write,
    read: |value| {
        value
            .as_str()
            .filter(|text| !text.is_empty())
            .map(str::to_string)
    },
};

/// A non-negative integer.
pub const COUNT: Kind<u64> = Kind {
    expected: "a non-negative integer",
    write: |count| int(*count),
    read: |value| value.as_i64().and_then(|count| u64::try_from(count).ok()),
};

/// A positive integer.
pub const POSITIVE: Kind<u64> = Kind {
    expected: "a positive integer",
    write: COUNT.write,
    read: |value| (COUNT.read)(value).filter(|count| *count > 0),
};

/// A non-negative integer that indexes or sizes something in memory.
pub const SIZE: Kind<usize> = Kind {
    expected: "a non-negative integer",
    write: |size| int(*size),
    read: |value| value.as_i64().and_then(|size| usize::try_from(size).ok()),
};

/// A finite number (an integer included).
pub const FINITE: Kind<f64> = Kind {
    expected: "a finite number",
    write: |number| JsonValue::Number(*number),
    read: |value| value.as_f64().filter(|number| number.is_finite()),
};

/// A finite number, or `null` for none.
pub const FINITE_OR_NULL: Kind<Option<f64>> = Kind {
    expected: "a finite number or null",
    write: |number| number.map_or(JsonValue::Null, JsonValue::Number),
    read: |value| match value {
        JsonValue::Null => Some(None),
        value => (FINITE.read)(value).map(Some),
    },
};

/// `null`.
pub const NULL: Kind<()> = Kind {
    expected: "null",
    write: |()| JsonValue::Null,
    read: |value| value.is_null().then_some(()),
};

/// A 64-bit hash as an `0x`-prefixed 16-digit hex string.
pub const HASH: Kind<u64> = Kind {
    expected: "an 0x-prefixed 16-digit hex string",
    write: |hash| JsonValue::String(format!("{hash:#018x}")),
    read: |value| {
        let digits = value.as_str()?.strip_prefix("0x")?;
        let hex = digits.len() == 16 && digits.bytes().all(|byte| byte.is_ascii_hexdigit());
        hex.then(|| u64::from_str_radix(digits, 16).ok())?
    },
};

/// One field of a record type `R`: its key, how it renders from a record
/// (`None`: the key is absent), and how it reads back into one.
pub struct Field<R> {
    /// The field's JSON key.
    pub key: &'static str,
    /// Renders the field of `record`; `None` leaves the key out.
    pub write: fn(&R) -> Option<JsonValue>,
    /// Reads the field at `key` into a record. `None` for a field derived
    /// from the others (a format tag, a count): a document must hold
    /// exactly what `write` renders from the fields read before it.
    pub read: Option<fn(&mut R, &mut Fields<'_>, &'static str)>,
}

impl<R> AsRef<Field<R>> for Field<R> {
    fn as_ref(&self) -> &Field<R> {
        self
    }
}

/// A [`Field`] row of a record's table:
///
/// - `field!("key": KIND => path)`: a value read and written as `KIND`;
/// - `field!("key": [TABLE] => path)`: an array of records of `TABLE`;
/// - `field!("key": [TABLE]+ => path)`: the same, and at least one;
/// - `field!("key" = |record| value)`: a field derived from the others.
#[macro_export]
macro_rules! field {
    ($key:literal: [$table:expr]+ => $($path:ident).+) => {
        $crate::jsonlite::Field {
            key: $key,
            write: |record| Some($crate::jsonlite::write_records(&record.$($path).+, &$table)),
            read: Some(|record, fields, key| {
                record.$($path).+ = fields.records(key, &$table);
                if record.$($path).+.is_empty() {
                    fields.problem(key, "expected at least one entry");
                }
            }),
        }
    };
    ($key:literal: [$table:expr] => $($path:ident).+) => {
        $crate::jsonlite::Field {
            key: $key,
            write: |record| Some($crate::jsonlite::write_records(&record.$($path).+, &$table)),
            read: Some(|record, fields, key| record.$($path).+ = fields.records(key, &$table)),
        }
    };
    ($key:literal: $kind:expr => $($path:ident).+) => {
        $crate::jsonlite::Field {
            key: $key,
            write: |record| Some(($kind.write)(&record.$($path).+)),
            read: Some(|record, fields, key| record.$($path).+ = fields.get(key, $kind)),
        }
    };
    ($key:literal = $derive:expr) => {
        $crate::jsonlite::Field {
            key: $key,
            write: |record| Some(($derive)(record)),
            read: None,
        }
    };
}

/// Renders `record` as an object through its field table.
pub fn write_record<R, F: AsRef<Field<R>>>(record: &R, table: &[F]) -> JsonValue {
    let fields = table.iter().map(AsRef::as_ref);
    let written = fields.filter_map(|field| Some((field.key.to_string(), (field.write)(record)?)));
    JsonValue::Object(written.collect())
}

/// Renders `records` as an array of objects through their field table.
pub fn write_records<R, F: AsRef<Field<R>>>(records: &[R], table: &[F]) -> JsonValue {
    JsonValue::Array(
        records
            .iter()
            .map(|record| write_record(record, table))
            .collect(),
    )
}

/// Renders `items` as an array of values of one kind.
pub fn write_list<T>(items: &[T], kind: Kind<T>) -> JsonValue {
    JsonValue::Array(items.iter().map(kind.write).collect())
}

/// Reads a whole document through its record table: every field, then the
/// derived ones.
///
/// # Errors
///
/// Every problem found, each naming the path of its field.
pub fn read_record<R: Default, F: AsRef<Field<R>>>(
    document: &JsonValue,
    table: &[F],
) -> Result<R, Vec<String>> {
    let mut fields = Fields::new(document);
    let record = fields.record(table);
    fields.finish(record)
}

/// Reads typed fields out of one object of a parsed document and collects
/// every problem with the path of its field, such as
/// `'phases[3].calls': expected a positive integer`. A field that fails to
/// read takes its type's default, so reading goes on to the end.
pub struct Fields<'a> {
    value: &'a JsonValue,
    path: String,
    problems: Vec<String>,
}

impl<'a> Fields<'a> {
    /// A reader of the top-level object `value`.
    pub fn new(value: &'a JsonValue) -> Self {
        Fields {
            value,
            path: String::new(),
            problems: Vec::new(),
        }
    }

    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Records a problem with the field at `key`.
    pub fn problem(&mut self, key: &str, message: impl fmt::Display) {
        let path = self.path_of(key);
        self.problems.push(format!("'{path}': {message}"));
    }

    /// The value at `key` read as `kind`, or the default (and a problem).
    pub fn get<T: Default>(&mut self, key: &str, kind: Kind<T>) -> T {
        let value = self.value.get(key).and_then(kind.read);
        if value.is_none() {
            self.problem(key, format_args!("expected {}", kind.expected));
        }
        value.unwrap_or_default()
    }

    /// The value at `key` read as `kind`, or `None` when the key is absent.
    pub fn optional<T: Default>(&mut self, key: &str, kind: Kind<T>) -> Option<T> {
        self.value.get(key).map(|_| self.get(key, kind))
    }

    /// The items of the array at `key`, each read as `kind`. An item that
    /// fails to read is left out (and a problem).
    pub fn list<T>(&mut self, key: &str, kind: Kind<T>) -> Vec<T> {
        let items = self.array(key);
        let mut values = Vec::with_capacity(items.len());
        for (at, item) in items.iter().enumerate() {
            match (kind.read)(item) {
                Some(value) => values.push(value),
                None => self.problem(
                    &format!("{key}[{at}]"),
                    format_args!("expected {}", kind.expected),
                ),
            }
        }
        values
    }

    /// The objects of the array at `key`, each read through `table`.
    pub fn records<R: Default, F: AsRef<Field<R>>>(&mut self, key: &str, table: &[F]) -> Vec<R> {
        let path = self.path_of(key);
        let items = self.array(key);
        let entries = items.iter().enumerate();
        entries
            .map(|(at, item)| self.part(item, format!("{path}[{at}]"), table))
            .collect()
    }

    /// The object at `key`, read through `table`.
    pub fn nested<R: Default, F: AsRef<Field<R>>>(&mut self, key: &str, table: &[F]) -> R {
        let value: &'a JsonValue = self.value;
        match value.get(key) {
            Some(object @ JsonValue::Object(_)) => self.part(object, self.path_of(key), table),
            _ => {
                self.problem(key, "expected an object");
                R::default()
            }
        }
    }

    /// `value`, the part of the document at `path`, read through `table`.
    fn part<R: Default, F: AsRef<Field<R>>>(
        &mut self,
        value: &JsonValue,
        path: String,
        table: &[F],
    ) -> R {
        let mut part = Fields {
            value,
            path,
            problems: Vec::new(),
        };
        let record = part.record(table);
        self.problems.append(&mut part.problems);
        record
    }

    /// This object read through `table`: every field in table order, then
    /// each derived field checked against what it renders.
    pub fn record<R: Default, F: AsRef<Field<R>>>(&mut self, table: &[F]) -> R {
        let mut record = R::default();
        let fields = table.iter().map(AsRef::as_ref);
        for field in fields.clone() {
            if let Some(read) = field.read {
                read(&mut record, self, field.key);
            }
        }
        for field in fields.filter(|field| field.read.is_none()) {
            let expected = (field.write)(&record);
            if self.value.get(field.key) != expected.as_ref() {
                let expected =
                    expected.map_or_else(|| "absent".to_string(), |value| value.to_compact());
                self.problem(field.key, format_args!("must be {expected}"));
            }
        }
        record
    }

    /// `value` when no problem was found, else every problem.
    ///
    /// # Errors
    ///
    /// Every problem found, in reading order.
    pub fn finish<T>(self, value: T) -> Result<T, Vec<String>> {
        if self.problems.is_empty() {
            Ok(value)
        } else {
            Err(self.problems)
        }
    }

    fn array(&mut self, key: &str) -> &'a [JsonValue] {
        let value: &'a JsonValue = self.value;
        match value.get(key).and_then(JsonValue::as_array) {
            Some(items) => items,
            None => {
                self.problem(key, "expected an array");
                &[]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reprints_a_document() {
        let text = r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}}"#;
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.get("a").and_then(JsonValue::as_i64), Some(1));
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("c").unwrap().get("d").and_then(JsonValue::as_str),
            Some("x\ny")
        );
        // print -> parse is the identity.
        let reparsed = JsonValue::parse(&value.to_pretty()).unwrap();
        assert_eq!(value, reparsed);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        let original = JsonValue::Object(vec![
            ("int".to_string(), JsonValue::Int(i64::MAX)),
            ("hv".to_string(), JsonValue::Number(0.1 + 0.2)),
            ("tiny".to_string(), JsonValue::Number(5e-324)),
        ]);
        let reparsed = JsonValue::parse(&original.to_pretty()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "quote\" slash\\ newline\n tab\t unicode \u{1F600} control\u{0001}";
        let value = JsonValue::String(tricky.to_string());
        let reparsed = JsonValue::parse(&value.to_pretty()).unwrap();
        assert_eq!(reparsed.as_str(), Some(tricky));
        // Surrogate-pair escapes parse too.
        let emoji = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(emoji.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "[1e999]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
