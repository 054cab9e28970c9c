//! Hand-rolled line-delimited JSON (JSONL) codec.
//!
//! The engine's wire protocol is one flat JSON object per line: string,
//! integer/float and boolean values only — no nesting, no arrays. This
//! module supplies the std-only parse/serialize pair (the workspace has
//! no serde), sharing the report-writing philosophy of
//! [`crate::report`]: small, explicit, dependency-free.
//!
//! Serialization is deterministic: keys are emitted in insertion order,
//! floats through Rust's shortest-roundtrip `Display` (the same bytes on
//! every platform for the same bit pattern), and escaping covers exactly
//! `"`/`\\` plus control characters (as `\u00XX`). Parsing accepts the
//! standard JSON escapes and both integer and float notation.
//!
//! Two surfaces share that grammar:
//!
//! * the [`JsonObject`] tree — general, allocating, used by reports and
//!   the resynchronisation path;
//! * the ingest path — [`parse_record_borrowed`] decodes a protocol
//!   record as borrowed spans (escaped protocol strings decode into a
//!   caller-owned scratch buffer) with no steady-state heap allocation,
//!   and [`LineBuf`] renders event lines into a reusable buffer through
//!   the shared [`write_f64`]/[`write_u64`] formatters, byte-identical
//!   to [`JsonObject::to_line`].
//!
//! Byte streams are split into lines by one framer, [`LineFramer`],
//! which every JSONL stream reader drives (the engine's ingest and its
//! `convert` command).

use std::fmt::Write as _;

/// One scalar JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A JSON number (stored as `f64`; integers round-trip exactly up to
    /// 2^53).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl JsonValue {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A flat JSON object with insertion-ordered keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a string field.
    pub fn push_str(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.entries.push((key.to_string(), JsonValue::Str(value.into())));
        self
    }

    /// Appends a numeric field.
    pub fn push_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.entries.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Appends a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.entries.push((key.to_string(), JsonValue::Bool(value)));
        self
    }

    /// First value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String value under `key`, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Numeric value under `key`, if present and a number.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// All fields in insertion order.
    pub fn entries(&self) -> &[(String, JsonValue)] {
        &self.entries
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to one compact JSON line (no trailing newline).
    ///
    /// Non-finite numbers serialize as `null`-free `0` replacements are
    /// **not** applied here — they are the caller's bug; this codec
    /// emits them as `null` so a corrupt value is visible, not hidden.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(16 + 16 * self.entries.len());
        out.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            match v {
                JsonValue::Str(s) => escape_into(&mut out, s),
                JsonValue::Num(n) => write_f64(&mut out, *n),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line into a flat object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem: non-object
    /// lines, nested values, unterminated strings, bad escapes, or
    /// malformed numbers.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut parser = Parser { bytes: line.as_bytes(), pos: 0 };
        let obj = parser.parse_object()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(obj)
    }

    /// Parses one object from the front of `text`, returning it together
    /// with the number of bytes consumed. Unlike [`JsonObject::parse`],
    /// trailing content after the closing `}` is allowed — this is the
    /// building block of [`resync_line`], which recovers records from
    /// lines where a corrupted record and a valid one were fused.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse_prefix(text: &str) -> Result<(Self, usize), String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let obj = parser.parse_object()?;
        Ok((obj, parser.pos))
    }
}

/// One segment of a dirty input line, in line order: either a recovered
/// object or a span of bytes the decoder had to skip to resynchronise.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A valid flat object recovered from the line.
    Object(JsonObject),
    /// Bytes skipped while hunting for the next parsable record.
    Skipped {
        /// Number of bytes the span covers.
        bytes: usize,
        /// Why the span failed to parse (first failure in the span).
        reason: String,
    },
}

/// Scans a line that failed (or may fail) to parse as a single object
/// and recovers every embedded valid record, resynchronising past
/// corrupted spans.
///
/// The scanner walks the line left to right: at each `{` it attempts a
/// prefix parse ([`JsonObject::parse_prefix`]); on success the object is
/// emitted and scanning resumes after it, on failure the next `{` is
/// tried. Bytes not covered by a recovered object are reported as
/// [`Segment::Skipped`] spans carrying the first parse failure seen in
/// the span, so a truncated record fused with a healthy one
/// (`{"a":1,"b{"tenant":...}`) loses only the corrupted prefix.
///
/// Whitespace-only residue is not reported. The scan is linear in the
/// number of `{` candidates; callers bounding line length (see
/// [`LineFramer`]) bound its cost.
pub fn resync_line(line: &str) -> Vec<Segment> {
    let mut segments = Vec::new();
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    // Start of the current unconsumed (potentially skipped) span, plus
    // the first parse failure inside it.
    let mut skip_from = 0usize;
    let mut skip_reason: Option<String> = None;
    let flush_skip = |segments: &mut Vec<Segment>,
                          from: usize,
                          to: usize,
                          reason: &mut Option<String>| {
        let span = line.get(from..to).unwrap_or("");
        if !span.trim().is_empty() {
            segments.push(Segment::Skipped {
                bytes: to - from,
                reason: reason
                    .take()
                    .unwrap_or_else(|| "no object found".to_string()),
            });
        }
        *reason = None;
    };
    while pos < bytes.len() {
        let Some(off) = line.get(pos..).and_then(|rest| rest.find('{')) else {
            break;
        };
        let brace = pos + off;
        match line.get(brace..).map(JsonObject::parse_prefix) {
            Some(Ok((obj, consumed))) => {
                flush_skip(&mut segments, skip_from, brace, &mut skip_reason);
                segments.push(Segment::Object(obj));
                pos = brace + consumed;
                skip_from = pos;
            }
            Some(Err(reason)) => {
                if skip_reason.is_none() {
                    skip_reason = Some(reason);
                }
                pos = brace + 1;
            }
            None => break,
        }
    }
    flush_skip(&mut segments, skip_from, bytes.len(), &mut skip_reason);
    segments
}

/// One piece of a JSONL byte stream, as [`LineFramer`] hands it to its
/// sink, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece<'a> {
    /// A UTF-8-valid, non-blank stretch of one physical line: the whole
    /// line, or a fragment between invalid UTF-8 spans.
    Text(&'a str),
    /// Bytes the framer skipped: an oversized line or an invalid UTF-8
    /// span.
    Skipped {
        /// Number of bytes the span covers.
        bytes: usize,
        /// Why the span was skipped.
        reason: &'a str,
    },
}

/// The JSONL stream framer: splits arbitrary byte chunks into physical
/// lines and each line into [`Piece`]s. It is the one framing layer
/// every JSONL reader shares, so the pieces a stream yields never
/// depend on how its bytes were chunked:
///
/// * lines longer than `max_line` bytes are skipped wholesale (one
///   `Skipped` piece covering the whole line), whether the line arrived
///   in one chunk or many, so a stream that stops sending newlines
///   cannot grow the carry buffer without bound;
/// * invalid UTF-8 splits the line — the valid text before it is
///   emitted, the offending bytes are skipped, and the scan resumes
///   after them;
/// * blank text (whitespace only) is not emitted.
///
/// A line that ends inside one chunk is handed out as a borrowed slice
/// of that chunk; only a line spanning chunks is copied into the carry
/// buffer, which is reused from line to line.
#[derive(Debug)]
pub struct LineFramer {
    carry: Vec<u8>,
    max_line: usize,
    /// In discard mode (oversized line): bytes thrown away so far.
    discarding: Option<u64>,
    lines: u64,
    cap_reason: String,
}

impl LineFramer {
    /// A framer with a per-line byte cap (minimum 16).
    pub fn new(max_line: usize) -> Self {
        let max_line = max_line.max(16);
        LineFramer {
            carry: Vec::new(),
            max_line,
            discarding: None,
            lines: 0,
            cap_reason: format!("line exceeds the {max_line}-byte cap"),
        }
    }

    /// Number of physical lines (newline-terminated, or the final
    /// partial one at [`LineFramer::finish`]) framed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Frames one chunk of the stream, handing every piece of each line
    /// the chunk completes to `sink`.
    pub fn push(&mut self, chunk: &[u8], mut sink: impl FnMut(Piece<'_>)) {
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let head = rest.get(..nl).unwrap_or(rest);
            rest = rest.get(nl + 1..).unwrap_or(&[]);
            self.lines += 1;
            let len = self.carry.len() + head.len();
            if let Some(dropped) = self.discarding.take() {
                self.skip_oversized(dropped + head.len() as u64, &mut sink);
            } else if len > self.max_line {
                self.carry.clear();
                self.skip_oversized(len as u64, &mut sink);
            } else if self.carry.is_empty() {
                split_utf8(head, &mut sink);
            } else {
                self.carry.extend_from_slice(head);
                split_utf8(&self.carry, &mut sink);
                self.carry.clear();
            }
        }
        match self.discarding.as_mut() {
            Some(dropped) => *dropped += rest.len() as u64,
            None if self.carry.len() + rest.len() > self.max_line => {
                self.discarding = Some((self.carry.len() + rest.len()) as u64);
                self.carry.clear();
            }
            None => self.carry.extend_from_slice(rest),
        }
    }

    /// Frames the trailing unterminated line at end of stream.
    pub fn finish(&mut self, mut sink: impl FnMut(Piece<'_>)) {
        if let Some(dropped) = self.discarding.take() {
            self.lines += 1;
            self.skip_oversized(dropped, &mut sink);
        } else if !self.carry.is_empty() {
            self.lines += 1;
            split_utf8(&self.carry, &mut sink);
            self.carry.clear();
        }
    }

    fn skip_oversized(&self, bytes: u64, sink: &mut impl FnMut(Piece<'_>)) {
        sink(Piece::Skipped { bytes: bytes as usize, reason: &self.cap_reason });
    }
}

/// Emits one complete physical line (no trailing newline) as pieces,
/// splitting around invalid UTF-8.
fn split_utf8(line: &[u8], sink: &mut impl FnMut(Piece<'_>)) {
    let mut rest = line;
    loop {
        let (text, bad) = match std::str::from_utf8(rest) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = e.valid_up_to();
                let text = rest
                    .get(..valid)
                    .and_then(|p| std::str::from_utf8(p).ok())
                    .unwrap_or_default();
                (text, Some((valid, e.error_len().unwrap_or(rest.len() - valid).max(1))))
            }
        };
        if !text.trim().is_empty() {
            sink(Piece::Text(text));
        }
        let Some((valid, bad)) = bad else {
            return;
        };
        sink(Piece::Skipped { bytes: bad, reason: "invalid UTF-8" });
        rest = rest.get((valid + bad).min(rest.len())..).unwrap_or(&[]);
    }
}

/// Default per-line byte cap of a JSONL stream reader.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// Appends `s` as a quoted, escaped JSON string.
fn escape_into(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' at end of line", b as char)),
        }
    }

    fn parse_object(&mut self) -> Result<JsonObject, String> {
        self.skip_ws();
        self.expect_byte(b'{')?;
        let mut obj = JsonObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            obj.entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(obj),
                Some(b) => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos - 1,
                        b as char
                    ))
                }
                None => return Err("unterminated object".to_string()),
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'{' | b'[') => Err(format!(
                "nested values are not part of the protocol (byte {})",
                self.pos
            )),
            Some(_) => self.parse_number(),
            None => Err("expected a value at end of line".to_string()),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(format!("malformed keyword at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let end = self.pos + 4;
                        let hex = self
                            .bytes
                            .get(self.pos..end)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs are outside the protocol's
                        // character set; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                        self.pos = end;
                    }
                    Some(b) => return Err(format!("bad escape '\\{}'", b as char)),
                    None => return Err("unterminated escape".to_string()),
                },
                Some(b) if b < 0x20 => {
                    return Err("raw control character in string".to_string())
                }
                Some(_) => {
                    // Re-scan from the byte we consumed to keep UTF-8
                    // sequences intact.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }
}

/// Appends `n` in decimal without going through `core::fmt`.
// hot-path
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        if let Some(d) = digits.get_mut(at) {
            *d = b'0' + (n % 10) as u8;
        }
        n /= 10;
        if n == 0 || at == 0 {
            break;
        }
    }
    if let Ok(text) = std::str::from_utf8(digits.get(at..).unwrap_or(&[])) {
        out.push_str(text);
    }
}

/// Appends `n` in decimal, byte-identical to `i64`'s `Display`.
// hot-path
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `n` in the codec's canonical number format: integers without
/// a fraction (fast digit loop), everything else through Rust's
/// shortest-roundtrip `Display`, non-finite values as `null`. This is
/// the single authority both [`JsonObject::to_line`] and [`LineBuf`]
/// render numbers through, so their outputs are byte-identical.
// hot-path
pub fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        // Integers print without a fraction; everything else uses
        // shortest-roundtrip formatting.
        // lint:allow(float-eq) -- exact zero fraction selects integer formatting; near-integers must round-trip via {n}
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            write_i64(out, n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        out.push_str("null");
    }
}

/// A reusable JSONL line writer: the allocation-free counterpart of
/// building a [`JsonObject`] and calling [`JsonObject::to_line`]. The
/// internal buffer is cleared — not freed — by [`LineBuf::begin`], so a
/// long-lived `LineBuf` renders every event of a stream with zero
/// steady-state allocation. Field for field it emits exactly the bytes
/// `to_line` would (same escaping, same number format).
#[derive(Debug, Default)]
pub struct LineBuf {
    buf: String,
    fields: usize,
}

impl LineBuf {
    /// An empty writer.
    pub fn new() -> Self {
        LineBuf::default()
    }

    /// Starts a new line, discarding the previous one (the allocation is
    /// kept).
    // hot-path
    pub fn begin(&mut self) -> &mut Self {
        self.buf.clear();
        self.fields = 0;
        self.buf.push('{');
        self
    }

    // hot-path
    fn sep(&mut self) {
        if self.fields > 0 {
            self.buf.push(',');
        }
        self.fields += 1;
    }

    /// Appends a string field.
    // hot-path
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        escape_into(&mut self.buf, value);
        self
    }

    /// Appends a numeric field in the canonical [`write_f64`] format.
    // hot-path
    pub fn field_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        write_f64(&mut self.buf, value);
        self
    }

    /// Appends an unsigned integer field via the fast digit loop.
    ///
    /// Matches [`LineBuf::field_num`] byte for byte up to 2^53, the
    /// codec's exact-integer range.
    // hot-path
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        write_u64(&mut self.buf, value);
        self
    }

    /// Appends a boolean field.
    // hot-path
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the line and returns it (no trailing newline). The buffer
    /// stays valid until the next [`LineBuf::begin`].
    // hot-path
    pub fn end(&mut self) -> &str {
        self.buf.push('}');
        &self.buf
    }
}

/// Why a line is not a protocol record. [`parse_record_borrowed`]
/// returns this as a small `Copy` enum — no `String` is built unless an error is actually
/// rendered (see [`RecordError::reason`]), which keeps rejected lines
/// cheap in the ingest hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line is not one syntactically valid flat JSON object.
    Syntax,
    /// No `"tenant"` field with a string value.
    MissingTenant,
    /// The `"tenant"` string is empty.
    EmptyTenant,
    /// A `"ctl"` field is present but not a string.
    CtlNotString,
    /// The `"ctl"` verb is not one the protocol knows.
    UnknownCtl,
    /// No numeric `"access"` field on a sample record.
    MissingAccess,
    /// No numeric `"miss"` field on a sample record.
    MissingMiss,
    /// `"access"`/`"miss"` parsed to a non-finite number.
    NonFinite,
}

impl RecordError {
    /// The human-readable reason, rendered lazily (static, no
    /// allocation).
    pub fn reason(self) -> &'static str {
        match self {
            RecordError::Syntax => "malformed record syntax",
            RecordError::MissingTenant => "missing string field \"tenant\"",
            RecordError::EmptyTenant => "field \"tenant\" must be non-empty",
            RecordError::CtlNotString => "field \"ctl\" must be a string",
            RecordError::UnknownCtl => "unknown control verb",
            RecordError::MissingAccess => "missing numeric field \"access\"",
            RecordError::MissingMiss => "missing numeric field \"miss\"",
            RecordError::NonFinite => "counter fields must be finite",
        }
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// A protocol record borrowed straight from the line that carried it:
/// the tenant name is a span of the input, not a copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRecord<'a> {
    /// Decoded tenant name: a span of the line when it holds no escape
    /// sequence, else the caller's scratch buffer holding the decoded
    /// value.
    pub tenant: &'a str,
    /// Sample payload or control verb.
    pub kind: RawKind,
}

/// The payload of a [`RawRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawKind {
    /// A PCM sample: one `(AccessNum, MissNum)` pair.
    Sample {
        /// Bus accesses in the sampling period.
        access: f64,
        /// LLC misses in the sampling period.
        miss: f64,
    },
    /// The `{"ctl":"close"}` control record.
    Close,
}

/// Parses one protocol record directly from the line's bytes — the
/// engine's one record parser.
///
/// The grammar and field semantics are those of [`JsonObject::parse`]
/// followed by record validation: flat objects only, duplicate keys
/// first-wins (after escape decoding), the same escape/number syntax,
/// and the same [`RecordError`] class for every rejected line. The
/// parser is total: every line yields a record or a reject.
///
/// Strings are scanned in place. The few that need decoding — an
/// escaped key, tenant name or `ctl` value — are decoded into
/// `scratch`, whose allocation the caller keeps from line to line, so
/// steady-state ingest allocates nothing; a clean tenant name is
/// returned as a span of `line`.
///
/// # Errors
///
/// Returns the [`RecordError`] class of the first problem.
// hot-path
pub fn parse_record_borrowed<'a>(
    line: &'a str,
    scratch: &'a mut String,
) -> Result<RawRecord<'a>, RecordError> {
    let mut p = RawParser { bytes: line.as_bytes(), text: line, pos: 0 };
    // First occurrence per protocol key, matching `JsonObject::get`.
    let mut tenant: Option<RawValue<'_>> = None;
    let mut ctl: Option<RawValue<'_>> = None;
    let mut access: Option<RawValue<'_>> = None;
    let mut miss: Option<RawValue<'_>> = None;

    p.skip_ws();
    if p.bump() != Some(b'{') {
        return Err(RecordError::Syntax);
    }
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string_raw().map_err(|()| RecordError::Syntax)?;
            p.skip_ws();
            if p.bump() != Some(b':') {
                return Err(RecordError::Syntax);
            }
            p.skip_ws();
            let value = p.parse_value_raw().map_err(|()| RecordError::Syntax)?;
            let slot = match key.decode(scratch) {
                "tenant" => Some(&mut tenant),
                "ctl" => Some(&mut ctl),
                "access" => Some(&mut access),
                "miss" => Some(&mut miss),
                _ => None,
            };
            if let Some(slot) = slot {
                slot.get_or_insert(value);
            }
            p.skip_ws();
            match p.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(RecordError::Syntax),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(RecordError::Syntax);
    }
    // Record validation, in the order of `Record::from_object`.
    let Some(RawValue::Str(tenant)) = tenant else {
        return Err(RecordError::MissingTenant);
    };
    // Every escape decodes to at least one character, so the span is
    // empty exactly when the decoded name is.
    if tenant.span().is_empty() {
        return Err(RecordError::EmptyTenant);
    }
    let kind = match ctl {
        Some(RawValue::Str(verb)) if verb.decode(scratch) == "close" => RawKind::Close,
        Some(RawValue::Str(_)) => return Err(RecordError::UnknownCtl),
        Some(RawValue::Num(_) | RawValue::Bool) => return Err(RecordError::CtlNotString),
        None => {
            let Some(RawValue::Num(access)) = access else {
                return Err(RecordError::MissingAccess);
            };
            let Some(RawValue::Num(miss)) = miss else {
                return Err(RecordError::MissingMiss);
            };
            if !access.is_finite() || !miss.is_finite() {
                return Err(RecordError::NonFinite);
            }
            RawKind::Sample { access, miss }
        }
    };
    Ok(RawRecord { tenant: tenant.decode(scratch), kind })
}

/// A string scanned in place by [`RawParser`]: the span between the
/// quotes, and whether it holds escape sequences (a clean span *is* the
/// decoded value).
#[derive(Debug, Clone, Copy)]
enum RawStr<'a> {
    Plain(&'a str),
    Escaped(&'a str),
}

impl<'a> RawStr<'a> {
    /// The raw span between the quotes.
    fn span(self) -> &'a str {
        match self {
            RawStr::Plain(s) | RawStr::Escaped(s) => s,
        }
    }

    /// The decoded value: the span itself when it is clean, else the
    /// span decoded into `scratch` (replacing its previous contents).
    // hot-path
    fn decode<'s>(self, scratch: &'s mut String) -> &'s str
    where
        'a: 's,
    {
        match self {
            RawStr::Plain(s) => s,
            RawStr::Escaped(raw) => {
                scratch.clear();
                unescape_into(raw, scratch);
                scratch
            }
        }
    }
}

/// Appends the decoded value of a string span that
/// [`RawParser::parse_string_raw`] already validated, so every escape in
/// it is well formed. Decodes exactly as [`Parser::parse_string`] does.
// hot-path
fn unescape_into(raw: &str, out: &mut String) {
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        out.push_str(rest.get(..at).unwrap_or_default());
        let esc = rest.get(at + 1..).unwrap_or_default();
        let (c, len) = match esc.as_bytes().first() {
            Some(b'n') => ('\n', 1),
            Some(b'r') => ('\r', 1),
            Some(b't') => ('\t', 1),
            Some(b'b') => ('\u{0008}', 1),
            Some(b'f') => ('\u{000c}', 1),
            Some(b'u') => {
                let code = esc.get(1..5).and_then(|hex| u32::from_str_radix(hex, 16).ok());
                (code.and_then(char::from_u32).unwrap_or(char::REPLACEMENT_CHARACTER), 5)
            }
            // `"`, `\` and `/` stand for themselves.
            Some(&b) => (char::from(b), 1),
            None => break,
        };
        out.push(c);
        rest = esc.get(len..).unwrap_or_default();
    }
    out.push_str(rest);
}

/// A value scanned in place by [`RawParser`].
#[derive(Debug, Clone, Copy)]
enum RawValue<'a> {
    Str(RawStr<'a>),
    Num(f64),
    Bool,
}

/// The in-place twin of [`Parser`]: identical control flow and
/// validation, but strings come back as spans of the input instead of
/// freshly decoded `String`s. Any divergence between the two is a bug —
/// the engine's parser-equivalence suite drives both over the same
/// corpus.
struct RawParser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> RawParser<'a> {
    // hot-path
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    // hot-path
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    // hot-path
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Scans a quoted string, validating the same escape grammar as
    /// [`Parser::parse_string`] without decoding it.
    // hot-path
    fn parse_string_raw(&mut self) -> Result<RawStr<'a>, ()> {
        if self.bump() != Some(b'"') {
            return Err(());
        }
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                Some(b'"') => {
                    // Both span boundaries sit on ASCII quotes, so the
                    // slice is valid UTF-8 whenever the input is (it
                    // is: we were handed a `&str`).
                    let span = self.text.get(start..self.pos - 1).ok_or(())?;
                    return Ok(if escaped { RawStr::Escaped(span) } else { RawStr::Plain(span) });
                }
                Some(b'\\') => {
                    escaped = true;
                    match self.bump() {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                        Some(b'u') => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ())?;
                            // Same scalar-value check as `Parser`.
                            char::from_u32(code).ok_or(())?;
                            self.pos = end;
                        }
                        _ => return Err(()),
                    }
                }
                Some(b) if b < 0x20 => return Err(()),
                Some(_) => {}
                None => return Err(()),
            }
        }
    }

    // hot-path
    fn parse_number_raw(&mut self) -> Result<f64, ()> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ())?
            .parse::<f64>()
            .map_err(|_| ())
    }

    // hot-path
    fn parse_value_raw(&mut self) -> Result<RawValue<'a>, ()> {
        match self.peek() {
            Some(b'"') => self.parse_string_raw().map(RawValue::Str),
            Some(b't') => self.parse_keyword_raw("true"),
            Some(b'f') => self.parse_keyword_raw("false"),
            Some(b'{' | b'[') => Err(()),
            Some(_) => self.parse_number_raw().map(RawValue::Num),
            None => Err(()),
        }
    }

    // hot-path
    fn parse_keyword_raw(&mut self, word: &str) -> Result<RawValue<'a>, ()> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(RawValue::Bool)
        } else {
            Err(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_typical_sample_line() {
        let mut obj = JsonObject::new();
        obj.push_str("tenant", "vm-0").push_num("access", 1234.0).push_num("miss", 56.0);
        let line = obj.to_line();
        assert_eq!(line, r#"{"tenant":"vm-0","access":1234,"miss":56}"#);
        let back = JsonObject::parse(&line).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn roundtrips_floats_and_bools() {
        let mut obj = JsonObject::new();
        obj.push_num("period", 17.25).push_bool("periodic", true).push_num("neg", -0.5);
        let back = JsonObject::parse(&obj.to_line()).unwrap();
        assert_eq!(back.get_f64("period"), Some(17.25));
        assert_eq!(back.get("periodic").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(back.get_f64("neg"), Some(-0.5));
    }

    #[test]
    fn escapes_are_symmetric() {
        let mut obj = JsonObject::new();
        obj.push_str("name", "a\"b\\c\nd\te\u{1}");
        let line = obj.to_line();
        let back = JsonObject::parse(&line).unwrap();
        assert_eq!(back.get_str("name"), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn parses_whitespace_and_scientific_notation() {
        let obj = JsonObject::parse(r#" { "a" : 1e3 , "b" : "x" } "#).unwrap();
        assert_eq!(obj.get_f64("a"), Some(1000.0));
        assert_eq!(obj.get_str("b"), Some("x"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(JsonObject::parse("").is_err());
        assert!(JsonObject::parse("[1,2]").is_err());
        assert!(JsonObject::parse(r#"{"a":}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":1"#).is_err());
        assert!(JsonObject::parse(r#"{"a":{"b":1}}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":1} trailing"#).is_err());
        assert!(JsonObject::parse(r#"{"a":"unterminated}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":nope}"#).is_err());
    }

    #[test]
    fn empty_object_roundtrips() {
        let obj = JsonObject::parse("{}").unwrap();
        assert!(obj.is_empty());
        assert_eq!(obj.to_line(), "{}");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut obj = JsonObject::new();
        obj.push_num("bad", f64::NAN);
        assert_eq!(obj.to_line(), r#"{"bad":null}"#);
    }

    #[test]
    fn unicode_content_roundtrips() {
        let mut obj = JsonObject::new();
        obj.push_str("name", "tenant-α-β");
        let back = JsonObject::parse(&obj.to_line()).unwrap();
        assert_eq!(back.get_str("name"), Some("tenant-α-β"));
    }

    #[test]
    fn parse_prefix_reports_consumed_bytes() {
        let text = r#"{"a":1} {"b":2}"#;
        let (obj, consumed) = JsonObject::parse_prefix(text).unwrap();
        assert_eq!(obj.get_f64("a"), Some(1.0));
        assert_eq!(consumed, 7);
        let (obj2, _) = JsonObject::parse_prefix(&text[consumed..]).unwrap();
        assert_eq!(obj2.get_f64("b"), Some(2.0));
    }

    #[test]
    fn resync_recovers_record_after_truncated_prefix() {
        // A record truncated mid-field, fused with a healthy one — the
        // exact shape a lost newline produces.
        let line = r#"{"tenant":"vm-0","acc{"tenant":"vm-1","access":1,"miss":2}"#;
        let segments = resync_line(line);
        assert_eq!(segments.len(), 2, "{segments:?}");
        assert!(matches!(&segments[0], Segment::Skipped { bytes: 21, .. }));
        match &segments[1] {
            Segment::Object(obj) => assert_eq!(obj.get_str("tenant"), Some("vm-1")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn resync_recovers_multiple_fused_records() {
        let line = r#"{"a":1}{"b":2}garbage{"c":3}"#;
        let segments = resync_line(line);
        let objects: Vec<&JsonObject> = segments
            .iter()
            .filter_map(|s| match s {
                Segment::Object(o) => Some(o),
                Segment::Skipped { .. } => None,
            })
            .collect();
        assert_eq!(objects.len(), 3);
        let skipped = segments.len() - objects.len();
        assert_eq!(skipped, 1);
    }

    #[test]
    fn resync_on_hopeless_garbage_is_one_skip() {
        let segments = resync_line("%%% not json at all %%%");
        assert_eq!(segments.len(), 1);
        assert!(matches!(&segments[0], Segment::Skipped { .. }));
        assert!(resync_line("   ").is_empty());
    }

    #[test]
    fn integer_writers_match_display() {
        let mut out = String::new();
        for n in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX, 10_u64.pow(19)] {
            out.clear();
            write_u64(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
        for n in [0i64, -1, 1, -42, i64::MIN, i64::MAX, 9_007_199_254_740_992] {
            out.clear();
            write_i64(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
    }

    #[test]
    fn write_f64_matches_to_line_rendering() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            1234.5,
            17.25,
            -0.5,
            1.0e-12,
            9.0e15,
            8.999e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut fast = String::new();
            write_f64(&mut fast, v);
            let mut obj = JsonObject::new();
            obj.push_num("v", v);
            assert_eq!(format!("{{\"v\":{fast}}}"), obj.to_line(), "value {v}");
        }
    }

    #[test]
    fn linebuf_matches_jsonobject_to_line() {
        let mut obj = JsonObject::new();
        obj.push_str("event", "verdict")
            .push_str("tenant", "vm-α \"quoted\"\n")
            .push_num("seq", 12_345.0)
            .push_num("score", -0.125)
            .push_bool("alarm", true);
        let mut buf = LineBuf::new();
        buf.begin();
        for (k, v) in obj.entries() {
            match v {
                JsonValue::Str(s) => buf.field_str(k, s),
                JsonValue::Num(n) => buf.field_num(k, *n),
                JsonValue::Bool(b) => buf.field_bool(k, *b),
            };
        }
        assert_eq!(buf.end(), obj.to_line());
        // The buffer is reusable and begin() resets the separator state.
        buf.begin().field_u64("seq", 7);
        assert_eq!(buf.end(), r#"{"seq":7}"#);
    }

    /// [`parse_record_borrowed`] with an owned tenant name.
    fn parse_record(line: &str) -> Result<(String, RawKind), RecordError> {
        let mut scratch = String::new();
        parse_record_borrowed(line, &mut scratch).map(|r| (r.tenant.to_string(), r.kind))
    }

    #[test]
    fn borrowed_parser_accepts_clean_records() {
        match parse_record(r#"{"tenant":"vm-0","access":1234,"miss":56}"#) {
            Ok((tenant, RawKind::Sample { access, miss })) => {
                assert_eq!(tenant, "vm-0");
                assert_eq!(access, 1234.0);
                assert_eq!(miss, 56.0);
            }
            other => panic!("expected sample, got {other:?}"),
        }
        match parse_record(r#" { "tenant" : "vm-1" , "ctl" : "close" } "#) {
            Ok((tenant, RawKind::Close)) => assert_eq!(tenant, "vm-1"),
            other => panic!("expected close, got {other:?}"),
        }
        // Extra fields are ignored; duplicate keys are first-wins.
        match parse_record(r#"{"tenant":"a","access":1,"miss":2,"access":9,"x":true}"#) {
            Ok((_, RawKind::Sample { access, .. })) => {
                assert_eq!(access, 1.0);
            }
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn borrowed_parser_rejects_with_the_object_parser_reason() {
        for (line, want) in [
            ("", RecordError::Syntax),
            ("nope", RecordError::Syntax),
            (r#"{"tenant":"a","access":1,"miss":2} x"#, RecordError::Syntax),
            (r#"{"tenant":{"a":1}}"#, RecordError::Syntax),
            ("{}", RecordError::MissingTenant),
            (r#"{"tenant":7,"access":1,"miss":2}"#, RecordError::MissingTenant),
            (r#"{"tenant":"","access":1,"miss":2}"#, RecordError::EmptyTenant),
            (r#"{"tenant":"a","ctl":7}"#, RecordError::CtlNotString),
            (r#"{"tenant":"a","ctl":"open"}"#, RecordError::UnknownCtl),
            (r#"{"tenant":"a"}"#, RecordError::MissingAccess),
            (r#"{"tenant":"a","access":1}"#, RecordError::MissingMiss),
            (r#"{"tenant":"a","access":1e999,"miss":2}"#, RecordError::NonFinite),
            // A malformed escape is a syntax error.
            (r#"{"tenant":"a\qb","access":1,"miss":2}"#, RecordError::Syntax),
        ] {
            assert_eq!(parse_record(line), Err(want), "line {line:?}");
        }
    }

    #[test]
    fn borrowed_parser_decodes_escapes_in_protocol_strings() {
        // Escaped key that decodes to a protocol field name.
        let escaped_key = "{\"\\u0074enant\":\"a\",\"access\":1,\"miss\":2}";
        assert!(matches!(parse_record(escaped_key), Ok((tenant, _)) if tenant == "a"));
        // Escaped tenant value: decoded into the scratch buffer.
        let escaped_tenant = r#"{"tenant":"vm\u002d0\n\"x\"","access":1,"miss":2}"#;
        assert!(matches!(parse_record(escaped_tenant), Ok((tenant, _)) if tenant == "vm-0\n\"x\""));
        // Escaped ctl verb.
        let escaped_ctl = "{\"tenant\":\"a\",\"ctl\":\"clos\\u0065\"}";
        assert!(matches!(parse_record(escaped_ctl), Ok((_, RawKind::Close))));
        // Escapes in an ignored string value decide nothing.
        assert!(parse_record(r#"{"tenant":"a","note":"x\ty","access":1,"miss":2}"#).is_ok());
    }
}
