//! Equivalence suite for the JSONL grammar and the record decoder.
//!
//! `memdos_metrics::jsonl` has one JSON grammar: `JsonObject::parse`,
//! `JsonObject::parse_prefix`, `resync_line` and `parse_record_borrowed`
//! all drive one object walker, and every record — from a clean line or
//! a span `resync_line` recovered — decodes through
//! `parse_record_borrowed`. The reference they must match lives in
//! [`reference`]: the general object parser the crate used to carry as
//! a second grammar, and the record validation (`from_object`) that
//! decoded resynchronised objects, both frozen here as they were. The
//! contract this file pins:
//!
//! * on every input — clean, corrupted, escape-bearing — the record
//!   parser returns a record or a reject (it has no third outcome), with
//!   the reference's accept/reject decision, error class, tenant bytes
//!   and `f64` bits;
//! * `JsonObject::parse` and `JsonObject::parse_prefix` return the
//!   reference's object (bit-exact numbers), consumed byte count and
//!   error message: messages are log text, the skip reasons of
//!   `malformed` events;
//! * `resync_line` yields the reference resync's objects, skipped byte
//!   counts and reasons;
//! * the corpus is seeded (`memdos_stats::rng`), so a failure reproduces
//!   from its case number alone.

use memdos_engine::protocol::{Record, RecordError};
use memdos_metrics::jsonl::{parse_record_borrowed, resync_line, JsonObject, RawKind, Segment};
use memdos_stats::rng::{derive_seed, Rng};

/// The frozen reference: the object parser and record validation the
/// crate's sources used before the grammar became one. Test-only; do
/// not edit it to make a test pass.
mod reference {
    use memdos_core::detector::Observation;
    use memdos_engine::protocol::{Record, RecordError};
    use memdos_metrics::jsonl::{JsonObject, JsonValue};

    /// `JsonObject::parse` as it was.
    pub fn parse(line: &str) -> Result<JsonObject, String> {
        let mut parser = Parser { bytes: line.as_bytes(), text: line, pos: 0 };
        let obj = parser.parse_object()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(obj)
    }

    /// `JsonObject::parse_prefix` as it was.
    pub fn parse_prefix(text: &str) -> Result<(JsonObject, usize), String> {
        let mut parser = Parser { bytes: text.as_bytes(), text, pos: 0 };
        let obj = parser.parse_object()?;
        Ok((obj, parser.pos))
    }

    /// `resync_line` as it was, with each segment as an object or a
    /// `(bytes, reason)` skip.
    pub fn resync(line: &str) -> Vec<Result<JsonObject, (usize, String)>> {
        let mut segments = Vec::new();
        let bytes = line.as_bytes();
        let mut pos = 0usize;
        let mut skip_from = 0usize;
        let mut skip_reason: Option<String> = None;
        let flush_skip = |segments: &mut Vec<Result<JsonObject, (usize, String)>>,
                          from: usize,
                          to: usize,
                          reason: &mut Option<String>| {
            let span = line.get(from..to).unwrap_or("");
            if !span.trim().is_empty() {
                segments.push(Err((
                    to - from,
                    reason.take().unwrap_or_else(|| "no object found".to_string()),
                )));
            }
            *reason = None;
        };
        while pos < bytes.len() {
            let Some(off) = line.get(pos..).and_then(|rest| rest.find('{')) else {
                break;
            };
            let brace = pos + off;
            match line.get(brace..).map(parse_prefix) {
                Some(Ok((obj, consumed))) => {
                    flush_skip(&mut segments, skip_from, brace, &mut skip_reason);
                    segments.push(Ok(obj));
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

    /// Stands in for the private `entries` push of the original.
    fn push_entry(obj: &mut JsonObject, key: String, value: JsonValue) {
        match value {
            JsonValue::Str(s) => obj.push_str(&key, s),
            JsonValue::Num(n) => obj.push_num(&key, n),
            JsonValue::Bool(b) => obj.push_bool(&key, b),
        };
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        text: &'a str,
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
                push_entry(&mut obj, key, value);
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
                        // Re-read the character that starts at the byte we
                        // consumed, to keep UTF-8 sequences intact. Only
                        // that character is decoded: validating the whole
                        // tail per character made a long string quadratic.
                        let start = self.pos - 1;
                        let c = self
                            .text
                            .get(start..)
                            .and_then(|rest| rest.chars().next())
                            .ok_or("invalid UTF-8 in string")?;
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn parse_number(&mut self) -> Result<JsonValue, String> {
            let start = self.pos;
            let (span, value) = scan_number(self.text, start);
            self.pos += span.len();
            value.map(JsonValue::Num).ok_or_else(|| format!("malformed number {span:?} at byte {start}"))
        }
    }

    /// The one number scanner both parsers share: the span of number bytes
    /// (`[-+.eE0-9]`) starting at `start`, found with one slice search, and
    /// its value through `str::parse` (`None` if malformed). The span is
    /// ASCII and follows a character boundary, so it is a `&str` slice of
    /// `text` with no UTF-8 check.
    // hot-path
    fn scan_number(text: &str, start: usize) -> (&str, Option<f64>) {
        let rest = text.as_bytes().get(start..).unwrap_or_default();
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            .unwrap_or(rest.len());
        let span = text.get(start..start + len).unwrap_or_default();
        (span, span.parse::<f64>().ok())
    }

    pub fn from_object(obj: &JsonObject) -> Result<Record, RecordError> {
        let tenant = obj
            .get_str("tenant")
            .ok_or(RecordError::MissingTenant)?
            .to_string();
        if tenant.is_empty() {
            return Err(RecordError::EmptyTenant);
        }
        if let Some(ctl) = obj.get("ctl") {
            return match ctl.as_str() {
                Some("close") => Ok(Record::Close { tenant }),
                Some(_) => Err(RecordError::UnknownCtl),
                None => Err(RecordError::CtlNotString),
            };
        }
        let access = obj.get_f64("access").ok_or(RecordError::MissingAccess)?;
        let miss = obj.get_f64("miss").ok_or(RecordError::MissingMiss)?;
        if !access.is_finite() || !miss.is_finite() {
            return Err(RecordError::NonFinite);
        }
        Ok(Record::Sample { tenant, obs: Observation { access_num: access, miss_num: miss } })
    }
}

/// The reference decode: the general object parser, then record
/// validation.
fn reference(line: &str) -> Result<Record, RecordError> {
    let obj = reference::parse(line).map_err(|_| RecordError::Syntax)?;
    reference::from_object(&obj)
}

/// Asserts that `got` and `want` are equal to the bit: `Debug` prints
/// every `f64` as its shortest round-trip digits, so `-0.0` and `0.0`
/// differ.
fn assert_same<T: std::fmt::Debug>(got: T, want: T, what: &str, line: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what} diverged on {line:?}");
}

/// Asserts that the object parsers, and resync built on them, agree
/// with the reference on `line`: value, consumed bytes and message.
fn assert_grammar_equivalent(line: &str) {
    assert_same(JsonObject::parse(line), reference::parse(line), "JsonObject::parse", line);
    assert_same(
        JsonObject::parse_prefix(line),
        reference::parse_prefix(line),
        "JsonObject::parse_prefix",
        line,
    );
    let segments: Vec<Result<JsonObject, (usize, String)>> = resync_line(line)
        .into_iter()
        .map(|segment| match segment {
            Segment::Object(span) => Ok(JsonObject::parse(span).expect("a recovered span parses")),
            Segment::Skipped { bytes, reason } => Err((bytes, reason)),
        })
        .collect();
    assert_same(segments, reference::resync(line), "resync_line", line);
}

/// Asserts every equivalence the parsers promise on one line.
fn assert_equivalent(line: &str) {
    assert_grammar_equivalent(line);
    let want = reference(line);
    assert_eq!(Record::parse(line), want, "Record::parse diverged on {line:?}");
    let mut scratch = String::new();
    match (parse_record_borrowed(line, &mut scratch), &want) {
        (Ok(raw), Ok(record)) => {
            assert_eq!(
                raw.tenant.as_bytes(),
                record.tenant().as_bytes(),
                "tenant diverged on {line:?}"
            );
            match (&raw.kind, record) {
                (RawKind::Sample { access, miss }, Record::Sample { obs, .. }) => {
                    // Bit-exact: both parsers funnel the same text
                    // through `f64::from_str`.
                    assert_eq!(
                        access.to_bits(),
                        obs.access_num.to_bits(),
                        "access diverged on {line:?}"
                    );
                    assert_eq!(
                        miss.to_bits(),
                        obs.miss_num.to_bits(),
                        "miss diverged on {line:?}"
                    );
                }
                (RawKind::Close, Record::Close { .. }) => {}
                (k, r) => panic!("kind diverged on {line:?}: parsed {k:?}, reference {r:?}"),
            }
        }
        (Err(e), Err(want_e)) => assert_eq!(&e, want_e, "error class diverged on {line:?}"),
        (got, want) => panic!("decision diverged on {line:?}: parsed {got:?}, reference {want:?}"),
    }
}

/// Handwritten grammar corners: every accept shape, every reject class,
/// every escape a protocol string can carry.
#[test]
fn handwritten_edge_cases_are_equivalent() {
    let lines = [
        // Accepts.
        r#"{"tenant":"vm-0","access":1234,"miss":56}"#,
        r#"{"tenant":"vm-0","ctl":"close"}"#,
        r#"{"tenant":"vm-1","ctl":"close"}"#,
        r#" { "tenant" : "vm-1" , "access" : 1e3 , "miss" : 0.5 } "#,
        r#" { "tenant" : "vm-2" , "access" : 1e3 , "miss" : 0.5 } "#,
        r#"{"tenant":"vm-0","access":-1.5e-3,"miss":+2.5}"#,
        r#"{"tenant":"vm-0","access":1,"miss":2,"extra":"ignored","n":null,"b":true}"#,
        r#"{"tenant":"a","access":1,"miss":2,"tenant":"b"}"#, // duplicate: first wins
        r#"{"access":9,"tenant":"vm-0","miss":8,"access":1}"#,
        // Rejects, syntactic.
        "",
        "   ",
        "not json",
        "{",
        r#"{"tenant":"vm-0","access":1,"miss":2"#,
        r#"{"tenant":"vm-0","access":1,"miss":2}trailing"#,
        r#"{"tenant":"vm-0",}"#,
        r#"{"tenant":"vm-0" "access":1}"#,
        r#"{"tenant":[1],"access":1,"miss":2}"#,
        r#"{"tenant":"vm-0","access":1..2,"miss":2}"#,
        "{\"tenant\":\"vm\u{1}0\",\"access\":1,\"miss\":2}", // raw control byte
        "{\"tenant\":\"vm\\q\",\"access\":1,\"miss\":2}",    // bad escape
        "{\"tenant\":\"vm\\u00zz\",\"access\":1,\"miss\":2}", // bad \u hex
        // Rejects, semantic.
        "{}",
        r#"{"access":1,"miss":2}"#,
        r#"{"tenant":"","access":1,"miss":2}"#,
        r#"{"tenant":7,"access":1,"miss":2}"#,
        r#"{"tenant":"vm-0","ctl":"open"}"#,
        r#"{"tenant":"vm-0","ctl":7}"#,
        r#"{"tenant":"vm-0","ctl":null}"#,
        r#"{"tenant":"vm-0","miss":2}"#,
        r#"{"tenant":"vm-0","access":1}"#,
        r#"{"tenant":"vm-0","access":"x","miss":2}"#,
        r#"{"tenant":"vm-0","access":1,"miss":true}"#,
        r#"{"tenant":"vm-0","access":1e999,"miss":2}"#, // syntactic number, non-finite value
        // Escapes in protocol strings.
        r#"{"tenant":"vm\u002d9","access":1,"miss":2}"#,
        r#"{"tenant":"a\nb","access":1,"miss":2}"#,
        r#"{"tenant":"\"\\\/\b\f\n\r\t","access":1,"miss":2}"#,
        r#"{"tenant":"\u00e9\u4e2d","access":1,"miss":2}"#,
        r#"{"\u0074enant":"vm-8","access":3,"miss":4}"#,
        r#"{"tenant":"vm-8","\u0061ccess":3,"miss":4}"#,
        r#"{"tenant":"vm-0","ctl":"clos\u0065"}"#,
        r#"{"tenant":"vm-0","ctl":"\u0063lose"}"#,
        r#"{"tenant":"vm-0","ctl":"\u0063\u006c\u006f\u0073\u0065"}"#, // escaped "close"
        r#"{"tenant":"vm-0","ctl":"clos\u0065d"}"#,
        r#"{"tenant":"vm-0","ctl":"\u0063lose","access":1}"#,
        // An escaped key decoding to `tenant` ahead of a plain one: the
        // first occurrence wins.
        r#"{"\u0074enant":"first","tenant":"second","access":1,"miss":2}"#,
        r#"{"tenant":"first","\u0074enant":"second","access":1,"miss":2}"#,
        r#"{"\u0074enant":7,"tenant":"second","access":1,"miss":2}"#,
        // A surrogate pair (outside the protocol's character set) and a
        // NUL character in a tenant name.
        r#"{"tenant":"vm\ud83d\ude00","access":1,"miss":2}"#,
        r#"{"tenant":"vm\u0000x","access":1,"miss":2}"#,
        r#"{"tenant":"\u0000","ctl":"close"}"#,
        // Escapes in *ignored* values decide nothing.
        r#"{"tenant":"vm-0","access":1,"miss":2,"note":"a\tb"}"#,
    ];
    for line in lines {
        assert_equivalent(line);
    }
    // Spot-check the decoded names the corners above promise.
    let tenant = |line: &str| Record::parse(line).map(|r| r.tenant().to_string());
    assert_eq!(
        tenant(r#"{"\u0074enant":"first","tenant":"second","access":1,"miss":2}"#),
        Ok("first".to_string())
    );
    assert_eq!(tenant(r#"{"tenant":"vm\u0000x","access":1,"miss":2}"#), Ok("vm\0x".to_string()));
    assert_eq!(tenant(r#"{"tenant":"vm\u002d9","access":1,"miss":2}"#), Ok("vm-9".to_string()));
    assert_eq!(
        tenant(r#"{"tenant":"vm\ud83d\ude00","access":1,"miss":2}"#),
        Err(RecordError::Syntax)
    );
    assert_eq!(
        Record::parse(r#"{"tenant":"vm-0","ctl":"\u0063\u006c\u006f\u0073\u0065"}"#),
        Ok(Record::Close { tenant: "vm-0".to_string() })
    );
}

/// Skip reasons as the log spells them, from both parsers.
#[test]
fn messages_read_as_the_log_spells_them() {
    for (line, want) in [
        (r#"{"a":1 x}"#, "expected ',' or '}' at byte 7, found 'x'"),
        (r#"{"a" 1}"#, "expected ':' at byte 5, found '1'"),
        (r#"{"a":1,"#, "expected '\"' at end of line"),
        (r#"{"a":1.2.3}"#, "malformed number \"1.2.3\" at byte 5"),
        (r#"{"a":tru}"#, "malformed keyword at byte 5"),
        (r#"{"a":{"b":1}}"#, "nested values are not part of the protocol (byte 5)"),
        (r#"{"a":"\u00zz"}"#, r#"bad \u escape "00zz""#),
        (r#"{"a":"\ud800"}"#, r"\ud800 is not a scalar value"),
        (r#"{"a":"\é"}"#, "bad escape '\\\u{c3}'"),
        (r#"{"a":"x"#, "unterminated string"),
        (r#"{"a":1} }"#, "trailing content at byte 8"),
    ] {
        assert_eq!(reference::parse(line), Err(want.to_string()), "reference on {line:?}");
        assert_eq!(JsonObject::parse(line), Err(want.to_string()), "parse on {line:?}");
    }
}

/// Writes `text` as a JSON string body with each character escaped at
/// random: as itself, as `\uXXXX`, or as its short escape where one
/// exists.
fn escape_randomly(rng: &mut Rng, text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
        match rng.next_below(3) {
            0 => out.push(c),
            1 => out.push_str(&format!("\\u{:04x}", c as u32)),
            _ => match c {
                '/' => out.push_str("\\/"),
                c => out.push_str(&format!("\\u{:04X}", c as u32)),
            },
        }
    }
    out
}

/// Seeded records with randomly escaped keys, tenant names and `ctl`
/// verbs: every clean one is accepted with the reference's values, and
/// corrupting one never makes the two parsers diverge.
#[test]
fn seeded_escaped_corpus_is_equivalent() {
    for case in 0..400u64 {
        let mut rng = Rng::new(derive_seed(0xE5C4, case));
        let name = format!("vm/{}-\u{e9}", rng.next_below(50));
        let tenant = escape_randomly(&mut rng, &name);
        let key = escape_randomly(&mut rng, "tenant");
        let line = if rng.next_below(4) == 0 {
            let verb = escape_randomly(&mut rng, "close");
            format!(r#"{{"{key}":"{tenant}","ctl":"{verb}"}}"#)
        } else {
            let access_key = escape_randomly(&mut rng, "access");
            format!(r#"{{"{key}":"{tenant}","{access_key}":{},"miss":7}}"#, rng.next_below(9_999))
        };
        assert_eq!(
            Record::parse(&line).map(|r| r.tenant().to_string()),
            Ok(name),
            "case {case}: {line:?}"
        );
        assert_equivalent(&line);
        let mut bytes = line.into_bytes();
        let pos = rng.next_below(bytes.len() as u64) as usize;
        if let Some(b) = bytes.get_mut(pos) {
            *b = (0x20 + rng.next_below(95)) as u8;
        }
        if let Ok(corrupted) = String::from_utf8(bytes) {
            assert_equivalent(&corrupted);
        }
    }
}

/// Seeded clean records: every case accepted with the reference's
/// values.
#[test]
fn seeded_clean_corpus_is_equivalent() {
    for case in 0..400u64 {
        let mut rng = Rng::new(derive_seed(0xEA57, case));
        let tenant = format!("vm-{}", rng.next_below(50));
        let line = if rng.next_below(8) == 0 {
            format!(r#"{{"tenant":"{tenant}","ctl":"close"}}"#)
        } else {
            let access = rng.next_below(1_000_000) as f64 / 8.0;
            let miss = rng.next_below(10_000) as f64 / 4.0;
            match rng.next_below(3) {
                0 => format!(r#"{{"tenant":"{tenant}","access":{access},"miss":{miss}}}"#),
                1 => format!(
                    r#" {{ "tenant" : "{tenant}" , "access" : {access} , "miss" : {miss} }}"#
                ),
                _ => format!(
                    r#"{{"host":"n-{}","tenant":"{tenant}","access":{access},"miss":{miss},"up":true}}"#,
                    rng.next_below(9)
                ),
            }
        };
        assert!(Record::parse(&line).is_ok(), "case {case}: clean line rejected {line:?}");
        assert_equivalent(&line);
    }
}

/// Seeded fuzz corpus in the `jsonl_fuzz` style: clean records with
/// random in-line byte corruption. The parser must agree with the
/// reference on every mangled line.
#[test]
fn seeded_corrupted_corpus_is_equivalent() {
    for case in 0..400u64 {
        let mut rng = Rng::new(derive_seed(0xFA57, case));
        let base = format!(
            r#"{{"tenant":"vm-{}","access":{},"miss":{}}}"#,
            rng.next_below(10),
            rng.next_below(1_000_000),
            rng.next_below(10_000)
        );
        let mut bytes = base.into_bytes();
        for _ in 0..1 + rng.next_below(6) {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(pos) {
                // Printable ASCII keeps the line valid UTF-8 so it can
                // reach the parsers as &str (the framer owns the
                // invalid-UTF-8 layer).
                *b = (0x20 + rng.next_below(95)) as u8;
            }
        }
        if let Ok(line) = String::from_utf8(bytes) {
            assert_equivalent(&line);
        }
    }
}

/// Arbitrary printable soup: no structure at all, still no divergence
/// and no panic.
#[test]
fn seeded_soup_never_diverges() {
    for case in 0..200u64 {
        let mut rng = Rng::new(derive_seed(0x50FA, case));
        let len = rng.next_below(120) as usize;
        let line: String = (0..len)
            .map(|_| char::from_u32(0x20 + rng.next_below(95) as u32).unwrap_or(' '))
            .collect();
        assert_equivalent(&line);
    }
}

/// Clean records, each with one protocol or ignored string marked `@`,
/// and the text that fills the mark in the clean record.
const STRING_SLOTS: [(&str, &str); 6] = [
    (r#"{"tenant":"@","access":1,"miss":2}"#, "vm-\u{e9}-00453"),
    (r#"{"@":"vm-0","access":1,"miss":2}"#, "tenant"),
    (r#"{"tenant":"vm-0","ctl":"@"}"#, "close"),
    (r#"{"tenant":"vm-0","@":1,"miss":2}"#, "access"),
    (r#"{"tenant":"vm-0","note":"@","access":1,"miss":2}"#, "a b"),
    (r#"{"tenant":"vm-0","access":1,"miss":2,"@":true}"#, "x\u{4e2d}"),
];

/// What gets spliced into a string: every escape (valid, malformed and
/// truncated), raw control bytes, stray quotes and backslashes, and
/// multibyte text.
const SPLICES: [&str; 20] = [
    "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\ud800",
    "\\q", "\\u12", "\\", "\u{1}", "\t", "\u{1f}", "\"", "\u{7f}", "\u{1F600}",
];

/// Every char-boundary offset of `text`, ends included.
fn boundaries(text: &str) -> impl Iterator<Item = usize> + '_ {
    (0..=text.len()).filter(|&at| text.is_char_boundary(at))
}

fn splice(text: &str, at: usize, insert: &str) -> String {
    format!("{}{insert}{}", &text[..at], &text[at..])
}

/// Every escape, control byte or quote at every offset of every string
/// of a record — the stop bytes the parser's span search looks for.
#[test]
fn escape_or_control_byte_at_every_string_offset_is_equivalent() {
    for (template, clean) in STRING_SLOTS {
        assert_equivalent(&template.replace('@', clean));
        for at in boundaries(clean) {
            for insert in SPLICES {
                assert_equivalent(&template.replace('@', &splice(clean, at, insert)));
            }
        }
    }
}

/// Structural bytes at every offset of a whole line: inside strings they
/// are escapes, controls or terminators; outside they are whitespace or
/// syntax errors.
#[test]
fn control_byte_or_quote_at_every_line_offset_is_equivalent() {
    let line = r#"{"tenant":"vm-é","access":956.3809789456915,"miss":-1e-3,"up":false}"#;
    for at in boundaries(line) {
        for insert in ["\u{0}", "\u{1}", "\n", " ", "\"", "\\", "é", "\u{1F600}"] {
            assert_equivalent(&splice(line, at, insert));
        }
    }
}

/// Every prefix of a record: unterminated strings, escapes, numbers and
/// objects.
#[test]
fn every_truncation_is_equivalent() {
    for line in [
        r#"{"tenant":"vm-0","access":1234,"miss":56}"#,
        r#"{"tenant":"a\"b\\cé\n","ctl":"close"}"#,
        r#"{"tenant":"中文😀","access":1.5e3,"miss":0.25}"#,
        r#"{"tenant":"é","ctl":"close"}"#,
    ] {
        for at in boundaries(line) {
            assert_equivalent(&line[..at]);
        }
    }
}

/// Multibyte UTF-8 right next to a quote, inside and outside strings.
#[test]
fn multibyte_next_to_a_quote_is_equivalent() {
    let chars = ["\u{80}", "é", "\u{7ff}", "\u{800}", "中", "\u{ffff}", "\u{10000}", "😀", "\u{10ffff}"];
    for c in chars {
        for line in [
            format!(r#"{{"tenant":"{c}","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"{c}x{c}","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"x\"{c}","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"{c}\"","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"é{c}","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"\{c}","access":1,"miss":2}}"#),
            format!(r#"{{"{c}":"vm","tenant":"{c}","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"vm","ctl":"close{c}"}}"#),
            format!(r#"{{"tenant":"vm"{c},"access":1,"miss":2}}"#),
            format!(r#"{{"tenant":{c}"vm","access":1,"miss":2}}"#),
            format!(r#"{{"tenant":"vm","access":1{c},"miss":2}}"#),
            format!(r#"{{"tenant":"vm","access":1,"miss":2}}{c}"#),
            format!(r#"{{"tenant":"{c}"#),
            format!(r#"{{"tenant":"vm{c}\"#),
        ] {
            assert_equivalent(&line);
        }
    }
}

/// Fragments a seeded string is assembled from.
const FRAGMENTS: [&str; 24] = [
    "vm", "-", "0", "tenant", "close", "access", "miss", "é", "中", "😀", " ", "\\\"", "\\\\",
    "\\n", "\\u0074", "\\u00e9", "\\ud83d", "\\x", "\\u0", "\"", "\\", "\u{1}", "\t", "\u{7f}",
];

/// One seeded line: a record shape whose strings are random runs of
/// [`FRAGMENTS`].
fn seeded_string_line(case: u64) -> String {
    let mut rng = Rng::new(derive_seed(0x57A7, case));
    let string = |rng: &mut Rng| -> String {
        let pieces = rng.next_below(6);
        (0..pieces)
            .map(|_| FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize])
            .collect()
    };
    let (template, _) = STRING_SLOTS[rng.next_below(STRING_SLOTS.len() as u64) as usize];
    let mut line = template.replace('@', &string(&mut rng));
    if rng.next_below(3) == 0 {
        // A second mangled string: the tenant value of any shape.
        line = line.replacen("vm-0", &string(&mut rng), 1);
    }
    if rng.next_below(8) == 0 {
        let cut = rng.next_below(line.len() as u64 + 1) as usize;
        let cut = (0..=cut).rev().find(|&at| line.is_char_boundary(at)).unwrap_or(0);
        line.truncate(cut);
    }
    line
}

#[test]
fn seeded_string_corpus_is_equivalent() {
    for case in 0..2_000 {
        assert_equivalent(&seeded_string_line(case));
    }
}

#[test]
#[ignore = "large-N string corpus; run in release with --include-ignored"]
fn seeded_string_corpus_is_equivalent_large_n() {
    for case in 0..2_000_000 {
        assert_equivalent(&seeded_string_line(case));
    }
}
