//! Equivalence suite for the engine's record parser.
//!
//! `Record::parse` and the engine's ingest both decode lines through
//! `parse_record_borrowed`, which scans in place and decodes escaped
//! protocol strings into a scratch buffer. The reference it must match
//! is the general `JsonObject` parser followed by `Record::from_object`.
//! The contract this file pins:
//!
//! * on every input — clean, corrupted, escape-bearing — the parser
//!   returns a record or a reject (it has no third outcome), with the
//!   reference's accept/reject decision, error class, tenant bytes and
//!   `f64` bits;
//! * the corpus is seeded (`memdos_stats::rng`), so a failure reproduces
//!   from its case number alone.

use memdos_engine::protocol::{Record, RecordError};
use memdos_metrics::jsonl::{parse_record_borrowed, JsonObject, RawKind};
use memdos_stats::rng::{derive_seed, Rng};

/// The reference decode: the general object parser, then record
/// validation.
fn reference(line: &str) -> Result<Record, RecordError> {
    let obj = JsonObject::parse(line).map_err(|_| RecordError::Syntax)?;
    Record::from_object(&obj)
}

/// Asserts every equivalence the record parser promises on one line.
fn assert_equivalent(line: &str) {
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
        r#" { "tenant" : "vm-1" , "access" : 1e3 , "miss" : 0.5 } "#,
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
    assert_eq!(
        tenant(r#"{"tenant":"vm\ud83d\ude00","access":1,"miss":2}"#),
        Err(RecordError::Syntax)
    );
    assert_eq!(
        Record::parse(r#"{"tenant":"vm-0","ctl":"\u0063\u006c\u006f\u0073\u0065"}"#),
        Ok(Record::Close { tenant: "vm-0".to_string() })
    );
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
