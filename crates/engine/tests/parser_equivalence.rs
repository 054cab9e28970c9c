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
