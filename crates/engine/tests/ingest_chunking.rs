//! The JSONL stream reader's log must not depend on how the reader
//! chunks its input.
//!
//! One hostile stream — clean lines, a line three times the 64 KiB line
//! cap, an invalid UTF-8 span, a multi-byte character straddling a read
//! boundary and a trailing unterminated line — is fed to
//! `Engine::ingest_reader` whole, one byte per read and 8 KiB per read.
//! All three feeds must produce byte-identical logs and the same line
//! count, and every `malformed` event must match the `Frame::Skipped`
//! that `jsonl::Decoder` reports for the same span.

use memdos_engine::engine::Engine;
use memdos_engine::Config;
use memdos_metrics::jsonl::{Decoder, Frame, JsonObject, DEFAULT_MAX_LINE};
use std::io::BufReader;

/// Read size of the buffered feed; the stream places a multi-byte
/// character across its first boundary.
const READ: usize = 8192;

fn sample(tenant: &str, access: u64) -> String {
    format!("{{\"tenant\":\"{tenant}\",\"access\":{access},\"miss\":7}}\n")
}

fn hostile_stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..20 {
        bytes.extend_from_slice(sample("vm-0", 1000 + i).as_bytes());
    }
    // A record three times the line cap: skipped whole, however the
    // reader delivers it.
    let pad = "x".repeat(3 * DEFAULT_MAX_LINE);
    bytes.extend_from_slice(
        format!("{{\"tenant\":\"vm-1\",\"access\":1,\"miss\":2,\"pad\":\"{pad}\"}}\n").as_bytes(),
    );
    // Invalid UTF-8 between two records on one line.
    bytes.extend_from_slice(br#"{"tenant":"vm-0","access":5,"miss":6}"#);
    bytes.extend_from_slice(&[0xFF, 0xFE]);
    bytes.extend_from_slice(br#"{"tenant":"vm-2","access":5,"miss":6}"#);
    bytes.push(b'\n');
    // Pad with clean lines up to the next read boundary, then place a
    // tenant name so its three-byte character starts one byte before
    // the boundary.
    let boundary = (bytes.len() / READ + 2) * READ;
    while boundary - bytes.len() > 200 {
        bytes.extend_from_slice(sample("vm-0", 42).as_bytes());
    }
    let (open, name) = ("{\"pad\":\"", "\",\"tenant\":\"vm-");
    let fill = boundary - 1 - bytes.len() - open.len() - name.len();
    let line = format!("{open}{}{name}\u{20ac}\",\"access\":3,\"miss\":4}}\n", "y".repeat(fill));
    bytes.extend_from_slice(line.as_bytes());
    // The trailing line has no newline.
    bytes.extend_from_slice(br#"{"tenant":"vm-0","ctl":"close"}"#);
    bytes
}

fn replay<R: std::io::BufRead>(reader: R) -> (Vec<String>, u64) {
    let mut engine = Engine::new(Config::default()).expect("default config is valid");
    let lines = engine.ingest_reader(reader).expect("in-memory reads never fail");
    engine.finish();
    (engine.log_lines().to_vec(), lines)
}

#[test]
fn reader_chunking_does_not_change_the_log() {
    let bytes = hostile_stream();
    // The stream really splits a character across the buffered read.
    let euro = "\u{20ac}".as_bytes();
    let at = bytes.windows(3).position(|w| w == euro).expect("stream holds the character");
    assert_eq!((at + 1) % READ, 0, "character at byte {at}");

    let whole = replay(&bytes[..]);
    let byte_reads = replay(BufReader::with_capacity(1, &bytes[..]));
    let buffered = replay(BufReader::with_capacity(READ, &bytes[..]));
    assert_eq!(byte_reads, whole, "one-byte reads changed the log");
    assert_eq!(buffered, whole, "{READ}-byte reads changed the log");

    let (log, lines) = whole;
    assert_eq!(lines, bytes.split(|&b| b == b'\n').count() as u64);
    assert!(log.iter().any(|l| l.contains("vm-\u{20ac}")), "the split character decoded");
    assert!(!log.iter().any(|l| l.contains("vm-1")), "the oversized line opened a session");

    // Every malformed event is the decoder's skipped span.
    let malformed: Vec<(String, Option<usize>)> = log
        .iter()
        .map(|l| JsonObject::parse(l).expect("log lines are valid JSONL"))
        .filter(|e| e.get_str("event") == Some("malformed"))
        .map(|e| {
            let reason = e.get_str("reason").unwrap_or_default().to_string();
            (reason, e.get_f64("bytes").map(|b| b as usize))
        })
        .collect();
    let mut dec = Decoder::new();
    dec.push_bytes(&bytes);
    let skipped: Vec<(String, Option<usize>)> = dec
        .finish()
        .into_iter()
        .filter_map(|f| match f {
            Frame::Skipped { bytes, reason } => Some((reason, Some(bytes))),
            Frame::Object(_) => None,
        })
        .collect();
    assert_eq!(malformed, skipped);
    // The capped line, then the two invalid UTF-8 bytes.
    assert_eq!(skipped.len(), 3, "{skipped:?}");
}
