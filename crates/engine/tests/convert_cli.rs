//! `memdos-engine convert` on a dirty corpus: the `jsonl2bin` arm must
//! count what it accepts and skips exactly as the engine's JSONL ingest
//! sees it, and `bin2jsonl` of its output must give back exactly the
//! accepted records.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `memdos-engine convert <direction>` over stdin, returning stdout
/// and stderr.
fn convert(direction: &str, input: &[u8]) -> (Vec<u8>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_memdos-engine"))
        .args(["convert", direction])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("memdos-engine starts");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let input = input.to_vec();
    let writer = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("memdos-engine runs");
    writer.join().expect("writer thread").expect("stdin accepts the corpus");
    assert!(out.status.success(), "convert {direction} failed: {out:?}");
    (out.stdout, String::from_utf8(out.stderr).expect("stderr is UTF-8"))
}

#[test]
fn jsonl2bin_counts_a_dirty_corpus_and_round_trips_the_accepted_records() {
    let oversized = format!("{{\"tenant\":\"vm-big\",\"pad\":\"{}\"}}", "x".repeat(70_000));
    let lines: Vec<&[u8]> = vec![
        br#"{"tenant":"vm-a","access":100,"miss":5}"#,
        // A truncated record fused with a healthy one.
        br#"{"tenant":"vm-a","acc{"tenant":"vm-b","access":7,"miss":1}"#,
        // Two invalid UTF-8 bytes between two records.
        b"{\"tenant\":\"vm-c\",\"access\":1,\"miss\":1}\xff\xfe{\"tenant\":\"vm-c\",\"access\":2,\"miss\":2}",
        // Over the 64 KiB line cap.
        oversized.as_bytes(),
        // A valid object that is not a record.
        br#"{"access":1,"miss":2}"#,
        br#"{"tenant":"vm-\u0041\"q","access":3,"miss":4}"#,
        b"not json at all",
        b"   ",
        br#"{"tenant":"vm-a","ctl":"close"}"#,
    ];
    let corpus = lines.join(&b'\n');

    let (bin, stderr) = convert("jsonl2bin", &corpus);
    // Skipped: the fused prefix, each invalid byte, the oversized line,
    // the tenantless object and the non-JSON line.
    assert!(
        stderr.contains("convert: jsonl2bin: 6 records, 6 spans skipped"),
        "{stderr}"
    );

    let (jsonl, stderr) = convert("bin2jsonl", &bin);
    assert!(stderr.contains("convert: bin2jsonl: 6 records, 0 spans skipped"), "{stderr}");
    let expected = [
        r#"{"tenant":"vm-a","access":100,"miss":5}"#,
        r#"{"tenant":"vm-b","access":7,"miss":1}"#,
        r#"{"tenant":"vm-c","access":1,"miss":1}"#,
        r#"{"tenant":"vm-c","access":2,"miss":2}"#,
        r#"{"tenant":"vm-A\"q","access":3,"miss":4}"#,
        r#"{"tenant":"vm-a","ctl":"close"}"#,
    ];
    let got = String::from_utf8(jsonl).expect("bin2jsonl writes UTF-8");
    assert_eq!(got.lines().collect::<Vec<_>>(), expected);
}
