//! `memdos-engine convert` on dirty input: the `jsonl2bin` arm must
//! count what it accepts and skips exactly as the engine's JSONL ingest
//! sees it, `bin2jsonl` of its output must give back exactly the
//! accepted records, and `bin2jsonl` must reject the binary frames
//! `replay` rejects.

use memdos_metrics::binary;
use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `memdos-engine convert <direction>` over stdin, returning stdout
/// and stderr.
fn convert(direction: &str, input: &[u8]) -> (Vec<u8>, String) {
    let out = run(&["convert", direction], input);
    assert!(out.status.success(), "convert {direction} failed: {out:?}");
    (out.stdout, String::from_utf8(out.stderr).expect("stderr is UTF-8"))
}

/// Runs `memdos-engine <args>` over stdin, returning its output whatever
/// the exit status.
fn run(args: &[&str], input: &[u8]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_memdos-engine"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("memdos-engine starts");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let input = input.to_vec();
    let writer = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("memdos-engine runs");
    writer.join().expect("writer thread").expect("stdin accepts the input");
    out
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

#[test]
fn bin2jsonl_rejects_an_out_of_range_wire_id_like_replay() {
    // Checksum-valid frames whose wire id is the first one the reader
    // refuses: the define is out of range, so the sample and the close
    // name an undefined id.
    let mut bytes = Vec::new();
    binary::write_preamble(&mut bytes);
    binary::write_define(&mut bytes, binary::MAX_WIRE_ID, "vm-x").expect("short name");
    binary::write_sample(&mut bytes, binary::MAX_WIRE_ID, 100.0, 5.0);
    binary::write_close(&mut bytes, binary::MAX_WIRE_ID);

    let (jsonl, stderr) = convert("bin2jsonl", &bytes);
    assert!(stderr.contains("convert: bin2jsonl: 0 records, 3 spans skipped"), "{stderr}");
    assert!(jsonl.is_empty());

    let out = run(&["replay"], &bytes);
    assert!(out.status.success(), "replay failed: {out:?}");
    let log = String::from_utf8(out.stdout).expect("the log is UTF-8");
    let reasons: Vec<&str> = log
        .lines()
        .filter(|l| l.contains(r#""event":"malformed""#))
        .filter_map(|l| l.split(r#""reason":""#).nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(reasons, ["wire id out of range", "undefined wire id", "undefined wire id"]);
}
