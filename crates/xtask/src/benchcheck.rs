//! `bench-check`: regression gate over the `BENCH_2.json` kernel report.
//!
//! The micro benchmark (`cargo bench -p memdos-bench --bench micro`)
//! emits a flat JSON object mapping kernel names to numbers: wall-clock
//! medians in nanoseconds (`*_ns` keys) and dimensionless `speedup_*`
//! ratios, which are informational. CI runs `cargo run -p xtask --
//! bench-check <current> <baseline>` to fail the build when
//!
//! * the current report is malformed (not a flat `{"key": number}`
//!   object), or
//! * any `*_ns` kernel got more than `tolerance`× slower than the
//!   checked-in baseline.
//!
//! The default tolerance is 2.0 (a deliberate wide margin: CI machines
//! are noisy and share cores); override with `MEMDOS_BENCH_TOLERANCE`.
//! Keys present only in one report are tolerated in the *current* report
//! (new kernels appear as the suite grows) but a baseline key missing
//! from the current report is an error — a silently dropped benchmark
//! would otherwise mask a regression forever. Pipeline throughput is
//! measured by the `pipebench/` benchmark, not gated here.

use std::fs;
use std::path::Path;

/// Flat `{"key": number, ...}` parser. Std-only, no escapes in keys
/// (benchmark names are ASCII identifiers), numbers in the JSON subset
/// `f64::from_str` accepts.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;

    let skip_ws = |pos: &mut usize| {
        while bytes.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
            *pos += 1;
        }
    };

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("expected '{' at start of report".to_string());
    }
    pos += 1;
    let mut out: Vec<(String, f64)> = Vec::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
        skip_ws(&mut pos);
        return if pos == bytes.len() {
            Ok(out)
        } else {
            Err("trailing content after closing '}'".to_string())
        };
    }
    loop {
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("expected '\"' to open a key at byte {pos}"));
        }
        pos += 1;
        let key_start = pos;
        while let Some(&c) = bytes.get(pos) {
            if c == b'"' {
                break;
            }
            if c == b'\\' || c < 0x20 {
                return Err(format!("unsupported escape or control byte in key at byte {pos}"));
            }
            pos += 1;
        }
        if bytes.get(pos) != Some(&b'"') {
            return Err("unterminated key string".to_string());
        }
        let key = text.get(key_start..pos).unwrap_or("").to_string();
        if key.is_empty() {
            return Err("empty benchmark key".to_string());
        }
        pos += 1;
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        pos += 1;
        skip_ws(&mut pos);
        let num_start = pos;
        while bytes
            .get(pos)
            .is_some_and(|&c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            pos += 1;
        }
        let num_text = text.get(num_start..pos).unwrap_or("");
        let value: f64 = num_text
            .parse()
            .map_err(|e| format!("key {key:?}: bad number {num_text:?}: {e}"))?;
        if out.iter().any(|(k, _)| k == &key) {
            return Err(format!("duplicate key {key:?}"));
        }
        out.push((key, value));
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                break;
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
    skip_ws(&mut pos);
    if pos == bytes.len() {
        Ok(out)
    } else {
        Err("trailing content after closing '}'".to_string())
    }
}

fn lookup(report: &[(String, f64)], key: &str) -> Option<f64> {
    report.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Compares a current report against a baseline; returns one line per
/// problem (empty = pass). `tolerance` is the allowed slowdown factor.
pub fn compare(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !current.iter().any(|(k, _)| k.ends_with("_ns")) {
        problems.push("current report carries no *_ns kernel timings".to_string());
    }
    for (key, base) in baseline {
        let Some(cur) = lookup(current, key) else {
            problems.push(format!("{key}: present in baseline but missing from current report"));
            continue;
        };
        if !cur.is_finite() || cur < 0.0 {
            problems.push(format!("{key}: non-finite or negative value {cur}"));
            continue;
        }
        if !base.is_finite() || *base <= 0.0 {
            // An unset baseline slot (e.g. a 0 from a machine that could
            // not measure it) gates nothing.
            continue;
        }
        if key.ends_with("_ns") && cur > base * tolerance {
            problems.push(format!(
                "{key}: {cur:.0} ns vs baseline {base:.0} ns — more than {tolerance}x slower"
            ));
        }
    }
    problems
}

/// Reads, parses and compares the two report files. `Err` is an
/// operational failure (unreadable/malformed file); an `Ok` non-empty
/// vector lists benchmark regressions.
pub fn run(current: &Path, baseline: &Path, tolerance: f64) -> Result<Vec<String>, String> {
    if !tolerance.is_finite() || tolerance < 1.0 {
        return Err(format!("tolerance must be a finite factor >= 1.0, got {tolerance}"));
    }
    let read = |path: &Path| -> Result<Vec<(String, f64)>, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        parse_flat_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let cur = read(current)?;
    let base = read(baseline)?;
    Ok(compare(&cur, &base, tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_reports() {
        let parsed = parse_flat_json("{\n  \"a_ns\": 12.5,\n  \"b_per_sec\": 3e2\n}\n").unwrap();
        assert_eq!(parsed, vec![("a_ns".to_string(), 12.5), ("b_per_sec".to_string(), 300.0)]);
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
    }

    #[test]
    fn rejects_malformed_reports() {
        for bad in [
            "",
            "[1, 2]",
            "{\"a\": }",
            "{\"a\": 1",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": \"text\"}",
            "{\"\": 1}",
        ] {
            assert!(parse_flat_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn flags_ns_regressions() {
        let base = vec![("k_ns".to_string(), 100.0), ("speedup_k".to_string(), 2.0)];
        let ok = vec![("k_ns".to_string(), 150.0), ("speedup_k".to_string(), 0.5)];
        assert!(compare(&ok, &base, 2.0).is_empty());
        let slow = vec![("k_ns".to_string(), 250.0), ("speedup_k".to_string(), 2.0)];
        let problems = compare(&slow, &base, 2.0);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn flags_missing_keys_and_empty_reports() {
        let base = vec![("k_ns".to_string(), 100.0)];
        let missing = vec![("other_ns".to_string(), 1.0)];
        assert_eq!(compare(&missing, &base, 2.0).len(), 1);
        // No *_ns keys at all: structurally suspicious.
        assert!(!compare(&[], &[], 2.0).is_empty());
        // Extra keys in current are fine (new benchmarks).
        let grown = vec![("k_ns".to_string(), 100.0), ("new_ns".to_string(), 5.0)];
        assert!(compare(&grown, &base, 2.0).is_empty());
    }

    #[test]
    fn zero_baseline_slots_gate_nothing() {
        let base = vec![("k_ns".to_string(), 100.0), ("unset_ns".to_string(), 0.0)];
        let cur = vec![("k_ns".to_string(), 100.0), ("unset_ns".to_string(), 1.0e9)];
        assert!(compare(&cur, &base, 2.0).is_empty());
    }
}
