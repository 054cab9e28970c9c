//! Reading the engine's verdict log from outside: field extraction,
//! digests, event-kind counts, the `StageProf` trailer, and the map from
//! an event's `seq` back to the input record that produced it.
//!
//! The engine renders every event as a flat JSON object whose first
//! field is `seq`; the harness reads fields by key without a full JSON
//! parse, since tenant names and event labels never need escaping.

use crate::catalog::EVENT_KINDS;
use std::collections::BTreeMap;

/// The raw value of top-level field `key` in a rendered log line: the
/// contents of a string, or the token of a number.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut from = 0;
    while let Some(pos) = line.get(from..)?.find(key) {
        let at = from + pos;
        let before = line.get(..at)?;
        let after = line.get(at + key.len()..)?;
        if before.ends_with('"') && after.starts_with("\":") {
            let value = after.get(2..)?;
            return if let Some(s) = value.strip_prefix('"') {
                s.find('"').and_then(|end| s.get(..end))
            } else {
                let end = value.find([',', '}']).unwrap_or(value.len());
                value.get(..end)
            };
        }
        from = at + key.len();
    }
    None
}

/// The event's arrival index.
pub fn seq(line: &str) -> Option<u64> {
    field(line, "seq")?.parse().ok()
}

/// FNV-1a 64 over the log, one `\n` after each line — a compact digest
/// two runs can compare.
pub fn digest(log: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in log {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The log without its `engine_stats` trailer, whose profiler fields
/// differ from run to run when `Config::prof` is on.
pub fn body(log: &[String]) -> &[String] {
    log.split_last().map_or(&[][..], |(_, rest)| rest)
}

/// Event count per kind; kinds outside [`EVENT_KINDS`] count as `other`.
pub fn kind_counts(log: &[String]) -> BTreeMap<&'static str, u64> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for line in log {
        let kind = field(line, "event")
            .and_then(|k| EVENT_KINDS.iter().copied().find(|&known| known == k))
            .unwrap_or("other");
        *counts.entry(kind).or_default() += 1;
    }
    counts
}

/// The engine's per-stage profiler counters, read from the
/// `engine_stats` trailer of a run with `Config::prof` on.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageProf {
    /// JSONL line decoding.
    pub decode_ns: f64,
    /// Binary frame decoding.
    pub decode_bin_ns: f64,
    /// Record → session routing.
    pub dispatch_ns: f64,
    /// Detector stepping across the pool.
    pub step_ns: f64,
    /// Imposing `(seq, sub)` order on a flush's events.
    pub merge_ns: f64,
    /// Event rendering and log append.
    pub write_ns: f64,
}

impl StageProf {
    /// Parses the trailer; `None` when the line carries no profiler
    /// fields (profiling was off).
    pub fn parse(trailer: &str) -> Option<StageProf> {
        let get = |k: &str| field(trailer, k).and_then(|v| v.parse::<f64>().ok());
        Some(StageProf {
            decode_ns: get("prof_decode_ns")?,
            decode_bin_ns: get("prof_decode_bin_ns")?,
            dispatch_ns: get("prof_dispatch_ns")?,
            step_ns: get("prof_step_ns")?,
            merge_ns: get("prof_merge_ns")?,
            write_ns: get("prof_write_ns")?,
        })
    }

    /// Adds another run's counters.
    pub fn add(&mut self, other: &StageProf) {
        self.decode_ns += other.decode_ns;
        self.decode_bin_ns += other.decode_bin_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.step_ns += other.step_ns;
        self.merge_ns += other.merge_ns;
        self.write_ns += other.write_ns;
    }

    /// Sum of every stage.
    pub fn total_ns(&self) -> f64 {
        self.decode_ns
            + self.decode_bin_ns
            + self.dispatch_ns
            + self.step_ns
            + self.merge_ns
            + self.write_ns
    }
}

/// Whether the event sits at an arrival index no input record took:
/// engine-originated closes (eviction, idle timeout, mitigation),
/// `mitigation_*` events and the `engine_stats` trailer. Such an index is
/// allocated while the engine handles the record just before it.
pub fn is_engine_originated(line: &str) -> bool {
    match field(line, "event") {
        Some("closed") => field(line, "reason") != Some("ctl"),
        Some("engine_stats") => true,
        Some(kind) => kind.starts_with("mitigation_"),
        None => false,
    }
}

/// Maps arrival indices back to input records. Records take arrival
/// indices in input order; the engine slips its own events' indices in
/// between, so record `k` holds index `k + (engine indices before it)`.
#[derive(Debug)]
pub struct SeqMap {
    engine_seqs: Vec<u64>,
}

impl SeqMap {
    /// Builds the map from a complete log (sorted by `seq`).
    pub fn new(log: &[String]) -> Self {
        let mut engine_seqs: Vec<u64> = log
            .iter()
            .filter(|l| is_engine_originated(l))
            .filter_map(|l| seq(l))
            .collect();
        engine_seqs.dedup();
        SeqMap { engine_seqs }
    }

    /// The input record behind arrival index `s`: the record that took
    /// it, or for an engine-originated index, the record the engine was
    /// handling when it allocated it. `None` before the first record.
    pub fn record_of(&self, s: u64) -> Option<usize> {
        let before = self.engine_seqs.partition_point(|&q| q < s) as u64;
        let is_engine = self.engine_seqs.binary_search(&s).is_ok();
        let next_record = s - before;
        if is_engine {
            (next_record as usize).checked_sub(1)
        } else {
            Some(next_record as usize)
        }
    }

    /// Checks the map against the input: every record-borne event with a
    /// tenant must name the tenant of the record it maps to. Returns the
    /// first mismatch.
    pub fn verify<'a>(
        &self,
        log: &'a [String],
        tenant_of_record: impl Fn(usize) -> Option<&'a str>,
    ) -> Result<(), String> {
        for line in log {
            if is_engine_originated(line) {
                continue;
            }
            let (Some(s), Some(tenant)) = (seq(line), field(line, "tenant")) else {
                continue;
            };
            let record = self.record_of(s);
            let expected = record.and_then(&tenant_of_record);
            if expected != Some(tenant) {
                return Err(format!(
                    "seq {s} maps to record {record:?} ({expected:?}) but the event names {tenant}"
                ));
            }
        }
        Ok(())
    }
}

/// When each log line was first seen: the harness notes the log length
/// and the clock after every engine call that appended lines.
#[derive(Debug, Default)]
pub struct Emissions {
    /// `(log length after the call, ns since the pass origin)`.
    marks: Vec<(usize, u64)>,
}

impl Emissions {
    /// Notes that the log reached `len` lines by `at_ns`; a call that
    /// appended nothing is ignored. Returns whether lines were appended.
    pub fn mark(&mut self, len: usize, at_ns: u64) -> bool {
        let prev = self.marks.last().map_or(0, |m| m.0);
        if len > prev {
            self.marks.push((len, at_ns));
            true
        } else {
            false
        }
    }

    /// The time line `index` was first seen.
    pub fn time_of(&self, index: usize) -> Option<u64> {
        let i = self.marks.partition_point(|m| m.0 <= index);
        self.marks.get(i).map(|m| m.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fields_are_read_by_exact_key() {
        let l = r#"{"seq":12,"event":"closed","tenant":"kmeans-00001","reason":"evicted","ingested":3}"#;
        assert_eq!(seq(l), Some(12));
        assert_eq!(field(l, "event"), Some("closed"));
        assert_eq!(field(l, "tenant"), Some("kmeans-00001"));
        assert_eq!(field(l, "ingested"), Some("3"));
        assert_eq!(field(l, "gested"), None);
        assert_eq!(field(l, "missing"), None);
        assert!(is_engine_originated(l));
        assert!(!is_engine_originated(&l.replace("evicted", "ctl")));
    }

    #[test]
    fn engine_indices_map_to_the_record_being_handled() {
        // Records r0..r3 take seqs 0, 1, 3, 4; seq 2 is an eviction the
        // engine allocated while opening r1's session.
        let log = lines(&[
            r#"{"seq":0,"event":"opened","tenant":"a"}"#,
            r#"{"seq":1,"event":"opened","tenant":"b"}"#,
            r#"{"seq":2,"event":"closed","tenant":"a","reason":"evicted"}"#,
            r#"{"seq":4,"event":"verdict","tenant":"c"}"#,
            r#"{"seq":5,"event":"engine_stats"}"#,
        ]);
        let map = SeqMap::new(&log);
        assert_eq!(map.record_of(0), Some(0));
        assert_eq!(map.record_of(1), Some(1));
        assert_eq!(map.record_of(2), Some(1));
        assert_eq!(map.record_of(3), Some(2));
        assert_eq!(map.record_of(4), Some(3));
        assert_eq!(map.record_of(5), Some(3));
        let tenants = ["a", "b", "x", "c"];
        assert!(map.verify(&log, |r| tenants.get(r).copied()).is_ok());
        let wrong = ["a", "b", "x", "d"];
        assert!(map.verify(&log, |r| wrong.get(r).copied()).is_err());
    }

    #[test]
    fn stage_prof_trailer_parses_and_sums() {
        let t = r#"{"seq":9,"event":"engine_stats","prof_decode_ns":1,"prof_decode_bin_ns":2,"prof_dispatch_ns":3,"prof_step_ns":4,"prof_merge_ns":5,"prof_write_ns":6}"#;
        let p = StageProf::parse(t).unwrap();
        assert_eq!(p.total_ns(), 21.0);
        assert_eq!(
            StageProf::parse(r#"{"seq":9,"event":"engine_stats"}"#),
            None
        );
    }

    #[test]
    fn emissions_time_each_line_by_the_call_that_appended_it() {
        let mut e = Emissions::default();
        assert!(!e.mark(0, 5));
        assert!(e.mark(3, 10));
        assert!(!e.mark(3, 20));
        assert!(e.mark(5, 30));
        assert_eq!(e.time_of(0), Some(10));
        assert_eq!(e.time_of(2), Some(10));
        assert_eq!(e.time_of(3), Some(30));
        assert_eq!(e.time_of(5), None);
    }

    #[test]
    fn digest_and_kinds() {
        let a = lines(&[
            r#"{"seq":0,"event":"opened"}"#,
            r#"{"seq":1,"event":"probe"}"#,
        ]);
        let b = lines(&[r#"{"seq":0,"event":"opened"}"#]);
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
        let k = kind_counts(&a);
        assert_eq!(k.get("opened"), Some(&1));
        assert_eq!(k.get("other"), Some(&1));
    }
}
