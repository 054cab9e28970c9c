//! Equivalence suite for the binary wire format (tier-1).
//!
//! The contract this file pins, the same way `parser_equivalence.rs`
//! pins fast-vs-slow JSONL parsing: ingesting the *same record stream*
//! through the JSONL reader and through the binary reader produces
//! **byte-identical** verdict logs — on every rerun and at any batch
//! size, including the `engine_stats` trailer. Define frames are
//! zero-width metadata, so the binary stream's samples and closes land
//! on exactly the arrival indices their JSONL twins would.
//!
//! A corrupted binary stream must degrade like a corrupted JSONL one:
//! skipped spans surface as `malformed` events, intact frames survive,
//! nothing panics.

use memdos_engine::engine::Engine;
use memdos_engine::session::SessionConfig;
use memdos_engine::Config;
use memdos_metrics::binary::Encoder;
use memdos_metrics::wire::{convert, Converted, Format};
use memdos_stats::rng::{derive_seed, Rng};

/// One record: a sample or (with `None`) a close.
type Rec = (&'static str, Option<(f64, f64)>);

/// Three tenants through profile → monitoring; vm-b collapses
/// mid-stream (bus-lock-style access drop) and every tenant closes at
/// the end. The profile→monitor transition and the alarm onset both
/// land mid-batch for every batch size used below.
fn scenario() -> Vec<Rec> {
    let mut recs = Vec::new();
    for i in 0..4_000u64 {
        for tenant in ["vm-a", "vm-b", "vm-c"] {
            let attacked = tenant == "vm-b" && i >= 2_500;
            let access = if attacked { 100.0 } else { 1000.0 + (i % 10) as f64 };
            recs.push((tenant, Some((access, 100.0 + (i % 5) as f64))));
        }
    }
    for tenant in ["vm-a", "vm-b", "vm-c"] {
        recs.push((tenant, None));
    }
    recs
}

fn to_jsonl(recs: &[Rec]) -> Vec<u8> {
    let mut out = String::new();
    for (tenant, rec) in recs {
        match rec {
            Some((access, miss)) => out.push_str(&format!(
                "{{\"tenant\":\"{tenant}\",\"access\":{access},\"miss\":{miss}}}\n"
            )),
            None => out.push_str(&format!("{{\"tenant\":\"{tenant}\",\"ctl\":\"close\"}}\n")),
        }
    }
    out.into_bytes()
}

fn to_binary(recs: &[Rec]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let mut out = Vec::new();
    for (tenant, rec) in recs {
        match rec {
            Some((access, miss)) => enc.sample(tenant, *access, *miss, &mut out).unwrap(),
            None => enc.close(tenant, &mut out).unwrap(),
        }
    }
    out
}

fn config(batch: usize) -> Config {
    Config {
        batch,
        session: SessionConfig { profile_ticks: 2_000, ..SessionConfig::default() },
        ..Config::default()
    }
}

/// Full run through `ingest_reader` (format negotiation included) plus
/// `finish()`, so the comparison covers the stats trailer too.
fn run_bytes(config: Config, bytes: &[u8]) -> Vec<String> {
    let mut engine = Engine::new(config).unwrap();
    engine.ingest_reader(bytes).unwrap();
    engine.finish();
    engine.log_lines().to_vec()
}

#[test]
fn binary_and_jsonl_logs_are_byte_identical() {
    let recs = scenario();
    let jsonl = to_jsonl(&recs);
    let binary = to_binary(&recs);
    let reference = run_bytes(config(256), &jsonl);
    assert!(
        reference.iter().any(|l| l.contains(r#""to":"alarm""#)),
        "scenario must actually alarm"
    );
    // At a fixed batch a rerun and the other format log the same bytes.
    assert_eq!(run_bytes(config(256), &jsonl), reference, "jsonl rerun");
    assert_eq!(run_bytes(config(256), &binary), reference, "binary");
    // Across batch sizes only `peak_queued` in the stats trailer may
    // legitimately move, so pin jsonl == binary pairwise per config.
    for batch in [7, 256, 1_024] {
        assert_eq!(
            run_bytes(config(batch), &jsonl),
            run_bytes(config(batch), &binary),
            "batch={batch}"
        );
    }
}

#[test]
fn quarantine_replays_identically_on_both_formats() {
    let recs = scenario();
    let jsonl = to_jsonl(&recs);
    let binary = to_binary(&recs);
    let mut cfg = config(256);
    cfg.session.quarantine_after = 1;
    let reference = run_bytes(cfg, &jsonl);
    assert!(
        reference.iter().any(|l| l.contains(r#""event":"quarantined""#)),
        "scenario must actually quarantine"
    );
    assert_eq!(run_bytes(cfg, &binary), reference, "binary");
    assert_eq!(run_bytes(cfg, &binary), reference, "binary rerun");
}

#[test]
fn corrupted_binary_degrades_to_malformed_events() {
    let recs = scenario();
    let mut binary = to_binary(&recs);
    // Seeded corruption past the preamble: flips and short deletions.
    let mut rng = Rng::new(derive_seed(0xB1EC, 0));
    for _ in 0..12 {
        let at = 8 + rng.next_below((binary.len() - 8) as u64) as usize;
        if let Some(b) = binary.get_mut(at) {
            *b ^= 1 << rng.next_below(8);
        }
    }
    let at = 8 + rng.next_below((binary.len() - 64) as u64) as usize;
    binary.drain(at..at + 5);
    let mut engine = Engine::new(config(256)).unwrap();
    engine.ingest_reader(&binary[..]).unwrap();
    engine.finish();
    let stats = engine.stats();
    assert!(stats.malformed > 0, "corruption must surface as malformed events");
    assert!(engine
        .log_lines()
        .iter()
        .any(|l| l.contains(r#""event":"malformed""#)));
    // The overwhelming majority of frames are intact: sessions still
    // open, profile, and alarm.
    assert!(engine
        .log_lines()
        .iter()
        .any(|l| l.contains(r#""to":"alarm""#) && l.contains(r#""tenant":"vm-b""#)));
}

/// Runs the library converter over `bytes` into format `to`.
fn convert_to(bytes: &[u8], to: Format) -> (Vec<u8>, Converted) {
    let mut out = Vec::new();
    let totals = convert(bytes, &mut out, to).unwrap();
    (out, totals)
}

#[test]
fn library_convert_round_trips_in_both_directions() {
    let jsonl = to_jsonl(&scenario());
    let (binary, to_bin) = convert_to(&jsonl, Format::Binary);
    let (back, to_jsonl) = convert_to(&binary, Format::Jsonl);
    assert_eq!(to_bin, Converted { records: 12_003, skipped: 0 });
    assert_eq!(to_jsonl, to_bin);
    assert_eq!(back, jsonl, "bin2jsonl gives back the source lines");
    let reference = run_bytes(config(256), &jsonl);
    assert_eq!(run_bytes(config(256), &binary), reference, "jsonl2bin output");
    assert_eq!(run_bytes(config(256), &back), reference, "bin2jsonl of it");

    // Corrupted copies of both wires: convert skips exactly the spans
    // the engine logs as malformed, and its output replays clean.
    let mut rng = Rng::new(derive_seed(0xC0417, 0));
    for (source, to) in [(jsonl, Format::Binary), (binary, Format::Jsonl)] {
        let mut dirty = source.clone();
        for _ in 0..40 {
            let at = 8 + rng.next_below((dirty.len() - 8) as u64) as usize;
            if let Some(b) = dirty.get_mut(at) {
                *b ^= 1 << rng.next_below(8);
            }
        }
        let mut engine = Engine::new(config(256)).unwrap();
        engine.ingest_reader(&dirty[..]).unwrap();
        assert!(engine.malformed() > 0, "{to:?}: the corruption must show");
        let (converted, totals) = convert_to(&dirty, to);
        assert_eq!(totals.skipped, engine.malformed(), "{to:?}");
        let mut replay = Engine::new(config(256)).unwrap();
        replay.ingest_reader(&converted[..]).unwrap();
        assert_eq!(replay.malformed(), 0, "{to:?}");
    }
}
