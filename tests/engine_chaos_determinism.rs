//! Tier-1: the chaos harness is as deterministic as the engine it
//! tests.
//!
//! A fault scenario is a pure function of its seed: applying the same
//! [`FaultPlan`] seed to the same clean stream must reproduce the
//! chaotic stream and the fault trace byte-for-byte, and replaying that
//! chaotic stream into fresh engines must produce a byte-identical
//! verdict log every time. Distinct seeds must produce distinct fault
//! traces — otherwise the soak's N scenarios would silently retest one.
//! The seed-7 log is also pinned by a digest: its `malformed` events
//! carry the resync skip reasons and record rejects as log text, so a
//! drift in any of them changes the bytes.

use memdos::engine::chaos::{FaultPlan, FaultPlanConfig};
use memdos::engine::demo::{demo_jsonl, DemoLayout};
use memdos::engine::engine::Engine;
use memdos::engine::soak::{scenario_engine_config, REPLAYS};
use memdos::stats::rng::derive_seed;
use std::sync::OnceLock;

/// Compact four-phase layout: big enough that every fault class has
/// room to fire, small enough for tier-1.
const CHAOS_LAYOUT: DemoLayout = DemoLayout {
    profile_ticks: 400,
    benign_ticks: 100,
    attack_ticks: 100,
    tail_ticks: 50,
};

/// The clean demo stream, generated once per test process.
fn clean_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| demo_jsonl(0xC0DE, &CHAOS_LAYOUT, memdos::runner::threads()))
}

fn replay(lines: &[String]) -> Vec<String> {
    let mut engine = Engine::new(scenario_engine_config(1, &CHAOS_LAYOUT))
        .expect("scenario config is valid");
    for line in lines {
        engine.ingest_line(line);
    }
    engine.finish();
    engine.log_lines().to_vec()
}

/// FNV-1a 64 over the log, one `\n` after each line.
fn digest(log: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in log {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn same_fault_seed_is_byte_identical_across_reruns() {
    let clean = clean_lines();
    let (chaotic, trace) = FaultPlan::apply(7, FaultPlanConfig::chaos(), clean)
        .expect("chaos rates are valid");
    assert!(trace.total() > 0, "chaos rates must fire on {} lines", clean.len());

    // The plan itself replays byte-for-byte from its seed.
    let (again, trace_again) =
        FaultPlan::apply(7, FaultPlanConfig::chaos(), clean).expect("chaos rates are valid");
    assert_eq!(again, chaotic, "fault injection is not a pure function of its seed");
    assert_eq!(trace_again.fingerprint(), trace.fingerprint());

    // And the engine's log over the chaotic stream replays identically.
    let reference = replay(&chaotic);
    assert!(!reference.is_empty());
    // The digest pins reason text only if the log carries some.
    let malformed = reference.iter().filter(|l| l.contains(r#""event":"malformed""#)).count();
    assert_eq!((reference.len(), malformed), (75, 42));
    assert_eq!(digest(&reference), 0xb94b_7eb9_ce20_3eba, "chaos log bytes changed");
    for rerun in 1..REPLAYS {
        assert_eq!(replay(&chaotic), reference, "rerun {rerun} diverged from the reference log");
    }
}

#[test]
fn distinct_seeds_produce_distinct_fault_traces() {
    let clean = clean_lines();
    let runs: Vec<(Vec<String>, u64)> = (0..4u64)
        .map(|i| {
            let seed = derive_seed(0xFA17, i);
            let (chaotic, trace) = FaultPlan::apply(seed, FaultPlanConfig::chaos(), clean)
                .expect("chaos rates are valid");
            assert!(trace.total() > 0, "seed {seed} injected nothing");
            (chaotic, trace.fingerprint())
        })
        .collect();
    for (i, (stream_a, fp_a)) in runs.iter().enumerate() {
        for (stream_b, fp_b) in runs.iter().skip(i + 1) {
            assert_ne!(fp_a, fp_b, "two distinct seeds produced identical fault traces");
            assert_ne!(stream_a, stream_b, "two distinct seeds produced identical streams");
        }
    }
}

