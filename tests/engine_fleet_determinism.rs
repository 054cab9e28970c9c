//! Tier-1: the engine's deterministic-replay guarantee at fleet scale,
//! *across evictions*.
//!
//! A fleet scenario (thousands of zipf-scheduled tenants with churn)
//! replayed under a memory ceiling far below the tenant count must
//! produce a byte-identical verdict log on every rerun, equal to a
//! recorded digest — the ceiling forces continuous LRU eviction,
//! generation-bumping reopens and slab slot recycling, and none of it
//! may depend on anything but the input. The demo-stream variant lives
//! in `engine_replay_determinism.rs`. The engine runs on one thread, so
//! the rerun test's name ("across workers") now means across reruns.

use memdos::engine::engine::Engine;
use memdos::engine::fleet::{fleet_engine_config, fleet_jsonl};
use memdos::sim::fleet::FleetConfig;
use std::sync::OnceLock;

/// The tenant count deliberately dwarfs the ceiling, so eviction is the
/// steady state, not an edge case.
const TENANTS: u32 = 3_000;
const CEILING: usize = 256;

/// The fleet stream, generated once per test process.
fn fleet_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let config = FleetConfig {
            tenants: TENANTS,
            span_ticks: 2_048,
            zipf_s: 1.1,
            min_interval: 4,
            max_interval: 64,
            churn: 0.2,
            seed: 0xF1EE7,
            attack: None,
        };
        fleet_jsonl(&config).expect("fleet config is valid")
    })
}

fn replay(lines: &[String]) -> (Vec<String>, memdos::engine::engine::EngineStats, usize) {
    let mut engine = Engine::new(fleet_engine_config(1, CEILING)).expect("fleet config is valid");
    for line in lines {
        engine.ingest_line(line);
    }
    engine.finish();
    (engine.log_lines().to_vec(), engine.stats(), engine.open_sessions())
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
fn fleet_log_matches_its_pinned_digest() {
    // Pins the exact bytes, not just rerun invariance: a change to how
    // sessions are stored, recycled or rendered must leave the log of
    // this eviction-heavy scenario byte-identical.
    let (log, _, _) = replay(fleet_lines());
    assert_eq!(log.len(), 280_659);
    assert_eq!(digest(&log), 0x4e80_536e_1de5_57c0, "fleet log bytes changed");
}

#[test]
fn fleet_replay_is_byte_identical_across_workers_including_evictions() {
    let lines = fleet_lines();
    let (reference, stats, open) = replay(lines);
    assert!(!reference.is_empty());
    // The scenario actually exercises the machinery under test.
    assert!(
        stats.evicted > 0,
        "{TENANTS} tenants over a {CEILING} ceiling must evict"
    );
    assert!(stats.reopened > 0, "evicted tenants that speak again must reopen");
    assert!(open <= CEILING, "open sessions ({open}) exceeded the ceiling");
    assert!(
        reference.iter().any(|l| l.contains(r#""reason":"evicted""#)),
        "evictions must be visible in the log"
    );
    let (log, r_stats, r_open) = replay(lines);
    assert_eq!(log, reference, "log diverged on rerun");
    assert_eq!(r_stats, stats, "stats diverged on rerun");
    assert_eq!(r_open, open, "open-session count diverged on rerun");
}
