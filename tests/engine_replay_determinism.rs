//! Tier-1: the engine's deterministic-replay guarantee on the demo
//! stream.
//!
//! Replaying the four-tenant demo JSONL must produce a byte-identical
//! verdict event log across reruns, and across regenerations of the
//! stream on different generator thread counts.

use memdos::engine::demo::{demo_engine_config, demo_jsonl, LAYOUT, TENANTS};
use memdos::engine::engine::Engine;
use memdos::metrics::jsonl::JsonObject;
use std::sync::OnceLock;

/// The demo stream, generated once per test process.
fn demo_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| demo_jsonl(0xD05, &LAYOUT, memdos::runner::threads()))
}

fn replay(lines: &[String]) -> Vec<String> {
    let mut engine = Engine::new(demo_engine_config(1)).expect("demo config is valid");
    for line in lines {
        engine.ingest_line(line);
    }
    engine.flush();
    engine.log_lines().to_vec()
}

#[test]
fn demo_replay_is_byte_identical_across_reruns() {
    let lines = demo_lines();
    let reference = replay(lines);
    assert!(!reference.is_empty());
    assert_eq!(replay(lines), reference, "rerun diverged");
    // Regenerating the stream reproduces it byte-for-byte, and replaying
    // the regenerated stream reproduces the log.
    let regenerated = demo_jsonl(0xD05, &LAYOUT, 2);
    assert_eq!(&regenerated, lines);
    assert_eq!(replay(&regenerated), reference);
}

/// `line` with its tenant name written entirely as `\u` escapes
/// (`vm-0` becomes `\u0076\u006d\u002d\u0030`).
fn escape_tenant(line: &str) -> String {
    let (head, rest) = line.split_once(r#""tenant":""#).expect("demo lines name a tenant");
    let (name, tail) = rest.split_once('"').expect("tenant names are terminated");
    let name: String = name.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
    format!(r#"{head}"tenant":"{name}"{tail}"#)
}

#[test]
fn demo_replay_is_byte_identical_with_escaped_tenant_names() {
    // Escape decoding must be unobservable: the demo stream with every
    // tenant name spelled in `\u` escapes decodes to the same records,
    // so it logs the same bytes.
    let lines = demo_lines();
    let escaped: Vec<String> = lines.iter().map(|l| escape_tenant(l)).collect();
    assert_ne!(&escaped, lines);
    assert_eq!(replay(&escaped), replay(lines), "escaped-name replay diverged");
}

#[test]
fn demo_replay_log_tells_the_expected_story() {
    let log = replay(demo_lines());
    let events: Vec<JsonObject> = log
        .iter()
        .map(|l| JsonObject::parse(l).expect("log lines are valid JSONL"))
        .collect();

    let count = |kind: &str| {
        events.iter().filter(|e| e.get_str("event") == Some(kind)).count()
    };
    assert_eq!(count("opened"), TENANTS.len());
    assert_eq!(count("profile_ready"), TENANTS.len());
    assert_eq!(count("closed"), TENANTS.len());
    assert_eq!(count("profile_failed"), 0);
    assert_eq!(count("malformed"), 0);

    for tenant in TENANTS {
        let ready = events
            .iter()
            .find(|e| {
                e.get_str("event") == Some("profile_ready")
                    && e.get_str("tenant") == Some(tenant.name)
            })
            .expect("every tenant profiles");
        assert_eq!(
            ready.get("periodic").and_then(|v| v.as_bool()),
            Some(tenant.app.is_periodic()),
            "periodicity classification for {}",
            tenant.name
        );
        // The attack raises an SDS alarm inside the attack window (in
        // per-tenant monitoring ticks: the attack launches after the
        // benign stretch).
        let alarm_tick = events
            .iter()
            .filter(|e| {
                e.get_str("event") == Some("verdict")
                    && e.get_str("tenant") == Some(tenant.name)
                    && e.get_str("to") == Some("alarm")
            })
            .filter_map(|e| e.get_f64("tick"))
            .next();
        let tick = alarm_tick.unwrap_or_else(|| {
            panic!("{} never alarmed during its attack window", tenant.name)
        });
        assert!(
            tick > LAYOUT.benign_ticks as f64,
            "{}: alarm at monitoring tick {tick}, before the attack launch",
            tenant.name
        );
    }
}
