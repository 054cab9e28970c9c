//! The metric catalogue: every metric the final result line can carry,
//! with its unit and whether it is an end-to-end metric (printed by an
//! untraced run, `--trace 0`) or a per-layer one (printed by a traced
//! run, `--trace 1`). `BENCHMARK.json` lists exactly these names; a
//! self-test keeps the two in step.
//!
//! Every workload prints every metric of its mode. A per-layer metric
//! whose layer does no work on a workload (the engine on `paper-grid`,
//! the simulator's cycle-level capture on the fleet workloads) reads 0
//! there; the README's metric map says which workload moves which
//! metric.

/// Which result line a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced run: what a user of the pipeline sees.
    EndToEnd,
    /// Traced run: one layer's share of the work.
    Layer,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Result line it belongs to.
    pub kind: Kind,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        kind: Kind::EndToEnd,
        higher_is_better,
    }
}

/// A per-layer metric where lower is better.
const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        kind: Kind::Layer,
        higher_is_better: false,
    }
}

/// A per-layer metric where higher is better.
const fn layer_hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        kind: Kind::Layer,
        higher_is_better: true,
    }
}

/// Event kinds the engine writes to its log, counted one metric each
/// (`engine.events.<kind>`); anything else lands in `engine.events.other`.
pub const EVENT_KINDS: [&str; 19] = [
    "opened",
    "profile_ready",
    "profile_failed",
    "verdict",
    "quarantined",
    "closed",
    "dropped",
    "recovered",
    "malformed",
    "open_failed",
    "mitigation_engaged",
    "mitigation_confirming",
    "mitigation_recovered",
    "mitigation_relapsed",
    "mitigation_climbed",
    "mitigation_released",
    "mitigation_escalated",
    "mitigation_skipped",
    "engine_stats",
];

/// The catalogue, in result-line order.
pub const DEFS: &[Def] = &[
    // End to end: defined, and never zero, on every workload.
    e2e("setup_s", "s", false),
    e2e("throughput_rps", "1/s", true),
    e2e("peak_rss_mb", "MB", false),
    // What a user sees on some workloads only; carried per layer
    // because an end-to-end metric must exist on every workload.
    layer("latency_p50_ms", "ms"),
    layer("latency_p99_ms", "ms"),
    layer_hi("latency_samples", "count"),
    layer("failed_share", "ratio"),
    layer("false_alarms", "count"),
    layer("detect_delay_s", "s"),
    layer("false_escalations", "count"),
    layer("arc_misses", "count"),
    layer_hi("grid_cells_per_s", "cells/s"),
    layer_hi("recall", "ratio"),
    layer_hi("specificity", "ratio"),
    // sim
    layer("sim.fleet.gen_ns_per_record", "ns"),
    layer("sim.capture_s_per_cell", "s"),
    // metrics
    layer("metrics.encode_ns_per_record", "ns"),
    layer("metrics.wire_bytes_per_record", "B"),
    layer("metrics.experiment.replay_s_per_cell", "s"),
    layer("metrics.experiment.kstest_s_per_cell", "s"),
    // engine, from StageProf
    layer("engine.decode_ns_per_record", "ns"),
    layer("engine.dispatch_ns_per_record", "ns"),
    layer("engine.step_ns_per_record", "ns"),
    layer("engine.merge_ns_per_event", "ns"),
    layer("engine.write_ns_per_event", "ns"),
    layer("engine.unattributed_ns_per_record", "ns"),
    layer("engine.wall_ns_per_record", "ns"),
    // engine, from harness spans
    layer("engine.new_ms", "ms"),
    layer("engine.ingest_call_us_p99", "us"),
    layer("engine.flush_ms_p50", "ms"),
    layer("engine.flush_ms_p99", "ms"),
    layer("engine.finish_ms", "ms"),
    // engine, counts
    layer_hi("engine.records", "count"),
    layer("engine.events", "count"),
    layer("engine.events.opened", "count"),
    layer_hi("engine.events.profile_ready", "count"),
    layer("engine.events.profile_failed", "count"),
    layer("engine.events.verdict", "count"),
    layer("engine.events.quarantined", "count"),
    layer("engine.events.closed", "count"),
    layer("engine.events.dropped", "count"),
    layer("engine.events.recovered", "count"),
    layer("engine.events.malformed", "count"),
    layer("engine.events.open_failed", "count"),
    layer("engine.events.mitigation_engaged", "count"),
    layer("engine.events.mitigation_confirming", "count"),
    layer("engine.events.mitigation_recovered", "count"),
    layer("engine.events.mitigation_relapsed", "count"),
    layer("engine.events.mitigation_climbed", "count"),
    layer("engine.events.mitigation_released", "count"),
    layer("engine.events.mitigation_escalated", "count"),
    layer("engine.events.mitigation_skipped", "count"),
    layer("engine.events.engine_stats", "count"),
    layer("engine.events.other", "count"),
    layer("engine.sessions_opened", "count"),
    layer("engine.evicted", "count"),
    layer("engine.reopened", "count"),
    layer("engine.peak_queued", "count"),
    layer("engine.drops_backpressure", "count"),
    layer("engine.drops_terminal", "count"),
    layer("engine.resident_mb", "MB"),
    layer_hi("engine.workers_effective", "count"),
    layer_hi("engine.profiled_share", "ratio"),
    // engine.mitigation (respond-loop)
    layer("engine.mitigation.engaged", "count"),
    layer("engine.mitigation.released", "count"),
    layer("engine.mitigation.escalated", "count"),
    layer("engine.mitigation.actions_applied", "count"),
    layer("engine.mitigation.recovery_latency_ticks", "ticks"),
    layer("engine.mitigation.false_quarantine_ticks", "ticks"),
    layer("engine.mitigation.round_ms_p99", "ms"),
    // core (paper-grid), medians over the grid's cells
    layer_hi("core.sdsb.recall", "ratio"),
    layer_hi("core.sdsb.specificity", "ratio"),
    layer("core.sdsb.delay_s", "s"),
    layer_hi("core.sdsp.recall", "ratio"),
    layer_hi("core.sdsp.specificity", "ratio"),
    layer("core.sdsp.delay_s", "s"),
    layer_hi("core.kstest.recall", "ratio"),
    layer_hi("core.kstest.specificity", "ratio"),
    layer("core.kstest.delay_s", "s"),
    // open-loop load generator
    layer("loadgen.late_p99_ms", "ms"),
    layer("loadgen.backlog_end_ms", "ms"),
    // tracing
    layer("trace.overhead_ratio", "ratio"),
];

/// The catalogue entry for `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is a legal metric name: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok_char)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok_char =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for d in DEFS {
            assert!(valid_name(d.name), "illegal metric name {:?}", d.name);
            assert!(
                valid_unit(d.unit),
                "illegal unit {:?} on {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for kind in EVENT_KINDS {
            assert!(
                def(&format!("engine.events.{kind}")).is_some(),
                "uncounted kind {kind}"
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("brace{"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("engine.events.profile_ready"));
        assert!(!valid_unit("cells per s"));
    }

    /// The string value of `key` in one flat JSON object.
    fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let at = object.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = object[at..].trim_start().strip_prefix(':')?.trim_start();
        rest.strip_prefix('"')?.split('"').next()
    }

    /// `(name, unit, better)` of each object in the JSON array under `key`.
    fn entries_under(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split('{')
            .skip(1)
            .map(|o| {
                let get = |k| string_field(o, k).unwrap_or_default().to_string();
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed = entries_under(&json, key);
            let catalogued: Vec<(String, String, String)> = DEFS
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, catalogued, "{key} out of step with the catalogue");
        }
    }
}
