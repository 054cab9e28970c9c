//! Fleet-scale replay: the bridge between the [`memdos_sim::fleet`]
//! scenario generator and the engine.
//!
//! A fleet scenario stamps thousands of tenants from the workload
//! catalogue's signal templates ([`fleet_templates`]), schedules them
//! with staggered arrivals, zipf-skewed activity and seeded churn, and
//! renders the result as the engine's JSONL wire format
//! ([`fleet_jsonl`]). [`fleet_engine_config`] sizes the engine for that
//! shape: a short Stage-1 profile (fleet tenants are many and
//! short-lived, not four and long-lived like the demo) and an explicit
//! `max_sessions` memory ceiling so a 50k-tenant stream runs in bounded
//! resident memory, with LRU eviction and generation-bumping reopens
//! doing the recycling.
//!
//! Everything here is deterministic in the scenario seed; the tier-1
//! test `tests/engine_fleet_determinism.rs` pins the verdict log on
//! exactly this path, evictions included: byte-identical across reruns
//! and equal to a recorded digest.

use crate::config::Config;
use crate::protocol::Record;
use crate::session::SessionConfig;
use memdos_core::config::{SdsBParams, SdsPParams, SdsParams};
use memdos_core::detector::Observation;
use memdos_sim::fleet::{FleetConfig, FleetEventKind, FleetGenerator, FleetItem, VmTemplate};
use memdos_workloads::catalog::Application;

/// One signal template per catalogue application, in [`Application::ALL`]
/// order — the heterogeneity pool fleet tenants are stamped from.
pub fn fleet_templates() -> Vec<VmTemplate> {
    Application::ALL.iter().map(Application::fleet_template).collect()
}

/// The tenant name a fleet item maps to on the wire:
/// `<app>-<tenant index>`, stable across the tenant's close/reopen
/// cycles so churn exercises the engine's generation machinery.
pub fn tenant_name(item: &FleetItem, templates: &[VmTemplate]) -> String {
    let app = templates
        .get(item.template as usize)
        .map(|t| t.app)
        .unwrap_or("vm");
    format!("{app}-{:05}", item.tenant)
}

/// SDS parameters compact enough for fleet sessions: windows an order
/// of magnitude shorter than the paper's Table 1 values, so Stage-1
/// completes within [`FLEET_PROFILE_TICKS`] samples and a session's
/// working set stays small at 50k tenants.
pub fn fleet_sds_params() -> SdsParams {
    SdsParams {
        sdsb: SdsBParams { window: 60, step: 10, ..SdsBParams::default() },
        sdsp: SdsPParams { window: 60, step: 10, ..SdsPParams::default() },
    }
}

/// Stage-1 length for fleet sessions: the profiler needs
/// `window + 19 * step` raw samples for its minimum EWMA history
/// (60 + 190 = 250 with [`fleet_sds_params`]), rounded up.
pub const FLEET_PROFILE_TICKS: u64 = 256;

/// Engine configuration for fleet replays: a `max_sessions` resident
/// ceiling (0 = unbounded); `workers` only fills the ignored
/// [`Config::workers`]. Batch and
/// queue sizes keep `batch <= queue_capacity` so the log stays
/// batch-size-invariant; the idle timeout is off — fleet departures are
/// explicit closes, and an idle sweep over a 50k-tenant tail would only
/// add log noise to the scaling measurement.
pub fn fleet_engine_config(workers: usize, max_sessions: usize) -> Config {
    Config {
        workers,
        batch: 1_024,
        max_sessions,
        session: SessionConfig {
            profile_ticks: FLEET_PROFILE_TICKS,
            sds: fleet_sds_params(),
            ..SessionConfig::default()
        },
        ..Config::default()
    }
}

/// A fleet scenario sized for `tenants`: the timeline shrinks as the
/// fleet grows so total line counts stay tractable (the bench compares
/// throughput per sample, not per scenario), while every size keeps the
/// same arrival/skew/churn shape.
pub fn fleet_scenario(tenants: u32, seed: u64) -> FleetConfig {
    let span_ticks = match tenants {
        0..=2_000 => 2_048,
        2_001..=20_000 => 512,
        _ => 256,
    };
    FleetConfig {
        tenants,
        span_ticks,
        zipf_s: 1.1,
        min_interval: 4,
        max_interval: 64,
        churn: 0.2,
        seed,
        attack: None,
    }
}

/// Renders a fleet scenario as engine wire lines, in timeline order.
///
/// # Errors
///
/// Returns a description of the problem for an invalid `config`.
pub fn fleet_jsonl(config: &FleetConfig) -> Result<Vec<String>, String> {
    let templates = fleet_templates();
    let mut generator = FleetGenerator::new(*config, &templates)?;
    let mut lines = Vec::new();
    generator.drive(&templates, |item| {
        let tenant = tenant_name(&item, &templates);
        let line = match item.kind {
            FleetEventKind::Sample { access, miss } => Record::Sample {
                tenant,
                obs: Observation { access_num: access, miss_num: miss },
            }
            .to_line(),
            FleetEventKind::Close => Record::Close { tenant }.to_line(),
        };
        lines.push(line);
    });
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn fleet_lines_are_deterministic_and_parse() {
        let config = FleetConfig {
            tenants: 32,
            span_ticks: 256,
            seed: 11,
            ..fleet_scenario(32, 11)
        };
        let a = fleet_jsonl(&config).unwrap();
        let b = fleet_jsonl(&config).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for line in &a {
            Record::parse(line).expect("fleet line parses");
        }
        assert!(
            a.iter().any(|l| l.contains(r#""ctl":"close""#)),
            "churn produces explicit closes"
        );
    }

    #[test]
    fn fleet_replay_respects_the_ceiling() {
        let lines = fleet_jsonl(&fleet_scenario(96, 3)).unwrap();
        let mut engine = Engine::new(fleet_engine_config(1, 16)).unwrap();
        for line in &lines {
            engine.ingest_line(line);
        }
        engine.finish();
        assert!(engine.open_sessions() <= 16, "ceiling held");
        assert!(engine.stats().evicted > 0, "96 tenants over a 16 ceiling must evict");
        assert_eq!(engine.malformed(), 0);
    }

    #[test]
    fn scenario_presets_scale_span_down() {
        assert_eq!(fleet_scenario(1_000, 0).span_ticks, 2_048);
        assert_eq!(fleet_scenario(10_000, 0).span_ticks, 512);
        assert_eq!(fleet_scenario(50_000, 0).span_ticks, 256);
        for tenants in [1_000, 10_000, 50_000] {
            fleet_scenario(tenants, 0).validate().unwrap();
        }
        assert!(fleet_engine_config(2, 16_384).validate().is_ok());
    }

    #[test]
    fn templates_cover_the_whole_catalogue() {
        let templates = fleet_templates();
        assert_eq!(templates.len(), Application::ALL.len());
        let item = FleetItem {
            tick: 0,
            tenant: 7,
            template: 9,
            kind: FleetEventKind::Close,
        };
        assert_eq!(tenant_name(&item, &templates), "facenet-00007");
    }
}
