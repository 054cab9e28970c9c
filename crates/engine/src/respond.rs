//! The closed-loop respond driver: detection that changes the workload
//! it is detecting.
//!
//! A seeded [`memdos_sim::fleet`] scenario with a ground-truth labelled
//! attacker ([`memdos_sim::fleet::FleetAttack`]) feeds the engine as
//! JSONL wire lines; at every round boundary ([`RESPOND_ROUND_TICKS`]
//! timeline ticks) the driver flushes, drains the engine's queued
//! [`MitigationAction`]s and applies them back to the generator's
//! per-tenant throttle levels. A throttled attacker exerts less victim
//! pressure, the victims' counters recover, and the mitigation loop
//! confirms (or refutes) its own diagnosis from that recovery — the
//! full detect → throttle → confirm → release/escalate cycle of the
//! paper's §6 mitigation discussion, closed over one deterministic
//! timeline.
//!
//! Everything is a pure function of `(scenario config, engine config,
//! chaos seed)`: the generator is seeded, flush boundaries are decided
//! by line counts and round ticks, and mitigation decisions are made at
//! flush boundaries, so the verdict log, the stats and the applied
//! action trace are byte-identical on every rerun
//! (`tests/engine_mitigation_determinism.rs` pins this).

use crate::chaos::{FaultPlan, FaultPlanConfig};
use crate::config::{Config, MitigationPolicy};
use crate::engine::{Engine, EngineStats};
use crate::fleet::tenant_name;
use crate::mitigation::{ActionKind, MitigationAction};
use crate::protocol::Record;
use crate::session::SessionConfig;
use memdos_core::config::{SdsBParams, SdsPParams, SdsParams};
use memdos_core::detector::Observation;
use memdos_sim::fleet::{
    AttackWindow, FleetAttack, FleetConfig, FleetEventKind, FleetGenerator, FleetItem,
    ThrottleLevel, VmTemplate,
};

/// Timeline ticks per respond round: the driver flushes the engine and
/// applies queued mitigation actions every time the scenario crosses a
/// multiple of this. Small enough that a control lands within a few
/// victim samples of the decision, large enough that the loop is not
/// flushing per line.
pub const RESPOND_ROUND_TICKS: u64 = 16;

/// The template respond tenants are stamped from: a flat trace with
/// mild jitter, so the only structure in the scenario is what the
/// scripted attack injects and detection margins are analysable
/// (attacker collapse ≫ boundary ≫ victim degradation ≫ jitter).
pub fn respond_templates() -> Vec<VmTemplate> {
    vec![VmTemplate {
        app: "flat",
        base_access: 1_000.0,
        amp_access: 0.0,
        base_miss: 100.0,
        amp_miss: 0.0,
        period_ticks: 0,
        jitter: 0.04,
    }]
}

/// The ground-truth scenario shapes the respond suite exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespondScenario {
    /// A real attack: the attacker's trace collapses *and* victims
    /// degrade. Expected arc: quarantine → throttle → victim recovery →
    /// confirmed → control sticks.
    TrueAttacker,
    /// A benign trace change: the attacker-shaped collapse happens but
    /// no victim is degraded. Expected arc: quarantine → throttle →
    /// innocent hold → released, and the tenant re-profiles on its new
    /// level without further alarms.
    BenignShift,
    /// The attacker goes quiet mid-case (benign-looking first window),
    /// is released, then resumes with real victim pressure. Expected
    /// arc: the second engagement starts one rung up (rung memory) and
    /// escalates.
    QuietResume,
}

impl RespondScenario {
    /// Every scenario shape, in fixed order.
    pub const ALL: [RespondScenario; 3] = [
        RespondScenario::TrueAttacker,
        RespondScenario::BenignShift,
        RespondScenario::QuietResume,
    ];

    /// Stable CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            RespondScenario::TrueAttacker => "true-attacker",
            RespondScenario::BenignShift => "benign-shift",
            RespondScenario::QuietResume => "quiet-resume",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<RespondScenario> {
        RespondScenario::ALL.iter().copied().find(|k| k.label() == s)
    }
}

/// A fleet scenario for `kind` with `tenants` tenants (one labelled
/// attacker, the rest victims): uniform sampling cadence, no churn, and
/// attack windows placed after every tenant has finished profiling.
pub fn respond_scenario(kind: RespondScenario, tenants: u32, seed: u64) -> FleetConfig {
    let attack = match kind {
        // Victim pressure for the whole window; the loop must confirm.
        RespondScenario::TrueAttacker => FleetAttack {
            attacker: 1,
            collapse: 0.9,
            first: AttackWindow { from: 480, until: 1_600, severity: 0.12 },
            second: None,
        },
        // Same attacker-shaped collapse, zero victim impact, held to
        // the end of the timeline so the release re-profiles on a
        // stable (shifted) level.
        RespondScenario::BenignShift => FleetAttack {
            attacker: 1,
            collapse: 0.9,
            first: AttackWindow { from: 480, until: 1_600, severity: 0.0 },
            second: None,
        },
        // A short benign-looking window (released while quarantined,
        // clean re-profile after it ends), then a real attack.
        RespondScenario::QuietResume => FleetAttack {
            attacker: 1,
            collapse: 0.9,
            first: AttackWindow { from: 480, until: 600, severity: 0.0 },
            second: Some(AttackWindow { from: 1_040, until: 1_600, severity: 0.12 }),
        },
    };
    FleetConfig {
        tenants: tenants.max(2),
        span_ticks: 1_600,
        zipf_s: 1.1,
        min_interval: 4,
        max_interval: 4,
        churn: 0.0,
        seed,
        attack: Some(attack),
    }
}

/// Engine configuration for the respond loop: a short profile, a wide
/// Chebyshev band (the 90 % attacker collapse violates it instantly,
/// the ~12 % victim degradation never does), immediate quarantine on
/// alarm, and the mitigation policy enabled with budgets in seq ticks
/// sized to the scenario's line rate (~1.5 lines per timeline tick).
pub fn respond_engine_config(workers: usize) -> Config {
    Config {
        workers,
        batch: 2_048,
        session: SessionConfig {
            profile_ticks: 40,
            sds: SdsParams {
                sdsb: SdsBParams { window: 20, step: 1, k: 100.0, h_c: 4, ..SdsBParams::default() },
                sdsp: SdsPParams { window: 20, step: 1, ..SdsPParams::default() },
            },
            quarantine_after: 1,
            queue_capacity: 4_096,
            ..SessionConfig::default()
        },
        mitigation: MitigationPolicy {
            enabled: true,
            confirm_budget: 400,
            hold_ticks: 160,
            degraded_below: 0.93,
            max_rung: 2,
        },
        ..Config::default()
    }
}

/// One mitigation action as the driver applied it to the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedAction {
    /// Timeline tick of the round boundary the action landed at.
    pub tick: u64,
    /// Tenant the action addressed.
    pub tenant: String,
    /// What the engine asked for.
    pub kind: ActionKind,
    /// Whether the generator accepted it (an unknown tenant is a wire
    /// name the driver could not map back to a tenant index).
    pub applied: bool,
}

/// Everything one closed-loop run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RespondReport {
    /// The engine's verdict log, `mitigation_*` events included.
    pub log: Vec<String>,
    /// Final engine counters.
    pub stats: EngineStats,
    /// The applied-action trace, in decision order.
    pub actions: Vec<AppliedAction>,
    /// Wire lines fed to the engine (post-chaos when a fault plan ran).
    pub lines_fed: u64,
    /// Ground-truth attacker's wire name, if the scenario labels one.
    pub attacker: Option<String>,
}

/// Maps a wire tenant name (`<app>-<NNNNN>`) back to its fleet index.
fn tenant_index(name: &str) -> Option<u32> {
    name.rsplit('-').next()?.parse().ok()
}

/// The throttle level a mitigation action asks the workload for.
fn level_for(kind: ActionKind) -> ThrottleLevel {
    match kind {
        ActionKind::Throttle => ThrottleLevel::Throttled,
        ActionKind::Pause | ActionKind::Evict => ThrottleLevel::Paused,
        ActionKind::Release => ThrottleLevel::Run,
    }
}

/// Drains the engine's queued actions into the generator's throttle
/// levels and the applied-action trace.
fn apply_actions(
    actions: Vec<MitigationAction>,
    gen: &mut FleetGenerator,
    tick: u64,
    trace: &mut Vec<AppliedAction>,
) {
    for action in actions {
        let applied = match tenant_index(&action.tenant) {
            Some(idx) => gen.set_throttle(idx, level_for(action.kind)),
            None => false,
        };
        trace.push(AppliedAction { tick, tenant: action.tenant, kind: action.kind, applied });
    }
}

/// Runs one closed-loop scenario to completion.
///
/// `chaos_seed` optionally routes every wire line through a seeded
/// [`FaultPlan`] (the full chaos class mix) before the engine sees it —
/// the respond-loop smoke the soak suite runs in CI.
///
/// # Errors
///
/// Returns a description of the problem for an invalid scenario or
/// engine configuration.
pub fn run_respond(
    scenario: &FleetConfig,
    config: Config,
    chaos_seed: Option<u64>,
) -> Result<RespondReport, String> {
    let templates = respond_templates();
    let mut gen = FleetGenerator::new(*scenario, &templates)?;
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    let mut chaos = match chaos_seed {
        Some(seed) => Some(FaultPlan::new(seed, FaultPlanConfig::chaos())?),
        None => None,
    };
    let mut trace = Vec::new();
    let mut lines_fed = 0u64;
    let mut next_round = RESPOND_ROUND_TICKS;
    let attacker = gen.attacker().map(|idx| {
        let item = FleetItem {
            tick: 0,
            tenant: idx,
            template: gen.template_of(idx).unwrap_or(0),
            kind: FleetEventKind::Close,
        };
        tenant_name(&item, &templates)
    });
    while let Some(item) = gen.next_item(&templates) {
        if item.tick >= next_round {
            engine.flush();
            apply_actions(engine.take_mitigation_actions(), &mut gen, item.tick, &mut trace);
            next_round = (item.tick / RESPOND_ROUND_TICKS + 1) * RESPOND_ROUND_TICKS;
        }
        let tenant = tenant_name(&item, &templates);
        let line = match item.kind {
            FleetEventKind::Sample { access, miss } => Record::Sample {
                tenant,
                obs: Observation { access_num: access, miss_num: miss },
            }
            .to_line(),
            FleetEventKind::Close => Record::Close { tenant }.to_line(),
        };
        match chaos.as_mut() {
            Some(plan) => {
                for out in plan.push_line(&line) {
                    engine.ingest_line(&out);
                    lines_fed += 1;
                }
            }
            None => {
                engine.ingest_line(&line);
                lines_fed += 1;
            }
        }
    }
    if let Some(plan) = chaos.as_mut() {
        for out in plan.finish() {
            engine.ingest_line(&out);
            lines_fed += 1;
        }
    }
    engine.finish();
    let span = gen.config().span_ticks;
    apply_actions(engine.take_mitigation_actions(), &mut gen, span, &mut trace);
    Ok(RespondReport {
        log: engine.log_lines().to_vec(),
        stats: engine.stats(),
        actions: trace,
        lines_fed,
        attacker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_presets_validate_and_label_the_attacker() {
        for kind in RespondScenario::ALL {
            let config = respond_scenario(kind, 6, 42);
            config.validate().unwrap();
            assert_eq!(config.attack.unwrap().attacker, 1);
            assert_eq!(RespondScenario::parse(kind.label()), Some(kind));
        }
        assert_eq!(RespondScenario::parse("nope"), None);
        respond_engine_config(2).validate().unwrap();
    }

    #[test]
    fn wire_names_map_back_to_tenant_indices() {
        assert_eq!(tenant_index("flat-00001"), Some(1));
        assert_eq!(tenant_index("facenet-00042"), Some(42));
        assert_eq!(tenant_index("garbage"), None);
    }

    #[test]
    fn true_attacker_run_throttles_the_labelled_attacker() {
        let scenario = respond_scenario(RespondScenario::TrueAttacker, 6, 42);
        let report = run_respond(&scenario, respond_engine_config(1), None).unwrap();
        let attacker = report.attacker.clone().unwrap();
        let engaged = report
            .actions
            .iter()
            .find(|a| a.kind == ActionKind::Throttle)
            .expect("the loop throttles someone");
        assert_eq!(engaged.tenant, attacker, "and that someone is the ground-truth attacker");
        assert!(engaged.applied);
        assert!(report.stats.mitigations_engaged >= 1);
        assert!(
            report.stats.mitigations_escalated >= 1,
            "victim recovery confirms the attack: {:?}",
            report.stats
        );
        assert_eq!(report.stats.mitigations_released, 0, "no false quarantine here");
        assert!(report.log.iter().any(|l| l.contains("mitigation_engaged")));
        assert!(report
            .log
            .iter()
            .any(|l| l.contains("mitigation_escalated") && l.contains("confirmed")));
    }
}
