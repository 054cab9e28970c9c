//! The chaos soak harness behind `memdos-engine soak`.
//!
//! One soak **scenario** is a pure function of its seed: generate the
//! four-tenant demo stream (compact [`SOAK_LAYOUT`]), run it through a
//! seeded [`FaultPlan`], then replay the chaotic stream into a fresh
//! engine [`REPLAYS`] times with the same configuration. Per scenario
//! the harness checks the engine's core resilience invariants:
//!
//! * **no panic** — the scenario completing is the assertion; nothing
//!   in the pipeline may unwind on corrupted input;
//! * **determinism** — the verdict log is byte-identical on every
//!   replay (the engine is single-threaded, so this catches state that
//!   leaks between engines or depends on anything but the input);
//! * **bounded memory** — the queued-item high-water mark stays under
//!   `sessions × (queue capacity + slack)`, so no fault class can grow
//!   a buffer without bound;
//! * **coverage** — across the soak every fault class fired at least
//!   once, so a passing run actually exercised the recovery paths.
//!
//! The report is JSONL (one line per scenario plus a summary), flat
//! like the verdict log, so the same tooling consumes both.

use crate::chaos::{FaultPlan, FaultPlanConfig, FaultTrace, FAULT_CLASSES};
use crate::demo::{demo_jsonl, soak_engine_config, DemoLayout, SOAK_LAYOUT};
use crate::config::Config;
use crate::engine::{Engine, EngineStats};
use memdos_metrics::jsonl::JsonObject;
use memdos_stats::rng::derive_seed;

/// Times every scenario is replayed: a reference run and a rerun of
/// the same configuration, whose logs must match.
pub const REPLAYS: usize = 2;

/// Close-queue slack allowed above the sample-queue capacity in the
/// bounded-memory check (control items bypass the sample drop policy).
const QUEUE_SLACK: usize = 8;

/// Soak run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Number of seeded scenarios to replay.
    pub seeds: u64,
    /// Base seed; scenario `i` derives from `(base_seed, i)`.
    pub base_seed: u64,
    /// Fault rates applied to every scenario.
    pub faults: FaultPlanConfig,
    /// Stream shape per tenant.
    pub layout: DemoLayout,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seeds: 8,
            base_seed: 0xD05,
            faults: FaultPlanConfig::chaos(),
            layout: SOAK_LAYOUT,
        }
    }
}

impl SoakConfig {
    /// Validates the configuration — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.seeds == 0 {
            return Err("seeds must be positive".to_string());
        }
        self.faults.validate()
    }
}

/// The outcome of one seeded scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario index (0-based).
    pub index: u64,
    /// Derived scenario seed.
    pub seed: u64,
    /// Faults injected, by class and line.
    pub trace: FaultTrace,
    /// Clean stream length, in lines.
    pub input_lines: usize,
    /// Chaotic stream length, in lines (duplicates/replays add,
    /// truncation/muting removes).
    pub delivered_lines: usize,
    /// Verdict-log length of the reference run.
    pub log_lines: usize,
    /// Logs byte-identical across all [`REPLAYS`].
    pub identical: bool,
    /// Queued-item high-water mark stayed under the capacity bound.
    pub bounded: bool,
    /// Engine counters of the reference run.
    pub stats: EngineStats,
    /// Sessions opened by the reference run (incarnations count).
    pub sessions: usize,
}

impl ScenarioReport {
    /// Scenario invariants all held.
    pub fn passed(&self) -> bool {
        self.identical && self.bounded
    }

    /// The scenario's JSONL report line.
    pub fn to_line(&self) -> String {
        let mut o = JsonObject::new();
        o.push_str("event", "soak_scenario")
            .push_num("index", self.index as f64)
            .push_num("seed", self.seed as f64)
            .push_num("faults", self.trace.total() as f64);
        for class in FAULT_CLASSES {
            o.push_num(class.label(), self.trace.count(class) as f64);
        }
        o.push_num("input_lines", self.input_lines as f64)
            .push_num("delivered_lines", self.delivered_lines as f64)
            .push_num("log_lines", self.log_lines as f64)
            .push_bool("identical", self.identical)
            .push_bool("bounded", self.bounded)
            .push_num("sessions", self.sessions as f64)
            .push_num("malformed", self.stats.malformed as f64)
            .push_num("resynced", self.stats.resynced as f64)
            .push_num("drops_backpressure", self.stats.drops_backpressure as f64)
            .push_num("drops_terminal", self.stats.drops_terminal as f64)
            .push_num("recoveries", self.stats.recoveries as f64)
            .push_num("idle_closed", self.stats.idle_closed as f64)
            .push_num("reopened", self.stats.reopened as f64)
            .push_num("peak_queued", self.stats.peak_queued as f64);
        o.to_line()
    }
}

/// The outcome of a whole soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-scenario outcomes, in seed order.
    pub scenarios: Vec<ScenarioReport>,
}

impl SoakReport {
    /// Every scenario's log replayed identically.
    pub fn all_identical(&self) -> bool {
        self.scenarios.iter().all(|s| s.identical)
    }

    /// Every scenario respected the memory bound.
    pub fn all_bounded(&self) -> bool {
        self.scenarios.iter().all(|s| s.bounded)
    }

    /// Fault classes that never fired across the whole soak.
    pub fn missing_classes(&self) -> Vec<&'static str> {
        FAULT_CLASSES
            .iter()
            .filter(|c| self.scenarios.iter().all(|s| s.trace.count(**c) == 0))
            .map(|c| c.label())
            .collect()
    }

    /// The soak passed: every invariant held and every class fired.
    pub fn passed(&self) -> bool {
        self.all_identical() && self.all_bounded() && self.missing_classes().is_empty()
    }

    /// The summary JSONL line.
    pub fn summary_line(&self) -> String {
        let mut o = JsonObject::new();
        o.push_str("event", "soak_summary")
            .push_num("seeds", self.scenarios.len() as f64)
            .push_num(
                "faults",
                self.scenarios.iter().map(|s| s.trace.total()).sum::<u64>() as f64,
            )
            .push_bool("identical", self.all_identical())
            .push_bool("bounded", self.all_bounded())
            .push_num("classes_missing", self.missing_classes().len() as f64)
            .push_bool("pass", self.passed());
        o.to_line()
    }
}

/// Engine configuration for a soak scenario: the demo detector settings
/// sized to `layout`, with the recovery machinery deliberately stressed
/// — a queue smaller than the flush batch (every batch overflows and
/// recovers), a live idle timeout (muted tenants must close), and a
/// one-alarm quarantine budget (attacked tenants go terminal).
pub fn scenario_engine_config(workers: usize, layout: &DemoLayout) -> Config {
    let mut cfg = soak_engine_config(workers);
    cfg.session.profile_ticks = layout.profile_ticks;
    cfg.batch = 1_024;
    cfg.session.queue_capacity = 200;
    cfg.session.idle_timeout = 600;
    cfg.session.quarantine_after = 1;
    cfg
}

/// Replays `lines` into a fresh engine and returns its log and
/// counters.
fn run_engine(
    config: Config,
    lines: &[String],
) -> Result<(Vec<String>, EngineStats, usize), String> {
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    for line in lines {
        engine.ingest_line(line);
    }
    engine.finish();
    Ok((engine.log_lines().to_vec(), engine.stats(), engine.session_count()))
}

/// Runs one seeded scenario: generate, perturb, replay [`REPLAYS`]
/// times, check invariants.
///
/// # Errors
///
/// Returns a description of a configuration problem (fault rates,
/// engine config); invariant *violations* are reported, not errors.
pub fn run_scenario(config: &SoakConfig, index: u64) -> Result<ScenarioReport, String> {
    let seed = derive_seed(config.base_seed, index);
    let stream = demo_jsonl(derive_seed(seed, 1), &config.layout, memdos_runner::threads());
    let (chaotic, trace) = FaultPlan::apply(derive_seed(seed, 2), config.faults, &stream)?;
    let mut reference: Option<(Vec<String>, EngineStats, usize)> = None;
    let mut identical = true;
    let mut bounded = true;
    let cfg = scenario_engine_config(1, &config.layout);
    for _ in 0..REPLAYS {
        let (log, stats, sessions) = run_engine(cfg, &chaotic)?;
        let bound =
            (sessions as u64) * (cfg.session.queue_capacity + QUEUE_SLACK) as u64;
        if stats.peak_queued > bound {
            bounded = false;
        }
        match &reference {
            None => reference = Some((log, stats, sessions)),
            Some((ref_log, _, _)) => {
                if &log != ref_log {
                    identical = false;
                }
            }
        }
    }
    let (log, stats, sessions) =
        reference.ok_or_else(|| "no replays".to_string())?;
    Ok(ScenarioReport {
        index,
        seed,
        trace,
        input_lines: stream.len(),
        delivered_lines: chaotic.len(),
        log_lines: log.len(),
        identical,
        bounded,
        stats,
        sessions,
    })
}

/// Runs the whole soak, invoking `on_scenario` as each scenario
/// completes (progress reporting).
///
/// # Errors
///
/// Returns a description of the first configuration problem.
pub fn run_soak(
    config: &SoakConfig,
    mut on_scenario: impl FnMut(&ScenarioReport),
) -> Result<SoakReport, String> {
    config.validate()?;
    let mut scenarios = Vec::with_capacity(config.seeds as usize);
    for index in 0..config.seeds {
        let report = run_scenario(config, index)?;
        on_scenario(&report);
        scenarios.push(report);
    }
    Ok(SoakReport { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_scenario_holds_all_invariants() {
        let config = SoakConfig {
            seeds: 1,
            base_seed: 99,
            layout: DemoLayout {
                profile_ticks: 400,
                benign_ticks: 100,
                attack_ticks: 100,
                tail_ticks: 50,
            },
            ..SoakConfig::default()
        };
        let report = run_soak(&config, |_| {}).unwrap();
        assert_eq!(report.scenarios.len(), 1);
        let s = report.scenarios.first().unwrap();
        assert!(s.identical, "log must replay identically under chaos");
        assert!(s.bounded, "peak_queued {} exceeded bound", s.stats.peak_queued);
        assert!(s.trace.total() > 0, "chaos rates must fire on 2600 lines");
        assert!(s.log_lines > 0);
        // Report lines are valid flat JSONL.
        let obj = JsonObject::parse(&s.to_line()).expect("scenario line parses");
        assert_eq!(obj.get_str("event"), Some("soak_scenario"));
        let obj = JsonObject::parse(&report.summary_line()).expect("summary parses");
        assert_eq!(obj.get_str("event"), Some("soak_summary"));
    }

    #[test]
    fn rejects_invalid_config() {
        let config = SoakConfig { seeds: 0, ..SoakConfig::default() };
        assert!(run_soak(&config, |_| {}).is_err());
        let config = SoakConfig {
            faults: FaultPlanConfig { corrupt: 2.0, ..FaultPlanConfig::none() },
            ..SoakConfig::default()
        };
        assert!(run_soak(&config, |_| {}).is_err());
    }
}
