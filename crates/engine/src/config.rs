//! The unified engine configuration surface.
//!
//! Every knob the engine honours lives in one [`Config`] struct:
//! construct it in code (struct literal or the builder methods), or
//! resolve the `MEMDOS_ENGINE_*` environment once at process startup
//! with [`Config::from_env`]. [`crate::engine::Engine::new`] takes a
//! `Config` and nothing else — the engine itself never reads the
//! environment, so a library embedder (or a test replaying the same
//! stream under several configurations) passes explicit values instead
//! of mutating process-global state.
//!
//! | env var | field |
//! |---|---|
//! | `MEMDOS_THREADS` | [`Config::workers`] (ignored by the engine; the CLI sizes the demo generator with it) |
//! | `MEMDOS_ENGINE_BATCH` | [`Config::batch`] |
//! | `MEMDOS_ENGINE_MAX_SESSIONS` | [`Config::max_sessions`] |
//! | `MEMDOS_ENGINE_DROP_LOG` | [`Config::drop_log_every`] |
//! | `MEMDOS_ENGINE_PROF` | [`Config::prof`] |
//! | `MEMDOS_ENGINE_PROFILE_TICKS` | [`Config::session`]`.profile_ticks` |
//! | `MEMDOS_ENGINE_QUEUE` | [`Config::session`]`.queue_capacity` |
//! | `MEMDOS_ENGINE_QUARANTINE` | [`Config::session`]`.quarantine_after` |
//! | `MEMDOS_ENGINE_IDLE` | [`Config::session`]`.idle_timeout` |
//! | `MEMDOS_ENGINE_DROP` | [`Config::session`]`.drop_policy` |
//! | `MEMDOS_ENGINE_MITIGATION` | [`Config::mitigation`]`.enabled` |
//! | `MEMDOS_ENGINE_CONFIRM_BUDGET` | [`Config::mitigation`]`.confirm_budget` |
//! | `MEMDOS_ENGINE_HOLD_TICKS` | [`Config::mitigation`]`.hold_ticks` |
//! | `MEMDOS_ENGINE_DEGRADED_BELOW` | [`Config::mitigation`]`.degraded_below` |
//! | `MEMDOS_ENGINE_MAX_RUNG` | [`Config::mitigation`]`.max_rung` |

use crate::session::SessionConfig;
use memdos_core::CoreError;

/// Policy of the quarantine-driven response loop
/// ([`crate::mitigation`]). Disabled by default: with `enabled = false`
/// the engine never scans for victims, never engages a control, and the
/// fleet-scale hot path pays nothing.
///
/// Budgets are measured in *seq ticks* — ingest arrival indices — so
/// every decision point is a pure function of the input stream and the
/// mitigation event log stays byte-identical on every rerun.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationPolicy {
    /// Master switch for the response loop.
    pub enabled: bool,
    /// Seq ticks an engaged control may take to show victim recovery
    /// before the case climbs the escalation ladder.
    pub confirm_budget: u64,
    /// Seq ticks a verdict must hold before it becomes terminal: an
    /// innocent case releases after this hold, and victim recovery must
    /// stick this long before the attack counts as confirmed.
    pub hold_ticks: u64,
    /// Victim recovery ratio (monitoring EWMA over profile baseline)
    /// below which a victim counts as degraded, in `(0, 1]`.
    pub degraded_below: f64,
    /// Highest escalation rung the ladder may reach: 0 throttle,
    /// 1 pause, 2 evict.
    pub max_rung: u8,
}

impl Default for MitigationPolicy {
    fn default() -> Self {
        MitigationPolicy {
            enabled: false,
            confirm_budget: 400,
            hold_ticks: 160,
            degraded_below: 0.95,
            max_rung: 2,
        }
    }
}

impl MitigationPolicy {
    /// An enabled policy with the default budgets.
    pub fn enabled() -> Self {
        MitigationPolicy { enabled: true, ..MitigationPolicy::default() }
    }

    /// Validates the policy — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.confirm_budget == 0 {
            return Err(CoreError::InvalidParameter {
                name: "mitigation.confirm_budget",
                reason: "must be positive",
            });
        }
        if !(self.degraded_below > 0.0 && self.degraded_below <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "mitigation.degraded_below",
                reason: "must be within (0, 1]",
            });
        }
        if self.max_rung > 2 {
            return Err(CoreError::InvalidParameter {
                name: "mitigation.max_rung",
                reason: "must be 0 (throttle), 1 (pause) or 2 (evict)",
            });
        }
        Ok(())
    }
}

/// Engine configuration. All knobs flow through this struct; see the
/// module docs for the environment-variable mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Requested worker count (>= 1). The engine ignores it: a flush
    /// drains every session on the calling thread. The field stays
    /// (validated, set from `MEMDOS_THREADS`) only because the
    /// benchmark harness still reads and sets it, and goes together
    /// with those uses.
    pub workers: usize,
    /// Input lines between flushes (>= 1). Keep at or below the session
    /// queue capacity to rule out backpressure drops from batching alone
    /// (see the engine module docs on determinism).
    pub batch: usize,
    /// Memory ceiling: maximum concurrently open (non-closing) sessions;
    /// `0` disables the ceiling. When an open would exceed it, the
    /// least-recently-seen open session is evicted — closed with reason
    /// `evicted` and reclaimed at the next flush; an evicted tenant that
    /// speaks again reopens as a new generation, exactly like any other
    /// closed tenant.
    pub max_sessions: usize,
    /// Drop-burst coalescing interval (>= 1): inside one backpressure
    /// burst, a `dropped` event is logged for the first loss and then
    /// every `drop_log_every`-th, so a sustained overload degrades the
    /// log gracefully instead of flooding it one event per lost sample.
    /// The totals stay exact in the event payloads and in
    /// [`crate::engine::EngineStats`].
    pub drop_log_every: u64,
    /// Collect per-stage ns counters (decode/dispatch/step/merge/write)
    /// and emit them in the final `engine_stats` line. Off by default:
    /// the counters are wall-clock measurements, so enabling them makes
    /// the stats line (and only the stats line) non-reproducible.
    pub prof: bool,
    /// Configuration applied to every session the engine opens.
    pub session: SessionConfig,
    /// Quarantine-driven response policy (off by default).
    pub mitigation: MitigationPolicy,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 1,
            batch: 256,
            max_sessions: 0,
            drop_log_every: 64,
            prof: false,
            session: SessionConfig::default(),
            mitigation: MitigationPolicy::default(),
        }
    }
}

impl Config {
    /// Sets the (ignored) worker count (builder style).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the flush batch size (builder style).
    #[must_use]
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the open-session memory ceiling (builder style); `0`
    /// disables it.
    #[must_use]
    pub fn max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Sets the drop-burst coalescing interval (builder style).
    #[must_use]
    pub fn drop_log_every(mut self, every: u64) -> Self {
        self.drop_log_every = every;
        self
    }

    /// Enables or disables the per-stage profiler (builder style).
    #[must_use]
    pub fn prof(mut self, prof: bool) -> Self {
        self.prof = prof;
        self
    }

    /// Sets the per-session configuration (builder style).
    #[must_use]
    pub fn session(mut self, session: SessionConfig) -> Self {
        self.session = session;
        self
    }

    /// Sets the mitigation policy (builder style).
    #[must_use]
    pub fn mitigation(mut self, mitigation: MitigationPolicy) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Validates the configuration — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidParameter {
                name: "workers",
                reason: "must be positive",
            });
        }
        if self.batch == 0 {
            return Err(CoreError::InvalidParameter {
                name: "batch",
                reason: "must be positive",
            });
        }
        if self.drop_log_every == 0 {
            return Err(CoreError::InvalidParameter {
                name: "drop_log_every",
                reason: "must be positive",
            });
        }
        self.mitigation.validate()?;
        self.session.validate()
    }

    /// Builds a configuration from the `MEMDOS_ENGINE_*` environment
    /// variables (see the module docs for the mapping), with
    /// `MEMDOS_THREADS` supplying the worker count. Unset variables take
    /// their defaults; set-but-invalid ones are an error — the engine is
    /// a long-running service, so a typo must fail loudly at startup
    /// rather than be silently ignored. Call this once, at process
    /// startup (the CLI does so in `main`); everything downstream takes
    /// the resolved `Config` by value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid
    /// variable, in the same diagnostic style as the `MEMDOS_THREADS`
    /// parse (`NAME=value is not a ...`).
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Config {
            workers: memdos_runner::threads(),
            ..Config::default()
        };
        cfg.batch = env_usize("MEMDOS_ENGINE_BATCH", cfg.batch)?;
        cfg.max_sessions = env_usize("MEMDOS_ENGINE_MAX_SESSIONS", cfg.max_sessions)?;
        cfg.session.profile_ticks =
            env_u64("MEMDOS_ENGINE_PROFILE_TICKS", cfg.session.profile_ticks)?;
        cfg.session.queue_capacity =
            env_usize("MEMDOS_ENGINE_QUEUE", cfg.session.queue_capacity)?;
        cfg.session.quarantine_after =
            env_u64("MEMDOS_ENGINE_QUARANTINE", cfg.session.quarantine_after)?;
        cfg.session.idle_timeout = env_u64("MEMDOS_ENGINE_IDLE", cfg.session.idle_timeout)?;
        cfg.drop_log_every = env_u64("MEMDOS_ENGINE_DROP_LOG", cfg.drop_log_every)?;
        cfg.prof = env_bool("MEMDOS_ENGINE_PROF", cfg.prof)?;
        cfg.mitigation.enabled = env_bool("MEMDOS_ENGINE_MITIGATION", cfg.mitigation.enabled)?;
        cfg.mitigation.confirm_budget =
            env_u64("MEMDOS_ENGINE_CONFIRM_BUDGET", cfg.mitigation.confirm_budget)?;
        cfg.mitigation.hold_ticks = env_u64("MEMDOS_ENGINE_HOLD_TICKS", cfg.mitigation.hold_ticks)?;
        cfg.mitigation.degraded_below =
            env_f64("MEMDOS_ENGINE_DEGRADED_BELOW", cfg.mitigation.degraded_below)?;
        cfg.mitigation.max_rung =
            env_u64("MEMDOS_ENGINE_MAX_RUNG", cfg.mitigation.max_rung as u64)? as u8;
        if let Ok(v) = std::env::var("MEMDOS_ENGINE_DROP") {
            cfg.session.drop_policy = crate::session::DropPolicy::parse(&v)
                .map_err(|e| format!("MEMDOS_ENGINE_DROP: {e}"))?;
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }
}

fn env_u64(name: &str, default: u64) -> Result<u64, String> {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
        Err(_) => Ok(default),
    }
}

fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    env_u64(name, default as u64).map(|n| n as usize)
}

fn env_f64(name: &str, default: f64) -> Result<f64, String> {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(format!("{name}={v:?} is not a finite number")),
        },
        Err(_) => Ok(default),
    }
}

fn env_bool(name: &str, default: bool) -> Result<bool, String> {
    match std::env::var(name) {
        Ok(v) => match v.trim() {
            "1" | "true" | "on" => Ok(true),
            "0" | "false" | "off" => Ok(false),
            other => Err(format!(
                "{name}={other:?} is not a boolean (use 1/0, true/false or on/off)"
            )),
        },
        Err(_) => Ok(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_chain() {
        let cfg = Config::default()
            .workers(4)
            .batch(512)
            .max_sessions(1_000)
            .drop_log_every(16)
            .prof(true);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.batch, 512);
        assert_eq!(cfg.max_sessions, 1_000);
        assert_eq!(cfg.drop_log_every, 16);
        assert!(cfg.prof);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_knobs() {
        assert!(Config::default().workers(0).validate().is_err());
        assert!(Config::default().batch(0).validate().is_err());
        assert!(Config::default().drop_log_every(0).validate().is_err());
        // A zero ceiling means "no ceiling", not "no sessions".
        assert!(Config::default().max_sessions(0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_mitigation_policy() {
        let with = |p: MitigationPolicy| Config::default().mitigation(p);
        assert!(with(MitigationPolicy::enabled()).validate().is_ok());
        assert!(with(MitigationPolicy { confirm_budget: 0, ..MitigationPolicy::enabled() })
            .validate()
            .is_err());
        assert!(with(MitigationPolicy { degraded_below: 0.0, ..MitigationPolicy::enabled() })
            .validate()
            .is_err());
        assert!(with(MitigationPolicy { degraded_below: 1.5, ..MitigationPolicy::enabled() })
            .validate()
            .is_err());
        assert!(with(MitigationPolicy { max_rung: 3, ..MitigationPolicy::enabled() })
            .validate()
            .is_err());
    }
}
