//! # memdos-engine
//!
//! A long-running, multi-tenant streaming detection engine on top of the
//! paper's detectors — the deployment shape of §6: one engine per cloud
//! host, one session per monitored VM, verdicts as an event stream.
//!
//! * [`protocol`] — the JSONL wire format: one flat object per line,
//!   either a PCM sample (`{"tenant":"vm-0","access":1234,"miss":56}`)
//!   or a control record (`{"tenant":"vm-0","ctl":"close"}`).
//! * [`session`] — per-tenant lifecycle
//!   (`Profiling → Monitoring → Quarantined/Closed`), one combined SDS
//!   detector armed from the session's own profile and stepped through
//!   the columnar [`memdos_core::detector::Detector::step_batch`] path,
//!   and bounded queues with an explicit backpressure drop policy.
//! * [`config`] — the one [`Config`] struct every knob arrives
//!   through: builder methods for programmatic use, a single
//!   [`Config::from_env`] for the CLI (resolved once in `main`, never
//!   scattered through the engine).
//! * [`engine`] — the slab-backed session registry (dense slots keyed
//!   by the interned tenant id, an explicit `max_sessions` memory
//!   ceiling with LRU-idle eviction), batched single-threaded flushes
//!   that drain each dirty session in its slab slot, and the
//!   deterministic `(seq, sub)`-ordered event log. Replaying the same
//!   input yields a byte-identical log at any batch size that keeps the
//!   queues from overflowing — including across evictions.
//! * [`demo`] — the four-tenant demo stream (two periodic victims, two
//!   non-periodic, bus-locking and LLC-cleansing attack windows), which
//!   doubles as the fixture for the replay-determinism tier-1 test.
//! * [`chaos`] — seeded fault injection ([`chaos::FaultPlan`]) over any
//!   line source: byte corruption, truncation, duplication, reordering,
//!   stalls, disconnect replays and tenant churn, all drawn from
//!   [`memdos_stats::rng`] so a scenario is a pure function of its
//!   seed; plus the deterministic [`chaos::Backoff`] retry schedule the
//!   CLI uses for TCP recovery.
//! * [`soak`] — the chaos soak harness: N seeded scenarios over the
//!   demo stream, each replayed at several worker counts, asserting no
//!   panic, bounded memory, byte-identical logs and full fault-class
//!   coverage.
//! * [`mitigation`] — the quarantine-driven response state machine
//!   (`Throttled → Confirming → Released | Escalated`): a capped
//!   throttle→pause→evict escalation ladder with per-tenant rung
//!   memory, confirmed from *victim* counter recovery, emitting
//!   `mitigation_*` events under the same determinism contract as the
//!   verdict log.
//! * [`respond`] — the closed-loop driver: a seeded
//!   [`memdos_sim::fleet`] scenario with a ground-truth attacker feeds
//!   the engine, and the engine's mitigation actions feed back into
//!   the generator's throttle levels — detection changes the workload
//!   it is detecting.
//!
//! The `memdos-engine` binary wraps this as a CLI: `demo`, `gen-demo`,
//! `replay` (file or stdin), `serve` (TCP), `soak` and `respond`.
//!
//! ## Example
//!
//! ```rust
//! use memdos_engine::engine::Engine;
//! use memdos_engine::session::SessionConfig;
//! use memdos_engine::Config;
//!
//! let mut engine = Engine::new(
//!     Config::default()
//!         .session(SessionConfig { profile_ticks: 2_000, ..SessionConfig::default() }),
//! )
//! .unwrap();
//! for i in 0..2_100u64 {
//!     engine.ingest_line(&format!(
//!         r#"{{"tenant":"vm-0","access":{},"miss":40}}"#,
//!         1000 + i % 7
//!     ));
//! }
//! engine.flush();
//! assert!(engine.log_lines().iter().any(|l| l.contains("profile_ready")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod demo;
pub mod engine;
mod event;
pub mod fleet;
pub mod mitigation;
pub mod protocol;
pub mod respond;
pub mod session;
mod slab;
pub mod soak;

pub use config::Config;
