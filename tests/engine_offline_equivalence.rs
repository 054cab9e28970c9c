//! Tier-1: the streaming engine and the offline paper harness agree on
//! when SDS alarms.
//!
//! The paper's recall, specificity and delay figures (Figs. 9–11) come
//! from the offline harness, `CapturedRun::replay_sds`. Operators run
//! the streaming engine instead. This test captures quick-grid cells
//! with `capture_attack_sweep` — periodic and non-periodic victims under
//! both attacks — feeds each captured observation stream through
//! `Engine` as one tenant, on both wire formats, and asserts that every
//! `verdict … "to":"alarm"` transition the engine logs lands on the tick
//! where the offline replay records an activation.
//!
//! Both run the same `memdos_core::monitor::Monitor`, but count ticks
//! from different origins. The engine's verdict `tick` counts the
//! session's monitoring samples from 1 (the first sample after Stage 1
//! is tick 1); `RunOutcome::activations` holds indices into the
//! post-profile alarm timeline, which start at 0. So an engine tick `t`
//! is the offline activation `t - 1`: both come from one
//! `MonitorStep`, as its `tick` and its `index()`, where the relation
//! is defined.
//!
//! The default run covers four cells (debug build, tier-1). The full
//! quick grid — every catalogue application under both attacks — is
//! `#[ignore]`d here and runs in release CI with `--include-ignored`.

use memdos::attacks::AttackKind;
use memdos::engine::engine::{Config, Engine};
use memdos::engine::protocol::Record;
use memdos::engine::session::SessionConfig;
use memdos::metrics::binary::Encoder;
use memdos::metrics::experiment::{CapturedRun, ExperimentConfig, StageConfig};
use memdos::metrics::jsonl::JsonObject;
use memdos::workloads::Application;

const TENANT: &str = "victim";
const ATTACKS: [AttackKind; 2] = [AttackKind::BusLocking, AttackKind::LlcCleansing];

/// One engine session sized like the offline harness: the same Stage-1
/// length and SDS parameters, no quarantine, no idle timeout.
fn engine_config(cfg: &ExperimentConfig) -> Config {
    Config {
        session: SessionConfig {
            profile_ticks: cfg.stages.profile_ticks,
            sds: cfg.sds_params,
            ..SessionConfig::default()
        },
        ..Config::default()
    }
}

/// The engine's alarm ticks for one tenant, from its log.
fn alarm_ticks(log: &[String]) -> Vec<u64> {
    log.iter()
        .filter_map(|line| {
            let obj = JsonObject::parse(line).expect("log line parses");
            let alarm =
                obj.get_str("event") == Some("verdict") && obj.get_str("to") == Some("alarm");
            alarm.then(|| obj.get_f64("tick").expect("verdict carries its tick") as u64)
        })
        .collect()
}

/// Replays `run` through the engine on one wire format and returns the
/// log.
fn engine_log(config: Config, run: &CapturedRun, binary: bool) -> Vec<String> {
    let mut wire = Vec::new();
    if binary {
        let mut enc = Encoder::new();
        for obs in &run.observations {
            enc.sample(TENANT, obs.access_num, obs.miss_num, &mut wire)
                .expect("encodes");
        }
    } else {
        for &obs in &run.observations {
            let line = Record::Sample {
                tenant: TENANT.to_string(),
                obs,
            }
            .to_line();
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
    }
    let mut engine = Engine::new(config).expect("config is valid");
    engine.ingest_reader(&wire[..]).expect("in-memory reader");
    engine.finish();
    engine.log_lines().to_vec()
}

/// Captures `app` under both attacks and checks every cell; returns how
/// many alarms the cells raised in total.
fn check_app(app: Application, utility_vms: usize) -> usize {
    let cfg = ExperimentConfig {
        app,
        stages: StageConfig::quick(),
        utility_vms,
        ..ExperimentConfig::default()
    };
    let mut alarms = 0;
    for (attack, run) in ATTACKS.iter().zip(cfg.capture_attack_sweep(&ATTACKS, 0)) {
        let offline = run.replay_sds(&cfg.sds_params).expect("offline replay");
        let jsonl = engine_log(engine_config(&cfg), &run, false);
        let binary = engine_log(engine_config(&cfg), &run, true);
        assert_eq!(jsonl, binary, "{app} × {attack}: wire formats disagree");
        let engine: Vec<u64> = alarm_ticks(&jsonl).iter().map(|t| t - 1).collect();
        assert_eq!(
            engine, offline.activations,
            "{app} × {attack}: engine vs offline alarm ticks"
        );
        alarms += engine.len();
    }
    alarms
}

#[test]
fn engine_alarms_on_the_offline_ticks_for_periodic_and_nonperiodic_apps() {
    assert!(!Application::KMeans.is_periodic() && Application::Pca.is_periodic());
    let alarms = check_app(Application::KMeans, 3) + check_app(Application::Pca, 3);
    assert!(
        alarms >= 4,
        "every attacked cell should alarm at least once, got {alarms}"
    );
}

#[test]
#[ignore = "full quick grid; run in release with --include-ignored"]
fn engine_alarms_on_the_offline_ticks_across_the_quick_grid() {
    let utility_vms = ExperimentConfig::default().utility_vms;
    for app in Application::ALL {
        check_app(app, utility_vms);
    }
}
