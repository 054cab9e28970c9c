//! Cross-crate integration tests: the full paper protocol end to end,
//! exercised through the public facade crate.

use memdos::attacks::{schedule::Scheduled, AttackKind};
use memdos::core::config::SdsParams;
use memdos::core::detector::{Detector, Observation, ThrottleRequest};
use memdos::core::kstest::KsTestDetector;
use memdos::core::profile::Profiler;
use memdos::core::sds::Sds;
use memdos::metrics::experiment::{CapturedRun, ExperimentConfig, RunOutcome, Scheme, StageConfig};
use memdos::sim::server::{Server, ServerConfig};
use memdos::workloads::Application;

/// Builds a populated server: victim + dormant attacker + 3 utilities.
fn build(app: Application, attack: AttackKind, attack_at: u64, seed: u64) -> (Server, memdos::sim::VmId) {
    let mut server = Server::new(ServerConfig::default().with_seed(seed));
    let llc = server.config().geometry.lines() as u64;
    let geometry = server.config().geometry;
    let victim = server.add_vm(app.name(), app.build(llc));
    server.add_vm_parallel(
        "attacker",
        Box::new(Scheduled::starting_at(attack_at, attack.build(geometry))),
        attack.default_parallelism(),
    );
    for i in 0..3 {
        server.add_vm(
            format!("util-{i}"),
            Box::new(memdos::workloads::apps::utility::program(i)),
        );
    }
    (server, victim)
}

/// Profile, then monitor with SDS; returns (first alarm tick, ticks run).
fn run_sds(
    app: Application,
    attack: AttackKind,
    profile_ticks: u64,
    monitor_ticks: u64,
    attack_at: u64,
    seed: u64,
) -> Option<u64> {
    let (mut server, victim) = build(app, attack, attack_at, seed);
    let mut profiler = Profiler::default();
    for _ in 0..profile_ticks {
        let r = server.tick();
        profiler.observe(Observation::from(r.sample(victim).unwrap()));
    }
    let profile = profiler.finish().expect("profile");
    let mut sds = Sds::from_profile(&profile, &SdsParams::default()).expect("detector");
    for t in 0..monitor_ticks {
        let r = server.tick();
        let step = sds.on_observation(Observation::from(r.sample(victim).unwrap()));
        if step.became_active {
            return Some(profile_ticks + t);
        }
    }
    None
}

#[test]
fn sds_detects_bus_locking_on_nonperiodic_app() {
    let alarm = run_sds(Application::KMeans, AttackKind::BusLocking, 4_000, 10_000, 8_000, 1)
        .expect("attack must be detected");
    assert!(alarm >= 8_000, "false alarm at tick {alarm}");
    // SDS/B's minimum delay is 15 s = 1500 ticks.
    let delay = alarm - 8_000;
    assert!((1_400..4_000).contains(&delay), "delay {delay} ticks");
}

#[test]
fn sds_detects_cleansing_on_periodic_app() {
    let alarm = run_sds(Application::FaceNet, AttackKind::LlcCleansing, 8_000, 14_000, 14_000, 2)
        .expect("attack must be detected");
    assert!(alarm >= 14_000, "false alarm at tick {alarm}");
    let delay = alarm - 14_000;
    assert!(delay < 6_000, "delay {delay} ticks exceeds 60 s");
}

#[test]
fn sds_stays_quiet_without_attack() {
    // Attack scheduled far beyond the horizon: pure benign monitoring.
    let alarm = run_sds(Application::Bayes, AttackKind::BusLocking, 4_000, 8_000, u64::MAX / 2, 3);
    assert_eq!(alarm, None, "spurious SDS alarm");
}

#[test]
fn kstest_protocol_throttles_and_detects() {
    let (mut server, victim) = build(Application::KMeans, AttackKind::BusLocking, 4_000, 4);
    let mut det = KsTestDetector::default();
    let mut throttle_events = 0u32;
    let mut alarmed_during_attack = false;
    for t in 0..9_000u64 {
        let r = server.tick();
        let step = det.on_observation(Observation::from(r.sample(victim).unwrap()));
        match step.throttle {
            Some(ThrottleRequest::PauseOthers) => {
                throttle_events += 1;
                server.pause_all_except(victim);
            }
            Some(ThrottleRequest::ResumeAll) => server.resume_all(),
            None => {}
        }
        if t > 5_000 && det.alarm_active() {
            alarmed_during_attack = true;
        }
    }
    // One reference collection per L_R = 30 s.
    assert_eq!(throttle_events, 3);
    // KStest may also false-alarm before the launch (that is its §3.2
    // flaw); what it must do is hold the alarm while the attack runs.
    assert!(alarmed_during_attack, "KStest missed the bus-locking attack");
}

#[test]
fn experiment_runner_produces_consistent_outcomes() {
    let cfg = ExperimentConfig {
        app: Application::KMeans,
        attack: AttackKind::LlcCleansing,
        stages: StageConfig::quick(),
        ..ExperimentConfig::default()
    };
    let a = cfg.run_scheme(Scheme::Sds, 7).expect("run");
    let b = cfg.run_scheme(Scheme::Sds, 7).expect("run");
    // Determinism: identical runs produce identical alarm timelines.
    assert_eq!(a.alarm, b.alarm);
    let m = a.metrics(&cfg.stages);
    assert!(m.recall >= 0.99, "recall {}", m.recall);
    assert!(m.specificity >= 0.99, "specificity {}", m.specificity);
    let d = m.delay_secs.expect("detected");
    assert!((10.0..45.0).contains(&d), "delay {d}");
}

#[test]
fn captured_replay_matches_live_run() {
    // Passive schemes only observe, so replaying a captured stream must
    // reproduce the live alarm timelines exactly.
    let same = |live: &RunOutcome, replay: &RunOutcome, what: &str| {
        assert_eq!(live.scheme, replay.scheme, "{what}");
        assert_eq!(live.alarm, replay.alarm, "{what}");
        assert_eq!(live.activations, replay.activations, "{what}");
        assert_eq!(live.profile_periodic, replay.profile_periodic, "{what}");
    };
    let sdsb = |cap: &CapturedRun, params: &SdsParams| {
        cap.replay_passive(Scheme::SdsB, params, |p| Scheme::SdsB.arm(p, params))
            .expect("SDS/B replay")
    };

    // Non-periodic KMeans: SDS and SDS/B, each through `run_scheme`.
    let cfg = ExperimentConfig {
        app: Application::KMeans,
        attack: AttackKind::BusLocking,
        stages: StageConfig::quick(),
        ..ExperimentConfig::default()
    };
    let captured = cfg.capture_run(5);
    let replay = captured.replay_sds(&cfg.sds_params).expect("replay");
    same(&cfg.run_scheme(Scheme::Sds, 5).expect("live run"), &replay, "KMeans SDS");
    let replay = sdsb(&captured, &cfg.sds_params);
    same(&cfg.run_scheme(Scheme::SdsB, 5).expect("live run"), &replay, "KMeans SDS/B");

    // Periodic PCA: `run_all_schemes` shares one live execution between
    // the passive schemes, which must equal the per-scheme replays, and
    // appends `run_scheme(KsTest)`. Two utility VMs keep the case cheap;
    // the equivalence holds for any server population.
    let cfg = ExperimentConfig {
        app: Application::Pca,
        attack: AttackKind::BusLocking,
        stages: StageConfig::quick(),
        utility_vms: 2,
        ..ExperimentConfig::default()
    };
    let captured = cfg.capture_run(3);
    let params = cfg.sds_params;
    let expected = [
        captured.replay_sds(&params).expect("SDS replay"),
        sdsb(&captured, &params),
        captured.replay_sdsp(&params).expect("SDS/P replay"),
        cfg.run_scheme(Scheme::KsTest, 3).expect("KStest run"),
    ];
    let all = cfg.run_all_schemes(3).expect("all schemes");
    assert_eq!(all.len(), expected.len(), "PCA must profile as periodic");
    for (live, replay) in all.iter().zip(&expected) {
        same(live, replay, &format!("PCA {}", replay.scheme));
    }
}

#[test]
fn sdsb_and_sdsp_agree_with_combined_sds_on_periodic_app() {
    let cfg = ExperimentConfig {
        app: Application::Pca,
        attack: AttackKind::BusLocking,
        stages: StageConfig::quick(),
        ..ExperimentConfig::default()
    };
    let outcomes = cfg.run_all_schemes(3).expect("runs");
    let names: Vec<&str> = outcomes.iter().map(|o| o.scheme.name()).collect();
    assert!(names.contains(&"SDS"));
    assert!(names.contains(&"SDS/B"));
    assert!(names.contains(&"SDS/P"), "PCA must profile as periodic");
    assert!(names.contains(&"KStest"));
    for o in &outcomes {
        if o.scheme.is_passive() {
            let m = o.metrics(&cfg.stages);
            assert!(m.recall > 0.5, "{}: recall {}", o.scheme.name(), m.recall);
        }
    }
    // Combined SDS can only alarm when SDS/B does (B ∧ P for periodic).
    let sds = outcomes.iter().find(|o| o.scheme == Scheme::Sds).unwrap();
    let sdsb = outcomes.iter().find(|o| o.scheme == Scheme::SdsB).unwrap();
    for (s, b) in sds.alarm.iter().zip(&sdsb.alarm) {
        assert!(!s | b, "SDS active while SDS/B inactive");
    }
}
