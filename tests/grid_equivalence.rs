//! Tier-1: `run_grid`'s shared-prefix forks equal from-scratch runs.
//!
//! Stages 1–2 carry no attack, so `run_grid` simulates each
//! `(app, run)` pair's prefix once per side and forks the attack stage
//! per attack. The passive schemes stream the kept prefix observations
//! ahead of each forked attack stage; KStest, whose throttling changes
//! the simulation, continues a cloned server and a cloned detector.
//! This test rebuilds every cell from scratch and compares outcome by
//! outcome, on the full `Debug` rendering:
//!
//! * the passive schemes from `capture_run` of that cell alone,
//!   replayed through `replay_sds`, SDS/B (a boundary-only profile) and
//!   `replay_sdsp`;
//! * KStest from a single-attack `run_scheme(KsTest)`, which must in
//!   turn equal a plain throttling loop written out below — the
//!   reference that shares no code with the fork path.
//!
//! The default run covers {KMeans, PCA} × both attacks × 2 runs on
//! compact stages (debug build, tier-1); PCA is periodic, so SDS/P is
//! armed. Its KStest cadence puts the attack launch inside a reference
//! window, so the forks carry paused VMs. The full quick grid — every
//! catalogue application under both attacks — is `#[ignore]`d here and
//! runs in release CI with `--include-ignored`.

use memdos::attacks::AttackKind;
use memdos::core::detector::{Detector, Observation, ThrottleRequest};
use memdos::core::kstest::KsTestDetector;
use memdos::core::sds::Sds;
use memdos::metrics::experiment::{ExperimentConfig, RunOutcome, Scheme, StageConfig};
use memdos::runner::{run_grid, CellOutcome};
use memdos::workloads::Application;

const ATTACKS: [AttackKind; 2] = [AttackKind::BusLocking, AttackKind::LlcCleansing];

/// KStest on its own server of run `run`, stepped by a plain loop that
/// applies the detector's throttle requests after each tick.
fn kstest_plain_loop(cfg: &ExperimentConfig, run: u64) -> RunOutcome {
    let (mut server, victim) = cfg.build_server(run);
    server.set_monitor_tax(cfg.ks_tax_cycles);
    let profile = cfg
        .run_profile_stage(&mut server, victim)
        .expect("profiles");
    let mut det = KsTestDetector::new(cfg.ks_params).expect("valid parameters");
    let mut out = RunOutcome {
        scheme: Scheme::KsTest,
        alarm: Vec::new(),
        activations: Vec::new(),
        profile_periodic: profile.is_periodic(),
    };
    for t in 0..cfg.stages.benign_ticks + cfg.stages.attack_ticks {
        let report = server.tick();
        let obs = Observation::from(report.sample(victim).expect("victim samples"));
        let step = det.on_observation(obs);
        match step.throttle {
            Some(ThrottleRequest::PauseOthers) => server.pause_all_except(victim),
            Some(ThrottleRequest::ResumeAll) => server.resume_all(),
            None => {}
        }
        if step.became_active {
            out.activations.push(t);
        }
        out.alarm.push(det.alarm_active());
    }
    out
}

/// Every scheme of one cell, each run from scratch on its own server.
fn from_scratch(
    base: &ExperimentConfig,
    cell: &CellOutcome,
    stages: StageConfig,
) -> Vec<RunOutcome> {
    let cfg = ExperimentConfig {
        app: cell.cell.app,
        attack: cell.cell.attack,
        stages,
        ..base.clone()
    };
    let params = cfg.sds_params;
    let captured = cfg.capture_run(cell.cell.run);
    let mut outcomes = vec![
        captured.replay_sds(&params).expect("SDS replays"),
        captured
            .replay_passive(Scheme::SdsB, &params, |p| {
                let mut boundary_only = p.clone();
                boundary_only.periodicity = None;
                Sds::from_profile(&boundary_only, &params)
            })
            .expect("SDS/B replays"),
    ];
    if outcomes[0].profile_periodic {
        outcomes.push(captured.replay_sdsp(&params).expect("SDS/P replays"));
    }
    let kstest = cfg
        .run_scheme(Scheme::KsTest, cell.cell.run)
        .expect("KStest runs");
    assert_eq!(
        format!("{kstest:?}"),
        format!("{:?}", kstest_plain_loop(&cfg, cell.cell.run)),
        "{} × {} run {}: run_scheme(KsTest) vs the plain loop",
        cell.cell.app,
        cell.cell.attack,
        cell.cell.run
    );
    outcomes.push(kstest);
    outcomes
}

/// Runs the grid and checks every cell against its from-scratch oracle;
/// returns the grid.
fn check_grid(
    base: &ExperimentConfig,
    apps: &[Application],
    stages: StageConfig,
    runs: u64,
) -> Vec<CellOutcome> {
    let cells = run_grid(base, apps, &ATTACKS, stages, runs, 1).expect("grid runs");
    let order = memdos::runner::grid(apps, &ATTACKS, runs);
    assert_eq!(cells.len(), order.len());
    for (cell, want) in cells.iter().zip(&order) {
        assert_eq!(cell.cell, *want, "cells come back in grid order");
        let oracle = from_scratch(base, cell, stages);
        assert_eq!(
            format!("{:?}", cell.outcomes),
            format!("{oracle:?}"),
            "{} × {} run {}: forked grid vs from-scratch runs",
            cell.cell.app,
            cell.cell.attack,
            cell.cell.run
        );
    }
    cells
}

#[test]
fn run_grid_matches_from_scratch_cells_for_periodic_and_nonperiodic_apps() {
    let stages = StageConfig {
        profile_ticks: 1_500,
        benign_ticks: 640,
        attack_ticks: 800,
        interval_ticks: 200,
        grace_ticks: 200,
    };
    let mut base = ExperimentConfig {
        // The prefix is built with bus locking: the bus fork runs on the
        // live server, the LLC fork re-targets the snapshot (payload and
        // its 8 threads).
        attack: AttackKind::BusLocking,
        utility_vms: 3,
        seed: 0x6D1D,
        ..ExperimentConfig::default()
    };
    // Fast-tripping detectors (SDS/B after 4 consecutive breaches,
    // KStest after 2 rejections) so the cells alarm inside the short
    // attack stage and the comparison covers attack-stage timelines.
    base.sds_params.sdsb.h_c = 4;
    base.ks_params.consecutive = 2;
    base.ks_params.l_r_ticks = 600;
    let launch = stages.benign_ticks % base.ks_params.l_r_ticks;
    assert!(
        (1..=base.ks_params.w_r_ticks).contains(&launch),
        "the launch must fall inside a KStest reference window"
    );
    let apps = [Application::KMeans, Application::Pca];
    let cells = check_grid(&base, &apps, stages, 2);
    let attack_stage = |o: &RunOutcome| o.activations.iter().any(|&t| t >= stages.benign_ticks);
    for attack in ATTACKS {
        let mut passive = cells
            .iter()
            .filter(|c| c.cell.attack == attack)
            .flat_map(|c| &c.outcomes)
            .filter(|o| o.scheme.is_passive());
        assert!(
            passive.any(attack_stage),
            "{attack}: some passive scheme must alarm in the attack stage"
        );
    }
    for cell in &cells {
        assert!(
            cell.outcomes
                .iter()
                .any(|o| o.scheme == Scheme::KsTest && attack_stage(o)),
            "{} × {}: KStest must alarm in the attack stage",
            cell.cell.app,
            cell.cell.attack
        );
        let periodic = cell.cell.app == Application::Pca;
        assert_eq!(
            cell.outcomes.iter().any(|o| o.scheme == Scheme::SdsP),
            periodic,
            "{}: SDS/P is armed exactly on the periodic app",
            cell.cell.app
        );
    }
}

#[test]
#[ignore = "full quick grid; run in release with --include-ignored"]
fn run_grid_matches_from_scratch_cells_across_the_quick_grid() {
    check_grid(
        &ExperimentConfig::default(),
        &Application::ALL,
        StageConfig::quick(),
        1,
    );
}
