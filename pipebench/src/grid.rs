//! `paper-grid`: `runner::run_grid` at `StageConfig::quick()` on one
//! worker over {KMeans, FaceNet} × {bus locking, LLC cleansing} × one
//! run, all four schemes including active KStest. The cycle-level
//! simulator (server tick, LLC, bus), the workload and attack programs
//! and the `stats` kernels (FFT/ACF, KS) do nearly all the work; the
//! streaming engine does none. The run reproduces the quantities of the
//! paper's Figs. 9–11 (recall, specificity, detection delay).
//!
//! The traced run re-derives every cell from public calls —
//! `capture_attack_sweep` (simulation), `replay_*` (passive detectors)
//! and `run_scheme(KsTest)` (the active protocol, which throttles the
//! simulated server and so keeps its live loop) — and checks that the
//! decomposition reproduces `run_grid`'s outcomes exactly.

use crate::logscan;
use crate::pipeline::median0;
use crate::run::{peak_rss_mb, Run};
use crate::stats::median;
use memdos_attacks::AttackKind;
use memdos_core::sds::Sds;
use memdos_metrics::experiment::{ExperimentConfig, RunOutcome, Scheme, StageConfig};
use memdos_runner::{run_grid, CellOutcome};
use memdos_workloads::catalog::Application;
use std::time::Instant;

/// Default seed: `ExperimentConfig`'s default.
pub const DEFAULT_SEED: u64 = 0xD05;
const APPS: [Application; 2] = [Application::KMeans, Application::FaceNet];
const ATTACKS: [AttackKind; 2] = [AttackKind::BusLocking, AttackKind::LlcCleansing];
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 1_001;

fn base(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    }
}

fn cell_config(seed: u64, app: Application, attack: AttackKind) -> ExperimentConfig {
    ExperimentConfig {
        app,
        attack,
        stages: StageConfig::quick(),
        ..base(seed)
    }
}

/// A compact, comparable rendering of one outcome.
fn render(o: &RunOutcome) -> String {
    let alarms: String = o.alarm.iter().map(|&a| if a { '1' } else { '0' }).collect();
    format!(
        "{}|{}|{:?}|{}",
        o.scheme, o.profile_periodic, o.activations, alarms
    )
}

/// Digest of a grid's outcomes.
fn digest(cells: &[CellOutcome]) -> u64 {
    let lines: Vec<String> = cells
        .iter()
        .flat_map(|c| c.outcomes.iter().map(render))
        .collect();
    logscan::digest(&lines)
}

/// Median of one scheme's metric over the cells where it ran.
fn scheme_median(
    cells: &[CellOutcome],
    scheme: Scheme,
    pick: impl Fn(&memdos_metrics::experiment::RunMetrics) -> Option<f64>,
) -> f64 {
    let stages = StageConfig::quick();
    let values: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.outcomes.iter())
        .filter(|o| o.scheme == scheme)
        .filter_map(|o| pick(&o.metrics(&stages)))
        .collect();
    median(&values).unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let seed = run.args.seed;
    let stages = StageConfig::quick();
    let cells = (APPS.len() * ATTACKS.len()) as f64;
    run.note(format!(
        "config grid cells={cells} stages=quick workers=1 seed={seed}"
    ));

    // Set-up: build every cell's simulated server (victim, attacker,
    // utility VMs) — what `run_grid` does before the first tick.
    let root = run.trace.open("setup", None);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for attack in ATTACKS {
            for app in APPS {
                let server = cell_config(seed, app, attack).build_server_with_attacker(0);
                drop(server);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    run.trace.close(root);
    run.set("setup_s", median0(&setups));

    // The grid, as many whole passes as fit the budget (at least one).
    let since = run.elapsed();
    let (mut walls, mut digests) = (Vec::new(), Vec::new());
    let grid = loop {
        let pass = run.trace.open("runner.run_grid", None);
        let t0 = Instant::now();
        let out =
            run_grid(&base(seed), &APPS, &ATTACKS, stages, 1, 1).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        run.trace.close(pass);
        walls.push(wall);
        digests.push(digest(&out));
        if walls.len() == 1 {
            // After a fixed amount of work: later passes only repeat it,
            // and how many fit depends on the clock.
            run.set("peak_rss_mb", peak_rss_mb()?);
        }
        if run.args.traced || !run.fits(since, run.args.seconds, wall) {
            break out;
        }
    };
    let wall = median0(&walls);
    // Each cell simulates the full stage timeline twice: once shared by
    // the passive schemes, once for active KStest.
    let samples = cells * 2.0 * stages.total_ticks() as f64;
    run.set("throughput_rps", samples / wall);
    run.set("grid_cells_per_s", cells / wall);
    run.note(format!("passes grid={} walls_s={walls:?}", walls.len()));
    run.note(format!(
        "digest grid {:016x}",
        digests.first().copied().unwrap_or_default()
    ));
    run.check_same("grid.passes_agree", &digests);
    run.attempted = cells as u64;
    run.failed = 0;

    // Figs. 9–11: SDS medians over the cells; per-scheme medians.
    run.set(
        "recall",
        scheme_median(&grid, Scheme::Sds, |m| Some(m.recall)),
    );
    run.set(
        "specificity",
        scheme_median(&grid, Scheme::Sds, |m| Some(m.specificity)),
    );
    run.set(
        "detect_delay_s",
        scheme_median(&grid, Scheme::Sds, |m| m.delay_secs),
    );
    for (scheme, key) in [
        (Scheme::SdsB, "sdsb"),
        (Scheme::SdsP, "sdsp"),
        (Scheme::KsTest, "kstest"),
    ] {
        run.set(
            &format!("core.{key}.recall"),
            scheme_median(&grid, scheme, |m| Some(m.recall)),
        );
        run.set(
            &format!("core.{key}.specificity"),
            scheme_median(&grid, scheme, |m| Some(m.specificity)),
        );
        run.set(
            &format!("core.{key}.delay_s"),
            scheme_median(&grid, scheme, |m| m.delay_secs),
        );
    }
    for cell in &grid {
        for o in &cell.outcomes {
            let m = o.metrics(&stages);
            run.note(format!(
                "cell app={} attack={:?} scheme={} recall={} specificity={} delay_s={:?}",
                cell.cell.app.name(),
                cell.cell.attack,
                o.scheme,
                m.recall,
                m.specificity,
                m.delay_secs
            ));
        }
    }

    if run.args.traced {
        decompose(run, seed, &grid, wall)?;
    }
    Ok(())
}

/// Re-derives the grid from public per-layer calls, times each layer,
/// and checks the outcomes equal `run_grid`'s.
fn decompose(run: &mut Run, seed: u64, grid: &[CellOutcome], grid_wall: f64) -> Result<(), String> {
    let pass = run.trace.open("pass.traced", None);
    let (mut capture_s, mut replay_s, mut kstest_s) = (0.0, 0.0, 0.0);
    let mut derived: Vec<((AttackKind, Application), Vec<RunOutcome>)> = Vec::new();
    for app in APPS {
        let cfg = cell_config(seed, app, ATTACKS[0]);
        let span = run
            .trace
            .open("metrics.experiment.capture_attack_sweep", Some(pass));
        let captured = cfg.capture_attack_sweep(&ATTACKS, 0);
        capture_s += run.trace.close(span) as f64 / 1e9;
        for (attack, cap) in ATTACKS.into_iter().zip(&captured) {
            let params = cfg.sds_params;
            let span = run.trace.open("metrics.experiment.replay", Some(pass));
            let mut outcomes = vec![
                cap.replay_sds(&params).map_err(|e| e.to_string())?,
                cap.replay_passive(Scheme::SdsB, &params, |p| {
                    let mut boundary_only = p.clone();
                    boundary_only.periodicity = None;
                    Sds::from_profile(&boundary_only, &params)
                })
                .map_err(|e| e.to_string())?,
            ];
            if outcomes.first().is_some_and(|o| o.profile_periodic) {
                outcomes.push(cap.replay_sdsp(&params).map_err(|e| e.to_string())?);
            }
            replay_s += run.trace.close(span) as f64 / 1e9;
            let span = run
                .trace
                .open("metrics.experiment.run_scheme.kstest", Some(pass));
            let kcfg = cell_config(seed, app, attack);
            outcomes.push(
                kcfg.run_scheme(Scheme::KsTest, 0)
                    .map_err(|e| e.to_string())?,
            );
            kstest_s += run.trace.close(span) as f64 / 1e9;
            derived.push(((attack, app), outcomes));
        }
    }
    let traced_wall = run.trace.close(pass) as f64 / 1e9;
    let cells = grid.len().max(1) as f64;
    run.set("sim.capture_s_per_cell", capture_s / cells);
    run.set("metrics.experiment.replay_s_per_cell", replay_s / cells);
    run.set("metrics.experiment.kstest_s_per_cell", kstest_s / cells);
    run.set("trace.overhead_ratio", traced_wall / grid_wall);
    let mut mismatches = Vec::new();
    for cell in grid {
        let key = (cell.cell.attack, cell.cell.app);
        let ours = derived.iter().find(|(k, _)| *k == key).map(|(_, o)| o);
        let same = ours.is_some_and(|o| {
            o.len() == cell.outcomes.len()
                && o.iter()
                    .zip(&cell.outcomes)
                    .all(|(a, b)| render(a) == render(b))
        });
        if !same {
            mismatches.push(format!("{:?}/{}", cell.cell.attack, cell.cell.app.name()));
        }
    }
    let outcome = if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join(", "))
    };
    run.check("grid.decomposition_reproduces_run_grid", outcome);
    Ok(())
}
