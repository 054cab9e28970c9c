//! Shared machinery for the sensitivity studies (Figs. 13–18).
//!
//! §5.3 sweeps one SDS parameter at a time and reports recall,
//! specificity and detection delay. Because SDS is a passive consumer of
//! PCM samples, the server simulation is captured **once per run** and
//! every parameter point is *replayed* over the same captured stream —
//! identical to how the paper evaluates all points on the same testbed,
//! and orders of magnitude cheaper than re-simulating per point.

use memdos_attacks::AttackKind;
use memdos_core::config::SdsParams;
use memdos_metrics::experiment::{CapturedRun, ExperimentConfig, RunMetrics, StageConfig};
use memdos_metrics::report::{fmt_summary, summarize, summarize_censored, Table};
use memdos_workloads::catalog::Application;

/// Which replayed detector a sweep evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDetector {
    /// The combined SDS (the §5.3 default; k-means sweeps use this).
    Sds,
    /// SDS/P alone (the `W_P`/`ΔW_P` sweeps on FaceNet).
    SdsP,
}

/// One evaluated parameter point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Label of the x-axis value (e.g. `"0.2"` for α = 0.2).
    pub label: String,
    /// Per-run metrics at this parameter value.
    pub runs: Vec<RunMetrics>,
}

/// Captures `n_runs` runs of `(app, attack)` and replays every
/// `(label, params)` point over them.
///
/// Both phases run on the parallel runner: the expensive server captures
/// fan out across runs, then the (cheap but numerous) parameter replays
/// fan out across points. Captures are keyed by run index and replays are
/// pure functions of a capture, so the output is identical to the old
/// sequential double loop.
pub fn sweep(
    app: Application,
    attack: AttackKind,
    stages: StageConfig,
    n_runs: u64,
    detector: SweepDetector,
    points: &[(String, SdsParams)],
) -> Vec<SweepPoint> {
    let cfg = ExperimentConfig { app, attack, stages, ..ExperimentConfig::default() };
    let workers = memdos_runner::threads();
    eprintln!("  capturing {attack} / {app} ({n_runs} run(s), {workers} worker(s))");
    let captures: Vec<CapturedRun> = memdos_runner::capture_runs(&cfg, n_runs, workers);
    memdos_runner::parallel_map(points, workers, |(label, params)| {
        let runs = captures
            .iter()
            .map(|cap| {
                let outcome = match detector {
                    SweepDetector::Sds => cap.replay_sds(params),
                    SweepDetector::SdsP => cap.replay_sdsp(params),
                }
                // lint:allow(panic) -- sweep grids are built from valid
                // parameter sets; a replay failure is a harness bug.
                .expect("replay with swept parameters must succeed");
                outcome.metrics(&stages)
            })
            .collect();
        SweepPoint { label: label.clone(), runs }
    })
}

/// Fig. 16's points: the sliding step ΔW of both SDS/B and SDS/P, from
/// 20 to 200 samples (swept on k-means under bus locking).
pub fn fig16_points() -> Vec<(String, SdsParams)> {
    [20usize, 50, 100, 150, 200]
        .iter()
        .map(|&dw| {
            let mut p = SdsParams::default();
            p.sdsb.step = dw;
            p.sdsp.step = dw;
            (format!("{dw}"), p)
        })
        .collect()
}

/// Fig. 18's points: the SDS/P recomputation step ΔW_P, from 5 to 25
/// MA values (swept on FaceNet under LLC cleansing).
pub fn fig18_points() -> Vec<(String, SdsParams)> {
    [5usize, 10, 15, 20, 25]
        .iter()
        .map(|&s| {
            let mut p = SdsParams::default();
            p.sdsp.step_ma = s;
            (format!("{s}"), p)
        })
        .collect()
}

/// Prints the three §5.3 panels (recall & specificity, then delay) for a
/// sweep, in the paper's median [p10, p90] format.
pub fn print_sweep(title: &str, x_name: &str, points: &[SweepPoint], stages: &StageConfig) {
    let mut table = Table::new(
        title,
        &[x_name, "recall", "specificity", "delay [s]"],
    );
    let censor = stages.attack_ticks as f64 * 0.01;
    for p in points {
        let recall = summarize(&p.runs.iter().map(|m| m.recall).collect::<Vec<_>>());
        let spec = summarize(&p.runs.iter().map(|m| m.specificity).collect::<Vec<_>>());
        let delay = summarize_censored(
            &p.runs.iter().map(|m| m.delay_secs).collect::<Vec<_>>(),
            censor,
        );
        table.push(vec![
            p.label.clone(),
            recall.map(|s| fmt_summary(&s, 2)).unwrap_or_default(),
            spec.map(|s| fmt_summary(&s, 2)).unwrap_or_default(),
            delay.map(|s| fmt_summary(&s, 1)).unwrap_or_default(),
        ]);
    }
    println!("{table}");
}

/// Median delay of a sweep point (censored at the stage length).
pub fn median_delay(p: &SweepPoint, stages: &StageConfig) -> f64 {
    let censor = stages.attack_ticks as f64 * 0.01;
    summarize_censored(
        &p.runs.iter().map(|m| m.delay_secs).collect::<Vec<_>>(),
        censor,
    )
    .map(|s| s.median)
    .unwrap_or(censor)
}

/// Median recall of a sweep point.
pub fn median_recall(p: &SweepPoint) -> f64 {
    summarize(&p.runs.iter().map(|m| m.recall).collect::<Vec<_>>())
        .map(|s| s.median)
        .unwrap_or(0.0)
}

/// Median specificity of a sweep point.
pub fn median_specificity(p: &SweepPoint) -> f64 {
    summarize(&p.runs.iter().map(|m| m.specificity).collect::<Vec<_>>())
        .map(|s| s.median)
        .unwrap_or(0.0)
}
