//! # memdos-runner
//!
//! Std-only parallel experiment engine. The paper's evaluation (§5) is a
//! (scheme × application × attack × run) grid of independent simulations;
//! this crate fans that grid out across worker threads with a
//! channel-based work queue built from `std::thread::scope` — no external
//! dependencies, per workspace policy.
//!
//! ## Determinism guarantee
//!
//! Parallel output is **bit-identical** to sequential output, regardless
//! of worker count or scheduling:
//!
//! * every cell's seed derives only from `(base seed, run index)` via
//!   `memdos_stats::rng::derive_seed` (through
//!   `ExperimentConfig::run_seed`), never from execution order;
//! * each job runs on its own simulator instance — one per
//!   `(app, run, side)` in [`run_grid`], the side being the passive
//!   schemes or KStest, whose attacks fork that instance's attack-free
//!   prefix in a fixed order — so jobs share no mutable state; and
//! * results are collected tagged with their input index and re-assembled
//!   in input order, so downstream aggregation sees the exact sequence a
//!   sequential loop would have produced.
//!
//! `tests/parallel_determinism.rs` (tier-1) pins this: the full grid's
//! formatted results are byte-identical across 1, 2 and 8 workers and
//! across repeated runs.
//!
//! ## Worker count
//!
//! [`threads`] reads the `MEMDOS_THREADS` environment variable, falling
//! back to the machine's available parallelism. An invalid value (not a
//! positive integer) also falls back, and [`threads_config`] reports the
//! problem as a diagnostic string so long-running callers (the engine
//! binary, xtask) can surface it once instead of silently ignoring the
//! variable. Each job is single-threaded and simulates ~60 s of cloud
//! time per wall-clock second per core, so grid throughput scales
//! near-linearly until the job count or the core count is exhausted.

#![forbid(unsafe_code)]

pub mod shard;

pub use shard::ShardPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use memdos_attacks::AttackKind;
use memdos_core::CoreError;
use memdos_metrics::experiment::{CapturedRun, ExperimentConfig, RunOutcome, StageConfig};
use memdos_workloads::catalog::Application;

/// The resolved worker count plus any configuration diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsSelection {
    /// Worker count to use (always >= 1).
    pub workers: usize,
    /// Human-readable description of an ignored `MEMDOS_THREADS` value,
    /// when the variable was set but not a positive integer. Callers
    /// with a user-facing surface should print this once.
    pub diagnostic: Option<String>,
}

/// Resolves the worker count from `MEMDOS_THREADS`, reporting invalid
/// values instead of silently swallowing them.
///
/// A set-but-invalid value (unparsable, or `0`) falls back to the
/// machine's available parallelism and fills `diagnostic`.
pub fn threads_config() -> ThreadsSelection {
    let fallback = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("MEMDOS_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => ThreadsSelection { workers: n, diagnostic: None },
            Ok(_) => ThreadsSelection {
                workers: fallback(),
                diagnostic: Some(
                    "MEMDOS_THREADS=0 is invalid (must be a positive integer); \
                     falling back to available parallelism"
                        .to_string(),
                ),
            },
            Err(_) => ThreadsSelection {
                workers: fallback(),
                diagnostic: Some(format!(
                    "MEMDOS_THREADS={v:?} is not a positive integer; \
                     falling back to available parallelism"
                )),
            },
        },
        Err(_) => ThreadsSelection { workers: fallback(), diagnostic: None },
    }
}

/// Worker count: `MEMDOS_THREADS` when set to a positive integer, else
/// the machine's available parallelism (1 if that cannot be determined).
/// Invalid values fall back silently here — use [`threads_config`] to
/// surface the diagnostic.
pub fn threads() -> usize {
    threads_config().workers
}

/// The machine's available parallelism (1 when it cannot be
/// determined), independent of `MEMDOS_THREADS`.
///
/// Use this to *clamp* a requested worker count for CPU-bound pools:
/// oversubscribing cores buys no concurrency, only scheduling latency
/// and channel round-trips, so `requested.min(cores())` is the widest
/// pool worth spawning. Output must never depend on the value —
/// callers' determinism contracts already guarantee worker-count
/// invariance.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Monotonic nanoseconds since an arbitrary process-local origin.
///
/// Lives here because wall-clock access is reserved for the harness
/// crates (lint rule L2): deterministic crates that need an *optional*
/// profiling clock (the engine's `MEMDOS_ENGINE_PROF` stage counters)
/// take timestamps through this helper instead of touching
/// `std::time::Instant` themselves. Never feed the value into anything
/// that shapes output — it is for diagnostics only.
// lint:allow(determinism-taint) -- diagnostics-only stage profiling clock; gated behind MEMDOS_ENGINE_PROF and never fed into verdicts
pub fn monotonic_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    Instant::now().duration_since(origin).as_nanos() as u64
}

/// Applies `f` to every item of `items` on `workers` threads and returns
/// the results **in input order**.
///
/// Work distribution is a shared atomic cursor (each idle worker claims
/// the next unclaimed index), so uneven cell costs cannot stall the
/// queue; completed results flow back over a channel tagged with their
/// index and are re-assembled in order. With `workers <= 1` the items are
/// mapped inline on the calling thread — the parallel path produces the
/// same `Vec` in the same order, it only computes it on more threads.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // A send only fails when the receiver is gone, which
                // means the collector below already stopped; just exit.
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        // Drop the original sender so the receive loop ends once every
        // worker has finished and dropped its clone.
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, result) in rx {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(result);
            }
        }
        slots.into_iter().flatten().collect()
    })
}

/// One (application × attack × run) cell of the evaluation grid. Its
/// [`CellOutcome`] holds every applicable scheme's outcome, as
/// [`ExperimentConfig::run_all_schemes`] gives them for the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Application under protection.
    pub app: Application,
    /// Attack launched in Stage 3.
    pub attack: AttackKind,
    /// Run index (seeds derive from it).
    pub run: u64,
}

/// Result of one grid cell: the cell and every applicable scheme's
/// outcome, in the scheme order `run_all_schemes` produces.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that was executed.
    pub cell: GridCell,
    /// Per-scheme outcomes.
    pub outcomes: Vec<RunOutcome>,
}

/// Enumerates the evaluation grid in canonical order — attacks outermost,
/// then applications, then run index — the order the sequential sweep
/// executed in, so order-sensitive aggregation is unchanged.
pub fn grid(apps: &[Application], attacks: &[AttackKind], runs: u64) -> Vec<GridCell> {
    let mut cells = Vec::with_capacity(apps.len() * attacks.len() * runs as usize);
    for &attack in attacks {
        for &app in apps {
            for run in 0..runs {
                cells.push(GridCell { app, attack, run });
            }
        }
    }
    cells
}

/// Runs the full evaluation grid on `workers` threads.
///
/// `base` supplies everything but the per-cell `app`/`attack`/`stages`;
/// results come back in [`grid`] order and are bit-identical to what a
/// sequential loop of [`ExperimentConfig::run_all_schemes`] over the
/// same grid would produce (see the crate docs for why).
///
/// Stages 1–2 carry no attack, so each `(app, run)` pair simulates them
/// once per side — once for the passive schemes
/// ([`ExperimentConfig::passive_attack_sweep`]), once for throttling
/// KStest ([`ExperimentConfig::kstest_attack_sweep`]) — and forks the
/// attack stage per attack. The parallel jobs are those
/// `(app, run, side)` triples; their per-attack outcomes are scattered
/// back into grid cells.
///
/// # Errors
///
/// Propagates the first `CoreError` in grid order. Errors come from
/// profiling the attack-free prefix, which every attack of a pair
/// shares, so the first failing job in `(app, run, side)` order owns
/// the first failing cell.
pub fn run_grid(
    base: &ExperimentConfig,
    apps: &[Application],
    attacks: &[AttackKind],
    stages: StageConfig,
    runs: u64,
    workers: usize,
) -> Result<Vec<CellOutcome>, CoreError> {
    let pairs = pairs(apps, runs);
    let jobs: Vec<(Application, u64, bool)> = pairs
        .iter()
        .flat_map(|&(app, run)| [(app, run, false), (app, run, true)])
        .collect();
    // Jobs are CPU-bound; a pool wider than the machine buys no
    // concurrency (see [`cores`]), so clamp the requested width.
    let workers = workers.min(cores());
    let mut sides = parallel_map(&jobs, workers, |&(app, run, kstest)| {
        let cfg = ExperimentConfig { app, stages, ..base.clone() };
        if kstest {
            let outcomes = cfg.kstest_attack_sweep(attacks, run)?;
            Ok(outcomes.into_iter().map(|o| vec![o]).collect::<Vec<_>>())
        } else {
            cfg.passive_attack_sweep(attacks, run)
        }
    })
    .into_iter()
    .map(|side| side.map(Vec::into_iter))
    .collect::<Result<Vec<_>, CoreError>>()?;
    // Each job yields its outcomes in attack order, and grid order
    // visits every pair once per attack, so one `next` per visit
    // scatters them.
    let mut cells = Vec::with_capacity(attacks.len() * pairs.len());
    for &attack in attacks {
        for (&(app, run), job) in pairs.iter().zip(sides.chunks_exact_mut(2)) {
            let outcomes = job.iter_mut().filter_map(Iterator::next).flatten().collect();
            cells.push(CellOutcome { cell: GridCell { app, attack, run }, outcomes });
        }
    }
    Ok(cells)
}

/// The `(app, run)` pairs of a grid, applications outermost — the order
/// [`grid`] visits them within one attack.
fn pairs(apps: &[Application], runs: u64) -> Vec<(Application, u64)> {
    apps.iter().flat_map(|&app| (0..runs).map(move |run| (app, run))).collect()
}

/// Captures the raw observation traces of runs `0..n_runs` of `cfg` on
/// `workers` threads, in run order — the parallel counterpart of calling
/// `cfg.capture_run(r)` in a loop (used by the sensitivity sweeps, which
/// replay one captured trace against many parameter points).
pub fn capture_runs(cfg: &ExperimentConfig, n_runs: u64, workers: usize) -> Vec<CapturedRun> {
    let runs: Vec<u64> = (0..n_runs).collect();
    parallel_map(&runs, workers.min(cores()), |&run| cfg.capture_run(run))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map(&items, workers, |&x| x * x), expected);
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(parallel_map(&empty, 4, |&x: &u64| x).len(), 0);
        assert_eq!(parallel_map(&[7u64], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn grid_order_is_attack_app_run() {
        let cells = grid(
            &[Application::KMeans, Application::FaceNet],
            &[AttackKind::BusLocking],
            2,
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].app, Application::KMeans);
        assert_eq!(cells[0].run, 0);
        assert_eq!(cells[1].run, 1);
        assert_eq!(cells[2].app, Application::FaceNet);
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }
}
