//! Tier-1 guarantee of the parallel runner: the experiment grid produces
//! **byte-identical** results regardless of worker count, and repeated
//! runs are byte-identical to each other. This is the contract that lets
//! every figure target fan out across cores without changing a single
//! digit of the paper reproduction.
//!
//! The comparison is on the full `Debug` rendering of the outcomes —
//! every alarm timestamp, every per-scheme event list — not on summary
//! statistics, so even a one-tick scheduling artifact would fail it.

use memdos::attacks::AttackKind;
use memdos::metrics::experiment::{ExperimentConfig, StageConfig};
use memdos::workloads::Application;

/// Compact stages: long enough for the profiler to fit every scheme
/// (the period detector needs its full profiling window), short enough
/// to keep this tier-1 test fast.
fn stages() -> StageConfig {
    StageConfig {
        profile_ticks: 1_500,
        benign_ticks: 1_200,
        attack_ticks: 1_200,
        interval_ticks: 400,
        grace_ticks: 400,
    }
}

/// Runs the grid at the given worker count and renders it to a string.
/// Both attacks, so every `(app, run)` job forks its attack-free prefix
/// and the forked continuations are compared too.
fn grid_fingerprint(workers: usize) -> String {
    let apps = [Application::KMeans, Application::FaceNet];
    let attacks = AttackKind::ALL;
    let results = memdos::runner::run_grid(
        &ExperimentConfig::default(),
        &apps,
        &attacks,
        stages(),
        1,
        workers,
    )
    .expect("grid configs are built from the valid catalogs");
    assert_eq!(results.len(), apps.len() * attacks.len());
    format!("{results:?}")
}

#[test]
fn grid_results_are_identical_across_worker_counts_and_reruns() {
    let sequential = grid_fingerprint(1);
    assert!(sequential.contains("KMeans") && sequential.contains("FaceNet"));
    for workers in [2, 8] {
        assert_eq!(
            grid_fingerprint(workers),
            sequential,
            "grid output must be byte-identical at {workers} workers"
        );
    }
    // Determinism across repeated runs at the same worker count: nothing
    // ambient (time, address hashing, scheduling) leaks into results.
    assert_eq!(grid_fingerprint(2), grid_fingerprint(2));
}

#[test]
fn parallel_map_is_order_preserving_under_oversubscription() {
    // More workers than items and a non-trivial payload: results must
    // come back in input order, not completion order.
    let items: Vec<u64> = (0..17).collect();
    let doubled = memdos::runner::parallel_map(&items, 32, |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
}
