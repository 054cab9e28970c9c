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
use memdos::metrics::experiment::{ExperimentConfig, Scheme, StageConfig};
use memdos::runner::CellOutcome;
use memdos::workloads::Application;

/// Compact stages: long enough for the profiler to classify PCA as
/// periodic (so SDS/P is armed), short enough to keep this tier-1 test
/// fast.
fn stages() -> StageConfig {
    StageConfig {
        profile_ticks: 1_500,
        benign_ticks: 1_200,
        attack_ticks: 1_200,
        interval_ticks: 400,
        grace_ticks: 400,
    }
}

/// Runs the grid at the given worker count: a non-periodic and a
/// periodic victim under both attacks, so every `(app, run)` job forks
/// its attack-free prefix and the forked continuations are compared
/// too. With three utility VMs PCA's profile classifies periodic at
/// these stages. SDS/B trips after 4 consecutive breaches (as in
/// `grid_equivalence.rs`) and SDS/P after 3 deviating estimates taken
/// every 4 MA windows, so every scheme can alarm inside the short
/// attack stage and the compared timelines are not empty.
fn grid(workers: usize) -> Vec<CellOutcome> {
    let apps = [Application::KMeans, Application::Pca];
    let attacks = AttackKind::ALL;
    let mut base = ExperimentConfig { utility_vms: 3, ..ExperimentConfig::default() };
    base.sds_params.sdsb.h_c = 4;
    base.sds_params.sdsp.h_p = 3;
    base.sds_params.sdsp.step_ma = 4;
    let results = memdos::runner::run_grid(&base, &apps, &attacks, stages(), 1, workers)
        .expect("grid configs are built from the valid catalogs");
    assert_eq!(results.len(), apps.len() * attacks.len());
    results
}

/// The grid at the given worker count, rendered to a string.
fn grid_fingerprint(workers: usize) -> String {
    format!("{:?}", grid(workers))
}

#[test]
fn grid_results_are_identical_across_worker_counts_and_reruns() {
    let cells = grid(1);
    // The compared timelines are not empty: SDS alarms on every
    // attacked cell and SDS/P is armed somewhere.
    for cell in &cells {
        let sds = cell.outcomes.iter().find(|o| o.scheme == Scheme::Sds).expect("SDS runs");
        assert!(
            !sds.activations.is_empty(),
            "{} × {}: SDS must alarm",
            cell.cell.app,
            cell.cell.attack
        );
    }
    let outcomes = || cells.iter().flat_map(|c| &c.outcomes);
    assert!(outcomes().any(|o| o.scheme == Scheme::SdsP), "SDS/P must be armed");
    let sequential = format!("{cells:?}");
    assert!(sequential.contains("KMeans") && sequential.contains("Pca"));
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
