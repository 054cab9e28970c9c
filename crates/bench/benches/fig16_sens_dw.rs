//! Figure 16 — sensitivity of the sliding step size ΔW (k-means,
//! bus-locking attack).
//!
//! Paper expectations: accuracy does not change with ΔW; detection delay
//! grows with ΔW, because the minimum delay is `H_C · ΔW · T_PCM`.

use memdos_attacks::AttackKind;
use memdos_bench::sensitivity::{
    fig16_points, median_delay, median_recall, median_specificity, print_sweep, sweep,
    SweepDetector,
};
use memdos_workloads::catalog::Application;

fn main() {
    memdos_bench::banner("fig16_sens_dw");
    let stages = memdos_bench::scale();
    let points = fig16_points();
    let result = sweep(
        Application::KMeans,
        AttackKind::BusLocking,
        stages,
        memdos_bench::runs(),
        SweepDetector::Sds,
        &points,
    );
    print_sweep("Figure 16: sensitivity of ΔW (k-means)", "ΔW", &result, &stages);

    let accurate = result
        .iter()
        .all(|p| median_recall(p) >= 0.99 && median_specificity(p) >= 0.95);
    memdos_bench::shape(
        "Fig. 16 accuracy insensitive to ΔW",
        accurate,
        "recall and specificity ≈ 1 at every ΔW".to_string(),
    );
    let d_first = median_delay(&result[0], &stages);
    let d_last = median_delay(&result[result.len() - 1], &stages);
    memdos_bench::shape(
        "Fig. 16 delay grows with ΔW",
        d_last > d_first,
        format!("delay {:.1} s at ΔW=20 vs {:.1} s at ΔW=200", d_first, d_last),
    );
}
