//! Figure 18 — sensitivity of the SDS/P recomputation step ΔW_P
//! (FaceNet, LLC cleansing attack).
//!
//! Paper expectations: accuracy does not change with ΔW_P; delay grows
//! with ΔW_P because the minimum delay is `H_P · ΔW_P · ΔW · T_PCM`.
//! Since DFT-ACF cost is negligible, small ΔW_P (5–10) is recommended.

use memdos_attacks::AttackKind;
use memdos_bench::sensitivity::{
    fig18_points, median_delay, median_recall, print_sweep, sweep, SweepDetector,
};
use memdos_workloads::catalog::Application;

fn main() {
    memdos_bench::banner("fig18_sens_dwp");
    let stages = memdos_bench::scale();
    let points = fig18_points();
    let result = sweep(
        Application::FaceNet,
        AttackKind::LlcCleansing,
        stages,
        memdos_bench::runs(),
        SweepDetector::SdsP,
        &points,
    );
    print_sweep("Figure 18: sensitivity of ΔW_P (FaceNet, SDS/P)", "ΔW_P", &result, &stages);

    let accurate = result.iter().all(|p| median_recall(p) >= 0.9);
    memdos_bench::shape(
        "Fig. 18 accuracy insensitive to ΔW_P",
        accurate,
        "recall ≈ 1 at every ΔW_P".to_string(),
    );
    let d_first = median_delay(&result[0], &stages);
    let d_last = median_delay(&result[result.len() - 1], &stages);
    memdos_bench::shape(
        "Fig. 18 delay grows with ΔW_P",
        d_last >= d_first,
        format!("delay {:.1} s at ΔW_P=5 vs {:.1} s at ΔW_P=25", d_first, d_last),
    );
}
