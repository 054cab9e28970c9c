//! Tier-1: the determinism contract of the *closed-loop* respond path.
//!
//! The respond driver feeds a seeded fleet scenario with a ground-truth
//! attacker into the engine and applies the engine's mitigation actions
//! back to the generator — so any nondeterminism in the mitigation
//! state machine would not just reorder a log line, it would change the
//! workload itself and cascade. This test pins the whole loop: for each
//! respond scenario shape, the verdict log (`mitigation_*` events
//! included), the engine stats and the applied-action trace must be
//! byte-identical on a rerun.

use memdos::engine::respond::{
    respond_engine_config, respond_scenario, run_respond, RespondReport, RespondScenario,
};

const TENANTS: u32 = 6;
const SEED: u64 = 42;

fn run(kind: RespondScenario) -> RespondReport {
    let scenario = respond_scenario(kind, TENANTS, SEED);
    run_respond(&scenario, respond_engine_config(1), None)
        .expect("respond scenario is valid")
}

#[test]
fn respond_loop_is_byte_identical_across_reruns() {
    for kind in RespondScenario::ALL {
        let reference = run(kind);
        assert!(!reference.log.is_empty());
        // The loop actually engaged a control on the labelled attacker,
        // so the feedback edge is live, not vacuous.
        let attacker = reference.attacker.clone().expect("scenario labels an attacker");
        assert!(
            reference.actions.iter().all(|a| a.tenant == attacker && a.applied),
            "{}: every action targets the ground-truth attacker",
            kind.label()
        );
        assert!(
            reference.stats.mitigations_engaged >= 1,
            "{}: the loop must engage",
            kind.label()
        );
        assert!(
            reference.log.iter().any(|l| l.contains(r#""event":"mitigation_engaged""#)),
            "{}: mitigation events must be in the log",
            kind.label()
        );
        let replay = run(kind);
        assert_eq!(replay.log, reference.log, "{}: log diverged on rerun", kind.label());
        assert_eq!(replay.stats, reference.stats, "{}: stats diverged on rerun", kind.label());
        assert_eq!(
            replay.actions,
            reference.actions,
            "{}: action trace diverged on rerun",
            kind.label()
        );
        assert_eq!(replay.lines_fed, reference.lines_fed);
    }
}
