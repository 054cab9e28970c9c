//! Drives each rule family against the fixture corpus under
//! `tests/fixtures/`, proving every family fires on its violation
//! fixture and stays silent on the matching allowed fixture.

use std::collections::BTreeSet;

use xtask::callgraph::{graph_findings, FileAnalysis, Graph};
use xtask::manifest::check_manifest;
use xtask::rules::{check_file, check_forbid_unsafe, check_source, FileScope, Finding};

const LIB_SCOPE: FileScope = FileScope {
    deterministic: false,
    harness: false,
    seed_authority: false,
    detector_authority: false,
    hot_path_checked: false,
    shared_state_sanctioned: false,
};
const SANCTIONED_SCOPE: FileScope = FileScope { shared_state_sanctioned: true, ..LIB_SCOPE };
const DET_SCOPE: FileScope = FileScope { deterministic: true, ..LIB_SCOPE };
const HOT_SCOPE: FileScope = FileScope { hot_path_checked: true, ..LIB_SCOPE };
const HARNESS_SCOPE: FileScope = FileScope { harness: true, ..LIB_SCOPE };
const STATS_SCOPE: FileScope =
    FileScope { deterministic: true, seed_authority: true, ..LIB_SCOPE };
const CORE_SCOPE: FileScope =
    FileScope { deterministic: true, detector_authority: true, ..LIB_SCOPE };

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

/// Runs the full two-phase pipeline (extract, local scan for allow
/// ranges, call graph, graph rules) over in-memory fixture files and
/// returns the phase-2 findings.
fn analyze(files: &[(&str, &str, &str, FileScope)]) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|&(path, crate_name, src, scope)| {
            let stream = xtask::lexer::tokenize(src);
            let symbols = xtask::symbols::extract(src, &stream);
            let report = check_file(path, src, scope, &symbols);
            FileAnalysis {
                path: path.to_string(),
                crate_name: crate_name.to_string(),
                scope,
                symbols,
                allows: report.allows,
            }
        })
        .collect();
    let graph = Graph::build(&analyses);
    let mut used = BTreeSet::new();
    graph_findings(&graph, &mut used)
}

#[test]
fn l1_panic_fires_on_every_pattern() {
    let src = include_str!("fixtures/l1_panic_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented!
    assert_eq!(count(&findings, "L1/panic"), 6, "{findings:?}");
}

#[test]
fn l1_panic_respects_allows_and_test_code() {
    let src = include_str!("fixtures/l1_panic_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l1_index_fires_on_variable_subscript() {
    let src = include_str!("fixtures/l1_index_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert_eq!(rules_of(&findings), vec!["L1/index"]);
}

#[test]
fn l1_index_skips_literals_ranges_and_allows() {
    let src = include_str!("fixtures/l1_index_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l2_determinism_fires_on_time_collections_and_rand() {
    let src = include_str!("fixtures/l2_determinism_violation.rs");
    let findings = check_source("fixture.rs", src, DET_SCOPE);
    assert!(count(&findings, "L2/time") >= 1, "{findings:?}");
    assert!(count(&findings, "L2/collections") >= 1, "{findings:?}");
    assert!(count(&findings, "L2/rand") >= 1, "{findings:?}");
}

#[test]
fn l2_collections_only_guard_deterministic_crates() {
    let src = include_str!("fixtures/l2_determinism_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert_eq!(count(&findings, "L2/collections"), 0, "{findings:?}");
    // Wall-clock time stays banned everywhere.
    assert!(count(&findings, "L2/time") >= 1, "{findings:?}");
}

#[test]
fn l2_ordered_maps_and_seeded_rng_pass() {
    let src = include_str!("fixtures/l2_determinism_allowed.rs");
    let findings = check_source("fixture.rs", src, DET_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l3_float_fires_on_eq_and_partial_cmp() {
    let src = include_str!("fixtures/l3_float_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert_eq!(count(&findings, "L3/float-eq"), 2, "{findings:?}");
    assert_eq!(count(&findings, "L3/partial-cmp"), 1, "{findings:?}");
}

#[test]
fn l3_safe_comparisons_pass() {
    let src = include_str!("fixtures/l3_float_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l5_thread_fires_on_every_spawning_idiom() {
    let src = include_str!("fixtures/l5_thread_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // std::thread::spawn, thread::scope, thread::Builder
    assert_eq!(count(&findings, "L5/thread"), 3, "{findings:?}");
}

#[test]
fn l5_thread_spares_storage_allows_tests_and_harness_crates() {
    let src = include_str!("fixtures/l5_thread_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
    // The violation fixture is legal inside a harness crate.
    let violation = include_str!("fixtures/l5_thread_violation.rs");
    let findings = check_source("fixture.rs", violation, HARNESS_SCOPE);
    assert_eq!(count(&findings, "L5/thread"), 0, "{findings:?}");
}

#[test]
fn l5_seed_fires_on_hand_rolled_derivation() {
    let src = include_str!("fixtures/l5_seed_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // grouped-uppercase and ungrouped-lowercase spellings
    assert_eq!(count(&findings, "L5/seed"), 2, "{findings:?}");
}

#[test]
fn l5_seed_spares_rng_api_allows_and_the_stats_crate() {
    let src = include_str!("fixtures/l5_seed_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
    // The stats crate itself owns the constant.
    let violation = include_str!("fixtures/l5_seed_violation.rs");
    let findings = check_source("fixture.rs", violation, STATS_SCOPE);
    assert_eq!(count(&findings, "L5/seed"), 0, "{findings:?}");
}

#[test]
fn l6_step_fires_on_direct_on_sample_calls() {
    let src = include_str!("fixtures/l6_detector_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // the plain method call and the chained one
    assert_eq!(count(&findings, "L6/step"), 2, "{findings:?}");
}

#[test]
fn l6_step_spares_trait_path_allows_tests_and_the_core_crate() {
    let src = include_str!("fixtures/l6_detector_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
    // The violation fixture is legal inside memdos-core itself.
    let violation = include_str!("fixtures/l6_detector_violation.rs");
    let findings = check_source("fixture.rs", violation, CORE_SCOPE);
    assert_eq!(count(&findings, "L6/step"), 0, "{findings:?}");
}

#[test]
fn l6_profile_fires_on_profiler_builds() {
    let src = include_str!("fixtures/l6_profile_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // the `new` build and the path-qualified `default` one
    assert_eq!(count(&findings, "L6/profile"), 2, "{findings:?}");
}

#[test]
fn l6_profile_spares_the_monitor_allows_tests_and_the_core_crate() {
    let src = include_str!("fixtures/l6_profile_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
    // The violation fixture is legal inside memdos-core itself.
    let violation = include_str!("fixtures/l6_profile_violation.rs");
    let findings = check_source("fixture.rs", violation, CORE_SCOPE);
    assert_eq!(count(&findings, "L6/profile"), 0, "{findings:?}");
}

#[test]
fn l7_hot_alloc_fires_inside_marked_functions() {
    let src = include_str!("fixtures/l7_hotpath_violation.rs");
    let findings = check_source("fixture.rs", src, HOT_SCOPE);
    // format!, .to_string(), String::with_capacity(), .to_owned()
    assert_eq!(count(&findings, "L7/hot-alloc"), 4, "{findings:?}");
    // The family only guards the crates with the allocation-free contract.
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l7_hot_alloc_spares_buffers_cold_paths_allows_and_tests() {
    let src = include_str!("fixtures/l7_hotpath_allowed.rs");
    let findings = check_source("fixture.rs", src, HOT_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l7_hot_alloc_fires_in_the_binary_codec_shape() {
    let src = include_str!("fixtures/l7_codec_violation.rs");
    let findings = check_source("fixture.rs", src, HOT_SCOPE);
    // String::new() in the name decode, format! in the reason render
    assert_eq!(count(&findings, "L7/hot-alloc"), 2, "{findings:?}");
    // Outside the hot-path-checked crates the same code is legal.
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l7_codec_fixed_width_writes_and_justified_define_pass() {
    let src = include_str!("fixtures/l7_codec_allowed.rs");
    let findings = check_source("fixture.rs", src, HOT_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l4_missing_forbid_unsafe_fires() {
    let src = include_str!("fixtures/l4_missing_forbid.rs");
    let findings = check_forbid_unsafe("lib.rs", src);
    assert_eq!(rules_of(&findings), vec!["L4/unsafe"]);
}

#[test]
fn l4_forbid_unsafe_present_passes() {
    let src = include_str!("fixtures/l4_forbid_ok.rs");
    assert!(check_forbid_unsafe("lib.rs", src).is_empty());
}

#[test]
fn l4_manifest_wildcard_and_pinned_deps_fire() {
    let src = include_str!("fixtures/manifest_violation.toml");
    let findings = check_manifest("Cargo.toml", src, false);
    // wildcard "*", pinned "1.2.3", and the inline-table dev-dependency
    assert_eq!(count(&findings, "L4/cargo"), 3, "{findings:?}");
}

#[test]
fn l4_workspace_inherited_manifest_passes() {
    let src = include_str!("fixtures/manifest_ok.toml");
    let findings = check_manifest("Cargo.toml", src, false);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l8_shared_state_fires_on_every_primitive() {
    let src = include_str!("fixtures/l8_shared_state_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // four `use` lines, five struct fields (one per line), static mut,
    // and the three lock/atomic fields of the slab counter-example
    assert_eq!(count(&findings, "L8/shared-state"), 13, "{findings:?}");
    // The sanctioned concurrency layer may hold all of them.
    let findings = check_source("fixture.rs", src, SANCTIONED_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l8_shared_state_spares_lookalikes_allows_and_tests() {
    let src = include_str!("fixtures/l8_shared_state_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l9_catches_the_transitive_allocation_l7_misses() {
    let src = include_str!("fixtures/l9_hot_propagate_violation.rs");
    // Phase 1 alone is blind: the hot function allocates nothing on
    // its own lines, so the local L7 scan stays silent.
    let local = check_source("engine/src/f.rs", src, HOT_SCOPE);
    assert_eq!(count(&local, "L7/hot-alloc"), 0, "{local:?}");
    // Phase 2 walks the call graph and connects the chain.
    let findings = analyze(&[("engine/src/f.rs", "engine", src, HOT_SCOPE)]);
    assert_eq!(count(&findings, "L9/hot-propagate"), 1, "{findings:?}");
    let Some(f) = findings.iter().find(|f| f.rule == "L9/hot-propagate") else {
        return;
    };
    assert!(f.message.contains("ingest -> mid -> leaf"), "{}", f.message);
}

#[test]
fn l9_spares_alloc_free_chains_justified_call_sites_and_cold_code() {
    let src = include_str!("fixtures/l9_hot_propagate_allowed.rs");
    let findings = analyze(&[("engine/src/f.rs", "engine", src, HOT_SCOPE)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l9_catches_transitive_allocation_in_the_decode_chain() {
    let src = include_str!("fixtures/l9_codec_violation.rs");
    // The hot decode entry allocates nothing on its own lines.
    let local = check_source("engine/src/codec.rs", src, HOT_SCOPE);
    assert_eq!(count(&local, "L7/hot-alloc"), 0, "{local:?}");
    let findings = analyze(&[("engine/src/codec.rs", "engine", src, HOT_SCOPE)]);
    assert_eq!(count(&findings, "L9/hot-propagate"), 1, "{findings:?}");
    let Some(f) = findings.iter().find(|f| f.rule == "L9/hot-propagate") else {
        return;
    };
    assert!(f.message.contains("decode_frame -> validate -> reason_of"), "{}", f.message);
}

#[test]
fn l9_spares_checksum_folds_and_justified_define_hops() {
    let src = include_str!("fixtures/l9_codec_allowed.rs");
    let findings = analyze(&[("engine/src/codec.rs", "engine", src, HOT_SCOPE)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l10_prints_the_full_reachability_chain() {
    let src = include_str!("fixtures/l10_taint_violation.rs");
    let findings = analyze(&[("core/src/sdsx.rs", "core", src, LIB_SCOPE)]);
    assert_eq!(count(&findings, "L10/determinism-taint"), 1, "{findings:?}");
    let Some(f) = findings.iter().find(|f| f.rule == "L10/determinism-taint") else {
        return;
    };
    assert!(
        f.message.contains("SdsX::on_observation -> helper -> deep"),
        "{}",
        f.message
    );
}

#[test]
fn l10_spares_unreachable_taint_and_justified_sites() {
    let src = include_str!("fixtures/l10_taint_allowed.rs");
    let findings = analyze(&[("core/src/sdsy.rs", "core", src, LIB_SCOPE)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l11_wildcard_fires_on_verdict_class_enums() {
    let src = include_str!("fixtures/l11_wildcard_violation.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    // one `_` arm over Verdict, one over RecordError
    assert_eq!(count(&findings, "L11/verdict-match"), 2, "{findings:?}");
}

#[test]
fn l11_wildcard_spares_exhaustive_guarded_and_foreign_matches() {
    let src = include_str!("fixtures/l11_wildcard_allowed.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unjustified_allow_is_reported_and_suppresses_nothing() {
    let src = include_str!("fixtures/unjustified_allow.rs");
    let findings = check_source("fixture.rs", src, LIB_SCOPE);
    let mut rules = rules_of(&findings);
    rules.sort_unstable();
    assert_eq!(rules, vec!["L1/panic", "allow"], "{findings:?}");
}
