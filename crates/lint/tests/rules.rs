//! Fixture-driven tests: every rule has a violating fixture (caught), a
//! clean fixture (passes, including annotated escapes with reasons), and
//! the annotation-hygiene cases (allow without a reason is rejected and
//! does not suppress).
//!
//! Each fixture is a miniature workspace root under `tests/fixtures/`,
//! scanned with a configuration narrowed to the rule under test — the
//! real-workspace configuration is exercised end to end by the
//! `workspace_clean` self-test.

use lint::rules::{Config, Finding};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A config with every registry empty — individual tests switch on just
/// the machinery they exercise.
fn base_config() -> Config {
    Config {
        kernel_dir: "crates/bdd/src",
        kernel_fns: &[],
        gc_free_files: &[],
        gc_methods: &[],
        panic_free_files: &[],
        telemetry_structs: &[],
        ref_ctor_dir: "",
        ref_encoding_file: "",
        ref_ctor_fns: &[],
    }
}

fn lint_fixture(name: &str, cfg: &Config) -> Vec<Finding> {
    lint::lint_root_with(&fixture(name), cfg).expect("fixture scan")
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- rule 1

fn kernel_cfg() -> Config {
    Config {
        kernel_fns: &["ite_rec", "xor_rec"],
        ..base_config()
    }
}

#[test]
fn kernel_tick_violations_are_caught() {
    let findings = lint_fixture("kernel_tick/bad", &kernel_cfg());
    assert_eq!(
        rules_of(&findings),
        ["kernel-tick", "kernel-tick"],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("mk"), "{}", findings[0]);
    assert!(
        findings[1].message.contains("never calls"),
        "{}",
        findings[1]
    );
}

#[test]
fn kernel_tick_clean_passes() {
    let findings = lint_fixture("kernel_tick/good", &kernel_cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn kernel_registry_drift_is_a_finding() {
    // The gc/bad tree has a kernel dir, but no `ite_rec` anywhere: a
    // rename that dodges the registry must break loudly.
    let cfg = Config {
        kernel_fns: &["ite_rec"],
        ..base_config()
    };
    let findings = lint_fixture("gc/bad", &cfg);
    assert_eq!(rules_of(&findings), ["kernel-tick"], "{findings:?}");
    assert!(
        findings[0].message.contains("registered kernel"),
        "{}",
        findings[0]
    );
}

// ---------------------------------------------------------------- rule 2

fn gc_cfg() -> Config {
    Config {
        gc_free_files: &["crates/bdd/src/ops.rs"],
        gc_methods: &["collect", "maybe_collect", "sift"],
        ..base_config()
    }
}

#[test]
fn gc_calls_in_kernel_files_are_caught() {
    let findings = lint_fixture("gc/bad", &gc_cfg());
    assert_eq!(
        rules_of(&findings),
        ["gc-in-kernel", "gc-in-kernel"],
        "{findings:?}"
    );
}

#[test]
fn gc_clean_passes_with_annotated_escape_and_test_code() {
    let findings = lint_fixture("gc/good", &gc_cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 3

#[test]
fn unbalanced_protect_release_is_caught() {
    let findings = lint_fixture("protect/bad", &base_config());
    assert_eq!(rules_of(&findings), ["protect-release"], "{findings:?}");
    assert!(findings[0].message.contains("2 protect"), "{}", findings[0]);
}

#[test]
fn balanced_and_annotated_transfers_pass() {
    let findings = lint_fixture("protect/good", &base_config());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 4

fn panic_cfg() -> Config {
    Config {
        panic_free_files: &["crates/logic/src/blif.rs"],
        ..base_config()
    }
}

#[test]
fn panic_surfaces_are_caught() {
    let findings = lint_fixture("panic/bad", &panic_cfg());
    assert_eq!(
        rules_of(&findings),
        ["panic-surface", "panic-surface", "panic-surface"],
        "{findings:?}"
    );
    let all = findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("indexing") && all.contains("unwrap") && all.contains("panic!"));
}

#[test]
fn panic_free_reader_with_annotated_dead_arm_passes() {
    let findings = lint_fixture("panic/good", &panic_cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 5

#[test]
fn unsafe_without_safety_comment_is_caught() {
    let findings = lint_fixture("unsafe/bad", &base_config());
    assert_eq!(rules_of(&findings), ["unsafe-safety"], "{findings:?}");
}

#[test]
fn unsafe_with_safety_comment_passes() {
    let findings = lint_fixture("unsafe/good", &base_config());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 6

fn telemetry_cfg() -> Config {
    Config {
        telemetry_structs: &[("CacheStats", "crates/bdd/src/manager.rs")],
        ..base_config()
    }
}

#[test]
fn dead_telemetry_field_is_caught() {
    let findings = lint_fixture("telemetry/bad", &telemetry_cfg());
    assert_eq!(rules_of(&findings), ["telemetry-liveness"], "{findings:?}");
    assert!(findings[0].message.contains("lookups"), "{}", findings[0]);
    // The in-module hit_rate() read of `lookups` must not have counted.
    assert_eq!(findings[0].file, "crates/bdd/src/manager.rs");
}

#[test]
fn fully_read_telemetry_passes() {
    let findings = lint_fixture("telemetry/good", &telemetry_cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 7

fn complement_cfg() -> Config {
    Config {
        ref_ctor_dir: "crates/bdd/src",
        ref_encoding_file: "crates/bdd/src/reference.rs",
        ref_ctor_fns: &["mk_regular", "lookup", "function_of"],
        ..base_config()
    }
}

#[test]
fn raw_ref_construction_is_caught() {
    let findings = lint_fixture("complement/bad", &complement_cfg());
    assert_eq!(
        rules_of(&findings),
        ["complement-canonical", "complement-canonical"],
        "{findings:?}"
    );
    let all = findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        all.contains("Ref::from_raw(") && all.contains("Ref::new("),
        "{all}"
    );
}

#[test]
fn registered_constructors_encoding_module_and_tests_pass() {
    let findings = lint_fixture("complement/good", &complement_cfg());
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------------- annotations

#[test]
fn allow_without_reason_is_rejected_and_does_not_suppress() {
    let findings = lint_fixture("annotation/bad", &panic_cfg());
    let rules = rules_of(&findings);
    // The reasonless allow is a finding AND the indexing it tried to
    // suppress still fires; the unknown-rule annotation is a finding too.
    assert!(rules.contains(&"annotation"), "{findings:?}");
    assert!(rules.contains(&"panic-surface"), "{findings:?}");
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("without a justification")),
        "{findings:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("unknown rule `made-up-rule`")),
        "{findings:?}"
    );
}

// ----------------------------------------------------------------- output

#[test]
fn json_output_is_machine_readable() {
    let findings = lint_fixture("panic/bad", &panic_cfg());
    let json = lint::findings_to_json(&findings);
    assert!(json.starts_with('['));
    assert!(json.contains("\"rule\": \"panic-surface\""));
    assert!(json.contains("\"file\": \"crates/logic/src/blif.rs\""));
    // Every finding carries the four fields.
    assert_eq!(json.matches("\"line\":").count(), findings.len());
    // And an empty run serializes to an empty array.
    assert_eq!(lint::findings_to_json(&[]), "[]\n");
}

#[test]
fn text_output_format_is_file_line_rule_message() {
    let findings = lint_fixture("unsafe/bad", &base_config());
    let line = findings[0].to_string();
    assert!(
        line.starts_with("crates/core/src/lib.rs:3: unsafe-safety: "),
        "{line}"
    );
}
