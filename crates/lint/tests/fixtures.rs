//! Fixture-tree tests: one fixture per rule that must fire, one waived
//! fixture per rule that must not — plus the CI gate's core promise that
//! the real workspace is clean.

use std::path::{Path, PathBuf};

use peas_lint::rules::{D1, D2, D3, D4, D5, D6, R1, R2, R3};
use peas_lint::{exit_code, render_json, run_lint};

fn fixtures(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

#[test]
fn every_rule_fires_on_its_violation_fixture() {
    let report = run_lint(&fixtures("violations")).expect("fixture tree readable");
    let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in [D1, D2, D3, D4, D5, D6, R1, R2, R3] {
        assert!(
            fired.contains(&rule),
            "rule {rule} did not fire; fired = {fired:?}"
        );
    }
    assert_eq!(report.waived, 0, "violation tree has no waivers");
    assert_eq!(exit_code(&report), 1, "violations must exit nonzero");
}

#[test]
fn violation_fixtures_point_at_the_right_files() {
    let report = run_lint(&fixtures("violations")).expect("fixture tree readable");
    let find = |rule: &str| {
        report
            .diagnostics
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"))
    };
    assert!(find(D1).file.ends_with("crates/sim/src/d1_hash.rs"));
    assert!(find(D2).file.ends_with("crates/sim/src/d2_clock.rs"));
    assert!(find(D3).file.ends_with("crates/sim/src/d3_entropy.rs"));
    assert!(find(D4).file.ends_with("scenarios/dead.peas"));
    assert!(find(D4).message.contains("dead.peas"));
    assert!(find(D5).file.ends_with("crates/sim/src/d5_heap.rs"));
    assert!(find(D6).file.ends_with("crates/core/src/d6_env.rs"));
    assert!(find(D6).snippet.contains("env::var"));
    assert!(find(R1).file.ends_with("crates/grab/src/r1_panic.rs"));
    assert!(find(R2).file.ends_with("crates/des/src/r2_undoc.rs"));
    assert!(find(R3).file.ends_with("crates/model/src/r3_cast.rs"));
    assert!(find(R3).snippet.contains("as u32"));
    // Line/column anchors for a couple of them: d1's first hit is the
    // `use` on line 4; r1 points at the `.unwrap()` call.
    assert_eq!(find(D1).line, 4);
    assert!(find(R1).snippet.contains(".unwrap()"));
}

#[test]
fn waived_fixtures_are_silent_but_counted() {
    let report = run_lint(&fixtures("waived")).expect("fixture tree readable");
    assert!(
        report.diagnostics.is_empty(),
        "waived tree must be clean, got {:#?}",
        report.diagnostics
    );
    // One waived site per rule, except d1/d2/d5 which waive two sites
    // each; plus the waived retired.peas scenario (d4).
    assert_eq!(report.waived, 12, "waiver bookkeeping");
    assert_eq!(exit_code(&report), 0);
}

#[test]
fn json_output_round_trips_the_fixture_rules() {
    let report = run_lint(&fixtures("violations")).expect("fixture tree readable");
    let json = render_json(&report);
    for rule in [D1, D2, D3, D4, D5, D6, R1, R2, R3] {
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "{rule} in JSON"
        );
    }
    assert!(json.contains("\"summary\":{\"violations\":"));
}

#[test]
fn missing_crates_dir_is_a_usage_error() {
    let err = run_lint(&fixtures("violations").join("crates")).expect_err("no crates/ under here");
    assert!(err.contains("crates"), "{err}");
}

/// The acceptance criterion of the whole exercise: the real workspace —
/// every crate, after the DetSet/DetMap conversions and the documented
/// waivers — audits clean. A regression that reintroduces a HashMap into
/// sim logic fails this test (and the CI `cargo run -p peas-lint` gate)
/// immediately.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = run_lint(root).expect("workspace readable");
    assert!(
        report.diagnostics.is_empty(),
        "workspace must audit clean, got {:#?}",
        report.diagnostics
    );
    assert!(report.files_scanned > 50, "walker saw the whole workspace");
    assert!(
        report.waived >= 10,
        "the documented R1 waivers are in place"
    );
}
