//! Runs the benchmark's smoke mode: every workload shrunken, untraced and
//! traced, with every emitted metric checked against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_mode_emits_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(&root)
        .output()
        .expect("run perfbench --smoke");
    assert!(
        out.status.success(),
        "smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn outside_the_repository_root_it_fails_without_a_result() {
    let dir = std::env::temp_dir().join(format!("perfbench-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create an empty directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "paper-480",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "printed a result outside the root");
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-480", "--trace", "2"][..],
        &["--seconds", "0", "--workload", "paper-480"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
