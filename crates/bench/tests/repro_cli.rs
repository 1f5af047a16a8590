//! The `repro` binary's command line: unknown figure names and flags are
//! usage errors, and a named figure writes its result file under the
//! working directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zskip-repro-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_names_and_flags_are_usage_errors() {
    let dir = scratch_dir("usage");
    for args in [&["fig99"][..], &["fig10", "--ful"], &["fig8", "fig10"]] {
        let out = repro(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
    }
    assert!(
        !dir.join("target").exists(),
        "a rejected command line must not run any figure"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_named_figure_writes_its_result_file() {
    let dir = scratch_dir("fig10");
    let out = repro(&["fig10"], &dir);
    assert!(
        out.status.success(),
        "repro fig10: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = dir.join("target/experiments/fig10_peak_comparison.json");
    let body = std::fs::read_to_string(&written).expect("fig10 result file");
    serde_json::from_str::<zskip_bench::figures::Fig10>(&body).expect("result file parses");
    std::fs::remove_dir_all(&dir).unwrap();
}
