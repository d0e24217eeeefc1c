//! `gpufreq report --check` against the real binary: the baseline is
//! read before the report is written, so a baseline that sits where
//! `--out` writes still gates, and a missing baseline fails before any
//! output is produced.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    // crates/cli -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/cli has a grandparent")
        .to_path_buf()
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn report(out_dir: &Path, baseline: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpufreq"))
        .args(["report", "--fast", "--jobs", "2", "--out"])
        .arg(out_dir)
        .arg("--check")
        .arg(baseline)
        .env("GPUFREQ_GIT_REV", "")
        .output()
        .expect("spawn gpufreq")
}

/// The checked-in fast report with one metric that fails today
/// (`fig6.rmse.mem_H`, a relaxed-solver RMSE) marked as passing.
fn doctored_baseline() -> String {
    const FAIL: &str = "\"tier\": \"Fail\"";
    let mut json = std::fs::read_to_string(repo_root().join("reproduction.json"))
        .expect("checked-in reproduction.json");
    let at = json
        .find("\"id\": \"fig6.rmse.mem_H\"")
        .expect("baseline carries fig6.rmse.mem_H");
    let tier = at
        + json[at..]
            .find(FAIL)
            .expect("fig6.rmse.mem_H fails in the fast report");
    json.replace_range(tier..tier + FAIL.len(), "\"tier\": \"Pass\"");
    json
}

#[test]
fn check_against_the_file_it_overwrites_still_fails_on_a_regression() {
    let dir = scratch_dir("report_check_in_place");
    let baseline = dir.join("reproduction.json");
    std::fs::write(&baseline, doctored_baseline()).expect("write baseline");
    let out = report(&dir, &baseline);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_ne!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.contains("tier regression: fig6.rmse.mem_H"),
        "{stdout}"
    );
}

#[test]
fn missing_baseline_fails_before_writing_the_report() {
    let dir = scratch_dir("report_check_missing");
    let out = report(&dir, &dir.join("no-such-baseline.json"));
    assert_ne!(
        out.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !dir.join("REPRODUCTION.md").exists(),
        "a missing baseline must fail before the report is written"
    );
}
