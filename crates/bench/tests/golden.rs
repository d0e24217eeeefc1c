//! Golden regression tests for the Fig. 4 clock tables and Table 2.
//!
//! These tests snapshot the deterministic generators [`fig4_csv`] and
//! [`golden_table2_csv`] under `artifacts/test/` and compare
//! byte-for-byte, so a drift in the clock tables, the sampling scheme,
//! the solver, or the evaluation shows up as a CI failure naming the
//! figure it moved.
//!
//! To regenerate the snapshots after an *intentional* change:
//!
//! ```sh
//! GPUFREQ_BLESS=1 cargo test -p gpufreq-bench --test golden
//! ```
//!
//! and commit the rewritten files together with the change that moved
//! them.

use gpufreq_bench::{fig4_csv, golden_table2_csv};
use gpufreq_core::Engine;
use gpufreq_sim::Device;
use std::path::{Path, PathBuf};

/// Directory the committed snapshots live in (relative to this crate).
fn snapshot_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/test")
}

/// Compare `actual` against the committed snapshot `name`, or rewrite
/// the snapshot when `GPUFREQ_BLESS` is set.
fn assert_matches_snapshot(name: &str, actual: &str) {
    let path = snapshot_dir().join(name);
    if std::env::var_os("GPUFREQ_BLESS").is_some() {
        std::fs::create_dir_all(snapshot_dir()).expect("create snapshot directory");
        std::fs::write(&path, actual).expect("write snapshot");
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with GPUFREQ_BLESS=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first differing line rather than dumping both
        // files whole.
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || expected.lines().count().min(actual.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "snapshot {} drifted at line {line}:\n  expected: {:?}\n  actual:   {:?}\n\
             if the change is intentional, re-bless with GPUFREQ_BLESS=1",
            path.display(),
            expected.lines().nth(line - 1).unwrap_or("<eof>"),
            actual.lines().nth(line - 1).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn fig4_titan_x_csv_matches_snapshot() {
    assert_matches_snapshot("fig4_titan_x.csv", &fig4_csv(&Device::TitanX.spec()));
}

#[test]
fn fig4_tesla_p100_csv_matches_snapshot() {
    assert_matches_snapshot("fig4_tesla_p100.csv", &fig4_csv(&Device::TeslaP100.spec()));
}

#[test]
fn table2_golden_pipeline_matches_snapshot() {
    // The pinned reduced pipeline (see `golden_table2_rows`): small
    // enough for CI, same code path as the paper-scale `table2` binary.
    let sim = Device::TitanX.simulator();
    assert_matches_snapshot(
        "table2_fast.csv",
        &golden_table2_csv(&sim, &Engine::default()),
    );
}

#[test]
fn table2_golden_pipeline_is_schedule_independent() {
    // The snapshot is also the determinism anchor for the bench path:
    // serial and 4-way parallel runs must render byte-identical CSV.
    let sim = Device::TitanX.simulator();
    assert_eq!(
        golden_table2_csv(&sim, &Engine::serial()),
        golden_table2_csv(&sim, &Engine::new(Some(4))),
    );
}
