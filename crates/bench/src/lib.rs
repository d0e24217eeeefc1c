//! `gpufreq-bench` — the experiment harness.
//!
//! The [`report`] module is the scored, cited reproduction report
//! behind `gpufreq report`: it runs the pipeline once and builds one
//! paper-vs-repro section per figure and table of the paper's
//! evaluation. The checked-in `REPRODUCTION.md` / `reproduction.json`
//! at the repository root are golden-tested against the `--fast`
//! pipeline (`tests/report_golden.rs`).
//!
//! Beside it this crate holds the deterministic CSV generators the
//! golden regression tests in `tests/golden.rs` snapshot, the
//! Criterion micro-benchmarks for the library itself, and the
//! `loadgen` load generator for the serving path.

#![warn(missing_docs)]

pub mod report;

use gpufreq_core::{
    build_training_data_with, evaluate_all_with, table2, table2_csv, Engine, ModelConfig, Table2Row,
};
use gpufreq_sim::{DeviceSpec, GpuSimulator};
use std::fmt::Write as _;

/// The Figure 4 CSV for one device: every advertised `(mem, core)`
/// pair with its effective (possibly clamped) core clock and the
/// default-configuration marker. Pure clock-table enumeration —
/// deterministic by construction; snapshotted by the golden tests.
pub fn fig4_csv(spec: &DeviceSpec) -> String {
    let default = spec.clocks.default;
    let mut csv = String::from("mem_mhz,core_mhz,effective_core_mhz,clamped,default\n");
    for domain in &spec.clocks.domains {
        let mem = domain.mem_mhz;
        for &core in &domain.advertised_core_mhz {
            let eff = domain.effective_core(core);
            let _ = writeln!(
                csv,
                "{mem},{core},{eff},{},{}",
                (eff != core) as u8,
                (default.mem_mhz == mem && default.core_mhz == core) as u8
            );
        }
    }
    csv
}

/// Sampled settings of the pinned golden pipeline.
pub const GOLDEN_SETTINGS: usize = 8;

/// The hyper-parameters of the pinned golden pipeline:
/// [`ModelConfig::relaxed`], the one test-suite preset shared with the
/// determinism and property suites, bounded so the golden test
/// finishes in seconds.
pub fn golden_config() -> ModelConfig {
    ModelConfig::relaxed()
}

/// Table 2 rows from a **pinned, reduced** pipeline on `sim`: every
/// third micro-benchmark, [`GOLDEN_SETTINGS`] sampled settings,
/// [`golden_config`] hyper-parameters. Small enough for a `#[test]`,
/// deterministic enough to snapshot — the golden regression tests
/// compare [`golden_table2_csv`] byte-for-byte against
/// `artifacts/test/`.
pub fn golden_table2_rows(sim: &GpuSimulator, engine: &Engine) -> Vec<Table2Row> {
    let benches: Vec<_> = gpufreq_synth::generate_all()
        .into_iter()
        .step_by(3)
        .collect();
    let data = build_training_data_with(engine, sim, &benches, GOLDEN_SETTINGS);
    let model = gpufreq_core::FreqScalingModel::try_train_with(engine, &data, &golden_config())
        .expect("golden corpus is non-empty");
    let evals = evaluate_all_with(engine, sim, &model, &gpufreq_workloads::all_workloads());
    table2(&evals)
}

/// [`golden_table2_rows`] rendered as the snapshot CSV.
pub fn golden_table2_csv(sim: &GpuSimulator, engine: &Engine) -> String {
    table2_csv(&golden_table2_rows(sim, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_sim::Device;

    #[test]
    fn fig4_csv_counts_match_clock_table() {
        let spec = Device::TitanX.spec();
        let csv = fig4_csv(&spec);
        let advertised: usize = spec
            .clocks
            .domains
            .iter()
            .map(|d| d.advertised_core_mhz.len())
            .sum();
        assert_eq!(csv.lines().count(), advertised + 1, "header + one per pair");
        let defaults = csv.lines().filter(|l| l.ends_with(",1")).count();
        assert_eq!(defaults, 1, "exactly one default marker");
    }
}
