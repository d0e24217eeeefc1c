//! `gpufreq-workloads` — the twelve test benchmarks of the paper's
//! evaluation (§4.2), written as real kernels in the OpenCL-C subset.
//!
//! The paper evaluates its predictor on twelve applications:
//! Perlin Noise, Molecular Dynamics (MD), K-means, Median Filter,
//! Convolution, Blackscholes, Mersenne Twister (MT), Flte,
//! Matrix Multiply, Bit Compression, AES, and k-NN. Each module here
//! contains the kernel source, launch geometry, and problem-size
//! bindings for one of them. The sources are genuine code — the feature
//! extractor and the simulator only ever see what they can derive from
//! the kernel text, exactly as the paper's pipeline only sees the
//! compiled OpenCL.
//!
//! The kernels are written to reproduce each application's published
//! character (§4.2, Fig. 5): k-NN, AES, Matrix Multiply, Convolution,
//! MD, K-means, Perlin Noise and Flte are compute-dominated (speedup
//! scales with the core clock), while Median Filter, Bit Compression,
//! MT and Blackscholes are memory-dominated (flat in the core clock,
//! sensitive to the memory clock).

#![warn(missing_docs)]

pub mod aes;
pub mod bitcompression;
pub mod blackscholes;
pub mod convolution;
pub mod flte;
pub mod kmeans;
pub mod knn;
pub mod matmul;
pub mod md;
pub mod median;
pub mod mt;
pub mod perlin;

use gpufreq_kernel::{parse, AnalysisConfig, KernelProfile, LaunchConfig, Program, StaticFeatures};
use serde::Serialize;

/// One test benchmark: kernel source plus everything needed to run it.
///
/// Serializable for tooling output; not deserializable, since the
/// name fields are `&'static str` borrowed from the binary itself.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Short machine name (`"knn"`, `"aes"`, ...).
    pub name: &'static str,
    /// Name as printed in the paper's figures (`"k-NN"`, `"AES"`, ...).
    pub display_name: &'static str,
    /// Kernel source in the OpenCL-C subset.
    pub source: String,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Problem-size parameter bindings for the static analysis.
    pub bindings: Vec<(&'static str, i64)>,
}

impl Workload {
    /// Parse the kernel source (the program borrows it).
    pub fn program(&self) -> Program<'_> {
        parse(&self.source).expect("workload sources always parse")
    }

    /// The analysis configuration (problem-size bindings applied).
    pub fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig::with_bindings(self.bindings.iter().map(|(k, v)| (k.to_string(), *v)))
    }

    /// Execution profile for the simulator.
    pub fn profile(&self) -> KernelProfile {
        let program = self.program();
        KernelProfile::from_kernel(
            program.first_kernel().expect("workload has a kernel"),
            &self.analysis_config(),
            self.launch,
        )
        .expect("workload sources always analyze")
    }

    /// The static features the predictor sees.
    pub fn static_features(&self) -> StaticFeatures {
        self.profile().static_features()
    }
}

/// All twelve benchmarks, in the paper's Table 2 order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        perlin::workload(),
        md::workload(),
        kmeans::workload(),
        median::workload(),
        convolution::workload(),
        blackscholes::workload(),
        mt::workload(),
        flte::workload(),
        matmul::workload(),
        bitcompression::workload(),
        aes::workload(),
        knn::workload(),
    ]
}

/// Look up one benchmark by machine name.
pub fn workload(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

/// Number of test benchmarks (§4.2).
pub const NUM_WORKLOADS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_workloads_exist() {
        assert_eq!(all_workloads().len(), NUM_WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_workloads().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_WORKLOADS);
    }

    #[test]
    fn every_workload_parses_and_profiles() {
        for w in all_workloads() {
            let p = w.profile();
            assert!(p.counts.total() > 0.0, "{} has no instructions", w.name);
            assert!(p.total_global_bytes() > 0.0, "{} moves no data", w.name);
        }
    }

    #[test]
    fn workloads_serialize_to_json() {
        // Regression: `Workload` once derived `Deserialize` too, which
        // can never work for its `&'static str` fields; it is
        // serialize-only. Guard that serialization itself stays intact.
        for w in all_workloads() {
            let json = serde_json::to_string(&w).unwrap();
            assert!(json.contains(&format!("\"name\":\"{}\"", w.name)));
            assert!(json.contains("\"source\""));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload("knn").is_some());
        assert!(workload("aes").is_some());
        assert!(workload("does-not-exist").is_none());
    }

    #[test]
    fn feature_vectors_are_distinct() {
        // The twelve codes must be distinguishable by the static model.
        let ws = all_workloads();
        for i in 0..ws.len() {
            for j in i + 1..ws.len() {
                let d = ws[i].static_features().distance(&ws[j].static_features());
                assert!(
                    d > 1e-3,
                    "{} and {} are indistinguishable (d = {d})",
                    ws[i].name,
                    ws[j].name
                );
            }
        }
    }

    #[test]
    fn compute_vs_memory_character() {
        // §4.2 / Fig. 5: the twelve codes split into compute-dominated
        // (top) and memory-dominated (bottom) groups. Verify on the
        // simulator at the default configuration.
        use gpufreq_sim::{execution_time, GpuSimulator, KernelDemand};
        let sim = GpuSimulator::titan_x();
        let default = sim.spec().clocks.default;
        let memory_bound = ["median", "bitcompression", "mt", "blackscholes"];
        for w in all_workloads() {
            let demand = KernelDemand::from_profile(sim.spec(), &w.profile());
            let t = execution_time(sim.spec(), &demand, default);
            let expect_mem = memory_bound.contains(&w.name);
            assert_eq!(
                t.is_memory_bound(),
                expect_mem,
                "{}: compute {:.3} ms vs memory {:.3} ms",
                w.name,
                t.compute_s * 1e3,
                t.memory_s * 1e3
            );
        }
    }
}
