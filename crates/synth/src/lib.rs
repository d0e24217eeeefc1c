//! `gpufreq-synth` — the 106 synthetic training micro-benchmarks of
//! §3.3 of *Predictable GPUs Frequency Scaling for Energy and
//! Performance* (Fan, Cosenza, Juurlink — ICPP 2019).
//!
//! The training corpus is generated, never hand-listed:
//!
//! * [`patterns`] — ten single-class patterns × nine intensities
//!   (2⁰ … 2⁸) = 90 kernels, each stressing one component of the static
//!   feature vector;
//! * [`mixed`] — sixteen mixed-feature kernels filling the interior of
//!   the feature space;
//!
//! for a total of **106 micro-benchmarks**, every one a real kernel
//! source compiled through `gpufreq-kernel`.

#![warn(missing_docs)]

pub mod mixed;
pub mod patterns;

pub use mixed::{mix_specs, MixSpec};
pub use patterns::{PatternKind, INTENSITIES};

use gpufreq_kernel::{parse, AnalysisConfig, KernelProfile, LaunchConfig, StaticFeatures};
use serde::{Deserialize, Serialize};

/// Number of micro-benchmarks in the corpus (§3.3).
pub const NUM_MICROBENCHMARKS: usize = 106;

/// Number of sampled frequency settings per benchmark during training
/// (§3.3: 106 × 40 = 4240 samples).
pub const TRAINING_SETTINGS: usize = 40;

/// One synthetic training kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroBenchmark {
    /// Benchmark name (`b-int-add-16`, `b-mix-stream`, ...).
    pub name: String,
    /// Kernel source in the OpenCL-C subset.
    pub source: String,
}

impl MicroBenchmark {
    /// Launch geometry used for all micro-benchmarks: 2²⁰ work-items in
    /// groups of 256 — large enough to saturate the simulated device.
    pub fn launch() -> LaunchConfig {
        LaunchConfig::new(1 << 20, 256)
    }

    /// Parse + analyze into an execution profile for the simulator.
    pub fn profile(&self) -> KernelProfile {
        let program = parse(&self.source).expect("generated source always parses");
        KernelProfile::from_kernel(
            program
                .first_kernel()
                .expect("generated source has a kernel"),
            &AnalysisConfig::default(),
            Self::launch(),
        )
        .expect("generated source always analyzes")
    }

    /// The static features the predictor sees for this benchmark.
    pub fn static_features(&self) -> StaticFeatures {
        self.profile().static_features()
    }
}

/// Generate the full 106-benchmark training corpus, deterministically.
pub fn generate_all() -> Vec<MicroBenchmark> {
    let mut out = Vec::with_capacity(NUM_MICROBENCHMARKS);
    for pattern in PatternKind::ALL {
        for &intensity in &INTENSITIES {
            out.push(MicroBenchmark {
                name: format!("{}-{}", pattern.name(), intensity),
                source: pattern.kernel_source(intensity),
            });
        }
    }
    for mix in mix_specs() {
        out.push(MicroBenchmark {
            name: mix.name.to_string(),
            source: mix.kernel_source(),
        });
    }
    debug_assert_eq!(out.len(), NUM_MICROBENCHMARKS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_exactly_106_benchmarks() {
        assert_eq!(generate_all().len(), NUM_MICROBENCHMARKS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = generate_all().into_iter().map(|b| b.name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn every_benchmark_profiles() {
        for b in generate_all() {
            let p = b.profile();
            assert!(p.counts.total() > 0.0, "{} has no instructions", b.name);
            assert!(p.total_global_bytes() > 0.0, "{} moves no data", b.name);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(generate_all(), generate_all());
    }

    #[test]
    fn feature_space_coverage() {
        // Across the corpus, every static feature class is exercised
        // by some benchmark with a meaningful share.
        let benches = generate_all();
        let mut max_share = [0.0f64; 10];
        for b in &benches {
            let f = b.static_features();
            for (j, &v) in f.values().iter().enumerate() {
                max_share[j] = max_share[j].max(v);
            }
        }
        for (j, &share) in max_share.iter().enumerate() {
            assert!(share > 0.2, "feature {j} max share only {share}");
        }
    }

    #[test]
    fn training_size_matches_paper() {
        assert_eq!(NUM_MICROBENCHMARKS * TRAINING_SETTINGS, 4240);
    }
}
