//! Execution profiles: the absolute per-work-item work of a kernel.
//!
//! [`crate::features::StaticFeatures`] is what the
//! *predictor* is allowed to see (a normalized mix). The simulator, in
//! contrast, plays the role of the real GPU and needs absolute work:
//! how many instructions of each class one work-item executes, how many
//! bytes it moves, and how many work-items are launched. Keeping the two
//! views in separate types makes it impossible to accidentally leak
//! ground-truth magnitudes into the static model.

use crate::ast::KernelFn;
use crate::features::StaticFeatures;
use crate::ir::{analyze_kernel_with, AnalysisConfig, AnalysisError, InstructionCounts};
use serde::{Deserialize, Serialize};

/// ND-range launch geometry (flattened to one dimension; the paper's
/// kernels are all 1-D or trivially flattenable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Total number of work-items.
    pub global_size: u64,
    /// Work-group size.
    pub local_size: u64,
}

impl LaunchConfig {
    /// A launch with `global_size` items in groups of `local_size`.
    pub fn new(global_size: u64, local_size: u64) -> LaunchConfig {
        LaunchConfig {
            global_size,
            local_size,
        }
    }

    /// Number of work-groups (rounded up).
    pub fn num_groups(&self) -> u64 {
        self.global_size.div_ceil(self.local_size.max(1))
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            global_size: 1 << 20,
            local_size: 256,
        }
    }
}

/// Everything the simulator needs to execute a kernel: per-work-item
/// instruction counts and memory traffic, plus launch geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name (for reporting).
    pub name: String,
    /// Executed instructions per work-item by class.
    pub counts: InstructionCounts,
    /// Bytes read from global memory per work-item.
    pub global_read_bytes: f64,
    /// Bytes written to global memory per work-item.
    pub global_write_bytes: f64,
    /// Bytes moved through local memory per work-item.
    pub local_bytes: f64,
    /// Launch geometry.
    pub launch: LaunchConfig,
}

impl KernelProfile {
    /// Build a profile by statically analyzing `kernel` under `config`
    /// (parameter bindings let problem-size loops resolve exactly).
    pub fn from_kernel(
        kernel: &KernelFn,
        config: &AnalysisConfig,
        launch: LaunchConfig,
    ) -> Result<KernelProfile, AnalysisError> {
        let analysis = analyze_kernel_with(kernel, config)?;
        Ok(KernelProfile::from_analysis(kernel.name, &analysis, launch))
    }

    /// Build a profile from an analysis the caller already ran —
    /// callers that need both [`StaticFeatures`] and a profile analyze
    /// once and derive both views, instead of walking the AST twice.
    pub fn from_analysis(
        name: &str,
        analysis: &crate::ir::KernelAnalysis,
        launch: LaunchConfig,
    ) -> KernelProfile {
        KernelProfile {
            name: name.to_string(),
            counts: analysis.counts.clone(),
            global_read_bytes: analysis.global_read_bytes,
            global_write_bytes: analysis.global_write_bytes,
            local_bytes: analysis.local_bytes,
            launch,
        }
    }

    /// The static features corresponding to this profile's mix.
    pub fn static_features(&self) -> StaticFeatures {
        let analysis = crate::ir::KernelAnalysis {
            counts: self.counts.clone(),
            global_read_bytes: self.global_read_bytes,
            global_write_bytes: self.global_write_bytes,
            local_bytes: self.local_bytes,
        };
        StaticFeatures::from_analysis(&analysis)
    }

    /// Total global-memory traffic for the whole launch, in bytes.
    pub fn total_global_bytes(&self) -> f64 {
        (self.global_read_bytes + self.global_write_bytes) * self.launch.global_size as f64
    }

    /// Total executed instructions for the whole launch.
    pub fn total_instructions(&self) -> f64 {
        self.counts.total() * self.launch.global_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::InstrClass;
    use crate::parser::parse;

    fn profile(src: &str, launch: LaunchConfig) -> KernelProfile {
        let prog = parse(src).unwrap();
        KernelProfile::from_kernel(
            prog.first_kernel().unwrap(),
            &AnalysisConfig::default(),
            launch,
        )
        .unwrap()
    }

    #[test]
    fn launch_geometry() {
        let l = LaunchConfig::new(1000, 256);
        assert_eq!(l.num_groups(), 4);
        let exact = LaunchConfig::new(1024, 256);
        assert_eq!(exact.num_groups(), 4);
    }

    #[test]
    fn profile_scales_with_launch() {
        let src = "__kernel void copy(__global float* x, __global float* y) {
            uint i = get_global_id(0);
            y[i] = x[i];
        }";
        let p = profile(src, LaunchConfig::new(1 << 10, 256));
        assert_eq!(p.name, "copy");
        assert_eq!(p.counts.get(InstrClass::GlobalLoad), 1.0);
        assert_eq!(p.total_global_bytes(), (4.0 + 4.0) * 1024.0);
        let p2 = profile(src, LaunchConfig::new(1 << 11, 256));
        assert_eq!(p2.total_global_bytes(), 2.0 * p.total_global_bytes());
    }

    #[test]
    fn static_features_match_direct_analysis() {
        let src = "__kernel void k(__global float* x) {
            uint i = get_global_id(0);
            x[i] = sin(x[i]) * 2.0f;
        }";
        let prog = parse(src).unwrap();
        let a = crate::ir::analyze_kernel(prog.first_kernel().unwrap()).unwrap();
        let direct = StaticFeatures::from_analysis(&a);
        let via_profile = profile(src, LaunchConfig::default()).static_features();
        assert_eq!(direct, via_profile);
    }

    #[test]
    fn total_instructions_counts_launch() {
        let src = "__kernel void k(__global float* x) {
            uint i = get_global_id(0);
            x[i] = x[i] + 1.0f;
        }";
        let p = profile(src, LaunchConfig::new(100, 10));
        assert_eq!(p.total_instructions(), p.counts.total() * 100.0);
    }
}
