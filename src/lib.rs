//! `gpufreq` — a from-scratch Rust reproduction of *Predictable GPUs
//! Frequency Scaling for Energy and Performance* (Fan, Cosenza,
//! Juurlink — ICPP 2019, DOI 10.1145/3337821.3337833).
//!
//! The paper predicts, for a previously unseen OpenCL kernel, which
//! `(memory, core)` frequency configurations of a GPU are
//! Pareto-optimal with respect to speedup and normalized energy —
//! using only *static* code features, without ever executing the
//! kernel. This workspace implements the complete system plus every
//! substrate it needs:
//!
//! | crate | role |
//! |---|---|
//! | [`kernel`] | OpenCL-C-subset front-end + static feature extraction (the LLVM-pass analogue) |
//! | [`sim`] | deterministic GPU DVFS simulator with Titan X / P100 clock tables |
//! | [`ml`] | ε-SVR via SMO, OLS/ridge/LASSO/polynomial baselines, scaling, metrics |
//! | [`pareto`] | dominance, Algorithm 1, fast fronts, hypervolume, extreme points |
//! | [`synth`] | the 106 pattern-based synthetic training micro-benchmarks |
//! | [`workloads`] | the 12 test benchmarks of the evaluation |
//! | [`core`] | the paper's contribution: training pipeline, two-headed model, Pareto prediction, evaluation |
//! | [`serve`] | long-lived prediction daemon: JSON-lines protocol over TCP/stdio, bounded queue + front cache |
//!
//! # Quickstart
//!
//! The typed entry point is the [`Planner`](core::Planner) façade:
//! pick a [`Device`](sim::Device), train, predict, persist — every
//! step returns a [`Result`](core::Result) with a workspace
//! [`Error`](core::Error) instead of panicking on malformed input.
//!
//! ```no_run
//! use gpufreq::prelude::*;
//!
//! # fn main() -> Result<(), gpufreq::core::Error> {
//! // Train on the synthetic corpus (Fig. 2).
//! let planner = Planner::builder()
//!     .device(Device::TitanX)
//!     .corpus(Corpus::Full)
//!     .settings(40)
//!     .train()?;
//!
//! // Predict the Pareto-optimal frequency settings of a new kernel (Fig. 3).
//! let kernel = gpufreq::workloads::workload("knn")
//!     .expect("knn is one of the twelve benchmarks");
//! let prediction = planner.predict(&kernel.static_features())?;
//! println!("{} Pareto-optimal settings predicted", prediction.pareto_set.len());
//!
//! // Persist a versioned, device-tagged artifact for later reuse.
//! planner.save("model.json")?;
//! # Ok(())
//! # }
//! ```
//!
//! The pre-redesign free functions (`build_training_data`,
//! `FreqScalingModel::train`, `predict_pareto`) remain re-exported
//! through the prelude for existing callers.

pub use gpufreq_core as core;
pub use gpufreq_kernel as kernel;
pub use gpufreq_ml as ml;
pub use gpufreq_pareto as pareto;
pub use gpufreq_serve as serve;
pub use gpufreq_sim as sim;
pub use gpufreq_synth as synth;
pub use gpufreq_workloads as workloads;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use gpufreq_core::{
        build_training_data, build_training_data_with, error_analysis, evaluate_all,
        evaluate_all_with, evaluate_workload, predict_pareto, table2, Corpus, Engine, Error,
        FreqScalingModel, ModelArtifact, ModelConfig, Objective, ParetoPrediction, Planner,
        ProfileCache, TrainedPlanner,
    };
    pub use gpufreq_kernel::{
        analyze_kernel, parse, FreqConfig, KernelProfile, LaunchConfig, StaticFeatures,
    };
    pub use gpufreq_ml::{Dataset, SvmKernel, SvrParams};
    pub use gpufreq_pareto::{pareto_front_simple, Objectives};
    pub use gpufreq_serve::{Request, Response, Server, ServerConfig, ServerStats};
    pub use gpufreq_sim::{Device, DeviceSpec, GpuSimulator, Measurement};
    pub use gpufreq_workloads::{all_workloads, workload, Workload};
}
