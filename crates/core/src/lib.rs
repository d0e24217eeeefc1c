//! `gpufreq-core` — the primary contribution of *Predictable GPUs
//! Frequency Scaling for Energy and Performance* (Fan, Cosenza,
//! Juurlink — ICPP 2019): a static, machine-learning model that
//! predicts the Pareto-optimal `(memory, core)` frequency
//! configurations of a GPU kernel *without executing it*.
//!
//! * [`planner`] — the [`Planner`] façade: typed, fallible
//!   train → persist → predict → evaluate in one builder-style entry
//!   point;
//! * [`error`] — the workspace [`Error`] type every fallible operation
//!   returns;
//! * [`artifact`] — [`ModelArtifact`], the versioned, device-tagged
//!   persistence envelope;
//! * [`engine`] — the parallel execution [`Engine`] (deterministic
//!   index-ordered fan-out of training, evaluation and batch
//!   prediction) and the shared [`ProfileCache`];
//! * [`pipeline`] — the training phase (Fig. 2): execute the 106
//!   synthetic micro-benchmarks at 40 sampled frequency settings and
//!   assemble `(features ⊕ frequencies) → (speedup, normalized energy)`
//!   datasets;
//! * [`model`] — the two-headed [`FreqScalingModel`]: linear-kernel
//!   ε-SVR for speedup, RBF-kernel ε-SVR for normalized energy
//!   (`C = 1000`, `ε = 0.1`, `γ = 0.1`), with serde persistence;
//! * [`predict`] — the prediction phase (Fig. 3): score every supported
//!   configuration of a *new* kernel, reduce to Algorithm 1's front
//!   (by sort-and-scan), and apply the paper's mem-L heuristic (§4.5);
//! * [`evaluate`] — ground-truth sweeps, per-memory-domain error
//!   analysis (Figs. 6–7), Pareto comparison (Fig. 8) and Table 2;
//! * [`report`] — ASCII/Markdown tables and the Table 2 CSV, shared by
//!   the CLI's `evaluate` command and `gpufreq report`.
//!
//! # End-to-end example
//!
//! ```no_run
//! use gpufreq_core::{Corpus, Planner};
//! use gpufreq_sim::Device;
//!
//! # fn main() -> Result<(), gpufreq_core::Error> {
//! // Training phase (Fig. 2): 106 micro-benchmarks x 40 settings.
//! let planner = Planner::builder()
//!     .device(Device::TitanX)
//!     .corpus(Corpus::Full)
//!     .settings(40)
//!     .train()?;
//!
//! // Prediction phase (Fig. 3): a new kernel, never executed.
//! let kernel = gpufreq_workloads::workload("knn")
//!     .expect("knn is one of the twelve benchmarks");
//! let prediction = planner.predict(&kernel.static_features())?;
//! for point in &prediction.pareto_set {
//!     println!("{}: predicted speedup {:.2}, energy {:.2}",
//!              point.config, point.objectives.speedup, point.objectives.energy);
//! }
//!
//! // Persist for driver-level reuse; `load` re-checks version + device.
//! planner.save("model.json")?;
//! # Ok(())
//! # }
//! ```
//!
//! The pre-redesign free functions ([`build_training_data`],
//! [`FreqScalingModel::train`], [`predict_pareto`]) remain re-exported
//! for existing callers; see the README's MIGRATION notes.

#![deny(missing_docs)]

pub mod artifact;
mod dtoa;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod model;
pub mod pipeline;
pub mod planner;
pub mod predict;
pub mod report;

pub use artifact::ModelArtifact;
pub use engine::{Engine, ProfileCache};
pub use error::{Error, Result, MODEL_FORMAT_VERSION};
pub use evaluate::{
    error_analysis, evaluate_all, evaluate_all_with, evaluate_workload, evaluate_workload_scored,
    table2, BenchmarkErrors, BenchmarkEvaluation, DomainErrorAnalysis, Objective, Table2Row,
    EVAL_SETTINGS,
};
pub use model::{FreqScalingModel, ModelConfig, ModelScorer};
pub use pipeline::{build_training_data, build_training_data_with, TrainingData};
pub use planner::{
    analyze_kernel_file, analyze_source, Corpus, Planner, PlannerBuilder, TrainedPlanner,
};
pub use predict::{
    predict_pareto, predict_pareto_at, predict_pareto_scored, ParetoPrediction, PredictPlan,
    PredictedPoint, MEM_L_MHZ,
};
pub use report::{
    ascii_table, csv_field, markdown_escape, markdown_table, render_table2, table2_csv,
};
